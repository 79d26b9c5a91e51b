//! Bounded lock-free SPSC ring — the only channel between a reactor and
//! a shard.
//!
//! Every (reactor, shard) pair gets its own pair of rings (jobs one way,
//! completions the other), so each ring has exactly one producer thread
//! and one consumer thread and two relaxed-load/acquire-release atomics
//! are enough: the producer owns `tail`, the consumer owns `head`, and
//! each only *reads* the other's index. A full ring never blocks — the
//! reactor turns a failed push into a `Degraded` reply (load shedding at
//! the shard boundary, replacing the old daemon's shed-thread pool).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Ring<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop (owned by the consumer).
    head: AtomicUsize,
    /// Next slot to push (owned by the producer).
    tail: AtomicUsize,
}

// The ring hands `T`s across threads and guards slot access with the
// head/tail protocol, so it is Sync exactly when `T` is Send.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both endpoints are gone: drain whatever was never popped.
        let len = self.slots.len();
        let mut head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        while head != tail {
            unsafe {
                (*self.slots[head].get()).assume_init_drop();
            }
            head = (head + 1) % len;
        }
    }
}

/// The sending half; exactly one thread may hold it.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

/// The receiving half; exactly one thread may hold it.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer").finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").finish_non_exhaustive()
    }
}

/// A bounded SPSC channel holding up to `cap` in-flight items.
pub fn channel<T>(cap: usize) -> (Producer<T>, Consumer<T>) {
    // One slot is sacrificed to distinguish full from empty.
    let slots = (0..cap.max(1) + 1)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

impl<T> Producer<T> {
    /// Try to enqueue `v`; hands it back when the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let next = (tail + 1) % ring.slots.len();
        if next == ring.head.load(Ordering::Acquire) {
            return Err(v);
        }
        unsafe {
            (*ring.slots[tail].get()).write(v);
        }
        ring.tail.store(next, Ordering::Release);
        Ok(())
    }
}

impl<T> Consumer<T> {
    /// Items queued right now. The producer may add more at any moment,
    /// never fewer: only this end pops.
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        (tail + ring.slots.len() - head) % ring.slots.len()
    }

    /// Dequeue the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        if head == ring.tail.load(Ordering::Acquire) {
            return None;
        }
        let v = unsafe { (*ring.slots[head].get()).assume_init_read() };
        ring.head
            .store((head + 1) % ring.slots.len(), Ordering::Release);
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_order() {
        let (mut tx, mut rx) = channel::<u32>(3);
        assert_eq!(rx.pop(), None);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        tx.push(3).unwrap();
        assert_eq!(tx.push(4), Err(4));
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.pop(), Some(1));
        tx.push(4).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), None);
        assert_eq!(rx.len(), 0);
    }

    #[test]
    fn unpopped_items_drop_cleanly() {
        let payload = Arc::new(());
        let (mut tx, rx) = channel::<Arc<()>>(8);
        for _ in 0..5 {
            tx.push(Arc::clone(&payload)).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn cross_thread_stream_arrives_in_order() {
        let (mut tx, mut rx) = channel::<u64>(16);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expect = 0u64;
        while expect < 10_000 {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
