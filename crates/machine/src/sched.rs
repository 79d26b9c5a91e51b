//! Per-core run queues with a fixed quantum — the slice of the OS the
//! paper's mechanism interacts with.
//!
//! The user-level allocator only ever sets *affinity* (which queue a thread
//! waits in); time-sharing within a core stays round-robin, so threads
//! herded onto one core never run concurrently but also never starve
//! (Section 3.2).
//!
//! State is domain-major: a [`SchedLane`] owns the queues of one cache
//! domain's cores, and each core's per-op-written words (its clock and its
//! remaining quantum, next to its running slot and queue header) sit in
//! their own 128-byte block, so stepping threads driving different domains
//! never write the same cache line (DESIGN §12, "What a lane may share").

use std::collections::VecDeque;
use std::ops::Range;

/// Layout census helper: the bytes of `v` itself (its header, not what it
/// points to).
#[cfg(test)]
pub(crate) fn span<T>(v: &T) -> Range<usize> {
    let start = v as *const T as usize;
    start..start + std::mem::size_of::<T>()
}

/// One core: its local clock and its round-robin run queue. The stepping
/// loop writes `clock` and `quantum_left` on every op, so a core gets a
/// block to itself (two 64-byte lines: the adjacent-line prefetcher pulls
/// them in pairs).
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
struct CoreSlot {
    clock: u64,
    quantum_left: i64,
    running: Option<usize>,
    queue: VecDeque<usize>,
}

impl CoreSlot {
    fn has_work(&self) -> bool {
        self.running.is_some() || !self.queue.is_empty()
    }

    fn holds(&self, tid: usize) -> bool {
        self.running == Some(tid) || self.queue.contains(&tid)
    }
}

/// One cache domain's cores: run queues, quantum accounting and core
/// clocks. All core arguments are *global* indices, so lane code reads
/// identically to whole-machine code.
#[derive(Debug, Clone)]
pub struct SchedLane {
    core_start: usize,
    slots: Vec<CoreSlot>,
}

impl SchedLane {
    /// Idle lane over the (contiguous, global) core range `cores`.
    pub fn new(cores: Range<usize>) -> Self {
        SchedLane {
            core_start: cores.start,
            slots: vec![CoreSlot::default(); cores.len()],
        }
    }

    /// Global ids of this lane's cores.
    #[inline]
    pub fn cores(&self) -> Range<usize> {
        self.core_start..self.core_start + self.slots.len()
    }

    #[inline]
    fn slot(&self, core: usize) -> &CoreSlot {
        &self.slots[core - self.core_start]
    }

    #[inline]
    fn slot_mut(&mut self, core: usize) -> &mut CoreSlot {
        &mut self.slots[core - self.core_start]
    }

    /// Append `tid` to `core`'s queue.
    pub fn enqueue(&mut self, core: usize, tid: usize) {
        self.slot_mut(core).queue.push_back(tid);
    }

    /// Whether `core` has anything to run (running or queued).
    #[inline]
    pub fn has_work(&self, core: usize) -> bool {
        self.slot(core).has_work()
    }

    /// Threads on `core` including the running one (running first).
    pub fn threads_on(&self, core: usize) -> Vec<usize> {
        let slot = self.slot(core);
        slot.running
            .into_iter()
            .chain(slot.queue.iter().copied())
            .collect()
    }

    /// Remove `tid` from wherever it lives on this lane (for an affinity
    /// move). Returns the core it was on and whether it was actively
    /// running.
    pub fn remove(&mut self, tid: usize) -> Option<(usize, bool)> {
        let core = self.core_of(tid)?;
        let slot = self.slot_mut(core);
        if slot.running == Some(tid) {
            slot.running = None;
            return Some((core, true));
        }
        slot.queue.retain(|&t| t != tid);
        Some((core, false))
    }

    /// The core of this lane `tid` is currently assigned to, if any.
    pub fn core_of(&self, tid: usize) -> Option<usize> {
        self.cores().find(|&c| self.slot(c).holds(tid))
    }

    /// Number of threads assigned to `core` (running + queued).
    #[inline]
    pub fn load(&self, core: usize) -> usize {
        let slot = self.slot(core);
        usize::from(slot.running.is_some()) + slot.queue.len()
    }

    /// The most-behind active core of this lane — its frontier (first
    /// minimum of the active clocks: lowest index wins ties, matching
    /// `min_by_key`).
    pub fn frontier_core(&self) -> Option<usize> {
        self.cores()
            .filter(|&c| self.has_work(c))
            .min_by_key(|&c| self.clock(c))
    }

    /// `core`'s local clock.
    #[inline]
    pub fn clock(&self, core: usize) -> u64 {
        self.slot(core).clock
    }

    /// Mutable handle on `core`'s local clock.
    #[inline]
    pub fn clock_mut(&mut self, core: usize) -> &mut u64 {
        &mut self.slot_mut(core).clock
    }

    /// The thread currently on `core`.
    #[inline]
    pub fn current(&self, core: usize) -> Option<usize> {
        self.slot(core).running
    }

    /// Pop the next queued thread onto the core and arm its quantum.
    /// Returns the dispatched tid, or `None` if the queue is empty.
    pub fn dispatch(&mut self, core: usize, quantum: u64) -> Option<usize> {
        let slot = self.slot_mut(core);
        debug_assert!(slot.running.is_none());
        let tid = slot.queue.pop_front()?;
        slot.running = Some(tid);
        slot.quantum_left = quantum as i64;
        Some(tid)
    }

    /// Re-arm the running quantum (used for solo threads and for
    /// background threads with reduced quantum shares).
    #[inline]
    pub fn rearm(&mut self, core: usize, quantum: u64) {
        self.slot_mut(core).quantum_left = quantum as i64;
    }

    /// Charge `cycles` against the running quantum; true when it expired.
    #[inline]
    pub fn charge(&mut self, core: usize, cycles: u64) -> bool {
        let slot = self.slot_mut(core);
        slot.quantum_left -= cycles as i64;
        slot.quantum_left <= 0
    }

    /// Mutable handles on `core`'s clock and remaining quantum, so the
    /// batched hot loop can advance both without re-indexing per op
    /// (charging the quantum cell is equivalent to repeated
    /// [`SchedLane::charge`] calls).
    #[inline]
    pub fn hot_cells(&mut self, core: usize) -> (&mut u64, &mut i64) {
        let slot = self.slot_mut(core);
        (&mut slot.clock, &mut slot.quantum_left)
    }

    /// Layout census: `(cell, address range)` of everything of `core` the
    /// stepping loop writes, then the range of the core's whole block.
    #[cfg(test)]
    pub(crate) fn written_cells(
        &self,
        core: usize,
    ) -> (Vec<(&'static str, Range<usize>)>, Range<usize>) {
        let slot = self.slot(core);
        let cells = vec![
            ("clock cell", span(&slot.clock)),
            ("quantum cell", span(&slot.quantum_left)),
            ("running slot", span(&slot.running)),
            ("queue header", span(&slot.queue)),
        ];
        (cells, span(slot))
    }

    /// Deschedule the running thread back to its queue tail; returns it.
    pub fn preempt(&mut self, core: usize) -> Option<usize> {
        let slot = self.slot_mut(core);
        let tid = slot.running.take()?;
        slot.queue.push_back(tid);
        Some(tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_pops_fifo() {
        let mut l = SchedLane::new(0..1);
        l.enqueue(0, 5);
        l.enqueue(0, 7);
        assert_eq!(l.dispatch(0, 100), Some(5));
        assert_eq!(l.current(0), Some(5));
        assert_eq!(l.load(0), 2);
    }

    #[test]
    fn quantum_expires_after_charges() {
        let mut l = SchedLane::new(0..1);
        l.enqueue(0, 1);
        l.dispatch(0, 100);
        assert!(!l.charge(0, 60));
        assert!(l.charge(0, 60), "overshoot ends the quantum");
    }

    #[test]
    fn preempt_round_robins() {
        let mut l = SchedLane::new(0..1);
        l.enqueue(0, 1);
        l.enqueue(0, 2);
        l.dispatch(0, 10);
        assert_eq!(l.preempt(0), Some(1));
        assert_eq!(l.dispatch(0, 10), Some(2));
        l.preempt(0);
        assert_eq!(l.dispatch(0, 10), Some(1), "rotation returns to 1");
    }

    #[test]
    fn remove_running_thread() {
        let mut l = SchedLane::new(0..2);
        l.enqueue(0, 3);
        l.dispatch(0, 10);
        assert_eq!(l.remove(3), Some((0, true)));
        assert_eq!(l.threads_on(0), Vec::<usize>::new());
        assert!(!l.has_work(0));
    }

    #[test]
    fn remove_queued_thread() {
        let mut l = SchedLane::new(0..2);
        l.enqueue(1, 3);
        l.enqueue(1, 4);
        assert_eq!(l.remove(4), Some((1, false)));
        assert_eq!(l.threads_on(1), vec![3]);
        assert_eq!(l.remove(99), None);
    }

    #[test]
    fn core_of_finds_thread() {
        let mut l = SchedLane::new(0..2);
        l.enqueue(1, 8);
        assert_eq!(l.core_of(8), Some(1));
        l.dispatch(1, 10);
        assert_eq!(l.core_of(8), Some(1));
        assert_eq!(l.core_of(9), None);
    }

    #[test]
    fn lanes_address_cores_by_global_index() {
        let mut lanes = [SchedLane::new(0..2), SchedLane::new(2..4)];
        assert_eq!(lanes[1].cores(), 2..4);
        lanes[0].enqueue(0, 10);
        lanes[1].enqueue(2, 20);
        lanes[1].enqueue(3, 30);
        assert_eq!(lanes[0].dispatch(0, 100), Some(10));
        assert_eq!(lanes[1].dispatch(2, 100), Some(20));
        assert!(lanes[1].has_work(3));
        assert_eq!(lanes[1].load(3), 1);
        assert!(lanes[1].charge(2, 200), "quantum expires in lane");
        assert_eq!(lanes[1].preempt(2), Some(20));
        *lanes[1].clock_mut(3) += 7;
        assert_eq!((lanes[1].clock(2), lanes[1].clock(3)), (0, 7));
        // 10 is running on core 0, 20 is back in core 2's queue, and a
        // lane only knows its own threads.
        assert_eq!(lanes[1].core_of(20), Some(2));
        assert_eq!(lanes[1].core_of(30), Some(3));
        assert_eq!(lanes[0].core_of(20), None);
        assert_eq!(lanes[0].remove(10), Some((0, true)));
        assert_eq!(lanes[1].remove(20), Some((2, false)));
    }

    #[test]
    fn threads_on_lists_running_first() {
        let mut l = SchedLane::new(0..1);
        l.enqueue(0, 1);
        l.enqueue(0, 2);
        l.dispatch(0, 10);
        assert_eq!(l.threads_on(0), vec![1, 2]);
    }
}
