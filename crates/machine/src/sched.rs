//! Per-core run queues with a fixed quantum — the slice of the OS the
//! paper's mechanism interacts with.
//!
//! The user-level allocator only ever sets *affinity* (which queue a thread
//! waits in); time-sharing within a core stays round-robin, so threads
//! herded onto one core never run concurrently but also never starve
//! (Section 3.2).

use std::collections::VecDeque;

/// Round-robin scheduler state. The whole-machine view owns placement
/// (which queue a thread waits in); dispatching, quantum accounting and
/// preemption happen through the per-domain [`SchedLane`]s that
/// [`Scheduler::split_lanes`] hands to the stepping engine.
#[derive(Debug, Clone)]
pub struct Scheduler {
    queues: Vec<VecDeque<usize>>,
    running: Vec<Option<usize>>,
    quantum_left: Vec<i64>,
}

impl Scheduler {
    /// Empty scheduler for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Scheduler {
            queues: vec![VecDeque::new(); cores],
            running: vec![None; cores],
            quantum_left: vec![0; cores],
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.queues.len()
    }

    /// Append `tid` to `core`'s queue.
    pub fn enqueue(&mut self, core: usize, tid: usize) {
        self.queues[core].push_back(tid);
    }

    /// Whether `core` has anything to run (running or queued).
    #[inline]
    pub fn has_work(&self, core: usize) -> bool {
        self.running[core].is_some() || !self.queues[core].is_empty()
    }

    /// Threads on `core` including the running one (running first).
    pub fn threads_on(&self, core: usize) -> Vec<usize> {
        self.running[core]
            .into_iter()
            .chain(self.queues[core].iter().copied())
            .collect()
    }

    /// Remove `tid` from wherever it lives (for an affinity move).
    /// Returns the core it was on and whether it was actively running.
    pub fn remove(&mut self, tid: usize) -> Option<(usize, bool)> {
        for core in 0..self.queues.len() {
            if self.running[core] == Some(tid) {
                self.running[core] = None;
                return Some((core, true));
            }
            if let Some(pos) = self.queues[core].iter().position(|&t| t == tid) {
                self.queues[core].remove(pos);
                return Some((core, false));
            }
        }
        None
    }

    /// The core `tid` is currently assigned to, if any.
    pub fn core_of(&self, tid: usize) -> Option<usize> {
        (0..self.queues.len())
            .find(|&c| self.running[c] == Some(tid) || self.queues[c].contains(&tid))
    }

    /// Number of threads assigned to `core` (running + queued).
    pub fn load(&self, core: usize) -> usize {
        usize::from(self.running[core].is_some()) + self.queues[core].len()
    }

    /// Split the scheduler into per-domain lanes over `ranges`, which must
    /// be contiguous, ascending and cover every core exactly once (cache
    /// domains always are). Each lane owns the run-queue state of its
    /// cores and keeps addressing them by *global* core index, so lane
    /// code reads identically to whole-machine code.
    pub fn split_lanes(&mut self, ranges: &[std::ops::Range<usize>]) -> Vec<SchedLane<'_>> {
        let mut lanes = Vec::with_capacity(ranges.len());
        let (mut queues, mut running, mut quantum_left) = (
            self.queues.as_mut_slice(),
            self.running.as_mut_slice(),
            self.quantum_left.as_mut_slice(),
        );
        let mut taken = 0usize;
        for range in ranges {
            debug_assert_eq!(range.start, taken, "domain ranges must be contiguous");
            let len = range.end - range.start;
            let (q, q_rest) = queues.split_at_mut(len);
            let (r, r_rest) = running.split_at_mut(len);
            let (ql, ql_rest) = quantum_left.split_at_mut(len);
            lanes.push(SchedLane {
                core_start: range.start,
                queues: q,
                running: r,
                quantum_left: ql,
            });
            queues = q_rest;
            running = r_rest;
            quantum_left = ql_rest;
            taken = range.end;
        }
        debug_assert!(queues.is_empty(), "domain ranges must cover every core");
        lanes
    }
}

/// One cache domain's slice of the scheduler (see
/// [`Scheduler::split_lanes`]). All core arguments are global indices.
#[derive(Debug)]
pub struct SchedLane<'a> {
    core_start: usize,
    queues: &'a mut [VecDeque<usize>],
    running: &'a mut [Option<usize>],
    quantum_left: &'a mut [i64],
}

impl SchedLane<'_> {
    #[inline]
    fn local(&self, core: usize) -> usize {
        core - self.core_start
    }

    /// The thread currently on `core`.
    #[inline]
    pub fn current(&self, core: usize) -> Option<usize> {
        self.running[self.local(core)]
    }

    /// Whether `core` has anything to run (running or queued).
    #[inline]
    pub fn has_work(&self, core: usize) -> bool {
        let c = self.local(core);
        self.running[c].is_some() || !self.queues[c].is_empty()
    }

    /// Pop the next queued thread onto the core and arm its quantum.
    /// Returns the dispatched tid, or `None` if the queue is empty.
    pub fn dispatch(&mut self, core: usize, quantum: u64) -> Option<usize> {
        let c = self.local(core);
        debug_assert!(self.running[c].is_none());
        let tid = self.queues[c].pop_front()?;
        self.running[c] = Some(tid);
        self.quantum_left[c] = quantum as i64;
        Some(tid)
    }

    /// Re-arm the running quantum (used for solo threads and for
    /// background threads with reduced quantum shares).
    #[inline]
    pub fn rearm(&mut self, core: usize, quantum: u64) {
        self.quantum_left[self.local(core)] = quantum as i64;
    }

    /// Charge `cycles` against the running quantum; true when it expired.
    #[inline]
    pub fn charge(&mut self, core: usize, cycles: u64) -> bool {
        let c = self.local(core);
        self.quantum_left[c] -= cycles as i64;
        self.quantum_left[c] <= 0
    }

    /// Mutable handle on `core`'s remaining quantum, so the batched hot
    /// loop can charge it without re-indexing per op (equivalent to
    /// repeated [`SchedLane::charge`] calls).
    #[inline]
    pub fn quantum_cell(&mut self, core: usize) -> &mut i64 {
        let c = self.local(core);
        &mut self.quantum_left[c]
    }

    /// Deschedule the running thread back to its queue tail; returns it.
    pub fn preempt(&mut self, core: usize) -> Option<usize> {
        let c = self.local(core);
        let tid = self.running[c].take()?;
        self.queues[c].push_back(tid);
        Some(tid)
    }

    /// Number of threads assigned to `core` (running + queued).
    #[inline]
    pub fn load(&self, core: usize) -> usize {
        let c = self.local(core);
        usize::from(self.running[c].is_some()) + self.queues[c].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole scheduler as a single lane (one domain over every core).
    #[allow(clippy::single_range_in_vec_init)] // one range, one lane
    fn lane(s: &mut Scheduler) -> SchedLane<'_> {
        let cores = s.cores();
        s.split_lanes(&[0..cores]).pop().expect("one lane")
    }

    #[test]
    fn dispatch_pops_fifo() {
        let mut s = Scheduler::new(1);
        s.enqueue(0, 5);
        s.enqueue(0, 7);
        let mut l = lane(&mut s);
        assert_eq!(l.dispatch(0, 100), Some(5));
        assert_eq!(l.current(0), Some(5));
        assert_eq!(s.load(0), 2);
    }

    #[test]
    fn quantum_expires_after_charges() {
        let mut s = Scheduler::new(1);
        s.enqueue(0, 1);
        let mut l = lane(&mut s);
        l.dispatch(0, 100);
        assert!(!l.charge(0, 60));
        assert!(l.charge(0, 60), "overshoot ends the quantum");
    }

    #[test]
    fn preempt_round_robins() {
        let mut s = Scheduler::new(1);
        s.enqueue(0, 1);
        s.enqueue(0, 2);
        let mut l = lane(&mut s);
        l.dispatch(0, 10);
        assert_eq!(l.preempt(0), Some(1));
        assert_eq!(l.dispatch(0, 10), Some(2));
        l.preempt(0);
        assert_eq!(l.dispatch(0, 10), Some(1), "rotation returns to 1");
    }

    #[test]
    fn remove_running_thread() {
        let mut s = Scheduler::new(2);
        s.enqueue(0, 3);
        lane(&mut s).dispatch(0, 10);
        assert_eq!(s.remove(3), Some((0, true)));
        assert_eq!(s.threads_on(0), Vec::<usize>::new());
        assert!(!s.has_work(0));
    }

    #[test]
    fn remove_queued_thread() {
        let mut s = Scheduler::new(2);
        s.enqueue(1, 3);
        s.enqueue(1, 4);
        assert_eq!(s.remove(4), Some((1, false)));
        assert_eq!(s.threads_on(1), vec![3]);
        assert_eq!(s.remove(99), None);
    }

    #[test]
    fn core_of_finds_thread() {
        let mut s = Scheduler::new(2);
        s.enqueue(1, 8);
        assert_eq!(s.core_of(8), Some(1));
        lane(&mut s).dispatch(1, 10);
        assert_eq!(s.core_of(8), Some(1));
        assert_eq!(s.core_of(9), None);
    }

    #[test]
    fn split_lanes_partition_by_global_index() {
        let mut s = Scheduler::new(4);
        s.enqueue(0, 10);
        s.enqueue(2, 20);
        s.enqueue(3, 30);
        {
            let mut lanes = s.split_lanes(&[0..2, 2..4]);
            assert_eq!(lanes.len(), 2);
            assert_eq!(lanes[0].dispatch(0, 100), Some(10));
            assert_eq!(lanes[1].dispatch(2, 100), Some(20));
            assert!(lanes[1].has_work(3));
            assert_eq!(lanes[1].load(3), 1);
            assert!(lanes[1].charge(2, 200), "quantum expires in lane");
            assert_eq!(lanes[1].preempt(2), Some(20));
        }
        // Mutations through lanes land in the shared scheduler state:
        // 10 is running on core 0, 20 is back in core 2's queue.
        assert_eq!(s.core_of(20), Some(2));
        assert_eq!(s.core_of(30), Some(3));
        assert_eq!(s.remove(10), Some((0, true)));
        assert_eq!(s.remove(20), Some((2, false)));
    }

    #[test]
    fn threads_on_lists_running_first() {
        let mut s = Scheduler::new(1);
        s.enqueue(0, 1);
        s.enqueue(0, 2);
        lane(&mut s).dispatch(0, 10);
        assert_eq!(s.threads_on(0), vec![1, 2]);
    }
}
