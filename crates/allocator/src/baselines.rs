//! Baseline schedulers the paper's algorithms are measured against.

use crate::policy::{flat_threads, sort_and_group, AllocationPolicy};
use symbio_machine::{Mapping, ProcView};

/// The OS default: round-robin placement in arrival (tid) order — the
/// "default schedule with which the processes began execution" (Section
/// 5.3).
#[derive(Debug, Default, Clone, Copy)]
pub struct DefaultPolicy;

impl AllocationPolicy for DefaultPolicy {
    fn name(&self) -> &'static str {
        "default"
    }

    fn allocate(&mut self, views: &[ProcView], cores: usize) -> Mapping {
        let threads = flat_threads(views);
        Mapping::round_robin(threads.len(), cores)
    }
}

/// Uniformly random balanced placement (seeded, deterministic) — the
/// "no information" floor.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    state: u64,
}

impl RandomPolicy {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        RandomPolicy { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }
}

impl AllocationPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn allocate(&mut self, views: &[ProcView], cores: usize) -> Mapping {
        let threads = flat_threads(views);
        let p = threads.len();
        let group_size = p.div_ceil(cores);
        // Random permutation, then consecutive grouping.
        let mut order: Vec<usize> = (0..p).collect();
        for i in (1..p).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut cores_by_tid = vec![0usize; p];
        for (rank, &i) in order.iter().enumerate() {
            cores_by_tid[threads[i].tid] = rank / group_size;
        }
        Mapping::new(cores_by_tid)
    }
}

/// Cache-affinity scheduling: keep every thread where it last ran (the
/// history-based heuristic of the prior work in Section 2.2). Falls back to
/// round-robin for never-run threads, and rebalances only if a core is
/// overloaded beyond ⌈P/N⌉.
#[derive(Debug, Default, Clone, Copy)]
pub struct AffinityPolicy;

impl AllocationPolicy for AffinityPolicy {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn allocate(&mut self, views: &[ProcView], cores: usize) -> Mapping {
        let threads = flat_threads(views);
        let p = threads.len();
        let cap = p.div_ceil(cores);
        let mut load = vec![0usize; cores];
        let mut cores_by_tid = vec![usize::MAX; p];
        // First pass: honour last_core while capacity allows.
        for t in &threads {
            if let Some(c) = t.last_core {
                if c < cores && load[c] < cap {
                    cores_by_tid[t.tid] = c;
                    load[c] += 1;
                }
            }
        }
        // Second pass: place the rest on the least-loaded cores.
        for t in &threads {
            if cores_by_tid[t.tid] == usize::MAX {
                let c = (0..cores).min_by_key(|&c| load[c]).expect("cores >= 1");
                cores_by_tid[t.tid] = c;
                load[c] += 1;
            }
        }
        Mapping::new(cores_by_tid)
    }
}

/// Miss-rate sorting: identical grouping logic to the paper's weight
/// sorting, but keyed on the L2 **miss rate** perf counter instead of the
/// footprint signature — the event-counter approach of the related work
/// (\[9\], \[40\]) that Section 2.2 argues cannot see footprints. Comparing
/// this against [`crate::WeightSortPolicy`] isolates the value of the
/// signature itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct MissRateSortPolicy;

impl AllocationPolicy for MissRateSortPolicy {
    fn name(&self) -> &'static str {
        "miss-rate-sort"
    }

    fn allocate(&mut self, views: &[ProcView], cores: usize) -> Mapping {
        let threads = flat_threads(views);
        sort_and_group(&threads, cores, |t| t.l2_miss_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbio_machine::ThreadView;

    fn view(tid: usize, miss_rate: f64, last_core: Option<usize>) -> ProcView {
        ProcView {
            pid: tid,
            name: format!("p{tid}"),
            threads: vec![ThreadView {
                tid,
                pid: tid,
                name: format!("p{tid}"),
                occupancy: 1.0,
                symbiosis: vec![1.0, 1.0],
                overlap: vec![1.0, 1.0],
                last_occupancy: 1,
                last_core,
                samples: 1,
                filter_len: 64,
                l2_miss_rate: miss_rate,
                l2_misses: 0,
                retired: 0,
            }],
        }
    }

    #[test]
    fn default_is_round_robin() {
        let views: Vec<ProcView> = (0..4).map(|i| view(i, 0.1, None)).collect();
        let m = DefaultPolicy.allocate(&views, 2);
        assert_eq!(m, Mapping::round_robin(4, 2));
    }

    #[test]
    fn random_is_balanced_and_deterministic() {
        let views: Vec<ProcView> = (0..6).map(|i| view(i, 0.1, None)).collect();
        let a = RandomPolicy::new(9).allocate(&views, 2);
        let b = RandomPolicy::new(9).allocate(&views, 2);
        assert_eq!(a, b);
        assert_eq!(a.group_sizes(2), vec![3, 3]);
    }

    #[test]
    fn random_differs_across_seeds() {
        let views: Vec<ProcView> = (0..8).map(|i| view(i, 0.1, None)).collect();
        let a = RandomPolicy::new(1).allocate(&views, 2);
        let b = RandomPolicy::new(2).allocate(&views, 2);
        assert_ne!(a.partition_key(2), b.partition_key(2));
    }

    #[test]
    fn affinity_keeps_last_core() {
        let views = vec![
            view(0, 0.1, Some(1)),
            view(1, 0.1, Some(0)),
            view(2, 0.1, Some(1)),
            view(3, 0.1, None),
        ];
        let m = AffinityPolicy.allocate(&views, 2);
        assert_eq!(m.core_of(0), 1);
        assert_eq!(m.core_of(1), 0);
        assert_eq!(m.core_of(2), 1);
        // Thread 3 fills the least-loaded core (core 0 has 1, core 1 full).
        assert_eq!(m.core_of(3), 0);
        assert_eq!(m.group_sizes(2), vec![2, 2]);
    }

    #[test]
    fn affinity_respects_capacity() {
        // Everyone claims core 0; only ⌈4/2⌉ = 2 may stay.
        let views: Vec<ProcView> = (0..4).map(|i| view(i, 0.1, Some(0))).collect();
        let m = AffinityPolicy.allocate(&views, 2);
        assert_eq!(m.group_sizes(2), vec![2, 2]);
    }

    #[test]
    fn miss_rate_sort_groups_by_counter() {
        let views = vec![
            view(0, 0.9, None),
            view(1, 0.05, None),
            view(2, 0.8, None),
            view(3, 0.1, None),
        ];
        let m = MissRateSortPolicy.allocate(&views, 2);
        assert_eq!(m.core_of(0), m.core_of(2), "high-miss pair co-located");
        assert_eq!(m.core_of(1), m.core_of(3));
    }
}
