//! Simulation memoization for both phases.
//!
//! Every simulation a sweep runs is deterministic given its inputs, and
//! identical runs recur constantly. Phase 1 is observe-only — the policy
//! reads the signature stream but never steers the machine — so the
//! stream depends on the mix and the machine, never on the policy: a
//! Figure 13 comparison of seven policies needs one profiling run per mix,
//! not seven. Phase 2 measures the same (mix, mapping) pair once per
//! policy even though the result cannot differ.
//!
//! The cache keeps **one entry per mix**: everything both phases share
//! (machine template, single- vs multi-threaded shape, workload specs)
//! keys the entry, and the entry holds
//!
//! * the recorded signature stream(s) ([`ProfileTrace`]), keyed by what
//!   only phase 1 reads — profile length and allocator interval;
//! * the measured outcomes, keyed by what only phase 2 reads — cycle
//!   cap, seed offset, repeats and mapping.
//!
//! Keys are exact (compared field by field, never hashed to a digest), so
//! a hit is byte-identical to a recomputation. One long-lived key string
//! per mix instead of one per run keeps the cache small
//! (DESIGN.md §3.1 has the sizes).

use crate::obs::Counters;
use crate::pipeline::ProfileTrace;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use symbio_machine::{MachineConfig, Mapping, RunOutcome};

/// What kind of run a key describes (single-threaded processes vs
/// `threads`-way multi-threaded applications).
#[derive(Debug, Clone, Copy)]
pub(crate) enum RunKind {
    /// One single-threaded process per spec.
    SingleThreaded,
    /// Each spec spawns this many threads.
    MultiThreaded(usize),
}

/// What phase 1 reads beyond the mix: the recording's length and the
/// allocator interval it is sampled at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProfileParams {
    /// `ExperimentConfig::profile_cycles`.
    pub cycles: u64,
    /// `ExperimentConfig::interval`.
    pub interval: u64,
}

/// What phase 2 reads beyond the mix: everything `Pipeline::averaged`
/// folds in, and the mapping measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MeasureParams {
    /// `ExperimentConfig::measure_max_cycles`.
    pub max_cycles: u64,
    /// `ExperimentConfig::measure_seed_offset`.
    pub seed_offset: u64,
    /// `ExperimentConfig::measure_repeats`.
    pub repeats: u32,
    /// The measured placement.
    pub mapping: Mapping,
}

/// Build the key of one mix on one machine — the part of every run's key
/// both phases share.
///
/// `machine_cfg` must be the *template* config (pre-seed-offsetting).
/// `step_threads` is the one field left out: it picks how many OS threads
/// drive the simulation, never what the simulation computes, so runs
/// differing only there share one entry.
pub(crate) fn mix_key(
    machine_cfg: &MachineConfig,
    kind: RunKind,
    specs: &[impl Serialize],
) -> String {
    let kind_v = match kind {
        RunKind::SingleThreaded => Value::Str("st".into()),
        RunKind::MultiThreaded(t) => Value::U64(t as u64),
    };
    let key = Value::Array(vec![
        machine_cfg.with_step_threads(1).to_value(),
        kind_v,
        Value::Array(specs.iter().map(Serialize::to_value).collect()),
    ]);
    serde_json::to_string(&key).expect("infallible")
}

/// Everything cached for one mix.
#[derive(Debug, Default)]
struct MixEntry {
    recordings: Vec<(ProfileParams, Arc<ProfileTrace>)>,
    outcomes: Vec<(MeasureParams, RunOutcome)>,
}

/// Thread-safe memoization cache for profiling recordings and phase-2
/// measurement outcomes.
///
/// [`hits`](MeasureCache::hits), [`misses`](MeasureCache::misses) and
/// [`len`](MeasureCache::len) count measurements only; a recording that
/// is simulated shows up as one more `Counters::profile_runs`, a replayed
/// one as none.
#[derive(Debug, Default)]
pub struct MeasureCache {
    map: Mutex<HashMap<String, MixEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MeasureCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        MeasureCache::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, MixEntry>> {
        self.map.lock().expect("poisoned memo cache")
    }

    /// Return the cached outcome of measuring `params` on `mix`, or run
    /// `compute`, store its result, and return it. The lock is *not* held
    /// while computing, so concurrent workers never serialize on a
    /// simulation; two workers racing on the same key may both simulate
    /// (deterministically, to the same outcome) and the first insert wins.
    pub(crate) fn get_or_compute(
        &self,
        mix: String,
        params: MeasureParams,
        counters: &Counters,
        compute: impl FnOnce() -> RunOutcome,
    ) -> RunOutcome {
        let hit = self.lock().get(&mix).and_then(|e| {
            e.outcomes
                .iter()
                .find(|(p, _)| *p == params)
                .map(|(_, o)| o.clone())
        });
        if let Some(hit) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Counters::add(&counters.memo_hits, 1);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Counters::add(&counters.memo_misses, 1);
        let out = compute();
        let mut map = self.lock();
        let entry = map.entry(mix).or_default();
        if entry.outcomes.iter().all(|(p, _)| *p != params) {
            entry.outcomes.push((params, out.clone()));
        }
        out
    }

    /// Return the cached recording of profiling `mix` under `params`, or
    /// run `record` and store it. Same locking rule as
    /// [`get_or_compute`](MeasureCache::get_or_compute).
    pub(crate) fn get_or_record(
        &self,
        mix: String,
        params: ProfileParams,
        record: impl FnOnce() -> ProfileTrace,
    ) -> Arc<ProfileTrace> {
        let hit = self.lock().get(&mix).and_then(|e| {
            e.recordings
                .iter()
                .find(|(p, _)| *p == params)
                .map(|(_, t)| Arc::clone(t))
        });
        if let Some(hit) = hit {
            return hit;
        }
        let trace = Arc::new(record());
        let mut map = self.lock();
        let entry = map.entry(mix).or_default();
        match entry.recordings.iter().find(|(p, _)| *p == params) {
            Some((_, first)) => Arc::clone(first),
            None => {
                entry.recordings.push((params, Arc::clone(&trace)));
                trace
            }
        }
    }

    /// Measurement cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Measurement cache misses (computations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct measurements currently stored.
    pub fn len(&self) -> usize {
        self.lock().values().map(|e| e.outcomes.len()).sum()
    }

    /// Is the cache free of measurements?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbio_machine::ProcOutcome;

    fn outcome(tag: u64) -> RunOutcome {
        RunOutcome {
            completed: true,
            wall_cycles: tag,
            procs: vec![ProcOutcome {
                pid: 0,
                name: "x".into(),
                user_cycles: tag,
                wall_cycles: tag,
            }],
            l2_accesses: 0,
            l2_misses: 0,
        }
    }

    fn params(max_cycles: u64, seed_offset: u64, repeats: u32, mapping: &Mapping) -> MeasureParams {
        MeasureParams {
            max_cycles,
            seed_offset,
            repeats,
            mapping: mapping.clone(),
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = MeasureCache::new();
        let counters = Counters::new();
        let cfg = MachineConfig::scaled_core2duo(7);
        let specs = symbio_workloads::spec2006::pool(cfg.l2.size_bytes);
        let m = Mapping::round_robin(4, 2);
        let mix = || mix_key(&cfg, RunKind::SingleThreaded, &specs[..4]);
        let a = cache.get_or_compute(mix(), params(100, 5, 3, &m), &counters, || outcome(1));
        // The second compute closure must never run.
        let b = cache.get_or_compute(mix(), params(100, 5, 3, &m), &counters, || {
            unreachable!("cached")
        });
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(counters.snapshot().memo_hits, 1);
        assert_eq!(counters.snapshot().memo_misses, 1);
    }

    #[test]
    fn keys_separate_every_parameter() {
        let cfg = MachineConfig::scaled_core2duo(7);
        let specs = symbio_workloads::spec2006::pool(cfg.l2.size_bytes);
        let m = Mapping::round_robin(4, 2);
        let st = RunKind::SingleThreaded;
        let base = (mix_key(&cfg, st, &specs[..4]), params(100, 5, 3, &m));
        // Different machine seed.
        let cfg2 = MachineConfig::scaled_core2duo(8);
        assert_ne!(base.0, mix_key(&cfg2, st, &specs[..4]));
        // Different measurement params.
        assert_ne!(base.1, params(101, 5, 3, &m));
        assert_ne!(base.1, params(100, 6, 3, &m));
        assert_ne!(base.1, params(100, 5, 4, &m));
        // Different run shape.
        assert_ne!(
            base.0,
            mix_key(&cfg, RunKind::MultiThreaded(8), &specs[..4])
        );
        // Different specs or mapping.
        assert_ne!(base.0, mix_key(&cfg, st, &specs[..3]));
        let m2 = Mapping::new(vec![0, 0, 1, 1]);
        assert_ne!(base.1, params(100, 5, 3, &m2));
        // Different topology at the same core count (shared vs private
        // L2): measurements on differently-sharded machines never collide.
        let mut cfg3 = MachineConfig::scaled_core2duo(7);
        cfg3.topology = symbio_machine::Topology::private_l2(2);
        assert_ne!(base.0, mix_key(&cfg3, st, &specs[..4]));
        // The one parameter that cannot change an outcome shares the key.
        let threaded = cfg.with_step_threads(4);
        assert_eq!(base.0, mix_key(&threaded, st, &specs[..4]));
    }

    #[test]
    fn concurrent_same_key_converges_to_one_entry() {
        let cache = MeasureCache::new();
        let counters = Counters::new();
        let m = Mapping::round_robin(2, 2);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..50 {
                        cache.get_or_compute(
                            format!("k{}", i % 5),
                            params(1, 0, 1, &m),
                            &counters,
                            || outcome(i),
                        );
                    }
                });
            }
        });
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.hits() + cache.misses(), 400);
    }
}
