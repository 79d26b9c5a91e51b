//! Measurement memoization.
//!
//! Phase-2 measurement is the cost center of every sweep: each mix is run
//! to completion once per candidate mapping per repeat seed, and identical
//! runs recur constantly — a Figure 13 policy comparison measures the same
//! (mix, mapping) pair once per policy even though the result cannot
//! differ. The cache keys a measurement by everything that determines it
//! (machine template, measurement parameters, workload specs, mapping,
//! single- vs multi-threaded shape) so each distinct simulation happens
//! once per process and is shared across policies, repeats of the sweep
//! loop, and figure binaries running in one process.

use crate::obs::Counters;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use symbio_machine::{MachineConfig, Mapping, RunOutcome};

/// What kind of run a key describes (single-threaded processes vs
/// `threads`-way multi-threaded applications).
#[derive(Debug, Clone, Copy)]
pub enum RunKind {
    /// One single-threaded process per spec.
    SingleThreaded,
    /// Each spec spawns this many threads.
    MultiThreaded(usize),
}

/// Thread-safe memoization cache for phase-2 measurement outcomes.
///
/// Keys are compact JSON renderings of every input that determines the
/// outcome; the machine simulator is deterministic given those, so a hit
/// is byte-identical to a recomputation.
#[derive(Debug, Default)]
pub struct MeasureCache {
    map: Mutex<HashMap<String, RunOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Build the cache key for a measurement run.
///
/// `machine_cfg` must be the *template* config (pre-seed-offsetting) and
/// the measurement parameters must include everything `Pipeline::averaged`
/// folds in, so two pipelines differing only in, say, `measure_repeats`
/// never collide. `step_threads` is the one field left out: it picks how
/// many OS threads drive the simulation, never what the simulation
/// computes, so runs differing only there share one entry.
pub fn measure_key(
    machine_cfg: &MachineConfig,
    measure_max_cycles: u64,
    measure_seed_offset: u64,
    measure_repeats: u32,
    kind: RunKind,
    specs: &[impl Serialize],
    mapping: &Mapping,
) -> String {
    let kind_v = match kind {
        RunKind::SingleThreaded => Value::Str("st".into()),
        RunKind::MultiThreaded(t) => Value::U64(t as u64),
    };
    let key = Value::Array(vec![
        machine_cfg.with_step_threads(1).to_value(),
        Value::U64(measure_max_cycles),
        Value::U64(measure_seed_offset),
        Value::U64(u64::from(measure_repeats)),
        kind_v,
        Value::Array(specs.iter().map(Serialize::to_value).collect()),
        mapping.to_value(),
    ]);
    serde_json::to_string(&key).expect("infallible")
}

impl MeasureCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        MeasureCache::default()
    }

    /// Return the cached outcome for `key`, or run `compute`, store its
    /// result, and return it. The lock is *not* held while computing, so
    /// concurrent workers never serialize on a simulation; two workers
    /// racing on the same key may both simulate (deterministically, to the
    /// same outcome) and the first insert wins.
    pub fn get_or_compute(
        &self,
        key: String,
        counters: &Counters,
        compute: impl FnOnce() -> RunOutcome,
    ) -> RunOutcome {
        if let Some(hit) = self.map.lock().expect("poisoned memo cache").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Counters::add(&counters.memo_hits, 1);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Counters::add(&counters.memo_misses, 1);
        let out = compute();
        self.map
            .lock()
            .expect("poisoned memo cache")
            .entry(key)
            .or_insert_with(|| out.clone());
        out
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (computations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct measurements currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("poisoned memo cache").len()
    }

    /// Is the cache empty?
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

    #[test]
    fn second_lookup_hits() {
        let cache = MeasureCache::new();
        let counters = Counters::new();
        let cfg = MachineConfig::scaled_core2duo(7);
        let specs = symbio_workloads::spec2006::pool(cfg.l2.size_bytes);
        let m = Mapping::round_robin(4, 2);
        let key = || measure_key(&cfg, 100, 5, 3, RunKind::SingleThreaded, &specs[..4], &m);
        let a = cache.get_or_compute(key(), &counters, || outcome(1));
        // The second compute closure must never run.
        let b = cache.get_or_compute(key(), &counters, || unreachable!("cached"));
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
        let base = measure_key(&cfg, 100, 5, 3, RunKind::SingleThreaded, &specs[..4], &m);
        // Different machine seed.
        let cfg2 = MachineConfig::scaled_core2duo(8);
        assert_ne!(
            base,
            measure_key(&cfg2, 100, 5, 3, RunKind::SingleThreaded, &specs[..4], &m)
        );
        // Different measurement params.
        assert_ne!(
            base,
            measure_key(&cfg, 101, 5, 3, RunKind::SingleThreaded, &specs[..4], &m)
        );
        assert_ne!(
            base,
            measure_key(&cfg, 100, 6, 3, RunKind::SingleThreaded, &specs[..4], &m)
        );
        assert_ne!(
            base,
            measure_key(&cfg, 100, 5, 4, RunKind::SingleThreaded, &specs[..4], &m)
        );
        // Different run shape.
        assert_ne!(
            base,
            measure_key(&cfg, 100, 5, 3, RunKind::MultiThreaded(8), &specs[..4], &m)
        );
        // Different specs or mapping.
        assert_ne!(
            base,
            measure_key(&cfg, 100, 5, 3, RunKind::SingleThreaded, &specs[..3], &m)
        );
        let m2 = Mapping::new(vec![0, 0, 1, 1]);
        assert_ne!(
            base,
            measure_key(&cfg, 100, 5, 3, RunKind::SingleThreaded, &specs[..4], &m2)
        );
        // Different topology at the same core count (shared vs private
        // L2): measurements on differently-sharded machines never collide.
        let mut cfg3 = MachineConfig::scaled_core2duo(7);
        cfg3.topology = symbio_machine::Topology::private_l2(2);
        assert_ne!(
            base,
            measure_key(&cfg3, 100, 5, 3, RunKind::SingleThreaded, &specs[..4], &m)
        );
        // The one parameter that cannot change an outcome shares the key.
        let threaded = cfg.with_step_threads(4);
        assert_eq!(
            base,
            measure_key(
                &threaded,
                100,
                5,
                3,
                RunKind::SingleThreaded,
                &specs[..4],
                &m
            )
        );
    }

    #[test]
    fn concurrent_same_key_converges_to_one_entry() {
        let cache = MeasureCache::new();
        let counters = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..50 {
                        cache.get_or_compute(format!("k{}", i % 5), &counters, || outcome(i));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.hits() + cache.misses(), 400);
    }
}
