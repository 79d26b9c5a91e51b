//! Integration: the measurement memo-cache is transparent (byte-identical
//! sweep output) and actually saves machine simulations on the Figure-13
//! multi-policy comparison path.

use std::sync::Arc;
use symbio::prelude::*;

fn small_pool() -> Vec<WorkloadSpec> {
    let l2 = 256 << 10;
    ["mcf", "povray", "gobmk", "libquantum", "gcc"]
        .iter()
        .map(|n| {
            let mut s = spec2006::by_name(n, l2).unwrap();
            s.work /= 8;
            s
        })
        .collect()
}

#[test]
fn memoized_sweep_outcome_is_byte_identical() {
    let cfg = ExperimentConfig::fast(777);
    let opts = SweepOptions {
        mix_size: 4,
        stride: 1,
        threads: 2,
    };
    let pool = small_pool();
    let make = || Box::new(WeightSortPolicy) as Box<dyn AllocationPolicy>;

    let plain = SweepEngine::new(cfg)
        .options(opts)
        .run_pool(&pool, &make)
        .unwrap()
        .expect("uncancelled");
    let engine = SweepEngine::new(cfg).options(opts).memoized();
    let cached = engine.run_pool(&pool, &make).unwrap().expect("uncancelled");
    assert!(
        engine.counters().snapshot().memo_misses > 0,
        "the cache must actually have been consulted"
    );

    let a = serde_json::to_string(&plain).unwrap();
    let b = serde_json::to_string(&cached).unwrap();
    assert_eq!(a, b, "memoization must not change a single output byte");
}

#[test]
fn shared_cache_saves_simulations_across_policies() {
    // The Figure-13 path: several allocation policies evaluated on the
    // same mix. Phase-2 measurements depend only on (specs, mapping), so a
    // shared cache must collapse them across policies.
    let cfg = ExperimentConfig::fast(1234);
    let l2 = cfg.machine.l2.size_bytes;
    let mut specs: Vec<WorkloadSpec> = Vec::new();
    for n in ["mcf", "omnetpp", "povray", "sjeng"] {
        let mut s = spec2006::by_name(n, l2).unwrap();
        s.work /= 4;
        specs.push(s);
    }
    type Factory = fn() -> Box<dyn AllocationPolicy>;
    let factories: Vec<Factory> = vec![
        || Box::new(WeightSortPolicy),
        || Box::new(WeightedInterferenceGraphPolicy::default()),
        || Box::new(MissRateSortPolicy),
    ];

    // Baseline: each policy on its own un-memoized pipeline.
    let mut baseline_sims = Vec::new();
    let mut baseline_results = Vec::new();
    for make in &factories {
        let pipeline = Pipeline::new(cfg);
        let mut p = make();
        let r = pipeline.evaluate_mix(&specs, p.as_mut()).unwrap();
        baseline_sims.push(pipeline.counters().snapshot().sim_runs);
        baseline_results.push(r);
    }
    let single = baseline_sims[0];
    assert!(single > 0);

    // Shared-cache run: one memoized pipeline for all three policies.
    let cache = Arc::new(MeasureCache::new());
    let pipeline = Pipeline::new(cfg).with_memo(Arc::clone(&cache));
    let mut shared_results = Vec::new();
    for make in &factories {
        let mut p = make();
        shared_results.push(pipeline.evaluate_mix(&specs, p.as_mut()).unwrap());
    }
    let shared = pipeline.counters().snapshot().sim_runs;

    assert!(cache.hits() > 0, "repeat measurements must hit the cache");
    assert!(
        shared < 3 * single,
        "3 policies with a shared cache must simulate strictly less than \
         3x a single-policy run ({shared} vs 3x{single})"
    );

    // Memoization must not perturb any decision or measurement.
    for (base, shared) in baseline_results.iter().zip(&shared_results) {
        assert_eq!(
            base.mappings[base.chosen].partition_key(2),
            shared.mappings[shared.chosen].partition_key(2),
            "chosen mapping must be unchanged by the cache"
        );
        assert_eq!(base.user_cycles, shared.user_cycles);
    }
}

#[test]
fn step_threads_share_one_cache_entry() {
    // How many OS threads drive the lanes cannot change a measurement, so
    // it is not part of the memo key: the second pipeline replays the
    // first one's entry, and that entry is what it would have simulated.
    let machine = MachineConfig::scaled_multidomain(9, 2);
    let cfg_at = |threads| {
        ExperimentConfigBuilder::fast(9)
            .machine(machine)
            .step_threads(threads)
            .build()
            .unwrap()
    };
    let mut specs = small_pool();
    specs.truncate(4);
    let mapping = Mapping::round_robin(4, machine.cores);

    let cache = Arc::new(MeasureCache::new());
    let one = Pipeline::new(cfg_at(1)).with_memo(Arc::clone(&cache));
    let two = Pipeline::new(cfg_at(2)).with_memo(Arc::clone(&cache));
    let a = one.measure(&specs, &mapping);
    let b = two.measure(&specs, &mapping);
    assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 1, 1));
    assert_eq!(
        two.counters().snapshot().sim_runs,
        0,
        "replayed, not re-run"
    );

    let unmemoized = Pipeline::new(cfg_at(2)).measure(&specs, &mapping);
    let json = |o: &symbio_machine::RunOutcome| serde_json::to_string(o).unwrap();
    assert_eq!(json(&a), json(&b));
    assert_eq!(json(&a), json(&unmemoized));
}
