//! Integration: the memo-cache is transparent (byte-identical sweep
//! output, identical votes) and actually saves machine simulations on the
//! Figure-13 multi-policy comparison path — one profiling run per mix, one
//! measurement per (mix, mapping).

use std::sync::Arc;
use symbio::prelude::*;
use symbio_machine::config::SigOptions;

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

fn mix(names: &[&str]) -> Vec<WorkloadSpec> {
    let l2 = 256 << 10;
    names
        .iter()
        .map(|n| {
            let mut s = spec2006::by_name(n, l2).unwrap();
            s.work /= 4;
            s
        })
        .collect()
}

type Factory = fn() -> Box<dyn AllocationPolicy>;

/// The seven policies `fig13_algorithms` compares.
fn fig13_policies() -> Vec<Factory> {
    vec![
        || Box::new(WeightSortPolicy),
        || Box::new(InterferenceGraphPolicy::default()),
        || Box::new(WeightedInterferenceGraphPolicy::default()),
        || Box::new(WeightedInterferenceGraphPolicy::paper_literal()),
        || Box::new(PairwisePolicy::new()),
        || Box::new(MissRateSortPolicy),
        || Box::new(DefaultPolicy),
    ]
}

#[test]
fn one_profile_simulation_per_mix_whatever_the_policy_count() {
    // Profiling is observe-only, so every policy votes over the same
    // stream: a memoized pipeline records each mix once, and each
    // policy's vote, choice and prediction equal what a pipeline
    // simulating phase 1 per policy produces.
    let cases = [
        (1, ["gobmk", "hmmer", "libquantum", "povray"]),
        (7, ["mcf", "hmmer", "libquantum", "omnetpp"]),
        (1234, ["bzip2", "gcc", "mcf", "soplex"]),
    ];
    for (seed, names) in cases {
        let cfg = ExperimentConfig::fast(seed);
        let specs = mix(&names);
        let memoized = Pipeline::new(cfg).with_memo(Arc::new(MeasureCache::new()));
        let plain = Pipeline::new(cfg);
        let candidates = plain.candidates(specs.len());
        for make in fig13_policies() {
            let r = memoized.evaluate_mix(&specs, make().as_mut()).unwrap();
            let got = memoized.profile(&specs, make().as_mut());
            let want = plain.profile(&specs, make().as_mut());
            let policy = make().name();
            assert_eq!(r.mappings, candidates);
            assert_eq!(
                r.chosen,
                Pipeline::locate(&candidates, &want.winner, 2),
                "{policy}, seed {seed}: chosen"
            );
            let keys = |votes: &[(Mapping, u32)]| -> Vec<(Vec<Vec<usize>>, u32)> {
                votes
                    .iter()
                    .map(|(m, c)| (m.partition_key(2), *c))
                    .collect()
            };
            assert_eq!(
                keys(&got.votes),
                keys(&want.votes),
                "{policy}, seed {seed}: votes"
            );
            assert_eq!(got.invocations, want.invocations);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&r.predicted),
                bits(&Pipeline::predicted_scores(&want.views, &candidates)),
                "{policy}, seed {seed}: predicted"
            );
        }
        let policies = fig13_policies().len() as u64;
        assert_eq!(memoized.counters().snapshot().profile_runs, 1);
        assert_eq!(plain.counters().snapshot().profile_runs, policies);
    }
}

#[test]
fn profile_cache_separates_what_changes_the_stream() {
    // Each variant profiles through one shared cache on a fresh ledger:
    // one profile run means the recording missed, none that it hit.
    let base = ExperimentConfig::fast(5);
    let specs = mix(&["mcf", "povray", "libquantum", "gobmk"]);
    let cache = Arc::new(MeasureCache::new());
    let runs = |cfg: ExperimentConfig| {
        let p = Pipeline::new(cfg).with_memo(Arc::clone(&cache));
        p.profile(&specs, &mut WeightSortPolicy);
        p.counters().snapshot().profile_runs
    };
    assert_eq!(runs(base), 1, "a cold cache records");
    assert_eq!(runs(base), 0, "the same mix replays");

    let signature = |f: fn(&mut SigOptions)| {
        let mut cfg = base;
        let mut sig = SigOptions::default_options();
        f(&mut sig);
        cfg.machine.signature = Some(sig);
        cfg
    };
    let builder = || ExperimentConfigBuilder::fast(5);
    let mut topology = base;
    topology.machine.topology = Topology::private_l2(2);
    let misses = [
        ("hash", signature(|s| s.hash = HashKind::Modulo)),
        ("sampling", signature(|s| s.sampling = Sampling::QUARTER)),
        (
            "machine seed",
            builder()
                .machine(MachineConfig::scaled_core2duo(6))
                .build()
                .unwrap(),
        ),
        ("topology", topology),
        ("interval", builder().interval(2_500_000).build().unwrap()),
        (
            "profile_cycles",
            builder().profile_cycles(20_000_000).build().unwrap(),
        ),
    ];
    for (what, cfg) in misses {
        assert_eq!(runs(cfg), 1, "a different {what} must record again");
    }
    let hits = [
        ("step_threads", builder().step_threads(2).build().unwrap()),
        (
            "measure_max_cycles",
            builder().measure_max_cycles(300_000_000).build().unwrap(),
        ),
        (
            "measure_seed_offset",
            builder().measure_seed_offset(1).build().unwrap(),
        ),
        (
            "measure_repeats",
            builder().measure_repeats(2).build().unwrap(),
        ),
    ];
    for (what, cfg) in hits {
        assert_eq!(runs(cfg), 0, "{what} cannot change the stream");
    }

    // Thread count: each width of the same applications records once.
    let l2 = base.machine.l2.size_bytes;
    let apps: Vec<ThreadSpec> = [parsec::ferret(l2), parsec::swaptions(l2)]
        .into_iter()
        .map(|mut a| {
            a.work /= 4;
            a
        })
        .collect();
    let threaded = |threads| {
        let p = Pipeline::new(base).with_memo(Arc::clone(&cache));
        p.profile_multithreaded(&apps, threads, &mut TwoPhasePolicy::default());
        p.counters().snapshot().profile_runs
    };
    assert_eq!(threaded(2), 1);
    assert_eq!(threaded(4), 1, "a different thread count must record again");
    assert_eq!(threaded(2), 0);
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
