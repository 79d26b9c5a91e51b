//! Figure 13 — the three allocation algorithms compared on representative
//! mixes, plus the baselines this reproduction adds (miss-rate sorting,
//! random, default) and the stateful pairwise-attribution variant.
//!
//! Paper observations to examine: the simple weight-sorting algorithm is
//! surprisingly competitive ("the cache footprint is a very good metric"),
//! and the weighted interference graph is as good or better than the
//! unweighted one.
//!
//! Because every policy is evaluated on the *same* mixes, the profiling
//! stream and the phase-2 measurements are identical across policies; a
//! shared cache records each mix once and simulates each (mix, mapping)
//! pair once, so comparing 7 policies costs barely more than evaluating
//! one.
//!
//! Usage: `fig13_algorithms [--full]` (default: representative subset).

use std::sync::Arc;
use symbio::prelude::*;

type PolicyFactory = Box<dyn Fn() -> Box<dyn AllocationPolicy> + Sync>;

fn policies() -> Vec<(&'static str, PolicyFactory)> {
    vec![
        (
            "weight-sort",
            Box::new(|| Box::new(WeightSortPolicy) as Box<dyn AllocationPolicy>),
        ),
        (
            "interference-graph",
            Box::new(|| Box::new(InterferenceGraphPolicy::default()) as Box<dyn AllocationPolicy>),
        ),
        (
            "weighted-ig",
            Box::new(|| {
                Box::new(WeightedInterferenceGraphPolicy::default()) as Box<dyn AllocationPolicy>
            }),
        ),
        (
            "weighted-ig-literal",
            Box::new(|| {
                Box::new(WeightedInterferenceGraphPolicy::paper_literal())
                    as Box<dyn AllocationPolicy>
            }),
        ),
        (
            "pairwise-wig",
            Box::new(|| Box::new(PairwisePolicy::new()) as Box<dyn AllocationPolicy>),
        ),
        (
            "miss-rate-sort",
            Box::new(|| Box::new(MissRateSortPolicy) as Box<dyn AllocationPolicy>),
        ),
        (
            "default",
            Box::new(|| Box::new(DefaultPolicy) as Box<dyn AllocationPolicy>),
        ),
    ]
}

fn main() -> symbio::Result<()> {
    // `--full` is accepted for interface symmetry with the sweep binaries;
    // the representative subset is already the full computation here.
    let _full = std::env::args().any(|a| a == "--full");
    // Representative mixes, echoing the paper's Figure 13 selections
    // (perlbench is not in the synthetic pool; gcc stands in for it).
    let mixes: Vec<Vec<&str>> = vec![
        vec!["gobmk", "hmmer", "libquantum", "povray"],
        vec!["mcf", "hmmer", "libquantum", "omnetpp"],
        vec!["perlbench-ish", "gobmk", "libquantum", "omnetpp"],
        vec!["bzip2", "gcc", "mcf", "soplex"],
        vec!["astar", "milc", "omnetpp", "sjeng"],
    ];
    let cfg = ExperimentConfig::scaled(2011);
    let l2 = cfg.machine.l2.size_bytes;
    let cache = Arc::new(MeasureCache::new());
    let pipeline = Pipeline::new(cfg).with_memo(Arc::clone(&cache));

    let mut table: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for mix in &mixes {
        let mut specs: Vec<WorkloadSpec> = Vec::new();
        for n in mix {
            // Out-of-pool stand-ins fall back to gcc; a typo of a real
            // pool name still surfaces as a "did you mean" error.
            let spec = match spec2006::by_name(n, l2) {
                Ok(s) => s,
                Err(e) if e.suggestion.is_none() => spec2006::by_name("gcc", l2)?,
                Err(e) => return Err(e.into()),
            };
            specs.push(spec);
        }
        let label = specs
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .join("+");
        let mut per_policy = Vec::new();
        for (name, make) in policies() {
            let mut p = make();
            let r = pipeline.evaluate_mix(&specs, p.as_mut())?;
            // Mean improvement over the mix's four benchmarks.
            let mean: f64 = (0..4).map(|pid| r.improvement_vs_worst(pid)).sum::<f64>() / 4.0;
            per_policy.push((name.to_string(), mean));
        }
        table.push((label, per_policy));
    }

    println!("== Figure 13: mean improvement per mix, by allocation algorithm ==");
    print!("{:<42}", "mix");
    for (name, _) in policies() {
        print!("{name:>20}");
    }
    println!();
    for (label, row) in &table {
        print!("{label:<42}");
        for (_, v) in row {
            print!("{:>19.1}%", v * 100.0);
        }
        println!();
    }
    let snap = pipeline.counters().snapshot();
    eprintln!(
        "measurement cache: {} hits / {} misses ({} machine simulations, {} profile simulations for {} policies)",
        cache.hits(),
        cache.misses(),
        snap.sim_runs,
        snap.profile_runs,
        policies().len()
    );
    let path = report::save_json("fig13_algorithms", &table)?;
    println!("\nsaved {}", path.display());
    Ok(())
}
