//! Figure 12 — multi-threaded PARSEC-like applications (4 threads each),
//! allocated with the two-phase algorithm of Section 3.3.4.
//!
//! Paper reference: improvements are modest compared to SPEC (max 10.1 %
//! for ferret) because PARSEC working sets are much smaller. With 16
//! threads on 2 cores the mapping space cannot be enumerated, so the worst
//! case is taken over a reference set (OS default + seeded random balanced
//! placements + the policy's choice); see DESIGN.md.
//!
//! Usage: `fig12_parsec_sweep [--full]` (default: every 5th mix of the 70).

use symbio::prelude::*;

fn main() -> symbio::Result<()> {
    let full = std::env::args().any(|a| a == "--full");
    let opts = SweepOptions {
        stride: if full { 1 } else { 5 },
        ..SweepOptions::full()
    };
    let cfg = ExperimentConfig::scaled(2011);
    let pool = parsec::pool(cfg.machine.l2.size_bytes);

    let engine = SweepEngine::new(cfg)
        .options(opts)
        .memoized()
        .named("fig12_parsec");
    let out = engine
        .run_multithreaded(
            &pool,
            parsec::THREADS,
            &|| Box::new(TwoPhasePolicy::default()),
            6, // random reference placements per mix
        )?
        .expect("uncancelled");
    eprintln!(
        "sweep took {:.1}s ({} simulations)",
        engine.timings().total("evaluate"),
        engine.counters().snapshot().sim_runs
    );

    println!(
        "{}",
        report::summary_table(
            "Figure 12: per-application improvement, PARSEC-like 4-thread apps (two-phase)",
            &out.summaries
        )
    );
    println!("{}", report::headline(&out));
    let slim = symbio::sweep::SweepOutcome {
        results: Vec::new(),
        ..out
    };
    let path = report::save_json("fig12_parsec", &slim)?;
    println!("saved {}", path.display());
    Ok(())
}
