//! Scaling smoke for the lane engine: a second stepping thread must buy
//! throughput, not cost it (DESIGN §12, "What a lane may share").
//!
//! A timing test, so `#[ignore]`d: shared runners may have one core and
//! debug builds measure nothing. CI runs it in the `bench-smoke` job
//! (`cargo test --release -p symbio-machine --test lane_scaling -- --ignored`).

use std::time::Instant;
use symbio_machine::{Machine, MachineConfig};
use symbio_workloads::spec2006;

/// Simulated cycles per `run_for` call, as the benchmark's `sim_lanes`.
const SLICE: u64 = 500_000;
/// Slices before timing starts: every process has run, the L2s are full.
const WARMUP_SLICES: u64 = 15;
/// Slices per timed round.
const ROUND_SLICES: u64 = 24;
const ROUNDS: usize = 5;

/// The 4-domain, 8-core machine carrying the 12-program pool twice.
fn build(step_threads: usize) -> Machine {
    let mut cfg = MachineConfig::scaled_multidomain(5, 4);
    cfg.step_threads = step_threads;
    let mut m = Machine::new(cfg);
    let pool = spec2006::pool(cfg.l2.size_bytes);
    for spec in pool.iter().chain(&pool) {
        m.add_process(spec);
    }
    m.start(None);
    for _ in 0..WARMUP_SLICES {
        m.run_for(SLICE);
    }
    m
}

fn mem_ops(m: &Machine) -> u64 {
    (0..m.threads_len()).map(|t| m.thread(t).mem_ops).sum()
}

/// Every simulated statistic the benchmark's digest covers.
fn stats(m: &Machine) -> Vec<u64> {
    let mut out = vec![m.now(), m.switches(), m.memory().dram_requests_total()];
    for t in 0..m.threads_len() {
        let th = m.thread(t);
        out.extend([
            th.mem_ops,
            th.retired,
            th.user_cycles,
            u64::from(th.completions),
        ]);
    }
    for c in 0..m.config().cores {
        for s in [m.memory().l1_stats(c), m.memory().l2_stats(c)] {
            out.extend([
                s.accesses,
                s.hits,
                s.misses,
                s.evictions_caused,
                s.writebacks,
            ]);
        }
    }
    out
}

/// One timed round; returns simulated memory ops per host second.
fn round(m: &mut Machine) -> f64 {
    let before = mem_ops(m);
    let t0 = Instant::now();
    for _ in 0..ROUND_SLICES {
        m.run_for(SLICE);
    }
    (mem_ops(m) - before) as f64 / t0.elapsed().as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
#[ignore = "timing test: run in release with -- --ignored"]
fn two_stepping_threads_outrun_one() {
    let (mut one, mut two) = (build(1), build(2));
    let (mut rate_one, mut rate_two) = (Vec::new(), Vec::new());
    // Alternate, so a noisy neighbour hits both sides.
    for _ in 0..ROUNDS {
        rate_one.push(round(&mut one));
        rate_two.push(round(&mut two));
    }
    assert_eq!(
        stats(&one),
        stats(&two),
        "the stepping-thread count changed simulated behaviour"
    );
    let (rate_one, rate_two) = (median(rate_one), median(rate_two));
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "lane scaling on {host} CPU(s): 1 thread {:.1} M ops/s, 2 threads {:.1} M ops/s ({:.2}x)",
        rate_one / 1e6,
        rate_two / 1e6,
        rate_two / rate_one
    );
    if host >= 2 {
        assert!(
            rate_two >= 1.3 * rate_one,
            "two stepping threads on {host} CPUs reached only {:.2}x of one",
            rate_two / rate_one
        );
    }
}
