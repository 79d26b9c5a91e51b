//! `sweep_paper`: the paper's two-phase methodology end to end —
//! profile → allocate → measure every mapping → memo — through
//! `SweepEngine::run_pool` over a seeded strided subset of the C(12,4)
//! mixes, under three policies sharing one `MeasureCache`.
//!
//! Work is one (mix, policy) evaluation; a request is one `run_pool`
//! call (one policy's pass over the subset: the first pass of a sweep
//! simulates every mapping, the next two hit the memo, so the median is
//! a warm pass and the tail a cold one).

use std::sync::Arc;
use std::time::Instant;

use symbio::{
    mixes_of, ExperimentConfig, ExperimentConfigBuilder, MeasureCache, MixResult, Pipeline,
    SweepEngine, SweepOptions, SweepOutcome,
};
use symbio_allocator::{
    AllocationPolicy, DomainAwarePolicy, InterferenceGraph, InterferenceGraphPolicy,
    InterferenceMetric, PartitionMethod, WeightSortPolicy, WeightedInterferenceGraphPolicy,
};
use symbio_machine::{Mapping, ProcView, ThreadView, Topology};
use symbio_workloads::WorkloadSpec;

use crate::inputs::{materialise, SweepInputs};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, median, peak_rss_mb, quantile_sorted, secs_since, sorted};
use crate::{timed_setups, RunConfig, RunResult};

/// Sweep executor threads: both cores of the reference box (the repo's
/// own default, `nproc - 1`, would be 1 there).
const EXEC_THREADS: usize = 2;
/// Every 21st of the 495 mixes: 24 mixes, 72 evaluations per sweep.
const STRIDE: usize = 21;
/// The 1 s quick window gets every 99th mix (5 mixes).
const QUICK_STRIDE: usize = 99;
/// The traced pass's single-threaded replays use every third mix of the
/// subset so traced, untraced and 2-thread replays fit one run.
const REPLAY_EVERY: usize = 3;

type MakePolicy = Box<dyn Fn() -> Box<dyn AllocationPolicy> + Sync>;

/// The paper's three algorithms: weight sort, interference graph,
/// weighted interference graph.
fn policies() -> Vec<MakePolicy> {
    vec![
        Box::new(|| Box::new(WeightSortPolicy)),
        Box::new(|| Box::new(InterferenceGraphPolicy::default())),
        Box::new(|| Box::new(WeightedInterferenceGraphPolicy::default())),
    ]
}

struct Rig {
    cfg: ExperimentConfig,
    pool: Vec<WorkloadSpec>,
    stride: usize,
}

fn setup(cfg: &RunConfig) -> Result<Rig, String> {
    let stride = if cfg.seconds < 4.0 {
        QUICK_STRIDE
    } else {
        STRIDE
    };
    let inputs = materialise(
        &cfg.input_path(".json"),
        &SweepInputs::new(cfg.seed, stride),
    )?;
    let exp = ExperimentConfigBuilder::fast(inputs.cfg_seed)
        .build()
        .map_err(|e| e.to_string())?;
    let pool = inputs.specs();
    // Warm-up: one unmemoized evaluation pages in every phase. Always the
    // same four programs, so `setup_s` does not depend on the seed.
    let warm: Vec<WorkloadSpec> = ["gobmk", "hmmer", "libquantum", "povray"]
        .iter()
        .filter_map(|name| pool.iter().find(|s| s.name == *name).cloned())
        .collect();
    Pipeline::new(exp)
        .evaluate_mix(&warm, &mut WeightSortPolicy)
        .map_err(|e| e.to_string())?;
    Ok(Rig {
        cfg: exp,
        pool,
        stride: inputs.stride,
    })
}

/// One sweep: the three policies over the subset with a fresh shared
/// memo. Returns each policy's outcome and each `run_pool` call's wall
/// seconds.
fn sweep_once(
    rig: &Rig,
    stride: usize,
    threads: usize,
    memo: Option<Arc<MeasureCache>>,
) -> Result<(Vec<SweepOutcome>, Vec<f64>), String> {
    let mut outcomes = Vec::new();
    let mut walls = Vec::new();
    for make in policies() {
        let mut engine = SweepEngine::new(rig.cfg).options(SweepOptions {
            mix_size: 4,
            stride,
            threads,
        });
        if let Some(cache) = &memo {
            engine = engine.with_memo(Arc::clone(cache));
        }
        let t0 = Instant::now();
        let outcome = engine
            .run_pool(&rig.pool, make.as_ref())
            .map_err(|e| e.to_string())?
            .ok_or("sweep cancelled")?;
        walls.push(secs_since(t0));
        outcomes.push(outcome);
    }
    Ok((outcomes, walls))
}

/// The part of an outcome the measurement phase decides (names,
/// candidate mappings, measured user cycles), as JSON. Memoization and
/// the executor's thread count must leave it byte-identical. `chosen`
/// is left out on purpose: phase 1 breaks vote ties in `HashMap`
/// iteration order, so two identical runs may pick different winners
/// (README.md, "What the benchmark found").
fn measured_json(outcomes: &[SweepOutcome]) -> String {
    let parts: Vec<_> = outcomes
        .iter()
        .flat_map(|o| &o.results)
        .map(|r| (&r.names, &r.mappings, &r.user_cycles))
        .collect();
    serde_json::to_string(&parts).expect("plain data serialises")
}

fn check(rig: &Rig, timed: &[SweepOutcome], result: &mut RunResult) -> Result<(), String> {
    // A 3-mix subset: 495 / 165.
    let small = 165;
    let memoized = sweep_once(
        rig,
        small,
        EXEC_THREADS,
        Some(Arc::new(MeasureCache::new())),
    )?
    .0;
    let plain = sweep_once(rig, small, EXEC_THREADS, None)?.0;
    let serial = sweep_once(rig, small, 1, Some(Arc::new(MeasureCache::new())))?.0;
    result.check(
        "measured outcome byte-identical memoized vs unmemoized",
        measured_json(&memoized) == measured_json(&plain),
    );
    result.check(
        "measured outcome byte-identical at 1 vs 2 exec threads",
        measured_json(&memoized) == measured_json(&serial),
    );
    result.check(
        "chosen indexes a measured mapping in every result",
        timed
            .iter()
            .flat_map(|o| &o.results)
            .all(|r| r.chosen < r.mappings.len() && r.user_cycles.len() == r.mappings.len()),
    );
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    if cfg.trace {
        return traced(cfg);
    }
    if EXEC_THREADS > crate::util::nproc() {
        return Err(format!(
            "{EXEC_THREADS} exec threads on {} cores: refusing to oversubscribe",
            crate::util::nproc()
        ));
    }
    let mut result = RunResult::default();
    let (rig, setup_s) = timed_setups(|| setup(cfg), drop)?;

    let me = std::process::id();
    let cpu0 = cpu_seconds(me)?;
    let t0 = Instant::now();
    let (mut rates, mut call_us, mut evals) = (Vec::new(), Vec::new(), 0u64);
    let last_outcomes = loop {
        let s0 = Instant::now();
        let (outcomes, walls) = sweep_once(
            &rig,
            rig.stride,
            EXEC_THREADS,
            Some(Arc::new(MeasureCache::new())),
        )?;
        let wall = secs_since(s0);
        let n: usize = outcomes.iter().map(|o| o.results.len()).sum();
        rates.push(n as f64 / wall);
        call_us.extend(walls.iter().map(|w| w * 1e6));
        evals += n as u64;
        // Whole sweeps only: stop once another would overshoot the
        // window by more than it undershoots now.
        if secs_since(t0) + wall / 2.0 >= cfg.seconds {
            break outcomes;
        }
    };
    let cpu_s = cpu_seconds(me)? - cpu0;

    result.attempted = evals;
    let lat = sorted(call_us);
    result.metrics.set("setup_s", setup_s);
    result.metrics.set("work_per_s", median(&rates));
    result.metrics.set("req_p50_us", quantile_sorted(&lat, 0.5));
    result
        .metrics
        .set("req_p95_us", quantile_sorted(&lat, 0.95));
    result
        .metrics
        .set("cpu_s_per_mwork", cpu_s / (evals as f64 / 1e6));
    result.metrics.set("peak_rss_mb", peak_rss_mb(me)?);
    result.note(format!(
        "work = (mix, policy) evaluation; request = one run_pool call ({} per sweep); {} sweep(s) of \
         {} mixes x 3 policies, {EXEC_THREADS} exec threads on {} cores, shared memo, fast config, work/8",
        policies().len(),
        rates.len(),
        evals as usize / rates.len() / 3,
        crate::util::nproc()
    ));
    check(&rig, &last_outcomes, &mut result)?;
    Ok(result)
}

/// A policy wrapper that opens a span around every `allocate` call, so
/// the allocator's share of phase 1 is timed from outside the pipeline.
struct SpannedPolicy<'a> {
    inner: Box<dyn AllocationPolicy>,
    tracer: &'a std::cell::RefCell<Tracer>,
    req: u64,
    /// Views the policy was asked about (kept for the layer timings).
    seen: Vec<Vec<ProcView>>,
}

impl AllocationPolicy for SpannedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, views: &[ProcView], cores: usize) -> Mapping {
        let span = self
            .tracer
            .borrow_mut()
            .begin("allocator.allocate", self.req);
        let mapping = self.inner.allocate(views, cores);
        self.tracer.borrow_mut().end(span);
        self.seen.push(views.to_vec());
        mapping
    }
}

/// Total user cycles of mapping `m` in a result.
fn total_cycles(r: &MixResult, m: usize) -> u64 {
    r.user_cycles[m].iter().sum()
}

fn best_measured(r: &MixResult) -> usize {
    (0..r.mappings.len())
        .min_by_key(|&m| total_cycles(r, m))
        .expect("every mix has candidate mappings")
}

/// Mean nanoseconds per call of `f` over `rounds` rounds of `calls`
/// calls each.
fn ns_per_call(rounds: u32, calls: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        f();
    }
    t0.elapsed().as_nanos() as f64 / (f64::from(rounds) * calls.max(1) as f64)
}

/// Time the eval and allocator layers on the views phase 1 produced.
fn layer_timings(views: &[Vec<ProcView>], result: &mut RunResult) {
    const ROUNDS: u32 = 200;
    let cores = 2;
    let flat: Vec<Vec<&ThreadView>> = views
        .iter()
        .map(|v| {
            let mut ts: Vec<&ThreadView> = v.iter().flat_map(|p| &p.threads).collect();
            ts.sort_by_key(|t| t.tid);
            ts
        })
        .collect();
    let candidates = symbio::candidate_mappings(4, cores);
    let metric = InterferenceMetric::Overlap;
    let m = &mut result.metrics;
    m.set(
        "eval.predicted_gain_ns",
        ns_per_call(ROUNDS, flat.len() * candidates.len(), || {
            for ts in &flat {
                for c in &candidates {
                    std::hint::black_box(symbio_eval::predicted_gain(
                        metric,
                        true,
                        ts,
                        &candidates[0],
                        c,
                    ));
                }
            }
        }),
    );
    m.set(
        "eval.pair_weight_ns",
        ns_per_call(ROUNDS, flat.len() * 6, || {
            for ts in &flat {
                for i in 0..ts.len() {
                    for j in i + 1..ts.len() {
                        std::hint::black_box(symbio_eval::pair_weight(metric, ts[i], ts[j], true));
                    }
                }
            }
        }),
    );
    let mut timed: Vec<(&'static str, Box<dyn AllocationPolicy>)> = vec![
        ("allocator.weight_sort_us", Box::new(WeightSortPolicy)),
        (
            "allocator.graph_us",
            Box::new(InterferenceGraphPolicy::default()),
        ),
        (
            "allocator.weighted_graph_us",
            Box::new(WeightedInterferenceGraphPolicy::default()),
        ),
        (
            "allocator.domain_aware_us",
            Box::new(DomainAwarePolicy::weighted_ig(Topology::shared_l2(cores))),
        ),
    ];
    for (name, policy) in &mut timed {
        let ns = ns_per_call(ROUNDS, views.len(), || {
            for v in views {
                std::hint::black_box(policy.allocate(v, cores));
            }
        });
        m.set(name, ns / 1e3);
    }
    // Chosen cut over the exhaustive minimum, on the weighted graph.
    let mut wig = WeightedInterferenceGraphPolicy::default();
    let ratios: Vec<f64> = views
        .iter()
        .zip(&flat)
        .map(|(v, ts)| {
            let graph = InterferenceGraph::weighted(ts, metric);
            let mapping = wig.allocate(v, cores);
            let side: Vec<bool> = (0..graph.len())
                .map(|i| mapping.core_of(graph.tid_of(i)) == 1)
                .collect();
            let best =
                symbio_allocator::partition::bisect(graph.weights(), PartitionMethod::Exhaustive)
                    .cut;
            if best <= f64::EPSILON {
                1.0
            } else {
                graph.weights().cut_weight(&side) / best
            }
        })
        .collect();
    m.set(
        "allocator.cut_ratio",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
}

fn traced(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let rig = setup(cfg)?;
    let replay_stride = rig.stride * REPLAY_EVERY;

    // Quality and memo numbers: the workload's own sweep.
    let cache = Arc::new(MeasureCache::new());
    let (outcomes, _) = sweep_once(&rig, rig.stride, EXEC_THREADS, Some(Arc::clone(&cache)))?;
    let results: Vec<&MixResult> = outcomes.iter().flat_map(|o| &o.results).collect();
    let n = results.len() as f64;
    let m = &mut result.metrics;
    m.set(
        "core.gain_vs_worst_pct",
        outcomes.iter().map(|o| o.grand_avg).sum::<f64>() / outcomes.len() as f64 * 100.0,
    );
    m.set(
        "core.oracle_regret_pct",
        results
            .iter()
            .map(|r| {
                let best = total_cycles(r, best_measured(r)) as f64;
                (total_cycles(r, r.chosen) as f64 - best) / best * 100.0
            })
            .sum::<f64>()
            / n,
    );
    let predicted_best = |r: &MixResult| {
        (0..r.predicted.len())
            .max_by(|&a, &b| {
                r.predicted[a]
                    .partial_cmp(&r.predicted[b])
                    .expect("scores are finite")
            })
            .expect("every result carries predicted scores")
    };
    m.set(
        "core.top1_hit_ratio",
        results
            .iter()
            .filter(|r| predicted_best(r) == best_measured(r))
            .count() as f64
            / n,
    );
    m.set(
        "core.memo_hit_ratio",
        cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64,
    );
    m.set("core.sim_runs", cache.misses() as f64);

    // The same smaller subset three ways: SweepEngine on 1 thread (the
    // untraced replay), on 2 threads (executor efficiency), and the
    // pipeline's public phases called one by one under spans.
    let t0 = Instant::now();
    sweep_once(&rig, replay_stride, 1, Some(Arc::new(MeasureCache::new())))?;
    let serial_wall = secs_since(t0);
    let t0 = Instant::now();
    sweep_once(
        &rig,
        replay_stride,
        EXEC_THREADS,
        Some(Arc::new(MeasureCache::new())),
    )?;
    let parallel_wall = secs_since(t0);
    result.metrics.set(
        "core.exec_efficiency",
        serial_wall / (EXEC_THREADS as f64 * parallel_wall),
    );

    let tracer = std::cell::RefCell::new(Tracer::new(true));
    let pipeline = Pipeline::new(rig.cfg).with_memo(Arc::new(MeasureCache::new()));
    let picked: Vec<Vec<usize>> = mixes_of(rig.pool.len(), 4)
        .into_iter()
        .step_by(replay_stride)
        .collect();
    let mut seen_views = Vec::new();
    let t0 = Instant::now();
    for make in policies() {
        for (i, mix) in picked.iter().enumerate() {
            let req = i as u64;
            let specs: Vec<WorkloadSpec> = mix.iter().map(|&k| rig.pool[k].clone()).collect();
            let eval_span = tracer.borrow_mut().begin("core.evaluate_mix", req);
            let mut policy = SpannedPolicy {
                inner: make(),
                tracer: &tracer,
                req,
                seen: Vec::new(),
            };
            let span = tracer.borrow_mut().begin("core.profile", req);
            let profile = pipeline.profile(&specs, &mut policy);
            tracer.borrow_mut().end(span);
            for mapping in pipeline.candidates(specs.len()) {
                let span = tracer.borrow_mut().begin("core.measure", req);
                std::hint::black_box(pipeline.measure(&specs, &mapping));
                tracer.borrow_mut().end(span);
            }
            let span = tracer.borrow_mut().begin("eval.predicted_scores", req);
            std::hint::black_box(Pipeline::predicted_scores(
                &profile.views,
                &pipeline.candidates(specs.len()),
            ));
            tracer.borrow_mut().end(span);
            tracer.borrow_mut().end(eval_span);
            seen_views.append(&mut policy.seen);
        }
    }
    let traced_wall = secs_since(t0);
    let mut tracer = tracer.into_inner();
    if let Some(memo) = pipeline.memo() {
        tracer.count("core.memo_hits", memo.hits());
        tracer.count("core.memo_misses", memo.misses());
    }
    let times = tracer.layer_times();
    let secs = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    result.metrics.set("core.profile_s", secs("core.profile"));
    result
        .metrics
        .set("core.allocate_s", secs("allocator.allocate"));
    result.metrics.set("core.measure_s", secs("core.measure"));
    result.metrics.set(
        "trace.overhead_pct",
        (traced_wall / serial_wall - 1.0) * 100.0,
    );
    result.attempted = tracer.spans().len() as u64;

    seen_views.truncate(64);
    layer_timings(&seen_views, &mut result);
    result.note(format!(
        "quality from one {}-mix x 3-policy sweep; spans over every {REPLAY_EVERY}th mix ({} mixes) on one \
         thread; the simulator is unvalidated against hardware, so gain_vs_worst_pct carries no error figure",
        results.len() / 3,
        picked.len()
    ));
    cfg.write_trace(&tracer)?;
    Ok(result)
}
