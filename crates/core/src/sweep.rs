//! Mix sweeps — the drivers behind Figures 10, 11 and 12.
//!
//! [`SweepEngine`] is the v2 facade: it binds an experiment configuration
//! to the work-queue executor ([`crate::exec`]), optional measurement
//! memoization ([`crate::memo`]) and the observability layer
//! ([`crate::obs`]). The original free functions ([`sweep_pool`],
//! [`sweep_multithreaded`]) remain as thin wrappers for callers that need
//! none of the hooks.

use crate::config::ExperimentConfig;
use crate::exec::{execute, CancelToken, ExecOptions};
use crate::memo::MeasureCache;
use crate::metrics::{grand_average, observations, summarize, BenchmarkSummary};
use crate::mixes::mixes_of;
use crate::obs::{write_bench_record, BenchRecord, Counters, Progress, ProgressFn, Timings, Trace};
use crate::pipeline::{MixResult, Pipeline};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use symbio_allocator::AllocationPolicy;
use symbio_machine::{MachineConfig, Mapping, Topology};
use symbio_workloads::{ThreadSpec, WorkloadSpec};

/// Options controlling a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Benchmarks per mix (the paper uses 4).
    pub mix_size: usize,
    /// Evaluate only every `stride`-th mix (1 = all 495; 10 = a fast
    /// smoke sweep). Subsampling is *strided*, not prefix-based, so every
    /// benchmark still appears in many mixes.
    pub stride: usize,
    /// Worker threads.
    pub threads: usize,
}

impl SweepOptions {
    /// Full sweep on all cores.
    pub fn full() -> Self {
        SweepOptions {
            mix_size: 4,
            stride: 1,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Fast smoke sweep (every 10th mix).
    pub fn smoke() -> Self {
        SweepOptions {
            stride: 10,
            ..SweepOptions::full()
        }
    }
}

/// Aggregated result of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepOutcome {
    /// Every evaluated mix.
    pub results: Vec<MixResult>,
    /// Per-benchmark max/avg improvements (the figure's bars).
    pub summaries: Vec<BenchmarkSummary>,
    /// Average of per-benchmark averages (the paper's headline "22 %").
    pub grand_avg: f64,
    /// Largest single improvement observed (the paper's "up to 54 %").
    pub grand_max: f64,
}

/// One evaluated point of a domain-scaling run
/// ([`SweepEngine::run_domain_scaling`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainPoint {
    /// Cache-domain count of this point's machine.
    pub domains: usize,
    /// Total cores (`2 × domains` on the scaled multidomain machine).
    pub cores: usize,
    /// Processes per mix at this point (two per core, fig13-style).
    pub mix_size: usize,
    /// The point's aggregated sweep outcome.
    pub outcome: SweepOutcome,
}

/// The bounded phase-2 mapping set shared by the reference-measured sweep
/// shapes: the OS default round-robin placement, `n_reference` seeded
/// random balanced placements (deduplicated by partition), and `winner`
/// if it is not already present. Deterministic in (`seed`, `mix`).
fn reference_mappings(
    seed: u64,
    mix: &[usize],
    total_threads: usize,
    cores: usize,
    n_reference: usize,
    winner: &Mapping,
) -> Vec<Mapping> {
    let mut mappings = vec![Mapping::round_robin(total_threads, cores)];
    let mut rng = seed ^ mix.iter().fold(0u64, |a, &i| a * 31 + i as u64) | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    while mappings.len() < 1 + n_reference {
        let mut order: Vec<usize> = (0..total_threads).collect();
        for i in (1..total_threads).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut cores_by_tid = vec![0usize; total_threads];
        for (rank, &t) in order.iter().enumerate() {
            cores_by_tid[t] = rank % cores;
        }
        let m = Mapping::new(cores_by_tid);
        if mappings
            .iter()
            .all(|x| x.partition_key(cores) != m.partition_key(cores))
        {
            mappings.push(m);
        }
    }
    if mappings
        .iter()
        .all(|x| x.partition_key(cores) != winner.partition_key(cores))
    {
        mappings.push(winner.clone());
    }
    mappings
}

fn aggregate(results: Vec<MixResult>) -> SweepOutcome {
    let obs = observations(&results);
    let summaries = summarize(&obs);
    let grand_avg = grand_average(&summaries);
    let grand_max = summaries.iter().map(|s| s.max).fold(0.0, f64::max);
    SweepOutcome {
        results,
        summaries,
        grand_avg,
        grand_max,
    }
}

/// The redesigned sweep facade.
///
/// ```no_run
/// use symbio::prelude::*;
/// use std::sync::Arc;
///
/// # fn main() -> symbio::Result<()> {
/// let cfg = ExperimentConfig::fast(7);
/// let pool = spec2006::pool(cfg.machine.l2.size_bytes);
/// let outcome = SweepEngine::new(cfg)
///     .options(SweepOptions::smoke())
///     .memoized()                    // share recordings and measurements
///     .named("fig10-smoke")          // JSONL trace + BENCH_sweep.json
///     .run_pool(&pool, &|| Box::new(WeightSortPolicy))?
///     .expect("not cancelled");
/// println!("{}", outcome.grand_avg);
/// # Ok(())
/// # }
/// ```
///
/// Every hook is optional: a bare `SweepEngine::new(cfg).run_pool(..)` is
/// behaviourally identical to the original [`sweep_pool`].
pub struct SweepEngine<'a> {
    cfg: ExperimentConfig,
    opts: SweepOptions,
    chunk: usize,
    name: Option<String>,
    memo: Option<Arc<MeasureCache>>,
    counters: Arc<Counters>,
    timings: Arc<Timings>,
    cancel: Option<&'a CancelToken>,
    progress: Option<&'a ProgressFn>,
}

impl<'a> SweepEngine<'a> {
    /// A sweep engine with default options and no hooks.
    pub fn new(cfg: ExperimentConfig) -> Self {
        SweepEngine {
            cfg,
            opts: SweepOptions::full(),
            chunk: 1,
            name: None,
            memo: None,
            counters: Arc::new(Counters::new()),
            timings: Arc::new(Timings::new()),
            cancel: None,
            progress: None,
        }
    }

    /// Set the sweep options (mix size, stride, worker threads).
    pub fn options(mut self, opts: SweepOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the executor claim-chunk size (default 1; see
    /// [`ExecOptions::chunk`]).
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Enable memoization of recordings and measurements with a fresh
    /// private cache.
    pub fn memoized(self) -> Self {
        self.with_memo(Arc::new(MeasureCache::new()))
    }

    /// Enable memoization with a shared cache — pass the same `Arc` to
    /// several engines (e.g. one per policy, as Figure 13 does) and each
    /// mix's profiling run and identical phase-2 measurements are
    /// simulated once.
    pub fn with_memo(mut self, cache: Arc<MeasureCache>) -> Self {
        self.memo = Some(cache);
        self
    }

    /// Report statistics to shared `counters` instead of a private ledger.
    pub fn with_counters(mut self, counters: Arc<Counters>) -> Self {
        self.counters = counters;
        self
    }

    /// Name the sweep: a `<name>.trace.jsonl` event trace is written next
    /// to the experiment artifacts and a throughput record is merged into
    /// `BENCH_sweep.json` on completion.
    pub fn named(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// Observe `token` between mixes; cancelling it makes the run return
    /// `Ok(None)`.
    pub fn cancel_with(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Call `f` after every completed mix with the sweep's progress.
    pub fn on_progress(mut self, f: &'a ProgressFn) -> Self {
        self.progress = Some(f);
        self
    }

    /// The engine's counters (shared with every worker).
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The measurement cache, if memoization is enabled.
    pub fn memo(&self) -> Option<&Arc<MeasureCache>> {
        self.memo.as_ref()
    }

    /// Wall-clock stage timings recorded by completed runs.
    pub fn timings(&self) -> &Arc<Timings> {
        &self.timings
    }

    /// The pipeline this engine evaluates mixes with.
    fn pipeline(&self) -> Pipeline {
        let p = Pipeline::new(self.cfg).with_counters(Arc::clone(&self.counters));
        match &self.memo {
            Some(c) => p.with_memo(Arc::clone(c)),
            None => p,
        }
    }

    fn trace(&self) -> crate::Result<Option<Trace>> {
        match &self.name {
            Some(n) => Ok(Some(Trace::create(n)?)),
            None => Ok(None),
        }
    }

    /// Run the evaluation loop shared by both sweep shapes.
    fn run<T: Sync>(
        &self,
        picked: &[T],
        eval: impl Fn(&T) -> MixResult + Sync,
    ) -> crate::Result<Option<SweepOutcome>> {
        let trace = self.trace()?;
        let threads = self.opts.threads;
        if let Some(t) = &trace {
            t.emit(
                "sweep_start",
                serde_json::json!({
                    "mixes": picked.len() as u64,
                    "threads": threads as u64,
                    "chunk": self.chunk as u64,
                    "memoized": self.memo.is_some(),
                }),
            );
        }
        let report = |done: usize, total: usize| {
            if let Some(p) = self.progress {
                p(Progress { done, total });
            }
            if let Some(t) = &trace {
                t.emit(
                    "progress",
                    serde_json::json!({"done": done as u64, "total": total as u64}),
                );
            }
        };
        let mut exec_opts = ExecOptions::threads(threads)
            .chunk(self.chunk)
            .on_progress(&report);
        if let Some(c) = self.cancel {
            exec_opts = exec_opts.cancel_with(c);
        }

        let t0 = Instant::now();
        let results = execute(picked, &exec_opts, |item| {
            let r = eval(item);
            if let Some(t) = &trace {
                t.emit(
                    "mix_done",
                    serde_json::json!({
                        "names": r.names,
                        "chosen": r.chosen as u64,
                        "policy": r.policy,
                    }),
                );
            }
            r
        });
        let wall = t0.elapsed().as_secs_f64();
        self.timings.record("evaluate", wall);

        let Some(results) = results else {
            if let Some(t) = &trace {
                t.emit("sweep_cancelled", serde_json::json!({}));
            }
            return Ok(None);
        };
        let outcome = self.timings.time("aggregate", || aggregate(results));
        let snapshot = self.counters.snapshot();
        if let Some(t) = &trace {
            t.emit(
                "sweep_done",
                serde_json::json!({
                    "wall_seconds": wall,
                    "counters": snapshot,
                }),
            );
        }
        if let Some(n) = &self.name {
            write_bench_record(&BenchRecord::new(n, threads, wall, snapshot))?;
        }
        Ok(Some(outcome))
    }

    /// Evaluate mixes of single-threaded benchmarks from `pool` under the
    /// policy produced by `make_policy` (one instance per mix, so stateful
    /// policies don't leak across mixes). This is the Figure 10 (native) /
    /// Figure 11 (virtualized `cfg`) driver.
    ///
    /// Returns `Ok(None)` iff the run was cancelled.
    pub fn run_pool(
        &self,
        pool: &[WorkloadSpec],
        make_policy: &(dyn Fn() -> Box<dyn AllocationPolicy> + Sync),
    ) -> crate::Result<Option<SweepOutcome>> {
        let pipeline = self.pipeline();
        pipeline.check_mix_size(self.opts.mix_size)?;
        let all = mixes_of(pool.len(), self.opts.mix_size);
        let picked: Vec<Vec<usize>> = all.into_iter().step_by(self.opts.stride.max(1)).collect();
        self.run(&picked, |mix| {
            let specs: Vec<WorkloadSpec> = mix.iter().map(|&i| pool[i].clone()).collect();
            let mut policy = make_policy();
            pipeline
                .evaluate_mix(&specs, policy.as_mut())
                .expect("mix size pre-validated")
        })
    }

    /// Evaluate mixes of multi-threaded applications (`threads` threads
    /// each) — the Figure 12 driver.
    ///
    /// With 16 threads on 2 cores the full mapping space (6435 balanced
    /// bisections) is too large to measure exhaustively, so the worst case
    /// is taken over a *reference set*: the OS default placement,
    /// `n_reference` seeded random balanced placements, and the policy's
    /// choice. DESIGN.md records this substitution for the paper's
    /// (unspecified) enumeration.
    pub fn run_multithreaded(
        &self,
        pool: &[ThreadSpec],
        threads: usize,
        make_policy: &(dyn Fn() -> Box<dyn AllocationPolicy> + Sync),
        n_reference: usize,
    ) -> crate::Result<Option<SweepOutcome>> {
        let pipeline = self.pipeline();
        pipeline.check_mix_size(self.opts.mix_size * threads)?;
        let all = mixes_of(pool.len(), self.opts.mix_size);
        let picked: Vec<Vec<usize>> = all.into_iter().step_by(self.opts.stride.max(1)).collect();
        let cfg = self.cfg;
        let cores = cfg.machine.cores;
        let counters = Arc::clone(&self.counters);

        self.run(&picked, move |mix| {
            let specs: Vec<ThreadSpec> = mix.iter().map(|&i| pool[i].clone()).collect();
            let total_threads = specs.len() * threads;
            let mut policy = make_policy();
            let profile = pipeline.profile_multithreaded(&specs, threads, policy.as_mut());
            let mappings = reference_mappings(
                cfg.machine.seed,
                mix,
                total_threads,
                cores,
                n_reference,
                &profile.winner,
            );
            let user_cycles: Vec<Vec<u64>> = mappings
                .iter()
                .map(|m| {
                    let out = pipeline.measure_multithreaded(&specs, threads, m);
                    out.procs.iter().map(|p| p.user_cycles).collect()
                })
                .collect();
            let chosen = Pipeline::locate(&mappings, &profile.winner, cores);
            let predicted = Pipeline::predicted_scores(&profile.views, &mappings);
            Counters::add(&counters.mixes_done, 1);
            MixResult {
                names: specs.iter().map(|s| s.name.clone()).collect(),
                mappings,
                user_cycles,
                chosen,
                policy: policy.name().to_string(),
                predicted,
            }
        })
    }

    /// Evaluate fig13-style mixes (two single-threaded processes per
    /// core) on the [`MachineConfig::scaled_multidomain`] family, one
    /// point per entry of `domain_counts` — the domain-scaling axis.
    ///
    /// At each point the engine's machine template is replaced by the
    /// `d`-domain scaled machine (the experiment parameters — profiling
    /// length, interval, measurement repeats — carry over, and the seed is
    /// taken from the engine's machine). `make_policy` receives the
    /// point's [`Topology`] so callers can build a
    /// `DomainAwarePolicy` around it; measurement memoization keys
    /// include the topology, so points never share cache entries.
    ///
    /// Beyond one domain the balanced-mapping space is far too large to
    /// enumerate (105 partitions at 8-on-4 already), so each mix is
    /// measured over the bounded reference set of
    /// [`SweepEngine::run_multithreaded`]: round-robin, `n_reference`
    /// seeded random balanced placements, and the policy's choice. Mixes
    /// are `C(pool, 2·cores)` combinations when the pool is large enough,
    /// otherwise strided cyclic rotations of the pool (the loadgen
    /// convention), so a 12-benchmark pool still drives a 4-domain point.
    ///
    /// Returns `Ok(None)` iff the run was cancelled. A named engine
    /// writes one trace / bench record per point, suffixed `-d{domains}`.
    pub fn run_domain_scaling(
        &self,
        pool: &[WorkloadSpec],
        domain_counts: &[usize],
        make_policy: &(dyn Fn(Topology) -> Box<dyn AllocationPolicy> + Sync),
        n_reference: usize,
    ) -> crate::Result<Option<Vec<DomainPoint>>> {
        let mut points = Vec::new();
        for &d in domain_counts {
            if d == 0 {
                return Err(crate::Error::InvalidConfig(
                    "domain-scaling points need at least one domain".into(),
                ));
            }
            // Carry the caller's stepping-thread count over to every point.
            let machine = MachineConfig::scaled_multidomain(self.cfg.machine.seed, d)
                .with_step_threads(self.cfg.machine.step_threads);
            let topo = machine.topology;
            let mix_size = 2 * machine.cores;
            let sub = SweepEngine {
                cfg: ExperimentConfig {
                    machine,
                    ..self.cfg
                },
                opts: SweepOptions {
                    mix_size,
                    ..self.opts
                },
                chunk: self.chunk,
                name: self.name.as_ref().map(|n| format!("{n}-d{d}")),
                memo: self.memo.clone(),
                counters: Arc::clone(&self.counters),
                timings: Arc::clone(&self.timings),
                cancel: self.cancel,
                progress: self.progress,
            };
            let pipeline = sub.pipeline();
            pipeline.check_mix_size(mix_size)?;
            let stride = sub.opts.stride.max(1);
            let picked: Vec<Vec<usize>> = if mix_size <= pool.len() {
                mixes_of(pool.len(), mix_size)
                    .into_iter()
                    .step_by(stride)
                    .collect()
            } else {
                (0..pool.len())
                    .step_by(stride)
                    .map(|r| (0..mix_size).map(|i| (r + i) % pool.len()).collect())
                    .collect()
            };
            let cores = sub.cfg.machine.cores;
            let seed = sub.cfg.machine.seed;
            let counters = Arc::clone(&sub.counters);
            let outcome = sub.run(&picked, |mix| {
                let specs: Vec<WorkloadSpec> = mix.iter().map(|&i| pool[i].clone()).collect();
                let mut policy = make_policy(topo);
                let profile = pipeline.profile(&specs, policy.as_mut());
                let mappings =
                    reference_mappings(seed, mix, specs.len(), cores, n_reference, &profile.winner);
                let user_cycles: Vec<Vec<u64>> = mappings
                    .iter()
                    .map(|m| {
                        let out = pipeline.measure(&specs, m);
                        out.procs.iter().map(|p| p.user_cycles).collect()
                    })
                    .collect();
                let chosen = Pipeline::locate(&mappings, &profile.winner, cores);
                let predicted = Pipeline::predicted_scores(&profile.views, &mappings);
                Counters::add(&counters.mixes_done, 1);
                MixResult {
                    names: specs.iter().map(|s| s.name.clone()).collect(),
                    mappings,
                    user_cycles,
                    chosen,
                    policy: policy.name().to_string(),
                    predicted,
                }
            })?;
            let Some(outcome) = outcome else {
                return Ok(None);
            };
            points.push(DomainPoint {
                domains: d,
                cores,
                mix_size,
                outcome,
            });
        }
        Ok(Some(points))
    }
}

/// Evaluate 4-mixes of single-threaded benchmarks from `pool` —
/// compatibility wrapper over [`SweepEngine::run_pool`] with no hooks.
pub fn sweep_pool(
    cfg: ExperimentConfig,
    pool: &[WorkloadSpec],
    make_policy: &(dyn Fn() -> Box<dyn AllocationPolicy> + Sync),
    opts: SweepOptions,
) -> SweepOutcome {
    SweepEngine::new(cfg)
        .options(opts)
        .run_pool(pool, make_policy)
        .expect("sweep configuration invalid")
        .expect("uncancellable sweep cannot be cancelled")
}

/// Evaluate 4-mixes of multi-threaded applications — compatibility
/// wrapper over [`SweepEngine::run_multithreaded`] with no hooks.
pub fn sweep_multithreaded(
    cfg: ExperimentConfig,
    pool: &[ThreadSpec],
    threads: usize,
    make_policy: &(dyn Fn() -> Box<dyn AllocationPolicy> + Sync),
    opts: SweepOptions,
    n_reference: usize,
) -> SweepOutcome {
    SweepEngine::new(cfg)
        .options(opts)
        .run_multithreaded(pool, threads, make_policy, n_reference)
        .expect("sweep configuration invalid")
        .expect("uncancellable sweep cannot be cancelled")
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbio_allocator::WeightSortPolicy;
    use symbio_workloads::spec2006;

    fn tiny_pool(cfg: &ExperimentConfig) -> Vec<WorkloadSpec> {
        let l2 = cfg.machine.l2.size_bytes;
        ["mcf", "povray", "libquantum", "gobmk", "omnetpp"]
            .iter()
            .map(|n| {
                let mut s = spec2006::by_name(n, l2).unwrap();
                s.work /= 8;
                s
            })
            .collect()
    }

    #[test]
    fn smoke_sweep_of_tiny_pool() {
        let cfg = ExperimentConfig::fast(11);
        // A 5-benchmark pool => C(5,4) = 5 mixes; shrink work for speed.
        let pool = tiny_pool(&cfg);
        let out = sweep_pool(
            cfg,
            &pool,
            &|| Box::new(WeightSortPolicy),
            SweepOptions {
                mix_size: 4,
                stride: 1,
                threads: 4,
            },
        );
        assert_eq!(out.results.len(), 5);
        assert_eq!(out.summaries.len(), 5, "each benchmark appears");
        for s in &out.summaries {
            assert_eq!(s.mixes, 4, "{} appears in C(4,3)=4 mixes", s.name);
            assert!(s.max >= s.avg);
        }
        assert!(out.grand_max <= 1.0);
    }

    #[test]
    fn engine_counts_and_reports_progress() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let cfg = ExperimentConfig::fast(11);
        let pool = tiny_pool(&cfg);
        let max_done = AtomicUsize::new(0);
        let progress = move |p: Progress| {
            assert_eq!(p.total, 5);
            max_done.fetch_max(p.done, Ordering::Relaxed);
        };
        let engine = SweepEngine::new(cfg)
            .options(SweepOptions {
                mix_size: 4,
                stride: 1,
                threads: 4,
            })
            .memoized()
            .on_progress(&progress);
        let out = engine
            .run_pool(&pool, &|| Box::new(WeightSortPolicy))
            .unwrap()
            .expect("not cancelled");
        assert_eq!(out.results.len(), 5);
        let snap = engine.counters().snapshot();
        assert_eq!(snap.mixes_done, 5);
        assert_eq!(snap.profile_runs, 5);
        // 5 mixes × 3 mappings, memoized: each (mix, mapping) is distinct,
        // so all are misses here — but every simulation is ledgered.
        assert_eq!(snap.memo_misses, 15);
        assert!(snap.sim_runs >= 15);
        assert!(snap.sim_cycles > 0);
        assert!(snap.l2_accesses > 0);
        assert!(engine.timings().total("evaluate") > 0.0);
    }

    #[test]
    fn engine_rejects_bad_mix_size() {
        let cfg = ExperimentConfig::fast(11);
        let pool = tiny_pool(&cfg);
        let engine = SweepEngine::new(cfg).options(SweepOptions {
            mix_size: 3,
            stride: 1,
            threads: 1,
        });
        match engine.run_pool(&pool, &|| Box::new(WeightSortPolicy)) {
            Err(crate::Error::MixSize { got, .. }) => assert_eq!(got, 3),
            other => panic!("expected MixSize error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn cancelled_engine_returns_none() {
        let cfg = ExperimentConfig::fast(11);
        let pool = tiny_pool(&cfg);
        let token = CancelToken::new();
        token.cancel();
        let out = SweepEngine::new(cfg)
            .cancel_with(&token)
            .options(SweepOptions {
                mix_size: 4,
                stride: 1,
                threads: 2,
            })
            .run_pool(&pool, &|| Box::new(WeightSortPolicy))
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn domain_scaling_points_cover_requested_domains() {
        use symbio_allocator::DomainAwarePolicy;

        let cfg = ExperimentConfig::fast(11);
        let mut pool = tiny_pool(&cfg);
        for s in &mut pool {
            s.work /= 2; // 2-domain mixes run 8 processes; keep it quick
        }
        let engine = SweepEngine::new(cfg)
            .options(SweepOptions {
                mix_size: 4,
                stride: 5,
                threads: 4,
            })
            .memoized();
        let points = engine
            .run_domain_scaling(
                &pool,
                &[1, 2],
                &|topo| Box::new(DomainAwarePolicy::weighted_ig(topo)),
                2,
            )
            .unwrap()
            .expect("not cancelled");
        assert_eq!(points.len(), 2);
        for (point, d) in points.iter().zip([1usize, 2]) {
            assert_eq!(point.domains, d);
            assert_eq!(point.cores, 2 * d);
            assert_eq!(point.mix_size, 4 * d);
            assert!(!point.outcome.results.is_empty());
            for r in &point.outcome.results {
                // Round-robin + ≤2 random + maybe the policy's choice.
                assert!((1..=4).contains(&r.mappings.len()));
                for m in &r.mappings {
                    assert_eq!(m.len(), point.mix_size);
                    assert!((0..m.len()).all(|t| m.core_of(t) < point.cores));
                }
                assert_eq!(r.policy, "domain-aware");
            }
        }
        // The 2-domain point cycles the 5-benchmark pool into 8-process
        // mixes instead of refusing to run.
        assert_eq!(points[1].outcome.results[0].names.len(), 8);
    }

    #[test]
    fn named_engine_writes_trace_and_bench_record() {
        let _dir = crate::report::lock_experiments_dir();
        std::env::set_var(
            "SYMBIO_EXPERIMENTS_DIR",
            std::env::temp_dir().join("symbio-sweep-obs-test"),
        );
        let cfg = ExperimentConfig::fast(11);
        let pool = tiny_pool(&cfg);
        let engine = SweepEngine::new(cfg)
            .options(SweepOptions {
                mix_size: 4,
                stride: 2,
                threads: 2,
            })
            .memoized()
            .named("unit-sweep");
        engine
            .run_pool(&pool, &|| Box::new(WeightSortPolicy))
            .unwrap()
            .expect("not cancelled");
        let dir = crate::report::experiments_dir();
        let trace = std::fs::read_to_string(dir.join("unit-sweep.trace.jsonl")).unwrap();
        assert!(trace.lines().count() >= 3, "start + mixes + done");
        assert!(trace.contains(r#""event":"sweep_start""#));
        assert!(trace.contains(r#""event":"mix_done""#));
        assert!(trace.contains(r#""event":"sweep_done""#));
        let bench = std::fs::read_to_string(dir.join("BENCH_sweep.json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&bench).unwrap();
        let rec = v.get("unit-sweep").expect("record keyed by name");
        assert!(rec.get("wall_seconds").is_some());
        assert!(rec.get("mixes_per_sec").is_some());
        std::env::remove_var("SYMBIO_EXPERIMENTS_DIR");
    }
}
