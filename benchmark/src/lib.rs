//! The repo's one named benchmark (see README.md, ../BENCHMARK.json).
//!
//! Seven workloads drive the stack from outside — the simulator, the
//! sweep engine, `symbiod` and `fleetd` — and report the end-to-end
//! metrics of [`metrics::END_TO_END`]; a traced pass replays each
//! workload's inputs through every crate's public calls and reports the
//! per-layer metrics of [`metrics::PER_LAYER`]. Nothing in `crates/`
//! learns the seed or the workload name: the seed only shapes the
//! inputs generated here.

#![warn(missing_docs)]

pub mod compare;
pub mod daemon;
pub mod fleet;
pub mod inputs;
pub mod load;
pub mod metrics;
pub mod serve;
pub mod sim;
pub mod sweep;
pub mod trace;
pub mod util;

use metrics::Metrics;
use std::path::PathBuf;

/// How many times a run sets up (input generation, daemon spawn,
/// warm-up); `setup_s` is the median, so one slow spawn does not decide
/// it.
pub const SETUP_REPEATS: usize = 3;

/// Everything one benchmark run is told.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`metrics::WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Timed repetitions the window is split into.
    pub reps: usize,
    /// Run the traced pass (per-layer metrics) instead of the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// Where `symbiod` and `fleetd` were built.
    pub bin_dir: PathBuf,
    /// Where inputs, journals and traces go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Length of one timed repetition.
    pub fn rep_seconds(&self) -> f64 {
        self.seconds / self.reps as f64
    }

    /// Path of a file under `out/inputs/`, named for this workload and
    /// seed.
    pub fn input_path(&self, suffix: &str) -> PathBuf {
        self.out_dir
            .join("inputs")
            .join(format!("{}-seed{}{suffix}", self.workload, self.seed))
    }

    /// Write the traced pass's spans and counters to
    /// `out/trace-<workload>.jsonl`.
    pub fn write_trace(&self, tracer: &trace::Tracer) -> Result<(), String> {
        let path = self.out_dir.join(format!("trace-{}.jsonl", self.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (requests, slices, evaluations, checks).
    pub attempted: u64,
    /// Operations that failed, were refused or shed, or failed a check.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
    /// Human-readable lines printed above the result (noise controls,
    /// sample counts, check outcomes).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Record a correctness check; a failed one counts as a failed
    /// operation and is named in the notes.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.notes.push(format!(
            "check {name}: {}",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    /// Add a free-form note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Run `setup` [`SETUP_REPEATS`] times, tearing down all but the last
/// rig, and return that rig with the median set-up time.
pub fn timed_setups<R>(
    mut setup: impl FnMut() -> Result<R, String>,
    mut teardown: impl FnMut(R),
) -> Result<(R, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = rig.take() {
            teardown(old);
        }
        let t0 = std::time::Instant::now();
        rig = Some(setup()?);
        times.push(util::secs_since(t0));
    }
    Ok((rig.expect("SETUP_REPEATS >= 1"), util::median(&times)))
}

/// Run one workload, untraced or traced.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    // Count the cores before any workload narrows this thread's affinity.
    let cores = util::nproc();
    std::fs::create_dir_all(cfg.out_dir.join("inputs"))
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let result = match cfg.workload.as_str() {
        "sim_flat" | "sim_lanes" => sim::run(cfg),
        "sweep_paper" => sweep::run(cfg),
        "serve_batch" | "serve_rate" | "serve_mixed" => serve::run(cfg),
        "fleet_proxy" => fleet::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            metrics::WORKLOADS.join(", ")
        )),
    };
    // The server workloads confine this thread (`daemon::on_daemon_cores`).
    util::pin_to_cpus(0..cores).map_err(|e| format!("cannot lift the core split: {e}"))?;
    result
}
