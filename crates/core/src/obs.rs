//! Observability for the evaluation engine: counters, stage timers, a
//! JSON-lines event trace, and the `BENCH_sweep.json` throughput record.
//!
//! Everything here is passive — a sweep configured without a trace or
//! bench record pays only a handful of relaxed atomic increments.

pub mod fault;

use crate::report::experiments_dir;
use serde::{Deserialize, Serialize, Value};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use symbio_cache::MAX_DOMAINS;

// ------------------------------------------------------------- counters

/// The per-kind half of [`counters!`]: what one table line turns into
/// at each generated site. `sum` and `max` are scalars (one `u64` on the
/// wire each); `per_domain` is the one array counter.
macro_rules! counter_kind {
    (atomic per_domain) => { [AtomicU64; MAX_DOMAINS] };
    (atomic $scalar:ident) => { AtomicU64 };
    (plain per_domain) => { Vec<u64> };
    (plain $scalar:ident) => { u64 };
    (scalars per_domain) => { 0 };
    (scalars $scalar:ident) => { 1 };
    (load per_domain, $c:expr) => {{
        let mut v: Vec<u64> = $c.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        while v.last() == Some(&0) {
            v.pop();
        }
        v
    }};
    (load $scalar:ident, $c:expr) => { $c.load(Ordering::Relaxed) };
    (absorb sum, $a:expr, $b:expr) => { $a += $b };
    (absorb max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (absorb per_domain, $a:expr, $b:expr) => {{
        if $a.len() < $b.len() {
            $a.resize($b.len(), 0);
        }
        for (slot, v) in $a.iter_mut().zip(&$b) {
            *slot += v;
        }
    }};
    (put per_domain, $slots:ident, $v:expr) => {};
    (put $scalar:ident, $slots:ident, $v:expr) => {
        if let Some(slot) = $slots.next() {
            *slot = $v;
        }
    };
    (take per_domain, $values:ident, $per_domain:ident) => { $per_domain };
    (take $scalar:ident, $values:ident, $per_domain:ident) => {
        $values.next().unwrap_or_default()
    };
}

/// Declares every engine counter once. Each line is a doc comment, a
/// kind and a name; the order is the JSON field order and the v2 wire
/// order. Kinds:
///
/// * `sum` — a monotonic counter; merged snapshots add;
/// * `max` — a gauge raised with `fetch_max`; merged snapshots keep the
///   larger value;
/// * `per_domain` — one slot per cache domain; snapshots trim trailing
///   all-zero slots and merge element-wise.
///
/// From the table this generates [`Counters`], [`CounterSnapshot`],
/// [`Counters::snapshot`], [`CounterSnapshot::absorb`] and the scalar
/// view the v2 codec packs ([`CounterSnapshot::scalars`] /
/// [`CounterSnapshot::from_scalars`]). Adding a counter is one table
/// line plus the `Counters::add` that increments it.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $kind:ident $name:ident;)+) => {
        /// Monotonic engine counters, shared (via `Arc`) by every pipeline
        /// and worker thread of a sweep.
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[doc = $doc])+ pub $name: counter_kind!(atomic $kind),)+
        }

        /// Plain-data snapshot of [`Counters`] for serialization.
        #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
        pub struct CounterSnapshot {
            $(
                #[doc = concat!("See [`Counters::", stringify!($name), "`].")]
                pub $name: counter_kind!(plain $kind),
            )+
        }

        impl Counters {
            /// Consistent-enough point-in-time copy.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: counter_kind!(load $kind, self.$name),)+
                }
            }
        }

        impl CounterSnapshot {
            /// How many scalar (`sum` and `max`) counters the table holds.
            pub const SCALARS: usize = 0 $(+ counter_kind!(scalars $kind))+;

            /// Fold `other` into `self` by kind: `sum` counters add, `max`
            /// gauges (`step_threads`) keep the larger value, and
            /// `per_domain` slots (`domain_remaps`) add element-wise, the
            /// longer vector's tail surviving. The fleet coordinator uses
            /// this to aggregate per-backend `Metrics` replies into
            /// fleet-wide totals.
            pub fn absorb(&mut self, other: &CounterSnapshot) {
                $(counter_kind!(absorb $kind, self.$name, other.$name);)+
            }

            /// Every scalar counter, in table order.
            pub fn scalars(&self) -> [u64; Self::SCALARS] {
                let mut out = [0; Self::SCALARS];
                let mut slots = out.iter_mut();
                $(counter_kind!(put $kind, slots, self.$name);)+
                out
            }

            /// Inverse of [`CounterSnapshot::scalars`], with the
            /// per-domain slots supplied separately.
            pub fn from_scalars(values: [u64; Self::SCALARS], domain_remaps: Vec<u64>) -> Self {
                let mut values = values.into_iter();
                CounterSnapshot {
                    $($name: counter_kind!(take $kind, values, domain_remaps),)+
                }
            }
        }
    };
}

counters! {
    /// Phase-1 profiling simulations executed.
    sum profile_runs;
    /// Phase-2 measurement simulations actually executed (memoization
    /// hits do *not* count — that is the point of the cache).
    sum sim_runs;
    /// Simulated frontier cycles across executed measurement runs.
    sum sim_cycles;
    /// L2 accesses across executed measurement runs.
    sum l2_accesses;
    /// L2 misses across executed measurement runs.
    sum l2_misses;
    /// Measurement-cache hits.
    sum memo_hits;
    /// Measurement-cache misses.
    sum memo_misses;
    /// Mixes fully evaluated.
    sum mixes_done;
    /// Online-engine epochs ingested (snapshot stream ticks).
    sum online_epochs;
    /// Online-engine remaps committed (mapping actually changed after
    /// majority + hysteresis).
    sum online_remaps;
    /// Daemon requests served (every parsed frame, all verbs).
    sum serve_requests;
    /// Daemon protocol/dispatch errors returned to clients.
    sum serve_errors;
    /// `IngestBatch` frames served (each batch also counts once in
    /// [`Counters::serve_requests`]; per-item decisions land in
    /// [`Counters::online_epochs`]).
    sum serve_batches;
    /// Journal frames replayed during recovery
    /// (`OnlineEngine::recover_from`).
    sum recovery_replays;
    /// Process groups tripped into quarantine by repeated invalid
    /// snapshots.
    sum quarantine_trips;
    /// `degraded`/`recovering` replies served (load shedding and
    /// quarantined groups: the stale mapping, not a fresh decision).
    sum degraded_replies;
    /// Bytes appended to (or replayed from) the epoch journal.
    sum journal_bytes;
    /// Per-cache-domain committed mapping changes (initial adoptions and
    /// remaps, indexed by domain). A slot only moves when the online
    /// engine actually touched that domain, so a healthy multi-domain
    /// replay shows activity precisely where remaps landed. Snapshots
    /// trim trailing all-zero slots, so single-domain deployments report
    /// `[n]` and a 2-domain replay reports e.g. `[3, 2]`.
    per_domain domain_remaps;
    /// Hot-loop batches executed by the machines' domain lanes: every
    /// run steps through lanes, so this is non-zero for every run and
    /// does not depend on `step_threads`.
    sum par_domain_steps;
    /// Highest `MachineConfig::step_threads` any pipeline reporting here
    /// was configured with — the OS threads driving the lanes (a gauge
    /// recorded via `fetch_max`, so mixed sweeps report the widest).
    max step_threads;
    /// Wall-clock nanoseconds spent inside `Machine::run_for` quantum
    /// stepping during profiling (the per-quantum stage timer; excludes
    /// allocator invocation and vote bookkeeping).
    sum quantum_step_ns;
    /// Fleet coordinator: requests routed to an owning backend (every
    /// proxied `Ingest`/`Map`; batch items count individually).
    sum fleet_routes;
    /// Fleet coordinator: process groups whose owning backend changed
    /// across membership rebalances.
    sum fleet_rebalance_moves;
    /// Fleet coordinator: requests shed by tenant policy (quota, rate
    /// limit, or backlog-driven shedding in priority order).
    sum tenant_sheds;
    /// Fleet coordinator: transport/proxy failures against backends
    /// (each marks a strike toward declaring the backend dead).
    sum fleet_backend_errors;
    /// Fleet coordinator: groups whose epoch-ring state was carried to
    /// the new owner (export + import both succeeded) before the route
    /// flipped in a rebalance.
    sum fleet_warm_handoffs;
    /// Fleet coordinator: moved groups that restarted cold on the new
    /// owner because the warm handoff failed or timed out (the old
    /// owner was dead, hung, or unreachable).
    sum fleet_cold_fallbacks;
    /// Fleet coordinator: backend transport errors absorbed by the flap
    /// detector without evicting the backend (strikes below the
    /// eviction threshold, or outside the flap window).
    sum fleet_flaps_suppressed;
    /// Fleet coordinator: membership epochs committed to the durable
    /// membership journal (join/evict/drain records; replayed on
    /// restart to rebuild routing deterministically).
    sum membership_epochs;
    /// Control plane: `WhatIf` queries answered (memoized and live
    /// evaluations both count; memo hits also land in
    /// [`Counters::memo_hits`]).
    sum whatif_requests;
    /// Control plane: decision/counter events pushed to `Subscribe`
    /// watchers (lossy: dropped events are not counted).
    sum stream_events;
    /// Control plane: per-decision `Explanation` records emitted by the
    /// online engine (explanations enabled and a decision produced one).
    sum explanations_emitted;
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Add `n` to a counter (relaxed; counters are statistics, not
    /// synchronization).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a committed mapping change in cache domain `d`. Domains
    /// beyond [`MAX_DOMAINS`] (only reachable from hostile wire input)
    /// are dropped rather than panicking the server.
    pub fn bump_domain_remap(&self, d: usize) {
        if let Some(slot) = self.domain_remaps.get(d) {
            Counters::add(slot, 1);
        }
    }

    /// Record the configured stepping width (a gauge: keeps the widest
    /// engine seen, so concurrent pipelines don't fight over the slot).
    pub fn note_step_threads(&self, threads: usize) {
        self.step_threads
            .fetch_max(threads as u64, Ordering::Relaxed);
    }
}

// --------------------------------------------------------- stage timers

/// Wall-clock timings of named stages, recorded in completion order.
#[derive(Debug, Default)]
pub struct Timings {
    stages: Mutex<Vec<(String, f64)>>,
}

impl Timings {
    /// Fresh empty recorder.
    pub fn new() -> Self {
        Timings::default()
    }

    /// Time `f` under `stage` and record its wall-clock seconds.
    pub fn time<R>(&self, stage: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(stage, t0.elapsed().as_secs_f64());
        r
    }

    /// Record an externally-measured duration.
    pub fn record(&self, stage: &str, seconds: f64) {
        self.stages
            .lock()
            .expect("poisoned timings")
            .push((stage.to_string(), seconds));
    }

    /// All recorded `(stage, seconds)` pairs, completion order.
    pub fn stages(&self) -> Vec<(String, f64)> {
        self.stages.lock().expect("poisoned timings").clone()
    }

    /// Summed seconds of every record for `stage`.
    pub fn total(&self, stage: &str) -> f64 {
        self.stages()
            .iter()
            .filter(|(s, _)| s == stage)
            .map(|(_, d)| d)
            .sum()
    }
}

// ----------------------------------------------------------- progress

/// A progress update from a running sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Mixes completed so far.
    pub done: usize,
    /// Total mixes in the sweep.
    pub total: usize,
}

/// Callback type for sweep progress (thread-safe: workers call it
/// concurrently).
pub type ProgressFn = dyn Fn(Progress) + Send + Sync;

// ------------------------------------------------------------- tracing

/// JSON-lines event trace written next to experiment artifacts.
///
/// Each line is one self-describing object: an `event` tag, milliseconds
/// since the trace was opened, and event-specific fields. Lines from
/// worker threads interleave in completion order.
#[derive(Debug)]
pub struct Trace {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    epoch: Instant,
    path: PathBuf,
}

impl Trace {
    /// Open (truncate) `<experiments_dir>/<name>.trace.jsonl`.
    pub fn create(name: &str) -> std::io::Result<Self> {
        let path = experiments_dir().join(format!("{name}.trace.jsonl"));
        let file = std::fs::File::create(&path)?;
        Ok(Trace {
            out: Mutex::new(std::io::BufWriter::new(file)),
            epoch: Instant::now(),
            path,
        })
    }

    /// Where this trace is being written.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Append one event line. `fields` must be a JSON object; the writer
    /// prepends `event` and `t_ms`. I/O errors are swallowed (a trace
    /// must never fail an experiment).
    pub fn emit(&self, event: &str, fields: Value) {
        let mut pairs = vec![
            ("event".to_string(), Value::Str(event.to_string())),
            (
                "t_ms".to_string(),
                Value::U64(self.epoch.elapsed().as_millis() as u64),
            ),
        ];
        if let Value::Object(extra) = fields {
            pairs.extend(extra);
        }
        let line = serde_json::to_string(&Value::Object(pairs)).expect("infallible");
        let mut w = self.out.lock().expect("poisoned trace");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

// ----------------------------------------------------- bench recording

/// One sweep's throughput record for `BENCH_sweep.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Sweep name (artifact key).
    pub name: String,
    /// Mixes evaluated.
    pub mixes: u64,
    /// Worker threads used.
    pub threads: u64,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// Mixes per wall-clock second.
    pub mixes_per_sec: f64,
    /// Simulated cycles per wall-clock second (engine throughput).
    pub sim_cycles_per_sec: f64,
    /// Engine counters at completion.
    pub counters: CounterSnapshot,
}

impl BenchRecord {
    /// Assemble a record from a finished sweep's numbers.
    pub fn new(name: &str, threads: usize, wall_seconds: f64, counters: CounterSnapshot) -> Self {
        let wall = wall_seconds.max(1e-9);
        BenchRecord {
            name: name.to_string(),
            mixes: counters.mixes_done,
            threads: threads as u64,
            wall_seconds,
            mixes_per_sec: counters.mixes_done as f64 / wall,
            sim_cycles_per_sec: counters.sim_cycles as f64 / wall,
            counters,
        }
    }
}

/// Merge one `key → value` entry into `<experiments_dir>/<file>`, an
/// object keyed by bench name (later runs of the same key overwrite their
/// entry; other entries persist). Returns the file's path.
pub fn merge_bench_entry(file: &str, key: &str, value: Value) -> std::io::Result<PathBuf> {
    let path = experiments_dir().join(file);
    let mut entries: Vec<(String, Value)> = match std::fs::read_to_string(&path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Object(pairs)) => pairs,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    match entries.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => *v = value,
        None => entries.push((key.to_string(), value)),
    }
    let text = serde_json::to_string_pretty(&Value::Object(entries))?;
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

/// Merge `record` into `<experiments_dir>/BENCH_sweep.json`, an object
/// keyed by sweep name (later runs of the same sweep overwrite their
/// entry; other entries persist). Returns the file's path.
pub fn write_bench_record(record: &BenchRecord) -> std::io::Result<PathBuf> {
    merge_bench_entry(
        "BENCH_sweep.json",
        &record.name,
        serde::Serialize::to_value(record),
    )
}

/// One simulation-kernel microbenchmark's throughput record for
/// `BENCH_kernel.json` — the perf trajectory every kernel PR is measured
/// against. `ops` is the number of *simulated operations* the bench
/// issued (cache accesses, signature events, memory ops…), so
/// `ops_per_sec` is comparable across kernel revisions as long as the
/// bench workload is unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelBenchRecord {
    /// Microbench name (artifact key).
    pub name: String,
    /// Simulated operations executed.
    pub ops: u64,
    /// Wall-clock seconds for the measured pass.
    pub wall_seconds: f64,
    /// Nanoseconds per simulated operation.
    pub ns_per_op: f64,
    /// Simulated operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Stepping threads the measured machine was configured with
    /// (`MachineConfig::step_threads`; 1 = lanes run inline).
    pub threads: u64,
}

impl KernelBenchRecord {
    /// Assemble a record from a measured pass on one stepping thread.
    pub fn new(name: &str, ops: u64, wall_seconds: f64) -> Self {
        let wall = wall_seconds.max(1e-9);
        KernelBenchRecord {
            name: name.to_string(),
            ops,
            wall_seconds,
            ns_per_op: wall * 1e9 / (ops.max(1) as f64),
            ops_per_sec: ops as f64 / wall,
            threads: 1,
        }
    }

    /// Tag the record with the engine's stepping-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads as u64;
        self
    }
}

/// Merge `record` into `<experiments_dir>/BENCH_kernel.json` (same
/// keyed-object merge semantics as [`write_bench_record`]).
pub fn write_kernel_bench_record(record: &KernelBenchRecord) -> std::io::Result<PathBuf> {
    merge_bench_entry(
        "BENCH_kernel.json",
        &record.name,
        serde::Serialize::to_value(record),
    )
}

/// Domain-scaling efficiency summary for `BENCH_kernel.json`: the
/// `machine_domains_{d}` throughput matrix over stepping-thread counts,
/// condensed to one keyed entry so the scaling trend is inspectable
/// without reassembling it from individual records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingSummaryRecord {
    /// Artifact key (e.g. `domain_scaling_efficiency`).
    pub name: String,
    /// Domain counts measured, ascending.
    pub domains: Vec<u64>,
    /// Stepping-thread counts measured, ascending.
    pub threads: Vec<u64>,
    /// `ops_per_sec[di][ti]` for `domains[di]` at `threads[ti]`.
    pub ops_per_sec: Vec<Vec<f64>>,
    /// Per-domain parallel efficiency: best threaded throughput over the
    /// one-thread (`threads == 1`, lanes run inline) throughput of the
    /// same domain count.
    pub speedup_vs_serial: Vec<f64>,
}

/// Merge a [`ScalingSummaryRecord`] into `BENCH_kernel.json`.
pub fn write_kernel_scaling_summary(record: &ScalingSummaryRecord) -> std::io::Result<PathBuf> {
    merge_bench_entry(
        "BENCH_kernel.json",
        &record.name,
        serde::Serialize::to_value(record),
    )
}

/// One `loadgen` run's latency/throughput record for `BENCH_serve.json` —
/// the serving-path analogue of [`KernelBenchRecord`]: decisions per
/// second through the full socket → parse → engine → reply path, with
/// client-observed latency quantiles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchRecord {
    /// Run name (artifact key).
    pub name: String,
    /// Requests completed (responses received). With batched ingest one
    /// request carries many decisions, so this undercounts work — gate
    /// throughput floors on [`ServeBenchRecord::decisions_per_sec`].
    pub requests: u64,
    /// Decisions received (batch replies count each item).
    pub decisions: u64,
    /// Error replies observed.
    pub errors: u64,
    /// Transient failures absorbed by retry/backoff (resends and
    /// reconnects that ultimately succeeded — zero client-visible
    /// failures as long as the run exits cleanly).
    pub retries: u64,
    /// `degraded`/`recovering` replies received (the daemon served a
    /// stale mapping under load shedding or quarantine).
    pub degraded: u64,
    /// Concurrent client connections.
    pub conns: u64,
    /// Wall-clock seconds of the replay window.
    pub wall_seconds: f64,
    /// Completed requests per wall-clock second (decisions/sec when the
    /// trace is all `ingest` frames).
    pub requests_per_sec: f64,
    /// Decisions per wall-clock second — the headline serving-plane
    /// throughput number (equals `requests_per_sec` at batch size 1).
    pub decisions_per_sec: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// The daemon's counters after the replay window (from the post-window
    /// `Metrics` reply: the control-plane counters live here, since the
    /// replay tallies cannot see them). Zeroed until the caller sets it.
    pub counters: CounterSnapshot,
}

impl ServeBenchRecord {
    /// Assemble a record from a finished replay. `latencies_us` holds one
    /// entry per completed request (a batch is one request) and need not
    /// be sorted; quantiles use the nearest-rank method. `decisions`
    /// counts per-item decisions across batch replies.
    #[allow(clippy::too_many_arguments)] // a flat stats bundle, not an API surface
    pub fn new(
        name: &str,
        conns: usize,
        wall_seconds: f64,
        decisions: u64,
        errors: u64,
        retries: u64,
        degraded: u64,
        latencies_us: &mut [f64],
    ) -> Self {
        latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let quantile = |q: f64| -> f64 {
            if latencies_us.is_empty() {
                return 0.0;
            }
            let rank = ((latencies_us.len() as f64 * q).ceil() as usize).max(1);
            latencies_us[rank.min(latencies_us.len()) - 1]
        };
        let wall = wall_seconds.max(1e-9);
        ServeBenchRecord {
            name: name.to_string(),
            requests: latencies_us.len() as u64,
            decisions,
            errors,
            retries,
            degraded,
            conns: conns as u64,
            wall_seconds,
            requests_per_sec: latencies_us.len() as f64 / wall,
            decisions_per_sec: decisions as f64 / wall,
            p50_us: quantile(0.5),
            p99_us: quantile(0.99),
            counters: Counters::new().snapshot(),
        }
    }
}

/// Merge `record` into `<experiments_dir>/BENCH_serve.json` (same
/// keyed-object merge semantics as [`write_bench_record`]).
pub fn write_serve_bench_record(record: &ServeBenchRecord) -> std::io::Result<PathBuf> {
    merge_bench_entry(
        "BENCH_serve.json",
        &record.name,
        serde::Serialize::to_value(record),
    )
}

/// One `loadgen --fleet` run's record for `BENCH_fleet.json`: end-to-end
/// throughput through coordinator + backends, rebalance/shed activity,
/// and the measured routing-state footprint at synthetic scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetBenchRecord {
    /// Run name (artifact key).
    pub name: String,
    /// symbiod backends the coordinator fronted at the start of the run.
    pub backends: u64,
    /// Backends deliberately killed mid-run (0 = no chaos).
    pub killed: u64,
    /// Concurrent client connections.
    pub conns: u64,
    /// Wall-clock seconds of the replay window.
    pub wall_seconds: f64,
    /// Decisions per wall-clock second through the full
    /// client → fleetd → backend → fleetd → client path.
    pub decisions_per_sec: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Client-visible failures (must be 0 for a clean run).
    pub errors: u64,
    /// Transient faults absorbed by same-owner retry.
    pub retries: u64,
    /// Client-side owner re-resolutions after `route_moved` replies.
    pub rerouted: u64,
    /// The coordinator's `FleetMetrics` aggregate at the end of the run:
    /// its own counters (`fleet_rebalance_moves` must be > 0 when
    /// `killed > 0`; `fleet_warm_handoffs` must be > 0 when a planned
    /// drain or kill moved groups off a live backend) with every
    /// reachable backend's `Metrics` absorbed in.
    pub counters: CounterSnapshot,
    /// Synthetic groups inserted into a routing table to measure
    /// footprint (the ISSUE-mandated 1M-group probe).
    pub synthetic_groups: u64,
    /// Measured routing-state bytes per group at that scale (gated at
    /// ≤ the coordinator's configured budget, 128 B by default).
    pub bytes_per_group: f64,
}

/// Merge `record` into `<experiments_dir>/BENCH_fleet.json` (same
/// keyed-object merge semantics as [`write_bench_record`]).
pub fn write_fleet_bench_record(record: &FleetBenchRecord) -> std::io::Result<PathBuf> {
    merge_bench_entry(
        "BENCH_fleet.json",
        &record.name,
        serde::Serialize::to_value(record),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_roundtrip() {
        let c = Counters::new();
        Counters::add(&c.sim_runs, 3);
        Counters::add(&c.memo_hits, 5);
        let snap = c.snapshot();
        assert_eq!(snap.sim_runs, 3);
        assert_eq!(snap.memo_hits, 5);
        let back: CounterSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn counter_table_snapshots_orders_and_merges_every_field() {
        let c = Counters::new();
        // Declaration order; counter `k` holds `k + 1`.
        let scalars = [
            &c.profile_runs,
            &c.sim_runs,
            &c.sim_cycles,
            &c.l2_accesses,
            &c.l2_misses,
            &c.memo_hits,
            &c.memo_misses,
            &c.mixes_done,
            &c.online_epochs,
            &c.online_remaps,
            &c.serve_requests,
            &c.serve_errors,
            &c.serve_batches,
            &c.recovery_replays,
            &c.quarantine_trips,
            &c.degraded_replies,
            &c.journal_bytes,
            &c.par_domain_steps,
            &c.step_threads,
            &c.quantum_step_ns,
            &c.fleet_routes,
            &c.fleet_rebalance_moves,
            &c.tenant_sheds,
            &c.fleet_backend_errors,
            &c.fleet_warm_handoffs,
            &c.fleet_cold_fallbacks,
            &c.fleet_flaps_suppressed,
            &c.membership_epochs,
            &c.whatif_requests,
            &c.stream_events,
            &c.explanations_emitted,
        ];
        assert_eq!(scalars.len(), CounterSnapshot::SCALARS);
        assert_eq!(
            std::mem::size_of::<Counters>(),
            8 * (CounterSnapshot::SCALARS + MAX_DOMAINS)
        );
        for (k, counter) in scalars.iter().enumerate() {
            Counters::add(counter, k as u64 + 1);
        }
        Counters::add(&c.domain_remaps[0], 101);
        Counters::add(&c.domain_remaps[2], 103);

        let snap = c.snapshot();
        let ordinal: [u64; CounterSnapshot::SCALARS] = std::array::from_fn(|k| k as u64 + 1);
        assert_eq!(snap.scalars(), ordinal);
        assert_eq!(snap.domain_remaps, vec![101, 0, 103]);
        assert_eq!((snap.step_threads, snap.explanations_emitted), (19, 31));
        assert_eq!(
            CounterSnapshot::from_scalars(snap.scalars(), snap.domain_remaps.clone()),
            snap
        );

        // Scalars sum except the `step_threads` gauge (max);
        // `domain_remaps` adds element-wise and keeps the longer tail.
        let mut merged = snap.clone();
        merged.absorb(&CounterSnapshot::from_scalars(
            [100; CounterSnapshot::SCALARS],
            vec![1, 2, 3, 4],
        ));
        let mut expected = ordinal.map(|v| v + 100);
        expected[18] = 100;
        assert_eq!(merged.scalars(), expected);
        assert_eq!(merged.step_threads, 100);
        assert_eq!(merged.domain_remaps, vec![102, 2, 106, 4]);
    }

    #[test]
    fn domain_remaps_trim_trailing_zeros() {
        let c = Counters::new();
        assert!(c.snapshot().domain_remaps.is_empty());
        c.bump_domain_remap(0);
        c.bump_domain_remap(2);
        c.bump_domain_remap(2);
        assert_eq!(c.snapshot().domain_remaps, vec![1, 0, 2]);
        // Out-of-range domains are dropped, not a panic.
        c.bump_domain_remap(MAX_DOMAINS + 5);
        assert_eq!(c.snapshot().domain_remaps, vec![1, 0, 2]);
    }

    #[test]
    fn timings_accumulate_per_stage() {
        let t = Timings::new();
        t.record("profile", 0.25);
        t.record("measure", 1.0);
        t.record("profile", 0.5);
        assert_eq!(t.total("profile"), 0.75);
        assert_eq!(t.stages().len(), 3);
        let r = t.time("measure", || 42);
        assert_eq!(r, 42);
        assert_eq!(t.stages().len(), 4);
    }

    #[test]
    fn trace_writes_jsonl() {
        let _dir = crate::report::lock_experiments_dir();
        std::env::set_var(
            "SYMBIO_EXPERIMENTS_DIR",
            std::env::temp_dir().join("symbio-obs-test"),
        );
        let trace = Trace::create("unit-trace").unwrap();
        trace.emit("start", serde_json::json!({"total": 5}));
        trace.emit("done", serde_json::json!({"ok": true}));
        let text = std::fs::read_to_string(trace.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.get("event"), Some(&Value::Str("start".into())));
        assert_eq!(first.get("total"), Some(&Value::U64(5)));
        assert!(first.get("t_ms").is_some());
        std::env::remove_var("SYMBIO_EXPERIMENTS_DIR");
    }

    #[test]
    fn serve_record_quantiles_nearest_rank() {
        let mut lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let r = ServeBenchRecord::new("unit", 4, 2.0, 400, 1, 3, 2, &mut lat);
        assert_eq!(r.requests, 100);
        assert_eq!(r.decisions, 400);
        assert_eq!(r.errors, 1);
        assert_eq!(r.retries, 3);
        assert_eq!(r.degraded, 2);
        assert!((r.p50_us - 50.0).abs() < 1e-9);
        assert!((r.p99_us - 99.0).abs() < 1e-9);
        assert!((r.requests_per_sec - 50.0).abs() < 1e-9);
        assert!((r.decisions_per_sec - 200.0).abs() < 1e-9);
        // Empty latency set degrades to zeros, not a panic.
        let empty = ServeBenchRecord::new("empty", 1, 1.0, 0, 0, 0, 0, &mut []);
        assert_eq!(empty.requests, 0);
        assert_eq!(empty.p99_us, 0.0);
    }

    #[test]
    fn bench_records_merge_by_name() {
        let _dir = crate::report::lock_experiments_dir();
        std::env::set_var(
            "SYMBIO_EXPERIMENTS_DIR",
            std::env::temp_dir().join("symbio-obs-bench-test"),
        );
        let mut counters = Counters::new().snapshot();
        counters.mixes_done = 10;
        counters.sim_cycles = 1_000_000;
        let a = BenchRecord::new("sweep-a", 4, 2.0, counters.clone());
        assert!((a.mixes_per_sec - 5.0).abs() < 1e-9);
        write_bench_record(&a).unwrap();
        counters.mixes_done = 20;
        let b = BenchRecord::new("sweep-b", 4, 2.0, counters.clone());
        let path = write_bench_record(&b).unwrap();
        // Overwrite sweep-a; sweep-b persists.
        let a2 = BenchRecord::new("sweep-a", 8, 1.0, counters);
        write_bench_record(&a2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let a_entry = v.get("sweep-a").expect("sweep-a present");
        assert_eq!(a_entry.get("threads"), Some(&Value::U64(8)));
        assert!(v.get("sweep-b").is_some());
        std::env::remove_var("SYMBIO_EXPERIMENTS_DIR");
    }
}
