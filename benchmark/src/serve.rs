//! `serve_batch`, `serve_rate`, `serve_mixed`: a root-built `symbiod`
//! child (`--workers 1 --shards 1`) driven over its socket.
//!
//! Work is an acknowledged ingest decision; a request is one frame's
//! round trip (closed loop), or — `serve_rate`, open loop — one request
//! timed from its due time at the 4000 req/s step.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use symbio_allocator::{AllocationPolicy, WeightSortPolicy, WeightedInterferenceGraphPolicy};
use symbio_machine::Mapping;
use symbio_online::journal::crc32;
use symbio_online::{JournalWriter, OnlineConfig, OnlineEngine, Recovery};
use symbio_serve::{Encoding, Request, Response};

use crate::daemon::{on_daemon_cores, Daemon};
use crate::inputs::{materialise, ServeInputs};
use crate::load::{
    closed_loop, open_loop, stream_snapshot, Conn, ConnStats, Cursor, IngestFrames, OpenLoopStats,
    Window,
};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::util::{median, nproc, quantile_sorted, secs_since, sorted};
use crate::{timed_setups, RunConfig, RunResult};

/// Generator connections (= closed-loop threads): both cores.
pub const CONNS: usize = 2;
/// The open-loop ladder, requests per second over both connections; the
/// last step is past the daemon's v1 capacity on the reference box.
pub const RATES: [u32; 5] = [2000, 4000, 6000, 8000, 10000];
/// The ladder step whose latency is the workload's `req_p50/p95_us`.
const REPORTED_RATE: u32 = 4000;
/// The latency limit `serve.rate_ok_rps` is judged against, µs at p99.
const LATENCY_LIMIT_US: f64 = 1000.0;
/// Times the ladder is walked; a rate's samples pool over the passes.
const LADDER_PASSES: usize = 4;
/// Share of each pass spent at the reported rate; the other four rates
/// split the rest evenly. Only the reported rate's latency carries a
/// regression bound, and its tail settles with the sample count.
const REPORTED_SHARE: f64 = 0.6;
/// Share of `serve_rate`'s window spent on the ladder; the rest is the
/// closed-loop burst that measures `work_per_s`.
const LADDER_SHARE: f64 = 0.8;
/// Groups per connection whose final `Map` is compared with an
/// in-process reference engine.
const CHECKED_GROUPS: usize = 8;
/// Frames each connection sends before timing starts.
const WARMUP_FRAMES: usize = 16;

/// How a server workload is shaped.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Wire encoding.
    pub encoding: Encoding,
    /// Epochs per ingest frame.
    pub batch: usize,
    /// Groups each connection cycles over.
    pub groups_per_conn: usize,
    /// Cache domains of the recorded machine (4 processes each).
    pub domains: usize,
    /// Distinct recorded mixes.
    pub mixes: usize,
    /// Tenants the group names are spread over (0 = none).
    pub tenants: usize,
    /// `symbiod --policy`.
    pub policy: &'static str,
    /// Journal every decision (`symbiod --journal`).
    pub journal: bool,
    /// Record explanations (`symbiod --explain`) and follow the mixed
    /// read/write schedule.
    pub mixed: bool,
    /// Drive the open-loop ladder instead of closed loops.
    pub open_loop: bool,
}

impl Shape {
    /// The shape of a workload by name.
    pub fn of(workload: &str) -> Shape {
        let base = Shape {
            encoding: Encoding::Binary,
            batch: 32,
            groups_per_conn: 256,
            domains: 1,
            mixes: 4,
            tenants: 0,
            policy: "weight-sort",
            journal: true,
            mixed: false,
            open_loop: false,
        };
        match workload {
            "serve_rate" => Shape {
                encoding: Encoding::JsonLines,
                batch: 1,
                groups_per_conn: 64,
                journal: false,
                open_loop: true,
                ..base
            },
            "serve_mixed" => Shape {
                batch: 8,
                groups_per_conn: 64,
                domains: 2,
                mixes: 2,
                policy: "weighted-graph",
                journal: false,
                mixed: true,
                ..base
            },
            "fleet_proxy" => Shape {
                batch: 8,
                groups_per_conn: 128,
                tenants: 4,
                journal: false,
                ..base
            },
            _ => base,
        }
    }

    /// The allocation policy the daemon runs, for the reference engine.
    pub fn reference_policy(&self) -> Box<dyn AllocationPolicy + Send> {
        match self.policy {
            "weighted-graph" => Box::new(WeightedInterferenceGraphPolicy::default()),
            _ => Box::new(WeightSortPolicy),
        }
    }

    /// A fresh in-process engine configured as the daemon's is.
    pub fn reference_engine(&self) -> Result<OnlineEngine, String> {
        OnlineEngine::new(self.reference_policy(), OnlineConfig::default())
            .map(|e| e.with_explanations(self.mixed))
            .map_err(|e| e.to_string())
    }

    fn symbiod_args(&self, journal: Option<&Path>) -> Vec<String> {
        let mut args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--shards",
            "1",
            "--policy",
            self.policy,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(path) = journal {
            args.extend(["--journal".to_string(), path.display().to_string()]);
        }
        if self.mixed {
            args.push("--explain".to_string());
        }
        args
    }
}

/// Generated inputs plus per-connection frames and stream cursors.
pub struct Streams {
    /// The inputs.
    pub inputs: ServeInputs,
    /// Prebuilt frames, one set per connection.
    pub frames: Vec<IngestFrames>,
    /// Stream positions, per connection.
    pub cursors: Vec<Vec<Cursor>>,
}

impl Streams {
    /// Generate, materialise and load the inputs of `cfg`'s workload.
    pub fn generate(cfg: &RunConfig, shape: &Shape) -> Result<Streams, String> {
        let generated = ServeInputs::new(
            cfg.seed,
            shape.domains,
            shape.mixes,
            CONNS,
            shape.groups_per_conn,
            shape.tenants,
            shape.mixed,
        );
        let inputs = materialise(&cfg.input_path(".json"), &generated)?;
        let frames = (0..CONNS)
            .map(|_| IngestFrames::new(&inputs.traces, shape.batch))
            .collect();
        let cursors = inputs
            .groups
            .iter()
            .map(|groups| {
                groups
                    .iter()
                    .map(|g| Cursor {
                        group: g.clone(),
                        sent: 0,
                        reproducible: true,
                    })
                    .collect()
            })
            .collect();
        Ok(Streams {
            inputs,
            frames,
            cursors,
        })
    }
}

/// Send each connection's first [`WARMUP_FRAMES`] frames, so sockets,
/// shard state and allocator paths are warm before timing.
pub fn warm_up(conns: &mut [Conn], streams: &mut Streams) -> Result<(), String> {
    for (c, conn) in conns.iter_mut().enumerate() {
        let batch = streams.frames[c].batch() as u64;
        for g in 0..WARMUP_FRAMES.min(streams.cursors[c].len()) {
            let cursor = &mut streams.cursors[c][g];
            let reply = conn.exchange(streams.frames[c].stamp(cursor))?;
            if reply.is_error() {
                return Err(format!("warm-up ingest refused: {reply:?}"));
            }
            cursor.sent += batch;
        }
    }
    Ok(())
}

struct Rig {
    streams: Streams,
    daemon: Daemon,
    conns: Vec<Conn>,
    journal: Option<PathBuf>,
}

fn setup(cfg: &RunConfig, shape: &Shape) -> Result<Rig, String> {
    let mut streams = Streams::generate(cfg, shape)?;
    let journal = shape
        .journal
        .then(|| cfg.out_dir.join(format!("{}.journal", cfg.workload)));
    if let Some(path) = &journal {
        // A stale journal would be replayed into the fresh daemon.
        let _ = std::fs::remove_file(path);
    }
    let daemon = on_daemon_cores(|| {
        Daemon::spawn(
            &cfg.bin_dir.join("symbiod"),
            &shape.symbiod_args(journal.as_deref()),
        )
    })?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(daemon.addr, shape.encoding))
        .collect::<Result<Vec<_>, _>>()?;
    warm_up(&mut conns, &mut streams)?;
    Ok(Rig {
        streams,
        daemon,
        conns,
        journal,
    })
}

fn teardown(rig: Rig) {
    drop(rig.conns);
    let _ = rig.daemon.shutdown();
    if let Some(path) = rig.journal {
        let _ = std::fs::remove_file(path);
    }
}

/// Run the closed loops of every connection side by side.
pub fn run_closed(
    conns: &mut [Conn],
    streams: &mut Streams,
    rep: Duration,
    reps: usize,
) -> Result<Vec<ConnStats>, String> {
    if conns.len() > nproc() {
        return Err(format!(
            "{} generator threads on {} cores: refusing to oversubscribe",
            conns.len(),
            nproc()
        ));
    }
    let window = Window {
        start: Instant::now() + Duration::from_millis(2),
        rep,
        reps,
    };
    let Streams {
        inputs,
        frames,
        cursors,
    } = streams;
    let inputs = &*inputs;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(frames.iter_mut())
            .zip(cursors.iter_mut())
            .map(|((conn, frames), cursors)| {
                scope.spawn(move || {
                    closed_loop(conn, frames, cursors, &inputs.schedule, inputs, window)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a generator thread panicked".to_string())
            })
            .collect()
    })
}

/// What the live pass saw, reduced to what both the untraced and the
/// traced run need.
pub struct Live {
    /// Acknowledged decisions per second, median over repetitions.
    pub decisions_per_s: f64,
    /// Acknowledged decisions in the timed window.
    pub decisions: u64,
    /// Request latency, µs: closed loop, the median and 95th percentile
    /// of every frame's round trip; open loop, of the latency from due
    /// time at the reported rate.
    pub req_p50_us: f64,
    /// See [`Live::req_p50_us`].
    pub req_p95_us: f64,
    /// Latency samples behind those two.
    pub samples: usize,
    /// Read-frame round trips, µs, ascending.
    pub read_us: Vec<f64>,
    /// Frames sent / failed.
    pub frames: u64,
    /// See [`Live::frames`].
    pub failed: u64,
    /// Repeated what-ifs sent / answered from the memo.
    pub whatif_repeats: u64,
    /// See [`Live::whatif_repeats`].
    pub whatif_memo_hits: u64,
    /// The ladder, when the loop was open.
    pub ladder: Option<OpenLoopStats>,
    /// What the first failed frame got back.
    pub first_failure: Option<String>,
}

/// Fold closed-loop connection stats into a [`Live`].
pub fn fold_closed(stats: Vec<ConnStats>, rep: Duration, reps: usize) -> Live {
    let per_rep: Vec<f64> = (0..reps)
        .map(|r| stats.iter().map(|s| s.decisions[r]).sum::<u64>() as f64 / rep.as_secs_f64())
        .collect();
    let frame_us = sorted(
        stats
            .iter()
            .flat_map(|s| s.frame_us.iter().copied())
            .collect(),
    );
    Live {
        decisions_per_s: median(&per_rep),
        decisions: stats.iter().flat_map(|s| &s.decisions).sum(),
        req_p50_us: if frame_us.is_empty() {
            0.0
        } else {
            quantile_sorted(&frame_us, 0.5)
        },
        req_p95_us: if frame_us.is_empty() {
            0.0
        } else {
            quantile_sorted(&frame_us, 0.95)
        },
        samples: frame_us.len(),
        read_us: sorted(
            stats
                .iter()
                .flat_map(|s| s.read_us.iter().copied())
                .collect(),
        ),
        frames: stats.iter().map(|s| s.frames).sum(),
        failed: stats.iter().map(|s| s.failed).sum(),
        whatif_repeats: stats.iter().map(|s| s.whatif_repeats).sum(),
        whatif_memo_hits: stats.iter().map(|s| s.whatif_memo_hits).sum(),
        ladder: None,
        first_failure: stats.iter().find_map(|s| s.first_failure.clone()),
    }
}

/// Percentile `q` of a ladder rate over its samples of every pass
/// (`None` when no request of the rate was acknowledged).
fn rate_quantile(ladder: &OpenLoopStats, rate: u32, q: f64) -> Option<f64> {
    let pooled = sorted(
        ladder
            .steps
            .iter()
            .filter(|s| s.rate == rate)
            .flat_map(|s| s.latency_us.iter().copied())
            .collect(),
    );
    (!pooled.is_empty()).then(|| quantile_sorted(&pooled, q))
}

/// The ladder walked [`LADDER_PASSES`] times within `seconds`.
fn ladder_schedule(seconds: f64) -> Vec<(u32, Duration)> {
    let pass = seconds / LADDER_PASSES as f64;
    let other = pass * (1.0 - REPORTED_SHARE) / (RATES.len() - 1) as f64;
    (0..LADDER_PASSES)
        .flat_map(|_| RATES)
        .map(|rate| {
            let secs = if rate == REPORTED_RATE {
                pass * REPORTED_SHARE
            } else {
                other
            };
            (rate, Duration::from_secs_f64(secs))
        })
        .collect()
}

fn live_pass(cfg: &RunConfig, shape: &Shape, rig: &mut Rig) -> Result<Live, String> {
    if !shape.open_loop {
        let rep = Duration::from_secs_f64(cfg.rep_seconds());
        let stats = run_closed(&mut rig.conns, &mut rig.streams, rep, cfg.reps)?;
        return Ok(fold_closed(stats, rep, cfg.reps));
    }
    // Four fifths of the window walk the ladder; the last fifth is a
    // closed-loop burst of the same single-ingest frames, because an open
    // loop that keeps up only ever reports the rate it was offered.
    let ladder_s = cfg.seconds * LADDER_SHARE;
    let conns = std::mem::take(&mut rig.conns);
    let ladder = open_loop(
        conns,
        &mut rig.streams.frames[0],
        &mut rig.streams.cursors,
        &ladder_schedule(ladder_s),
        cfg.seed,
    )?;
    rig.conns = (0..CONNS)
        .map(|_| Conn::connect(rig.daemon.addr, shape.encoding))
        .collect::<Result<Vec<_>, _>>()?;
    let rep = Duration::from_secs_f64((cfg.seconds - ladder_s) / cfg.reps as f64);
    let burst = fold_closed(
        run_closed(&mut rig.conns, &mut rig.streams, rep, cfg.reps)?,
        rep,
        cfg.reps,
    );
    let acked: u64 = ladder.steps.iter().map(|s| s.latency_us.len() as u64).sum();
    // The reported step must be clean; steps past capacity are expected
    // to miss their limit and only lower `serve.rate_ok_rps`.
    let failed: u64 = ladder
        .steps
        .iter()
        .filter(|s| s.rate <= REPORTED_RATE)
        .map(|s| s.failed)
        .sum();
    Ok(Live {
        decisions_per_s: burst.decisions_per_s,
        decisions: acked + burst.decisions,
        req_p50_us: rate_quantile(&ladder, REPORTED_RATE, 0.5).unwrap_or(0.0),
        req_p95_us: rate_quantile(&ladder, REPORTED_RATE, 0.95).unwrap_or(0.0),
        samples: ladder
            .steps
            .iter()
            .filter(|s| s.rate == REPORTED_RATE)
            .map(|s| s.latency_us.len())
            .sum(),
        read_us: Vec::new(),
        frames: ladder.steps.iter().map(|s| s.sent).sum::<u64>() + burst.frames,
        failed: failed + burst.failed,
        whatif_repeats: 0,
        whatif_memo_hits: 0,
        first_failure: ladder.first_failure.clone().or(burst.first_failure),
        ladder: Some(ladder),
    })
}

/// Compare the daemon's final `Map` of sampled groups with an in-process
/// engine fed the same per-group streams (groups whose stream lost a
/// request past capacity cannot be reproduced and are passed over).
/// `conn` may be any connection that reaches the groups' owner.
pub fn check_against_reference(
    conn: &mut Conn,
    shape: &Shape,
    streams: &Streams,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut engine = shape.reference_engine()?;
    let mut all_equal = true;
    for cursors in &streams.cursors {
        for cursor in cursors
            .iter()
            .filter(|c| c.reproducible)
            .take(CHECKED_GROUPS)
        {
            for seq in 0..cursor.sent {
                engine
                    .ingest(&stream_snapshot(&streams.inputs, &cursor.group, seq))
                    .map_err(|e| e.to_string())?;
            }
            let name = &cursor.group.name;
            let expected: (Option<&Mapping>, u64, u64) = (
                engine.mapping(name),
                engine.epochs(name),
                engine.remaps(name),
            );
            all_equal &= match conn.exchange(&Request::Map {
                group: name.clone(),
            })? {
                Response::Map {
                    mapping,
                    epochs,
                    remaps,
                    ..
                } => (mapping.as_ref(), epochs, remaps) == expected,
                _ => false,
            };
        }
    }
    result.check(
        "final Map of sampled groups equals an in-process engine fed the same streams",
        all_equal,
    );
    Ok(())
}

/// Lines of a journal the traced pass replays through `Recovery::load`.
/// Replay time grows faster than linearly with the size of the embedded
/// full-state snapshots (README.md, "What the benchmark found"), so the
/// whole journal of a timed window cannot be replayed inside a run.
const REPLAYED_RECORDS: usize = 4096;

/// Check every frame of a journal against its CRC: `(epoch records,
/// torn frames)`. Frames are `<crc32 hex> <json>\n`; the JSON itself is
/// not parsed here (see [`REPLAYED_RECORDS`]).
fn journal_census(data: &[u8]) -> (u64, u64) {
    let (mut epochs, mut torn) = (0u64, 0u64);
    for line in data.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let intact = line.len() > 9
            && line[8] == b' '
            && std::str::from_utf8(&line[..8])
                .ok()
                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                == Some(crc32(&line[9..]));
        if !intact {
            torn += 1;
        } else if line[9..].starts_with(b"{\"Epoch\"") {
            epochs += 1;
        }
    }
    (epochs, torn)
}

/// Record a server workload's six end-to-end metrics: `cpu_s` is what
/// the daemons used over the timed window, `rss_mb` their summed peak.
pub fn end_to_end(metrics: &mut Metrics, setup_s: f64, live: &Live, cpu_s: f64, rss_mb: f64) {
    metrics.set("setup_s", setup_s);
    metrics.set("work_per_s", live.decisions_per_s);
    metrics.set("req_p50_us", live.req_p50_us);
    metrics.set("req_p95_us", live.req_p95_us);
    metrics.set("cpu_s_per_mwork", cpu_s / (live.decisions as f64 / 1e6));
    metrics.set("peak_rss_mb", rss_mb);
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let shape = Shape::of(&cfg.workload);
    let mut result = RunResult::default();
    let (mut rig, setup_s) = if cfg.trace {
        (setup(cfg, &shape)?, 0.0)
    } else {
        timed_setups(|| setup(cfg, &shape), teardown)?
    };

    let cpu0 = rig.daemon.cpu_seconds()?;
    let live = live_pass(cfg, &shape, &mut rig)?;
    let cpu_s = rig.daemon.cpu_seconds()? - cpu0;
    result.attempted = live.frames;
    result.failed = live.failed;
    if let Some(text) = &live.first_failure {
        result.note(format!("first failed frame: {text}"));
    }
    if live.decisions == 0 || live.samples == 0 {
        return Err("the daemon acknowledged nothing in the timed window".to_string());
    }

    // Control connection: the open loop consumed the data connections.
    let mut control = Conn::connect(rig.daemon.addr, Encoding::Binary)?;
    check_against_reference(&mut control, &shape, &rig.streams, &mut result)?;
    let counters = match control.exchange(&Request::Metrics)? {
        Response::Metrics(snapshot) => snapshot,
        other => return Err(format!("metrics reply was {other:?}")),
    };
    if shape.open_loop {
        // Rates past capacity may shed; a shed request at or below the
        // reported rate already counts as a failed frame.
        result.note(format!(
            "daemon shed {} requests over the whole ladder",
            counters.degraded_replies
        ));
    } else {
        result.check(
            "the daemon shed nothing (degraded_replies = 0)",
            counters.degraded_replies == 0,
        );
    }
    let rss_mb = rig.daemon.peak_rss_mb()?;
    drop(control);
    drop(std::mem::take(&mut rig.conns));
    let acked: u64 = rig.streams.cursors.iter().flatten().map(|c| c.sent).sum();
    let Rig {
        streams,
        daemon,
        journal,
        ..
    } = rig;
    daemon.shutdown()?;

    let mut journal_replay_ms = 0.0;
    if let Some(path) = &journal {
        let data =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (epochs, torn) = journal_census(&data);
        result.check(
            "journal holds one intact epoch record per acknowledged decision and no torn frame",
            torn == 0 && epochs == acked,
        );
        if cfg.trace {
            let end = data
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .nth(REPLAYED_RECORDS - 1)
                .map_or(data.len(), |(i, _)| i + 1);
            let prefix = path.with_extension("prefix");
            std::fs::write(&prefix, &data[..end]).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let recovery = Recovery::load(&prefix, OnlineConfig::default().window)
                .map_err(|e| e.to_string())?;
            journal_replay_ms = secs_since(t0) * 1e3;
            result.check(
                "Recovery::load replays the journal's first records without truncation",
                !recovery.truncated && recovery.frames > 0,
            );
            let _ = std::fs::remove_file(&prefix);
        }
        let _ = std::fs::remove_file(path);
    }

    let describe = if shape.open_loop {
        format!(
            "open loop, 1 pacer + 1 receiver thread over {CONNS} connections, ladder {RATES:?} req/s x {LADDER_PASSES} \
             passes, then a closed-loop burst on {CONNS} threads for work_per_s; request latency from due time at \
             {REPORTED_RATE} req/s, {} samples",
            live.samples
        )
    } else {
        format!(
            "closed loop, {CONNS} connections = {CONNS} generator threads; {} frames",
            live.samples
        )
    };
    result.note(format!(
        "work = acknowledged decision; {describe}; {} on {} cores; symbiod --workers 1 --shards 1 --policy {}{}{}; \
         batch {}, {} groups/connection",
        shape.encoding.name(),
        nproc(),
        shape.policy,
        if shape.journal { " --journal" } else { "" },
        if shape.mixed { " --explain, 70/30 ingest/read" } else { "" },
        shape.batch,
        shape.groups_per_conn
    ));

    if !cfg.trace {
        end_to_end(&mut result.metrics, setup_s, &live, cpu_s, rss_mb);
        return Ok(result);
    }

    // Traced pass: live numbers that only exist on the wire, then the
    // same frames replayed in-process under spans.
    let m = &mut result.metrics;
    m.set("online.journal_replay_ms", journal_replay_ms);
    m.set(
        "online.remap_ratio",
        counters.online_remaps as f64 / counters.online_epochs.max(1) as f64,
    );
    m.set(
        "serve.shed_ratio",
        counters.degraded_replies as f64 / counters.serve_requests.max(1) as f64,
    );
    if shape.mixed {
        m.set("serve.read_p50_us", quantile_sorted(&live.read_us, 0.5));
        m.set("serve.read_p99_us", quantile_sorted(&live.read_us, 0.99));
        m.set(
            "serve.whatif_memo_hit_ratio",
            live.whatif_memo_hits as f64 / live.whatif_repeats.max(1) as f64,
        );
    }
    if let Some(ladder) = &live.ladder {
        ladder_metrics(ladder, &mut result);
    }
    let replay = replay(cfg, &shape, streams)?;
    replay.report(&shape, live.req_p50_us, &mut result);
    Ok(result)
}

/// Per-rate tails, the highest rate that meets the limit, and how late
/// the pacer ran — with the noise control that fails the run when the
/// generator, not the daemon, was the bottleneck.
fn ladder_metrics(ladder: &OpenLoopStats, result: &mut RunResult) {
    const NAMES: [&str; 5] = [
        "serve.p99_us_r2000",
        "serve.p99_us_r4000",
        "serve.p99_us_r6000",
        "serve.p99_us_r8000",
        "serve.p99_us_r10000",
    ];
    let mut ok_rps = 0u32;
    for (rate, name) in RATES.iter().zip(NAMES) {
        let steps: Vec<_> = ladder.steps.iter().filter(|s| s.rate == *rate).collect();
        let samples: usize = steps.iter().map(|s| s.latency_us.len()).sum();
        let p99 = rate_quantile(ladder, *rate, 0.99).unwrap_or(f64::INFINITY);
        result
            .metrics
            .set(name, if p99.is_finite() { p99 } else { 0.0 });
        let failed: u64 = steps.iter().map(|s| s.failed).sum();
        // A backlog is growing when a step ends owing more than 5 ms of
        // its own arrivals.
        let backlog_ok = steps
            .iter()
            .all(|s| s.backlog_at_end <= (u64::from(s.rate) / 200).max(8));
        let ok = p99 <= LATENCY_LIMIT_US && failed == 0 && backlog_ok;
        if ok {
            ok_rps = *rate;
        }
        result.note(format!(
            "rate {rate}: p99 {p99:.0} us over {samples} samples, {failed} failed, backlog at step ends {:?}{}",
            steps.iter().map(|s| s.backlog_at_end).collect::<Vec<_>>(),
            if ok { "" } else { " -- misses the limit" }
        ));
    }
    result.metrics.set("serve.rate_ok_rps", f64::from(ok_rps));
    let late = sorted(ladder.gen_late_us.clone());
    let (late_p50, late_p99) = (quantile_sorted(&late, 0.5), quantile_sorted(&late, 0.99));
    result.metrics.set("serve.gen_late_p99_us", late_p99);
    // Noise control: when the pacer itself cannot hold the schedule the
    // run measured the generator, not the daemon. Judged on the median:
    // with the daemon's two threads and the receiver sharing two cores,
    // the pacer's tail is a scheduler time slice whatever the daemon does.
    let interval_us = 1e6 / f64::from(REPORTED_RATE);
    result.note(format!(
        "generator lateness p50 {late_p50:.1} us, p99 {late_p99:.1} us (send interval {interval_us:.0} us at \
         {REPORTED_RATE} req/s)"
    ));
    result.check(
        "generator lateness p50 within a tenth of the send interval at the reported rate",
        late_p50 <= interval_us / 10.0,
    );
}

/// Frames the in-process replay pushes through the layers: two passes
/// over every group of both connections for the batched shapes.
fn replay_frames(shape: &Shape) -> usize {
    (2 * CONNS * shape.groups_per_conn).min(1024)
}

/// What the in-process replay measured.
struct Replay {
    tracer: Tracer,
    decisions: u64,
    frames: u64,
    request_bytes: u64,
    reply_bytes: u64,
    journal_bytes: u64,
    journaled_extra_ns: f64,
    /// Per frame: in-process span plus what journaling added, µs.
    frame_us: Vec<f64>,
    untraced_wall: f64,
    traced_wall: f64,
    duplicate_us: f64,
    what_if_us: f64,
    export_import_us: f64,
    cold_verb_codec_us: f64,
}

/// Push the workload's own frames through codec → engine → codec
/// in-process: client encode, server decode, one `ingest` per snapshot,
/// server encode, client decode — a span each. A second engine with a
/// journal attached ingests the same stream; the difference is what
/// journaling costs (appends plus the periodic full-state snapshots).
fn replay(cfg: &RunConfig, shape: &Shape, mut streams: Streams) -> Result<Replay, String> {
    let codec = shape.encoding.codec();
    let n_frames = replay_frames(shape);
    for cursor in streams.cursors.iter_mut().flatten() {
        cursor.sent = 0;
    }
    let journal_path = cfg.out_dir.join(format!("{}-replay.journal", cfg.workload));
    let mut walls = [0.0f64; 2];
    let mut last: Option<Replay> = None;
    for (pass, enabled) in [false, true].into_iter().enumerate() {
        let mut tracer = Tracer::new(enabled);
        let mut engine = shape.reference_engine()?;
        let _ = std::fs::remove_file(&journal_path);
        let mut journaled = shape.reference_engine()?.with_journal(
            JournalWriter::open(&journal_path, 256)
                .map_err(|e| format!("{}: {e}", journal_path.display()))?,
        );
        let mut cursors = streams.cursors.clone();
        let (mut decisions, mut request_bytes, mut reply_bytes) = (0u64, 0u64, 0u64);
        let (mut plain_ns, mut journaled_ns) = (0u64, 0u64);
        let mut frame_us = Vec::with_capacity(n_frames);
        let mut wire = Vec::new();
        let mut reply_wire = Vec::new();
        let t0 = Instant::now();
        for f in 0..n_frames {
            let req = f as u64;
            let c = f % CONNS;
            let g = (f / CONNS) % cursors[c].len();
            let cursor = &mut cursors[c][g];
            let request = streams.frames[c].stamp(cursor);

            wire.clear();
            let s = tracer.begin("serve.encode_request", req);
            codec
                .encode_request(request, &mut wire)
                .map_err(|e| e.to_string())?;
            tracer.end(s);
            request_bytes += wire.len() as u64;

            let frame = tracer.begin("serve.frame", req);
            let frame_t0 = Instant::now();
            let s = tracer.begin("serve.decode_request", req);
            let (_, payload) = codec
                .split_frame(&wire)
                .map_err(|e| e.to_string())?
                .ok_or("encoded frame does not split")?;
            let decoded = codec.decode_request(payload).map_err(|e| e.to_string())?;
            tracer.end(s);
            let snaps = match &decoded {
                Request::Ingest(snap) => std::slice::from_ref(snap),
                Request::IngestBatch(snaps) => snaps.as_slice(),
                other => return Err(format!("replay decoded {other:?}")),
            };
            let mut items = Vec::with_capacity(snaps.len());
            let plain_before = plain_ns;
            for snap in snaps {
                let s = tracer.begin("online.ingest", req);
                let i0 = Instant::now();
                let decision = engine.ingest(snap).map_err(|e| e.to_string())?;
                plain_ns += i0.elapsed().as_nanos() as u64;
                tracer.end(s);
                items.push(Response::Decision(decision));
            }
            let reply = match items.len() {
                1 if shape.batch == 1 => items.pop().expect("one item"),
                _ => Response::Batch(items),
            };
            reply_wire.clear();
            let s = tracer.begin("serve.encode_reply", req);
            codec
                .encode_reply(&reply, &mut reply_wire)
                .map_err(|e| e.to_string())?;
            tracer.end(s);
            tracer.end(frame);
            let chain_ns = frame_t0.elapsed().as_nanos() as f64;
            reply_bytes += reply_wire.len() as u64;

            let s = tracer.begin("serve.decode_reply", req);
            let (_, payload) = codec
                .split_frame(&reply_wire)
                .map_err(|e| e.to_string())?
                .ok_or("encoded reply does not split")?;
            std::hint::black_box(codec.decode_reply(payload).map_err(|e| e.to_string())?);
            tracer.end(s);

            // Outside the frame span: the journaled twin.
            let s = tracer.begin("online.ingest_journaled", req);
            let j0 = Instant::now();
            for snap in snaps {
                journaled.ingest(snap).map_err(|e| e.to_string())?;
            }
            let journaled_frame_ns = j0.elapsed().as_nanos() as u64;
            journaled_ns += journaled_frame_ns;
            tracer.end(s);
            let extra_ns = if shape.journal {
                (journaled_frame_ns as f64 - (plain_ns - plain_before) as f64).max(0.0)
            } else {
                0.0
            };
            frame_us.push((chain_ns + extra_ns) / 1e3);

            decisions += snaps.len() as u64;
            cursor.sent += snaps.len() as u64;
            tracer.count("serve.request_bytes", wire.len() as u64);
            tracer.count("serve.reply_bytes", reply_wire.len() as u64);
        }
        walls[pass] = secs_since(t0);
        if !enabled {
            continue;
        }

        // Cold paths, on the state the replay built.
        let sample: Vec<&Cursor> = cursors.iter().flatten().take(64).collect();
        let s = tracer.begin("online.duplicate", 0);
        let d0 = Instant::now();
        for cursor in &sample {
            std::hint::black_box(
                engine
                    .ingest(&stream_snapshot(&streams.inputs, &cursor.group, 0))
                    .map_err(|e| e.to_string())?,
            );
        }
        let duplicate_us = secs_since(d0) * 1e6 / sample.len() as f64;
        tracer.end(s);
        let s = tracer.begin("online.what_if", 0);
        let w0 = Instant::now();
        for cursor in &sample {
            let snap = stream_snapshot(&streams.inputs, &cursor.group, cursor.sent + 3);
            std::hint::black_box(engine.what_if(&snap).map_err(|e| e.to_string())?);
        }
        let what_if_us = secs_since(w0) * 1e6 / sample.len() as f64;
        tracer.end(s);
        let mut importer = shape.reference_engine()?;
        let s = tracer.begin("online.export_import", 0);
        let e0 = Instant::now();
        for cursor in &sample {
            let record = engine
                .export_group(&cursor.group.name)
                .ok_or("replayed group has no state")?;
            importer.import_group(&record);
        }
        let export_import_us = secs_since(e0) * 1e6 / sample.len() as f64;
        tracer.end(s);

        // The control-plane verbs through the binary codec, both ways.
        let probe = stream_snapshot(&streams.inputs, &sample[0].group, 1);
        let answer = engine.what_if(&probe).map_err(|e| e.to_string())?;
        let verbs: Vec<(Request, Response)> = vec![
            (
                Request::WhatIf(probe.clone()),
                Response::WhatIf {
                    group: answer.group,
                    mapping: answer.mapping,
                    delta: answer.delta,
                    held: answer.held,
                    memo_hit: false,
                },
            ),
            (
                Request::Explain {
                    group: probe.group.clone(),
                },
                Response::Explained {
                    group: probe.group.clone(),
                    explanation: engine.explanation(&probe.group).cloned(),
                },
            ),
            (
                Request::Metrics,
                Response::Metrics(engine.counters().snapshot()),
            ),
        ];
        let v2 = Encoding::Binary.codec();
        const ROUNDS: u32 = 200;
        let s = tracer.begin("serve.cold_verb_codec", 0);
        let c0 = Instant::now();
        for _ in 0..ROUNDS {
            for (request, reply) in &verbs {
                let mut buf = Vec::new();
                v2.encode_request(request, &mut buf)
                    .map_err(|e| e.to_string())?;
                let (_, payload) = v2
                    .split_frame(&buf)
                    .map_err(|e| e.to_string())?
                    .ok_or("no frame")?;
                std::hint::black_box(v2.decode_request(payload).map_err(|e| e.to_string())?);
                buf.clear();
                v2.encode_reply(reply, &mut buf)
                    .map_err(|e| e.to_string())?;
                let (_, payload) = v2
                    .split_frame(&buf)
                    .map_err(|e| e.to_string())?
                    .ok_or("no frame")?;
                std::hint::black_box(v2.decode_reply(payload).map_err(|e| e.to_string())?);
            }
        }
        let cold_verb_codec_us = secs_since(c0) * 1e6 / (f64::from(ROUNDS) * verbs.len() as f64);
        tracer.end(s);

        last = Some(Replay {
            tracer,
            decisions,
            frames: n_frames as u64,
            request_bytes,
            reply_bytes,
            journal_bytes: journaled.counters().snapshot().journal_bytes,
            journaled_extra_ns: journaled_ns as f64 - plain_ns as f64,
            frame_us,
            untraced_wall: walls[0],
            traced_wall: walls[1],
            duplicate_us,
            what_if_us,
            export_import_us,
            cold_verb_codec_us,
        });
    }
    let _ = std::fs::remove_file(&journal_path);
    let replay = last.expect("the traced pass ran");
    cfg.write_trace(&replay.tracer)?;
    Ok(replay)
}

impl Replay {
    fn report(&self, shape: &Shape, live_p50_us: f64, result: &mut RunResult) {
        let times = self.tracer.layer_times();
        let total_ns = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64);
        let per_decision = |name: &str| total_ns(name) / self.decisions as f64;
        let per_frame_us = |name: &str| total_ns(name) / self.frames as f64 / 1e3;
        let m = &mut result.metrics;
        let ingest_us = per_decision("online.ingest") / 1e3;
        if shape.mixed {
            m.set("online.ingest_graph_us", ingest_us);
            m.set("online.what_if_us", self.what_if_us);
            m.set("serve.cold_verb_codec_us", self.cold_verb_codec_us);
        } else {
            m.set("online.ingest_us", ingest_us);
            m.set("online.duplicate_us", self.duplicate_us);
            m.set("online.export_import_us", self.export_import_us);
        }
        if shape.journal {
            m.set(
                "online.journal_append_us",
                self.journaled_extra_ns / self.decisions as f64 / 1e3,
            );
            m.set(
                "online.journal_bytes_per_decision",
                self.journal_bytes as f64 / self.decisions as f64,
            );
        }
        match shape.encoding {
            Encoding::Binary => {
                m.set(
                    "serve.v2_req_encode_ns_per_decision",
                    per_decision("serve.encode_request"),
                );
                m.set(
                    "serve.v2_req_decode_ns_per_decision",
                    per_decision("serve.decode_request"),
                );
                m.set(
                    "serve.v2_reply_encode_ns_per_decision",
                    per_decision("serve.encode_reply"),
                );
                m.set(
                    "serve.v2_reply_decode_ns_per_decision",
                    per_decision("serve.decode_reply"),
                );
                m.set(
                    "serve.v2_bytes_per_decision",
                    (self.request_bytes + self.reply_bytes) as f64 / self.decisions as f64,
                );
            }
            Encoding::JsonLines => {
                m.set(
                    "serve.v1_req_encode_us",
                    per_frame_us("serve.encode_request"),
                );
                m.set(
                    "serve.v1_req_decode_us",
                    per_frame_us("serve.decode_request"),
                );
                m.set(
                    "serve.v1_reply_encode_us",
                    per_frame_us("serve.encode_reply"),
                );
                m.set(
                    "serve.v1_reply_decode_us",
                    per_frame_us("serve.decode_reply"),
                );
                m.set(
                    "serve.v1_bytes_per_request",
                    (self.request_bytes + self.reply_bytes) as f64 / self.frames as f64,
                );
            }
        }
        // What the daemon does for a frame that the in-process chain
        // does not: reactor, ring hop, syscalls, loopback.
        let in_process_us = quantile_sorted(&sorted(self.frame_us.clone()), 0.5);
        m.set("serve.wire_residual_us", live_p50_us - in_process_us);
        m.set(
            "trace.overhead_pct",
            (self.traced_wall / self.untraced_wall - 1.0) * 100.0,
        );
        result.attempted += self.tracer.spans().len() as u64;
        result.note(format!(
            "in-process replay of {} frames ({} decisions): frame p50 {in_process_us:.1} us (decode + ingest + \
             journal + encode) against {live_p50_us:.1} us on the wire",
            self.frames, self.decisions
        ));
    }
}
