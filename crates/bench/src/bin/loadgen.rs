//! `loadgen` — replay a machine-recorded signature-snapshot trace against
//! a running `symbiod` and report client-observed latency and decision
//! throughput into `BENCH_serve.json`.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7411 [--conns 2] [--seconds 2]
//!         [--rate 0 (per-conn ingest/s, 0 = unthrottled)]
//!         [--domains 1 (cache domains of the recorded machine)]
//!         [--step-threads 1 (OS threads driving the domain lanes while recording; never changes the trace)]
//!         [--encoding json (json | binary | legacy)]
//!         [--batch 1 (epochs per IngestBatch frame)]
//!         [--min-rate 0 (fail below this decisions/sec floor)]
//!         [--watch] [--what-if]
//!         [--name serve-loadgen] [--shutdown]
//! ```
//!
//! `--watch` opens one extra connection that sends `Subscribe` before
//! the replay window and prints the decision events the daemon streams
//! back (`Response::Event`: the decision plus the group's epoch and
//! remap totals). The run fails when the watcher saw **zero** events —
//! the teeth behind the control-plane smoke gate. `--what-if` asks one
//! `WhatIf` counterfactual after the window — "if this snapshot arrived
//! now, what would the mapping be?" — then repeats the identical query
//! and requires the second answer to come back `memo_hit: true` (the
//! shard memoizes what-if answers until the next state mutation).
//! Neither verb exists in the bare v1 protocol, so both refuse
//! `--encoding legacy`; `--watch` also refuses `--fleet` (the
//! coordinator answers `Subscribe` with a `backend_verb` error —
//! resolve the owner with `Route` and watch that symbiod directly).
//!
//! Each connection streams the trace under its own process-group key
//! (`load-0`, `load-1`, …) so the daemon exercises independent decision
//! streams concurrently. `--encoding json`/`binary` negotiate through a
//! `Hello`; `legacy` speaks bare v1 frames without negotiation (the
//! deprecated pre-`Hello` protocol — a warning is printed). `--batch N`
//! packs N consecutive epochs into one `IngestBatch` frame; the reply
//! carries one decision per item and throughput is reported in
//! decisions/sec. After the replay window a control connection fetches
//! `metrics` — the run fails (nonzero exit) unless the daemon answers
//! with a well-formed metrics reply — and optionally sends `shutdown` so
//! scripted runs tear the daemon down. `--min-rate` turns the record
//! into a gate: the run exits nonzero when decisions/sec lands below the
//! floor.
//!
//! The client is **resilient**: transient failures (socket errors, lost
//! replies, replies whose error is marked `retryable`) are retried with
//! bounded exponential backoff plus jitter, reconnecting as needed — the
//! daemon's duplicate suppression makes a retried epoch idempotent.
//! `degraded`/`recovering` replies count as served (the client got a
//! usable mapping) and are tallied separately. Only genuinely fatal
//! replies (non-retryable errors) or an exhausted retry budget count as
//! errors in `BENCH_serve.json`.
//!
//! The retry predicate distinguishes **two kinds of retryable reply**:
//! a retryable transport/load fault means "retry against the same
//! endpoint", while a `route_moved` error (the fleet coordinator's
//! signal that a rebalance changed the group's owner) means
//! "re-resolve the owner with `Route`, then retry". Both paths share
//! the same retry budget and backoff caps.
//!
//! ## Fleet mode
//!
//! ```text
//! loadgen --fleet 2 [--fleet-kill | --chaos-seed N] [--budget-bytes 128]
//!         [--synthetic-groups 1000000] [usual replay flags]
//! ```
//!
//! `--fleet N` spawns N real `symbiod` child processes (the binary is
//! found next to `loadgen` itself), fronts them with an in-process
//! `fleetd` coordinator, and replays the trace through the coordinator
//! end-to-end — `--addr` is not used. `--fleet-kill` kills one backend
//! at the middle of the replay window; the run then **requires** the
//! coordinator to have auto-evicted it (`fleet_rebalance_moves > 0`)
//! with zero client-visible errors, or exits nonzero.
//!
//! `--chaos-seed N` runs one deterministic fault schedule drawn from
//! the seed instead: the coordinator's faultpoints (`fleet_proxy`,
//! `handoff_export`, `handoff_import` — DESIGN.md §14) are armed
//! in-process at seed-drawn probabilities, and one process-level fault
//! fires mid-window — a SIGKILL, a SIGSTOP/SIGCONT stall pulse (the
//! slow-socket fault: connections still accepted, reads hang), or a
//! planned drain-then-rejoin through `Assign`. The same seed replays
//! the same schedule; sweeping seeds sweeps schedules (CI runs 25).
//!
//! Both fault modes end with the **join epilogue**: faults are
//! disarmed, a fresh backend is spawned and joins via `Assign` (the
//! recovered-backend handshake), and probe groups that rendezvous
//! moves onto it must arrive warm — their state is digested through
//! `ExportGroup` before and after the join and must be identical. The
//! run exits nonzero on any lost ack (`errors > 0`), when
//! `fleet_warm_handoffs` stayed zero, or on a digest mismatch. After
//! the window the coordinator's `FleetMetrics` aggregate, the
//! client-side tallies and a routing-state footprint probe
//! (`--synthetic-groups` synthetic groups inserted into a
//! [`symbio_fleet::RoutingTable`], gated at `--budget-bytes` per
//! group) are merged into `BENCH_fleet.json`.

use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use symbio::obs::{
    write_fleet_bench_record, write_serve_bench_record, FleetBenchRecord, ServeBenchRecord,
};
use symbio::{Error, ExperimentConfig, ExperimentConfigBuilder, Pipeline};
use symbio_fleet::{FleetConfig, Fleetd, Membership, RouteEntry, RoutingTable};
use symbio_machine::{MachineConfig, SigSnapshot};
use symbio_serve::{Encoding, Request, Response, WireClient};
use symbio_workloads::spec2006;

/// Retries per request before it is recorded as a client-visible error.
const MAX_RETRIES: u32 = 5;
/// First-retry backoff; doubles per attempt, plus up to 100% jitter.
const BACKOFF_BASE_MS: f64 = 2.0;
/// Connect/read/write deadline on every client socket.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// How the trace is spoken to the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Bare v1 json-lines without `Hello` — the deprecated pre-envelope
    /// protocol, kept for old daemons.
    Legacy,
    /// Negotiate proto and stay on json-lines.
    Json,
    /// Negotiate proto and upgrade to the binary framing.
    Binary,
}

/// Record one profiling run ([`Pipeline::record`]) as snapshots — the
/// trace every connection replays. The machine
/// is the `domains`-domain scaled multidomain box (1 = the classic
/// scaled Core 2 Duo) and the workload list is cycled to two processes
/// per core, so every cache domain carries load.
fn record_trace(
    domains: usize,
    step_threads: usize,
) -> symbio::Result<(ExperimentConfig, Vec<SigSnapshot>)> {
    let cfg = ExperimentConfigBuilder::fast(3)
        .machine(MachineConfig::scaled_multidomain(3, domains))
        .step_threads(step_threads)
        .build()?;
    let names = ["gobmk", "hmmer", "libquantum", "povray"];
    let mut specs: Vec<_> = (0..2 * cfg.machine.cores)
        .map(|i| {
            spec2006::by_name(names[i % names.len()], cfg.machine.l2.size_bytes)
                .expect("known benchmark")
        })
        .collect();
    for s in &mut specs {
        s.work /= 4;
    }
    let trace = Pipeline::new(cfg).record(&specs).snapshots("load");
    Ok((cfg, trace))
}

/// Resolve a `host:port` string to the first socket address it names.
fn resolve(addr: &str) -> symbio::Result<SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| Error::InvalidConfig(format!("cannot resolve `{addr}`")))
}

/// Connect one client and run the mode's negotiation.
fn connect_client(addr: SocketAddr, mode: Mode) -> symbio::Result<WireClient> {
    let mut client = WireClient::connect(addr, IO_TIMEOUT)?;
    match mode {
        Mode::Legacy => {}
        Mode::Json => {
            client.hello(Encoding::JsonLines)?;
        }
        Mode::Binary => {
            client.hello(Encoding::Binary)?;
        }
    }
    Ok(client)
}

/// What one replay connection observed.
#[derive(Default)]
struct ReplayStats {
    /// One entry per completed request frame (a batch is one request).
    latencies: Vec<f64>,
    /// Per-item decisions received (a lone ingest counts one).
    decisions: u64,
    /// Fatal replies or exhausted retry budgets — client-visible failures.
    errors: u64,
    /// Transient faults absorbed by the retry loop.
    retries: u64,
    /// `degraded`/`recovering` replies: served from a stale mapping.
    degraded: u64,
    /// `route_moved` replies absorbed by re-resolving the owner.
    rerouted: u64,
}

/// How the retry loop treats one exchange outcome.
enum Outcome {
    /// A usable reply: move on, crediting what each item carried.
    Served {
        decisions: u64,
        degraded: u64,
        errors: u64,
    },
    /// Worth retrying after backoff (socket fault, lost reply, or an
    /// error the daemon itself marked `retryable`) — against the **same
    /// endpoint**; the fault was about load or transport, not routing.
    Transient { reconnect: bool },
    /// A fleet rebalance moved the group's owner: **re-resolve** with a
    /// `Route` exchange, then retry. Retrying blindly would work too
    /// (the coordinator proxies either way) but would never refresh the
    /// client's view of the fleet; the split keeps the two failure
    /// modes separately counted and separately handled.
    Moved,
    /// Retrying cannot help (the daemon rejected the request itself).
    Fatal,
}

/// Does this reply tell the client its group's owner moved?
fn is_route_moved(reply: &Response) -> bool {
    matches!(reply, Response::Error { code, .. } if code == "route_moved")
}

/// Classify one exchange. The retry predicate is the protocol's own
/// `retryable` flag, split in two: `route_moved` (a fleet rebalance
/// relocated the group) re-resolves the owner before retrying, while
/// every other retryable reply — `busy` shedding and injected I/O
/// faults are about daemon load, not about this request — retries the
/// same endpoint. A batch with any retryable item is retried whole —
/// duplicate suppression makes the already-tallied items idempotent.
fn classify(result: symbio::Result<Response>) -> Outcome {
    match result {
        Ok(Response::Decision(_)) => Outcome::Served {
            decisions: 1,
            degraded: 0,
            errors: 0,
        },
        Ok(Response::Degraded { .. } | Response::Recovering { .. }) => Outcome::Served {
            decisions: 1,
            degraded: 1,
            errors: 0,
        },
        Ok(ref reply @ Response::Error { .. }) if is_route_moved(reply) => Outcome::Moved,
        Ok(Response::Batch(items)) => {
            if items.iter().any(is_route_moved) {
                return Outcome::Moved;
            }
            if items.iter().any(Response::is_retryable) {
                return Outcome::Transient { reconnect: false };
            }
            let mut served = Outcome::Served {
                decisions: 0,
                degraded: 0,
                errors: 0,
            };
            let Outcome::Served {
                decisions,
                degraded,
                errors,
            } = &mut served
            else {
                unreachable!()
            };
            for item in &items {
                match item {
                    Response::Decision(_) => *decisions += 1,
                    Response::Degraded { .. } | Response::Recovering { .. } => {
                        *decisions += 1;
                        *degraded += 1;
                    }
                    _ => *errors += 1,
                }
            }
            served
        }
        Ok(ref reply @ Response::Error { .. }) if reply.is_retryable() => {
            Outcome::Transient { reconnect: false }
        }
        Ok(Response::Error { .. }) => Outcome::Fatal,
        // Any other reply shape to an ingest is a protocol violation.
        Ok(_) => Outcome::Fatal,
        // The socket died or the reply was lost: reconnect and retry.
        Err(_) => Outcome::Transient { reconnect: true },
    }
}

/// Exponential backoff with full jitter: `base * 2^(attempt-1)` doubled
/// by up to 100%, so synchronized clients spread their retries.
fn backoff(attempt: u32, rng: &mut StdRng) -> Duration {
    let base = BACKOFF_BASE_MS * f64::powi(2.0, attempt.saturating_sub(1) as i32);
    let jitter: f64 = rng.random();
    Duration::from_secs_f64(base * (1.0 + jitter) / 1000.0)
}

/// Control-plane exchange (`metrics`, `shutdown`) with the same
/// transient-fault resilience as the replay path: reconnect and back off
/// on socket faults, lost replies, and retryable errors. With `gone_ok`
/// (the shutdown verb), a daemon that stops accepting connections after
/// the request was sent at least once counts as a successful `Ok` — the
/// previous attempt may have drained the daemon even though its ack was
/// lost.
fn control_exchange(
    addr: SocketAddr,
    mode: Mode,
    request: &Request,
    gone_ok: bool,
    rng: &mut StdRng,
) -> symbio::Result<Response> {
    let mut client: Option<WireClient> = None;
    let mut sent_once = false;
    for attempt in 0..=MAX_RETRIES {
        if attempt > 0 {
            std::thread::sleep(backoff(attempt, rng));
        }
        if client.is_none() {
            client = match connect_client(addr, mode) {
                Ok(c) => Some(c),
                Err(_) if gone_ok && sent_once => return Ok(Response::Ok),
                Err(_) => continue,
            };
        }
        let c = client.as_mut().expect("connected above");
        sent_once = true;
        match c.exchange(request) {
            Ok(ref reply @ Response::Error { .. }) if reply.is_retryable() => {}
            Ok(reply) => return Ok(reply),
            Err(_) => client = None,
        }
    }
    Err(Error::Protocol(format!(
        "control request still failing after {MAX_RETRIES} retries"
    )))
}

/// A fleet under test: real `symbiod` child processes fronted by an
/// in-process `fleetd` coordinator — the same wire path an external
/// `fleetd` would give, minus one process hop for the coordinator.
struct FleetRig {
    /// `(addr, child)` per live backend, in spawn order.
    children: Vec<(String, Child)>,
    /// The coordinator's accept loop (joined after shutdown).
    coordinator: std::thread::JoinHandle<symbio::Result<()>>,
    /// Where clients connect.
    addr: SocketAddr,
    /// The `symbiod` binary, kept so the join epilogue can spawn a
    /// fresh backend after the fault schedule.
    symbiod: std::path::PathBuf,
}

/// Spawn one `symbiod` child on an ephemeral port and wait for its
/// listen line. The binary is found next to `loadgen` itself, so a
/// plain `cargo build --release` lays out everything the rig needs.
fn spawn_backend(symbiod: &std::path::Path) -> symbio::Result<(String, Child)> {
    let mut child = Command::new(symbiod)
        .args(["--addr", "127.0.0.1:0", "--encoding", "both"])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| Error::InvalidConfig(format!("cannot spawn {}: {e}", symbiod.display())))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("symbiod listening on ") {
                    break addr.trim().to_string();
                }
            }
            _ => {
                let _ = child.kill();
                return Err(Error::Protocol(
                    "symbiod exited before printing its listen line".to_string(),
                ));
            }
        }
    };
    // Keep draining the pipe so the child can never block on it.
    std::thread::spawn(move || lines.for_each(drop));
    Ok((addr, child))
}

/// Bring up `n` backends and the coordinator fronting them.
fn spawn_fleet(n: usize, budget: usize, chaos: bool) -> symbio::Result<FleetRig> {
    let exe = std::env::current_exe()?;
    let symbiod = exe
        .parent()
        .ok_or_else(|| Error::InvalidConfig("loadgen has no parent directory".to_string()))?
        .join("symbiod");
    if !symbiod.exists() {
        return Err(Error::InvalidConfig(format!(
            "--fleet needs the symbiod binary next to loadgen ({} not found; \
             build the whole workspace first)",
            symbiod.display()
        )));
    }
    let children = (0..n)
        .map(|_| spawn_backend(&symbiod))
        .collect::<symbio::Result<Vec<_>>>()?;
    let backends: Vec<String> = children.iter().map(|(a, _)| a.clone()).collect();
    let cfg = FleetConfig {
        bytes_budget: budget,
        // Chaos runs shrink the backend deadline so a stalled (SIGSTOP)
        // backend strikes the flap detector within the replay window
        // instead of stalling every proxied request for seconds.
        timeout: if chaos {
            Duration::from_millis(400)
        } else {
            FleetConfig::default().timeout
        },
        ..FleetConfig::default()
    };
    let daemon = Fleetd::bind("127.0.0.1:0", &backends, cfg)?;
    let addr = daemon.local_addr();
    let coordinator = std::thread::spawn(move || daemon.run());
    println!(
        "loadgen: fleet up — {n} symbiod backend(s) [{}] behind fleetd on {addr}",
        backends.join(", ")
    );
    Ok(FleetRig {
        children,
        coordinator,
        addr,
        symbiod,
    })
}

/// One seeded process-level fault, fired mid-window by the chaos driver.
enum ChaosFault {
    /// SIGKILL a backend: unplanned death, exercising the flap-guarded
    /// eviction path and cold fallback for its groups.
    Kill {
        /// The doomed backend's address (for the report line).
        victim: String,
        /// Its process handle, pre-claimed from the rig.
        child: Child,
    },
    /// SIGSTOP/SIGCONT pulse: the backend hangs without dying — the
    /// slow-socket fault (connections still accepted, reads time out).
    Stall {
        /// The stalled backend's address.
        victim: String,
        /// Its pid (`kill -STOP`/`-CONT` target; the child handle stays
        /// with the rig so teardown can still reap it).
        pid: u32,
        /// How long the backend stays frozen.
        pulse: Duration,
    },
    /// Planned drain then rejoin through the `Assign` verb: both legs
    /// should hand groups off warm (every owner stays reachable).
    EvictRejoin {
        /// The drained-and-rejoined backend's address.
        victim: String,
        /// How long it stays out of the membership.
        gap: Duration,
    },
}

/// Fire one chaos fault. Returns a human line for the report and how
/// many backends it killed outright.
fn run_chaos_fault(fault: ChaosFault, target: SocketAddr, mode: Mode, seed: u64) -> (String, u64) {
    match fault {
        ChaosFault::Kill { victim, mut child } => {
            let _ = child.kill();
            let _ = child.wait();
            (format!("killed backend {victim}"), 1)
        }
        ChaosFault::Stall { victim, pid, pulse } => {
            let signal = |sig: &str| {
                let _ = Command::new("kill").args([sig, &pid.to_string()]).status();
            };
            signal("-STOP");
            std::thread::sleep(pulse);
            signal("-CONT");
            (
                format!(
                    "stalled backend {victim} for {:.0}ms (SIGSTOP pulse)",
                    pulse.as_secs_f64() * 1e3
                ),
                0,
            )
        }
        ChaosFault::EvictRejoin { victim, gap } => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED);
            let assign = |rng: &mut StdRng, add: Vec<String>, remove: Vec<String>| {
                control_exchange(target, mode, &Request::Assign { add, remove }, false, rng).is_ok()
            };
            let drained = assign(&mut rng, vec![], vec![victim.clone()]);
            std::thread::sleep(gap);
            let rejoined = drained && assign(&mut rng, vec![victim.clone()], vec![]);
            (
                format!(
                    "drained backend {victim} then rejoined it after {:.0}ms \
                     (drain {}, rejoin {})",
                    gap.as_secs_f64() * 1e3,
                    if drained { "ok" } else { "failed" },
                    if rejoined { "ok" } else { "failed" },
                ),
                0,
            )
        }
    }
}

/// Digest one group's engine state through the coordinator: the
/// `ExportGroup` reply's record, stringified. A `route_moved` answer is
/// retryable, so the control loop absorbs the one-shot moved flag.
fn export_digest(
    target: SocketAddr,
    mode: Mode,
    group: &str,
    rng: &mut StdRng,
) -> symbio::Result<String> {
    let request = Request::ExportGroup {
        group: group.to_string(),
    };
    match control_exchange(target, mode, &request, false, rng)? {
        Response::GroupState { record, .. } => Ok(format!("{record:?}")),
        other => Err(Error::Protocol(format!(
            "expected group state for {group}, got {other:?}"
        ))),
    }
}

/// The lifecycle epilogue behind `--fleet-kill` and `--chaos-seed`: a
/// fresh backend joins the fleet (the recovered-backend handshake is
/// the same `Assign` verb), and the groups rendezvous moves onto it
/// must arrive **warm** — their state, digested through `ExportGroup`
/// before and after the join, must be identical. Returns the joined
/// address and how many probe groups proved continuity.
fn join_epilogue(
    rig: &mut FleetRig,
    mode: Mode,
    trace: &[SigSnapshot],
    rng: &mut StdRng,
) -> symbio::Result<(String, usize)> {
    let target = rig.addr;
    // Current membership, via a no-op Assign (echoes the view).
    let view = match control_exchange(
        target,
        mode,
        &Request::Assign {
            add: vec![],
            remove: vec![],
        },
        false,
        rng,
    )? {
        Response::FleetView(view) => view,
        other => {
            return Err(Error::Protocol(format!(
                "expected fleet view, got {other:?}"
            )))
        }
    };
    let (addr, mut child) = spawn_backend(&rig.symbiod)?;
    // Rendezvous is deterministic, so the client can pick probe groups
    // whose owner will change before the join even happens.
    let before = Membership::new(view.backends.iter().cloned());
    let mut after = before.clone();
    after.apply(std::slice::from_ref(&addr), &[]);
    let probes: Vec<String> = (0..256)
        .map(|i| format!("probe-{i}"))
        .filter(|g| before.owner_of(g) != after.owner_of(g))
        .take(4)
        .collect();
    if probes.is_empty() {
        let _ = child.kill();
        return Err(Error::Protocol(
            "no probe group rendezvous-moves onto the joining backend".to_string(),
        ));
    }
    // Seed each probe with a few epochs of real state via the
    // coordinator, then digest what its current owner holds.
    for group in &probes {
        for (seq, snap) in trace.iter().cycle().take(3).enumerate() {
            let mut snap = snap.clone();
            snap.group = group.clone();
            snap.seq = seq as u64;
            match control_exchange(target, mode, &Request::Ingest(snap), false, rng)? {
                Response::Decision(_) | Response::Degraded { .. } | Response::Recovering { .. } => {
                }
                other => {
                    return Err(Error::Protocol(format!(
                        "probe ingest for {group} got {other:?}"
                    )))
                }
            }
        }
    }
    let exported = probes
        .iter()
        .map(|g| export_digest(target, mode, g, rng))
        .collect::<symbio::Result<Vec<String>>>()?;
    for (group, digest) in probes.iter().zip(&exported) {
        if digest == "None" {
            return Err(Error::Protocol(format!(
                "probe {group} exported no state before the join"
            )));
        }
    }
    match control_exchange(
        target,
        mode,
        &Request::Assign {
            add: vec![addr.clone()],
            remove: vec![],
        },
        false,
        rng,
    )? {
        Response::FleetView(view) if view.backends.contains(&addr) => {}
        other => {
            return Err(Error::Protocol(format!(
                "join of {addr} not acknowledged: {other:?}"
            )))
        }
    }
    rig.children.push((addr.clone(), child));
    for (group, before_digest) in probes.iter().zip(&exported) {
        let after_digest = export_digest(target, mode, group, rng)?;
        if &after_digest != before_digest {
            return Err(Error::Protocol(format!(
                "group {group} arrived on its new owner with different state \
                 (warm-handoff digest mismatch)"
            )));
        }
    }
    Ok((addr, probes.len()))
}

/// Measure the routing table's per-group footprint at synthetic scale:
/// insert `count` distinct groups and report heap bytes per group. This
/// is the ISSUE-mandated probe behind the `--budget-bytes` gate — the
/// table holds hashes and packed owner words only, so a million groups
/// must stay within the budget.
fn routing_footprint(count: u64, backends: usize) -> f64 {
    let mut table = RoutingTable::default();
    for i in 0..count {
        table.upsert(
            RoutingTable::key_of(&format!("synthetic/{i}")),
            RouteEntry {
                owner: (i as usize % backends.max(1)) as u16,
                tenant: 0,
                moved: false,
            },
        );
    }
    table.bytes_per_group()
}

/// The `--watch` side channel: subscribe on its own connection, then
/// collect streamed decision events until the replay window closes.
/// The short read timeout is the poll tick — a quiet daemon just makes
/// `recv` time out until the deadline check breaks the loop.
fn watch_events(addr: SocketAddr, mode: Mode, window: Duration) -> symbio::Result<u64> {
    let mut client = WireClient::connect(addr, Duration::from_millis(250))?;
    match mode {
        Mode::Legacy => unreachable!("--watch rejects --encoding legacy at parse time"),
        Mode::Json => {
            client.hello(Encoding::JsonLines)?;
        }
        Mode::Binary => {
            client.hello(Encoding::Binary)?;
        }
    }
    match client.exchange(&Request::Subscribe)? {
        Response::Ok => {}
        other => {
            return Err(Error::Protocol(format!(
                "subscribe not acknowledged: {other:?}"
            )))
        }
    }
    let deadline = Instant::now() + window;
    let mut events = 0u64;
    while Instant::now() < deadline {
        match client.recv() {
            Ok(Response::Event {
                decision,
                epochs,
                remaps,
            }) => {
                events += 1;
                if events <= 3 {
                    println!(
                        "loadgen: event {} seq {} {} (gain {:+.4}, votes {}/{}, \
                         epochs {epochs}, remaps {remaps})",
                        decision.group,
                        decision.seq,
                        if decision.changed { "remapped" } else { "held" },
                        decision.gain,
                        decision.votes,
                        decision.window,
                    );
                }
            }
            Ok(_) => {}  // not an event frame; ignore
            Err(_) => {} // poll tick (read timeout); the deadline decides
        }
    }
    Ok(events)
}

/// The `--what-if` probe: one counterfactual round trip, asked twice.
/// The first answer is evaluated; the identical repeat must come back
/// from the shard's memo (`memo_hit: true`), proving both the verb and
/// the memoization end to end. What-if never commits state, so the
/// probe leaves the daemon exactly as it found it.
fn what_if_probe(addr: SocketAddr, mode: Mode, trace: &[SigSnapshot]) -> symbio::Result<()> {
    let mut client = connect_client(addr, mode)?;
    let mut snap = trace[0].clone();
    snap.group = "load-0".to_string();
    // Any seq works: a counterfactual is never checked against the
    // group's duplicate-suppression state, and never advances it.
    snap.seq = u64::MAX / 2;
    match client.exchange(&Request::WhatIf(snap.clone()))? {
        Response::WhatIf {
            group,
            mapping,
            delta,
            held,
            memo_hit,
        } => {
            println!(
                "loadgen: what-if {group} → {mapping:?} \
                 (delta {delta:+.4}, held {held}, memo_hit {memo_hit})"
            );
        }
        other => {
            return Err(Error::Protocol(format!(
                "expected what-if reply, got {other:?}"
            )))
        }
    }
    match client.exchange(&Request::WhatIf(snap))? {
        Response::WhatIf { memo_hit: true, .. } => {
            println!("loadgen: what-if repeat answered from the shard memo (memo_hit true)");
            Ok(())
        }
        other => Err(Error::Protocol(format!(
            "identical what-if was not memoized: {other:?}"
        ))),
    }
}

/// One connection's replay loop: stream ingest frames (batched when
/// `batch > 1`) until the deadline, absorbing transient faults with
/// bounded backoff-and-retry.
#[allow(clippy::too_many_arguments)] // a flag bundle, not an API
fn replay(
    addr: SocketAddr,
    mode: Mode,
    group: String,
    trace: &[SigSnapshot],
    seconds: f64,
    rate: f64,
    batch: u64,
    seed: u64,
) -> symbio::Result<ReplayStats> {
    // Deterministic jitter per connection: reruns back off identically.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Some(connect_client(addr, mode)?);
    let started = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut stats = ReplayStats::default();
    let mut seq = 0u64;
    while started.elapsed() < window {
        let mut items: Vec<SigSnapshot> = (0..batch)
            .map(|k| {
                let mut snap = trace[((seq + k) as usize) % trace.len()].clone();
                snap.group = group.clone();
                snap.seq = seq + k;
                snap
            })
            .collect();
        let request = if batch == 1 {
            Request::Ingest(items.pop().expect("batch >= 1"))
        } else {
            Request::IngestBatch(items)
        };
        let t0 = Instant::now();
        let mut attempt = 0u32;
        loop {
            let result = match client.as_mut() {
                Some(c) => c.exchange(&request),
                None => Err(Error::Protocol("reconnect pending".to_string())),
            };
            match classify(result) {
                Outcome::Served {
                    decisions,
                    degraded,
                    errors,
                } => {
                    stats.decisions += decisions;
                    stats.degraded += degraded;
                    stats.errors += errors;
                    break;
                }
                Outcome::Fatal => {
                    stats.errors += 1;
                    break;
                }
                Outcome::Moved => {
                    if attempt >= MAX_RETRIES {
                        stats.errors += 1;
                        break;
                    }
                    attempt += 1;
                    stats.rerouted += 1;
                    // Re-resolve before retrying: the Route answer names
                    // the fresh owner (and clears the coordinator's
                    // moved flag for the group). A failed resolution
                    // falls through to the retry, which will surface the
                    // fault through the normal transient path.
                    if let Some(c) = client.as_mut() {
                        let _ = c.exchange(&Request::Route {
                            group: group.clone(),
                        });
                    }
                    std::thread::sleep(backoff(attempt, &mut rng));
                }
                Outcome::Transient { reconnect } => {
                    if reconnect {
                        client = None;
                    }
                    if attempt >= MAX_RETRIES {
                        stats.errors += 1;
                        break;
                    }
                    attempt += 1;
                    stats.retries += 1;
                    std::thread::sleep(backoff(attempt, &mut rng));
                    if client.is_none() {
                        client = connect_client(addr, mode).ok();
                    }
                }
            }
        }
        stats.latencies.push(t0.elapsed().as_secs_f64() * 1e6);
        seq += batch;
        if rate > 0.0 {
            // Open-loop pacing on epochs, not frames: sleep off any lead
            // over the target per-conn ingest rate.
            let due = Duration::from_secs_f64(seq as f64 / rate);
            if let Some(ahead) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(ahead);
            }
        }
    }
    Ok(stats)
}

fn main() -> symbio::Result<()> {
    let mut addr = String::new();
    let mut conns = 2usize;
    let mut seconds = 2.0f64;
    let mut rate = 0.0f64;
    let mut domains = 1usize;
    let mut step_threads = 1usize;
    let mut name = "serve-loadgen".to_string();
    let mut shutdown = false;
    let mut mode = Mode::Json;
    let mut batch = 1u64;
    let mut min_rate = 0.0f64;
    let mut fleet = 0usize;
    let mut fleet_kill = false;
    let mut chaos: Option<u64> = None;
    let mut budget_bytes = symbio_fleet::DEFAULT_BYTES_PER_GROUP;
    let mut synthetic_groups = 1_000_000u64;
    let mut watch = false;
    let mut what_if = false;

    let bad = |flag: &str, v: &str| Error::InvalidConfig(format!("bad value `{v}` for {flag}"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| Error::InvalidConfig(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value()?,
            "--name" => name = value()?,
            "--conns" => {
                let v = value()?;
                conns = v.parse().map_err(|_| bad("--conns", &v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|_| bad("--seconds", &v))?;
            }
            "--rate" => {
                let v = value()?;
                rate = v.parse().map_err(|_| bad("--rate", &v))?;
            }
            "--domains" => {
                let v = value()?;
                domains = v.parse().map_err(|_| bad("--domains", &v))?;
            }
            "--step-threads" => {
                let v = value()?;
                step_threads = v.parse().map_err(|_| bad("--step-threads", &v))?;
            }
            "--encoding" => {
                let v = value()?;
                mode = match v.as_str() {
                    "json" => Mode::Json,
                    "binary" => Mode::Binary,
                    "legacy" => Mode::Legacy,
                    _ => {
                        return Err(Error::InvalidConfig(format!(
                            "bad value `{v}` for --encoding (expected json | binary | legacy)"
                        )))
                    }
                };
            }
            "--batch" => {
                let v = value()?;
                batch = v.parse().map_err(|_| bad("--batch", &v))?;
            }
            "--min-rate" => {
                let v = value()?;
                min_rate = v.parse().map_err(|_| bad("--min-rate", &v))?;
            }
            "--fleet" => {
                let v = value()?;
                fleet = v.parse().map_err(|_| bad("--fleet", &v))?;
            }
            "--fleet-kill" => fleet_kill = true,
            "--chaos-seed" => {
                let v = value()?;
                chaos = Some(v.parse().map_err(|_| bad("--chaos-seed", &v))?);
            }
            "--budget-bytes" => {
                let v = value()?;
                budget_bytes = v.parse().map_err(|_| bad("--budget-bytes", &v))?;
            }
            "--synthetic-groups" => {
                let v = value()?;
                synthetic_groups = v.parse().map_err(|_| bad("--synthetic-groups", &v))?;
            }
            "--watch" => watch = true,
            "--what-if" => what_if = true,
            "--shutdown" => shutdown = true,
            other => return Err(Error::InvalidConfig(format!("unknown flag `{other}`"))),
        }
    }
    if addr.is_empty() && fleet == 0 {
        return Err(Error::InvalidConfig(
            "--addr is required (e.g. --addr 127.0.0.1:7411) unless --fleet spawns the target"
                .to_string(),
        ));
    }
    if fleet > 0 && !addr.is_empty() {
        return Err(Error::InvalidConfig(
            "--fleet spawns its own coordinator; drop --addr".to_string(),
        ));
    }
    if fleet_kill && fleet < 2 {
        return Err(Error::InvalidConfig(
            "--fleet-kill needs --fleet >= 2 (a survivor must exist to rebalance onto)".to_string(),
        ));
    }
    if chaos.is_some() && fleet < 2 {
        return Err(Error::InvalidConfig(
            "--chaos-seed needs --fleet >= 2 (every fault needs a survivor)".to_string(),
        ));
    }
    if chaos.is_some() && fleet_kill {
        return Err(Error::InvalidConfig(
            "--chaos-seed schedules its own faults (kill included); drop --fleet-kill".to_string(),
        ));
    }
    if name == "serve-loadgen" && fleet > 0 {
        name = "fleet-loadgen".to_string();
    }
    if conns == 0 || seconds <= 0.0 {
        return Err(Error::InvalidConfig(
            "--conns must be >= 1 and --seconds > 0".to_string(),
        ));
    }
    if domains == 0 {
        return Err(Error::InvalidConfig("--domains must be >= 1".to_string()));
    }
    if step_threads == 0 {
        return Err(Error::InvalidConfig(
            "--step-threads must be >= 1 (1 = lanes run inline)".to_string(),
        ));
    }
    if batch == 0 {
        return Err(Error::InvalidConfig("--batch must be >= 1".to_string()));
    }
    if watch && fleet > 0 {
        return Err(Error::InvalidConfig(
            "--watch cannot cross the coordinator (Subscribe is a backend verb); \
             resolve the owner with Route and watch that symbiod directly"
                .to_string(),
        ));
    }
    if mode == Mode::Legacy {
        eprintln!(
            "loadgen: warning: --encoding legacy connects without a Hello; bare v1 frames \
             are deprecated — prefer --encoding json or binary"
        );
        if watch || what_if {
            return Err(Error::InvalidConfig(
                "--watch/--what-if need negotiation (Subscribe and WhatIf are not part of \
                 the bare v1 protocol); drop --encoding legacy"
                    .to_string(),
            ));
        }
        if batch > 1 {
            return Err(Error::InvalidConfig(
                "--batch > 1 needs negotiation (IngestBatch is not part of the bare v1 \
                 protocol); drop --encoding legacy"
                    .to_string(),
            ));
        }
    }
    let mut rig = if fleet > 0 {
        Some(spawn_fleet(fleet, budget_bytes, chaos.is_some())?)
    } else {
        None
    };
    let target = match &rig {
        Some(r) => r.addr,
        None => resolve(&addr)?,
    };

    let (cfg, trace) = record_trace(domains, step_threads)?;
    println!(
        "loadgen: replaying a {}-epoch trace from a {}-domain / {}-core machine \
         over {conns} connection(s) for {seconds}s",
        trace.len(),
        cfg.machine.topology.domains(),
        cfg.machine.cores
    );

    // Chaos, armed before the window opens: at the window's midpoint one
    // backend dies SIGKILL-style. The coordinator must absorb it — the
    // run's gates below check that it did.
    let killer = if fleet_kill {
        let r = rig.as_mut().expect("--fleet-kill implies --fleet");
        let (victim, mut child) = r.children.remove(0);
        let delay = Duration::from_secs_f64(seconds / 2.0);
        Some(std::thread::spawn(move || {
            std::thread::sleep(delay);
            let _ = child.kill();
            let _ = child.wait();
            victim
        }))
    } else {
        None
    };

    // The seeded chaos schedule: arm the coordinator's faultpoints (the
    // coordinator runs in this process; the symbiod children are
    // separate processes and unaffected), then fire one process-level
    // fault mid-window. Everything is drawn from the seed, so a seed
    // replays its schedule.
    let chaos_driver = if let Some(seed) = chaos {
        let r = rig.as_mut().expect("--chaos-seed implies --fleet");
        let mut crng = StdRng::seed_from_u64(seed);
        let mut draw = |p: f64| {
            let coin: f64 = crng.random();
            if coin < 0.5 {
                p
            } else {
                0.0
            }
        };
        let spec = format!(
            "fleet_proxy={},handoff_export={},handoff_import={}",
            draw(0.01),
            draw(0.2),
            draw(0.2),
        );
        symbio::obs::fault::arm(&spec, seed).map_err(Error::InvalidConfig)?;
        println!("loadgen: chaos seed {seed} armed faultpoints {spec}");
        let frac: f64 = crng.random();
        let at = Duration::from_secs_f64(seconds * (0.35 + 0.2 * frac));
        let len: f64 = crng.random();
        let pulse = Duration::from_secs_f64(0.3 + 0.3 * len);
        let pick: f64 = crng.random();
        let which: f64 = crng.random();
        let idx = ((which * r.children.len() as f64) as usize).min(r.children.len() - 1);
        let fault = match (pick * 3.0) as usize {
            0 => {
                let (victim, child) = r.children.remove(idx);
                ChaosFault::Kill { victim, child }
            }
            1 => {
                let (victim, child) = &r.children[idx];
                ChaosFault::Stall {
                    victim: victim.clone(),
                    pid: child.id(),
                    pulse,
                }
            }
            _ => ChaosFault::EvictRejoin {
                victim: r.children[idx].0.clone(),
                gap: pulse,
            },
        };
        let target = r.addr;
        Some(std::thread::spawn(move || {
            std::thread::sleep(at);
            run_chaos_fault(fault, target, mode, seed)
        }))
    } else {
        None
    };

    // The watch side channel subscribes before the window opens so the
    // very first decision can already be streamed.
    let watcher = if watch {
        let window = Duration::from_secs_f64(seconds + 0.5);
        Some(std::thread::spawn(move || {
            watch_events(target, mode, window)
        }))
    } else {
        None
    };

    let started = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|i| {
            let trace = trace.clone();
            std::thread::spawn(move || {
                replay(
                    target,
                    mode,
                    format!("load-{i}"),
                    &trace,
                    seconds,
                    rate,
                    batch,
                    i as u64,
                )
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut decisions = 0u64;
    let mut errors = 0u64;
    let mut retries = 0u64;
    let mut degraded = 0u64;
    let mut rerouted = 0u64;
    for c in clients {
        let stats = c.join().expect("client thread")?;
        latencies.extend(stats.latencies);
        decisions += stats.decisions;
        errors += stats.errors;
        retries += stats.retries;
        degraded += stats.degraded;
        rerouted += stats.rerouted;
    }
    let wall = started.elapsed().as_secs_f64();
    let mut killed_backends = 0u64;
    if let Some(k) = killer {
        let victim = k.join().expect("killer thread");
        killed_backends += 1;
        println!("loadgen: killed backend {victim} at the window midpoint");
    }
    if let Some(c) = chaos_driver {
        let (what, kills) = c.join().expect("chaos thread");
        killed_backends += kills;
        println!(
            "loadgen: chaos seed {} — {what}",
            chaos.expect("driver implies seed")
        );
        // The join epilogue must hand off warm deterministically: no
        // injected faults past the window.
        symbio::obs::fault::disarm();
    }

    // Control-plane gates, before the metrics fetch so their traffic
    // shows up in the counters the record carries.
    if let Some(w) = watcher {
        let events = w.join().expect("watcher thread")?;
        println!("loadgen: watcher received {events} streamed decision event(s)");
        if events == 0 {
            return Err(Error::Protocol(
                "--watch saw zero streamed decision events over the replay window".to_string(),
            ));
        }
    }
    if what_if {
        what_if_probe(target, mode, &trace)?;
    }

    // The smoke-test teeth: the daemon must still answer a well-formed
    // metrics reply after the replay, or the run fails. The control
    // exchange rides the same retry machinery as the replay, so an
    // injected fault on the metrics or shutdown reply cannot fail an
    // otherwise-clean run.
    let mut rng = StdRng::seed_from_u64(conns as u64);
    let metrics = match control_exchange(target, mode, &Request::Metrics, false, &mut rng)? {
        Response::Metrics(snap) => snap,
        other => {
            return Err(Error::Protocol(format!(
                "expected metrics reply, got {other:?}"
            )))
        }
    };
    // The fleet epilogue: aggregate counters, shut the whole rig down,
    // probe the routing footprint, and write BENCH_fleet.json with the
    // run's gates. Everything the coordinator absorbed (auto-eviction,
    // route_moved retries) must net out to zero client-visible errors.
    if let Some(mut rig) = rig {
        // After any fault schedule, a fresh backend joins and must
        // receive its groups warm, with exported-state digests proving
        // continuity — the teeth behind `fleet_warm_handoffs` below.
        if fleet_kill || chaos.is_some() {
            let (joined, probe_count) = join_epilogue(&mut rig, mode, &trace, &mut rng)?;
            println!(
                "loadgen: join epilogue — backend {joined} joined; {probe_count} probe \
                 group(s) moved onto it warm with identical exported state"
            );
        }
        let snap = match control_exchange(target, mode, &Request::FleetMetrics, false, &mut rng)? {
            Response::FleetMetrics(snap) => snap,
            other => {
                return Err(Error::Protocol(format!(
                    "expected fleet metrics reply, got {other:?}"
                )))
            }
        };
        match control_exchange(target, mode, &Request::Shutdown, true, &mut rng)? {
            Response::Ok => {}
            reply => {
                return Err(Error::Protocol(format!(
                    "expected shutdown ack, got {reply:?}"
                )))
            }
        }
        let _ = rig.coordinator.join().expect("coordinator thread");
        for (_, mut child) in rig.children {
            // A chaos fault can leave a backend evicted but alive (the
            // SIGSTOP pulse): it never receives the forwarded shutdown,
            // so reap it by force.
            if chaos.is_some() {
                let _ = child.kill();
            }
            let _ = child.wait();
        }

        let bytes_per_group = routing_footprint(synthetic_groups, fleet);
        // Borrow the serve record's quantile arithmetic; only the fleet
        // record is written.
        let summary = ServeBenchRecord::new(
            &name,
            conns,
            wall,
            decisions,
            errors,
            retries,
            degraded,
            &mut latencies,
        );
        let record = FleetBenchRecord {
            name: name.clone(),
            backends: fleet as u64,
            killed: killed_backends,
            conns: conns as u64,
            wall_seconds: wall,
            decisions_per_sec: summary.decisions_per_sec,
            p50_us: summary.p50_us,
            p99_us: summary.p99_us,
            errors,
            retries,
            rerouted,
            fleet_routes: snap.aggregate.fleet_routes,
            fleet_rebalance_moves: snap.aggregate.fleet_rebalance_moves,
            tenant_sheds: snap.aggregate.tenant_sheds,
            fleet_backend_errors: snap.aggregate.fleet_backend_errors,
            fleet_warm_handoffs: snap.aggregate.fleet_warm_handoffs,
            fleet_cold_fallbacks: snap.aggregate.fleet_cold_fallbacks,
            fleet_flaps_suppressed: snap.aggregate.fleet_flaps_suppressed,
            membership_epochs: snap.aggregate.membership_epochs,
            whatif_requests: snap.aggregate.whatif_requests,
            synthetic_groups,
            bytes_per_group,
        };
        let path = write_fleet_bench_record(&record)?;
        println!(
            "loadgen: fleet of {} served {:.0} decisions/sec over {} conn(s) \
             (p50 {:.1}µs, p99 {:.1}µs, {} errors, {} retries, {} rerouted)",
            record.backends,
            record.decisions_per_sec,
            record.conns,
            record.p50_us,
            record.p99_us,
            record.errors,
            record.retries,
            record.rerouted
        );
        println!(
            "loadgen: coordinator routed {} times, rebalanced {} groups, \
             shed {} tenant requests, saw {} backend errors (epoch {})",
            record.fleet_routes,
            record.fleet_rebalance_moves,
            record.tenant_sheds,
            record.fleet_backend_errors,
            snap.epoch
        );
        println!(
            "loadgen: lifecycle — fleet_warm_handoffs {}, fleet_cold_fallbacks {}, \
             fleet_flaps_suppressed {}, membership_epochs {}",
            record.fleet_warm_handoffs,
            record.fleet_cold_fallbacks,
            record.fleet_flaps_suppressed,
            record.membership_epochs
        );
        println!(
            "loadgen: routing footprint {:.1} B/group at {} synthetic groups \
             (budget {budget_bytes} B); record merged into {}",
            record.bytes_per_group,
            record.synthetic_groups,
            path.display()
        );
        if bytes_per_group > budget_bytes as f64 {
            return Err(Error::InvalidConfig(format!(
                "routing footprint over budget: {bytes_per_group:.1} B/group > {budget_bytes} B"
            )));
        }
        if fleet_kill && record.fleet_rebalance_moves == 0 {
            return Err(Error::Protocol(
                "a backend was killed but the coordinator never rebalanced".to_string(),
            ));
        }
        if fleet_kill || chaos.is_some() {
            if errors > 0 {
                return Err(Error::Protocol(format!(
                    "{errors} acks were lost across the fault schedule (expected zero)"
                )));
            }
            if record.fleet_warm_handoffs == 0 {
                return Err(Error::Protocol(
                    "no warm handoff happened (the join epilogue must move groups warm)"
                        .to_string(),
                ));
            }
        }
        if min_rate > 0.0 && record.decisions_per_sec < min_rate {
            return Err(Error::InvalidConfig(format!(
                "throughput floor missed: {:.0} decisions/sec < required {min_rate:.0}",
                record.decisions_per_sec
            )));
        }
        return Ok(());
    }

    if shutdown {
        match control_exchange(target, mode, &Request::Shutdown, true, &mut rng)? {
            Response::Ok => {}
            reply => {
                return Err(Error::Protocol(format!(
                    "expected shutdown ack, got {reply:?}"
                )))
            }
        }
    }

    let record = ServeBenchRecord::new(
        &name,
        conns,
        wall,
        decisions,
        errors,
        retries,
        degraded,
        &mut latencies,
    )
    .with_control_plane(&metrics);
    let path = write_serve_bench_record(&record)?;
    println!(
        "loadgen: {} requests in {:.2}s over {} conn(s) → {:.0} decisions/sec \
         (p50 {:.1}µs, p99 {:.1}µs, {} errors, {} retries, {} degraded)",
        record.requests,
        record.wall_seconds,
        record.conns,
        record.decisions_per_sec,
        record.p50_us,
        record.p99_us,
        record.errors,
        record.retries,
        record.degraded
    );
    println!(
        "loadgen: daemon served {} requests total ({} errors, domain_remaps {:?}); \
         record merged into {}",
        metrics.serve_requests,
        metrics.serve_errors,
        metrics.domain_remaps,
        path.display()
    );
    println!(
        "loadgen: control plane — whatif_requests {}, stream_events {}, \
         explanations_emitted {}",
        metrics.whatif_requests, metrics.stream_events, metrics.explanations_emitted
    );
    if min_rate > 0.0 && record.decisions_per_sec < min_rate {
        return Err(Error::InvalidConfig(format!(
            "throughput floor missed: {:.0} decisions/sec < required {min_rate:.0}",
            record.decisions_per_sec
        )));
    }
    Ok(())
}
