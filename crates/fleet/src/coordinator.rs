//! `fleetd`: the coordinator process.
//!
//! Upstream it speaks the same versioned envelope as `symbiod` (clients
//! reuse [`symbio_serve::WireClient`] unchanged) plus the three fleet
//! verbs (`Route`/`Assign`/`FleetMetrics`); downstream it proxies
//! `Ingest`/`IngestBatch`/`Map`/`ExportGroup`/`WhatIf`/`Explain` to the
//! rendezvous owner of each group over pooled binary connections.
//! `Subscribe` is answered with a `backend_verb` error: the decision
//! stream is served by the owning backend, not relayed.
//!
//! Request path for an ingest — a lone `Ingest` is a batch of one, there
//! is no second path (`ingest`, DESIGN.md §13 "Batch fan-out"):
//!
//! 1. **admission**, per item — resolve the tenant from the group-name
//!    prefix and run quota / token-bucket / shed checks
//!    ([`crate::tenant`]); a refused item is answered here and never
//!    reaches a backend;
//! 2. **resolution**, per item — look the group up in the compact
//!    routing table ([`crate::routing`]); a group flagged `moved` by the
//!    last rebalance answers `route_moved` exactly once (telling the
//!    client to re-resolve), every other item is routed to its current
//!    rendezvous owner, which also makes a new group known before the
//!    next item of the batch is admitted;
//! 3. **fan-out** — the routed items are grouped by owner in input order
//!    ([`partition`]), one `IngestBatch` frame per owner (split at the
//!    `batch_max` the backend's `Welcome` advertised) is written to
//!    every owner before any reply is read, and each backend's `Batch`
//!    is scattered back into the caller's slots ([`scatter`]), so the
//!    reply lines up with the request exactly as symbiod's would;
//! 4. **retry** — a failed frame exchange is first a *flap*: one strike
//!    for that backend in the [`crate::membership`] flap detector,
//!    however many items the frame carried, and its unanswered items go
//!    round again. A backend that reaches the detector's threshold
//!    within its window is **evicted** (membership change + rebalance,
//!    exactly as an explicit `Assign` remove would, journaled when a
//!    membership journal is configured) and its items retry against
//!    their post-rebalance owners — so a killed backend costs in-flight
//!    requests a few internal retries, not an error. Items the failing
//!    backend had applied before its reply was lost come back as
//!    `Duplicate` decisions (the engine's per-group seq watermark);
//! 5. **backpressure** — degraded/busy items from backends raise the
//!    deterministic shed pressure; sustained healthy ones lower it.
//!
//! The reads (`Map`, `ExportGroup`, `WhatIf`, `Explain`) skip admission
//! and go to the one owner of their group (`proxy`), sharing steps 2
//! and 4 function by function (`resolve`, `backend_failed`).
//!
//! Membership changes are a first-class lifecycle (DESIGN.md §14): a
//! planned drain or join (`Assign`) *warm-hands-off* every moved group —
//! the coordinator pulls the group's epoch-ring state from its old
//! owner (`ExportGroup`) and pushes it to the new owner (`ImportGroup`)
//! under the same lock that flips the route, driven by the
//! [`crate::handoff`] state machine (failure or timeout settles cold:
//! the new owner starts the group from scratch). Evictions fall back
//! cold — the dead owner's state is unreachable. With
//! [`FleetConfig::journal`] set, every transition is CRC-framed to disk
//! before it takes effect and a restarted coordinator replays the file
//! to a byte-identical routing view.
//!
//! Concurrency: one OS thread per upstream connection, all sharing the
//! coordinator state behind a single mutex, held across a request's
//! whole fan-out. The benchmark's `fleet_proxy` workload (BENCHMARK.json)
//! is the judge of that choice: its traced run put the cost in per-frame
//! syscalls and wake-ups on the daemons' core, not in lock hold time or
//! the 7–14 ns routing lookups, so the fan-out cut frames and the lock
//! structure stayed as it was.

use crate::assign::Membership;
use crate::backend::BackendPool;
use crate::handoff::{Handoff, HandoffEvent, HandoffOutcome};
use crate::membership::{FlapDetector, MemberJournal, MemberRecord};
use crate::routing::{RouteEntry, RoutingTable, DEFAULT_BYTES_PER_GROUP};
use crate::tenant::{tenant_of, Admission, TenantRegistry, TenantSpec};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use symbio::obs::Counters;
use symbio::prelude::SigSnapshot;
use symbio::Error;
use symbio_serve::proto::{
    negotiate, Encoding, FleetSnapshot, FleetView, Request, Response, DEFAULT_BATCH_MAX,
};
use symbio_serve::server::codec::{Chunk, FrameBuffer};

/// Tunables of the coordinator.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Downstream connect/read/write deadline per backend exchange.
    pub timeout: Duration,
    /// Routing-table bytes/group budget (`BENCH_fleet.json` reports the
    /// measured figure against it).
    pub bytes_budget: usize,
    /// Tenant specs known at startup (unknown tenants are admitted
    /// unconstrained).
    pub tenants: Vec<TenantSpec>,
    /// Consecutive backlog signals (degraded/busy backend replies) that
    /// raise shed pressure by one tenant; the same count of consecutive
    /// healthy replies lowers it by one.
    pub shed_trip: u32,
    /// Membership journal path. `None` keeps the membership volatile;
    /// with a path, every join/evict/drain is CRC-framed to disk before
    /// it takes effect, and [`Fleetd::bind`] replays the file (the
    /// replayed membership wins over the `backends` argument, which
    /// only seeds a fresh journal).
    pub journal: Option<PathBuf>,
    /// Failed probes a backend must accumulate inside
    /// [`FleetConfig::flap_window`] before it is evicted; everything
    /// below is a suppressed flap (retried, counted, not evicted).
    pub flap_threshold: u32,
    /// Sliding window for flap counting.
    pub flap_window: Duration,
    /// Per-group warm-handoff budget: an export/import pair that
    /// overruns it settles cold (the new owner starts from scratch).
    pub handoff_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            timeout: Duration::from_secs(5),
            bytes_budget: DEFAULT_BYTES_PER_GROUP,
            tenants: Vec::new(),
            shed_trip: 8,
            journal: None,
            flap_threshold: 3,
            flap_window: Duration::from_secs(10),
            handoff_timeout: Duration::from_secs(2),
        }
    }
}

/// Mutable coordinator state (membership, routing, tenancy, pool) —
/// one mutex, see the module docs for why.
struct Inner {
    membership: Membership,
    routing: RoutingTable,
    tenants: TenantRegistry,
    pool: BackendPool,
    /// Eviction de-bounce: transport failures are strikes here first.
    flaps: FlapDetector,
    /// Durable membership, when configured.
    journal: Option<MemberJournal>,
    /// Wire name of every routed group, keyed by its routing hash. The
    /// routing table itself stores hashes only (that is its budget);
    /// warm handoff needs the names back to address `ExportGroup` at
    /// the old owner. One interned `String` per distinct group.
    names: HashMap<u64, String>,
    /// Consecutive backlog signals from backends.
    backlog_streak: u32,
    /// Consecutive healthy proxied replies while pressure > 0.
    healthy_streak: u32,
}

impl Inner {
    /// Journal one membership transition (write-ahead of the in-memory
    /// change) and count the epoch. An unwritable journal is reported
    /// as a serve error but must not take the data path down.
    fn journal_member(&mut self, shared: &Shared, record: &MemberRecord) {
        Counters::add(&shared.counters.membership_epochs, 1);
        if let Some(journal) = &mut self.journal {
            if journal.append(record).is_err() {
                Counters::add(&shared.counters.serve_errors, 1);
            }
        }
    }

    /// Remember a group's wire name under its routing hash.
    fn intern_name(&mut self, key: u64, group: &str) {
        self.names.entry(key).or_insert_with(|| group.to_string());
    }
}

/// State shared by every connection thread.
struct Shared {
    counters: Arc<Counters>,
    inner: Mutex<Inner>,
    draining: AtomicBool,
    started: Instant,
    shed_trip: u32,
    batch_max: usize,
    /// Per-group warm-handoff budget, seconds.
    handoff_timeout: f64,
}

impl Shared {
    fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn proxy_gate() -> symbio::Result<()> {
    symbio::faultpoint!("fleet_proxy");
    Ok(())
}

fn export_gate() -> symbio::Result<()> {
    symbio::faultpoint!("handoff_export");
    Ok(())
}

fn import_gate() -> symbio::Result<()> {
    symbio::faultpoint!("handoff_import");
    Ok(())
}

/// The fleet coordinator daemon. Construct with [`Fleetd::bind`], then
/// [`Fleetd::run`] blocks until a client sends `Shutdown` (which also
/// drains every backend).
pub struct Fleetd {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Fleetd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleetd").field("addr", &self.addr).finish()
    }
}

impl Fleetd {
    /// Bind `addr` (e.g. `127.0.0.1:0`) fronting `backends`. With
    /// [`FleetConfig::journal`] set, a journal that already holds a
    /// membership wins over `backends` (restart = replay); a fresh
    /// journal is seeded from `backends` and records that seed.
    pub fn bind(addr: &str, backends: &[String], cfg: FleetConfig) -> symbio::Result<Fleetd> {
        if cfg.timeout.is_zero() {
            return Err(Error::InvalidConfig("timeout must be nonzero".into()));
        }
        let counters = Arc::new(Counters::new());
        let (journal, membership) = match &cfg.journal {
            Some(path) => {
                let (mut journal, replay) = MemberJournal::open(path)?;
                Counters::add(&counters.membership_epochs, replay.epochs);
                if replay.epochs > 0 {
                    Counters::add(&counters.recovery_replays, 1);
                }
                let membership = match replay.membership {
                    Some(m) => m,
                    None => {
                        let m = Membership::new(backends.iter().cloned());
                        journal.append(&MemberRecord::Seed {
                            backends: m.addrs(),
                        })?;
                        Counters::add(&counters.membership_epochs, 1);
                        m
                    }
                };
                (Some(journal), membership)
            }
            None => (None, Membership::new(backends.iter().cloned())),
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            counters,
            inner: Mutex::new(Inner {
                membership,
                routing: RoutingTable::new(cfg.bytes_budget),
                tenants: TenantRegistry::new(cfg.tenants.clone()),
                pool: BackendPool::new(cfg.timeout),
                flaps: FlapDetector::new(cfg.flap_threshold, cfg.flap_window.as_secs_f64()),
                journal,
                names: HashMap::new(),
                backlog_streak: 0,
                healthy_streak: 0,
            }),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            shed_trip: cfg.shed_trip.max(1),
            batch_max: DEFAULT_BATCH_MAX,
            handoff_timeout: cfg.handoff_timeout.as_secs_f64(),
        });
        Ok(Fleetd {
            listener,
            addr,
            shared,
        })
    }

    /// The address the coordinator actually listens on (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator's own counter ledger.
    pub fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.shared.counters)
    }

    /// Serve until a `Shutdown` request: accept upstream connections,
    /// one thread each, then drain the backends and return.
    pub fn run(self) -> symbio::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.draining.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Reap the connections that ended since the last
                    // accept; their exit status is ignored at shutdown
                    // too.
                    handles.retain(|h| !h.is_finished());
                    let shared = Arc::clone(&self.shared);
                    handles.push(std::thread::spawn(move || serve_conn(stream, &shared)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(Error::Io(e)),
            }
        }
        drop(self.listener);
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }
}

/// One upstream connection: frame, dispatch, reply, until EOF or
/// shutdown. Mirrors the symbiod session's negotiation rules (the
/// `Welcome` goes out in the encoding the `Hello` arrived in).
fn serve_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut rx = FrameBuffer::new();
    let mut encoding = Encoding::JsonLines;
    let mut buf = [0u8; 16 * 1024];
    let mut out = Vec::new();
    loop {
        // Drain every whole frame already buffered.
        loop {
            match rx.next_request(encoding) {
                Ok(Chunk::Frame(request)) => {
                    out.clear();
                    let (reply, next_encoding, shutdown) = dispatch(request, encoding, shared);
                    if encoding.codec().encode_reply(&reply, &mut out).is_err()
                        || stream.write_all(&out).is_err()
                    {
                        return;
                    }
                    encoding = next_encoding;
                    if shutdown {
                        shared.draining.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                Ok(Chunk::Malformed(e)) => {
                    out.clear();
                    let reply = Response::from_error(&e);
                    if encoding.codec().encode_reply(&reply, &mut out).is_err()
                        || stream.write_all(&out).is_err()
                    {
                        return;
                    }
                }
                Ok(Chunk::Incomplete) => break,
                // Unframeable stream (bad length prefix): close.
                Err(_) => return,
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => rx.extend(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handle one request. Returns the reply, the encoding for *subsequent*
/// frames, and whether the daemon should drain.
fn dispatch(request: Request, encoding: Encoding, shared: &Shared) -> (Response, Encoding, bool) {
    Counters::add(&shared.counters.serve_requests, 1);
    match request {
        Request::Hello(hello) => {
            let allowed = [Encoding::JsonLines, Encoding::Binary];
            match negotiate(&hello, &allowed, shared.batch_max) {
                Ok((next, welcome)) => (Response::Welcome(welcome), next, false),
                Err(reply) => {
                    Counters::add(&shared.counters.serve_errors, 1);
                    (reply, encoding, false)
                }
            }
        }
        Request::Route { group } => (route(&group, shared), encoding, false),
        Request::Assign { add, remove } => (assign(&add, &remove, shared), encoding, false),
        Request::FleetMetrics => (fleet_metrics(shared), encoding, false),
        Request::Metrics => (
            Response::Metrics(shared.counters.snapshot()),
            encoding,
            false,
        ),
        Request::Ingest(snapshot) => {
            // A batch of one through the same path.
            let reply = ingest(vec![snapshot], shared).pop();
            (reply.expect("one reply per snapshot"), encoding, false)
        }
        Request::Map { .. }
        | Request::ExportGroup { .. }
        | Request::WhatIf(_)
        | Request::Explain { .. } => (proxy(request, shared), encoding, false),
        Request::Subscribe => {
            // The decision stream is per-backend: events originate on the
            // shard that made the decision, and the coordinator keeps no
            // long-lived upstream push channel. Resolve the group's owner
            // (`Route`) and subscribe there directly.
            Counters::add(&shared.counters.serve_errors, 1);
            (
                Response::protocol(
                    "backend_verb",
                    "Subscribe is a backend verb; resolve the owner with Route and \
                     subscribe to that symbiod directly",
                ),
                encoding,
                false,
            )
        }
        Request::ImportGroup(_) => {
            // Imports are the coordinator's own handoff mechanism; a
            // client must not inject group state through the front door.
            Counters::add(&shared.counters.serve_errors, 1);
            (
                Response::protocol(
                    "backend_verb",
                    "ImportGroup is a backend verb; the coordinator drives imports itself \
                     during warm handoff",
                ),
                encoding,
                false,
            )
        }
        Request::IngestBatch(batch) => {
            if batch.len() > shared.batch_max {
                Counters::add(&shared.counters.serve_errors, 1);
                return (
                    Response::protocol(
                        "batch_too_large",
                        format!("batch of {} exceeds {}", batch.len(), shared.batch_max),
                    ),
                    encoding,
                    false,
                );
            }
            Counters::add(&shared.counters.serve_batches, 1);
            (Response::Batch(ingest(batch, shared)), encoding, false)
        }
        Request::Shutdown => (shutdown_fleet(shared), encoding, true),
    }
}

/// The reply for a request no backend can take.
fn no_backends(shared: &Shared) -> Response {
    Counters::add(&shared.counters.serve_errors, 1);
    Response::protocol("no_backends", "the fleet membership is empty")
}

/// Route `group` to its current rendezvous owner — interning its name
/// and clearing any pending moved flag, since whoever asked now holds
/// the fresh owner. `None` when the membership is empty.
fn resolve(inner: &mut Inner, shared: &Shared, group: &str) -> Option<usize> {
    let key = RoutingTable::key_of(group);
    let owner = inner.membership.owner_index(key)?;
    let tenant = inner.tenants.index_of(tenant_of(group));
    inner.intern_name(key, group);
    inner.routing.upsert(
        key,
        RouteEntry {
            owner: owner as u16,
            tenant,
            moved: false,
        },
    );
    Counters::add(&shared.counters.fleet_routes, 1);
    Some(owner)
}

/// The explicit `Route` verb: resolve a group's owner, routing it (and
/// interning its tenant) on first sight.
fn route(group: &str, shared: &Shared) -> Response {
    let mut guard = shared.lock();
    let inner = &mut *guard;
    let Some(owner) = resolve(inner, shared, group) else {
        return no_backends(shared);
    };
    Response::Route {
        group: group.to_string(),
        backend: inner.membership.backends()[owner].addr.clone(),
        epoch: inner.membership.epoch(),
    }
}

/// Apply a membership change (the `Assign` verb doubles as the Join
/// handshake for a recovered backend), journal it, rebalance the
/// routing table, and warm-hand-off every moved group whose old owner
/// is still reachable — all before the lock drops, so no request ever
/// observes a half-moved fleet.
fn assign(add: &[String], remove: &[String], shared: &Shared) -> Response {
    let mut inner = shared.lock();
    let before = inner.membership.clone();
    let changed = inner.membership.apply(add, remove);
    let mut moved = 0;
    if changed {
        let after = inner.membership.clone();
        // Journal the *effective* diff (apply() deduplicates), one
        // record per transition, before acting on it.
        for addr in after.addrs() {
            if !before.addrs().contains(&addr) {
                inner.journal_member(shared, &MemberRecord::Join { addr });
            }
        }
        let drained: Vec<String> = before
            .addrs()
            .into_iter()
            .filter(|a| !after.addrs().contains(a))
            .collect();
        for addr in &drained {
            inner.journal_member(shared, &MemberRecord::Drain { addr: addr.clone() });
        }
        moved = inner.routing.rebalance(&before, &after);
        Counters::add(&shared.counters.fleet_rebalance_moves, moved);
        // Warm handoff needs the drained backends' connections — a
        // planned drain leaves them reachable — so the pool only
        // forgets them afterwards.
        warm_handoff(&mut inner, shared, &before, &after);
        for addr in &drained {
            inner.pool.forget(addr);
            inner.flaps.clear(addr);
        }
    }
    Response::FleetView(FleetView {
        epoch: inner.membership.epoch(),
        backends: inner.membership.addrs(),
        moved,
    })
}

/// Address of `key`'s owner under `membership`, if any.
fn owner_addr(membership: &Membership, key: u64) -> Option<String> {
    membership
        .owner_index(key)
        .map(|i| membership.backends()[i].addr.clone())
}

/// Orchestrate warm handoffs for every routed group whose owner changed
/// between `before` and `after`: export from the old owner, import into
/// the new one, one [`Handoff`] machine per group. Failure or timeout
/// settles cold — counted, never fatal.
fn warm_handoff(inner: &mut Inner, shared: &Shared, before: &Membership, after: &Membership) {
    let moved: Vec<(String, String, String)> = inner
        .names
        .iter()
        .filter_map(|(&key, name)| {
            let old = owner_addr(before, key)?;
            let new = owner_addr(after, key)?;
            (old != new).then(|| (name.clone(), old, new))
        })
        .collect();
    for (group, old, new) in moved {
        match run_handoff(inner, shared, &group, &old, &new) {
            Some(HandoffOutcome::Warm) => Counters::add(&shared.counters.fleet_warm_handoffs, 1),
            Some(HandoffOutcome::Cold) => Counters::add(&shared.counters.fleet_cold_fallbacks, 1),
            // The old owner held no state for the group (routed but
            // never ingested): nothing to carry, nothing lost.
            None => {}
        }
    }
}

/// One group's export → import round trip, driven through the handoff
/// state machine so a late or failed leg settles cold instead of
/// wedging.
fn run_handoff(
    inner: &mut Inner,
    shared: &Shared,
    group: &str,
    old: &str,
    new: &str,
) -> Option<HandoffOutcome> {
    let mut machine = Handoff::new(shared.handoff_timeout);
    machine.step(HandoffEvent::Begin, shared.now());
    let exported = export_gate().and_then(|()| {
        inner.pool.exchange(
            old,
            &Request::ExportGroup {
                group: group.to_string(),
            },
        )
    });
    let record = match exported {
        Ok(Response::GroupState { record, .. }) => {
            if let Some(outcome) = machine.step(HandoffEvent::Exported, shared.now()) {
                // The export overran the budget: already settled cold.
                return Some(outcome);
            }
            record?
        }
        _ => return machine.step(HandoffEvent::ExportFailed, shared.now()),
    };
    let imported =
        import_gate().and_then(|()| inner.pool.exchange(new, &Request::ImportGroup(record)));
    match imported {
        Ok(Response::Ok) => machine.step(HandoffEvent::Imported, shared.now()),
        _ => machine.step(HandoffEvent::ImportFailed, shared.now()),
    }
}

/// Aggregate the coordinator's counters with every backend's `Metrics`.
fn fleet_metrics(shared: &Shared) -> Response {
    let mut inner = shared.lock();
    let mut aggregate = shared.counters.snapshot();
    let addrs = inner.membership.addrs();
    let mut backends = Vec::with_capacity(addrs.len());
    for addr in &addrs {
        if let Ok(Response::Metrics(c)) = inner.pool.exchange(addr, &Request::Metrics) {
            aggregate.absorb(&c);
        }
        backends.push(inner.pool.stat(addr));
    }
    let per_backend = inner.routing.groups_per_backend(addrs.len());
    for (stat, groups) in backends.iter_mut().zip(per_backend) {
        stat.groups = groups;
    }
    Response::FleetMetrics(FleetSnapshot {
        epoch: inner.membership.epoch(),
        backends,
        aggregate: aggregate.clone(),
    })
}

/// Drain the fleet: forward `Shutdown` to every backend (tolerating the
/// already-dead), then ACK.
fn shutdown_fleet(shared: &Shared) -> Response {
    let mut inner = shared.lock();
    for addr in inner.membership.addrs() {
        let _ = inner.pool.exchange(&addr, &Request::Shutdown);
    }
    Response::Ok
}

/// The group a proxied read operates on.
fn group_of(request: &Request) -> &str {
    match request {
        Request::Map { group } => group,
        Request::ExportGroup { group } => group,
        Request::WhatIf(snap) => &snap.group,
        Request::Explain { group } => group,
        _ => unreachable!("only map/export/what-if/explain are proxied whole"),
    }
}

/// A group the last rebalance moved answers `route_moved` exactly once
/// so the client exercises its re-resolve path; the flag clears and the
/// retry proxies.
fn take_moved(inner: &mut Inner, group: &str) -> Option<Response> {
    let key = RoutingTable::key_of(group);
    if !inner.routing.get(key)?.moved {
        return None;
    }
    inner.routing.clear_moved(key);
    let owner = owner_addr(&inner.membership, key).unwrap_or_default();
    Some(Response::route_moved(
        group,
        &owner,
        inner.membership.epoch(),
    ))
}

/// Resolution + proxy-with-retry for one read (`Map`, `ExportGroup`,
/// `WhatIf`, `Explain`): reads spend neither quota nor tokens, so there
/// is no admission step. The loop terminates for the reason
/// [`backend_failed`] gives.
fn proxy(request: Request, shared: &Shared) -> Response {
    let mut guard = shared.lock();
    let inner = &mut *guard;
    let group = group_of(&request);
    if let Some(reply) = take_moved(inner, group) {
        return reply;
    }
    loop {
        let Some(owner) = resolve(inner, shared, group) else {
            return no_backends(shared);
        };
        let addr = inner.membership.backends()[owner].addr.clone();
        match proxy_gate().and_then(|()| inner.pool.exchange(&addr, &request)) {
            Ok(reply) => {
                inner.flaps.clear(&addr);
                note_backpressure(inner, shared, &reply);
                return reply;
            }
            Err(_) => {
                if !backend_failed(inner, shared, &addr) {
                    return backend_unavailable(shared, &addr);
                }
            }
        }
    }
}

/// Admission and first resolution of one snapshot's group: the owner to
/// forward it to, or the reply that answers it without a backend.
#[allow(clippy::result_large_err)] // the Err *is* the wire reply
fn admit(inner: &mut Inner, shared: &Shared, group: &str, now: f64) -> Result<usize, Response> {
    let known = inner.routing.get(RoutingTable::key_of(group)).is_some();
    let tenant = inner.tenants.index_of(tenant_of(group));
    match inner.tenants.admit(tenant, !known, now) {
        Admission::Admit => {}
        Admission::QuotaExceeded => {
            Counters::add(&shared.counters.tenant_sheds, 1);
            return Err(Response::Error {
                kind: "busy".to_string(),
                code: "tenant_quota".to_string(),
                message: format!(
                    "tenant {} is over its distinct-group quota",
                    tenant_of(group)
                ),
                retryable: false,
            });
        }
        Admission::RateLimited | Admission::Shed => {
            Counters::add(&shared.counters.tenant_sheds, 1);
            return Err(Response::tenant_shed(tenant_of(group)));
        }
    }
    if let Some(reply) = take_moved(inner, group) {
        return Err(reply);
    }
    // Routing the group here, before the next item is admitted, is what
    // makes it known: a second snapshot of a new group in the same batch
    // must not count against the tenant's distinct-group quota again.
    resolve(inner, shared, group).ok_or_else(|| no_backends(shared))
}

/// One `IngestBatch` frame of a fan-out round: the batch positions in
/// `slots`, in input order, all owned by backend `owner`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubBatch {
    /// Index of the owning backend in the membership.
    pub owner: usize,
    /// Positions in the upstream batch, ascending.
    pub slots: Vec<usize>,
}

/// Group a batch's pending positions by owner. `owners[i]` is the
/// backend item `i` goes to, `None` for an item that needs no backend;
/// `batch_max(owner)` caps one frame to that backend. Each owner's
/// positions keep their input order, across its frames too (a backend
/// reads one connection in order, so a group's consecutive seqs arrive
/// in order); frames come out in order of their first position.
pub fn partition(owners: &[Option<usize>], batch_max: impl Fn(usize) -> usize) -> Vec<SubBatch> {
    let mut subs: Vec<SubBatch> = Vec::new();
    // Per owner, the frame still taking items.
    let mut open: Vec<Option<usize>> = Vec::new();
    for (slot, owner) in owners.iter().enumerate() {
        let Some(owner) = *owner else { continue };
        if open.len() <= owner {
            open.resize(owner + 1, None);
        }
        match open[owner] {
            Some(i) if subs[i].slots.len() < batch_max(owner).max(1) => subs[i].slots.push(slot),
            _ => {
                open[owner] = Some(subs.len());
                subs.push(SubBatch {
                    owner,
                    slots: vec![slot],
                });
            }
        }
    }
    subs
}

/// Put one frame's items back where [`partition`] took them from.
pub fn scatter<T>(sub: &SubBatch, items: Vec<T>, out: &mut [Option<T>]) {
    debug_assert_eq!(items.len(), sub.slots.len());
    for (&slot, item) in sub.slots.iter().zip(items) {
        out[slot] = Some(item);
    }
}

/// Admission + resolution + fan-out for a batch of snapshots (a lone
/// `Ingest` is a batch of one): `admit → resolve → partition → send all
/// → receive all → scatter`, all under the coordinator lock. The reply
/// has one item per snapshot, in input order.
fn ingest(batch: Vec<SigSnapshot>, shared: &Shared) -> Vec<Response> {
    let mut guard = shared.lock();
    let inner = &mut *guard;
    let now = shared.now();
    let mut replies: Vec<Option<Response>> = vec![None; batch.len()];
    let mut owners: Vec<Option<usize>> = vec![None; batch.len()];
    for (i, snap) in batch.iter().enumerate() {
        match admit(inner, shared, &snap.group, now) {
            Ok(owner) => owners[i] = Some(owner),
            Err(reply) => replies[i] = Some(reply),
        }
    }
    // A snapshot sits in its slot until a frame carries it away, and
    // returns there when that frame goes unanswered.
    let mut batch: Vec<Option<SigSnapshot>> = batch.into_iter().map(Some).collect();
    while owners.iter().any(Option::is_some) {
        fan_out(inner, shared, &mut batch, &mut owners, &mut replies);
    }
    replies
        .into_iter()
        .map(|reply| reply.expect("every slot was answered locally or by a backend"))
        .collect()
}

/// One fan-out round over the slots still in `owners`: write one
/// `IngestBatch` frame per owning backend (more when the batch exceeds
/// the backend's `batch_max`) before reading any reply, then scatter
/// each `Batch` into `replies`. A backend whose exchange fails takes
/// **one** strike for the round however many items it was sent; its
/// unanswered slots are re-resolved — after an eviction, to their new
/// owner — for the next round. Items a failing backend applied before
/// its reply was lost are answered `Duplicate` by the engine's per-group
/// seq watermark on the retry, never applied twice.
fn fan_out(
    inner: &mut Inner,
    shared: &Shared,
    batch: &mut [Option<SigSnapshot>],
    owners: &mut [Option<usize>],
    replies: &mut [Option<Response>],
) {
    let addrs = inner.membership.addrs();
    // A backend that trips the faultpoint or can't be dialed is down for
    // the round before it is sent anything. Dialing first is also what
    // sizes the frames: the `Welcome` carries the backend's `batch_max`.
    let mut down = vec![false; addrs.len()];
    // 0 until the owner is dialed; a backend's `batch_max` is at least 1.
    let mut cap = vec![0usize; addrs.len()];
    for owner in owners.iter().flatten().copied() {
        if cap[owner] == 0 && !down[owner] {
            match proxy_gate().and_then(|()| inner.pool.connect(&addrs[owner])) {
                Ok(batch_max) => cap[owner] = batch_max,
                Err(_) => down[owner] = true,
            }
        }
    }

    // Send all. Each frame keeps its request so an unanswered one can
    // give its snapshots back.
    let mut frames: Vec<(SubBatch, Request)> = Vec::new();
    for sub in partition(owners, |owner| cap[owner]) {
        if down[sub.owner] {
            continue;
        }
        let request = Request::IngestBatch(
            sub.slots
                .iter()
                .map(|&slot| {
                    batch[slot]
                        .take()
                        .expect("a pending slot holds its snapshot")
                })
                .collect(),
        );
        down[sub.owner] = inner.pool.send(&addrs[sub.owner], &request).is_err();
        frames.push((sub, request));
    }

    // Receive all, in send order (per connection that is reply order).
    for (sub, request) in frames {
        let answer = if down[sub.owner] {
            None
        } else {
            match inner.pool.recv(&addrs[sub.owner]) {
                // A frame-level reply (say `overloaded`) answers every
                // item of the frame.
                Ok(Response::Batch(items)) if items.len() == sub.slots.len() => Some(items),
                Ok(Response::Batch(_)) | Err(_) => None,
                Ok(reply) => Some(vec![reply; sub.slots.len()]),
            }
        };
        let Some(items) = answer else {
            down[sub.owner] = true;
            let Request::IngestBatch(snaps) = request else {
                unreachable!("frames are built as IngestBatch above")
            };
            scatter(&sub, snaps, batch);
            continue;
        };
        for item in &items {
            note_backpressure(inner, shared, item);
        }
        for &slot in &sub.slots {
            owners[slot] = None;
        }
        scatter(&sub, items, replies);
    }

    // Strike or evict what failed, then re-resolve what it left behind.
    for (owner, addr) in addrs.iter().enumerate() {
        if down[owner] {
            if !backend_failed(inner, shared, addr) {
                for slot in 0..owners.len() {
                    if owners[slot] == Some(owner) {
                        owners[slot] = None;
                        replies[slot] = Some(backend_unavailable(shared, addr));
                    }
                }
            }
        } else if cap[owner] != 0 {
            inner.flaps.clear(addr);
        }
    }
    for slot in 0..owners.len() {
        if owners[slot].is_none() {
            continue;
        }
        let group = &batch[slot]
            .as_ref()
            .expect("an unanswered slot kept its snapshot")
            .group;
        owners[slot] = resolve(inner, shared, group);
        if owners[slot].is_none() {
            replies[slot] = Some(no_backends(shared));
        }
    }
}

/// The reply for a request whose owner is unreachable and cannot be
/// evicted.
fn backend_unavailable(shared: &Shared, addr: &str) -> Response {
    Counters::add(&shared.counters.serve_errors, 1);
    Response::Error {
        kind: "busy".to_string(),
        code: "backend_unavailable".to_string(),
        message: format!("backend {addr} is unreachable and is the last fleet member"),
        retryable: true,
    }
}

/// Account one failed exchange with `addr` and say whether the caller
/// should re-resolve and retry. The failure is first a *flap*: a strike
/// in the detector, retried against the same owner rather than evicting
/// on a single failed probe. A backend that reaches the threshold is
/// proven dead and evicted — the same membership change an operator's
/// `Assign { remove }` would make — so the retry lands on the new
/// owner. The last backend is never evicted (nothing would be left to
/// serve from): its trip returns `false` and the caller surfaces a
/// retryable fault instead. Retry loops built on this terminate: every
/// failure is a strike, a backend absorbs at most `flap_threshold` of
/// them before it is evicted, and evictions shrink the membership down
/// to the last member's `false`.
fn backend_failed(inner: &mut Inner, shared: &Shared, addr: &str) -> bool {
    Counters::add(&shared.counters.fleet_backend_errors, 1);
    // A broken stream can't be trusted for framing; redial on the retry
    // either way.
    inner.pool.forget(addr);
    if !inner.flaps.strike(addr, shared.now()) {
        Counters::add(&shared.counters.fleet_flaps_suppressed, 1);
        return true;
    }
    if inner.membership.len() <= 1 {
        return false;
    }
    evict_backend(inner, shared, addr);
    true
}

/// Evict a proven-dead backend: journal, shrink the membership,
/// rebalance, and count every relocated group as a cold fallback (the
/// dead owner's state is unreachable, so each restarts from scratch).
fn evict_backend(inner: &mut Inner, shared: &Shared, addr: &str) {
    let before = inner.membership.clone();
    inner.journal_member(
        shared,
        &MemberRecord::Evict {
            addr: addr.to_string(),
        },
    );
    let gone = [addr.to_string()];
    inner.membership.apply(&[], &gone);
    inner.pool.forget(addr);
    inner.flaps.clear(addr);
    let after = inner.membership.clone();
    let moved = inner.routing.rebalance(&before, &after);
    Counters::add(&shared.counters.fleet_rebalance_moves, moved);
    Counters::add(&shared.counters.fleet_cold_fallbacks, moved);
}

/// Track backend backlog signals and move the deterministic shed
/// pressure accordingly.
fn note_backpressure(inner: &mut Inner, shared: &Shared, reply: &Response) {
    let backlogged = matches!(reply, Response::Degraded { .. })
        || matches!(reply, Response::Error { code, .. } if code == "overloaded");
    if backlogged {
        inner.healthy_streak = 0;
        inner.backlog_streak += 1;
        if inner.backlog_streak >= shared.shed_trip {
            inner.backlog_streak = 0;
            let p = inner.tenants.pressure() + 1;
            inner.tenants.set_pressure(p);
        }
    } else {
        inner.backlog_streak = 0;
        if inner.tenants.pressure() > 0 {
            inner.healthy_streak += 1;
            if inner.healthy_streak >= shared.shed_trip {
                inner.healthy_streak = 0;
                let p = inner.tenants.pressure() - 1;
                inner.tenants.set_pressure(p);
            }
        }
    }
}
