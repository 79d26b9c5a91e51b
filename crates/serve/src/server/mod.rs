//! The `symbiod` daemon: a sharded multi-reactor TCP front-end for the
//! `symbio-online` decision engine.
//!
//! Architecture (std + raw epoll, no async runtime):
//!
//! * **Reactors** (`reactor`) — `workers` epoll event loops sharing
//!   one nonblocking listener. Each reactor owns its accepted sessions
//!   end to end: it reads bytes, peels frames with the session's
//!   negotiated codec, answers what it can locally (`Hello`, `Metrics`,
//!   degraded fallbacks) and forwards engine work to shards.
//! * **Shards** (`shard`) — one thread per shard, each owning a whole
//!   [`OnlineEngine`] (epoch rings, quarantine state, journal segment).
//!   A process group is pinned to a shard by hash, so per-group state
//!   never migrates and no engine lock exists anywhere.
//! * **Queues** (`queue`) — every (reactor, shard) pair is connected
//!   by two bounded SPSC rings: jobs one way, completions the other. A
//!   full job ring is load shedding: the reactor answers from the
//!   last-good mapping cache (`degraded`) instead of blocking.
//! * **Sessions** (`session`) — per-connection protocol state:
//!   negotiated encoding, read buffer, and the in-order pending-reply
//!   queue that keeps pipelined and batched replies in request order
//!   even when they complete on different shards.
//! * `shutdown` is a **graceful drain with per-shard barriers**: the
//!   drain flag flips, every reactor closes its listener handle and
//!   pushes a barrier job down each of its job rings, and a shard exits
//!   once it has seen all reactors' barriers — by SPSC FIFO order that
//!   proves every job enqueued before the drain was journaled. The `Ok`
//!   ACK is written only after every shard drained *and* every reactor
//!   released the listener, so a client that sees it may immediately
//!   rebind the port.
//!
//! Fault-injection sites (armed via `SYMBIO_FAULTS`, see
//! `symbio::obs::fault`): `worker_dispatch` before any verb is handled,
//! `snapshot_decode` before an ingest reaches the engine, and
//! `socket_write` before any reply frame hits the wire.

pub mod codec;
pub(crate) mod queue;
pub(crate) mod reactor;
pub(crate) mod session;
pub(crate) mod shard;
pub(crate) mod sys;

use crate::proto::{Encoding, Response, DEFAULT_BATCH_MAX};
use queue::{channel, Consumer, Producer};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use symbio::obs::Counters;
use symbio::Error;
use symbio_machine::{Mapping, SigSnapshot};
use symbio_online::OnlineEngine;

/// Tunables of the serving layer (the engine has its own
/// [`symbio_online::OnlineConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Reactor event-loop threads serving connections.
    pub workers: usize,
    /// In-flight engine jobs each reactor→shard ring may hold before the
    /// reactor sheds load with `degraded` replies.
    pub backlog: usize,
    /// Per-connection idle deadline: a connection that delivers no frame
    /// and accepts no reply within this window is closed.
    pub deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            backlog: 64,
            deadline: Duration::from_secs(5),
        }
    }
}

impl ServeConfig {
    /// Reject nonsensical configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be >= 1".to_string());
        }
        if self.backlog == 0 {
            return Err("backlog must be >= 1".to_string());
        }
        if self.deadline.is_zero() {
            return Err("deadline must be nonzero".to_string());
        }
        Ok(())
    }
}

// Group→shard routing now lives in `symbio::hash` (the fleet layer
// shares the same FNV-1a fold for backend assignment); re-exported here
// so existing callers keep their path.
pub use symbio::hash::shard_of;

/// Where a completion must be delivered: which session on the
/// submitting reactor, which pending reply slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Token {
    /// Reactor-local session id.
    pub session: u64,
    /// Pending-queue serial on that session.
    pub serial: u64,
    /// Batch item index (`None` for a lone `Ingest`/`Map`;
    /// [`EVENT_ITEM`] for an unsolicited subscription event).
    pub item: Option<u32>,
}

/// Sentinel `Token::item` marking an unsolicited `Response::Event`
/// pushed to a `Subscribe`d session (no pending serial to resolve; the
/// reactor appends it to the session's reply queue directly).
pub(crate) const EVENT_ITEM: u32 = u32::MAX;

/// Work a reactor hands a shard.
#[derive(Debug)]
pub(crate) enum Job {
    /// Feed one snapshot to the shard's engine.
    Ingest {
        /// Reply routing.
        token: Token,
        /// The epoch to ingest.
        snapshot: Box<SigSnapshot>,
    },
    /// Read a group's mapping and stream statistics.
    Map {
        /// Reply routing.
        token: Token,
        /// The queried group.
        group: String,
    },
    /// Serialize a group's engine state for a fleet handoff.
    ExportGroup {
        /// Reply routing.
        token: Token,
        /// The group to export.
        group: String,
    },
    /// Install a group's state carried over from its previous owner.
    ImportGroup {
        /// Reply routing.
        token: Token,
        /// The state to install (boxed: records carry whole vote
        /// windows).
        record: Box<symbio_online::journal::GroupRecord>,
    },
    /// Evaluate a snapshot counterfactually (read-only; memoized).
    WhatIf {
        /// Reply routing.
        token: Token,
        /// The snapshot to evaluate without ingesting.
        snapshot: Box<SigSnapshot>,
    },
    /// Read a group's most recent decision explanation.
    Explain {
        /// Reply routing.
        token: Token,
        /// The queried group.
        group: String,
    },
    /// Drain barrier: one per reactor; a shard that has collected all of
    /// them has journaled everything enqueued before the drain began.
    Barrier,
}

/// A shard's answer to one job.
#[derive(Debug)]
pub(crate) struct Completion {
    /// Echo of the job's routing token.
    pub token: Token,
    /// The reply for that slot.
    pub reply: Response,
}

/// Sleep/wake handshake for a shard thread (reactors notify after
/// pushing jobs; the shard parks briefly when all its rings are empty).
#[derive(Debug, Default)]
pub(crate) struct ShardSignal {
    nudged: Mutex<bool>,
    cv: Condvar,
}

impl ShardSignal {
    pub fn notify(&self) {
        if let Ok(mut nudged) = self.nudged.lock() {
            *nudged = true;
        }
        self.cv.notify_one();
    }

    /// Park until notified or `timeout`, clearing the nudge flag.
    pub fn wait(&self, timeout: Duration) {
        if let Ok(guard) = self.nudged.lock() {
            let mut guard = self
                .cv
                .wait_timeout_while(guard, timeout, |nudged| !*nudged)
                .map(|(g, _)| g)
                .unwrap_or_else(|e| e.into_inner().0);
            *guard = false;
        }
    }
}

/// State shared by every reactor and shard thread.
pub(crate) struct Shared {
    pub counters: Arc<Counters>,
    /// Last committed mapping per group — what `degraded` and
    /// `recovering` replies serve when the engine cannot (or must not)
    /// run for a request.
    stale: Mutex<HashMap<String, Mapping>>,
    /// Flipped by the first `shutdown` request; reactors stop feeding
    /// shards and begin the barrier protocol.
    draining: AtomicBool,
    /// Shards that have collected all reactors' barriers and exited.
    shards_drained: AtomicUsize,
    /// Reactors that have released the listener and pushed all their
    /// barriers.
    reactors_quiesced: AtomicUsize,
    pub shards: usize,
    pub reactors: usize,
    pub batch_max: usize,
    /// Encodings this daemon will negotiate.
    pub allowed: Vec<Encoding>,
    pub deadline: Duration,
    pub addr: SocketAddr,
    /// `Subscribe`d connections as (reactor index, session id) pairs;
    /// shards push decision events to each one's completion ring.
    subscribers: Mutex<Vec<(usize, u64)>>,
    /// Lock-free fast path for the ingest loop: shards skip event
    /// fan-out entirely while nobody is subscribed.
    subscriber_count: AtomicUsize,
}

impl Shared {
    /// Flip the drain flag (idempotent).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub fn note_shard_drained(&self) {
        self.shards_drained.fetch_add(1, Ordering::SeqCst);
    }

    pub fn note_reactor_quiesced(&self) {
        self.reactors_quiesced.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether the drain finished: every shard journaled its backlog and
    /// every reactor released the listener (the port is free).
    pub fn drain_complete(&self) -> bool {
        self.shards_drained.load(Ordering::SeqCst) == self.shards
            && self.reactors_quiesced.load(Ordering::SeqCst) == self.reactors
    }

    /// Record a committed mapping as the group's last-good fallback.
    pub fn remember(&self, group: &str, mapping: &Mapping) {
        if let Ok(mut stale) = self.stale.lock() {
            stale.insert(group.to_string(), mapping.clone());
        }
    }

    /// The group's last-good mapping, if one was ever committed.
    pub fn last_good(&self, group: &str) -> Option<Mapping> {
        self.stale.lock().ok().and_then(|s| s.get(group).cloned())
    }

    /// Register a `Subscribe`d connection (idempotent per session).
    pub fn subscribe(&self, reactor: usize, session: u64) {
        if let Ok(mut subs) = self.subscribers.lock() {
            if !subs.contains(&(reactor, session)) {
                subs.push((reactor, session));
                self.subscriber_count.store(subs.len(), Ordering::SeqCst);
            }
        }
    }

    /// Drop a connection's subscription (no-op if it never subscribed).
    pub fn unsubscribe(&self, reactor: usize, session: u64) {
        if let Ok(mut subs) = self.subscribers.lock() {
            subs.retain(|&(r, s)| (r, s) != (reactor, session));
            self.subscriber_count.store(subs.len(), Ordering::SeqCst);
        }
    }

    /// Whether any connection is subscribed (cheap; no lock).
    pub fn has_subscribers(&self) -> bool {
        self.subscriber_count.load(Ordering::Relaxed) > 0
    }

    /// Snapshot of the current subscriber set.
    pub fn subscriber_list(&self) -> Vec<(usize, u64)> {
        self.subscribers
            .lock()
            .map(|s| s.clone())
            .unwrap_or_default()
    }
}

/// Builder for daemons that need more than [`Symbiod::bind`]'s
/// single-shard defaults: several engine shards, a batch cap, or a
/// restricted encoding set.
#[derive(Debug)]
pub struct SymbiodBuilder {
    cfg: ServeConfig,
    batch_max: usize,
    encodings: Vec<Encoding>,
}

impl SymbiodBuilder {
    /// Start from a serving config.
    pub fn new(cfg: ServeConfig) -> SymbiodBuilder {
        SymbiodBuilder {
            cfg,
            batch_max: DEFAULT_BATCH_MAX,
            encodings: vec![Encoding::JsonLines, Encoding::Binary],
        }
    }

    /// Cap on `IngestBatch` items per frame (advertised in `Welcome`).
    pub fn batch_max(mut self, n: usize) -> SymbiodBuilder {
        self.batch_max = n;
        self
    }

    /// Restrict the encodings the daemon will negotiate. Connections
    /// always *start* in json-lines regardless (the `Hello` itself must
    /// be readable), so a binary-only daemon still parses v1 frames but
    /// refuses to stay on them.
    pub fn encodings(mut self, allowed: &[Encoding]) -> SymbiodBuilder {
        self.encodings = allowed.to_vec();
        self
    }

    /// Bind `addr` and wrap one engine per shard (shard count = engine
    /// count). The engines should share one `Counters` ledger (via
    /// [`OnlineEngine::with_counters`]) so `metrics` replies cover the
    /// whole daemon; the first engine's ledger is the one served.
    pub fn bind(self, addr: &str, engines: Vec<OnlineEngine>) -> symbio::Result<Symbiod> {
        self.cfg.validate().map_err(Error::InvalidConfig)?;
        if engines.is_empty() {
            return Err(Error::InvalidConfig(
                "need at least one shard engine".into(),
            ));
        }
        if self.batch_max == 0 {
            return Err(Error::InvalidConfig("batch_max must be >= 1".into()));
        }
        if self.encodings.is_empty() {
            return Err(Error::InvalidConfig("need at least one encoding".into()));
        }
        let counters = Arc::clone(engines[0].counters());
        // Seed the last-good cache from the engines: a recovered daemon
        // can serve degraded replies for groups it learned before the
        // crash without waiting for fresh commits.
        let mut stale: HashMap<String, Mapping> = HashMap::new();
        for engine in &engines {
            for g in engine.group_names() {
                if let Some(m) = engine.mapping(g) {
                    stale.insert(g.to_string(), m.clone());
                }
            }
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            counters,
            stale: Mutex::new(stale),
            draining: AtomicBool::new(false),
            shards_drained: AtomicUsize::new(0),
            reactors_quiesced: AtomicUsize::new(0),
            shards: engines.len(),
            reactors: self.cfg.workers,
            batch_max: self.batch_max,
            allowed: self.encodings,
            deadline: self.cfg.deadline,
            addr,
            subscribers: Mutex::new(Vec::new()),
            subscriber_count: AtomicUsize::new(0),
        });
        Ok(Symbiod {
            listener,
            engines,
            shared,
            cfg: self.cfg,
        })
    }
}

/// The signature-serving daemon. Construct with [`Symbiod::bind`] (one
/// shard) or [`SymbiodBuilder`] (sharded), then [`Symbiod::run`] blocks
/// the calling thread until a client sends `shutdown` (drained
/// gracefully).
pub struct Symbiod {
    listener: TcpListener,
    engines: Vec<OnlineEngine>,
    shared: Arc<Shared>,
    cfg: ServeConfig,
}

impl std::fmt::Debug for Symbiod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Symbiod")
            .field("addr", &self.shared.addr)
            .field("shards", &self.shared.shards)
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl Symbiod {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and wrap
    /// `engine` as a single shard. The engine's counters are re-pointed
    /// at the daemon's shared ledger so `metrics` replies cover both
    /// layers.
    pub fn bind(addr: &str, engine: OnlineEngine, cfg: ServeConfig) -> symbio::Result<Symbiod> {
        SymbiodBuilder::new(cfg).bind(addr, vec![engine])
    }

    /// The address the daemon actually listens on (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The daemon's counter ledger (shared with the engines).
    pub fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.shared.counters)
    }

    /// Serve until drained: spawn the shard and reactor threads, then
    /// return once a `shutdown` request has been honoured, every shard
    /// queue drained into its journal, and every reactor exited.
    pub fn run(self) -> symbio::Result<()> {
        let Symbiod {
            listener,
            engines,
            shared,
            cfg,
        } = self;
        listener.set_nonblocking(true)?;
        let listener = Arc::new(listener);
        let n_shards = shared.shards;
        let n_reactors = shared.reactors;
        let cap = cfg.backlog.max(2 * shared.batch_max).max(64);

        // One SPSC ring pair per (reactor, shard) edge.
        let mut reactor_job_tx: Vec<Vec<Producer<Job>>> = (0..n_reactors)
            .map(|_| Vec::with_capacity(n_shards))
            .collect();
        let mut shard_job_rx: Vec<Vec<Consumer<Job>>> = (0..n_shards)
            .map(|_| Vec::with_capacity(n_reactors))
            .collect();
        let mut shard_comp_tx: Vec<Vec<Producer<Completion>>> = (0..n_shards)
            .map(|_| Vec::with_capacity(n_reactors))
            .collect();
        let mut reactor_comp_rx: Vec<Vec<Consumer<Completion>>> = (0..n_reactors)
            .map(|_| Vec::with_capacity(n_shards))
            .collect();
        for si in 0..n_shards {
            for ri in 0..n_reactors {
                let (jtx, jrx) = channel::<Job>(cap);
                reactor_job_tx[ri].push(jtx);
                shard_job_rx[si].push(jrx);
                let (ctx, crx) = channel::<Completion>(cap + 2);
                shard_comp_tx[si].push(ctx);
                reactor_comp_rx[ri].push(crx);
            }
        }
        // With shards as the outer loop, reactor-side vectors end up
        // indexed by shard and shard-side vectors by reactor.

        let signals: Vec<Arc<ShardSignal>> = (0..n_shards)
            .map(|_| Arc::new(ShardSignal::default()))
            .collect();

        // Reactor wake channels: shards write one byte after pushing
        // completions; the read end sits in the reactor's epoll set.
        let mut wake_rx = Vec::with_capacity(n_reactors);
        let mut wake_tx = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            let (a, b) = UnixStream::pair()?;
            a.set_nonblocking(true)?;
            b.set_nonblocking(true)?;
            wake_rx.push(a);
            wake_tx.push(b);
        }

        let mut shard_handles = Vec::with_capacity(n_shards);
        for (si, engine) in engines.into_iter().enumerate() {
            let consumers = std::mem::take(&mut shard_job_rx[si]);
            let completions = std::mem::take(&mut shard_comp_tx[si]);
            let wakes: Vec<UnixStream> = wake_tx
                .iter()
                .map(|w| w.try_clone())
                .collect::<std::io::Result<_>>()?;
            let signal = Arc::clone(&signals[si]);
            let shared = Arc::clone(&shared);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("symbiod-shard-{si}"))
                    .spawn(move || {
                        shard::shard_loop(engine, consumers, completions, wakes, &signal, &shared)
                    })
                    .expect("spawn shard"),
            );
        }
        drop(wake_tx);

        let mut reactor_handles = Vec::with_capacity(n_reactors);
        for ri in (0..n_reactors).rev() {
            let producers = std::mem::take(&mut reactor_job_tx[ri]);
            let completions = std::mem::take(&mut reactor_comp_rx[ri]);
            let wake = wake_rx.pop().expect("one wake per reactor");
            let listener = Arc::clone(&listener);
            let signals = signals.clone();
            let shared = Arc::clone(&shared);
            reactor_handles.push(
                std::thread::Builder::new()
                    .name(format!("symbiod-reactor-{ri}"))
                    .spawn(move || {
                        reactor::reactor_loop(
                            ri,
                            listener,
                            shared,
                            producers,
                            signals,
                            completions,
                            wake,
                        )
                    })
                    .expect("spawn reactor"),
            );
        }
        // The spawning thread must not pin the listener open past the
        // reactors' drain (the port-free guarantee behind the `Ok` ACK).
        drop(listener);

        for h in reactor_handles {
            let _ = h.join();
        }
        for h in shard_handles {
            let _ = h.join();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in 1..5 {
            for g in ["load-0", "load-1", "OCC_A", "", "x"] {
                let s = shard_of(g, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(g, shards));
            }
        }
        // Multiple groups actually spread across shards.
        let spread: std::collections::HashSet<usize> =
            (0..16).map(|i| shard_of(&format!("g{i}"), 4)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        assert!(ServeConfig::default().validate().is_ok());
        let c = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            backlog: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ServeConfig {
            deadline: Duration::ZERO,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
