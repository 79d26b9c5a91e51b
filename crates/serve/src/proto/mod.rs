//! The `symbiod` wire protocol: a versioned envelope with two framings.
//!
//! A connection always *starts* in proto v1 (line-delimited JSON, the
//! format `nc` can speak), and may upgrade by sending a [`Hello`] frame
//! listing the versions and encodings it understands:
//!
//! ```text
//! → {"Hello":{"versions":[1,2],"encodings":["binary","json-lines"]}}
//! ← {"Welcome":{"version":2,"encoding":"binary","batch_max":64}}
//! → <4-byte LE length><tag><payload>           (all following frames)
//! ```
//!
//! The [`Welcome`] reply is sent in the *old* encoding (the one the
//! `Hello` itself arrived in); every frame after it uses the negotiated
//! one. Two encodings exist:
//!
//! * **`json-lines`** (proto v1, [`v1`]): one externally-tagged JSON
//!   object per line — readable with `nc`, greppable in traces, and kept
//!   bit-compatible with the pre-envelope daemon (see
//!   `tests/proto_compat.rs` for the committed golden transcript);
//! * **`binary`** (proto v2, [`v2`]): length-prefixed frames
//!   (`u32` little-endian payload length, one tag byte, hand-packed
//!   fields) with batched snapshot ingest ([`Request::IngestBatch`]) so
//!   one read carries many epochs.
//!
//! Both encodings carry the same [`Request`]/[`Reply`] enum pair; a
//! [`FrameCodec`] turns either byte stream into them and back. Protocol
//! errors are structured ([`Response::Error`] with `{code, message,
//! retryable}`): `retryable` is the client's retry predicate, `code` is a
//! stable machine-matchable token, and the legacy `kind` class is kept
//! for pre-envelope clients.
//!
//! A malformed frame never kills the connection (the daemon replies with
//! an error and keeps reading) — except an unframeable v2 length prefix,
//! after which the stream cannot be resynchronized and is closed.
//!
//! # Migration note (bare v1 forms)
//!
//! Connecting without `Hello` and speaking bare `Ingest`/`Map`/`Metrics`
//! lines still works, but is **deprecated as of 0.1.0 and scheduled for
//! removal one release later**: new clients must open with `Hello`. See
//! [`v1::compat`] for the deprecated constructors and the migration
//! recipe.

pub mod v1;
pub mod v2;

use serde::{Deserialize, Serialize};
use symbio::obs::CounterSnapshot;
use symbio::Error;
use symbio_machine::{Mapping, SigSnapshot};
use symbio_online::journal::GroupRecord;
use symbio_online::{Decision, Explanation};

pub use v1::{read_frame, write_frame, V1Codec};
pub use v2::V2Codec;

/// Protocol version speaking line-delimited JSON.
pub const PROTO_V1: u32 = 1;
/// Protocol version speaking length-prefixed binary frames.
pub const PROTO_V2: u32 = 2;
/// Every version this build can serve.
pub const SUPPORTED_VERSIONS: [u32; 2] = [PROTO_V1, PROTO_V2];
/// Default cap on [`Request::IngestBatch`] items per frame.
pub const DEFAULT_BATCH_MAX: usize = 64;

/// A wire encoding the envelope can negotiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// One externally-tagged JSON object per line (proto v1).
    JsonLines,
    /// Length-prefixed hand-packed binary frames (proto v2).
    Binary,
}

impl Encoding {
    /// The token used for this encoding in [`Hello`]/[`Welcome`] frames.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::JsonLines => "json-lines",
            Encoding::Binary => "binary",
        }
    }

    /// Parse a [`Hello`] encoding token.
    pub fn by_name(name: &str) -> Option<Encoding> {
        match name {
            "json-lines" => Some(Encoding::JsonLines),
            "binary" => Some(Encoding::Binary),
            _ => None,
        }
    }

    /// The codec implementing this encoding.
    pub fn codec(self) -> &'static (dyn FrameCodec + Sync) {
        match self {
            Encoding::JsonLines => &V1Codec,
            Encoding::Binary => &V2Codec,
        }
    }
}

/// Version/encoding negotiation opener (client → daemon).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// Protocol versions the client understands, any order.
    pub versions: Vec<u32>,
    /// Encoding tokens the client understands, preference order.
    pub encodings: Vec<String>,
}

impl Hello {
    /// A `Hello` preferring `preferred` but listing everything this
    /// build supports.
    pub fn preferring(preferred: Encoding) -> Hello {
        let mut encodings = vec![preferred.name().to_string()];
        for e in [Encoding::Binary, Encoding::JsonLines] {
            if e != preferred {
                encodings.push(e.name().to_string());
            }
        }
        Hello {
            versions: SUPPORTED_VERSIONS.to_vec(),
            encodings,
        }
    }
}

/// Negotiation outcome (daemon → client). Sent in the encoding the
/// `Hello` arrived in; every frame after it uses the negotiated one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Welcome {
    /// Protocol version in force for the rest of the connection.
    pub version: u32,
    /// Encoding token in force for the rest of the connection.
    pub encoding: String,
    /// Most snapshots the daemon accepts in one `IngestBatch` frame.
    pub batch_max: u64,
}

/// Pick the version/encoding for a client's [`Hello`] against the
/// daemon's allowed encoding set. `Err` carries the error reply to send
/// (the connection then stays on its current encoding).
#[allow(clippy::result_large_err)] // the Err *is* the wire reply; boxing just moves the copy
pub fn negotiate(
    hello: &Hello,
    allowed: &[Encoding],
    batch_max: usize,
) -> Result<(Encoding, Welcome), Response> {
    let version = hello
        .versions
        .iter()
        .copied()
        .filter(|v| SUPPORTED_VERSIONS.contains(v))
        .max();
    let Some(version) = version else {
        return Err(Response::protocol(
            "unsupported_version",
            format!(
                "no common protocol version (client {:?}, server {SUPPORTED_VERSIONS:?})",
                hello.versions
            ),
        ));
    };
    let encoding = hello
        .encodings
        .iter()
        .filter_map(|n| Encoding::by_name(n))
        .find(|e| allowed.contains(e) && (*e != Encoding::Binary || version >= PROTO_V2));
    let encoding = match encoding {
        Some(e) => e,
        None if allowed.contains(&Encoding::JsonLines) => Encoding::JsonLines,
        None => {
            return Err(Response::protocol(
                "unsupported_encoding",
                format!("no common encoding (client {:?})", hello.encodings),
            ))
        }
    };
    let version = if encoding == Encoding::Binary {
        PROTO_V2
    } else {
        PROTO_V1
    };
    Ok((
        encoding,
        Welcome {
            version,
            encoding: encoding.name().to_string(),
            batch_max: batch_max as u64,
        },
    ))
}

/// The fleet coordinator's membership view, returned by
/// [`Request::Assign`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetView {
    /// Membership epoch: bumped on every accepted `Assign`, echoed in
    /// [`Response::Route`] so clients can tell stale answers apart.
    pub epoch: u64,
    /// Backend addresses in the membership, sorted.
    pub backends: Vec<String>,
    /// Routed groups whose rendezvous owner changed in this transition
    /// (the coordinator's per-change disruption measure).
    pub moved: u64,
}

/// One backend's health and traffic as seen from the coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendStat {
    /// Backend address.
    pub addr: String,
    /// Whether the coordinator currently holds a working connection.
    pub healthy: bool,
    /// Routed groups currently assigned to this backend.
    pub groups: u64,
    /// Decisions proxied to this backend since it joined: each reply
    /// counts one, except a `Batch` reply, which counts one per item.
    pub proxied: u64,
    /// Errors observed talking to this backend since it joined.
    pub errors: u64,
}

/// Fleet-wide counters, returned by [`Request::FleetMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Membership epoch the snapshot was taken under.
    pub epoch: u64,
    /// Per-backend health and traffic.
    pub backends: Vec<BackendStat>,
    /// The coordinator's own counters (`fleet_routes`,
    /// `fleet_rebalance_moves`, `tenant_sheds`, `fleet_backend_errors`)
    /// with every reachable backend's `Metrics` absorbed in.
    pub aggregate: CounterSnapshot,
}

/// A client→daemon frame (identical meaning in every encoding).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Open version/encoding negotiation (answered with `Welcome`).
    Hello(Hello),
    /// One epoch of a group's signature stream; the daemon feeds it to
    /// the online engine and replies with the resulting [`Decision`].
    Ingest(SigSnapshot),
    /// Many epochs in one frame (answered with one `Batch` reply whose
    /// items line up with the snapshots, in order). Capped at the
    /// negotiated `batch_max`.
    IngestBatch(Vec<SigSnapshot>),
    /// Ask for a group's current mapping and stream statistics.
    Map {
        /// Process-group identifier, as carried by its snapshots.
        group: String,
    },
    /// Ask for the daemon's observability counters.
    Metrics,
    /// Graceful drain: stop accepting, flush every shard's queued work
    /// into the journal, finish in-flight connections, exit.
    Shutdown,
    /// Fleet verb: ask the coordinator which backend owns `group`.
    /// Answered with [`Response::Route`]; a plain `symbiod` answers with
    /// a `not_fleet` protocol error.
    Route {
        /// Process-group identifier to resolve.
        group: String,
    },
    /// Fleet verb: change the coordinator's membership view (add and/or
    /// remove backend addresses), triggering a rendezvous rebalance.
    /// Answered with [`Response::FleetView`].
    Assign {
        /// Backend addresses to add to the membership.
        add: Vec<String>,
        /// Backend addresses to remove from the membership.
        remove: Vec<String>,
    },
    /// Fleet verb: ask the coordinator for fleet-wide counters — its own
    /// routing/rebalance/shed counters plus every backend's `Metrics`
    /// absorbed into one aggregate. Answered with
    /// [`Response::FleetMetrics`].
    FleetMetrics,
    /// Handoff verb (coordinator → backend): serialize one group's
    /// recoverable engine state — vote window, committed mapping,
    /// hysteresis watermarks, quarantine state — so the coordinator can
    /// carry it to the group's new owner during a rebalance. Answered
    /// with [`Response::GroupState`] (`record: None` for an unknown
    /// group). The exporter keeps its copy; duplicate suppression makes
    /// a stale owner's replays harmless after the route flips.
    ExportGroup {
        /// Process-group identifier to export.
        group: String,
    },
    /// Handoff verb (coordinator → backend): install one group's state
    /// from [`Response::GroupState`], replacing any state this backend
    /// already holds for the group (the exporter's view wins). Answered
    /// with [`Response::Ok`].
    ImportGroup(GroupRecord),
    /// Control-plane verb: evaluate this snapshot against the group's
    /// current engine state **without mutating it** — no epoch is
    /// tallied, no vote is recorded, no journal frame is written. The
    /// shard answers [`Response::WhatIf`] with the mapping the engine
    /// *would* serve and the predicted gain over the incumbent.
    /// Answers are memoized per shard (identical snapshot bytes hit the
    /// memo; see `memo_hit` in the reply). A fleet coordinator proxies
    /// this to the group's owning backend.
    WhatIf(SigSnapshot),
    /// Control-plane verb: subscribe this connection to the decision
    /// stream. Acknowledged with [`Response::Ok`]; afterwards the daemon
    /// pushes one [`Response::Event`] per committed `Ingest` decision on
    /// any shard, interleaved with this connection's own replies. Event
    /// delivery is lossy under backpressure (a full completion ring
    /// drops the event rather than stalling the shard). A fleet
    /// coordinator answers this with a `backend_verb` error — subscribe
    /// to the owning backend directly.
    Subscribe,
    /// Control-plane verb: fetch the [`Explanation`] attached to the
    /// group's most recent decision. Answered with
    /// [`Response::Explained`] (`explanation: None` when the daemon was
    /// started without `--explain` or the group has no decision yet).
    Explain {
        /// Process-group identifier, as carried by its snapshots.
        group: String,
    },
}

/// A daemon→client frame (identical meaning in every encoding).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::Hello`]: negotiation outcome.
    Welcome(Welcome),
    /// Outcome of an [`Request::Ingest`] epoch.
    Decision(Decision),
    /// Reply to [`Request::IngestBatch`]: one item per snapshot, in
    /// snapshot order (each a `Decision`, `Recovering`, `Degraded` or
    /// `Error`, exactly as the lone-`Ingest` reply would have been).
    Batch(Vec<Response>),
    /// Reply to [`Request::Map`].
    Map {
        /// Echo of the queried group.
        group: String,
        /// The group's committed mapping (`None` while warming up or for
        /// a group the daemon has never seen).
        mapping: Option<Mapping>,
        /// Epochs ingested for the group.
        epochs: u64,
        /// Remaps committed for the group.
        remaps: u64,
    },
    /// Reply to [`Request::Metrics`].
    Metrics(CounterSnapshot),
    /// Load-shed reply: the shard's ingest queue is full (or the daemon
    /// is draining), so it answered from its last-good mapping cache
    /// instead of running the engine. Strictly better than `busy` for
    /// the client — it still gets a usable placement — but the epoch was
    /// *not* tallied.
    Degraded {
        /// Echo of the requested group.
        group: String,
        /// The group's last-good mapping (`None` if the daemon has never
        /// committed one for this group).
        mapping: Option<Mapping>,
        /// Human-readable cause of the degradation.
        message: String,
    },
    /// The group is quarantined after repeated invalid snapshots: the
    /// epoch advanced its clean streak but was not tallied, and the
    /// last-good mapping is served until the stream proves clean.
    Recovering {
        /// Echo of the snapshot's group.
        group: String,
        /// Echo of the snapshot's sequence number.
        seq: u64,
        /// The group's last-good mapping.
        mapping: Option<Mapping>,
    },
    /// Bare acknowledgement (shutdown accepted, every shard queue
    /// drained into the journal, *and* the accept path closed: a client
    /// that sees this may immediately reuse the port).
    Ok,
    /// Reply to [`Request::Route`]: the backend that owns the group
    /// under the membership epoch in force when the reply was built.
    Route {
        /// Echo of the queried group.
        group: String,
        /// Address of the owning backend.
        backend: String,
        /// Membership epoch the answer was computed under; a client
        /// holding a stale epoch should expect `route_moved` errors.
        epoch: u64,
    },
    /// Reply to [`Request::Assign`]: the membership view after the
    /// change and how much the rendezvous assignment shifted.
    FleetView(FleetView),
    /// Reply to [`Request::FleetMetrics`].
    FleetMetrics(FleetSnapshot),
    /// Reply to [`Request::ExportGroup`]: the group's serialized engine
    /// state, or `None` if this backend has never seen the group.
    GroupState {
        /// Echo of the queried group.
        group: String,
        /// The exported state (window, committed mapping, watermarks,
        /// quarantine). Carried inline — the vendored serde has no
        /// `Box<T>` impls to derive through.
        record: Option<GroupRecord>,
    },
    /// Reply to [`Request::WhatIf`]: the counterfactual outcome, built
    /// from the same evaluation engine a real `Ingest` would use but
    /// with the engine state left untouched.
    WhatIf {
        /// Echo of the snapshot's group.
        group: String,
        /// The mapping the engine would serve for this snapshot.
        mapping: Mapping,
        /// Predicted relative gain of `mapping` over the incumbent
        /// (0 when the vote matches the committed mapping).
        delta: f64,
        /// Whether hysteresis would hold the incumbent (`true`: the
        /// returned mapping *is* the incumbent).
        held: bool,
        /// Whether this answer came from the shard's what-if memo
        /// rather than a fresh evaluation.
        memo_hit: bool,
    },
    /// A pushed decision event for [`Request::Subscribe`] watchers: the
    /// committed decision plus the group's running counters at the time
    /// it was made. Unsolicited (no request serial) and lossy under
    /// backpressure.
    Event {
        /// The decision as the ingesting client saw it.
        decision: Decision,
        /// Epochs ingested for the group, after this decision.
        epochs: u64,
        /// Remaps committed for the group, after this decision.
        remaps: u64,
    },
    /// Reply to [`Request::Explain`]: the group's most recent
    /// per-decision explanation, when explanation recording is enabled.
    Explained {
        /// Echo of the queried group.
        group: String,
        /// The explanation (`None`: explanations disabled, unknown
        /// group, or no decision yet).
        explanation: Option<Explanation>,
    },
    /// Structured failure reply; the connection stays usable.
    Error {
        /// Legacy error class kept for pre-envelope clients: `protocol`,
        /// `io`, `config`, `validation`, `busy`, or `unknown`.
        kind: String,
        /// Stable machine-matchable token (`bad_frame`, `io_fault`,
        /// `invalid_snapshot`, `overloaded`, `batch_too_large`,
        /// `unsupported_version`, `unsupported_encoding`, `bad_config`,
        /// `internal`; fleet layer adds `route_moved`, `tenant_shed`,
        /// `tenant_quota`, `no_backends`, `not_fleet`, `backend_verb`).
        code: String,
        /// Human-readable description.
        message: String,
        /// Whether retrying the same request can succeed (the client's
        /// retry predicate — duplicate suppression makes retried epochs
        /// idempotent).
        retryable: bool,
    },
}

/// Alias making the reply half of the envelope's enum pair explicit.
pub use Response as Reply;

impl Response {
    /// The error reply for a facade error, classified by variant.
    pub fn from_error(e: &Error) -> Response {
        let (kind, code, retryable) = match e {
            Error::Protocol(_) => ("protocol", "bad_frame", false),
            Error::Io(_) => ("io", "io_fault", true),
            Error::InvalidConfig(_) => ("config", "bad_config", false),
            Error::Validation(_) => ("validation", "invalid_snapshot", false),
            _ => ("unknown", "internal", false),
        };
        Response::Error {
            kind: kind.to_string(),
            code: code.to_string(),
            message: e.to_string(),
            retryable,
        }
    }

    /// A non-retryable protocol error with a stable `code`.
    pub fn protocol(code: &str, message: impl Into<String>) -> Response {
        Response::Error {
            kind: "protocol".to_string(),
            code: code.to_string(),
            message: message.into(),
            retryable: false,
        }
    }

    /// The fleet coordinator's "this group's owner changed" reply. It is
    /// `retryable`, but a fleet-aware client should *re-resolve the
    /// owner* (`Route`) before retrying instead of hammering the old
    /// one — the message names the new owner for clients that can parse
    /// it.
    pub fn route_moved(group: &str, owner: &str, epoch: u64) -> Response {
        Response::Error {
            kind: "busy".to_string(),
            code: "route_moved".to_string(),
            message: format!("group {group} moved to {owner} at epoch {epoch}"),
            retryable: true,
        }
    }

    /// The fleet coordinator's load-shed reply: the owning backend
    /// signalled backlog and this tenant lost the deterministic shed
    /// lottery (lowest priority first, ties by tenant-id hash).
    pub fn tenant_shed(tenant: &str) -> Response {
        Response::Error {
            kind: "busy".to_string(),
            code: "tenant_shed".to_string(),
            message: format!("tenant {tenant} shed under backend backlog; retry later"),
            retryable: true,
        }
    }

    /// The overload reply sent when the daemon cannot take the request.
    pub fn busy() -> Response {
        Response::Error {
            kind: "busy".to_string(),
            code: "overloaded".to_string(),
            message: "accept backlog full; retry later".to_string(),
            retryable: true,
        }
    }

    /// Whether this reply is an error frame.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }

    /// Whether retrying the request that produced this reply can help.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Response::Error {
                retryable: true,
                ..
            }
        )
    }
}

/// A framing + encoding pair: turns the byte stream into
/// [`Request`]/[`Reply`] frames and back. Implemented by [`V1Codec`]
/// (json-lines) and [`V2Codec`] (binary).
pub trait FrameCodec: Send {
    /// The encoding this codec implements.
    fn encoding(&self) -> Encoding;

    /// Try to split one frame's payload off the front of `buf`. Returns
    /// `Some((bytes_consumed, payload))` when a whole frame is buffered,
    /// `None` when more bytes are needed, and `Err` when the stream can
    /// no longer be framed (the connection must close).
    fn split_frame<'a>(&self, buf: &'a [u8]) -> symbio::Result<Option<(usize, &'a [u8])>>;

    /// Decode one frame payload as a request.
    fn decode_request(&self, frame: &[u8]) -> symbio::Result<Request>;

    /// Decode one frame payload as a reply.
    fn decode_reply(&self, frame: &[u8]) -> symbio::Result<Response>;

    /// Append one encoded request frame (framing included) to `out`.
    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) -> symbio::Result<()>;

    /// Append one encoded reply frame (framing included) to `out`.
    fn encode_reply(&self, reply: &Response, out: &mut Vec<u8>) -> symbio::Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_picks_the_clients_preference() {
        let both = [Encoding::JsonLines, Encoding::Binary];
        let (enc, welcome) =
            negotiate(&Hello::preferring(Encoding::Binary), &both, 64).expect("negotiates");
        assert_eq!(enc, Encoding::Binary);
        assert_eq!(welcome.version, PROTO_V2);
        assert_eq!(welcome.encoding, "binary");
        assert_eq!(welcome.batch_max, 64);

        let (enc, welcome) =
            negotiate(&Hello::preferring(Encoding::JsonLines), &both, 8).expect("negotiates");
        assert_eq!(enc, Encoding::JsonLines);
        assert_eq!(welcome.version, PROTO_V1);
    }

    #[test]
    fn negotiation_requires_v2_for_binary() {
        let both = [Encoding::JsonLines, Encoding::Binary];
        let hello = Hello {
            versions: vec![1],
            encodings: vec!["binary".to_string()],
        };
        // A v1-only client asking for binary falls back to json-lines.
        let (enc, welcome) = negotiate(&hello, &both, 64).expect("falls back");
        assert_eq!(enc, Encoding::JsonLines);
        assert_eq!(welcome.version, PROTO_V1);
    }

    #[test]
    fn negotiation_rejects_alien_clients() {
        let both = [Encoding::JsonLines, Encoding::Binary];
        let hello = Hello {
            versions: vec![99],
            encodings: vec!["binary".to_string()],
        };
        let reply = negotiate(&hello, &both, 64).expect_err("no common version");
        match reply {
            Response::Error {
                ref code,
                retryable,
                ..
            } => {
                assert_eq!(code, "unsupported_version");
                assert!(!retryable);
            }
            other => panic!("expected error, got {other:?}"),
        }

        // Unknown encodings from a current-version client degrade to
        // json-lines rather than failing (only a binary-only server
        // rejects them outright).
        let hello = Hello {
            versions: vec![1, 2],
            encodings: vec!["morse".to_string()],
        };
        let (enc, _) = negotiate(&hello, &both, 64).expect("degrades to json");
        assert_eq!(enc, Encoding::JsonLines);
        let reply = negotiate(&hello, &[Encoding::Binary], 64).expect_err("binary-only");
        assert!(
            matches!(reply, Response::Error { ref code, .. } if code == "unsupported_encoding")
        );
    }

    #[test]
    fn error_replies_carry_the_retry_predicate() {
        let io = Response::from_error(&Error::Io(std::io::Error::other("boom")));
        assert!(io.is_retryable());
        assert!(io.is_error());
        let val = Response::from_error(&Error::Validation("negative occupancy".to_string()));
        assert!(!val.is_retryable());
        match val {
            Response::Error {
                ref kind, ref code, ..
            } => {
                assert_eq!(kind, "validation");
                assert_eq!(code, "invalid_snapshot");
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert!(Response::busy().is_retryable());
        assert!(!Response::Ok.is_retryable());
    }
}
