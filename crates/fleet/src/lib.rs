//! # symbio-fleet — the multi-instance coordinator
//!
//! One `symbiod` serves one machine's shared caches; the fleet layer
//! (DESIGN.md §13) shards **millions of process groups across many
//! symbiod backends** behind a coordinator, `fleetd`, that any client
//! reaches with the same versioned envelope `symbiod` speaks.
//!
//! The pieces:
//!
//! * [`assign`] — deterministic rendezvous (HRW) assignment: every
//!   coordinator replica computes identical group→backend routes from
//!   the membership alone, and a membership change moves only ~1/N of
//!   groups (both properties proptest-pinned);
//! * [`routing`] — compact per-group routing state (hashes only, packed
//!   values) with an explicit bytes/group budget;
//! * [`tenant`] — per-tenant group quotas, token-bucket rate limits and
//!   the deterministic shed order used under backend backlog;
//! * [`backend`] — the downstream connection pool (reuses
//!   [`symbio_serve::WireClient`] and the binary envelope; send and
//!   receive are separate so frames to several backends can be in
//!   flight at once);
//! * [`membership`] — durable membership: the CRC-framed journal a
//!   restarted coordinator replays to a byte-identical routing view,
//!   plus the flap detector that de-bounces eviction;
//! * [`handoff`] — the per-group warm-handoff state machine
//!   (`Settled → Exporting → Importing → Settled`; any failure or
//!   timeout settles cold, never wedges a route);
//! * [`coordinator`] — [`Fleetd`] itself: accept loop, admission,
//!   per-owner sub-batch fan-out of ingests, proxy-with-retry for
//!   reads, flap-guarded eviction, orchestrated warm handoff on
//!   rebalance, fleet-wide metrics aggregation.

#![warn(missing_docs)]

pub mod assign;
pub mod backend;
pub mod coordinator;
pub mod handoff;
pub mod membership;
pub mod routing;
pub mod tenant;

pub use assign::{Backend, Membership};
pub use backend::BackendPool;
pub use coordinator::{FleetConfig, Fleetd};
pub use handoff::{Handoff, HandoffEvent, HandoffOutcome, HandoffState};
pub use membership::{
    FlapDetector, MemberJournal, MemberRecord, MemberReplay, MEMBER_JOURNAL_VERSION,
};
pub use routing::{RouteEntry, RoutingTable, DEFAULT_BYTES_PER_GROUP};
pub use tenant::{tenant_of, Admission, TenantRegistry, TenantSpec};
