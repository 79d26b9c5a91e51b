//! # symbio-machine
//!
//! The execution substrate of the reproduction: a deterministic multi-core
//! machine simulator playing the role of both evaluation phases in the
//! paper's methodology (Section 4):
//!
//! * **phase 1 — "Simics"**: run a workload mix with the Bloom-filter
//!   signature unit attached, let an allocation policy query the
//!   per-process signature contexts at a fixed interval (the paper's
//!   100 ms), and record the majority mapping;
//! * **phase 2 — "real machine"**: run every candidate mapping to
//!   completion with the signature hardware disabled and report per-process
//!   *user time* (cycles the process actually executed, the `time`-style
//!   metric the paper tabulates).
//!
//! The simulator is an interleaved-by-cycle multi-core engine: each core
//! has a local clock, and within a cache domain the engine always
//! advances the core with the smallest clock, so a faster process
//! naturally issues more of the interleaved shared-L2 traffic. Cache
//! domains share nothing (own L2, DRAM channel, jitter stream), so each is
//! stepped as an independent lane — see [`MachineConfig::step_threads`].
//! On top sit:
//!
//! * an OS scheduler with per-core run queues, a fixed quantum, and
//!   affinity bits ([`sched`]) — the paper's user-level allocator only sets
//!   affinities, never bypasses the OS;
//! * per-thread signature contexts updated at every context switch
//!   ([`thread`]) — the `(2 + N)`-entry structure of Section 3.2;
//! * per-thread performance counters (misses, accesses) — the
//!   event-counter alternative the paper argues against, needed both for
//!   the Figure 2/5 comparison and for the miss-rate baseline scheduler;
//! * an optional virtualization layer ([`config::VirtConfig`]): per-
//!   instruction hypervisor tax, costlier VM switches, a shorter hypervisor
//!   quantum and a Dom0 background service — the reasons Figure 11's
//!   improvements are roughly half of Figure 10's.

#![warn(missing_docs)]

pub mod config;
pub mod machine;
pub mod mapping;
pub mod sched;
pub mod snapshot;
pub mod thread;
pub mod timing;

pub use config::{MachineConfig, VirtConfig};
pub use machine::{Machine, ProcOutcome, RunOutcome};
pub use mapping::Mapping;
pub use snapshot::{ExportError, SigSnapshot};
pub use symbio_cache::{CacheDomain, Topology};
pub use thread::{ProcView, SigContext, ThreadView};
pub use timing::TimingModel;
