//! # symbio — Symbiotic Scheduling for Shared Caches
//!
//! A full Rust reproduction of *Symbiotic Scheduling for Shared Caches in
//! Multi-Core Systems Using Memory Footprint Signature* (Ghosh, Nathuji,
//! Lee, Schwan, Lee — ICPP 2011).
//!
//! The paper's thesis: event counters (miss rates) cannot see a process's
//! *cache footprint*, so an OS cannot know which processes destructively
//! interfere in a shared L2. A cheap counting-Bloom-filter **signature
//! unit** in the cache fixes that: per-core filters yield, at every context
//! switch, an *occupancy weight* and a *symbiosis* value per core, from
//! which user-level policies compute process→core mappings that herd
//! mutually-destructive processes onto the same core (time-sliced, not
//! concurrent).
//!
//! This crate is the orchestration layer over the substrate crates:
//!
//! * [`symbio_bits`] / [`symbio_cbf`] — the signature hardware model;
//! * [`symbio_cache`] — caches + DRAM (the Simics g-cache stand-in);
//! * [`symbio_workloads`] — SPEC2006-like and PARSEC-like synthetic suites;
//! * [`symbio_machine`] — the multi-core machine, OS scheduler, VM layer;
//! * [`symbio_allocator`] — the three paper algorithms + baselines.
//!
//! [`pipeline::Pipeline`] implements the paper's two-phase methodology
//! (profile under the signature unit → measure every candidate mapping with
//! it off), [`sweep::SweepEngine`] runs the full benchmark-mix sweeps
//! behind Figures 10–14 and Table 1 — memoized ([`memo`]), parallel
//! ([`exec`]) and observable ([`obs`]) — and [`report`] renders/persists
//! the results.
//!
//! ## Quickstart
//!
//! ```
//! use symbio::prelude::*;
//!
//! # fn main() -> symbio::Result<()> {
//! // Evaluate one 4-benchmark mix on the scaled Core 2 Duo.
//! let cfg = ExperimentConfig::fast(7);
//! let l2 = cfg.machine.l2.size_bytes;
//! let mut specs = Vec::new();
//! for n in ["povray", "gobmk", "libquantum", "hmmer"] {
//!     specs.push(spec2006::by_name(n, l2)?);
//! }
//! let pipeline = Pipeline::new(cfg);
//! let mut policy = WeightedInterferenceGraphPolicy::default();
//! let result = pipeline.evaluate_mix(&specs, &mut policy)?;
//! println!("{}", result.table());
//! assert_eq!(result.mappings.len(), 3); // AB|CD, AC|BD, AD|BC
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod exec;
pub mod hash;
pub mod memo;
pub mod metrics;
pub mod mixes;
pub mod obs;
pub mod pipeline;
pub mod prelude;
pub mod report;
pub mod sweep;

pub use config::{ExperimentConfig, ExperimentConfigBuilder};
pub use error::{Error, Result};
pub use exec::{CancelToken, ExecOptions};
pub use hash::{fnv1a_64, mix64, shard_of};
pub use memo::MeasureCache;
pub use metrics::{BenchmarkSummary, Improvement};
pub use mixes::{candidate_mappings, mixes_of};
pub use obs::{
    BenchRecord, CounterSnapshot, Counters, FleetBenchRecord, KernelBenchRecord, Progress,
    ScalingSummaryRecord, ServeBenchRecord, Timings, Trace,
};
pub use pipeline::{MixResult, Pipeline, ProfileResult, ProfileTrace};
pub use sweep::{
    sweep_multithreaded, sweep_pool, DomainPoint, SweepEngine, SweepOptions, SweepOutcome,
};
