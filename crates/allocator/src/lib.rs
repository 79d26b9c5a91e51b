//! # symbio-allocator
//!
//! The resource-allocation algorithms of Section 3.3, plus the baselines
//! they are compared against.
//!
//! All policies implement [`AllocationPolicy`]: given the per-process /
//! per-thread signature contexts exposed by the machine's query interface
//! (the paper's syscall / hypercall surface), produce a thread→core
//! [`Mapping`](symbio_machine::Mapping). The intent of every algorithm
//! is the same inversion: processes that *hurt each other* when run
//! concurrently under the shared L2 should be herded onto the **same**
//! core, where time-slicing serialises them and the interference
//! disappears.
//!
//! * [`WeightSortPolicy`] — Section 3.3.1: sort by RBV occupancy weight,
//!   group consecutive heavy hitters;
//! * [`InterferenceGraphPolicy`] — Section 3.3.2: balanced MIN-CUT over the
//!   reciprocal-symbiosis interference graph;
//! * [`WeightedInterferenceGraphPolicy`] — Section 3.3.3: edge weights
//!   scaled by occupancy, fixing the low-occupancy/low-symbiosis ambiguity;
//! * [`TwoPhasePolicy`] — Section 3.3.4: thread-granularity allocation for
//!   multi-threaded apps (weight-sort within a process, then a pinned
//!   weighted interference graph across all threads);
//! * [`DomainAwarePolicy`] — the multi-domain extension: MIN-CUT across
//!   cache domains first (who shares an L2 at all), then any of the above
//!   policies inside each domain;
//! * [`baselines`] — default (round-robin), random, cache-affinity, and a
//!   miss-rate-sorting scheduler standing in for the perf-counter
//!   approaches the paper argues against.
//!
//! The MIN-CUT itself ([`partition`]) is exact for the paper's problem
//! sizes (exhaustive balanced bisection; the paper used an SDP
//! approximation) with Kernighan–Lin and randomised local search available
//! for larger graphs, and hierarchical bisection for >2 cores.

#![warn(missing_docs)]

pub mod baselines;
pub mod domain;
pub mod graph;
pub mod matrix;
pub mod pairwise;
pub mod partition;
pub mod policy;
pub mod two_phase;

pub use baselines::{AffinityPolicy, DefaultPolicy, MissRateSortPolicy, RandomPolicy};
pub use domain::DomainAwarePolicy;
pub use graph::{InterferenceGraph, InterferenceMetric};
pub use matrix::SymMatrix;
pub use pairwise::PairwisePolicy;
pub use partition::PartitionMethod;
pub use policy::{
    AllocationPolicy, InterferenceGraphPolicy, WeightSortPolicy, WeightedInterferenceGraphPolicy,
};
pub use two_phase::TwoPhasePolicy;
