//! One-stop imports for experiment code.

pub use crate::config::{ExperimentConfig, ExperimentConfigBuilder};
pub use crate::error::{Error, Result};
pub use crate::exec::{CancelToken, ExecOptions};
pub use crate::memo::MeasureCache;
pub use crate::metrics::{BenchmarkSummary, Improvement};
pub use crate::mixes::{candidate_mappings, mixes_of};
pub use crate::obs::{
    BenchRecord, CounterSnapshot, Counters, KernelBenchRecord, Progress, ServeBenchRecord, Timings,
    Trace,
};
pub use crate::pipeline::{MixResult, Pipeline, ProfileResult, ProfileTrace};
pub use crate::report;
pub use crate::sweep::{
    sweep_multithreaded, sweep_pool, DomainPoint, SweepEngine, SweepOptions, SweepOutcome,
};

pub use symbio_allocator::{
    AffinityPolicy, AllocationPolicy, DefaultPolicy, DomainAwarePolicy, InterferenceGraphPolicy,
    InterferenceMetric, MissRateSortPolicy, PairwisePolicy, PartitionMethod, RandomPolicy,
    TwoPhasePolicy, WeightSortPolicy, WeightedInterferenceGraphPolicy,
};
pub use symbio_cache::{CacheGeometry, ReplacementPolicy, Topology};
pub use symbio_cbf::{HashKind, Sampling, SignatureConfig, SignatureUnit};
pub use symbio_machine::{Machine, MachineConfig, Mapping, SigSnapshot, TimingModel, VirtConfig};
pub use symbio_workloads::{parsec, spec2006, Pattern, ThreadSpec, WorkloadSpec};
