//! Seeded input generation, kept apart from measurement.
//!
//! `--seed` drives mix selection, process placement, group names,
//! snapshot traces and the read/write schedule. Inputs are written under
//! `out/inputs/` and read back before anything is timed, so what a
//! workload measures is exactly what is on disk; generation is counted
//! in `setup_s`.
//!
//! The driver judges run-to-run spread across *different* seeds, so the
//! seed must vary the inputs without changing how much work they are:
//! the sim workloads always run the whole 12-program pool (the seed
//! decides which programs share a machine, a cache domain and a core)
//! and the sweep always evaluates the same number of mixes (the seed
//! decides which).

use serde::{Deserialize, Serialize};
use std::path::Path;
use symbio_machine::{Machine, MachineConfig, SigSnapshot};
use symbio_workloads::{spec2006, SplitMix64, WorkloadSpec};

use crate::util::shuffle;

/// Epochs in every recorded snapshot trace. Batch sizes (1, 8, 32)
/// divide it or are multiples of it, so a group's n-th frame is a fixed
/// function of n.
pub const TRACE_EPOCHS: usize = 16;

/// Write `value` to `path` as JSON and return what reading it back
/// gives — the copy the measurement uses.
pub fn materialise<T: Serialize + Deserialize>(path: &Path, value: &T) -> Result<T, String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    std::fs::write(path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let back = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&back).map_err(|e| format!("{}: {e}", path.display()))
}

/// The scaled L2 size every workload spec is sized against.
fn l2_bytes() -> u64 {
    MachineConfig::scaled_core2duo(0).l2.size_bytes
}

/// A pool benchmark by name; the names come from the pool itself.
pub fn spec(name: &str) -> WorkloadSpec {
    spec2006::by_name(name, l2_bytes()).expect("input names come from the spec2006 pool")
}

/// Inputs of `sim_flat` and `sim_lanes`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimInputs {
    /// Seed of machine 0; machine `k` uses `machine_seed + k`.
    pub machine_seed: u64,
    /// Cache domains per machine (2 cores each).
    pub domains: usize,
    /// `MachineConfig::step_threads` (1 = serial engine, 2 = lanes).
    pub step_threads: usize,
    /// Process names per machine, in `add_process` order (process `i`
    /// starts on core `i % cores`).
    pub machines: Vec<Vec<String>>,
}

impl SimInputs {
    /// `sim_flat`: the 12-program pool dealt by seed into three 4-process
    /// mixes, each on its own 1-domain 2-core machine, serial engine.
    pub fn flat(seed: u64) -> SimInputs {
        let mut rng = SplitMix64::new(seed);
        let mut names = spec2006::pool_names();
        shuffle(&mut names, &mut rng);
        SimInputs {
            machine_seed: rng.next_u64() >> 1,
            domains: 1,
            step_threads: 1,
            machines: names
                .chunks(4)
                .map(|c| c.iter().map(|n| n.to_string()).collect())
                .collect(),
        }
    }

    /// `sim_lanes`: one 4-domain 8-core machine stepped by the lane
    /// engine on two threads, 24 processes. The engine gives lanes to
    /// workers statically (domain `d` to worker `d % 2`) and a slice ends
    /// when the slower worker does, and which programs share an L2
    /// changes the host cost of a simulated op by over 10 %. So the split
    /// is fixed — each worker steps one domain holding the pool's first
    /// six programs and one holding its last six — and the seed decides
    /// which of a domain's programs share a core, in what order, and the
    /// machine seed: how the lanes interleave, never how much they carry.
    pub fn lanes(seed: u64) -> SimInputs {
        let mut rng = SplitMix64::new(seed);
        let (domains, cores) = (4usize, 8usize);
        let pool = spec2006::pool_names();
        // `add_process` places process `i` on core `i % cores`; core `c`
        // belongs to domain `c / 2`, which worker `(c / 2) % 2` steps.
        let mut by_core: Vec<Vec<&str>> = vec![Vec::new(); cores];
        for domain in 0..domains {
            let mut half = pool[(domain / 2) * 6..(domain / 2) * 6 + 6].to_vec();
            shuffle(&mut half, &mut rng);
            for (i, name) in half.into_iter().enumerate() {
                by_core[2 * domain + i % 2].push(name);
            }
        }
        let per_core = by_core[0].len();
        let names = (0..per_core)
            .flat_map(|round| {
                by_core
                    .iter()
                    .map(move |on_core| on_core[round].to_string())
            })
            .collect();
        SimInputs {
            machine_seed: rng.next_u64() >> 1,
            domains,
            step_threads: 2,
            machines: vec![names],
        }
    }

    /// Configuration of machine `k` stepped by `step_threads` threads.
    pub fn machine_config(&self, k: usize, step_threads: usize) -> MachineConfig {
        MachineConfig::scaled_multidomain(self.machine_seed + k as u64, self.domains)
            .with_step_threads(step_threads)
    }

    /// Build and start every machine, stepped by `step_threads` threads.
    pub fn build(&self, step_threads: usize) -> Vec<Machine> {
        self.machines
            .iter()
            .enumerate()
            .map(|(k, names)| {
                let mut m = Machine::new(self.machine_config(k, step_threads));
                for n in names {
                    m.add_process(&spec(n));
                }
                m.start(None);
                m
            })
            .collect()
    }
}

/// Inputs of `sweep_paper`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepInputs {
    /// `ExperimentConfig` seed.
    pub cfg_seed: u64,
    /// The pool in seeded order: `mixes_of` enumerates index
    /// combinations, so the order decides which mixes the stride hits.
    pub pool: Vec<String>,
    /// Evaluate every `stride`-th of the C(12,4) = 495 mixes.
    pub stride: usize,
    /// Each benchmark's `work` is divided by this, so one sweep fits the
    /// timed window.
    pub work_div: u64,
}

impl SweepInputs {
    /// A seeded strided subset of `495 / stride` mixes.
    pub fn new(seed: u64, stride: usize) -> SweepInputs {
        let mut rng = SplitMix64::new(seed);
        let mut pool = spec2006::pool_names();
        shuffle(&mut pool, &mut rng);
        SweepInputs {
            cfg_seed: rng.next_u64() >> 1,
            pool: pool.iter().map(|n| n.to_string()).collect(),
            stride,
            work_div: 8,
        }
    }

    /// The pool as workload specs.
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        self.pool
            .iter()
            .map(|n| {
                let mut s = spec(n);
                s.work /= self.work_div;
                s
            })
            .collect()
    }
}

/// One process group a connection streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupInput {
    /// Group name (its tenant is the part before `/`, if any).
    pub name: String,
    /// Index into [`ServeInputs::traces`].
    pub trace: usize,
}

/// What one frame of the mixed workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MixedOp {
    /// `IngestBatch` of the workload's batch size.
    Ingest,
    /// `Map` of the current group.
    Map,
    /// `WhatIf` with a snapshot the shard has not memoized.
    WhatIfFresh,
    /// The previous `WhatIf` again (memo hit unless an ingest cleared
    /// it).
    WhatIfRepeat,
    /// `Explain` of the current group.
    Explain,
    /// `Metrics`.
    Metrics,
}

/// Inputs of the four server workloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeInputs {
    /// Recorded snapshot traces, [`TRACE_EPOCHS`] epochs each.
    pub traces: Vec<Vec<SigSnapshot>>,
    /// Groups per connection.
    pub groups: Vec<Vec<GroupInput>>,
    /// Frame schedule each connection cycles through (`serve_mixed`
    /// only; empty means every frame is an ingest).
    pub schedule: Vec<MixedOp>,
}

/// Record [`TRACE_EPOCHS`] snapshots of `names` running on a
/// `domains`-domain machine, one per scheduling quantum (signature
/// samples refresh at context switches, so a shorter interval would
/// repeat samples).
fn record_trace(names: &[&str], domains: usize, machine_seed: u64) -> Vec<SigSnapshot> {
    let cfg = MachineConfig::scaled_multidomain(machine_seed, domains);
    let mut machine = Machine::new(cfg);
    for n in names {
        machine.add_process(&spec(n));
    }
    machine.start(None);
    (0..TRACE_EPOCHS as u64)
        .map(|seq| {
            machine.run_for(cfg.quantum);
            machine
                .export_snapshot("recorded", seq)
                .expect("the recording machine has runnable processes")
        })
        .collect()
}

impl ServeInputs {
    /// `mixes` seeded mixes of two processes per core on a
    /// `domains`-domain machine, `groups_per_conn` groups on each of
    /// `conns` connections spread over `tenants` tenants (0 = untenanted
    /// names), and — when `mixed` — a seeded 70 % ingest / 30 % read
    /// schedule.
    pub fn new(
        seed: u64,
        domains: usize,
        mixes: usize,
        conns: usize,
        groups_per_conn: usize,
        tenants: usize,
        mixed: bool,
    ) -> ServeInputs {
        let mut rng = SplitMix64::new(seed);
        let procs = 4 * domains;
        let traces = (0..mixes)
            .map(|_| {
                let mut names = spec2006::pool_names();
                shuffle(&mut names, &mut rng);
                record_trace(&names[..procs], domains, rng.next_u64() >> 1)
            })
            .collect();
        let tag = rng.next_u64() & 0xffff;
        let groups = (0..conns)
            .map(|c| {
                (0..groups_per_conn)
                    .map(|i| {
                        let base = format!("g{tag:04x}-c{c}-{i}");
                        GroupInput {
                            name: match tenants {
                                0 => base,
                                n => format!("tenant{}/{base}", (c * groups_per_conn + i) % n),
                            },
                            trace: (rng.next_u64() % mixes as u64) as usize,
                        }
                    })
                    .collect()
            })
            .collect();
        let schedule = if mixed {
            // 100 frames: 70 ingests and 30 reads, order by seed. Each
            // repeated what-if directly follows the fresh one it repeats,
            // so whether it hits the shard's memo depends only on what
            // the other connection ingests in between.
            let mut ops = vec![MixedOp::Ingest; 70];
            for (op, n) in [
                (MixedOp::Map, 10),
                (MixedOp::WhatIfFresh, 5),
                (MixedOp::Explain, 5),
                (MixedOp::Metrics, 5),
            ] {
                ops.extend(std::iter::repeat_n(op, n));
            }
            shuffle(&mut ops, &mut rng);
            ops.into_iter()
                .flat_map(|op| match op {
                    MixedOp::WhatIfFresh => vec![op, MixedOp::WhatIfRepeat],
                    _ => vec![op],
                })
                .collect()
        } else {
            Vec::new()
        };
        ServeInputs {
            traces,
            groups,
            schedule,
        }
    }
}
