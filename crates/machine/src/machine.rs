//! The multi-core machine engine.

use crate::config::{MachineConfig, VirtConfig};
use crate::mapping::Mapping;
use crate::sched::SchedLane;
use crate::thread::{ProcView, Thread, ThreadView};
use crate::timing::TimingModel;
use serde::{Deserialize, Serialize};
use symbio_cache::{AccessLevel, Address, CoreChannel, DomainMem, Dram, MemorySystem};
use symbio_cbf::{CacheEventSink, NullSink, SignatureSample, SignatureUnit};
use symbio_workloads::{Op, Pattern, ThreadSpec, WorkloadGen, WorkloadSpec};

/// Shift applied to `pid + 1` to namespace each process's address space.
const ASID_SHIFT: u32 = 44;
/// Page size for the translation model (4 KiB).
const PAGE_SHIFT: u32 = 12;
/// Physical page-frame number mask (40-bit physical space).
const PFN_MASK: u64 = (1 << 28) - 1;

/// Advance `state` (xorshift64) and draw a scheduling quantum with ±50 %
/// deterministic jitter, uniform in [base/2, 3·base/2]. Each cache
/// domain's lane draws from its own stream.
///
/// Real machines' per-core schedulers drift relative to each other
/// (timer skew, interrupts, syscalls); without jitter the simulated
/// cores rotate their run queues in perfect lockstep and the identity
/// of the *concurrently running* co-runner is frozen by initial queue
/// phase — which makes two of the three 4-on-2 mappings behaviourally
/// identical and defeats the contention analysis. Jitter restores the
/// drift so a time-shared pair faces every other-core process in turn.
/// The jitter is wide because simulated runs span only a handful of
/// quanta, where a real benchmark spans ~10^3 — phase mixing must happen
/// correspondingly faster.
#[inline]
fn jittered(state: &mut u64, base: u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    let span = base; // +/- 50%
    if span == 0 {
        return base.max(1);
    }
    base - span / 2 + *state % span
}

/// Context-switch cost for a configuration (timing model plus the VM
/// entry/exit surcharge when virtualized).
#[inline]
fn switch_cost_of(cfg: &MachineConfig) -> u64 {
    cfg.timing.context_switch + cfg.virt.map_or(0, |v| v.vm_switch_extra)
}

/// Deterministic vpage→pfn scatter (SplitMix64 finalizer). Stands in for
/// the OS page allocator: virtually-contiguous pages land on effectively
/// random frames, so cache-set usage is uniform per process.
#[inline]
fn translate_page(vpage: u64) -> u64 {
    let mut z = vpage.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) & PFN_MASK
}

/// How a thread's generator is rebuilt when its run completes and the
/// benchmark is restarted (the paper restarts co-runners until the longest
/// benchmark finishes).
#[derive(Debug, Clone)]
enum GenFactory {
    Single(WorkloadSpec),
    Multi(ThreadSpec, usize),
}

impl GenFactory {
    fn make(&self, seed: u64) -> WorkloadGen {
        match self {
            GenFactory::Single(spec) => spec.instantiate(seed),
            GenFactory::Multi(spec, inner) => spec.instantiate(seed, *inner),
        }
    }
}

/// Result of one process in a measurement run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcOutcome {
    /// Process id.
    pub pid: usize,
    /// Workload name.
    pub name: String,
    /// User time: summed cycles its threads executed up to each thread's
    /// first completion (the `time(1)` "user" figure the paper tabulates).
    pub user_cycles: u64,
    /// Wall clock (core time) at which the process finished its first run.
    pub wall_cycles: u64,
}

/// Result of [`Machine::run_to_completion`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Whether every gating process completed at least one run.
    pub completed: bool,
    /// Frontier clock when the run stopped.
    pub wall_cycles: u64,
    /// Per-process outcomes (gating processes only), pid order.
    pub procs: Vec<ProcOutcome>,
    /// Total L2 accesses across every thread of the run (observability:
    /// feeds the sweep engine's throughput counters).
    pub l2_accesses: u64,
    /// Total L2 misses across every thread of the run.
    pub l2_misses: u64,
}

impl RunOutcome {
    /// User time of a process by name.
    pub fn user_time(&self, name: &str) -> Option<u64> {
        self.procs
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.user_cycles)
    }
}

/// Execute exactly one operation of thread `t` against its pre-resolved
/// memory channel: cost model, memory system, virtualization tax,
/// retirement and completion-restart. Returns `(cost, gating_first)`.
///
/// This is *the* op semantics — the batched lane loop ([`hot_run`]) and
/// the per-op reference stepper the tests compare it against both execute
/// through here, so they cannot drift apart. The caller owns quantum
/// accounting (the only piece that differs between them).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn exec_one<S: CacheEventSink + ?Sized>(
    t: &mut Thread,
    factory: &GenFactory,
    chan: &mut CoreChannel<'_>,
    sink: &mut S,
    clock: &mut u64,
    virt: Option<VirtConfig>,
    timing: TimingModel,
    paging: bool,
) -> (u64, bool) {
    let op = t.gen.next_op();
    let instrs = op.instructions();
    let mut cost = match op {
        Op::Compute(n) => u64::from(n),
        Op::Load(a) | Op::Store(a) => {
            let va = a | ((t.pid as u64 + 1) << ASID_SHIFT);
            let addr = if paging {
                // One-entry memo: translation is a pure hash of the vpage,
                // so reusing the thread's last pair is output-invariant.
                let vpage = va >> PAGE_SHIFT;
                let pfn = if t.tlb_vpage == vpage {
                    t.tlb_pfn
                } else {
                    let pfn = translate_page(vpage);
                    t.tlb_vpage = vpage;
                    t.tlb_pfn = pfn;
                    pfn
                };
                Address((pfn << PAGE_SHIFT) | (va & ((1 << PAGE_SHIFT) - 1)))
            } else {
                Address(va)
            };
            let resp = chan.access(addr, op.is_write(), *clock, sink);
            t.mem_ops += 1;
            if resp.level != AccessLevel::L1 {
                t.l2_accesses += 1;
                if resp.level == AccessLevel::Memory {
                    t.l2_misses += 1;
                }
            }
            timing.mem_cost(resp.level, resp.dram_cycles)
        }
    };
    if let Some(v) = virt {
        let acc = t.tax_accum + v.tax_num * instrs;
        cost += acc / v.tax_den;
        t.tax_accum = acc % v.tax_den;
    }
    t.user_cycles += cost;
    t.retired += instrs;
    *clock += cost;
    let mut gating_first = false;
    if t.run_complete() {
        t.completions += 1;
        if t.first_completion_user.is_none() {
            t.first_completion_user = Some(t.user_cycles);
            t.first_completion_wall = Some(*clock);
            gating_first = t.counts_for_completion;
        }
        t.retired = 0;
        let seed = t
            .base_seed
            .wrapping_add(u64::from(t.completions).wrapping_mul(0xBF58476D1CE4E5B9));
        t.gen = factory.make(seed);
    }
    (cost, gating_first)
}

/// The batched hot loop: run ops of one thread back to back while the
/// batch invariants hold, charging the quantum inline instead of through
/// the scheduler each op. Returns true when the quantum expired (the
/// caller runs the context-switch slow path), false when the core clock
/// passed `limit` or — with `stop_on_gating_first` — a gating thread
/// finished its first run. The stops are chosen so the op sequence is
/// cycle-identical to driving [`exec_one`] one op at a time, which
/// `batched_stepping_matches_per_op_reference` checks.
#[allow(clippy::too_many_arguments)]
#[inline]
fn hot_run<S: CacheEventSink + ?Sized>(
    t: &mut Thread,
    factory: &GenFactory,
    chan: &mut CoreChannel<'_>,
    sink: &mut S,
    clock: &mut u64,
    quantum_left: &mut i64,
    virt: Option<VirtConfig>,
    timing: TimingModel,
    paging: bool,
    limit: u64,
    stop_on_gating_first: bool,
) -> bool {
    loop {
        let (cost, gating_first) = exec_one(t, factory, chan, sink, clock, virt, timing, paging);
        *quantum_left -= cost as i64;
        if *quantum_left <= 0 {
            return true;
        }
        if (gating_first && stop_on_gating_first) || *clock > limit {
            return false;
        }
    }
}

/// The simulated machine (see the crate docs for the architecture).
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    /// Everything stepping writes besides the caches and the threads, one
    /// block per cache domain.
    domains: Vec<DomainBlock>,
    /// Global core id → owning cache domain.
    domain_of: Vec<usize>,
    threads: Vec<Thread>,
    factories: Vec<GenFactory>,
    quantum_divisor: Vec<u64>,
    proc_names: Vec<String>,
    proc_threads: Vec<Vec<usize>>,
    gating_procs: usize,
    /// CPUs this process may run on, read once: the worker-count clamp of
    /// [`Machine::run_lanes`] (an affinity query per `run_for` costs more
    /// than a short slice).
    host_cpus: usize,
    sealed: bool,
}

/// One cache domain's share of the machine's stepping state: whatever a
/// lane writes while it steps, other than the caches ([`DomainMem`]) and
/// the threads it carries. Blocks are 128-byte aligned (two 64-byte lines:
/// the adjacent-line prefetcher pulls them in pairs), so no two lanes —
/// possibly on different stepping threads — ever write the same cache line
/// (DESIGN §12, "What a lane may share").
#[derive(Debug)]
#[repr(align(128))]
struct DomainBlock {
    /// Run queues, remaining quanta and clocks of the domain's cores.
    sched: SchedLane,
    /// The domain's signature unit (`None` when the signature is
    /// disabled), sized to the domain's core count and fed domain-local
    /// core ids.
    sig: Option<SignatureUnit>,
    /// The domain's quantum-jitter stream, so lanes stay independent.
    jitter: u64,
    /// Signature-sample buffer: context switches are the most frequent
    /// non-op event, and with this (plus the unit's RBV scratch) they stay
    /// off the allocator entirely.
    scratch: SignatureSample,
    /// Context switches performed on this domain's cores.
    switches: u64,
    /// Hot-loop batches executed by this domain's lane.
    steps: u64,
}

impl DomainBlock {
    /// Sample the signature of `t` as it leaves `core` and fold it into
    /// the thread's context. The domain's bank indexes cores locally; the
    /// sampled per-core vectors therefore stay domain-local, but the core
    /// *label* on the sample is the global id so `ThreadView::last_core`
    /// keeps machine-wide meaning.
    fn take_sample(&mut self, core: usize, t: &mut Thread) {
        if let Some(sig) = &mut self.sig {
            sig.switch_out_into(core - self.sched.cores().start, &mut self.scratch);
            self.scratch.core = core;
            t.sig.update(&self.scratch);
        }
    }
}

impl Machine {
    /// Build an empty machine from a configuration.
    ///
    /// Panics on a structurally invalid configuration; use
    /// [`MachineConfig::validate`] (or the experiment-config builder) to
    /// get a typed error instead.
    pub fn new(cfg: MachineConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid machine configuration: {e}");
        }
        let mem = MemorySystem::new(
            cfg.topology,
            cfg.l1,
            cfg.l2,
            cfg.policy,
            Dram::new(cfg.dram.0, cfg.dram.1),
            cfg.seed,
        );
        let domains = (0..cfg.topology.domains())
            .map(|d| DomainBlock {
                sched: SchedLane::new(cfg.topology.core_range(d)),
                sig: cfg
                    .signature_config_for(cfg.topology.domain(d).cores)
                    .map(SignatureUnit::new),
                // Domain 0 keeps the historical single-stream seeding (and
                // therefore every single-domain golden digest); further
                // domains mix the domain id in.
                jitter: cfg
                    .seed
                    .wrapping_add((d as u64).wrapping_mul(0xA0761D6478BD642F))
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    | 1,
                scratch: SignatureSample::default(),
                switches: 0,
                steps: 0,
            })
            .collect();
        Machine {
            mem,
            domains,
            domain_of: (0..cfg.cores).map(|c| cfg.topology.domain_of(c)).collect(),
            threads: Vec::new(),
            factories: Vec::new(),
            quantum_divisor: Vec::new(),
            proc_names: Vec::new(),
            proc_threads: Vec::new(),
            gating_procs: 0,
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cfg,
            sealed: false,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    fn add_thread_raw(
        &mut self,
        pid: usize,
        factory: GenFactory,
        gating: bool,
        quantum_divisor: u64,
    ) -> usize {
        let tid = self.threads.len();
        let base_seed = self
            .cfg
            .seed
            .wrapping_add((tid as u64 + 1).wrapping_mul(0xD1B54A32D192ED03));
        let gen = factory.make(base_seed);
        self.threads
            .push(Thread::new(tid, pid, gen, base_seed, gating));
        self.factories.push(factory);
        self.quantum_divisor.push(quantum_divisor);
        self.proc_threads[pid].push(tid);
        tid
    }

    /// Add a single-threaded process; returns its pid. Must be called
    /// before [`Machine::start`].
    pub fn add_process(&mut self, spec: &WorkloadSpec) -> usize {
        assert!(!self.sealed, "cannot add processes after start()");
        let pid = self.proc_names.len();
        self.proc_names.push(spec.name.clone());
        self.proc_threads.push(Vec::new());
        self.add_thread_raw(pid, GenFactory::Single(spec.clone()), true, 1);
        self.gating_procs += 1;
        pid
    }

    /// Add a multi-threaded process with `n` threads; returns its pid.
    pub fn add_multithreaded(&mut self, spec: &ThreadSpec, n: usize) -> usize {
        assert!(!self.sealed, "cannot add processes after start()");
        assert!(n >= 1);
        let pid = self.proc_names.len();
        self.proc_names.push(spec.name.clone());
        self.proc_threads.push(Vec::new());
        for inner in 0..n {
            self.add_thread_raw(pid, GenFactory::Multi(spec.clone(), inner), true, 1);
        }
        self.gating_procs += 1;
        pid
    }

    /// Add a non-gating background service (Dom0-style): it runs forever
    /// with a reduced quantum share and does not block completion.
    pub fn add_background(&mut self, spec: &WorkloadSpec, quantum_divisor: u64) -> usize {
        assert!(!self.sealed, "cannot add processes after start()");
        let pid = self.proc_names.len();
        self.proc_names.push(spec.name.clone());
        self.proc_threads.push(Vec::new());
        self.add_thread_raw(
            pid,
            GenFactory::Single(spec.clone()),
            false,
            quantum_divisor.max(1),
        );
        pid
    }

    /// The Dom0 control-domain service workload for the configured L2.
    pub fn dom0_spec(&self) -> WorkloadSpec {
        let l2 = self.cfg.l2.size_bytes;
        WorkloadSpec {
            name: "dom0".into(),
            pattern: Pattern::HotCold {
                hot: l2 / 16,
                cold: l2 / 2,
                hot_prob: 0.7,
            },
            compute_gap: (5, 15),
            write_ratio: 0.3,
            work: u64::MAX / 2,
        }
    }

    /// Seal the process table, place threads on cores (round-robin for
    /// managed threads unless `initial` is given; Dom0 — added here when
    /// the virtualization model asks for it — goes to core 0).
    pub fn start(&mut self, initial: Option<&Mapping>) {
        assert!(!self.sealed, "start() called twice");
        let managed = self.threads.len();
        if self.cfg.virt.is_some_and(|v| v.dom0) {
            let spec = self.dom0_spec();
            self.add_background(&spec, 8);
        }
        self.sealed = true;
        let default = Mapping::round_robin(managed, self.cfg.cores);
        let mapping = initial.unwrap_or(&default);
        assert_eq!(
            mapping.len(),
            managed,
            "initial mapping must cover every managed thread"
        );
        for (tid, core) in mapping.iter() {
            assert!(core < self.cfg.cores);
            self.sched_mut(core).enqueue(core, tid);
        }
        // Background threads (everything after `managed`) go to core 0.
        for tid in managed..self.threads.len() {
            self.sched_mut(0).enqueue(0, tid);
        }
    }

    /// Number of managed (gating) threads — the domain of [`Mapping`]s.
    pub fn managed_threads(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.counts_for_completion)
            .count()
    }

    /// Move threads according to `mapping` (affinity change). Running
    /// threads being migrated are switched out immediately (their signature
    /// sample is taken, and the context-switch cost is charged).
    pub fn apply_mapping(&mut self, mapping: &Mapping) {
        assert!(self.sealed, "start() the machine before remapping");
        for (tid, target) in mapping.iter() {
            debug_assert!(self.threads[tid].counts_for_completion);
            if self.core_of(tid) == Some(target) {
                continue;
            }
            let removed = self.domains.iter_mut().find_map(|b| b.sched.remove(tid));
            if let Some((old_core, true)) = removed {
                let cost = switch_cost_of(&self.cfg);
                let block = &mut self.domains[self.domain_of[old_core]];
                block.take_sample(old_core, &mut self.threads[tid]);
                *block.sched.clock_mut(old_core) += cost;
                block.switches += 1;
            }
            self.sched_mut(target).enqueue(target, tid);
            // A previously idle core inherits the frontier clock so the
            // migrated thread does not "time travel".
            let frontier = self.active_min_clock().unwrap_or(0);
            let sched = self.sched_mut(target);
            if sched.clock(target) < frontier && sched.load(target) == 1 {
                *sched.clock_mut(target) = frontier;
            }
        }
    }

    /// The scheduler lane owning (global) `core`.
    fn sched_mut(&mut self, core: usize) -> &mut SchedLane {
        &mut self.domains[self.domain_of[core]].sched
    }

    /// The core `tid` is currently assigned to, if any.
    fn core_of(&self, tid: usize) -> Option<usize> {
        self.domains.iter().find_map(|b| b.sched.core_of(tid))
    }

    /// Current thread→core assignment of managed threads.
    pub fn current_mapping(&self) -> Mapping {
        let managed = self.managed_threads();
        Mapping::new(
            (0..managed)
                .map(|tid| self.core_of(tid).expect("managed thread placed"))
                .collect(),
        )
    }

    fn active_min_clock(&self) -> Option<u64> {
        self.domains
            .iter()
            .filter_map(|b| b.sched.frontier_core().map(|c| b.sched.clock(c)))
            .min()
    }

    /// The simulation frontier: the smallest clock among active cores (or
    /// the largest clock overall when everything is idle).
    pub fn now(&self) -> u64 {
        self.active_min_clock().unwrap_or_else(|| {
            self.domains
                .iter()
                .flat_map(|b| b.sched.cores().map(|c| b.sched.clock(c)))
                .max()
                .unwrap_or(0)
        })
    }

    /// Run until the frontier advances by `cycles` (or work runs out):
    /// every cache domain's lane steps to the same global target clock;
    /// see [`Machine::run_lanes`].
    pub fn run_for(&mut self, cycles: u64) {
        debug_assert!(self.sealed, "start() the machine first");
        let stop_before = self.now().saturating_add(cycles);
        self.run_lanes(
            LaneGoal {
                stop_before,
                to_completion: false,
            },
            run_lane,
        );
    }

    /// Whether every gating process has completed at least one run.
    pub fn all_complete(&self) -> bool {
        self.threads
            .iter()
            .filter(|t| t.counts_for_completion)
            .all(|t| t.completions >= 1)
    }

    /// Run until every gating process completes once, or `max_cycles` of
    /// frontier progress elapse. Each lane stops when *its own* gating
    /// threads have completed once; see [`Machine::run_lanes`].
    pub fn run_to_completion(&mut self, max_cycles: u64) -> RunOutcome {
        if !self.sealed {
            self.start(None);
        }
        let stop_before = self.now().saturating_add(max_cycles);
        self.run_lanes(
            LaneGoal {
                stop_before,
                to_completion: true,
            },
            run_lane,
        );
        self.outcome()
    }

    /// Step every cache domain to `goal` — the one stepping engine.
    ///
    /// Each domain becomes a [`Lane`]: its [`DomainBlock`] (scheduler
    /// queues, clocks, signature bank, jitter stream, counters), its
    /// [`DomainMem`] (caches and DRAM channel) and the threads placed on
    /// its cores, driven by `step` with a domain-local frontier and batch
    /// limit. Lanes share nothing, so the result depends only on the
    /// domain decomposition: every `step_threads` value (and any
    /// lane→worker assignment) produces bit-identical machines. Threads
    /// are partitioned by their current core and restored afterwards —
    /// affinity changes only ever happen between runs.
    ///
    /// In completion mode each lane stops when *its own* gating threads
    /// have completed once (a lane hosting only background threads does
    /// not run at all — there is no global frontier to pace it against).
    ///
    /// `step` is [`run_lane`] everywhere outside the tests, which pass the
    /// per-op reference stepper to check the batched loop against.
    fn run_lanes(
        &mut self,
        goal: LaneGoal,
        step: impl Fn(&mut Lane<'_>, LaneGoal, LaneCtx<'_>) + Copy + Send,
    ) {
        let domains = self.domains.len();
        let n = self.threads.len();
        let lane_of: Vec<usize> = (0..n)
            .map(|tid| {
                let core = self
                    .core_of(tid)
                    .expect("sealed machine places every thread");
                self.domain_of[core]
            })
            .collect();
        let mut lane_threads: Vec<Vec<(usize, Thread)>> =
            (0..domains).map(|_| Vec::new()).collect();
        let mut idx_of = vec![usize::MAX; n];
        for (tid, t) in self.threads.drain(..).enumerate() {
            let lane = &mut lane_threads[lane_of[tid]];
            idx_of[tid] = lane.len();
            lane.push((tid, t));
        }
        let mut lanes: Vec<Lane<'_>> = self
            .domains
            .iter_mut()
            .zip(self.mem.domains_mut())
            .zip(lane_threads)
            .map(|((block, mem), threads)| Lane {
                block,
                mem,
                threads,
            })
            .collect();
        let ctx = LaneCtx {
            cfg: &self.cfg,
            factories: &self.factories,
            divisors: &self.quantum_divisor,
            idx_of: &idx_of,
        };
        // Never run more workers than the host has CPUs: oversubscribing
        // only adds OS switch thrash, and output is worker-count-invariant,
        // so clamping is free.
        let workers = self.cfg.step_threads.min(domains).min(self.host_cpus);
        if workers <= 1 {
            for lane in &mut lanes {
                step(lane, goal, ctx);
            }
        } else {
            // Static lane→worker partition (lane d → worker d % W). The
            // partition affects wall-clock only, never output, because
            // lanes share no state.
            let mut buckets: Vec<Vec<&mut Lane<'_>>> = (0..workers).map(|_| Vec::new()).collect();
            for (d, lane) in lanes.iter_mut().enumerate() {
                buckets[d % workers].push(lane);
            }
            // The caller is worker 0: one spawn/join less per run, and the
            // kernel cannot leave every stepping thread on one CPU next to
            // a parked caller. The scope joins the others and re-raises a
            // worker's panic.
            std::thread::scope(|s| {
                let mut buckets = buckets.into_iter();
                let own = buckets.next().expect("workers >= 2");
                for bucket in buckets {
                    s.spawn(move || {
                        for lane in bucket {
                            step(lane, goal, ctx);
                        }
                    });
                }
                for lane in own {
                    step(lane, goal, ctx);
                }
            });
        }
        // Lane state was written in place through disjoint borrows; only
        // the thread table needs reassembling.
        let mut slots: Vec<Option<Thread>> = (0..n).map(|_| None).collect();
        for lane in lanes {
            for (tid, t) in lane.threads {
                slots[tid] = Some(t);
            }
        }
        self.threads.extend(
            slots
                .into_iter()
                .map(|s| s.expect("every thread returns from its lane")),
        );
    }

    /// Snapshot the per-process outcome so far.
    pub fn outcome(&self) -> RunOutcome {
        let procs = (0..self.proc_names.len())
            .filter(|&pid| {
                self.proc_threads[pid]
                    .iter()
                    .all(|&t| self.threads[t].counts_for_completion)
            })
            .map(|pid| {
                let tids = &self.proc_threads[pid];
                let user: u64 = tids
                    .iter()
                    .map(|&t| {
                        let th = &self.threads[t];
                        th.first_completion_user.unwrap_or(th.user_cycles)
                    })
                    .sum();
                let wall = tids
                    .iter()
                    .map(|&t| self.threads[t].first_completion_wall.unwrap_or(u64::MAX))
                    .max()
                    .unwrap_or(u64::MAX);
                ProcOutcome {
                    pid,
                    name: self.proc_names[pid].clone(),
                    user_cycles: user,
                    wall_cycles: wall,
                }
            })
            .collect();
        RunOutcome {
            completed: self.all_complete(),
            wall_cycles: self.now(),
            procs,
            l2_accesses: self.threads.iter().map(|t| t.l2_accesses).sum(),
            l2_misses: self.threads.iter().map(|t| t.l2_misses).sum(),
        }
    }

    /// The "syscall" interface of Section 3.2: per-process, per-thread
    /// signature contexts and perf counters for the allocation policies.
    pub fn query_views(&self) -> Vec<ProcView> {
        (0..self.proc_names.len())
            .filter(|&pid| {
                self.proc_threads[pid]
                    .iter()
                    .all(|&t| self.threads[t].counts_for_completion)
            })
            .map(|pid| ProcView {
                pid,
                name: self.proc_names[pid].clone(),
                threads: self.proc_threads[pid]
                    .iter()
                    .map(|&t| {
                        let th = &self.threads[t];
                        ThreadView {
                            tid: th.tid,
                            pid,
                            name: self.proc_names[pid].clone(),
                            occupancy: th.sig.occupancy_ewma,
                            symbiosis: th.sig.symbiosis_ewma.clone(),
                            overlap: th.sig.overlap_ewma.clone(),
                            last_occupancy: th.sig.last_occupancy,
                            last_core: th.sig.last_core,
                            samples: th.sig.samples,
                            filter_len: th.sig.filter_len,
                            l2_miss_rate: th.l2_miss_rate(),
                            l2_misses: th.l2_misses,
                            retired: th.retired,
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    /// Direct access to a thread (tests, figure probes).
    pub fn thread(&self, tid: usize) -> &Thread {
        &self.threads[tid]
    }

    /// Total threads including background.
    pub fn threads_len(&self) -> usize {
        self.threads.len()
    }

    /// Process name by pid.
    pub fn proc_name(&self, pid: usize) -> &str {
        &self.proc_names[pid]
    }

    /// Domain 0's signature unit, when attached (the machine-wide unit on
    /// a single-domain machine — the shape figure probes expect).
    pub fn signature(&self) -> Option<&SignatureUnit> {
        self.signature_of(0)
    }

    /// The signature unit of cache domain `d`, when attached.
    pub fn signature_of(&self, d: usize) -> Option<&SignatureUnit> {
        self.domains.get(d)?.sig.as_ref()
    }

    /// The memory system (footprint ground truth, stats).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Context switches performed.
    pub fn switches(&self) -> u64 {
        self.domains.iter().map(|b| b.switches).sum()
    }

    /// Hot-loop batches executed so far, summed over every domain lane
    /// (engine-internal work, not simulated behaviour).
    pub fn par_domain_steps(&self) -> u64 {
        self.domains.iter().map(|b| b.steps).sum()
    }
}

/// What a run is driving every lane toward.
#[derive(Debug, Clone, Copy)]
struct LaneGoal {
    /// Global clock bound: a lane stops once its frontier reaches it.
    stop_before: u64,
    /// Also stop a lane as soon as its own gating threads have each
    /// completed once (`run_to_completion`).
    to_completion: bool,
}

/// Shared read-only context for domain lanes (configuration and the
/// tid-indexed tables that never change during a run).
#[derive(Clone, Copy)]
struct LaneCtx<'a> {
    cfg: &'a MachineConfig,
    factories: &'a [GenFactory],
    divisors: &'a [u64],
    /// tid → index into the owning lane's `threads` vec.
    idx_of: &'a [usize],
}

/// One cache domain's private slice of the machine, stepped independently
/// of every other domain; see [`Machine::run_lanes`].
struct Lane<'a> {
    block: &'a mut DomainBlock,
    mem: &'a mut DomainMem,
    /// `(tid, thread)` for every thread currently placed on this domain.
    threads: Vec<(usize, Thread)>,
}

impl Lane<'_> {
    /// The largest value `core`'s clock may hold *before* an op such that
    /// the op is one per-op stepping would also execute next: `core` must
    /// still win the frontier tie-break against every other active core
    /// of this domain (whose clocks cannot move during the batch — other
    /// domains are irrelevant because lanes never interact) and stay
    /// below `stop_before`. Requires `clock(core) < stop_before`.
    fn batch_limit(&self, core: usize, stop_before: u64) -> u64 {
        let sched = &self.block.sched;
        let mut limit = stop_before - 1;
        for c in sched.cores() {
            if c != core && sched.has_work(c) {
                // Lower-index cores win ties, so `core` leads only while
                // strictly behind them (their clock is >= 1 here because
                // `core` is currently the frontier).
                let v = if c < core {
                    sched.clock(c) - 1
                } else {
                    sched.clock(c)
                };
                limit = limit.min(v);
            }
        }
        limit
    }

    /// The thread running on `core`, dispatching (and arming a jittered
    /// quantum, cut down for reduced-share background threads) when the
    /// core is between threads.
    fn ensure_current(&mut self, core: usize, ctx: LaneCtx<'_>) -> usize {
        let DomainBlock { sched, jitter, .. } = &mut *self.block;
        match sched.current(core) {
            Some(t) => t,
            None => {
                let quantum = jittered(jitter, ctx.cfg.effective_quantum());
                let t = sched
                    .dispatch(core, quantum)
                    .expect("has_work implies dispatchable");
                let div = ctx.divisors[t];
                if div > 1 {
                    sched.rearm(core, quantum / div);
                }
                t
            }
        }
    }

    /// Quantum expiry: take the signature sample, then preempt — or, for
    /// a solo thread with no one to switch to, just re-arm the quantum.
    fn context_switch(&mut self, core: usize, ctx: LaneCtx<'_>) {
        let block = &mut *self.block;
        let Some(cur) = block.sched.current(core) else {
            return;
        };
        block.take_sample(core, &mut self.threads[ctx.idx_of[cur]].1);
        if block.sched.load(core) > 1 {
            block.sched.preempt(core);
            *block.sched.clock_mut(core) += switch_cost_of(ctx.cfg);
            block.switches += 1;
        } else {
            let base = ctx.cfg.effective_quantum() / ctx.divisors[cur];
            let quantum = jittered(&mut block.jitter, base.max(1));
            block.sched.rearm(core, quantum.max(1));
        }
    }

    /// Run the batched hot loop for `tid` on `core`: every per-op borrow
    /// (thread, memory channel, signature sink, clock, quantum) is
    /// resolved once here, then [`hot_run`] executes ops back to back.
    /// Returns true when the quantum expired.
    fn hot_batch(
        &mut self,
        core: usize,
        tid: usize,
        limit: u64,
        stop_on_gating_first: bool,
        ctx: LaneCtx<'_>,
    ) -> bool {
        let mut chan = self.mem.core_channel(core);
        let t = &mut self.threads[ctx.idx_of[tid]].1;
        let factory = &ctx.factories[tid];
        let DomainBlock { sched, sig, .. } = &mut *self.block;
        let (clock, quantum_left) = sched.hot_cells(core);
        let (virt, timing, paging) = (ctx.cfg.virt, ctx.cfg.timing, ctx.cfg.paging);
        match sig {
            Some(unit) => hot_run(
                t,
                factory,
                &mut chan,
                unit,
                clock,
                quantum_left,
                virt,
                timing,
                paging,
                limit,
                stop_on_gating_first,
            ),
            None => hot_run(
                t,
                factory,
                &mut chan,
                &mut NullSink,
                clock,
                quantum_left,
                virt,
                timing,
                paging,
                limit,
                stop_on_gating_first,
            ),
        }
    }

    /// Whether every gating thread placed on this lane has completed once
    /// (vacuously true for lanes with no gating threads).
    fn all_complete(&self) -> bool {
        self.threads
            .iter()
            .all(|(_, t)| !t.counts_for_completion || t.completions >= 1)
    }
}

/// Drive one lane to its goal. The frontier scan and scheduler lookup are
/// hoisted out of the op loop: while the dispatched thread stays the
/// lane's frontier it runs in [`hot_run`], which breaks only on quantum
/// expiry, on passing [`Lane::batch_limit`], or — in completion mode — at
/// a gating first completion, the only event that can flip
/// [`Lane::all_complete`].
fn run_lane(lane: &mut Lane<'_>, goal: LaneGoal, ctx: LaneCtx<'_>) {
    while !(goal.to_completion && lane.all_complete()) {
        let Some(core) = lane.block.sched.frontier_core() else {
            break;
        };
        if lane.block.sched.clock(core) >= goal.stop_before {
            break;
        }
        let limit = lane.batch_limit(core, goal.stop_before);
        let tid = lane.ensure_current(core, ctx);
        lane.block.steps += 1;
        if lane.hot_batch(core, tid, limit, goal.to_completion, ctx) {
            lane.context_switch(core, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::span;
    use proptest::prelude::*;
    use symbio_cache::Topology;
    use symbio_workloads::spec2006;

    /// Per-op reference for [`run_lane`]: one [`exec_one`] at a time on
    /// the lane's frontier core, the quantum charged through the scheduler
    /// — no batching, no batch limit. Obviously-correct and slow.
    fn reference_lane(lane: &mut Lane<'_>, goal: LaneGoal, ctx: LaneCtx<'_>) {
        while !(goal.to_completion && lane.all_complete()) {
            let Some(core) = lane.block.sched.frontier_core() else {
                break;
            };
            if lane.block.sched.clock(core) >= goal.stop_before {
                break;
            }
            let tid = lane.ensure_current(core, ctx);
            let DomainBlock { sched, sig, .. } = &mut *lane.block;
            let mut null = NullSink;
            let sink: &mut dyn CacheEventSink = match sig {
                Some(unit) => unit,
                None => &mut null,
            };
            let (cost, _) = exec_one(
                &mut lane.threads[ctx.idx_of[tid]].1,
                &ctx.factories[tid],
                &mut lane.mem.core_channel(core),
                sink,
                sched.clock_mut(core),
                ctx.cfg.virt,
                ctx.cfg.timing,
                ctx.cfg.paging,
            );
            if sched.charge(core, cost) {
                lane.context_switch(core, ctx);
            }
        }
    }

    /// Everything a run leaves behind that the simulation defines: core
    /// clocks, switch count, per-thread counters, and the exported
    /// signature vectors down to f64 bit patterns.
    fn observables(m: &Machine) -> Vec<u64> {
        let mut out: Vec<u64> = m
            .domains
            .iter()
            .flat_map(|b| b.sched.cores().map(|c| b.sched.clock(c)))
            .collect();
        out.push(m.switches());
        for t in &m.threads {
            out.extend([
                t.user_cycles,
                t.mem_ops,
                t.l2_accesses,
                t.l2_misses,
                t.retired,
                u64::from(t.completions),
            ]);
        }
        let snap = m.export_snapshot("oracle", 0).expect("threads placed");
        out.push(snap.now_cycles);
        for t in snap.threads() {
            out.extend([
                t.occupancy.to_bits(),
                t.samples,
                u64::from(t.last_occupancy),
            ]);
            out.extend(t.symbiosis.iter().map(|v| v.to_bits()));
            out.extend(t.overlap.iter().map(|v| v.to_bits()));
        }
        out
    }

    proptest! {
        /// The batched lane loop is cycle-identical to stepping one op at
        /// a time, in slice mode (with a remap between slices) and through
        /// to completion, native and virtualized (Dom0's reduced quantum
        /// share included).
        #[test]
        fn batched_stepping_matches_per_op_reference(
            domains in 1usize..5,
            cores_per_domain in 1usize..3,
            seed in 0u64..1_000_000,
            slice in 1u64..120_000,
            vm in any::<bool>(),
        ) {
            let mut cfg = if vm {
                MachineConfig::scaled_vm(seed)
            } else {
                MachineConfig::scaled_core2duo(seed)
            };
            cfg.cores = domains * cores_per_domain;
            cfg.topology = Topology::uniform(domains, cores_per_domain);
            // Short quanta so a slice spans many context switches.
            cfg.quantum = 30_000;
            if let Some(v) = &mut cfg.virt {
                v.quantum = 20_000;
            }
            let build = || {
                let mut m = Machine::new(cfg);
                for i in 0..2 * cfg.cores {
                    m.add_process(&tiny_spec(&format!("p{i}"), 15_000 + 2_000 * i as u64));
                }
                m.start(None);
                m
            };
            let (mut batched, mut reference) = (build(), build());
            let managed = batched.managed_threads();
            // Rotate every thread one core to the right between slices.
            let rotated = Mapping::new((0..managed).map(|t| (t + 1) % cfg.cores).collect());
            for round in 0..3 {
                batched.run_for(slice);
                let stop_before = reference.now().saturating_add(slice);
                reference.run_lanes(
                    LaneGoal { stop_before, to_completion: false },
                    reference_lane,
                );
                prop_assert_eq!(observables(&batched), observables(&reference));
                if round == 1 {
                    batched.apply_mapping(&rotated);
                    reference.apply_mapping(&rotated);
                }
            }
            let out = batched.run_to_completion(2_000_000_000);
            let stop_before = reference.now().saturating_add(2_000_000_000);
            reference.run_lanes(
                LaneGoal { stop_before, to_completion: true },
                reference_lane,
            );
            prop_assert!(out.completed);
            prop_assert_eq!(observables(&batched), observables(&reference));
        }
    }

    /// Layout census (DESIGN §12, "What a lane may share"): everything a
    /// lane writes per op sits in a home — its `DomainBlock`, one block
    /// per core, its `DomainMem`, one block per L1 — that starts and ends
    /// on a 128-byte boundary, so whatever the allocator puts next to a
    /// home, no 128-byte block is written by two domains.
    #[test]
    fn lanes_write_disjoint_cache_blocks() {
        const BLOCK: usize = 128;
        let mut m = Machine::new(MachineConfig::scaled_multidomain(7, 4));
        for i in 0..16 {
            m.add_process(&tiny_spec(&format!("p{i}"), 1_000_000));
        }
        m.start(None);
        m.run_for(100_000);
        let mut owner = std::collections::HashMap::new();
        for (d, block) in m.domains.iter().enumerate() {
            let mem = m.mem.domain(d);
            let mut homes = vec![("DomainBlock", span(block)), ("DomainMem", span(mem))];
            let mut cells = vec![
                ("jitter word", span(&block.jitter)),
                ("scratch header", span(&block.scratch)),
                ("switch counter", span(&block.switches)),
                ("step counter", span(&block.steps)),
                (
                    "SignatureUnit header",
                    span(block.sig.as_ref().expect("signature on")),
                ),
                ("Dram", span(mem.dram())),
                ("L2 header", span(mem.l2())),
            ];
            for core in block.sched.cores() {
                let (core_cells, slot) = block.sched.written_cells(core);
                cells.extend(core_cells);
                homes.push(("core slot", slot));
                cells.push(("L1 header", span(mem.l1(core))));
                homes.push(("L1", span(mem.l1(core))));
            }
            for (name, home) in &homes {
                assert!(
                    home.start % BLOCK == 0 && home.end % BLOCK == 0,
                    "domain {d}: {name} at {home:#x?} does not fill whole {BLOCK}-byte blocks"
                );
            }
            for (name, cell) in cells {
                assert!(
                    homes
                        .iter()
                        .any(|(_, h)| h.start <= cell.start && cell.end <= h.end),
                    "domain {d}: {name} at {cell:#x?} lies outside the domain's blocks"
                );
                for b in cell.start / BLOCK..=(cell.end - 1) / BLOCK {
                    let first = *owner.entry(b).or_insert(d);
                    assert_eq!(
                        first,
                        d,
                        "domains {first} and {d} both write block {:#x} ({name})",
                        b * BLOCK
                    );
                }
            }
        }
    }

    const L2: u64 = 256 << 10;

    fn tiny_spec(name: &str, work: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            pattern: Pattern::RandomUniform { region: 16 << 10 },
            compute_gap: (2, 4),
            write_ratio: 0.2,
            work,
        }
    }

    #[test]
    fn single_process_completes() {
        let mut m = Machine::new(MachineConfig::scaled_core2duo(1));
        m.add_process(&tiny_spec("a", 50_000));
        let out = m.run_to_completion(1_000_000_000);
        assert!(out.completed);
        assert_eq!(out.procs.len(), 1);
        assert!(out.procs[0].user_cycles > 50_000);
    }

    #[test]
    fn four_processes_two_cores_all_complete() {
        let mut m = Machine::new(MachineConfig::scaled_core2duo(2));
        for n in ["a", "b", "c", "d"] {
            m.add_process(&tiny_spec(n, 30_000));
        }
        let out = m.run_to_completion(1_000_000_000);
        assert!(out.completed);
        assert_eq!(out.procs.len(), 4);
        for p in &out.procs {
            assert!(p.user_cycles > 0);
        }
    }

    #[test]
    fn signature_samples_flow_to_contexts() {
        let mut m = Machine::new(MachineConfig::scaled_core2duo(3));
        for n in ["a", "b", "c", "d"] {
            m.add_process(&tiny_spec(n, 10_000_000));
        }
        m.start(None);
        m.run_for(12_000_000);
        let views = m.query_views();
        assert_eq!(views.len(), 4);
        for v in &views {
            let t = &v.threads[0];
            assert!(t.samples > 0, "{} has no signature samples", v.name);
            assert_eq!(t.symbiosis.len(), 2);
        }
    }

    #[test]
    fn multidomain_signature_vectors_are_domain_local() {
        let mut m = Machine::new(MachineConfig::scaled_multidomain(3, 2));
        for n in ["a", "b", "c", "d"] {
            m.add_process(&tiny_spec(n, 10_000_000));
        }
        m.start(None);
        m.run_for(12_000_000);
        assert!(m.signature_of(1).is_some());
        assert!(m.signature_of(2).is_none());
        let views = m.query_views();
        let mut saw_domain_1 = false;
        for v in &views {
            let t = &v.threads[0];
            assert!(t.samples > 0, "{} has no signature samples", v.name);
            assert_eq!(t.symbiosis.len(), 2, "vectors sized to the domain");
            let core = t.last_core.expect("sampled");
            assert!(core < 4, "core label stays global");
            saw_domain_1 |= core >= 2;
        }
        assert!(saw_domain_1, "round-robin spreads threads across domains");
    }

    #[test]
    fn no_signature_unit_when_disabled() {
        let mut m = Machine::new(MachineConfig::scaled_core2duo(1).without_signature());
        m.add_process(&tiny_spec("a", 10_000));
        let _ = m.run_to_completion(100_000_000);
        assert!(m.signature().is_none());
    }

    #[test]
    fn mapping_confines_threads_to_cores() {
        let mut m = Machine::new(MachineConfig::scaled_core2duo(4));
        for n in ["a", "b", "c", "d"] {
            m.add_process(&tiny_spec(n, 10_000_000));
        }
        let map = Mapping::new(vec![0, 0, 1, 1]);
        m.start(Some(&map));
        m.run_for(500_000);
        assert_eq!(m.current_mapping(), map);
    }

    #[test]
    fn remapping_moves_threads() {
        let mut m = Machine::new(MachineConfig::scaled_core2duo(5));
        for n in ["a", "b", "c", "d"] {
            m.add_process(&tiny_spec(n, 10_000_000));
        }
        m.start(None);
        m.run_for(300_000);
        let map = Mapping::new(vec![0, 0, 1, 1]);
        m.apply_mapping(&map);
        m.run_for(300_000);
        assert_eq!(m.current_mapping(), map);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = || {
            let mut m = Machine::new(MachineConfig::scaled_core2duo(9));
            m.add_process(&spec2006::gobmk(L2));
            m.add_process(&spec2006::soplex(L2));
            m.run_to_completion(2_000_000_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.procs[0].user_cycles, b.procs[0].user_cycles);
        assert_eq!(a.procs[1].user_cycles, b.procs[1].user_cycles);
    }

    #[test]
    fn different_seeds_differ() {
        let run = |s| {
            let mut m = Machine::new(MachineConfig::scaled_core2duo(s));
            m.add_process(&tiny_spec("a", 200_000));
            m.run_to_completion(1_000_000_000).procs[0].user_cycles
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn vm_mode_adds_overhead() {
        let native = {
            let mut m = Machine::new(MachineConfig::scaled_core2duo(11));
            m.add_process(&tiny_spec("a", 100_000));
            m.run_to_completion(1_000_000_000).procs[0].user_cycles
        };
        let vm = {
            let mut m = Machine::new(MachineConfig::scaled_vm(11));
            m.add_process(&tiny_spec("a", 100_000));
            m.run_to_completion(1_000_000_000).procs[0].user_cycles
        };
        assert!(
            vm > native + native / 50,
            "VM run ({vm}) should cost visibly more than native ({native})"
        );
    }

    #[test]
    fn dom0_present_only_in_vm_mode() {
        let mut n = Machine::new(MachineConfig::scaled_core2duo(1));
        n.add_process(&tiny_spec("a", 1_000));
        n.start(None);
        assert_eq!(n.threads_len(), 1);

        let mut v = Machine::new(MachineConfig::scaled_vm(1));
        v.add_process(&tiny_spec("a", 1_000));
        v.start(None);
        assert_eq!(v.threads_len(), 2, "dom0 added");
        assert_eq!(v.proc_name(1), "dom0");
        // Dom0 never gates completion.
        let out = v.run_to_completion(1_000_000_000);
        assert!(out.completed);
        assert_eq!(out.procs.len(), 1);
    }

    #[test]
    fn multithreaded_process_completes() {
        use symbio_workloads::parsec;
        let mut m = Machine::new(MachineConfig::scaled_core2duo(21));
        let mut spec = parsec::swaptions(L2);
        spec.work = 50_000;
        m.add_multithreaded(&spec, 4);
        let out = m.run_to_completion(2_000_000_000);
        assert!(out.completed);
        assert_eq!(out.procs.len(), 1);
        // Four threads' user time summed.
        assert!(out.procs[0].user_cycles >= 4 * 50_000);
    }

    #[test]
    fn co_scheduling_on_one_core_serialises() {
        // Two threads pinned to core 0 while core 1 idles: wall time must
        // be ~2x each thread's user time.
        let mut m = Machine::new(MachineConfig::scaled_core2duo(31));
        m.add_process(&tiny_spec("a", 200_000));
        m.add_process(&tiny_spec("b", 200_000));
        m.start(Some(&Mapping::new(vec![0, 0])));
        let out = m.run_to_completion(1_000_000_000);
        assert!(out.completed);
        let total_user: u64 = out.procs.iter().map(|p| p.user_cycles).sum();
        let wall = out.procs.iter().map(|p| p.wall_cycles).max().unwrap();
        assert!(
            wall >= total_user * 9 / 10,
            "wall {wall} should approach summed user {total_user}"
        );
        assert!(m.switches() > 0);
    }
}
