//! The two-phase evaluation pipeline (Section 4, Figure 9).

use crate::config::ExperimentConfig;
use crate::memo::{mix_key, MeasureCache, MeasureParams, ProfileParams, RunKind};
use crate::mixes::candidate_mappings;
use crate::obs::Counters;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use symbio_allocator::AllocationPolicy;
use symbio_machine::{
    Machine, MachineConfig, Mapping, ProcView, RunOutcome, SigSnapshot, ThreadView,
};
use symbio_workloads::{ThreadSpec, WorkloadSpec};

/// Marks a thread the signature unit has not sampled yet (`last_core`
/// is `None`) in a [`ProfileTrace`] word.
const NO_CORE: u64 = u64::MAX;

/// Phase 1's observable output: the signature views the allocator is
/// shown at every `interval` of a profiling run, plus the shape of the
/// machine that produced them.
///
/// Profiling is observe-only, so this stream depends on the mix and the
/// machine but never on the policy: [`Pipeline::vote`] replays it through
/// any number of policies, and a memoized pipeline records it once per
/// mix. Ticks are stored flat — one `u64` per numeric field (floats by
/// bit pattern, so a replay is exact) and one name per process — and the
/// views are rebuilt on demand, which keeps a cached recording to a few
/// kilobytes and a handful of allocations.
#[derive(Debug)]
pub struct ProfileTrace {
    cores: usize,
    domains: Vec<usize>,
    managed: usize,
    /// Process names by pid; a thread's view carries its process's name.
    names: Vec<String>,
    /// Ticks back to back. Per tick: `now`, process count, then per
    /// process `pid`, thread count and per thread `tid`, `occupancy`,
    /// `last_occupancy`, `last_core`, `samples`, `filter_len`,
    /// `l2_miss_rate`, `l2_misses`, `retired`, then the symbiosis and
    /// overlap vectors, each prefixed by its length.
    words: Vec<u64>,
}

impl ProfileTrace {
    fn new(machine: &Machine) -> Self {
        ProfileTrace {
            cores: machine.config().cores,
            domains: machine.config().topology.domain_counts(),
            managed: machine.managed_threads(),
            names: Vec::new(),
            words: Vec::new(),
        }
    }

    fn push(&mut self, now: u64, views: &[ProcView]) {
        let w = &mut self.words;
        w.extend([now, views.len() as u64]);
        for p in views {
            if self.names.len() <= p.pid {
                self.names.resize(p.pid + 1, String::new());
            }
            if self.names[p.pid].is_empty() {
                self.names[p.pid].clone_from(&p.name);
            }
            w.extend([p.pid as u64, p.threads.len() as u64]);
            for t in &p.threads {
                debug_assert!(t.pid == p.pid && t.name == p.name);
                w.extend([
                    t.tid as u64,
                    t.occupancy.to_bits(),
                    u64::from(t.last_occupancy),
                    t.last_core.map_or(NO_CORE, |c| c as u64),
                    t.samples,
                    t.filter_len as u64,
                    t.l2_miss_rate.to_bits(),
                    t.l2_misses,
                    t.retired,
                ]);
                for v in [&t.symbiosis, &t.overlap] {
                    w.push(v.len() as u64);
                    w.extend(v.iter().map(|x| x.to_bits()));
                }
            }
        }
    }

    /// Rebuild the ticks in order: each tick's frontier time and the
    /// views the allocator was shown.
    fn ticks(&self) -> impl Iterator<Item = (u64, Vec<ProcView>)> + '_ {
        let mut words = self.words.iter().copied();
        std::iter::from_fn(move || {
            let now = words.next()?;
            Some((now, self.views(&mut words)))
        })
    }

    fn views(&self, words: &mut impl Iterator<Item = u64>) -> Vec<ProcView> {
        let mut next = || words.next().expect("well-formed trace");
        (0..next())
            .map(|_| {
                let pid = next() as usize;
                let name = &self.names[pid];
                let threads = (0..next())
                    .map(|_| {
                        let tid = next() as usize;
                        let occupancy = f64::from_bits(next());
                        let last_occupancy = next() as u32;
                        let last_core = Some(next()).filter(|&c| c != NO_CORE).map(|c| c as usize);
                        let samples = next();
                        let filter_len = next() as usize;
                        let l2_miss_rate = f64::from_bits(next());
                        let l2_misses = next();
                        let retired = next();
                        let mut floats = || (0..next()).map(|_| f64::from_bits(next())).collect();
                        let symbiosis = floats();
                        let overlap = floats();
                        ThreadView {
                            tid,
                            pid,
                            name: name.clone(),
                            occupancy,
                            symbiosis,
                            overlap,
                            last_occupancy,
                            last_core,
                            samples,
                            filter_len,
                            l2_miss_rate,
                            l2_misses,
                            retired,
                        }
                    })
                    .collect();
                ProcView {
                    pid,
                    name: name.clone(),
                    threads,
                }
            })
            .collect()
    }

    /// The recording as the online subsystem's wire type: one
    /// [`SigSnapshot`] per tick under `group`, numbered from 0 and stamped
    /// with the tick's frontier time and the machine's topology — what
    /// `Machine::export_snapshot` returns at the same points.
    pub fn snapshots(&self, group: &str) -> Vec<SigSnapshot> {
        self.ticks()
            .enumerate()
            .map(|(seq, (now_cycles, procs))| SigSnapshot {
                group: group.to_string(),
                seq: seq as u64,
                now_cycles,
                cores: self.cores,
                domains: self.domains.clone(),
                procs,
            })
            .collect()
    }
}

/// Outcome of the profiling phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileResult {
    /// The majority mapping (the paper applies the mapping "picked by the
    /// simulated allocator the majority of the times").
    pub winner: Mapping,
    /// Vote count per distinct partition the allocator proposed, most
    /// votes first; equal counts in the order first proposed (so the
    /// winner of a tie is the oldest).
    pub votes: Vec<(Mapping, u32)>,
    /// Allocator invocations performed.
    pub invocations: u32,
    /// Signature views at the end of profiling — the machine-snapshot
    /// side of the unified evaluation engine's [`SignatureSource`]
    /// input, so the sweep can score reference mappings with the same
    /// model the online engine gates remaps with.
    ///
    /// [`SignatureSource`]: symbio_eval::SignatureSource
    pub views: Vec<ProcView>,
}

/// Fully-evaluated mix: every candidate mapping measured, plus the mapping
/// the policy chose.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixResult {
    /// Benchmark names, pid order.
    pub names: Vec<String>,
    /// Candidate mappings (phase-2 measurement targets).
    pub mappings: Vec<Mapping>,
    /// `user_cycles[mapping_idx][pid]`.
    pub user_cycles: Vec<Vec<u64>>,
    /// Index into `mappings` of the policy's majority choice.
    pub chosen: usize,
    /// Name of the policy that chose.
    pub policy: String,
    /// Predicted internalized-interference fraction of each mapping
    /// ([`symbio_eval::internalized_fraction`] over the end-of-profiling
    /// views), index-aligned with `mappings`. Empty when no profiling
    /// views were available. Advisory: `user_cycles` stays the measured
    /// truth.
    pub predicted: Vec<f64>,
}

impl MixResult {
    /// Worst (largest) user time of `pid` across mappings.
    pub fn worst_of(&self, pid: usize) -> u64 {
        self.user_cycles.iter().map(|m| m[pid]).max().unwrap_or(0)
    }

    /// Best (smallest) user time of `pid` across mappings.
    pub fn best_of(&self, pid: usize) -> u64 {
        self.user_cycles.iter().map(|m| m[pid]).min().unwrap_or(0)
    }

    /// The paper's headline metric: improvement of the chosen mapping over
    /// the worst-case mapping for `pid`, in `[0, 1]`.
    pub fn improvement_vs_worst(&self, pid: usize) -> f64 {
        let worst = self.worst_of(pid) as f64;
        let chosen = self.user_cycles[self.chosen][pid] as f64;
        if worst <= 0.0 {
            0.0
        } else {
            (worst - chosen) / worst
        }
    }

    /// How much of the oracle-best improvement the policy captured for
    /// `pid` (1 = picked the best mapping for this benchmark).
    pub fn oracle_fraction(&self, pid: usize) -> f64 {
        let worst = self.worst_of(pid) as f64;
        let best = self.best_of(pid) as f64;
        if worst <= best {
            1.0
        } else {
            (worst - self.user_cycles[self.chosen][pid] as f64) / (worst - best)
        }
    }

    /// Render a Table 1-style grid (benchmarks × mappings, user times).
    pub fn table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{:<14}", "benchmark"));
        for m in &self.mappings {
            let key = m
                .partition_key(2)
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|&t| char::from(b'A' + t as u8).to_string())
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
                .join("&");
            s.push_str(&format!("{key:>12}"));
        }
        s.push('\n');
        for (pid, name) in self.names.iter().enumerate() {
            s.push_str(&format!("{name:<14}"));
            for (mi, _) in self.mappings.iter().enumerate() {
                s.push_str(&format!("{:>12}", self.user_cycles[mi][pid]));
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "chosen by {}: mapping #{}\n",
            self.policy, self.chosen
        ));
        s
    }
}

/// The two-phase pipeline bound to an [`ExperimentConfig`].
///
/// A pipeline owns (shares, via `Arc`) two pieces of engine state:
/// optional measurement memoization and the observability counters.
/// Cloning a pipeline shares both, so every worker of a sweep reports to
/// one ledger and draws from one cache.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Experiment parameters.
    pub cfg: ExperimentConfig,
    memo: Option<Arc<MeasureCache>>,
    counters: Arc<Counters>,
}

impl Pipeline {
    /// Create a pipeline with no memoization and fresh counters.
    pub fn new(cfg: ExperimentConfig) -> Self {
        Pipeline {
            cfg,
            memo: None,
            counters: Arc::new(Counters::new()),
        }
    }

    /// Share simulations through `cache`: identical profiling runs (same
    /// machine template, specs, profile length and interval) are recorded
    /// once and voted over by every policy, and identical phase-2 runs
    /// (same machine template, measurement parameters, specs and mapping)
    /// are simulated once; both are replayed from the cache afterwards.
    pub fn with_memo(mut self, cache: Arc<MeasureCache>) -> Self {
        self.memo = Some(cache);
        self
    }

    /// Report engine statistics to `counters` instead of a private ledger.
    pub fn with_counters(mut self, counters: Arc<Counters>) -> Self {
        self.counters = counters;
        self
    }

    /// The counters this pipeline reports to.
    pub fn counters(&self) -> &Arc<Counters> {
        &self.counters
    }

    /// The measurement cache, if memoization is enabled.
    pub fn memo(&self) -> Option<&Arc<MeasureCache>> {
        self.memo.as_ref()
    }

    fn profiling_machine_cfg(&self) -> MachineConfig {
        self.cfg.machine
    }

    fn measurement_machine_cfg(&self, repeat: u32) -> MachineConfig {
        let mut m = self.cfg.machine.without_signature();
        m.seed = m
            .seed
            .wrapping_add(self.cfg.measure_seed_offset)
            .wrapping_add(u64::from(repeat).wrapping_mul(0xA076_1D64_78BD_642F));
        m
    }

    /// Average per-process user cycles across `measure_repeats` runs.
    fn averaged<F>(&self, run_once: F) -> RunOutcome
    where
        F: Fn(MachineConfig) -> RunOutcome,
    {
        let repeats = self.cfg.measure_repeats.max(1);
        let mut acc: Option<RunOutcome> = None;
        for r in 0..repeats {
            let out = run_once(self.measurement_machine_cfg(r));
            Counters::add(&self.counters.sim_runs, 1);
            Counters::add(&self.counters.sim_cycles, out.wall_cycles);
            Counters::add(&self.counters.l2_accesses, out.l2_accesses);
            Counters::add(&self.counters.l2_misses, out.l2_misses);
            match &mut acc {
                None => acc = Some(out),
                Some(a) => {
                    for (ap, op) in a.procs.iter_mut().zip(&out.procs) {
                        ap.user_cycles += op.user_cycles;
                        ap.wall_cycles = ap.wall_cycles.max(op.wall_cycles);
                    }
                    a.wall_cycles = a.wall_cycles.max(out.wall_cycles);
                    a.completed &= out.completed;
                }
            }
        }
        let mut a = acc.expect("repeats >= 1");
        for p in &mut a.procs {
            p.user_cycles /= u64::from(repeats);
        }
        a
    }

    /// **Phase 1** for single-threaded processes: the majority vote of
    /// `policy` over the mix's signature stream ([`Pipeline::vote`] over
    /// [`Pipeline::record`]; with a memo attached the stream is recorded
    /// once per mix and shared by every policy).
    pub fn profile(
        &self,
        specs: &[WorkloadSpec],
        policy: &mut dyn AllocationPolicy,
    ) -> ProfileResult {
        let trace = self.recorded(RunKind::SingleThreaded, specs, || self.record(specs));
        Self::vote(&trace, policy)
    }

    /// **Phase 1** for multi-threaded applications (`threads` each).
    pub fn profile_multithreaded(
        &self,
        specs: &[ThreadSpec],
        threads: usize,
        policy: &mut dyn AllocationPolicy,
    ) -> ProfileResult {
        let trace = self.recorded(RunKind::MultiThreaded(threads), specs, || {
            self.record_multithreaded(specs, threads)
        });
        Self::vote(&trace, policy)
    }

    /// Record the phase-1 signature stream of single-threaded processes:
    /// run the mix under the signature unit for `profile_cycles` and
    /// capture the views at every `interval`. Always simulates; see
    /// [`Pipeline::profile`] for the memoized path.
    pub fn record(&self, specs: &[WorkloadSpec]) -> ProfileTrace {
        let mut machine = Machine::new(self.profiling_machine_cfg());
        for s in specs {
            machine.add_process(s);
        }
        self.record_machine(machine)
    }

    /// [`Pipeline::record`] for multi-threaded applications (`threads`
    /// each).
    pub fn record_multithreaded(&self, specs: &[ThreadSpec], threads: usize) -> ProfileTrace {
        let mut machine = Machine::new(self.profiling_machine_cfg());
        for s in specs {
            machine.add_multithreaded(s, threads);
        }
        self.record_machine(machine)
    }

    fn record_machine(&self, mut machine: Machine) -> ProfileTrace {
        machine.start(None);
        let mut trace = ProfileTrace::new(&machine);
        let deadline = machine.now() + self.cfg.profile_cycles;
        self.counters
            .note_step_threads(self.cfg.machine.step_threads);
        while machine.now() < deadline {
            let t0 = std::time::Instant::now();
            machine.run_for(self.cfg.interval.min(deadline - machine.now()));
            Counters::add(
                &self.counters.quantum_step_ns,
                t0.elapsed().as_nanos() as u64,
            );
            trace.push(machine.now(), &machine.query_views());
        }
        Counters::add(&self.counters.profile_runs, 1);
        Counters::add(&self.counters.sim_cycles, machine.now());
        Counters::add(&self.counters.par_domain_steps, machine.par_domain_steps());
        trace
    }

    /// The recording of this mix: from the memo when one is attached and
    /// already holds it, otherwise from `record`.
    fn recorded(
        &self,
        kind: RunKind,
        key_specs: &[impl Serialize],
        record: impl FnOnce() -> ProfileTrace,
    ) -> Arc<ProfileTrace> {
        match &self.memo {
            None => Arc::new(record()),
            Some(cache) => cache.get_or_record(
                mix_key(&self.cfg.machine, kind, key_specs),
                ProfileParams {
                    cycles: self.cfg.profile_cycles,
                    interval: self.cfg.interval,
                },
                record,
            ),
        }
    }

    /// Replay a recording through `policy`, one `allocate` call per tick,
    /// and return the majority vote. The views of the last tick become
    /// [`ProfileResult::views`].
    pub fn vote(trace: &ProfileTrace, policy: &mut dyn AllocationPolicy) -> ProfileResult {
        let cores = trace.cores;
        // Tallied in first-seen order so a tied vote has one winner per
        // seed (a hash map's iteration order differs between runs).
        let mut votes: Vec<(Vec<Vec<usize>>, Mapping, u32)> = Vec::new();
        let mut invocations = 0;
        let mut views = Vec::new();
        for (_, tick) in trace.ticks() {
            views = tick;
            invocations += 1;
            let mapping = policy.allocate(&views, cores);
            let key = mapping.partition_key(cores);
            match votes.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, _, count)) => *count += 1,
                None => votes.push((key, mapping, 1)),
            }
        }
        let mut votes: Vec<(Mapping, u32)> = votes.into_iter().map(|(_, m, c)| (m, c)).collect();
        // Stable sort: equal counts stay oldest-first, the tie-break the
        // online engine's window majority uses.
        votes.sort_by_key(|v| std::cmp::Reverse(v.1));
        let winner = votes
            .first()
            .map(|(m, _)| m.clone())
            .unwrap_or_else(|| Mapping::round_robin(trace.managed, cores));
        ProfileResult {
            winner,
            votes,
            invocations,
            views,
        }
    }

    /// Score each mapping with the unified evaluation engine: the
    /// fraction of total pairwise interference it internalizes over
    /// `views` (the occupancy-weighted overlap model the default
    /// policies optimize). Index-aligned with `mappings`.
    pub fn predicted_scores(views: &[ProcView], mappings: &[Mapping]) -> Vec<f64> {
        let threads: Vec<&ThreadView> = views.iter().flat_map(|p| &p.threads).collect();
        mappings
            .iter()
            .map(|m| {
                symbio_eval::internalized_fraction(
                    symbio_eval::InterferenceMetric::Overlap,
                    true,
                    &threads,
                    m,
                )
            })
            .collect()
    }

    /// Route a measurement through the memo cache when one is attached.
    fn memoized(
        &self,
        kind: RunKind,
        key_specs: &[impl serde::Serialize],
        mapping: &Mapping,
        compute: impl FnOnce() -> RunOutcome,
    ) -> RunOutcome {
        match &self.memo {
            None => compute(),
            Some(cache) => cache.get_or_compute(
                mix_key(&self.cfg.machine, kind, key_specs),
                MeasureParams {
                    max_cycles: self.cfg.measure_max_cycles,
                    seed_offset: self.cfg.measure_seed_offset,
                    repeats: self.cfg.measure_repeats,
                    mapping: mapping.clone(),
                },
                &self.counters,
                compute,
            ),
        }
    }

    /// **Phase 2**: run the mix to completion under `mapping` with the
    /// signature unit off (the "real machine" run), averaged over
    /// `measure_repeats` independent seeds. With a memo cache attached
    /// (see [`Pipeline::with_memo`]) repeated identical measurements are
    /// simulated once.
    pub fn measure(&self, specs: &[WorkloadSpec], mapping: &Mapping) -> RunOutcome {
        self.memoized(RunKind::SingleThreaded, specs, mapping, || {
            self.averaged(|cfg| {
                let mut machine = Machine::new(cfg);
                for s in specs {
                    machine.add_process(s);
                }
                machine.start(Some(mapping));
                let out = machine.run_to_completion(self.cfg.measure_max_cycles);
                assert!(
                    out.completed,
                    "measurement run did not complete within {} cycles",
                    self.cfg.measure_max_cycles
                );
                Counters::add(&self.counters.par_domain_steps, machine.par_domain_steps());
                out
            })
        })
    }

    /// **Phase 2** for multi-threaded applications (averaged and memoized
    /// like [`Pipeline::measure`]).
    pub fn measure_multithreaded(
        &self,
        specs: &[ThreadSpec],
        threads: usize,
        mapping: &Mapping,
    ) -> RunOutcome {
        self.memoized(RunKind::MultiThreaded(threads), specs, mapping, || {
            self.averaged(|cfg| {
                let mut machine = Machine::new(cfg);
                for s in specs {
                    machine.add_multithreaded(s, threads);
                }
                machine.start(Some(mapping));
                let out = machine.run_to_completion(self.cfg.measure_max_cycles);
                assert!(out.completed, "multithreaded measurement did not complete");
                Counters::add(&self.counters.par_domain_steps, machine.par_domain_steps());
                out
            })
        })
    }

    /// Enumerate the phase-2 candidate mappings for `p` single-threaded
    /// processes on this machine.
    pub fn candidates(&self, p: usize) -> Vec<Mapping> {
        candidate_mappings(p, self.cfg.machine.cores)
    }

    /// Check that a mix of `got` processes evaluates meaningfully on this
    /// machine: every core must receive the same number of processes, so
    /// the mix size must be a positive multiple of the core count.
    pub fn check_mix_size(&self, got: usize) -> crate::Result<()> {
        let cores = self.cfg.machine.cores;
        if got == 0 || !got.is_multiple_of(cores) {
            return Err(crate::Error::MixSize {
                expected: format!("mix must be a positive multiple of {cores} cores"),
                got,
            });
        }
        Ok(())
    }

    /// Full two-phase evaluation of one mix under one policy: profile,
    /// measure every candidate mapping, locate the chosen one.
    pub fn evaluate_mix(
        &self,
        specs: &[WorkloadSpec],
        policy: &mut dyn AllocationPolicy,
    ) -> crate::Result<MixResult> {
        self.check_mix_size(specs.len())?;
        let profile = self.profile(specs, policy);
        let mut result = self.evaluate_mix_with_choice(specs, &profile.winner, policy.name())?;
        result.predicted = Self::predicted_scores(&profile.views, &result.mappings);
        Ok(result)
    }

    /// Evaluate a mix given an externally-decided mapping (lets several
    /// policies share one set of measured mappings).
    pub fn evaluate_mix_with_choice(
        &self,
        specs: &[WorkloadSpec],
        choice: &Mapping,
        policy_name: &str,
    ) -> crate::Result<MixResult> {
        self.check_mix_size(specs.len())?;
        let mappings = self.candidates(specs.len());
        let cores = self.cfg.machine.cores;
        let user_cycles: Vec<Vec<u64>> = mappings
            .iter()
            .map(|m| {
                let out = self.measure(specs, m);
                out.procs.iter().map(|p| p.user_cycles).collect()
            })
            .collect();
        let chosen = Self::locate(&mappings, choice, cores);
        Counters::add(&self.counters.mixes_done, 1);
        Ok(MixResult {
            names: specs.iter().map(|s| s.name.clone()).collect(),
            mappings,
            user_cycles,
            chosen,
            policy: policy_name.to_string(),
            predicted: Vec::new(),
        })
    }

    /// Index of `choice` among `mappings` (by partition equivalence).
    pub fn locate(mappings: &[Mapping], choice: &Mapping, cores: usize) -> usize {
        let key = choice.partition_key(cores);
        mappings
            .iter()
            .position(|m| m.partition_key(cores) == key)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbio_allocator::{DefaultPolicy, WeightSortPolicy, WeightedInterferenceGraphPolicy};
    use symbio_workloads::spec2006;

    fn specs(names: &[&str]) -> Vec<WorkloadSpec> {
        let l2 = 256 << 10;
        names
            .iter()
            .map(|n| {
                let mut s = spec2006::by_name(n, l2).unwrap();
                s.work /= 4; // keep unit tests fast
                s
            })
            .collect()
    }

    #[test]
    fn profile_produces_votes() {
        let p = Pipeline::new(ExperimentConfig::fast(3));
        let mut policy = WeightSortPolicy;
        let r = p.profile(
            &specs(&["mcf", "povray", "libquantum", "gobmk"]),
            &mut policy,
        );
        assert!(r.invocations >= 4);
        let total: u32 = r.votes.iter().map(|(_, c)| c).sum();
        assert_eq!(total, r.invocations);
        assert_eq!(r.winner.len(), 4);
        assert_eq!(r.winner.group_sizes(2), vec![2, 2]);
    }

    #[test]
    fn recording_replays_what_the_machine_exports() {
        // The flat recording must rebuild, tick by tick, exactly the
        // snapshot a live machine exports at the same point (JSON floats
        // print shortest-round-trip, so equal text is equal bits).
        let p = Pipeline::new(ExperimentConfig::fast(3));
        let s = specs(&["mcf", "povray", "libquantum", "gobmk"]);
        let trace = p.record(&s);
        let mut machine = Machine::new(p.cfg.machine);
        for x in &s {
            machine.add_process(x);
        }
        machine.start(None);
        let deadline = machine.now() + p.cfg.profile_cycles;
        let mut live = Vec::new();
        while machine.now() < deadline {
            machine.run_for(p.cfg.interval.min(deadline - machine.now()));
            let seq = live.len() as u64;
            live.push(machine.export_snapshot("g", seq).unwrap());
        }
        assert_eq!(
            serde_json::to_string(&trace.snapshots("g")).unwrap(),
            serde_json::to_string(&live).unwrap()
        );
        // The vote reports the last tick's views.
        let r = Pipeline::vote(&trace, &mut WeightSortPolicy);
        assert_eq!(r.invocations as usize, live.len());
        assert_eq!(
            serde_json::to_string(&r.views).unwrap(),
            serde_json::to_string(&machine.query_views()).unwrap()
        );
    }

    #[test]
    fn measure_is_deterministic() {
        let p = Pipeline::new(ExperimentConfig::fast(3));
        let s = specs(&["gobmk", "soplex"]);
        let m = Mapping::new(vec![0, 1]);
        let a = p.measure(&s, &m);
        let b = p.measure(&s, &m);
        assert_eq!(a.procs[0].user_cycles, b.procs[0].user_cycles);
    }

    #[test]
    fn measurement_seed_differs_from_profiling_seed() {
        let p = Pipeline::new(ExperimentConfig::fast(3));
        assert_ne!(
            p.profiling_machine_cfg().seed,
            p.measurement_machine_cfg(0).seed
        );
        assert_ne!(
            p.measurement_machine_cfg(0).seed,
            p.measurement_machine_cfg(1).seed
        );
        assert!(p.measurement_machine_cfg(0).signature.is_none());
        assert!(p.profiling_machine_cfg().signature.is_some());
    }

    #[test]
    fn evaluate_mix_full_pipeline() {
        let p = Pipeline::new(ExperimentConfig::fast(5));
        let s = specs(&["mcf", "povray", "libquantum", "gobmk"]);
        let mut policy = WeightedInterferenceGraphPolicy::default();
        let r = p.evaluate_mix(&s, &mut policy).unwrap();
        assert_eq!(r.mappings.len(), 3);
        assert_eq!(r.user_cycles.len(), 3);
        assert!(r.chosen < 3);
        for pid in 0..4 {
            let imp = r.improvement_vs_worst(pid);
            assert!((0.0..=1.0).contains(&imp), "{}: {imp}", r.names[pid]);
        }
        // The table renders.
        let t = r.table();
        assert!(t.contains("mcf"));
    }

    #[test]
    fn locate_matches_partitions_not_labels() {
        let maps = candidate_mappings(4, 2);
        // Same partition as maps[0] with swapped core labels.
        let key0 = maps[0].partition_key(2);
        let swapped = Mapping::new(
            (0..4)
                .map(|t| 1 - maps[0].core_of(t))
                .collect::<Vec<usize>>(),
        );
        let idx = Pipeline::locate(&maps, &swapped, 2);
        assert_eq!(maps[idx].partition_key(2), key0);
    }

    #[test]
    fn evaluate_mix_rejects_bad_sizes() {
        let p = Pipeline::new(ExperimentConfig::fast(3));
        let mut policy = WeightSortPolicy;
        for n in [0, 3] {
            let names = ["mcf", "povray", "gobmk"];
            let err = p.evaluate_mix(&specs(&names[..n.min(3)]), &mut policy);
            match err {
                Err(crate::Error::MixSize { got, .. }) => assert_eq!(got, n.min(3)),
                other => panic!("expected MixSize error, got {other:?}"),
            }
        }
        // 2-on-2 is a valid (degenerate) mix.
        assert!(p.check_mix_size(2).is_ok());
    }

    #[test]
    fn memoized_measure_skips_repeat_simulations() {
        use crate::memo::MeasureCache;
        use std::sync::Arc;

        let cache = Arc::new(MeasureCache::new());
        let p = Pipeline::new(ExperimentConfig::fast(3)).with_memo(Arc::clone(&cache));
        let s = specs(&["gobmk", "soplex"]);
        let m = Mapping::new(vec![0, 1]);
        let a = p.measure(&s, &m);
        let runs_after_first = p.counters().snapshot().sim_runs;
        assert!(runs_after_first >= 1);
        let b = p.measure(&s, &m);
        // Identical outcome, no extra simulation.
        assert_eq!(a.procs[0].user_cycles, b.procs[0].user_cycles);
        assert_eq!(p.counters().snapshot().sim_runs, runs_after_first);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // An unmemoized pipeline computes the same numbers.
        let plain = Pipeline::new(ExperimentConfig::fast(3)).measure(&s, &m);
        assert_eq!(plain.procs[0].user_cycles, a.procs[0].user_cycles);
        // A different mapping misses.
        let m2 = Mapping::new(vec![0, 0]);
        p.measure(&s, &m2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn default_policy_choice_is_round_robin_mapping() {
        let p = Pipeline::new(ExperimentConfig::fast(3));
        let s = specs(&["povray", "gobmk", "sjeng", "hmmer"]);
        let mut policy = DefaultPolicy;
        let r = p.profile(&s, &mut policy);
        assert_eq!(
            r.winner.partition_key(2),
            Mapping::round_robin(4, 2).partition_key(2)
        );
    }
}
