//! Integration: everything is reproducible from the seed.

use proptest::prelude::*;
use symbio::prelude::*;
use symbio_machine::ProcView;

fn specs() -> Vec<WorkloadSpec> {
    let l2 = 256 << 10;
    ["mcf", "gcc", "povray", "soplex"]
        .iter()
        .map(|n| {
            let mut s = spec2006::by_name(n, l2).unwrap();
            s.work /= 4;
            s
        })
        .collect()
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let pipeline = Pipeline::new(ExperimentConfig::fast(4242));
        let mut policy = WeightedInterferenceGraphPolicy::default();
        pipeline.evaluate_mix(&specs(), &mut policy).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.user_cycles, b.user_cycles);
    assert_eq!(a.chosen, b.chosen);
}

#[test]
fn seeds_change_outcomes() {
    let run = |seed| {
        let pipeline = Pipeline::new(ExperimentConfig::fast(seed));
        let mut policy = WeightSortPolicy;
        pipeline
            .evaluate_mix(&specs(), &mut policy)
            .unwrap()
            .user_cycles
    };
    assert_ne!(run(1), run(2));
}

/// [`InterferenceGraphPolicy`] that also records the partition of every
/// mapping it proposes, in order.
#[derive(Default)]
struct RecordingPolicy {
    inner: InterferenceGraphPolicy,
    proposed: Vec<Vec<Vec<usize>>>,
}

impl AllocationPolicy for RecordingPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, views: &[ProcView], cores: usize) -> Mapping {
        let mapping = self.inner.allocate(views, cores);
        self.proposed.push(mapping.partition_key(cores));
        mapping
    }
}

/// A 2–2–1 phase-1 vote has exactly one winner per seed: the tally keeps
/// first-proposed order and ties break oldest-first, so six profiles in
/// one process agree (a `HashMap` tally picked at random here).
#[test]
fn tied_profile_vote_is_deterministic() {
    let l2 = 256 << 10;
    let mix: Vec<WorkloadSpec> = ["astar", "bzip2", "mcf", "soplex"]
        .iter()
        .map(|n| {
            let mut s = spec2006::by_name(n, l2).unwrap();
            s.work /= 4;
            s
        })
        .collect();
    let profile = || {
        let mut policy = RecordingPolicy::default();
        let r = Pipeline::new(ExperimentConfig::fast(1)).profile(&mix, &mut policy);
        (r, policy.proposed)
    };
    let (first, proposed) = profile();
    assert_eq!(
        first.votes[0].1, first.votes[1].1,
        "the mix must tie for this test to mean anything: {:?}",
        first.votes
    );
    // Oldest-first: among equal counts, the partition proposed earlier
    // comes first — so `votes` is the proposal order, stably sorted.
    let mut expected: Vec<(Vec<Vec<usize>>, u32)> = Vec::new();
    for key in &proposed {
        match expected.iter_mut().find(|(k, _)| k == key) {
            Some((_, c)) => *c += 1,
            None => expected.push((key.clone(), 1)),
        }
    }
    expected.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    let got: Vec<(Vec<Vec<usize>>, u32)> = first
        .votes
        .iter()
        .map(|(m, c)| (m.partition_key(2), *c))
        .collect();
    assert_eq!(got, expected);
    assert_eq!(first.winner, first.votes[0].0);
    for _ in 0..5 {
        let (again, _) = profile();
        assert_eq!(again.winner, first.winner);
        assert_eq!(again.votes, first.votes);
    }
}

// ---------------------------------------------------------------- golden

/// FNV-1a over a stream of u64s — stable, dependency-free digest.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The two reference machines the golden digests were captured on. The
/// topology refactor expresses both as [`Topology`] values (one shared
/// domain vs one domain per core); the digests predate the refactor, so
/// matching them proves the domain-sharded memory system is bit-identical
/// to the old single/private-L2 special cases.
#[derive(Debug, Clone, Copy)]
enum RefMachine {
    SharedL2,
    PrivateL2,
}

/// Digest every observable the kernel produces for a reference run on
/// `threads` stepping threads (`MachineConfig::step_threads`): the
/// frontier clock, machine-wide L2 traffic, per-process user/wall cycles
/// and per-thread memory-op / L2 counters.
fn kernel_digest_threads(machine: RefMachine, policy: ReplacementPolicy, threads: usize) -> u64 {
    let mut cfg = match machine {
        RefMachine::SharedL2 => MachineConfig::scaled_core2duo(0xD1CE),
        RefMachine::PrivateL2 => MachineConfig::scaled_p4_smp(0xD1CE),
    };
    cfg.policy = policy;
    cfg.step_threads = threads;
    let mut m = Machine::new(cfg);
    let l2 = cfg.l2.size_bytes;
    for n in ["gobmk", "hmmer", "libquantum", "povray"] {
        let mut s = spec2006::by_name(n, l2).unwrap();
        s.work /= 8;
        m.add_process(&s);
    }
    let out = m.run_to_completion(2_000_000_000);
    assert!(
        out.completed,
        "{machine:?}/{policy:?} reference run finished"
    );
    let mut stream = vec![out.wall_cycles, out.l2_accesses, out.l2_misses];
    for p in &out.procs {
        stream.push(p.pid as u64);
        stream.push(p.user_cycles);
        stream.push(p.wall_cycles);
    }
    for tid in 0..m.threads_len() {
        let t = m.thread(tid);
        stream.push(t.user_cycles);
        stream.push(t.mem_ops);
        stream.push(t.l2_accesses);
        stream.push(t.l2_misses);
    }
    stream.push(m.switches());
    fnv1a(stream)
}

/// Stepping-thread counts every golden is checked at: output depends on
/// the domain decomposition only, never on how many OS threads drive it.
const STEP_THREADS: [usize; 3] = [1, 2, 4];

/// Golden digests on the reference 4-benchmark mix. The kernel must stay
/// cycle-identical: any change to these values is a behavioural
/// regression, not a tuning knob.
#[test]
fn kernel_digest_matches_golden() {
    let cases = [
        (
            RefMachine::SharedL2,
            ReplacementPolicy::Lru,
            GOLDEN_SHARED_LRU,
        ),
        (
            RefMachine::SharedL2,
            ReplacementPolicy::Fifo,
            GOLDEN_SHARED_FIFO,
        ),
        (
            RefMachine::SharedL2,
            ReplacementPolicy::Random,
            GOLDEN_SHARED_RANDOM,
        ),
        (
            RefMachine::PrivateL2,
            ReplacementPolicy::Lru,
            GOLDEN_PRIVATE_LRU,
        ),
        (
            RefMachine::PrivateL2,
            ReplacementPolicy::Fifo,
            GOLDEN_PRIVATE_FIFO,
        ),
        (
            RefMachine::PrivateL2,
            ReplacementPolicy::Random,
            GOLDEN_PRIVATE_RANDOM,
        ),
    ];
    for (machine, policy, golden) in cases {
        for threads in STEP_THREADS {
            let got = kernel_digest_threads(machine, policy, threads);
            assert_eq!(
                got, golden,
                "kernel digest drifted for {machine:?}/{policy:?} at step_threads {threads}: \
                 got {got:#018x}, golden {golden:#018x}"
            );
        }
    }
}

// The shared-L2 (single-domain) goldens were captured from the PR 1
// kernel and have never moved. The private-L2 (one domain per core)
// goldens were re-pinned once, by PR 15, when the coupled serial engine
// (one global frontier, one DRAM channel and one jitter stream across
// all domains) was deleted and every run became per-domain lanes: each
// new value is what the parent commit (afc7ac9) already printed for
// `kernel_digest_threads(RefMachine::PrivateL2, policy, 2)`, read off by
// running that commit's `cargo test --release -p symbio --test
// determinism` with a `println!` of those three calls.
//
//   policy   serial engine (old)    per-domain lanes (new)
//   LRU      0xb03f55240a801417     0x440e6e0f3b51b471
//   FIFO     0x8ea2bace247dd30d     0x8d2b802d33bc9281
//   RANDOM   0xefad19879a088bbd     0x9a7e1f6aa271aeee
const GOLDEN_SHARED_LRU: u64 = 0x5824d883bbc8a019;
const GOLDEN_SHARED_FIFO: u64 = 0xeb57fa7d8dbf1716;
const GOLDEN_SHARED_RANDOM: u64 = 0x342b170ef926cb92;
const GOLDEN_PRIVATE_LRU: u64 = 0x440e6e0f3b51b471;
const GOLDEN_PRIVATE_FIFO: u64 = 0x8d2b802d33bc9281;
const GOLDEN_PRIVATE_RANDOM: u64 = 0x9a7e1f6aa271aeee;

/// A single-domain machine is one lane; the shared-L2 golden that
/// predates lanes must hold verbatim at any stepping-thread count.
#[test]
fn decomposed_single_domain_matches_serial_golden() {
    for threads in STEP_THREADS {
        let got = kernel_digest_threads(RefMachine::SharedL2, ReplacementPolicy::Lru, threads);
        assert_eq!(
            got, GOLDEN_SHARED_LRU,
            "single-domain digest drifted at step_threads {threads}: got {got:#018x}"
        );
    }
}

/// Multi-domain output (per-domain DRAM channel, jitter stream and
/// completion) is pinned and must not depend on the stepping-thread count.
#[test]
fn decomposed_multi_domain_digest_is_pinned() {
    for threads in STEP_THREADS {
        let got = kernel_digest_threads(RefMachine::PrivateL2, ReplacementPolicy::Lru, threads);
        assert_eq!(
            got, GOLDEN_PRIVATE_LRU,
            "private-L2 digest drifted at step_threads {threads}: got {got:#018x}"
        );
    }
}

// --------------------------------------- parallel stepping equivalence

/// Digest every observable of a profiling-style run on `cfg`: three
/// stepped intervals, the exported [`SigSnapshot`] after each (occupancy,
/// symbiosis and overlap vectors down to f64 bit patterns), and the
/// machine's final stats. `par_domain_steps` is deliberately excluded —
/// it counts engine-internal batches, not simulated behaviour.
fn stepped_digest(cfg: MachineConfig) -> u64 {
    let mut m = Machine::new(cfg);
    let names = ["gobmk", "hmmer", "libquantum", "povray"];
    for i in 0..cfg.cores {
        let mut s = spec2006::by_name(names[i % names.len()], cfg.l2.size_bytes).unwrap();
        s.work /= 8;
        m.add_process(&s);
    }
    m.start(None);
    let mut stream = Vec::new();
    for seq in 0..3u64 {
        m.run_for(150_000);
        let snap = m.export_snapshot("prop", seq).unwrap();
        stream.extend([snap.seq, snap.now_cycles, snap.cores as u64]);
        stream.extend(snap.domains.iter().map(|&d| d as u64));
        for t in snap.threads() {
            stream.extend([
                t.tid as u64,
                t.pid as u64,
                t.occupancy.to_bits(),
                u64::from(t.last_occupancy),
                t.last_core.map_or(u64::MAX, |c| c as u64),
                t.samples,
                t.filter_len as u64,
                t.l2_misses,
                t.retired,
            ]);
            stream.extend(t.symbiosis.iter().map(|s| s.to_bits()));
            stream.extend(t.overlap.iter().map(|s| s.to_bits()));
        }
    }
    stream.push(m.now());
    stream.push(m.switches());
    for tid in 0..m.threads_len() {
        let t = m.thread(tid);
        stream.extend([t.user_cycles, t.mem_ops, t.l2_accesses, t.l2_misses]);
    }
    fnv1a(stream)
}

proptest! {
    /// The engine's output depends only on the domain decomposition,
    /// never on how many stepping threads drive the lanes — one thread
    /// running them inline included.
    #[test]
    fn parallel_stepping_is_worker_count_invariant(
        domains in 1usize..9,
        cores_per_domain in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut cfg = MachineConfig::scaled_core2duo(seed);
        cfg.cores = domains * cores_per_domain;
        cfg.topology = Topology::uniform(domains, cores_per_domain);
        let digest_at = |threads: usize| {
            let mut c = cfg;
            c.step_threads = threads;
            stepped_digest(c)
        };
        let d1 = digest_at(1);
        prop_assert_eq!(d1, digest_at(2));
        prop_assert_eq!(d1, digest_at(4));
    }
}

#[test]
fn parallel_sweep_matches_serial() {
    let l2 = 256 << 10;
    let pool: Vec<WorkloadSpec> = ["mcf", "povray", "gobmk", "libquantum", "gcc"]
        .iter()
        .map(|n| {
            let mut s = spec2006::by_name(n, l2).unwrap();
            s.work /= 8;
            s
        })
        .collect();
    let cfg = ExperimentConfig::fast(777);
    let opts = |threads| symbio::sweep::SweepOptions {
        mix_size: 4,
        stride: 1,
        threads,
    };
    let serial = sweep_pool(cfg, &pool, &|| Box::new(WeightSortPolicy), opts(1));
    let parallel = sweep_pool(cfg, &pool, &|| Box::new(WeightSortPolicy), opts(4));
    assert_eq!(serial.results.len(), parallel.results.len());
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.user_cycles, p.user_cycles);
        assert_eq!(s.chosen, p.chosen);
    }
}
