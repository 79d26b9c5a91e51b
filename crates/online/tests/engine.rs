//! Integration tests for the online decision engine: determinism,
//! hysteresis invariants, phase-change re-voting, and parity with the
//! offline pipeline's majority vote on a replayed fig13-mix trace.

use proptest::prelude::*;
use symbio::prelude::*;
use symbio_online::{DecisionReason, OnlineConfig, OnlineEngine};

// ----------------------------------------------------------- helpers

/// A synthetic thread view with controlled occupancy and per-core
/// contested capacity (everything WeightSort and the hysteresis gain
/// graph read).
fn thread_view(tid: usize, occ: f64, overlap: [f64; 2]) -> symbio_machine::ThreadView {
    symbio_machine::ThreadView {
        tid,
        pid: tid,
        name: format!("p{tid}"),
        occupancy: occ,
        symbiosis: vec![50.0, 50.0],
        overlap: overlap.to_vec(),
        last_occupancy: occ as u32,
        last_core: Some(tid % 2),
        samples: 3,
        filter_len: 256,
        l2_miss_rate: 0.1,
        l2_misses: 100,
        retired: 1000,
    }
}

fn synth_snap(group: &str, seq: u64, occ: [f64; 4], overlaps: [[f64; 2]; 4]) -> SigSnapshot {
    SigSnapshot {
        group: group.to_string(),
        seq,
        now_cycles: seq * 5_000_000,
        cores: 2,
        domains: vec![2],
        procs: (0..4)
            .map(|pid| symbio_machine::ProcView {
                pid,
                name: format!("p{pid}"),
                threads: vec![thread_view(pid, occ[pid], overlaps[pid])],
            })
            .collect(),
    }
}

/// Overlaps that make co-locating {0,1} and {2,3} internalize the most
/// interference: tids 0/1 contest each other's core, as do 2/3.
/// (Threads sit on cores tid%2: 0,2 on core 0; 1,3 on core 1.)
const PAIR_01_23: [[f64; 2]; 4] = [[0.0, 10.0], [10.0, 0.0], [0.0, 10.0], [10.0, 0.0]];
/// Overlaps that make co-locating {0,2} and {1,3} the best grouping.
const PAIR_02_13: [[f64; 2]; 4] = [[10.0, 0.0], [0.0, 10.0], [10.0, 0.0], [0.0, 10.0]];

/// Weight-sort with occupancies `[40,30,20,10]` votes {0,1}|{2,3}; with
/// `[40,20,30,10]` it votes {0,2}|{1,3}. Means are equal (25), so the
/// drift detector stays quiet across the shift.
const OCC_A: [f64; 4] = [40.0, 30.0, 20.0, 10.0];
const OCC_B: [f64; 4] = [40.0, 20.0, 30.0, 10.0];

fn key_of(cores: Vec<usize>) -> Vec<Vec<usize>> {
    Mapping::new(cores).partition_key(2)
}

/// Record a profiling trace: the recording `Pipeline::profile` votes
/// over, as one snapshot per allocator invocation point.
fn record_trace(cfg: &ExperimentConfig, specs: &[WorkloadSpec], group: &str) -> Vec<SigSnapshot> {
    Pipeline::new(*cfg).record(specs).snapshots(group)
}

fn fig13_specs(l2: u64) -> Vec<WorkloadSpec> {
    // The first fig13 representative mix, shrunk like the pipeline unit
    // tests to keep the trace recording fast.
    ["gobmk", "hmmer", "libquantum", "povray"]
        .iter()
        .map(|n| {
            let mut s = spec2006::by_name(n, l2).unwrap();
            s.work /= 4;
            s
        })
        .collect()
}

// ------------------------------------------------------------- tests

#[test]
fn same_trace_gives_identical_decision_sequence() {
    let cfg = ExperimentConfig::fast(3);
    let trace = record_trace(&cfg, &fig13_specs(cfg.machine.l2.size_bytes), "det");

    let run = || {
        let mut engine = OnlineEngine::new(
            Box::new(WeightedInterferenceGraphPolicy::default()),
            OnlineConfig::default(),
        )
        .unwrap();
        trace
            .iter()
            .map(|s| serde_json::to_string(&engine.ingest(s).unwrap()).unwrap())
            .collect::<Vec<String>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical snapshot trace must replay identically");
}

#[test]
fn replayed_fig13_trace_matches_offline_pipeline_majority() {
    let cfg = ExperimentConfig::fast(3);
    let specs = fig13_specs(cfg.machine.l2.size_bytes);

    // Offline: the pipeline's post-hoc majority vote.
    let pipeline = Pipeline::new(cfg);
    let mut policy = WeightSortPolicy;
    let profile = pipeline.profile(&specs, &mut policy);

    // Online: replay the same trace through the engine in replay mode
    // (window retains every invocation, no hysteresis).
    let trace = record_trace(&cfg, &specs, "fig13");
    assert_eq!(trace.len() as u32, profile.invocations);
    let mut engine = OnlineEngine::new(
        Box::new(WeightSortPolicy),
        OnlineConfig::replay(trace.len().max(1)),
    )
    .unwrap();
    for s in &trace {
        engine.ingest(s).unwrap();
    }

    // Identical tallies (as key → count sets)…
    let mut online: Vec<(Vec<Vec<usize>>, u32)> = engine.tally("fig13");
    let mut offline: Vec<(Vec<Vec<usize>>, u32)> = profile
        .votes
        .iter()
        .map(|(m, c)| (m.partition_key(2), *c))
        .collect();
    online.sort();
    offline.sort();
    assert_eq!(online, offline);

    // …and when the offline winner is a strict majority, the online
    // majority is the same partition.
    let top = profile.votes.first().unwrap();
    let strict = profile.votes.iter().filter(|(_, c)| *c == top.1).count() == 1;
    if strict {
        assert_eq!(
            engine.majority("fig13").unwrap().partition_key(2),
            profile.winner.partition_key(2)
        );
    }
}

#[test]
fn sustained_shift_with_real_gain_remaps_once() {
    let mut engine =
        OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).unwrap();
    let mut decisions = Vec::new();
    // Phase A: 10 epochs voting {0,1}|{2,3}, overlaps agreeing with it.
    for seq in 0..10 {
        decisions.push(
            engine
                .ingest(&synth_snap("g", seq, OCC_A, PAIR_01_23))
                .unwrap(),
        );
    }
    // Warmup then initial adoption at the `min_votes`-th epoch.
    assert_eq!(decisions[0].reason, DecisionReason::Warmup);
    assert_eq!(decisions[2].reason, DecisionReason::Initial);
    assert!(decisions[2].changed);
    assert_eq!(
        decisions[9].mapping.as_ref().unwrap().partition_key(2),
        key_of(vec![0, 0, 1, 1])
    );
    // Phase B: sustained vote for {0,2}|{1,3} with overlaps that make the
    // challenger internalize much more interference (large gain).
    for seq in 10..20 {
        decisions.push(
            engine
                .ingest(&synth_snap("g", seq, OCC_B, PAIR_02_13))
                .unwrap(),
        );
    }
    let remaps: Vec<usize> = decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| d.reason == DecisionReason::Remap)
        .map(|(i, _)| i)
        .collect();
    // The challenger must first *win* the 8-wide window: after 5 B-epochs
    // it holds 5 of 8 votes. Hysteresis then passes (clear positive gain).
    assert_eq!(remaps, vec![14], "exactly one remap, at B's majority point");
    assert_eq!(engine.remaps("g"), 1);
    assert_eq!(
        engine.mapping("g").unwrap().partition_key(2),
        key_of(vec![0, 1, 0, 1])
    );
}

#[test]
fn challenger_without_gain_is_held_by_hysteresis() {
    // Same vote shift as above, but the overlap pattern still favours the
    // incumbent grouping: the majority flips yet the predicted gain is
    // negative, so the switch cost is never beaten and the mapping holds.
    let mut engine =
        OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).unwrap();
    for seq in 0..10 {
        engine
            .ingest(&synth_snap("g", seq, OCC_A, PAIR_01_23))
            .unwrap();
    }
    let before = engine.mapping("g").unwrap().partition_key(2);
    let mut last_gain = 0.0;
    for seq in 10..30 {
        let d = engine
            .ingest(&synth_snap("g", seq, OCC_B, PAIR_01_23))
            .unwrap();
        assert!(!d.changed, "hysteresis must hold a no-gain challenger");
        if d.gain != 0.0 {
            last_gain = d.gain;
        }
    }
    assert!(
        last_gain < 0.0,
        "challenger gain should be negative, got {last_gain}"
    );
    assert_eq!(engine.mapping("g").unwrap().partition_key(2), before);
    assert_eq!(engine.remaps("g"), 0);
}

#[test]
fn occupancy_jump_clears_window_and_revotes_early() {
    let mut engine =
        OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).unwrap();
    for seq in 0..8 {
        engine
            .ingest(&synth_snap("g", seq, OCC_A, PAIR_01_23))
            .unwrap();
    }
    // New phase: occupancies triple (drift 2.0 >> threshold 0.5) and the
    // vote pattern flips with a real gain behind it.
    let occ_hot = [120.0, 60.0, 90.0, 30.0];
    let d = engine
        .ingest(&synth_snap("g", 8, occ_hot, PAIR_02_13))
        .unwrap();
    assert_eq!(d.reason, DecisionReason::PhaseChange, "ring cleared");
    assert_eq!(d.window, 1, "only the new phase's vote remains");
    // Early re-vote: the challenger needs only min_votes (3) epochs of the
    // new phase, not a 5-of-8 window takeover.
    let d = engine
        .ingest(&synth_snap("g", 9, occ_hot, PAIR_02_13))
        .unwrap();
    assert!(!d.changed);
    let d = engine
        .ingest(&synth_snap("g", 10, occ_hot, PAIR_02_13))
        .unwrap();
    assert!(d.changed, "remap at the third post-phase-change epoch");
    assert_eq!(d.reason, DecisionReason::Remap);
    assert_eq!(
        engine.mapping("g").unwrap().partition_key(2),
        key_of(vec![0, 1, 0, 1])
    );
}

#[test]
fn malformed_snapshots_are_typed_protocol_errors() {
    let mut engine =
        OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).unwrap();
    let mut snap = synth_snap("g", 0, OCC_A, PAIR_01_23);
    snap.procs[1].threads[0].tid = 7;
    match engine.ingest(&snap) {
        Err(symbio::Error::Protocol(msg)) => assert!(msg.contains("contiguous"), "{msg}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    let mut snap = synth_snap("g", 0, OCC_A, PAIR_01_23);
    snap.cores = 0;
    assert!(matches!(
        engine.ingest(&snap),
        Err(symbio::Error::Protocol(_))
    ));
}

#[test]
fn groups_are_independent_streams() {
    let mut engine =
        OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).unwrap();
    for seq in 0..5 {
        engine
            .ingest(&synth_snap("alpha", seq, OCC_A, PAIR_01_23))
            .unwrap();
    }
    engine
        .ingest(&synth_snap("beta", 0, OCC_B, PAIR_02_13))
        .unwrap();
    assert_eq!(engine.epochs("alpha"), 5);
    assert_eq!(engine.epochs("beta"), 1);
    assert!(engine.mapping("alpha").is_some());
    assert!(engine.mapping("beta").is_none(), "beta is still warming up");
    let mut names = engine.group_names();
    names.sort_unstable();
    assert_eq!(names, vec!["alpha", "beta"]);
    assert_eq!(engine.counters().snapshot().online_epochs, 6);
}

/// A wire-plausible poisoned snapshot: negative occupancy survives JSON
/// (unlike NaN, which the vendored serde_json writes as `null`), so this
/// is exactly what a corrupt producer could deliver over the socket.
fn poisoned_snap(group: &str, seq: u64) -> SigSnapshot {
    let mut snap = synth_snap(group, seq, OCC_A, PAIR_01_23);
    snap.procs[0].threads[0].occupancy = -1.0;
    snap
}

#[test]
fn repeated_invalid_snapshots_trip_quarantine_and_clean_epochs_recover() {
    let mut engine =
        OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).unwrap();
    // Establish a last-good mapping.
    for seq in 0..5 {
        engine
            .ingest(&synth_snap("g", seq, OCC_A, PAIR_01_23))
            .unwrap();
    }
    let last_good = engine.mapping("g").unwrap().clone();

    // Two strikes do not trip; a valid epoch decays one strike.
    for seq in [5, 6] {
        assert!(engine.ingest(&poisoned_snap("g", seq)).is_err());
    }
    assert_eq!(engine.strikes("g"), 2);
    assert!(!engine.quarantined("g"));
    engine
        .ingest(&synth_snap("g", 7, OCC_A, PAIR_01_23))
        .unwrap();
    assert_eq!(engine.strikes("g"), 1, "valid epochs decay strikes");

    // Three strikes (the default threshold) trip the group.
    for seq in [8, 9, 10] {
        assert!(engine.ingest(&poisoned_snap("g", seq)).is_err());
    }
    assert!(engine.quarantined("g"));
    assert_eq!(engine.counters().snapshot().quarantine_trips, 1);
    assert_eq!(
        engine.mapping("g").unwrap().partition_key(2),
        last_good.partition_key(2),
        "the last-good mapping survives the trip"
    );
    assert!(engine.majority("g").is_none(), "suspect votes were dropped");

    // Valid epochs while quarantined serve last-good and are not tallied.
    for seq in [11, 12] {
        let d = engine
            .ingest(&synth_snap("g", seq, OCC_B, PAIR_02_13))
            .unwrap();
        assert_eq!(d.reason, DecisionReason::Quarantined);
        assert!(!d.changed);
        assert_eq!(d.votes, 0);
        assert_eq!(
            d.mapping.unwrap().partition_key(2),
            last_good.partition_key(2)
        );
    }

    // An invalid snapshot mid-streak restarts the clean count…
    assert!(engine.ingest(&poisoned_snap("g", 13)).is_err());
    for seq in [14, 15, 16] {
        let d = engine
            .ingest(&synth_snap("g", seq, OCC_A, PAIR_01_23))
            .unwrap();
        assert_eq!(d.reason, DecisionReason::Quarantined, "seq {seq}");
    }
    // …and the epoch completing `quarantine_clean` (4) is tallied again.
    let d = engine
        .ingest(&synth_snap("g", 17, OCC_A, PAIR_01_23))
        .unwrap();
    assert_ne!(d.reason, DecisionReason::Quarantined);
    assert!(!engine.quarantined("g"));
    assert_eq!(d.votes, 1, "the recovery epoch's vote was tallied");

    // Other groups were never affected.
    engine
        .ingest(&synth_snap("other", 0, OCC_A, PAIR_01_23))
        .unwrap();
    assert!(!engine.quarantined("other"));
    assert_eq!(engine.strikes("other"), 0);
}

#[test]
fn duplicate_sequence_numbers_are_answered_idempotently() {
    let mut engine =
        OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).unwrap();
    for seq in 0..5 {
        engine
            .ingest(&synth_snap("g", seq, OCC_A, PAIR_01_23))
            .unwrap();
    }
    let epochs = engine.epochs("g");
    let mapping = engine.mapping("g").unwrap().clone();

    // A retried (already-acknowledged) epoch re-serves the mapping
    // without touching the window — even with *different* payload, and
    // even an invalid one (a retry must never strike the group).
    for retry_seq in [4, 2, 0] {
        let d = engine
            .ingest(&synth_snap("g", retry_seq, OCC_B, PAIR_02_13))
            .unwrap();
        assert_eq!(d.reason, DecisionReason::Duplicate);
        assert!(!d.changed);
        assert_eq!(
            d.mapping.unwrap().partition_key(2),
            mapping.partition_key(2)
        );
    }
    let d = engine.ingest(&poisoned_snap("g", 3)).unwrap();
    assert_eq!(d.reason, DecisionReason::Duplicate);
    assert_eq!(engine.strikes("g"), 0);
    assert_eq!(engine.epochs("g"), epochs, "duplicates are not tallied");
    assert_eq!(engine.last_seq("g"), Some(4));

    // The stream resumes normally past the watermark.
    let d = engine
        .ingest(&synth_snap("g", 5, OCC_A, PAIR_01_23))
        .unwrap();
    assert_ne!(d.reason, DecisionReason::Duplicate);
    assert_eq!(engine.epochs("g"), epochs + 1);
}

proptest! {
    #[test]
    fn ring_wraparound_at_capacity_boundaries_keeps_the_newest_epochs(
        capacity in 1usize..9,
        extra in 0usize..3,
    ) {
        // Push exactly capacity-1, capacity, capacity+extra epochs: the
        // ring must hold min(pushed, capacity) newest epochs, oldest
        // first, across the exact wrap boundary.
        use symbio_online::{Epoch, EpochRing};
        for pushed in [capacity.saturating_sub(1), capacity, capacity + extra] {
            let mut ring = EpochRing::new(capacity);
            for seq in 0..pushed as u64 {
                let mapping = Mapping::new(vec![0, 1, 0, 1]);
                ring.push(Epoch {
                    seq,
                    key: mapping.partition_key(2),
                    mapping,
                    cores: 2,
                    mean_occupancy: seq as f64,
                });
            }
            let expect = pushed.min(capacity);
            prop_assert_eq!(ring.len(), expect);
            let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
            let want: Vec<u64> = ((pushed - expect) as u64..pushed as u64).collect();
            // The ring holds exactly the newest epochs, oldest first,
            // and every retained epoch votes.
            prop_assert_eq!(seqs, want);
            if pushed > 0 {
                let (_, votes) = ring.majority().unwrap();
                prop_assert_eq!(votes as usize, expect);
            }
        }
    }

    #[test]
    fn majority_ties_after_quarantine_gaps_still_break_oldest_first(
        a_votes in 1u32..4,
        poison_runs in 1usize..3,
    ) {
        // A quarantine trip mid-stream clears the window. After recovery,
        // equal support for two partitions must still tie-break to the
        // one seen earliest in the *post-gap* window — the cleared votes
        // may not leak into the tally.
        let cfg = OnlineConfig {
            min_votes: 1,
            switch_cost: 0.0,
            ..OnlineConfig::default()
        };
        let mut engine = OnlineEngine::new(Box::new(WeightSortPolicy), cfg).unwrap();
        let mut seq = 0u64;
        // Pre-gap: a_votes epochs of pattern A (would win any tie).
        for _ in 0..a_votes {
            engine.ingest(&synth_snap("g", seq, OCC_A, PAIR_01_23)).unwrap();
            seq += 1;
        }
        // Poison until quarantine trips, then serve 3 quarantined
        // epochs and one recovery epoch (quarantine_clean = 4).
        for _ in 0..poison_runs {
            while !engine.quarantined("g") {
                assert!(engine.ingest(&poisoned_snap("g", seq)).is_err());
                seq += 1;
            }
        }
        prop_assert!(engine.quarantined("g"));
        prop_assert_eq!(engine.tally("g").len(), 0); // gap cleared the window
        for _ in 0..3 {
            let d = engine.ingest(&synth_snap("g", seq, OCC_B, PAIR_02_13)).unwrap();
            prop_assert_eq!(d.reason, DecisionReason::Quarantined);
            seq += 1;
        }
        // Recovery epoch votes B first, then one A epoch: a 1–1 tie in
        // the post-gap window. B was seen first after the gap, so B wins
        // the majority — regardless of how many A votes predate the gap.
        engine.ingest(&synth_snap("g", seq, OCC_B, PAIR_02_13)).unwrap();
        seq += 1;
        engine.ingest(&synth_snap("g", seq, OCC_A, PAIR_01_23)).unwrap();
        let tally = engine.tally("g");
        prop_assert_eq!(tally.len(), 2);
        prop_assert_eq!(tally[0].1, 1);
        prop_assert_eq!(tally[1].1, 1);
        // The tie breaks to the earliest post-gap vote (B), not pre-gap A.
        prop_assert_eq!(
            engine.majority("g").unwrap().partition_key(2),
            key_of(vec![0, 1, 0, 1])
        );
    }

    #[test]
    fn single_epoch_blip_below_switch_threshold_never_remaps(
        blip_epoch in 4u64..28,
        blip_tid in 0usize..4,
        blip_pct in 1u32..95,
    ) {
        // A steady stream with ONE epoch whose occupancy blips upward on
        // one thread (below the drift threshold for the stream mean and
        // without sustained support in the window): hysteresis + the
        // majority window must never commit a remap for it.
        let mut engine = OnlineEngine::new(
            Box::new(WeightSortPolicy),
            OnlineConfig::default(),
        ).unwrap();
        let mut remaps = 0u32;
        for seq in 0..30u64 {
            let mut occ = OCC_A;
            if seq == blip_epoch {
                // Up to ~2x on one thread; can reorder the weight sort
                // (e.g. t2 jumping over t1) for exactly one epoch.
                occ[blip_tid] *= 1.0 + f64::from(blip_pct) / 100.0;
            }
            let d = engine.ingest(&synth_snap("g", seq, occ, PAIR_01_23)).unwrap();
            if d.reason == DecisionReason::Remap {
                remaps += 1;
            }
        }
        prop_assert_eq!(remaps, 0);
        prop_assert_eq!(engine.remaps("g"), 0);
        prop_assert_eq!(
            engine.mapping("g").unwrap().partition_key(2),
            key_of(vec![0, 0, 1, 1])
        );
    }
}

// --------------------------------------------- multi-domain hysteresis

/// A thread view on the 4-core / 2-domain machine. Signature vectors are
/// DOMAIN-local (two entries) while `last_core` stays global, matching
/// what `Machine::export_snapshot` produces.
fn thread_view4(tid: usize, overlap: [f64; 2]) -> symbio_machine::ThreadView {
    symbio_machine::ThreadView {
        tid,
        pid: tid,
        name: format!("p{tid}"),
        occupancy: 50.0,
        symbiosis: vec![50.0; 2],
        overlap: overlap.to_vec(),
        last_occupancy: 50,
        last_core: Some(tid),
        samples: 3,
        filter_len: 256,
        l2_miss_rate: 0.1,
        l2_misses: 100,
        retired: 1000,
    }
}

/// Snapshot of a 2x2 machine: threads 0/1 live in domain 0 (cores 0-1),
/// threads 2/3 in domain 1 (cores 2-3). Only the 0<->1 pair interferes.
fn synth_snap4(group: &str, seq: u64) -> SigSnapshot {
    // Domain-local overlaps: 0 and 1 contest each other's core inside
    // domain 0; domain 1 is interference-free.
    let overlaps: [[f64; 2]; 4] = [[0.0, 90.0], [90.0, 0.0], [0.0; 2], [0.0; 2]];
    SigSnapshot {
        group: group.to_string(),
        seq,
        now_cycles: seq * 5_000_000,
        cores: 4,
        domains: vec![2, 2],
        procs: (0..4)
            .map(|pid| symbio_machine::ProcView {
                pid,
                name: format!("p{pid}"),
                threads: vec![thread_view4(pid, overlaps[pid])],
            })
            .collect(),
    }
}

/// Policy scripted by epoch parity of the stream: spreads every thread
/// out until `flip`, then co-locates the domain-0 pair — domain 1's
/// placement is byte-identical either side of the flip.
struct ScriptedPolicy {
    calls: u64,
    flip: u64,
}

impl symbio_allocator::AllocationPolicy for ScriptedPolicy {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn allocate(
        &mut self,
        _views: &[symbio_machine::ProcView],
        _cores: usize,
    ) -> symbio_machine::Mapping {
        let m = if self.calls < self.flip {
            Mapping::new(vec![0, 1, 2, 3])
        } else {
            Mapping::new(vec![0, 0, 2, 3])
        };
        self.calls += 1;
        m
    }
}

#[test]
fn remap_in_one_domain_never_relabels_the_other() {
    let mut engine = OnlineEngine::new(
        Box::new(ScriptedPolicy { calls: 0, flip: 6 }),
        OnlineConfig::default(),
    )
    .unwrap();
    let mut decisions = Vec::new();
    for seq in 0..14 {
        decisions.push(engine.ingest(&synth_snap4("md", seq)).unwrap());
    }

    // Initial adoption reports every occupied domain as changed.
    assert_eq!(decisions[2].reason, DecisionReason::Initial);
    assert_eq!(decisions[2].domains_changed, vec![0, 1]);

    // Exactly one remap once the challenger wins the 8-wide window
    // (5 of 8 votes at epoch 10), and it touches only domain 0: the
    // 0/1 pair's 90-unit contested capacity is internalized there while
    // domain 1 has no interference and an unchanged partition key.
    let remaps: Vec<&symbio_online::Decision> = decisions
        .iter()
        .filter(|d| d.reason == DecisionReason::Remap)
        .collect();
    assert_eq!(remaps.len(), 1, "exactly one remap expected");
    let remap = remaps[0];
    assert_eq!(remap.domains_changed, vec![0]);
    assert!(
        remap.gain > 0.9,
        "domain-0 gain should be ~1.0: {}",
        remap.gain
    );

    // Domain-1 threads keep the exact core labels they held before the
    // remap; domain-0 threads are co-located per the challenger.
    let m = remap.mapping.as_ref().unwrap();
    assert_eq!(
        (0..4).map(|t| m.core_of(t)).collect::<Vec<_>>(),
        vec![0, 0, 2, 3]
    );

    // Held epochs in between report no domain changes.
    for d in &decisions {
        if !d.changed {
            assert!(d.domains_changed.is_empty(), "held epoch lists domains");
        }
    }
    assert_eq!(engine.remaps("md"), 1);
}
