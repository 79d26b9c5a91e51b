//! Crash-safety integration tests for the engine ↔ journal pair: the
//! replayed journal must reconstruct *exactly* the state the live engine
//! holds, across every kind of transition the engine journals (votes,
//! remaps, phase clears, strikes, quarantine trips, recoveries,
//! duplicates), and a restarted engine must continue the decision stream
//! bit-identically to one that never died.

use std::path::PathBuf;
use symbio_allocator::WeightSortPolicy;
use symbio_machine::{ProcView, SigSnapshot, ThreadView};
use symbio_online::{JournalWriter, OnlineConfig, OnlineEngine, Recovery};

// ----------------------------------------------------------- helpers

fn thread_view(tid: usize, occ: f64, overlap: [f64; 2]) -> ThreadView {
    ThreadView {
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
            .map(|pid| ProcView {
                pid,
                name: format!("p{pid}"),
                threads: vec![thread_view(pid, occ[pid], overlaps[pid])],
            })
            .collect(),
    }
}

const PAIR_01_23: [[f64; 2]; 4] = [[0.0, 10.0], [10.0, 0.0], [0.0, 10.0], [10.0, 0.0]];
const PAIR_02_13: [[f64; 2]; 4] = [[10.0, 0.0], [0.0, 10.0], [10.0, 0.0], [0.0, 10.0]];
const OCC_A: [f64; 4] = [40.0, 30.0, 20.0, 10.0];
const OCC_B: [f64; 4] = [40.0, 20.0, 30.0, 10.0];

fn poisoned_snap(group: &str, seq: u64) -> SigSnapshot {
    let mut snap = synth_snap(group, seq, OCC_A, PAIR_01_23);
    snap.procs[0].threads[0].occupancy = f64::NAN;
    snap
}

/// A fresh journal path in the target-adjacent temp dir, unique per test.
fn journal_path(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symbio-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{test}.journal"))
}

fn engine(cfg: OnlineConfig) -> OnlineEngine {
    OnlineEngine::new(Box::new(WeightSortPolicy), cfg).unwrap()
}

/// A deterministic mixed-traffic trace exercising every journaled
/// transition: steady votes, a sustained shift (remap), invalid
/// snapshots through a quarantine trip and out the other side, and a
/// second independent group.
fn mixed_trace() -> Vec<(String, SigSnapshot, bool)> {
    let mut t: Vec<(String, SigSnapshot, bool)> = Vec::new();
    let mut push = |snap: SigSnapshot, ok: bool| t.push((snap.group.clone(), snap, ok));
    let mut seq = 0u64;
    // Steady pattern A, commits a mapping.
    for _ in 0..6 {
        push(synth_snap("g", seq, OCC_A, PAIR_01_23), true);
        seq += 1;
    }
    // Sustained shift to pattern B: eventually out-votes A and remaps.
    for _ in 0..8 {
        push(synth_snap("g", seq, OCC_B, PAIR_02_13), true);
        seq += 1;
    }
    // Three invalid snapshots trip the default quarantine threshold…
    for _ in 0..3 {
        push(poisoned_snap("g", seq), false);
        seq += 1;
    }
    // …then a clean streak recovers the group and refills the window.
    for _ in 0..7 {
        push(synth_snap("g", seq, OCC_A, PAIR_01_23), true);
        seq += 1;
    }
    // A second group interleaves an independent stream.
    for s in 0..5 {
        push(synth_snap("h", s, OCC_B, PAIR_02_13), true);
    }
    t
}

fn feed(engine: &mut OnlineEngine, trace: &[(String, SigSnapshot, bool)]) -> Vec<String> {
    trace
        .iter()
        .map(|(_, snap, ok)| {
            let result = engine.ingest(snap);
            assert_eq!(result.is_ok(), *ok, "seq {} of {}", snap.seq, snap.group);
            match result {
                Ok(d) => serde_json::to_string(&d).unwrap(),
                Err(e) => format!("err:{e}"),
            }
        })
        .collect()
}

// ------------------------------------------------------------- tests

#[test]
fn replayed_journal_reconstructs_the_live_engine_state_exactly() {
    let path = journal_path("roundtrip");
    let _ = std::fs::remove_file(&path);
    let cfg = OnlineConfig::default();
    let window = cfg.window;
    let mut live = engine(cfg).with_journal(JournalWriter::open(&path, 256).unwrap());
    feed(&mut live, &mixed_trace());
    assert!(live.journaling(), "journal must survive the whole trace");

    let recovery = Recovery::load(&path, window).unwrap();
    assert!(!recovery.truncated, "clean shutdown leaves no torn tail");
    assert!(recovery.frames > 0);
    assert_eq!(
        recovery.state,
        live.state(),
        "replay must reconstruct the live state bit-for-bit"
    );
    // The duplicate watermark survives: a replayed engine re-serves
    // retried epochs instead of double-tallying them.
    let mut revived = engine(OnlineConfig::default());
    revived.restore(&recovery.state);
    assert_eq!(revived.last_seq("g"), live.last_seq("g"));
    assert_eq!(
        revived.mapping("g").unwrap().partition_key(2),
        live.mapping("g").unwrap().partition_key(2)
    );
}

#[test]
fn restarted_engine_continues_the_decision_stream_identically() {
    let path = journal_path("restart");
    let _ = std::fs::remove_file(&path);
    let trace = mixed_trace();
    let split = trace.len() / 2; // mid-quarantine-adjacent: a hard spot

    // Reference: one engine, never interrupted.
    let mut reference = engine(OnlineConfig::default());
    let expect = feed(&mut reference, &trace);

    // First incarnation journals the first half, then "crashes" (drop).
    let mut first =
        engine(OnlineConfig::default()).with_journal(JournalWriter::open(&path, 256).unwrap());
    let got_first = feed(&mut first, &trace[..split]);
    drop(first);

    // Second incarnation recovers and serves the rest.
    let mut second = engine(OnlineConfig::default());
    let recovery = second.recover_from(&path).unwrap();
    assert!(recovery.frames > 0);
    let mut second = second.with_journal(JournalWriter::open(&path, 256).unwrap());
    let got_second = feed(&mut second, &trace[split..]);

    let got: Vec<String> = got_first.into_iter().chain(got_second).collect();
    assert_eq!(got, expect, "recovery must not perturb a single decision");
    assert_eq!(second.state(), reference.state());
    assert_eq!(
        second.counters().snapshot().recovery_replays,
        recovery.frames
    );
}

#[test]
fn snapshots_keep_replay_equivalent_while_bounding_the_tail() {
    let path = journal_path("snapshots");
    let _ = std::fs::remove_file(&path);
    let cfg = OnlineConfig::default();
    let window = cfg.window;
    // Snapshot every 8 records: the mixed trace embeds several full-state
    // snapshots, and replay must land on the same state regardless.
    let mut live = engine(cfg).with_journal(JournalWriter::open(&path, 8).unwrap());
    feed(&mut live, &mixed_trace());

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\"Snapshot\""),
        "snapshot cadence of 8 must have embedded at least one snapshot"
    );
    let recovery = Recovery::load(&path, window).unwrap();
    assert_eq!(recovery.state, live.state());
}

#[test]
fn reopening_a_journal_resumes_appending_after_the_valid_prefix() {
    let path = journal_path("reopen");
    let _ = std::fs::remove_file(&path);
    let trace = mixed_trace();
    let split = trace.len() / 2;

    let mut first =
        engine(OnlineConfig::default()).with_journal(JournalWriter::open(&path, 256).unwrap());
    feed(&mut first, &trace[..split]);
    drop(first);

    // Simulate a torn final write: chop the file mid-frame.
    let mut bytes = std::fs::read(&path).unwrap();
    let keep = bytes.len() - 7;
    bytes.truncate(keep);
    std::fs::write(&path, &bytes).unwrap();

    // Reopen repairs the tail, and both the reopened writer's appends and
    // a later replay see one consistent, fully-valid journal.
    let mut second = engine(OnlineConfig::default());
    let recovery = second.recover_from(&path).unwrap();
    assert!(recovery.truncated, "the torn frame must be dropped");
    let mut second = second.with_journal(JournalWriter::open(&path, 256).unwrap());
    feed(&mut second, &trace[split..]);
    drop(second);

    let final_recovery = Recovery::load(&path, OnlineConfig::default().window).unwrap();
    assert!(
        !final_recovery.truncated,
        "repair + append must leave no unreachable frames"
    );
    // The torn frame was the last pre-split record: at most one epoch of
    // state is lost, and everything after the reopen is fully replayable —
    // the duplicate watermark lands on the final epoch of the trace.
    let g = final_recovery
        .state
        .groups
        .iter()
        .find(|g| g.name == "g")
        .unwrap();
    assert_eq!(g.last_seq, Some(23));
}

#[test]
fn exported_group_resumes_bit_identically_on_the_importing_engine() {
    let mut src = engine(OnlineConfig::default());
    feed(&mut src, &mixed_trace());

    // Fleet handoff: export "g" from the old owner, import it on the
    // new one. Every per-group observable must carry over.
    let record = src.export_group("g").expect("known group");
    let mut dst = engine(OnlineConfig::default());
    dst.import_group(&record);
    assert_eq!(dst.last_seq("g"), src.last_seq("g"));
    assert_eq!(dst.epochs("g"), src.epochs("g"));
    assert_eq!(dst.remaps("g"), src.remaps("g"));
    assert_eq!(
        dst.mapping("g").map(|m| m.partition_key(2)),
        src.mapping("g").map(|m| m.partition_key(2))
    );

    // Continuing the stream on the importer is bit-identical to never
    // having moved it.
    for seq in 30..40 {
        let snap = synth_snap("g", seq, OCC_A, PAIR_01_23);
        let stayed = src.ingest(&snap).unwrap();
        let moved = dst.ingest(&snap).unwrap();
        assert_eq!(
            serde_json::to_string(&stayed).unwrap(),
            serde_json::to_string(&moved).unwrap(),
            "seq {seq} diverged after handoff"
        );
    }

    // Unknown groups export as None.
    assert!(src.export_group("never-seen").is_none());
}

#[test]
fn imported_group_survives_a_crash_before_the_next_checkpoint() {
    let path = journal_path("import");
    let _ = std::fs::remove_file(&path);
    let mut src = engine(OnlineConfig::default());
    feed(&mut src, &mixed_trace());
    let record = src.export_group("g").expect("known group");

    // The new owner already serves a stream of its own, and holds stale
    // state under the imported name that the import must replace.
    let mut dst =
        engine(OnlineConfig::default()).with_journal(JournalWriter::open(&path, 256).unwrap());
    for seq in 0..3 {
        dst.ingest(&synth_snap("h", seq, OCC_B, PAIR_02_13))
            .unwrap();
        dst.ingest(&synth_snap("g", seq, OCC_B, PAIR_02_13))
            .unwrap();
    }
    dst.import_group(&record);
    let live = dst.state();
    // Crash: far fewer than 256 records, so no checkpoint holds the
    // import — only its own journal record can.
    drop(dst);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.contains("\"Snapshot\""));

    let mut revived = engine(OnlineConfig::default());
    let recovery = revived.recover_from(&path).unwrap();
    assert!(!recovery.truncated);
    assert_eq!(recovery.state, live, "replay must include the import");
    assert_eq!(revived.state(), live);
    assert_eq!(revived.last_seq("g"), src.last_seq("g"));
    assert_eq!(revived.epochs("g"), src.epochs("g"));
}
