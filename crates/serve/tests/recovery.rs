//! Kill-and-restart crash recovery against the real `symbiod` binary:
//! SIGKILL the daemon mid-load, restart it on the same journal, and
//! prove the recovered engine's decision stream is bit-identical to an
//! engine that was never interrupted (deterministic replay equivalence);
//! that group commit keeps write-ahead-of-ack (every decision a client
//! saw acknowledged in a batch is in the recovered state); and that a
//! many-group journal restarts in bounded time to the pre-kill state.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use symbio_allocator::WeightSortPolicy;
use symbio_machine::{ProcView, SigSnapshot, ThreadView};
use symbio_online::{GroupRecord, OnlineConfig, OnlineEngine, Recovery};
use symbio_serve::{read_frame, write_frame, Encoding, Request, Response, WireClient};

// ------------------------------------------------- trace construction

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

fn synth_snap(seq: u64, occ: [f64; 4], overlaps: [[f64; 2]; 4]) -> SigSnapshot {
    group_snap("kr", seq, occ, overlaps)
}

fn group_snap(group: &str, seq: u64, occ: [f64; 4], overlaps: [[f64; 2]; 4]) -> SigSnapshot {
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

/// Sixteen epochs: six of pattern A (commits a mapping), then a
/// sustained shift to pattern B that out-votes A and remaps *after* the
/// crash point — the restarted daemon must carry A-epoch votes across
/// the crash to reach the same remap at the same sequence number.
fn trace() -> Vec<SigSnapshot> {
    (0..16)
        .map(|seq| {
            if seq < 6 {
                synth_snap(seq, OCC_A, PAIR_01_23)
            } else {
                synth_snap(seq, OCC_B, PAIR_02_13)
            }
        })
        .collect()
}

// -------------------------------------------------- daemon harness

struct Daemon {
    child: Child,
    addr: SocketAddr,
    banner: Vec<String>,
}

impl Daemon {
    /// Launch the real `symbiod` binary journaling to `journal`, and
    /// wait for its listen banner (capturing any recovery line first).
    // The child escapes into the returned `Daemon`, where the test
    // SIGKILLs or drains it and reaps it with `wait()` — clippy's
    // intra-function flow analysis cannot see that.
    #[allow(clippy::zombie_processes)]
    fn spawn(journal: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_symbiod"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--journal",
                journal.to_str().unwrap(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn symbiod");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout);
        let mut banner = Vec::new();
        loop {
            let mut line = String::new();
            if lines.read_line(&mut line).unwrap_or(0) == 0 {
                // Don't leak the child on the failure path.
                let _ = child.kill();
                let _ = child.wait();
                panic!("symbiod exited before listening; stdout: {banner:?}");
            }
            let line = line.trim().to_string();
            let listen = line.strip_prefix("symbiod listening on ").map(String::from);
            banner.push(line);
            if let Some(addr) = listen {
                let addr = addr.parse().expect("listen address");
                return Daemon {
                    child,
                    addr,
                    banner,
                };
            }
        }
    }

    fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
        let conn = TcpStream::connect(self.addr).expect("connect to symbiod");
        conn.set_nodelay(true).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        (conn, reader)
    }

    fn recovered_line(&self) -> Option<&String> {
        self.banner
            .iter()
            .find(|l| l.starts_with("symbiod recovered "))
    }
}

fn roundtrip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &Request) -> Response {
    write_frame(conn, req).expect("write frame");
    read_frame(reader)
        .expect("read frame")
        .expect("reply before EOF")
}

fn named_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symbio-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.journal"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Items per `IngestBatch` frame, as the benchmark's batch workload sends.
const BATCH: usize = 32;

/// A v2 (binary) connection, the encoding batched clients use.
fn binary_client(daemon: &Daemon) -> WireClient {
    let mut client = WireClient::connect(daemon.addr, Duration::from_secs(10)).expect("connect");
    client.hello(Encoding::Binary).expect("negotiate binary");
    client
}

/// Round `seq` of connection `conn`'s stream over `groups` groups, cut
/// into `IngestBatch` frames.
fn batches(conn: usize, groups: usize, seq: u64) -> Vec<Request> {
    let snaps: Vec<SigSnapshot> = (0..groups)
        .map(|g| {
            let name = format!("c{conn}-g{g:03}");
            if (seq / 6 + g as u64).is_multiple_of(2) {
                group_snap(&name, seq, OCC_A, PAIR_01_23)
            } else {
                group_snap(&name, seq, OCC_B, PAIR_02_13)
            }
        })
        .collect();
    snaps
        .chunks(BATCH)
        .map(|chunk| Request::IngestBatch(chunk.to_vec()))
        .collect()
}

/// Send one batch frame and return the `(group, seq)` of every decision
/// it acknowledged; `None` once the daemon is gone.
fn acked_by(client: &mut WireClient, request: &Request) -> Option<Vec<(String, u64)>> {
    match client.exchange(request) {
        Ok(Response::Batch(items)) => Some(
            items
                .into_iter()
                .map(|item| match item {
                    Response::Decision(d) => (d.group, d.seq),
                    other => panic!("batch item was not a decision: {other:?}"),
                })
                .collect(),
        ),
        Ok(other) => panic!("expected a batch reply, got {other:?}"),
        Err(_) => None,
    }
}

// ------------------------------------------------------------- test

#[test]
fn sigkilled_daemon_resumes_with_decisions_identical_to_an_uninterrupted_run() {
    let journal = named_journal("kill-restart");
    let trace = trace();

    // Reference: the same engine the daemon runs (weight-sort policy,
    // default config), never interrupted, fed the whole trace.
    let mut reference =
        OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).unwrap();
    let expect: Vec<String> = trace
        .iter()
        .map(|s| serde_json::to_string(&reference.ingest(s).unwrap()).unwrap())
        .collect();
    assert!(
        reference.remaps("kr") > 0,
        "the trace must force a post-crash remap or the test is toothless"
    );

    // First incarnation: serve (and journal) the first eight epochs.
    let first = Daemon::spawn(&journal);
    assert!(first.recovered_line().is_none(), "fresh journal, no replay");
    let (mut conn, mut reader) = first.connect();
    let mut got: Vec<String> = Vec::new();
    for snap in &trace[..8] {
        match roundtrip(&mut conn, &mut reader, &Request::Ingest(snap.clone())) {
            Response::Decision(d) => got.push(serde_json::to_string(&d).unwrap()),
            other => panic!("expected decision for seq {}, got {other:?}", snap.seq),
        }
    }
    assert_eq!(got, expect[..8], "pre-crash decisions match the reference");

    // Fire one more epoch into the socket and SIGKILL without reading
    // the reply: the daemon dies mid-load, with seq 8 either journaled,
    // torn, or never seen — all three must converge after recovery.
    write_frame(&mut conn, &Request::Ingest(trace[8].clone())).expect("write in-flight epoch");
    let mut child = first.child;
    child.kill().expect("SIGKILL symbiod");
    child.wait().expect("reap symbiod");
    drop((conn, reader));

    // Second incarnation recovers from the journal…
    let second = Daemon::spawn(&journal);
    let recovered = second
        .recovered_line()
        .expect("restart must report journal replay")
        .clone();
    assert!(recovered.contains("frames"), "banner: {recovered}");

    // …the client retries its unacknowledged epoch (answered as either a
    // fresh decision or a duplicate, depending on what the crash kept —
    // duplicate suppression makes both leave identical engine state)…
    let (mut conn, mut reader) = second.connect();
    match roundtrip(&mut conn, &mut reader, &Request::Ingest(trace[8].clone())) {
        Response::Decision(_) => {}
        other => panic!("retried epoch must be served, got {other:?}"),
    }

    // …and every following decision is bit-identical to the reference.
    let mut resumed: Vec<String> = Vec::new();
    for snap in &trace[9..] {
        match roundtrip(&mut conn, &mut reader, &Request::Ingest(snap.clone())) {
            Response::Decision(d) => resumed.push(serde_json::to_string(&d).unwrap()),
            other => panic!("expected decision for seq {}, got {other:?}", snap.seq),
        }
    }
    assert_eq!(
        resumed,
        expect[9..],
        "post-recovery decisions must equal the uninterrupted run"
    );

    // The recovered stream's totals line up with the reference too.
    match roundtrip(
        &mut conn,
        &mut reader,
        &Request::Map {
            group: "kr".to_string(),
        },
    ) {
        Response::Map {
            mapping,
            epochs,
            remaps,
            ..
        } => {
            assert_eq!(epochs, reference.epochs("kr"));
            assert_eq!(remaps, reference.remaps("kr"));
            assert_eq!(
                mapping.unwrap().partition_key(2),
                reference.mapping("kr").unwrap().partition_key(2)
            );
        }
        other => panic!("expected map reply, got {other:?}"),
    }

    // Drain the survivor gracefully.
    match roundtrip(&mut conn, &mut reader, &Request::Shutdown) {
        Response::Ok => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    let mut child = second.child;
    assert!(child.wait().expect("reap symbiod").success());
}

/// Group commit must not weaken write-ahead-of-ack: the shard journals a
/// whole run of batch items with one write and only then releases their
/// replies, so whatever instant the daemon dies at, a decision a client
/// has seen acknowledged is in the journal.
#[test]
fn every_acknowledged_batch_decision_survives_a_sigkill_mid_stream() {
    const CONNS: usize = 2;
    const GROUPS: usize = 64;
    let journal = named_journal("mid-batch");
    let daemon = Daemon::spawn(&journal);
    let frames_acked = AtomicU64::new(0);

    let acked: Vec<Vec<(String, u64)>> = std::thread::scope(|scope| {
        let streams: Vec<_> = (0..CONNS)
            .map(|conn| {
                let mut client = binary_client(&daemon);
                let frames_acked = &frames_acked;
                scope.spawn(move || {
                    // Highest acknowledged seq per group, stream order.
                    let mut acked: Vec<(String, u64)> = Vec::new();
                    for seq in 0.. {
                        for request in batches(conn, GROUPS, seq) {
                            let Some(items) = acked_by(&mut client, &request) else {
                                return acked;
                            };
                            acked.extend(items);
                            frames_acked.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    acked
                })
            })
            .collect();
        // Let both streams get well past warm-up, then kill mid-flight.
        let deadline = Instant::now() + Duration::from_secs(30);
        while frames_acked.load(Ordering::SeqCst) < 200 {
            assert!(
                Instant::now() < deadline,
                "the daemon stopped acknowledging"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut child = daemon.child;
        child.kill().expect("SIGKILL symbiod");
        child.wait().expect("reap symbiod");
        streams
            .into_iter()
            .map(|s| s.join().expect("client thread"))
            .collect()
    });

    let recovery = Recovery::load(&journal, OnlineConfig::default().window).expect("replay");
    let mut checked = 0;
    for (group, seq) in acked.iter().flatten() {
        let g = recovery
            .state
            .groups
            .iter()
            .find(|g| &g.name == group)
            .unwrap_or_else(|| panic!("acknowledged group {group} is not in the journal"));
        assert!(
            g.last_seq >= Some(*seq),
            "{group}: seq {seq} was acknowledged, the journal stops at {:?}",
            g.last_seq
        );
        checked += 1;
    }
    assert!(
        checked >= 200 * BATCH,
        "only {checked} acknowledged decisions"
    );
    let _ = std::fs::remove_file(&journal);
}

/// Export every group's state over the wire.
fn export_all(client: &mut WireClient, conns: usize, groups: usize) -> Vec<Option<GroupRecord>> {
    (0..conns)
        .flat_map(|conn| (0..groups).map(move |g| format!("c{conn}-g{g:03}")))
        .map(
            |group| match client.exchange(&Request::ExportGroup { group }) {
                Ok(Response::GroupState { record, .. }) => record,
                other => panic!("expected group state, got {other:?}"),
            },
        )
        .collect()
}

/// Restart cost must follow the state size, not the journal's length or
/// the square of a checkpoint's: 512 groups, several checkpoints behind
/// it, SIGKILL, and the daemon is back — with every group's state exactly
/// as it was — within seconds. (Decoding each checkpoint line, twice,
/// took the previous journal code the better part of a second apiece.)
#[test]
fn a_many_group_journal_restarts_quickly_to_the_pre_kill_state() {
    const CONNS: usize = 2;
    const GROUPS: usize = 256;
    const ROUNDS: u64 = 24;
    let journal = named_journal("many-groups");
    let first = Daemon::spawn(&journal);
    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            let mut client = binary_client(&first);
            scope.spawn(move || {
                for seq in 0..ROUNDS {
                    for request in batches(conn, GROUPS, seq) {
                        acked_by(&mut client, &request).expect("daemon is up");
                    }
                }
            });
        }
    });
    let mut control = binary_client(&first);
    let before = export_all(&mut control, CONNS, GROUPS);
    assert!(before.iter().all(Option::is_some));
    drop(control);
    let mut child = first.child;
    child.kill().expect("SIGKILL symbiod");
    child.wait().expect("reap symbiod");

    let checkpoints = std::fs::read(&journal)
        .expect("journal")
        .split(|&b| b == b'\n')
        .filter(|line| line.len() > 9 && line[9..].starts_with(b"{\"Snapshot\""))
        .count();
    assert!(
        checkpoints >= 3,
        "only {checkpoints} checkpoints were written"
    );

    let t0 = Instant::now();
    let second = Daemon::spawn(&journal);
    let restart = t0.elapsed();
    assert!(second.recovered_line().is_some(), "restart must replay");
    assert!(
        restart < Duration::from_secs(5),
        "restart took {restart:?} with {checkpoints} checkpoints behind it"
    );
    let mut control = binary_client(&second);
    let after = export_all(&mut control, CONNS, GROUPS);
    assert!(
        after == before,
        "a group's state changed across the restart"
    );

    match control.exchange(&Request::Shutdown) {
        Ok(Response::Ok) => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    let mut child = second.child;
    assert!(child.wait().expect("reap symbiod").success());
    let _ = std::fs::remove_file(&journal);
}
