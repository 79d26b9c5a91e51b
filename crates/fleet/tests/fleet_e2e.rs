//! End-to-end fleet tests over loopback TCP: real `Symbiod` backends,
//! a real `Fleetd` coordinator, spoken to through the public wire
//! protocol. Covers the proxy path, the explicit fleet verbs, the
//! rebalance-on-`Assign` path, the auto-eviction of a killed backend
//! (zero lost acks), tenant admission, fleet-wide metrics aggregation,
//! and the `IngestBatch` fan-out (ordering, mixed local/proxied replies,
//! a backend dying under a batch, a backend with a small `batch_max`).

use std::net::SocketAddr;
use std::time::Duration;
use symbio_allocator::WeightSortPolicy;
use symbio_fleet::{FleetConfig, Fleetd, Membership, TenantSpec};
use symbio_machine::{ProcView, SigSnapshot, ThreadView};
use symbio_online::{DecisionReason, OnlineConfig, OnlineEngine};
use symbio_serve::proto::DEFAULT_BATCH_MAX;
use symbio_serve::{Encoding, Request, Response, ServeConfig, SymbiodBuilder, WireClient};

fn thread_view(tid: usize, occ: f64) -> ThreadView {
    ThreadView {
        tid,
        pid: tid,
        name: format!("p{tid}"),
        occupancy: occ,
        symbiosis: vec![50.0, 50.0],
        overlap: vec![5.0, 5.0],
        last_occupancy: occ as u32,
        last_core: Some(tid % 2),
        samples: 8,
        filter_len: 64,
        l2_miss_rate: 0.2,
        l2_misses: 100,
        retired: 1000,
    }
}

fn snapshot(group: &str, seq: u64) -> SigSnapshot {
    let occ = [40.0, 30.0, 20.0, 10.0];
    SigSnapshot {
        group: group.to_string(),
        seq,
        now_cycles: seq * 1_000,
        cores: 2,
        domains: vec![2],
        procs: (0..4)
            .map(|pid| ProcView {
                pid,
                name: format!("p{pid}"),
                threads: vec![thread_view(pid, occ[pid])],
            })
            .collect(),
    }
}

/// A snapshot whose occupancies depend on the group and the epoch, so
/// streams of different groups decide differently.
fn varied_snapshot(group: &str, seq: u64) -> SigSnapshot {
    let mut snap = snapshot(group, seq);
    let shift = group.len() + seq as usize / 3;
    let occ = [40.0, 30.0, 20.0, 10.0];
    for (pid, proc) in snap.procs.iter_mut().enumerate() {
        proc.threads[0].occupancy = occ[(pid + shift) % 4];
        proc.threads[0].last_occupancy = occ[(pid + shift) % 4] as u32;
    }
    snap
}

fn reference_engine() -> OnlineEngine {
    OnlineEngine::new(Box::new(WeightSortPolicy), OnlineConfig::default()).expect("engine")
}

/// One in-process backend on an ephemeral port, taking at most
/// `batch_max` snapshots per `IngestBatch` frame.
fn spawn_backend(batch_max: usize) -> (SocketAddr, std::thread::JoinHandle<symbio::Result<()>>) {
    let cfg = ServeConfig {
        workers: 2,
        backlog: 16,
        deadline: Duration::from_secs(5),
    };
    let daemon = SymbiodBuilder::new(cfg)
        .batch_max(batch_max)
        .bind("127.0.0.1:0", vec![reference_engine()])
        .expect("bind backend");
    let addr = daemon.local_addr();
    (addr, std::thread::spawn(move || daemon.run()))
}

/// The rig: backend addresses and threads, the coordinator's address
/// and thread, and a negotiated client.
type Fleet = (
    Vec<SocketAddr>,
    Vec<std::thread::JoinHandle<symbio::Result<()>>>,
    SocketAddr,
    std::thread::JoinHandle<symbio::Result<()>>,
    WireClient,
);

/// A coordinator over `n` fresh backends, plus a negotiated client.
fn spawn_fleet(n: usize, cfg: FleetConfig) -> Fleet {
    spawn_fleet_capped(n, DEFAULT_BATCH_MAX, cfg)
}

/// [`spawn_fleet`] over backends that advertise `batch_max`.
fn spawn_fleet_capped(n: usize, batch_max: usize, cfg: FleetConfig) -> Fleet {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..n {
        let (addr, handle) = spawn_backend(batch_max);
        addrs.push(addr);
        handles.push(handle);
    }
    let backend_strs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let fleet = Fleetd::bind("127.0.0.1:0", &backend_strs, cfg).expect("bind fleetd");
    let fleet_addr = fleet.local_addr();
    let fleet_handle = std::thread::spawn(move || fleet.run());
    let mut client =
        WireClient::connect(fleet_addr, Duration::from_secs(5)).expect("connect fleetd");
    client.hello(Encoding::Binary).expect("negotiate binary");
    (addrs, handles, fleet_addr, fleet_handle, client)
}

fn shutdown_and_join(
    client: &mut WireClient,
    backends: Vec<std::thread::JoinHandle<symbio::Result<()>>>,
    fleet: std::thread::JoinHandle<symbio::Result<()>>,
) {
    let reply = client.exchange(&Request::Shutdown).expect("shutdown ack");
    assert!(matches!(reply, Response::Ok), "got {reply:?}");
    for h in backends {
        h.join().expect("backend thread").expect("backend exit");
    }
    fleet.join().expect("fleet thread").expect("fleet exit");
}

#[test]
fn proxies_ingest_and_map_and_routes_match_the_pure_assignment() {
    let (addrs, backends, _, fleet, mut client) = spawn_fleet(2, FleetConfig::default());
    let backend_strs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let reference = Membership::new(backend_strs);

    // Ingest across several groups: every ack is a real engine decision
    // proxied from the owning backend.
    for g in ["acme/load-0", "acme/load-1", "beta/load-0", "solo"] {
        for seq in 0..4u64 {
            let reply = client
                .exchange(&Request::Ingest(snapshot(g, seq)))
                .expect("proxied ingest");
            assert!(
                matches!(reply, Response::Decision(_)),
                "group {g} seq {seq}: {reply:?}"
            );
        }
        // Route agrees with an independently computed assignment.
        let reply = client
            .exchange(&Request::Route {
                group: g.to_string(),
            })
            .expect("route");
        match reply {
            Response::Route {
                group,
                backend,
                epoch,
            } => {
                assert_eq!(group, g);
                assert_eq!(backend, reference.owner_of(g).unwrap());
                assert_eq!(epoch, 1);
            }
            other => panic!("expected Route, got {other:?}"),
        }
        // Map proxies to the same backend that saw the ingests.
        let reply = client
            .exchange(&Request::Map {
                group: g.to_string(),
            })
            .expect("map");
        match reply {
            Response::Map { group, epochs, .. } => {
                assert_eq!(group, g);
                assert_eq!(epochs, 4);
            }
            other => panic!("expected Map, got {other:?}"),
        }
    }

    // Fleet metrics aggregate the backends' engine counters.
    let reply = client.exchange(&Request::FleetMetrics).expect("metrics");
    match reply {
        Response::FleetMetrics(snap) => {
            assert_eq!(snap.epoch, 1);
            assert_eq!(snap.backends.len(), 2);
            assert!(snap.backends.iter().all(|b| b.healthy));
            assert_eq!(snap.aggregate.online_epochs, 16);
            assert!(snap.aggregate.fleet_routes > 0);
            let groups: u64 = snap.backends.iter().map(|b| b.groups).sum();
            assert_eq!(groups, 4);
        }
        other => panic!("expected FleetMetrics, got {other:?}"),
    }

    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn assign_rebalances_and_moved_groups_get_one_route_moved() {
    let (addrs, backends, _, fleet, mut client) = spawn_fleet(3, FleetConfig::default());

    // Route 30 groups through the fleet.
    let groups: Vec<String> = (0..30).map(|i| format!("t{}/g-{i}", i % 3)).collect();
    for g in &groups {
        let reply = client
            .exchange(&Request::Ingest(snapshot(g, 0)))
            .expect("ingest");
        assert!(matches!(reply, Response::Decision(_)));
    }

    // Drop the lexically first backend via an explicit Assign.
    let backend_strs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let before = Membership::new(backend_strs.clone());
    let victim = before.addrs()[0].clone();
    let owned_by_victim: Vec<&String> = groups
        .iter()
        .filter(|g| before.owner_of(g).unwrap() == victim)
        .collect();
    let reply = client
        .exchange(&Request::Assign {
            add: vec![],
            remove: vec![victim.clone()],
        })
        .expect("assign");
    match reply {
        Response::FleetView(view) => {
            assert_eq!(view.epoch, 2);
            assert_eq!(view.backends.len(), 2);
            assert!(!view.backends.contains(&victim));
            assert_eq!(view.moved as usize, owned_by_victim.len());
        }
        other => panic!("expected FleetView, got {other:?}"),
    }

    // Every moved group answers route_moved exactly once, then serves;
    // unmoved groups never see it.
    for g in &groups {
        let was_victims = before.owner_of(g).unwrap() == victim;
        let reply = client
            .exchange(&Request::Ingest(snapshot(g, 1)))
            .expect("post-rebalance ingest");
        if was_victims {
            match reply {
                Response::Error {
                    code, retryable, ..
                } => {
                    assert_eq!(code, "route_moved");
                    assert!(retryable);
                }
                other => panic!("moved group {g} got {other:?}"),
            }
            // The retry proxies to the new owner.
            let retry = client
                .exchange(&Request::Ingest(snapshot(g, 1)))
                .expect("retry after route_moved");
            assert!(matches!(retry, Response::Decision(_)), "{g}: {retry:?}");
        } else {
            assert!(matches!(reply, Response::Decision(_)), "{g}: {reply:?}");
        }
    }

    // The explicitly removed (still healthy) backend needs its own
    // shutdown — the coordinator no longer fronts it.
    let victim_sock: SocketAddr = victim.parse().unwrap();
    let mut direct = WireClient::connect(victim_sock, Duration::from_secs(5)).expect("direct");
    assert!(matches!(
        direct.exchange(&Request::Shutdown).expect("drain victim"),
        Response::Ok
    ));

    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn killed_backend_is_auto_evicted_with_zero_lost_acks() {
    let (addrs, backends, _, fleet, mut client) = spawn_fleet(2, FleetConfig::default());
    let backend_strs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let reference = Membership::new(backend_strs);

    let groups: Vec<String> = (0..20).map(|i| format!("kill/g-{i}")).collect();
    for g in &groups {
        let reply = client
            .exchange(&Request::Ingest(snapshot(g, 0)))
            .expect("ingest");
        assert!(matches!(reply, Response::Decision(_)));
    }

    // Kill one backend out from under the coordinator (a real drain, but
    // the coordinator is not told — it finds out from the dead socket).
    let victim = reference.addrs()[0].clone();
    let victim_sock: SocketAddr = victim.parse().unwrap();
    let mut direct = WireClient::connect(victim_sock, Duration::from_secs(5)).expect("direct");
    assert!(matches!(
        direct.exchange(&Request::Shutdown).expect("kill backend"),
        Response::Ok
    ));

    // Every group keeps getting real acks. The first request to hit the
    // dead owner auto-evicts it (internal retry, no client-visible
    // error); the other relocated groups answer `route_moved` once —
    // the retryable tell-the-client-to-re-resolve path — and serve on
    // the retry. Nothing is lost either way.
    for g in &groups {
        let mut reply = client
            .exchange(&Request::Ingest(snapshot(g, 1)))
            .expect("post-kill ingest");
        if let Response::Error {
            ref code,
            retryable,
            ..
        } = reply
        {
            assert_eq!(code, "route_moved", "group {g}: {reply:?}");
            assert!(retryable);
            reply = client
                .exchange(&Request::Ingest(snapshot(g, 1)))
                .expect("retry after route_moved");
        }
        assert!(
            matches!(reply, Response::Decision(_)),
            "group {g} lost its ack: {reply:?}"
        );
    }

    // The eviction shows up in the fleet counters and membership.
    let reply = client.exchange(&Request::FleetMetrics).expect("metrics");
    match reply {
        Response::FleetMetrics(snap) => {
            assert_eq!(snap.backends.len(), 1);
            assert_ne!(snap.backends[0].addr, victim);
            assert!(snap.aggregate.fleet_backend_errors > 0);
            let moved_any = reference
                .addrs()
                .iter()
                .any(|_| snap.aggregate.fleet_rebalance_moves > 0);
            assert!(moved_any, "rebalance moves must be counted");
        }
        other => panic!("expected FleetMetrics, got {other:?}"),
    }

    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn planned_drain_warm_hands_off_moved_groups_with_state_intact() {
    let (addrs, backends, _, fleet, mut client) = spawn_fleet(3, FleetConfig::default());
    let backend_strs: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let before = Membership::new(backend_strs);

    let groups: Vec<String> = (0..18).map(|i| format!("warm/g-{i}")).collect();
    for g in &groups {
        for seq in 0..4u64 {
            let reply = client
                .exchange(&Request::Ingest(snapshot(g, seq)))
                .expect("ingest");
            assert!(matches!(reply, Response::Decision(_)));
        }
    }

    // Snapshot every group's exported state while the fleet is quiet:
    // the handoff must carry exactly this across the drain.
    let export = |client: &mut WireClient, g: &String| {
        let mut reply = client
            .exchange(&Request::ExportGroup { group: g.clone() })
            .expect("export");
        // A moved group answers route_moved once before serving.
        if matches!(reply, Response::Error { ref code, .. } if code == "route_moved") {
            reply = client
                .exchange(&Request::ExportGroup { group: g.clone() })
                .expect("export retry");
        }
        match reply {
            Response::GroupState { record, .. } => record.expect("ingested group has state"),
            other => panic!("expected GroupState for {g}, got {other:?}"),
        }
    };
    let digests: Vec<_> = groups.iter().map(|g| export(&mut client, g)).collect();

    // Drain the lexically first backend on purpose — it stays alive, so
    // every group it owned must move *warm*.
    let victim = before.addrs()[0].clone();
    let moved_groups: Vec<&String> = groups
        .iter()
        .filter(|g| before.owner_of(g).unwrap() == victim)
        .collect();
    assert!(
        !moved_groups.is_empty(),
        "rendezvous spreads 18 groups over 3"
    );
    let reply = client
        .exchange(&Request::Assign {
            add: vec![],
            remove: vec![victim.clone()],
        })
        .expect("assign");
    assert!(matches!(reply, Response::FleetView(_)));

    // Exported-state digest equality: the new owner serves the exact
    // record the old owner held.
    for (g, before_record) in groups.iter().zip(&digests) {
        let after_record = export(&mut client, g);
        assert_eq!(
            &after_record, before_record,
            "group {g} lost state across the drain"
        );
    }

    // Every moved group was a warm handoff; nothing fell back cold.
    let reply = client.exchange(&Request::FleetMetrics).expect("metrics");
    match reply {
        Response::FleetMetrics(snap) => {
            assert_eq!(
                snap.aggregate.fleet_warm_handoffs,
                moved_groups.len() as u64
            );
            assert_eq!(snap.aggregate.fleet_cold_fallbacks, 0);
            assert!(snap.aggregate.membership_epochs >= 1);
        }
        other => panic!("expected FleetMetrics, got {other:?}"),
    }

    // The drained backend is out of the fleet; shut it down directly.
    let victim_sock: SocketAddr = victim.parse().unwrap();
    let mut direct = WireClient::connect(victim_sock, Duration::from_secs(5)).expect("direct");
    assert!(matches!(
        direct.exchange(&Request::Shutdown).expect("drain victim"),
        Response::Ok
    ));

    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn import_group_is_refused_at_the_coordinator() {
    let (_, backends, _, fleet, mut client) = spawn_fleet(1, FleetConfig::default());
    let reply = client
        .exchange(&Request::ImportGroup(
            symbio_online::journal::GroupRecord::default(),
        ))
        .expect("import attempt");
    match reply {
        Response::Error {
            code, retryable, ..
        } => {
            assert_eq!(code, "backend_verb");
            assert!(!retryable);
        }
        other => panic!("expected backend_verb, got {other:?}"),
    }
    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn what_if_proxies_to_the_owner_and_subscribe_is_refused() {
    let (_, backends, _, fleet, mut client) = spawn_fleet(2, FleetConfig::default());

    // Seed a group so its owner has epoch-ring state to evaluate.
    for seq in 0..4u64 {
        let reply = client
            .exchange(&Request::Ingest(snapshot("wi/load-0", seq)))
            .expect("seed ingest");
        assert!(matches!(reply, Response::Decision(_)), "got {reply:?}");
    }

    // WhatIf crosses the coordinator to the group's owner and comes back
    // as a real counterfactual answer — first computed, then (identical
    // query, no intervening mutation) from the owner's shard memo.
    let query = Request::WhatIf(snapshot("wi/load-0", 100));
    match client.exchange(&query).expect("what-if") {
        Response::WhatIf {
            group, memo_hit, ..
        } => {
            assert_eq!(group, "wi/load-0");
            assert!(!memo_hit, "first what-if cannot be a memo hit");
        }
        other => panic!("expected WhatIf, got {other:?}"),
    }
    match client.exchange(&query).expect("what-if repeat") {
        Response::WhatIf { memo_hit, .. } => {
            assert!(memo_hit, "identical repeat must hit the owner's memo")
        }
        other => panic!("expected WhatIf, got {other:?}"),
    }

    // Explain proxies the same way; these backends run without
    // explanation recording, so the answer is an explicit None.
    match client
        .exchange(&Request::Explain {
            group: "wi/load-0".to_string(),
        })
        .expect("explain")
    {
        Response::Explained { group, explanation } => {
            assert_eq!(group, "wi/load-0");
            assert!(explanation.is_none());
        }
        other => panic!("expected Explained, got {other:?}"),
    }

    // Subscribe has no proxy path: the coordinator holds no long-lived
    // push channel to a backend, so it refuses with `backend_verb`.
    match client.exchange(&Request::Subscribe).expect("subscribe") {
        Response::Error {
            code, retryable, ..
        } => {
            assert_eq!(code, "backend_verb");
            assert!(!retryable);
        }
        other => panic!("expected backend_verb, got {other:?}"),
    }

    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn restarted_fleetd_replays_the_membership_journal_to_identical_routes() {
    let journal = {
        let mut p = std::env::temp_dir();
        p.push(format!("symbio-fleet-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    // Route/Assign never dial backends, so synthetic addresses keep
    // this test about the journal, not about live symbiods.
    let fake: Vec<String> = (0..3).map(|i| format!("127.0.0.1:1{i}")).collect();
    let groups: Vec<String> = (0..24).map(|i| format!("t{}/r-{i}", i % 2)).collect();
    let cfg = FleetConfig {
        journal: Some(journal.clone()),
        timeout: Duration::from_millis(200),
        ..FleetConfig::default()
    };

    let route_all = |client: &mut WireClient, groups: &[String]| -> Vec<(String, u64)> {
        groups
            .iter()
            .map(|g| {
                match client
                    .exchange(&Request::Route { group: g.clone() })
                    .expect("route")
                {
                    Response::Route { backend, epoch, .. } => (backend, epoch),
                    other => panic!("expected Route, got {other:?}"),
                }
            })
            .collect()
    };

    // First life: seed three backends, drain one (journaled), record
    // the full routing view.
    let fleet = Fleetd::bind("127.0.0.1:0", &fake, cfg.clone()).expect("bind 1");
    let addr = fleet.local_addr();
    let handle = std::thread::spawn(move || fleet.run());
    let mut client = WireClient::connect(addr, Duration::from_secs(5)).expect("connect");
    client.hello(Encoding::Binary).expect("negotiate");
    let reply = client
        .exchange(&Request::Assign {
            add: vec![],
            remove: vec![fake[0].clone()],
        })
        .expect("drain");
    match reply {
        Response::FleetView(view) => assert_eq!(view.epoch, 2),
        other => panic!("expected FleetView, got {other:?}"),
    }
    let before = route_all(&mut client, &groups);
    assert!(matches!(
        client.exchange(&Request::Shutdown).expect("shutdown"),
        Response::Ok
    ));
    handle.join().expect("fleet thread").expect("fleet exit");

    // Simulate the SIGKILL crash tail: half a frame of garbage on disk.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("reopen journal");
        f.write_all(b"deadbeef {\"Evict\":{\"addr\":")
            .expect("tear");
    }

    // Second life: the backends argument is deliberately wrong — the
    // journal must win and reproduce the identical routing view.
    let bogus = vec!["10.255.255.1:9".to_string()];
    let fleet = Fleetd::bind("127.0.0.1:0", &bogus, cfg).expect("bind 2");
    let addr = fleet.local_addr();
    let handle = std::thread::spawn(move || fleet.run());
    let mut client = WireClient::connect(addr, Duration::from_secs(5)).expect("reconnect");
    client.hello(Encoding::Binary).expect("negotiate");
    let after = route_all(&mut client, &groups);
    assert_eq!(after, before, "replayed routing view must be identical");
    match client.exchange(&Request::Metrics).expect("metrics") {
        Response::Metrics(c) => {
            // Seed + drain were journaled; the restart replayed both.
            assert_eq!(c.membership_epochs, 2);
            assert_eq!(c.recovery_replays, 1);
        }
        other => panic!("expected Metrics, got {other:?}"),
    }
    assert!(matches!(
        client.exchange(&Request::Shutdown).expect("shutdown 2"),
        Response::Ok
    ));
    handle
        .join()
        .expect("fleet thread 2")
        .expect("fleet exit 2");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn tenant_quota_and_rate_limits_are_enforced_at_the_coordinator() {
    let cfg = FleetConfig {
        tenants: vec![TenantSpec {
            id: "capped".into(),
            priority: 0,
            max_groups: 2,
            rate: 0.0,
            burst: 0.0,
        }],
        ..FleetConfig::default()
    };
    let (_, backends, _, fleet, mut client) = spawn_fleet(2, cfg);

    // Two distinct groups fit the quota; the third is refused without
    // costing the backends anything.
    for g in ["capped/a", "capped/b"] {
        let reply = client
            .exchange(&Request::Ingest(snapshot(g, 0)))
            .expect("ingest");
        assert!(matches!(reply, Response::Decision(_)));
    }
    let reply = client
        .exchange(&Request::Ingest(snapshot("capped/c", 0)))
        .expect("over-quota ingest");
    match reply {
        Response::Error {
            code, retryable, ..
        } => {
            assert_eq!(code, "tenant_quota");
            assert!(!retryable);
        }
        other => panic!("expected tenant_quota, got {other:?}"),
    }
    // Existing groups keep flowing, and other tenants are untouched.
    for g in ["capped/a", "free/x"] {
        let reply = client
            .exchange(&Request::Ingest(snapshot(g, 1)))
            .expect("ingest");
        assert!(matches!(reply, Response::Decision(_)), "{g}: {reply:?}");
    }
    let reply = client.exchange(&Request::FleetMetrics).expect("metrics");
    match reply {
        Response::FleetMetrics(snap) => assert_eq!(snap.aggregate.tenant_sheds, 1),
        other => panic!("expected FleetMetrics, got {other:?}"),
    }

    shutdown_and_join(&mut client, backends, fleet);
}

/// One `IngestBatch` round trip; the reply's items.
fn send_batch(client: &mut WireClient, snaps: Vec<SigSnapshot>) -> Vec<Response> {
    match client
        .exchange(&Request::IngestBatch(snaps))
        .expect("batch round trip")
    {
        Response::Batch(items) => items,
        other => panic!("expected Batch, got {other:?}"),
    }
}

fn fleet_snapshot(client: &mut WireClient) -> symbio_serve::proto::FleetSnapshot {
    match client.exchange(&Request::FleetMetrics).expect("metrics") {
        Response::FleetMetrics(snap) => snap,
        other => panic!("expected FleetMetrics, got {other:?}"),
    }
}

fn error_code(reply: &Response) -> Option<&str> {
    match reply {
        Response::Error { code, .. } => Some(code),
        _ => None,
    }
}

/// Every item must acknowledge exactly the snapshot in its slot.
fn assert_acks_line_up(sent: &[SigSnapshot], items: &[Response]) {
    assert_eq!(items.len(), sent.len());
    for (snap, item) in sent.iter().zip(items) {
        match item {
            Response::Decision(d) => {
                assert_eq!((d.group.as_str(), d.seq), (snap.group.as_str(), snap.seq));
                assert_ne!(d.reason, DecisionReason::Duplicate, "{d:?}");
            }
            other => panic!("{}#{} got {other:?}", snap.group, snap.seq),
        }
    }
}

#[test]
fn a_batch_fans_out_per_owner_and_replies_in_input_order() {
    let (addrs, backends, _, fleet, mut client) = spawn_fleet(2, FleetConfig::default());
    let reference = Membership::new(addrs.iter().map(|a| a.to_string()));
    let groups: Vec<String> = (0..24).map(|i| format!("fan{}/g-{i}", i % 3)).collect();
    let owners: std::collections::HashSet<&str> = groups
        .iter()
        .map(|g| reference.owner_of(g).unwrap())
        .collect();
    assert_eq!(owners.len(), 2, "24 groups must span both backends");

    // Eight batches; each carries every group once, in an order that
    // interleaves the two owners, and two consecutive seqs of the first
    // group — the second must be applied after the first.
    let mut engine = reference_engine();
    let mut next = vec![0u64; groups.len()];
    for round in 0..8usize {
        let mut sent = Vec::new();
        for k in 0..groups.len() {
            let g = (k * 5 + round) % groups.len();
            for _ in 0..if g == 0 { 2 } else { 1 } {
                sent.push(varied_snapshot(&groups[g], next[g]));
                next[g] += 1;
            }
        }
        let items = send_batch(&mut client, sent.clone());
        assert_acks_line_up(&sent, &items);
        for (snap, item) in sent.iter().zip(&items) {
            let expected = engine.ingest(snap).expect("reference ingest");
            // `Decision` has no `PartialEq`; its `Debug` shows every field.
            let expected = format!("{:?}", Response::Decision(expected));
            assert_eq!(format!("{item:?}"), expected);
        }
    }

    for (g, sent) in groups.iter().zip(&next) {
        match client
            .exchange(&Request::Map { group: g.clone() })
            .expect("map")
        {
            Response::Map {
                mapping,
                epochs,
                remaps,
                ..
            } => {
                assert_eq!(epochs, *sent);
                assert_eq!(
                    (mapping.as_ref(), epochs, remaps),
                    (engine.mapping(g), engine.epochs(g), engine.remaps(g)),
                    "group {g} diverged from the in-process engine"
                );
            }
            other => panic!("expected Map, got {other:?}"),
        }
    }
    // One frame per owner per batch: 8 batches of 25 decisions cost each
    // backend 8 frames, and `proxied` counts the decisions.
    let snap = fleet_snapshot(&mut client);
    assert_eq!(snap.aggregate.online_epochs, 8 * 25);
    assert_eq!(snap.aggregate.serve_batches, 8 + 2 * 8);
    let proxied: u64 = snap.backends.iter().map(|b| b.proxied).sum();
    assert_eq!(proxied, 8 * 25 + 24 + 2, "decisions + Map + Metrics");

    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn a_new_group_counts_once_against_the_quota_within_a_batch() {
    let capped = |id: &str| TenantSpec {
        id: id.into(),
        priority: 0,
        max_groups: 1,
        rate: 0.0,
        burst: 0.0,
    };
    let cfg = FleetConfig {
        tenants: vec![capped("one"), capped("two")],
        ..FleetConfig::default()
    };
    let (_, backends, _, fleet, mut client) = spawn_fleet(2, cfg);

    // Two snapshots of one not-yet-routed group are one distinct group.
    let sent = vec![snapshot("one/g", 0), snapshot("one/g", 1)];
    let items = send_batch(&mut client, sent.clone());
    assert_acks_line_up(&sent, &items);

    // Two new groups are two: the second is over the quota of one.
    let items = send_batch(
        &mut client,
        vec![snapshot("two/g", 0), snapshot("two/h", 0)],
    );
    assert!(matches!(items[0], Response::Decision(_)), "{:?}", items[0]);
    assert_eq!(error_code(&items[1]), Some("tenant_quota"));
    let snap = fleet_snapshot(&mut client);
    assert_eq!(snap.aggregate.tenant_sheds, 1);
    assert_eq!(snap.aggregate.online_epochs, 3);

    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn a_mixed_batch_answers_every_slot_and_refused_items_reach_no_backend() {
    let cfg = FleetConfig {
        tenants: vec![TenantSpec {
            id: "capped".into(),
            priority: 0,
            max_groups: 1,
            rate: 0.0,
            burst: 0.0,
        }],
        ..FleetConfig::default()
    };
    let (addrs, backends, _, fleet, mut client) = spawn_fleet(3, cfg);
    let before = Membership::new(addrs.iter().map(|a| a.to_string()));
    let victim = before.addrs()[0].clone();

    let mut groups: Vec<String> = (0..40).map(|i| format!("mix/g-{i}")).collect();
    // The capped tenant's one group must outlive the drain unmoved.
    let capped = (0..)
        .map(|i| format!("capped/k-{i}"))
        .find(|g| before.owner_of(g).unwrap() != victim)
        .unwrap();
    groups.push(capped.clone());
    let sent: Vec<SigSnapshot> = groups.iter().map(|g| snapshot(g, 0)).collect();
    assert_acks_line_up(&sent, &send_batch(&mut client, sent.clone()));

    // A planned drain flags the victim's groups `moved`.
    let reply = client
        .exchange(&Request::Assign {
            add: vec![],
            remove: vec![victim.clone()],
        })
        .expect("assign");
    assert!(matches!(reply, Response::FleetView(_)));
    let (moved, stayed): (Vec<&String>, Vec<&String>) = groups[..40]
        .iter()
        .partition(|g| before.owner_of(g).unwrap() == victim);
    assert!(!moved.is_empty() && stayed.len() >= 2, "40 groups over 3");
    let epochs_before = fleet_snapshot(&mut client).aggregate.online_epochs;

    // Unmoved, over-quota, unmoved, moved, the capped tenant's one
    // routed group: three go to backends, two are answered locally.
    let sent = vec![
        snapshot(stayed[0], 1),
        snapshot("capped/over-quota", 0),
        snapshot(stayed[1], 1),
        snapshot(moved[0], 1),
        snapshot(&capped, 1),
    ];
    let items = send_batch(&mut client, sent.clone());
    assert_eq!(items.len(), 5);
    assert_eq!(error_code(&items[1]), Some("tenant_quota"));
    assert_eq!(error_code(&items[3]), Some("route_moved"));
    for i in [0, 2, 4] {
        assert_acks_line_up(&sent[i..=i], &items[i..=i]);
    }
    let epochs_after = fleet_snapshot(&mut client).aggregate.online_epochs;
    assert_eq!(epochs_after - epochs_before, 3);

    // The moved flag fired once: the retry is proxied, warm.
    let retry = send_batch(&mut client, vec![snapshot(moved[0], 1)]);
    assert_acks_line_up(&[snapshot(moved[0], 1)], &retry);

    let victim_sock: SocketAddr = victim.parse().unwrap();
    let mut direct = WireClient::connect(victim_sock, Duration::from_secs(5)).expect("direct");
    assert!(matches!(
        direct.exchange(&Request::Shutdown).expect("drain victim"),
        Response::Ok
    ));
    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn a_backend_dying_under_a_batch_costs_one_strike_per_frame_and_no_error() {
    let (addrs, backends, _, fleet, mut client) = spawn_fleet(2, FleetConfig::default());
    let reference = Membership::new(addrs.iter().map(|a| a.to_string()));
    let groups: Vec<String> = (0..24).map(|i| format!("die/g-{i}")).collect();
    let sent: Vec<SigSnapshot> = groups.iter().map(|g| snapshot(g, 0)).collect();
    assert_acks_line_up(&sent, &send_batch(&mut client, sent.clone()));

    let victim = reference.addrs()[0].clone();
    let orphans = groups
        .iter()
        .filter(|g| reference.owner_of(g).unwrap() == victim)
        .count() as u64;
    assert!(orphans > 1, "the victim must own more than one group");
    let victim_sock: SocketAddr = victim.parse().unwrap();
    let mut direct = WireClient::connect(victim_sock, Duration::from_secs(5)).expect("direct");
    assert!(matches!(
        direct.exchange(&Request::Shutdown).expect("kill backend"),
        Response::Ok
    ));
    let survivor_epochs = 24 - orphans;

    // Every group's next seq in one batch: the survivor's frame is
    // answered in the first round; the victim's frame fails three times
    // (one strike each, whatever it carried), the victim is evicted, and
    // its items land on the survivor — all inside the one request.
    let sent: Vec<SigSnapshot> = groups.iter().map(|g| snapshot(g, 1)).collect();
    let items = send_batch(&mut client, sent.clone());
    assert_acks_line_up(&sent, &items);

    let snap = fleet_snapshot(&mut client);
    assert_eq!(snap.backends.len(), 1);
    assert_ne!(snap.backends[0].addr, victim);
    let threshold = u64::from(FleetConfig::default().flap_threshold);
    assert_eq!(snap.aggregate.fleet_backend_errors, threshold);
    assert_eq!(snap.aggregate.fleet_flaps_suppressed, threshold - 1);
    assert_eq!(snap.aggregate.fleet_rebalance_moves, orphans);
    // The survivor applied its own groups' two epochs and the orphans'
    // one, each exactly once.
    assert_eq!(snap.aggregate.online_epochs, survivor_epochs + 24);

    shutdown_and_join(&mut client, backends, fleet);
}

#[test]
fn a_backend_with_a_small_batch_max_still_serves_a_large_batch() {
    let (_, backends, _, fleet, mut client) = spawn_fleet_capped(1, 2, FleetConfig::default());

    // Eight snapshots, three of them consecutive seqs of one group that
    // straddle a frame boundary, through a backend that takes two.
    let sent: Vec<SigSnapshot> = [
        ("cap/a", 0),
        ("cap/b", 0),
        ("cap/c", 0),
        ("cap/a", 1),
        ("cap/a", 2),
        ("cap/d", 0),
        ("cap/b", 1),
        ("cap/e", 0),
    ]
    .iter()
    .map(|&(g, seq)| snapshot(g, seq))
    .collect();
    let items = send_batch(&mut client, sent.clone());
    assert_acks_line_up(&sent, &items);

    let snap = fleet_snapshot(&mut client);
    assert_eq!(snap.aggregate.online_epochs, 8);
    // The coordinator's one upstream batch became four backend frames…
    assert_eq!(snap.aggregate.serve_batches, 1 + 4);
    // …while `proxied` counts decisions (plus this FleetMetrics' own
    // Metrics exchange), not frames.
    assert_eq!(snap.backends[0].proxied, 8 + 1);
    assert_eq!(snap.backends[0].errors, 0);

    shutdown_and_join(&mut client, backends, fleet);
}
