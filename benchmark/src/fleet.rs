//! `fleet_proxy`: a `fleetd` child fronting two `symbiod` children, no
//! faults — the proxy hop, the coordinator mutex, the routing table and
//! tenant admission.
//!
//! Work is an acknowledged ingest decision; a request is one
//! `IngestBatch`(8) round trip through the coordinator. 256 groups over
//! four tenants, because placement is by rendezvous hash over the
//! backends' ephemeral addresses: with a handful of groups identical
//! runs were bimodal, with hundreds the split evens out.

use std::time::{Duration, Instant};

use symbio_fleet::{tenant_of, Membership, RouteEntry, RoutingTable, TenantRegistry, TenantSpec};
use symbio_serve::{Request, Response};

use crate::daemon::{on_daemon_cores, Daemon};
use crate::load::Conn;
use crate::serve::{
    check_against_reference, end_to_end, fold_closed, run_closed, warm_up, Live, Shape, Streams,
    CONNS,
};
use crate::trace::Tracer;
use crate::util::{nproc, secs_since};
use crate::{timed_setups, RunConfig, RunResult};

/// `symbiod` backends behind the coordinator.
const BACKENDS: usize = 2;
/// Fewest groups the workload may run with (the noise control above).
const MIN_GROUPS: usize = 128;
/// Synthetic groups in the routing-state probes.
const SYNTHETIC_GROUPS: u64 = 100_000;

struct Rig {
    streams: Streams,
    fleetd: Daemon,
    backends: Vec<Daemon>,
    conns: Vec<Conn>,
}

/// Generous per-tenant limits: admission runs its quota and token-bucket
/// arithmetic on every request and refuses none.
fn tenant_specs(tenants: usize) -> Vec<String> {
    (0..tenants)
        .map(|t| format!("tenant{t}:1:1000000:10000000:10000000"))
        .collect()
}

fn setup(cfg: &RunConfig, shape: &Shape) -> Result<Rig, String> {
    let mut streams = Streams::generate(cfg, shape)?;
    let symbiod = cfg.bin_dir.join("symbiod");
    let backend_args: Vec<String> = ["--addr", "127.0.0.1:0", "--workers", "1", "--shards", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let backends = on_daemon_cores(|| {
        (0..BACKENDS)
            .map(|_| Daemon::spawn(&symbiod, &backend_args))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut args = vec![
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--backends".to_string(),
        backends
            .iter()
            .map(|b| b.addr.to_string())
            .collect::<Vec<_>>()
            .join(","),
    ];
    for spec in tenant_specs(shape.tenants) {
        args.extend(["--tenant".to_string(), spec]);
    }
    let fleetd = on_daemon_cores(|| Daemon::spawn(&cfg.bin_dir.join("fleetd"), &args))?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(fleetd.addr, shape.encoding))
        .collect::<Result<Vec<_>, _>>()?;
    warm_up(&mut conns, &mut streams)?;
    Ok(Rig {
        streams,
        fleetd,
        backends,
        conns,
    })
}

fn teardown(rig: Rig) {
    let Rig {
        fleetd,
        mut backends,
        conns,
        ..
    } = rig;
    drop(conns);
    // The coordinator forwards the shutdown to every backend.
    let _ = fleetd.shutdown();
    for backend in &mut backends {
        let _ = backend.reap(Duration::from_secs(5));
    }
}

fn daemons_cpu(rig: &Rig) -> Result<(f64, f64), String> {
    let fleetd = rig.fleetd.cpu_seconds()?;
    let mut total = fleetd;
    for b in &rig.backends {
        total += b.cpu_seconds()?;
    }
    Ok((fleetd, total))
}

/// `Route` must name one owner per group: the same member of the fleet
/// each time it is asked.
fn check_routes(
    conn: &mut Conn,
    rig_backends: &[String],
    streams: &Streams,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut one_owner = true;
    for cursor in streams.cursors.iter().flat_map(|c| c.iter().take(8)) {
        let mut owners = Vec::new();
        for _ in 0..2 {
            match conn.exchange(&Request::Route {
                group: cursor.group.name.clone(),
            })? {
                Response::Route { backend, .. } => owners.push(backend),
                _ => one_owner = false,
            }
        }
        one_owner &=
            owners.len() == 2 && owners[0] == owners[1] && rig_backends.contains(&owners[0]);
    }
    result.check(
        "Route names one owner per group, a member of the fleet",
        one_owner,
    );
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let shape = Shape::of(&cfg.workload);
    if CONNS * shape.groups_per_conn < MIN_GROUPS {
        return Err(format!("fleet_proxy needs at least {MIN_GROUPS} groups"));
    }
    let mut result = RunResult::default();
    let (mut rig, setup_s) = if cfg.trace {
        (setup(cfg, &shape)?, 0.0)
    } else {
        timed_setups(|| setup(cfg, &shape), teardown)?
    };

    // The traced run splits its window between the proxied pass and the
    // same frames sent straight to one backend.
    let window = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let rep = Duration::from_secs_f64(window / cfg.reps as f64);
    let (fleetd_cpu0, cpu0) = daemons_cpu(&rig)?;
    let live = fold_closed(
        run_closed(&mut rig.conns, &mut rig.streams, rep, cfg.reps)?,
        rep,
        cfg.reps,
    );
    let (fleetd_cpu1, cpu1) = daemons_cpu(&rig)?;
    result.attempted = live.frames;
    result.failed = live.failed;
    if let Some(text) = &live.first_failure {
        result.note(format!("first failed frame: {text}"));
    }
    if live.decisions == 0 {
        return Err("the fleet acknowledged nothing in the timed window".to_string());
    }
    result.check("zero lost acks through the coordinator", live.failed == 0);

    let addrs: Vec<String> = rig.backends.iter().map(|b| b.addr.to_string()).collect();
    check_routes(&mut rig.conns[0], &addrs, &rig.streams, &mut result)?;
    check_against_reference(&mut rig.conns[0], &shape, &rig.streams, &mut result)?;
    let fleet = match rig.conns[0].exchange(&Request::FleetMetrics)? {
        Response::FleetMetrics(snapshot) => snapshot,
        other => return Err(format!("fleet metrics reply was {other:?}")),
    };
    let mut rss_mb = rig.fleetd.peak_rss_mb()?;
    for b in &rig.backends {
        rss_mb += b.peak_rss_mb()?;
    }
    result.note(format!(
        "work = acknowledged decision; closed loop, {CONNS} connections = {CONNS} generator threads on {} cores; \
         fleetd + {BACKENDS} x symbiod --workers 1 --shards 1; binary, batch {}, {} groups over {} tenants; \
         groups per backend {:?}; {} frames",
        nproc(),
        shape.batch,
        CONNS * shape.groups_per_conn,
        shape.tenants,
        fleet.backends.iter().map(|b| b.groups).collect::<Vec<_>>(),
        live.samples
    ));

    if !cfg.trace {
        end_to_end(&mut result.metrics, setup_s, &live, cpu1 - cpu0, rss_mb);
        teardown(rig);
        return Ok(result);
    }

    let direct = direct_pass(&mut rig, &shape, rep, cfg.reps)?;
    result.failed += direct.failed;
    result.attempted += direct.frames;
    let m = &mut result.metrics;
    let (proxied_p50, direct_p50) = (live.req_p50_us, direct.req_p50_us);
    m.set("fleet.proxy_hop_us", proxied_p50 - direct_p50);
    m.set(
        "fleet.proxy_efficiency",
        live.decisions_per_s / direct.decisions_per_s,
    );
    m.set(
        "fleet.fleetd_cpu_share",
        (fleetd_cpu1 - fleetd_cpu0) / (cpu1 - cpu0).max(1e-9),
    );
    m.set(
        "fleet.backend_errors",
        fleet.aggregate.fleet_backend_errors as f64,
    );
    m.set(
        "fleet.rerouted",
        fleet.aggregate.fleet_rebalance_moves as f64,
    );
    result.note(format!(
        "proxied p50 {proxied_p50:.1} us at {:.0} decisions/s; the same frames straight to one backend: p50 \
         {direct_p50:.1} us at {:.0} decisions/s",
        live.decisions_per_s, direct.decisions_per_s
    ));
    teardown(rig);

    let tracer = routing_layers(&shape, &mut result);
    result.attempted += tracer.spans().len() as u64;
    cfg.write_trace(&tracer)?;
    Ok(result)
}

/// The identical frames, sent straight to backend 0 on fresh
/// connections (the streams carry on, so sequence numbers stay fresh).
fn direct_pass(rig: &mut Rig, shape: &Shape, rep: Duration, reps: usize) -> Result<Live, String> {
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(rig.backends[0].addr, shape.encoding))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(fold_closed(
        run_closed(&mut conns, &mut rig.streams, rep, reps)?,
        rep,
        reps,
    ))
}

/// Time the coordinator's per-request data-structure work on synthetic
/// routing state, from outside: route lookup, rendezvous owner,
/// admission, footprint and rebalance.
fn routing_layers(shape: &Shape, result: &mut RunResult) -> Tracer {
    let mut tracer = Tracer::new(true);
    let addrs: Vec<String> = (0..BACKENDS)
        .map(|b| format!("127.0.0.1:{}", 7411 + b))
        .collect();
    let membership = Membership::new(addrs.iter().cloned());
    let names: Vec<String> = (0..SYNTHETIC_GROUPS)
        .map(|i| format!("tenant{}/synthetic-{i}", i % shape.tenants.max(1) as u64))
        .collect();
    let keys: Vec<u64> = names.iter().map(|n| RoutingTable::key_of(n)).collect();
    let mut table = RoutingTable::default();
    for &key in &keys {
        let owner = membership
            .owner_index(key)
            .expect("membership is not empty") as u16;
        table.upsert(
            key,
            RouteEntry {
                owner,
                tenant: 0,
                moved: false,
            },
        );
    }
    let n = keys.len() as f64;
    let m = &mut result.metrics;

    let s = tracer.begin("fleet.route_get", 0);
    let t0 = Instant::now();
    for &key in &keys {
        std::hint::black_box(table.get(key));
    }
    m.set("fleet.route_get_ns", secs_since(t0) * 1e9 / n);
    tracer.end(s);

    let s = tracer.begin("fleet.owner_index", 0);
    let t0 = Instant::now();
    for &key in &keys {
        std::hint::black_box(membership.owner_index(key));
    }
    m.set("fleet.owner_index_ns", secs_since(t0) * 1e9 / n);
    tracer.end(s);

    let specs = tenant_specs(shape.tenants)
        .iter()
        .map(|s| TenantSpec::parse(s).expect("the benchmark's own tenant specs parse"))
        .collect();
    let mut registry = TenantRegistry::new(specs);
    let indexes: Vec<u16> = names
        .iter()
        .take(1024)
        .map(|n| registry.index_of(tenant_of(n)))
        .collect();
    let s = tracer.begin("fleet.admit", 0);
    let t0 = Instant::now();
    for (i, _) in keys.iter().enumerate() {
        std::hint::black_box(registry.admit(indexes[i % indexes.len()], false, i as f64 * 1e-5));
    }
    m.set("fleet.admit_ns", secs_since(t0) * 1e9 / n);
    tracer.end(s);

    m.set("fleet.bytes_per_group", table.bytes_per_group());

    let mut grown = membership.clone();
    grown.apply(&[format!("127.0.0.1:{}", 7411 + BACKENDS)], &[]);
    let s = tracer.begin("fleet.rebalance", 0);
    let t0 = Instant::now();
    let moved = table.rebalance(&membership, &grown);
    m.set(
        "fleet.rebalance_us_per_kgroup",
        secs_since(t0) * 1e6 / (n / 1000.0),
    );
    tracer.end(s);
    tracer.count("fleet.rebalance_moved", moved);
    tracer
}
