//! `fleetd` — coordinate a fleet of `symbiod` backends.
//!
//! ```text
//! fleetd --backends 127.0.0.1:7411,127.0.0.1:7412
//!        [--addr 127.0.0.1:0] [--timeout-ms 5000]
//!        [--budget-bytes 128] [--shed-trip 8]
//!        [--journal PATH] [--flap-threshold 3] [--flap-window-ms 10000]
//!        [--handoff-timeout-ms 2000]
//!        [--tenant id:priority:max_groups:rate[:burst]]...
//! ```
//!
//! Clients speak the same versioned envelope as against `symbiod`
//! (`Ingest`/`IngestBatch`/`Map` are proxied to each group's rendezvous
//! owner) plus the fleet verbs: `Route` resolves a group's owner,
//! `Assign` changes the membership (rebalancing the routed groups, with
//! a warm handoff of each moved group's state), and `FleetMetrics`
//! aggregates every backend's counters fleet-wide. `--tenant` may
//! repeat; groups name their tenant by prefix (`acme/load-0` → tenant
//! `acme`), and unknown tenants are admitted unconstrained.
//!
//! `--journal` makes the membership durable: every join/evict/drain is
//! committed to the file before it takes effect, through the same
//! CRC-framed write-ahead log as `symbiod --journal`, and a restarted
//! fleetd replays it to a byte-identical routing view (the journal then
//! wins over `--backends`), after repairing a crash tail exactly as
//! `symbiod` does. `--flap-threshold`/`--flap-window-ms` tune
//! how many failed probes inside the window a backend survives before
//! eviction; `--handoff-timeout-ms` bounds each group's warm handoff.
//!
//! Fault injection mirrors symbiod: `SYMBIO_FAULTS` /
//! `SYMBIO_FAULT_SEED` arm the `fleet_proxy`, `handoff_export`,
//! `handoff_import` and `membership_write` sites (DESIGN.md §14).
//!
//! Prints `fleetd listening on <addr>` once bound (scripts wait for
//! that line), then serves until a client sends `"Shutdown"` — which
//! also forwards the shutdown to every backend.

use std::io::Write;
use std::time::Duration;
use symbio::Error;
use symbio_fleet::{FleetConfig, Fleetd, TenantSpec};

fn main() -> symbio::Result<()> {
    symbio::obs::fault::arm_from_env();
    let mut addr = "127.0.0.1:0".to_string();
    let mut backends: Vec<String> = Vec::new();
    let mut cfg = FleetConfig::default();

    let bad = |flag: &str, v: &str| Error::InvalidConfig(format!("bad value `{v}` for {flag}"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| Error::InvalidConfig(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value()?,
            "--backends" => {
                let v = value()?;
                backends.extend(v.split(',').filter(|s| !s.is_empty()).map(String::from));
            }
            "--timeout-ms" => {
                let v = value()?;
                let ms: u64 = v.parse().map_err(|_| bad("--timeout-ms", &v))?;
                cfg.timeout = Duration::from_millis(ms);
            }
            "--budget-bytes" => {
                let v = value()?;
                cfg.bytes_budget = v.parse().map_err(|_| bad("--budget-bytes", &v))?;
            }
            "--shed-trip" => {
                let v = value()?;
                cfg.shed_trip = v.parse().map_err(|_| bad("--shed-trip", &v))?;
            }
            "--journal" => cfg.journal = Some(value()?.into()),
            "--flap-threshold" => {
                let v = value()?;
                cfg.flap_threshold = v.parse().map_err(|_| bad("--flap-threshold", &v))?;
            }
            "--flap-window-ms" => {
                let v = value()?;
                let ms: u64 = v.parse().map_err(|_| bad("--flap-window-ms", &v))?;
                cfg.flap_window = Duration::from_millis(ms);
            }
            "--handoff-timeout-ms" => {
                let v = value()?;
                let ms: u64 = v.parse().map_err(|_| bad("--handoff-timeout-ms", &v))?;
                cfg.handoff_timeout = Duration::from_millis(ms);
            }
            "--tenant" => {
                let v = value()?;
                cfg.tenants
                    .push(TenantSpec::parse(&v).map_err(Error::InvalidConfig)?);
            }
            other => {
                return Err(Error::InvalidConfig(format!("unknown flag `{other}`")));
            }
        }
    }
    if backends.is_empty() {
        return Err(Error::InvalidConfig(
            "--backends needs at least one symbiod address".into(),
        ));
    }

    let daemon = Fleetd::bind(&addr, &backends, cfg)?;
    println!("fleetd listening on {}", daemon.local_addr());
    std::io::stdout().flush()?;
    daemon.run()
}
