//! `symbiod` — serve signature-snapshot streams over loopback TCP.
//!
//! ```text
//! symbiod [--addr 127.0.0.1:7411] [--workers 4] [--backlog 64]
//!         [--deadline-ms 5000] [--policy weight-sort] [--window 8]
//!         [--journal PATH] [--snapshot-every N]
//!         [--shards 1] [--encoding both] [--batch-max 64] [--explain]
//! ```
//!
//! `--explain` records a per-decision [`symbio_online::Explanation`]
//! (votes, per-component gain, hysteresis margin, domains touched) for
//! every ingested epoch, served via the `Explain` wire verb. Off by
//! default: the record costs an allocation per decision on the ingest
//! hot path.
//!
//! With `--journal`, every engine state transition is appended
//! (checksummed) to `PATH` before the decision is acknowledged — one
//! write per run of ingests a shard finds queued, so a batch is
//! acknowledged behind a single group commit — and a restarted daemon
//! replays the journal first: windows, committed mappings and quarantine
//! states resume exactly where the killed process stopped (`symbiod
//! recovered …` is printed before the listen line). The journal embeds a
//! full-state checkpoint whenever it has grown by the size of the
//! previous one, which bounds replay to the last checkpoint plus at most
//! as many bytes again and the file to twice its transition records, at
//! any group count. `--snapshot-every N` is the minimum number of records
//! between two checkpoints (default 256); it matters only while the
//! state is smaller than N records.
//!
//! `--shards N` runs N engine shards, each on its own thread with its
//! own journal segment (`PATH.shard-K` when `--journal` is given;
//! single-shard daemons keep the plain `PATH`). Groups are pinned to
//! shards by name hash, stable across restarts. `--encoding` restricts
//! what the daemon will negotiate (`json` | `binary` | `both`) and
//! `--batch-max` caps `IngestBatch` items per frame (advertised in the
//! `Welcome`).
//!
//! Fault injection for chaos testing is armed via the `SYMBIO_FAULTS` /
//! `SYMBIO_FAULT_SEED` environment variables (see `symbio::obs::fault`).
//!
//! Prints `symbiod listening on <addr>` once bound (scripts wait for that
//! line), then serves until a client sends `"Shutdown"`.

use std::io::Write;
use std::path::Path;
use std::time::Duration;
use symbio::Error;
use symbio_allocator::{
    AllocationPolicy, DefaultPolicy, InterferenceGraphPolicy, WeightSortPolicy,
    WeightedInterferenceGraphPolicy,
};
use symbio_online::{OnlineConfig, OnlineEngine};
use symbio_serve::{Encoding, ServeConfig, SymbiodBuilder};

/// An allocation policy by CLI name.
fn policy_by_name(name: &str) -> symbio::Result<Box<dyn AllocationPolicy + Send>> {
    match name {
        "weight-sort" => Ok(Box::new(WeightSortPolicy)),
        "graph" => Ok(Box::new(InterferenceGraphPolicy::default())),
        "weighted-graph" => Ok(Box::new(WeightedInterferenceGraphPolicy::default())),
        "default" => Ok(Box::new(DefaultPolicy)),
        other => Err(Error::InvalidConfig(format!(
            "unknown policy `{other}` (expected weight-sort | graph | weighted-graph | default)"
        ))),
    }
}

fn main() -> symbio::Result<()> {
    let mut addr = "127.0.0.1:0".to_string();
    let mut policy_name = "weight-sort".to_string();
    let mut serve_cfg = ServeConfig::default();
    let mut online_cfg = OnlineConfig::default();
    let mut journal_path: Option<String> = None;
    let mut snapshot_every: u64 = 256;
    let mut shards: usize = 1;
    let mut batch_max: usize = symbio_serve::proto::DEFAULT_BATCH_MAX;
    let mut encodings = vec![Encoding::JsonLines, Encoding::Binary];
    let mut explain = false;

    let bad = |flag: &str, v: &str| Error::InvalidConfig(format!("bad value `{v}` for {flag}"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| Error::InvalidConfig(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = value()?,
            "--policy" => policy_name = value()?,
            "--workers" => {
                let v = value()?;
                serve_cfg.workers = v.parse().map_err(|_| bad("--workers", &v))?;
            }
            "--backlog" => {
                let v = value()?;
                serve_cfg.backlog = v.parse().map_err(|_| bad("--backlog", &v))?;
            }
            "--deadline-ms" => {
                let v = value()?;
                let ms: u64 = v.parse().map_err(|_| bad("--deadline-ms", &v))?;
                serve_cfg.deadline = Duration::from_millis(ms);
            }
            "--window" => {
                let v = value()?;
                online_cfg.window = v.parse().map_err(|_| bad("--window", &v))?;
                online_cfg.min_votes = online_cfg.min_votes.min(online_cfg.window as u32);
            }
            "--journal" => journal_path = Some(value()?),
            "--snapshot-every" => {
                let v = value()?;
                snapshot_every = v.parse().map_err(|_| bad("--snapshot-every", &v))?;
            }
            "--shards" => {
                let v = value()?;
                shards = v.parse().map_err(|_| bad("--shards", &v))?;
                if shards == 0 {
                    return Err(bad("--shards", &v));
                }
            }
            "--batch-max" => {
                let v = value()?;
                batch_max = v.parse().map_err(|_| bad("--batch-max", &v))?;
            }
            "--explain" => explain = true,
            "--encoding" => {
                let v = value()?;
                encodings = match v.as_str() {
                    "json" => vec![Encoding::JsonLines],
                    "binary" => vec![Encoding::Binary],
                    "both" => vec![Encoding::JsonLines, Encoding::Binary],
                    _ => {
                        return Err(Error::InvalidConfig(format!(
                            "bad value `{v}` for --encoding (expected json | binary | both)"
                        )))
                    }
                };
            }
            other => {
                return Err(Error::InvalidConfig(format!("unknown flag `{other}`")));
            }
        }
    }

    symbio::obs::fault::arm_from_env();

    // One engine per shard, all reporting into the first engine's
    // counter ledger so `metrics` replies cover the whole daemon. Each
    // shard journals to its own segment; a single-shard daemon keeps the
    // plain path so existing deployments recover their old journals.
    let mut engines = Vec::with_capacity(shards);
    let mut ledger = None;
    for k in 0..shards {
        let mut engine = OnlineEngine::new(policy_by_name(&policy_name)?, online_cfg)?
            .with_explanations(explain);
        match &ledger {
            Some(counters) => engine = engine.with_counters(std::sync::Arc::clone(counters)),
            None => ledger = Some(std::sync::Arc::clone(engine.counters())),
        }
        if let Some(path) = &journal_path {
            let segment = if shards == 1 {
                path.clone()
            } else {
                format!("{path}.shard-{k}")
            };
            let recovery = engine.recover_journaled(Path::new(&segment), snapshot_every)?;
            if recovery.frames > 0 {
                println!(
                    "symbiod recovered {} frames ({} bytes{}) from {segment}",
                    recovery.frames,
                    recovery.bytes,
                    if recovery.truncated {
                        ", torn tail dropped"
                    } else {
                        ""
                    }
                );
            }
        }
        engines.push(engine);
    }
    let daemon = SymbiodBuilder::new(serve_cfg)
        .batch_max(batch_max)
        .encodings(&encodings)
        .bind(&addr, engines)?;
    println!("symbiod listening on {}", daemon.local_addr());
    std::io::stdout().flush()?;
    daemon.run()
}
