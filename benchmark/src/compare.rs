//! `symbio-benchmark compare <a.jsonl> <b.jsonl>`: judge result set B
//! against result set A with the bounds fixed in `BENCHMARK.json`.
//!
//! A result set is what `--append` writes: one tagged result line per
//! run. For every (workload, end-to-end metric) the medians of the two
//! sets are compared in the metric's direction:
//!
//! * **worse** — B's median is worse than A's by more than the bound;
//! * **unresolved** — either set's interquartile spread (as a share of
//!   its median) is wider than the bound, so the comparison cannot tell,
//!   unless every run of B reads better than every run of A;
//! * **better** — B's median is better by more than that spread;
//! * **within bound** — otherwise.
//!
//! Per-layer metrics carry no bound. The simulated counts among them
//! must be bit-equal between runs of the same workload and seed (a
//! simulator speed-up that moves one is a behaviour change, so it reads
//! **worse**); the rest are listed for information. The exit code is
//! nonzero when any row is worse.

use std::collections::BTreeMap;

use serde::Value;

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::util::quartiles;

/// Per-layer metrics that are simulated counts: exact for a seed.
pub const EXACT: &[&str] = &[
    "cbf.filter_fill_ratio",
    "cache.l1_hit_ratio",
    "cache.l2_miss_ratio",
    "cache.dram_wait_cycles_per_miss",
    "cache.l2_accesses",
    "machine.sim_cycles",
    "machine.sim_ops",
    "machine.cycles_per_op",
    "machine.ctx_switches",
];

/// One parsed result line.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let v: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let Some(Value::Str(workload)) = v.get("workload") else {
            return Err(bad(
                "no `workload` (result files are written with --append)",
            ));
        };
        let Some(Value::Object(pairs)) = v.get("metrics") else {
            return Err(bad("no `metrics` object"));
        };
        let metrics = pairs
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), as_f64(m.get("value")?)?)))
            .collect();
        runs.push(Run {
            workload: workload.clone(),
            seed: v.get("seed").and_then(as_f64).unwrap_or(0.0) as u64,
            trace: v.get("trace").and_then(as_f64).unwrap_or(0.0) != 0.0,
            metrics,
        });
    }
    Ok(runs)
}

/// `name → bound` for the end-to-end metrics of a `BENCHMARK.json`.
fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Array(entries)) = v.get("end_to_end") else {
        return Err(format!("{path}: no `end_to_end` list"));
    };
    entries
        .iter()
        .map(|e| match (e.get("name"), e.get("bound").and_then(as_f64)) {
            (Some(Value::Str(name)), Some(bound)) => Ok((name.clone(), bound)),
            _ => Err(format!(
                "{path}: an end_to_end entry lacks `name` or `bound`"
            )),
        })
        .collect()
}

/// The verdict on one (workload, metric) and the figures behind it.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    /// `better`, `within bound`, `worse` or `unresolved`.
    pub word: &'static str,
    /// B's median relative to A's, signed so that positive is worse.
    pub worsening: f64,
    /// The wider of the two sets' IQR / |median|.
    pub spread: f64,
}

/// Judge runs `b` against runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let ((a1, am, a3), (b1, bm, b3)) = (quartiles(a), quartiles(b));
    let scale = am.abs().max(f64::MIN_POSITIVE);
    let worsening = match better {
        Better::Lower => (bm - am) / scale,
        Better::Higher => (am - bm) / scale,
    };
    let spread = ((a3 - a1) / scale).max((b3 - b1) / bm.abs().max(f64::MIN_POSITIVE));
    let every_b_better = match better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    let word = if spread > bound && !every_b_better {
        "unresolved"
    } else if every_b_better || worsening < -spread {
        "better"
    } else if worsening > bound {
        "worse"
    } else {
        "within bound"
    };
    Verdict {
        word,
        worsening,
        spread,
    }
}

fn values<'a>(runs: &'a [Run], workload: &'a str, trace: bool, metric: &'a str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Entry point of the subcommand; `Ok(false)` when any row is worse.
pub fn main(mut args: impl Iterator<Item = String>) -> Result<bool, String> {
    let (mut files, mut bench) = (Vec::new(), "BENCHMARK.json".to_string());
    while let Some(arg) = args.next() {
        if arg == "--bench" {
            bench = args.next().ok_or("--bench needs a value")?;
        } else {
            files.push(arg);
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: compare <a.jsonl> <b.jsonl> [--bench BENCHMARK.json]".to_string());
    };
    let (a, b, bounds) = (load(a_path)?, load(b_path)?, bounds(&bench)?);
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut any_worse = false;
    println!(
        "{:<12} {:<34} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound", "spread"
    );
    for w in &workloads {
        for def in END_TO_END {
            let (va, vb) = (
                values(&a, w, false, def.name),
                values(&b, w, false, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = *bounds
                .get(def.name)
                .ok_or_else(|| format!("{bench} has no bound for `{}`", def.name))?;
            let v = judge(&va, &vb, def.better, bound);
            any_worse |= v.word == "worse";
            println!(
                "{w:<12} {:<34} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {}",
                def.name,
                quartiles(&va).1,
                quartiles(&vb).1,
                // Printed in the metric's own direction: + is an increase.
                (quartiles(&vb).1 / quartiles(&va).1 - 1.0) * 100.0,
                bound * 100.0,
                v.spread * 100.0,
                v.word
            );
        }
        for def in PER_LAYER {
            let (va, vb) = (values(&a, w, true, def.name), values(&b, w, true, def.name));
            if va.is_empty()
                || vb.is_empty()
                || (va.iter().all(|x| *x == 0.0) && vb.iter().all(|x| *x == 0.0))
            {
                continue;
            }
            let verdict = if EXACT.contains(&def.name) {
                let by_seed = |runs: &[Run]| -> BTreeMap<u64, u64> {
                    runs.iter()
                        .filter(|r| r.workload == *w && r.trace)
                        .filter_map(|r| Some((r.seed, r.metrics.get(def.name)?.to_bits())))
                        .collect()
                };
                let (sa, sb) = (by_seed(&a), by_seed(&b));
                let shared: Vec<_> = sa.keys().filter(|s| sb.contains_key(s)).collect();
                if shared.is_empty() {
                    "exact (no seed in common)"
                } else if shared.iter().all(|s| sa[s] == sb[s]) {
                    "exact: bit-equal"
                } else {
                    any_worse = true;
                    "worse (a simulated count moved)"
                }
            } else {
                "per-layer"
            };
            println!(
                "{w:<12} {:<34} {:>14.4} {:>14.4} {:>+8.1}% {:>7} {:>8}  {verdict}",
                def.name,
                quartiles(&va).1,
                quartiles(&vb).1,
                (quartiles(&vb).1 / quartiles(&va).1 - 1.0) * 100.0,
                "-",
                "-"
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        assert_eq!(judge(&a, &same, Better::Lower, 0.05).word, "within bound");
        let slower = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(judge(&a, &slower, Better::Lower, 0.05).word, "worse");
        assert_eq!(judge(&a, &slower, Better::Higher, 0.05).word, "better");
        let noisy = [80.0, 120.0, 95.0, 130.0, 70.0];
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.05).word, "unresolved");
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(judge(&a, &faster, Better::Lower, 0.05).word, "better");
    }
}
