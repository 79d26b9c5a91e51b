//! `symbio-benchmark` — command-line entry of the benchmark.
//!
//! ```text
//! symbio-benchmark --workload <name|all> [--seed 1] [--seconds 10]
//!                  [--trace 0|1] [--quick] [--append FILE]
//!                  [--bin-dir target/release] [--out-dir benchmark/out]
//! symbio-benchmark compare <a.jsonl> <b.jsonl> [--bench BENCHMARK.json]
//! ```
//!
//! A single workload prints its metrics by name and unit, then — as the
//! last line of standard output — one JSON object with exactly the keys
//! `correct`, `attempted`, `failed`, `metrics`. `--workload all` runs
//! the seven workloads in turn and prints one such line per workload
//! (with `workload`, `seed` and `trace` added); `--append` also appends
//! those lines to a result file `compare` reads. `--quick` is `all` with
//! 1 s windows and one repetition, untraced then traced, every check
//! on. The exit code is nonzero when any operation or check failed.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use symbio_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use symbio_benchmark::{compare, run, RunConfig, RunResult};

/// Timed repetitions per run; the reported rate is their median.
const REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    append: Option<PathBuf>,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        append: None,
        bin_dir: PathBuf::from("target/release"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let v = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = v,
            "--seed" => args.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = v.parse().map_err(|_| bad())?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--append" => args.append = Some(v.into()),
            "--bin-dir" => args.bin_dir = v.into(),
            "--out-dir" => args.out_dir = v.into(),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// The contract's result object, optionally tagged with what produced it.
fn result_json(cfg: &RunConfig, result: &RunResult, tagged: bool) -> Result<String, String> {
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = result
        .metrics
        .in_order(defs, !cfg.trace)?
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    let tag = if tagged {
        format!(
            "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
            cfg.workload,
            cfg.seed,
            u8::from(cfg.trace)
        )
    } else {
        String::new()
    };
    Ok(format!(
        "{{{tag}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    ))
}

fn run_one(cfg: &RunConfig, tagged: bool, append: Option<&PathBuf>) -> Result<bool, String> {
    let result = run(cfg)?;
    println!(
        "== {} (seed {}, {} pass, {} s window, {} repetition(s))",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        cfg.seconds,
        cfg.reps
    );
    for note in &result.notes {
        println!("   {note}");
    }
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (d, v) in result.metrics.in_order(defs, !cfg.trace)? {
        if !cfg.trace || result.metrics.get(d.name).is_some() {
            println!("   {:<40} {v:>16.4} {}", d.name, d.unit);
        }
    }
    if let Some(path) = append {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(f, "{}", result_json(cfg, &result, true)?).map_err(|e| e.to_string())?;
    }
    println!("{}", result_json(cfg, &result, tagged)?);
    Ok(result.correct())
}

fn main_inner() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        return compare::main(argv.skip(1));
    }
    let args = parse(argv)?;
    let config = |workload: &str, trace: bool| RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: if args.quick { 1.0 } else { args.seconds },
        reps: if args.quick { 1 } else { REPS },
        trace,
        bin_dir: args.bin_dir.clone(),
        out_dir: args.out_dir.clone(),
    };
    if !args.quick && args.workload != "all" {
        return run_one(
            &config(&args.workload, args.trace),
            false,
            args.append.as_ref(),
        );
    }
    let passes: &[bool] = if args.quick {
        &[false, true]
    } else {
        &[args.trace]
    };
    let mut ok = true;
    for &trace in passes {
        for workload in WORKLOADS {
            ok &= run_one(&config(workload, trace), true, args.append.as_ref())?;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("symbio-benchmark: an operation or a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("symbio-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
