//! Rendering and persistence of experiment results.

use crate::metrics::BenchmarkSummary;
use crate::sweep::SweepOutcome;
use serde::Serialize;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Render a Figure 10/11/12-style per-benchmark table (max & avg
/// improvement bars, in percent).
pub fn summary_table(title: &str, summaries: &[BenchmarkSummary]) -> String {
    let mut s = String::new();
    s.push_str(&format!("== {title} ==\n"));
    s.push_str(&format!(
        "{:<14}{:>10}{:>10}{:>8}\n",
        "benchmark", "max %", "avg %", "mixes"
    ));
    for b in summaries {
        s.push_str(&format!(
            "{:<14}{:>10.1}{:>10.1}{:>8}\n",
            b.name,
            b.max * 100.0,
            b.avg * 100.0,
            b.mixes
        ));
    }
    s
}

/// Render the sweep headline (the paper's "averaged X % (up to Y %)").
pub fn headline(outcome: &SweepOutcome) -> String {
    format!(
        "average improvement {:.1}% (up to {:.1}%) over {} mixes",
        outcome.grand_avg * 100.0,
        outcome.grand_max * 100.0,
        outcome.results.len()
    )
}

/// An ASCII bar chart for quick terminal inspection of a series.
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let mut s = String::new();
    for (label, v) in rows {
        let n = if max > 0.0 {
            ((v / max) * width as f64).round() as usize
        } else {
            0
        };
        s.push_str(&format!(
            "{label:<14} {:6.1}% |{}\n",
            v * 100.0,
            "#".repeat(n)
        ));
    }
    s
}

/// Directory where experiment binaries drop their JSON artifacts.
pub fn experiments_dir() -> PathBuf {
    let dir = std::env::var("SYMBIO_EXPERIMENTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"));
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Persist any serializable result as pretty JSON under
/// [`experiments_dir`]; returns the path written.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let path = experiments_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let json = serde_json::to_string_pretty(value)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

/// Write a CSV file from rows of string-able values.
pub fn save_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let path = experiments_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

/// True when a `Path` exists and is non-empty (used by tests).
pub fn non_empty(path: &Path) -> bool {
    std::fs::metadata(path)
        .map(|m| m.len() > 0)
        .unwrap_or(false)
}

/// Serializes the tests that point `SYMBIO_EXPERIMENTS_DIR` elsewhere:
/// the variable is process-wide and the harness runs tests in parallel.
#[cfg(test)]
pub(crate) fn lock_experiments_dir() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries() -> Vec<BenchmarkSummary> {
        vec![
            BenchmarkSummary {
                name: "mcf".into(),
                max: 0.54,
                avg: 0.3,
                mixes: 10,
            },
            BenchmarkSummary {
                name: "povray".into(),
                max: 0.02,
                avg: 0.01,
                mixes: 10,
            },
        ]
    }

    #[test]
    fn table_renders_percentages() {
        let t = summary_table("Figure 10", &summaries());
        assert!(t.contains("Figure 10"));
        assert!(t.contains("mcf"));
        assert!(t.contains("54.0"));
    }

    #[test]
    fn bar_chart_scales_to_width() {
        let rows = vec![("a".to_string(), 0.5), ("b".to_string(), 0.25)];
        let c = bar_chart(&rows, 20);
        let lines: Vec<&str> = c.lines().collect();
        assert!(lines[0].matches('#').count() == 20);
        assert!(lines[1].matches('#').count() == 10);
    }

    #[test]
    fn bar_chart_handles_all_zero() {
        let rows = vec![("a".to_string(), 0.0)];
        let c = bar_chart(&rows, 20);
        assert!(!c.contains('#'));
    }

    #[test]
    fn save_and_reload_json() {
        let _dir = crate::report::lock_experiments_dir();
        std::env::set_var(
            "SYMBIO_EXPERIMENTS_DIR",
            std::env::temp_dir().join("symbio-test"),
        );
        let path = save_json("unit-test-artifact", &summaries()).unwrap();
        assert!(non_empty(&path));
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<BenchmarkSummary> = serde_json::from_str(&text).unwrap();
        assert_eq!(back.len(), 2);
        std::env::remove_var("SYMBIO_EXPERIMENTS_DIR");
    }

    #[test]
    fn save_csv_writes_rows() {
        let _dir = crate::report::lock_experiments_dir();
        std::env::set_var(
            "SYMBIO_EXPERIMENTS_DIR",
            std::env::temp_dir().join("symbio-test"),
        );
        let path = save_csv(
            "unit-test-csv",
            &["name", "value"],
            &[vec!["a".into(), "1".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("name,value\n"));
        assert!(text.contains("a,1"));
        std::env::remove_var("SYMBIO_EXPERIMENTS_DIR");
    }
}
