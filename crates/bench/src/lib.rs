//! Shared machinery for the reproduction binaries.
//!
//! Every table and figure in the paper's evaluation has a binary in
//! `src/bin/` that reruns the experiment at full length and prints the
//! corresponding rows (`cargo run -p airtime-bench --bin <name>`), next
//! to the paper's published numbers where the paper states them. Every
//! binary also accepts `--json <path>` to mirror its tables into a
//! machine-readable file (see [`output`]). Host timing lives in the
//! repo benchmark (`perfbench/`) and in `airtime-cli profile`.

pub mod output;

pub use output::Output;

use airtime_sim::SimDuration;
use airtime_wlan::{run, NetworkConfig, Report};

/// Standard full-length measurement: 60 simulated seconds after a 5 s
/// warm-up — comfortably more data than the paper's ~2000-packet runs.
pub fn measure(mut cfg: NetworkConfig) -> Report {
    cfg.duration = SimDuration::from_secs(60);
    cfg.warmup = SimDuration::from_secs(5);
    run(&cfg)
}

/// Shorter measurement used where several dozen configurations are
/// swept in one binary.
pub fn measure_quick(mut cfg: NetworkConfig) -> Report {
    cfg.duration = SimDuration::from_secs(20);
    cfg.warmup = SimDuration::from_secs(3);
    run(&cfg)
}

/// Prints an aligned two-dimensional table: a header row then data
/// rows, separated by two spaces, columns right-aligned except the
/// first.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<w$}", cell, w = widths[0]));
            } else {
                line.push_str(&format!("  {:>w$}", cell, w = widths[i]));
            }
        }
        line
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a throughput in Mbit/s with three decimals.
pub fn mbps(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(mbps(5.1885), "5.189");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn ragged_rows_panic() {
        print_table(&["a", "b"], &[vec!["x".into()]]);
    }
}
