//! EXP-1 (§3): watch rate adaptation create rate diversity.
//!
//! ```text
//! cargo run --release --example exp1_office
//! ```
//!
//! An AP saturates four UDP receivers placed around an office — 4 ft
//! line of sight, 12 ft through one thin wall, 26 ft through two thin
//! walls, 30 ft through two thick walls. AARF settles each link at the
//! rate its SNR supports; the byte mix on the air reproduces the
//! paper's Figure 1 EXP-1 bar (>50% of bytes at 1 Mbit/s), and the
//! exported CSV can be fed to external tooling. The sniffer is a
//! `Trace` attached to the run as an observer.

use airtime::phy::DataRate;
use airtime::sim::SimDuration;
use airtime::trace::{bytes_by_rate, Trace};
use airtime::wlan::{run_observed, scenarios, SchedulerKind};

fn main() {
    let mut cfg = scenarios::exp1_office(SchedulerKind::RoundRobin);
    cfg.duration = SimDuration::from_secs(60);
    cfg.warmup = SimDuration::from_secs(2);
    let mut trace = Trace::new(cfg.duration);
    let report = run_observed(&cfg, &mut trace);

    println!("EXP-1: saturating UDP to four receivers behind walls\n");
    println!("per-receiver goodput (round-robin AP => equal bytes):");
    for f in &report.flows {
        println!("  node {}: {:.2} Mbit/s", f.station + 1, f.goodput_mbps);
    }
    println!("\nbytes on the air per rate (the paper's Figure 1 EXP-1 bar):");
    for (rate, frac) in bytes_by_rate(&trace) {
        if frac > 0.0 {
            println!("  {rate:>5}: {:5.1}%", frac * 100.0);
        }
    }
    let f1 = bytes_by_rate(&trace)
        .iter()
        .find(|(r, _)| *r == DataRate::B1)
        .map(|(_, f)| *f)
        .unwrap_or(0.0);
    println!(
        "\n{:.1}% of bytes at the lowest rate (paper: \"more than 50%\")",
        f1 * 100.0
    );
    // Export for external analysis.
    let csv = trace.to_csv();
    println!(
        "\ntrace: {} frames, {:.1} kB as CSV (Trace::to_csv)",
        trace.records.len(),
        csv.len() as f64 / 1e3
    );
}
