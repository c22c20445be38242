//! Trace analysis walkthrough: is the regime the paper worries about
//! real? Figure 1's workshop sessions and Figure 5's busy intervals, on
//! synthetic campus workloads. (Figure 1's EXP-1 bar comes from the
//! `exp1_office` example.)
//!
//! ```text
//! cargo run --release --example campus_trace
//! ```

use airtime::phy::DataRate;
use airtime::sim::SimDuration;
use airtime::trace::{
    busy_intervals, bytes_by_rate, residence_trace, workshop_trace, ResidenceConfig, WorkshopConfig,
};

fn main() {
    // Figure 1: rate diversity in three one-room workshop sessions.
    println!("Figure 1: fraction of bytes sent at each data rate\n");
    println!("session     1M     2M   5.5M    11M  below 11M");
    for (label, cfg) in [
        ("WS-1", WorkshopConfig::ws1()),
        ("WS-2", WorkshopConfig::ws2()),
        ("WS-3", WorkshopConfig::ws3()),
    ] {
        let fracs = bytes_by_rate(&workshop_trace(&cfg, 2004));
        let at = |rate| {
            fracs
                .iter()
                .find(|(r, _)| *r == rate)
                .map_or(0.0, |(_, f)| f * 100.0)
        };
        println!(
            "{label:<7} {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>9.1}%",
            at(DataRate::B1),
            at(DataRate::B2),
            at(DataRate::B5_5),
            at(DataRate::B11),
            100.0 - at(DataRate::B11),
        );
    }
    println!("(paper: mostly 11M, with real diversity below; WS-2 >30% below 11M)\n");

    // Figure 5: congestion with company in a residence hall.
    let trace = residence_trace(&ResidenceConfig::default(), 2002);
    let b = busy_intervals(&trace, SimDuration::from_secs(1), 4.0);
    println!("Figure 5: heaviest user's share of busy (>4 Mb/s) 1 s intervals\n");
    println!(
        "windows inspected: {}   busy: {} ({:.1}%)",
        b.windows,
        b.busy,
        b.busy as f64 / b.windows as f64 * 100.0
    );
    println!(
        "mean heaviest-user share in busy windows: {:.1}%",
        b.mean_heaviest() * 100.0
    );
    println!(
        "busy windows where the heaviest user was effectively alone (>99%): {:.1}%\n",
        b.solo_fraction(0.99) * 100.0
    );
    // A textual view of the figure's scatter.
    println!("heaviest share  busy windows  fraction");
    let edges = [0.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.01];
    for w in edges.windows(2) {
        let count = b
            .heaviest_fraction
            .iter()
            .filter(|&&f| f >= w[0] && f < w[1])
            .count();
        println!(
            "{:<14}  {count:>12}  {:>7.1}%",
            format!("{:.0}-{:.0}%", w[0] * 100.0, w[1].min(1.0) * 100.0),
            count as f64 / b.busy.max(1) as f64 * 100.0
        );
    }
    println!("\n(paper: the heaviest user usually moves most of the bytes but");
    println!(" almost never saturates the AP alone, so the choice of fairness");
    println!(" notion decides real aggregate throughput)");
}
