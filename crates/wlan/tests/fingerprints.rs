//! Golden determinism fingerprints for the paper's headline presets.
//!
//! The flight recorder folds every run's canonical causal stream into
//! a 64-bit fingerprint. These tests pin the fingerprints of the
//! shortened figure/table presets: any behavioral change to the simulator — new
//! event ordering, different scheduler decisions, a changed RNG draw —
//! moves a fingerprint and must consciously update the golden here.
//! (`crates/scenario/tests/verify.rs` pins the multi-cell roaming
//! preset the same way.)
//!
//! They also prove the recorder is observation-only: the report of a
//! recorded run is byte-identical to a plain `run`.

use airtime_obs::{fp_hex, FlightRecorder};
use airtime_phy::DataRate::{B1, B11};
use airtime_sim::SimDuration;
use airtime_wlan::{
    run, run_observed, scenarios, Direction, NetworkConfig, SchedulerKind, Transport,
};

/// Paper-length presets cut to test length without disturbing a
/// deliberately zero warm-up.
fn shorten(mut cfg: NetworkConfig) -> NetworkConfig {
    cfg.duration = SimDuration::from_secs(2);
    if !cfg.warmup.is_zero() {
        cfg.warmup = SimDuration::from_millis(500);
    }
    cfg
}

/// The headline presets with their pinned fingerprints.
///
/// To regenerate after an intentional behavioral change:
///     cargo test -p airtime-wlan --test fingerprints -- --nocapture
/// and copy the `actual` values from the failure messages.
fn goldens() -> Vec<(&'static str, NetworkConfig, &'static str)> {
    vec![
        (
            "fig2/uploaders/fifo",
            shorten(scenarios::uploaders(&[B11, B1], SchedulerKind::Fifo)),
            "da78b51384653cf1",
        ),
        (
            "table3/four_node_mix/tbr",
            shorten(scenarios::four_node_mix(SchedulerKind::tbr())),
            "30ab022e8d5a2d7b",
        ),
        (
            "fig4/updown/rr",
            shorten(scenarios::updown_baseline(
                3,
                Transport::Tcp,
                Direction::Downlink,
                SchedulerKind::RoundRobin,
            )),
            "710ab3b7cf373d07",
        ),
        (
            "fig9/tcp_down/tbr",
            shorten(scenarios::tcp_stations(
                &[B11, B1],
                Direction::Downlink,
                SchedulerKind::tbr(),
            )),
            "29d665a86663910d",
        ),
        // The two scheduler-zoo contenders on the same fig9-class cell:
        // these goldens pin their *decisions*.
        (
            "fig9/tcp_down/pf",
            shorten(scenarios::tcp_stations(
                &[B11, B1],
                Direction::Downlink,
                SchedulerKind::pf(),
            )),
            "73b2ab33c8eec34e",
        ),
        (
            "fig9/tcp_down/maxmin",
            shorten(scenarios::tcp_stations(
                &[B11, B1],
                Direction::Downlink,
                SchedulerKind::maxmin(),
            )),
            "216b7bb5cdcc2ab2",
        ),
    ]
}

#[test]
fn preset_fingerprints_match_goldens() {
    let mut actual = Vec::new();
    for (name, cfg, _) in goldens() {
        let mut rec = FlightRecorder::new().with_capacity(0);
        let _ = run_observed(&cfg, &mut rec);
        actual.push((name, fp_hex(rec.fingerprint())));
    }
    let expected: Vec<(&str, String)> = goldens()
        .iter()
        .map(|(name, _, golden)| (*name, golden.to_string()))
        .collect();
    // One vector comparison so a mismatch prints every preset's actual
    // fingerprint — copy them into `goldens()` when the simulator
    // change is intentional.
    assert_eq!(actual, expected, "golden fingerprints moved");
}

#[test]
fn recorded_reports_are_byte_identical_to_plain_run() {
    for (name, cfg, _) in goldens() {
        let plain = format!("{:?}", run(&cfg));
        let mut rec = FlightRecorder::new();
        let recorded = format!("{:?}", run_observed(&cfg, &mut rec));
        // Debug formatting prints every float with full precision, so
        // equal strings mean bit-identical reports.
        assert_eq!(plain, recorded, "{name}: recording perturbed the run");
        assert!(rec.events() > 0, "{name}: recorder saw no events");
    }
}
