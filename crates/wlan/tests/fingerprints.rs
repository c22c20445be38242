//! Golden determinism fingerprints for the paper's headline presets.
//!
//! The flight recorder folds every run's behavioural stream (scheduler
//! decisions, queue changes, transmission attempts, MAC verdicts) into
//! a 64-bit fingerprint. These tests pin the fingerprints of the
//! shortened figure/table presets: any behavioral change to the simulator — a
//! different scheduler decision, transmission or RNG draw — moves a
//! fingerprint and must consciously update the golden here. Engine
//! bookkeeping that leaves behaviour alone (which timers sit queued,
//! how often the loop dispatches) does not.
//! (`crates/scenario/tests/verify.rs` pins the multi-cell roaming
//! preset the same way.)
//!
//! They also prove the recorder is observation-only: the report of a
//! recorded run is byte-identical to a plain `run`.

use airtime_obs::{fp_hex, FlightRecorder};
use airtime_phy::DataRate::{self, B1, B11, B2};
use airtime_sim::{SimDuration, SimTime};
use airtime_wlan::{
    run, run_observed, scenarios, Direction, FlowSpec, LinkSpec, NetworkConfig, Regulate,
    SchedulerKind, StationConfig, Transport,
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

/// The engine's rarer pump and kick paths in one cell, after
/// `examples/scenarios/worklist_edges.toml`: a rate-limited TCP uplink
/// and a paced UDP downlink on one station, a paced UDP uplink that
/// starts late, a greedy TCP downlink next to a saturating UDP
/// downlink, a two-packet client queue, per-flow regulation and client
/// cooperation.
fn worklist_edges(scheduler: SchedulerKind) -> NetworkConfig {
    let flow = |transport, direction, rate_limit_bps| FlowSpec {
        transport,
        direction,
        start: SimTime::ZERO,
        task_bytes: None,
        rate_limit_bps,
    };
    let station = |rate: DataRate, flows| StationConfig {
        link: LinkSpec::Fixed { rate, fer: 0.01 },
        flows,
        weight: 1.0,
    };
    let late_udp_up = FlowSpec {
        start: SimTime::ZERO + SimDuration::from_secs(1),
        ..flow(Transport::Udp, Direction::Uplink, Some(400_000.0))
    };
    let stations = vec![
        station(
            B11,
            vec![
                flow(Transport::Tcp, Direction::Uplink, Some(1_500_000.0)),
                flow(Transport::Udp, Direction::Downlink, Some(800_000.0)),
            ],
        ),
        station(B2, vec![late_udp_up]),
        station(
            B1,
            vec![
                flow(Transport::Tcp, Direction::Downlink, None),
                flow(Transport::Udp, Direction::Downlink, None),
            ],
        ),
    ];
    let mut cfg = NetworkConfig::new(stations, scheduler);
    cfg.regulate = Regulate::PerFlow;
    cfg.client_queue_cap = 2;
    cfg.client_cooperation = true;
    shorten(cfg)
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
            "74c3dbf808a23ddc",
        ),
        (
            "table3/four_node_mix/tbr",
            shorten(scenarios::four_node_mix(SchedulerKind::tbr())),
            "67e10a314d2ff37f",
        ),
        (
            "fig4/updown/rr",
            shorten(scenarios::updown_baseline(
                3,
                Transport::Tcp,
                Direction::Downlink,
                SchedulerKind::RoundRobin,
            )),
            "01108019e5c2f77e",
        ),
        (
            "fig9/tcp_down/tbr",
            shorten(scenarios::tcp_stations(
                &[B11, B1],
                Direction::Downlink,
                SchedulerKind::tbr(),
            )),
            "d9cfc7732a7dcd1a",
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
            "6afc0fda7c139781",
        ),
        (
            "fig9/tcp_down/maxmin",
            shorten(scenarios::tcp_stations(
                &[B11, B1],
                Direction::Downlink,
                SchedulerKind::maxmin(),
            )),
            "b8ae1ee7371075d5",
        ),
        (
            "table4/bottleneck/tbr",
            shorten(scenarios::bottleneck_table4(SchedulerKind::tbr())),
            "a6a5897251acdbab",
        ),
        (
            "worklist_edges/tbr",
            worklist_edges(SchedulerKind::tbr()),
            "6559d89f80799068",
        ),
        (
            "worklist_edges/rr",
            worklist_edges(SchedulerKind::RoundRobin),
            "d2b56417be18e775",
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
        let events = rec.recording().total_events;
        assert!(events > 0, "{name}: recorder saw no events");
    }
}
