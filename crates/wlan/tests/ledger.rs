//! The airtime ledger's two guarantees, checked end-to-end across
//! every scenario preset:
//!
//! 1. **Conservation** — the exclusive medium timeline (data, acks,
//!    MAC overhead, backoff, collisions, idle) tiles the post-warm-up
//!    window exactly, to within [`AUDIT_TOLERANCE_NS`].
//! 2. **Agreement** — the ledger's per-attempt occupancy view (the
//!    paper's §2.3 attribution) reproduces `Report::occupancy_share`.
//!
//! Plus the per-frame lifecycle spans: every finished frame yields a
//! span whose timestamps are internally ordered.

use airtime_obs::{AirtimeCategory, AirtimeLedger, MemoryObserver, SpanCollector, CELL};
use airtime_phy::DataRate::{B1, B11, B2};
use airtime_sim::SimDuration;
use airtime_wlan::{
    run_observed, scenarios, Direction, NetworkConfig, Report, SchedulerKind, Transport,
};

/// Shortens a paper-length preset to test length without disturbing a
/// deliberately zero warm-up (the task-model presets measure from 0).
fn shorten(mut cfg: NetworkConfig) -> NetworkConfig {
    cfg.duration = SimDuration::from_secs(2);
    if !cfg.warmup.is_zero() {
        cfg.warmup = SimDuration::from_millis(500);
    }
    cfg
}

/// Every preset the crate ships, at test length.
fn presets() -> Vec<(&'static str, NetworkConfig)> {
    vec![
        (
            "uploaders/fifo",
            shorten(scenarios::uploaders(&[B11, B1], SchedulerKind::Fifo)),
        ),
        (
            "downloaders/rr",
            shorten(scenarios::downloaders(
                &[B11, B1],
                SchedulerKind::RoundRobin,
            )),
        ),
        (
            "updown_udp_down/rr",
            shorten(scenarios::updown_baseline(
                2,
                Transport::Udp,
                Direction::Downlink,
                SchedulerKind::RoundRobin,
            )),
        ),
        (
            "updown_tcp_up/fifo",
            shorten(scenarios::updown_baseline(
                3,
                Transport::Tcp,
                Direction::Uplink,
                SchedulerKind::Fifo,
            )),
        ),
        (
            "exp1_office/fifo",
            shorten(scenarios::exp1_office(SchedulerKind::Fifo)),
        ),
        (
            "four_node_mix/tbr",
            shorten(scenarios::four_node_mix(SchedulerKind::tbr())),
        ),
        (
            "bottleneck_table4/tbr",
            shorten(scenarios::bottleneck_table4(SchedulerKind::tbr())),
        ),
        (
            "task_model/drr",
            shorten(scenarios::task_model(
                &[B11, B2],
                100_000,
                SchedulerKind::Drr,
            )),
        ),
        (
            "mixed_bg/txop",
            shorten(scenarios::mixed_bg(SchedulerKind::txop())),
        ),
        (
            "hotspot/tbr",
            shorten(scenarios::hotspot_short_flows(
                &[B11, B1],
                30_000,
                3,
                SimDuration::from_millis(200),
                SchedulerKind::tbr(),
            )),
        ),
    ]
}

fn assert_shares_agree(name: &str, ledger: &AirtimeLedger, report: &Report) {
    let shares = ledger.occupancy_shares();
    for node in &report.nodes {
        let id = (node.station + 1) as u64;
        let ledger_share = shares
            .iter()
            .find(|&&(s, _)| s == id)
            .map_or(0.0, |&(_, sh)| sh);
        assert!(
            (ledger_share - node.occupancy_share).abs() < 1e-9,
            "{name}: station {} ledger share {ledger_share} vs report {}",
            node.station,
            node.occupancy_share,
        );
    }
}

#[test]
fn every_preset_conserves_airtime_and_reproduces_report_shares() {
    for (name, cfg) in presets() {
        let mut ledger = AirtimeLedger::new();
        let report = run_observed(&cfg, &mut ledger);
        let audit = ledger.audit();
        assert!(audit.conserved, "{name}: {audit}");
        assert!(audit.slices > 0, "{name}: timeline is empty");
        assert_shares_agree(name, &ledger, &report);
    }
}

#[test]
fn ledger_breakdown_is_dominated_by_data_on_a_saturated_uplink() {
    let cfg = shorten(scenarios::uploaders(&[B11, B11], SchedulerKind::Fifo));
    let mut ledger = AirtimeLedger::new();
    let _ = run_observed(&cfg, &mut ledger);
    let data = ledger.category_ns(AirtimeCategory::DataTx);
    let idle = ledger.category_ns(AirtimeCategory::Idle);
    assert!(
        data > idle,
        "two saturated uploaders should keep the medium busier than idle \
         (data {data} ns vs idle {idle} ns)"
    );
    // Idle and collision time belong to the cell, never to a station.
    for station in 1..=2u64 {
        assert_eq!(
            ledger.station_category_ns(station, AirtimeCategory::Idle),
            0
        );
        assert_eq!(
            ledger.station_category_ns(station, AirtimeCategory::Collision),
            0
        );
    }
    assert!(ledger.station_category_ns(CELL, AirtimeCategory::DataTx) == 0);
}

#[test]
fn frame_spans_are_internally_ordered_and_roll_up() {
    let cfg = shorten(scenarios::uploaders(&[B11, B1], SchedulerKind::Fifo));
    let mut mem = MemoryObserver::new();
    let _ = run_observed(&cfg, &mut mem);
    let mut spans = 0u64;
    let mut collector = SpanCollector::new();
    for rec in &mem.events {
        airtime_obs::deliver(&mut collector, rec.clone());
        if let airtime_obs::EventRecord::FrameSpan {
            t,
            enqueue,
            release,
            first_tx,
            attempts,
            ..
        } = rec
        {
            spans += 1;
            assert!(enqueue <= release, "queued before released");
            assert!(release <= first_tx, "released before transmitted");
            assert!(first_tx <= t, "transmitted before finished");
            assert!(*attempts >= 1, "a finished frame attempted at least once");
        }
    }
    assert!(spans > 100, "a 2 s run finishes plenty of frames");
    let summary = collector.summary();
    assert!(!summary.is_empty());
    for s in &summary {
        assert!(s.frames > 0);
        assert!(s.queueing_ms[0] <= s.queueing_ms[2], "p50 ≤ p99");
        assert!(s.hol_ms[0] <= s.hol_ms[2], "p50 ≤ p99");
    }
}
