//! Profiled topology runs: the host-side probe must not perturb the
//! simulation, and its per-cell lane stats must account for every
//! dispatched event.

use airtime_obs::{ChromeTrace, ChromeTraceObserver, NullObserver};
use airtime_phy::DataRate;
use airtime_sim::SimDuration;
use airtime_topo::{run_topology, run_topology_profiled, TopologyConfig};
use airtime_wlan::{scenarios, SchedulerKind};

/// A compact two-cell strip with one resident per cell — enough to
/// exercise the driver's drain/mirror/management phases quickly.
fn two_cells() -> TopologyConfig {
    let mut base = scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr());
    base.duration = SimDuration::from_secs(5);
    TopologyConfig::line(base, 2, 150.0, &[1, 6])
}

#[test]
fn profiled_topology_report_matches_unprofiled() {
    let topo = two_cells();
    let mut plain_obs = vec![NullObserver, NullObserver];
    let plain = run_topology(&topo, &mut plain_obs);
    let mut prof_obs = vec![NullObserver, NullObserver];
    let (profiled, _) = run_topology_profiled(&topo, &mut prof_obs);
    assert_eq!(plain.cells.len(), profiled.cells.len());
    for (p, o) in plain.cells.iter().zip(&profiled.cells) {
        assert_eq!(
            p.total_goodput_mbps.to_bits(),
            o.total_goodput_mbps.to_bits()
        );
        assert_eq!(p.mac.attempts, o.mac.attempts);
        assert_eq!(p.mac.delivered, o.mac.delivered);
    }
    assert_eq!(
        plain.roaming.handoffs.len(),
        profiled.roaming.handoffs.len()
    );
}

#[test]
fn lane_stats_account_for_every_event() {
    let topo = two_cells();
    let mut obs = vec![NullObserver, NullObserver];
    let (_, tp) = run_topology_profiled(&topo, &mut obs);
    assert_eq!(tp.cells.len(), 2);
    let lane_sum: u64 = tp.cells.iter().map(|c| c.events).sum();
    assert_eq!(lane_sum, tp.events, "per-cell lanes cover the total");
    let label_sum: u64 = tp.labels.iter().map(|(_, h)| h.count()).sum();
    assert_eq!(label_sum, tp.events, "per-label histograms cover the total");
    for (i, c) in tp.cells.iter().enumerate() {
        assert!(c.events > 0, "cell {i} dispatched nothing");
        assert_eq!(c.dispatch.count(), c.events, "cell {i} histogram count");
        assert!(c.queue_high_water > 0, "cell {i} queue never filled");
    }
    // The driver phases were recorded as hierarchical paths.
    let paths: Vec<&str> = tp.phases.iter().map(|(p, _)| p.as_str()).collect();
    assert!(paths.contains(&"drain"), "phases: {paths:?}");
    assert!(paths.contains(&"management"), "phases: {paths:?}");
    assert!(tp.wall_s > 0.0);
}

#[test]
fn driver_phases_come_in_a_fixed_order() {
    // Every busy window enters the mirror phase, whether or not a
    // neighbour shares the channel.
    for channels in [[1, 6], [1, 1]] {
        let mut topo = two_cells();
        for (cell, ch) in topo.cells.iter_mut().zip(channels) {
            cell.channel = ch;
        }
        let (_, tp) = run_topology_profiled(&topo, &mut [NullObserver, NullObserver]);
        let paths: Vec<&str> = tp.phases.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            ["drain", "drain/mirror", "management"],
            "channels {channels:?}"
        );
        // One drain pass per management boundary, plus the final one.
        let count = |path: &str| tp.phases.iter().find(|(p, _)| p == path).unwrap().1.count();
        assert_eq!(
            count("drain"),
            count("management") + 1,
            "channels {channels:?}"
        );
    }
}

#[test]
fn per_cell_traces_merge_into_one_document() {
    let topo = two_cells();
    let mut obs: Vec<ChromeTraceObserver> = (0..2)
        .map(|i| ChromeTraceObserver::for_cell(i as u64, &format!("cell {i}")))
        .collect();
    run_topology(&topo, &mut obs);
    let mut sink = ChromeTrace::new();
    for o in obs {
        o.drain_into(&mut sink);
    }
    let doc = sink.render();
    let parsed = airtime_obs::json::parse(&doc).expect("merged trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(airtime_obs::json::Json::as_arr)
        .unwrap();
    // Both cells contributed lanes: pids 0 and 1 both present.
    let pid_of =
        |e: &airtime_obs::json::Json| e.get("pid").and_then(airtime_obs::json::Json::as_u64);
    assert!(events.iter().any(|e| pid_of(e) == Some(0)));
    assert!(events.iter().any(|e| pid_of(e) == Some(1)));
}
