//! End-to-end topology runs: the three-cell walk, handoff
//! determinism across repeated runs and schedulers, and per-cell
//! airtime conservation through handoffs.

use airtime_obs::{AirtimeLedger, NullObserver};
use airtime_phy::DataRate;
use airtime_sim::SimDuration;
use airtime_topo::{
    run_topology, run_topology_profiled, Placement, Point, RatePolicy, TopoReport, TopologyConfig,
    WaypointPath,
};
use airtime_wlan::{scenarios, Report, SchedulerKind};

/// Runs `topo` with no observers.
fn run_topo(topo: &TopologyConfig) -> TopoReport {
    run_topology(topo, &mut vec![NullObserver; topo.cells.len()])
}

/// Three APs in a 150 ft line on distinct channels, one 11 Mbit/s
/// resident uploader per cell, and a 1 Mbit/s walker crossing the
/// whole strip — the paper's fast/slow mix stretched across cells.
fn three_cell_walk(scheduler: SchedulerKind) -> TopologyConfig {
    let mut base = scenarios::uploaders(
        &[DataRate::B11, DataRate::B11, DataRate::B11, DataRate::B1],
        scheduler,
    );
    base.duration = SimDuration::from_secs(25);
    let mut topo = TopologyConfig::line(base, 3, 150.0, &[1, 6, 11]);
    for (s, cell) in [(0usize, 0usize), (1, 1), (2, 2)] {
        topo.placements[s] = Placement::fixed(Point::new(cell as f64 * 150.0, 10.0), DataRate::B11);
    }
    topo.placements[3] = Placement {
        position: Point::new(0.0, 10.0),
        mobility: Some(WaypointPath::new(
            vec![Point::new(0.0, 10.0), Point::new(300.0, 10.0)],
            15.0,
        )),
        rate: RatePolicy::Pinned(DataRate::B1),
    };
    topo
}

/// A compact fingerprint of everything the determinism contract
/// covers: per-cell goodput bits, MAC counters, and the full roaming
/// record.
fn fingerprint(topo: &TopologyConfig) -> String {
    let r = run_topo(topo);
    let cells: Vec<String> = r
        .cells
        .iter()
        .map(|c: &Report| {
            format!(
                "{:016x}:{}:{}:{}",
                c.total_goodput_mbps.to_bits(),
                c.mac.attempts,
                c.mac.delivered,
                c.sched_drops
            )
        })
        .collect();
    format!(
        "{}|{:?}|{:?}",
        cells.join(","),
        r.roaming.handoffs,
        r.roaming.visits
    )
}

#[test]
fn walker_visits_all_three_cells_in_order() {
    let topo = three_cell_walk(SchedulerKind::Tbr(Default::default()));
    let r = run_topo(&topo);
    assert_eq!(r.roaming.handoff_count(3), 2, "two boundary crossings");
    let visits = r.roaming.visits_of(3);
    let path: Vec<usize> = visits.iter().map(|v| v.cell).collect();
    assert_eq!(path, vec![0, 1, 2], "visits: {visits:?}");
    for v in &visits {
        assert!(
            v.goodput_bytes > 0,
            "the walker must move data in every cell: {v:?}"
        );
    }
    assert_eq!(r.roaming.outage[3], SimDuration::ZERO, "no coverage hole");
    // Residents never move.
    for s in 0..3 {
        assert_eq!(r.roaming.handoff_count(s), 0);
        assert_eq!(r.roaming.visits_of(s).len(), 1);
    }
}

#[test]
fn tbr_keeps_the_baseline_property_in_every_visited_cell() {
    // Under TBR, a cell the 1 Mbit/s walker visits must keep its
    // 11 Mbit/s resident fast: the resident's goodput stays well above
    // the DCF-anomaly level (~0.7 Mbit/s for 11-vs-1 TCP, Table 2) in
    // every cell. Under FIFO the visited cells sag toward the anomaly.
    let tbr = run_topo(&three_cell_walk(SchedulerKind::Tbr(Default::default())));
    for (c, cell) in tbr.cells.iter().enumerate() {
        let resident = cell
            .flows
            .iter()
            .find(|f| f.station == c)
            .expect("resident flow");
        assert!(
            resident.goodput_mbps > 1.8,
            "cell {c} resident sagged to {:.2} Mbit/s under TBR",
            resident.goodput_mbps
        );
    }
}

#[test]
fn repeated_runs_are_identical() {
    // Each run hashes with fresh `HashMap` seeds, so this also catches
    // any dependence on map iteration order.
    let topo = three_cell_walk(SchedulerKind::Tbr(Default::default()));
    assert_eq!(fingerprint(&topo), fingerprint(&topo));
}

#[test]
fn repeated_runs_are_bit_identical() {
    let topo = three_cell_walk(SchedulerKind::RoundRobin);
    assert_eq!(fingerprint(&topo), fingerprint(&topo));
}

#[test]
fn per_cell_ledgers_conserve_airtime_through_handoffs() {
    let topo = three_cell_walk(SchedulerKind::Tbr(Default::default()));
    let mut ledgers: Vec<AirtimeLedger> = vec![AirtimeLedger::new(); 3];
    let r = run_topology(&topo, &mut ledgers);
    assert_eq!(r.roaming.handoff_count(3), 2, "handoffs must occur");
    for (c, ledger) in ledgers.iter().enumerate() {
        let audit = ledger.audit();
        assert!(
            audit.conserved,
            "cell {c} failed its conservation audit:\n{audit}"
        );
    }
}

#[test]
fn co_channel_cells_share_one_medium() {
    // Two saturated cells: on the same channel they must split one
    // medium's worth of airtime; on distinct channels they run as
    // independent DCF domains and together move roughly twice as much.
    let build = |channels: &[u8]| {
        let mut base =
            scenarios::uploaders(&[DataRate::B11, DataRate::B11], SchedulerKind::RoundRobin);
        base.duration = SimDuration::from_secs(10);
        let mut topo = TopologyConfig::line(base, 2, 60.0, channels);
        topo.placements[0] = Placement::fixed(Point::new(0.0, 10.0), DataRate::B11);
        topo.placements[1] = Placement::fixed(Point::new(60.0, 10.0), DataRate::B11);
        topo
    };
    let same = run_topo(&build(&[1, 1])).total_goodput_mbps();
    let distinct = run_topo(&build(&[1, 6])).total_goodput_mbps();
    assert!(
        same < 0.7 * distinct,
        "co-channel cells must contend: same-channel {same:.2} vs distinct {distinct:.2} Mbit/s"
    );
    assert!(
        same > 0.25 * distinct,
        "co-channel coupling must not starve the pair: {same:.2} vs {distinct:.2}"
    );
}

#[test]
fn co_channel_mirroring_costs_events_per_window_not_per_station() {
    // A co-channel pair whose shared template carries 16 stations, so
    // each cell's MAC has 17 nodes (associated or not). Mirroring a
    // neighbour's busy window must cost the cell a constant number of
    // events, not a timer and an access recomputation per node: the
    // lanes' event totals stay within a small multiple of the attempts.
    let rates = [DataRate::B11, DataRate::B5_5, DataRate::B2, DataRate::B1];
    let rates: Vec<DataRate> = (0..16).map(|s| rates[s % 4]).collect();
    let mut base = scenarios::uploaders(&rates, SchedulerKind::Tbr(Default::default()));
    base.duration = SimDuration::from_secs(4);
    let mut topo = TopologyConfig::line(base, 2, 60.0, &[1, 1]);
    for (s, p) in topo.placements.iter_mut().enumerate() {
        *p = Placement::fixed(Point::new((s % 2) as f64 * 60.0, 10.0), rates[s]);
    }
    let mut obs = vec![NullObserver; 2];
    let (report, profile) = run_topology_profiled(&topo, &mut obs);
    let attempts: u64 = report.cells.iter().map(|c| c.mac.attempts).sum();
    let events: u64 = profile.cells.iter().map(|c| c.events).sum();
    assert!(attempts > 500, "the pair must carry traffic: {attempts}");
    assert!(
        events <= 10 * attempts,
        "{events} events for {attempts} attempts ({:.1} per attempt)",
        events as f64 / attempts as f64
    );
}

#[test]
fn walking_out_of_coverage_is_an_outage() {
    // One AP; the walker strolls 600 ft away — past the 1 Mbit/s
    // association floor — and must be dropped, accumulating outage.
    let mut base = scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::RoundRobin);
    base.duration = SimDuration::from_secs(20);
    let mut topo = TopologyConfig::line(base, 1, 100.0, &[1]);
    topo.placements[0] = Placement::fixed(Point::new(0.0, 10.0), DataRate::B11);
    topo.placements[1] = Placement {
        position: Point::new(0.0, 10.0),
        mobility: Some(WaypointPath::new(
            vec![Point::new(0.0, 10.0), Point::new(600.0, 10.0)],
            40.0,
        )),
        rate: RatePolicy::Pinned(DataRate::B1),
    };
    let r = run_topo(&topo);
    let drops: Vec<_> = r
        .roaming
        .handoffs
        .iter()
        .filter(|h| h.station == 1 && h.to.is_none())
        .collect();
    assert_eq!(drops.len(), 1, "exactly one drop to outage: {drops:?}");
    assert!(
        r.roaming.outage[1] > SimDuration::from_secs(1),
        "outage time must accumulate: {:?}",
        r.roaming.outage[1]
    );
    // The resident never notices.
    assert_eq!(r.roaming.handoff_count(0), 0);
}
