//! End-to-end checks of the observability layer: observed runs must not
//! perturb the simulation, traces must round-trip through JSONL, and
//! the metrics export must carry the airtime story.

use airtime_obs::{
    parse_line, summarize, EventRecord, JsonlObserver, MemoryObserver, MetricsRegistry,
    NullObserver,
};
use airtime_phy::DataRate;
use airtime_sim::{LoopProfiler, SimDuration, SimTime};
use airtime_wlan::{run, run_instrumented, run_observed, scenarios, CellSim, SchedulerKind};

fn short_cfg(sched: SchedulerKind) -> airtime_wlan::NetworkConfig {
    let mut cfg = scenarios::uploaders(&[DataRate::B11, DataRate::B1], sched);
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_secs(1);
    cfg
}

#[test]
fn observed_run_matches_plain_run_exactly() {
    let cfg = short_cfg(SchedulerKind::tbr());
    let plain = run(&cfg);
    let mut mem = MemoryObserver::new();
    let observed = run_observed(&cfg, &mut mem);
    // Same RNG stream, same event order: the reports agree bit-for-bit.
    assert_eq!(plain.total_goodput_mbps, observed.total_goodput_mbps);
    assert_eq!(plain.mac.collision_events, observed.mac.collision_events);
    assert_eq!(plain.mac.retries, observed.mac.retries);
    for (p, o) in plain.flows.iter().zip(&observed.flows) {
        assert_eq!(p.goodput_mbps, o.goodput_mbps);
    }
    for (p, o) in plain.nodes.iter().zip(&observed.nodes) {
        assert_eq!(p.occupancy_share, o.occupancy_share);
    }
    assert!(!mem.events.is_empty());
    // The airtime-timeline and lifecycle-span hooks fired too — they
    // are effect-only, so they must not have perturbed anything above.
    for probe in [
        |e: &EventRecord| matches!(e, EventRecord::AirtimeSlice { .. }),
        |e: &EventRecord| matches!(e, EventRecord::FrameSpan { .. }),
        |e: &EventRecord| matches!(e, EventRecord::RunMark { .. }),
    ] {
        assert!(mem.events.iter().any(probe));
    }
}

#[test]
fn metrics_registry_does_not_perturb_the_run() {
    let cfg = short_cfg(SchedulerKind::tbr());
    let plain = run(&cfg);
    let mut reg = MetricsRegistry::new();
    let instrumented = run_instrumented(&cfg, &mut NullObserver, Some(&mut reg));
    assert_eq!(plain.total_goodput_mbps, instrumented.total_goodput_mbps);
    assert_eq!(
        plain.mac.collision_events,
        instrumented.mac.collision_events
    );
    // The registry mirrors the report's DCF counters.
    assert_eq!(
        reg.counter_value("mac.collisions"),
        Some(plain.mac.collision_events)
    );
    assert_eq!(reg.counter_value("mac.retries"), Some(plain.mac.retries));
    assert!(reg.snapshot_count() > 10, "periodic snapshots recorded");
    // Per-station airtime shares are exported as gauges.
    for (s, node) in plain.nodes.iter().enumerate() {
        let g = reg
            .gauge_value(&format!("station.{s}.airtime_share"))
            .unwrap();
        assert!((g - node.occupancy_share).abs() < 1e-12);
    }
}

#[test]
fn metrics_json_repeats_exactly() {
    // The registry holds simulated state only, so `run --metrics`
    // output is a deterministic artifact: two runs, identical bytes.
    for sched in [SchedulerKind::tbr(), SchedulerKind::Fifo] {
        let cfg = short_cfg(sched);
        let json = || {
            let mut reg = MetricsRegistry::new();
            run_instrumented(&cfg, &mut NullObserver, Some(&mut reg));
            reg.to_json()
        };
        assert_eq!(json(), json());
    }
}

#[test]
fn profiler_event_counts_agree_with_the_queue_counter() {
    // Regression for an off-by-one: the main loop used to pop the
    // first event past the end of the run, count it in
    // `events_processed`, then discard it undispatched — so the queue's
    // counter disagreed with the per-label dispatch totals. The loop
    // now peeks before popping, and the two views must agree exactly:
    // a driver that bills every step of a cell to its label counts the
    // same events as the queue and as the instrumented run.
    for sched in [SchedulerKind::tbr(), SchedulerKind::Fifo] {
        let cfg = short_cfg(sched);
        let mut reg = MetricsRegistry::new();
        run_instrumented(&cfg, &mut NullObserver, Some(&mut reg));
        let total = reg.counter_value("sim.events").expect("sim.events");

        let end = SimTime::ZERO + cfg.duration;
        let mut obs = NullObserver;
        let mut cell = CellSim::new(&cfg, &mut obs, &[true, true]);
        let mut profiler = LoopProfiler::new();
        while cell.peek_time().is_some_and(|t| t <= end) {
            let (_, label) = cell.step_labeled().expect("peeked an event");
            profiler.count_timed(label, std::time::Duration::ZERO);
        }
        let dispatched: u64 = profiler.dists().iter().map(|(_, h)| h.count()).sum();
        assert!(total > 0);
        assert_eq!(
            dispatched,
            cell.events_processed(),
            "labels vs the cell's queue"
        );
        assert_eq!(
            total, dispatched,
            "instrumented run's events_processed vs per-label dispatch total"
        );
    }
}

#[test]
fn tbr_trace_contains_every_record_family_and_round_trips() {
    let cfg = short_cfg(SchedulerKind::tbr());
    let mut obs = JsonlObserver::new(Vec::new());
    let _ = run_observed(&cfg, &mut obs);
    let buf = obs.into_inner().unwrap();
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1000, "a 4 s run emits plenty of records");

    let mut kinds = std::collections::BTreeSet::new();
    let mut last_t = None;
    for line in &lines {
        let rec = parse_line(line).unwrap();
        kinds.insert(rec.kind());
        // Reserialising writes the line back byte for byte.
        assert_eq!(rec.to_json_line(), *line);
        if let Some(prev) = last_t {
            assert!(rec.time() >= prev, "records are time-ordered");
        }
        last_t = Some(rec.time());
    }
    for kind in [
        "mac",
        "tx_attempt",
        "collision",
        "backoff",
        "sched_decision",
        "token_update",
        "tcp",
        "queue_change",
        "airtime_slice",
        "frame_span",
        "run_mark",
    ] {
        assert!(kinds.contains(kind), "missing record kind {kind}");
    }

    let summary = summarize(lines.iter().copied());
    assert_eq!(summary.total, lines.len() as u64);
    assert_eq!(summary.malformed, 0);
    assert!(summary.collisions > 0);
    assert!(!summary.tokens.is_empty(), "TBR token timelines present");
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn tbr_trace_bytes_are_pinned() {
    // The whole JSONL trace of one fixed run, pinned: a change to any
    // record's tag, field order, key or number format shows up here.
    let cfg = short_cfg(SchedulerKind::tbr());
    let mut obs = JsonlObserver::new(Vec::new());
    let _ = run_observed(&cfg, &mut obs);
    let buf = obs.into_inner().unwrap();
    let lines = buf.iter().filter(|&&b| b == b'\n').count();
    assert_eq!((lines, fnv1a(&buf)), (16_868, 0x2d8b_ad3d_bda4_abf5));
}

#[test]
fn fifo_trace_has_no_token_updates() {
    let cfg = short_cfg(SchedulerKind::Fifo);
    let mut mem = MemoryObserver::new();
    let _ = run_observed(&cfg, &mut mem);
    assert!(!mem
        .events
        .iter()
        .any(|e| matches!(e, EventRecord::TokenUpdate { .. })));
}
