//! End-to-end checks of the profiling subsystem: Chrome-trace export
//! must be valid, deterministic JSON; instrumented runs must return
//! reports byte-identical to plain runs; and the per-label step-cost
//! histograms a driver records from outside the engine must account
//! for every dispatched event.

use airtime_obs::json::{self, Json};
use airtime_obs::{ChromeTraceObserver, MetricsRegistry, NullObserver};
use airtime_phy::DataRate;
use airtime_sim::{LoopProfiler, SimDuration, SimTime};
use airtime_wlan::{run, run_instrumented, run_observed, scenarios, CellSim, SchedulerKind};

fn short_cfg() -> airtime_wlan::NetworkConfig {
    cfg_with(SchedulerKind::tbr())
}

fn cfg_with(sched: SchedulerKind) -> airtime_wlan::NetworkConfig {
    let mut cfg = scenarios::uploaders(&[DataRate::B11, DataRate::B1], sched);
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_secs(1);
    cfg
}

fn trace_of(cfg: &airtime_wlan::NetworkConfig) -> String {
    let mut obs = ChromeTraceObserver::new("test-cell");
    run_observed(cfg, &mut obs);
    obs.into_trace().render()
}

#[test]
fn chrome_trace_from_a_real_run_is_valid_json() {
    let doc = trace_of(&short_cfg());
    let parsed = json::parse(&doc).expect("trace must parse");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(events.len() > 100, "a 4 s run emits many events");
    assert_eq!(
        parsed
            .get("otherData")
            .and_then(|o| o.get("dropped_events"))
            .and_then(Json::as_u64),
        Some(0),
        "nothing dropped below the cap"
    );
}

#[test]
fn trace_events_pair_ph_ts_and_dur_correctly() {
    let doc = trace_of(&short_cfg());
    let parsed = json::parse(&doc).unwrap();
    let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut seen_x = 0u32;
    let mut seen_i = 0u32;
    let mut seen_c = 0u32;
    let mut seen_m = 0u32;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has ph");
        let has = |k: &str| ev.get(k).is_some();
        // Every event carries pid and a name.
        assert!(has("pid") && has("name"), "missing pid/name: {ev:?}");
        match ph {
            "X" => {
                // Complete events: a ts/dur pair, both non-negative µs.
                let ts = ev.get("ts").and_then(Json::as_f64).expect("X needs ts");
                let dur = ev.get("dur").and_then(Json::as_f64).expect("X needs dur");
                assert!(ts >= 0.0 && dur >= 0.0, "negative time: {ev:?}");
                seen_x += 1;
            }
            "i" => {
                assert!(has("ts"), "instant needs ts");
                assert!(!has("dur"), "instants have no duration");
                seen_i += 1;
            }
            "C" => {
                assert!(has("ts") && has("args"), "counter needs ts and args");
                seen_c += 1;
            }
            "M" => {
                assert!(has("args"), "metadata needs args");
                seen_m += 1;
            }
            other => panic!("unexpected phase '{other}' in {ev:?}"),
        }
    }
    assert!(seen_x > 0, "airtime slices / frame spans present");
    assert!(seen_i > 0, "run marks / sched decisions present");
    assert!(seen_c > 0, "queue-depth counters present");
    assert!(seen_m >= 3, "process and lane names present");
}

#[test]
fn trace_output_is_deterministic_for_a_fixed_seed() {
    let cfg = short_cfg();
    assert_eq!(
        trace_of(&cfg),
        trace_of(&cfg),
        "same seed, same scenario -> byte-identical trace"
    );
}

#[test]
fn profiled_run_report_is_byte_identical_to_plain_run() {
    let cfg = short_cfg();
    let plain = run(&cfg);
    let mut reg = MetricsRegistry::new();
    let profiled = run_instrumented(&cfg, &mut NullObserver, Some(&mut reg));
    assert_eq!(
        plain.total_goodput_mbps.to_bits(),
        profiled.total_goodput_mbps.to_bits()
    );
    assert_eq!(plain.utilization.to_bits(), profiled.utilization.to_bits());
    assert_eq!(plain.mac.collision_events, profiled.mac.collision_events);
    assert_eq!(plain.mac.retries, profiled.mac.retries);
    for (p, o) in plain.flows.iter().zip(&profiled.flows) {
        assert_eq!(p.goodput_mbps.to_bits(), o.goodput_mbps.to_bits());
    }
    assert!(
        reg.counter_value("sim.events").unwrap() > 0,
        "the loop dispatched events"
    );
    assert!(
        reg.gauge_value("sim.queue_high_water").unwrap() > 0.0,
        "the queue was non-trivial"
    );
}

#[test]
fn dispatch_histograms_agree_with_profiler_counters() {
    for sched in [SchedulerKind::tbr(), SchedulerKind::Fifo] {
        let cfg = cfg_with(sched);
        let end = SimTime::ZERO + cfg.duration;
        let mut obs = NullObserver;
        let mut cell = CellSim::new(&cfg, &mut obs, &[true, true]);
        let mut profiler = LoopProfiler::new();
        while cell.peek_time().is_some_and(|t| t <= end) {
            let t0 = std::time::Instant::now();
            let (_, label) = cell.step_labeled().expect("peeked an event");
            profiler.count_timed(label, t0.elapsed());
        }
        // The per-label histograms account for every event the queue
        // processed, and each one's quantiles are monotone and
        // bracketed by its extremes.
        let dists = profiler.dists();
        let mut total = 0u64;
        for (label, hist) in &dists {
            assert!(hist.count() > 0, "label '{label}'");
            total += hist.count();
            let (p50, p99) = (
                hist.quantile_ns(0.50).unwrap(),
                hist.quantile_ns(0.99).unwrap(),
            );
            assert!(hist.min_ns().unwrap() <= p50 && p50 <= p99);
            assert!(p99 <= hist.max_ns().unwrap());
        }
        assert_eq!(
            total,
            cell.events_processed(),
            "histograms cover every event"
        );
        let labels: Vec<&str> = dists.iter().map(|(l, _)| *l).collect();
        assert!(labels.contains(&"mac.tx_end"), "labels: {labels:?}");
    }
}
