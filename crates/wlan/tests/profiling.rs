//! End-to-end checks of the profiling subsystem: Chrome-trace export
//! must be valid, deterministic JSON; profiled runs must return
//! reports byte-identical to plain runs; and the per-label dispatch
//! histograms must agree with the profiler's counters.

use airtime_obs::json::{self, Json};
use airtime_obs::{ChromeTraceObserver, MetricsRegistry, NullObserver};
use airtime_phy::DataRate;
use airtime_sim::SimDuration;
use airtime_wlan::{run, run_instrumented, run_observed, scenarios, SchedulerKind};

fn short_cfg() -> airtime_wlan::NetworkConfig {
    let mut cfg = scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::tbr());
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
    let (profiled, prof) = run_instrumented(&cfg, &mut NullObserver, Some(&mut reg));
    let prof = prof.expect("metrics registry supplied");
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
    assert!(prof.events > 0, "the loop dispatched events");
    assert!(prof.queue_high_water > 0, "the queue was non-trivial");
}

#[test]
fn dispatch_histograms_agree_with_profiler_counters() {
    let cfg = short_cfg();
    let mut reg = MetricsRegistry::new();
    let (_, prof) = run_instrumented(&cfg, &mut NullObserver, Some(&mut reg));
    let prof = prof.expect("metrics registry supplied");
    // Each label's histogram must have recorded exactly as many
    // samples as the profiler counted dispatches, and in total they
    // account for every event the queue processed.
    let counts = prof.profiler.counts();
    let dists = prof.profiler.dists();
    let mut total = 0u64;
    for (label, count) in &counts {
        let hist = dists
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, h)| h)
            .unwrap_or_else(|| panic!("no histogram for '{label}'"));
        assert_eq!(hist.count(), *count, "label '{label}'");
        total += *count;
        // Quantiles are monotone and bracketed by the extremes.
        let (p50, p99) = (
            hist.quantile_ns(0.50).unwrap(),
            hist.quantile_ns(0.99).unwrap(),
        );
        assert!(hist.min_ns().unwrap() <= p50 && p50 <= p99);
        assert!(p99 <= hist.max_ns().unwrap());
    }
    assert_eq!(total, prof.events, "histograms cover every event");
    // The registry grew the new quantile gauges next to the
    // byte-compatible totals.
    let (label, first_count) = counts.first().copied().unwrap();
    for stat in ["p50", "p95", "p99", "min", "max"] {
        assert!(
            reg.gauge_value(&format!("profile.dispatch_{stat}_ns.{label}"))
                .is_some(),
            "missing gauge profile.dispatch_{stat}_ns.{label}"
        );
    }
    assert_eq!(
        reg.counter_value(&format!("profile.events.{label}")),
        Some(first_count),
        "pre-existing per-label counters unchanged"
    );
}
