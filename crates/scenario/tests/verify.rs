//! End-to-end tests for the `verify-determinism` driver: the shipped
//! presets must pass, an injected synthetic divergence must be pinned
//! to its exact first divergent `(time, label, detail)` — against the
//! repeat run and against a golden recording — and the multi-cell
//! roaming preset's fingerprint is pinned as a golden (companion to
//! `crates/wlan/tests/fingerprints.rs`).

use airtime_obs::{FlightRecorder, Recording};
use airtime_scenario::verify::{verify_determinism, VerifyOptions};
use airtime_scenario::{compile, parse_text};
use airtime_sim::SimDuration;

/// A small fast TBR cell: tick-driven (so wake-ups fire), two rates
/// (so the scheduler has decisions to make).
const SMALL_TBR: &str = r#"
name = "verify-small-tbr"
seed = 1
duration_s = 2
warmup_s = 0
direction = "down"

[scheduler]
kind = "tbr"

[[station]]
rate = "11"

[[station]]
rate = "1"
"#;

fn small_spec() -> airtime_scenario::ScenarioSpec {
    let doc = parse_text(SMALL_TBR, "small.toml").unwrap();
    compile(&doc, "small.toml").unwrap()
}

/// The clean run's recording, parsed back the way `--against` loads it.
fn golden(interval: u64) -> Recording {
    let opts = VerifyOptions {
        interval,
        ..VerifyOptions::default()
    };
    let outcome = verify_determinism(&small_spec(), None, "small.toml", &opts).unwrap();
    assert_eq!(outcome.recordings.len(), 1, "one lane for a single cell");
    Recording::parse(&outcome.recordings[0]).unwrap()
}

#[test]
fn clean_run_passes_repeat_and_its_own_golden() {
    let spec = small_spec();
    let outcome = verify_determinism(&spec, None, "small.toml", &VerifyOptions::default()).unwrap();
    assert!(
        outcome.passed(),
        "clean run diverged: {:?}",
        outcome.divergences
    );
    assert!(!outcome.against);
    assert!(outcome.events > 0);
    assert_eq!(outcome.fp.len(), 16);
    assert!(!outcome.swept, "no [sweep] section, nothing to sweep");

    let rec = Recording::parse(&outcome.recordings[0]).unwrap();
    assert_eq!(rec.fp, outcome.fp);
    assert_eq!(rec.total_events, outcome.events);
    assert!(rec.events.is_empty(), "goldens keep checkpoints only");
    let opts = VerifyOptions {
        against: Some(vec![rec]),
        ..VerifyOptions::default()
    };
    let checked = verify_determinism(&spec, None, "small.toml", &opts).unwrap();
    assert!(checked.passed(), "{:?}", checked.divergences);
    assert!(checked.against);
}

#[test]
fn injected_divergence_is_pinned_to_the_exact_event() {
    let spec = small_spec();
    let opts = VerifyOptions {
        interval: 256,
        inject: Some(("repeat".to_string(), 1000)),
        ..VerifyOptions::default()
    };
    let outcome = verify_determinism(&spec, None, "small.toml", &opts).unwrap();
    assert!(!outcome.passed());
    assert_eq!(outcome.divergences.len(), 1, "{:?}", outcome.divergences);
    let d = &outcome.divergences[0];
    assert_eq!(d.pass, "repeat");
    assert_eq!(d.reference, "run");
    // Stream index 1000 sits in checkpoint ordinal 1000 / 256 = 3,
    // covering indices [768, 1024).
    assert_eq!(d.checkpoint, 3);
    assert_eq!(d.window, (768, 1024));
    // The windowed re-run pins the exact event: same stream index,
    // same time and label on both sides, the injected tag only on the
    // divergent side.
    let expected = d.expected.as_ref().expect("reference view");
    let actual = d.actual.as_ref().expect("divergent view");
    assert_eq!(expected.index, 1000);
    assert_eq!(actual.index, 1000);
    assert_eq!(expected.t, actual.t);
    assert_eq!(expected.label, actual.label);
    assert!(actual.detail.ends_with("[injected]"), "{:?}", actual);
    assert!(!expected.detail.ends_with("[injected]"));
    assert!(d.render().contains("first divergent event"));
}

#[test]
fn divergence_from_a_golden_is_bisected_to_its_checkpoint() {
    // A behaviour change between builds, simulated by perturbing both
    // live passes identically: they agree with each other, and only
    // the golden catches the break.
    let spec = small_spec();
    let golden = golden(256);
    for pass in ["run", "repeat"] {
        let opts = VerifyOptions {
            against: Some(vec![golden.clone()]),
            inject: Some((pass.to_string(), 1000)),
            ..VerifyOptions::default()
        };
        let outcome = verify_determinism(&spec, None, "small.toml", &opts).unwrap();
        let refs: Vec<_> = outcome
            .divergences
            .iter()
            .map(|d| (d.reference.as_str(), d.pass.as_str()))
            .collect();
        if pass == "run" {
            // The run departs from both the golden and its repeat.
            assert_eq!(refs, [("golden", "run"), ("run", "repeat")]);
            let d = &outcome.divergences[0];
            assert_eq!((d.checkpoint, d.window), (3, (768, 1024)));
            assert_eq!(d.since, golden.checkpoints[2].t);
            // A checkpoint-only golden cannot name the event.
            assert!(!d.reference_events);
            assert!(d.expected.is_none() && d.actual.is_none());
            assert!(d.render().contains("checkpoints only"));
        } else {
            assert_eq!(refs, [("run", "repeat")]);
        }
    }
}

#[test]
fn golden_that_keeps_events_pins_the_exact_event() {
    // A golden that kept the tail of the divergent window, the way a
    // ring-buffered recording (`run --record`) keeps a stream's tail.
    let spec = small_spec();
    let mut rec = FlightRecorder::new()
        .with_interval(256)
        .with_window(900, 1024);
    airtime_wlan::run_observed(&spec.cfg, &mut rec);
    let golden = rec.recording();
    assert_eq!(golden.events.first().map(|e| e.index), Some(900));
    let opts = VerifyOptions {
        against: Some(vec![golden]),
        inject: Some(("run".to_string(), 1000)),
        ..VerifyOptions::default()
    };
    let outcome = verify_determinism(&spec, None, "small.toml", &opts).unwrap();
    let d = &outcome.divergences[0];
    assert_eq!(d.reference, "golden");
    assert!(d.reference_events);
    let expected = d.expected.as_ref().expect("golden's event");
    let actual = d.actual.as_ref().expect("run's event");
    assert_eq!((expected.index, actual.index), (1000, 1000));
    assert!(actual.detail.ends_with("[injected]"));
}

#[test]
fn golden_with_the_wrong_lane_count_is_refused() {
    let golden = golden(256);
    let opts = VerifyOptions {
        against: Some(vec![golden.clone(), golden]),
        ..VerifyOptions::default()
    };
    let err = verify_determinism(&small_spec(), None, "small.toml", &opts).unwrap_err();
    assert!(err.to_string().contains("2 recording(s)"), "{err}");
}

#[test]
fn roam_preset_fingerprint_matches_golden() {
    // The shipped three-cell roaming walk, shortened past the first
    // handoff (t = 6.1 s) so the fingerprint covers Join/Drop handoff
    // events in every lane.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/roam_three_cells.toml"
    );
    let text = std::fs::read_to_string(path).unwrap();
    let doc = parse_text(&text, "roam_three_cells.toml").unwrap();
    let mut spec = compile(&doc, "roam_three_cells.toml").unwrap();
    spec.cfg.duration = SimDuration::from_secs(7);
    let topo = spec.topo.as_mut().expect("roaming preset is multi-cell");
    topo.base.duration = SimDuration::from_secs(7);
    let outcome = verify_determinism(
        &spec,
        None,
        "roam_three_cells.toml",
        &VerifyOptions::default(),
    )
    .unwrap();
    assert!(
        outcome.passed(),
        "roam preset diverged: {:?}",
        outcome.divergences
    );
    // Golden fingerprint for the shortened preset. To regenerate after
    // an intentional behavioral change, copy the actual value from the
    // failure message.
    assert_eq!(
        outcome.fp, "2723b4aca1f3cd47",
        "roam fingerprint moved — update the golden if intentional"
    );
}
