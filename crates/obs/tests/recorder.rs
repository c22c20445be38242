//! The flight recorder's two record paths against each other: a
//! capacity-0 recorder folds every record inline, while a ring or a
//! window recorder takes the retention path. On random streams over all
//! five hooks they must agree on every fingerprint, checkpoint and
//! station sub-fingerprint, and an injected divergence must land in the
//! same checkpoint whichever path carries it.

use airtime_obs::{
    deliver, first_divergent_checkpoint, EventRecord, FlightRecorder, MacPhase, Observer, QueueSite,
};
use airtime_phy::DataRate;
use airtime_sim::{SimDuration, SimRng, SimTime};

/// One hook call.
#[derive(Clone)]
enum Call {
    Record(EventRecord),
    Handoff(SimTime, u64, Option<u64>, Option<u64>),
}

fn feed(rec: &mut FlightRecorder, calls: &[Call]) {
    for call in calls {
        match call.clone() {
            Call::Record(r) => {
                assert!(rec.wants(r.hook()), "not a recorder hook: {r:?}");
                deliver(rec, r);
            }
            Call::Handoff(t, station, from, to) => rec.on_handoff(t, station, from, to),
        }
    }
}

/// A station id: mostly small, sometimes one the dense table does not
/// cover (4096 and above, up to `u64::MAX`).
fn station(rng: &mut SimRng) -> u64 {
    match rng.below(10) {
        0 => [4096, 4097, 70_000, u64::MAX][rng.below(4) as usize],
        _ => rng.below(48),
    }
}

/// A cell id, absent one time in three.
fn cell(rng: &mut SimRng) -> Option<u64> {
    (rng.below(3) > 0).then(|| rng.below(4))
}

/// `n` calls spread over all five hooks, in time order.
fn stream(seed: u64, n: usize) -> Vec<Call> {
    let mut rng = SimRng::new(seed);
    let rates: Vec<f64> = DataRate::ALL_B
        .iter()
        .chain(DataRate::ALL_G.iter())
        .map(|r| r.mbps())
        .chain([0.0, 5.55, 0.25])
        .collect();
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|_| {
            t += SimDuration::from_nanos(rng.below(2_000_000));
            match rng.below(5) {
                0 => Call::Record(EventRecord::TxAttempt {
                    t,
                    node: station(&mut rng),
                    client: station(&mut rng),
                    bytes: rng.below(2_400),
                    rate_mbps: rates[rng.below(rates.len() as u64) as usize],
                    success: rng.below(2) == 0,
                    retry: rng.below(7),
                    airtime: SimDuration::from_nanos(rng.below(13_000_000)),
                }),
                1 => Call::Record(EventRecord::Mac {
                    t,
                    phase: [MacPhase::TxStart, MacPhase::TxEnd, MacPhase::Drop]
                        [rng.below(3) as usize],
                    node: station(&mut rng),
                }),
                2 => Call::Record(EventRecord::SchedDecision {
                    t,
                    client: station(&mut rng),
                    bytes: rng.below(2_400),
                    queue_len: rng.below(100),
                }),
                3 => Call::Record(EventRecord::QueueChange {
                    t,
                    site: [QueueSite::Ap, QueueSite::Client][rng.below(2) as usize],
                    key: station(&mut rng),
                    len: rng.below(100),
                }),
                _ => Call::Handoff(t, station(&mut rng), cell(&mut rng), cell(&mut rng)),
            }
        })
        .collect()
}

/// Asserts that two recorders folded the same stream.
fn assert_same_fold(a: &FlightRecorder, b: &FlightRecorder, what: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprint");
    let (ra, rb) = (a.recording(), b.recording());
    assert_eq!(ra.checkpoints, rb.checkpoints, "{what}: checkpoints");
    assert_eq!(ra.total_events, rb.total_events, "{what}: events");
    assert_eq!(
        a.station_fingerprints(),
        b.station_fingerprints(),
        "{what}: station fingerprints"
    );
}

#[test]
fn fold_and_retention_paths_agree_on_random_streams() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(1_000 + seed);
        let n = 200 + rng.below(3_000) as usize;
        let interval = [1, 7, 64, 4096][seed as usize % 4];
        let calls = stream(seed, n);
        let start = rng.below(n as u64);
        let end = start + rng.below(400);

        let mut bare = FlightRecorder::new()
            .with_interval(interval)
            .with_capacity(0);
        let mut ring = FlightRecorder::new().with_interval(interval);
        let mut small = FlightRecorder::new()
            .with_interval(interval)
            .with_capacity(5);
        let mut window = FlightRecorder::new()
            .with_interval(interval)
            .with_window(start, end);
        for rec in [&mut bare, &mut ring, &mut small, &mut window] {
            feed(rec, &calls);
        }
        let what = format!("seed {seed}, {n} calls, interval {interval}");
        assert_eq!(bare.recording().checkpoints.len(), n / interval as usize);
        for (other, name) in [(&ring, "ring"), (&small, "small ring"), (&window, "window")] {
            assert_same_fold(&bare, other, &format!("{what}: {name}"));
        }
        let n = n as u64;
        let kept = |rec: &FlightRecorder| rec.recording().events.len() as u64;
        assert_eq!(kept(&bare), 0);
        assert_eq!(kept(&ring), n.min(8_192));
        assert_eq!(kept(&small), 5.min(n));
        assert_eq!(kept(&window), end.min(n) - start);
        for rec in [&bare, &ring, &small, &window] {
            let r = rec.recording();
            assert_eq!(r.dropped + kept(rec), n, "{what}: dropped");
        }
    }
}

#[test]
fn an_injected_divergence_lands_in_the_same_checkpoint_on_every_path() {
    for seed in 0..12u64 {
        let interval = [16, 100, 4096][seed as usize % 3];
        let n = 3 * interval as usize + 50;
        let calls = stream(500 + seed, n);
        let at = SimRng::new(seed).below(3 * interval);
        let mut clean = FlightRecorder::new()
            .with_interval(interval)
            .with_capacity(0);
        let mut dirty = [
            FlightRecorder::new().with_capacity(0),
            FlightRecorder::new(),
            FlightRecorder::new().with_window(at.saturating_sub(3), at + 3),
        ]
        .map(|r| r.with_interval(interval).with_injected_divergence(at));
        feed(&mut clean, &calls);
        for rec in dirty.iter_mut() {
            feed(rec, &calls);
        }
        let want = Some((at / interval) as usize);
        for rec in &dirty {
            assert_eq!(
                first_divergent_checkpoint(
                    &clean.recording().checkpoints,
                    &rec.recording().checkpoints
                ),
                want,
                "seed {seed}: injected at {at}, interval {interval}"
            );
        }
        assert_same_fold(&dirty[0], &dirty[1], "capacity 0 vs ring");
        assert_same_fold(&dirty[0], &dirty[2], "capacity 0 vs window");
        let tagged = dirty[2].recording().events;
        let tagged: Vec<u64> = tagged
            .iter()
            .filter(|e| e.detail.ends_with(" [injected]"))
            .map(|e| e.index)
            .collect();
        assert_eq!(tagged, [at]);
    }
}

#[test]
fn rate_tenths_match_rounding_for_every_80211bg_rate() {
    let attempt = |rate_mbps: f64| EventRecord::TxAttempt {
        t: SimTime::from_micros(7),
        node: 0,
        client: 1,
        bytes: 1_500,
        rate_mbps,
        success: true,
        retry: 0,
        airtime: SimDuration::from_micros(300),
    };
    let fp = |rate_mbps: f64| {
        let mut rec = FlightRecorder::new().with_capacity(0);
        rec.on_tx_attempt(attempt(rate_mbps));
        rec.fingerprint()
    };
    for rate in DataRate::ALL_B.iter().chain(DataRate::ALL_G.iter()) {
        let mbps = rate.mbps();
        let tenths = (mbps * 10.0).round();
        // A rate a little either side of the tenth is not a whole
        // number of tenths, so it takes the rounding call; it must fold
        // alike (truncating 0.04 below would land a tenth lower).
        for off in [-0.04, 0.004] {
            assert_eq!(fp(mbps), fp(mbps + off), "{rate:?} {off:+}");
        }
        assert_ne!(fp(mbps), fp(mbps + 0.1), "{rate:?}");
        let mut shown = FlightRecorder::new();
        shown.on_tx_attempt(attempt(mbps));
        let detail = &shown.recording().events[0].detail;
        assert!(
            detail.contains(&format!(" rate={} ", tenths / 10.0)),
            "{rate:?}: {detail}"
        );
    }
}
