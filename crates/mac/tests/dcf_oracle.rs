//! Differential DCF oracle: an independent, slot-level saturated DCF
//! reference run side by side with [`DcfWorld`].
//!
//! The reference knows nothing of events, anchors or generations. Every
//! station always holds a frame; each contention round the medium idles
//! for DIFS plus the smallest backoff counter, every counter drops by
//! that many slots (the loser's `backoff_2 = backoff_2 - backoff_1`
//! rule, generalised to n stations), and every station whose counter
//! reaches zero transmits. Binary exponential backoff and the 802.11b
//! CW and retry limits come from [`Phy80211b`].
//!
//! For n = 2…20 saturated uplink stations, at one rate and at the four
//! 802.11b rates mixed, the two must agree with each other and with the
//! analytic models on the three quantities every result of the paper
//! rests on: the collision probability (Bianchi's fixed point), equal
//! per-station attempt shares (DCF's equal transmission opportunities),
//! and the airtime split those equal opportunities produce (Eq 4 over
//! the γ model).

use airtime_mac::{DcfConfig, DcfWorld, Frame, MacEffect, MacEvent, NodeId};
use airtime_model::alloc::{rf_allocation, NodeSpec};
use airtime_model::bianchi::BianchiModel;
use airtime_model::gamma::gamma_udp_model;
use airtime_phy::{DataRate, LinkErrorModel, Phy80211b};
use airtime_sim::{EventQueue, SimRng, SimTime};

const AP: NodeId = NodeId(0);
const BYTES: u64 = 1500;
/// Attempts each run collects before it stops.
const ATTEMPTS: u64 = 16_000;

/// What one saturated run produced, per station and in total.
#[derive(Debug)]
struct Tally {
    attempts: Vec<u64>,
    airtime_ns: Vec<u64>,
    collided: u64,
    wall_ns: u64,
}

impl Tally {
    fn total_attempts(&self) -> u64 {
        self.attempts.iter().sum()
    }

    /// Share of attempts that ended in a collision: Bianchi's p.
    fn collision_probability(&self) -> f64 {
        self.collided as f64 / self.total_attempts() as f64
    }

    /// Attempts per simulated second: how much of the air the idle
    /// countdown leaves.
    fn attempt_rate(&self) -> f64 {
        self.total_attempts() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Jain's index over per-station attempt counts.
    fn attempt_fairness(&self) -> f64 {
        let sum: f64 = self.attempts.iter().map(|&a| a as f64).sum();
        let sq: f64 = self.attempts.iter().map(|&a| (a as f64).powi(2)).sum();
        sum * sum / (self.attempts.len() as f64 * sq)
    }

    fn airtime_shares(&self) -> Vec<f64> {
        let total: u64 = self.airtime_ns.iter().sum();
        self.airtime_ns
            .iter()
            .map(|&a| a as f64 / total as f64)
            .collect()
    }
}

/// The reference: a slot-level saturated DCF over `rates.len()`
/// stations with perfect links.
fn reference(phy: &Phy80211b, rates: &[DataRate], seed: u64) -> Tally {
    let n = rates.len();
    let mut rng = SimRng::new(seed);
    let mut draw = |cw: u32| rng.below(cw as u64 + 1) as u32;
    let mut backoff: Vec<u32> = (0..n).map(|_| draw(phy.cw_min)).collect();
    let mut retries = vec![0u32; n];
    let span: Vec<u64> = rates
        .iter()
        .map(|&r| (phy.data_tx_time_default(BYTES, r) + phy.sifs + phy.ack_tx_time(r)).as_nanos())
        .collect();
    let (difs, slot) = (phy.difs().as_nanos(), phy.slot.as_nanos());
    let mut tally = Tally {
        attempts: vec![0; n],
        airtime_ns: vec![0; n],
        collided: 0,
        wall_ns: 0,
    };
    let mut winners = Vec::with_capacity(n);
    while tally.total_attempts() < ATTEMPTS {
        // DIFS of idle air, then the countdown runs until the smallest
        // counter expires; every counter advances by the same slots.
        let min = *backoff.iter().min().expect("at least one station");
        tally.wall_ns += difs + min as u64 * slot;
        winners.clear();
        for (i, b) in backoff.iter_mut().enumerate() {
            *b -= min;
            if *b == 0 {
                winners.push(i);
            }
        }
        let collided = winners.len() > 1;
        let mut busy = 0;
        for &w in &winners {
            busy = busy.max(span[w]);
            tally.attempts[w] += 1;
            tally.airtime_ns[w] += difs + span[w];
            if collided {
                tally.collided += 1;
                retries[w] += 1;
                if retries[w] < phy.retry_limit {
                    backoff[w] = draw(phy.cw_after(retries[w]));
                    continue;
                }
            }
            // Delivered, or dropped at the retry limit: the next frame
            // starts from CWmin.
            retries[w] = 0;
            backoff[w] = draw(phy.cw_min);
        }
        tally.wall_ns += busy;
    }
    tally
}

/// The same saturated uplink cell through [`DcfWorld`] and an event
/// queue, every station re-offered a frame the moment its MAC frees up.
fn simulated(phy: &Phy80211b, rates: &[DataRate], seed: u64) -> Tally {
    let n = rates.len();
    let mut world = DcfWorld::new(
        DcfConfig {
            phy: *phy,
            ap: AP,
            retry_rate_fallback: false,
            rts_threshold: None,
        },
        vec![LinkErrorModel::Perfect; n + 1],
        SimRng::new(seed),
    );
    let mut queue: EventQueue<MacEvent> = EventQueue::new();
    let mut tally = Tally {
        attempts: vec![0; n],
        airtime_ns: vec![0; n],
        collided: 0,
        wall_ns: 0,
    };
    let mut now = SimTime::ZERO;
    let mut handle = 0;
    let apply = |fx: Vec<MacEffect>, queue: &mut EventQueue<MacEvent>, tally: &mut Tally| {
        for e in fx {
            match e {
                MacEffect::Schedule { at, event } => queue.schedule(at, event),
                MacEffect::Attempt {
                    frame,
                    collision,
                    airtime,
                    ..
                } => {
                    let i = frame.src.index() - 1;
                    tally.attempts[i] += 1;
                    tally.airtime_ns[i] += airtime.as_nanos();
                    tally.collided += collision as u64;
                }
                _ => {}
            }
        }
    };
    loop {
        for (i, &rate) in rates.iter().enumerate() {
            let src = NodeId(i + 1);
            if world.can_accept(src) {
                handle += 1;
                let frame = Frame {
                    src,
                    dst: AP,
                    msdu_bytes: BYTES,
                    rate,
                    handle,
                };
                let fx = world.offer_frame(now, frame).expect("MAC was free");
                apply(fx, &mut queue, &mut tally);
            }
        }
        if tally.total_attempts() >= ATTEMPTS {
            break;
        }
        let (t, ev) = queue.pop().expect("a saturated cell always has an event");
        now = t;
        let fx = world.handle(t, ev);
        apply(fx, &mut queue, &mut tally);
    }
    tally.wall_ns = now.as_nanos();
    tally
}

fn mixed_rates(n: usize) -> Vec<DataRate> {
    (0..n).map(|i| DataRate::ALL_B[i % 4]).collect()
}

/// Collided and total attempts, and wall time, summed over runs.
#[derive(Default)]
struct Pooled {
    collided: u64,
    attempts: u64,
    wall_ns: u64,
}

impl Pooled {
    fn add(&mut self, run: &Tally) {
        self.collided += run.collided;
        self.attempts += run.total_attempts();
        self.wall_ns += run.wall_ns;
    }

    fn collision_probability(&self) -> f64 {
        self.collided as f64 / self.attempts as f64
    }

    fn attempt_rate(&self) -> f64 {
        self.attempts as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Each station's airtime share summed by rate class, next to Eq 4's
/// prediction for the class (`rates` and `shares` are index-aligned).
fn class_shares(rates: &[DataRate], shares: &[f64], expected: &[f64]) -> Vec<(f64, f64)> {
    let mut by_rate = vec![(0.0, 0.0); DataRate::ALL_B.len()];
    for ((rate, got), want) in rates.iter().zip(shares).zip(expected) {
        let k = DataRate::ALL_B
            .iter()
            .position(|r| r == rate)
            .expect("an 802.11b rate");
        by_rate[k].0 += got;
        by_rate[k].1 += want;
    }
    by_rate.retain(|&(_, want)| want > 0.0);
    by_rate
}

/// Runs both implementations over n = 2…20 and checks every quantity.
fn check_mix(label: &str, seed_base: u64, rates_of: impl Fn(usize) -> Vec<DataRate>) {
    let phy = Phy80211b::default();
    let mut pooled = [Pooled::default(), Pooled::default()];
    for n in 2..=20 {
        let rates = rates_of(n);
        let seed = seed_base + n as u64;
        let runs = [reference(&phy, &rates, seed), simulated(&phy, &rates, seed)];
        let p_model = BianchiModel::solve(&phy, n).p_collision;
        // Equal opportunities split the air in proportion to each
        // station's cost per packet, s/γ (Eq 4 over the γ model).
        let nodes: Vec<NodeSpec> = rates
            .iter()
            .map(|&r| NodeSpec::with_gamma(gamma_udp_model(&phy, r, BYTES, n)))
            .collect();
        let expected = rf_allocation(&nodes).occupancy;
        for ((run, name), sum) in runs.iter().zip(["reference", "DcfWorld"]).zip(&mut pooled) {
            let p = run.collision_probability();
            assert!(
                (p - p_model).abs() <= 0.1 * p_model + 0.01,
                "{label} n={n} {name}: collision probability {p:.4} vs Bianchi {p_model:.4}"
            );
            let jain = run.attempt_fairness();
            assert!(
                jain >= 0.98,
                "{label} n={n} {name}: attempt shares unequal (Jain {jain:.4}): {:?}",
                run.attempts
            );
            for (got, want) in class_shares(&rates, &run.airtime_shares(), &expected) {
                assert!(
                    (got - want).abs() <= 0.2 * want,
                    "{label} n={n} {name}: rate-class airtime share {got:.4} vs Eq 4 {want:.4}"
                );
            }
            sum.add(run);
        }
        let [r, s] = &runs;
        let (pr, ps) = (r.collision_probability(), s.collision_probability());
        assert!(
            (pr - ps).abs() <= 0.1 * pr + 0.015,
            "{label} n={n}: collision probability {ps:.4} vs reference {pr:.4}"
        );
        let (ar, asim) = (r.attempt_rate(), s.attempt_rate());
        assert!(
            (ar - asim).abs() <= 0.06 * ar,
            "{label} n={n}: {asim:.1} attempts/s vs reference {ar:.1}"
        );
    }
    // Over all n together the sampling noise is small enough to hold
    // the two implementations to a tight agreement.
    let [r, s] = &pooled;
    let (pr, ps) = (r.collision_probability(), s.collision_probability());
    let (ar, asim) = (r.attempt_rate(), s.attempt_rate());
    assert!(
        (pr - ps).abs() <= 0.025 * pr,
        "{label}: pooled collision probability {ps:.4} vs reference {pr:.4}"
    );
    assert!(
        (ar - asim).abs() <= 0.005 * ar,
        "{label}: pooled {asim:.1} attempts/s vs reference {ar:.1}"
    );
}

#[test]
fn dcf_world_matches_the_reference_at_one_rate() {
    check_mix("11 Mb/s", 0x0DCF_1100, |n| vec![DataRate::B11; n]);
}

#[test]
fn dcf_world_matches_the_reference_at_mixed_rates() {
    check_mix("1/2/5.5/11 Mb/s", 0x0DCF_4400, mixed_rates);
}
