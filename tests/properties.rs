//! Randomized tests over the workspace's core invariants: allocation
//! identities from the analytic model, TBR conservation laws, airtime
//! arithmetic, max-min structure, and end-to-end TCP delivery under
//! arbitrary loss patterns. Inputs come from fixed-seed [`SimRng`]
//! streams so failures reproduce exactly.

use airtime::core::{
    max_min_allocation, ClientId, QueuedPacket, Scheduler, TbrConfig, TbrScheduler,
};
use airtime::model::{rf_allocation, tf_allocation, NodeSpec};
use airtime::phy::{DataRate, Phy80211b};
use airtime::sched::{SchedulerKind, FAMILIES};
use airtime::sim::stats::jain_index;
use airtime::sim::{SimDuration, SimRng, SimTime};

const CASES: usize = 200;

/// Realistic baseline-throughput range in Mbit/s.
fn random_gamma(rng: &mut SimRng) -> f64 {
    0.2 + rng.unit() * 29.8
}

fn random_nodes(rng: &mut SimRng, min_n: u64, max_n: u64) -> Vec<NodeSpec> {
    let n = rng.range_inclusive(min_n, max_n);
    (0..n)
        .map(|_| NodeSpec {
            gamma: random_gamma(rng),
            packet_bytes: 40.0 + rng.unit() * 1460.0,
        })
        .collect()
}

fn random_gammas(rng: &mut SimRng, min_n: u64, max_n: u64) -> Vec<f64> {
    let n = rng.range_inclusive(min_n, max_n);
    (0..n).map(|_| random_gamma(rng)).collect()
}

/// Eq 1: occupancies sum to one under both notions, for any mix of
/// γ and packet sizes.
#[test]
fn occupancies_sum_to_one() {
    let mut rng = SimRng::new(0xA110);
    for _ in 0..CASES {
        let nodes = random_nodes(&mut rng, 1, 8);
        for alloc in [rf_allocation(&nodes), tf_allocation(&nodes)] {
            let sum: f64 = alloc.occupancy.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(alloc
                .occupancy
                .iter()
                .all(|&t| (0.0..=1.0 + 1e-12).contains(&t)));
        }
    }
}

/// Equal-packet-size RF gives every node identical throughput (Eq 6)
/// no matter the rates.
#[test]
fn rf_equalises_throughput() {
    let mut rng = SimRng::new(0xA111);
    for _ in 0..CASES {
        let gammas = random_gammas(&mut rng, 2, 7);
        let nodes: Vec<NodeSpec> = gammas.iter().map(|&g| NodeSpec::with_gamma(g)).collect();
        let alloc = rf_allocation(&nodes);
        let first = alloc.throughput[0];
        for &r in &alloc.throughput {
            assert!((r - first).abs() / first < 1e-9);
        }
        assert!((jain_index(&alloc.throughput).unwrap() - 1.0).abs() < 1e-9);
    }
}

/// TF aggregate is never below RF aggregate for equal packet sizes,
/// and they coincide exactly when all rates are equal (§2.6: "R'(I)
/// and R(I) will be equal if and only if ...").
#[test]
fn tf_dominates_rf() {
    let mut rng = SimRng::new(0xA112);
    for case in 0..CASES {
        // Alternate between mixed and deliberately-equal rate vectors so
        // both branches of the iff are exercised.
        let gammas = if case % 4 == 0 {
            let g = random_gamma(&mut rng);
            vec![g; rng.range_inclusive(1, 7) as usize]
        } else {
            random_gammas(&mut rng, 1, 7)
        };
        let nodes: Vec<NodeSpec> = gammas.iter().map(|&g| NodeSpec::with_gamma(g)).collect();
        let rf = rf_allocation(&nodes);
        let tf = tf_allocation(&nodes);
        assert!(
            tf.total >= rf.total - 1e-9,
            "tf {} rf {}",
            tf.total,
            rf.total
        );
        let all_same = gammas.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12);
        if all_same {
            assert!((tf.total - rf.total).abs() < 1e-9);
        }
    }
}

/// The baseline property as an algebraic identity: node i's TF
/// throughput depends only on its own γ and n.
#[test]
fn baseline_property_algebraic() {
    let mut rng = SimRng::new(0xA113);
    for _ in 0..CASES {
        let own = random_gamma(&mut rng);
        let n = rng.range_inclusive(1, 5);
        let others_a = random_gammas(&mut rng, n, n);
        let others_b = random_gammas(&mut rng, n, n);
        let mk = |others: &[f64]| {
            let mut v = vec![NodeSpec::with_gamma(own)];
            v.extend(others.iter().map(|&g| NodeSpec::with_gamma(g)));
            tf_allocation(&v).throughput[0]
        };
        let a = mk(&others_a);
        let b = mk(&others_b);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}

/// Max-min allocation: never exceeds demand or capacity; exhausts
/// capacity whenever total demand allows; unsatisfied entities all sit
/// at the same maximal level.
#[test]
fn max_min_structure() {
    let mut rng = SimRng::new(0xA114);
    for _ in 0..CASES {
        let capacity = 0.1 + rng.unit() * 99.9;
        let n = rng.range_inclusive(1, 9);
        let demands: Vec<f64> = (0..n).map(|_| rng.unit() * 50.0).collect();
        let alloc = max_min_allocation(capacity, &demands);
        let total: f64 = alloc.iter().sum();
        let demand_total: f64 = demands.iter().sum();
        assert!(total <= capacity + 1e-9);
        for (a, d) in alloc.iter().zip(&demands) {
            assert!(*a <= d + 1e-9);
        }
        if demand_total >= capacity {
            assert!(
                (total - capacity).abs() < 1e-6,
                "capacity unexhausted: {total} < {capacity}"
            );
        } else {
            assert!((total - demand_total).abs() < 1e-6);
        }
        let unsat: Vec<f64> = alloc
            .iter()
            .zip(&demands)
            .filter(|(a, d)| **a < **d - 1e-6)
            .map(|(a, _)| *a)
            .collect();
        for w in unsat.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-6);
        }
    }
}

/// Airtime arithmetic: for any payload and 802.11b rate, the frame
/// airtime is monotone in size, antitone in rate, and at least the
/// PLCP duration.
#[test]
fn airtime_is_sane() {
    let mut rng = SimRng::new(0xA115);
    for _ in 0..CASES {
        let bytes = rng.range_inclusive(1, 2303);
        let phy = Phy80211b::default();
        let mut prev = SimDuration::from_secs(1_000);
        for rate in DataRate::ALL_B {
            let t = phy.data_tx_time_default(bytes, rate);
            assert!(t.as_micros() >= 192, "below PLCP at {rate}");
            assert!(t < prev, "airtime not antitone at {rate}");
            prev = t;
            let bigger = phy.data_tx_time_default(bytes + 1, rate);
            assert!(bigger >= t);
        }
    }
}

/// TBR conservation: rates stay a probability distribution and tokens
/// never exceed the bucket, under arbitrary interleavings of
/// completions and ticks.
#[test]
fn tbr_conservation() {
    let mut rng = SimRng::new(0xA116);
    for _ in 0..50 {
        let n = rng.range_inclusive(2, 5) as usize;
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        for c in 0..n {
            tbr.on_associate(ClientId(c), SimTime::ZERO);
        }
        let mut now = SimTime::ZERO;
        let bucket_ns = TbrConfig::default().bucket.as_nanos() as f64;
        let ops = rng.range_inclusive(1, 199);
        for _ in 0..ops {
            let sel = rng.below(6) as usize;
            let us = rng.below(20_000);
            now += SimDuration::from_micros(us);
            match sel % 3 {
                0 => {
                    tbr.enqueue(
                        QueuedPacket {
                            client: ClientId(sel % n),
                            handle: 0,
                            bytes: 1500,
                        },
                        now,
                    );
                    let _ = tbr.dequeue(now);
                }
                1 => tbr.on_complete(
                    ClientId(sel % n),
                    SimDuration::from_micros(us),
                    sel.is_multiple_of(2),
                    now,
                ),
                _ => tbr.on_tick(now),
            }
            let rate_sum: f64 = (0..n)
                .filter_map(|c| tbr.token_fill_rate(ClientId(c)))
                .sum();
            assert!((rate_sum - 1.0).abs() < 1e-6, "rates sum to {rate_sum}");
            for c in 0..n {
                let t = tbr.token_balance_ns(ClientId(c)).unwrap();
                assert!(t <= bucket_ns + 1.0, "tokens above bucket: {t}");
            }
        }
    }
}

/// Contention-window growth is monotone and clamped for any retry
/// count.
/// The trait's default `has_eligible` (any backlog) must agree with
/// `dequeue` for every family that keeps it, under random association
/// churn, weights, traffic and completions. Downlink completions follow
/// the frame just dequeued, as the MAC delivers them; weights stay in
/// [0.5, 4] and packets at most 1500 B, so one DRR visit pair always
/// covers a front packet.
#[test]
fn default_has_eligible_agrees_with_dequeue() {
    let mut rng = SimRng::new(0xA11A);
    let defaults = FAMILIES
        .iter()
        .filter(|f| !matches!((f.default)(), SchedulerKind::Tbr(_)));
    for fam in defaults {
        for case in 0..40 {
            let n = rng.range_inclusive(1, 6) as usize;
            let mut s = (fam.default)().build();
            for c in 0..n {
                s.on_associate(ClientId(c), SimTime::ZERO);
            }
            let mut now = SimTime::ZERO;
            let mut handle = 0;
            for _ in 0..rng.range_inclusive(1, 300) {
                now += SimDuration::from_micros(rng.below(5_000));
                let client = ClientId(rng.below(n as u64) as usize);
                match rng.below(8) {
                    0..=3 => {
                        handle += 1;
                        let bytes = rng.range_inclusive(40, 1500);
                        s.enqueue(
                            QueuedPacket {
                                client,
                                handle,
                                bytes,
                            },
                            now,
                        );
                    }
                    4 | 5 => {
                        let eligible = s.has_eligible(now);
                        let pkt = s.dequeue(now);
                        assert_eq!(
                            eligible,
                            pkt.is_some(),
                            "{} case {case}: has_eligible disagrees with dequeue",
                            fam.name
                        );
                        if let Some(p) = pkt {
                            let air = SimDuration::from_micros(rng.range_inclusive(100, 13_000));
                            s.on_complete(p.client, air, true, now);
                        }
                    }
                    6 => {
                        let _ = s.on_disassociate(client, now);
                    }
                    _ => {
                        let weight = 0.5 + rng.unit() * 3.5;
                        s.on_associate_weighted(client, weight, now);
                        let air = SimDuration::from_micros(rng.range_inclusive(100, 13_000));
                        s.on_complete(client, air, false, now);
                    }
                }
            }
        }
    }
}

#[test]
fn cw_growth() {
    let phy = Phy80211b::default();
    for retries in 0u32..64 {
        let cw = phy.cw_after(retries);
        assert!(cw >= phy.cw_min);
        assert!(cw <= phy.cw_max);
        assert!(phy.cw_after(retries + 1) >= cw);
    }
}

mod tcp_delivery {
    use super::*;
    use airtime::net::{
        FlowId, PacketKind, ReceiverEffect, SenderEffect, TcpConfig, TcpReceiver, TcpSender,
    };
    use airtime::sim::EventQueue;

    #[derive(Clone, Copy)]
    enum Ev {
        Data(u64),
        Ack(u64),
        Rto(u64),
        DelAck(u64),
    }

    /// Delivers `segments` across a lossy link where each transmission
    /// is dropped per the `drops` script (cycled); returns whether the
    /// task completed and in-order goodput.
    fn transfer(segments: u64, drops: &[bool]) -> (bool, u64) {
        let cfg = TcpConfig::default();
        let mss = cfg.mss;
        let mut tx = TcpSender::new(FlowId(0), cfg.clone(), Some(segments * mss), None);
        let mut rx = TcpReceiver::new(FlowId(0), cfg);
        let mut q: EventQueue<Ev> = EventQueue::new();
        let delay = SimDuration::from_millis(4);
        let mut now = SimTime::ZERO;
        let mut done = false;
        let mut sent = 0usize;
        let mut sfx = Vec::new();
        macro_rules! pump {
            () => {
                while let Some(p) = tx.poll_packet(now, &mut sfx) {
                    if let PacketKind::TcpData { seq } = p.kind {
                        let dropped = !drops.is_empty() && drops[sent % drops.len()];
                        sent += 1;
                        if !dropped {
                            q.schedule(now + delay, Ev::Data(seq));
                        }
                    }
                }
                for e in sfx.drain(..) {
                    match e {
                        SenderEffect::ArmRto { at, generation } => {
                            q.schedule(at, Ev::Rto(generation))
                        }
                        SenderEffect::Complete => done = true,
                    }
                }
            };
        }
        pump!();
        let mut guard = 0u32;
        while let Some((t, ev)) = q.pop() {
            guard += 1;
            if done || guard > 200_000 || t > SimTime::from_secs(3600) {
                break;
            }
            now = t;
            match ev {
                Ev::Data(seq) => {
                    for e in rx.on_data(now, seq) {
                        match e {
                            ReceiverEffect::SendAck { ack_seq } => {
                                q.schedule(now + delay, Ev::Ack(ack_seq));
                            }
                            ReceiverEffect::ArmDelAck { at, generation } => {
                                q.schedule(at, Ev::DelAck(generation));
                            }
                        }
                    }
                }
                Ev::Ack(ack) => {
                    tx.on_ack(now, ack, &mut sfx);
                    pump!();
                }
                Ev::Rto(generation) => {
                    tx.on_rto_fired(now, generation, &mut sfx);
                    pump!();
                }
                Ev::DelAck(generation) => {
                    for e in rx.on_delack_fired(generation) {
                        if let ReceiverEffect::SendAck { ack_seq } = e {
                            q.schedule(now + delay, Ev::Ack(ack_seq));
                        }
                    }
                }
            }
        }
        (done, rx.contiguous_segments())
    }

    /// TCP completes any small task under any (non-total) periodic loss
    /// pattern, and the receiver ends with exactly the task's segments
    /// in order.
    #[test]
    fn tcp_survives_arbitrary_loss_patterns() {
        let mut rng = SimRng::new(0xA117);
        for case in 0..24 {
            let segments = rng.range_inclusive(5, 119);
            let pattern_len = rng.range_inclusive(1, 23);
            let mut drops: Vec<bool> = (0..pattern_len).map(|_| rng.chance(0.5)).collect();
            if drops.iter().all(|d| *d) {
                drops[0] = false; // not a black hole
            }
            let (done, delivered) = transfer(segments, &drops);
            assert!(done, "case {case}: task never completed");
            assert_eq!(delivered, segments, "case {case}");
        }
    }
}

mod ledger_conservation {
    //! End-to-end conservation law: under arbitrary station mixes,
    //! schedulers, directions, seeds and warm-ups, the airtime
    //! ledger's exclusive timeline tiles the measurement window within
    //! 1 µs and its occupancy view reproduces the report's shares.

    use airtime::obs::AirtimeLedger;
    use airtime::phy::DataRate;
    use airtime::sim::{SimDuration, SimRng};
    use airtime::wlan::{run_observed, scenarios, Direction, SchedulerKind};

    #[test]
    fn random_scenarios_conserve_airtime_and_agree_with_the_report() {
        let mut rng = SimRng::new(0xA11E);
        let rates = [DataRate::B1, DataRate::B2, DataRate::B5_5, DataRate::B11];
        for case in 0..24 {
            let n = rng.range_inclusive(1, 4);
            let mix: Vec<DataRate> = (0..n)
                .map(|_| rates[rng.range_inclusive(0, 3) as usize])
                .collect();
            let direction = if rng.chance(0.5) {
                Direction::Uplink
            } else {
                Direction::Downlink
            };
            let scheduler = match rng.range_inclusive(0, 4) {
                0 => SchedulerKind::Fifo,
                1 => SchedulerKind::RoundRobin,
                2 => SchedulerKind::Drr,
                3 => SchedulerKind::tbr(),
                _ => SchedulerKind::txop(),
            };
            let mut cfg = scenarios::tcp_stations(&mix, direction, scheduler);
            cfg.seed = rng.range_inclusive(1, 1 << 30);
            cfg.duration = SimDuration::from_millis(300 + rng.range_inclusive(0, 500));
            cfg.warmup = if rng.chance(0.3) {
                SimDuration::ZERO
            } else {
                SimDuration::from_millis(100)
            };
            let mut ledger = AirtimeLedger::new();
            let report = run_observed(&cfg, &mut ledger);
            let audit = ledger.audit();
            assert!(audit.conserved, "case {case}: {audit}");
            let shares = ledger.occupancy_shares();
            for node in &report.nodes {
                let id = (node.station + 1) as u64;
                let ledger_share = shares
                    .iter()
                    .find(|&&(s, _)| s == id)
                    .map_or(0.0, |&(_, sh)| sh);
                assert!(
                    (ledger_share - node.occupancy_share).abs() < 1e-9,
                    "case {case}: station {} ledger {ledger_share} vs report {}",
                    node.station,
                    node.occupancy_share,
                );
            }
        }
    }
}
