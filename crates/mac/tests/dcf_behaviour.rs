//! Behavioural tests for the DCF world, driven by a miniature event loop.
//!
//! These tests check the MAC against known 802.11b ground truth: solo
//! saturation throughput, equal transmission opportunities between
//! contenders, and — the effect at the heart of the paper — the airtime
//! imbalance between a 1 Mbit/s and an 11 Mbit/s sender.

use airtime_mac::{DcfConfig, DcfWorld, Frame, FrameOutcome, MacEffect, MacEvent, NodeId};
use airtime_phy::{DataRate, LinkErrorModel, Phy80211b};
use airtime_sim::{EventQueue, SimDuration, SimRng, SimTime};

const AP: NodeId = NodeId(0);

struct Driver {
    world: DcfWorld,
    queue: EventQueue<MacEvent>,
    now: SimTime,
    delivered: Vec<Frame>,
    finals: Vec<(Frame, FrameOutcome, SimDuration)>,
    attempts: u64,
    /// `(sender, end of the exchange)` of every attempt.
    exchange_ends: Vec<(NodeId, SimTime)>,
    /// `(station, slots)` of every backoff draw the world reports.
    draws: Vec<(NodeId, u32)>,
    next_handle: u64,
}

impl Driver {
    fn new(links: Vec<LinkErrorModel>, seed: u64) -> Self {
        Self::with_rts(links, seed, None)
    }

    fn with_rts(links: Vec<LinkErrorModel>, seed: u64, rts_threshold: Option<u64>) -> Self {
        let config = DcfConfig {
            phy: Phy80211b::default(),
            ap: AP,
            retry_rate_fallback: false,
            rts_threshold,
        };
        Driver {
            world: DcfWorld::new(config, links, SimRng::new(seed)),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            delivered: Vec::new(),
            finals: Vec::new(),
            attempts: 0,
            exchange_ends: Vec::new(),
            draws: Vec::new(),
            next_handle: 0,
        }
    }

    fn apply(&mut self, effects: Vec<MacEffect>) {
        for e in effects {
            match e {
                MacEffect::Schedule { at, event } => self.queue.schedule(at, event),
                MacEffect::Delivered { frame } => self.delivered.push(frame),
                MacEffect::TxFinal {
                    frame,
                    outcome,
                    airtime_total,
                } => self.finals.push((frame, outcome, airtime_total)),
                MacEffect::Attempt { frame, .. } => {
                    self.attempts += 1;
                    self.exchange_ends.push((frame.src, self.now));
                }
                MacEffect::BackoffDrawn { node, slots, .. } => self.draws.push((node, slots)),
                MacEffect::AirtimeSlice { .. } => {}
            }
        }
    }

    fn offer(&mut self, src: NodeId, dst: NodeId, bytes: u64, rate: DataRate) {
        let frame = Frame {
            src,
            dst,
            msdu_bytes: bytes,
            rate,
            handle: self.next_handle,
        };
        self.next_handle += 1;
        let effects = self
            .world
            .offer_frame(self.now, frame)
            .expect("offer to idle MAC");
        self.apply(effects);
    }

    /// Runs until `end`, keeping each `(src, dst, bytes, rate)` source
    /// saturated (a fresh frame offered whenever its MAC frees up).
    fn run_saturated(&mut self, end: SimTime, sources: &[(NodeId, NodeId, u64, DataRate)]) {
        for &(src, dst, bytes, rate) in sources {
            if self.world.can_accept(src) {
                self.offer(src, dst, bytes, rate);
            }
        }
        while let Some((t, ev)) = self.queue.pop() {
            if t > end {
                break;
            }
            self.now = t;
            let effects = self.world.handle(t, ev);
            self.apply(effects);
            for &(src, dst, bytes, rate) in sources {
                if self.world.can_accept(src) {
                    self.offer(src, dst, bytes, rate);
                }
            }
        }
        self.now = end;
    }

    /// Delivers every pending event, offering nothing new.
    fn drain(&mut self) {
        while let Some((t, ev)) = self.queue.pop() {
            self.now = t;
            let effects = self.world.handle(t, ev);
            self.apply(effects);
        }
    }

    fn delivered_from(&self, src: NodeId) -> usize {
        self.delivered.iter().filter(|f| f.src == src).count()
    }

    fn throughput_mbps(&self, src: NodeId, end: SimTime) -> f64 {
        let bytes: u64 = self
            .delivered
            .iter()
            .filter(|f| f.src == src)
            .map(|f| f.msdu_bytes)
            .sum();
        bytes as f64 * 8.0 / end.as_secs_f64() / 1e6
    }
}

fn perfect_links(n: usize) -> Vec<LinkErrorModel> {
    vec![LinkErrorModel::Perfect; n]
}

#[test]
fn solo_saturated_sender_matches_80211b_ground_truth() {
    // One client uploading 1500-byte frames at 11 Mbit/s over a clean
    // channel. Expected cycle: DIFS (50) + mean backoff (15.5 slots =
    // 310) + DATA (1309) + SIFS (10) + ACK (248) ≈ 1927 µs → ≈ 6.2 Mbit/s
    // MSDU throughput. This is the classic "one 802.11b sender cannot
    // reach 11 Mbit/s" number.
    let mut d = Driver::new(perfect_links(2), 1);
    let end = SimTime::from_secs(10);
    d.run_saturated(end, &[(NodeId(1), AP, 1500, DataRate::B11)]);
    let mbps = d.throughput_mbps(NodeId(1), end);
    assert!((5.9..6.5).contains(&mbps), "solo throughput {mbps} Mbit/s");
    // No collisions possible with a single sender.
    assert_eq!(d.world.stats().collision_events, 0);
    assert_eq!(d.world.stats().dropped, 0);
}

#[test]
fn two_equal_rate_senders_get_equal_transmission_opportunities() {
    let mut d = Driver::new(perfect_links(3), 2);
    let end = SimTime::from_secs(10);
    d.run_saturated(
        end,
        &[
            (NodeId(1), AP, 1500, DataRate::B11),
            (NodeId(2), AP, 1500, DataRate::B11),
        ],
    );
    let n1 = d.delivered_from(NodeId(1)) as f64;
    let n2 = d.delivered_from(NodeId(2)) as f64;
    assert!(n1 > 1000.0 && n2 > 1000.0, "n1={n1} n2={n2}");
    let ratio = n1 / n2;
    assert!((0.95..1.05).contains(&ratio), "opportunity ratio {ratio}");
    // Contention produces some collisions, resolved by retransmission.
    assert!(d.world.stats().collision_events > 0);
    assert_eq!(d.world.stats().dropped, 0);
}

#[test]
fn rate_diversity_anomaly_equal_throughput_unequal_airtime() {
    // §2.4.1: a 1 Mbit/s and an 11 Mbit/s uploader get the *same
    // throughput*, while the slow node hogs the channel. This is
    // Figure 2 of the paper at the MAC level (UDP-like saturation).
    let mut d = Driver::new(perfect_links(3), 3);
    let end = SimTime::from_secs(20);
    d.run_saturated(
        end,
        &[
            (NodeId(1), AP, 1500, DataRate::B11),
            (NodeId(2), AP, 1500, DataRate::B1),
        ],
    );
    let fast = d.delivered_from(NodeId(1)) as f64;
    let slow = d.delivered_from(NodeId(2)) as f64;
    let ratio = fast / slow;
    assert!(
        (0.93..1.07).contains(&ratio),
        "throughput-fair split violated: {ratio}"
    );
    // Channel occupancy: exchange times are ≈1617 µs vs ≈12854 µs, so
    // the slow node should hold ≈8× the fast node's airtime.
    let t_fast = d.world.occupancy(NodeId(1)).as_secs_f64();
    let t_slow = d.world.occupancy(NodeId(2)).as_secs_f64();
    let occ_ratio = t_slow / t_fast;
    assert!(
        (6.0..9.5).contains(&occ_ratio),
        "occupancy ratio {occ_ratio}"
    );
    // Aggregate throughput collapses towards the slow rate (the paper's
    // headline anomaly): both nodes land under 1 Mbit/s of goodput.
    let total = d.throughput_mbps(NodeId(1), end) + d.throughput_mbps(NodeId(2), end);
    assert!(total < 2.0, "aggregate {total} Mbit/s should collapse");
}

#[test]
fn lossy_link_retries_and_charges_airtime() {
    let links = vec![
        LinkErrorModel::Perfect,
        LinkErrorModel::FixedFer(0.4),
        LinkErrorModel::Perfect,
    ];
    let mut d = Driver::new(links, 4);
    let end = SimTime::from_secs(5);
    d.run_saturated(end, &[(NodeId(1), AP, 1500, DataRate::B11)]);
    let stats = d.world.stats();
    assert!(stats.attempts > stats.delivered, "retransmissions expected");
    // Occupancy must include failed attempts: strictly more airtime than
    // delivered × one-exchange-time.
    let one_exchange = Phy80211b::default().exchange_time(1500, DataRate::B11);
    let min_occ = one_exchange.as_secs_f64() * stats.delivered as f64;
    assert!(d.world.occupancy(NodeId(1)).as_secs_f64() > min_occ * 1.2);
}

#[test]
fn dead_link_drops_after_retry_limit() {
    let links = vec![
        LinkErrorModel::Perfect,
        LinkErrorModel::FixedFer(1.0),
        LinkErrorModel::Perfect,
    ];
    let mut d = Driver::new(links, 5);
    d.offer(NodeId(1), AP, 1500, DataRate::B11);
    // Run the queue dry: the frame must be dropped after retry_limit
    // attempts.
    while let Some((t, ev)) = d.queue.pop() {
        d.now = t;
        let eff = d.world.handle(t, ev);
        d.apply(eff);
    }
    assert_eq!(d.finals.len(), 1);
    let (frame, outcome, airtime) = d.finals[0];
    assert_eq!(outcome, FrameOutcome::Dropped);
    assert_eq!(frame.src, NodeId(1));
    assert_eq!(d.attempts, u64::from(Phy80211b::default().retry_limit));
    // Total airtime across attempts = retry_limit × one attempt.
    let per_attempt = Phy80211b::default().exchange_time(1500, DataRate::B11);
    assert_eq!(
        airtime.as_nanos(),
        per_attempt.as_nanos() * u64::from(Phy80211b::default().retry_limit)
    );
    assert_eq!(d.world.stats().dropped, 1);
}

#[test]
fn simultaneous_arrivals_collide_then_recover() {
    let mut d = Driver::new(perfect_links(3), 6);
    // Both stations get a frame at t=0 on an idle medium: immediate
    // access for both → guaranteed collision at DIFS.
    d.offer(NodeId(1), AP, 1500, DataRate::B11);
    d.offer(NodeId(2), AP, 1500, DataRate::B11);
    while let Some((t, ev)) = d.queue.pop() {
        d.now = t;
        let eff = d.world.handle(t, ev);
        d.apply(eff);
    }
    assert!(d.world.stats().collision_events >= 1);
    // Both frames are eventually delivered via backoff.
    assert_eq!(d.delivered.len(), 2);
    assert_eq!(
        d.finals
            .iter()
            .filter(|(_, o, _)| *o == FrameOutcome::Delivered)
            .count(),
        2
    );
}

#[test]
fn deferred_station_stays_silent_until_timer() {
    let mut d = Driver::new(perfect_links(2), 7);
    let until = SimTime::from_millis(50);
    let mut eff = Vec::new();
    d.world.set_defer(SimTime::ZERO, NodeId(1), until, &mut eff);
    d.apply(eff);
    d.offer(NodeId(1), AP, 1500, DataRate::B11);
    while let Some((t, ev)) = d.queue.pop() {
        d.now = t;
        let eff = d.world.handle(t, ev);
        d.apply(eff);
    }
    assert_eq!(d.delivered.len(), 1);
    // Delivery cannot predate the defer expiry.
    assert!(d.now >= until, "delivered at {} before defer expiry", d.now);
}

#[test]
fn medium_deferral_holds_every_station_on_one_timer() {
    let mut d = Driver::new(perfect_links(4), 9);
    let window = SimTime::from_millis(50);
    let outlast = SimTime::from_millis(80);
    d.offer(NodeId(1), AP, 1500, DataRate::B11);
    d.offer(NodeId(2), AP, 1500, DataRate::B11);
    let mut eff = Vec::new();
    d.world.defer_medium(SimTime::ZERO, window, &mut eff);
    assert_eq!(
        eff,
        vec![MacEffect::Schedule {
            at: window,
            event: MacEvent::MediumDeferExpired,
        }],
        "one timer for the whole cell"
    );
    d.apply(eff);
    // A window or a station defer inside the running window changes
    // nothing and schedules nothing.
    let mut none = Vec::new();
    d.world.defer_medium(SimTime::ZERO, window, &mut none);
    let early = SimTime::from_millis(30);
    d.world
        .set_defer(SimTime::ZERO, NodeId(1), early, &mut none);
    assert!(none.is_empty());
    // A station defer outlasting the window still holds that station.
    let mut eff = Vec::new();
    d.world
        .set_defer(SimTime::ZERO, NodeId(2), outlast, &mut eff);
    assert_eq!(
        eff,
        vec![MacEffect::Schedule {
            at: outlast,
            event: MacEvent::DeferExpired { node: NodeId(2) },
        }]
    );
    d.apply(eff);
    let mut first_tx: Vec<Option<SimTime>> = vec![None; 4];
    while let Some((t, ev)) = d.queue.pop() {
        d.now = t;
        let eff = d.world.handle(t, ev);
        for e in &eff {
            if let MacEffect::Attempt { frame, .. } = e {
                first_tx[frame.src.index()].get_or_insert(t);
            }
        }
        d.apply(eff);
    }
    assert_eq!(d.delivered.len(), 2);
    assert!(first_tx[1].is_some_and(|t| t > window), "{first_tx:?}");
    assert!(first_tx[2].is_some_and(|t| t > outlast), "{first_tx:?}");
}

#[test]
fn downlink_occupancy_is_charged_to_the_client() {
    // The AP sending to station 1 charges station 1's occupancy (§2.2).
    let mut d = Driver::new(perfect_links(2), 8);
    let end = SimTime::from_secs(1);
    d.run_saturated(end, &[(AP, NodeId(1), 1500, DataRate::B11)]);
    assert!(d.world.occupancy(NodeId(1)).as_secs_f64() > 0.5);
    assert_eq!(d.world.occupancy(AP), SimDuration::ZERO);
}

#[test]
fn same_seed_same_history() {
    let run = |seed: u64| {
        let mut d = Driver::new(perfect_links(3), seed);
        let end = SimTime::from_secs(2);
        d.run_saturated(
            end,
            &[
                (NodeId(1), AP, 1500, DataRate::B11),
                (NodeId(2), AP, 700, DataRate::B2),
            ],
        );
        (
            d.delivered.iter().map(|f| f.handle).collect::<Vec<_>>(),
            d.world.stats().attempts,
        )
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99).0, run(100).0);
}

#[test]
fn occupancy_accounts_for_most_of_wall_clock_under_saturation() {
    // With a saturated channel, Σ occupancy ≈ busy time + DIFS gaps and
    // should cover the large majority of wall-clock time (backoff slots
    // are the only unattributed time).
    let mut d = Driver::new(perfect_links(3), 10);
    let end = SimTime::from_secs(10);
    d.run_saturated(
        end,
        &[
            (NodeId(1), AP, 1500, DataRate::B11),
            (NodeId(2), AP, 1500, DataRate::B5_5),
        ],
    );
    let total_occ =
        d.world.occupancy(NodeId(1)).as_secs_f64() + d.world.occupancy(NodeId(2)).as_secs_f64();
    let frac = total_occ / end.as_secs_f64();
    assert!((0.80..1.02).contains(&frac), "occupied fraction {frac}");
}

#[test]
fn offer_to_busy_mac_is_rejected_unchanged() {
    let mut d = Driver::new(perfect_links(2), 11);
    d.offer(NodeId(1), AP, 1500, DataRate::B11);
    let dup = Frame {
        src: NodeId(1),
        dst: AP,
        msdu_bytes: 99,
        rate: DataRate::B1,
        handle: 777,
    };
    let back = d.world.offer_frame(d.now, dup).unwrap_err();
    assert_eq!(back, dup);
}

#[test]
fn rts_cts_adds_overhead_to_large_frames() {
    // Same solo workload with and without protection: RTS/CTS costs
    // ~540 µs per exchange, visibly lowering throughput.
    let end = SimTime::from_secs(5);
    let mut plain = Driver::new(perfect_links(2), 21);
    plain.run_saturated(end, &[(NodeId(1), AP, 1500, DataRate::B11)]);
    let mut protected = Driver::with_rts(perfect_links(2), 21, Some(400));
    protected.run_saturated(end, &[(NodeId(1), AP, 1500, DataRate::B11)]);
    let t_plain = plain.throughput_mbps(NodeId(1), end);
    let t_prot = protected.throughput_mbps(NodeId(1), end);
    assert!(
        t_prot < 0.90 * t_plain,
        "protected {t_prot} vs plain {t_plain}"
    );
    // Occupancy reflects the handshake too.
    assert!(protected.world.occupancy(NodeId(1)) > plain.world.occupancy(NodeId(1)));
}

#[test]
fn rts_threshold_spares_small_frames() {
    let end = SimTime::from_secs(5);
    let mut plain = Driver::new(perfect_links(2), 22);
    plain.run_saturated(end, &[(NodeId(1), AP, 200, DataRate::B11)]);
    let mut protected = Driver::with_rts(perfect_links(2), 22, Some(400));
    protected.run_saturated(end, &[(NodeId(1), AP, 200, DataRate::B11)]);
    // 200 B + 36 B framing is under the 400 B threshold: identical runs.
    assert_eq!(
        plain.delivered.len(),
        protected.delivered.len(),
        "small frames must not pay for RTS"
    );
}

#[test]
fn rts_makes_collisions_cheap() {
    // Force plenty of collisions (two saturated stations) and compare
    // medium busy time wasted per collision event.
    let end = SimTime::from_secs(10);
    let sources = [
        (NodeId(1), AP, 1500, DataRate::B1),
        (NodeId(2), AP, 1500, DataRate::B1),
    ];
    let mut plain = Driver::new(perfect_links(3), 23);
    plain.run_saturated(end, &sources);
    let mut protected = Driver::with_rts(perfect_links(3), 23, Some(400));
    protected.run_saturated(end, &sources);
    // With 12.8 ms frames at 1M, each unprotected collision wastes a
    // whole frame; protected collisions waste only the ~350 µs RTS, so
    // the protected run completes more deliveries despite the per-frame
    // handshake overhead being a large fraction at 1M... measure via
    // goodput per unit busy time instead:
    let eff = |d: &Driver| {
        let bytes: u64 = d.delivered.iter().map(|f| f.msdu_bytes).sum();
        bytes as f64 / d.world.busy_time().as_secs_f64()
    };
    // Both runs must at least complete sanely with collisions present.
    assert!(plain.world.stats().collision_events > 0);
    assert!(protected.world.stats().collision_events > 0);
    assert!(eff(&plain) > 0.0 && eff(&protected) > 0.0);
    // The protected run's collision-time share is strictly smaller:
    // collisions cost rts+sifs+cts (~0.6 ms) instead of ~12.9 ms.
    let coll_plain = plain.world.stats().collision_events as f64 * 12.9e-3;
    let coll_prot = protected.world.stats().collision_events as f64 * 0.6e-3;
    let frac_plain = coll_plain / end.as_secs_f64();
    let frac_prot = coll_prot / end.as_secs_f64();
    assert!(
        frac_prot < frac_plain,
        "protected collision time {frac_prot} vs {frac_plain}"
    );
}

/// The post-transmission backoff a station carries into an idle spell
/// counts down with everyone else's: every countdown that runs for
/// another contender subtracts its elapsed slots from all carried
/// backoffs, idle stations' included. Only over an idle medium with no
/// contender does the carried backoff stay frozen until the station's
/// next frame.
#[test]
fn carried_backoff_decays_while_others_count_down() {
    let phy = Phy80211b::default();
    // Station 1 sends one frame, idles while station 2 is saturated
    // until `contended` (or not at all), then offers a second frame
    // into an idle medium. Returns the backoff it carried and the wait
    // from that offer to the start of its exchange.
    let second_access = |contended: Option<SimTime>| {
        let mut d = Driver::new(perfect_links(3), 5);
        d.world.set_emit_backoff(true);
        d.offer(NodeId(1), AP, 1500, DataRate::B11);
        d.drain();
        let carried = match d.draws[..] {
            [(NodeId(1), slots)] => slots,
            ref other => panic!("expected one post-transmission draw, got {other:?}"),
        };
        // Offered at t = 0 into an idle medium, the first frame went
        // out exactly DIFS later.
        let span = d.exchange_ends[0].1 - (SimTime::ZERO + phy.difs());
        if let Some(end) = contended {
            d.offer(NodeId(2), AP, 1500, DataRate::B11);
            while let Some((t, ev)) = d.queue.pop() {
                d.now = t;
                let effects = d.world.handle(t, ev);
                d.apply(effects);
                if t < end && d.world.can_accept(NodeId(2)) {
                    d.offer(NodeId(2), AP, 1500, DataRate::B11);
                }
            }
        }
        let offered = d.now + SimDuration::from_millis(10);
        d.now = offered;
        d.offer(NodeId(1), AP, 1500, DataRate::B11);
        d.drain();
        let (src, end) = *d.exchange_ends.last().expect("second attempt");
        assert_eq!(src, NodeId(1));
        assert_eq!(d.delivered_from(NodeId(1)), 2);
        (carried, end - span - offered)
    };
    let (carried, frozen) = second_access(None);
    assert!(
        carried >= 2,
        "seed must draw a telling backoff, got {carried}"
    );
    assert!(
        frozen >= phy.slot * carried as u64,
        "idle medium: all {carried} carried slots must be counted, waited {frozen}"
    );
    let (again, decayed) = second_access(Some(SimTime::from_millis(100)));
    assert_eq!(again, carried);
    assert!(
        decayed < phy.slot,
        "station 2's countdowns must have used up the carried backoff, waited {decayed}"
    );
}
