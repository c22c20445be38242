//! Randomized DCF invariants: over random station counts, rates, frame
//! sizes and loss rates, the MAC must conserve airtime, never deliver
//! more than it attempts, and replay identically per seed; and a
//! cell-wide co-channel deferral must run exactly like deferring every
//! station one by one.

use airtime_mac::{DcfConfig, DcfWorld, Frame, MacEffect, MacEvent, NodeId};
use airtime_phy::{DataRate, LinkErrorModel, Phy80211b};
use airtime_sim::{EventQueue, SimDuration, SimRng, SimTime};

const AP: NodeId = NodeId(0);

#[derive(Clone, Debug)]
struct Station {
    rate: DataRate,
    bytes: u64,
    fer: f64,
}

fn random_station(rng: &mut SimRng) -> Station {
    Station {
        rate: DataRate::ALL_B[rng.below(DataRate::ALL_B.len() as u64) as usize],
        bytes: rng.range_inclusive(100, 1499),
        fer: rng.unit() * 0.6,
    }
}

fn random_cell(rng: &mut SimRng, max_n: u64) -> Vec<Station> {
    let n = rng.range_inclusive(1, max_n);
    (0..n).map(|_| random_station(rng)).collect()
}

/// Runs a saturated cell for one simulated second; returns
/// (delivered, attempts, collisions, Σ client occupancy ns, wall ns,
/// busy ns).
fn run_cell(stations: &[Station], seed: u64) -> (u64, u64, u64, u64, u64, u64) {
    let n = stations.len();
    let mut links = vec![LinkErrorModel::Perfect];
    links.extend(stations.iter().map(|s| LinkErrorModel::FixedFer(s.fer)));
    let mut world = DcfWorld::new(
        DcfConfig {
            phy: Phy80211b::default(),
            ap: AP,
            retry_rate_fallback: false,
            rts_threshold: None,
        },
        links,
        SimRng::new(seed),
    );
    let mut queue: EventQueue<MacEvent> = EventQueue::new();
    let end = SimTime::from_secs(1);
    let mut handle = 0u64;
    let mut now = SimTime::ZERO;
    let mut top_up = |world: &mut DcfWorld, queue: &mut EventQueue<MacEvent>, now: SimTime| {
        for (i, st) in stations.iter().enumerate() {
            let node = NodeId(i + 1);
            if world.can_accept(node) {
                let frame = Frame {
                    src: node,
                    dst: AP,
                    msdu_bytes: st.bytes,
                    rate: st.rate,
                    handle,
                };
                handle += 1;
                if let Ok(fx) = world.offer_frame(now, frame) {
                    for e in fx {
                        if let MacEffect::Schedule { at, event } = e {
                            queue.schedule(at, event);
                        }
                    }
                }
            }
        }
    };
    top_up(&mut world, &mut queue, now);
    while let Some((t, ev)) = queue.pop() {
        if t > end {
            break;
        }
        now = t;
        for e in world.handle(t, ev) {
            if let MacEffect::Schedule { at, event } = e {
                queue.schedule(at, event);
            }
        }
        top_up(&mut world, &mut queue, now);
    }
    let stats = world.stats();
    let occ: u64 = (1..=n).map(|i| world.occupancy(NodeId(i)).as_nanos()).sum();
    (
        stats.delivered,
        stats.attempts,
        stats.collision_events,
        occ,
        now.as_nanos().max(1),
        world.busy_time().as_nanos(),
    )
}

#[test]
fn dcf_invariants_hold() {
    let mut gen = SimRng::new(0xDCF0);
    for case in 0..24 {
        let stations = random_cell(&mut gen, 4);
        let seed = gen.below(1000);
        let (delivered, attempts, collisions, occ, wall, busy) = run_cell(&stations, seed);
        assert!(
            delivered <= attempts,
            "case {case}: delivered {delivered} > attempts {attempts}"
        );
        assert!(attempts > 0, "case {case}: a saturated cell must transmit");
        // Busy time never exceeds wall time.
        assert!(busy <= wall + 1, "case {case}: busy {busy} > wall {wall}");
        // Client occupancy = busy + per-attempt DIFS accounting: it can
        // exceed medium busy time by exactly the DIFS charged per
        // attempt (plus one in-flight frame of slack).
        // Colliding attempts are each charged their own span while the
        // medium is busy only for the longest one (documented in the
        // MAC), so allow one exchange of slack per collision event.
        let slack = 20_000_000u64 * (collisions + 1);
        let difs_total = attempts * 50_000;
        assert!(
            occ <= busy + difs_total + slack,
            "case {case}: occ {occ} busy {busy} difs {difs_total} collisions {collisions}"
        );
        // A saturated channel does real work. (High loss rates escalate
        // the contention window, so "mostly busy" is not guaranteed —
        // a 60%-loss station legitimately spends most of its time in
        // backoff.)
        assert!(busy * 10 >= wall, "case {case}: busy {busy} wall {wall}");
    }
}

#[test]
fn dcf_is_deterministic_per_seed() {
    let mut gen = SimRng::new(0xDCF1);
    for case in 0..12 {
        let stations = random_cell(&mut gen, 3);
        let seed = gen.below(100);
        let a = run_cell(&stations, seed);
        let b = run_cell(&stations, seed);
        assert_eq!(a, b, "case {case} not reproducible");
    }
}

/// One scripted step of the mirror differential below. Steps are pure
/// data, so both worlds replay exactly the same script.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Deliver every event due by `now + dt_ns`, then move to that time.
    Advance { dt_ns: u64 },
    /// Hand `node` a frame (if its MAC is free) for `peer`.
    Offer {
        node: usize,
        peer: usize,
        bytes: u64,
        rate: DataRate,
    },
    /// Client cooperation: defer `node` for `dt_ns`.
    Defer { node: usize, dt_ns: u64 },
    /// A co-channel neighbour's busy window ending `dt_ns` from now.
    Mirror { dt_ns: u64 },
}

/// How many mirrors hit each case, read off the world as they apply.
#[derive(Default)]
struct MirrorCoverage {
    ap_only: u32,
    client_contending: u32,
    medium_busy: u32,
    extended: u32,
    coop_outlasts: u32,
}

/// A world and its pending events, delivered in (time, seq) order; the
/// world itself drops stale access events and expired timers.
struct Rig {
    world: DcfWorld,
    queue: EventQueue<MacEvent>,
    now: SimTime,
    /// Every non-`Schedule` effect, stamped with when it was emitted.
    trace: Vec<(SimTime, MacEffect)>,
    /// Every effect, `Schedule`s included, in emission order.
    stream: Vec<MacEffect>,
    /// Drive the world through its buffer entry points, handing every
    /// call the one buffer `buf` (else through the `Vec` forms).
    reuse: bool,
    buf: Vec<MacEffect>,
    handle: u64,
}

impl Rig {
    fn new(n: usize, fer: &[f64], rts: bool, seed: u64) -> Self {
        let mut links = vec![LinkErrorModel::Perfect];
        links.extend(fer.iter().map(|&p| LinkErrorModel::FixedFer(p)));
        assert_eq!(links.len(), n);
        let mut world = DcfWorld::new(
            DcfConfig {
                phy: Phy80211b::default(),
                ap: AP,
                retry_rate_fallback: true,
                rts_threshold: rts.then_some(600),
            },
            links,
            SimRng::new(seed),
        );
        world.set_emit_backoff(true);
        world.set_emit_airtime(true);
        Rig {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            trace: Vec::new(),
            stream: Vec::new(),
            reuse: false,
            buf: Vec::new(),
            handle: 0,
        }
    }

    /// The buffer for the next MAC call: the reused one in `reuse`
    /// mode, else a fresh `Vec`. Either way it must be empty.
    fn buffer(&mut self) -> Vec<MacEffect> {
        let fx = std::mem::take(&mut self.buf);
        assert!(fx.is_empty(), "a handed-back buffer must come back cleared");
        fx
    }

    fn apply(&mut self, mut fx: Vec<MacEffect>) {
        for e in fx.drain(..) {
            self.stream.push(e);
            match e {
                MacEffect::Schedule { at, event } => self.queue.schedule(at, event),
                other => self.trace.push((self.now, other)),
            }
        }
        if self.reuse {
            self.buf = fx;
        }
    }

    fn run_until(&mut self, t: SimTime) {
        while self.queue.peek_time().is_some_and(|at| at <= t) {
            let (at, ev) = self.queue.pop().expect("peeked");
            self.now = at;
            let fx = if self.reuse {
                let mut fx = self.buffer();
                self.world.handle_into(at, ev, &mut fx);
                fx
            } else {
                self.world.handle(at, ev)
            };
            self.apply(fx);
        }
        self.now = t;
    }

    /// Replays one step; `per_node_mirror` picks the reference loop
    /// (`set_defer` on every node in index order) over `defer_medium`.
    fn step(&mut self, step: Step, per_node_mirror: bool) {
        let now = self.now;
        match step {
            Step::Advance { dt_ns } => self.run_until(now + SimDuration::from_nanos(dt_ns)),
            Step::Offer {
                node,
                peer,
                bytes,
                rate,
            } => {
                if self.world.can_accept(NodeId(node)) {
                    self.handle += 1;
                    let frame = Frame {
                        src: NodeId(node),
                        dst: NodeId(peer),
                        msdu_bytes: bytes,
                        rate,
                        handle: self.handle,
                    };
                    let fx = if self.reuse {
                        let mut fx = self.buffer();
                        let offered = self.world.offer_frame_into(now, frame, &mut fx);
                        offered.expect("MAC was free");
                        fx
                    } else {
                        self.world.offer_frame(now, frame).expect("MAC was free")
                    };
                    self.apply(fx);
                }
            }
            Step::Defer { node, dt_ns } => {
                let until = now + SimDuration::from_nanos(dt_ns);
                let mut fx = self.buffer();
                self.world.set_defer(now, NodeId(node), until, &mut fx);
                self.apply(fx);
            }
            Step::Mirror { dt_ns } => {
                let until = now + SimDuration::from_nanos(dt_ns);
                if per_node_mirror {
                    for node in 0..self.world.station_count() {
                        let mut fx = self.buffer();
                        self.world.set_defer(now, NodeId(node), until, &mut fx);
                        self.apply(fx);
                    }
                } else {
                    let mut fx = self.buffer();
                    self.world.defer_medium(now, until, &mut fx);
                    self.apply(fx);
                }
            }
        }
    }
}

fn random_step(rng: &mut SimRng, n: usize) -> Step {
    let node = rng.below(n as u64) as usize;
    match rng.below(10) {
        0..=3 => Step::Advance {
            dt_ns: rng.below(3_000_000),
        },
        4..=6 => Step::Offer {
            node,
            // The AP sends to a client; a client sends to the AP.
            peer: if node == 0 {
                rng.range_inclusive(1, n as u64 - 1) as usize
            } else {
                0
            },
            bytes: rng.range_inclusive(40, 1500),
            rate: DataRate::ALL_B[rng.below(4) as usize],
        },
        7 => Step::Defer {
            node,
            dt_ns: rng.below(8_000_000),
        },
        _ => Step::Mirror {
            dt_ns: rng.below(4_000_000),
        },
    }
}

/// Cells of 2–6 nodes driven to a random state (pending frames,
/// carried backoffs, a running or idle countdown, a busy or idle
/// medium, client-cooperation defers on some nodes), then through
/// co-channel windows: `defer_medium` must leave exactly the run that
/// `set_defer` on every node in index order leaves — same attempts,
/// deliveries, backoff draws, ledger slices and statistics.
#[test]
fn defer_medium_matches_a_per_node_defer_loop() {
    let mut gen = SimRng::new(0xDEF3);
    let mut cov = MirrorCoverage::default();
    for case in 0..400 {
        let n = gen.range_inclusive(2, 6) as usize;
        let fer: Vec<f64> = (1..n).map(|_| gen.unit() * 0.3).collect();
        let rts = gen.chance(0.3);
        let seed = gen.below(1 << 32);
        let script: Vec<Step> = (0..gen.range_inclusive(10, 80))
            .map(|_| random_step(&mut gen, n))
            .collect();
        let mut medium = Rig::new(n, &fer, rts, seed);
        let mut per_node = Rig::new(n, &fer, rts, seed);
        // Tracked client-cooperation deferrals, for the coverage census.
        let mut coop = vec![SimTime::ZERO; n];
        let mut window: Option<SimTime> = None;
        for &step in &script {
            let now = medium.now;
            match step {
                Step::Defer { node, dt_ns } => {
                    let until = now + SimDuration::from_nanos(dt_ns);
                    coop[node] = coop[node].max(until);
                    if window.is_some_and(|w| now < w && until > w) {
                        cov.coop_outlasts += 1;
                    }
                }
                Step::Mirror { dt_ns } if dt_ns > 0 => {
                    let until = now + SimDuration::from_nanos(dt_ns);
                    match window.filter(|&w| now < w) {
                        Some(w) if until > w => cov.extended += 1,
                        Some(_) => {}
                        None => {
                            let w = &medium.world;
                            let contending: Vec<usize> = (0..n)
                                .filter(|&i| !w.can_accept(NodeId(i)) && coop[i] <= now)
                                .collect();
                            if w.busy_until().is_some_and(|t| now < t) {
                                cov.medium_busy += 1;
                            } else if contending == [0] {
                                cov.ap_only += 1;
                            } else if contending.iter().any(|&i| i != 0) {
                                cov.client_contending += 1;
                            }
                            if coop.iter().any(|&c| c > until) {
                                cov.coop_outlasts += 1;
                            }
                        }
                    }
                    window = window.max(Some(until));
                }
                _ => {}
            }
            medium.step(step, false);
            per_node.step(step, true);
        }
        let end = medium.now + SimDuration::from_millis(40);
        medium.run_until(end);
        per_node.run_until(end);
        assert_eq!(
            medium.trace, per_node.trace,
            "case {case}: effects diverged"
        );
        assert_eq!(medium.world.stats(), per_node.world.stats(), "case {case}");
        assert_eq!(
            medium.world.busy_until(),
            per_node.world.busy_until(),
            "case {case}"
        );
        assert_eq!(
            medium.world.drain_airtime_tail(end),
            per_node.world.drain_airtime_tail(end),
            "case {case}: ledger tails diverged"
        );
        for i in 0..n {
            let node = NodeId(i);
            assert_eq!(
                medium.world.occupancy(node),
                per_node.world.occupancy(node),
                "case {case}"
            );
            assert_eq!(
                medium.world.can_accept(node),
                per_node.world.can_accept(node),
                "case {case}"
            );
        }
    }
    // Every branch of the mirror must have been exercised.
    for (name, hits) in [
        ("AP-only contender", cov.ap_only),
        ("client contending", cov.client_contending),
        ("local medium busy", cov.medium_busy),
        ("extended window", cov.extended),
        ("cooperation defer outlasting the window", cov.coop_outlasts),
    ] {
        assert!(hits >= 10, "only {hits} mirrors hit the {name} case");
    }
}

/// Two worlds from one seed run the same random script, one through
/// the `Vec` forms (`handle`, `offer_frame`) and one through the buffer
/// entry points (`handle_into`, `offer_frame_into`) with a single
/// buffer handed to every call: the effect streams, `Schedule`s
/// included, must be identical, and the reused buffer must come back
/// empty before each call (`Rig::buffer` asserts it).
#[test]
fn buffer_entry_points_match_the_vec_forms() {
    let mut gen = SimRng::new(0xB0FF);
    for case in 0..100 {
        let n = gen.range_inclusive(2, 12) as usize;
        let fer: Vec<f64> = (1..n).map(|_| gen.unit() * 0.3).collect();
        let (rts, seed) = (gen.chance(0.3), gen.below(1 << 32));
        let mut fresh = Rig::new(n, &fer, rts, seed);
        let mut reused = Rig::new(n, &fer, rts, seed);
        reused.reuse = true;
        for _ in 0..gen.range_inclusive(20, 150) {
            let step = random_step(&mut gen, n);
            fresh.step(step, false);
            reused.step(step, false);
        }
        let end = fresh.now + SimDuration::from_millis(40);
        fresh.run_until(end);
        reused.run_until(end);
        assert!(!fresh.stream.is_empty(), "case {case}: nothing happened");
        assert_eq!(fresh.stream, reused.stream, "case {case}: effects diverged");
        assert_eq!(fresh.world.stats(), reused.world.stats(), "case {case}");
        assert!(reused.buf.capacity() > 0, "case {case}: buffer not reused");
    }
}

/// Random offer / `set_defer` / `defer_medium` / advance scripts on
/// cells of up to 40 nodes. Debug builds check the contender list
/// against a full per-station scan after every public call, so these
/// scripts drive that check through every transition. One transition
/// is forced often: a backlogged station held exactly until the frame
/// on the air ends, so its `DeferExpired` falls due on the same instant
/// as the `TxEnd` and is delivered after it. At that `TxEnd` the
/// station's deferral has lapsed but its timer has not fired, and it
/// must contend.
#[test]
fn contender_list_tracks_random_scripts() {
    let mut gen = SimRng::new(0xC0_57);
    let mut same_instant = 0;
    for case in 0..150 {
        let n = gen.range_inclusive(2, 40) as usize;
        let fer: Vec<f64> = (1..n).map(|_| gen.unit() * 0.3).collect();
        let mut rig = Rig::new(n, &fer, gen.chance(0.3), gen.below(1 << 32));
        for _ in 0..gen.range_inclusive(20, 150) {
            let on_air = rig.world.busy_until().filter(|&t| t > rig.now);
            if let Some(end) = on_air.filter(|_| gen.chance(0.3)) {
                let node = NodeId(gen.below(n as u64) as usize);
                if !rig.world.can_accept(node) {
                    same_instant += 1;
                }
                let mut fx = rig.buffer();
                rig.world.set_defer(rig.now, node, end, &mut fx);
                rig.apply(fx);
            } else {
                rig.step(random_step(&mut gen, n), false);
            }
        }
        let end = rig.now + SimDuration::from_millis(40);
        rig.run_until(end);
        let stats = rig.world.stats();
        assert!(
            stats.delivered + stats.dropped <= stats.attempts,
            "case {case}: {stats:?}"
        );
    }
    assert!(
        same_instant >= 100,
        "only {same_instant} deferrals of a backlogged station ended with a TxEnd"
    );
}
