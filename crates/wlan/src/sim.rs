//! The experiment engine: event loop gluing MAC, transport and the AP
//! scheduler together.
//!
//! Topology (the paper's testbed): every client station exchanges
//! packets with wired hosts through the AP. Uplink data crosses the air
//! then the wired backbone; the returning acks cross the backbone and
//! then *queue at the AP* — which is exactly where TBR regulates them,
//! throttling uplink TCP without touching the clients (§4.1).
//!
//! ```text
//!  client ── DCF air ── AP ══ wired (delay) ══ host
//!                       │
//!                [Scheduler: any airtime-sched family]
//! ```
//!
//! # The dirty work-lists
//!
//! After every dispatch the engine pumps traffic sources into their
//! queues and kicks idle MACs. It does not scan every flow and every
//! client node for that: two `IndexSet`s hold the flows and the client
//! nodes whose state changed since they were last visited, and each
//! pass visits only those. The result must equal a scan of all of
//! them, so a pass drains its set in ascending index order. A member
//! marked above the cursor mid-pass is visited in the same pass; one
//! marked at or below it waits for the next step, where a full scan
//! would also reach it. A flow or node left unmarked is one whose pump
//! or kick would be a no-op.
//!
//! A flow is marked by:
//! - a `StartFlow` or `Pump` event;
//! - a due `RtoFired` or `DelAckFired` (the queue pops only a timer's
//!   latest arm, see the timers section below);
//! - a TCP ack, TCP data or UDP datagram handed to it (`on_arrival`);
//! - `rebuild_flow` (a fresh incarnation at association).
//!
//! A pop from a station's client queue pumps every flow of that station
//! at once, in the kick that popped it, so the queue is refilled in the
//! same step.
//!
//! Some flows are *sticky*: they re-mark themselves after each pump,
//! so they are polled after every dispatch:
//! - a flow whose pump ended on a timed wake (its rate limiter or pacer
//!   holds the next packet back);
//! - a started UDP downlink, which is blocked only by the AP queue.
//!   That queue is shared, may drop early (RED), and other flows change
//!   it.
//!
//! A client node is marked by a push into its interface queue (an
//! uplink pump or a TCP ack from a downlink receiver) and by the
//! `TxFinal` of a frame it sent, which frees its MAC. The AP is kicked,
//! and the scheduler wake checked, after every dispatch.
//!
//! # Timers
//!
//! Re-armable timers are event-queue deadlines ([`EventQueue::arm`]):
//! each flow's retransmission timer and delayed-ACK timer, the MAC's
//! next contention point (each `AccessResolved` the MAC asks for
//! supersedes the previous one) and the AP scheduler's wake-up. A deadline keeps one queue entry
//! however often it is re-armed and pops only its latest arm, at the
//! armed instant. So a TCP ack that pushes the retransmission timer
//! out costs a slot update, not a queued event that later pops and is
//! ignored. A handoff disarms the departing incarnation's timers.
//!
//! The AP is consulted after every dispatch. While nothing is eligible
//! its wake-up stays armed at the scheduler's `next_wake`, the exact
//! instant something may next become eligible. A TBR AP holding a
//! backlog it has no tokens for thus releases it at its own release
//! instant, whatever other events are dispatched around it.
//!
//! # Effect buffers
//!
//! The MAC and TCP endpoints append their effects to a `Vec` the caller
//! passes in. The engine owns one such buffer per effect type (`mac_fx`,
//! `tx_fx`, `rx_fx`): a batch takes it with `std::mem::take`, and the
//! `apply_*_effects` pass that drains it puts it back empty, so the
//! steady state allocates nothing per dispatch. A batch nested inside
//! another of its type (client cooperation's `set_defer` inside a
//! `TxFinal`) finds the slot empty and grows a fresh `Vec`, which the
//! outer batch's buffer then replaces.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;

use airtime_core::{ClientId, EnqueueOutcome, QueuedPacket};
use airtime_mac::{
    DcfConfig, DcfWorld, Frame, FrameOutcome, MacEffect, MacEvent, NodeId, SliceKind,
};
use airtime_net::{
    FlowId, Packet, PacketKind, RateLimiter, ReceiverEffect, SenderEffect, TcpReceiver, TcpSender,
    UdpConfig, UdpSource,
};
use airtime_obs::{
    AirtimeCategory, CounterId, EventRecord, GaugeId, HistId, Hook, HookSet, MacPhase,
    MetricsRegistry, NullObserver, Observer, QueueSite, RunPhase, TcpPhase, TokenCause,
};
use airtime_phy::{Arf, DataRate, LinkErrorModel};
use airtime_sched::Scheduler;
use airtime_sim::{EventQueue, Histogram, RateMeter, SimDuration, SimRng, SimTime};

use crate::config::{
    Direction, FlowSpec, LinkSpec, NetworkConfig, Regulate, SchedulerKind, Transport,
};
use crate::report::{FlowReport, NodeReport, Report};

const AP: NodeId = NodeId(0);

/// Event-queue deadline key of the MAC's next contention point.
const ACCESS_DEADLINE: usize = 0;

/// Deadline key of the AP scheduler's wake-up.
const SCHED_DEADLINE: usize = 1;

/// Deadline key of `flow`'s retransmission timer.
fn rto_deadline(flow: usize) -> usize {
    2 + 2 * flow
}

/// Deadline key of `flow`'s delayed-ACK timer.
fn delack_deadline(flow: usize) -> usize {
    3 + 2 * flow
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Mac(MacEvent),
    /// A packet finished crossing the wire towards the AP.
    WiredToAp(Packet),
    /// A packet finished crossing the wire towards its wired host.
    WiredToHost(Packet),
    /// A flow's retransmission timer, armed as its deadline
    /// ([`rto_deadline`]): only the latest arm pops.
    RtoFired {
        flow: usize,
        generation: u64,
    },
    /// A flow's delayed-ACK timer ([`delack_deadline`]).
    DelAckFired {
        flow: usize,
        generation: u64,
    },
    /// The AP scheduler's wake-up, armed as [`SCHED_DEADLINE`].
    SchedTick,
    Pump {
        flow: usize,
    },
    StartFlow {
        flow: usize,
    },
    WarmupDone,
}

struct FlowRt {
    station: usize,
    transport: Transport,
    direction: Direction,
    start: SimTime,
    started: bool,
    tcp_tx: Option<TcpSender>,
    tcp_rx: Option<TcpReceiver>,
    udp: Option<UdpSource>,
    meter: RateMeter,
    metered_bytes: u64,
    completion: Option<SimDuration>,
    /// Queueing + air latency of delivered data packets, milliseconds;
    /// allocated on the first measured delivery.
    latency: Option<Histogram>,
    /// Guards against scheduling redundant Pump events.
    pump_pending: bool,
}

/// A fixed-capacity set of indices, a `u64` bitset drained in
/// ascending order. A pass calls [`IndexSet::take_from`] with a cursor
/// just past the last index it visited, so members inserted above the
/// cursor mid-pass are visited in the same pass and members inserted
/// at or below it stay for the next one.
struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    fn new(capacity: usize) -> Self {
        IndexSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes and returns the smallest member at or above `from`.
    fn take_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        let bit = bits.trailing_zeros();
        self.words[w] &= !(1 << bit);
        Some(w * 64 + bit as usize)
    }
}

/// Lifecycle of one MAC-level frame, tracked from queue entry to the
/// MAC's final verdict and emitted as an [`EventRecord::FrameSpan`].
/// Only populated when the observer wants frame spans.
struct SpanTrack {
    station: u64,
    bytes: u64,
    enqueue: SimTime,
    release: SimTime,
    first_tx: Option<SimTime>,
    attempts: u64,
}

/// How often the metrics registry snapshots its counters and gauges
/// into the exported time-series.
const METRICS_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Metric handles plus snapshot state, present only when the caller
/// supplied a [`MetricsRegistry`].
struct Instr<'m> {
    reg: &'m mut MetricsRegistry,
    next_snapshot: SimTime,
    // Counters mirrored from cumulative simulator state at snapshots.
    attempts: CounterId,
    collisions: CounterId,
    retries: CounterId,
    delivered: CounterId,
    dropped: CounterId,
    sched_drops: CounterId,
    events: CounterId,
    tcp_retransmits: CounterId,
    tcp_timeouts: CounterId,
    queue_len: GaugeId,
    queue_high_water: GaugeId,
    // Per-station airtime shares, indexed by station.
    shares: Vec<GaugeId>,
    // Per-scheduler-key TBR token balances (empty for non-TBR runs).
    tokens: Vec<GaugeId>,
    attempt_airtime: HistId,
    /// Event-queue depth sampled at every dispatch.
    queue_depth: HistId,
}

struct Sim<'c, O: Observer> {
    cfg: &'c NetworkConfig,
    obs: &'c mut O,
    /// The hooks `obs` wants, read once at construction.
    hooks: HookSet,
    instr: Option<Instr<'c>>,
    now: SimTime,
    queue: EventQueue<Event>,
    mac: DcfWorld,
    /// The pluggable AP discipline (any `airtime-sched` family).
    sched: Box<dyn Scheduler>,
    flows: Vec<FlowRt>,
    /// Flows are built station-major: station `s` owns flows
    /// `station_flows[s]..station_flows[s + 1]`.
    station_flows: Vec<usize>,
    /// Flows to pump after the next dispatch (see the module docs).
    dirty_flows: IndexSet,
    /// Client nodes to kick after the next dispatch.
    dirty_nodes: IndexSet,
    /// Per-station uplink interface queues (packet, arrival time).
    client_q: Vec<VecDeque<(Packet, SimTime)>>,
    arf: Vec<Option<Arf>>,
    fixed_rate: Vec<DataRate>,
    /// Frame handle → (packet, time it entered the AP/client queue),
    /// for frames in the MAC or AP queues.
    in_transit: HashMap<u64, (Packet, SimTime)>,
    /// Per node, the lifecycle span of the frame its MAC holds, from
    /// `offer_frame` to TxFinal. A MAC holds at most one frame, so one
    /// slot per node is enough. No slots unless the observer wants
    /// frame spans.
    spans: Vec<Option<SpanTrack>>,
    next_handle: u64,
    occupancy_at_warmup: Vec<SimDuration>,
    busy_at_warmup: SimDuration,
    /// EWMA of observed downlink attempt-failure rate per node (the
    /// §4.2 loss estimator's input).
    fer_est: Vec<f64>,
    /// One reused buffer per effect type (see the module docs).
    mac_fx: Vec<MacEffect>,
    tx_fx: Vec<SenderEffect>,
    rx_fx: Vec<ReceiverEffect>,
}

/// Runs one experiment to completion.
///
/// # Panics
///
/// Panics with the validator's message when
/// [`NetworkConfig::validate`] rejects `cfg`.
pub fn run(cfg: &NetworkConfig) -> Report {
    run_observed(cfg, &mut NullObserver)
}

/// Like [`run`], but streams structured events into `obs`. With a
/// [`NullObserver`] this is exactly [`run`] (the hooks monomorphise
/// away and the RNG stream is untouched either way).
///
/// The caller owns the observer's lifecycle: call `obs.finish()`
/// afterwards to flush buffers and surface any write error.
///
/// # Panics
///
/// Same as [`run`].
pub fn run_observed<O: Observer>(cfg: &NetworkConfig, obs: &mut O) -> Report {
    run_instrumented(cfg, obs, None)
}

/// Full instrumentation: events into `obs` and, when `metrics` is
/// given, counters/gauges/histograms snapshotted every 100 ms of
/// simulated time. Every recorded value is simulated state, so a
/// registry repeats exactly for a fixed config. Observers and metrics
/// never touch the RNG or simulation state, so the report is
/// byte-identical to [`run`]'s.
///
/// # Panics
///
/// Same as [`run`].
pub fn run_instrumented<O: Observer>(
    cfg: &NetworkConfig,
    obs: &mut O,
    metrics: Option<&mut MetricsRegistry>,
) -> Report {
    let mut sim = Sim::new(cfg, obs, metrics, None);
    let end = SimTime::ZERO + cfg.duration;
    // Peek before popping: an event beyond `end` stays in the queue, so
    // `events_processed` counts exactly the dispatched events and the
    // queue-depth accounting agrees with it.
    while sim.queue.peek_time().is_some_and(|t| t <= end) {
        sim.step();
    }
    sim.finish(end);
    sim.finish_instr();
    sim.report()
}

/// Static label of an event type, as returned by
/// [`CellSim::step_labeled`].
fn event_label(ev: &Event) -> &'static str {
    match ev {
        Event::Mac(MacEvent::AccessResolved { .. }) => "mac.access_resolved",
        Event::Mac(MacEvent::TxEnd) => "mac.tx_end",
        Event::Mac(MacEvent::DeferExpired { .. }) => "mac.defer_expired",
        Event::Mac(MacEvent::MediumDeferExpired) => "mac.medium_defer_expired",
        Event::WiredToAp(_) => "wired_to_ap",
        Event::WiredToHost(_) => "wired_to_host",
        Event::RtoFired { .. } => "tcp.rto",
        Event::DelAckFired { .. } => "tcp.delack",
        Event::SchedTick => "sched.tick",
        Event::Pump { .. } => "pump",
        Event::StartFlow { .. } => "start_flow",
        Event::WarmupDone => "warmup_done",
    }
}

impl<'c, O: Observer> Sim<'c, O> {
    /// Builds the engine with its warm-up mark and the flow starts of
    /// every station active at t = 0 (all of them when `active` is
    /// `None`) already queued.
    fn new(
        cfg: &'c NetworkConfig,
        obs: &'c mut O,
        metrics: Option<&'c mut MetricsRegistry>,
        active: Option<&[bool]>,
    ) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = cfg.stations.len();
        let mut links = vec![LinkErrorModel::Perfect; n + 1];
        let mut arf = vec![None; n + 1];
        let mut fixed_rate = vec![DataRate::B11; n + 1];
        for (i, st) in cfg.stations.iter().enumerate() {
            let node = i + 1;
            match &st.link {
                LinkSpec::Fixed { rate, fer } => {
                    links[node] = LinkErrorModel::FixedFer(*fer);
                    fixed_rate[node] = *rate;
                }
                LinkSpec::Path {
                    distance_ft,
                    walls,
                    shadow_db,
                    initial_rate,
                } => {
                    links[node] = cfg.path_loss.link(
                        airtime_phy::pathloss::feet_to_metres(*distance_ft),
                        walls,
                        *shadow_db,
                    );
                    arf[node] = Some(Arf::new(cfg.arf, *initial_rate, SimTime::ZERO));
                }
            }
        }
        let rng = SimRng::new(cfg.seed);
        let mut mac = DcfWorld::new(
            DcfConfig {
                phy: cfg.phy,
                ap: AP,
                retry_rate_fallback: cfg.retry_rate_fallback,
                rts_threshold: cfg.rts_threshold,
            },
            links,
            rng.substream(1),
        );
        // Backoff draws happen either way; these only control whether
        // the MAC reports them as effects — neither touches the RNG.
        let hooks = HookSet::of(&*obs);
        mac.set_emit_backoff(hooks.has(Hook::Backoff));
        mac.set_emit_airtime(hooks.has(Hook::AirtimeSlice));
        let mut sched: Box<dyn Scheduler> = cfg.scheduler.build();
        // Build flow runtimes.
        let warmup_end = SimTime::ZERO + cfg.warmup;
        let mut flows = Vec::new();
        let mut station_flows = Vec::with_capacity(n + 1);
        for (i, st) in cfg.stations.iter().enumerate() {
            station_flows.push(flows.len());
            for spec in &st.flows {
                let (tcp_tx, tcp_rx, udp) = transport_for(FlowId(flows.len()), spec, cfg);
                flows.push(FlowRt {
                    station: i,
                    transport: spec.transport,
                    direction: spec.direction,
                    start: spec.start,
                    started: false,
                    tcp_tx,
                    tcp_rx,
                    udp,
                    meter: RateMeter::new(warmup_end),
                    metered_bytes: 0,
                    completion: None,
                    latency: None,
                    pump_pending: false,
                });
            }
        }
        station_flows.push(flows.len());
        // A topology driver may start some stations unassociated (they
        // roam in later); single-cell runs associate everyone at t=0.
        let is_active = |st: usize| active.is_none_or(|m| m[st]);
        match cfg.regulate {
            Regulate::PerStation => {
                for i in 0..n {
                    if is_active(i) {
                        sched.on_associate_weighted(
                            ClientId(i),
                            cfg.stations[i].weight,
                            SimTime::ZERO,
                        );
                    }
                }
            }
            Regulate::PerFlow => {
                for (f, rt) in flows.iter().enumerate() {
                    if is_active(rt.station) {
                        let weight = cfg.stations[rt.station].weight;
                        sched.on_associate_weighted(ClientId(f), weight, SimTime::ZERO);
                    }
                }
            }
        }
        let key_count = match cfg.regulate {
            Regulate::PerStation => n,
            Regulate::PerFlow => flows.len(),
        };
        let is_tbr = matches!(cfg.scheduler, SchedulerKind::Tbr(_));
        let instr = metrics.map(|reg| {
            reg.set_meta("seed", &cfg.seed.to_string());
            reg.set_meta("scheduler", &format!("{:?}", cfg.scheduler));
            reg.set_meta("stations", &n.to_string());
            reg.set_meta("duration_s", &format!("{}", cfg.duration.as_secs_f64()));
            let shares = (0..n)
                .map(|s| reg.gauge(&format!("station.{s}.airtime_share")))
                .collect();
            let tokens = if is_tbr {
                (0..key_count)
                    .map(|k| reg.gauge(&format!("tbr.{k}.tokens_us")))
                    .collect()
            } else {
                Vec::new()
            };
            Instr {
                next_snapshot: SimTime::ZERO + METRICS_PERIOD,
                attempts: reg.counter("mac.attempts"),
                collisions: reg.counter("mac.collisions"),
                retries: reg.counter("mac.retries"),
                delivered: reg.counter("mac.delivered"),
                dropped: reg.counter("mac.dropped"),
                sched_drops: reg.counter("sched.drops"),
                events: reg.counter("sim.events"),
                tcp_retransmits: reg.counter("tcp.retransmits"),
                tcp_timeouts: reg.counter("tcp.timeouts"),
                queue_len: reg.gauge("sim.queue_len"),
                queue_high_water: reg.gauge("sim.queue_high_water"),
                shares,
                tokens,
                attempt_airtime: reg.histogram("mac.attempt_airtime_us", 0.0, 20_000.0, 100),
                queue_depth: reg.histogram("sim.queue_depth", 0.0, 512.0, 128),
                reg,
            }
        });
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO + cfg.warmup, Event::WarmupDone);
        for (f, rt) in flows.iter().enumerate() {
            if is_active(rt.station) {
                queue.schedule(rt.start, Event::StartFlow { flow: f });
            }
        }
        Sim {
            cfg,
            obs,
            hooks,
            instr,
            now: SimTime::ZERO,
            queue,
            mac,
            sched,
            dirty_flows: IndexSet::new(flows.len()),
            dirty_nodes: IndexSet::new(n + 1),
            flows,
            station_flows,
            client_q: vec![VecDeque::new(); n + 1],
            arf,
            fixed_rate,
            in_transit: HashMap::new(),
            spans: if hooks.has(Hook::FrameSpan) {
                (0..=n).map(|_| None).collect()
            } else {
                Vec::new()
            },
            next_handle: 0,
            occupancy_at_warmup: vec![SimDuration::ZERO; n + 1],
            busy_at_warmup: SimDuration::ZERO,
            fer_est: vec![0.0; n + 1],
            mac_fx: Vec::new(),
            tx_fx: Vec::new(),
            rx_fx: Vec::new(),
        }
    }

    /// Dispatches the earliest pending event, then runs the glue every
    /// dispatch is followed by; `None` when the queue is drained.
    fn step(&mut self) -> Option<(SimTime, &'static str)> {
        let (t, ev) = self.queue.pop()?;
        self.now = t;
        let label = event_label(&ev);
        if self.wants(Hook::Dispatch) {
            self.obs.on_dispatch(t, self.queue.last_seq(), label);
        }
        if let Some(instr) = self.instr.as_mut() {
            instr
                .reg
                .observe(instr.queue_depth, self.queue.len() as f64);
        }
        self.dispatch(ev);
        self.pump_dirty();
        self.kick();
        self.ensure_sched_wake();
        self.advance_instr();
        Some((t, label))
    }

    /// Closes the run at `end`. Brings the scheduler's periodic state up
    /// to the boundary, so reported rates never depend on whether the
    /// trailing idle stretch carried a wake-up, and closes the airtime
    /// timeline.
    fn finish(&mut self, end: SimTime) {
        self.now = end;
        self.sched.on_tick(end);
        self.finish_airtime(end);
    }

    /// The scheduler key a packet of `flow` is regulated under.
    fn reg_key(&self, flow: usize) -> ClientId {
        match self.cfg.regulate {
            Regulate::PerStation => ClientId(self.flows[flow].station),
            Regulate::PerFlow => ClientId(flow),
        }
    }

    /// The flows `station` owns.
    fn flows_of(&self, station: usize) -> Range<usize> {
        self.station_flows[station]..self.station_flows[station + 1]
    }

    /// The station index behind a scheduler key.
    fn station_of_key(&self, key: ClientId) -> usize {
        match self.cfg.regulate {
            Regulate::PerStation => key.index(),
            Regulate::PerFlow => self.flows[key.index()].station,
        }
    }

    fn rate_of(&self, node: usize) -> DataRate {
        match &self.arf[node] {
            Some(a) => a.current_rate(),
            None => self.fixed_rate[node],
        }
    }

    fn new_handle(&mut self, pkt: Packet, born: SimTime) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        self.in_transit.insert(h, (pkt, born));
        h
    }

    /// Number of scheduler keys (stations or flows, per `cfg.regulate`).
    fn key_count(&self) -> usize {
        match self.cfg.regulate {
            Regulate::PerStation => self.cfg.stations.len(),
            Regulate::PerFlow => self.flows.len(),
        }
    }

    // -- instrumentation -------------------------------------------------
    //
    // Everything below reads simulator state but never mutates it (and
    // never touches the RNG), so instrumented runs follow exactly the
    // same trajectory as plain ones.

    /// Takes any due metric snapshots.
    fn advance_instr(&mut self) {
        let now = self.now;
        while self.instr.as_ref().is_some_and(|i| now >= i.next_snapshot) {
            let at = self.instr.as_ref().unwrap().next_snapshot;
            self.mirror_metrics();
            let instr = self.instr.as_mut().unwrap();
            instr.reg.snapshot(at);
            instr.next_snapshot = at + METRICS_PERIOD;
        }
    }

    /// Copies cumulative simulator state into the registry's counters
    /// and gauges.
    fn mirror_metrics(&mut self) {
        if self.instr.is_none() {
            return;
        }
        let stats = self.mac.stats();
        let sched_drops = self.sched.drops();
        let qlen = self.queue.len();
        let qhw = self.queue.high_water();
        let events = self.queue.events_processed();
        let (mut retransmits, mut timeouts) = (0u64, 0u64);
        for f in &self.flows {
            if let Some(tx) = f.tcp_tx.as_ref() {
                let (_, r, t) = tx.stats();
                retransmits += r;
                timeouts += t;
            }
        }
        let n = self.cfg.stations.len();
        // Warm-up airtime is excluded once WarmupDone has latched the
        // baseline, matching the report's occupancy shares.
        let occ: Vec<f64> = (0..n)
            .map(|st| {
                let node = st + 1;
                self.mac
                    .occupancy(NodeId(node))
                    .saturating_sub(self.occupancy_at_warmup[node])
                    .as_secs_f64()
            })
            .collect();
        let occ_total: f64 = occ.iter().sum();
        let token_count = self.instr.as_ref().map_or(0, |i| i.tokens.len());
        let token_vals: Vec<f64> = (0..token_count)
            .map(|k| self.sched.token_balance_ns(ClientId(k)).unwrap_or(0.0) / 1e3)
            .collect();
        let instr = self.instr.as_mut().expect("checked above");
        instr.reg.set_counter(instr.attempts, stats.attempts);
        instr
            .reg
            .set_counter(instr.collisions, stats.collision_events);
        instr.reg.set_counter(instr.retries, stats.retries);
        instr.reg.set_counter(instr.delivered, stats.delivered);
        instr.reg.set_counter(instr.dropped, stats.dropped);
        instr.reg.set_counter(instr.sched_drops, sched_drops);
        instr.reg.set_counter(instr.events, events);
        instr.reg.set_counter(instr.tcp_retransmits, retransmits);
        instr.reg.set_counter(instr.tcp_timeouts, timeouts);
        instr.reg.set(instr.queue_len, qlen as f64);
        instr.reg.set(instr.queue_high_water, qhw as f64);
        for (&id, &o) in instr.shares.iter().zip(&occ) {
            let share = if occ_total > 0.0 { o / occ_total } else { 0.0 };
            instr.reg.set(id, share);
        }
        for (&id, &v) in instr.tokens.iter().zip(&token_vals) {
            instr.reg.set(id, v);
        }
    }

    /// Final snapshot.
    fn finish_instr(&mut self) {
        if self.instr.is_none() {
            return;
        }
        self.mirror_metrics();
        let end = self.now;
        let instr = self.instr.as_mut().expect("checked above");
        instr.reg.snapshot(end);
    }

    /// Emits the airtime timeline's tail — the in-progress cycle (or
    /// trailing idle/contention stretch) clipped at `end` — plus the
    /// end-of-run mark, so that a trace audits on its own: the slices
    /// tile `[0, end]` exactly.
    fn finish_airtime(&mut self, end: SimTime) {
        if self.wants(Hook::AirtimeSlice) {
            let fx = self.mac.drain_airtime_tail(end);
            self.apply_mac_effects(fx);
        }
        if self.wants(Hook::RunMark) {
            self.obs.on_run_mark(EventRecord::RunMark {
                t: end,
                phase: RunPhase::End,
            });
        }
    }

    // -- observer emission helpers ---------------------------------------

    /// Whether the observer reads `hook`: every emission site asks
    /// before building its record. `active()` comes first so that with
    /// a `NullObserver` the whole site folds away.
    #[inline]
    fn wants(&self, hook: Hook) -> bool {
        self.obs.active() && self.hooks.has(hook)
    }

    fn emit_ap_queue(&mut self, key: ClientId) {
        if self.wants(Hook::QueueChange) {
            let len = self.sched.queue_len(key) as u64;
            self.obs.on_queue_change(EventRecord::QueueChange {
                t: self.now,
                site: QueueSite::Ap,
                key: key.index() as u64,
                len,
            });
        }
    }

    fn emit_client_queue(&mut self, node: usize) {
        if self.wants(Hook::QueueChange) {
            self.obs.on_queue_change(EventRecord::QueueChange {
                t: self.now,
                site: QueueSite::Client,
                key: node as u64,
                len: self.client_q[node].len() as u64,
            });
        }
    }

    fn emit_tokens(&mut self, key: ClientId, cause: TokenCause) {
        if self.wants(Hook::TokenUpdate) {
            if let (Some(tokens), Some(rate)) = (
                self.sched.token_balance_ns(key),
                self.sched.token_fill_rate(key),
            ) {
                self.obs.on_token_update(EventRecord::TokenUpdate {
                    t: self.now,
                    client: key.index() as u64,
                    tokens_us: tokens / 1e3,
                    rate,
                    cause,
                });
            }
        }
    }

    fn emit_tcp(&mut self, flow: usize, phase: TcpPhase) {
        if self.wants(Hook::TcpEvent) {
            if let Some(tx) = self.flows[flow].tcp_tx.as_ref() {
                self.obs.on_tcp_event(EventRecord::Tcp {
                    t: self.now,
                    flow: flow as u64,
                    phase,
                    cwnd: tx.cwnd(),
                    flight: tx.flight(),
                });
            }
        }
    }

    // -- event dispatch ------------------------------------------------

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Mac(me) => self.mac_batch(|mac, now, fx| mac.handle_into(now, me, fx)),
            Event::WiredToAp(pkt) => self.on_wired_to_ap(pkt),
            // An uplink flow's TCP receiver (and a downlink flow's TCP
            // sender) lives on the wired host.
            Event::WiredToHost(pkt) => self.on_arrival(pkt),
            Event::RtoFired { flow, generation } => {
                self.dirty_flows.insert(flow);
                let now = self.now;
                let mut fx = std::mem::take(&mut self.tx_fx);
                let fired = match self.flows[flow].tcp_tx.as_mut() {
                    Some(tx) => {
                        let before = tx.stats().2;
                        tx.on_rto_fired(now, generation, &mut fx);
                        tx.stats().2 > before
                    }
                    None => false,
                };
                if fired {
                    self.emit_tcp(flow, TcpPhase::Rto);
                }
                self.apply_sender_effects(flow, fx);
            }
            Event::DelAckFired { flow, generation } => {
                self.dirty_flows.insert(flow);
                let mut fx = std::mem::take(&mut self.rx_fx);
                if let Some(rx) = self.flows[flow].tcp_rx.as_mut() {
                    rx.on_delack_fired_into(generation, &mut fx);
                }
                self.apply_receiver_effects(flow, fx);
            }
            Event::SchedTick => {
                self.sched.on_tick(self.now);
                if self.wants(Hook::TokenUpdate) {
                    for k in 0..self.key_count() {
                        self.emit_tokens(ClientId(k), TokenCause::Fill);
                    }
                }
            }
            Event::Pump { flow } => {
                // The pump pass after this dispatch does the work.
                self.flows[flow].pump_pending = false;
                self.dirty_flows.insert(flow);
            }
            Event::StartFlow { flow } => {
                self.flows[flow].started = true;
                self.dirty_flows.insert(flow);
            }
            Event::WarmupDone => {
                for node in 0..self.client_q.len() {
                    self.occupancy_at_warmup[node] = self.mac.occupancy(NodeId(node));
                }
                self.busy_at_warmup = self.mac.busy_time();
                // In-stream warm-up mark: ledger readers latch their
                // measurement window at exactly the point the report's
                // occupancy baseline is taken.
                if self.wants(Hook::RunMark) {
                    self.obs.on_run_mark(EventRecord::RunMark {
                        t: self.now,
                        phase: RunPhase::Warmup,
                    });
                }
            }
        }
    }

    /// Runs one MAC call at `now` over the reused MAC effect buffer and
    /// applies the effects it appended.
    fn mac_batch(&mut self, call: impl FnOnce(&mut DcfWorld, SimTime, &mut Vec<MacEffect>)) {
        let mut fx = std::mem::take(&mut self.mac_fx);
        call(&mut self.mac, self.now, &mut fx);
        self.apply_mac_effects(fx);
    }

    /// Applies a batch of MAC effects in order, then keeps the emptied
    /// buffer for the next batch.
    fn apply_mac_effects(&mut self, mut effects: Vec<MacEffect>) {
        if self.wants(Hook::Collision) {
            // One collision record per busy period: the MAC reports a
            // colliding attempt for each involved station in the same
            // effects batch.
            let mut stations = 0u64;
            let mut max_air = SimDuration::ZERO;
            for e in &effects {
                if let MacEffect::Attempt {
                    collision: true,
                    airtime,
                    ..
                } = e
                {
                    stations += 1;
                    max_air = max_air.max(*airtime);
                }
            }
            if stations >= 2 {
                self.obs.on_collision(EventRecord::Collision {
                    t: self.now,
                    stations,
                    airtime: max_air,
                });
            }
        }
        for e in effects.drain(..) {
            match e {
                MacEffect::Schedule {
                    at,
                    event: event @ MacEvent::AccessResolved { .. },
                } => {
                    // Each access event supersedes the previous one.
                    self.queue.arm(ACCESS_DEADLINE, at, Event::Mac(event));
                }
                MacEffect::Schedule { at, event } => self.queue.schedule(at, Event::Mac(event)),
                MacEffect::BackoffDrawn { node, slots, cw } => {
                    if self.wants(Hook::Backoff) {
                        self.obs.on_backoff(EventRecord::Backoff {
                            t: self.now,
                            node: node.index() as u64,
                            slots: slots as u64,
                            cw: cw as u64,
                        });
                    }
                }
                MacEffect::AirtimeSlice {
                    start,
                    dur,
                    client,
                    kind,
                } => {
                    if self.wants(Hook::AirtimeSlice) {
                        let category = match kind {
                            SliceKind::DataTx => AirtimeCategory::DataTx,
                            SliceKind::Ack => AirtimeCategory::Ack,
                            SliceKind::MacOverhead => AirtimeCategory::MacOverhead,
                            SliceKind::Backoff => AirtimeCategory::Backoff,
                            SliceKind::Collision => AirtimeCategory::Collision,
                            SliceKind::Idle => AirtimeCategory::Idle,
                        };
                        self.obs.on_airtime_slice(EventRecord::AirtimeSlice {
                            t: self.now,
                            start,
                            dur,
                            station: client as u64,
                            category,
                        });
                    }
                }
                MacEffect::Attempt {
                    frame,
                    success,
                    collision,
                    airtime,
                    retry,
                } => {
                    let node = client_node(&frame);
                    if self.wants(Hook::TxAttempt) {
                        self.obs.on_tx_attempt(EventRecord::TxAttempt {
                            t: self.now,
                            node: frame.src.index() as u64,
                            client: node as u64,
                            bytes: frame.msdu_bytes,
                            rate_mbps: frame.rate.mbps(),
                            success,
                            retry: retry as u64,
                            airtime,
                        });
                    }
                    if let Some(s) = self
                        .spans
                        .get_mut(frame.src.index())
                        .and_then(Option::as_mut)
                    {
                        s.attempts += 1;
                        s.first_tx.get_or_insert(self.now);
                    }
                    if let Some(instr) = self.instr.as_mut() {
                        instr
                            .reg
                            .observe(instr.attempt_airtime, airtime.as_secs_f64() * 1e6);
                    }
                    if frame.src == AP && !collision {
                        // Downlink attempts reveal the link's loss rate
                        // (collisions are contention, not channel loss).
                        let fail = if success { 0.0 } else { 1.0 };
                        self.fer_est[node] = 0.95 * self.fer_est[node] + 0.05 * fail;
                    }
                    if let Some(a) = self.arf[node].as_mut() {
                        if success {
                            a.on_success(self.now);
                        } else {
                            a.on_failure(self.now);
                        }
                    }
                }
                MacEffect::Delivered { frame } => self.on_delivered(frame),
                MacEffect::TxFinal {
                    frame,
                    outcome,
                    airtime_total,
                } => {
                    if self.wants(Hook::MacEvent) {
                        let phase = match outcome {
                            FrameOutcome::Delivered => MacPhase::TxEnd,
                            FrameOutcome::Dropped => MacPhase::Drop,
                        };
                        self.obs.on_mac_event(EventRecord::Mac {
                            t: self.now,
                            phase,
                            node: frame.src.index() as u64,
                        });
                    }
                    if let Some(s) = self.spans.get_mut(frame.src.index()).and_then(Option::take) {
                        self.obs.on_frame_span(EventRecord::FrameSpan {
                            t: self.now,
                            station: s.station,
                            bytes: s.bytes,
                            enqueue: s.enqueue,
                            release: s.release,
                            first_tx: s.first_tx.unwrap_or(s.release),
                            attempts: s.attempts,
                            airtime: airtime_total,
                            delivered: matches!(outcome, FrameOutcome::Delivered),
                        });
                    }
                    self.on_tx_final(frame, outcome, airtime_total)
                }
            }
        }
        self.mac_fx = effects;
    }

    /// A frame reached its destination MAC intact.
    fn on_delivered(&mut self, frame: Frame) {
        let (pkt, born) = match self.in_transit.get(&frame.handle) {
            Some(p) => *p,
            None => return,
        };
        if pkt.is_data() && self.now >= SimTime::ZERO + self.cfg.warmup {
            let ms = self.now.saturating_since(born).as_secs_f64() * 1e3;
            self.flows[pkt.flow.index()]
                .latency
                .get_or_insert_with(|| Histogram::new(0.0, 2_000.0, 400))
                .record(ms);
        }
        if frame.dst == AP {
            // Uplink: forward across the backbone.
            self.queue
                .schedule(self.now + self.cfg.wired_delay, Event::WiredToHost(pkt));
        } else {
            // Downlink: hand to the client-side endpoint.
            self.on_arrival(pkt);
        }
    }

    /// The sender-side MAC finished with a frame (acked or dropped).
    fn on_tx_final(&mut self, frame: Frame, _outcome: FrameOutcome, airtime_total: SimDuration) {
        let pkt = self.in_transit.remove(&frame.handle);
        let node = client_node(&frame);
        let sent_by_ap = frame.src == AP;
        if !sent_by_ap {
            // The client's MAC is free for the next queued frame.
            self.dirty_nodes.insert(node);
        }
        let key = match (self.cfg.regulate, pkt) {
            (Regulate::PerFlow, Some((p, _))) => self.reg_key(p.flow.index()),
            _ => ClientId(node - 1),
        };
        // COMPLETEEVENT: uplink airtime may have to be estimated when
        // the MAC header carries no retry count (§4.2 / §4.4).
        let airtime = if sent_by_ap || self.cfg.uplink_retry_info {
            airtime_total
        } else {
            let base = self.cfg.phy.exchange_time(frame.msdu_bytes, frame.rate);
            if self.cfg.uplink_loss_estimator {
                // §4.2 heuristic: expected attempts ≈ 1/(1−p̂) under
                // geometric retransmission with the link's estimated
                // loss rate.
                let p = self.fer_est[node].min(0.9);
                base.mul_f64(1.0 / (1.0 - p))
            } else {
                base
            }
        };
        self.sched.on_complete(key, airtime, sent_by_ap, self.now);
        self.emit_tokens(key, TokenCause::Debit);
        // Optional §4.1 client cooperation: a client with a negative
        // balance is told (via the piggybacked notification bit) to
        // defer for the time its deficit takes to refill.
        if self.cfg.client_cooperation && !sent_by_ap {
            if let (Some(tokens), Some(rate)) = (
                self.sched.token_balance_ns(key),
                self.sched.token_fill_rate(key),
            ) {
                if tokens < 0.0 && rate > 0.0 {
                    let wait_ns = (-tokens / rate) as u64;
                    let until = self.now + SimDuration::from_nanos(wait_ns);
                    self.mac_batch(|mac, now, fx| mac.set_defer(now, NodeId(node), until, fx));
                }
            }
        }
    }

    fn on_wired_to_ap(&mut self, pkt: Packet) {
        // Queue at the AP for its destination client (APPTXEVENT).
        let key = self.reg_key(pkt.flow.index());
        let handle = self.new_handle(pkt, self.now);
        let q = QueuedPacket {
            client: key,
            handle,
            bytes: pkt.bytes,
        };
        if self.sched.enqueue(q, self.now) == EnqueueOutcome::Dropped {
            self.in_transit.remove(&handle);
        } else {
            self.emit_ap_queue(key);
        }
    }

    /// Hands `pkt` to the endpoint of its flow at the end it reached.
    fn on_arrival(&mut self, pkt: Packet) {
        let flow = pkt.flow.index();
        self.dirty_flows.insert(flow);
        let now = self.now;
        match pkt.kind {
            PacketKind::TcpData { seq } => {
                let mut fx = std::mem::take(&mut self.rx_fx);
                if let Some(rx) = self.flows[flow].tcp_rx.as_mut() {
                    rx.on_data_into(now, seq, &mut fx);
                }
                self.meter_tcp_goodput(flow);
                self.apply_receiver_effects(flow, fx);
            }
            PacketKind::TcpAck { ack_seq } => {
                let mut fx = std::mem::take(&mut self.tx_fx);
                if let Some(tx) = self.flows[flow].tcp_tx.as_mut() {
                    tx.on_ack(now, ack_seq, &mut fx);
                }
                self.emit_tcp(flow, TcpPhase::Ack);
                self.apply_sender_effects(flow, fx);
            }
            PacketKind::UdpData { .. } => self.flows[flow].meter.record(now, pkt.bytes),
        }
    }

    fn meter_tcp_goodput(&mut self, flow: usize) {
        let now = self.now;
        let f = &mut self.flows[flow];
        if let Some(rx) = f.tcp_rx.as_ref() {
            let total = rx.goodput_bytes();
            let delta = total.saturating_sub(f.metered_bytes);
            if delta > 0 {
                f.metered_bytes = total;
                f.meter.record(now, delta);
            }
        }
    }

    fn apply_sender_effects(&mut self, flow: usize, mut effects: Vec<SenderEffect>) {
        for e in effects.drain(..) {
            match e {
                SenderEffect::ArmRto { at, generation } => {
                    self.queue
                        .arm(rto_deadline(flow), at, Event::RtoFired { flow, generation });
                }
                SenderEffect::Complete => {
                    let started = self.flows[flow].start;
                    self.flows[flow].completion = Some(self.now.saturating_since(started));
                    self.emit_tcp(flow, TcpPhase::Done);
                }
            }
        }
        self.tx_fx = effects;
    }

    fn apply_receiver_effects(&mut self, flow: usize, mut effects: Vec<ReceiverEffect>) {
        for e in effects.drain(..) {
            match e {
                ReceiverEffect::SendAck { ack_seq } => {
                    let f = &self.flows[flow];
                    let ack = f
                        .tcp_rx
                        .as_ref()
                        .expect("acks only from TCP receivers")
                        .ack_packet(ack_seq);
                    match f.direction {
                        // Downlink data → client-side receiver → ack goes
                        // up over the air.
                        Direction::Downlink => {
                            let node = f.station + 1;
                            if self.client_q[node].len() < self.cfg.client_queue_cap {
                                self.client_q[node].push_back((ack, self.now));
                                self.dirty_nodes.insert(node);
                                self.emit_client_queue(node);
                            }
                        }
                        // Uplink data → host-side receiver → ack crosses
                        // the wire and queues at the AP.
                        Direction::Uplink => {
                            self.queue
                                .schedule(self.now + self.cfg.wired_delay, Event::WiredToAp(ack));
                        }
                    }
                }
                ReceiverEffect::ArmDelAck { at, generation } => {
                    self.queue.arm(
                        delack_deadline(flow),
                        at,
                        Event::DelAckFired { flow, generation },
                    );
                }
            }
        }
        self.rx_fx = effects;
    }

    // -- traffic pumping and MAC feeding --------------------------------

    /// Pumps the dirty flows in ascending order (see the module docs).
    fn pump_dirty(&mut self) {
        let mut from = 0;
        while let Some(flow) = self.dirty_flows.take_from(from) {
            from = flow + 1;
            self.pump(flow);
        }
    }

    fn pump(&mut self, flow: usize) {
        let f = &self.flows[flow];
        if !f.started {
            return;
        }
        let (transport, direction) = (f.transport, f.direction);
        match (transport, direction) {
            (Transport::Tcp, Direction::Uplink) => self.pump_tcp_uplink(flow),
            (Transport::Tcp, Direction::Downlink) => self.pump_tcp_downlink(flow),
            (Transport::Udp, Direction::Uplink) => self.pump_udp_uplink(flow),
            (Transport::Udp, Direction::Downlink) => self.pump_udp_downlink(flow),
        }
        let now = self.now;
        let f = &self.flows[flow];
        let wake = match (&f.tcp_tx, &f.udp) {
            (Some(tx), _) => tx.next_app_ready(now),
            (_, Some(u)) => u.next_ready(now),
            (None, None) => None,
        };
        if let Some(at) = wake {
            self.schedule_pump(flow, at);
        }
        // Sticky flows stay on the work-list (see the module docs).
        if wake.is_some() || (transport, direction) == (Transport::Udp, Direction::Downlink) {
            self.dirty_flows.insert(flow);
        }
    }

    fn schedule_pump(&mut self, flow: usize, at: SimTime) {
        if !self.flows[flow].pump_pending {
            self.flows[flow].pump_pending = true;
            self.queue.schedule(at, Event::Pump { flow });
        }
    }

    fn pump_tcp_uplink(&mut self, flow: usize) {
        let node = self.flows[flow].station + 1;
        let now = self.now;
        let mut fx = std::mem::take(&mut self.tx_fx);
        let mut pushed = false;
        while self.client_q[node].len() < self.cfg.client_queue_cap {
            let pkt = match self.flows[flow].tcp_tx.as_mut() {
                Some(tx) => tx.poll_packet(now, &mut fx),
                None => None,
            };
            match pkt {
                Some(p) => {
                    self.client_q[node].push_back((p, now));
                    pushed = true;
                }
                None => break,
            }
        }
        if pushed {
            self.dirty_nodes.insert(node);
            self.emit_client_queue(node);
        }
        self.apply_sender_effects(flow, fx);
    }

    fn pump_tcp_downlink(&mut self, flow: usize) {
        let now = self.now;
        let mut fx = std::mem::take(&mut self.tx_fx);
        loop {
            let pkt = match self.flows[flow].tcp_tx.as_mut() {
                Some(tx) => tx.poll_packet(now, &mut fx),
                None => None,
            };
            match pkt {
                Some(p) => {
                    self.queue
                        .schedule(now + self.cfg.wired_delay, Event::WiredToAp(p));
                }
                None => break,
            }
        }
        self.apply_sender_effects(flow, fx);
    }

    fn pump_udp_uplink(&mut self, flow: usize) {
        let node = self.flows[flow].station + 1;
        let now = self.now;
        let mut pushed = false;
        while self.client_q[node].len() < self.cfg.client_queue_cap {
            let pkt = match self.flows[flow].udp.as_mut() {
                Some(u) => u.poll_packet(now),
                None => None,
            };
            match pkt {
                Some(p) => {
                    self.client_q[node].push_back((p, now));
                    pushed = true;
                }
                None => break,
            }
        }
        if pushed {
            self.dirty_nodes.insert(node);
            self.emit_client_queue(node);
        }
    }

    fn pump_udp_downlink(&mut self, flow: usize) {
        let key = self.reg_key(flow);
        let now = self.now;
        // Back-pressure: keep the AP queue for this client primed but
        // never blind-feed a full buffer (a saturating source would
        // otherwise generate unbounded work).
        let mut pushed = false;
        while self.sched.queue_len(key) < 40 {
            let pkt = match self.flows[flow].udp.as_mut() {
                Some(u) => u.poll_packet(now),
                None => None,
            };
            match pkt {
                Some(p) => {
                    let handle = self.new_handle(p, now);
                    let q = QueuedPacket {
                        client: key,
                        handle,
                        bytes: p.bytes,
                    };
                    if self.sched.enqueue(q, now) == EnqueueOutcome::Dropped {
                        // Queue full (its cap may be below our priming
                        // level): stop generating until it drains.
                        self.in_transit.remove(&handle);
                        break;
                    }
                    pushed = true;
                }
                None => break,
            }
        }
        if pushed {
            self.emit_ap_queue(key);
        }
    }

    /// Feeds idle MACs: the AP from its scheduler, then the dirty
    /// client nodes from their interface queues in ascending order.
    fn kick(&mut self) {
        // AP: MACTXEVENT — feed one frame whenever the AP MAC is idle.
        if self.mac.can_accept(AP) {
            if let Some(q) = self.sched.dequeue(self.now) {
                if self.wants(Hook::SchedDecision) {
                    self.obs.on_sched_decision(EventRecord::SchedDecision {
                        t: self.now,
                        client: q.client.index() as u64,
                        bytes: q.bytes,
                        queue_len: self.sched.queue_len(q.client) as u64,
                    });
                }
                let station = self.station_of_key(q.client);
                let node = station + 1;
                if self.wants(Hook::FrameSpan) {
                    let enqueue = self
                        .in_transit
                        .get(&q.handle)
                        .map_or(self.now, |&(_, born)| born);
                    self.spans[AP.index()] = Some(SpanTrack {
                        station: node as u64,
                        bytes: q.bytes,
                        enqueue,
                        release: self.now,
                        first_tx: None,
                        attempts: 0,
                    });
                }
                let frame = Frame {
                    src: AP,
                    dst: NodeId(node),
                    msdu_bytes: q.bytes,
                    rate: self.rate_of(node),
                    handle: q.handle,
                };
                self.mac_batch(|mac, now, fx| {
                    mac.offer_frame_into(now, frame, fx)
                        .expect("AP MAC was idle")
                });
            }
        }
        // Clients: head of interface queue.
        let mut from = 0;
        while let Some(node) = self.dirty_nodes.take_from(from) {
            from = node + 1;
            if self.mac.can_accept(NodeId(node)) {
                if let Some((pkt, born)) = self.client_q[node].pop_front() {
                    self.emit_client_queue(node);
                    let handle = self.new_handle(pkt, born);
                    if self.wants(Hook::FrameSpan) {
                        self.spans[node] = Some(SpanTrack {
                            station: node as u64,
                            bytes: pkt.bytes,
                            enqueue: born,
                            release: self.now,
                            first_tx: None,
                            attempts: 0,
                        });
                    }
                    let frame = Frame {
                        src: NodeId(node),
                        dst: AP,
                        msdu_bytes: pkt.bytes,
                        rate: self.rate_of(node),
                        handle,
                    };
                    self.mac_batch(|mac, now, fx| {
                        mac.offer_frame_into(now, frame, fx)
                            .expect("client MAC was idle")
                    });
                    // Room in the queue: the station's uplink pumps may
                    // have more to send, and they refill it in this step.
                    for flow in self.flows_of(node - 1) {
                        self.pump(flow);
                    }
                }
            }
        }
    }

    /// If the scheduler is blocked (nothing eligible, and a wake-up
    /// wanted — a TBR queue waiting on tokens), keeps its deadline
    /// armed at the instant it asks for, so a blocked AP releases at
    /// its own release instant whatever else is dispatched. Runs after
    /// every dispatch; a no-op when the scheduler needs no timer, when
    /// something is eligible, or when the deadline already stands.
    fn ensure_sched_wake(&mut self) {
        if self.sched.tick_period().is_none() || self.sched.has_eligible(self.now) {
            return;
        }
        let Some(at) = self.sched.next_wake(self.now) else {
            return;
        };
        if self.queue.armed(SCHED_DEADLINE) != Some(at) {
            self.queue.arm(SCHED_DEADLINE, at, Event::SchedTick);
        }
    }

    // -- association lifecycle (multi-cell topology support) -------------

    /// Scheduler keys owned by `station` under the configured
    /// regulation granularity.
    fn keys_of_station(&self, station: usize) -> impl Iterator<Item = ClientId> {
        let keys = match self.cfg.regulate {
            Regulate::PerStation => station..station + 1,
            Regulate::PerFlow => self.flows_of(station),
        };
        keys.map(ClientId)
    }

    /// Replaces a flow's transport state with a fresh incarnation
    /// starting at `now` (a roaming client reconnects at its new AP;
    /// TCP state does not survive the handoff). Goodput and latency
    /// accounting are cumulative across incarnations.
    fn rebuild_flow(&mut self, flow: usize, spec: &FlowSpec, now: SimTime) {
        let (tcp_tx, tcp_rx, udp) = transport_for(FlowId(flow), spec, self.cfg);
        self.dirty_flows.insert(flow);
        let f = &mut self.flows[flow];
        f.start = now;
        f.started = true;
        f.tcp_tx = tcp_tx;
        f.tcp_rx = tcp_rx;
        f.udp = udp;
        f.metered_bytes = 0;
        f.completion = None;
    }

    /// Registers `station` with the AP scheduler and starts fresh
    /// transport incarnations for its flows. `now` must be at or after
    /// every event this cell has dispatched.
    fn associate_station(&mut self, station: usize, now: SimTime) {
        self.now = now;
        let weight = self.cfg.stations[station].weight;
        for key in self.keys_of_station(station) {
            self.sched.on_associate_weighted(key, weight, now);
        }
        let cfg = self.cfg;
        for (flow, spec) in self.flows_of(station).zip(&cfg.stations[station].flows) {
            self.rebuild_flow(flow, spec, now);
        }
        // The association happens between events on the shared
        // timeline, so prime traffic and the MAC here rather than
        // waiting for this cell's next dispatch.
        self.pump_dirty();
        self.kick();
        self.ensure_sched_wake();
    }

    /// Removes `station` from the AP scheduler: flushes its AP-side
    /// queues (the flushed frames never reached the MAC and simply
    /// vanish from the in-transit map), clears its uplink interface
    /// queue and tears its transport state down. A frame already
    /// committed to the MAC completes its exchange — the radio does
    /// not recall it; the scheduler ignores the late completion debit.
    fn disassociate_station(&mut self, station: usize, now: SimTime) {
        self.now = now;
        for key in self.keys_of_station(station) {
            for q in self.sched.on_disassociate(key, now) {
                self.in_transit.remove(&q.handle);
            }
            self.emit_ap_queue(key);
        }
        let node = station + 1;
        if !self.client_q[node].is_empty() {
            self.client_q[node].clear();
            self.emit_client_queue(node);
        }
        let flows = self.flows_of(station);
        for flow in flows.clone() {
            // The old incarnation's timers must not fire into the next
            // one: its generation counters restart and can collide.
            self.queue.disarm(rto_deadline(flow));
            self.queue.disarm(delack_deadline(flow));
        }
        for f in &mut self.flows[flows] {
            f.started = false;
            f.tcp_tx = None;
            f.tcp_rx = None;
            f.udp = None;
            f.pump_pending = false;
        }
    }

    // -- results ---------------------------------------------------------

    fn report(self) -> Report {
        let end = self.now;
        let mut flow_reports = Vec::new();
        for (i, f) in self.flows.iter().enumerate() {
            let (retransmits, timeouts) = match f.tcp_tx.as_ref() {
                Some(tx) => {
                    let (_, r, t) = tx.stats();
                    (r, t)
                }
                None => (0, 0),
            };
            flow_reports.push(FlowReport {
                flow: i,
                station: f.station,
                transport: f.transport,
                direction: f.direction,
                goodput_mbps: f.meter.mbps(end),
                goodput_bytes: f.meter.bytes(),
                completion: f.completion,
                retransmits,
                timeouts,
                latency_p50_ms: f.latency.as_ref().and_then(|h| h.quantile(0.5)),
                latency_p95_ms: f.latency.as_ref().and_then(|h| h.quantile(0.95)),
            });
        }
        let n = self.cfg.stations.len();
        let mut node_occ = Vec::with_capacity(n);
        for st in 0..n {
            let node = st + 1;
            let occ = self
                .mac
                .occupancy(NodeId(node))
                .saturating_sub(self.occupancy_at_warmup[node]);
            node_occ.push(occ);
        }
        let total_occ: f64 = node_occ.iter().map(|d| d.as_secs_f64()).sum();
        let nodes: Vec<NodeReport> = (0..n)
            .map(|st| {
                let goodput: f64 = flow_reports
                    .iter()
                    .filter(|f| f.station == st)
                    .map(|f| f.goodput_mbps)
                    .sum();
                NodeReport {
                    station: st,
                    occupancy: node_occ[st],
                    occupancy_share: if total_occ > 0.0 {
                        node_occ[st].as_secs_f64() / total_occ
                    } else {
                        0.0
                    },
                    goodput_mbps: goodput,
                }
            })
            .collect();
        let total: f64 = flow_reports.iter().map(|f| f.goodput_mbps).sum();
        let measured_span = end.saturating_since(SimTime::ZERO + self.cfg.warmup);
        let busy = self.mac.busy_time().saturating_sub(self.busy_at_warmup);
        let key_count = match self.cfg.regulate {
            Regulate::PerStation => n,
            Regulate::PerFlow => self.flows.len(),
        };
        let tbr_rates = matches!(self.cfg.scheduler, SchedulerKind::Tbr(_)).then(|| {
            (0..key_count)
                .map(|k| self.sched.token_fill_rate(ClientId(k)).unwrap_or(0.0))
                .collect()
        });
        Report {
            flows: flow_reports,
            nodes,
            total_goodput_mbps: total,
            mac: self.mac.stats(),
            sched_drops: self.sched.drops(),
            utilization: if measured_span.is_zero() {
                0.0
            } else {
                busy.as_secs_f64() / measured_span.as_secs_f64()
            },
            end,
            tbr_rates,
        }
    }
}

/// Fresh transport endpoints for flow `id`: a sender and a receiver
/// for TCP, a source for UDP.
fn transport_for(
    id: FlowId,
    spec: &FlowSpec,
    cfg: &NetworkConfig,
) -> (Option<TcpSender>, Option<TcpReceiver>, Option<UdpSource>) {
    match spec.transport {
        Transport::Tcp => {
            let limiter = spec
                .rate_limit_bps
                .map(|bps| RateLimiter::new(bps, 2 * cfg.tcp.mss));
            (
                Some(TcpSender::new(
                    id,
                    cfg.tcp.clone(),
                    spec.task_bytes,
                    limiter,
                )),
                Some(TcpReceiver::new(id, cfg.tcp.clone())),
                None,
            )
        }
        Transport::Udp => (
            None,
            None,
            Some(UdpSource::new(
                id,
                UdpConfig {
                    datagram_bytes: crate::config::UDP_DATAGRAM_BYTES,
                    rate_bps: spec.rate_limit_bps,
                    task_bytes: spec.task_bytes,
                },
            )),
        ),
    }
}

/// The client side of an AP↔station frame.
fn client_node(frame: &Frame) -> usize {
    if frame.src == AP {
        frame.dst.index()
    } else {
        frame.src.index()
    }
}

/// One cell of a multi-AP topology, exposed as a steppable simulation.
///
/// The single-cell engine ([`run`]) owns its event loop; a multi-cell
/// driver instead interleaves several cells on one shared timeline,
/// always stepping the cell holding the globally-earliest event.
/// `CellSim` wraps the engine for that purpose and adds the
/// association lifecycle a roaming station needs — flush-and-leave at
/// the old AP, fresh registration (and fresh transport incarnations)
/// at the new one — plus the busy-window hooks a driver uses to couple
/// co-channel cells through carrier sense.
///
/// Ordering contract: mutating calls (`associate`, `disassociate`,
/// `defer_all`, `step`) must be non-decreasing in time. A driver that
/// only touches a cell when the shared timeline has caught up with it
/// (every already-dispatched event of this cell is at or before `now`)
/// satisfies this by construction.
pub struct CellSim<'c, O: Observer> {
    sim: Sim<'c, O>,
    associated: Vec<bool>,
}

impl<'c, O: Observer> CellSim<'c, O> {
    /// Builds a cell over `cfg` with an initial association mask
    /// (`active[i]` — station `i` starts associated here). Inactive
    /// stations hold no scheduler slot and start no flows until
    /// [`CellSim::associate`].
    ///
    /// # Panics
    ///
    /// Panics on malformed configs (as [`run`]) or when the mask
    /// length disagrees with the station count.
    pub fn new(cfg: &'c NetworkConfig, obs: &'c mut O, active: &[bool]) -> Self {
        assert_eq!(
            active.len(),
            cfg.stations.len(),
            "association mask must cover every station"
        );
        CellSim {
            sim: Sim::new(cfg, obs, None, Some(active)),
            associated: active.to_vec(),
        }
    }

    /// Time of this cell's earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.sim.queue.peek_time()
    }

    /// Time of the last dispatched event (the cell's local clock).
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// Dispatches exactly one event — the earliest pending — and
    /// returns its time; `None` when the cell is drained.
    pub fn step(&mut self) -> Option<SimTime> {
        self.step_labeled().map(|(t, _)| t)
    }

    /// Like [`CellSim::step`], but also returns the dispatched event's
    /// profiler label, so a driver can attribute the step's host cost
    /// per event type without peeking into the queue.
    pub fn step_labeled(&mut self) -> Option<(SimTime, &'static str)> {
        self.sim.step()
    }

    /// Events dispatched by this cell's loop so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.queue.events_processed()
    }

    /// Deepest this cell's event queue has ever been.
    pub fn queue_high_water(&self) -> u64 {
        self.sim.queue.high_water() as u64
    }

    /// Ends the run at `end`: brings the scheduler's periodic state up
    /// to the boundary, closes the airtime timeline so per-cell traces
    /// audit on their own, and produces the cell's report.
    pub fn finish(mut self, end: SimTime) -> Report {
        self.sim.finish(end);
        self.sim.report()
    }

    /// True while `station` holds an association at this AP.
    pub fn is_associated(&self, station: usize) -> bool {
        self.associated[station]
    }

    /// Associates `station` at `now`: fresh scheduler registration
    /// (under TBR: initial tokens, recomputed rate shares) and fresh
    /// transport incarnations for its flows. No-op when already
    /// associated.
    pub fn associate(&mut self, station: usize, now: SimTime) {
        if self.associated[station] {
            return;
        }
        self.associated[station] = true;
        self.sim.associate_station(station, now);
    }

    /// Disassociates `station` at `now`, flushing its queues and
    /// stopping its flows (see the engine-side notes on frames already
    /// committed to the MAC). No-op when not associated.
    pub fn disassociate(&mut self, station: usize, now: SimTime) {
        if !self.associated[station] {
            return;
        }
        self.associated[station] = false;
        self.sim.disassociate_station(station, now);
    }

    /// Feeds an association change into this cell's observer lane —
    /// the topology engine calls it on every handoff/drop so flight-
    /// recorder fingerprints capture roaming causality. Gated on
    /// `wants(Hook::Handoff)`: with a `NullObserver` the call folds
    /// away.
    pub fn observe_handoff(
        &mut self,
        t: SimTime,
        station: u64,
        from: Option<u64>,
        to: Option<u64>,
    ) {
        if self.sim.wants(Hook::Handoff) {
            self.sim.obs.on_handoff(t, station, from, to);
        }
    }

    /// Replaces `station`'s channel error model (mobility: path loss
    /// follows position).
    pub fn set_station_link(&mut self, station: usize, link: LinkErrorModel) {
        self.sim.mac.set_link(NodeId(station + 1), link);
    }

    /// Pins `station`'s PHY rate, for drivers that select rates from
    /// RSSI instead of per-cell ARF. Ignored while the station runs
    /// ARF (a `Path` link with automatic rate control).
    pub fn set_station_rate(&mut self, station: usize, rate: DataRate) {
        self.sim.fixed_rate[station + 1] = rate;
    }

    /// End of this cell's current busy period, if its medium is busy.
    pub fn busy_until(&self) -> Option<SimTime> {
        self.sim.mac.busy_until()
    }

    /// Imposes an external busy window on every node of this cell —
    /// co-channel carrier sense: a same-channel neighbour's exchange
    /// defers this whole cell until it ends: one cell-wide MAC deferral
    /// and one expiry timer per window (see [`DcfWorld::defer_medium`]
    /// for its exact semantics and the backoff-countdown fidelity
    /// note). A window ending at or before `now` or an already-imposed
    /// one is a no-op, so drivers may call this on every step; shrinking
    /// is impossible by design.
    pub fn defer_all(&mut self, now: SimTime, until: SimTime) {
        self.sim.now = now;
        self.sim
            .mac_batch(|mac, now, fx| mac.defer_medium(now, until, fx));
    }

    /// Cumulative goodput bytes delivered to/from `station` across all
    /// its flow incarnations in this cell. Drivers difference this at
    /// handoff boundaries for pre/post-handoff roaming throughput.
    pub fn station_goodput_bytes(&self, station: usize) -> u64 {
        self.sim.flows[self.sim.flows_of(station)]
            .iter()
            .map(|f| f.meter.bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_labels_are_exhaustive_and_unique() {
        // One instance per `Event` variant. Adding a variant breaks the
        // exhaustive match in `event_label` at compile time; this test
        // catches the remaining drift mode — two variants silently
        // sharing a profiler label.
        let pkt = Packet {
            flow: FlowId(0),
            kind: PacketKind::UdpData { seq: 0 },
            bytes: 1500,
        };
        let variants = [
            Event::Mac(MacEvent::AccessResolved { generation: 0 }),
            Event::Mac(MacEvent::TxEnd),
            Event::Mac(MacEvent::DeferExpired { node: NodeId(1) }),
            Event::Mac(MacEvent::MediumDeferExpired),
            Event::WiredToAp(pkt),
            Event::WiredToHost(pkt),
            Event::RtoFired {
                flow: 0,
                generation: 0,
            },
            Event::DelAckFired {
                flow: 0,
                generation: 0,
            },
            Event::SchedTick,
            Event::Pump { flow: 0 },
            Event::StartFlow { flow: 0 },
            Event::WarmupDone,
        ];
        let labels: Vec<&'static str> = variants.iter().map(event_label).collect();
        for (i, a) in labels.iter().enumerate() {
            assert!(!a.is_empty(), "empty label for variant {i}");
            for (j, b) in labels.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {i} and {j} share the label {a:?}");
            }
        }
    }

    #[test]
    fn index_set_drains_in_ascending_order() {
        let mut set = IndexSet::new(200);
        for i in [130, 3, 64, 63, 199, 0] {
            set.insert(i);
        }
        set.insert(64); // inserting twice keeps one member
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = set.take_from(from) {
            from = i + 1;
            seen.push(i);
        }
        assert_eq!(seen, [0, 3, 63, 64, 130, 199]);
        assert_eq!(set.take_from(0), None, "a pass empties the set");
    }

    #[test]
    fn index_set_visits_marks_above_the_cursor_in_the_same_pass() {
        let mut set = IndexSet::new(128);
        set.insert(5);
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = set.take_from(from) {
            from = i + 1;
            seen.push(i);
            if i == 5 {
                set.insert(70); // above the cursor, in another word
                set.insert(6);
            }
        }
        assert_eq!(seen, [5, 6, 70]);
    }

    #[test]
    fn index_set_keeps_marks_at_or_below_the_cursor_for_the_next_pass() {
        let mut set = IndexSet::new(128);
        set.insert(9);
        set.insert(100);
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = set.take_from(from) {
            from = i + 1;
            seen.push(i);
            if i == 100 {
                set.insert(100); // the visited member re-marks itself
                set.insert(2);
            }
        }
        assert_eq!(seen, [9, 100]);
        let mut next = Vec::new();
        let mut from = 0;
        while let Some(i) = set.take_from(from) {
            from = i + 1;
            next.push(i);
        }
        assert_eq!(next, [2, 100]);
    }

    /// A station that leaves while its interface queue is full loses
    /// the queued packets; when it comes back its fresh flows must be
    /// pumped and its node kicked again, or it stays silent.
    #[test]
    fn reassociated_station_with_a_full_queue_delivers_again() {
        use crate::scenarios;
        let mut cfg = scenarios::uploaders(
            &[DataRate::B11, DataRate::B1],
            SchedulerKind::Tbr(Default::default()),
        );
        // The slow station adds a saturating UDP uplink, which keeps its
        // small interface queue full.
        let slow = 1;
        cfg.stations[slow]
            .flows
            .push(FlowSpec::udp(Direction::Uplink));
        cfg.client_queue_cap = 4;
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(1);
        let mut obs = NullObserver;
        let mut cell = CellSim::new(&cfg, &mut obs, &[true, true]);
        let run_until = |cell: &mut CellSim<'_, NullObserver>, secs: u64| {
            let until = SimTime::ZERO + SimDuration::from_secs(secs);
            while cell.peek_time().is_some_and(|t| t <= until) {
                cell.step();
            }
        };
        run_until(&mut cell, 2);
        let deadline = SimTime::ZERO + SimDuration::from_secs(3);
        while cell.sim.client_q[slow + 1].len() < cfg.client_queue_cap {
            let t = cell.step();
            assert!(t.is_some_and(|t| t < deadline), "queue never filled");
        }
        cell.disassociate(slow, cell.now());
        run_until(&mut cell, 3);
        let flows = cell.sim.flows_of(slow);
        let delivered = |cell: &CellSim<'_, NullObserver>| -> Vec<u64> {
            cell.sim.flows[flows.clone()]
                .iter()
                .map(|f| f.meter.bytes())
                .collect()
        };
        let before = delivered(&cell);
        cell.associate(slow, cell.now());
        run_until(&mut cell, 6);
        let after = delivered(&cell);
        for (flow, (b, a)) in flows.clone().zip(before.iter().zip(&after)) {
            assert!(
                a > b,
                "flow {flow} silent after re-association ({b} -> {a} bytes)"
            );
        }
    }

    /// Re-armed timers keep one queue entry each: a saturated fig9
    /// 11+1 TBR cell, where every ack re-arms a retransmission timer,
    /// never holds two timer events for one flow, and its queue stays
    /// a few dozen entries deep. A delayed ACK fires rarely in the
    /// saturated downlink cell (first at 26.7 s), so the run is 30 s
    /// long for each direction to pop one.
    #[test]
    fn a_saturated_cell_queues_one_entry_per_timer() {
        use crate::scenarios;
        for direction in [Direction::Uplink, Direction::Downlink] {
            let mut cfg = scenarios::tcp_stations(
                &[DataRate::B11, DataRate::B1],
                direction,
                SchedulerKind::tbr(),
            );
            cfg.duration = SimDuration::from_secs(30);
            let mut obs = NullObserver;
            let mut cell = CellSim::new(&cfg, &mut obs, &[true, true]);
            let flows = cell.sim.flows.len();
            let end = SimTime::ZERO + cfg.duration;
            let (mut rtos, mut delacks) = (0u64, 0u64);
            while cell.peek_time().is_some_and(|t| t <= end) {
                let (_, label) = cell.step_labeled().expect("an event was peeked");
                rtos += u64::from(label == "tcp.rto");
                delacks += u64::from(label == "tcp.delack");
                let mut per_flow = vec![(0, 0); flows];
                for (_, ev) in cell.sim.queue.pending() {
                    match *ev {
                        Event::RtoFired { flow, .. } => per_flow[flow].0 += 1,
                        Event::DelAckFired { flow, .. } => per_flow[flow].1 += 1,
                        _ => {}
                    }
                }
                assert!(
                    per_flow.iter().all(|&(r, d)| r <= 1 && d <= 1),
                    "{direction:?}: timer events per flow {per_flow:?}"
                );
            }
            let hw = cell.queue_high_water();
            assert!(hw <= 40, "{direction:?}: queue high water {hw}");
            // Only live timers pop: every RTO dispatch is a timeout.
            let report = cell.finish(end);
            let timeouts: u64 = report.flows.iter().map(|f| f.timeouts).sum();
            assert_eq!(rtos, timeouts, "{direction:?}: stale RTO dispatches");
            assert!(delacks > 0, "{direction:?}: no delayed ACK fired");
        }
    }

    /// The steppable facade must follow the exact trajectory of the
    /// closed-loop engine when driven over the same span: same popped
    /// events, same RNG draws, bit-identical report. Multi-cell runs
    /// rest on this equivalence.
    #[test]
    fn cell_facade_reproduces_the_single_cell_engine() {
        use crate::scenarios;
        for sched in [
            SchedulerKind::RoundRobin,
            SchedulerKind::Tbr(Default::default()),
        ] {
            let mut cfg = scenarios::uploaders(&[DataRate::B11, DataRate::B1], sched);
            cfg.duration = SimDuration::from_secs(5);
            let direct = run(&cfg);
            let mut obs = NullObserver;
            let mut cell = CellSim::new(&cfg, &mut obs, &[true, true]);
            let end = SimTime::ZERO + cfg.duration;
            while cell.peek_time().is_some_and(|t| t <= end) {
                cell.step();
            }
            let stepped = cell.finish(end);
            assert_eq!(
                direct.total_goodput_mbps.to_bits(),
                stepped.total_goodput_mbps.to_bits(),
                "goodput diverged under {:?}",
                cfg.scheduler
            );
            assert_eq!(direct.mac.attempts, stepped.mac.attempts);
            assert_eq!(direct.mac.delivered, stepped.mac.delivered);
            for (a, b) in direct.flows.iter().zip(&stepped.flows) {
                assert_eq!(a.goodput_bytes, b.goodput_bytes);
                assert_eq!(a.retransmits, b.retransmits);
            }
        }
    }

    /// Steps `cfg` through the cell facade with `extra` events mixed
    /// in; returns the flight-recorder fingerprint and the report.
    fn run_with_extra(cfg: &NetworkConfig, extra: &[(SimTime, Event)]) -> (String, String) {
        let mut rec = airtime_obs::FlightRecorder::new().with_capacity(0);
        let end = SimTime::ZERO + cfg.duration;
        let report = {
            let mut cell = CellSim::new(cfg, &mut rec, &vec![true; cfg.stations.len()]);
            for &(t, ev) in extra {
                cell.sim.queue.schedule(t, ev);
            }
            while cell.peek_time().is_some_and(|t| t <= end) {
                cell.step();
            }
            cell.finish(end)
        };
        (
            airtime_obs::fp_hex(rec.fingerprint()),
            format!("{report:?}"),
        )
    }

    #[test]
    fn no_op_events_move_nothing_in_a_token_blocked_cell() {
        // The 11+1 uplink TBR cell of Fig 9: the acks of the slow
        // station wait on tokens at the AP. A blocked AP releases at
        // its own release instants, so scheduler wakes nobody asked
        // for — each a consult plus the full pump, kick and wake glue
        // of a dispatch — must not move a single decision, queue
        // change or report field.
        use crate::scenarios;
        let mut cfg = scenarios::tcp_stations(
            &[DataRate::B11, DataRate::B1],
            Direction::Uplink,
            SchedulerKind::tbr(),
        );
        cfg.duration = SimDuration::from_secs(20);
        let base = run_with_extra(&cfg, &[]);
        let mut rng = SimRng::new(11);
        let extra: Vec<(SimTime, Event)> = (0..3_000)
            .map(|_| {
                let t = SimTime::from_nanos(rng.below(20_000_000_000));
                (t, Event::SchedTick)
            })
            .collect();
        let got = run_with_extra(&cfg, &extra);
        assert_eq!(got.0, base.0, "fingerprint moved");
        assert_eq!(got.1, base.1, "report moved");
    }
}
