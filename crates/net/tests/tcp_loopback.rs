//! End-to-end TCP tests over a simulated loopback path with configurable
//! delay, bottleneck pacing and scripted losses.
//!
//! These exercise the whole sender↔receiver loop — ack clocking, delayed
//! acks, fast retransmit, RTO recovery, app-level rate limiting — the
//! dynamics the WLAN experiments later rely on — and check that keeping
//! each timer as one event-queue deadline fires exactly the timers that
//! one event per arm would.

use std::collections::VecDeque;

use airtime_net::{
    FlowId, Packet, PacketKind, RateLimiter, ReceiverEffect, SenderEffect, TcpConfig, TcpReceiver,
    TcpSender,
};
use airtime_sim::{EventQueue, SimDuration, SimRng, SimTime};

/// Event-queue deadline keys of the two timers.
const RTO: usize = 0;
const DELACK: usize = 1;

/// How the harness queues timer arms.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Timers {
    /// One queued event per arm; superseded ones pop and are ignored.
    EventPerArm,
    /// One deadline per timer ([`EventQueue::arm`]).
    Deadline,
}

/// A timer expiry that took effect: `'R'` for an RTO that timed out,
/// `'D'` for a delayed ACK that sent one, with its time and generation.
type Fire = (char, SimTime, u64);

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Packet arrives at the far end of the link.
    Arrive(Packet),
    RtoFired(u64),
    DelAckFired(u64),
    /// Re-poll the sender (app-limit pacing).
    Pump,
    /// Bottleneck queue service completes.
    Serve,
}

/// A one-hop duplex path: sender → [bottleneck queue] → receiver, acks
/// return after `delay`. `drop_seqs` lists data segments to drop (first
/// transmission occurrence of each listed entry).
struct Loopback {
    sender: TcpSender,
    receiver: TcpReceiver,
    queue: EventQueue<Ev>,
    now: SimTime,
    delay: SimDuration,
    /// Bottleneck: serialization time per data packet (None = infinite).
    service_time: Option<SimDuration>,
    bottleneck: VecDeque<Packet>,
    serving: bool,
    drop_list: Vec<u64>,
    completed_at: Option<SimTime>,
    data_packets_on_wire: u64,
    ack_packets_on_wire: u64,
    timers: Timers,
    fires: Vec<Fire>,
}

impl Loopback {
    fn new(sender: TcpSender, delay: SimDuration, service_time: Option<SimDuration>) -> Self {
        let receiver = TcpReceiver::new(sender.flow(), TcpConfig::default());
        Loopback {
            sender,
            receiver,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            delay,
            service_time,
            bottleneck: VecDeque::new(),
            serving: false,
            drop_list: Vec::new(),
            completed_at: None,
            data_packets_on_wire: 0,
            ack_packets_on_wire: 0,
            timers: Timers::EventPerArm,
            fires: Vec::new(),
        }
    }

    fn arm(&mut self, key: usize, at: SimTime, ev: Ev) {
        match self.timers {
            Timers::EventPerArm => self.queue.schedule(at, ev),
            Timers::Deadline => self.queue.arm(key, at, ev),
        }
    }

    fn sender_effects(&mut self, fx: Vec<SenderEffect>) {
        for e in fx {
            match e {
                SenderEffect::ArmRto { at, generation } => {
                    self.arm(RTO, at, Ev::RtoFired(generation));
                }
                SenderEffect::Complete => self.completed_at = Some(self.now),
            }
        }
    }

    fn receiver_effects(&mut self, fx: Vec<ReceiverEffect>) {
        for e in fx {
            match e {
                ReceiverEffect::SendAck { ack_seq } => {
                    let pkt = self.receiver.ack_packet(ack_seq);
                    self.ack_packets_on_wire += 1;
                    self.queue.schedule(self.now + self.delay, Ev::Arrive(pkt));
                }
                ReceiverEffect::ArmDelAck { at, generation } => {
                    self.arm(DELACK, at, Ev::DelAckFired(generation));
                }
            }
        }
    }

    fn pump_sender(&mut self) {
        let mut fx = Vec::new();
        while let Some(pkt) = self.sender.poll_packet(self.now, &mut fx) {
            if let PacketKind::TcpData { seq } = pkt.kind {
                if let Some(pos) = self.drop_list.iter().position(|&s| s == seq) {
                    self.drop_list.remove(pos);
                    continue; // lost in flight
                }
                self.data_packets_on_wire += 1;
                self.send_data(pkt);
            }
        }
        self.sender_effects(fx);
        if let Some(at) = self.sender.next_app_ready(self.now) {
            self.queue.schedule(at, Ev::Pump);
        }
    }

    fn send_data(&mut self, pkt: Packet) {
        match self.service_time {
            None => self.queue.schedule(self.now + self.delay, Ev::Arrive(pkt)),
            Some(st) => {
                self.bottleneck.push_back(pkt);
                if !self.serving {
                    self.serving = true;
                    self.queue.schedule(self.now + st, Ev::Serve);
                }
            }
        }
    }

    fn run_until(&mut self, end: SimTime) {
        self.pump_sender();
        while let Some((t, ev)) = self.queue.pop() {
            if t > end {
                break;
            }
            self.now = t;
            match ev {
                Ev::Arrive(pkt) => match pkt.kind {
                    PacketKind::TcpData { seq } => {
                        let fx = self.receiver.on_data(t, seq);
                        self.receiver_effects(fx);
                    }
                    PacketKind::TcpAck { ack_seq } => {
                        let mut fx = Vec::new();
                        self.sender.on_ack(t, ack_seq, &mut fx);
                        self.sender_effects(fx);
                        self.pump_sender();
                    }
                    PacketKind::UdpData { .. } => unreachable!("TCP-only harness"),
                },
                Ev::RtoFired(generation) => {
                    let mut fx = Vec::new();
                    let before = self.sender.stats().2;
                    self.sender.on_rto_fired(t, generation, &mut fx);
                    if self.sender.stats().2 > before {
                        self.fires.push(('R', t, generation));
                    }
                    self.sender_effects(fx);
                    self.pump_sender();
                }
                Ev::DelAckFired(generation) => {
                    let fx = self.receiver.on_delack_fired(generation);
                    if !fx.is_empty() {
                        self.fires.push(('D', t, generation));
                    }
                    self.receiver_effects(fx);
                }
                Ev::Pump => self.pump_sender(),
                Ev::Serve => {
                    if let Some(pkt) = self.bottleneck.pop_front() {
                        self.queue.schedule(self.now + self.delay, Ev::Arrive(pkt));
                    }
                    if self.bottleneck.is_empty() {
                        self.serving = false;
                    } else {
                        self.queue
                            .schedule(self.now + self.service_time.unwrap(), Ev::Serve);
                    }
                }
            }
            if self.completed_at.is_some() {
                break;
            }
        }
    }
}

fn task_sender(bytes: u64, limit: Option<RateLimiter>) -> TcpSender {
    TcpSender::new(FlowId(0), TcpConfig::default(), Some(bytes), limit)
}

#[test]
fn lossless_task_completes_in_order() {
    let mss = TcpConfig::default().mss;
    let mut lb = Loopback::new(
        task_sender(100 * mss, None),
        SimDuration::from_millis(5),
        None,
    );
    lb.run_until(SimTime::from_secs(30));
    let done = lb.completed_at.expect("task should complete");
    assert_eq!(lb.receiver.contiguous_segments(), 100);
    assert_eq!(lb.receiver.duplicates(), 0);
    // 100 segments, cwnd doubling from 2 per delayed-acked RTT (10 ms):
    // should finish within a second, not via timeouts.
    assert!(done < SimTime::from_secs(2), "done at {done}");
    let (_, _, timeouts) = lb.sender.stats();
    assert_eq!(timeouts, 0);
}

#[test]
fn delayed_acks_halve_ack_traffic() {
    let mss = TcpConfig::default().mss;
    let mut lb = Loopback::new(
        task_sender(200 * mss, None),
        SimDuration::from_millis(5),
        None,
    );
    lb.run_until(SimTime::from_secs(30));
    assert!(lb.completed_at.is_some());
    let ratio = lb.ack_packets_on_wire as f64 / lb.data_packets_on_wire as f64;
    assert!(
        (0.45..0.75).contains(&ratio),
        "ack/data ratio {ratio} (acks={}, data={})",
        lb.ack_packets_on_wire,
        lb.data_packets_on_wire
    );
}

#[test]
fn single_loss_recovers_via_fast_retransmit() {
    let mss = TcpConfig::default().mss;
    let mut lb = Loopback::new(
        task_sender(120 * mss, None),
        SimDuration::from_millis(5),
        None,
    );
    lb.drop_list.push(30);
    lb.run_until(SimTime::from_secs(30));
    let done = lb.completed_at.expect("task should complete despite loss");
    let (_, retx, timeouts) = lb.sender.stats();
    assert!(retx >= 1, "the hole must be retransmitted");
    assert_eq!(timeouts, 0, "fast retransmit should avoid the RTO");
    assert!(done < SimTime::from_secs(2), "done at {done}");
    assert_eq!(lb.receiver.contiguous_segments(), 120);
}

#[test]
fn burst_loss_recovers_eventually() {
    let mss = TcpConfig::default().mss;
    let mut lb = Loopback::new(
        task_sender(80 * mss, None),
        SimDuration::from_millis(5),
        None,
    );
    // Drop an early burst — with cwnd this small, recovery may need the
    // retransmission timer.
    lb.drop_list.extend([2, 3, 4, 5]);
    lb.run_until(SimTime::from_secs(60));
    assert!(
        lb.completed_at.is_some(),
        "must complete despite burst loss"
    );
    assert_eq!(lb.receiver.contiguous_segments(), 80);
}

#[test]
fn throughput_tracks_bottleneck() {
    // 1500-byte packets served every 4 ms → 3 Mbit/s bottleneck. TCP
    // goodput (MSS portion) should approach mss/1500 × 3 Mbit/s.
    let mss = TcpConfig::default().mss;
    let mut lb = Loopback::new(
        TcpSender::new(FlowId(0), TcpConfig::default(), None, None),
        SimDuration::from_millis(2),
        Some(SimDuration::from_micros(4000)),
    );
    let end = SimTime::from_secs(20);
    lb.run_until(end);
    let goodput =
        lb.receiver.contiguous_segments() as f64 * mss as f64 * 8.0 / end.as_secs_f64() / 1e6;
    let ceiling = 3.0 * mss as f64 / 1500.0;
    assert!(
        goodput > 0.85 * ceiling && goodput <= ceiling * 1.02,
        "goodput {goodput} vs ceiling {ceiling}"
    );
}

#[test]
fn app_limited_sender_holds_its_configured_rate() {
    // Table 4's n2: an 11 Mbit/s-capable path but the application only
    // generates 2.1 Mbit/s.
    let mss = TcpConfig::default().mss;
    let lim = RateLimiter::new(2_100_000.0, 2 * mss);
    let mut lb = Loopback::new(
        TcpSender::new(FlowId(0), TcpConfig::default(), None, Some(lim)),
        SimDuration::from_millis(2),
        None,
    );
    let end = SimTime::from_secs(20);
    lb.run_until(end);
    let rate =
        lb.receiver.contiguous_segments() as f64 * mss as f64 * 8.0 / end.as_secs_f64() / 1e6;
    assert!((1.9..2.15).contains(&rate), "rate {rate} Mbit/s");
}

#[test]
fn deterministic_replay() {
    let mss = TcpConfig::default().mss;
    let run = || {
        let mut lb = Loopback::new(
            task_sender(150 * mss, None),
            SimDuration::from_millis(3),
            Some(SimDuration::from_micros(1500)),
        );
        lb.drop_list.extend([7, 8, 40]);
        lb.run_until(SimTime::from_secs(60));
        (
            lb.completed_at,
            lb.data_packets_on_wire,
            lb.ack_packets_on_wire,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn deadline_timers_fire_like_one_event_per_arm() {
    // Random paths — delay, bottleneck, losses, app limit, task size —
    // run once queueing an event per timer arm and once through one
    // deadline per timer. The timers that take effect must be the same
    // `(time, generation)` sequence, and so must the whole run.
    let mss = TcpConfig::default().mss;
    let mut rng = SimRng::new(2004);
    let mut fired = std::collections::BTreeMap::new();
    for case in 0..60 {
        let delay = SimDuration::from_micros(200 + rng.below(20_000));
        let service = rng
            .chance(0.7)
            .then(|| SimDuration::from_micros(100 + rng.below(6_000)));
        let limit = rng
            .chance(0.3)
            .then(|| 200_000.0 + rng.below(4_000_000) as f64);
        let task = rng.chance(0.5).then(|| (20 + rng.below(400)) * mss);
        // Scattered single losses (fast retransmit) and bursts, which
        // with a small window need the retransmission timer.
        let mut drops: Vec<u64> = (0..rng.below(8)).map(|_| rng.below(300)).collect();
        for _ in 0..rng.below(3) {
            let start = rng.below(300);
            drops.extend(start..start + 2 + rng.below(6));
        }
        let run = |timers| {
            let limiter = limit.map(|bps| RateLimiter::new(bps, 2 * mss));
            let sender = TcpSender::new(FlowId(0), TcpConfig::default(), task, limiter);
            let mut lb = Loopback::new(sender, delay, service);
            lb.timers = timers;
            lb.drop_list = drops.clone();
            lb.run_until(SimTime::from_secs(4));
            let stats = lb.sender.stats();
            let high_water = lb.queue.high_water();
            let outcome = (
                lb.completed_at,
                lb.data_packets_on_wire,
                lb.ack_packets_on_wire,
                stats,
                lb.receiver.contiguous_segments(),
            );
            (lb.fires, outcome, high_water)
        };
        let (per_arm, per_arm_outcome, per_arm_hw) = run(Timers::EventPerArm);
        let (deadline, deadline_outcome, deadline_hw) = run(Timers::Deadline);
        assert_eq!(per_arm, deadline, "case {case}: timers fired differently");
        assert_eq!(per_arm_outcome, deadline_outcome, "case {case}");
        assert!(deadline_hw <= per_arm_hw, "case {case}");
        for (kind, ..) in &deadline {
            *fired.entry(*kind).or_insert(0) += 1;
        }
    }
    // Both timers must have taken effect often enough to mean something.
    assert!(
        fired.get(&'R').is_some_and(|&n| n >= 20) && fired.get(&'D').is_some_and(|&n| n >= 20),
        "too few timers took effect: {fired:?}"
    );
}
