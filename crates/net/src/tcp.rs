//! A compact, ack-clocked TCP Reno with NewReno partial-ack recovery.
//!
//! Sequence numbers count *segments* (MSS units), not bytes: the paper's
//! experiments use fixed 1500-byte packets, so segment granularity loses
//! nothing and keeps the arithmetic transparent. A data packet on the
//! wire is `mss + header_bytes` long; a pure ACK is `ack_bytes`.
//!
//! Both endpoints are explicit state machines:
//!
//! - [`TcpSender::poll_packet`] emits the next segment the congestion
//!   window (and optional application rate limit) allows; the embedder
//!   calls it whenever there is room downstream.
//! - [`TcpSender::on_ack`] / [`TcpSender::on_rto_fired`] advance the
//!   congestion machinery and request timer (re)arms via
//!   [`SenderEffect`].
//! - [`TcpReceiver::on_data_into`] implements cumulative acking with
//!   delayed ACKs (every second segment or a timer) and immediate
//!   duplicate ACKs on holes, which is what makes fast retransmit work.
//!
//! Effects are appended to a `Vec` the embedder passes in, so an engine
//! that reuses its buffers allocates nothing per segment.
//!
//! Timer cancellation uses generation stamps (like the MAC crate): the
//! embedder never needs to delete events, it just delivers them and the
//! state machine ignores stale generations. Each arm supersedes the
//! previous one, so an embedder may also keep only the latest arm per
//! timer (an `airtime_sim::EventQueue` deadline).

use std::collections::BTreeSet;

use airtime_sim::{SimDuration, SimTime};

use crate::limit::RateLimiter;
use crate::packet::{FlowId, Packet, PacketKind};

/// Tunables for one TCP connection. Defaults model a 2004-era stack.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size in bytes (payload per data packet).
    pub mss: u64,
    /// TCP/IP header bytes added to each data segment on the wire.
    pub header_bytes: u64,
    /// Size of a pure ACK on the wire.
    pub ack_bytes: u64,
    /// Initial congestion window in segments.
    pub init_cwnd: f64,
    /// Initial slow-start threshold in segments.
    pub init_ssthresh: f64,
    /// Receiver-window cap on cwnd, in segments.
    pub max_cwnd: f64,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimDuration,
    /// RTO before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Send an ACK after this many unacknowledged in-order segments.
    pub delack_segments: u32,
    /// ...or after this long, whichever comes first.
    pub delack_timeout: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            header_bytes: 40,
            ack_bytes: 40,
            init_cwnd: 2.0,
            init_ssthresh: 64.0,
            max_cwnd: 42.0,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            delack_segments: 2,
            delack_timeout: SimDuration::from_millis(100),
        }
    }
}

/// Timer/control requests from the sender to the embedder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SenderEffect {
    /// (Re)arm the retransmission timer. Deliver
    /// [`TcpSender::on_rto_fired`] with this generation at `at`; stale
    /// generations are ignored, so previous arms need not be cancelled.
    ArmRto {
        /// Due time.
        at: SimTime,
        /// Generation stamp.
        generation: u64,
    },
    /// The task-model byte budget has been fully acknowledged.
    Complete,
}

/// Requests from the receiver to the embedder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReceiverEffect {
    /// Transmit a cumulative ACK for everything below `ack_seq`.
    SendAck {
        /// Next expected segment.
        ack_seq: u64,
    },
    /// Arm the delayed-ACK timer; deliver
    /// [`TcpReceiver::on_delack_fired`] with this generation at `at`.
    ArmDelAck {
        /// Due time.
        at: SimTime,
        /// Generation stamp.
        generation: u64,
    },
}

/// The sending half of a TCP connection.
#[derive(Debug)]
pub struct TcpSender {
    config: TcpConfig,
    flow: FlowId,
    /// Next never-before-sent segment.
    next_seq: u64,
    /// Highest segment ever handed to the wire (for app-limit exemption
    /// of go-back-N retransmissions).
    max_seq_sent: u64,
    /// Cumulative acknowledgement point.
    highest_acked: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    /// `Some(recover)` while in fast recovery.
    recovery: Option<u64>,
    retx_queue: Vec<u64>,
    rto_generation: u64,
    rto_armed: bool,
    rto_backoff: u32,
    srtt: Option<f64>,
    rttvar: f64,
    rtt_probe: Option<(u64, SimTime)>,
    app_limit: Option<RateLimiter>,
    /// Total segments to transfer (`None` = unbounded fluid flow).
    task_segments: Option<u64>,
    completed: bool,
    // Stats.
    segments_sent: u64,
    retransmits: u64,
    timeouts: u64,
}

impl TcpSender {
    /// Creates a sender for `flow`. `task_bytes = None` models the
    /// paper's fluid flows; `Some(n)` is a task that completes (and
    /// fires [`SenderEffect::Complete`]) once `n` bytes are acked.
    /// `app_limit` caps the rate at which *new* data enters the network
    /// (Table 4's bottleneck sender).
    pub fn new(
        flow: FlowId,
        config: TcpConfig,
        task_bytes: Option<u64>,
        app_limit: Option<RateLimiter>,
    ) -> Self {
        let task_segments = task_bytes.map(|b| b.div_ceil(config.mss).max(1));
        TcpSender {
            cwnd: config.init_cwnd,
            ssthresh: config.init_ssthresh,
            config,
            flow,
            next_seq: 0,
            max_seq_sent: 0,
            highest_acked: 0,
            dupacks: 0,
            recovery: None,
            retx_queue: Vec::new(),
            rto_generation: 0,
            rto_armed: false,
            rto_backoff: 0,
            srtt: None,
            rttvar: 0.0,
            rtt_probe: None,
            app_limit,
            task_segments,
            completed: false,
            segments_sent: 0,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// The flow this sender belongs to.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Segments in flight.
    pub fn flight(&self) -> u64 {
        self.next_seq - self.highest_acked
    }

    /// Current congestion window (segments).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Cumulatively acknowledged payload bytes.
    pub fn acked_bytes(&self) -> u64 {
        self.highest_acked * self.config.mss
    }

    /// True once a task-model flow has been fully acknowledged.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// (sent, retransmitted, timeouts) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.segments_sent, self.retransmits, self.timeouts)
    }

    fn effective_window(&self) -> u64 {
        self.cwnd.min(self.config.max_cwnd).floor().max(1.0) as u64
    }

    fn data_packet(&self, seq: u64) -> Packet {
        Packet {
            flow: self.flow,
            kind: PacketKind::TcpData { seq },
            bytes: self.config.mss + self.config.header_bytes,
        }
    }

    /// Emits the next transmittable segment, if any. The embedder should
    /// keep calling until `None` (or until downstream queue space runs
    /// out). Timer-arm effects are appended to `effects`.
    pub fn poll_packet(&mut self, now: SimTime, effects: &mut Vec<SenderEffect>) -> Option<Packet> {
        if self.completed {
            return None;
        }
        // Retransmissions first; exempt from the application limiter.
        if let Some(seq) = self.retx_queue.first().copied() {
            self.retx_queue.remove(0);
            self.segments_sent += 1;
            self.retransmits += 1;
            if !self.rto_armed {
                self.arm_rto(now, effects);
            }
            return Some(self.data_packet(seq));
        }
        // New (or go-back-N re-entered) data under the window.
        if self.flight() >= self.effective_window() {
            return None;
        }
        if let Some(total) = self.task_segments {
            if self.next_seq >= total {
                return None;
            }
        }
        let is_new_data = self.next_seq >= self.max_seq_sent;
        if is_new_data {
            if let Some(lim) = self.app_limit.as_mut() {
                if !lim.try_consume(now, self.config.mss) {
                    return None;
                }
            }
        } else {
            self.retransmits += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.max_seq_sent = self.max_seq_sent.max(self.next_seq);
        self.segments_sent += 1;
        if self.rtt_probe.is_none() && is_new_data {
            self.rtt_probe = Some((seq, now));
        }
        if !self.rto_armed {
            self.arm_rto(now, effects);
        }
        Some(self.data_packet(seq))
    }

    /// When the application limiter (if any) will next release a
    /// segment. `None` when sending is not limiter-blocked.
    pub fn next_app_ready(&self, now: SimTime) -> Option<SimTime> {
        let lim = self.app_limit.as_ref()?;
        let at = lim.ready_at(now, self.config.mss);
        (at > now).then_some(at)
    }

    /// Processes a cumulative acknowledgement.
    pub fn on_ack(&mut self, now: SimTime, ack_seq: u64, effects: &mut Vec<SenderEffect>) {
        // Compare against the highest segment ever sent, not `next_seq`:
        // after a go-back-N timeout the receiver may ack out-of-order
        // data it had buffered beyond the rewound send point.
        if self.completed || ack_seq > self.max_seq_sent {
            return;
        }
        if ack_seq > self.highest_acked {
            self.on_new_ack(now, ack_seq, effects);
        } else if ack_seq == self.highest_acked && self.flight() > 0 {
            self.on_dup_ack();
        }
    }

    fn on_new_ack(&mut self, now: SimTime, ack_seq: u64, effects: &mut Vec<SenderEffect>) {
        // RTT sampling (Karn: the probe is cleared on any retransmission).
        if let Some((seq, sent_at)) = self.rtt_probe {
            if ack_seq > seq {
                let sample = now.saturating_since(sent_at).as_secs_f64();
                match self.srtt {
                    None => {
                        self.srtt = Some(sample);
                        self.rttvar = sample / 2.0;
                    }
                    Some(srtt) => {
                        let err = sample - srtt;
                        self.srtt = Some(srtt + err / 8.0);
                        self.rttvar += (err.abs() - self.rttvar) / 4.0;
                    }
                }
                self.rtt_probe = None;
            }
        }
        self.rto_backoff = 0;
        match self.recovery {
            Some(recover) if ack_seq < recover => {
                // NewReno partial ack: retransmit the next hole, deflate.
                let advanced = (ack_seq - self.highest_acked) as f64;
                self.cwnd = (self.cwnd - advanced + 1.0).max(1.0);
                if !self.retx_queue.contains(&ack_seq) {
                    self.retx_queue.push(ack_seq);
                }
            }
            Some(_) => {
                // Full ack: leave fast recovery.
                self.recovery = None;
                self.dupacks = 0;
                self.cwnd = self.ssthresh;
            }
            None => {
                self.dupacks = 0;
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0; // slow start
                } else {
                    self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                }
            }
        }
        self.cwnd = self.cwnd.min(self.config.max_cwnd);
        self.highest_acked = ack_seq;
        // A rewound send point can be overtaken by an ack for previously
        // buffered data; everything below it needs no retransmission.
        self.next_seq = self.next_seq.max(ack_seq);
        self.retx_queue.retain(|&s| s >= ack_seq);
        if self.flight() > 0 || !self.retx_queue.is_empty() {
            self.arm_rto(now, effects);
        } else {
            self.rto_armed = false;
            self.rto_generation += 1;
        }
        if let Some(total) = self.task_segments {
            if self.highest_acked >= total && !self.completed {
                self.completed = true;
                effects.push(SenderEffect::Complete);
            }
        }
    }

    fn on_dup_ack(&mut self) {
        self.dupacks += 1;
        if self.recovery.is_some() {
            self.cwnd = (self.cwnd + 1.0).min(self.config.max_cwnd + 3.0);
        } else if self.dupacks == 3 {
            // Fast retransmit + fast recovery.
            let flight = self.flight() as f64;
            self.ssthresh = (flight / 2.0).max(2.0);
            self.cwnd = self.ssthresh + 3.0;
            self.recovery = Some(self.next_seq);
            if !self.retx_queue.contains(&self.highest_acked) {
                self.retx_queue.push(self.highest_acked);
            }
            self.rtt_probe = None;
        }
    }

    fn current_rto(&self) -> SimDuration {
        let base = match self.srtt {
            Some(srtt) => SimDuration::from_secs_f64(srtt + 4.0 * self.rttvar),
            None => self.config.initial_rto,
        };
        let clamped = base.max(self.config.min_rto).min(self.config.max_rto);
        let scaled = clamped * (1u64 << self.rto_backoff.min(8));
        scaled.min(self.config.max_rto)
    }

    fn arm_rto(&mut self, now: SimTime, effects: &mut Vec<SenderEffect>) {
        self.rto_generation += 1;
        self.rto_armed = true;
        effects.push(SenderEffect::ArmRto {
            at: now + self.current_rto(),
            generation: self.rto_generation,
        });
    }

    /// Handles a retransmission-timer expiry with generation stamp
    /// `generation` (stale stamps are ignored).
    pub fn on_rto_fired(&mut self, now: SimTime, generation: u64, effects: &mut Vec<SenderEffect>) {
        if !self.rto_armed || generation != self.rto_generation || self.completed {
            return;
        }
        if self.flight() == 0 && self.retx_queue.is_empty() {
            self.rto_armed = false;
            return;
        }
        self.timeouts += 1;
        let flight = self.flight() as f64;
        self.ssthresh = (flight / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dupacks = 0;
        self.recovery = None;
        self.retx_queue.clear();
        self.rtt_probe = None;
        // Go-back-N: re-send from the acknowledgement point.
        self.next_seq = self.highest_acked;
        self.rto_backoff += 1;
        self.arm_rto(now, effects);
    }
}

/// The receiving half of a TCP connection.
#[derive(Debug)]
pub struct TcpReceiver {
    config: TcpConfig,
    flow: FlowId,
    /// Next expected in-order segment.
    expected: u64,
    /// Out-of-order segments beyond `expected`.
    ooo: BTreeSet<u64>,
    unacked_inorder: u32,
    delack_generation: u64,
    delack_armed: bool,
    duplicates: u64,
}

impl TcpReceiver {
    /// Creates a receiver for `flow`.
    pub fn new(flow: FlowId, config: TcpConfig) -> Self {
        TcpReceiver {
            config,
            flow,
            expected: 0,
            ooo: BTreeSet::new(),
            unacked_inorder: 0,
            delack_generation: 0,
            delack_armed: false,
            duplicates: 0,
        }
    }

    /// The flow this receiver belongs to.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Segments received in order so far (goodput in MSS units).
    pub fn contiguous_segments(&self) -> u64 {
        self.expected
    }

    /// Goodput in bytes.
    pub fn goodput_bytes(&self) -> u64 {
        self.expected * self.config.mss
    }

    /// Duplicate segments seen (retransmissions that had already
    /// arrived).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// The wire packet for a cumulative ACK.
    pub fn ack_packet(&self, ack_seq: u64) -> Packet {
        Packet {
            flow: self.flow,
            kind: PacketKind::TcpAck { ack_seq },
            bytes: self.config.ack_bytes,
        }
    }

    fn ack_now(&mut self, effects: &mut Vec<ReceiverEffect>) {
        self.unacked_inorder = 0;
        self.delack_armed = false;
        self.delack_generation += 1;
        effects.push(ReceiverEffect::SendAck {
            ack_seq: self.expected,
        });
    }

    /// [`TcpReceiver::on_data_into`] with its effects in a fresh `Vec`,
    /// for callers that keep no effect buffer of their own.
    pub fn on_data(&mut self, now: SimTime, seq: u64) -> Vec<ReceiverEffect> {
        let mut effects = Vec::new();
        self.on_data_into(now, seq, &mut effects);
        effects
    }

    /// Processes an arriving data segment, appending the effects to
    /// `effects`.
    pub fn on_data_into(&mut self, now: SimTime, seq: u64, effects: &mut Vec<ReceiverEffect>) {
        if seq < self.expected || self.ooo.contains(&seq) {
            // Duplicate: re-ack immediately.
            self.duplicates += 1;
            self.ack_now(effects);
        } else if seq == self.expected {
            self.expected += 1;
            let mut drained = 0u64;
            while self.ooo.remove(&self.expected) {
                self.expected += 1;
                drained += 1;
            }
            self.unacked_inorder += 1;
            if drained > 0
                || !self.ooo.is_empty()
                || self.unacked_inorder >= self.config.delack_segments
            {
                // A hole was just filled (ack immediately per RFC 5681),
                // a hole remains beyond (keep the dupack clock running),
                // or the delayed-ack segment count was reached.
                self.ack_now(effects);
            } else if !self.delack_armed {
                self.delack_armed = true;
                self.delack_generation += 1;
                effects.push(ReceiverEffect::ArmDelAck {
                    at: now + self.config.delack_timeout,
                    generation: self.delack_generation,
                });
            }
        } else {
            // Hole: buffer and send an immediate duplicate ACK.
            self.ooo.insert(seq);
            self.ack_now(effects);
        }
    }

    /// [`TcpReceiver::on_delack_fired_into`] with its effects in a fresh
    /// `Vec`, for callers that keep no effect buffer of their own.
    pub fn on_delack_fired(&mut self, generation: u64) -> Vec<ReceiverEffect> {
        let mut effects = Vec::new();
        self.on_delack_fired_into(generation, &mut effects);
        effects
    }

    /// Handles a delayed-ACK timer expiry, appending the effects to
    /// `effects`.
    pub fn on_delack_fired_into(&mut self, generation: u64, effects: &mut Vec<ReceiverEffect>) {
        if self.delack_armed && generation == self.delack_generation && self.unacked_inorder > 0 {
            self.ack_now(effects);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    #[test]
    fn sender_initial_window() {
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        let mut fx = Vec::new();
        let p1 = s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        let p2 = s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        assert_eq!(p1.kind, PacketKind::TcpData { seq: 0 });
        assert_eq!(p2.kind, PacketKind::TcpData { seq: 1 });
        // init_cwnd = 2 → third poll blocked.
        assert!(s.poll_packet(SimTime::ZERO, &mut fx).is_none());
        assert_eq!(s.flight(), 2);
        // The first poll armed the RTO.
        assert!(matches!(fx[0], SenderEffect::ArmRto { .. }));
    }

    #[test]
    fn slow_start_doubles_per_ack() {
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        let mut fx = Vec::new();
        while s.poll_packet(SimTime::ZERO, &mut fx).is_some() {}
        let t = SimTime::from_millis(10);
        s.on_ack(t, 1, &mut fx);
        assert_eq!(s.cwnd(), 3.0);
        s.on_ack(t, 2, &mut fx);
        assert_eq!(s.cwnd(), 4.0);
    }

    #[test]
    fn congestion_avoidance_grows_slowly() {
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        s.ssthresh = 2.0; // force CA immediately
        let mut fx = Vec::new();
        while s.poll_packet(SimTime::ZERO, &mut fx).is_some() {}
        s.on_ack(SimTime::from_millis(5), 1, &mut fx);
        assert!((s.cwnd() - 2.5).abs() < 1e-9, "cwnd={}", s.cwnd());
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        s.cwnd = 10.0;
        let mut fx = Vec::new();
        for _ in 0..10 {
            s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        }
        let t = SimTime::from_millis(20);
        // Segment 0 lost; acks for 1..=3 arrive as dupacks of 0.
        s.on_ack(t, 0, &mut fx);
        s.on_ack(t, 0, &mut fx);
        assert!(s.recovery.is_none());
        s.on_ack(t, 0, &mut fx);
        assert!(s.recovery.is_some());
        let (_, retx_before, _) = s.stats();
        assert_eq!(retx_before, 0);
        let p = s.poll_packet(t, &mut fx).unwrap();
        assert_eq!(p.kind, PacketKind::TcpData { seq: 0 }); // the hole
        let (_, retx, _) = s.stats();
        assert_eq!(retx, 1);
        // Full ack exits recovery and deflates to ssthresh.
        s.on_ack(SimTime::from_millis(30), 10, &mut fx);
        assert!(s.recovery.is_none());
        assert_eq!(s.cwnd(), s.ssthresh);
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        // Two losses in one window: the partial ack that covers the
        // first hole must immediately queue a retransmission of the
        // second without leaving fast recovery.
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        s.cwnd = 12.0;
        let mut fx = Vec::new();
        for _ in 0..12 {
            s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        }
        let t = SimTime::from_millis(20);
        // Segments 0 and 5 lost: dupacks of 0 arrive.
        for _ in 0..3 {
            s.on_ack(t, 0, &mut fx);
        }
        assert!(s.recovery.is_some());
        let p = s.poll_packet(t, &mut fx).unwrap();
        assert_eq!(p.kind, PacketKind::TcpData { seq: 0 });
        // Retransmitted 0 arrives; receiver acks up to the second hole.
        s.on_ack(SimTime::from_millis(30), 5, &mut fx);
        assert!(s.recovery.is_some(), "partial ack must stay in recovery");
        let p = s.poll_packet(SimTime::from_millis(30), &mut fx).unwrap();
        assert_eq!(
            p.kind,
            PacketKind::TcpData { seq: 5 },
            "partial ack retransmits the next hole"
        );
        // Full ack ends recovery.
        s.on_ack(SimTime::from_millis(40), 12, &mut fx);
        assert!(s.recovery.is_none());
    }

    #[test]
    fn cumulative_ack_jump_clears_retransmit_queue() {
        // An ack that leaps past queued retransmissions must drop them
        // (they are no longer needed).
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        s.cwnd = 10.0;
        let mut fx = Vec::new();
        for _ in 0..10 {
            s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        }
        let t = SimTime::from_millis(5);
        for _ in 0..3 {
            s.on_ack(t, 0, &mut fx); // fast retransmit queues seq 0
        }
        // Before the retransmission is polled, everything gets acked.
        s.on_ack(SimTime::from_millis(6), 10, &mut fx);
        let p = s.poll_packet(SimTime::from_millis(6), &mut fx);
        // Whatever is sent next must be new data, not a stale retx.
        if let Some(pkt) = p {
            assert_eq!(pkt.kind, PacketKind::TcpData { seq: 10 });
        }
    }

    #[test]
    fn rto_collapses_window_and_goes_back_n() {
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        s.cwnd = 8.0;
        let mut fx = Vec::new();
        for _ in 0..8 {
            s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        }
        let arm = fx
            .iter()
            .find_map(|e| match e {
                SenderEffect::ArmRto { at, generation } => Some((*at, *generation)),
                _ => None,
            })
            .unwrap();
        fx.clear();
        s.on_rto_fired(arm.0, arm.1, &mut fx);
        assert_eq!(s.cwnd(), 1.0);
        assert_eq!(s.flight(), 0);
        let (_, _, timeouts) = s.stats();
        assert_eq!(timeouts, 1);
        // Next emission re-sends segment 0 and is counted a retransmit.
        let p = s.poll_packet(arm.0, &mut fx).unwrap();
        assert_eq!(p.kind, PacketKind::TcpData { seq: 0 });
        let (_, retx, _) = s.stats();
        assert_eq!(retx, 1);
    }

    #[test]
    fn stale_rto_generation_is_ignored() {
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        let mut fx = Vec::new();
        s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        // An ack re-arms with a newer generation.
        s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        s.on_ack(SimTime::from_millis(1), 1, &mut fx);
        s.on_rto_fired(SimTime::from_secs(2), 1, &mut fx); // stale gen
        let (_, _, timeouts) = s.stats();
        assert_eq!(timeouts, 0);
    }

    #[test]
    fn task_completion_fires_once() {
        let c = cfg();
        let mss = c.mss;
        let mut s = TcpSender::new(FlowId(0), c, Some(3 * mss), None);
        let mut fx = Vec::new();
        for _ in 0..2 {
            s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        }
        s.on_ack(SimTime::from_millis(1), 2, &mut fx);
        s.poll_packet(SimTime::from_millis(1), &mut fx).unwrap();
        assert!(s.poll_packet(SimTime::from_millis(1), &mut fx).is_none());
        fx.clear();
        s.on_ack(SimTime::from_millis(2), 3, &mut fx);
        assert!(fx.contains(&SenderEffect::Complete));
        assert!(s.is_complete());
        assert_eq!(s.acked_bytes(), 3 * mss);
        // No further sends after completion.
        assert!(s.poll_packet(SimTime::from_millis(3), &mut fx).is_none());
    }

    #[test]
    fn app_limit_blocks_and_predicts_readiness() {
        let c = cfg();
        // 1 MSS per 100 ms.
        let lim = RateLimiter::new(c.mss as f64 * 8.0 * 10.0, c.mss);
        let mut s = TcpSender::new(FlowId(0), c, None, Some(lim));
        let mut fx = Vec::new();
        assert!(s.poll_packet(SimTime::ZERO, &mut fx).is_some());
        assert!(s.poll_packet(SimTime::ZERO, &mut fx).is_none());
        let ready = s.next_app_ready(SimTime::ZERO).unwrap();
        assert_eq!(ready, SimTime::from_millis(100));
        assert!(s.poll_packet(ready, &mut fx).is_some());
    }

    #[test]
    fn receiver_delays_acks_every_second_segment() {
        let mut r = TcpReceiver::new(FlowId(0), cfg());
        let fx = r.on_data(SimTime::ZERO, 0);
        assert!(matches!(fx[0], ReceiverEffect::ArmDelAck { .. }));
        let fx = r.on_data(SimTime::ZERO, 1);
        assert_eq!(fx, vec![ReceiverEffect::SendAck { ack_seq: 2 }]);
        assert_eq!(r.contiguous_segments(), 2);
    }

    #[test]
    fn receiver_delack_timer_flushes() {
        let mut r = TcpReceiver::new(FlowId(0), cfg());
        let fx = r.on_data(SimTime::ZERO, 0);
        let generation = match fx[0] {
            ReceiverEffect::ArmDelAck { generation, .. } => generation,
            _ => panic!("expected delack arm"),
        };
        let fx = r.on_delack_fired(generation);
        assert_eq!(fx, vec![ReceiverEffect::SendAck { ack_seq: 1 }]);
        // Stale timer does nothing.
        assert!(r.on_delack_fired(generation).is_empty());
    }

    #[test]
    fn receiver_dupacks_on_hole_and_heals() {
        let mut r = TcpReceiver::new(FlowId(0), cfg());
        let fx = r.on_data(SimTime::ZERO, 0);
        assert!(matches!(fx[0], ReceiverEffect::ArmDelAck { .. }));
        // Segment 1 lost; 2 and 3 arrive → immediate dupacks of 1.
        let fx = r.on_data(SimTime::ZERO, 2);
        assert_eq!(fx, vec![ReceiverEffect::SendAck { ack_seq: 1 }]);
        let fx = r.on_data(SimTime::ZERO, 3);
        assert_eq!(fx, vec![ReceiverEffect::SendAck { ack_seq: 1 }]);
        // Retransmission of 1 heals through the buffer.
        let fx = r.on_data(SimTime::ZERO, 1);
        assert_eq!(fx, vec![ReceiverEffect::SendAck { ack_seq: 4 }]);
        assert_eq!(r.contiguous_segments(), 4);
    }

    #[test]
    fn receiver_reacks_duplicates() {
        let mut r = TcpReceiver::new(FlowId(0), cfg());
        r.on_data(SimTime::ZERO, 0);
        r.on_data(SimTime::ZERO, 1);
        let fx = r.on_data(SimTime::ZERO, 0); // duplicate
        assert_eq!(fx, vec![ReceiverEffect::SendAck { ack_seq: 2 }]);
        assert_eq!(r.duplicates(), 1);
    }

    #[test]
    fn window_respects_max_cwnd() {
        let mut c = cfg();
        c.max_cwnd = 4.0;
        c.init_ssthresh = 100.0;
        let mut s = TcpSender::new(FlowId(0), c, None, None);
        let mut fx = Vec::new();
        // Grow cwnd well past the cap.
        for i in 0..50 {
            while s.poll_packet(SimTime::from_millis(i), &mut fx).is_some() {}
            let acked = s.next_seq;
            s.on_ack(SimTime::from_millis(i + 1), acked, &mut fx);
        }
        assert!(s.cwnd() <= 4.0);
        while s.poll_packet(SimTime::from_secs(1), &mut fx).is_some() {}
        assert!(s.flight() <= 4);
    }

    #[test]
    fn ack_beyond_next_seq_is_ignored() {
        let mut s = TcpSender::new(FlowId(0), cfg(), None, None);
        let mut fx = Vec::new();
        s.poll_packet(SimTime::ZERO, &mut fx).unwrap();
        s.on_ack(SimTime::from_millis(1), 50, &mut fx);
        assert_eq!(s.highest_acked, 0);
    }
}
