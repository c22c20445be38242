//! Isolated drives of single layers through their public APIs, sized
//! from the workload being traced: the event queue at the workload's
//! measured depth, the DCF MAC at its station count and rates, a TCP
//! sender/receiver loopback, and every scheduler family at its client
//! count.

use std::hint::black_box;
use std::time::Instant;

use airtime_mac::{DcfConfig, DcfWorld, Frame, MacEffect, MacEvent, NodeId};
use airtime_net::{FlowId, PacketKind, ReceiverEffect, TcpConfig, TcpReceiver, TcpSender};
use airtime_obs::prof::{alloc_stats, set_alloc_counting};
use airtime_phy::{DataRate, LinkErrorModel, Phy80211b};
use airtime_sched::{ClientId, QueuedPacket, Scheduler, SchedulerKind};
use airtime_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::gen::Rng;

/// Cost of one operation of an isolated layer drive.
pub struct Probe {
    pub ns_per_op: f64,
    pub allocs_per_op: f64,
}

/// Times the operations run by `drive`, counting their allocations.
/// `drive` returns how many operations it completed.
fn measure(drive: impl FnOnce() -> u64) -> Probe {
    set_alloc_counting(true);
    let a0 = alloc_stats();
    let t0 = Instant::now();
    let ops = drive().max(1);
    let wall = t0.elapsed();
    let allocs = alloc_stats().since(a0).allocs;
    set_alloc_counting(false);
    Probe {
        ns_per_op: wall.as_nanos() as f64 / ops as f64,
        allocs_per_op: allocs as f64 / ops as f64,
    }
}

const QUEUE_OPS: u64 = 1_000_000;

/// One pop plus one schedule on an event queue held at `depth` events
/// (the hold model: the queue's length stays put).
pub fn queue(depth: usize, seed: u64) -> Probe {
    let mut rng = Rng::new(seed);
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) as u64 {
        q.schedule(SimTime::from_micros(rng.below(10_000)), i);
    }
    let deltas: Vec<SimDuration> = (0..1024)
        .map(|_| SimDuration::from_micros(rng.below(10_000)))
        .collect();
    measure(|| {
        for i in 0..QUEUE_OPS {
            let (t, e) = q.pop().expect("the queue never drains");
            q.schedule(t + deltas[(i & 1023) as usize], black_box(e));
        }
        QUEUE_OPS
    })
}

const MAC_EVENTS: u64 = 200_000;

/// Saturated uplink DCF: every client always has a 1500-byte frame for
/// the AP at its own rate; counts `DcfWorld::handle` dispatches.
pub fn mac(rates: &[DataRate], seed: u64) -> Probe {
    let n = rates.len();
    let mut world = DcfWorld::new(
        DcfConfig {
            phy: Phy80211b::default(),
            ap: NodeId(0),
            retry_rate_fallback: false,
            rts_threshold: None,
        },
        vec![LinkErrorModel::FixedFer(0.01); n + 1],
        SimRng::new(seed),
    );
    let mut queue: EventQueue<MacEvent> = EventQueue::new();
    let mut handle = 0u64;
    let mut offer = |world: &mut DcfWorld, queue: &mut EventQueue<MacEvent>, now, node: usize| {
        let frame = Frame {
            src: NodeId(node),
            dst: NodeId(0),
            msdu_bytes: 1500,
            rate: rates[node - 1],
            handle,
        };
        handle += 1;
        if let Ok(fx) = world.offer_frame(now, frame) {
            schedule_all(queue, fx);
        }
    };
    measure(|| {
        for node in 1..=n {
            offer(&mut world, &mut queue, SimTime::ZERO, node);
        }
        let mut events = 0;
        while events < MAC_EVENTS {
            let Some((t, ev)) = queue.pop() else { break };
            events += 1;
            schedule_all(&mut queue, world.handle(t, ev));
            for node in 1..=n {
                if world.can_accept(NodeId(node)) {
                    offer(&mut world, &mut queue, t, node);
                }
            }
        }
        black_box(world.stats());
        events
    })
}

fn schedule_all(queue: &mut EventQueue<MacEvent>, fx: Vec<MacEffect>) {
    for e in fx {
        if let MacEffect::Schedule { at, event } = e {
            queue.schedule(at, event);
        }
    }
}

const NET_SEGMENTS: u64 = 300_000;

/// A lossless sender → receiver → sender loopback: each round trip
/// sends the whole congestion window, delivers it, fires the delayed
/// ACK and returns the ACKs. Counts data segments.
pub fn net() -> Probe {
    let cfg = TcpConfig::default();
    let mut tx = TcpSender::new(FlowId(0), cfg.clone(), None, None);
    let mut rx = TcpReceiver::new(FlowId(0), cfg);
    let mut fx = Vec::new();
    let mut acks = Vec::new();
    let rtt = SimDuration::from_millis(5);
    measure(|| {
        let mut now = SimTime::ZERO;
        let mut segments = 0;
        while segments < NET_SEGMENTS {
            let mut delack = None;
            let on_receiver = |effects: Vec<ReceiverEffect>,
                               acks: &mut Vec<u64>,
                               delack: &mut Option<u64>| {
                for e in effects {
                    match e {
                        ReceiverEffect::SendAck { ack_seq } => acks.push(ack_seq),
                        ReceiverEffect::ArmDelAck { generation, .. } => *delack = Some(generation),
                    }
                }
            };
            while let Some(p) = tx.poll_packet(now, &mut fx) {
                if let PacketKind::TcpData { seq } = p.kind {
                    segments += 1;
                    on_receiver(rx.on_data(now, seq), &mut acks, &mut delack);
                }
            }
            if let Some(g) = delack {
                on_receiver(rx.on_delack_fired(g), &mut acks, &mut delack);
            }
            if acks.is_empty() {
                break; // a stalled window: stop rather than spin
            }
            now += rtt;
            for a in acks.drain(..) {
                tx.on_ack(now, a, &mut fx);
            }
            fx.clear();
        }
        black_box(tx.stats());
        segments
    })
}

const SCHED_CYCLES: u64 = 300_000;

/// One enqueue, dequeue and completion per cycle for `family` with one
/// client per entry of `rates`; time advances by the dequeued client's
/// exchange time, or to the scheduler's wake-up when it holds packets
/// back.
pub fn sched(family: &str, rates: &[DataRate]) -> Probe {
    let kind = SchedulerKind::from_family(family).expect("a registered family");
    let mut s: Box<dyn Scheduler> = kind.build();
    let clients = rates.len().max(1);
    for c in 0..clients {
        s.on_associate_weighted(ClientId(c), 1.0, SimTime::ZERO);
    }
    let phy = Phy80211b::default();
    let air: Vec<SimDuration> = rates.iter().map(|&r| phy.exchange_time(1500, r)).collect();
    let period = s.tick_period();
    measure(|| {
        let mut now = SimTime::ZERO;
        let mut next_tick = period.map(|p| SimTime::ZERO + p);
        for i in 0..SCHED_CYCLES {
            let pkt = QueuedPacket {
                client: ClientId(i as usize % clients),
                handle: i,
                bytes: 1500,
            };
            s.enqueue(pkt, now);
            match s.dequeue(now) {
                Some(p) => {
                    let a = air[p.client.index() % air.len()];
                    now += a;
                    s.on_complete(p.client, a, true, now);
                }
                None => {
                    now = s
                        .next_wake(now)
                        .filter(|&w| w > now)
                        .unwrap_or(now + SimDuration::from_micros(100));
                }
            }
            if let (Some(p), Some(t)) = (period, next_tick) {
                if now >= t {
                    s.on_tick(now);
                    next_tick = Some(now + p);
                }
            }
        }
        black_box(s.drops());
        SCHED_CYCLES
    })
}
