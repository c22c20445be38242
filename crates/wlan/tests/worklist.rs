//! Liveness of the engine's dirty work-lists.
//!
//! The engine pumps only the flows, and kicks only the client nodes,
//! that some handler marked since their last visit. A handler that
//! forgets its mark leaves a flow that never sends again. That shows
//! up as a starved flow, so every traffic shape the engine supports
//! must keep delivering after the warm-up.

use airtime_obs::{EventRecord, Hook, Observer, QueueSite};
use airtime_phy::DataRate::{B11, B2};
use airtime_sim::{SimDuration, SimTime};
use airtime_wlan::{
    run, run_observed, Direction, FlowSpec, LinkSpec, NetworkConfig, SchedulerKind, StationConfig,
    Transport,
};

/// Two stations (11 and 2 Mbit/s), each carrying one flow of the given
/// shape, over a short run.
fn cell(
    transport: Transport,
    direction: Direction,
    rate_limit_bps: Option<f64>,
    client_queue_cap: Option<usize>,
    scheduler: SchedulerKind,
) -> NetworkConfig {
    let stations = [B11, B2]
        .into_iter()
        .map(|rate| StationConfig {
            link: LinkSpec::Fixed { rate, fer: 0.01 },
            flows: vec![FlowSpec {
                transport,
                direction,
                start: SimTime::ZERO,
                task_bytes: None,
                rate_limit_bps,
            }],
            weight: 1.0,
        })
        .collect();
    let mut cfg = NetworkConfig::new(stations, scheduler);
    cfg.duration = SimDuration::from_secs(3);
    cfg.warmup = SimDuration::from_secs(1);
    if let Some(cap) = client_queue_cap {
        cfg.client_queue_cap = cap;
    }
    cfg
}

#[test]
fn every_flow_shape_keeps_delivering() {
    for transport in [Transport::Tcp, Transport::Udp] {
        for direction in [Direction::Uplink, Direction::Downlink] {
            for limit in [Some(400_000.0), None] {
                for cap in [Some(1), None] {
                    for scheduler in [
                        SchedulerKind::RoundRobin,
                        SchedulerKind::Tbr(Default::default()),
                    ] {
                        let cfg = cell(transport, direction, limit, cap, scheduler);
                        let report = run(&cfg);
                        for f in &report.flows {
                            assert!(
                                f.goodput_bytes > 0,
                                "{transport:?} {direction:?} limit {limit:?} cap {cap:?} \
                                 under {:?}: flow {} starved",
                                cfg.scheduler,
                                f.flow
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Client interface-queue lengths, each tagged with the dispatch it
/// happened after.
#[derive(Default)]
struct ClientQueues {
    dispatches: u64,
    /// `(dispatch ordinal, node, length after the change)`.
    changes: Vec<(u64, u64, u64)>,
}

impl Observer for ClientQueues {
    fn wants(&self, hook: Hook) -> bool {
        matches!(hook, Hook::Dispatch | Hook::QueueChange)
    }

    fn on_dispatch(&mut self, _t: SimTime, _seq: u64, _label: &'static str) {
        self.dispatches += 1;
    }

    fn on_record(&mut self, rec: EventRecord) {
        if let EventRecord::QueueChange {
            site: QueueSite::Client,
            key,
            len,
            ..
        } = rec
        {
            self.changes.push((self.dispatches, key, len));
        }
    }
}

#[test]
fn a_drained_client_queue_is_refilled_in_the_same_step() {
    // A saturated uplink source behind a one-packet interface queue:
    // every kick that hands the queued packet to the MAC empties the
    // queue, and the station's pump must refill it within the same
    // dispatch step, not one dispatch later.
    for transport in [Transport::Udp, Transport::Tcp] {
        let cfg = cell(
            transport,
            Direction::Uplink,
            None,
            Some(1),
            SchedulerKind::RoundRobin,
        );
        let mut obs = ClientQueues::default();
        let _ = run_observed(&cfg, &mut obs);
        // For each drain: was the queue's next change, in the same
        // step, the refill?
        let refills: Vec<bool> = obs
            .changes
            .iter()
            .enumerate()
            .filter(|&(_, &(_, _, len))| len == 0)
            .map(|(i, &(step, node, _))| {
                obs.changes[i + 1..]
                    .iter()
                    .find(|&&(_, n, _)| n == node)
                    .is_some_and(|&(s, _, len)| s == step && len == 1)
            })
            .collect();
        let drained = refills.iter().filter(|&&r| r).count();
        // The UDP source always has a datagram ready; a TCP sender
        // refills whenever its window allows.
        if transport == Transport::Udp {
            assert!(
                refills.iter().all(|&r| r),
                "a drained UDP queue waited for a later step"
            );
        }
        assert!(
            drained > 100,
            "{transport:?}: only {drained} same-step refills"
        );
    }
}
