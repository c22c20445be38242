//! Liveness of the engine's dirty work-lists.
//!
//! The engine pumps only the flows, and kicks only the client nodes,
//! that some handler marked since their last visit. A handler that
//! forgets its mark leaves a flow that never sends again. That shows
//! up as a starved flow, so every traffic shape the engine supports
//! must keep delivering after the warm-up.

use airtime_phy::DataRate::{B11, B2};
use airtime_sim::{SimDuration, SimTime};
use airtime_wlan::{
    run, Direction, FlowSpec, LinkSpec, NetworkConfig, SchedulerKind, StationConfig, Transport,
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
