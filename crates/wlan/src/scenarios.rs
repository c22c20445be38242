//! Ready-made configurations for every experiment in the paper.
//!
//! Each function returns a [`NetworkConfig`] matching one of the
//! paper's setups. The scenario presets under `examples/scenarios/`
//! define the same runs as data (`crates/scenario/tests/engine.rs` pins
//! each preset to its builder, seed for seed), and the integration
//! tests and examples call the builders directly. Durations here are
//! the full paper-faithful ones; tests shorten them via the returned
//! struct.

use airtime_phy::{DataRate, Wall};
use airtime_sim::SimTime;

use crate::config::{
    Direction, FlowSpec, LinkSpec, NetworkConfig, SchedulerKind, StationConfig, Transport,
};

/// N stations, each with one greedy TCP flow in `direction`, at the
/// given `rates`, low-loss links (the paper's standard experiment).
pub fn tcp_stations(
    rates: &[DataRate],
    direction: Direction,
    scheduler: SchedulerKind,
) -> NetworkConfig {
    let stations = rates
        .iter()
        .map(|&r| StationConfig::tcp_at(r, direction))
        .collect();
    NetworkConfig::new(stations, scheduler)
}

/// Uplink TCP stations (Figures 2, 3, 8b, 9b and Table 2 use this
/// shape).
pub fn uploaders(rates: &[DataRate], scheduler: SchedulerKind) -> NetworkConfig {
    tcp_stations(rates, Direction::Uplink, scheduler)
}

/// Downlink TCP stations (Figures 8a and 9a).
pub fn downloaders(rates: &[DataRate], scheduler: SchedulerKind) -> NetworkConfig {
    tcp_stations(rates, Direction::Downlink, scheduler)
}

/// Figure 4: `n` stations at 11 Mbit/s all running the same transport
/// in the same direction.
pub fn updown_baseline(
    n: usize,
    transport: Transport,
    direction: Direction,
    scheduler: SchedulerKind,
) -> NetworkConfig {
    let flow = match transport {
        Transport::Tcp => FlowSpec::tcp(direction),
        Transport::Udp => FlowSpec::udp(direction),
    };
    let stations = (0..n)
        .map(|_| StationConfig {
            link: LinkSpec::Fixed {
                rate: DataRate::B11,
                fer: 0.01,
            },
            flows: vec![flow.clone()],
            weight: 1.0,
        })
        .collect();
    NetworkConfig::new(stations, scheduler)
}

/// EXP-1 (§3, Figure 1): an AP in an 18′×14′ office saturating four
/// UDP receivers at 4′, 12′ (one thin wall), 26′ (two thin walls) and
/// 30′ (two thick walls). Shadowing is site-calibrated (see
/// `airtime-phy::pathloss`) so the far nodes settle at low rates, as
/// the published figure shows. ARF starts everyone at 11 Mbit/s.
pub fn exp1_office(scheduler: SchedulerKind) -> NetworkConfig {
    let geometry: [(f64, Vec<Wall>, f64); 4] = [
        (4.0, vec![], 0.0),
        (12.0, vec![Wall::ThinWood], 0.0),
        (26.0, vec![Wall::ThinWood, Wall::ThinWood], 33.8),
        (30.0, vec![Wall::Thick, Wall::Thick], 17.8),
    ];
    let stations = geometry
        .into_iter()
        .map(|(distance_ft, walls, shadow_db)| StationConfig {
            link: LinkSpec::Path {
                distance_ft,
                walls,
                shadow_db,
                initial_rate: DataRate::B11,
            },
            flows: vec![FlowSpec::udp(Direction::Downlink)],
            weight: 1.0,
        })
        .collect();
    let mut cfg = NetworkConfig::new(stations, scheduler);
    cfg.retry_rate_fallback = true;
    cfg.arf.adaptive = true; // AARF: stop paying for hopeless probes
    cfg
}

/// Table 3's node mix: 1, 2, 11, 11 Mbit/s uploaders.
pub fn four_node_mix(scheduler: SchedulerKind) -> NetworkConfig {
    uploaders(
        &[DataRate::B1, DataRate::B2, DataRate::B11, DataRate::B11],
        scheduler,
    )
}

/// Table 4: two 11 Mbit/s uploaders, n2 application-limited to
/// 2.1 Mbit/s (the max-min rate-adjustment test).
pub fn bottleneck_table4(scheduler: SchedulerKind) -> NetworkConfig {
    let mut cfg = uploaders(&[DataRate::B11, DataRate::B11], scheduler);
    cfg.stations[1].flows[0].rate_limit_bps = Some(2_100_000.0);
    cfg
}

/// Task-model experiment (Table 1): every station uploads the same
/// number of bytes, then stops; completion times are reported.
pub fn task_model(rates: &[DataRate], task_bytes: u64, scheduler: SchedulerKind) -> NetworkConfig {
    let stations = rates
        .iter()
        .map(|&r| StationConfig {
            link: LinkSpec::Fixed { rate: r, fer: 0.01 },
            flows: vec![FlowSpec {
                transport: Transport::Tcp,
                direction: Direction::Uplink,
                start: SimTime::ZERO,
                task_bytes: Some(task_bytes),
                rate_limit_bps: None,
            }],
            weight: 1.0,
        })
        .collect();
    let mut cfg = NetworkConfig::new(stations, scheduler);
    cfg.warmup = airtime_sim::SimDuration::ZERO; // completion times need t=0
    cfg.duration = airtime_sim::SimDuration::from_secs(600);
    cfg
}

/// A forward-looking mixed 802.11b/802.11g cell (§1/§7: "802.11g users
/// may see far less performance improvement than expected").
pub fn mixed_bg(scheduler: SchedulerKind) -> NetworkConfig {
    uploaders(&[DataRate::G54, DataRate::B11, DataRate::B1], scheduler)
}

/// Hotspot workload (§4.5): "congestion in *hotspot* access networks
/// may be caused by many short-lived flows with diverse data rates,
/// each sending only dozens of packets." Each station runs a train of
/// short download tasks back to back; the paper flags TBR's
/// responsiveness here as an open question, so the scenario exists to
/// measure it.
///
/// `flow_bytes` is the size of each short task and `flows_per_station`
/// how many run in sequence (spaced by `gap`).
pub fn hotspot_short_flows(
    rates: &[DataRate],
    flow_bytes: u64,
    flows_per_station: usize,
    gap: airtime_sim::SimDuration,
    scheduler: SchedulerKind,
) -> NetworkConfig {
    let stations = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let flows = (0..flows_per_station)
                .map(|k| FlowSpec {
                    transport: Transport::Tcp,
                    direction: Direction::Downlink,
                    // Stagger stations so arrivals interleave.
                    start: SimTime::ZERO + gap * (k * rates.len() + i) as u64,
                    task_bytes: Some(flow_bytes),
                    rate_limit_bps: None,
                })
                .collect();
            StationConfig {
                link: LinkSpec::Fixed { rate, fer: 0.01 },
                flows,
                weight: 1.0,
            }
        })
        .collect();
    let mut cfg = NetworkConfig::new(stations, scheduler);
    cfg.warmup = airtime_sim::SimDuration::ZERO;
    cfg.duration = airtime_sim::SimDuration::from_secs(120);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_shape_checks() {
        let cfg = uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::Fifo);
        assert_eq!(cfg.stations.len(), 2);
        assert!(matches!(
            cfg.stations[0].flows[0].direction,
            Direction::Uplink
        ));
        let cfg = downloaders(&[DataRate::B11], SchedulerKind::tbr());
        assert!(matches!(
            cfg.stations[0].flows[0].direction,
            Direction::Downlink
        ));
        let cfg = updown_baseline(3, Transport::Udp, Direction::Downlink, SchedulerKind::Fifo);
        assert_eq!(cfg.stations.len(), 3);
        assert_eq!(cfg.stations[0].flows[0].transport, Transport::Udp);
    }

    #[test]
    fn exp1_has_path_links() {
        let cfg = exp1_office(SchedulerKind::RoundRobin);
        assert_eq!(cfg.stations.len(), 4);
        assert!(cfg
            .stations
            .iter()
            .all(|s| matches!(s.link, LinkSpec::Path { .. })));
    }

    #[test]
    fn table4_limits_n2_only() {
        let cfg = bottleneck_table4(SchedulerKind::tbr());
        assert!(cfg.stations[0].flows[0].rate_limit_bps.is_none());
        assert_eq!(cfg.stations[1].flows[0].rate_limit_bps, Some(2_100_000.0));
    }

    #[test]
    fn task_model_has_no_warmup() {
        let cfg = task_model(
            &[DataRate::B11, DataRate::B1],
            1_000_000,
            SchedulerKind::tbr(),
        );
        assert!(cfg.warmup.is_zero());
        assert_eq!(cfg.stations[0].flows[0].task_bytes, Some(1_000_000));
    }
}
