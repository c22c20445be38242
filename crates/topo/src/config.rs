//! Describing a multi-cell topology.
//!
//! A topology is the single-cell [`NetworkConfig`] template plus
//! spatial structure: AP positions and channels, station placements
//! (with optional waypoint mobility), and the association policy
//! (RSSI floor + hysteresis). Every cell inherits the template's
//! scheduler, PHY, TCP and determinism knobs; per-cell RNG streams are
//! split deterministically from the template seed.

use airtime_phy::pathloss::feet_to_metres;
use airtime_phy::{DataRate, LinkErrorModel, RateSet};
use airtime_sim::SimDuration;
use airtime_wlan::{ConfigError, NetworkConfig};

use crate::geom::Point;
use crate::mobility::WaypointPath;

/// One access point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CellSpec {
    /// Where the AP sits on the floor plan.
    pub position: Point,
    /// 802.11 channel number. Cells sharing a channel form one
    /// carrier-sense domain (they defer to each other's exchanges);
    /// distinct channels run as independent DCF domains.
    pub channel: u8,
}

/// How a station's PHY rate is chosen.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RatePolicy {
    /// Always transmit at this rate, wherever the station is — the
    /// paper's fixed-rate experiment style (Table 2's "1 Mbps
    /// client"). Frame errors still grow with distance through the
    /// path-loss link model.
    Pinned(DataRate),
    /// Re-select the fastest rate whose receiver sensitivity the
    /// current RSSI clears, from the configured [`RateSet`], at every
    /// management tick. A deterministic stand-in for vendor rate
    /// adaptation across cells.
    Auto,
}

/// One station's spatial description. Index-aligned with
/// `base.stations` (which contributes flows, weight and transport
/// parameters).
#[derive(Clone, PartialEq, Debug)]
pub struct Placement {
    /// Starting position (ignored when `mobility` is set — the path's
    /// first waypoint wins).
    pub position: Point,
    /// Waypoint walk, if the station roams.
    pub mobility: Option<WaypointPath>,
    /// PHY rate selection policy.
    pub rate: RatePolicy,
}

impl Placement {
    /// A static station at `position` pinned to `rate`.
    pub fn fixed(position: Point, rate: DataRate) -> Self {
        Placement {
            position,
            mobility: None,
            rate: RatePolicy::Pinned(rate),
        }
    }

    /// Position after `elapsed` of simulated time.
    pub fn position_at(&self, elapsed: SimDuration) -> Point {
        match &self.mobility {
            Some(path) => path.position(elapsed),
            None => self.position,
        }
    }
}

/// A multi-cell experiment: the single-cell template plus spatial and
/// roaming structure.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// The per-cell simulation template. `stations` here carries each
    /// station's flows/weight; the topology decides where stations are
    /// and which AP they associate with.
    pub base: NetworkConfig,
    /// The access points.
    pub cells: Vec<CellSpec>,
    /// Station placements, index-aligned with `base.stations`.
    pub placements: Vec<Placement>,
    /// Rate family advertised by the APs (sets the association floor
    /// and the `RatePolicy::Auto` selection table).
    pub rate_set: RateSet,
    /// A station hands off only when a candidate AP's RSSI beats the
    /// serving AP's by this margin (dB). Hysteresis suppresses
    /// ping-pong at cell boundaries.
    pub hysteresis_db: f64,
    /// Association floor, dBm: below this RSSI a station cannot join
    /// (and a serving association is torn down → outage).
    pub min_rssi_dbm: f64,
    /// Management-plane cadence: mobility positions, link models and
    /// association decisions update on this grid.
    pub assoc_tick: SimDuration,
}

impl TopologyConfig {
    /// A topology over `base` with APs in a west-to-east line at
    /// `spacing_ft`, channels assigned round-robin from `channels`.
    /// Placements default to static stations pinned at the template's
    /// fixed link rate (or 11 Mbit/s) at the first AP; callers then
    /// override the roamers.
    pub fn line(base: NetworkConfig, ap_count: usize, spacing_ft: f64, channels: &[u8]) -> Self {
        assert!(ap_count > 0, "need at least one AP");
        assert!(!channels.is_empty(), "need at least one channel");
        let cells = (0..ap_count)
            .map(|i| CellSpec {
                position: Point::new(i as f64 * spacing_ft, 0.0),
                channel: channels[i % channels.len()],
            })
            .collect();
        let placements = base
            .stations
            .iter()
            .map(|st| Placement::fixed(Point::new(0.0, 10.0), st.link.rate()))
            .collect();
        TopologyConfig {
            base,
            cells,
            placements,
            rate_set: RateSet::B,
            hysteresis_db: 6.0,
            min_rssi_dbm: RateSet::B.association_floor_dbm(),
            assoc_tick: SimDuration::from_millis(100),
        }
    }

    /// Checks the template ([`NetworkConfig::validate`]), then the
    /// cells, the association policy and the placements, naming the
    /// first offending field (with its cell or station index). The
    /// engine calls this on entry.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.base.validate()?;
        if self.cells.is_empty() {
            return Err(ConfigError::new("cells", "a topology needs a cell"));
        }
        if let Some(c) = self.cells.iter().position(|c| c.channel == 0) {
            let e = ConfigError::key("channel", "expects a channel number in 1..=255");
            return Err(ConfigError { cell: Some(c), ..e });
        }
        let h = self.hysteresis_db;
        let rule = "expects a non-negative margin";
        ConfigError::check(h >= 0.0 && h.is_finite(), "hysteresis_db", rule)?;
        let (floor, field) = (self.min_rssi_dbm, "min_rssi_dbm");
        ConfigError::check(floor.is_finite(), field, "expects a finite dBm value")?;
        // The path-loss model clamps at 1 m, so no placement ever sees
        // more than this; a floor above it admits no station.
        let strongest = self.base.path_loss.rssi_dbm(0.0, &[], 0.0);
        if floor > strongest {
            let rule = format!(
                "= {floor} is above the strongest RSSI any station can see \
                 ({strongest} dBm, 1 m from an AP), so no station could associate"
            );
            return Err(ConfigError::key(field, &rule));
        }
        let tick = !self.assoc_tick.is_zero();
        ConfigError::check(tick, "assoc_tick_ms", "expects a positive period")?;
        if self.placements.len() != self.base.stations.len() {
            let msg = "placements must be index-aligned with base.stations";
            return Err(ConfigError::new("placements", msg));
        }
        for (s, p) in self.placements.iter().enumerate() {
            let Some(path) = &p.mobility else { continue };
            let (v, walk) = (path.speed_fps, !path.waypoints.is_empty());
            ConfigError::check(walk, "x_ft", "expects at least one waypoint")
                .and(ConfigError::check(
                    v > 0.0 && v.is_finite(),
                    "speed_fps",
                    "expects a positive speed",
                ))
                .map_err(|e| ConfigError {
                    station: Some(s),
                    ..e
                })?;
        }
        Ok(())
    }

    /// RSSI (dBm) a station at `p` sees from `cell`'s AP. Distances
    /// shorter than a foot clamp to one foot — the log-distance model
    /// diverges at zero range.
    pub fn rssi_dbm(&self, p: Point, cell: usize) -> f64 {
        let d = p.distance_ft(self.cells[cell].position).max(1.0);
        self.base.path_loss.rssi_dbm(feet_to_metres(d), &[], 0.0)
    }

    /// The channel error model for a station `distance_ft` from its
    /// serving AP.
    pub fn link_at(&self, distance_ft: f64) -> LinkErrorModel {
        self.base
            .path_loss
            .link(feet_to_metres(distance_ft.max(1.0)), &[], 0.0)
    }

    /// The PHY rate a station at `p`, policy `rate`, uses towards
    /// `cell`. `Auto` picks the fastest rate in `rate_set` whose
    /// sensitivity the RSSI clears, falling back to the base rate when
    /// even that is marginal (the association floor is checked
    /// separately).
    pub fn rate_towards(&self, p: Point, cell: usize, rate: RatePolicy) -> DataRate {
        match rate {
            RatePolicy::Pinned(r) => r,
            RatePolicy::Auto => self
                .rate_set
                .best_rate_at(self.rssi_dbm(p, cell))
                .unwrap_or(self.rate_set.base_rate()),
        }
    }

    /// The association decision for a station currently served by
    /// `current` seeing per-cell RSSIs `rssi`. Ties go to the lowest
    /// cell id, keeping the decision deterministic.
    pub fn decide(&self, current: Option<usize>, rssi: &[f64]) -> AssocDecision {
        let Some(best) =
            (0..rssi.len()).max_by(|&a, &b| rssi[a].partial_cmp(&rssi[b]).expect("finite RSSI"))
        else {
            return AssocDecision::Stay;
        };
        match current {
            Some(c) => {
                if rssi[c] < self.min_rssi_dbm {
                    // Lost the serving AP. Rescue handoff to the best
                    // candidate if it clears the floor (no hysteresis:
                    // any port in a storm), else drop to outage.
                    if best != c && rssi[best] >= self.min_rssi_dbm {
                        AssocDecision::Join(best)
                    } else {
                        AssocDecision::Drop
                    }
                } else if best != c && rssi[best] > rssi[c] + self.hysteresis_db {
                    AssocDecision::Join(best)
                } else {
                    AssocDecision::Stay
                }
            }
            None => {
                if rssi[best] >= self.min_rssi_dbm {
                    AssocDecision::Join(best)
                } else {
                    AssocDecision::Stay
                }
            }
        }
    }
}

/// Outcome of one association check (see [`TopologyConfig::decide`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssocDecision {
    /// Keep the current state (serving AP, or remain unassociated).
    Stay,
    /// Associate with — or hand off to — this cell.
    Join(usize),
    /// Tear the serving association down; no candidate clears the
    /// floor (outage).
    Drop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WaypointPath;
    use airtime_wlan::{scenarios, SchedulerKind};

    fn topo() -> TopologyConfig {
        let base = scenarios::uploaders(&[DataRate::B11, DataRate::B1], SchedulerKind::RoundRobin);
        TopologyConfig::line(base, 3, 150.0, &[1, 6, 11])
    }

    #[test]
    fn line_generator_spaces_aps_and_cycles_channels() {
        let t = topo();
        assert_eq!(t.cells.len(), 3);
        assert_eq!(t.cells[1].position, Point::new(150.0, 0.0));
        assert_eq!(t.cells[2].position, Point::new(300.0, 0.0));
        assert_eq!(
            t.cells.iter().map(|c| c.channel).collect::<Vec<_>>(),
            vec![1, 6, 11]
        );
        t.validate().unwrap();
    }

    #[test]
    fn rssi_falls_with_distance() {
        let t = topo();
        let near = t.rssi_dbm(Point::new(10.0, 0.0), 0);
        let far = t.rssi_dbm(Point::new(120.0, 0.0), 0);
        assert!(near > far, "closer must be stronger: {near} vs {far}");
    }

    #[test]
    fn hysteresis_suppresses_marginal_handoffs() {
        let t = topo();
        // Candidate better, but within the margin: stay.
        assert_eq!(
            t.decide(Some(0), &[-60.0, -55.0, -90.0]),
            AssocDecision::Stay
        );
        // Candidate clears the margin: switch.
        assert_eq!(
            t.decide(Some(0), &[-60.0, -50.0, -90.0]),
            AssocDecision::Join(1)
        );
        // Already best: stay.
        assert_eq!(
            t.decide(Some(1), &[-60.0, -50.0, -90.0]),
            AssocDecision::Stay
        );
    }

    #[test]
    fn floor_governs_join_and_outage() {
        let mut t = topo();
        t.min_rssi_dbm = -85.0;
        // Unassociated, everything below floor: stay out.
        assert_eq!(t.decide(None, &[-90.0, -95.0, -99.0]), AssocDecision::Stay);
        // Unassociated, one candidate above floor: join it.
        assert_eq!(
            t.decide(None, &[-80.0, -95.0, -99.0]),
            AssocDecision::Join(0)
        );
        // Serving AP lost, best candidate also below floor: outage.
        assert_eq!(
            t.decide(Some(0), &[-90.0, -95.0, -99.0]),
            AssocDecision::Drop
        );
        // Serving AP lost but a neighbour is fine: rescue handoff even
        // inside the hysteresis margin.
        assert_eq!(
            t.decide(Some(0), &[-90.0, -84.0, -99.0]),
            AssocDecision::Join(1)
        );
    }

    #[test]
    fn auto_rate_tracks_rssi() {
        let t = topo();
        let near = t.rate_towards(Point::new(5.0, 0.0), 0, RatePolicy::Auto);
        assert_eq!(near, DataRate::B11);
        let pinned = t.rate_towards(Point::new(5.0, 0.0), 0, RatePolicy::Pinned(DataRate::B1));
        assert_eq!(pinned, DataRate::B1);
    }

    /// The error `edit` provokes on a valid three-cell topology.
    fn broken(edit: impl FnOnce(&mut TopologyConfig)) -> ConfigError {
        let mut t = topo();
        edit(&mut t);
        t.validate().expect_err("the edit breaks a rule")
    }

    #[test]
    fn template_rules_pass_through() {
        let e = broken(|t| t.base.stations[1].weight = -1.0);
        assert_eq!((e.field, e.station), ("weight", Some(1)));
        let e = broken(|t| t.base.client_queue_cap = 0);
        assert_eq!(e.field, "client_queue_cap");
    }

    #[test]
    fn cell_rules_name_the_cell() {
        let e = broken(|t| t.cells.clear());
        assert_eq!(e.field, "cells");
        let e = broken(|t| t.cells[2].channel = 0);
        assert_eq!((e.field, e.cell), ("channel", Some(2)));
        assert_eq!(e.msg, "key 'channel' expects a channel number in 1..=255");
        assert_eq!(e.to_string(), format!("cell 2: {}", e.msg));
    }

    #[test]
    fn association_policy_rules() {
        for h in [-1.0, f64::NAN, f64::INFINITY] {
            let e = broken(|t| t.hysteresis_db = h);
            assert_eq!(e.msg, "key 'hysteresis_db' expects a non-negative margin");
        }
        for floor in [f64::NAN, f64::NEG_INFINITY] {
            let e = broken(|t| t.min_rssi_dbm = floor);
            assert_eq!(e.msg, "key 'min_rssi_dbm' expects a finite dBm value");
        }
        let e = broken(|t| t.assoc_tick = SimDuration::ZERO);
        assert_eq!(e.msg, "key 'assoc_tick_ms' expects a positive period");
        let e = broken(|t| t.placements.truncate(1));
        assert_eq!(e.field, "placements");
    }

    #[test]
    fn a_floor_no_position_can_clear_is_rejected() {
        // The default model gives -25 dBm at its 1 m clamp: a station on
        // top of an AP clears -25 but nothing clears -24.9 or 1000.
        let mut t = topo();
        let strongest = t.rssi_dbm(t.cells[0].position, 0);
        assert_eq!(strongest, -25.0);
        t.min_rssi_dbm = strongest;
        t.validate().unwrap();
        for floor in [-24.9, 1000.0] {
            let e = broken(|t| t.min_rssi_dbm = floor);
            assert_eq!(e.field, "min_rssi_dbm");
            assert!(e.msg.contains("above the strongest RSSI"), "{e}");
        }
    }

    #[test]
    fn mobility_rules_name_the_station() {
        let walk = |speed_fps, waypoints| {
            move |t: &mut TopologyConfig| {
                t.placements[1].mobility = Some(WaypointPath {
                    waypoints,
                    speed_fps,
                })
            }
        };
        let line = vec![Point::new(0.0, 10.0), Point::new(300.0, 10.0)];
        for speed in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let e = broken(walk(speed, line.clone()));
            assert_eq!((e.field, e.station), ("speed_fps", Some(1)));
            assert_eq!(e.msg, "key 'speed_fps' expects a positive speed");
        }
        let e = broken(walk(15.0, Vec::new()));
        assert_eq!((e.field, e.station), ("x_ft", Some(1)));
        let mut t = topo();
        walk(15.0, line)(&mut t);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "key 'assoc_tick_ms' expects a positive period")]
    fn run_topology_panics_with_the_validators_message() {
        let mut t = topo();
        t.assoc_tick = SimDuration::ZERO;
        crate::run_topology(&t, &mut [airtime_obs::NullObserver; 3]);
    }
}
