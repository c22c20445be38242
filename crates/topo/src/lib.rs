//! Multi-cell WLAN topology engine.
//!
//! The paper's evaluation lives in a single cell — one AP, stations at
//! fixed positions. This crate scales that testbed out: several APs
//! with positions and channel assignments, stations placed on a floor
//! plan, deterministic waypoint mobility, and an RSSI-driven
//! association manager with hysteresis-based handoff. Each cell runs
//! the unmodified single-cell engine (so the paper's per-cell results
//! — time-based fairness, the baseline property — hold verbatim inside
//! every cell); a lockstep multiplexer interleaves the cells on one
//! shared timeline and couples co-channel cells through carrier sense.
//!
//! The headline experiment: a 1 Mbit/s client walks through three
//! 11 Mbit/s cells. Under TBR each cell it visits keeps its baseline
//! property (fast stations unharmed beyond the time-fair share);
//! handoffs flush the old AP's per-station queue and re-register
//! tokens at the new AP.
//!
//! # Examples
//!
//! ```
//! use airtime_phy::DataRate;
//! use airtime_sim::SimDuration;
//! use airtime_obs::NullObserver;
//! use airtime_topo::{run_topology, Placement, Point, TopologyConfig, WaypointPath, RatePolicy};
//! use airtime_wlan::{scenarios, SchedulerKind};
//!
//! // Two cells, one walker crossing between them.
//! let mut base = scenarios::uploaders(
//!     &[DataRate::B11, DataRate::B1],
//!     SchedulerKind::RoundRobin,
//! );
//! base.duration = SimDuration::from_secs(20);
//! let mut topo = TopologyConfig::line(base, 2, 120.0, &[1, 6]);
//! topo.placements[1] = Placement {
//!     position: Point::new(10.0, 10.0),
//!     mobility: Some(WaypointPath::new(
//!         vec![Point::new(10.0, 10.0), Point::new(110.0, 10.0)],
//!         6.0,
//!     )),
//!     rate: RatePolicy::Pinned(DataRate::B1),
//! };
//! let report = run_topology(&topo, &mut [NullObserver; 2]);
//! assert_eq!(report.cells.len(), 2);
//! ```

pub mod config;
pub mod engine;
pub mod geom;
pub mod mobility;
pub mod report;

pub use config::{AssocDecision, CellSpec, Placement, RatePolicy, TopologyConfig};
pub use engine::{run_topology, run_topology_profiled, CellLaneProfile, TopoProfile};
pub use geom::Point;
pub use mobility::WaypointPath;
pub use report::{HandoffRecord, RoamingReport, TopoReport, Visit};
