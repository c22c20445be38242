//! The integrated multi-rate WLAN simulator.
//!
//! This crate assembles the substrates into the paper's testbed: one
//! access point and a set of client stations share a DCF medium
//! (`airtime-mac`); TCP and UDP flows run across the cell and a wired
//! backbone (`airtime-net`); and the AP's transmit path runs one of the
//! pluggable queue disciplines from `airtime-core` — the stock FIFO or
//! round-robin of *Exp-Normal*, or TBR for *Exp-TBR*, switchable with
//! one config line exactly as the paper switches driver builds.
//!
//! [`NetworkConfig`] describes an experiment; [`run`] executes it
//! deterministically and returns a [`Report`] with per-flow goodputs,
//! per-node channel-occupancy shares, task completion times and MAC
//! statistics. A sniffer-style frame trace for the `airtime-trace`
//! analyses is an observer: pass an `airtime_trace::Trace` to
//! [`run_observed`].
//!
//! [`scenarios`] contains ready-made configurations for every
//! experiment in the paper's evaluation (Figures 2–4, 8, 9; Tables 2–4)
//! plus the EXP-1 office rate-adaptation setup from §3.
//!
//! # Examples
//!
//! ```
//! use airtime_wlan::{run, scenarios, SchedulerKind};
//! use airtime_phy::DataRate;
//! use airtime_sim::SimDuration;
//!
//! // Two TCP uploaders, 11 vs 1 Mbit/s, stock AP, short run:
//! let mut cfg = scenarios::uploaders(
//!     &[DataRate::B11, DataRate::B1],
//!     SchedulerKind::RoundRobin,
//! );
//! cfg.duration = SimDuration::from_secs(5);
//! let report = run(&cfg);
//! // DCF gives them near-equal throughput (the anomaly):
//! let r = &report.flows;
//! assert!((r[0].goodput_mbps / r[1].goodput_mbps) < 1.6);
//! ```

pub mod config;
pub mod report;
pub mod scenarios;
pub mod sim;

pub use config::{
    ConfigError, Direction, FlowSpec, LinkSpec, NetworkConfig, Regulate, SchedulerKind,
    StationConfig, Transport, MAX_STATIONS,
};
pub use report::{FlowReport, NodeReport, Report};
pub use sim::{run, run_instrumented, run_observed, CellSim};
