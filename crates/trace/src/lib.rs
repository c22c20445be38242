//! Wireless frame-trace synthesis and analysis.
//!
//! Section 3 of the paper establishes *why* time-based fairness matters
//! in practice, from two observational datasets:
//!
//! - sniffer traces of three 90-minute MIT workshop sessions (WS-1..3)
//!   showing that even one room exhibits substantial **rate diversity**
//!   (Figure 1), and
//! - Kotz et al.'s Dartmouth residence tcpdump trace, showing that
//!   during congested one-second intervals the **heaviest user rarely
//!   has the AP to itself** (Figure 5) — i.e. the regime where fairness
//!   notions matter actually occurs.
//!
//! We cannot redistribute those captures, so [`generate`] synthesises
//! statistically similar workloads (documented substitution: same
//! figure pipeline, synthetic frames), and [`analysis`] implements the
//! actual measurements — per-rate byte fractions, busy-interval
//! detection at the paper's 4 Mbit/s threshold, and heaviest-user
//! shares. The analysis code runs identically on a simulated capture:
//! a [`Trace`] is an `airtime-obs` observer, so attaching one to an
//! `airtime-wlan` run sniffs its frames (that is how the EXP-1 bars of
//! Figure 1 are produced).

pub mod analysis;
pub mod generate;
pub mod record;

pub use analysis::{
    airtime_fairness_timeline, busy_intervals, bytes_by_rate, throughput_timeline, BusyIntervals,
};
pub use generate::{residence_trace, workshop_trace, ResidenceConfig, WorkshopConfig};
pub use record::{FrameRecord, Trace};
