//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Airtime workspace. It provides:
//!
//! - [`time`]: nanosecond-resolution simulated time ([`SimTime`]) and
//!   durations ([`SimDuration`]) with exact integer arithmetic, so repeated
//!   runs are bit-for-bit reproducible.
//! - [`queue`]: the deterministic event queue ([`EventQueue`]) that breaks
//!   ties in insertion order — essential when many events share a
//!   timestamp (common in slotted MAC simulations) — and keeps one entry
//!   per re-armable timer deadline.
//! - [`rng`]: a seedable random-number wrapper ([`SimRng`]) with independent
//!   substreams so adding randomness to one component does not perturb
//!   another.
//! - [`stats`]: rate meters, histograms and Jain's index used by every
//!   measurement in the workspace.
//! - [`profile`]: host-side step timing ([`LoopProfiler`]): per-label
//!   cost histograms ([`NsHist`]) a driver fills by timing each step
//!   from outside the engine, without touching simulated state.
//!
//! # Examples
//!
//! ```
//! use airtime_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "second");
//! q.schedule(SimTime::ZERO, "first");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(t, SimTime::ZERO);
//! assert_eq!(e, "first");
//! ```

pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use profile::{LoopProfiler, NsHist};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Histogram, RateMeter};
pub use time::{SimDuration, SimTime};
