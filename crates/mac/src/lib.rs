//! 802.11 DCF MAC simulation.
//!
//! This crate models the part of the paper's testbed that creates the
//! multi-rate "performance anomaly": the Distributed Coordination
//! Function. DCF gives every contender an approximately equal number of
//! *transmission opportunities*, irrespective of how long each
//! transmission occupies the air — which is precisely why a 1 Mbit/s
//! node drags an 11 Mbit/s node down to its level (§2.4 of the paper).
//!
//! The model is a single collision domain (every station hears every
//! other — the paper's one-room testbed) with:
//!
//! - CSMA/CA contention: DIFS deferral, slotted binary-exponential
//!   backoff (CW 31→1023), immediate access on a long-idle medium;
//! - synchronous MAC ACKs after SIFS, at the proper basic rate;
//! - retransmission with contention-window doubling up to a retry limit;
//! - collisions when two backoff countdowns expire on the same slot;
//! - per-link frame error rates from [`airtime_phy::LinkErrorModel`];
//! - per-client channel-occupancy accounting exactly as the paper
//!   defines it (§2.3): data + ACK + interframe gaps + every
//!   retransmission, attributed to the *client* side of each AP↔client
//!   exchange whichever direction the frame travels.
//!
//! [`DcfWorld`] is a pure state machine: the embedding simulation calls
//! [`DcfWorld::handle_into`] with due [`MacEvent`]s and plumbs the
//! [`MacEffect::Schedule`] requests it appends into its own event queue.
//! Every entry point appends to a buffer the caller owns, so an engine
//! that reuses one buffer allocates nothing per event. This keeps
//! the MAC independent of any particular event loop and directly
//! unit-testable.

pub mod dcf;
pub mod frame;
pub mod polled;

pub use dcf::{DcfConfig, DcfWorld, MacEffect, MacEvent, MacStats, SliceKind};
pub use frame::{Frame, FrameOutcome, NodeId};
pub use polled::{PolledConfig, PolledWorld};
