//! Time-based fairness for multi-rate WLANs.
//!
//! This crate is the reproduction of the paper's primary contribution:
//! **TBR, the Time-based Regulator** (§4), an AP-side packet regulator
//! that gives each competing client an equal (or weighted) share of
//! *channel occupancy time* instead of an equal share of throughput.
//!
//! The crate is deliberately independent of the MAC simulator: TBR is a
//! pure state machine driven by the paper's five event handlers
//! (associate / fill / app-tx / mac-tx / complete) plus the periodic
//! rate-adjustment event, exactly as it would be embedded in a real AP
//! driver (the authors patched the Linux HostAP driver; `airtime-wlan`
//! embeds the same object into the simulated AP).
//!
//! Alongside TBR, [`scheduler`] provides the throughput-fair baselines
//! the paper compares against — the plain shared FIFO of a stock AP, a
//! per-client round-robin, and Deficit Round Robin (their citation \[24\])
//! — all behind one [`Scheduler`] trait so experiments can swap the
//! discipline with one line. [`fairness`] has the measurement helpers
//! (airtime/throughput gaps, Jain index, reference max-min allocation).
//!
//! # Examples
//!
//! Every discipline is driven through the one [`Scheduler`] trait; TBR
//! additionally exposes its token state through it.
//!
//! ```
//! use airtime_core::{ClientId, QueuedPacket, Scheduler, TbrConfig, TbrScheduler};
//! use airtime_sim::{SimDuration, SimTime};
//!
//! let mut tbr = TbrScheduler::new(TbrConfig::default());
//! let now = SimTime::ZERO;
//! tbr.on_associate(ClientId(0), now);
//! tbr.on_associate_weighted(ClientId(1), 2.0, now); // §4.5: a 2× share
//! assert_eq!(tbr.token_fill_rate(ClientId(1)), Some(2.0 / 3.0));
//! tbr.enqueue(QueuedPacket { client: ClientId(0), handle: 7, bytes: 1500 }, now);
//! let pkt = tbr.dequeue(now).expect("tokens start positive");
//! assert_eq!(pkt.handle, 7);
//! // The MAC reports how much channel time the exchange consumed, and
//! // TBR debits it from the client's token balance:
//! let before = tbr.token_balance_ns(ClientId(0)).unwrap();
//! tbr.on_complete(ClientId(0), SimDuration::from_micros(1617), true, now);
//! assert_eq!(tbr.token_balance_ns(ClientId(0)), Some(before - 1_617_000.0));
//! ```

pub mod buffer;
pub mod config;
pub mod fairness;
pub mod scheduler;
pub mod tbr;
pub mod txop;

pub use buffer::{BufferPolicy, RedConfig};
pub use config::ConfigError;
pub use fairness::{
    airtime_shares, max_min_allocation, throughput_gap, waterfill_airtime, waterfill_airtime_into,
};
pub use scheduler::{
    ClientId, DrrScheduler, EnqueueOutcome, FifoScheduler, QueuePool, QueuedPacket,
    RoundRobinScheduler, Scheduler,
};
pub use tbr::{TbrConfig, TbrScheduler};
pub use txop::{TxopConfig, TxopScheduler};
