//! `airtime-sched` — the pluggable AP fairness-policy subsystem.
//!
//! The paper argues *time-based* regulation (TBR) beats throughput
//! fairness in multi-rate cells, but TBR is one point in the policy
//! space. This crate turns the AP scheduler into a first-class
//! subsystem so contenders can be compared side by side:
//!
//! - [`Scheduler`] — the one trait every discipline implements
//!   (defined in `airtime-core` and re-exported here): the paper's event
//!   hooks (associate / enqueue / select / on-tx-complete / lazy ticks
//!   and wake-ups) plus weighted association and optional token-state
//!   introspection, so embedders never downcast to a concrete type.
//! - [`SchedulerKind`] — plain-data configuration naming a family and
//!   its tunables; [`SchedulerKind::build`] constructs the boxed
//!   discipline.
//! - [`FAMILIES`] — the single registry of family names and their
//!   default configurations, shared by the scenario compiler, the CLI,
//!   the tournament runner and the family ablation (one list, no drift).
//!
//! The baseline families (FIFO / round-robin / DRR / TBR / TXOP) are
//! re-exported from `airtime-core`; this crate adds two contenders from
//! the literature retrieved in PAPERS.md:
//!
//! - [`PfScheduler`] — proportional fair (Patras et al.; the classic
//!   cellular argmax of `instantaneous rate / β-EWMA average rate`).
//! - [`MaxMinScheduler`] — max-min throughput fairness via
//!   water-filling over per-station *achievable* rates (Leith et al.),
//!   built on [`airtime_core::waterfill_airtime`].
//!
//! Both contenders are tick-free: every state update happens inside an
//! event hook, so their state is a pure function of the consult
//! sequence and the determinism contract holds by construction.

pub mod maxmin;
pub mod pf;

// Re-export the abstraction and the baseline implementations so
// embedders depend on one scheduler crate.
pub use airtime_core::{
    BufferPolicy, ClientId, ConfigError, DrrScheduler, EnqueueOutcome, FifoScheduler, QueuePool,
    QueuedPacket, RedConfig, RoundRobinScheduler, Scheduler, TbrConfig, TbrScheduler, TxopConfig,
    TxopScheduler,
};
pub use maxmin::{MaxMinConfig, MaxMinScheduler};
pub use pf::{PfConfig, PfScheduler};

/// Which queue discipline the AP's transmit path runs — plain data; two
/// runs of the same kind are bit-identical.
#[derive(Clone, Debug)]
pub enum SchedulerKind {
    /// Single shared drop-tail queue (stock AP, the paper's Exp-Normal
    /// kernel interface queue).
    Fifo,
    /// Per-client round robin (common AP behaviour, §2.4).
    RoundRobin,
    /// Deficit Round Robin (wired-style fair queuing, citation \[24\]),
    /// weight-aware: each visit grants `weight × quantum` bytes.
    Drr,
    /// The paper's Time-based Regulator (Exp-TBR).
    Tbr(TbrConfig),
    /// TXOP-style channel-time grants (the §4.5 802.11e integration;
    /// downlink-only regulation).
    Txop(TxopConfig),
    /// Proportional fair: serve the backlogged client maximising
    /// `weight × instantaneous rate / β-EWMA average rate`.
    Pf(PfConfig),
    /// Max-min throughput fairness by water-filling one unit of airtime
    /// over per-station achievable rates.
    MaxMin(MaxMinConfig),
}

impl SchedulerKind {
    /// The default Exp-TBR configuration.
    pub fn tbr() -> Self {
        SchedulerKind::Tbr(TbrConfig::default())
    }

    /// The default TXOP-grant configuration.
    pub fn txop() -> Self {
        SchedulerKind::Txop(TxopConfig::default())
    }

    /// The default proportional-fair configuration.
    pub fn pf() -> Self {
        SchedulerKind::Pf(PfConfig::default())
    }

    /// The default max-min waterfilling configuration.
    pub fn maxmin() -> Self {
        SchedulerKind::MaxMin(MaxMinConfig::default())
    }

    /// The [`FAMILIES`] entry this kind belongs to.
    fn entry(&self) -> &'static Family {
        let mine = std::mem::discriminant(self);
        FAMILIES
            .iter()
            .find(|f| std::mem::discriminant(&(f.default)()) == mine)
            .expect("every kind has a registry entry")
    }

    /// The family name this kind belongs to (a [`FAMILIES`] entry).
    pub fn family(&self) -> &'static str {
        self.entry().name
    }

    /// Whether this kind's family targets equal airtime (see
    /// [`Family::time_fair`]).
    pub fn time_fair(&self) -> bool {
        self.entry().time_fair
    }

    /// The default configuration of the named family, or `None` for an
    /// unknown name. The accepted names are exactly [`FAMILIES`].
    pub fn from_family(name: &str) -> Option<Self> {
        FAMILIES
            .iter()
            .find(|f| f.name == name)
            .map(|f| (f.default)())
    }

    /// Checks the kind's tunables, naming the first offending one.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            SchedulerKind::Fifo | SchedulerKind::RoundRobin | SchedulerKind::Drr => Ok(()),
            SchedulerKind::Tbr(c) => c.validate(),
            SchedulerKind::Txop(c) => c.validate(),
            SchedulerKind::Pf(c) => c.validate(),
            SchedulerKind::MaxMin(c) => c.validate(),
        }
    }

    /// Constructs the discipline this kind describes.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler::default()),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::default()),
            SchedulerKind::Drr => Box::new(DrrScheduler::default()),
            SchedulerKind::Tbr(c) => Box::new(TbrScheduler::new(*c)),
            SchedulerKind::Txop(c) => Box::new(TxopScheduler::new(*c)),
            SchedulerKind::Pf(c) => Box::new(PfScheduler::new(*c)),
            SchedulerKind::MaxMin(c) => Box::new(MaxMinScheduler::new(*c)),
        }
    }
}

/// One entry of the scheduler-family registry.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    /// The name scenario files, the CLI and the tournament use.
    pub name: &'static str,
    /// One-line description for help text and docs.
    pub summary: &'static str,
    /// Whether the family targets equal *airtime* shares (vs equal
    /// throughput) for saturated equal-weight clients — what the
    /// baseline-property check asserts.
    pub time_fair: bool,
    /// The family's default configuration.
    pub default: fn() -> SchedulerKind,
}

/// Every scheduler family, in canonical order. This is the single
/// source of truth and the only place a family name is written:
/// [`SchedulerKind::from_family`] and [`SchedulerKind::family`] look
/// names up here, and the scenario compiler, `airtime-cli --sched`, the
/// `[tournament]` runner and the family ablation preset all enumerate it.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "fifo",
        summary: "single shared drop-tail queue (stock AP)",
        time_fair: false,
        default: || SchedulerKind::Fifo,
    },
    Family {
        name: "rr",
        summary: "per-client packet round robin",
        time_fair: false,
        default: || SchedulerKind::RoundRobin,
    },
    Family {
        name: "drr",
        summary: "deficit round robin, weight-aware byte fairness",
        time_fair: false,
        default: || SchedulerKind::Drr,
    },
    Family {
        name: "tbr",
        summary: "time-based regulator (the paper's Exp-TBR)",
        time_fair: true,
        default: SchedulerKind::tbr,
    },
    Family {
        name: "txop",
        summary: "802.11e TXOP-style channel-time grants",
        time_fair: true,
        default: SchedulerKind::txop,
    },
    Family {
        name: "pf",
        summary: "proportional fair (argmax rate / beta-EWMA average)",
        time_fair: true,
        default: SchedulerKind::pf,
    },
    Family {
        name: "maxmin",
        summary: "max-min waterfilling over achievable rates",
        time_fair: false,
        default: SchedulerKind::maxmin,
    },
];

/// The comma-separated family list for diagnostics
/// (`"fifo, rr, drr, tbr, txop, pf, maxmin"`).
pub fn family_names() -> String {
    FAMILIES
        .iter()
        .map(|f| f.name)
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use airtime_sim::SimTime;

    #[test]
    fn registry_round_trips_through_kind() {
        for fam in FAMILIES {
            let kind = SchedulerKind::from_family(fam.name)
                .unwrap_or_else(|| panic!("registry family '{}' has no kind", fam.name));
            assert_eq!(kind.family(), fam.name);
            // Every registered family constructs a live discipline.
            let mut s = kind.build();
            s.on_associate(ClientId(0), SimTime::ZERO);
            assert_eq!(s.backlog(), 0);
        }
        assert!(SchedulerKind::from_family("lifo").is_none());
    }

    #[test]
    fn family_names_lists_all() {
        let names = family_names();
        for fam in FAMILIES {
            assert!(names.contains(fam.name));
        }
        assert_eq!(names, "fifo, rr, drr, tbr, txop, pf, maxmin");
    }

    #[test]
    fn weighted_associate_reaches_every_family() {
        // The trait-level weighted associate must be accepted by every
        // family (unweighted ones ignore the weight).
        for fam in FAMILIES {
            let mut s = SchedulerKind::from_family(fam.name).unwrap().build();
            s.on_associate_weighted(ClientId(0), 2.0, SimTime::ZERO);
            s.on_associate_weighted(ClientId(1), 1.0, SimTime::ZERO);
            let now = SimTime::ZERO;
            s.enqueue(
                QueuedPacket {
                    client: ClientId(0),
                    handle: 1,
                    bytes: 1500,
                },
                now,
            );
            assert!(s.backlog() > 0);
        }
    }

    #[test]
    fn token_introspection_is_tbr_only() {
        let now = SimTime::ZERO;
        for fam in FAMILIES {
            let mut s = SchedulerKind::from_family(fam.name).unwrap().build();
            s.on_associate(ClientId(0), now);
            let has_tokens = s.token_balance_ns(ClientId(0)).is_some();
            assert_eq!(has_tokens, fam.name == "tbr", "family {}", fam.name);
        }
        // A fresh TBR client holds its initial tokens.
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_associate_weighted(ClientId(0), 1.0, now);
        assert_eq!(
            tbr.token_balance_ns(ClientId(0)),
            Some(TbrConfig::default().initial_tokens.as_nanos() as f64)
        );
    }
}
