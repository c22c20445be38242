//! Per-cell aggregation: reduces each job's [`Report`] to the numbers
//! a sweep table reports, and evaluates the baseline-property check.
//!
//! ("Cell" here is a *sweep matrix* cell. A topology job additionally
//! has radio cells — one report per AP — which [`aggregate_topology`]
//! folds into the same [`Cell`] shape plus a [`RoamSummary`].)

use airtime_obs::{AuditReport, StationDelays};
use airtime_sim::stats::jain_index;
use airtime_topo::TopoReport;
use airtime_wlan::{Report, SchedulerKind};

use crate::spec::{CheckProperty, CheckSpec, ScenarioSpec};

/// One station's slice of a cell.
#[derive(Clone, Debug)]
pub struct CellStation {
    /// Display label for the link rate (`11M`, `path`, …).
    pub rate: String,
    /// Sum of this station's flow goodputs, Mbit/s.
    pub goodput_mbps: f64,
    /// Share of all clients' channel occupancy.
    pub airtime_share: f64,
    /// p95 time a frame waited in its queue before the MAC took it, ms.
    pub queueing_p95_ms: f64,
    /// p95 contention delay (MAC lifetime beyond pure airtime), ms.
    pub contention_p95_ms: f64,
    /// p95 head-of-line delay (MAC release to first attempt), ms.
    pub hol_p95_ms: f64,
}

/// Outcome of the baseline-property check for one cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckOutcome {
    /// The property held within tolerance.
    Pass,
    /// It did not; the string says by how much.
    Fail(String),
    /// No check configured.
    Skipped,
}

impl CheckOutcome {
    /// Short label for tables and CSV (`pass`, `fail`, `skip`).
    pub fn label(&self) -> &'static str {
        match self {
            CheckOutcome::Pass => "pass",
            CheckOutcome::Fail(_) => "fail",
            CheckOutcome::Skipped => "skip",
        }
    }
}

/// Everything a sweep reports about one cell, in deterministic plain
/// data (no floats derived from wall time or thread interleaving).
#[derive(Clone, Debug)]
pub struct Cell {
    /// Matrix index (row order).
    pub index: usize,
    /// `(axis, value)` labels, in axis order.
    pub coords: Vec<(String, String)>,
    /// Per-station results, in station order.
    pub stations: Vec<CellStation>,
    /// Aggregate goodput, Mbit/s.
    pub total_mbps: f64,
    /// Post-warm-up medium utilization.
    pub utilization: f64,
    /// Jain's fairness index over per-station goodputs; NaN when no
    /// station delivered anything (see [`jain_defined`]).
    pub jain_throughput: f64,
    /// Jain's fairness index over per-station airtime shares; NaN when
    /// undefined.
    pub jain_airtime: f64,
    /// Baseline-property verdict.
    pub check: CheckOutcome,
    /// Flight-recorder determinism fingerprint (16 hex digits) over
    /// the job's canonical causal stream; topology jobs fold their
    /// per-radio-cell lane fingerprints in cell order. `None` for
    /// cells aggregated without a recorder attached — the emitters
    /// skip the column entirely then, keeping older output
    /// byte-identical.
    pub fp: Option<String>,
    /// Roaming metrics, for topology jobs only (`None` keeps
    /// single-cell output byte-identical to before topologies existed).
    pub roam: Option<RoamSummary>,
}

/// The roaming side of one topology job, reduced to table numbers.
#[derive(Clone, Debug)]
pub struct RoamSummary {
    /// AP-to-AP handoffs across all stations.
    pub handoffs: u64,
    /// Drops to outage (no AP above the association floor).
    pub drops: u64,
    /// Total station-seconds spent unassociated.
    pub outage_s: f64,
    /// Per-radio-cell total goodput, Mbit/s, in cell order.
    pub cell_mbps: Vec<f64>,
    /// Whether every per-cell airtime ledger audit conserved its
    /// timeline (gap + overlap within tolerance).
    pub audits_pass: bool,
    /// Worst per-cell audit error, nanoseconds.
    pub worst_audit_error_ns: u64,
}

/// Resolves [`CheckProperty::Auto`] by scheduler family.
fn resolve_property(check: &CheckSpec, scheduler: &SchedulerKind) -> CheckProperty {
    match check.property {
        // The family registry is the single source of truth for which
        // baseline each discipline targets: time-fair families (TBR,
        // TXOP, PF) equalise airtime for saturated equal-weight
        // clients, the rest (FIFO, RR, DRR, max-min) equalise
        // throughput.
        CheckProperty::Auto => {
            if scheduler.time_fair() {
                CheckProperty::AirtimeFair
            } else {
                CheckProperty::ThroughputFair
            }
        }
        p => p,
    }
}

fn evaluate_check(spec: &ScenarioSpec, report: &Report) -> CheckOutcome {
    let n = report.nodes.len();
    if n < 2 {
        return CheckOutcome::Skipped;
    }
    // Weighted cells and task-model cells don't target the equal-share
    // baseline; report skip rather than a misleading fail.
    if spec.cfg.stations.iter().any(|s| s.weight != 1.0)
        || spec.cfg.stations.iter().any(|s| {
            s.flows
                .iter()
                .any(|f| f.task_bytes.is_some() || f.rate_limit_bps.is_some())
        })
    {
        return CheckOutcome::Skipped;
    }
    let tol = spec.check.tolerance;
    match resolve_property(&spec.check, &spec.cfg.scheduler) {
        CheckProperty::None => CheckOutcome::Skipped,
        CheckProperty::Auto => unreachable!("resolved above"),
        CheckProperty::AirtimeFair => {
            let fair = 1.0 / n as f64;
            let worst = report
                .nodes
                .iter()
                .map(|nd| (nd.occupancy_share - fair).abs())
                .fold(0.0, f64::max);
            if worst <= tol {
                CheckOutcome::Pass
            } else {
                CheckOutcome::Fail(format!(
                    "airtime share deviates {worst:.3} from equal {fair:.3} (tolerance {tol})"
                ))
            }
        }
        CheckProperty::ThroughputFair => {
            let goodputs: Vec<f64> = report.nodes.iter().map(|nd| nd.goodput_mbps).collect();
            match jain_index(&goodputs) {
                Some(jain) if jain >= 1.0 - tol => CheckOutcome::Pass,
                Some(jain) => CheckOutcome::Fail(format!(
                    "throughput Jain index {jain:.3} below {:.3}",
                    1.0 - tol
                )),
                None => CheckOutcome::Fail(
                    "no station delivered goodput: throughput Jain index undefined".into(),
                ),
            }
        }
    }
}

/// A Jain column value as `Some(index)`, or `None` where it is
/// undefined (stored as NaN). Emitters print `None` as `n/a` in text,
/// `null` in JSON and an empty CSV field.
pub fn jain_defined(v: f64) -> Option<f64> {
    (!v.is_nan()).then_some(v)
}

/// Reduces one finished job to its [`Cell`]. `delays` is the job's
/// per-station frame-lifecycle summary (station ids are node indices,
/// i.e. station + 1); stations with no finished frames report zeros.
pub fn aggregate(
    index: usize,
    coords: Vec<(String, String)>,
    spec: &ScenarioSpec,
    report: &Report,
    delays: &[StationDelays],
) -> Cell {
    let stations: Vec<CellStation> = report
        .nodes
        .iter()
        .enumerate()
        .map(|(i, nd)| {
            let d = delays.iter().find(|d| d.station == (i + 1) as u64);
            CellStation {
                rate: spec.rate_labels.get(i).cloned().unwrap_or_default(),
                goodput_mbps: nd.goodput_mbps,
                airtime_share: nd.occupancy_share,
                queueing_p95_ms: d.map_or(0.0, |d| d.queueing_ms[1]),
                contention_p95_ms: d.map_or(0.0, |d| d.contention_ms[1]),
                hol_p95_ms: d.map_or(0.0, |d| d.hol_ms[1]),
            }
        })
        .collect();
    let goodputs: Vec<f64> = stations.iter().map(|s| s.goodput_mbps).collect();
    let shares: Vec<f64> = stations.iter().map(|s| s.airtime_share).collect();
    Cell {
        index,
        coords,
        total_mbps: report.total_goodput_mbps,
        utilization: report.utilization,
        jain_throughput: jain_index(&goodputs).unwrap_or(f64::NAN),
        jain_airtime: jain_index(&shares).unwrap_or(f64::NAN),
        check: evaluate_check(spec, report),
        fp: None,
        stations,
        roam: None,
    }
}

/// Reduces one finished *topology* job to its [`Cell`]. Per-station
/// numbers fold across radio cells: goodput sums; the airtime share and
/// delay percentiles are taken from the station's **home cell** (the
/// cell where it delivered the most goodput — shares in different cells
/// are fractions of different media and cannot be added). `delays[c]`
/// and `audits[c]` are cell `c`'s frame-lifecycle summary and ledger
/// audit.
///
/// The equal-share baseline check reports `skip`: a roamer holds each
/// cell's medium for only part of the run, so the single-cell equal
/// share is not the expected outcome — the per-cell baseline property
/// is asserted by `airtime-topo`'s own tests, and the audit verdict is
/// carried in [`RoamSummary`].
pub fn aggregate_topology(
    index: usize,
    coords: Vec<(String, String)>,
    spec: &ScenarioSpec,
    tr: &TopoReport,
    delays: &[Vec<StationDelays>],
    audits: &[AuditReport],
) -> Cell {
    let n_st = spec.cfg.stations.len();
    let stations: Vec<CellStation> = (0..n_st)
        .map(|s| {
            let goodput: f64 = tr.cells.iter().map(|c| c.nodes[s].goodput_mbps).sum();
            let home = (0..tr.cells.len())
                .max_by(|&a, &b| {
                    let ga = tr.cells[a].nodes[s].goodput_mbps;
                    let gb = tr.cells[b].nodes[s].goodput_mbps;
                    ga.partial_cmp(&gb).expect("finite goodput").then(b.cmp(&a))
                    // ties to the lowest cell id
                })
                .unwrap_or(0);
            let d = delays
                .get(home)
                .and_then(|ds| ds.iter().find(|d| d.station == (s + 1) as u64));
            CellStation {
                rate: spec.rate_labels.get(s).cloned().unwrap_or_default(),
                goodput_mbps: goodput,
                airtime_share: tr.cells[home].nodes[s].occupancy_share,
                queueing_p95_ms: d.map_or(0.0, |d| d.queueing_ms[1]),
                contention_p95_ms: d.map_or(0.0, |d| d.contention_ms[1]),
                hol_p95_ms: d.map_or(0.0, |d| d.hol_ms[1]),
            }
        })
        .collect();
    let goodputs: Vec<f64> = stations.iter().map(|s| s.goodput_mbps).collect();
    let shares: Vec<f64> = stations.iter().map(|s| s.airtime_share).collect();
    let handoffs = (0..n_st).map(|s| tr.roaming.handoff_count(s) as u64).sum();
    let drops = tr
        .roaming
        .handoffs
        .iter()
        .filter(|h| h.from.is_some() && h.to.is_none())
        .count() as u64;
    let outage_s = tr.roaming.outage.iter().map(|o| o.as_secs_f64()).sum();
    let roam = RoamSummary {
        handoffs,
        drops,
        outage_s,
        cell_mbps: tr.cells.iter().map(|c| c.total_goodput_mbps).collect(),
        audits_pass: audits.iter().all(|a| a.conserved),
        worst_audit_error_ns: audits
            .iter()
            .map(|a| a.error_ns.unsigned_abs())
            .max()
            .unwrap_or(0),
    };
    Cell {
        index,
        coords,
        total_mbps: tr.total_goodput_mbps(),
        utilization: tr.cells.iter().map(|c| c.utilization).fold(0.0, f64::max),
        jain_throughput: jain_index(&goodputs).unwrap_or(f64::NAN),
        jain_airtime: jain_index(&shares).unwrap_or(f64::NAN),
        check: CheckOutcome::Skipped,
        fp: None,
        stations,
        roam: Some(roam),
    }
}
