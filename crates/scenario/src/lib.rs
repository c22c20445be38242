//! `airtime-scenario` — the declarative experiment engine.
//!
//! Every simulated table and figure of the paper is defined here as
//! data rather than as a hand-coded loop over `run(&cfg)` calls: a
//! scenario *file* (a TOML subset, parsed with zero
//! dependencies) declares the stations, links, traffic, scheduler,
//! duration and seed of an experiment; a `[sweep]` section declares
//! axes over any of those; and the engine expands the axes into a
//! deterministic job matrix, runs it on a std-thread worker pool, and
//! aggregates each cell into throughput, airtime shares, Jain fairness
//! indices and a baseline-property pass/fail — emitted as JSON and CSV
//! with self-describing schema headers.
//!
//! The pipeline, module by module:
//!
//! 1. [`toml`] — parse the file into a [`toml::Doc`] (line-tracked
//!    errors: `airtime-cli` prints `file:line: what was expected`)
//! 2. [`spec`] — compile a document into a [`spec::ScenarioSpec`]
//!    wrapping a `wlan::NetworkConfig`
//! 3. [`sweep`] — expand `[sweep]` axes into [`sweep::Job`]s (row-major
//!    in axis declaration order)
//! 4. [`pool`] — execute jobs in parallel; results land in matrix
//!    order regardless of completion order
//! 5. [`aggregate`] — reduce each `Report` to a [`aggregate::Cell`]
//! 6. [`emit`] — render the matrix as JSON/CSV
//!
//! Because every job's RNG seed travels inside its config and the
//! simulator is deterministic, the emitted documents are byte-identical
//! across thread counts — `sweep --threads 1` is the reference
//! implementation of `sweep --threads 64`.
//!
//! ```no_run
//! let text = std::fs::read_to_string("examples/scenarios/fig2_dcf_anomaly.toml").unwrap();
//! let doc = airtime_scenario::parse_text(&text, "fig2_dcf_anomaly.toml").unwrap();
//! let outcome = airtime_scenario::run_sweep(&doc, "fig2_dcf_anomaly.toml", 4).unwrap();
//! println!("{}", airtime_scenario::emit::to_csv(&outcome.name, &outcome.axes, &outcome.cells));
//! ```

pub mod aggregate;
pub mod emit;
pub mod pool;
pub mod spec;
pub mod sweep;
pub mod toml;
pub mod tournament;
pub mod verify;

use std::fmt;
use std::path::Path;

use airtime_obs::{
    fp_hex, AirtimeLedger, AuditReport, FlightRecorder, SpanCollector, StationDelays, TeeObserver,
};
use airtime_topo::TopoReport;

pub use aggregate::{Cell, CellStation, CheckOutcome, RoamSummary};
pub use pool::PoolStats;
pub use spec::{CheckProperty, CheckSpec, ScenarioSpec, MAX_DURATION_SECS};
pub use sweep::{Axis, Job};
pub use tournament::{
    run_tournament, TournamentOutcome, TournamentRow, TournamentSpec, TournamentStation,
};
pub use verify::{verify_determinism, Divergence, VerifyOptions, VerifyOutcome};

/// A scenario failure bound to its file — the one-line diagnostic
/// `airtime-cli` prints before exiting non-zero.
#[derive(Clone, Debug)]
pub struct ScenarioError {
    /// The file the problem is in (as given on the command line).
    pub file: String,
    /// 1-based line (0 when the problem isn't line-bound, e.g. an
    /// unreadable file).
    pub line: usize,
    /// What went wrong and what was expected.
    pub msg: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: {}", self.file, self.line, self.msg)
        } else {
            write!(f, "{}: {}", self.file, self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

fn bind(file: &str) -> impl Fn(toml::ParseError) -> ScenarioError + '_ {
    move |e| ScenarioError {
        file: file.to_string(),
        line: e.line,
        msg: e.msg,
    }
}

/// Parses scenario text (the `file` name only labels errors).
pub fn parse_text(text: &str, file: &str) -> Result<toml::Doc, ScenarioError> {
    toml::parse(text).map_err(bind(file))
}

/// Reads and parses a scenario file.
pub fn load(path: &Path) -> Result<toml::Doc, ScenarioError> {
    let file = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError {
        file: file.clone(),
        line: 0,
        msg: format!("cannot read scenario file: {e}"),
    })?;
    parse_text(&text, &file)
}

/// Compiles the document's base configuration (no sweep applied).
pub fn compile(doc: &toml::Doc, file: &str) -> Result<ScenarioSpec, ScenarioError> {
    spec::compile(doc).map_err(bind(file))
}

/// Like [`compile`], for a caller about to run the base configuration
/// itself: a `[tournament]` document, which has no stations of its own,
/// fails with a diagnostic instead.
pub fn compile_runnable(doc: &toml::Doc, file: &str) -> Result<ScenarioSpec, ScenarioError> {
    let spec = compile(doc, file)?;
    spec::check_runnable(doc, &spec).map_err(bind(file))?;
    Ok(spec)
}

/// Expands a document into its sweep matrix.
pub fn expand(doc: &toml::Doc, file: &str) -> Result<(Vec<Axis>, Vec<Job>), ScenarioError> {
    sweep::expand(doc).map_err(bind(file))
}

/// A fully executed sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Scenario name from the file.
    pub name: String,
    /// The sweep axes (empty for a single-cell scenario).
    pub axes: Vec<Axis>,
    /// One aggregated cell per job, in matrix order.
    pub cells: Vec<Cell>,
    /// Worker-pool accounting.
    pub stats: PoolStats,
    /// Whether any cell failed its baseline check *and* the scenario
    /// asked for strictness (`[check] strict = true`).
    pub strict_failure: bool,
    /// Whether any topology job's per-cell airtime-ledger audit failed.
    /// Unlike `strict_failure`, this does not require `strict = true`:
    /// a non-conserved timeline is a simulator defect, never an
    /// acceptable experimental outcome.
    pub audit_failure: bool,
}

impl SweepOutcome {
    /// Cells whose baseline check failed.
    pub fn failed_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.check, CheckOutcome::Fail(_)))
            .count()
    }
}

/// Folds per-radio-cell lane fingerprints (in cell order) into the one
/// fingerprint a topology sweep cell reports.
pub fn combine_fps(fps: impl Iterator<Item = u64>) -> u64 {
    // An order-sensitive FNV-style fold, so a one-lane topology still
    // differs from the bare lane (the fold re-mixes it).
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fps.fold(FNV_OFFSET, |acc, fp| (acc ^ fp).wrapping_mul(FNV_PRIME))
}

/// Runs one single-cell job and reduces it to its [`Cell`], returning
/// the per-station span summary the cell was built from.
///
/// Span collection rides along (observation is effect-only: the RNG
/// stream is untouched, so observed runs stay byte-identical to
/// unobserved ones), and so does a capacity-0 flight recorder — pure
/// fingerprinting, no event retention — so every cell carries a
/// determinism fingerprint and 1-vs-N-thread comparisons localize.
pub fn run_cell(
    index: usize,
    coords: Vec<(String, String)>,
    spec: &ScenarioSpec,
) -> (Cell, Vec<StationDelays>) {
    let mut obs = TeeObserver::new(SpanCollector::new(), FlightRecorder::new().with_capacity(0));
    let report = airtime_wlan::run_observed(&spec.cfg, &mut obs);
    let delays = obs.a.summary();
    let mut cell = aggregate::aggregate(index, coords, spec, &report, &delays);
    cell.fp = Some(fp_hex(obs.b.fingerprint()));
    (cell, delays)
}

/// One radio cell's observers in a topology run: a span collector and
/// an airtime ledger (`a.a`, `a.b`) and a flight-recorder lane (`b`).
pub type TopologyLane = TeeObserver<TeeObserver<SpanCollector, AirtimeLedger>, FlightRecorder>;

/// A finished topology job: its [`Cell`] plus what was folded into it.
pub struct TopologyRun {
    /// The aggregated cell, fingerprint set.
    pub cell: Cell,
    /// The engine's report.
    pub report: TopoReport,
    /// Each radio cell's ledger audit, in cell order.
    pub audits: Vec<AuditReport>,
    /// Each radio cell's observers, in cell order.
    pub lanes: Vec<TopologyLane>,
}

/// Runs one topology job (`spec.topo` must be set) and reduces it to
/// its [`Cell`]. The ledgers audit each radio cell's own timeline, and
/// the recorder lanes, each retaining up to `ring` events, give
/// per-cell sub-fingerprints that fold into the cell's fingerprint.
pub fn run_topology_cell(
    index: usize,
    coords: Vec<(String, String)>,
    spec: &ScenarioSpec,
    ring: usize,
) -> TopologyRun {
    let topo = spec.topo.as_ref().expect("a topology scenario");
    let mut lanes: Vec<TopologyLane> = (0..topo.cells.len())
        .map(|c| {
            TeeObserver::new(
                TeeObserver::new(SpanCollector::new(), AirtimeLedger::new()),
                FlightRecorder::new().with_capacity(ring).for_cell(c as u64),
            )
        })
        .collect();
    let report = airtime_topo::run_topology(topo, &mut lanes);
    let delays: Vec<_> = lanes.iter().map(|o| o.a.a.summary()).collect();
    let audits: Vec<_> = lanes.iter().map(|o| o.a.b.audit()).collect();
    let mut cell = aggregate::aggregate_topology(index, coords, spec, &report, &delays, &audits);
    cell.fp = Some(fp_hex(combine_fps(lanes.iter().map(|o| o.b.fingerprint()))));
    TopologyRun {
        cell,
        report,
        audits,
        lanes,
    }
}

/// Expands and executes a parsed document on `threads` workers.
pub fn run_sweep(
    doc: &toml::Doc,
    file: &str,
    threads: usize,
) -> Result<SweepOutcome, ScenarioError> {
    let (axes, jobs) = expand(doc, file)?;
    let name = jobs
        .first()
        .map(|j| j.spec.name.clone())
        .unwrap_or_else(|| "scenario".to_string());
    let strict = jobs.first().map(|j| j.spec.check.strict).unwrap_or(false);
    let (cells, stats) = pool::run_parallel(&jobs, threads, |_, job| {
        let coords = job.coords.clone();
        match job.spec.topo {
            None => run_cell(job.index, coords, &job.spec).0,
            Some(_) => run_topology_cell(job.index, coords, &job.spec, 0).cell,
        }
    });
    let outcome = SweepOutcome {
        name,
        axes,
        cells,
        stats,
        strict_failure: false,
        audit_failure: false,
    };
    let strict_failure = strict && outcome.failed_cells() > 0;
    let audit_failure = outcome
        .cells
        .iter()
        .any(|c| c.roam.as_ref().is_some_and(|r| !r.audits_pass));
    Ok(SweepOutcome {
        strict_failure,
        audit_failure,
        ..outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_includes_file_and_line() {
        let e = parse_text("a = \n", "demo.toml").unwrap_err();
        assert_eq!(
            e.to_string(),
            "demo.toml:1: expected a value, found end of input"
        );
        let e = load(Path::new("/nonexistent/x.toml")).unwrap_err();
        assert!(e
            .to_string()
            .starts_with("/nonexistent/x.toml: cannot read"));
    }
}
