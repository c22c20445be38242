//! The `verify-determinism` driver: runs a scenario's base
//! configuration twice with a flight recorder attached — and,
//! optionally, checks it against a golden recording that an earlier
//! build wrote — compares the fingerprint checkpoint streams, and — on
//! a mismatch — bisects to the first divergent checkpoint, re-runs
//! recording only that window, and pins the exact first divergent
//! `(time, label, detail)`.
//!
//! The repeat run catches nondeterminism inside one build (a hash-order
//! dependence, say: every run draws fresh `HashMap` seeds). The golden
//! comparison catches a behaviour change between builds: commit the
//! recording [`VerifyOutcome::recordings`] holds, and a refactor is
//! bisected against it rather than against a sibling execution mode.
//!
//! For scenarios with a `[sweep]` section it additionally executes the
//! whole matrix at 1 thread and at N threads and compares the per-cell
//! fingerprint columns, so a thread-count divergence names the exact
//! matrix cell instead of "the documents differ".
//!
//! The synthetic-divergence hook ([`VerifyOptions::inject`]) perturbs
//! one recorded event in one named pass, deterministically
//! manufacturing the failure mode the machinery exists to catch —
//! that's both the integration test and the worked example in the
//! docs.

use std::fmt::Write as _;

use airtime_obs::{
    first_divergent_checkpoint, first_divergent_event, fp_hex, FlightRecorder, RecordedEvent,
    Recording, DEFAULT_CHECKPOINT_INTERVAL,
};
use airtime_sim::SimTime;

use crate::spec::ScenarioSpec;
use crate::{combine_fps, run_sweep, toml::Doc, ScenarioError};

/// The passes `verify_determinism` executes, reference first.
pub const PASSES: [&str; 2] = ["run", "repeat"];

/// The name a golden recording goes by in divergence reports.
const GOLDEN: &str = "golden";

/// Knobs for [`verify_determinism`].
#[derive(Clone, Debug)]
pub struct VerifyOptions {
    /// Events per fingerprint checkpoint. Ignored when `against` is
    /// set: the golden recording's interval wins.
    pub interval: u64,
    /// Thread count for the sweep-matrix comparison (vs 1).
    pub threads: usize,
    /// Golden recordings to check the run against, one per radio-cell
    /// lane (a single one for single-cell scenarios).
    pub against: Option<Vec<Recording>>,
    /// Test hook: `(pass name, stream index)` — perturb that event in
    /// that pass's recording, manufacturing a synthetic divergence.
    pub inject: Option<(String, u64)>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            interval: DEFAULT_CHECKPOINT_INTERVAL,
            threads: 4,
            against: None,
            inject: None,
        }
    }
}

/// One localized determinism break.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The pass that disagreed with the reference.
    pub pass: String,
    /// What it was compared against: the `run` pass or the golden.
    pub reference: String,
    /// Radio-cell lane the divergence was found in (topology runs).
    pub cell: Option<u64>,
    /// Ordinal of the first divergent checkpoint.
    pub checkpoint: usize,
    /// Stream-index window `[a, b)` the checkpoint covers.
    pub window: (u64, u64),
    /// Simulated time of the reference's last agreeing checkpoint (zero
    /// when the streams disagree from the first checkpoint on).
    pub since: SimTime,
    /// The reference's event at the first differing position (`None` =
    /// its stream ended first, or it keeps no events in the window).
    pub expected: Option<RecordedEvent>,
    /// The divergent pass's event at that position.
    pub actual: Option<RecordedEvent>,
    /// Whether the reference had events to compare in the window. A
    /// checkpoint-only golden does not, so the checkpoint window is as
    /// close as the break can be pinned.
    pub reference_events: bool,
}

impl Divergence {
    /// The structured event-level diff `verify-determinism` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "determinism divergence: {} vs {}{}",
            self.pass,
            self.reference,
            match self.cell {
                Some(c) => format!(" (cell {c} lane)"),
                None => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "  first divergent checkpoint: #{} (events {}..{}, after t={:.9}s)",
            self.checkpoint,
            self.window.0,
            self.window.1,
            self.since.as_secs_f64()
        );
        match (&self.expected, &self.actual) {
            (Some(e), Some(a)) => {
                let _ = writeln!(out, "  first divergent event:");
                let _ = writeln!(out, "    {:<8} {}", self.reference, e.render());
                let _ = writeln!(out, "    {:<8} {}", self.pass, a.render());
            }
            (Some(e), None) => {
                let _ = writeln!(
                    out,
                    "  {} stream ended before the reference's event:",
                    self.pass
                );
                let _ = writeln!(out, "    {:<8} {}", self.reference, e.render());
            }
            (None, Some(a)) => {
                let _ = writeln!(out, "  extra event only in {}:", self.pass);
                let _ = writeln!(out, "    {:<8} {}", self.pass, a.render());
            }
            (None, None) if !self.reference_events => {
                let _ = writeln!(
                    out,
                    "  (the {} recording keeps checkpoints only; the break lies in \
                     the window above)",
                    self.reference
                );
            }
            (None, None) => {
                let _ = writeln!(
                    out,
                    "  (window re-run did not reproduce an event-level difference; \
                     checkpoint fingerprints still disagree)"
                );
            }
        }
        out
    }
}

/// Ordinal of the first checkpoint window where lane `b` departs from
/// lane `a`. When every full checkpoint agrees but the totals differ,
/// the break is in the partial tail after the last checkpoint.
fn first_divergent_window(a: &Recording, b: &Recording) -> Option<usize> {
    match first_divergent_checkpoint(&a.checkpoints, &b.checkpoints) {
        Some(cp) => Some(cp),
        None if a.total_events != b.total_events || a.fp != b.fp => Some(a.checkpoints.len()),
        None => None,
    }
}

/// The full verification verdict.
#[derive(Clone, Debug)]
pub struct VerifyOutcome {
    /// Scenario name from the file.
    pub name: String,
    /// Canonical events folded by the `run` pass (all lanes).
    pub events: u64,
    /// The `run` pass's folded fingerprint, 16 hex digits.
    pub fp: String,
    /// Whether the run was checked against a golden recording.
    pub against: bool,
    /// The `run` pass's checkpoint-only recording per lane, as JSONL:
    /// what `verify-determinism --record` writes and `--against` reads.
    pub recordings: Vec<String>,
    /// Localized breaks, empty when everything agreed.
    pub divergences: Vec<Divergence>,
    /// Sweep-matrix cells whose fingerprint differed between 1 thread
    /// and N threads: `(cell index, fp@1, fp@N)`.
    pub sweep_mismatches: Vec<(usize, String, String)>,
    /// Whether the sweep-matrix comparison ran (scenario had a sweep).
    pub swept: bool,
}

impl VerifyOutcome {
    /// True when every pass, the golden and every sweep cell agreed.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty() && self.sweep_mismatches.is_empty()
    }
}

/// Runs the scenario's base configuration once, with one recorder per
/// radio-cell lane built by `make` (given the lane's cell id in
/// topology runs).
fn record(
    spec: &ScenarioSpec,
    make: impl Fn(Option<u64>) -> FlightRecorder,
) -> Vec<FlightRecorder> {
    match &spec.topo {
        None => {
            let mut rec = make(None);
            airtime_wlan::run_observed(&spec.cfg, &mut rec);
            vec![rec]
        }
        Some(topo) => {
            let mut obs: Vec<_> = (0..topo.cells.len())
                .map(|c| make(Some(c as u64)))
                .collect();
            airtime_topo::run_topology(topo, &mut obs);
            obs
        }
    }
}

/// A recorder for one lane of `pass`, carrying the injection hook when
/// it names this pass. The injection names a global stream index; in
/// topology runs it lands in cell 0's lane.
fn recorder(opts: &VerifyOptions, interval: u64, pass: &str, cell: Option<u64>) -> FlightRecorder {
    let mut rec = FlightRecorder::new().with_interval(interval);
    if let Some(c) = cell {
        rec = rec.for_cell(c);
    }
    let inject = opts
        .inject
        .as_ref()
        .filter(|(name, _)| name == pass)
        .map(|&(_, idx)| idx);
    if let (Some(idx), 0) = (inject, cell.unwrap_or(0)) {
        rec = rec.with_injected_divergence(idx);
    }
    rec
}

/// Compares `pass` against `reference` lane by lane, pinning each
/// break: live passes (which keep no events) re-run recording only the
/// divergent window, a golden contributes the events it kept there.
fn compare(
    spec: &ScenarioSpec,
    opts: &VerifyOptions,
    interval: u64,
    reference: (&str, &[Recording]),
    pass: (&str, &[Recording]),
) -> Vec<Divergence> {
    let window = |name: &str, lanes: &[Recording], lane: usize, a: u64, b: u64| {
        if name == GOLDEN {
            return lanes[lane]
                .events
                .iter()
                .filter(|e| (a..b).contains(&e.index))
                .cloned()
                .collect::<Vec<_>>();
        }
        let mut recs = record(spec, |cell| {
            recorder(opts, interval, name, cell).with_window(a, b)
        });
        recs.swap_remove(lane).recording().events
    };
    let mut out = Vec::new();
    for (lane, (r, p)) in reference.1.iter().zip(pass.1).enumerate() {
        let Some(cp) = first_divergent_window(r, p) else {
            continue;
        };
        let (a, b) = (cp as u64 * interval, (cp as u64 + 1) * interval);
        let expected = window(reference.0, reference.1, lane, a, b);
        let mut actual = window(pass.0, pass.1, lane, a, b);
        // A ring-buffered golden keeps only the tail of the window;
        // align both sides on its first kept index.
        if let Some(first) = expected.first() {
            actual.retain(|e| e.index >= first.index);
        }
        let (e, x) = match first_divergent_event(&expected, &actual) {
            Some((e, x)) if !expected.is_empty() => (e.cloned(), x.cloned()),
            _ => (None, None),
        };
        out.push(Divergence {
            pass: pass.0.to_string(),
            reference: reference.0.to_string(),
            cell: spec.topo.as_ref().map(|_| lane as u64),
            checkpoint: cp,
            window: (a, b),
            since: cp
                .checked_sub(1)
                .and_then(|i| r.checkpoints.get(i))
                .map_or(SimTime::ZERO, |c| c.t),
            expected: e,
            actual: x,
            reference_events: !expected.is_empty(),
        });
    }
    out
}

/// Verifies a compiled scenario's determinism: the base configuration
/// runs twice, and the two causal streams — plus the golden in
/// `opts.against`, when given — must agree, with any break localized to
/// the exact first divergent event. `doc` additionally enables the
/// sweep-matrix thread comparison when the scenario declares a
/// `[sweep]`.
pub fn verify_determinism(
    spec: &ScenarioSpec,
    doc: Option<&Doc>,
    file: &str,
    opts: &VerifyOptions,
) -> Result<VerifyOutcome, ScenarioError> {
    let lanes = spec.topo.as_ref().map_or(1, |t| t.cells.len());
    let (golden, interval) = match &opts.against {
        None => (None, opts.interval),
        Some(recs) => {
            let error = |msg: String| ScenarioError {
                file: file.to_string(),
                line: 0,
                msg,
            };
            if recs.len() != lanes {
                return Err(error(format!(
                    "the golden has {} recording(s) but the scenario runs {lanes} \
                     radio-cell lane(s)",
                    recs.len()
                )));
            }
            let interval = recs[0].interval;
            if recs.iter().any(|r| r.interval != interval) {
                return Err(error(
                    "the golden's lane recordings use different checkpoint intervals".into(),
                ));
            }
            (Some(recs), interval)
        }
    };
    // Fingerprint-only passes; `compare` re-runs a window when it
    // needs events.
    let pass = |name: &str| {
        record(spec, |cell| {
            recorder(opts, interval, name, cell).with_capacity(0)
        })
    };
    let recordings = |recs: &[FlightRecorder]| recs.iter().map(FlightRecorder::recording).collect();
    let run = pass(PASSES[0]);
    let run_lanes: Vec<Recording> = recordings(&run);
    let repeat: Vec<Recording> = recordings(&pass(PASSES[1]));
    let mut divergences = Vec::new();
    if let Some(golden) = golden {
        divergences.extend(compare(
            spec,
            opts,
            interval,
            (GOLDEN, golden.as_slice()),
            (PASSES[0], &run_lanes),
        ));
    }
    divergences.extend(compare(
        spec,
        opts,
        interval,
        (PASSES[0], &run_lanes),
        (PASSES[1], &repeat),
    ));
    // Sweep-matrix comparison: 1 thread vs N, per-cell fingerprints.
    let mut sweep_mismatches = Vec::new();
    let mut swept = false;
    if let Some(doc) = doc {
        let (axes, _) = crate::expand(doc, file)?;
        if !axes.is_empty() && opts.inject.is_none() {
            swept = true;
            let lo = run_sweep(doc, file, 1)?;
            let hi = run_sweep(doc, file, opts.threads.max(2))?;
            for (c1, cn) in lo.cells.iter().zip(hi.cells.iter()) {
                let f1 = c1.fp.clone().unwrap_or_default();
                let fn_ = cn.fp.clone().unwrap_or_default();
                if f1 != fn_ {
                    sweep_mismatches.push((c1.index, f1, fn_));
                }
            }
        }
    }
    Ok(VerifyOutcome {
        name: spec.name.clone(),
        events: run_lanes.iter().map(|r| r.total_events).sum(),
        fp: fp_hex(match &spec.topo {
            None => run[0].fingerprint(),
            Some(_) => combine_fps(run.iter().map(FlightRecorder::fingerprint)),
        }),
        against: golden.is_some(),
        recordings: run_lanes.iter().map(Recording::to_jsonl).collect(),
        divergences,
        sweep_mismatches,
        swept,
    })
}
