//! The three workloads: set-up (parse, compile, expand, construct) and
//! one closed-loop round of the run phase (simulate, aggregate, emit).

use std::time::{Duration, Instant};

use airtime_obs::NullObserver;
use airtime_scenario::tournament::{self, TournamentJob};
use airtime_scenario::{aggregate, emit, toml, Axis, Job};
use airtime_wlan::{CellSim, NetworkConfig};

use crate::gen::{self, Text};
use crate::stats::{digest, Fnv};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Single mixed-rate cells through `airtime_wlan::run`, no observer,
    /// one thread.
    Cell,
    /// The scheduler tournament through `run_tournament` on two threads
    /// with its standard observer rig.
    Zoo,
    /// A roaming multi-cell topology through `run_sweep` with its
    /// per-cell ledger, span and recorder rig.
    Campus,
}

/// Worker threads the tournament's pool runs on.
pub const ZOO_THREADS: usize = 2;

impl Kind {
    pub const ALL: [(&'static str, Kind); 3] = [
        ("cell_mixed_rate", Kind::Cell),
        ("zoo_tournament", Kind::Zoo),
        ("campus_roam", Kind::Campus),
    ];

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.iter().find(|(n, _)| *n == name).map(|&(_, k)| k)
    }

    pub fn name(self) -> &'static str {
        Kind::ALL
            .iter()
            .find(|(_, k)| *k == self)
            .map(|(n, _)| *n)
            .expect("every kind is listed")
    }

    pub fn inputs(self, seed: u64) -> Vec<Text> {
        match self {
            Kind::Cell => gen::cell_mixed_rate(seed),
            Kind::Zoo => gen::zoo_tournament(seed),
            Kind::Campus => gen::campus_roam(seed),
        }
    }

    /// Worker threads the run phase uses.
    pub fn threads(self) -> usize {
        match self {
            Kind::Zoo => ZOO_THREADS,
            Kind::Cell | Kind::Campus => 1,
        }
    }
}

/// One parsed and expanded scenario document.
pub struct Doc {
    pub file: String,
    pub doc: toml::Doc,
    pub axes: Vec<Axis>,
    /// Sweep jobs (cell and campus workloads).
    pub jobs: Vec<Job>,
    /// Tournament jobs (zoo workload).
    pub tjobs: Vec<TournamentJob>,
}

/// A workload's inputs after parse/compile/expand.
pub struct Compiled {
    pub kind: Kind,
    pub docs: Vec<Doc>,
}

impl Compiled {
    /// Every single-cell configuration the workload runs (for the
    /// campus topology: its per-cell template).
    pub fn configs(&self) -> Vec<&NetworkConfig> {
        self.docs
            .iter()
            .flat_map(|d| {
                d.jobs
                    .iter()
                    .map(|j| j.spec.topo.as_ref().map_or(&j.spec.cfg, |t| &t.base))
                    .chain(d.tjobs.iter().map(|j| &j.spec.cfg))
            })
            .collect()
    }

    pub fn job_count(&self) -> usize {
        self.docs.iter().map(|d| d.jobs.len() + d.tjobs.len()).sum()
    }

    /// Simulated seconds one round completes (a topology counts its
    /// shared timeline once).
    pub fn sim_seconds(&self) -> f64 {
        self.configs()
            .iter()
            .map(|c| c.duration.as_secs_f64())
            .sum()
    }
}

/// Parses, compiles and expands generated inputs.
pub fn compile(kind: Kind, texts: &[Text]) -> Result<Compiled, String> {
    let mut docs = Vec::new();
    for t in texts {
        let doc = airtime_scenario::parse_text(&t.text, &t.file).map_err(|e| e.to_string())?;
        let (axes, jobs, tjobs) = match kind {
            Kind::Zoo => {
                let base = airtime_scenario::compile(&doc, &t.file).map_err(|e| e.to_string())?;
                let spec = tournament::compile_tournament(&doc, &base)
                    .map_err(|e| format!("{}: {e:?}", t.file))?
                    .ok_or_else(|| format!("{}: no [tournament] section", t.file))?;
                (
                    Vec::new(),
                    Vec::new(),
                    tournament::expand_tournament(&base, &spec),
                )
            }
            Kind::Cell | Kind::Campus => {
                let (axes, jobs) =
                    airtime_scenario::expand(&doc, &t.file).map_err(|e| e.to_string())?;
                (axes, jobs, Vec::new())
            }
        };
        docs.push(Doc {
            file: t.file.clone(),
            doc,
            axes,
            jobs,
            tjobs,
        });
    }
    Ok(Compiled { kind, docs })
}

/// Builds (and drops) one simulator per radio cell: a single-cell job's
/// own cell, or one cell per AP over a topology's template.
pub fn construct(c: &Compiled) {
    for d in &c.docs {
        for j in &d.jobs {
            match &j.spec.topo {
                None => build_cell(&j.spec.cfg),
                Some(t) => t.cells.iter().for_each(|_| build_cell(&t.base)),
            }
        }
        for j in &d.tjobs {
            build_cell(&j.spec.cfg);
        }
    }
}

fn build_cell(cfg: &NetworkConfig) {
    let mask = vec![true; cfg.stations.len()];
    let mut obs = NullObserver;
    std::hint::black_box(CellSim::new(cfg, &mut obs, &mask));
}

/// Host time from generated inputs to constructed simulators.
pub fn timed_setup(kind: Kind, texts: &[Text]) -> Result<Duration, String> {
    let t0 = Instant::now();
    construct(&compile(kind, texts)?);
    Ok(t0.elapsed())
}

/// What one round of the run phase produced.
pub struct Round {
    /// Host time of the run phase: simulation, aggregation, emission.
    pub wall: Duration,
    /// The part of `wall` spent aggregating and emitting outside the
    /// program's run entry point.
    pub emit: Duration,
    /// Digest of everything the round emitted, reports included.
    pub digest: u64,
    /// Per-job digests in job order (tournament: one per row).
    pub job_digests: Vec<u64>,
    /// Jobs whose own output flags a defect (a failed ledger audit).
    pub defective: usize,
    /// Rows whose baseline-property check failed: a simulated outcome,
    /// counted but not a failure.
    pub check_fails: usize,
}

/// Digest of a tournament row's deterministic fields.
pub fn row_digest(fp: &str, total: f64, util: f64, jain_t: f64, jain_a: f64, check: &str) -> u64 {
    let mut h = Fnv::default();
    h.str(fp).str(check);
    for x in [total, util, jain_t, jain_a] {
        h.bytes(&x.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Runs one round of the workload's run phase on `threads` workers
/// (the tournament; the other workloads have one job per document).
pub fn run_round(c: &Compiled, threads: usize) -> Result<Round, String> {
    let mut h = Fnv::default();
    let mut job_digests = Vec::new();
    let (mut defective, mut check_fails) = (0, 0);
    let (mut wall, mut emit_wall) = (Duration::ZERO, Duration::ZERO);
    for d in &c.docs {
        match c.kind {
            Kind::Cell => {
                let t0 = Instant::now();
                let mut reports = Vec::with_capacity(d.jobs.len());
                let mut cells = Vec::with_capacity(d.jobs.len());
                for j in &d.jobs {
                    let report = airtime_wlan::run(&j.spec.cfg);
                    let ta = Instant::now();
                    cells.push(aggregate::aggregate(
                        j.index,
                        j.coords.clone(),
                        &j.spec,
                        &report,
                        &[],
                    ));
                    emit_wall += ta.elapsed();
                    reports.push(report);
                }
                let te = Instant::now();
                let name = &d.jobs[0].spec.name;
                let json = emit::to_json(name, &d.axes, &cells);
                let csv = emit::to_csv(name, &d.axes, &cells);
                emit_wall += te.elapsed();
                wall += t0.elapsed();
                for r in &reports {
                    let jd = digest(&format!("{r:?}"));
                    job_digests.push(jd);
                    h.bytes(&jd.to_le_bytes());
                }
                h.str(&json).str(&csv);
                check_fails += cells.iter().filter(|c| c.check.label() == "fail").count();
            }
            Kind::Zoo => {
                let t0 = Instant::now();
                let out = tournament::run_tournament(&d.doc, &d.file, threads)
                    .map_err(|e| e.to_string())?;
                let te = Instant::now();
                let json = tournament::to_json(&out);
                let csv = tournament::to_csv(&out);
                emit_wall += te.elapsed();
                wall += t0.elapsed();
                for r in &out.rows {
                    job_digests.push(row_digest(
                        &r.fp,
                        r.total_mbps,
                        r.utilization,
                        r.jain_throughput,
                        r.jain_airtime,
                        r.check.label(),
                    ));
                }
                h.str(&json).str(&csv);
                check_fails += out
                    .rows
                    .iter()
                    .filter(|r| r.check.label() == "fail")
                    .count();
            }
            Kind::Campus => {
                let t0 = Instant::now();
                let out = airtime_scenario::run_sweep(&d.doc, &d.file, threads)
                    .map_err(|e| e.to_string())?;
                let te = Instant::now();
                let json = emit::to_json(&out.name, &out.axes, &out.cells);
                let csv = emit::to_csv(&out.name, &out.axes, &out.cells);
                emit_wall += te.elapsed();
                wall += t0.elapsed();
                job_digests.push(digest(&json));
                h.str(&json).str(&csv);
                defective += out
                    .cells
                    .iter()
                    .filter(|c| c.roam.as_ref().is_some_and(|r| !r.audits_pass))
                    .count();
                check_fails += out.failed_cells();
            }
        }
    }
    Ok(Round {
        wall,
        emit: emit_wall,
        digest: h.finish(),
        job_digests,
        defective,
        check_fails,
    })
}
