//! The scheduler-zoo tournament runner.
//!
//! A `[tournament]` section turns one scenario file into a side-by-side
//! comparison matrix: every named scheduler **family** runs the same
//! workload over every **rate mix** and **direction**, on the same
//! deterministic job pool the sweep engine uses, and the results land
//! in one table so the paper's core claim — time-based fairness beats
//! throughput fairness in multi-rate cells — can be read off per
//! family:
//!
//! ```toml
//! name = "zoo"
//! duration_s = 30
//! warmup_s = 3
//! seed = 1
//!
//! [tournament]
//! families = ["fifo", "drr", "tbr", "pf", "maxmin"]
//! rate_mixes = ["11,1", "11,5.5,2,1"]
//! directions = ["down"]          # optional; default down
//! ```
//!
//! Each row reports total goodput, Jain fairness of throughput and of
//! airtime, the family's baseline-property verdict (time-fair families
//! must equalise airtime, throughput-fair ones goodput), per-station
//! goodput/airtime shares, queueing-delay p50/p95/p99, and the cell's
//! determinism fingerprint. Job order is family-major (family × mix ×
//! direction), results return in matrix order regardless of thread
//! count, and both emitters are pure functions of the rows — the
//! documents are byte-identical across `--threads` settings.
//!
//! If the file's `[scheduler]` table tunes the same family that the
//! tournament lists (say a custom TBR `bucket_ms`), that tuned
//! configuration is used for the family's rows; every other family runs
//! its registry default.

use airtime_sched::SchedulerKind;
use airtime_wlan::{Direction, StationConfig, MAX_STATIONS};

use crate::aggregate::{self, CheckOutcome};
use crate::spec::{self, CompileError, ScenarioSpec};
use crate::toml::{Doc, Entry, Value};
use crate::{bind, pool, PoolStats, ScenarioError};

/// Schema identifier stamped into both tournament documents.
pub const SCHEMA: &str = "airtime-tournament";
/// Schema version stamped into both tournament documents.
pub const VERSION: u32 = 1;

const TOURNAMENT_KEYS: &[&str] = &["families", "rate_mixes", "directions"];

/// A compiled `[tournament]` section.
#[derive(Clone, Debug)]
pub struct TournamentSpec {
    /// One resolved scheduler configuration per family, in file order.
    pub families: Vec<SchedulerKind>,
    /// Rate mixes, each the label list of one cell population
    /// (`"11,1"` → an 11 Mbit/s and a 1 Mbit/s station).
    pub rate_mixes: Vec<Vec<airtime_phy::DataRate>>,
    /// Traffic directions to run each (family, mix) pair under.
    pub directions: Vec<Direction>,
}

/// One job of the tournament matrix.
#[derive(Clone, Debug)]
pub struct TournamentJob {
    /// Matrix index (family-major: family × mix × direction).
    pub index: usize,
    /// Family name (a registry entry).
    pub family: String,
    /// Rate-mix label, e.g. `"11,1"`.
    pub mix: String,
    /// `"down"` or `"up"`.
    pub direction: String,
    /// The fully-specified single-cell scenario this job runs.
    pub spec: ScenarioSpec,
}

/// One station of a tournament row.
#[derive(Clone, Debug)]
pub struct TournamentStation {
    /// Link-rate label (`11M`, `5.5M`, …).
    pub rate: String,
    /// Sum of the station's flow goodputs, Mbit/s.
    pub goodput_mbps: f64,
    /// Share of all clients' channel occupancy.
    pub airtime_share: f64,
    /// Queueing delay percentiles `[p50, p95, p99]`, milliseconds.
    pub delay_ms: [f64; 3],
}

/// One completed tournament row.
#[derive(Clone, Debug)]
pub struct TournamentRow {
    /// Matrix index.
    pub index: usize,
    /// Family name.
    pub family: String,
    /// Rate-mix label.
    pub mix: String,
    /// Traffic direction label.
    pub direction: String,
    /// Per-station results, in mix order.
    pub stations: Vec<TournamentStation>,
    /// Aggregate cell goodput, Mbit/s.
    pub total_mbps: f64,
    /// Channel busy fraction over the measured span.
    pub utilization: f64,
    /// Jain's index of per-station goodput; NaN when undefined (see
    /// [`aggregate::jain_defined`]).
    pub jain_throughput: f64,
    /// Jain's index of per-station airtime; NaN when undefined.
    pub jain_airtime: f64,
    /// Baseline-property verdict for this family.
    pub check: CheckOutcome,
    /// Determinism fingerprint (16 hex chars).
    pub fp: String,
}

/// A fully executed tournament.
#[derive(Clone, Debug)]
pub struct TournamentOutcome {
    /// Scenario name from the file.
    pub name: String,
    /// Family names, in file order.
    pub families: Vec<String>,
    /// Rate-mix labels, in file order.
    pub mixes: Vec<String>,
    /// Direction labels, in file order.
    pub directions: Vec<String>,
    /// One row per job, in matrix order.
    pub rows: Vec<TournamentRow>,
    /// Worker-pool accounting.
    pub stats: PoolStats,
    /// Whether any row failed its check and `[check] strict = true`.
    pub strict_failure: bool,
}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        line,
        msg: msg.into(),
    })
}

/// Reads an entry that is either one string or an array of strings.
fn string_list(e: &Entry) -> Result<Vec<(String, usize)>, CompileError> {
    match &e.value {
        Value::Str(s) => Ok(vec![(s.clone(), e.line)]),
        Value::Array(xs) => {
            let mut out = Vec::new();
            for v in xs {
                match v.as_str() {
                    Some(s) => out.push((s.to_string(), e.line)),
                    None => {
                        return err(
                            e.line,
                            format!(
                                "key '{}' expects strings, found a {} element",
                                e.key,
                                v.type_name()
                            ),
                        )
                    }
                }
            }
            Ok(out)
        }
        other => err(
            e.line,
            format!(
                "key '{}' expects a string or an array of strings, got {}",
                e.key,
                other.type_name()
            ),
        ),
    }
}

/// Compiles the `[tournament]` section against the already-compiled
/// base spec. Returns `Ok(None)` when the document has no tournament.
pub fn compile_tournament(
    doc: &Doc,
    base: &ScenarioSpec,
) -> Result<Option<TournamentSpec>, CompileError> {
    let Some(t) = doc.table("tournament") else {
        return Ok(None);
    };
    spec::check_keys(t, "tournament", TOURNAMENT_KEYS)?;
    if base.topo.is_some() {
        return err(
            t.line,
            "a [tournament] cannot be combined with a [[cells]] topology; \
             tournaments run single-cell workloads",
        );
    }

    let Some(fam_entry) = t.get("families") else {
        return err(
            t.line,
            "[tournament] needs 'families' (e.g. families = [\"fifo\", \"tbr\", \"pf\"])",
        );
    };
    let mut families = Vec::new();
    let mut seen = Vec::new();
    for (name, line) in string_list(fam_entry)? {
        let name = name.trim().to_string();
        let Some(kind) = SchedulerKind::from_family(&name) else {
            return err(
                line,
                format!(
                    "unknown scheduler family '{name}'; expected one of {}",
                    airtime_sched::family_names()
                ),
            );
        };
        if seen.contains(&name) {
            return err(line, format!("scheduler family '{name}' listed twice"));
        }
        seen.push(name);
        // A [scheduler] table tuning this same family supplies the
        // configuration for its rows; other families run defaults.
        if base.cfg.scheduler.family() == kind.family() {
            families.push(base.cfg.scheduler.clone());
        } else {
            families.push(kind);
        }
    }
    if families.is_empty() {
        return err(fam_entry.line, "[tournament] 'families' must not be empty");
    }

    let Some(mix_entry) = t.get("rate_mixes") else {
        return err(
            t.line,
            "[tournament] needs 'rate_mixes' (e.g. rate_mixes = [\"11,1\", \"11,5.5,2,1\"])",
        );
    };
    let mut rate_mixes = Vec::new();
    for (mix, line) in string_list(mix_entry)? {
        let mut rates = Vec::new();
        for tok in mix.split(',') {
            let Some(rate) = spec::rate_from_token(tok) else {
                return err(
                    line,
                    format!(
                        "unknown rate '{}' in mix '{mix}'; expected one of \
                         1, 2, 5.5, 11, 6, 9, 12, 18, 24, 36, 48, 54",
                        tok.trim()
                    ),
                );
            };
            rates.push(rate);
        }
        if rates.len() > MAX_STATIONS {
            let msg = format!(
                "rate mix has {} stations; at most {MAX_STATIONS}",
                rates.len()
            );
            return err(line, msg);
        }
        rate_mixes.push(rates);
    }
    if rate_mixes.is_empty() {
        return err(
            mix_entry.line,
            "[tournament] 'rate_mixes' must not be empty",
        );
    }

    let directions = match t.get("directions") {
        None => vec![Direction::Downlink],
        Some(e) => {
            let mut dirs = Vec::new();
            for (d, line) in string_list(e)? {
                dirs.push(spec::direction_from(&d, line)?);
            }
            if dirs.is_empty() {
                return err(e.line, "[tournament] 'directions' must not be empty");
            }
            dirs
        }
    };

    Ok(Some(TournamentSpec {
        families,
        rate_mixes,
        directions,
    }))
}

fn mix_label(rates: &[airtime_phy::DataRate]) -> String {
    rates
        .iter()
        .map(|r| r.to_string().trim_end_matches('M').to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn direction_label(d: Direction) -> &'static str {
    match d {
        Direction::Downlink => "down",
        Direction::Uplink => "up",
    }
}

/// Expands the tournament into its job matrix (family-major).
pub fn expand_tournament(base: &ScenarioSpec, t: &TournamentSpec) -> Vec<TournamentJob> {
    let mut jobs = Vec::new();
    for kind in &t.families {
        for rates in &t.rate_mixes {
            for &dir in &t.directions {
                let mut spec = base.clone();
                spec.cfg.scheduler = kind.clone();
                spec.cfg.stations = rates
                    .iter()
                    .map(|&r| StationConfig::tcp_at(r, dir))
                    .collect();
                spec.rate_labels = rates.iter().map(|r| r.to_string()).collect();
                jobs.push(TournamentJob {
                    index: jobs.len(),
                    family: kind.family().to_string(),
                    mix: mix_label(rates),
                    direction: direction_label(dir).to_string(),
                    spec,
                });
            }
        }
    }
    jobs
}

/// Parses, expands and executes a document's `[tournament]` on
/// `threads` workers.
pub fn run_tournament(
    doc: &Doc,
    file: &str,
    threads: usize,
) -> Result<TournamentOutcome, ScenarioError> {
    let base = spec::compile(doc).map_err(bind(file))?;
    let Some(tspec) = compile_tournament(doc, &base).map_err(bind(file))? else {
        return Err(ScenarioError {
            file: file.to_string(),
            line: 0,
            msg: "scenario has no [tournament] section; add one or use `sweep`".to_string(),
        });
    };
    let jobs = expand_tournament(&base, &tspec);
    let (rows, stats) = pool::run_parallel(&jobs, threads, |_, job| {
        let (cell, delays) = crate::run_cell(job.index, Vec::new(), &job.spec);
        let stations = cell
            .stations
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let d = delays.iter().find(|d| d.station == (i + 1) as u64);
                TournamentStation {
                    rate: s.rate.clone(),
                    goodput_mbps: s.goodput_mbps,
                    airtime_share: s.airtime_share,
                    delay_ms: d.map(|d| d.queueing_ms).unwrap_or([0.0; 3]),
                }
            })
            .collect();
        TournamentRow {
            index: job.index,
            family: job.family.clone(),
            mix: job.mix.clone(),
            direction: job.direction.clone(),
            stations,
            total_mbps: cell.total_mbps,
            utilization: cell.utilization,
            jain_throughput: cell.jain_throughput,
            jain_airtime: cell.jain_airtime,
            check: cell.check,
            fp: cell.fp.expect("run_cell sets the fingerprint"),
        }
    });
    let strict_failure = base.check.strict
        && rows
            .iter()
            .any(|r| matches!(r.check, CheckOutcome::Fail(_)));
    Ok(TournamentOutcome {
        name: base.name,
        families: tspec
            .families
            .iter()
            .map(|k| k.family().to_string())
            .collect(),
        mixes: tspec.rate_mixes.iter().map(|r| mix_label(r)).collect(),
        directions: tspec
            .directions
            .iter()
            .map(|&d| direction_label(d).to_string())
            .collect(),
        rows,
        stats,
        strict_failure,
    })
}

/// The whole tournament as one JSON document.
pub fn to_json(out: &TournamentOutcome) -> String {
    use airtime_obs::json::Obj;
    let list = |items: &[String]| {
        let mut s = String::from("[");
        for (i, v) in items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(&airtime_obs::json::escape(v));
            s.push('"');
        }
        s.push(']');
        s
    };
    let mut root = Obj::new();
    root.str("schema", SCHEMA)
        .u64("version", VERSION as u64)
        .str("scenario", &out.name)
        .raw("families", &list(&out.families))
        .raw("rate_mixes", &list(&out.mixes))
        .raw("directions", &list(&out.directions));
    let mut rows = String::from("[");
    for (i, r) in out.rows.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        let mut stations = String::from("[");
        for (j, s) in r.stations.iter().enumerate() {
            if j > 0 {
                stations.push(',');
            }
            let mut o = Obj::new();
            o.str("rate", &s.rate)
                .f64("goodput_mbps", s.goodput_mbps)
                .f64("airtime_share", s.airtime_share)
                .f64("delay_p50_ms", s.delay_ms[0])
                .f64("delay_p95_ms", s.delay_ms[1])
                .f64("delay_p99_ms", s.delay_ms[2]);
            stations.push_str(&o.finish());
        }
        stations.push(']');
        let mut o = Obj::new();
        o.u64("job", r.index as u64)
            .str("family", &r.family)
            .str("rate_mix", &r.mix)
            .str("direction", &r.direction)
            .f64("total_mbps", r.total_mbps)
            .f64("utilization", r.utilization)
            .opt_f64(
                "jain_throughput",
                aggregate::jain_defined(r.jain_throughput),
            )
            .opt_f64("jain_airtime", aggregate::jain_defined(r.jain_airtime))
            .str("check", r.check.label());
        if let CheckOutcome::Fail(reason) = &r.check {
            o.str("check_reason", reason);
        }
        o.str("fp", &r.fp).raw("stations", &stations);
        rows.push_str(&o.finish());
    }
    rows.push(']');
    root.raw("rows", &rows);
    root.finish() + "\n"
}

/// The whole tournament as one CSV document: one row per job, station
/// columns padded to the widest mix.
pub fn to_csv(out: &TournamentOutcome) -> String {
    use airtime_obs::csv::Csv;
    use airtime_obs::json::num;
    let max_stations = out.rows.iter().map(|r| r.stations.len()).max().unwrap_or(0);
    let mut columns: Vec<String> = [
        "job",
        "family",
        "rate_mix",
        "direction",
        "total_mbps",
        "utilization",
        "jain_throughput",
        "jain_airtime",
        "check",
        "fp",
    ]
    .map(String::from)
    .to_vec();
    for i in 0..max_stations {
        columns.push(format!("rate{i}"));
        columns.push(format!("goodput{i}_mbps"));
        columns.push(format!("airtime{i}_share"));
        columns.push(format!("delay{i}_p50_ms"));
        columns.push(format!("delay{i}_p95_ms"));
        columns.push(format!("delay{i}_p99_ms"));
    }
    let mut csv = Csv::new(&format!("{SCHEMA}:{}", out.name), VERSION, &columns);
    for r in &out.rows {
        let mut row: Vec<String> = vec![
            r.index.to_string(),
            r.family.clone(),
            r.mix.clone(),
            r.direction.clone(),
            num(r.total_mbps),
            num(r.utilization),
            aggregate::jain_defined(r.jain_throughput).map_or_else(String::new, num),
            aggregate::jain_defined(r.jain_airtime).map_or_else(String::new, num),
            r.check.label().to_string(),
            r.fp.clone(),
        ];
        for i in 0..max_stations {
            match r.stations.get(i) {
                Some(s) => {
                    row.push(s.rate.clone());
                    row.push(num(s.goodput_mbps));
                    row.push(num(s.airtime_share));
                    row.push(num(s.delay_ms[0]));
                    row.push(num(s.delay_ms[1]));
                    row.push(num(s.delay_ms[2]));
                }
                None => {
                    for _ in 0..6 {
                        row.push(String::new());
                    }
                }
            }
        }
        csv.row(&row);
    }
    csv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZOO: &str = "\
name = \"zoo-test\"
duration_s = 3
warmup_s = 0.5
seed = 1

[tournament]
families = [\"fifo\", \"tbr\", \"pf\"]
rate_mixes = [\"11,1\", \"11,5.5\"]
";

    fn compile(text: &str) -> Result<Option<TournamentSpec>, CompileError> {
        let doc = crate::toml::parse(text).unwrap();
        let base = spec::compile(&doc).unwrap();
        compile_tournament(&doc, &base)
    }

    #[test]
    fn absent_section_compiles_to_none() {
        let t = compile("name = \"x\"\n[[station]]\nrate = \"11\"\n").unwrap();
        assert!(t.is_none());
    }

    #[test]
    fn matrix_is_family_major() {
        let doc = crate::toml::parse(ZOO).unwrap();
        let base = spec::compile(&doc).unwrap();
        let t = compile_tournament(&doc, &base).unwrap().unwrap();
        let jobs = expand_tournament(&base, &t);
        assert_eq!(jobs.len(), 6);
        let labels: Vec<(String, String)> = jobs
            .iter()
            .map(|j| (j.family.clone(), j.mix.clone()))
            .collect();
        assert_eq!(labels[0], ("fifo".into(), "11,1".into()));
        assert_eq!(labels[1], ("fifo".into(), "11,5.5".into()));
        assert_eq!(labels[2], ("tbr".into(), "11,1".into()));
        assert_eq!(labels[5], ("pf".into(), "11,5.5".into()));
        // Station populations follow the mix.
        assert_eq!(jobs[0].spec.cfg.stations.len(), 2);
        assert_eq!(jobs[0].spec.rate_labels, vec!["11M", "1M"]);
        assert_eq!(jobs[1].spec.rate_labels, vec!["11M", "5.5M"]);
    }

    #[test]
    fn tuned_base_scheduler_carries_into_its_family_row() {
        let text = "\
name = \"zoo\"
[scheduler]
kind = \"tbr\"
bucket_ms = 250
[tournament]
families = [\"fifo\", \"tbr\"]
rate_mixes = [\"11,1\"]
";
        let t = compile(text).unwrap().unwrap();
        match &t.families[1] {
            SchedulerKind::Tbr(c) => {
                assert_eq!(c.bucket, airtime_sim::SimDuration::from_millis(250))
            }
            other => panic!("expected tuned TBR, got {other:?}"),
        }
        assert!(matches!(t.families[0], SchedulerKind::Fifo));
    }

    #[test]
    fn diagnostics_name_line_and_valid_families() {
        for (text, needle, line) in [
            (
                "[tournament]\nfamilies = [\"fifo\", \"lifo\"]\nrate_mixes = [\"11,1\"]\n",
                "unknown scheduler family 'lifo'; expected one of fifo, rr, drr, tbr, txop, pf, maxmin",
                2,
            ),
            (
                "[tournament]\nfamilies = [\"fifo\", \"fifo\"]\nrate_mixes = [\"11,1\"]\n",
                "listed twice",
                2,
            ),
            (
                "[tournament]\nrate_mixes = [\"11,1\"]\n",
                "needs 'families'",
                1,
            ),
            (
                "[tournament]\nfamilies = [\"fifo\"]\n",
                "needs 'rate_mixes'",
                1,
            ),
            (
                "[tournament]\nfamilies = [\"fifo\"]\nrate_mixes = [\"11,7\"]\n",
                "unknown rate '7' in mix '11,7'",
                3,
            ),
            (
                "[tournament]\nfamilies = [\"fifo\"]\nrate_mixes = [\"11,1\"]\ndirections = [\"sideways\"]\n",
                "unknown direction 'sideways'",
                4,
            ),
            (
                "[tournament]\nfamilies = [\"fifo\"]\nrate_mixes = [\"11,1\"]\nbogus = 1\n",
                "unknown key 'bogus'",
                4,
            ),
        ] {
            let e = compile(text).unwrap_err();
            assert!(e.msg.contains(needle), "for {text:?}: got '{}'", e.msg);
            assert_eq!(e.line, line, "for {text:?}");
        }
    }

    /// A mix is one cell, so it holds at most `MAX_STATIONS` rates; a
    /// longer one once compiled and then panicked in the engine.
    #[test]
    fn a_mix_past_the_station_cap_is_rejected_at_its_line() {
        let mix = |n: usize| vec!["11"; n].join(",");
        let text = |n| {
            format!(
                "[tournament]\nfamilies = [\"rr\"]\nrate_mixes = [\"11\", \"{}\"]\n",
                mix(n)
            )
        };
        let e = compile(&text(MAX_STATIONS + 1)).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(
            e.msg.contains("rate mix has 4097 stations; at most 4096"),
            "{e}"
        );
        let t = compile(&text(MAX_STATIONS)).unwrap().unwrap();
        assert_eq!(t.rate_mixes[1].len(), MAX_STATIONS);
    }

    #[test]
    fn topology_scenarios_are_rejected() {
        let text = "\
name = \"zoo\"
[[cells]]
channel = 1
[[station]]
rate = \"11\"
[tournament]
families = [\"fifo\"]
rate_mixes = [\"11,1\"]
";
        let e = compile(text).unwrap_err();
        assert!(e.msg.contains("cannot be combined"), "{}", e.msg);
    }

    #[test]
    fn emitters_are_pure_and_schema_stamped() {
        let out = TournamentOutcome {
            name: "zoo".into(),
            families: vec!["fifo".into(), "tbr".into()],
            mixes: vec!["11,1".into()],
            directions: vec!["down".into()],
            rows: vec![TournamentRow {
                index: 0,
                family: "fifo".into(),
                mix: "11,1".into(),
                direction: "down".into(),
                stations: vec![TournamentStation {
                    rate: "11M".into(),
                    goodput_mbps: 1.5,
                    airtime_share: 0.5,
                    delay_ms: [1.0, 2.0, 3.0],
                }],
                total_mbps: 1.5,
                utilization: 0.9,
                jain_throughput: 0.8,
                jain_airtime: 1.0,
                check: CheckOutcome::Pass,
                fp: "00f0e1d2c3b4a596".into(),
            }],
            stats: PoolStats {
                threads: 1,
                per_thread_jobs: vec![1],
            },
            strict_failure: false,
        };
        let json = to_json(&out);
        assert!(json.starts_with(r#"{"schema":"airtime-tournament","version":1,"scenario":"zoo""#));
        assert!(json.contains(r#""family":"fifo","rate_mix":"11,1","direction":"down""#));
        assert!(json.contains(r#""delay_p99_ms":3"#));
        assert_eq!(json, to_json(&out), "emitter must be pure");
        let csv = to_csv(&out);
        assert!(csv.starts_with("# schema: airtime-tournament:zoo v1"));
        assert!(csv.contains("family,rate_mix,direction"));
        assert!(csv.contains("delay0_p99_ms"));
        assert!(csv.contains("0,fifo,\"11,1\",down,1.5,0.9,0.8,1,pass,00f0e1d2c3b4a596,11M"));
    }
}
