//! `airtime-cli` — run custom multi-rate WLAN experiments from the
//! command line.
//!
//! ```text
//! airtime-cli run --rates 11,1 --sched tbr --direction up --secs 20
//! airtime-cli run --rates 11,1 --sched tbr --events e.jsonl --metrics m.json
//! airtime-cli inspect e.jsonl
//! airtime-cli predict --rates 11,2,1
//! airtime-cli --help
//! ```
//!
//! The paper's tables and figures are presets under
//! `examples/scenarios/` (run with `sweep` or `tournament`), `predict`
//! for the analytic rows, and the cargo examples `campus_trace`,
//! `exp1_office` and `task_completion`; EXPERIMENTS.md names the one
//! command behind each.

use std::path::PathBuf;

use airtime::model::{gamma_measured, gamma_tcp_table2, rf_allocation, tf_allocation, NodeSpec};
use airtime::obs::json::{array_f64, Obj};
use airtime::obs::prof::{alloc_stats, dist_json, set_alloc_counting, DEFAULT_TRACE_CAP, HOST_PID};
use airtime::obs::{
    fp_hex, replay, AirtimeLedger, ChromeTrace, ChromeTraceObserver, CountingAlloc, FlightRecorder,
    JsonlObserver, MetricsRegistry, NullObserver, Observer, Recording, SpanCollector, Summarizer,
    TeeObserver,
};
use airtime::phy::DataRate;
use airtime::scenario::toml::Doc;
use airtime::sim::{LoopProfiler, SimTime};
use airtime::topo::{run_topology, run_topology_profiled};
use airtime::wlan::{run_instrumented, run_observed, CellSim, Report, SchedulerKind};

/// Allocation counting for `profile` (a gated relaxed-atomic load per
/// allocation when off — see `airtime::obs::prof::CountingAlloc`).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HELP: &str = "airtime-cli — multi-rate WLAN fairness experiments

USAGE:
    airtime-cli run [OPTIONS]       simulate a cell and print the report
    airtime-cli sweep <file.toml>   expand a scenario's [sweep] matrix and
                                    run it on a worker pool
    airtime-cli tournament <file.toml>
                                    run a scenario's [tournament] section:
                                    every listed scheduler family over
                                    every rate mix and direction, results
                                    side by side
    airtime-cli inspect <events>    summarize a JSONL event trace
    airtime-cli profile <file.toml>...
                                    time the event loop over one or more
                                    scenarios and emit a machine-readable
                                    perf report (plus an optional Chrome
                                    trace)
    airtime-cli verify-determinism <file.toml>
                                    run the scenario twice (and its sweep
                                    at 1 and N threads), optionally check
                                    it against a golden recording,
                                    compare flight-recorder fingerprints,
                                    and on mismatch pin the first
                                    divergent (time, label) event
    airtime-cli replay <recording>  pretty-print a flight recording
                                    (written by run --record) as a
                                    causal event log
    airtime-cli predict [OPTIONS]   analytic RF/TF predictions (Eqs 6/12)
                                    and each rate's γ(d,1500,2): the
                                    paper's Table 2 value and the
                                    closed-form model

Each command reads only the options listed under its name; any other
option exits 2 with an error naming it.

OPTIONS (run):
    --scenario <file>   run a scenario file (cell or topology) in place of
                        the document the flags below write; the file sets
                        the whole cell, so --rates, --sched, --direction,
                        --secs and --seed exit 2 beside it
    --rates <list>      comma-separated Mbit/s, one station each, from
                        {1,2,5.5,11,6,9,12,18,24,36,48,54}   [default: 11,1]
    --sched <name>      fifo | rr | drr | tbr | txop | pf | maxmin
                                                              [default: tbr]
    --direction <dir>   up | down                             [default: up]
    --secs <n>          simulated seconds, 2..=86400          [default: 20]
    --seed <n>          RNG seed, 0..=9223372036854775807     [default: 1]
    --events <path>     stream structured events to a JSONL trace
    --ledger <path>     account every microsecond of medium time to a
                        (station, category) slice, audit conservation
                        against the simulated clock (non-zero exit on
                        failure), and write the timeline as schema'd CSV
    --metrics <path>    export counters/gauges/histograms + time series
                        as JSON (implies instrumentation)
    --metrics-csv <path> export the metrics snapshot time-series as CSV
                        with a schema header (implies instrumentation)
    --record <path>     attach a flight recorder and write the causal
                        event recording (fingerprint checkpoints + the
                        retained event ring) as JSONL; topology
                        scenarios write one file per cell
                        (<stem>.cell<i>.jsonl). Combines with --events
                        and --ledger; the report stays byte-identical
                        to an unrecorded run.
    --json              print the report as JSON instead of a table

OPTIONS (sweep):
    --threads <n>       worker threads                  [default: all cores]
    --json <path>       write the result matrix as schema'd JSON
    --csv <path>        write the result matrix as schema'd CSV

OPTIONS (tournament):
    --threads <n>       worker threads                  [default: all cores]
    --json <path>       write the tournament matrix as schema'd JSON
    --csv <path>        write the tournament matrix as schema'd CSV
The job matrix is family-major (family x rate mix x direction) and the
emitted documents are byte-identical across --threads settings. A
[scheduler] table tuning a listed family supplies that family's
configuration; the rest run registry defaults.

Scenario files with [[cells]] tables describe multi-AP topologies
(AP placement, channels, station positions and waypoint mobility).
`run` prints per-cell results plus the handoff log; `sweep` grows
roaming columns (handoffs / drops / outage / audit / per-cell Mb/s).
Either command exits non-zero if a per-cell airtime-ledger audit fails.

OPTIONS (inspect):
    --spans             per-station frame-lifecycle delay percentiles
                        (queueing / contention / head-of-line, p50/95/99)
    --audit             replay the trace's airtime ledger and run the
                        conservation audit; non-zero exit on failure
    --prof <report>     pretty-print a perf report written by
                        `profile --json` (no trace path needed)
    --fp                the positional is a flight recording (from
                        run --record): print its fingerprint timeline
                        (rolling checkpoints) instead of a trace summary

OPTIONS (profile):
    --json <path>       where to write the perf-report JSON
                        (events/sec, per-label dispatch-time quantiles,
                        per-cell lanes)      [default: profile.report.json]
    --trace-out <path>  also export the run as Chrome trace-event JSON
                        — open in chrome://tracing or ui.perfetto.dev.
                        The trace is captured in a second untimed pass,
                        so it never skews the timing numbers.
    --trace-cap <n>     cap on buffered trace events (beyond it events
                        are dropped and counted)    [default: 1000000]
Scenario [sweep] sections are ignored: profile times the base config.

OPTIONS (verify-determinism):
    --threads <n>       sweep thread count compared against 1 [default: 4]
    --interval <n>      events per fingerprint checkpoint  [default: 4096]
    --record <path>     write the run's checkpoint-only recording (the
                        golden a later build is checked against);
                        topology scenarios write one file per cell
                        (<stem>.cell<i>.jsonl)
    --against <path>    check the run against a golden recording written
                        by --record (same per-cell naming) and bisect any
                        break to its first divergent checkpoint; the
                        golden's checkpoint interval is used
    --inject <pass:n>   test hook: perturb event #n of the named pass
                        (run or repeat), manufacturing a synthetic
                        divergence to exercise the localization path

OPTIONS (replay):
    --window <a..b>     only print events with stream index in [a, b)

Scenario files are a TOML subset; see examples/scenarios/ and the
README's \"Scenario files\" section. Malformed files exit non-zero with
a file:line diagnostic.

OPTIONS (predict):
    --rates <list>      as above
";

fn parse_rates(s: &str) -> Result<Vec<DataRate>, String> {
    let parse_rate = |tok: &str| {
        airtime::scenario::spec::rate_from_token(tok).ok_or(format!("unknown rate '{tok}'"))
    };
    let rates: Result<Vec<_>, _> = s.split(',').map(|t| parse_rate(t.trim())).collect();
    let rates = rates?;
    if rates.is_empty() {
        return Err("need at least one rate".into());
    }
    Ok(rates)
}

struct Args {
    rates: Vec<DataRate>,
    sched: SchedulerKind,
    /// `run --direction`: `up` or `down`, as a scenario file spells it.
    direction: String,
    secs: u64,
    seed: u64,
    events: Option<PathBuf>,
    ledger: Option<PathBuf>,
    metrics: Option<PathBuf>,
    metrics_csv: Option<PathBuf>,
    scenario: Option<PathBuf>,
    threads: Option<usize>,
    /// `--json` as a bare flag (`run`) or with a path (`sweep`).
    json: bool,
    json_path: Option<PathBuf>,
    csv: Option<PathBuf>,
    /// `inspect --spans`: frame-lifecycle delay percentiles.
    spans: bool,
    /// `inspect --audit`: conservation audit over the trace.
    audit: bool,
    /// `inspect --prof`: pretty-print a perf report JSON.
    prof: Option<PathBuf>,
    /// `profile --trace-out`: Chrome trace-event JSON destination.
    trace_out: Option<PathBuf>,
    /// `profile --trace-cap`: buffered-trace-event cap override.
    trace_cap: Option<usize>,
    /// `run --record` / `verify-determinism --record`: flight-recording
    /// JSONL destination.
    record: Option<PathBuf>,
    /// `verify-determinism --against`: golden recording to check.
    against: Option<PathBuf>,
    /// `inspect --fp`: fingerprint timeline of a flight recording.
    fp: bool,
    /// `verify-determinism --interval`: events per checkpoint.
    interval: Option<u64>,
    /// `verify-determinism --inject pass:index`: synthetic divergence.
    inject: Option<String>,
    /// `replay --window a..b`: stream-index window to print.
    window: Option<String>,
    /// Positional arguments (the trace path for `inspect`, the
    /// scenario file for `sweep`, one or more scenario files for
    /// `profile` — only `profile` accepts more than one).
    positionals: Vec<String>,
}

/// The flags each command reads. Any other flag is refused, so a
/// flag that a command would silently ignore cannot pass for one it
/// honours.
const READS: [(&str, &str); 8] = [
    (
        "run",
        "--scenario --rates --sched --direction --secs --seed --events --ledger --metrics \
         --metrics-csv --record --json",
    ),
    ("sweep", "--threads --json --csv"),
    ("tournament", "--threads --json --csv"),
    ("inspect", "--spans --audit --prof --fp"),
    ("profile", "--json --trace-out --trace-cap"),
    (
        "verify-determinism",
        "--threads --interval --record --against --inject",
    ),
    ("replay", "--window"),
    ("predict", "--rates"),
];

/// The `run` flags that write the default cell. A scenario file sets
/// all of it, so `run --scenario` refuses them rather than ignore them.
const CELL_FLAGS: &str = "--rates --sched --direction --secs --seed";

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let cmd = argv.next().ok_or("missing command; try --help")?;
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        return Err(HELP.to_string());
    }
    let mut args = Args {
        rates: vec![DataRate::B11, DataRate::B1],
        sched: SchedulerKind::tbr(),
        direction: "up".into(),
        secs: 20,
        seed: 1,
        events: None,
        ledger: None,
        metrics: None,
        metrics_csv: None,
        scenario: None,
        threads: None,
        json: false,
        json_path: None,
        csv: None,
        spans: false,
        audit: false,
        prof: None,
        trace_out: None,
        trace_cap: None,
        record: None,
        against: None,
        fp: false,
        interval: None,
        inject: None,
        window: None,
        positionals: Vec::new(),
    };
    let reads = READS.iter().find(|(c, _)| *c == cmd).map(|(_, f)| *f);
    // A stray positional is reported first: it is the likelier slip.
    let mut unread = None;
    // The first flag seen that builds `run`'s default cell.
    let mut cell_flag = None;
    while let Some(flag) = argv.next() {
        if flag.starts_with('-') && reads.is_some_and(|f| !f.split(' ').any(|r| r == flag)) {
            unread.get_or_insert_with(|| flag.clone());
        }
        if CELL_FLAGS.split(' ').any(|c| c == flag) {
            cell_flag.get_or_insert_with(|| flag.clone());
        }
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--rates" => args.rates = parse_rates(&value()?)?,
            "--sched" => {
                let name = value()?;
                args.sched = SchedulerKind::from_family(&name).ok_or_else(|| {
                    format!(
                        "unknown scheduler '{name}'; expected one of {}",
                        airtime::sched::family_names()
                    )
                })?;
            }
            "--direction" => {
                args.direction = value()?;
                if args.direction != "up" && args.direction != "down" {
                    return Err(format!("unknown direction '{}'", args.direction));
                }
            }
            "--secs" => args.secs = value()?.parse().map_err(|e| format!("bad --secs: {e}"))?,
            // A scenario document's integers stop at i64::MAX.
            "--seed" => {
                let (v, max) = (value()?, i64::MAX);
                let seed: i128 = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
                if !(0..=max.into()).contains(&seed) {
                    return Err(format!("--seed must be between 0 and {max}, got {v}"));
                }
                args.seed = seed as u64;
            }
            "--events" => args.events = Some(PathBuf::from(value()?)),
            "--ledger" => args.ledger = Some(PathBuf::from(value()?)),
            "--spans" => args.spans = true,
            "--audit" => args.audit = true,
            "--metrics" => args.metrics = Some(PathBuf::from(value()?)),
            "--metrics-csv" => args.metrics_csv = Some(PathBuf::from(value()?)),
            "--scenario" => args.scenario = Some(PathBuf::from(value()?)),
            "--threads" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--csv" => args.csv = Some(PathBuf::from(value()?)),
            "--prof" => args.prof = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--trace-cap" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|e| format!("bad --trace-cap: {e}"))?;
                if n == 0 {
                    return Err("--trace-cap must be at least 1".into());
                }
                args.trace_cap = Some(n);
            }
            "--record" => args.record = Some(PathBuf::from(value()?)),
            "--against" => args.against = Some(PathBuf::from(value()?)),
            "--fp" => args.fp = true,
            "--interval" => {
                let n: u64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --interval: {e}"))?;
                if n == 0 {
                    return Err("--interval must be at least 1".into());
                }
                args.interval = Some(n);
            }
            "--inject" => args.inject = Some(value()?),
            "--window" => args.window = Some(value()?),
            // `run --json` is a bare flag; `sweep --json <path>`,
            // `tournament --json <path>` and `profile --json <path>`
            // take a path.
            "--json" if cmd == "sweep" || cmd == "tournament" || cmd == "profile" => {
                args.json_path = Some(PathBuf::from(value()?))
            }
            "--json" => args.json = true,
            // `run` reads a scenario only through `--scenario`; a bare
            // file name there (or after `predict`) would otherwise be
            // dropped and the default cell run in its place.
            other if !other.starts_with('-') && (cmd == "run" || cmd == "predict") => {
                return Err(format!(
                    "unexpected argument '{other}': `{cmd}` takes no positional arguments \
                     (to run a scenario file, use `airtime-cli run --scenario {other}`)"
                ))
            }
            other
                if !other.starts_with('-') && (cmd == "profile" || args.positionals.is_empty()) =>
            {
                args.positionals.push(other.to_string());
            }
            other => return Err(format!("unknown option '{other}'; try --help")),
        }
    }
    if let Some(flag) = unread {
        return Err(format!("`{cmd}` does not read {flag}; try --help"));
    }
    if let (Some(flag), Some(path), "run") = (cell_flag, &args.scenario, cmd.as_str()) {
        return Err(format!(
            "`run --scenario` does not read {flag}: {} sets the whole cell; edit the file instead",
            path.display()
        ));
    }
    // `run`'s stations make one cell; `predict` is not capped.
    let (n, max) = (args.rates.len(), airtime::wlan::MAX_STATIONS);
    if cmd == "run" && n > max {
        return Err(format!("--rates lists {n} stations; at most {max}"));
    }
    Ok((cmd, args))
}

/// The scenario document `run`'s flags stand for, as a file would
/// hold it. The warm-up is max(secs/8, 1) s.
fn flags_document(a: &Args) -> String {
    let secs = a.secs;
    let mut doc = format!("duration_s = {secs}\nwarmup_s = {}\n", (secs / 8).max(1));
    doc += &format!("seed = {}\ndirection = \"{}\"\n", a.seed, a.direction);
    doc += &format!("[scheduler]\nkind = \"{}\"\n", a.sched.family());
    for rate in &a.rates {
        doc += &format!("[[station]]\nrate = \"{rate}\"\n");
    }
    doc
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let (doc, file) = match &a.scenario {
        Some(path) => {
            let doc = airtime::scenario::load(path).map_err(|e| e.to_string())?;
            (doc, path.display().to_string())
        }
        None => {
            // 2 s leaves room for the 1 s warm-up; the ceiling matches
            // the scenario files' duration cap.
            let max = airtime::scenario::MAX_DURATION_SECS;
            if !(2..=max).contains(&a.secs) {
                return Err(format!(
                    "--secs must be between 2 and {max} (one simulated day), got {}",
                    a.secs
                ));
            }
            let file = "run flags";
            let doc = airtime::scenario::parse_text(&flags_document(a), file)
                .map_err(|e| e.to_string())?;
            (doc, file.to_string())
        }
    };
    if doc.table("sweep").is_some() {
        return Err(format!(
            "{file} declares a [sweep] section; use `airtime-cli sweep {file}`"
        ));
    }
    let spec = airtime::scenario::compile_runnable(&doc, &file).map_err(|e| e.to_string())?;
    if spec.topo.is_some() {
        return run_topology_scenario(a, &spec);
    }
    let (cfg, labels) = (spec.cfg, spec.rate_labels);

    let mut registry = (a.metrics.is_some() || a.metrics_csv.is_some()).then(MetricsRegistry::new);
    // Each flag adds its sink; a sink reads the same stream whatever
    // else rides along, and the report is byte-identical either way.
    let events = match &a.events {
        Some(path) => Some(
            JsonlObserver::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let sinks = TeeObserver::new(
        a.record.is_some().then(FlightRecorder::new),
        a.ledger.is_some().then(AirtimeLedger::new),
    );
    let mut obs = TeeObserver::new(sinks, events);
    let r = run_instrumented(&cfg, &mut obs, registry.as_mut());
    if let Some(path) = &a.events {
        obs.finish()
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let (recorder, ledger) = (obs.a.a, obs.a.b);
    if let (Some(path), Some(rec)) = (&a.record, &recorder) {
        let recording = rec.recording();
        std::fs::write(path, recording.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !a.json {
            println!(
                "flight recording written to {} ({} events, {} retained, fp {})\n",
                path.display(),
                recording.total_events,
                recording.events.len(),
                recording.fp
            );
        }
    }
    if let (Some(path), Some(reg)) = (&a.metrics, &registry) {
        std::fs::write(path, reg.to_json() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if let (Some(path), Some(reg)) = (&a.metrics_csv, &registry) {
        std::fs::write(path, reg.series_to_csv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if let (Some(path), Some(led)) = (&a.ledger, &ledger) {
        std::fs::write(path, led.timeline_csv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let audit = led.audit();
        // Cross-check the ledger's occupancy view against the report.
        let shares = led.occupancy_shares();
        let mut worst: f64 = 0.0;
        for node in &r.nodes {
            let id = (node.station + 1) as u64;
            let led_share = shares
                .iter()
                .find(|&&(s, _)| s == id)
                .map_or(0.0, |&(_, sh)| sh);
            worst = worst.max((led_share - node.occupancy_share).abs());
        }
        let agree = worst <= 1e-9;
        if !a.json {
            print!("{audit}");
            println!(
                "  occupancy agreement with report: {} (max |Δshare| {worst:.2e})",
                if agree { "PASS" } else { "FAIL" }
            );
            println!("  timeline written to {}\n", path.display());
        }
        if !audit.conserved {
            return Err("airtime conservation audit failed".into());
        }
        if !agree {
            return Err(format!(
                "ledger occupancy shares disagree with the report (max |Δshare| {worst:.2e})"
            ));
        }
    }

    if a.json {
        println!("{}", report_json(&cfg, &labels, &r));
        return Ok(());
    }
    println!(
        "{} stations, {} TCP, {} s simulated\n",
        cfg.stations.len(),
        direction_label(&cfg),
        cfg.duration.as_secs_f64()
    );
    println!("station  rate   goodput Mb/s  airtime  p50 lat ms");
    for (i, f) in r.flows.iter().enumerate() {
        println!(
            "{:>7}  {:>4}  {:>12.3}  {:>6.1}%  {:>10}",
            i + 1,
            labels[f.station],
            f.goodput_mbps,
            r.nodes[f.station].occupancy_share * 100.0,
            f.latency_p50_ms
                .map(|l| format!("{l:.1}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "\ntotal {:.3} Mb/s   utilization {:.0}%   MAC collisions {}   drops {}",
        r.total_goodput_mbps,
        r.utilization * 100.0,
        r.mac.collision_events,
        r.sched_drops
    );
    Ok(())
}

/// `run --scenario` on a file with `[[cells]]`: executes the multi-cell
/// topology on one timeline and prints per-cell results, the per-station
/// fold, and the handoff log. Per-cell airtime ledgers always run; a
/// failed conservation audit exits non-zero.
fn run_topology_scenario(a: &Args, spec: &airtime::scenario::ScenarioSpec) -> Result<(), String> {
    let topo = spec.topo.as_ref().expect("caller checked");
    for (flag, used) in [
        ("--events", a.events.is_some()),
        ("--metrics", a.metrics.is_some()),
        ("--metrics-csv", a.metrics_csv.is_some()),
    ] {
        if used {
            return Err(format!(
                "{flag} streams a single cell's events; it is not supported for \
                 multi-cell topology scenarios"
            ));
        }
    }
    // The recorder lanes keep their full ring only when `--record`
    // asked for the artifact; otherwise they only fingerprint.
    let ring = if a.record.is_some() {
        airtime::obs::recorder::DEFAULT_RING_CAPACITY
    } else {
        0
    };
    let run = airtime::scenario::run_topology_cell(0, Vec::new(), spec, ring);
    let (agg, tr, audits) = (&run.cell, &run.report, &run.audits);
    if let Some(path) = &a.ledger {
        // One timeline file per radio cell: `<stem>.cell<i>[.ext]`.
        for (i, o) in run.lanes.iter().enumerate() {
            let p = suffixed(path, &format!("cell{i}"));
            std::fs::write(&p, o.a.b.timeline_csv())
                .map_err(|e| format!("writing {}: {e}", p.display()))?;
        }
    }
    if let Some(path) = &a.record {
        // One recording per radio cell lane: `<stem>.cell<i>[.ext]`.
        for (i, o) in run.lanes.iter().enumerate() {
            let p = suffixed(path, &format!("cell{i}"));
            let recording = o.b.recording();
            std::fs::write(&p, recording.to_jsonl())
                .map_err(|e| format!("writing {}: {e}", p.display()))?;
            if !a.json {
                println!(
                    "cell {i} flight recording written to {} ({} events, fp {})",
                    p.display(),
                    recording.total_events,
                    recording.fp
                );
            }
        }
        if !a.json {
            println!();
        }
    }
    let roam = agg.roam.as_ref().expect("topology aggregate");

    if a.json {
        let axes: [airtime::scenario::Axis; 0] = [];
        print!(
            "{}",
            airtime::scenario::emit::to_json(&spec.name, &axes, std::slice::from_ref(agg))
        );
    } else {
        println!(
            "{} cells, {} stations, {} s simulated\n",
            topo.cells.len(),
            spec.cfg.stations.len(),
            topo.base.duration.as_secs_f64()
        );
        println!("cell  channel      at (ft)  goodput Mb/s  util %  audit");
        for (i, c) in topo.cells.iter().enumerate() {
            println!(
                "{:>4}  {:>7}  {:>11}  {:>12.3}  {:>6.1}  {}",
                i,
                c.channel,
                format!("({:.0},{:.0})", c.position.x_ft, c.position.y_ft),
                tr.cells[i].total_goodput_mbps,
                tr.cells[i].utilization * 100.0,
                if audits[i].conserved { "pass" } else { "FAIL" },
            );
        }
        println!("\nstation  rate   total Mb/s  handoffs  outage s");
        for (s, st) in agg.stations.iter().enumerate() {
            println!(
                "{:>7}  {:>4}  {:>11.3}  {:>8}  {:>8.1}",
                s + 1,
                st.rate,
                st.goodput_mbps,
                tr.roaming.handoff_count(s),
                tr.roaming.outage.get(s).map_or(0.0, |o| o.as_secs_f64()),
            );
        }
        if !tr.roaming.handoffs.is_empty() {
            println!("\nassociation transitions:");
            for h in &tr.roaming.handoffs {
                let cell =
                    |c: Option<usize>| c.map(|c| format!("cell {c}")).unwrap_or_else(|| "-".into());
                println!(
                    "  t={:>6.1}s  station {}: {} -> {}",
                    h.at.as_secs_f64(),
                    h.station + 1,
                    cell(h.from),
                    cell(h.to),
                );
            }
        }
        println!(
            "\ntotal {:.3} Mb/s across cells   handoffs {}   drops {}   outage {:.1} s",
            tr.total_goodput_mbps(),
            roam.handoffs,
            roam.drops,
            roam.outage_s
        );
    }
    if !roam.audits_pass {
        return Err(format!(
            "airtime conservation audit failed in at least one cell \
             (worst error {} ns)",
            roam.worst_audit_error_ns
        ));
    }
    Ok(())
}

/// `events.csv` + `cell1` -> `events.cell1.csv` (suffix appended when
/// there is no extension).
fn suffixed(path: &std::path::Path, tag: &str) -> PathBuf {
    let mut p = path.to_path_buf();
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
            p.set_file_name(format!("{stem}.{tag}.{ext}"));
        }
        None => {
            let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("out");
            p.set_file_name(format!("{name}.{tag}"));
        }
    }
    p
}

/// One word describing where the cell's flows point: `Uplink`,
/// `Downlink`, or `Mixed` when a scenario file declares both.
fn direction_label(cfg: &airtime::wlan::NetworkConfig) -> String {
    let mut dirs = cfg
        .stations
        .iter()
        .flat_map(|s| s.flows.iter())
        .map(|f| f.direction);
    match dirs.next() {
        None => "idle".into(),
        Some(first) => {
            if dirs.all(|d| d == first) {
                format!("{first:?}")
            } else {
                "Mixed".into()
            }
        }
    }
}

/// The run report as one JSON object (the `--json` output).
fn report_json(cfg: &airtime::wlan::NetworkConfig, labels: &[String], r: &Report) -> String {
    let mut flows = String::from("[");
    for (i, f) in r.flows.iter().enumerate() {
        if i > 0 {
            flows.push(',');
        }
        let mut o = Obj::new();
        o.u64("station", f.station as u64)
            .str("rate", &labels[f.station])
            .f64("goodput_mbps", f.goodput_mbps)
            .f64("occupancy_share", r.nodes[f.station].occupancy_share);
        match f.latency_p50_ms {
            Some(l) => o.f64("latency_p50_ms", l),
            None => o.raw("latency_p50_ms", "null"),
        };
        flows.push_str(&o.finish());
    }
    flows.push(']');
    let occupancy: Vec<f64> = r.nodes.iter().map(|n| n.occupancy_share).collect();
    let mut o = Obj::new();
    o.u64("seed", cfg.seed)
        .f64("secs", cfg.duration.as_secs_f64())
        .str("direction", &direction_label(cfg))
        .str("scheduler", &format!("{:?}", cfg.scheduler))
        .raw("flows", &flows)
        .raw("occupancy_shares", &array_f64(&occupancy))
        .f64("total_goodput_mbps", r.total_goodput_mbps)
        .f64("utilization", r.utilization)
        .u64("mac_collisions", r.mac.collision_events)
        .u64("mac_retries", r.mac.retries)
        .u64("sched_drops", r.sched_drops);
    o.finish()
}

/// The scenario file a command names, loaded, with its name and a
/// sweep's worker count (`--threads`, else every core).
fn scenario_input<'a>(a: &'a Args, cmd: &str) -> Result<(Doc, &'a str, usize), String> {
    let file = a
        .positionals
        .first()
        .ok_or_else(|| format!("{cmd} needs a scenario file: airtime-cli {cmd} <file.toml>"))?;
    let doc = airtime::scenario::load(std::path::Path::new(file)).map_err(|e| e.to_string())?;
    let threads = a
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    Ok((doc, file, threads))
}

/// The tail `sweep` and `tournament` share: job counts, the exports
/// asked for (built only then) and the baseline-check verdict.
fn finish_matrix(
    a: &Args,
    stats: &airtime::scenario::PoolStats,
    to_json: impl Fn() -> String,
    to_csv: impl Fn() -> String,
    (failed, unit): (usize, &str),
    strict: bool,
) -> Result<(), String> {
    // Which worker ran which job depends on interleaving, so it goes to
    // stderr: stdout is reproducible like the exports.
    eprintln!(
        "{} worker thread(s); jobs per thread: {:?}",
        stats.threads_used(),
        stats.per_thread_jobs
    );
    let exports: [(_, _, &dyn Fn() -> String); 2] =
        [(&a.json_path, "JSON", &to_json), (&a.csv, "CSV", &to_csv)];
    for (path, kind, build) in exports {
        if let Some(p) = path {
            std::fs::write(p, build()).map_err(|e| format!("writing {}: {e}", p.display()))?;
            println!("{kind} matrix written to {}", p.display());
        }
    }
    if failed > 0 {
        println!("{failed} {unit}(s) failed their baseline check");
    }
    if strict {
        return Err(format!(
            "{failed} {unit}(s) failed the baseline check and the scenario sets [check] strict = true"
        ));
    }
    Ok(())
}

fn cmd_sweep(a: &Args) -> Result<(), String> {
    let (doc, file, threads) = scenario_input(a, "sweep")?;
    let outcome = airtime::scenario::run_sweep(&doc, file, threads).map_err(|e| e.to_string())?;

    println!("sweep '{}' — {} cells\n", outcome.name, outcome.cells.len());
    print_sweep_table(&outcome);
    let (name, axes, cells) = (&outcome.name, &outcome.axes, &outcome.cells);
    finish_matrix(
        a,
        &outcome.stats,
        || airtime::scenario::emit::to_json(name, axes, cells),
        || airtime::scenario::emit::to_csv(name, axes, cells),
        (outcome.failed_cells(), "cell"),
        outcome.strict_failure,
    )?;
    if outcome.audit_failure {
        return Err(
            "airtime conservation audit failed in at least one topology cell \
             (a non-conserved timeline is a simulator defect)"
                .into(),
        );
    }
    Ok(())
}

fn cmd_tournament(a: &Args) -> Result<(), String> {
    let (doc, file, threads) = scenario_input(a, "tournament")?;
    let outcome =
        airtime::scenario::run_tournament(&doc, file, threads).map_err(|e| e.to_string())?;

    println!(
        "tournament '{}' — {} families x {} mixes x {} direction(s)\n",
        outcome.name,
        outcome.families.len(),
        outcome.mixes.len(),
        outcome.directions.len()
    );
    let rows: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .map(|r| {
            vec![
                r.index.to_string(),
                r.family.clone(),
                r.mix.clone(),
                r.direction.clone(),
                format!("{:.3}", r.total_mbps),
                format!("{:.1}", r.utilization * 100.0),
                jain_text(r.jain_throughput),
                jain_text(r.jain_airtime),
                r.check.label().to_string(),
                r.fp.clone(),
            ]
        })
        .collect();
    print_table(
        "",
        &[
            "job",
            "family",
            "mix",
            "dir",
            "total Mb/s",
            "util %",
            "Jain(thpt)",
            "Jain(time)",
            "check",
            "fp",
        ],
        &rows,
    );
    // Per-station breakdown: the airtime shares and queueing delays the
    // family comparison is actually about.
    let station_rows: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .flat_map(|r| {
            r.stations.iter().map(|s| {
                vec![
                    r.index.to_string(),
                    r.family.clone(),
                    s.rate.clone(),
                    format!("{:.3}", s.goodput_mbps),
                    format!("{:.3}", s.airtime_share),
                    format!("{:.2}", s.delay_ms[0]),
                    format!("{:.2}", s.delay_ms[1]),
                    format!("{:.2}", s.delay_ms[2]),
                ]
            })
        })
        .collect();
    print_table(
        "per station",
        &[
            "job", "family", "rate", "Mb/s", "airtime", "q p50 ms", "q p95 ms", "q p99 ms",
        ],
        &station_rows,
    );
    let failed = outcome
        .rows
        .iter()
        .filter(|r| matches!(r.check, airtime::scenario::CheckOutcome::Fail(_)))
        .count();
    finish_matrix(
        a,
        &outcome.stats,
        || airtime::scenario::tournament::to_json(&outcome),
        || airtime::scenario::tournament::to_csv(&outcome),
        (failed, "row"),
        outcome.strict_failure,
    )
}

/// The per-cell stdout table for `sweep`: one row per matrix cell.
/// Topology sweeps (any cell with roaming metrics) grow handoff /
/// drop / outage / audit columns plus per-radio-cell goodputs.
fn print_sweep_table(outcome: &airtime::scenario::SweepOutcome) {
    let topo = outcome.cells.iter().any(|c| c.roam.is_some());
    let mut header: Vec<&str> = vec!["cell"];
    for ax in &outcome.axes {
        header.push(ax.name.as_str());
    }
    header.extend(["total Mb/s", "util %", "Jain(thpt)", "Jain(time)", "check"]);
    if topo {
        header.extend(["handoffs", "drops", "outage s", "audit", "cells Mb/s"]);
    }
    let rows: Vec<Vec<String>> = outcome
        .cells
        .iter()
        .map(|c| {
            let mut row = vec![c.index.to_string()];
            row.extend(c.coords.iter().map(|(_, v)| v.clone()));
            row.push(format!("{:.3}", c.total_mbps));
            row.push(format!("{:.1}", c.utilization * 100.0));
            row.push(jain_text(c.jain_throughput));
            row.push(jain_text(c.jain_airtime));
            row.push(c.check.label().to_string());
            if topo {
                match &c.roam {
                    Some(r) => {
                        row.push(r.handoffs.to_string());
                        row.push(r.drops.to_string());
                        row.push(format!("{:.1}", r.outage_s));
                        row.push(if r.audits_pass { "pass" } else { "FAIL" }.into());
                        row.push(
                            r.cell_mbps
                                .iter()
                                .map(|m| format!("{m:.2}"))
                                .collect::<Vec<_>>()
                                .join("/"),
                        );
                    }
                    None => row.extend(std::iter::repeat_n(String::new(), 5)),
                }
            }
            row
        })
        .collect();
    print_table("", &header, &rows);
}

/// A Jain column for a text table: `n/a` where the index is undefined.
fn jain_text(v: f64) -> String {
    airtime::scenario::aggregate::jain_defined(v)
        .map_or_else(|| "n/a".into(), |v| format!("{v:.3}"))
}

/// Prints an aligned table: an optional heading, the header row, a
/// rule, the data rows, then a blank line. Columns are separated by two
/// spaces and right-aligned except the first.
fn print_table(heading: &str, header: &[&str], rows: &[Vec<String>]) {
    if !heading.is_empty() {
        println!("{heading}");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("  {cell:>w$}"));
            }
        }
        println!("{line}");
    };
    line(header.to_vec());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
    println!();
}

fn cmd_inspect(a: &Args) -> Result<(), String> {
    if let Some(p) = &a.prof {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        let rendered =
            airtime::obs::render_perf_report(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        print!("{rendered}");
        return Ok(());
    }
    let path = a
        .positionals
        .first()
        .ok_or("inspect needs a trace path: airtime-cli inspect <events.jsonl>")?;
    let p = std::path::Path::new(path);
    if a.fp {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {path}: {e}"))?;
        let rec = Recording::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "recording: {} events, fp {}, {} checkpoints (every {} events){}",
            rec.total_events,
            rec.fp,
            rec.checkpoints.len(),
            rec.interval,
            match rec.cell {
                Some(c) => format!(", cell {c} lane"),
                None => String::new(),
            }
        );
        println!("checkpoint     events            t(s)  fingerprint");
        for (i, cp) in rec.checkpoints.iter().enumerate() {
            println!(
                "{:>10}  {:>9}  {:>14.9}  {}",
                i,
                cp.events,
                cp.t.as_secs_f64(),
                fp_hex(cp.fp)
            );
        }
        return Ok(());
    }
    // One pass over the trace feeds every view asked for; the summary
    // is the default view.
    let mut views = TeeObserver::new(
        TeeObserver::new(
            a.spans.then(SpanCollector::new),
            a.audit.then(AirtimeLedger::new),
        ),
        (!a.spans && !a.audit).then(Summarizer::default),
    );
    let bad = replay(p, &mut views).map_err(|e| format!("reading {path}: {e}"))?;
    if let Some(spans) = &views.a.a {
        print!("{spans}");
    }
    if let Some(ledger) = &views.a.b {
        let audit = ledger.audit();
        print!("{audit}");
        // Lines that did not parse hold records the audit never saw.
        if let Some((line, e)) = bad.first {
            return Err(format!(
                "{path}:{line}: {e} ({} malformed lines)",
                bad.count
            ));
        }
        if !audit.conserved {
            return Err("airtime conservation audit failed".into());
        }
    }
    if let Some(summary) = views.b {
        print!("{}", summary.into_summary(bad.count));
    }
    Ok(())
}

/// `profile <file.toml>...` — times the event loop over each scenario
/// (cell or multi-cell topology) with a null observer, writes the
/// BENCH-schema perf report, and optionally exports a Chrome trace
/// from a second, untimed pass.
fn cmd_profile(a: &Args) -> Result<(), String> {
    if a.positionals.is_empty() {
        return Err(
            "profile needs at least one scenario file: airtime-cli profile <file.toml>...".into(),
        );
    }
    let mut trace = a
        .trace_out
        .as_ref()
        .map(|_| ChromeTrace::with_cap(a.trace_cap.unwrap_or(DEFAULT_TRACE_CAP)));
    // Cell lanes count up from 0; synthetic dispatch-summary lanes
    // count up from HOST_PID so they sort below the real cells.
    let mut next_pid: u64 = 0;
    let mut host_pid: u64 = HOST_PID;
    let mut scenario_objs: Vec<String> = Vec::new();
    for path in &a.positionals {
        let p = std::path::Path::new(path);
        let file = p.display().to_string();
        let doc = airtime::scenario::load(p).map_err(|e| e.to_string())?;
        let spec = airtime::scenario::compile_runnable(&doc, &file).map_err(|e| e.to_string())?;
        let obj = match &spec.topo {
            None => profile_cell(&spec, trace.as_mut(), &mut next_pid, &mut host_pid),
            Some(topo) => {
                profile_topology(&spec, topo, trace.as_mut(), &mut next_pid, &mut host_pid)
            }
        };
        scenario_objs.push(obj);
    }
    let report = Obj::new()
        .str("bench", "profile")
        .raw("scenarios", &format!("[{}]", scenario_objs.join(",")))
        .bool("pass", true)
        .finish();
    print!(
        "{}",
        airtime::obs::render_perf_report(&report).expect("report was built to schema")
    );
    let json_path = a
        .json_path
        .clone()
        .unwrap_or_else(|| PathBuf::from("profile.report.json"));
    std::fs::write(&json_path, report + "\n")
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    println!("\nperf report written to {}", json_path.display());
    if let (Some(path), Some(t)) = (&a.trace_out, &trace) {
        t.write_to(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "Chrome trace written to {} ({} events, {} dropped) — open in \
             chrome://tracing or ui.perfetto.dev",
            path.display(),
            t.len(),
            t.dropped()
        );
    }
    Ok(())
}

/// Joins dist rows (`dist_json`) into the report's JSON array.
fn dist_array<'a>(entries: impl Iterator<Item = (&'a str, &'a airtime::sim::NsHist)>) -> String {
    let rows: Vec<String> = entries.map(|(l, h)| dist_json(l, h)).collect();
    format!("[{}]", rows.join(","))
}

/// Times one single-cell scenario and returns its report object. The
/// timing pass drives a [`CellSim`] with a [`NullObserver`] and no
/// metrics registry, timing each step from outside the engine (as the
/// topology driver does), so observation cost never lands in the
/// numbers; the trace pass (if any) reruns the scenario with a
/// [`ChromeTraceObserver`].
fn profile_cell(
    spec: &airtime::scenario::ScenarioSpec,
    trace: Option<&mut ChromeTrace>,
    next_pid: &mut u64,
    host_pid: &mut u64,
) -> String {
    let cfg = &spec.cfg;
    let end = SimTime::ZERO + cfg.duration;
    let mut profiler = LoopProfiler::new();
    let mut obs = NullObserver;
    set_alloc_counting(true);
    let before = alloc_stats();
    let t0 = std::time::Instant::now();
    let mut cell = CellSim::new(cfg, &mut obs, &vec![true; cfg.stations.len()]);
    while cell.peek_time().is_some_and(|t| t <= end) {
        let step0 = std::time::Instant::now();
        if let Some((_, label)) = cell.step_labeled() {
            profiler.count_timed(label, step0.elapsed());
        }
    }
    let (events, queue_high_water) = (cell.events_processed(), cell.queue_high_water());
    cell.finish(end);
    let wall = t0.elapsed().as_secs_f64();
    let allocs = alloc_stats().since(before);
    set_alloc_counting(false);
    let dists = profiler.dists();
    if let Some(sink) = trace {
        let pid = *next_pid;
        *next_pid += 1;
        let mut obs = ChromeTraceObserver::for_cell(pid, &spec.name);
        let _ = run_observed(cfg, &mut obs);
        obs.drain_into(sink);
        let hp = *host_pid;
        *host_pid += 1;
        sink.dispatch_summary(hp, &format!("{} · dispatch", spec.name), &dists);
    }
    Obj::new()
        .str("scenario", &spec.name)
        .str("kind", "cell")
        .f64("wall_s", wall)
        .f64("sim_s", cfg.duration.as_secs_f64())
        .u64("events", events)
        .f64("events_per_sec", events as f64 / wall.max(1e-9))
        .u64("queue_high_water", queue_high_water)
        .u64("allocs", allocs.allocs)
        .u64("alloc_bytes", allocs.bytes)
        .raw("labels", &dist_array(dists.iter().map(|(l, h)| (*l, h))))
        .finish()
}

/// Times one multi-cell topology scenario and returns its report
/// object, including per-cell lane stats and driver phases.
fn profile_topology(
    spec: &airtime::scenario::ScenarioSpec,
    topo: &airtime::topo::TopologyConfig,
    trace: Option<&mut ChromeTrace>,
    next_pid: &mut u64,
    host_pid: &mut u64,
) -> String {
    let n = topo.cells.len();
    let mut null_obs: Vec<NullObserver> = (0..n).map(|_| NullObserver).collect();
    set_alloc_counting(true);
    let before = alloc_stats();
    let (_report, tp) = run_topology_profiled(topo, &mut null_obs);
    let allocs = alloc_stats().since(before);
    set_alloc_counting(false);
    if let Some(sink) = trace {
        let mut obs: Vec<ChromeTraceObserver> = (0..n)
            .map(|i| {
                ChromeTraceObserver::for_cell(
                    *next_pid + i as u64,
                    &format!("{} · cell {i}", spec.name),
                )
            })
            .collect();
        *next_pid += n as u64;
        let _ = run_topology(topo, &mut obs);
        for o in obs {
            o.drain_into(sink);
        }
        let hp = *host_pid;
        *host_pid += 1;
        sink.dispatch_summary(hp, &format!("{} · dispatch", spec.name), &tp.labels);
    }
    let cells: Vec<String> = tp
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Obj::new()
                .u64("cell", i as u64)
                .u64("events", c.events)
                .u64("queue_high_water", c.queue_high_water)
                .f64("total_us", c.dispatch.total_ns() as f64 / 1000.0)
                .u64("p50_ns", c.dispatch.quantile_ns(0.50).unwrap_or(0))
                .u64("p95_ns", c.dispatch.quantile_ns(0.95).unwrap_or(0))
                .u64("p99_ns", c.dispatch.quantile_ns(0.99).unwrap_or(0))
                .u64("max_ns", c.dispatch.max_ns().unwrap_or(0))
                .finish()
        })
        .collect();
    Obj::new()
        .str("scenario", &spec.name)
        .str("kind", "topology")
        .f64("wall_s", tp.wall_s)
        .f64("sim_s", topo.base.duration.as_secs_f64())
        .u64("events", tp.events)
        .f64("events_per_sec", tp.events as f64 / tp.wall_s.max(1e-9))
        .u64(
            "queue_high_water",
            tp.cells
                .iter()
                .map(|c| c.queue_high_water)
                .max()
                .unwrap_or(0),
        )
        .u64("allocs", allocs.allocs)
        .u64("alloc_bytes", allocs.bytes)
        .raw(
            "labels",
            &dist_array(tp.labels.iter().map(|(l, h)| (*l, h))),
        )
        .raw(
            "phases",
            &dist_array(tp.phases.iter().map(|(l, h)| (l.as_str(), h))),
        )
        .raw("cells", &format!("[{}]", cells.join(",")))
        .finish()
}

/// `verify-determinism <file.toml>` — the first-divergence debugger.
/// Exit 0: both runs, the golden (if given) and both sweep thread
/// counts produced identical fingerprint streams. Exit 1: at least one
/// diverged; the first divergent checkpoint (and, where both sides
/// kept events, the exact event) is printed.
fn cmd_verify_determinism(a: &Args) -> Result<(), String> {
    let path = a.positionals.first().ok_or(
        "verify-determinism needs a scenario file: airtime-cli verify-determinism <file.toml>",
    )?;
    let p = std::path::Path::new(path);
    let file = p.display().to_string();
    let doc = airtime::scenario::load(p).map_err(|e| e.to_string())?;
    let spec = airtime::scenario::compile_runnable(&doc, &file).map_err(|e| e.to_string())?;
    let mut opts = airtime::scenario::VerifyOptions::default();
    if let Some(n) = a.interval {
        opts.interval = n;
    }
    if let Some(n) = a.threads {
        opts.threads = n;
    }
    if let Some(inj) = &a.inject {
        let (pass, idx) = inj
            .rsplit_once(':')
            .ok_or("--inject wants <pass>:<event index>, e.g. repeat:1000")?;
        let idx: u64 = idx
            .parse()
            .map_err(|e| format!("bad --inject index: {e}"))?;
        if !airtime::scenario::verify::PASSES.contains(&pass) {
            return Err(format!("--inject: unknown pass '{pass}' (run or repeat)"));
        }
        opts.inject = Some((pass.to_string(), idx));
    }
    // One recording per radio-cell lane; topologies use
    // `<stem>.cell<i>[.ext]`, as `run --record` does.
    let lane_paths = |path: &std::path::Path| -> Vec<PathBuf> {
        match &spec.topo {
            None => vec![path.to_path_buf()],
            Some(t) => (0..t.cells.len())
                .map(|i| suffixed(path, &format!("cell{i}")))
                .collect(),
        }
    };
    if let Some(path) = &a.against {
        let mut golden = Vec::new();
        for p in lane_paths(path) {
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            golden.push(Recording::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?);
        }
        opts.against = Some(golden);
    }
    let outcome = airtime::scenario::verify_determinism(&spec, Some(&doc), &file, &opts)
        .map_err(|e| e.to_string())?;
    println!(
        "verify-determinism '{}': run vs repeat{} ({} events, fp {})",
        outcome.name,
        if outcome.against { " and golden" } else { "" },
        outcome.events,
        outcome.fp
    );
    if let Some(path) = &a.record {
        for (p, text) in lane_paths(path).iter().zip(&outcome.recordings) {
            std::fs::write(p, text).map_err(|e| format!("writing {}: {e}", p.display()))?;
            println!("recording written to {}", p.display());
        }
    }
    if outcome.swept {
        println!(
            "sweep matrix compared at 1 vs {} threads",
            opts.threads.max(2)
        );
    }
    if outcome.passed() {
        println!("PASS — every pass produced the same causal stream");
        return Ok(());
    }
    for d in &outcome.divergences {
        print!("{}", d.render());
    }
    for (cell, f1, fn_) in &outcome.sweep_mismatches {
        println!("sweep cell {cell}: fp {f1} at 1 thread vs {fn_} at N threads");
    }
    Err("determinism verification failed".into())
}

/// `replay <recording>` — pretty-prints a flight recording written by
/// `run --record` as a causal event log.
fn cmd_replay(a: &Args) -> Result<(), String> {
    let path = a
        .positionals
        .first()
        .ok_or("replay needs a recording: airtime-cli replay <recording.jsonl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let rec = Recording::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (start, end) = match &a.window {
        None => (None, None),
        Some(w) => {
            let (a_s, b_s) = w
                .split_once("..")
                .ok_or("--window wants <start>..<end> (stream indices)")?;
            let parse = |s: &str| -> Result<Option<u64>, String> {
                if s.is_empty() {
                    Ok(None)
                } else {
                    s.parse()
                        .map(Some)
                        .map_err(|e| format!("bad --window: {e}"))
                }
            };
            (parse(a_s)?, parse(b_s)?)
        }
    };
    print!("{}", rec.render_window(start, end));
    Ok(())
}

fn cmd_predict(a: &Args) {
    let specs: Vec<NodeSpec> = a
        .rates
        .iter()
        .map(|r| {
            let g = gamma_measured(*r).unwrap_or_else(|| {
                airtime::model::gamma_tcp_model(
                    &airtime::phy::Phy80211b::default(),
                    *r,
                    1500,
                    1460,
                    40,
                    a.rates.len().max(2),
                )
            });
            NodeSpec::with_gamma(g)
        })
        .collect();
    let rf = rf_allocation(&specs);
    let tf = tf_allocation(&specs);
    println!("analytic predictions (Eq 6 vs Eq 12), TCP, 1500 B packets\n");
    println!("station  rate   RF Mb/s  RF time   TF Mb/s  TF time  γ paper  γ model");
    for (i, &rate) in a.rates.iter().enumerate() {
        // Table 2's columns: the paper's measured γ(d,1500,2), where it
        // gives one, and the closed-form model of the same quantity.
        let paper = gamma_measured(rate).map_or("-".to_string(), |g| format!("{g:.3}"));
        println!(
            "{:>7}  {:>4}  {:>7.3}  {:>6.1}%  {:>8.3}  {:>6.1}%  {:>7}  {:>7.3}",
            i + 1,
            rate.to_string(),
            rf.throughput[i],
            rf.occupancy[i] * 100.0,
            tf.throughput[i],
            tf.occupancy[i] * 100.0,
            paper,
            gamma_tcp_table2(rate),
        );
    }
    println!(
        "\ntotals: RF {:.3} Mb/s, TF {:.3} Mb/s ({:+.0}%)",
        rf.total,
        tf.total,
        (tf.total / rf.total - 1.0) * 100.0
    );
}

fn main() {
    let mut argv = std::env::args();
    let _ = argv.next(); // program name
    match parse_args(argv) {
        Ok((cmd, args)) => {
            let result = match cmd.as_str() {
                "run" => cmd_run(&args),
                "sweep" => cmd_sweep(&args),
                "tournament" => cmd_tournament(&args),
                "inspect" => cmd_inspect(&args),
                "profile" => cmd_profile(&args),
                "verify-determinism" => cmd_verify_determinism(&args),
                "replay" => cmd_replay(&args),
                "predict" => {
                    cmd_predict(&args);
                    Ok(())
                }
                other => {
                    eprintln!("unknown command '{other}'\n{HELP}");
                    std::process::exit(2);
                }
            };
            if let Err(msg) = result {
                eprintln!("error: {msg}");
                std::process::exit(1);
            }
        }
        Err(msg) => {
            if msg == HELP {
                println!("{HELP}");
            } else {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn ragged_rows_panic() {
        print_table("", &["a", "b"], &[vec!["x".into()]]);
    }
}
