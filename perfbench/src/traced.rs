//! The traced run: per-layer metrics of one workload.
//!
//! The untraced round is repeated once as the reference. Then every job
//! runs again, stepped through `CellSim::step_labeled` (or the profiled
//! topology engine) with each step timed and folded into per-label
//! histograms: once with no observer and allocation counting on, once
//! with the workload's observer rig behind a forwarding observer that
//! times every hook. Each traced job must reproduce the reference
//! digest, and every airtime ledger must conserve. A one-thread pass then
//! runs every job plain and under the rig exactly as the program builds
//! it, for the observers' share of job time. Isolated probes of
//! the queue, MAC, TCP and scheduler layers, a one-AP topology probe on
//! single-cell workloads and the stations-per-cell scaling probe follow.
//! Spans (name, start, end, parent) around the set-up, every job, its
//! layer calls, aggregation and each probe are kept in memory and
//! written out at the end.

use std::time::{Duration, Instant};

use airtime_obs::json::Obj;
use airtime_obs::prof::{alloc_stats, set_alloc_counting, AllocStats};
use airtime_obs::{
    AirtimeLedger, EventRecord, FlightRecorder, NullObserver, Observer, SpanCollector, TeeObserver,
};
use airtime_phy::DataRate;
use airtime_scenario::tournament::TournamentJob;
use airtime_scenario::{aggregate, combine_fps, emit, pool};
use airtime_sched::FAMILIES;
use airtime_sim::{NsHist, SimTime};
use airtime_topo::{run_topology, run_topology_profiled, TopoProfile, TopoReport, TopologyConfig};
use airtime_wlan::{CellSim, LinkSpec, NetworkConfig, Report};

use crate::gen::{self, Text};
use crate::guarded;
use crate::probes;
use crate::stats::{digest, log2_quantile_ns, median, ratio, Hist};
use crate::workload::{self, row_digest, Compiled, Kind, Round};

/// One traced-run interval.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Spans kept in memory, timed from a shared epoch.
pub struct Spans {
    epoch: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            list: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn add(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.list.push(Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        });
        self.list.len() - 1
    }

    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.add(name, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.list[id].end_ns = self.ns(Instant::now());
    }

    /// Moves `other`'s spans under `parent`, keeping their own nesting.
    fn absorb(&mut self, other: Spans, parent: usize) {
        let offset = self.list.len();
        for s in other.list {
            self.list.push(Span {
                parent: Some(s.parent.map_or(parent, |p| p + offset)),
                ..s
            });
        }
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .list
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Obj::new()
                    .u64("id", i as u64)
                    .str("name", &s.name)
                    .u64("start_ns", s.start_ns)
                    .u64("end_ns", s.end_ns)
                    .raw(
                        "parent",
                        &s.parent.map_or("null".to_string(), |p| p.to_string()),
                    )
                    .finish()
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// A forwarding observer that times every hook into the observer it
/// wraps and counts scheduler decisions.
pub struct Timed<O> {
    pub inner: O,
    pub hooks: Hist,
    pub decisions: u64,
}

impl<O> Timed<O> {
    pub fn new(inner: O) -> Self {
        Timed {
            inner,
            hooks: Hist::default(),
            decisions: 0,
        }
    }
}

macro_rules! timed_hooks {
    ($($hook:ident),*) => {$(
        fn $hook(&mut self, rec: EventRecord) {
            let t0 = Instant::now();
            self.inner.$hook(rec);
            self.hooks.record(t0.elapsed());
        }
    )*};
}

impl<O: Observer> Observer for Timed<O> {
    fn active(&self) -> bool {
        self.inner.active()
    }

    timed_hooks!(
        on_mac_event,
        on_tx_attempt,
        on_collision,
        on_backoff,
        on_token_update,
        on_tcp_event,
        on_queue_change,
        on_airtime_slice,
        on_frame_span,
        on_run_mark
    );

    fn on_sched_decision(&mut self, rec: EventRecord) {
        self.decisions += 1;
        let t0 = Instant::now();
        self.inner.on_sched_decision(rec);
        self.hooks.record(t0.elapsed());
    }

    fn on_dispatch(&mut self, t: SimTime, seq: u64, label: &'static str) {
        let t0 = Instant::now();
        self.inner.on_dispatch(t, seq, label);
        self.hooks.record(t0.elapsed());
    }

    fn on_handoff(&mut self, t: SimTime, station: u64, from: Option<u64>, to: Option<u64>) {
        let t0 = Instant::now();
        self.inner.on_handoff(t, station, from, to);
        self.hooks.record(t0.elapsed());
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.inner.finish()
    }
}

/// The observer rig `run_tournament` puts on every job.
type TournamentRig = TeeObserver<SpanCollector, FlightRecorder>;

fn tournament_rig() -> TournamentRig {
    TeeObserver::new(SpanCollector::new(), FlightRecorder::new().with_capacity(0))
}

/// The tournament rig behind the hook timer, plus an airtime ledger
/// outside the timer for the audit.
type CellRig = TeeObserver<Timed<TournamentRig>, AirtimeLedger>;

fn cell_rig() -> CellRig {
    TeeObserver::new(Timed::new(tournament_rig()), AirtimeLedger::new())
}

/// The observer rig `run_sweep` puts on each cell of a topology; its
/// ledger is the one audited.
type SweepRig = TeeObserver<TeeObserver<SpanCollector, AirtimeLedger>, FlightRecorder>;

fn sweep_rig(cell: usize) -> SweepRig {
    TeeObserver::new(
        TeeObserver::new(SpanCollector::new(), AirtimeLedger::new()),
        FlightRecorder::new().with_capacity(0).for_cell(cell as u64),
    )
}

type TopoRig = Timed<SweepRig>;

fn topo_rig(cell: usize) -> TopoRig {
    Timed::new(sweep_rig(cell))
}

/// Clock reads timing an empty hook: the part of `Timed`'s figure that
/// is the timer's own.
const HOOK_BASELINE_REPS: u32 = 200_000;

fn empty_hook_ns() -> f64 {
    let mut h = Hist::default();
    let mut null = NullObserver;
    for seq in 0..HOOK_BASELINE_REPS {
        let t0 = Instant::now();
        std::hint::black_box(&mut null).on_dispatch(SimTime::ZERO, seq as u64, "empty");
        h.record(t0.elapsed());
    }
    h.mean_ns()
}

/// `(observed − plain) / observed` host time of `n` runs done both
/// plain and under the workload's own observer rig, built as the program
/// builds it: no hook timer, no extra ledger. One thread; the order of
/// each pair alternates so that host drift falls on both sides alike.
fn overhead_share(n: usize, mut plain: impl FnMut(usize), mut observed: impl FnMut(usize)) -> f64 {
    let timed = |f: &mut dyn FnMut(usize), i: usize| {
        let t0 = Instant::now();
        f(i);
        t0.elapsed().as_secs_f64()
    };
    let (mut p, mut o) = (0.0, 0.0);
    for i in 0..n {
        if i % 2 == 0 {
            p += timed(&mut plain, i);
            o += timed(&mut observed, i);
        } else {
            o += timed(&mut observed, i);
            p += timed(&mut plain, i);
        }
    }
    ratio(o - p, o)
}

/// Plain-and-observed pairs run over the campus topology.
const CAMPUS_OVERHEAD_PAIRS: usize = 4;

/// Labels a step histogram can hold without allocating: more than the
/// simulator's event types.
const LABEL_SLOTS: usize = 32;

/// One job stepped to completion.
struct JobRun {
    report: Report,
    labels: Vec<(&'static str, Hist)>,
    events: u64,
    high_water: u64,
    construct: Duration,
    construct_alloc: AllocStats,
    step_alloc: AllocStats,
    /// Construction, every step and the final report.
    wall: Duration,
}

/// Builds one cell over `cfg` and steps it to the end of its run,
/// timing each step by label. Allocation snapshots bracket only the
/// constructor and the step loop, and nothing inside them allocates
/// but the simulator.
fn step_cell<O: Observer>(
    cfg: &NetworkConfig,
    obs: &mut O,
    sp: &mut Spans,
    parent: usize,
) -> JobRun {
    let mask = vec![true; cfg.stations.len()];
    let end = SimTime::ZERO + cfg.duration;
    let mut labels: Vec<(&'static str, Hist)> = Vec::with_capacity(LABEL_SLOTS);
    let t0 = Instant::now();
    let a0 = alloc_stats();
    let mut cell = CellSim::new(cfg, obs, &mask);
    let construct_alloc = alloc_stats().since(a0);
    let t1 = Instant::now();
    let a1 = alloc_stats();
    while cell.peek_time().is_some_and(|t| t <= end) {
        let s = Instant::now();
        let (_, label) = cell.step_labeled().expect("an event was peeked");
        let d = s.elapsed();
        match labels.iter().position(|(l, _)| *l == label) {
            Some(i) => labels[i].1.record(d),
            None if labels.len() < LABEL_SLOTS => {
                let mut h = Hist::default();
                h.record(d);
                labels.push((label, h));
            }
            None => panic!("more than {LABEL_SLOTS} event labels"),
        }
    }
    let step_alloc = alloc_stats().since(a1);
    let t2 = Instant::now();
    let (events, high_water) = (cell.events_processed(), cell.queue_high_water());
    let report = cell.finish(end);
    let t3 = Instant::now();
    sp.add("construct", Some(parent), t0, t1);
    sp.add("steps", Some(parent), t1, t2);
    sp.add("finish", Some(parent), t2, t3);
    JobRun {
        report,
        labels,
        events,
        high_water,
        construct: t1 - t0,
        construct_alloc,
        step_alloc,
        wall: t3 - t0,
    }
}

/// Step-cost summary of one label across a pass.
pub struct LabelRow {
    pub label: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

fn rows_from_hists(runs: &[&JobRun]) -> (Vec<LabelRow>, Hist) {
    let mut merged: Vec<(&'static str, Hist)> = Vec::new();
    let mut all = Hist::default();
    for r in runs {
        for (l, h) in &r.labels {
            all.merge(h);
            match merged.iter_mut().find(|(m, _)| m == l) {
                Some((_, m)) => m.merge(h),
                None => merged.push((l, h.clone())),
            }
        }
    }
    merged.sort_by_key(|(l, _)| *l);
    let rows = merged
        .iter()
        .map(|(l, h)| LabelRow {
            label: l,
            count: h.count(),
            total_ns: h.total_ns(),
            p50_ns: h.quantile_ns(0.5),
            p99_ns: h.quantile_ns(0.99),
        })
        .collect();
    (rows, all)
}

fn rows_from_profile(p: &TopoProfile) -> (Vec<LabelRow>, NsHist) {
    let mut all = NsHist::new();
    let mut rows: Vec<LabelRow> = p
        .labels
        .iter()
        .map(|(l, h)| {
            all.merge(h);
            LabelRow {
                label: l,
                count: h.count(),
                total_ns: h.total_ns(),
                p50_ns: log2_quantile_ns(h, 0.5),
                p99_ns: log2_quantile_ns(h, 0.99),
            }
        })
        .collect();
    rows.sort_by_key(|r| r.label);
    (rows, all)
}

/// Mean step cost over the labels `pred` selects; 0 when none ran.
fn layer_mean(rows: &[LabelRow], pred: impl Fn(&str) -> bool) -> f64 {
    let (n, t) = rows
        .iter()
        .filter(|r| pred(r.label))
        .fold((0u64, 0u64), |(n, t), r| (n + r.count, t + r.total_ns));
    ratio(t as f64, n as f64)
}

fn label_count(rows: &[LabelRow], label: &str) -> u64 {
    rows.iter()
        .find(|r| r.label == label)
        .map_or(0, |r| r.count)
}

fn is_net_label(l: &str) -> bool {
    l.starts_with("wired_") || l.starts_with("tcp.")
}

/// The topology engine's own figures from one profiled run: cost per
/// event, the share of wall time its mirror and management phases take,
/// lane imbalance and handoffs.
#[derive(Default)]
struct TopoStats {
    ns_per_event: f64,
    driver_share: f64,
    lane_imbalance: f64,
    handoffs: u64,
}

fn topo_stats(report: &TopoReport, p: &TopoProfile) -> TopoStats {
    let wall_ns = p.wall_s * 1e9;
    let phase_ns: u64 = p
        .phases
        .iter()
        .filter(|(path, _)| path == "drain/mirror" || path == "management")
        .map(|(_, h)| h.total_ns())
        .sum();
    let lanes: Vec<f64> = p.cells.iter().map(|c| c.events as f64).collect();
    let mean = lanes.iter().sum::<f64>() / lanes.len().max(1) as f64;
    let max = lanes.iter().cloned().fold(0.0, f64::max);
    TopoStats {
        ns_per_event: ratio(wall_ns, p.events as f64),
        driver_share: ratio(phase_ns as f64, wall_ns),
        lane_imbalance: ratio(max, mean) - 1.0,
        handoffs: report.roaming.handoffs.len() as u64,
    }
}

fn link_rate(cfg: &NetworkConfig, station: usize) -> DataRate {
    match &cfg.stations[station].link {
        LinkSpec::Fixed { rate, .. } => *rate,
        LinkSpec::Path { initial_rate, .. } => *initial_rate,
    }
}

/// Everything a traced run reports.
pub struct TraceResult {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub spans: Spans,
    pub labels: Vec<LabelRow>,
}

/// Per-job figures of the observed pass.
struct Observed {
    run: JobRun,
    hooks: Hist,
    decisions: u64,
    ok: bool,
    aggregate: Duration,
}

/// Steps one single-cell job under the observer rig, checks its ledger
/// and compares it with the untraced reference: the report digest for a
/// plain cell, the row digest for a tournament job.
fn observed_job(
    cfg: &NetworkConfig,
    tjob: Option<&TournamentJob>,
    expected: Option<u64>,
    sp: &mut Spans,
    parent: usize,
) -> Observed {
    let mut rig = cell_rig();
    let run = step_cell(cfg, &mut rig, sp, parent);
    let t0 = Instant::now();
    let got = match tjob {
        Some(job) => {
            let delays = rig.a.inner.a.summary();
            let cell = aggregate::aggregate(job.index, Vec::new(), &job.spec, &run.report, &delays);
            let fp = airtime_obs::fp_hex(rig.a.inner.b.fingerprint());
            row_digest(
                &fp,
                cell.total_mbps,
                cell.utilization,
                cell.jain_throughput,
                cell.jain_airtime,
                cell.check.label(),
            )
        }
        None => digest(&format!("{:?}", run.report)),
    };
    let aggregate = t0.elapsed();
    sp.add("aggregate", Some(parent), t0, Instant::now());
    let conserved = rig.b.audit().conserved;
    Observed {
        ok: conserved && expected == Some(got),
        hooks: rig.a.hooks,
        decisions: rig.a.decisions,
        run,
        aggregate,
    }
}

/// Per-job failure flags.
struct Failures(Vec<bool>);

impl Failures {
    fn mark(&mut self, job: usize) {
        if let Some(f) = self.0.get_mut(job) {
            *f = true;
        }
    }

    fn mark_all(&mut self) {
        self.0.iter_mut().for_each(|f| *f = true);
    }

    fn count(&self) -> u64 {
        self.0.iter().filter(|&&f| f).count() as u64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sizes the isolated probes take from the workload: its deepest event
/// queue and the rates of its most populous cell.
struct Shape {
    depth: usize,
    rates: Vec<DataRate>,
}

/// Runs the workload traced. Fails only when its inputs do not compile;
/// a job that panics or diverges is counted as failed.
pub fn run(kind: Kind, seed: u64) -> Result<TraceResult, String> {
    let epoch = Instant::now();
    let mut sp = Spans::new(epoch);
    let root = sp.open(format!("traced {}", kind.name()), None);
    let texts = kind.inputs(seed);

    let mut compile_ms = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        workload::compile(kind, &texts)?;
        compile_ms.push(ms(t0.elapsed()));
    }
    let s = sp.open("setup", Some(root));
    let t0 = Instant::now();
    let c = workload::compile(kind, &texts)?;
    let t1 = Instant::now();
    workload::construct(&c);
    sp.add("parse_compile_expand", Some(s), t0, t1);
    sp.add("construct", Some(s), t1, Instant::now());
    sp.close(s);

    let jobs = c.job_count();
    let mut fail = Failures(vec![false; jobs]);
    let s = sp.open("untraced_round", Some(root));
    let reference = guarded(|| workload::run_round(&c, kind.threads()));
    sp.close(s);
    let reference = match reference {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("untraced round failed: {e}");
            fail.mark_all();
            None
        }
    };
    if let Some(r) = &reference {
        if r.defective > 0 {
            fail.mark_all();
        }
        if kind == Kind::Zoo {
            let s = sp.open("one_thread_check", Some(root));
            match guarded(|| workload::run_round(&c, 1)) {
                Ok(one) => mark_mismatches(&mut fail, &r.job_digests, &one.job_digests),
                Err(_) => fail.mark_all(),
            }
            sp.close(s);
        }
    }
    let mut m = Metrics::default();
    let sim_s = c.sim_seconds();
    let untraced_wall = reference.as_ref().map_or(0.0, |r| r.wall.as_secs_f64());
    let (labels, shape) = match kind {
        Kind::Cell | Kind::Zoo => {
            single_cell_passes(&c, &mut sp, root, &mut fail, reference.as_ref(), &mut m)
        }
        Kind::Campus => campus_passes(&c, &mut sp, root, &mut fail, reference.as_ref(), &mut m),
    };
    m.compile_ms = median(&compile_ms);

    // Isolated layer probes, sized from the workload.
    let s = sp.open("probe sim.queue", Some(root));
    let q = probes::queue(shape.depth, seed);
    sp.close(s);
    let s = sp.open("probe mac.dcf", Some(root));
    let mac = probes::mac(&shape.rates, seed);
    sp.close(s);
    let s = sp.open("probe net.tcp_loopback", Some(root));
    let net = probes::net();
    sp.close(s);
    let mut sched = Vec::new();
    for f in FAMILIES {
        let s = sp.open(format!("probe sched.{}", f.name), Some(root));
        sched.push((f.name, probes::sched(f.name, &shape.rates)));
        sp.close(s);
    }
    let scaling = scaling_probe(seed, &mut sp, root);
    sp.close(root);

    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));
    put("sim.events", m.events as f64, "count");
    put("sim.queue_high_water", shape.depth as f64, "count");
    put("sim.stale_rto_share", m.stale_rto_share, "share");
    put("sim.queue_ns_per_op", q.ns_per_op, "ns");
    put(
        "mac.step_ns",
        layer_mean(&labels, |l| l.starts_with("mac.")),
        "ns",
    );
    put("mac.ns_per_event", mac.ns_per_op, "ns");
    put("mac.allocs_per_event", mac.allocs_per_op, "count");
    put("mac.attempts", m.attempts as f64, "count");
    put(
        "mac.delivery_ratio",
        ratio(m.delivered as f64, m.attempts as f64),
        "share",
    );
    put("net.step_ns", layer_mean(&labels, is_net_label), "ns");
    put("net.ns_per_segment", net.ns_per_op, "ns");
    put("net.allocs_per_segment", net.allocs_per_op, "count");
    put("net.retransmits", m.retransmits as f64, "count");
    put("net.timeouts", m.timeouts as f64, "count");
    put(
        "sched.step_ns",
        layer_mean(&labels, |l| l == "sched.tick"),
        "ns",
    );
    put("sched.decisions", m.decisions as f64, "count");
    for (f, p) in &sched {
        put(&format!("sched.ns_per_packet.{f}"), p.ns_per_op, "ns");
    }
    for (f, p) in &sched {
        put(
            &format!("sched.allocs_per_packet.{f}"),
            p.allocs_per_op,
            "count",
        );
    }
    put("wlan.step_ns_p50", m.step_p50, "ns");
    put("wlan.step_ns_tail", m.step_tail, "ns");
    put("wlan.step_ns_tail_quantile", m.step_tail_q, "share");
    put("wlan.step_samples", m.events as f64, "count");
    put("wlan.allocs", m.allocs as f64, "count");
    put("wlan.alloc_bytes", m.alloc_bytes as f64, "B");
    put(
        "wlan.allocs_per_step",
        ratio(m.allocs as f64, m.events as f64),
        "count",
    );
    put(
        "wlan.alloc_bytes_per_step",
        ratio(m.alloc_bytes as f64, m.events as f64),
        "B",
    );
    put("wlan.setup_ns", m.setup_ns, "ns");
    put("wlan.setup_alloc_bytes", m.setup_alloc_bytes, "B");
    for (n, v) in &scaling {
        put(&format!("wlan.step_ns.n{n}"), *v, "ns");
    }
    put(
        "obs.records_per_step",
        ratio(m.records as f64, m.events as f64),
        "count",
    );
    put("obs.ns_per_record", m.ns_per_record, "ns");
    put("obs.overhead_share", m.overhead_share, "share");
    put("topo.ns_per_event", m.topo.ns_per_event, "ns");
    put("topo.driver_share", m.topo.driver_share, "share");
    put("topo.lane_event_imbalance", m.topo.lane_imbalance, "share");
    put("topo.handoffs", m.topo.handoffs as f64, "count");
    put("scenario.compile_ms", m.compile_ms, "ms");
    put("scenario.aggregate_emit_ms", m.aggregate_emit_ms, "ms");
    put(
        "scenario.pool_busy_share",
        ratio(m.traced_job_s, kind.threads() as f64 * untraced_wall),
        "share",
    );
    put(
        "scenario.check_fail_rows",
        reference.as_ref().map_or(0, |r| r.check_fails) as f64,
        "count",
    );
    put("trace.sim_s_per_s", ratio(sim_s, m.traced_wall_s), "s/s");
    put(
        "trace.untraced_sim_s_per_s",
        ratio(sim_s, untraced_wall),
        "s/s",
    );
    let failed = fail.count();
    put(
        "jobs.failed_share",
        ratio(failed as f64, jobs as f64),
        "share",
    );

    Ok(TraceResult {
        metrics: out,
        attempted: jobs as u64,
        failed,
        digest: reference.map_or(0, |r| r.digest),
        spans: sp,
        labels,
    })
}

fn mark_mismatches(fail: &mut Failures, want: &[u64], got: &[u64]) {
    if want.len() != got.len() {
        fail.mark_all();
        return;
    }
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        if a != b {
            fail.mark(i);
        }
    }
}

/// Per-layer figures gathered by the workload passes.
#[derive(Default)]
struct Metrics {
    events: u64,
    stale_rto_share: f64,
    attempts: u64,
    delivered: u64,
    retransmits: u64,
    timeouts: u64,
    decisions: u64,
    records: u64,
    ns_per_record: f64,
    overhead_share: f64,
    step_p50: f64,
    step_tail: f64,
    step_tail_q: f64,
    allocs: u64,
    alloc_bytes: u64,
    setup_ns: f64,
    setup_alloc_bytes: f64,
    topo: TopoStats,
    compile_ms: f64,
    aggregate_emit_ms: f64,
    /// Sum of the traced run's per-job host seconds.
    traced_job_s: f64,
    /// Host seconds of the traced run phase.
    traced_wall_s: f64,
}

fn report_counts(m: &mut Metrics, reports: &[&Report]) {
    for r in reports {
        m.attempts += r.mac.attempts;
        m.delivered += r.mac.delivered;
        for f in &r.flows {
            m.retransmits += f.retransmits;
            m.timeouts += f.timeouts;
        }
    }
}

/// The reference digest of job `i`.
fn expected(reference: Option<&Round>, i: usize) -> Option<u64> {
    reference.and_then(|r| r.job_digests.get(i).copied())
}

/// The null and observed passes of the cell and tournament workloads,
/// plus their one-AP topology probe.
fn single_cell_passes(
    c: &Compiled,
    sp: &mut Spans,
    root: usize,
    fail: &mut Failures,
    reference: Option<&Round>,
    m: &mut Metrics,
) -> (Vec<LabelRow>, Shape) {
    let kind = c.kind;
    let cfgs = c.configs();
    let tjobs: Vec<&TournamentJob> = c.docs.iter().flat_map(|d| &d.tjobs).collect();

    // Null pass: one thread, allocation counting on.
    let s = sp.open("null_pass", Some(root));
    set_alloc_counting(true);
    let null: Vec<Option<JobRun>> = cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let j = sp.open(format!("job {i}"), Some(s));
            let r = guarded(|| Ok(step_cell(cfg, &mut NullObserver, sp, j))).ok();
            sp.close(j);
            r
        })
        .collect();
    set_alloc_counting(false);
    sp.close(s);
    for (i, r) in null.iter().enumerate() {
        match r {
            None => fail.mark(i),
            Some(r)
                if kind == Kind::Cell
                    && expected(reference, i) != Some(digest(&format!("{:?}", r.report))) =>
            {
                fail.mark(i)
            }
            Some(_) => {}
        }
    }
    let null_runs: Vec<&JobRun> = null.iter().flatten().collect();

    // Observed pass: the workload's thread count.
    let s = sp.open("observed_pass", Some(root));
    let t0 = Instant::now();
    let idx: Vec<usize> = (0..cfgs.len()).collect();
    let epoch = sp.epoch;
    let (observed, _) = pool::run_parallel(&idx, kind.threads(), |_, &i| {
        let mut local = Spans::new(epoch);
        let j = local.open(format!("job {i}"), None);
        let r = guarded(|| {
            Ok(observed_job(
                cfgs[i],
                tjobs.get(i).copied(),
                expected(reference, i),
                &mut local,
                j,
            ))
        })
        .ok();
        local.close(j);
        (r, local)
    });
    let observed_wall = t0.elapsed();
    let mut obs_runs = Vec::new();
    for (i, (r, local)) in observed.into_iter().enumerate() {
        sp.absorb(local, s);
        match r {
            Some(o) if o.ok => obs_runs.push(o),
            _ => fail.mark(i),
        }
    }
    sp.close(s);

    let (labels, all) = rows_from_hists(&null_runs);
    m.events = null_runs.iter().map(|r| r.events).sum();
    let reports: Vec<&Report> = null_runs.iter().map(|r| &r.report).collect();
    report_counts(m, &reports);
    m.stale_rto_share = ratio(
        label_count(&labels, "tcp.rto").saturating_sub(m.timeouts) as f64,
        m.events as f64,
    );
    m.step_p50 = all.quantile_ns(0.5);
    if let Some((q, v)) = all.tail() {
        (m.step_tail_q, m.step_tail) = (q, v);
    }
    m.allocs = null_runs.iter().map(|r| r.step_alloc.allocs).sum();
    m.alloc_bytes = null_runs.iter().map(|r| r.step_alloc.bytes).sum();
    let n = null_runs.len().max(1) as f64;
    m.setup_ns = null_runs
        .iter()
        .map(|r| r.construct.as_nanos() as f64)
        .sum::<f64>()
        / n;
    m.setup_alloc_bytes = null_runs
        .iter()
        .map(|r| r.construct_alloc.bytes as f64)
        .sum::<f64>()
        / n;

    let mut hooks = Hist::default();
    for o in &obs_runs {
        hooks.merge(&o.hooks);
        m.decisions += o.decisions;
    }
    m.records = hooks.count();
    m.ns_per_record = (hooks.mean_ns() - empty_hook_ns()).max(0.0);
    let null_s: f64 = null_runs.iter().map(|r| r.wall.as_secs_f64()).sum();
    let obs_s: f64 = obs_runs.iter().map(|o| o.run.wall.as_secs_f64()).sum();
    let s = sp.open("overhead_pass", Some(root));
    m.overhead_share = guarded(|| {
        Ok(overhead_share(
            cfgs.len(),
            |i| {
                std::hint::black_box(airtime_wlan::run(cfgs[i]));
            },
            |i| {
                let mut rig = tournament_rig();
                std::hint::black_box(airtime_wlan::run_observed(cfgs[i], &mut rig));
            },
        ))
    })
    .unwrap_or(0.0);
    sp.close(s);
    let aggregate_s: f64 = obs_runs.iter().map(|o| o.aggregate.as_secs_f64()).sum();
    let emit_s = reference.map_or(0.0, |r| r.emit.as_secs_f64());
    m.aggregate_emit_ms = match kind {
        // The cell round aggregates and emits itself.
        Kind::Cell => emit_s * 1e3,
        _ => (aggregate_s + emit_s) * 1e3,
    };
    (m.traced_job_s, m.traced_wall_s) = match kind {
        Kind::Cell => (null_s, null_s),
        _ => (obs_s, observed_wall.as_secs_f64()),
    };

    // The topology engine over the workload's most populous cell.
    let big = cfgs
        .iter()
        .max_by_key(|c| c.stations.len())
        .expect("the workload has jobs");
    let s = sp.open("probe topo.one_ap", Some(root));
    let topo = TopologyConfig::line((*big).clone(), 1, 150.0, &[1]);
    if let Ok((report, profile)) = guarded(|| Ok(run_topology_profiled(&topo, &mut [NullObserver])))
    {
        m.topo = topo_stats(&report, &profile);
    }
    sp.close(s);

    let shape = Shape {
        depth: null_runs.iter().map(|r| r.high_water).max().unwrap_or(1) as usize,
        rates: (0..big.stations.len()).map(|s| link_rate(big, s)).collect(),
    };
    (labels, shape)
}

/// The null and observed passes of the campus topology.
fn campus_passes(
    c: &Compiled,
    sp: &mut Spans,
    root: usize,
    fail: &mut Failures,
    reference: Option<&Round>,
    m: &mut Metrics,
) -> (Vec<LabelRow>, Shape) {
    let doc = &c.docs[0];
    let job = &doc.jobs[0];
    let topo = job
        .spec
        .topo
        .as_ref()
        .expect("the campus workload is a topology");
    let cells = topo.cells.len();

    // Per-AP simulator construction over the template.
    let mask = vec![true; topo.base.stations.len()];
    let (mut setup_ns, mut setup_bytes) = (0.0, 0.0);
    set_alloc_counting(true);
    for _ in 0..cells {
        let a0 = alloc_stats();
        let t0 = Instant::now();
        let mut obs = NullObserver;
        let cell = CellSim::new(&topo.base, &mut obs, &mask);
        setup_ns += t0.elapsed().as_nanos() as f64;
        setup_bytes += alloc_stats().since(a0).bytes as f64;
        drop(cell);
    }
    m.setup_ns = setup_ns / cells as f64;
    m.setup_alloc_bytes = setup_bytes / cells as f64;

    let s = sp.open("null_pass", Some(root));
    let a0 = alloc_stats();
    let null = guarded(|| Ok(run_topology_profiled(topo, &mut vec![NullObserver; cells])));
    let null_alloc = alloc_stats().since(a0);
    set_alloc_counting(false);
    sp.close(s);

    let s = sp.open("observed_pass", Some(root));
    let mut rigs: Vec<TopoRig> = (0..cells).map(topo_rig).collect();
    let observed = guarded(|| Ok(run_topology_profiled(topo, &mut rigs)));
    sp.close(s);
    let t0 = Instant::now();
    let mut cell_json = None;
    if let Ok((tr, _)) = &observed {
        let delays: Vec<_> = rigs.iter().map(|o| o.inner.a.a.summary()).collect();
        let audits: Vec<_> = rigs.iter().map(|o| o.inner.a.b.audit()).collect();
        let mut cell = aggregate::aggregate_topology(
            job.index,
            job.coords.clone(),
            &job.spec,
            tr,
            &delays,
            &audits,
        );
        cell.fp = Some(airtime_obs::fp_hex(combine_fps(
            rigs.iter().map(|o| o.inner.b.fingerprint()),
        )));
        let json = emit::to_json(&job.spec.name, &doc.axes, std::slice::from_ref(&cell));
        if !audits.iter().all(|a| a.conserved) {
            fail.mark(0);
        }
        cell_json = Some(json);
    }
    let aggregate_s = t0.elapsed().as_secs_f64();
    sp.add("aggregate_emit", Some(root), t0, Instant::now());
    if cell_json.map(|j| digest(&j)) != expected(reference, 0) {
        fail.mark(0);
    }

    let (Ok((ntr, nprof)), Ok((otr, oprof))) = (null, observed) else {
        fail.mark_all();
        return (
            Vec::new(),
            Shape {
                depth: 1,
                rates: vec![DataRate::B11],
            },
        );
    };
    let (labels, all) = rows_from_profile(&nprof);
    m.events = nprof.events;
    let reports: Vec<&Report> = ntr.cells.iter().collect();
    report_counts(m, &reports);
    m.stale_rto_share = ratio(
        label_count(&labels, "tcp.rto").saturating_sub(m.timeouts) as f64,
        m.events as f64,
    );
    m.step_p50 = log2_quantile_ns(&all, 0.5);
    if all.count() >= 11 {
        m.step_tail_q = 1.0 - 10.0 / all.count() as f64;
        m.step_tail = log2_quantile_ns(&all, m.step_tail_q);
    }
    m.allocs = null_alloc.allocs;
    m.alloc_bytes = null_alloc.bytes;
    let mut hooks = Hist::default();
    for r in &rigs {
        hooks.merge(&r.hooks);
        m.decisions += r.decisions;
    }
    m.records = hooks.count();
    m.ns_per_record = (hooks.mean_ns() - empty_hook_ns()).max(0.0);
    let s = sp.open("overhead_pass", Some(root));
    m.overhead_share = guarded(|| {
        Ok(overhead_share(
            CAMPUS_OVERHEAD_PAIRS,
            |_| {
                std::hint::black_box(run_topology(topo, &mut vec![NullObserver; cells]));
            },
            |_| {
                let mut rigs: Vec<SweepRig> = (0..cells).map(sweep_rig).collect();
                std::hint::black_box(run_topology(topo, &mut rigs));
            },
        ))
    })
    .unwrap_or(0.0);
    sp.close(s);
    let emit_s = reference.map_or(0.0, |r| r.emit.as_secs_f64());
    m.aggregate_emit_ms = (aggregate_s + emit_s) * 1e3;
    m.traced_job_s = oprof.wall_s;
    m.traced_wall_s = oprof.wall_s;
    m.topo = topo_stats(&otr, &oprof);

    let per_cell = topo.base.stations.len().div_ceil(cells);
    let shape = Shape {
        depth: nprof
            .cells
            .iter()
            .map(|l| l.queue_high_water)
            .max()
            .unwrap_or(1) as usize,
        rates: (0..per_cell).map(|s| link_rate(&topo.base, s)).collect(),
    };
    (labels, shape)
}

/// Mean step cost of generated single cells at each probe size.
fn scaling_probe(seed: u64, sp: &mut Spans, root: usize) -> Vec<(usize, f64)> {
    gen::SCALING_SIZES
        .iter()
        .map(|&n| {
            let Text { file, text } = gen::scaling_cell(seed, n);
            let s = sp.open(format!("probe wlan.scaling n{n}"), Some(root));
            let v = guarded(|| {
                let doc = airtime_scenario::parse_text(&text, &file).map_err(|e| e.to_string())?;
                let spec = airtime_scenario::compile(&doc, &file).map_err(|e| e.to_string())?;
                let r = step_cell(&spec.cfg, &mut NullObserver, sp, s);
                let steps: u64 = r.labels.iter().map(|(_, h)| h.count()).sum();
                let ns: u64 = r.labels.iter().map(|(_, h)| h.total_ns()).sum();
                Ok(ratio(ns as f64, steps as f64))
            })
            .unwrap_or(0.0);
            sp.close(s);
            (n, v)
        })
        .collect()
}

/// The trace document: manifest, spans and per-label step costs.
pub fn to_json(manifest: &str, r: &TraceResult) -> String {
    let labels: Vec<String> = r
        .labels
        .iter()
        .map(|l| {
            Obj::new()
                .str("label", l.label)
                .u64("count", l.count)
                .f64("mean_ns", ratio(l.total_ns as f64, l.count as f64))
                .f64("p50_ns", l.p50_ns)
                .f64("p99_ns", l.p99_ns)
                .finish()
        })
        .collect();
    let mut doc = Obj::new()
        .raw("manifest", manifest)
        .raw("labels", &format!("[{}]", labels.join(",\n")))
        .raw("spans", &r.spans.to_json())
        .finish();
    doc.push('\n');
    doc
}
