//! Per-hook interest changes what the engine builds, never what an
//! observer sees. Each stock observer and each rig the sweep and
//! tournament engines attach runs twice on the same configs: bare, so
//! the engine builds only the records its `wants` names, and wrapped in
//! [`Everything`], which wants every hook and forwards each record
//! whatever the inner observer declares — the ungated stream. Every
//! summary, fingerprint, ledger audit and Chrome trace must match. An
//! observer that overrides a hook but leaves it out of `wants` fails
//! here.

use std::fmt::Debug;
use std::path::{Path, PathBuf};

use airtime_obs::{
    AirtimeLedger, ChromeTraceObserver, EventRecord, FlightRecorder, Hook, MemoryObserver,
    Observer, SpanCollector, TeeObserver,
};
use airtime_scenario::{compile, expand, load};
use airtime_sim::{SimDuration, SimTime};
use airtime_topo::{run_topology, TopologyConfig};
use airtime_wlan::{run_observed, NetworkConfig};

/// Wants every hook and forwards every record to the observer it wraps.
struct Everything<O>(O);

macro_rules! forward {
    ($($hook:ident),*) => {$(
        fn $hook(&mut self, rec: EventRecord) {
            self.0.$hook(rec);
        }
    )*};
}

impl<O: Observer> Observer for Everything<O> {
    fn wants(&self, _hook: Hook) -> bool {
        true
    }

    forward!(
        on_mac_event,
        on_tx_attempt,
        on_collision,
        on_backoff,
        on_sched_decision,
        on_token_update,
        on_tcp_event,
        on_queue_change,
        on_airtime_slice,
        on_frame_span,
        on_run_mark
    );

    fn on_dispatch(&mut self, t: SimTime, seq: u64, label: &'static str) {
        self.0.on_dispatch(t, seq, label);
    }

    fn on_handoff(&mut self, t: SimTime, station: u64, from: Option<u64>, to: Option<u64>) {
        self.0.on_handoff(t, station, from, to);
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.0.finish()
    }
}

fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(name)
}

/// The fig9 preset's 11 vs 1 Mbit/s jobs (rr and tbr, down and up),
/// cut to 4 s after a 1 s warm-up.
fn fig9_cells() -> Vec<NetworkConfig> {
    let doc = load(&example("fig9_mixed_rate.toml")).unwrap();
    let (_, jobs) = expand(&doc, "fig9").unwrap();
    let cells: Vec<NetworkConfig> = jobs
        .into_iter()
        .filter(|j| j.spec.rate_labels == ["11M", "1M"])
        .map(|j| {
            let mut cfg = j.spec.cfg;
            cfg.duration = SimDuration::from_secs(4);
            cfg.warmup = SimDuration::from_secs(1);
            cfg
        })
        .collect();
    assert_eq!(cells.len(), 4);
    cells
}

/// The three-cell roam preset cut to 12 s: the walker still hands off
/// once.
fn roam() -> TopologyConfig {
    let doc = load(&example("roam_three_cells.toml")).unwrap();
    let mut topo = compile(&doc, "roam").unwrap().topo.unwrap();
    topo.base.duration = SimDuration::from_secs(12);
    topo
}

/// Runs every fig9 cell under `make()` bare and under `wrap(make())`,
/// and asserts that the reports and `view`s agree.
fn cells_agree<O: Observer, W: Observer, V: PartialEq + Debug>(
    make: impl Fn() -> O,
    wrap: impl Fn(O) -> W,
    unwrap: impl Fn(W) -> O,
    view: impl Fn(O) -> V,
) {
    for cfg in fig9_cells() {
        let mut bare = make();
        let bare_report = run_observed(&cfg, &mut bare);
        let mut all = wrap(make());
        let all_report = run_observed(&cfg, &mut all);
        assert_eq!(format!("{bare_report:?}"), format!("{all_report:?}"));
        assert_eq!(view(bare), view(unwrap(all)), "{:?}", cfg.scheduler);
    }
}

/// The topology counterpart of [`cells_agree`]: one observer per cell.
fn roam_agrees<O: Observer, W: Observer, V: PartialEq + Debug>(
    make: impl Fn(usize) -> O,
    wrap: impl Fn(O) -> W,
    unwrap: impl Fn(W) -> O,
    view: impl Fn(O) -> V,
) {
    let topo = roam();
    let mut bare: Vec<O> = (0..topo.cells.len()).map(&make).collect();
    let bare_report = run_topology(&topo, &mut bare);
    let mut all: Vec<W> = (0..topo.cells.len()).map(|c| wrap(make(c))).collect();
    let all_report = run_topology(&topo, &mut all);
    assert!(
        !bare_report.roaming.handoffs.is_empty(),
        "the walker must hand off"
    );
    assert_eq!(format!("{bare_report:?}"), format!("{all_report:?}"));
    let bare: Vec<V> = bare.into_iter().map(&view).collect();
    let all: Vec<V> = all.into_iter().map(|w| view(unwrap(w))).collect();
    assert_eq!(bare, all);
}

/// Runs one observer kind through both the cell and the roam check,
/// wrapped whole in [`Everything`].
fn agrees<O: Observer, V: PartialEq + Debug>(
    make: impl Fn(usize) -> O,
    view: impl Fn(O) -> V + Copy,
) {
    cells_agree(|| make(0), Everything, |w| w.0, view);
    roam_agrees(make, Everything, |w| w.0, view);
}

fn spans_view(c: SpanCollector) -> (u64, String) {
    (c.total(), c.to_csv())
}

fn recorder_view(r: FlightRecorder) -> (String, Vec<(u64, u64)>) {
    let stations = r
        .station_fingerprints()
        .iter()
        .map(|(&s, &fp)| (s, fp))
        .collect();
    (r.recording().to_jsonl(), stations)
}

fn ledger_view(l: AirtimeLedger) -> (String, String) {
    (format!("{:?}", l.audit()), l.timeline_csv())
}

#[test]
fn span_collector_sees_the_same_spans() {
    agrees(|_| SpanCollector::new(), spans_view);
}

#[test]
fn ringed_flight_recorder_sees_the_same_stream() {
    agrees(
        |c| FlightRecorder::new().with_capacity(512).for_cell(c as u64),
        recorder_view,
    );
}

#[test]
fn airtime_ledger_audits_the_same_timeline() {
    agrees(|_| AirtimeLedger::new(), ledger_view);
}

#[test]
fn chrome_trace_renders_the_same_json() {
    agrees(
        |c| ChromeTraceObserver::for_cell(c as u64, "cell"),
        |o| o.into_trace().render(),
    );
}

/// The rig `run_tournament` and single-cell `run_sweep` jobs attach;
/// the wrapped run wraps each side, so the tee forwards the full
/// stream to both.
#[test]
fn tournament_rig_rows_are_unchanged() {
    let make = |c: usize| {
        TeeObserver::new(
            SpanCollector::new(),
            FlightRecorder::new().with_capacity(0).for_cell(c as u64),
        )
    };
    let wrap = |o: TeeObserver<SpanCollector, FlightRecorder>| {
        TeeObserver::new(Everything(o.a), Everything(o.b))
    };
    let unwrap = |w: TeeObserver<Everything<SpanCollector>, Everything<FlightRecorder>>| {
        TeeObserver::new(w.a.0, w.b.0)
    };
    let view =
        |o: TeeObserver<SpanCollector, FlightRecorder>| (spans_view(o.a), recorder_view(o.b));
    cells_agree(|| make(0), wrap, unwrap, view);
    roam_agrees(make, wrap, unwrap, view);
}

/// The rig `run_sweep` attaches to each cell of a topology.
#[test]
fn topology_sweep_rig_cells_are_unchanged() {
    type Rig = TeeObserver<TeeObserver<SpanCollector, AirtimeLedger>, FlightRecorder>;
    type Wrapped = TeeObserver<
        TeeObserver<Everything<SpanCollector>, Everything<AirtimeLedger>>,
        Everything<FlightRecorder>,
    >;
    roam_agrees(
        |c| -> Rig {
            TeeObserver::new(
                TeeObserver::new(SpanCollector::new(), AirtimeLedger::new()),
                FlightRecorder::new().with_capacity(0).for_cell(c as u64),
            )
        },
        |o: Rig| -> Wrapped {
            TeeObserver::new(
                TeeObserver::new(Everything(o.a.a), Everything(o.a.b)),
                Everything(o.b),
            )
        },
        |w: Wrapped| -> Rig { TeeObserver::new(TeeObserver::new(w.a.a.0, w.a.b.0), w.b.0) },
        |o: Rig| (spans_view(o.a.a), ledger_view(o.a.b), recorder_view(o.b)),
    );
}

/// Overrides only the named record hooks, the way a hook timer does:
/// logs each record it is handed, then passes it to the same hook of
/// the observer it wraps. It keeps the default `wants` (every hook).
struct Named<O> {
    seen: Vec<EventRecord>,
    inner: O,
}

macro_rules! log_and_forward {
    ($($hook:ident),*) => {$(
        fn $hook(&mut self, rec: EventRecord) {
            self.seen.push(rec.clone());
            self.inner.$hook(rec);
        }
    )*};
}

impl<O: Observer> Observer for Named<O> {
    log_and_forward!(
        on_mac_event,
        on_tx_attempt,
        on_collision,
        on_backoff,
        on_sched_decision,
        on_token_update,
        on_tcp_event,
        on_queue_change,
        on_airtime_slice,
        on_frame_span,
        on_run_mark
    );
}

fn named() -> Named<MemoryObserver> {
    Named {
        seen: Vec::new(),
        inner: MemoryObserver::new(),
    }
}

/// A wrapper that overrides the named hooks sees every record in
/// emission order wherever it sits: at the top, on either side of a
/// tee, or inside an `Option`. The forwarders must pass records on
/// through the named hooks, not straight to `on_record`.
#[test]
fn a_named_hook_wrapper_sees_every_record_wherever_it_sits() {
    let cfg = &fig9_cells()[0];
    let mut plain = MemoryObserver::new();
    run_observed(cfg, &mut plain);
    let want = plain.events;
    assert!(want.len() > 1_000, "{} records", want.len());
    let check = |w: Named<MemoryObserver>, at: &str| {
        assert!(
            w.seen == want,
            "{at}: {} of {} records",
            w.seen.len(),
            want.len()
        );
        assert!(w.inner.events == want, "{at}: inner");
    };

    let mut top = named();
    run_observed(cfg, &mut top);
    check(top, "top level");

    let mut left = TeeObserver::new(named(), FlightRecorder::new());
    run_observed(cfg, &mut left);
    check(left.a, "tee side a");

    let mut right = TeeObserver::new(SpanCollector::new(), named());
    run_observed(cfg, &mut right);
    check(right.b, "tee side b");

    let mut some = Some(named());
    run_observed(cfg, &mut some);
    check(some.expect("present"), "option");
}
