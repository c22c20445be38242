//! The unified profiling layer: Chrome-trace export, allocation
//! counters, and perf-report rendering.
//!
//! Everything here observes the *host* side of a run — wall-clock
//! time, allocation counts, trace files — and never touches simulated
//! state, so profiled and unprofiled runs produce identical simulation
//! results (the same contract as [`crate::Observer`] and
//! `airtime_sim::LoopProfiler`).
//!
//! Two layers:
//!
//! - [`ChromeTrace`] renders trace events in the Chrome trace-event
//!   JSON format (`{"traceEvents": [...]}`), loadable in Perfetto or
//!   `chrome://tracing`. [`ChromeTraceObserver`] implements
//!   [`crate::Observer`] on top of it, mapping the simulator's event
//!   stream onto lanes: the medium timeline (airtime slices as
//!   complete events), per-station frame-lifecycle spans, scheduler
//!   instants, and counter tracks for queues, token buckets, and TCP
//!   windows. Topology runs give each cell its own `pid`, so cells
//!   appear as separate processes — per-cell lanes — in the viewer.
//! - [`CountingAlloc`] wraps the system allocator behind an atomic
//!   gate so binaries that install it can report allocation counts
//!   per profiled region.
//!
//! [`render_perf_report`] turns the machine-readable report
//! `airtime-cli profile` writes back into the aligned table
//! `airtime-cli inspect --prof` prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use airtime_sim::NsHist;

use crate::event::EventRecord;
use crate::json::{self, Json, Obj};
use crate::observer::{Hook, Observer};

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

/// Lane (`tid`) holding the medium timeline inside each cell process.
pub const TID_MEDIUM: u64 = 0;
/// Lane holding scheduler decisions and run boundary instants.
pub const TID_SCHED: u64 = 1;
/// Frame-lifecycle lanes start here: station `s` gets `TID_FRAMES + s`.
pub const TID_FRAMES: u64 = 10;
/// `pid` of the synthetic "host" process carrying aggregate
/// dispatch-cost lanes (host wall-time, not simulated time).
pub const HOST_PID: u64 = 1000;

/// Default cap on buffered trace events. Beyond it events are dropped
/// (and counted), keeping worst-case trace files bounded; the rendered
/// document stays valid JSON and reports the drop count.
pub const DEFAULT_TRACE_CAP: usize = 1_000_000;

/// An in-memory builder for Chrome trace-event JSON documents.
///
/// Timestamps and durations are written in microseconds (the format's
/// unit), at nanosecond resolution via three decimal places. All names
/// pass through [`json::escape`], so control characters in labels
/// cannot corrupt the document.
#[derive(Debug)]
pub struct ChromeTrace {
    events: Vec<String>,
    cap: usize,
    dropped: u64,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

fn us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

impl ChromeTrace {
    /// An empty trace with the default event cap.
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_TRACE_CAP)
    }

    /// An empty trace dropping events beyond `cap`.
    pub fn with_cap(cap: usize) -> Self {
        ChromeTrace {
            events: Vec::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, ev: String) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }

    /// Number of buffered trace events (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Names the process `pid` in the viewer (`ph: "M"` metadata).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            json::escape(name)
        ));
    }

    /// Names the thread `(pid, tid)` in the viewer.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
            json::escape(name)
        ));
    }

    /// A complete span (`ph: "X"`): `ts` and `dur` in nanoseconds,
    /// `args` optional pre-rendered JSON object.
    #[allow(clippy::too_many_arguments)] // mirrors the Chrome trace-event field set
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        ts_ns: u64,
        dur_ns: u64,
        args: Option<&str>,
    ) {
        let mut ev = format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{tid}"#,
            json::escape(name),
            json::escape(cat),
            us(ts_ns),
            us(dur_ns),
        );
        if let Some(a) = args {
            let _ = write!(ev, r#","args":{a}"#);
        }
        ev.push('}');
        self.push(ev);
    }

    /// A thread-scoped instant (`ph: "i"`).
    pub fn instant(&mut self, pid: u64, tid: u64, cat: &str, name: &str, ts_ns: u64) {
        self.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"i","s":"t","ts":{},"pid":{pid},"tid":{tid}}}"#,
            json::escape(name),
            json::escape(cat),
            us(ts_ns),
        ));
    }

    /// One sample of a counter track (`ph: "C"`).
    pub fn counter(&mut self, pid: u64, name: &str, ts_ns: u64, series: &str, value: f64) {
        self.push(format!(
            r#"{{"name":"{}","ph":"C","ts":{},"pid":{pid},"args":{{"{}":{}}}}}"#,
            json::escape(name),
            us(ts_ns),
            json::escape(series),
            json::num(value),
        ));
    }

    /// Appends one aggregate lane on a synthetic host process `pid`
    /// (use [`HOST_PID`] upward): each label from a dispatch-time
    /// distribution becomes a span whose length is its total dispatch
    /// wall-time, tiled end to end in descending-cost order. Opening
    /// the trace shows at a glance where the loop's host time went;
    /// args carry the quantiles.
    pub fn dispatch_summary(&mut self, pid: u64, name: &str, dists: &[(&str, NsHist)]) {
        self.process_name(pid, name);
        self.thread_name(pid, 0, "per-label dispatch cost (aggregate)");
        let mut sorted: Vec<&(&str, NsHist)> = dists.iter().collect();
        sorted.sort_by(|a, b| b.1.total_ns().cmp(&a.1.total_ns()).then(a.0.cmp(b.0)));
        let mut at = 0u64;
        for (label, h) in sorted {
            let args = Obj::new()
                .u64("count", h.count())
                .u64("p50_ns", h.quantile_ns(0.50).unwrap_or(0))
                .u64("p95_ns", h.quantile_ns(0.95).unwrap_or(0))
                .u64("p99_ns", h.quantile_ns(0.99).unwrap_or(0))
                .u64("max_ns", h.max_ns().unwrap_or(0))
                .finish();
            self.complete(pid, 0, "dispatch", label, at, h.total_ns(), Some(&args));
            at += h.total_ns();
        }
    }

    /// Renders the complete document: `{"traceEvents": [...], ...}`.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(ev);
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{}}}}}",
            self.dropped
        );
        out
    }

    /// Writes the rendered document to `path`.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Streams simulator [`EventRecord`]s into a [`ChromeTrace`], one cell
/// per `pid`.
///
/// Lanes inside the cell process: `tid` [`TID_MEDIUM`] carries the
/// exclusive medium timeline (airtime slices tile it), [`TID_SCHED`]
/// carries scheduler dequeues and run boundaries, and each station's
/// frame-lifecycle spans land on [`TID_FRAMES`]` + station`. Queue
/// lengths, token balances, and TCP windows become counter tracks.
#[derive(Debug)]
pub struct ChromeTraceObserver {
    trace: ChromeTrace,
    pid: u64,
    named_frame_lanes: Vec<u64>,
}

impl ChromeTraceObserver {
    /// A single-cell observer (pid 0) named `process` in the viewer.
    pub fn new(process: &str) -> Self {
        Self::for_cell(0, process)
    }

    /// An observer for cell `pid` (one per topology cell).
    pub fn for_cell(pid: u64, process: &str) -> Self {
        let mut trace = ChromeTrace::new();
        trace.process_name(pid, process);
        trace.thread_name(pid, TID_MEDIUM, "medium");
        trace.thread_name(pid, TID_SCHED, "scheduler");
        ChromeTraceObserver {
            trace,
            pid,
            named_frame_lanes: Vec::new(),
        }
    }

    /// The finished trace (call after the run).
    pub fn into_trace(self) -> ChromeTrace {
        self.trace
    }

    /// Merges this observer's events into `sink` (for topology runs
    /// collecting every cell into one document).
    pub fn drain_into(self, sink: &mut ChromeTrace) {
        sink.dropped += self.trace.dropped;
        for ev in self.trace.events {
            sink.push(ev);
        }
    }

    fn frame_lane(&mut self, station: u64) -> u64 {
        let tid = TID_FRAMES + station;
        if !self.named_frame_lanes.contains(&station) {
            self.named_frame_lanes.push(station);
            self.trace
                .thread_name(self.pid, tid, &format!("station {station} frames"));
        }
        tid
    }
}

impl Observer for ChromeTraceObserver {
    fn wants(&self, hook: Hook) -> bool {
        matches!(
            hook,
            Hook::AirtimeSlice
                | Hook::FrameSpan
                | Hook::SchedDecision
                | Hook::RunMark
                | Hook::QueueChange
                | Hook::TokenUpdate
                | Hook::TcpEvent
        )
    }

    fn on_record(&mut self, rec: EventRecord) {
        match rec {
            EventRecord::AirtimeSlice {
                start,
                dur,
                station,
                category,
                ..
            } => {
                let args = Obj::new().u64("station", station).finish();
                self.trace.complete(
                    self.pid,
                    TID_MEDIUM,
                    "airtime",
                    category.as_str(),
                    start.as_nanos(),
                    dur.as_nanos(),
                    Some(&args),
                );
            }
            EventRecord::FrameSpan {
                t,
                station,
                bytes,
                enqueue,
                release,
                first_tx,
                attempts,
                airtime,
                delivered,
            } => {
                let tid = self.frame_lane(station);
                let args = Obj::new()
                    .u64("bytes", bytes)
                    .u64("attempts", attempts)
                    .bool("delivered", delivered)
                    .u64("airtime_ns", airtime.as_nanos())
                    .u64("release_ns", release.as_nanos())
                    .u64("first_tx_ns", first_tx.as_nanos())
                    .finish();
                let dur = t.saturating_since(enqueue);
                self.trace.complete(
                    self.pid,
                    tid,
                    "frame",
                    if delivered {
                        "frame"
                    } else {
                        "frame (dropped)"
                    },
                    enqueue.as_nanos(),
                    dur.as_nanos(),
                    Some(&args),
                );
            }
            EventRecord::SchedDecision { t, client, .. } => {
                self.trace.instant(
                    self.pid,
                    TID_SCHED,
                    "sched",
                    &format!("dequeue c{client}"),
                    t.as_nanos(),
                );
            }
            EventRecord::RunMark { t, phase } => {
                self.trace.instant(
                    self.pid,
                    TID_SCHED,
                    "run",
                    match phase {
                        crate::event::RunPhase::Warmup => "warmup done",
                        crate::event::RunPhase::End => "run end",
                    },
                    t.as_nanos(),
                );
            }
            EventRecord::QueueChange { t, site, key, len } => {
                self.trace.counter(
                    self.pid,
                    &format!("queue {} {key}", site.as_str()),
                    t.as_nanos(),
                    "len",
                    len as f64,
                );
            }
            EventRecord::TokenUpdate {
                t,
                client,
                tokens_us,
                ..
            } => {
                self.trace.counter(
                    self.pid,
                    &format!("tokens c{client}"),
                    t.as_nanos(),
                    "us",
                    tokens_us,
                );
            }
            EventRecord::Tcp {
                t,
                flow,
                phase,
                cwnd,
                ..
            } => {
                self.trace.counter(
                    self.pid,
                    &format!("cwnd f{flow}"),
                    t.as_nanos(),
                    "seg",
                    cwnd,
                );
                if phase == crate::event::TcpPhase::Rto {
                    self.trace.instant(
                        self.pid,
                        TID_SCHED,
                        "tcp",
                        &format!("rto f{flow}"),
                        t.as_nanos(),
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Allocation counters
// ---------------------------------------------------------------------------

static ALLOC_GATE: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator.
///
/// Install it in a binary with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
/// While the gate is off (the default) each allocation pays one
/// relaxed atomic load; with it on, allocations and bytes are counted
/// with relaxed atomics. Deallocation is never counted.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System` for memory management; the
// wrapper only increments counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ALLOC_GATE.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ALLOC_GATE.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A snapshot of the global allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations (and reallocations) counted while the gate was on.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(self, earlier: AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// Turns allocation counting on or off. Without [`CountingAlloc`]
/// installed as the global allocator the counters simply stay zero.
pub fn set_alloc_counting(on: bool) {
    ALLOC_GATE.store(on, Ordering::Relaxed);
}

/// Reads the current allocation counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        allocs: ALLOC_COUNT.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Perf-report serialisation and rendering
// ---------------------------------------------------------------------------

/// Renders one `(label, hist)` row as the JSON object the perf report's
/// `labels`, `phases`, and per-cell `lanes` arrays consist of.
pub fn dist_json(label: &str, h: &NsHist) -> String {
    Obj::new()
        .str("label", label)
        .u64("count", h.count())
        .f64("total_us", h.total_ns() as f64 / 1000.0)
        .f64("mean_ns", h.mean_ns().unwrap_or(0.0))
        .u64("min_ns", h.min_ns().unwrap_or(0))
        .u64("p50_ns", h.quantile_ns(0.50).unwrap_or(0))
        .u64("p95_ns", h.quantile_ns(0.95).unwrap_or(0))
        .u64("p99_ns", h.quantile_ns(0.99).unwrap_or(0))
        .u64("max_ns", h.max_ns().unwrap_or(0))
        .finish()
}

fn fmt_count(n: u64) -> String {
    // 1234567 -> "1,234,567"
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns < 0.5 {
        "0".to_string()
    } else if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b < 1024.0 {
        format!("{b:.0} B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    }
}

fn fmt_rate(eps: f64) -> String {
    if eps >= 1e6 {
        format!("{:.2} M ev/s", eps / 1e6)
    } else if eps >= 1e3 {
        format!("{:.1} k ev/s", eps / 1e3)
    } else {
        format!("{eps:.0} ev/s")
    }
}

fn table(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in rows {
        out.push_str("  ");
        for (i, cell) in row.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            if i == 0 {
                // Left-align the label column.
                out.push_str(cell);
                if i + 1 < row.len() {
                    out.extend(std::iter::repeat_n(' ', pad + 2));
                }
            } else {
                out.extend(std::iter::repeat_n(' ', pad));
                out.push_str(cell);
                if i + 1 < row.len() {
                    out.push_str("  ");
                }
            }
        }
        out.push('\n');
    }
    out
}

fn dist_rows(entries: &[Json], top: usize) -> Vec<Vec<String>> {
    let mut sorted: Vec<&Json> = entries.iter().collect();
    sorted.sort_by(|a, b| {
        let ta = a.get("total_us").and_then(Json::as_f64).unwrap_or(0.0);
        let tb = b.get("total_us").and_then(Json::as_f64).unwrap_or(0.0);
        tb.partial_cmp(&ta).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut rows = vec![vec![
        "label".to_string(),
        "count".to_string(),
        "total".to_string(),
        "mean".to_string(),
        "p50".to_string(),
        "p95".to_string(),
        "p99".to_string(),
        "max".to_string(),
    ]];
    for e in sorted.iter().take(top) {
        let g = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        rows.push(vec![
            e.get("label")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            fmt_count(g("count") as u64),
            fmt_ns(g("total_us") * 1000.0),
            fmt_ns(g("mean_ns")),
            fmt_ns(g("p50_ns")),
            fmt_ns(g("p95_ns")),
            fmt_ns(g("p99_ns")),
            fmt_ns(g("max_ns")),
        ]);
    }
    if sorted.len() > top {
        rows.push(vec![format!("(+{} more)", sorted.len() - top)]);
    }
    rows
}

/// Pretty-prints a perf report produced by `airtime-cli profile` as an
/// aligned table: per scenario, the headline rates, queue high-water
/// marks, and the top labels by total dispatch time.
pub fn render_perf_report(text: &str) -> Result<String, String> {
    let doc = json::parse(text)?;
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("not a perf report: no 'scenarios' array")?;
    let mut out = String::new();
    let bench = doc.get("bench").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(out, "perf report · bench \"{bench}\"");
    for sc in scenarios {
        let name = sc.get("scenario").and_then(Json::as_str).unwrap_or("?");
        let kind = sc.get("kind").and_then(Json::as_str).unwrap_or("cell");
        let wall = sc.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
        let sim = sc.get("sim_s").and_then(Json::as_f64).unwrap_or(0.0);
        let events = sc.get("events").and_then(Json::as_u64).unwrap_or(0);
        let eps = sc
            .get("events_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let _ = writeln!(out, "\n{name} ({kind})");
        let mut headline = format!(
            "  wall {wall:.3} s · sim {sim:.0} s · {} events · {}",
            fmt_count(events),
            fmt_rate(eps)
        );
        if let Some(hw) = sc.get("queue_high_water").and_then(Json::as_u64) {
            let _ = write!(headline, " · queue high-water {hw}");
        }
        if let Some(allocs) = sc.get("allocs").and_then(Json::as_u64) {
            let bytes = sc.get("alloc_bytes").and_then(Json::as_u64).unwrap_or(0);
            let _ = write!(
                headline,
                " · {} allocs ({})",
                fmt_count(allocs),
                fmt_bytes(bytes)
            );
        }
        out.push_str(&headline);
        out.push('\n');
        if let Some(labels) = sc.get("labels").and_then(Json::as_arr) {
            out.push_str(&table(&dist_rows(labels, 12)));
        }
        if let Some(phases) = sc.get("phases").and_then(Json::as_arr) {
            if !phases.is_empty() {
                out.push_str("  phases:\n");
                out.push_str(&table(&dist_rows(phases, 8)));
            }
        }
        if let Some(cells) = sc.get("cells").and_then(Json::as_arr) {
            if !cells.is_empty() {
                out.push_str("  per-cell lanes:\n");
                let mut rows = vec![vec![
                    "cell".to_string(),
                    "events".to_string(),
                    "queue hw".to_string(),
                    "dispatch p50".to_string(),
                    "p99".to_string(),
                    "total".to_string(),
                ]];
                for c in cells {
                    let g = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    rows.push(vec![
                        format!("{}", g("cell") as u64),
                        fmt_count(g("events") as u64),
                        fmt_count(g("queue_high_water") as u64),
                        fmt_ns(g("p50_ns")),
                        fmt_ns(g("p99_ns")),
                        fmt_ns(g("total_us") * 1000.0),
                    ]);
                }
                out.push_str(&table(&rows));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AirtimeCategory, QueueSite};
    use airtime_sim::{SimDuration, SimTime};
    use std::time::Duration;

    fn validate(doc: &str) -> Json {
        json::parse(doc).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}\n{doc}"))
    }

    #[test]
    fn empty_trace_renders_valid_json() {
        let t = ChromeTrace::new();
        let doc = validate(&t.render());
        assert_eq!(doc.get("traceEvents").and_then(Json::as_arr), Some(&[][..]));
    }

    #[test]
    fn control_characters_in_names_stay_valid_json() {
        let mut t = ChromeTrace::new();
        t.process_name(0, "weird\u{1}\nname\t\"quoted\"");
        t.complete(0, 0, "c\u{2}at", "sp\u{7f}an\r", 10, 20, None);
        t.instant(0, 1, "x", "a\u{0}b", 5);
        t.counter(0, "q\u{3}", 7, "l\u{4}en", 1.0);
        let doc = validate(&t.render());
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs[1].get("name").and_then(Json::as_str),
            Some("sp\u{7f}an\r")
        );
    }

    #[test]
    fn complete_events_pair_ts_and_dur_in_us() {
        let mut t = ChromeTrace::new();
        t.complete(3, 7, "cat", "span", 1_234_567, 890, None);
        let doc = validate(&t.render());
        let ev = &doc.get("traceEvents").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(ev.get("ts").and_then(Json::as_f64), Some(1234.567));
        assert_eq!(ev.get("dur").and_then(Json::as_f64), Some(0.890));
        assert_eq!(ev.get("pid").and_then(Json::as_u64), Some(3));
        assert_eq!(ev.get("tid").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn cap_drops_and_counts_excess_events() {
        let mut t = ChromeTrace::with_cap(2);
        for i in 0..5 {
            t.instant(0, 0, "c", "n", i);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let doc = validate(&t.render());
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn cap_boundary_is_exact() {
        // Exactly `cap` events fit with zero drops; the very next push
        // is the first drop. This is the boundary `profile --trace-cap`
        // exposes, so it must not be off by one in either direction.
        let cap = 7;
        let mut t = ChromeTrace::with_cap(cap);
        for i in 0..cap {
            t.instant(0, 0, "c", "n", i as u64);
        }
        assert_eq!(t.len(), cap);
        assert_eq!(t.dropped(), 0);
        t.instant(0, 0, "c", "n", cap as u64);
        assert_eq!(t.len(), cap);
        assert_eq!(t.dropped(), 1);
        // A zero cap clamps to one retained event rather than an
        // unrenderable empty buffer.
        let mut z = ChromeTrace::with_cap(0);
        z.instant(0, 0, "c", "n", 1);
        z.instant(0, 0, "c", "n", 2);
        assert_eq!(z.len(), 1);
        assert_eq!(z.dropped(), 1);
    }

    #[test]
    fn observer_maps_records_onto_lanes() {
        let mut o = ChromeTraceObserver::new("test cell");
        assert!(o.active());
        o.on_airtime_slice(EventRecord::AirtimeSlice {
            t: SimTime::from_micros(100),
            start: SimTime::from_micros(40),
            dur: SimDuration::from_micros(60),
            station: 2,
            category: AirtimeCategory::DataTx,
        });
        o.on_frame_span(EventRecord::FrameSpan {
            t: SimTime::from_micros(100),
            station: 2,
            bytes: 1500,
            enqueue: SimTime::from_micros(10),
            release: SimTime::from_micros(20),
            first_tx: SimTime::from_micros(90),
            attempts: 1,
            airtime: SimDuration::from_micros(60),
            delivered: true,
        });
        o.on_queue_change(EventRecord::QueueChange {
            t: SimTime::from_micros(11),
            site: QueueSite::Ap,
            key: 2,
            len: 3,
        });
        let doc = validate(&o.into_trace().render());
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 3 metadata (process + 2 lanes) + slice + frame-lane metadata
        // + frame span + counter.
        assert_eq!(evs.len(), 7);
        let slice = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("data_tx"))
            .unwrap();
        assert_eq!(slice.get("ts").and_then(Json::as_f64), Some(40.0));
        assert_eq!(slice.get("dur").and_then(Json::as_f64), Some(60.0));
        let frame = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("frame"))
            .unwrap();
        assert_eq!(frame.get("ts").and_then(Json::as_f64), Some(10.0));
        assert_eq!(frame.get("dur").and_then(Json::as_f64), Some(90.0));
        assert_eq!(
            frame.get("tid").and_then(Json::as_u64),
            Some(TID_FRAMES + 2)
        );
    }

    #[test]
    fn dispatch_summary_tiles_labels_by_cost() {
        let mut a = NsHist::new();
        a.record(Duration::from_micros(10));
        let mut b = NsHist::new();
        b.record(Duration::from_micros(100));
        let mut t = ChromeTrace::new();
        t.dispatch_summary(HOST_PID, "run", &[("small", a), ("big", b)]);
        let doc = validate(&t.render());
        let evs = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let spans: Vec<&Json> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        // Descending cost order, tiled end to end.
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("big"));
        assert_eq!(spans[0].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[1].get("ts").and_then(Json::as_f64), Some(100.0));
    }

    #[test]
    fn alloc_stats_delta() {
        let a = AllocStats {
            allocs: 10,
            bytes: 100,
        };
        let b = AllocStats {
            allocs: 25,
            bytes: 350,
        };
        assert_eq!(
            b.since(a),
            AllocStats {
                allocs: 15,
                bytes: 250
            }
        );
        // Without CountingAlloc installed the global counters stay 0.
        set_alloc_counting(true);
        let _v: Vec<u8> = Vec::with_capacity(4096);
        set_alloc_counting(false);
        assert_eq!(alloc_stats(), AllocStats::default());
    }

    #[test]
    fn perf_report_renders_aligned_tables() {
        let mut h = NsHist::new();
        for us in [1u64, 2, 3, 400] {
            h.record(Duration::from_micros(us));
        }
        let labels = format!("[{}]", dist_json("mac.tx_end", &h));
        let sc = Obj::new()
            .str("scenario", "fig9_mixed_rate")
            .str("kind", "cell")
            .f64("wall_s", 1.5)
            .f64("sim_s", 240.0)
            .u64("events", 4)
            .f64("events_per_sec", 2_500_000.0)
            .u64("queue_high_water", 17)
            .raw("labels", &labels)
            .finish();
        let doc = Obj::new()
            .str("bench", "profile")
            .raw("scenarios", &format!("[{sc}]"))
            .bool("pass", true)
            .finish();
        let text = render_perf_report(&doc).unwrap();
        assert!(text.contains("fig9_mixed_rate (cell)"), "{text}");
        assert!(text.contains("2.50 M ev/s"), "{text}");
        assert!(text.contains("queue high-water 17"), "{text}");
        assert!(text.contains("mac.tx_end"), "{text}");
        assert!(text.contains("p99"), "{text}");
        // Not-a-report errors cleanly.
        assert!(render_perf_report("{\"x\":1}").is_err());
        assert!(render_perf_report("not json").is_err());
    }
}
