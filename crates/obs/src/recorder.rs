//! The flight recorder: a bounded causal event log with rolling
//! determinism fingerprints.
//!
//! The simulator's load-bearing guarantee is byte-identical output
//! across repeated runs, sweep thread counts, and refactors that are
//! not meant to change behaviour. Whole-report comparison can tell you *that* two runs diverged, but not
//! *where*. [`FlightRecorder`] closes that gap: it observes the
//! canonical causal stream — every dispatched event's `(time, seq)`
//! stamp and handler label, every scheduler decision, queue change,
//! and handoff — and folds it into a rolling 64-bit FNV-1a
//! fingerprint, checkpointed every N events. Two runs that executed
//! the same causal history produce identical checkpoint streams; the
//! first checkpoint that differs brackets the first divergent event to
//! a window of N, and a re-run recording just that window pins it to
//! an exact `(time, seq, label)`.
//!
//! The recorder keeps the most recent events in a bounded ring (the
//! "flight recorder" proper: history survives a crash-adjacent
//! surprise without unbounded memory), or — with [`FlightRecorder::
//! with_window`] — retains exactly one index window for divergence
//! re-runs. Fingerprinting itself never allocates per event beyond the
//! optional ring entry.
//!
//! Per-station sub-fingerprints (folded from scheduler decisions and
//! handoffs touching that station) localize a divergence to *who* as
//! well as *when*; in topology runs each cell carries its own recorder
//! lane, giving per-cell sub-fingerprints for free.
//!
//! # What "canonical" means
//!
//! The stream must be identical across runs that are *supposed* to be
//! equivalent, so two pieces of engine bookkeeping are deliberately
//! kept out of the fingerprint:
//!
//! - `sched.tick` dispatches are excluded entirely. A tick is a
//!   wake-up the engine places at the scheduler's *estimate* of when
//!   it unblocks; estimates are conservative by contract, so a wake
//!   may land early and do nothing. The ticks' causal *effects* —
//!   scheduler decisions, queue changes — are what the stream
//!   captures, and a sharper estimate leaves the fingerprint alone.
//! - The queue `seq` stamp is recorded for debugging (it names the
//!   push that created a dispatch) but not hashed: every push consumes
//!   a sequence number, wake-ups included, so moving one wake-up would
//!   shift every later event's raw seq without changing causality.
//!   Ordering is still fully covered — the fold is order-sensitive, so
//!   two streams that dispatch the same events in a different order
//!   fingerprint differently.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use airtime_sim::SimTime;

use crate::event::{EventRecord, QueueSite};
use crate::json::{parse_flat, Obj, Value};
use crate::observer::{Hook, Observer};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Events per fingerprint checkpoint unless overridden.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4096;
/// Ring capacity unless overridden: enough to hold a full checkpoint
/// window on either side of a divergence.
pub const DEFAULT_RING_CAPACITY: usize = 2 * DEFAULT_CHECKPOINT_INTERVAL as usize;

/// FNV-1a over a byte slice, seeded so distinct field orders hash
/// differently.
const fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// The hash state after an event's label and its `0xff` separator: the
/// part of every event hash that depends on the label alone.
const fn label_prefix(label: &str) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, label.as_bytes()), &[0xff])
}

const DECIDE_PREFIX: u64 = label_prefix("sched.decide");
const QUEUE_PREFIX: u64 = label_prefix("queue.change");
const HANDOFF_PREFIX: u64 = label_prefix("handoff");

/// Where [`Detail::write`] puts its ASCII text: a `String` for a
/// retained event, or straight into an FNV hash when only the
/// fingerprint needs it. Both receive the same bytes.
trait DetailSink {
    fn text(&mut self, ascii: &[u8]);

    /// `v` in decimal, the bytes `format!("{v}")` produces.
    fn dec(&mut self, v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut v = v;
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.text(&buf[i..]);
    }
}

impl DetailSink for String {
    fn text(&mut self, ascii: &[u8]) {
        self.push_str(std::str::from_utf8(ascii).expect("detail text is ASCII"));
    }
}

/// An FNV-1a hash in progress.
struct FnvSink(u64);

impl DetailSink for FnvSink {
    fn text(&mut self, ascii: &[u8]) {
        self.0 = fnv1a(self.0, ascii);
    }
}

/// The human-readable payload of a recorded event, kept as raw fields
/// until something needs its text.
enum Detail {
    None,
    Decide { client: u64, bytes: u64, qlen: u64 },
    Queue { site: QueueSite, key: u64, len: u64 },
    Handoff { from: Option<u64>, to: Option<u64> },
}

impl Detail {
    fn write(self, w: &mut impl DetailSink) {
        match self {
            Detail::None => {}
            Detail::Decide {
                client,
                bytes,
                qlen,
            } => {
                w.text(b"client=");
                w.dec(client);
                w.text(b" bytes=");
                w.dec(bytes);
                w.text(b" qlen=");
                w.dec(qlen);
            }
            Detail::Queue { site, key, len } => {
                w.text(match site {
                    QueueSite::Ap => b"site=Ap key=",
                    QueueSite::Client => b"site=Client key=",
                });
                w.dec(key);
                w.text(b" len=");
                w.dec(len);
            }
            Detail::Handoff { from, to } => {
                for (name, c) in [(&b"from="[..], from), (b" to=", to)] {
                    w.text(name);
                    match c {
                        Some(c) => w.dec(c),
                        None => w.text(b"-"),
                    }
                }
            }
        }
    }

    fn into_text(self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

/// Order-sensitive fold of one event hash into a rolling fingerprint.
fn fold(fp: u64, h: u64) -> u64 {
    (fp ^ h).wrapping_mul(FNV_PRIME)
}

/// Formats a fingerprint the way every surface prints it: 16 lowercase
/// hex digits.
pub fn fp_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// One entry of the canonical causal stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Position in the stream (0-based, monotonically increasing).
    pub index: u64,
    /// Simulation time of the event.
    pub t: SimTime,
    /// Queue sequence stamp (0 for records that don't carry one, e.g.
    /// scheduler decisions emitted between dispatches). Debugging
    /// context only — not part of the fingerprint, because raw seqs
    /// count wake-up pushes too (see the module docs).
    pub seq: u64,
    /// What happened: a dispatch label (`"mac.slot"`), `"sched.decide"`,
    /// `"queue.change"`, or `"handoff"`.
    pub label: String,
    /// Human-readable payload (client, bytes, queue length, ...).
    pub detail: String,
    /// The station this event is attributed to, when there is one.
    pub station: Option<u64>,
}

impl RecordedEvent {
    /// Whether two events describe the same causal occurrence: same
    /// time, label, detail, and station. `seq` (and `index`) are
    /// positional context, not identity — two equivalent runs can
    /// disagree on raw seqs without having diverged.
    pub fn causal_eq(&self, other: &RecordedEvent) -> bool {
        self.t == other.t
            && self.label == other.label
            && self.detail == other.detail
            && self.station == other.station
    }

    /// One causal-log line, the format `replay` prints.
    pub fn render(&self) -> String {
        let mut line = format!(
            "#{:<10} t={:>14.9}s seq={:<10} {:<16}",
            self.index,
            self.t.as_secs_f64(),
            self.seq,
            self.label
        );
        if let Some(s) = self.station {
            let _ = write!(line, " sta={s}");
        }
        if !self.detail.is_empty() {
            let _ = write!(line, " {}", self.detail);
        }
        line
    }
}

/// A rolling-fingerprint checkpoint: the stream state after `events`
/// events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// How many events had been folded when this checkpoint was taken
    /// (always a multiple of the interval).
    pub events: u64,
    /// Simulation time of the last folded event.
    pub t: SimTime,
    /// The rolling fingerprint at that point.
    pub fp: u64,
}

/// A bounded-ring causal recorder with rolling fingerprint
/// checkpoints. See the module docs for the design.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    interval: u64,
    /// Cell id for topology lanes (stamped into serialized recordings).
    cell: Option<u64>,
    events: u64,
    fp: u64,
    last_t: SimTime,
    checkpoints: Vec<Checkpoint>,
    ring: VecDeque<RecordedEvent>,
    capacity: usize,
    dropped: u64,
    /// When set, only events with `index` in `[a, b)` enter the ring
    /// (fingerprinting still covers the whole stream).
    window: Option<(u64, u64)>,
    station_fp: BTreeMap<u64, u64>,
    /// [`label_prefix`] of each dispatch label seen so far, keyed by
    /// the label's address: labels are `'static`, and a label that
    /// appears at two addresses just takes two entries.
    labels: Vec<(&'static str, u64)>,
    /// Test hook: perturb the record at this stream index before
    /// folding, manufacturing a deterministic synthetic divergence.
    inject_at: Option<u64>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default checkpoint interval and ring
    /// capacity.
    pub fn new() -> Self {
        FlightRecorder {
            interval: DEFAULT_CHECKPOINT_INTERVAL,
            cell: None,
            events: 0,
            fp: FNV_OFFSET,
            last_t: SimTime::ZERO,
            checkpoints: Vec::new(),
            ring: VecDeque::new(),
            capacity: DEFAULT_RING_CAPACITY,
            dropped: 0,
            window: None,
            station_fp: BTreeMap::new(),
            labels: Vec::new(),
            inject_at: None,
        }
    }

    /// Sets the checkpoint interval (events per checkpoint; min 1).
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval.max(1);
        self
    }

    /// Sets the ring capacity. Zero disables event retention entirely
    /// — the recorder becomes a pure fingerprinter, the cheapest mode
    /// and the one `verify-determinism` uses for its first pass.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Retains only events with stream index in `[start, end)`,
    /// regardless of capacity. Used to re-record just the window
    /// around a divergent checkpoint.
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self.capacity = usize::MAX;
        self
    }

    /// Tags this recorder as cell `id`'s lane in a topology run.
    pub fn for_cell(mut self, id: u64) -> Self {
        self.cell = Some(id);
        self
    }

    /// Test hook: perturb the event at stream index `index` (its `seq`
    /// is bumped and its detail tagged — the tag is what corrupts the
    /// fingerprint stream from that point on). Lets the divergence
    /// machinery be exercised without a real bug.
    pub fn with_injected_divergence(mut self, index: u64) -> Self {
        self.inject_at = Some(index);
        self
    }

    /// Total events folded into the fingerprint so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The rolling fingerprint over everything seen so far.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Which cell this lane records, if tagged.
    pub fn cell(&self) -> Option<u64> {
        self.cell
    }

    /// The checkpoint stream so far.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Events evicted from the ring (recorded but no longer
    /// retrievable).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &RecordedEvent> {
        self.ring.iter()
    }

    /// Per-station sub-fingerprints (folded from scheduler decisions,
    /// queue changes, and handoffs attributed to each station).
    pub fn station_fingerprints(&self) -> &BTreeMap<u64, u64> {
        &self.station_fp
    }

    /// Folds one canonical event into the stream. `prefix` is
    /// [`label_prefix`] of `label`. Fingerprinting works on the raw
    /// parts, so the hot fingerprint-only configuration (capacity 0)
    /// never allocates; the detail text and a [`RecordedEvent`] are
    /// only built when the ring retains this index or the injected
    /// divergence lands on it.
    fn push(
        &mut self,
        t: SimTime,
        mut seq: u64,
        label: &str,
        prefix: u64,
        detail: Detail,
        station: Option<u64>,
    ) {
        let retain = match self.window {
            Some((a, b)) => self.events >= a && self.events < b,
            None => self.capacity > 0,
        };
        let injected = self.inject_at == Some(self.events);
        let mut h = fnv1a(prefix, &t.as_nanos().to_le_bytes());
        let text = if retain || injected {
            let mut text = detail.into_text();
            if injected {
                // A one-bit lie: the injected event claims the wrong
                // queue ordinal, exactly what a real determinism bug
                // looks like.
                seq = seq.wrapping_add(1);
                text.push_str(" [injected]");
            }
            h = fnv1a(h, text.as_bytes());
            Some(text)
        } else {
            let mut sink = FnvSink(h);
            detail.write(&mut sink);
            h = sink.0;
            None
        };
        h = fnv1a(h, &station.unwrap_or(u64::MAX).to_le_bytes());
        self.fp = fold(self.fp, h);
        if let Some(s) = station {
            let sfp = self.station_fp.entry(s).or_insert(FNV_OFFSET);
            *sfp = fold(*sfp, h);
        }
        match text {
            Some(detail) if retain => {
                if self.window.is_none() && self.ring.len() >= self.capacity {
                    self.ring.pop_front();
                    self.dropped += 1;
                }
                self.ring.push_back(RecordedEvent {
                    index: self.events,
                    t,
                    seq,
                    label: label.to_string(),
                    detail,
                    station,
                });
            }
            _ => self.dropped += 1,
        }
        self.events += 1;
        self.last_t = t;
        if self.events.is_multiple_of(self.interval) {
            self.checkpoints.push(Checkpoint {
                events: self.events,
                t,
                fp: self.fp,
            });
        }
    }

    /// [`label_prefix`] of a dispatch label, cached per label.
    fn dispatch_prefix(&mut self, label: &'static str) -> u64 {
        if let Some(&(_, h)) = self.labels.iter().find(|(l, _)| std::ptr::eq(*l, label)) {
            return h;
        }
        let h = label_prefix(label);
        self.labels.push((label, h));
        h
    }

    /// Serializes the recording as JSONL (header, checkpoints, then
    /// retained events).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut header = Obj::new();
        header
            .str("schema", "airtime-recording")
            .u64("version", 1)
            .u64("interval", self.interval)
            .u64("events", self.events)
            .str("fp", &fp_hex(self.fp))
            .u64("dropped", self.dropped);
        if let Some(c) = self.cell {
            header.u64("cell", c);
        }
        out.push_str(&header.finish());
        out.push('\n');
        for cp in &self.checkpoints {
            out.push_str(
                Obj::new()
                    .str("kind", "cp")
                    .u64("events", cp.events)
                    .u64("t_ns", cp.t.as_nanos())
                    .str("fp", &fp_hex(cp.fp))
                    .finish()
                    .as_str(),
            );
            out.push('\n');
        }
        for ev in &self.ring {
            let mut o = Obj::new();
            o.str("kind", "ev")
                .u64("index", ev.index)
                .u64("t_ns", ev.t.as_nanos())
                .u64("seq", ev.seq)
                .str("label", &ev.label)
                .str("detail", &ev.detail);
            if let Some(s) = ev.station {
                o.u64("station", s);
            }
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

impl Observer for FlightRecorder {
    fn wants(&self, hook: Hook) -> bool {
        matches!(
            hook,
            Hook::Dispatch | Hook::SchedDecision | Hook::QueueChange | Hook::Handoff
        )
    }

    fn on_dispatch(&mut self, t: SimTime, seq: u64, label: &'static str) {
        // Wake-up bookkeeping, not causality: a tick lands wherever the
        // scheduler's conservative unblock estimate put it, so tick
        // dispatches stay out of the canonical stream (their causal
        // effects arrive via on_sched_decision / on_queue_change).
        if label == "sched.tick" {
            return;
        }
        let prefix = self.dispatch_prefix(label);
        self.push(t, seq, label, prefix, Detail::None, None);
    }

    fn on_sched_decision(&mut self, rec: EventRecord) {
        if let EventRecord::SchedDecision {
            t,
            client,
            bytes,
            queue_len,
        } = rec
        {
            let detail = Detail::Decide {
                client,
                bytes,
                qlen: queue_len,
            };
            self.push(t, 0, "sched.decide", DECIDE_PREFIX, detail, Some(client));
        }
    }

    fn on_queue_change(&mut self, rec: EventRecord) {
        if let EventRecord::QueueChange { t, site, key, len } = rec {
            let detail = Detail::Queue { site, key, len };
            self.push(t, 0, "queue.change", QUEUE_PREFIX, detail, Some(key));
        }
    }

    fn on_handoff(&mut self, t: SimTime, station: u64, from: Option<u64>, to: Option<u64>) {
        let detail = Detail::Handoff { from, to };
        self.push(t, 0, "handoff", HANDOFF_PREFIX, detail, Some(station));
    }
}

/// A parsed recording: what [`FlightRecorder::to_jsonl`] round-trips
/// through, and what `airtime-cli replay` loads.
#[derive(Clone, Debug, Default)]
pub struct Recording {
    /// Checkpoint interval the recorder ran with.
    pub interval: u64,
    /// Cell lane, if the recording came from a topology run.
    pub cell: Option<u64>,
    /// Total events the run folded (may exceed `events.len()`).
    pub total_events: u64,
    /// Final rolling fingerprint, 16 hex digits.
    pub fp: String,
    /// Events evicted before serialization.
    pub dropped: u64,
    /// The checkpoint stream.
    pub checkpoints: Vec<Checkpoint>,
    /// The retained events, oldest first.
    pub events: Vec<RecordedEvent>,
}

impl Recording {
    /// Parses the JSONL format produced by [`FlightRecorder::to_jsonl`].
    pub fn parse(text: &str) -> Result<Recording, String> {
        let mut rec = Recording::default();
        let mut saw_header = false;
        for (no, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields = parse_flat(line).map_err(|e| format!("line {}: {e}", no + 1))?;
            let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            let get_u64 = |k: &str| get(k).and_then(Value::as_u64);
            if !saw_header {
                match get("schema").and_then(Value::as_str) {
                    Some("airtime-recording") => {}
                    _ => return Err("not an airtime-recording file".into()),
                }
                rec.interval = get_u64("interval").unwrap_or(DEFAULT_CHECKPOINT_INTERVAL);
                rec.total_events = get_u64("events").unwrap_or(0);
                rec.fp = get("fp").and_then(Value::as_str).unwrap_or("").to_string();
                rec.dropped = get_u64("dropped").unwrap_or(0);
                rec.cell = get_u64("cell");
                saw_header = true;
                continue;
            }
            match get("kind").and_then(Value::as_str) {
                Some("cp") => rec.checkpoints.push(Checkpoint {
                    events: get_u64("events")
                        .ok_or(format!("line {}: cp missing events", no + 1))?,
                    t: SimTime::from_nanos(
                        get_u64("t_ns").ok_or(format!("line {}: cp missing t_ns", no + 1))?,
                    ),
                    fp: parse_fp_hex(get("fp").and_then(Value::as_str).unwrap_or(""))
                        .ok_or(format!("line {}: bad cp fp", no + 1))?,
                }),
                Some("ev") => rec.events.push(RecordedEvent {
                    index: get_u64("index").ok_or(format!("line {}: ev missing index", no + 1))?,
                    t: SimTime::from_nanos(
                        get_u64("t_ns").ok_or(format!("line {}: ev missing t_ns", no + 1))?,
                    ),
                    seq: get_u64("seq").unwrap_or(0),
                    label: get("label")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    detail: get("detail")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    station: get_u64("station"),
                }),
                other => return Err(format!("line {}: unknown kind {other:?}", no + 1)),
            }
        }
        if !saw_header {
            return Err("empty recording".into());
        }
        Ok(rec)
    }

    /// Pretty-prints the retained events in `[start, end)` (stream
    /// indices; `None` = unbounded) as a causal log.
    pub fn render_window(&self, start: Option<u64>, end: Option<u64>) -> String {
        let a = start.unwrap_or(0);
        let b = end.unwrap_or(u64::MAX);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "recording: {} events total, {} retained, fp {}{}",
            self.total_events,
            self.events.len(),
            self.fp,
            match self.cell {
                Some(c) => format!(" (cell {c})"),
                None => String::new(),
            }
        );
        let mut shown = 0usize;
        for ev in &self.events {
            if ev.index >= a && ev.index < b {
                out.push_str(&ev.render());
                out.push('\n');
                shown += 1;
            }
        }
        if shown == 0 {
            let _ = writeln!(out, "(no retained events in window {a}..{b})");
        }
        out
    }
}

fn parse_fp_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// Index of the first checkpoint where `a` and `b` disagree, if any.
/// A length mismatch with an identical common prefix diverges at the
/// first missing checkpoint.
pub fn first_divergent_checkpoint(a: &[Checkpoint], b: &[Checkpoint]) -> Option<usize> {
    let n = a.len().min(b.len());
    for i in 0..n {
        if a[i].fp != b[i].fp || a[i].events != b[i].events {
            return Some(i);
        }
    }
    if a.len() != b.len() {
        return Some(n);
    }
    None
}

/// The first position where two event windows disagree causally
/// ([`RecordedEvent::causal_eq`]), with both sides' views (`None` =
/// that side's stream ended first).
pub fn first_divergent_event<'a>(
    a: &'a [RecordedEvent],
    b: &'a [RecordedEvent],
) -> Option<(Option<&'a RecordedEvent>, Option<&'a RecordedEvent>)> {
    let n = a.len().min(b.len());
    for i in 0..n {
        if !a[i].causal_eq(&b[i]) {
            return Some((Some(&a[i]), Some(&b[i])));
        }
    }
    match a.len().cmp(&b.len()) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some((Some(&a[n]), None)),
        std::cmp::Ordering::Less => Some((None, Some(&b[n]))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(rec: &mut FlightRecorder, n: u64) {
        for i in 0..n {
            rec.on_dispatch(SimTime::from_micros(i), i, "test.evt");
        }
    }

    #[test]
    fn identical_streams_fingerprint_identically() {
        let mut a = FlightRecorder::new().with_interval(8);
        let mut b = FlightRecorder::new().with_interval(8);
        feed(&mut a, 100);
        feed(&mut b, 100);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.checkpoints(), b.checkpoints());
        assert_eq!(a.checkpoints().len(), 12);
        assert!(first_divergent_checkpoint(a.checkpoints(), b.checkpoints()).is_none());
    }

    #[test]
    fn order_matters() {
        let mut a = FlightRecorder::new();
        let mut b = FlightRecorder::new();
        a.on_dispatch(SimTime::from_micros(1), 0, "x");
        a.on_dispatch(SimTime::from_micros(2), 1, "y");
        b.on_dispatch(SimTime::from_micros(2), 1, "y");
        b.on_dispatch(SimTime::from_micros(1), 0, "x");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn injection_diverges_exactly_at_the_checkpoint_containing_it() {
        let mut clean = FlightRecorder::new().with_interval(10);
        let mut dirty = FlightRecorder::new()
            .with_interval(10)
            .with_injected_divergence(37);
        feed(&mut clean, 100);
        feed(&mut dirty, 100);
        // Checkpoints cover events [0,10), [10,20), ... — index 37 is
        // inside the 4th checkpoint (ordinal 3).
        assert_eq!(
            first_divergent_checkpoint(clean.checkpoints(), dirty.checkpoints()),
            Some(3)
        );
        assert_eq!(clean.checkpoints()[2], dirty.checkpoints()[2]);
    }

    #[test]
    fn windowed_rerun_pins_the_exact_event() {
        let mut clean = FlightRecorder::new().with_window(30, 40);
        let mut dirty = FlightRecorder::new()
            .with_window(30, 40)
            .with_injected_divergence(37);
        feed(&mut clean, 100);
        feed(&mut dirty, 100);
        let a: Vec<_> = clean.ring().cloned().collect();
        let b: Vec<_> = dirty.ring().cloned().collect();
        assert_eq!(a.len(), 10);
        let (ca, cb) = first_divergent_event(&a, &b).expect("streams diverge");
        let (ca, cb) = (ca.unwrap(), cb.unwrap());
        assert_eq!(ca.index, 37);
        assert_eq!(ca.seq, 37);
        assert_eq!(cb.seq, 38);
        assert!(cb.detail.contains("injected"));
    }

    #[test]
    fn raw_seq_and_tick_dispatches_stay_out_of_the_fingerprint() {
        // Same causal stream, shifted raw seqs (what an extra wake-up
        // push looks like): identical fingerprints.
        let mut woken = FlightRecorder::new();
        let mut plain = FlightRecorder::new();
        for i in 0..50u64 {
            woken.on_dispatch(SimTime::from_micros(i), 2 * i + 1, "mac.tx_end");
            plain.on_dispatch(SimTime::from_micros(i), i, "mac.tx_end");
        }
        assert_eq!(woken.fingerprint(), plain.fingerprint());
        // sched.tick dispatches are wake-up bookkeeping and never
        // enter the stream.
        woken.on_dispatch(SimTime::from_micros(99), 7, "sched.tick");
        assert_eq!(woken.events(), 50);
        assert_eq!(woken.fingerprint(), plain.fingerprint());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut rec = FlightRecorder::new().with_capacity(16);
        feed(&mut rec, 100);
        assert_eq!(rec.ring().count(), 16);
        assert_eq!(rec.dropped(), 84);
        assert_eq!(rec.ring().next().unwrap().index, 84);
        // Capacity zero: pure fingerprinter, everything dropped.
        let mut bare = FlightRecorder::new().with_capacity(0);
        feed(&mut bare, 10);
        assert_eq!(bare.ring().count(), 0);
        assert_eq!(bare.dropped(), 10);
        assert_eq!(bare.fingerprint(), {
            let mut full = FlightRecorder::new();
            feed(&mut full, 10);
            full.fingerprint()
        });
    }

    #[test]
    fn unretained_details_hash_like_their_text() {
        // The fingerprint-only path hashes the detail without building
        // it; it must fold exactly the bytes the retained path formats.
        fn feed_mixed(rec: &mut FlightRecorder) {
            for (i, v) in [0, 7, 10, 99, 1500, u64::MAX].into_iter().enumerate() {
                let t = SimTime::from_micros(i as u64);
                rec.on_dispatch(t, i as u64, "mac.tx_end");
                rec.on_sched_decision(EventRecord::SchedDecision {
                    t,
                    client: i as u64,
                    bytes: v,
                    queue_len: v / 3,
                });
                for site in [QueueSite::Ap, QueueSite::Client] {
                    rec.on_queue_change(EventRecord::QueueChange {
                        t,
                        site,
                        key: v,
                        len: i as u64,
                    });
                }
                rec.on_handoff(t, v, Some(v), None);
            }
        }
        let mut bare = FlightRecorder::new().with_capacity(0);
        let mut full = FlightRecorder::new();
        feed_mixed(&mut bare);
        feed_mixed(&mut full);
        assert_eq!(bare.fingerprint(), full.fingerprint());
        assert_eq!(bare.station_fingerprints(), full.station_fingerprints());
        let details: Vec<&str> = full.ring().map(|e| e.detail.as_str()).collect();
        let (v, site) = (u64::MAX, QueueSite::Client);
        for text in [
            format!("client=5 bytes={v} qlen={}", v / 3),
            format!("site={site:?} key={v} len=5"),
            format!("from={v} to=-"),
        ] {
            assert!(details.contains(&text.as_str()), "{text}");
        }
    }

    #[test]
    fn station_subfingerprints_split_by_station() {
        let mut rec = FlightRecorder::new();
        for i in 0..10u64 {
            rec.on_sched_decision(EventRecord::SchedDecision {
                t: SimTime::from_micros(i),
                client: i % 2,
                bytes: 1500,
                queue_len: 3,
            });
        }
        assert_eq!(rec.station_fingerprints().len(), 2);
        let a = rec.station_fingerprints()[&0];
        let b = rec.station_fingerprints()[&1];
        assert_ne!(a, b);
    }

    #[test]
    fn handoffs_enter_the_stream() {
        let mut rec = FlightRecorder::new();
        rec.on_handoff(SimTime::from_secs(1), 3, Some(0), Some(1));
        rec.on_handoff(SimTime::from_secs(2), 3, Some(1), None);
        assert_eq!(rec.events(), 2);
        let evs: Vec<_> = rec.ring().collect();
        assert_eq!(evs[0].label, "handoff");
        assert_eq!(evs[0].detail, "from=0 to=1");
        assert_eq!(evs[1].detail, "from=1 to=-");
        assert!(rec.station_fingerprints().contains_key(&3));
    }

    #[test]
    fn jsonl_roundtrip_preserves_everything() {
        let mut rec = FlightRecorder::new().with_interval(8).for_cell(2);
        feed(&mut rec, 20);
        rec.on_sched_decision(EventRecord::SchedDecision {
            t: SimTime::from_micros(99),
            client: 1,
            bytes: 1500,
            queue_len: 0,
        });
        let text = rec.to_jsonl();
        let parsed = Recording::parse(&text).unwrap();
        assert_eq!(parsed.cell, Some(2));
        assert_eq!(parsed.interval, 8);
        assert_eq!(parsed.total_events, 21);
        assert_eq!(parsed.fp, fp_hex(rec.fingerprint()));
        assert_eq!(parsed.checkpoints, rec.checkpoints());
        let ring: Vec<_> = rec.ring().cloned().collect();
        assert_eq!(parsed.events, ring);
        // The rendered window shows the causal log.
        let log = parsed.render_window(Some(18), Some(21));
        assert!(log.contains("test.evt"));
        assert!(log.contains("sched.decide"));
        assert!(log.contains("client=1"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Recording::parse("").is_err());
        assert!(Recording::parse("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn checkpoint_length_mismatch_diverges_at_the_tail() {
        let mut a = FlightRecorder::new().with_interval(10);
        let mut b = FlightRecorder::new().with_interval(10);
        feed(&mut a, 30);
        feed(&mut b, 50);
        assert_eq!(
            first_divergent_checkpoint(a.checkpoints(), b.checkpoints()),
            Some(3)
        );
    }
}
