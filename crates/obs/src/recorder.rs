//! The flight recorder: a bounded causal event log with rolling
//! determinism fingerprints.
//!
//! The simulator's load-bearing guarantee is byte-identical output
//! across repeated runs, sweep thread counts, and refactors that are
//! not meant to change behaviour. Whole-report comparison can tell you
//! *that* two runs diverged, but not *where*. [`FlightRecorder`] closes
//! that gap: it observes the canonical behavioural stream — every
//! scheduler decision, queue change, handoff, transmission attempt and
//! MAC final verdict — and folds it into a rolling 64-bit fingerprint
//! (a multiply-xorshift fold over each event's fields, one 64-bit word
//! at a time), checkpointed every N events. Two runs that behaved
//! alike produce identical checkpoint streams; the first checkpoint
//! that differs brackets the first divergent event to a window of N,
//! and a re-run recording just that window pins it to an exact
//! `(time, label, detail)`.
//!
//! The recorder keeps the most recent events in a bounded ring (the
//! "flight recorder" proper: history survives a crash-adjacent
//! surprise without unbounded memory), or — with [`FlightRecorder::
//! with_window`] — retains exactly one index window for divergence
//! re-runs.
//!
//! Per-station sub-fingerprints (folded from the events attributed to
//! each station) localize a divergence to *who* as well as *when*; in
//! topology runs each cell carries its own recorder lane, giving
//! per-cell sub-fingerprints for free.
//!
//! # Two paths per record
//!
//! Whether a recorder can retain or perturb any event is fixed when it
//! is built: a ring capacity above zero, a window or an injected
//! divergence. One that cannot (capacity 0 — the fingerprint-only mode
//! every sweep, tournament and topology lane runs, and the first pass
//! of `verify-determinism`) takes the **fold path** on every record,
//! inlined into the engine's hook call: hash the fields, fold the hash
//! into the fingerprint and into the station's sub-fingerprint, and
//! count down to the next checkpoint. It builds no text and never
//! allocates except to take a checkpoint or to grow the station table.
//!
//! Any other recorder takes the **retention path**, an out-of-line
//! call that also decides whether the ring (or window) keeps the event,
//! builds its detail text only if it does, and tags the injected event.
//! Both paths hash through one function (`event_hash`) and fold
//! through one (`FlightRecorder::fold`), so a retaining recorder and a
//! bare fingerprinter always agree.
//!
//! # What "canonical" means
//!
//! The stream holds what the simulated network *did*, never how the
//! engine got there:
//!
//! - Scheduler decisions (who the AP serves, how much, how much is
//!   left queued), queue changes at the AP and the clients, handoffs,
//!   every transmission attempt (sender, billed client, size, rate,
//!   outcome, retry index, airtime) and every frame's final MAC
//!   verdict (delivered or dropped).
//! - Event-loop dispatches are not part of it: the recorder does not
//!   want [`Hook::Dispatch`]. Which timers the engine keeps queued,
//!   whether a superseded timer still pops and is ignored, how many
//!   wake-ups a blocked scheduler gets and the raw queue sequence
//!   numbers are all bookkeeping. Changing them leaves the fingerprint
//!   alone unless the network behaves differently as a result.
//! - Ordering is still fully covered: the fold is order-sensitive, so
//!   two streams with the same events in a different order fingerprint
//!   differently.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use airtime_sim::SimTime;

use crate::event::{EventRecord, Fields, MacPhase, QueueSite};
use crate::json::{Json, Obj};
use crate::observer::{Hook, Observer};

/// Seed of every hash: the FNV-1a 64-bit offset basis.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Odd multiplier of [`mix`] (2^64 / φ).
const MIX_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Station ids below this keep their sub-fingerprint (and their span
/// accumulator) in a table indexed by id; the per-event lookup is then
/// one index, not a search.
pub(crate) const DENSE_STATIONS: usize = 4096;

/// Events per fingerprint checkpoint unless overridden.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4096;
/// Ring capacity unless overridden: enough to hold a full checkpoint
/// window on either side of a divergence.
pub const DEFAULT_RING_CAPACITY: usize = 2 * DEFAULT_CHECKPOINT_INTERVAL as usize;

/// Folds one 64-bit word into a hash. Each step is a bijection of the
/// state for a given word (xor, odd multiply, xorshift), so two streams
/// that differ in a single word always end on different hashes.
#[inline]
const fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(MIX_MUL);
    h ^ (h >> 29)
}

/// The hash of a label's text (FNV-1a): the seed of every event hash
/// with that label.
const fn label_seed(label: &str) -> u64 {
    let bytes = label.as_bytes();
    let mut h = SEED;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

const DECIDE_SEED: u64 = label_seed("sched.decide");
const QUEUE_SEED: u64 = label_seed("queue.change");
const HANDOFF_SEED: u64 = label_seed("handoff");
const ATTEMPT_SEED: u64 = label_seed("tx.attempt");
const FINAL_SEED: u64 = label_seed("mac.final");
/// Folded into an event the injected-divergence test hook perturbs.
const INJECTED: u64 = label_seed("[injected]");

/// A PHY rate in whole tenths of a Mbit/s: `(rate_mbps * 10).round()`.
/// Every 802.11b/g rate is a whole number of tenths, which the cast
/// alone gets exactly; any other value takes the rounding call.
#[inline]
fn rate_tenths(rate_mbps: f64) -> u64 {
    let tenths = rate_mbps * 10.0;
    let whole = tenths as u64;
    if whole as f64 == tenths {
        whole
    } else {
        tenths.round() as u64
    }
}

/// The payload of a recorded event, kept as raw fields: the fingerprint
/// folds them as words, and text is built only for a retained event.
#[derive(Clone, Copy)]
enum Detail {
    Decide { client: u64, bytes: u64, qlen: u64 },
    Queue { site: QueueSite, key: u64, len: u64 },
    Handoff { from: Option<u64>, to: Option<u64> },
    Attempt(Attempt),
    Final { phase: MacPhase, node: u64 },
}

/// The fields of one [`EventRecord::TxAttempt`] the fingerprint covers.
#[derive(Clone, Copy)]
struct Attempt {
    node: u64,
    client: u64,
    bytes: u64,
    /// PHY rate in tenths of a Mbit/s ([`rate_tenths`]).
    rate_tenths: u64,
    success: bool,
    retry: u64,
    airtime_ns: u64,
}

impl Detail {
    /// The event's label, as a retained event and a recording show it.
    fn label(&self) -> &'static str {
        match self {
            Detail::Decide { .. } => "sched.decide",
            Detail::Queue { .. } => "queue.change",
            Detail::Handoff { .. } => "handoff",
            Detail::Attempt(_) => "tx.attempt",
            Detail::Final { .. } => "mac.final",
        }
    }

    /// [`label_seed`] of [`Detail::label`].
    #[inline]
    fn seed(&self) -> u64 {
        match self {
            Detail::Decide { .. } => DECIDE_SEED,
            Detail::Queue { .. } => QUEUE_SEED,
            Detail::Handoff { .. } => HANDOFF_SEED,
            Detail::Attempt(_) => ATTEMPT_SEED,
            Detail::Final { .. } => FINAL_SEED,
        }
    }

    /// Folds the fields into `h`, one word each (`u64::MAX` for an
    /// absent cell id).
    #[inline]
    fn hash(&self, h: u64) -> u64 {
        match *self {
            Detail::Decide {
                client,
                bytes,
                qlen,
            } => mix(mix(mix(h, client), bytes), qlen),
            Detail::Queue { site, key, len } => mix(mix(mix(h, site as u64), key), len),
            Detail::Handoff { from, to } => {
                mix(mix(h, from.unwrap_or(u64::MAX)), to.unwrap_or(u64::MAX))
            }
            Detail::Attempt(a) => [
                a.client,
                a.bytes,
                a.rate_tenths,
                a.success as u64,
                a.retry,
                a.airtime_ns,
            ]
            .into_iter()
            .fold(mix(h, a.node), mix),
            Detail::Final { phase, node } => mix(mix(h, phase as u64), node),
        }
    }

    fn text(&self) -> String {
        match self {
            Detail::Decide {
                client,
                bytes,
                qlen,
            } => format!("client={client} bytes={bytes} qlen={qlen}"),
            Detail::Queue { site, key, len } => format!("site={site:?} key={key} len={len}"),
            Detail::Handoff { from, to } => {
                let id = |c: &Option<u64>| c.map_or("-".to_string(), |c| c.to_string());
                format!("from={} to={}", id(from), id(to))
            }
            Detail::Attempt(a) => format!(
                "node={} client={} bytes={} rate={} {} retry={} air_ns={}",
                a.node,
                a.client,
                a.bytes,
                a.rate_tenths as f64 / 10.0,
                if a.success { "ok" } else { "fail" },
                a.retry,
                a.airtime_ns
            ),
            Detail::Final { phase, node } => format!("{} node={node}", phase.as_str()),
        }
    }
}

/// The hash of one event: its label's seed, then the time, the fields,
/// the injected-divergence tag when `injected`, and the station it is
/// attributed to, one word each. The only event hash, on both paths.
/// Always inlined, so each hook folds its own variant's words with no
/// match on the variant left at run time.
#[inline(always)]
fn event_hash(t: SimTime, detail: &Detail, station: u64, injected: bool) -> u64 {
    let mut h = detail.hash(mix(detail.seed(), t.as_nanos()));
    if injected {
        h = mix(h, INJECTED);
    }
    mix(h, station)
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
    /// What happened: `"sched.decide"`, `"queue.change"`, `"handoff"`,
    /// `"tx.attempt"` or `"mac.final"`.
    pub label: String,
    /// Human-readable payload (client, bytes, queue length, ...).
    pub detail: String,
    /// The station this event is attributed to, when there is one.
    pub station: Option<u64>,
}

impl RecordedEvent {
    /// Whether two events describe the same causal occurrence: same
    /// time, label, detail, and station. `index` is positional
    /// context, not identity.
    pub fn causal_eq(&self, other: &RecordedEvent) -> bool {
        self.t == other.t
            && self.label == other.label
            && self.detail == other.detail
            && self.station == other.station
    }

    /// One causal-log line, the format `replay` prints.
    pub fn render(&self) -> String {
        let mut line = format!(
            "#{:<10} t={:>14.9}s {:<16}",
            self.index,
            self.t.as_secs_f64(),
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
    /// Events left to fold before the next checkpoint (1..=`interval`).
    until_checkpoint: u64,
    fp: u64,
    checkpoints: Vec<Checkpoint>,
    /// Whether any event can enter the ring or be perturbed: a capacity
    /// above zero, a window or an injected divergence. Set by the
    /// builders; when clear, every record takes the fold path.
    retains: bool,
    /// Retained events. Every folded event not in it was dropped, so
    /// `events − ring.len()` is the drop count.
    ring: VecDeque<RecordedEvent>,
    capacity: usize,
    /// When set, only events with `index` in `[a, b)` enter the ring
    /// (fingerprinting still covers the whole stream).
    window: Option<(u64, u64)>,
    /// Sub-fingerprints of stations below [`DENSE_STATIONS`], by id.
    dense_fp: Vec<Option<u64>>,
    /// Sub-fingerprints of any larger station ids.
    sparse_fp: BTreeMap<u64, u64>,
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
            until_checkpoint: DEFAULT_CHECKPOINT_INTERVAL,
            fp: SEED,
            checkpoints: Vec::new(),
            retains: true,
            ring: VecDeque::new(),
            capacity: DEFAULT_RING_CAPACITY,
            window: None,
            dense_fp: Vec::new(),
            sparse_fp: BTreeMap::new(),
            inject_at: None,
        }
    }

    /// Sets the checkpoint interval (events per checkpoint; min 1).
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval.max(1);
        self.until_checkpoint = self.interval - self.events % self.interval;
        self
    }

    /// Sets the ring capacity. Zero disables event retention entirely
    /// — the recorder becomes a pure fingerprinter, the cheapest mode
    /// and the one `verify-determinism` uses for its first pass.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self.settle()
    }

    /// Retains only events with stream index in `[start, end)`,
    /// regardless of capacity. Used to re-record just the window
    /// around a divergent checkpoint.
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self.capacity = usize::MAX;
        self.settle()
    }

    /// Tags this recorder as cell `id`'s lane in a topology run.
    pub fn for_cell(mut self, id: u64) -> Self {
        self.cell = Some(id);
        self
    }

    /// Test hook: perturb the event at stream index `index` (its detail
    /// is tagged, which corrupts the fingerprint stream from that point
    /// on). Lets the divergence machinery be exercised without a real
    /// bug.
    pub fn with_injected_divergence(mut self, index: u64) -> Self {
        self.inject_at = Some(index);
        self.settle()
    }

    /// Recomputes [`FlightRecorder::retains`] after a builder changed
    /// what may be retained or perturbed.
    fn settle(mut self) -> Self {
        self.retains = self.capacity > 0 || self.window.is_some() || self.inject_at.is_some();
        self
    }

    /// The rolling fingerprint over everything seen so far.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Per-station sub-fingerprints (folded from the events attributed
    /// to each station: a decision's or queue's key, a handoff's
    /// station, an attempt's billed client, a final verdict's sender).
    pub fn station_fingerprints(&self) -> BTreeMap<u64, u64> {
        let dense = self.dense_fp.iter().enumerate();
        let dense = dense.filter_map(|(s, fp)| fp.map(|fp| (s as u64, fp)));
        dense.chain(self.sparse_fp.clone()).collect()
    }

    /// Records one canonical event attributed to `station`: the fold
    /// path unless this recorder retains (see the module docs).
    #[inline]
    fn push(&mut self, t: SimTime, station: u64, detail: Detail) {
        if self.retains {
            self.push_retained(t, station, detail);
        } else {
            self.fold(t, station, event_hash(t, &detail, station, false));
        }
    }

    /// The retention path: tags the injected event, and builds a
    /// [`RecordedEvent`] with its detail text only when the ring or
    /// window keeps this index, evicting the oldest retained event when
    /// a bounded ring is full.
    #[cold]
    #[inline(never)]
    fn push_retained(&mut self, t: SimTime, station: u64, detail: Detail) {
        let index = self.events;
        let injected = self.inject_at == Some(index);
        let retain = match self.window {
            Some((a, b)) => (a..b).contains(&index),
            None => self.capacity > 0,
        };
        if retain {
            let mut text = detail.text();
            if injected {
                text.push_str(" [injected]");
            }
            if self.window.is_none() && self.ring.len() >= self.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(RecordedEvent {
                index,
                t,
                label: detail.label().to_string(),
                detail: text,
                station: Some(station),
            });
        }
        self.fold(t, station, event_hash(t, &detail, station, injected));
    }

    /// Folds event hash `h` into the fingerprint and `station`'s
    /// sub-fingerprint, and takes a checkpoint every `interval` events.
    #[inline]
    fn fold(&mut self, t: SimTime, station: u64, h: u64) {
        self.fp = mix(self.fp, h);
        let slot = usize::try_from(station)
            .ok()
            .and_then(|i| self.dense_fp.get_mut(i));
        match slot {
            Some(Some(sfp)) => *sfp = mix(*sfp, h),
            _ => self.fold_new_station(station, h),
        }
        self.events += 1;
        self.until_checkpoint -= 1;
        if self.until_checkpoint == 0 {
            self.checkpoint(t);
        }
    }

    /// [`FlightRecorder::fold`] for a station the dense table does not
    /// hold yet: a first event below [`DENSE_STATIONS`] (growing the
    /// table to cover it), or any event of a larger id.
    #[cold]
    #[inline(never)]
    fn fold_new_station(&mut self, station: u64, h: u64) {
        let sfp = match usize::try_from(station) {
            Ok(i) if i < DENSE_STATIONS => {
                if i >= self.dense_fp.len() {
                    self.dense_fp.resize(i + 1, None);
                }
                self.dense_fp[i].get_or_insert(SEED)
            }
            _ => self.sparse_fp.entry(station).or_insert(SEED),
        };
        *sfp = mix(*sfp, h);
    }

    /// Records the checkpoint due after the event just folded at `t`.
    #[cold]
    #[inline(never)]
    fn checkpoint(&mut self, t: SimTime) {
        self.until_checkpoint = self.interval;
        self.checkpoints.push(Checkpoint {
            events: self.events,
            t,
            fp: self.fp,
        });
    }

    /// What the recorder holds so far, as the [`Recording`] a golden
    /// file parses into.
    pub fn recording(&self) -> Recording {
        Recording {
            interval: self.interval,
            cell: self.cell,
            total_events: self.events,
            fp: fp_hex(self.fp),
            dropped: self.events - self.ring.len() as u64,
            checkpoints: self.checkpoints.clone(),
            events: self.ring.iter().cloned().collect(),
        }
    }
}

impl Observer for FlightRecorder {
    #[inline]
    fn wants(&self, hook: Hook) -> bool {
        // Behaviour only: no `Dispatch` (see the module docs).
        matches!(
            hook,
            Hook::SchedDecision
                | Hook::QueueChange
                | Hook::Handoff
                | Hook::TxAttempt
                | Hook::MacEvent
        )
    }

    #[inline]
    fn on_record(&mut self, rec: EventRecord) {
        match rec {
            EventRecord::TxAttempt {
                t,
                node,
                client,
                bytes,
                rate_mbps,
                success,
                retry,
                airtime,
            } => {
                let detail = Detail::Attempt(Attempt {
                    node,
                    client,
                    bytes,
                    rate_tenths: rate_tenths(rate_mbps),
                    success,
                    retry,
                    airtime_ns: airtime.as_nanos(),
                });
                self.push(t, client, detail);
            }
            EventRecord::Mac { t, phase, node } => {
                self.push(t, node, Detail::Final { phase, node });
            }
            EventRecord::SchedDecision {
                t,
                client,
                bytes,
                queue_len,
            } => {
                let detail = Detail::Decide {
                    client,
                    bytes,
                    qlen: queue_len,
                };
                self.push(t, client, detail);
            }
            EventRecord::QueueChange { t, site, key, len } => {
                self.push(t, key, Detail::Queue { site, key, len });
            }
            _ => {}
        }
    }

    #[inline]
    fn on_handoff(&mut self, t: SimTime, station: u64, from: Option<u64>, to: Option<u64>) {
        self.push(t, station, Detail::Handoff { from, to });
    }
}

/// A flight recording: what [`FlightRecorder::recording`] returns,
/// what a golden file parses into, and what `airtime-cli replay`
/// loads. It owns the JSONL format both ways ([`Recording::to_jsonl`]
/// and [`Recording::parse`]).
#[derive(Clone, Debug, Default, PartialEq)]
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
    /// Serializes the recording as JSONL (header, checkpoints, then
    /// retained events): the format [`Recording::parse`] reads.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut header = Obj::new();
        header
            .str("schema", "airtime-recording")
            .u64("version", 1)
            .u64("interval", self.interval)
            .u64("events", self.total_events)
            .str("fp", &self.fp)
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
        for ev in &self.events {
            let mut o = Obj::new();
            o.str("kind", "ev")
                .u64("index", ev.index)
                .u64("t_ns", ev.t.as_nanos())
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

    /// Parses the JSONL format produced by [`Recording::to_jsonl`].
    pub fn parse(text: &str) -> Result<Recording, String> {
        let mut rec = Recording::default();
        let mut saw_header = false;
        for (no, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let f = Fields::parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
            let num = |k: &str| f.opt(k).and_then(Json::as_u64);
            let text = |k: &str| f.opt(k).and_then(Json::as_str).unwrap_or("");
            let need =
                |kind: &str, k: &str| num(k).ok_or(format!("line {}: {kind} missing {k}", no + 1));
            if !saw_header {
                if text("schema") != "airtime-recording" {
                    return Err("not an airtime-recording file".into());
                }
                rec.interval = num("interval").unwrap_or(DEFAULT_CHECKPOINT_INTERVAL);
                rec.total_events = num("events").unwrap_or(0);
                rec.fp = text("fp").to_string();
                rec.dropped = num("dropped").unwrap_or(0);
                rec.cell = num("cell");
                saw_header = true;
                continue;
            }
            match f.opt("kind").and_then(Json::as_str) {
                Some("cp") => rec.checkpoints.push(Checkpoint {
                    events: need("cp", "events")?,
                    t: SimTime::from_nanos(need("cp", "t_ns")?),
                    fp: parse_fp_hex(text("fp")).ok_or(format!("line {}: bad cp fp", no + 1))?,
                }),
                Some("ev") => rec.events.push(RecordedEvent {
                    index: need("ev", "index")?,
                    t: SimTime::from_nanos(need("ev", "t_ns")?),
                    label: text("label").to_string(),
                    detail: text("detail").to_string(),
                    station: num("station"),
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

    fn attempt(t: SimTime, node: u64, success: bool) -> EventRecord {
        EventRecord::TxAttempt {
            t,
            node,
            client: node.max(1),
            bytes: 1500,
            rate_mbps: 5.5,
            success,
            retry: 0,
            airtime: airtime_sim::SimDuration::from_micros(2_300),
        }
    }

    fn feed(rec: &mut FlightRecorder, n: u64) {
        for i in 0..n {
            rec.on_tx_attempt(attempt(SimTime::from_micros(i), i % 3, true));
        }
    }

    #[test]
    fn identical_streams_fingerprint_identically() {
        let mut a = FlightRecorder::new().with_interval(8);
        let mut b = FlightRecorder::new().with_interval(8);
        feed(&mut a, 100);
        feed(&mut b, 100);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.recording().checkpoints, b.recording().checkpoints);
        assert_eq!(a.recording().checkpoints.len(), 12);
        assert!(
            first_divergent_checkpoint(&a.recording().checkpoints, &b.recording().checkpoints)
                .is_none()
        );
    }

    #[test]
    fn order_matters() {
        let mut a = FlightRecorder::new();
        let mut b = FlightRecorder::new();
        let x = attempt(SimTime::from_micros(1), 1, true);
        let y = attempt(SimTime::from_micros(1), 2, false);
        a.on_tx_attempt(x.clone());
        a.on_tx_attempt(y.clone());
        b.on_tx_attempt(y);
        b.on_tx_attempt(x);
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
            first_divergent_checkpoint(
                &clean.recording().checkpoints,
                &dirty.recording().checkpoints
            ),
            Some(3)
        );
        assert_eq!(
            clean.recording().checkpoints[2],
            dirty.recording().checkpoints[2]
        );
    }

    #[test]
    fn windowed_rerun_pins_the_exact_event() {
        let mut clean = FlightRecorder::new().with_window(30, 40);
        let mut dirty = FlightRecorder::new()
            .with_window(30, 40)
            .with_injected_divergence(37);
        feed(&mut clean, 100);
        feed(&mut dirty, 100);
        let a: Vec<_> = clean.recording().events;
        let b: Vec<_> = dirty.recording().events;
        assert_eq!(a.len(), 10);
        let (ca, cb) = first_divergent_event(&a, &b).expect("streams diverge");
        let (ca, cb) = (ca.unwrap(), cb.unwrap());
        assert_eq!(ca.index, 37);
        assert_eq!(cb.index, 37);
        assert!(!ca.detail.contains("injected"));
        assert!(cb.detail.contains("injected"));
    }

    #[test]
    fn raw_seq_and_tick_dispatches_stay_out_of_the_fingerprint() {
        // The same behaviour with different engine bookkeeping around
        // it (extra timer pops, wake-up ticks, shifted raw seqs):
        // identical fingerprints. Dispatches never enter the stream.
        let mut busy = FlightRecorder::new();
        let mut plain = FlightRecorder::new();
        assert!(!busy.wants(Hook::Dispatch));
        for i in 0..50u64 {
            let t = SimTime::from_micros(i);
            busy.on_dispatch(t, 2 * i + 1, "tcp.rto");
            busy.on_dispatch(t, 2 * i + 2, "sched.tick");
            busy.on_tx_attempt(attempt(t, 1, true));
            plain.on_tx_attempt(attempt(t, 1, true));
        }
        assert_eq!(busy.recording().total_events, 50);
        assert_eq!(busy.fingerprint(), plain.fingerprint());
        assert_eq!(busy.recording().checkpoints, plain.recording().checkpoints);
    }

    #[test]
    fn every_behavioural_hook_moves_the_fingerprint() {
        let t = SimTime::from_micros(5);
        let base = attempt(t, 1, true);
        let with = |f: fn(&mut f64, &mut u64, &mut airtime_sim::SimDuration)| {
            let mut rec = base.clone();
            if let EventRecord::TxAttempt {
                rate_mbps,
                retry,
                airtime,
                ..
            } = &mut rec
            {
                f(rate_mbps, retry, airtime);
            }
            rec
        };
        let records = [
            attempt(t, 2, true),
            attempt(t, 1, false),
            with(|rate, _, _| *rate = 11.0),
            with(|_, retry, _| *retry = 1),
            with(|_, _, air| *air += airtime_sim::SimDuration::from_nanos(1)),
        ];
        let fp = |rec: EventRecord| {
            let mut r = FlightRecorder::new().with_capacity(0);
            r.on_tx_attempt(rec);
            r.fingerprint()
        };
        let reference = fp(base);
        for rec in records {
            assert_ne!(fp(rec.clone()), reference, "{rec:?}");
        }
        let finals: Vec<u64> = [MacPhase::TxEnd, MacPhase::Drop]
            .into_iter()
            .map(|phase| {
                let mut r = FlightRecorder::new();
                r.on_mac_event(EventRecord::Mac { t, phase, node: 2 });
                assert_eq!(r.station_fingerprints().len(), 1);
                r.fingerprint()
            })
            .collect();
        assert_ne!(finals[0], finals[1]);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut rec = FlightRecorder::new().with_capacity(16);
        feed(&mut rec, 100);
        assert_eq!(rec.recording().events.len(), 16);
        assert_eq!(rec.recording().dropped, 84);
        assert_eq!(rec.recording().events[0].index, 84);
        // Capacity zero: pure fingerprinter, everything dropped.
        let mut bare = FlightRecorder::new().with_capacity(0);
        feed(&mut bare, 10);
        assert_eq!(bare.recording().events.len(), 0);
        assert_eq!(bare.recording().dropped, 10);
        assert_eq!(bare.fingerprint(), {
            let mut full = FlightRecorder::new();
            feed(&mut full, 10);
            full.fingerprint()
        });
    }

    #[test]
    fn retained_and_bare_recorders_fingerprint_alike() {
        // Text is built only for retained events and is not hashed: a
        // ring-buffered recorder and a bare fingerprinter agree, and the
        // retained text renders every field.
        fn feed_mixed(rec: &mut FlightRecorder) {
            for (i, v) in [0, 7, 10, 99, 1500, u64::MAX].into_iter().enumerate() {
                let t = SimTime::from_micros(i as u64);
                rec.on_tx_attempt(EventRecord::TxAttempt {
                    t,
                    node: v,
                    client: i as u64,
                    bytes: v,
                    rate_mbps: [1.0, 2.0, 5.5, 11.0, 54.0, 0.0][i],
                    success: i % 2 == 0,
                    retry: v,
                    airtime: airtime_sim::SimDuration::from_nanos(v / 7),
                });
                rec.on_mac_event(EventRecord::Mac {
                    t,
                    phase: [MacPhase::TxEnd, MacPhase::Drop][i % 2],
                    node: v,
                });
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
        let full = full.recording();
        let details: Vec<&str> = full.events.iter().map(|e| e.detail.as_str()).collect();
        let (v, site) = (u64::MAX, QueueSite::Client);
        for text in [
            format!("client=5 bytes={v} qlen={}", v / 3),
            format!("site={site:?} key={v} len=5"),
            format!("from={v} to=-"),
            format!(
                "node={v} client=5 bytes={v} rate=0 fail retry={v} air_ns={}",
                v / 7
            ),
            "node=10 client=2 bytes=10 rate=5.5 ok retry=10 air_ns=1".to_string(),
            "node=99 client=3 bytes=99 rate=11 fail retry=99 air_ns=14".to_string(),
            "node=1500 client=4 bytes=1500 rate=54 ok retry=1500 air_ns=214".to_string(),
            format!("drop node={v}"),
            "tx_end node=10".to_string(),
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
        assert_eq!(rec.recording().total_events, 2);
        let evs = rec.recording().events;
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
        let text = rec.recording().to_jsonl();
        let parsed = Recording::parse(&text).unwrap();
        assert_eq!(parsed, rec.recording());
        assert_eq!(parsed.cell, Some(2));
        assert_eq!(parsed.interval, 8);
        assert_eq!(parsed.total_events, 21);
        assert_eq!(parsed.fp, fp_hex(rec.fingerprint()));
        // The rendered window shows the causal log.
        let log = parsed.render_window(Some(18), Some(21));
        assert!(log.contains("tx.attempt"));
        assert!(log.contains("sched.decide"));
        assert!(log.contains("client=1"));
    }

    #[test]
    fn every_recorder_mode_round_trips() {
        // A ring that evicted, a retained window, and a pure
        // fingerprinter (capacity 0) that keeps no events at all.
        for mut rec in [
            FlightRecorder::new().with_interval(4).with_capacity(5),
            FlightRecorder::new().with_interval(4).with_window(6, 11),
            FlightRecorder::new().with_interval(4).with_capacity(0),
        ] {
            feed(&mut rec, 17);
            let r = rec.recording();
            assert_eq!(Recording::parse(&r.to_jsonl()).unwrap(), r);
            assert_eq!(r.total_events, 17);
            assert_eq!(r.dropped + r.events.len() as u64, 17);
        }
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
            first_divergent_checkpoint(&a.recording().checkpoints, &b.recording().checkpoints),
            Some(3)
        );
    }
}
