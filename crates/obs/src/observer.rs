//! The [`Observer`] trait, its record router, and its stock
//! implementations.
//!
//! The simulator is generic over `O: Observer`, so with
//! [`NullObserver`] every hook monomorphises to an empty inline body
//! guarded by `active() == false` — the instrumented and plain builds
//! run the same machine code on the hot path. An active observer names
//! the hooks it reads in [`Observer::wants`]; the engine builds no
//! record for any other hook. A sink reads records in one method,
//! [`Observer::on_record`]; forwarders ([`TeeObserver`], `Option`) and
//! trace replays ([`replay`]) pass records on through [`deliver`].
//! The named record hooks, [`Hook`] and [`deliver`] are generated here
//! from the record table in [`event`](crate::event), which declares
//! each record's tag, hook and fields once.
//! [`JsonlObserver`] streams records to a buffered file;
//! [`MemoryObserver`] collects them in a `Vec` for tests and
//! in-process analysis.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use airtime_sim::SimTime;

use crate::event::{for_each_record, read_trace, EventRecord, Malformed};

/// The named record hooks, one per `for_each_record!` row: each
/// carries one [`EventRecord`] variant and forwards it to
/// [`Observer::on_record`].
macro_rules! record_hooks {
    ($($(#[$doc:meta])* $V:ident($tag:literal) => $H:ident, $hook:ident { $($fields:tt)* })*) => {$(
        #[doc = concat!("Carries an [`EventRecord::", stringify!($V), "`] record.")]
        #[inline(always)]
        fn $hook(&mut self, rec: EventRecord) {
            self.on_record(rec);
        }
    )*};
}

/// [`Hook`], one variant per `for_each_record!` row and then the two
/// hooks that carry no record, and [`deliver`].
macro_rules! hooks_and_router {
    ($($(#[$doc:meta])* $V:ident($tag:literal) => $H:ident, $hook:ident { $($fields:tt)* })*) => {
        /// Names one [`Observer`] hook, for [`Observer::wants`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Hook {
            $(#[doc = concat!("[`Observer::", stringify!($hook), "`].")] $H,)*
            /// [`Observer::on_dispatch`].
            Dispatch,
            /// [`Observer::on_handoff`].
            Handoff,
        }

        impl Hook {
            /// Every hook, in declaration order.
            pub const ALL: [Hook; 2 + [$(Hook::$H),*].len()] =
                [$(Hook::$H,)* Hook::Dispatch, Hook::Handoff];
        }

        /// Hands `rec` to the named hook of its variant
        /// ([`EventRecord::hook`]): the way a forwarder or a trace replay
        /// passes a record on, so that an observer overriding the named hooks
        /// sees it as it would from the engine.
        ///
        /// An optimised build always inlines it, like the named hooks and the
        /// forwarders' `on_record`: at an emission site the variant is known,
        /// so every match on it folds away and the record reaches its sink's
        /// arm directly. An unoptimised build folds nothing, and would copy
        /// every arm of every nested forwarder into each emission site.
        #[cfg_attr(debug_assertions, inline)]
        #[cfg_attr(not(debug_assertions), inline(always))]
        pub fn deliver<O: Observer + ?Sized>(obs: &mut O, rec: EventRecord) {
            match rec {
                $(EventRecord::$V { .. } => obs.$hook(rec),)*
            }
        }
    };
}

/// Receives structured events from the simulator.
///
/// A sink implements one method, [`Observer::on_record`], with one
/// `match` over the [`EventRecord`] variants it reads, and names those
/// records' hooks in [`Observer::wants`]. Each named record hook
/// (`on_mac_event`, `on_tx_attempt`, ...) is a provided one-line
/// forwarder to `on_record`; sinks override none of them.
///
/// Callers enter through a named hook (the engine's emission sites) or
/// through [`deliver`], which calls the named hook of a record's
/// variant, never through `on_record` on a generic `O`: a wrapper that
/// overrides the named hooks, as a hook timer does, would be skipped.
/// Emission sites ask [`Observer::wants`] for the hook before doing
/// *any* work to build its record, which keeps record construction off
/// the hot path for every hook no attached observer reads:
///
/// ```ignore
/// if obs.wants(Hook::Collision) {
///     obs.on_collision(EventRecord::Collision { .. });
/// }
/// ```
///
/// The contract: an observer must list in [`Observer::wants`] every
/// hook whose records it reads, or it may never be handed them. The
/// default `wants` answers [`Observer::active`] for every hook, so an
/// observer that does not override it receives every record while
/// active.
pub trait Observer {
    /// Whether this observer wants events at all. Emission sites test
    /// it before [`Observer::wants`]; `NullObserver` returns `false` and
    /// the whole branch folds away under monomorphisation.
    fn active(&self) -> bool {
        true
    }

    /// Whether this observer reads `hook`. The engine asks once per
    /// hook when a run starts and skips building the records nobody
    /// reads; a forwarding observer also uses it to pass a record only
    /// to the sides that want it. Override it to name exactly the
    /// hooks whose records the observer reads.
    fn wants(&self, _hook: Hook) -> bool {
        self.active()
    }

    /// Receives one record, whichever named hook carried it. The
    /// default ignores it.
    #[inline]
    fn on_record(&mut self, _rec: EventRecord) {}

    for_each_record!(record_hooks);

    /// The event loop dispatched the event stamped `(t, seq)` whose
    /// handler is named `label`: engine bookkeeping (which timers pop,
    /// in which queue order), for profilers and debugging tools. The
    /// flight recorder does not want it; its fingerprint covers
    /// behaviour only. Deliberately *not* an [`EventRecord`] — no
    /// allocation, no wire format, just three words — so the emission
    /// site stays cheap.
    fn on_dispatch(&mut self, _t: SimTime, _seq: u64, _label: &'static str) {}

    /// A station changed cell association: `from`/`to` are cell ids
    /// (`None` = unassociated). Emitted by the topology engine on
    /// every handoff or drop so per-cell fingerprints capture roaming
    /// causality.
    fn on_handoff(&mut self, _t: SimTime, _station: u64, _from: Option<u64>, _to: Option<u64>) {}

    /// Flushes any buffered output. Called once when the run ends.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

for_each_record!(hooks_and_router);

/// The set of hooks an observer wants, read once so that each emission
/// site tests one bit instead of calling [`Observer::wants`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HookSet(u16);

impl HookSet {
    /// The hooks `obs` wants.
    pub fn of<O: Observer + ?Sized>(obs: &O) -> Self {
        let mut bits = 0;
        for h in Hook::ALL {
            if obs.wants(h) {
                bits |= 1 << h as u16;
            }
        }
        HookSet(bits)
    }

    /// Whether `hook` is in the set.
    #[inline]
    pub fn has(self, hook: Hook) -> bool {
        self.0 & (1 << hook as u16) != 0
    }
}

/// Replays a JSONL trace on disk into `obs`, in file order, handing it
/// the records of the hooks it wants as a live run would. Returns the
/// lines that did not parse (they are skipped); an I/O error stops the
/// replay and is returned.
pub fn replay<O: Observer + ?Sized>(path: &Path, obs: &mut O) -> io::Result<Malformed> {
    let wanted = HookSet::of(obs);
    read_trace(path, |rec| {
        if wanted.has(rec.hook()) {
            deliver(obs, rec);
        }
    })
}

/// The do-nothing observer: `active()` is `false`, so it wants no hook,
/// and every hook is an inlined no-op — instrumentation costs nothing
/// when unused.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn active(&self) -> bool {
        false
    }
}

/// Streams every record to a JSONL file through a large buffered
/// writer.
#[derive(Debug)]
pub struct JsonlObserver<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl JsonlObserver<BufWriter<File>> {
    /// Creates (truncating) `path` and returns an observer writing to
    /// it through a 256 KiB buffer.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(BufWriter::with_capacity(256 * 1024, file)))
    }
}

impl<W: Write> JsonlObserver<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlObserver { out, error: None }
    }

    /// Consumes the observer and returns the inner writer (flushed).
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(self.out)
    }
}

impl<W: Write> Observer for JsonlObserver<W> {
    fn on_record(&mut self, rec: EventRecord) {
        if self.error.is_some() {
            return;
        }
        let mut line = rec.to_json_line();
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            // Remember the first error; finish() reports it. Dropping
            // subsequent records beats aborting a long simulation.
            self.error = Some(e);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()?;
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Collects every record in memory, preserving emission order.
#[derive(Debug, Default)]
pub struct MemoryObserver {
    /// The records, in emission order.
    pub events: Vec<EventRecord>,
}

impl MemoryObserver {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for MemoryObserver {
    fn on_record(&mut self, rec: EventRecord) {
        self.events.push(rec);
    }
}

/// Fans every event out to two observers (for `run --events --ledger`,
/// where the trace file and the in-process ledger both want the
/// stream). Active when either side is, and wants the union of the
/// hooks its sides want; each record goes only to a side that wants
/// it.
#[derive(Debug, Default)]
pub struct TeeObserver<A, B> {
    /// First receiver.
    pub a: A,
    /// Second receiver.
    pub b: B,
}

impl<A: Observer, B: Observer> TeeObserver<A, B> {
    /// Pairs two observers.
    pub fn new(a: A, b: B) -> Self {
        TeeObserver { a, b }
    }
}

impl<A: Observer, B: Observer> Observer for TeeObserver<A, B> {
    fn active(&self) -> bool {
        self.a.active() || self.b.active()
    }

    fn wants(&self, hook: Hook) -> bool {
        self.a.wants(hook) || self.b.wants(hook)
    }

    /// Passes the record to each side that wants its hook, cloning it
    /// only when both do.
    #[inline(always)]
    fn on_record(&mut self, rec: EventRecord) {
        let hook = rec.hook();
        match (self.a.wants(hook), self.b.wants(hook)) {
            (true, true) => {
                deliver(&mut self.a, rec.clone());
                deliver(&mut self.b, rec);
            }
            (true, false) => deliver(&mut self.a, rec),
            (false, true) => deliver(&mut self.b, rec),
            (false, false) => {}
        }
    }

    fn on_dispatch(&mut self, t: SimTime, seq: u64, label: &'static str) {
        if self.a.wants(Hook::Dispatch) {
            self.a.on_dispatch(t, seq, label);
        }
        if self.b.wants(Hook::Dispatch) {
            self.b.on_dispatch(t, seq, label);
        }
    }

    fn on_handoff(&mut self, t: SimTime, station: u64, from: Option<u64>, to: Option<u64>) {
        if self.a.wants(Hook::Handoff) {
            self.a.on_handoff(t, station, from, to);
        }
        if self.b.wants(Hook::Handoff) {
            self.b.on_handoff(t, station, from, to);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        let ra = self.a.finish();
        let rb = self.b.finish();
        ra.and(rb)
    }
}

/// An absent observer is inactive and wants nothing; a present one
/// behaves as itself. A sink that a flag may or may not ask for is an
/// `Option`, and a [`TeeObserver`] of such options composes them.
impl<O: Observer> Observer for Option<O> {
    fn active(&self) -> bool {
        self.as_ref().is_some_and(O::active)
    }

    fn wants(&self, hook: Hook) -> bool {
        self.as_ref().is_some_and(|o| o.wants(hook))
    }

    #[inline(always)]
    fn on_record(&mut self, rec: EventRecord) {
        if let Some(o) = self {
            deliver(o, rec);
        }
    }

    fn on_dispatch(&mut self, t: SimTime, seq: u64, label: &'static str) {
        if let Some(o) = self {
            o.on_dispatch(t, seq, label);
        }
    }

    fn on_handoff(&mut self, t: SimTime, station: u64, from: Option<u64>, to: Option<u64>) {
        if let Some(o) = self {
            o.on_handoff(t, station, from, to);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        self.as_mut().map_or(Ok(()), O::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{parse_line, MacPhase};
    use airtime_sim::SimTime;

    fn sample(i: u64) -> EventRecord {
        EventRecord::Mac {
            t: SimTime::from_micros(i),
            phase: MacPhase::TxStart,
            node: i,
        }
    }

    #[test]
    fn null_observer_is_inactive() {
        let mut o = NullObserver;
        assert!(!o.active());
        o.on_collision(sample(1));
        assert!(o.finish().is_ok());
    }

    #[test]
    fn jsonl_observer_streams_lines() {
        let mut o = JsonlObserver::new(Vec::new());
        assert!(o.active());
        o.on_mac_event(sample(1));
        o.on_tx_attempt(sample(2));
        let buf = o.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(parse_line(lines[0]).unwrap(), sample(1));
        assert_eq!(parse_line(lines[1]).unwrap(), sample(2));
    }

    #[test]
    fn memory_observer_preserves_order() {
        let mut o = MemoryObserver::new();
        for i in 0..5 {
            o.on_backoff(sample(i));
        }
        assert_eq!(o.events.len(), 5);
        assert_eq!(o.events[3], sample(3));
    }

    #[test]
    fn tee_observer_feeds_both_sides() {
        let mut o = TeeObserver::new(MemoryObserver::new(), MemoryObserver::new());
        assert!(o.active());
        o.on_mac_event(sample(1));
        o.on_airtime_slice(sample(2));
        assert_eq!(o.a.events, o.b.events);
        assert_eq!(o.a.events.len(), 2);
        assert!(o.finish().is_ok());
        let inactive = TeeObserver::new(NullObserver, NullObserver);
        assert!(!inactive.active());
    }

    #[test]
    fn null_observer_wants_nothing() {
        for h in Hook::ALL {
            assert!(!NullObserver.wants(h), "{h:?}");
        }
        assert_eq!(HookSet::of(&NullObserver), HookSet::default());
    }

    #[test]
    fn tee_wants_the_union_of_its_sides() {
        use crate::ledger::AirtimeLedger;
        use crate::spans::SpanCollector;
        let tee = TeeObserver::new(SpanCollector::new(), AirtimeLedger::new());
        for h in Hook::ALL {
            assert_eq!(tee.wants(h), tee.a.wants(h) || tee.b.wants(h), "{h:?}");
        }
        let set = HookSet::of(&tee);
        assert!(set.has(Hook::FrameSpan) && set.has(Hook::TxAttempt));
        assert!(!set.has(Hook::Backoff) && !set.has(Hook::Dispatch));
        // An observer that keeps the default wants everything.
        let full = TeeObserver::new(SpanCollector::new(), MemoryObserver::new());
        assert!(Hook::ALL.iter().all(|&h| full.wants(h)));
    }

    /// Counts every record it is handed, and wants only run marks.
    #[derive(Default)]
    struct RunMarksOnly {
        calls: usize,
    }

    impl Observer for RunMarksOnly {
        fn wants(&self, hook: Hook) -> bool {
            hook == Hook::RunMark
        }

        fn on_record(&mut self, _rec: EventRecord) {
            self.calls += 1;
        }
    }

    #[test]
    fn tee_forwards_a_record_only_to_a_side_that_wants_it() {
        let mut o = TeeObserver::new(RunMarksOnly::default(), MemoryObserver::new());
        o.on_mac_event(sample(1));
        o.on_run_mark(EventRecord::RunMark {
            t: SimTime::ZERO,
            phase: crate::event::RunPhase::Warmup,
        });
        assert_eq!(o.a.calls, 1);
        assert_eq!(o.b.events.len(), 2);
    }

    #[test]
    fn an_optional_observer_is_itself_or_nothing() {
        let mut none: Option<MemoryObserver> = None;
        assert!(!none.active());
        assert!(Hook::ALL.iter().all(|&h| !none.wants(h)));
        none.on_mac_event(sample(1));
        assert!(none.finish().is_ok());
        let mut some = Some(RunMarksOnly::default());
        assert!(some.active());
        assert!(some.wants(Hook::RunMark) && !some.wants(Hook::MacEvent));
        some.on_mac_event(sample(1));
        assert_eq!(some.as_ref().map(|o| o.calls), Some(1));
        let mut failing = Some(JsonlObserver::new(FailingWriter));
        failing.on_mac_event(sample(1));
        assert!(failing.finish().is_err());
    }

    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_surface_in_finish() {
        let mut o = JsonlObserver::new(FailingWriter);
        o.on_mac_event(sample(1));
        o.on_mac_event(sample(2));
        assert!(o.finish().is_err());
        // The error is reported once, then cleared.
        assert!(o.finish().is_ok());
    }
}
