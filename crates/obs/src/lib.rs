//! Observability for the airtime simulator: structured event tracing,
//! a metrics registry, and trace inspection.
//!
//! The simulator itself stays observation-free; `airtime-wlan`'s event
//! loop is generic over [`Observer`] and emits typed records at the
//! interesting points (MAC transmissions, collisions, backoff draws,
//! scheduler decisions, token-bucket updates, TCP progress, queue
//! changes). Three observers ship here:
//!
//! - [`NullObserver`] — the default; `active()` is `false`, every hook
//!   is a no-op, and monomorphisation removes the instrumentation from
//!   the hot path entirely. A run with a `NullObserver` is
//!   byte-identical to an unobserved run.
//! - [`JsonlObserver`] — streams one flat JSON object per record to a
//!   buffered file (the `--events` flag of `airtime-cli run`).
//! - [`MemoryObserver`] — collects records in a `Vec` for tests.
//!
//! Each record variant is declared once, as a row of the schema table
//! in [`event`]: its `"type"` tag, its [`Hook`] and named hook, and
//! each field's doc, type and JSON key. [`EventRecord`], its JSONL
//! codec ([`EventRecord::to_json_line`], [`parse_line`]), [`Hook`],
//! the named hooks and [`deliver`] are generated from it, so adding a
//! record touches that one row plus the sinks that read it.
//!
//! Every sink reads the stream in one method, [`Observer::on_record`],
//! with one `match` over the [`EventRecord`] variants it reads; the
//! named hooks the engine calls forward to it, and
//! [`EventRecord::hook`] is the one mapping from record to hook. An
//! observer names the hooks it reads in [`Observer::wants`], and the
//! engine builds only those records: emission sites gate on
//! `wants(hook)`, read once per run into a [`HookSet`]. The default
//! wants every hook while [`Observer::active`] is true.
//! [`SpanCollector`], [`FlightRecorder`], [`AirtimeLedger`] and
//! [`ChromeTraceObserver`] list exactly the hooks whose records they
//! read. [`TeeObserver`] wants the union of its sides and passes each
//! record, through [`deliver`], only to a side that wants it. An
//! `Option` of an observer is one too (`None` wants nothing), so a tee
//! of options composes optional sinks. [`replay`] feeds a JSONL trace
//! on disk to any observer the same way, which is how
//! `airtime-cli inspect` rebuilds spans, the ledger audit and the
//! summary.
//!
//! [`MetricsRegistry`] complements the event stream with named
//! counters, gauges, and histograms plus a periodic snapshot series,
//! exported as JSON (the `--metrics` flag). [`inspect`] turns a JSONL
//! trace back into the aggregate view `airtime-cli inspect` prints.

pub mod csv;
pub mod event;
pub mod inspect;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod observer;
pub mod prof;
pub mod recorder;
pub mod spans;

pub use event::{
    parse_line, AirtimeCategory, EventRecord, MacPhase, Malformed, QueueSite, RunPhase, TcpPhase,
    TokenCause,
};
pub use inspect::{summarize, InspectSummary, Summarizer};
pub use ledger::{AirtimeLedger, AuditReport, AUDIT_TOLERANCE_NS, CELL};
pub use metrics::{CounterId, GaugeId, HistId, MetricsRegistry};
pub use observer::{
    deliver, replay, Hook, HookSet, JsonlObserver, MemoryObserver, NullObserver, Observer,
    TeeObserver,
};
pub use prof::{render_perf_report, AllocStats, ChromeTrace, ChromeTraceObserver, CountingAlloc};
pub use recorder::{
    first_divergent_checkpoint, first_divergent_event, fp_hex, Checkpoint, FlightRecorder,
    RecordedEvent, Recording, DEFAULT_CHECKPOINT_INTERVAL,
};
pub use spans::{SpanCollector, StationDelays};
