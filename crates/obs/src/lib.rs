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
//! An observer names the hooks it reads in [`Observer::wants`], and the
//! engine builds only those records: emission sites gate on
//! `wants(hook)`, read once per run into a [`HookSet`]. An observer that
//! overrides a hook must list it in `wants`; the default wants every
//! hook while [`Observer::active`] is true. [`SpanCollector`],
//! [`FlightRecorder`], [`AirtimeLedger`] and [`ChromeTraceObserver`]
//! list exactly the hooks they override, and [`TeeObserver`] wants the
//! union of its sides. An `Option` of an observer is one too (`None`
//! wants nothing), so a tee of options composes optional sinks.
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
pub use inspect::{summarize, summarize_file, InspectSummary};
pub use ledger::{AirtimeLedger, AuditReport, AUDIT_TOLERANCE_NS, CELL};
pub use metrics::{CounterId, GaugeId, HistId, MetricsRegistry};
pub use observer::{
    Hook, HookSet, JsonlObserver, MemoryObserver, NullObserver, Observer, TeeObserver,
};
pub use prof::{render_perf_report, AllocStats, ChromeTrace, ChromeTraceObserver, CountingAlloc};
pub use recorder::{
    first_divergent_checkpoint, first_divergent_event, fp_hex, Checkpoint, FlightRecorder,
    RecordedEvent, Recording, DEFAULT_CHECKPOINT_INTERVAL,
};
pub use spans::{SpanCollector, StationDelays};
