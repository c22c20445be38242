//! Typed event records and their JSONL wire format.
//!
//! Each record serialises to one flat JSON object per line, carrying a
//! `"type"` discriminator and a `"t_ns"` timestamp. The format is
//! append-only: readers must ignore unknown fields (and [`parse_line`]
//! does), so new fields can be added without breaking old traces.
//! Every reader of a trace file streams it through one line reader
//! that reports the lines it could not parse ([`Malformed`]).

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use airtime_sim::{SimDuration, SimTime};

use crate::json::{self, Json, Obj};
use crate::observer::Hook;

/// Where in the MAC lifecycle a [`EventRecord::Mac`] record was emitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacPhase {
    /// A station won channel access and its transmission started.
    TxStart,
    /// A transmission (success or not) finished on the air.
    TxEnd,
    /// A frame was dropped after exhausting its retry budget.
    Drop,
}

impl MacPhase {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MacPhase::TxStart => "tx_start",
            MacPhase::TxEnd => "tx_end",
            MacPhase::Drop => "drop",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "tx_start" => MacPhase::TxStart,
            "tx_end" => MacPhase::TxEnd,
            "drop" => MacPhase::Drop,
            _ => return None,
        })
    }
}

/// Why a token balance changed ([`EventRecord::TokenUpdate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenCause {
    /// Periodic fill distributed the tick's airtime budget.
    Fill,
    /// A completed transmission debited its measured airtime.
    Debit,
}

impl TokenCause {
    fn as_str(self) -> &'static str {
        match self {
            TokenCause::Fill => "fill",
            TokenCause::Debit => "debit",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "fill" => TokenCause::Fill,
            "debit" => TokenCause::Debit,
            _ => return None,
        })
    }
}

/// What happened to a TCP flow ([`EventRecord::Tcp`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpPhase {
    /// An ACK advanced the window.
    Ack,
    /// The retransmission timer fired.
    Rto,
    /// The transfer completed.
    Done,
}

impl TcpPhase {
    fn as_str(self) -> &'static str {
        match self {
            TcpPhase::Ack => "ack",
            TcpPhase::Rto => "rto",
            TcpPhase::Done => "done",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ack" => TcpPhase::Ack,
            "rto" => TcpPhase::Rto,
            "done" => TcpPhase::Done,
            _ => return None,
        })
    }
}

/// Which queue a [`EventRecord::QueueChange`] refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueSite {
    /// The AP-side scheduler queue for one client.
    Ap,
    /// A client station's local send queue.
    Client,
}

impl QueueSite {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            QueueSite::Ap => "ap",
            QueueSite::Client => "client",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ap" => QueueSite::Ap,
            "client" => QueueSite::Client,
            _ => return None,
        })
    }
}

/// Which exclusive-timeline bucket an [`EventRecord::AirtimeSlice`]
/// bills its microseconds to.
///
/// The ledger attributes every instant of medium time to exactly one
/// `(station, category)` pair, so the categories tile wall time: the
/// busy categories (`DataTx`, `Ack`, `MacOverhead`) describe a winning
/// transmission, `Backoff` covers countdown time while stations
/// contend, `Collision` covers busy time wasted by overlapping
/// transmissions, and `Idle` is medium time nobody wanted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AirtimeCategory {
    /// MPDU payload bits on the air.
    DataTx,
    /// ACK frames.
    Ack,
    /// Fixed MAC overhead: DIFS, SIFS, preambles, RTS/CTS.
    MacOverhead,
    /// Contention countdown while at least one station has traffic.
    Backoff,
    /// Busy time destroyed by simultaneous transmissions.
    Collision,
    /// Nobody had traffic pending.
    Idle,
}

impl AirtimeCategory {
    /// All categories, in display order.
    pub const ALL: [AirtimeCategory; 6] = [
        AirtimeCategory::DataTx,
        AirtimeCategory::Ack,
        AirtimeCategory::MacOverhead,
        AirtimeCategory::Backoff,
        AirtimeCategory::Collision,
        AirtimeCategory::Idle,
    ];

    /// Stable wire/display name.
    pub fn as_str(self) -> &'static str {
        match self {
            AirtimeCategory::DataTx => "data_tx",
            AirtimeCategory::Ack => "ack",
            AirtimeCategory::MacOverhead => "mac_overhead",
            AirtimeCategory::Backoff => "backoff",
            AirtimeCategory::Collision => "collision",
            AirtimeCategory::Idle => "idle",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "data_tx" => AirtimeCategory::DataTx,
            "ack" => AirtimeCategory::Ack,
            "mac_overhead" => AirtimeCategory::MacOverhead,
            "backoff" => AirtimeCategory::Backoff,
            "collision" => AirtimeCategory::Collision,
            "idle" => AirtimeCategory::Idle,
            _ => return None,
        })
    }
}

/// Which run boundary an [`EventRecord::RunMark`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunPhase {
    /// The measurement warm-up elapsed; accounting resets here.
    Warmup,
    /// The run ended; no records follow.
    End,
}

impl RunPhase {
    fn as_str(self) -> &'static str {
        match self {
            RunPhase::Warmup => "warmup",
            RunPhase::End => "end",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "warmup" => RunPhase::Warmup,
            "end" => RunPhase::End,
            _ => return None,
        })
    }
}

/// One observability event, as emitted by the simulator and stored one
/// per line in the JSONL trace.
#[derive(Clone, Debug, PartialEq)]
pub enum EventRecord {
    /// Coarse MAC lifecycle marker.
    Mac {
        /// Simulation time.
        t: SimTime,
        /// Lifecycle phase.
        phase: MacPhase,
        /// Transmitting station (0 = AP).
        node: u64,
    },
    /// A transmission attempt resolved (success or failure).
    TxAttempt {
        /// Simulation time at the end of the attempt.
        t: SimTime,
        /// Transmitting station (0 = AP).
        node: u64,
        /// Client the attempt's occupancy is billed to (§2.2: AP
        /// transmissions bill the destination client).
        client: u64,
        /// MSDU payload size.
        bytes: u64,
        /// PHY data rate in Mbit/s.
        rate_mbps: f64,
        /// Whether the frame was ACKed.
        success: bool,
        /// How many retries this frame has consumed so far.
        retry: u64,
        /// Channel time occupied by the attempt.
        airtime: SimDuration,
    },
    /// Two or more stations transmitted in the same slot.
    Collision {
        /// Simulation time.
        t: SimTime,
        /// Number of stations involved.
        stations: u64,
        /// Channel time wasted by the longest colliding frame.
        airtime: SimDuration,
    },
    /// A station drew a fresh backoff counter.
    Backoff {
        /// Simulation time.
        t: SimTime,
        /// The station drawing.
        node: u64,
        /// Slots drawn, uniform in `[0, cw]`.
        slots: u64,
        /// The contention window the draw used.
        cw: u64,
    },
    /// The AP scheduler picked a packet to transmit next.
    SchedDecision {
        /// Simulation time.
        t: SimTime,
        /// Destination/source client of the chosen packet.
        client: u64,
        /// Its payload size.
        bytes: u64,
        /// Queue length for that client after the dequeue.
        queue_len: u64,
    },
    /// A TBR token balance changed.
    TokenUpdate {
        /// Simulation time.
        t: SimTime,
        /// The client whose bucket changed.
        client: u64,
        /// Balance after the change, in microseconds of airtime.
        tokens_us: f64,
        /// The client's current fill weight (normalised rate share).
        rate: f64,
        /// What caused the change.
        cause: TokenCause,
    },
    /// A TCP flow progressed.
    Tcp {
        /// Simulation time.
        t: SimTime,
        /// Flow id (client index).
        flow: u64,
        /// What happened.
        phase: TcpPhase,
        /// Congestion window, in segments.
        cwnd: f64,
        /// Bytes in flight after the event.
        flight: u64,
    },
    /// A simulated queue changed length.
    QueueChange {
        /// Simulation time.
        t: SimTime,
        /// Which queue.
        site: QueueSite,
        /// Queue key (client index).
        key: u64,
        /// Length after the change.
        len: u64,
    },
    /// One exclusive slice of the medium timeline.
    ///
    /// Slices are emitted when the DCF cycle containing them resolves,
    /// so `t` (the emission time) trails `start + dur`; consecutive
    /// slices tile wall time with no gaps or overlaps — the property
    /// the conservation auditor checks.
    AirtimeSlice {
        /// Emission time (end of the cycle the slice belongs to).
        t: SimTime,
        /// When the slice began.
        start: SimTime,
        /// How long it lasted.
        dur: SimDuration,
        /// Owning client (1-based node id), or 0 for the cell itself
        /// (idle and collision time belong to nobody).
        station: u64,
        /// What the time was spent on.
        category: AirtimeCategory,
    },
    /// One frame's complete MAC lifecycle, emitted when it leaves the
    /// system (delivered or dropped).
    FrameSpan {
        /// Completion time (delivery, or drop after retry exhaustion).
        t: SimTime,
        /// Client the frame belongs to.
        station: u64,
        /// MSDU payload size.
        bytes: u64,
        /// When the frame entered its send queue.
        enqueue: SimTime,
        /// When the scheduler released it to the MAC.
        release: SimTime,
        /// When its first transmission attempt ended.
        first_tx: SimTime,
        /// Transmission attempts consumed (1 = no retries).
        attempts: u64,
        /// Total channel occupancy across all attempts (DIFS + frame
        /// exchange each).
        airtime: SimDuration,
        /// Whether the frame was ultimately ACKed.
        delivered: bool,
    },
    /// A run boundary: warm-up elapsed, or the run ended.
    RunMark {
        /// Simulation time of the boundary.
        t: SimTime,
        /// Which boundary.
        phase: RunPhase,
    },
}

impl EventRecord {
    /// The record's `"type"` discriminator.
    pub fn kind(&self) -> &'static str {
        match self {
            EventRecord::Mac { .. } => "mac",
            EventRecord::TxAttempt { .. } => "tx_attempt",
            EventRecord::Collision { .. } => "collision",
            EventRecord::Backoff { .. } => "backoff",
            EventRecord::SchedDecision { .. } => "sched_decision",
            EventRecord::TokenUpdate { .. } => "token_update",
            EventRecord::Tcp { .. } => "tcp",
            EventRecord::QueueChange { .. } => "queue_change",
            EventRecord::AirtimeSlice { .. } => "airtime_slice",
            EventRecord::FrameSpan { .. } => "frame_span",
            EventRecord::RunMark { .. } => "run_mark",
        }
    }

    /// The [`Observer`](crate::Observer) hook that carries this
    /// record: the one mapping from record to hook.
    #[inline]
    pub fn hook(&self) -> Hook {
        match self {
            EventRecord::Mac { .. } => Hook::MacEvent,
            EventRecord::TxAttempt { .. } => Hook::TxAttempt,
            EventRecord::Collision { .. } => Hook::Collision,
            EventRecord::Backoff { .. } => Hook::Backoff,
            EventRecord::SchedDecision { .. } => Hook::SchedDecision,
            EventRecord::TokenUpdate { .. } => Hook::TokenUpdate,
            EventRecord::Tcp { .. } => Hook::TcpEvent,
            EventRecord::QueueChange { .. } => Hook::QueueChange,
            EventRecord::AirtimeSlice { .. } => Hook::AirtimeSlice,
            EventRecord::FrameSpan { .. } => Hook::FrameSpan,
            EventRecord::RunMark { .. } => Hook::RunMark,
        }
    }

    /// The record's timestamp.
    pub fn time(&self) -> SimTime {
        match *self {
            EventRecord::Mac { t, .. }
            | EventRecord::TxAttempt { t, .. }
            | EventRecord::Collision { t, .. }
            | EventRecord::Backoff { t, .. }
            | EventRecord::SchedDecision { t, .. }
            | EventRecord::TokenUpdate { t, .. }
            | EventRecord::Tcp { t, .. }
            | EventRecord::QueueChange { t, .. }
            | EventRecord::AirtimeSlice { t, .. }
            | EventRecord::FrameSpan { t, .. }
            | EventRecord::RunMark { t, .. } => t,
        }
    }

    /// Serialises the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = Obj::new();
        o.str("type", self.kind())
            .u64("t_ns", self.time().as_nanos());
        match self {
            EventRecord::Mac { phase, node, .. } => {
                o.str("phase", phase.as_str()).u64("node", *node);
            }
            EventRecord::TxAttempt {
                node,
                client,
                bytes,
                rate_mbps,
                success,
                retry,
                airtime,
                ..
            } => {
                o.u64("node", *node)
                    .u64("client", *client)
                    .u64("bytes", *bytes)
                    .f64("rate_mbps", *rate_mbps)
                    .bool("success", *success)
                    .u64("retry", *retry)
                    .u64("airtime_ns", airtime.as_nanos());
            }
            EventRecord::Collision {
                stations, airtime, ..
            } => {
                o.u64("stations", *stations)
                    .u64("airtime_ns", airtime.as_nanos());
            }
            EventRecord::Backoff {
                node, slots, cw, ..
            } => {
                o.u64("node", *node).u64("slots", *slots).u64("cw", *cw);
            }
            EventRecord::SchedDecision {
                client,
                bytes,
                queue_len,
                ..
            } => {
                o.u64("client", *client)
                    .u64("bytes", *bytes)
                    .u64("queue_len", *queue_len);
            }
            EventRecord::TokenUpdate {
                client,
                tokens_us,
                rate,
                cause,
                ..
            } => {
                o.u64("client", *client)
                    .f64("tokens_us", *tokens_us)
                    .f64("rate", *rate)
                    .str("cause", cause.as_str());
            }
            EventRecord::Tcp {
                flow,
                phase,
                cwnd,
                flight,
                ..
            } => {
                o.u64("flow", *flow)
                    .str("phase", phase.as_str())
                    .f64("cwnd", *cwnd)
                    .u64("flight", *flight);
            }
            EventRecord::QueueChange { site, key, len, .. } => {
                o.str("site", site.as_str())
                    .u64("key", *key)
                    .u64("len", *len);
            }
            EventRecord::AirtimeSlice {
                start,
                dur,
                station,
                category,
                ..
            } => {
                o.u64("start_ns", start.as_nanos())
                    .u64("dur_ns", dur.as_nanos())
                    .u64("station", *station)
                    .str("category", category.as_str());
            }
            EventRecord::FrameSpan {
                station,
                bytes,
                enqueue,
                release,
                first_tx,
                attempts,
                airtime,
                delivered,
                ..
            } => {
                o.u64("station", *station)
                    .u64("bytes", *bytes)
                    .u64("enqueue_ns", enqueue.as_nanos())
                    .u64("release_ns", release.as_nanos())
                    .u64("first_tx_ns", first_tx.as_nanos())
                    .u64("attempts", *attempts)
                    .u64("airtime_ns", airtime.as_nanos())
                    .bool("delivered", *delivered);
            }
            EventRecord::RunMark { phase, .. } => {
                o.str("phase", phase.as_str());
            }
        }
        o.finish()
    }
}

/// Field lookup over one flat JSON object: a trace or recording line.
pub(crate) struct Fields(Vec<(String, Json)>);

impl Fields {
    /// Decodes `line`, which must be a single object of scalar values.
    /// Lines come from outside the process, so nesting is refused
    /// rather than ignored.
    pub(crate) fn parse(line: &str) -> Result<Fields, String> {
        let Json::Obj(kvs) = json::parse(line)? else {
            return Err("expected a JSON object".to_string());
        };
        if kvs
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
        {
            return Err("nested values not supported".to_string());
        }
        Ok(Fields(kvs))
    }

    /// The value of field `k`, if present.
    pub(crate) fn opt(&self, k: &str) -> Option<&Json> {
        self.0.iter().find(|(key, _)| key == k).map(|(_, v)| v)
    }

    fn get(&self, k: &str) -> Result<&Json, String> {
        self.opt(k).ok_or_else(|| format!("missing field '{k}'"))
    }

    fn u64(&self, k: &str) -> Result<u64, String> {
        self.get(k)?
            .as_u64()
            .ok_or_else(|| format!("field '{k}' is not an integer"))
    }

    /// Like [`Fields::u64`], but a missing field yields `default`
    /// (fields added after a trace format shipped parse this way).
    fn u64_or(&self, k: &str, default: u64) -> Result<u64, String> {
        match self.opt(k) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("field '{k}' is not an integer")),
        }
    }

    fn f64(&self, k: &str) -> Result<f64, String> {
        self.get(k)?
            .as_f64()
            .ok_or_else(|| format!("field '{k}' is not a number"))
    }

    fn bool(&self, k: &str) -> Result<bool, String> {
        self.get(k)?
            .as_bool()
            .ok_or_else(|| format!("field '{k}' is not a bool"))
    }

    fn str(&self, k: &str) -> Result<&str, String> {
        self.get(k)?
            .as_str()
            .ok_or_else(|| format!("field '{k}' is not a string"))
    }
}

/// Parses one JSONL trace line back into an [`EventRecord`].
///
/// Unknown fields are ignored; unknown `"type"` values are an error so
/// callers can count and report them.
pub fn parse_line(line: &str) -> Result<EventRecord, String> {
    let f = Fields::parse(line)?;
    let t = SimTime::from_nanos(f.u64("t_ns")?);
    let rec = match f.str("type")? {
        "mac" => EventRecord::Mac {
            t,
            phase: MacPhase::parse(f.str("phase")?)
                .ok_or_else(|| format!("bad mac phase '{}'", f.str("phase").unwrap()))?,
            node: f.u64("node")?,
        },
        "tx_attempt" => EventRecord::TxAttempt {
            t,
            node: f.u64("node")?,
            // Traces written before the ledger landed have no explicit
            // bill-to client; the transmitter is the right default for
            // the uplink-only experiments those traces came from.
            client: f.u64_or("client", f.u64("node")?)?,
            bytes: f.u64("bytes")?,
            rate_mbps: f.f64("rate_mbps")?,
            success: f.bool("success")?,
            retry: f.u64("retry")?,
            airtime: SimDuration::from_nanos(f.u64("airtime_ns")?),
        },
        "collision" => EventRecord::Collision {
            t,
            stations: f.u64("stations")?,
            airtime: SimDuration::from_nanos(f.u64("airtime_ns")?),
        },
        "backoff" => EventRecord::Backoff {
            t,
            node: f.u64("node")?,
            slots: f.u64("slots")?,
            cw: f.u64("cw")?,
        },
        "sched_decision" => EventRecord::SchedDecision {
            t,
            client: f.u64("client")?,
            bytes: f.u64("bytes")?,
            queue_len: f.u64("queue_len")?,
        },
        "token_update" => EventRecord::TokenUpdate {
            t,
            client: f.u64("client")?,
            tokens_us: f.f64("tokens_us")?,
            rate: f.f64("rate")?,
            cause: TokenCause::parse(f.str("cause")?)
                .ok_or_else(|| format!("bad token cause '{}'", f.str("cause").unwrap()))?,
        },
        "tcp" => EventRecord::Tcp {
            t,
            flow: f.u64("flow")?,
            phase: TcpPhase::parse(f.str("phase")?)
                .ok_or_else(|| format!("bad tcp phase '{}'", f.str("phase").unwrap()))?,
            cwnd: f.f64("cwnd")?,
            flight: f.u64("flight")?,
        },
        "queue_change" => EventRecord::QueueChange {
            t,
            site: QueueSite::parse(f.str("site")?)
                .ok_or_else(|| format!("bad queue site '{}'", f.str("site").unwrap()))?,
            key: f.u64("key")?,
            len: f.u64("len")?,
        },
        "airtime_slice" => EventRecord::AirtimeSlice {
            t,
            start: SimTime::from_nanos(f.u64("start_ns")?),
            dur: SimDuration::from_nanos(f.u64("dur_ns")?),
            station: f.u64("station")?,
            category: AirtimeCategory::parse(f.str("category")?)
                .ok_or_else(|| format!("bad airtime category '{}'", f.str("category").unwrap()))?,
        },
        "frame_span" => EventRecord::FrameSpan {
            t,
            station: f.u64("station")?,
            bytes: f.u64("bytes")?,
            enqueue: SimTime::from_nanos(f.u64("enqueue_ns")?),
            release: SimTime::from_nanos(f.u64("release_ns")?),
            first_tx: SimTime::from_nanos(f.u64("first_tx_ns")?),
            attempts: f.u64("attempts")?,
            airtime: SimDuration::from_nanos(f.u64("airtime_ns")?),
            delivered: f.bool("delivered")?,
        },
        "run_mark" => EventRecord::RunMark {
            t,
            phase: RunPhase::parse(f.str("phase")?)
                .ok_or_else(|| format!("bad run phase '{}'", f.str("phase").unwrap()))?,
        },
        other => return Err(format!("unknown record type '{other}'")),
    };
    Ok(rec)
}

/// The lines of a trace that did not parse.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Malformed {
    /// How many lines failed.
    pub count: u64,
    /// The first failure: its 1-based line number and the parse error.
    pub first: Option<(u64, String)>,
}

/// Parses every non-blank line of a JSONL trace with [`parse_line`],
/// handing the records to `sink` in order and tallying the lines that
/// fail.
pub(crate) fn parse_lines<I>(lines: I, mut sink: impl FnMut(EventRecord)) -> Malformed
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut bad = Malformed::default();
    for (i, line) in lines.into_iter().enumerate() {
        let line = line.as_ref().trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(rec) => sink(rec),
            Err(e) => {
                bad.count += 1;
                bad.first.get_or_insert((i as u64 + 1, e));
            }
        }
    }
    bad
}

/// [`parse_lines`] over a trace on disk. Lines stream from a buffered
/// reader one at a time, so a trace of any size is read in constant
/// memory. An I/O error mid-file stops the scan and is returned.
pub(crate) fn read_trace(path: &Path, sink: impl FnMut(EventRecord)) -> io::Result<Malformed> {
    let mut io_err = None;
    let lines = BufReader::new(File::open(path)?)
        .lines()
        .map_while(|line| line.map_err(|e| io_err = Some(e)).ok());
    let bad = parse_lines(lines, sink);
    io_err.map_or(Ok(bad), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<EventRecord> {
        vec![
            EventRecord::Mac {
                t: SimTime::from_micros(10),
                phase: MacPhase::TxStart,
                node: 1,
            },
            EventRecord::TxAttempt {
                t: SimTime::from_millis(2),
                node: 2,
                client: 2,
                bytes: 1500,
                rate_mbps: 11.0,
                success: true,
                retry: 1,
                airtime: SimDuration::from_micros(1617),
            },
            EventRecord::Collision {
                t: SimTime::from_secs(1),
                stations: 2,
                airtime: SimDuration::from_micros(12221),
            },
            EventRecord::Backoff {
                t: SimTime::from_nanos(123_456_789),
                node: 3,
                slots: 17,
                cw: 31,
            },
            EventRecord::SchedDecision {
                t: SimTime::from_micros(999),
                client: 0,
                bytes: 576,
                queue_len: 4,
            },
            EventRecord::TokenUpdate {
                t: SimTime::from_millis(50),
                client: 1,
                tokens_us: -125.5,
                rate: 0.5,
                cause: TokenCause::Debit,
            },
            EventRecord::Tcp {
                t: SimTime::from_secs(3),
                flow: 1,
                phase: TcpPhase::Rto,
                cwnd: 1.0,
                flight: 0,
            },
            EventRecord::QueueChange {
                t: SimTime::from_micros(42),
                site: QueueSite::Ap,
                key: 2,
                len: 7,
            },
            EventRecord::AirtimeSlice {
                t: SimTime::from_millis(7),
                start: SimTime::from_micros(6200),
                dur: SimDuration::from_micros(800),
                station: 0,
                category: AirtimeCategory::Collision,
            },
            EventRecord::FrameSpan {
                t: SimTime::from_millis(9),
                station: 1,
                bytes: 1500,
                enqueue: SimTime::from_millis(4),
                release: SimTime::from_micros(4100),
                first_tx: SimTime::from_micros(5900),
                attempts: 3,
                airtime: SimDuration::from_micros(4851),
                delivered: true,
            },
            EventRecord::RunMark {
                t: SimTime::from_secs(5),
                phase: RunPhase::Warmup,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for rec in samples() {
            let line = rec.to_json_line();
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(back, rec, "{line}");
        }
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let rec = EventRecord::Backoff {
            t: SimTime::from_micros(5),
            node: 1,
            slots: 3,
            cw: 15,
        };
        let line = rec.to_json_line();
        let extended = format!(
            "{},\"future_field\":\"whatever\"}}",
            &line[..line.len() - 1]
        );
        assert_eq!(parse_line(&extended).unwrap(), rec);
    }

    #[test]
    fn tx_attempt_without_client_defaults_to_node() {
        // Pre-ledger traces lack the "client" field.
        let line = r#"{"type":"tx_attempt","t_ns":1000,"node":3,"bytes":100,"rate_mbps":11,"success":true,"retry":0,"airtime_ns":2000}"#;
        match parse_line(line).unwrap() {
            EventRecord::TxAttempt { node, client, .. } => {
                assert_eq!(node, 3);
                assert_eq!(client, 3);
            }
            other => panic!("wrong record {other:?}"),
        }
    }

    #[test]
    fn rejects_nesting_and_garbage() {
        for line in [
            r#"{"type":"backoff","t_ns":0,"node":1,"slots":3,"cw":[15]}"#,
            r#"{"type":"backoff","t_ns":0,"node":1,"slots":3,"cw":{"v":15}}"#,
        ] {
            assert_eq!(
                parse_line(line).unwrap_err(),
                "nested values not supported",
                "{line}"
            );
        }
        for line in [r#"{"a": 1} extra"#, r#"{"a" 1}"#, "[1]", "\"backoff\"", ""] {
            assert!(parse_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn parse_lines_counts_bad_lines_and_keeps_the_first() {
        let good = samples()[3].to_json_line();
        let lines = [
            good.as_str(),
            "",
            "garbage",
            good.as_str(),
            "{\"type\":\"x\"}",
        ];
        let mut seen = Vec::new();
        let bad = parse_lines(lines, |rec| seen.push(rec));
        assert_eq!(seen, vec![samples()[3].clone(), samples()[3].clone()]);
        assert_eq!(bad.count, 2);
        let (line, err) = bad.first.unwrap();
        assert_eq!(line, 3);
        assert!(err.starts_with("bad number"), "{err}");
    }

    #[test]
    fn unknown_type_is_an_error() {
        assert!(parse_line(r#"{"type":"warp_drive","t_ns":0}"#).is_err());
    }

    #[test]
    fn missing_field_is_an_error() {
        let err = parse_line(r#"{"type":"backoff","t_ns":0,"node":1,"slots":3}"#).unwrap_err();
        assert!(err.contains("cw"), "{err}");
    }

    #[test]
    fn hook_names_each_variant_in_hook_order() {
        let hooks: Vec<Hook> = samples().iter().map(EventRecord::hook).collect();
        // Every record hook once, in `Hook::ALL` order; the last two
        // hooks (dispatch, handoff) carry no record.
        assert_eq!(hooks, Hook::ALL[..11]);
        assert_eq!(Hook::ALL[11..], [Hook::Dispatch, Hook::Handoff]);
    }

    /// Logs which named hook each record arrived on.
    #[derive(Default)]
    struct HookLog(Vec<(Hook, EventRecord)>);

    macro_rules! log_hooks {
        ($($hook:ident => $name:ident),*) => {$(
            fn $hook(&mut self, rec: EventRecord) {
                self.0.push((Hook::$name, rec));
            }
        )*};
    }

    impl crate::Observer for HookLog {
        log_hooks!(
            on_mac_event => MacEvent,
            on_tx_attempt => TxAttempt,
            on_collision => Collision,
            on_backoff => Backoff,
            on_sched_decision => SchedDecision,
            on_token_update => TokenUpdate,
            on_tcp_event => TcpEvent,
            on_queue_change => QueueChange,
            on_airtime_slice => AirtimeSlice,
            on_frame_span => FrameSpan,
            on_run_mark => RunMark
        );
    }

    #[test]
    fn deliver_reaches_the_named_hook_of_each_variant() {
        let mut log = HookLog::default();
        for rec in samples() {
            crate::deliver(&mut log, rec);
        }
        let want: Vec<(Hook, EventRecord)> = samples().into_iter().map(|r| (r.hook(), r)).collect();
        assert_eq!(log.0, want);
    }

    #[test]
    fn kind_and_time_accessors() {
        for rec in samples() {
            assert!(rec.to_json_line().contains(rec.kind()));
            assert!(rec.time().as_nanos() > 0);
        }
    }
}
