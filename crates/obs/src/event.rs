//! Typed event records and their JSONL wire format.
//!
//! Each record serialises to one flat JSON object per line, carrying a
//! `"type"` discriminator and a `"t_ns"` timestamp. The format is
//! append-only: readers must ignore unknown fields (and [`parse_line`]
//! does), so new fields can be added without breaking old traces.
//! Every reader of a trace file streams it through one line reader
//! that reports the lines it could not parse ([`Malformed`]).
//!
//! Each record variant is declared once, as one row of the
//! `for_each_record!` table below: its `"type"` tag, its [`Hook`] and
//! named [`Observer`](crate::Observer) hook, and each field's doc,
//! type and JSON key. From that table this module generates
//! [`EventRecord`], its `kind`, `hook`, `time` and `to_json_line`, and
//! [`parse_line`]; [`observer`](crate::observer) generates [`Hook`],
//! the named hooks and [`deliver`](crate::deliver). A new variant is
//! one new row, plus the sinks that read it. A field's codec follows
//! from its type: integers, floats and bools as themselves, `SimTime`
//! and `SimDuration` as integer nanoseconds (keys ending in `_ns`), and
//! the string enums below by name. `or <field>` makes a field optional
//! on the wire, defaulting to an earlier field of the same row.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use airtime_sim::{SimDuration, SimTime};

use crate::json::{self, Json, Obj};
use crate::observer::Hook;

/// Declares a fieldless enum that travels on the wire by name: each
/// variant gives its name, and a trace line with any other name fails
/// to parse with "bad `$noun` '...'".
macro_rules! str_enum {
    ($(#[$doc:meta])* $E:ident($noun:literal) {
        $($(#[$vdoc:meta])* $V:ident = $name:literal,)*
    }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $E {
            $($(#[$vdoc])* $V,)*
        }

        impl $E {
            /// Every value, in declaration order.
            pub const ALL: [$E; [$($name),*].len()] = [$($E::$V),*];

            /// Stable wire/display name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($E::$V => $name,)*
                }
            }

            fn parse(s: &str) -> Option<Self> {
                Some(match s {
                    $($name => $E::$V,)*
                    _ => return None,
                })
            }

            /// Decodes field `k` of a trace line.
            fn get(f: &Fields, k: &str) -> Result<Self, String> {
                let s = f.str(k)?;
                Self::parse(s).ok_or_else(|| format!("bad {} '{s}'", $noun))
            }
        }
    };
}

str_enum! {
    /// Where in the MAC lifecycle a [`EventRecord::Mac`] record was emitted.
    MacPhase("mac phase") {
        /// A station won channel access and its transmission started.
        TxStart = "tx_start",
        /// A transmission (success or not) finished on the air.
        TxEnd = "tx_end",
        /// A frame was dropped after exhausting its retry budget.
        Drop = "drop",
    }
}

str_enum! {
    /// Why a token balance changed ([`EventRecord::TokenUpdate`]).
    TokenCause("token cause") {
        /// Periodic fill distributed the tick's airtime budget.
        Fill = "fill",
        /// A completed transmission debited its measured airtime.
        Debit = "debit",
    }
}

str_enum! {
    /// What happened to a TCP flow ([`EventRecord::Tcp`]).
    TcpPhase("tcp phase") {
        /// An ACK advanced the window.
        Ack = "ack",
        /// The retransmission timer fired.
        Rto = "rto",
        /// The transfer completed.
        Done = "done",
    }
}

str_enum! {
    /// Which queue a [`EventRecord::QueueChange`] refers to.
    QueueSite("queue site") {
        /// The AP-side scheduler queue for one client.
        Ap = "ap",
        /// A client station's local send queue.
        Client = "client",
    }
}

str_enum! {
    /// Which exclusive-timeline bucket an [`EventRecord::AirtimeSlice`]
    /// bills its microseconds to.
    ///
    /// The ledger attributes every instant of medium time to exactly one
    /// `(station, category)` pair, so the categories tile wall time: the
    /// busy categories (`DataTx`, `Ack`, `MacOverhead`) describe a winning
    /// transmission, `Backoff` covers countdown time while stations
    /// contend, `Collision` covers busy time wasted by overlapping
    /// transmissions, and `Idle` is medium time nobody wanted.
    /// [`AirtimeCategory::ALL`] lists them in display order.
    AirtimeCategory("airtime category") {
        /// MPDU payload bits on the air.
        DataTx = "data_tx",
        /// ACK frames.
        Ack = "ack",
        /// Fixed MAC overhead: DIFS, SIFS, preambles, RTS/CTS.
        MacOverhead = "mac_overhead",
        /// Contention countdown while at least one station has traffic.
        Backoff = "backoff",
        /// Busy time destroyed by simultaneous transmissions.
        Collision = "collision",
        /// Nobody had traffic pending.
        Idle = "idle",
    }
}

str_enum! {
    /// Which run boundary an [`EventRecord::RunMark`] records.
    RunPhase("run phase") {
        /// The measurement warm-up elapsed; accounting resets here.
        Warmup = "warmup",
        /// The run ended; no records follow.
        End = "end",
    }
}

/// The record schema: hands one row per [`EventRecord`] variant, in
/// hook order, to the generator macro `$gen`. A row reads
/// `Variant("type tag") => HookVariant, named_hook { fields }`. Its
/// first field is the timestamp `t` (key `t_ns`); every other field
/// reads `name: Type = "json key"`, optionally followed by
/// `or <earlier field>`.
macro_rules! for_each_record {
    ($gen:ident) => {
        $gen! {
            /// Coarse MAC lifecycle marker.
            Mac("mac") => MacEvent, on_mac_event {
                /// Simulation time.
                t: SimTime,
                /// Lifecycle phase.
                phase: MacPhase = "phase",
                /// Transmitting station (0 = AP).
                node: u64 = "node",
            }
            /// A transmission attempt resolved (success or failure).
            TxAttempt("tx_attempt") => TxAttempt, on_tx_attempt {
                /// Simulation time at the end of the attempt.
                t: SimTime,
                /// Transmitting station (0 = AP).
                node: u64 = "node",
                /// Client the attempt's occupancy is billed to (§2.2: AP
                /// transmissions bill the destination client).
                // Traces written before the ledger landed have no
                // explicit bill-to client; the transmitter is the right
                // default for the uplink-only experiments those traces
                // came from.
                client: u64 = "client" or node,
                /// MSDU payload size.
                bytes: u64 = "bytes",
                /// PHY data rate in Mbit/s.
                rate_mbps: f64 = "rate_mbps",
                /// Whether the frame was ACKed.
                success: bool = "success",
                /// How many retries this frame has consumed so far.
                retry: u64 = "retry",
                /// Channel time occupied by the attempt.
                airtime: SimDuration = "airtime_ns",
            }
            /// Two or more stations transmitted in the same slot.
            Collision("collision") => Collision, on_collision {
                /// Simulation time.
                t: SimTime,
                /// Number of stations involved.
                stations: u64 = "stations",
                /// Channel time wasted by the longest colliding frame.
                airtime: SimDuration = "airtime_ns",
            }
            /// A station drew a fresh backoff counter.
            Backoff("backoff") => Backoff, on_backoff {
                /// Simulation time.
                t: SimTime,
                /// The station drawing.
                node: u64 = "node",
                /// Slots drawn, uniform in `[0, cw]`.
                slots: u64 = "slots",
                /// The contention window the draw used.
                cw: u64 = "cw",
            }
            /// The AP scheduler picked a packet to transmit next.
            SchedDecision("sched_decision") => SchedDecision, on_sched_decision {
                /// Simulation time.
                t: SimTime,
                /// Destination/source client of the chosen packet.
                client: u64 = "client",
                /// Its payload size.
                bytes: u64 = "bytes",
                /// Queue length for that client after the dequeue.
                queue_len: u64 = "queue_len",
            }
            /// A TBR token balance changed.
            TokenUpdate("token_update") => TokenUpdate, on_token_update {
                /// Simulation time.
                t: SimTime,
                /// The client whose bucket changed.
                client: u64 = "client",
                /// Balance after the change, in microseconds of airtime.
                tokens_us: f64 = "tokens_us",
                /// The client's current fill weight (normalised rate share).
                rate: f64 = "rate",
                /// What caused the change.
                cause: TokenCause = "cause",
            }
            /// A TCP flow progressed.
            Tcp("tcp") => TcpEvent, on_tcp_event {
                /// Simulation time.
                t: SimTime,
                /// Flow id (client index).
                flow: u64 = "flow",
                /// What happened.
                phase: TcpPhase = "phase",
                /// Congestion window, in segments.
                cwnd: f64 = "cwnd",
                /// Bytes in flight after the event.
                flight: u64 = "flight",
            }
            /// A simulated queue changed length.
            QueueChange("queue_change") => QueueChange, on_queue_change {
                /// Simulation time.
                t: SimTime,
                /// Which queue.
                site: QueueSite = "site",
                /// Queue key (client index).
                key: u64 = "key",
                /// Length after the change.
                len: u64 = "len",
            }
            /// One exclusive slice of the medium timeline.
            ///
            /// Slices are emitted when the DCF cycle containing them resolves,
            /// so `t` (the emission time) trails `start + dur`; consecutive
            /// slices tile wall time with no gaps or overlaps — the property
            /// the conservation auditor checks.
            AirtimeSlice("airtime_slice") => AirtimeSlice, on_airtime_slice {
                /// Emission time (end of the cycle the slice belongs to).
                t: SimTime,
                /// When the slice began.
                start: SimTime = "start_ns",
                /// How long it lasted.
                dur: SimDuration = "dur_ns",
                /// Owning client (1-based node id), or 0 for the cell itself
                /// (idle and collision time belong to nobody).
                station: u64 = "station",
                /// What the time was spent on.
                category: AirtimeCategory = "category",
            }
            /// One frame's complete MAC lifecycle, emitted when it leaves the
            /// system (delivered or dropped).
            FrameSpan("frame_span") => FrameSpan, on_frame_span {
                /// Completion time (delivery, or drop after retry exhaustion).
                t: SimTime,
                /// Client the frame belongs to.
                station: u64 = "station",
                /// MSDU payload size.
                bytes: u64 = "bytes",
                /// When the frame entered its send queue.
                enqueue: SimTime = "enqueue_ns",
                /// When the scheduler released it to the MAC.
                release: SimTime = "release_ns",
                /// When its first transmission attempt ended.
                first_tx: SimTime = "first_tx_ns",
                /// Transmission attempts consumed (1 = no retries).
                attempts: u64 = "attempts",
                /// Total channel occupancy across all attempts (DIFS + frame
                /// exchange each).
                airtime: SimDuration = "airtime_ns",
                /// Whether the frame was ultimately ACKed.
                delivered: bool = "delivered",
            }
            /// A run boundary: warm-up elapsed, or the run ended.
            RunMark("run_mark") => RunMark, on_run_mark {
                /// Simulation time of the boundary.
                t: SimTime,
                /// Which boundary.
                phase: RunPhase = "phase",
            }
        }
    };
}
pub(crate) use for_each_record;

/// One field's wire codec, chosen by its type: `put` writes field `v`
/// into the object `o` under key `k`; `get` reads key `k` of the line
/// `f`.
macro_rules! wire {
    (put $o:ident $k:literal $v:ident: u64) => {
        $o.u64($k, *$v)
    };
    (put $o:ident $k:literal $v:ident: f64) => {
        $o.f64($k, *$v)
    };
    (put $o:ident $k:literal $v:ident: bool) => {
        $o.bool($k, *$v)
    };
    (put $o:ident $k:literal $v:ident: SimTime) => {
        $o.u64($k, $v.as_nanos())
    };
    (put $o:ident $k:literal $v:ident: SimDuration) => {
        $o.u64($k, $v.as_nanos())
    };
    (put $o:ident $k:literal $v:ident: $e:ident) => {
        $o.str($k, $v.as_str())
    };
    (get $f:ident $k:literal: u64 or $default:ident) => {
        $f.u64_or($k, $default)?
    };
    (get $f:ident $k:literal: u64) => {
        $f.u64($k)?
    };
    (get $f:ident $k:literal: f64) => {
        $f.f64($k)?
    };
    (get $f:ident $k:literal: bool) => {
        $f.bool($k)?
    };
    (get $f:ident $k:literal: SimTime) => {
        SimTime::from_nanos($f.u64($k)?)
    };
    (get $f:ident $k:literal: SimDuration) => {
        SimDuration::from_nanos($f.u64($k)?)
    };
    (get $f:ident $k:literal: $e:ident) => {
        $e::get(&$f, $k)?
    };
}

/// Generates [`EventRecord`], its accessors and its JSONL codec from
/// the `for_each_record!` rows.
macro_rules! event_record {
    ($(
        $(#[$doc:meta])*
        $V:ident($tag:literal) => $H:ident, $hook:ident {
            $(#[$tdoc:meta])* t: SimTime,
            $($(#[$fdoc:meta])* $f:ident: $ty:ident = $key:literal $(or $default:ident)?,)*
        }
    )*) => {
        /// One observability event, as emitted by the simulator and stored one
        /// per line in the JSONL trace.
        #[derive(Clone, Debug, PartialEq)]
        pub enum EventRecord {
            $($(#[$doc])* $V {
                $(#[$tdoc])* t: SimTime,
                $($(#[$fdoc])* $f: $ty,)*
            },)*
        }

        impl EventRecord {
            /// The record's `"type"` discriminator.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(EventRecord::$V { .. } => $tag,)*
                }
            }

            /// The [`Observer`](crate::Observer) hook that carries this
            /// record: the one mapping from record to hook.
            #[inline]
            pub fn hook(&self) -> Hook {
                match self {
                    $(EventRecord::$V { .. } => Hook::$H,)*
                }
            }

            /// The record's timestamp.
            pub fn time(&self) -> SimTime {
                match *self {
                    $(EventRecord::$V { t, .. })|* => t,
                }
            }

            /// Serialises the record as one JSON line (no trailing newline).
            pub fn to_json_line(&self) -> String {
                let mut o = Obj::new();
                o.str("type", self.kind())
                    .u64("t_ns", self.time().as_nanos());
                match self {
                    $(EventRecord::$V { $($f,)* .. } => {
                        $(wire!(put o $key $f: $ty);)*
                    })*
                }
                o.finish()
            }
        }

        /// Parses one JSONL trace line back into an [`EventRecord`].
        ///
        /// Unknown fields are ignored; unknown `"type"` values are an error so
        /// callers can count and report them.
        pub fn parse_line(line: &str) -> Result<EventRecord, String> {
            let f = Fields::parse(line)?;
            let t = SimTime::from_nanos(f.u64("t_ns")?);
            Ok(match f.str("type")? {
                $($tag => {
                    $(let $f = wire!(get f $key: $ty $(or $default)?);)*
                    EventRecord::$V { t, $($f),* }
                })*
                other => return Err(format!("unknown record type '{other}'")),
            })
        }
    };
}

for_each_record!(event_record);

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
        assert_eq!(
            parse_line(r#"{"type":"x","t_ns":0}"#).unwrap_err(),
            "unknown record type 'x'"
        );
    }

    #[test]
    fn missing_field_is_an_error() {
        let err = parse_line(r#"{"type":"backoff","t_ns":0,"node":1,"slots":3}"#).unwrap_err();
        assert!(err.contains("cw"), "{err}");
        // `inspect` prints these texts for the first bad line.
        for (line, want) in [
            (
                r#"{"type":"backoff","t_ns":0,"node":1,"slots":3}"#,
                "missing field 'cw'",
            ),
            (
                r#"{"type":"backoff","t_ns":0,"node":"1","slots":3,"cw":15}"#,
                "field 'node' is not an integer",
            ),
            (
                r#"{"type":"frame_span","t_ns":1,"station":1,"bytes":1,"enqueue_ns":0,"release_ns":0,"first_tx_ns":0,"attempts":1,"airtime_ns":1,"delivered":1}"#,
                "field 'delivered' is not a bool",
            ),
            (
                r#"{"type":"tx_attempt","t_ns":1,"node":1,"bytes":1,"rate_mbps":1,"success":1,"retry":0,"airtime_ns":1}"#,
                "field 'success' is not a bool",
            ),
            (
                r#"{"type":"mac","t_ns":0,"phase":"x","node":1}"#,
                "bad mac phase 'x'",
            ),
            (
                r#"{"type":"token_update","t_ns":0,"client":1,"tokens_us":0,"rate":1,"cause":"x"}"#,
                "bad token cause 'x'",
            ),
            (
                r#"{"type":"tcp","t_ns":0,"flow":1,"phase":"x","cwnd":1,"flight":0}"#,
                "bad tcp phase 'x'",
            ),
            (
                r#"{"type":"queue_change","t_ns":0,"site":"x","key":1,"len":0}"#,
                "bad queue site 'x'",
            ),
            (
                r#"{"type":"airtime_slice","t_ns":0,"start_ns":0,"dur_ns":0,"station":0,"category":"x"}"#,
                "bad airtime category 'x'",
            ),
            (
                r#"{"type":"run_mark","t_ns":0,"phase":"x"}"#,
                "bad run phase 'x'",
            ),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), want, "{line}");
        }
    }

    #[test]
    fn small_enum_names_round_trip() {
        /// `E::ALL` carries exactly `names`, in order, and each name
        /// parses back to its value.
        macro_rules! check {
            ($E:ident, $names:expr) => {
                assert_eq!($E::ALL.map($E::as_str), $names);
                for v in $E::ALL {
                    assert_eq!($E::parse(v.as_str()), Some(v));
                }
                assert_eq!($E::parse("x"), None);
            };
        }
        check!(MacPhase, ["tx_start", "tx_end", "drop"]);
        check!(TokenCause, ["fill", "debit"]);
        check!(TcpPhase, ["ack", "rto", "done"]);
        check!(QueueSite, ["ap", "client"]);
        check!(
            AirtimeCategory,
            [
                "data_tx",
                "ack",
                "mac_overhead",
                "backoff",
                "collision",
                "idle"
            ]
        );
        check!(RunPhase, ["warmup", "end"]);
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
