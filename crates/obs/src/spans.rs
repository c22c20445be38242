//! Per-frame lifecycle span rollups: where did a frame's latency go?
//!
//! Each [`EventRecord::FrameSpan`] carries the timestamps of one
//! frame's life (enqueue → scheduler release → first attempt →
//! completion) plus its total channel occupancy. [`SpanCollector`]
//! decomposes that into three delays and reports per-station
//! percentiles:
//!
//! - **queueing** = release − enqueue: time spent waiting in the send
//!   queue behind other frames (the AP scheduler's domain);
//! - **contention** = completion − release − airtime: time the MAC
//!   spent backing off and retrying beyond the air transmissions
//!   themselves;
//! - **head-of-line** = first_tx − release: how long the frame's first
//!   channel access took, the delay it imposed on everything queued
//!   behind it.
//!
//! This is the mechanism behind the paper's §4.4 delay results: a slow
//! station under packet fairness inflates everyone's head-of-line
//! delay, while time-based fairness bounds it.
//!
//! [`SpanCollector`] implements [`Observer`] so it can watch a live
//! run, or a trace file [`replay`](crate::replay)ed for
//! `inspect --spans`. Like the ledger, it resets at the warm-up
//! [`EventRecord::RunMark`].

use std::fmt;

use airtime_sim::{SimDuration, SimTime};

use crate::csv::Csv;
use crate::event::{EventRecord, RunPhase};
use crate::observer::{Hook, Observer};
use crate::recorder::DENSE_STATIONS;

/// The percentiles every delay column reports.
pub const PERCENTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// Exact nearest-rank percentile of a sorted sample; `None` when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    percentile_rank(sorted.len(), q).map(|i| sorted[i])
}

/// The [`PERCENTILES`] of `xs` (0.0 each when empty), equal bit for
/// bit to [`percentile`] over `xs` sorted by [`f64::total_cmp`]. Each
/// rank is selected in the suffix the previous selection left above
/// it, so no full sort is needed; `xs` is left reordered.
fn select_percentiles(xs: &mut [f64]) -> [f64; 3] {
    let mut out = [0.0; 3];
    let mut from = 0;
    for (o, &q) in out.iter_mut().zip(PERCENTILES.iter()) {
        let Some(rank) = percentile_rank(xs.len(), q) else {
            break;
        };
        if rank >= from {
            xs[from..].select_nth_unstable_by(rank - from, f64::total_cmp);
            from = rank + 1;
        }
        *o = xs[rank];
    }
    out
}

/// The 0-based index [`percentile`] reads in a sorted sample of `len`.
fn percentile_rank(len: usize, q: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    Some(((q * len as f64).ceil() as usize).clamp(1, len) - 1)
}

#[derive(Clone, Debug, Default)]
struct StationAcc {
    station: u64,
    frames: u64,
    delivered: u64,
    attempts: u64,
    /// One `[queueing, contention, head-of-line]` row of delays (ms)
    /// per frame.
    delays_ms: Vec<[f64; 3]>,
}

/// One station's delay breakdown, percentiles in milliseconds.
#[derive(Clone, Debug)]
pub struct StationDelays {
    /// Client id.
    pub station: u64,
    /// Frames that completed (delivered or dropped).
    pub frames: u64,
    /// Frames that were ACKed.
    pub delivered: u64,
    /// Mean transmission attempts per frame.
    pub mean_attempts: f64,
    /// Queueing delay `[p50, p95, p99]`, ms.
    pub queueing_ms: [f64; 3],
    /// Contention delay `[p50, p95, p99]`, ms.
    pub contention_ms: [f64; 3],
    /// Head-of-line delay `[p50, p95, p99]`, ms.
    pub hol_ms: [f64; 3],
}

/// Marks a station id the dense table has no accumulator for.
const NO_ACC: u32 = u32::MAX;

/// Collects frame spans and rolls them up per station.
#[derive(Clone, Debug, Default)]
pub struct SpanCollector {
    /// Accumulators in first-seen order.
    accs: Vec<StationAcc>,
    /// Position in `accs` of each station below [`DENSE_STATIONS`], by
    /// id ([`NO_ACC`] = none yet); larger ids (only a trace file can
    /// carry them) are searched for.
    slots: Vec<u32>,
    total: u64,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn on_span(
        &mut self,
        t: SimTime,
        station: u64,
        enqueue: SimTime,
        release: SimTime,
        first_tx: SimTime,
        attempts: u64,
        airtime: SimDuration,
        delivered: bool,
    ) {
        self.total += 1;
        let slot = usize::try_from(station)
            .ok()
            .and_then(|i| self.slots.get(i))
            .filter(|&&pos| pos != NO_ACC);
        let pos = match slot {
            Some(&pos) => pos as usize,
            None => self.find_or_add(station),
        };
        let acc = &mut self.accs[pos];
        acc.frames += 1;
        if delivered {
            acc.delivered += 1;
        }
        acc.attempts += attempts;
        let ms = 1e3;
        let contention = t.saturating_since(release).as_secs_f64() - airtime.as_secs_f64();
        acc.delays_ms.push([
            release.saturating_since(enqueue).as_secs_f64() * ms,
            contention.max(0.0) * ms,
            first_tx.saturating_since(release).as_secs_f64() * ms,
        ]);
    }

    /// The position in `accs` of a station the dense table does not
    /// hold: a new accumulator (entered in the table when its id is
    /// below [`DENSE_STATIONS`]), or a search for a larger id.
    #[cold]
    #[inline(never)]
    fn find_or_add(&mut self, station: u64) -> usize {
        if let Some(pos) = self.accs.iter().position(|a| a.station == station) {
            return pos;
        }
        let pos = self.accs.len();
        self.accs.push(StationAcc {
            station,
            ..Default::default()
        });
        if let Ok(i) = usize::try_from(station) {
            if i < DENSE_STATIONS {
                if i >= self.slots.len() {
                    self.slots.resize(i + 1, NO_ACC);
                }
                self.slots[i] = pos as u32;
            }
        }
        pos
    }

    /// Spans accumulated since the last warm-up mark.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-station rollups, in station id order.
    pub fn summary(&self) -> Vec<StationDelays> {
        let mut accs: Vec<&StationAcc> = self.accs.iter().collect();
        accs.sort_by_key(|a| a.station);
        // One scratch buffer for every column: selection reorders it.
        let mut scratch = Vec::new();
        let mut triple = |rows: &[[f64; 3]], column: usize| {
            scratch.clear();
            scratch.extend(rows.iter().map(|row| row[column]));
            select_percentiles(&mut scratch)
        };
        accs.into_iter()
            .map(|a| StationDelays {
                station: a.station,
                frames: a.frames,
                delivered: a.delivered,
                mean_attempts: if a.frames > 0 {
                    a.attempts as f64 / a.frames as f64
                } else {
                    0.0
                },
                queueing_ms: triple(&a.delays_ms, 0),
                contention_ms: triple(&a.delays_ms, 1),
                hol_ms: triple(&a.delays_ms, 2),
            })
            .collect()
    }

    /// The rollup as a CSV document (schema `airtime-spans` v1).
    pub fn to_csv(&self) -> String {
        let mut csv = Csv::new(
            "airtime-spans",
            1,
            &[
                "station",
                "frames",
                "delivered",
                "mean_attempts",
                "queueing_p50_ms",
                "queueing_p95_ms",
                "queueing_p99_ms",
                "contention_p50_ms",
                "contention_p95_ms",
                "contention_p99_ms",
                "hol_p50_ms",
                "hol_p95_ms",
                "hol_p99_ms",
            ],
        );
        for d in self.summary() {
            let mut row = vec![
                d.station.to_string(),
                d.frames.to_string(),
                d.delivered.to_string(),
                crate::json::num(d.mean_attempts),
            ];
            for group in [&d.queueing_ms, &d.contention_ms, &d.hol_ms] {
                row.extend(group.iter().map(|&v| crate::json::num(v)));
            }
            csv.row(&row);
        }
        csv.finish()
    }
}

impl Observer for SpanCollector {
    #[inline]
    fn wants(&self, hook: Hook) -> bool {
        matches!(hook, Hook::FrameSpan | Hook::RunMark)
    }

    /// Everything but `frame_span` and the warm-up `run_mark` is
    /// ignored. Always inlined, so an emission site keeps only its own
    /// variant's arm.
    #[inline(always)]
    fn on_record(&mut self, rec: EventRecord) {
        match rec {
            EventRecord::FrameSpan {
                t,
                station,
                enqueue,
                release,
                first_tx,
                attempts,
                airtime,
                delivered,
                ..
            } => self.on_span(
                t, station, enqueue, release, first_tx, attempts, airtime, delivered,
            ),
            EventRecord::RunMark {
                phase: RunPhase::Warmup,
                ..
            } => {
                self.accs.clear();
                self.slots.clear();
                self.total = 0;
            }
            _ => {}
        }
    }
}

impl fmt::Display for SpanCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let summary = self.summary();
        writeln!(f, "frame spans: {}", self.total)?;
        if summary.is_empty() {
            return Ok(());
        }
        writeln!(
            f,
            "  {:>7}  {:>7}  {:>5}  {:>21}  {:>21}  {:>21}",
            "station",
            "frames",
            "att",
            "queueing p50/95/99 ms",
            "contention p50/95/99",
            "head-of-line p50/95/99"
        )?;
        for d in summary {
            writeln!(
                f,
                "  {:>7}  {:>7}  {:>5.2}  {:>6.2} {:>6.2} {:>6.2}  {:>6.2} {:>6.2} {:>6.2}  {:>6.2} {:>6.2} {:>6.2}",
                d.station,
                d.frames,
                d.mean_attempts,
                d.queueing_ms[0],
                d.queueing_ms[1],
                d.queueing_ms[2],
                d.contention_ms[0],
                d.contention_ms[1],
                d.contention_ms[2],
                d.hol_ms[0],
                d.hol_ms[1],
                d.hol_ms[2],
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(station: u64, enqueue_us: u64, release_us: u64, done_us: u64) -> EventRecord {
        EventRecord::FrameSpan {
            t: SimTime::from_micros(done_us),
            station,
            bytes: 1500,
            enqueue: SimTime::from_micros(enqueue_us),
            release: SimTime::from_micros(release_us),
            first_tx: SimTime::from_micros(release_us + 500),
            attempts: 2,
            airtime: SimDuration::from_micros(1000),
            delivered: true,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), Some(2.0));
        assert_eq!(percentile(&xs, 0.95), Some(4.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn selected_percentiles_equal_the_sorted_reference_bit_for_bit() {
        let mut rng = airtime_sim::SimRng::new(26);
        for case in 0..300 {
            let len = match case {
                0..=9 => case as u64,
                _ => rng.below(5_001),
            };
            // Few distinct values, so ranks land inside runs of ties,
            // and both signed zeros.
            let palette: Vec<f64> = (0..1 + rng.below(12))
                .map(|_| match rng.below(4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (rng.unit() - 0.5) * 1e3,
                })
                .collect();
            let xs: Vec<f64> = (0..len)
                .map(|_| palette[rng.below(palette.len() as u64) as usize])
                .collect();
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let want = PERCENTILES.map(|q| percentile(&sorted, q).unwrap_or(0.0).to_bits());
            let got = select_percentiles(&mut xs.clone()).map(f64::to_bits);
            assert_eq!(got, want, "case {case}: {len} samples");
        }
    }

    #[test]
    fn delays_decompose() {
        let mut c = SpanCollector::new();
        // queueing 2 ms, contention 8 − 1 (airtime) = 7 ms, hol 0.5 ms.
        c.on_record(span(1, 1000, 3000, 11_000));
        let s = c.summary();
        assert_eq!(s.len(), 1);
        let d = &s[0];
        assert_eq!(d.frames, 1);
        assert_eq!(d.delivered, 1);
        assert!((d.mean_attempts - 2.0).abs() < 1e-12);
        assert!((d.queueing_ms[0] - 2.0).abs() < 1e-9);
        assert!((d.contention_ms[0] - 7.0).abs() < 1e-9);
        assert!((d.hol_ms[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn warmup_mark_resets() {
        let mut c = SpanCollector::new();
        c.on_record(span(1, 0, 0, 2000));
        c.on_record(EventRecord::RunMark {
            t: SimTime::from_micros(5000),
            phase: RunPhase::Warmup,
        });
        c.on_record(span(2, 6000, 6000, 8000));
        assert_eq!(c.total(), 1);
        assert_eq!(c.summary()[0].station, 2);
        // Station 1's accumulator went with the reset.
        c.on_record(span(1, 9000, 9000, 9500));
        let frames: Vec<(u64, u64)> = c.summary().iter().map(|d| (d.station, d.frames)).collect();
        assert_eq!(frames, [(1, 1), (2, 1)]);
    }

    #[test]
    fn every_station_id_keeps_its_own_accumulator() {
        // Ids below the dense table's bound are indexed, larger ones
        // (a trace file can carry any u64) are searched for.
        let ids = [3, 5000, 3, u64::MAX, 5000, 0, 4095, 4096, 3];
        let mut c = SpanCollector::new();
        for (i, &s) in ids.iter().enumerate() {
            let t = 1000 * i as u64;
            c.on_record(span(s, t, t + 100, t + 2000));
        }
        let frames: Vec<(u64, u64)> = c.summary().iter().map(|d| (d.station, d.frames)).collect();
        assert_eq!(
            frames,
            [
                (0, 1),
                (3, 3),
                (4095, 1),
                (4096, 1),
                (5000, 2),
                (u64::MAX, 1)
            ]
        );
    }

    #[test]
    fn csv_has_schema_and_one_row_per_station() {
        let mut c = SpanCollector::new();
        c.on_record(span(2, 0, 1000, 5000));
        c.on_record(span(1, 0, 2000, 9000));
        let csv = c.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# schema: airtime-spans v1; columns: 13");
        assert!(lines[1].starts_with("station,frames,delivered,mean_attempts,queueing_p50_ms"));
        assert!(lines[2].starts_with("1,1,1,2,"));
        assert!(lines[3].starts_with("2,1,1,2,"));
    }

    #[test]
    fn display_renders() {
        let mut c = SpanCollector::new();
        c.on_record(span(1, 0, 1000, 5000));
        let text = c.to_string();
        assert!(text.contains("frame spans: 1"));
        assert!(text.contains("queueing"));
    }
}
