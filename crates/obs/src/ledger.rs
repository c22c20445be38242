//! The airtime ledger: every microsecond of medium time, attributed
//! exactly once, with a conservation auditor.
//!
//! The paper's whole argument is denominated in channel-occupancy time
//! (Table 2's occupancy shares, the time-based fairness definition),
//! so the ledger keeps two views of the same event stream:
//!
//! 1. An **exclusive timeline** built from
//!    [`EventRecord::AirtimeSlice`] records. Consecutive slices tile
//!    wall time — no gaps, no overlaps — and each bills one
//!    `(station, category)` pair. Idle and collision time belong to
//!    the cell itself (station 0), because nobody "owns" them. The
//!    auditor checks Σ slices == post-warm-up elapsed time within
//!    [`AUDIT_TOLERANCE_NS`].
//! 2. A **per-station occupancy** accumulator built from
//!    [`EventRecord::TxAttempt`] records, reproducing the paper's §2.2
//!    attribution exactly as `Report::occupancy_share` computes it:
//!    every attempt bills DIFS + its frame exchange to the client, and
//!    colliding attempts each bill their full cost even though they
//!    overlapped on the air.
//!
//! The two views deliberately disagree about collisions (the timeline
//! counts wall time once; occupancy bills every collider) — that is
//! the difference between *conservation* and *attribution*, and
//! keeping both makes each auditable against its own invariant.
//!
//! [`AirtimeLedger`] implements [`Observer`], so it can sit directly
//! on a live run (`airtime-cli run --ledger`), and it can equally be
//! rebuilt from a JSONL trace on disk ([`replay`](crate::replay)).

use std::fmt;

use airtime_sim::{SimDuration, SimTime};

use crate::csv::Csv;
use crate::event::{AirtimeCategory, EventRecord, RunPhase};
use crate::observer::{Hook, Observer};

/// Conservation slack: Σ slices must match the audited window within
/// this many nanoseconds (the issue's ±1 µs; the arithmetic is exact,
/// so the slack only absorbs boundary-clipping rounding).
pub const AUDIT_TOLERANCE_NS: u64 = 1_000;

/// The station id that owns idle and collision time.
pub const CELL: u64 = 0;

const NCAT: usize = AirtimeCategory::ALL.len();

#[inline]
fn cat_index(c: AirtimeCategory) -> usize {
    AirtimeCategory::ALL
        .iter()
        .position(|&x| x == c)
        .expect("category in ALL")
}

/// Accumulates the two airtime views from an event stream.
#[derive(Clone, Debug, Default)]
pub struct AirtimeLedger {
    /// Per-station `[category]` nanosecond totals for the exclusive
    /// timeline, clipped to the post-warm-up window. Index = station
    /// id (0 = cell).
    station_cat_ns: Vec<[u64; NCAT]>,
    /// Per-client occupancy nanoseconds (paper attribution), reset at
    /// the warm-up mark. Index = client id.
    occupancy_ns: Vec<u64>,
    /// Slices seen.
    slices: u64,
    /// Attempts seen post-warm-up.
    attempts: u64,
    /// Start of the first slice.
    timeline_start: Option<SimTime>,
    /// Where the next slice must start for the timeline to tile.
    expected_start: Option<SimTime>,
    /// Nanoseconds of timeline left unaccounted between slices.
    gap_ns: u64,
    /// Nanoseconds counted twice by overlapping slices.
    overlap_ns: u64,
    /// The warm-up mark, once seen.
    warmup: Option<SimTime>,
    /// The end mark, once seen.
    end: Option<SimTime>,
}

impl AirtimeLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bills `ns` to a client past the end of the occupancy table,
    /// growing the table to cover it.
    #[cold]
    #[inline(never)]
    fn grow_occupancy(&mut self, client: usize, ns: u64) {
        self.occupancy_ns.resize(client + 1, 0);
        self.occupancy_ns[client] = ns;
    }

    #[inline]
    fn on_slice(&mut self, start: SimTime, dur: SimDuration, station: u64, cat: AirtimeCategory) {
        self.slices += 1;
        let end = start + dur;
        if self.timeline_start.is_none() {
            self.timeline_start = Some(start);
        }
        match self.expected_start {
            Some(exp) if start > exp => self.gap_ns += start.saturating_since(exp).as_nanos(),
            Some(exp) if start < exp => {
                self.overlap_ns += exp.saturating_since(start).as_nanos().min(dur.as_nanos())
            }
            _ => {}
        }
        self.expected_start = Some(end);

        // Clip to the post-warm-up window: slices are emitted when
        // their DCF cycle resolves, so a cycle straddling the warm-up
        // boundary arrives after the mark and is trimmed here.
        let counted_ns = match self.warmup {
            Some(w) if end <= w => 0,
            Some(w) if start < w => end.saturating_since(w).as_nanos(),
            _ => dur.as_nanos(),
        };
        if counted_ns == 0 {
            return;
        }
        let i = station as usize;
        if self.station_cat_ns.len() <= i {
            self.station_cat_ns.resize(i + 1, [0; NCAT]);
        }
        self.station_cat_ns[i][cat_index(cat)] += counted_ns;
    }

    /// Slices accumulated.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Post-warm-up attempts accumulated.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Total post-warm-up nanoseconds billed to `(station, category)`.
    pub fn station_category_ns(&self, station: u64, cat: AirtimeCategory) -> u64 {
        self.station_cat_ns
            .get(station as usize)
            .map_or(0, |row| row[cat_index(cat)])
    }

    /// Total post-warm-up nanoseconds in `cat` across all stations.
    pub fn category_ns(&self, cat: AirtimeCategory) -> u64 {
        let i = cat_index(cat);
        self.station_cat_ns.iter().map(|row| row[i]).sum()
    }

    /// Per-client occupancy shares under the paper's attribution:
    /// `(client, occupancy / Σ occupancy)`, clients in id order. This
    /// is the quantity `Report::occupancy_share` reports.
    pub fn occupancy_shares(&self) -> Vec<(u64, f64)> {
        let total: u64 = self.occupancy_ns.iter().sum();
        self.occupancy_ns
            .iter()
            .enumerate()
            .filter(|(_, &ns)| ns > 0 || total > 0)
            .map(|(i, &ns)| {
                let share = if total > 0 {
                    ns as f64 / total as f64
                } else {
                    0.0
                };
                (i as u64, share)
            })
            .collect()
    }

    /// Runs the conservation audit over the accumulated timeline.
    pub fn audit(&self) -> AuditReport {
        let window_start = match (self.warmup, self.timeline_start) {
            (Some(w), _) => Some(w),
            (None, s) => s,
        };
        let window_end = self.end.or(self.expected_start);
        let window_ns = match (window_start, window_end) {
            (Some(a), Some(b)) => b.saturating_since(a).as_nanos(),
            _ => 0,
        };
        let accounted_ns: u64 = self.station_cat_ns.iter().flat_map(|row| row.iter()).sum();
        let error_ns = accounted_ns as i64 - window_ns as i64;
        AuditReport {
            window: SimDuration::from_nanos(window_ns),
            accounted: SimDuration::from_nanos(accounted_ns),
            error_ns,
            gap_ns: self.gap_ns,
            overlap_ns: self.overlap_ns,
            slices: self.slices,
            complete: self.end.is_some(),
            conserved: error_ns.unsigned_abs() <= AUDIT_TOLERANCE_NS
                && self.gap_ns == 0
                && self.overlap_ns == 0
                && self.end.is_some(),
        }
    }

    /// The per-`(station, category)` timeline as a CSV document
    /// (schema `airtime-ledger` v1): one row per non-empty pair, with
    /// seconds and the share of the audited window.
    pub fn timeline_csv(&self) -> String {
        let audit = self.audit();
        let window_s = audit.window.as_secs_f64();
        let mut csv = Csv::new(
            "airtime-ledger",
            1,
            &["station", "category", "seconds", "window_share"],
        );
        for (station, row) in self.station_cat_ns.iter().enumerate() {
            for (ci, &ns) in row.iter().enumerate() {
                if ns == 0 {
                    continue;
                }
                let secs = ns as f64 / 1e9;
                let share = if window_s > 0.0 { secs / window_s } else { 0.0 };
                csv.row(&[
                    station.to_string(),
                    AirtimeCategory::ALL[ci].as_str().to_string(),
                    crate::json::num(secs),
                    crate::json::num(share),
                ]);
            }
        }
        csv.finish()
    }
}

impl Observer for AirtimeLedger {
    #[inline]
    fn wants(&self, hook: Hook) -> bool {
        matches!(hook, Hook::TxAttempt | Hook::AirtimeSlice | Hook::RunMark)
    }

    /// Only `airtime_slice`, `tx_attempt`, and `run_mark` records
    /// matter; everything else is ignored. Always inlined, so an
    /// emission site keeps only its own variant's arm.
    #[inline(always)]
    fn on_record(&mut self, rec: EventRecord) {
        match rec {
            EventRecord::AirtimeSlice {
                start,
                dur,
                station,
                category,
                ..
            } => self.on_slice(start, dur, station, category),
            EventRecord::TxAttempt {
                client, airtime, ..
            } => {
                self.attempts += 1;
                let i = client as usize;
                match self.occupancy_ns.get_mut(i) {
                    Some(ns) => *ns += airtime.as_nanos(),
                    None => self.grow_occupancy(i, airtime.as_nanos()),
                }
            }
            EventRecord::RunMark { t, phase } => match phase {
                RunPhase::Warmup => {
                    // Records arrive in dispatch order, so everything
                    // accumulated so far is pre-warm-up by the same
                    // ordering the simulator's own latch uses. A cycle
                    // straddling the mark arrives *after* it (slices
                    // are emitted at cycle end) and is clipped in
                    // on_slice instead.
                    self.warmup = Some(t);
                    self.occupancy_ns.iter_mut().for_each(|o| *o = 0);
                    self.attempts = 0;
                    self.station_cat_ns
                        .iter_mut()
                        .for_each(|row| *row = [0; NCAT]);
                }
                RunPhase::End => self.end = Some(t),
            },
            _ => {}
        }
    }
}

/// Outcome of [`AirtimeLedger::audit`].
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// The audited window (warm-up mark to end mark).
    pub window: SimDuration,
    /// Total time the timeline accounted for inside the window.
    pub accounted: SimDuration,
    /// `accounted − window`, nanoseconds (signed).
    pub error_ns: i64,
    /// Timeline nanoseconds no slice covered.
    pub gap_ns: u64,
    /// Timeline nanoseconds covered by more than one slice.
    pub overlap_ns: u64,
    /// Slices that contributed.
    pub slices: u64,
    /// Whether the end-of-run mark was seen. A trace without it was cut
    /// short, so its window ends wherever the cut fell.
    pub complete: bool,
    /// Whether conservation held: the stream was complete,
    /// |error| ≤ [`AUDIT_TOLERANCE_NS`], and the slices tiled with no
    /// gaps or overlaps.
    pub conserved: bool,
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conservation audit: {}",
            if self.conserved { "PASS" } else { "FAIL" }
        )?;
        writeln!(
            f,
            "  window    {:.6} s ({} slices)",
            self.window.as_secs_f64(),
            self.slices
        )?;
        writeln!(f, "  accounted {:.6} s", self.accounted.as_secs_f64())?;
        writeln!(f, "  error     {} ns", self.error_ns)?;
        if !self.complete {
            writeln!(
                f,
                "  incomplete: no end-of-run mark (the trace was cut short)"
            )?;
        }
        if self.gap_ns > 0 || self.overlap_ns > 0 {
            writeln!(
                f,
                "  tiling    {} ns uncovered, {} ns double-covered",
                self.gap_ns, self.overlap_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(start_us: u64, dur_us: u64, station: u64, cat: AirtimeCategory) -> EventRecord {
        EventRecord::AirtimeSlice {
            t: SimTime::from_micros(start_us + dur_us),
            start: SimTime::from_micros(start_us),
            dur: SimDuration::from_micros(dur_us),
            station,
            category: cat,
        }
    }

    fn attempt(t_us: u64, client: u64, airtime_us: u64) -> EventRecord {
        EventRecord::TxAttempt {
            t: SimTime::from_micros(t_us),
            node: client,
            client,
            bytes: 1500,
            rate_mbps: 11.0,
            success: true,
            retry: 0,
            airtime: SimDuration::from_micros(airtime_us),
        }
    }

    #[test]
    fn tiling_slices_conserve() {
        let mut l = AirtimeLedger::new();
        l.on_record(slice(0, 100, CELL, AirtimeCategory::Idle));
        l.on_record(slice(100, 50, 1, AirtimeCategory::Backoff));
        l.on_record(slice(150, 800, 1, AirtimeCategory::DataTx));
        // Cut here, the stream tiles but never saw its end: a truncated
        // trace, which must not pass.
        let a = l.audit();
        assert!(!a.conserved && !a.complete, "{a}");
        assert!(a.to_string().contains("no end-of-run mark"), "{a}");
        // Nor does an empty one.
        let a = AirtimeLedger::new().audit();
        assert!(!a.conserved && !a.complete, "{a}");
        l.on_record(slice(950, 50, 1, AirtimeCategory::Ack));
        l.on_record(EventRecord::RunMark {
            t: SimTime::from_micros(1000),
            phase: RunPhase::End,
        });
        let a = l.audit();
        assert!(a.conserved && a.complete, "{a}");
        assert_eq!(a.error_ns, 0);
        assert_eq!(a.window, SimDuration::from_micros(1000));
        assert_eq!(
            l.station_category_ns(1, AirtimeCategory::DataTx),
            800 * 1000
        );
    }

    #[test]
    fn a_gap_fails_the_audit() {
        let mut l = AirtimeLedger::new();
        l.on_record(slice(0, 100, CELL, AirtimeCategory::Idle));
        l.on_record(slice(150, 100, 1, AirtimeCategory::DataTx)); // 50 µs hole
        let a = l.audit();
        assert!(!a.conserved);
        assert_eq!(a.gap_ns, 50_000);
        assert_eq!(a.error_ns, -50_000);
    }

    #[test]
    fn an_overlap_is_detected() {
        let mut l = AirtimeLedger::new();
        l.on_record(slice(0, 100, 1, AirtimeCategory::DataTx));
        l.on_record(slice(80, 100, 2, AirtimeCategory::DataTx));
        let a = l.audit();
        assert!(!a.conserved);
        assert_eq!(a.overlap_ns, 20_000);
    }

    #[test]
    fn warmup_mark_clips_the_timeline_and_resets_occupancy() {
        let mut l = AirtimeLedger::new();
        l.on_record(attempt(400, 1, 300));
        l.on_record(slice(0, 500, 1, AirtimeCategory::DataTx));
        l.on_record(EventRecord::RunMark {
            t: SimTime::from_micros(600),
            phase: RunPhase::Warmup,
        });
        // Straddles the mark: only 200 µs land post-warm-up.
        l.on_record(slice(500, 300, 2, AirtimeCategory::DataTx));
        l.on_record(slice(800, 200, CELL, AirtimeCategory::Idle));
        l.on_record(attempt(900, 2, 250));
        l.on_record(EventRecord::RunMark {
            t: SimTime::from_micros(1000),
            phase: RunPhase::End,
        });
        let a = l.audit();
        assert!(a.conserved, "{a}");
        assert_eq!(a.window, SimDuration::from_micros(400));
        assert_eq!(l.station_category_ns(1, AirtimeCategory::DataTx), 0);
        assert_eq!(
            l.station_category_ns(2, AirtimeCategory::DataTx),
            200 * 1000
        );
        // Pre-warm-up attempt was discarded; only client 2 owns share.
        let shares = l.occupancy_shares();
        let s2 = shares.iter().find(|(c, _)| *c == 2).unwrap().1;
        assert_eq!(s2, 1.0);
    }

    #[test]
    fn occupancy_shares_follow_attempt_billing() {
        let mut l = AirtimeLedger::new();
        l.on_record(attempt(100, 1, 300));
        l.on_record(attempt(200, 2, 100));
        let shares = l.occupancy_shares();
        assert_eq!(shares.len(), 3); // cell slot 0 exists but is zero
        assert!((shares[1].1 - 0.75).abs() < 1e-12);
        assert!((shares[2].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn timeline_csv_lists_nonempty_pairs() {
        let mut l = AirtimeLedger::new();
        l.on_record(slice(0, 250, CELL, AirtimeCategory::Idle));
        l.on_record(slice(250, 750, 1, AirtimeCategory::DataTx));
        l.on_record(EventRecord::RunMark {
            t: SimTime::from_micros(1000),
            phase: RunPhase::End,
        });
        let csv = l.timeline_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# schema: airtime-ledger v1; columns: 4");
        assert_eq!(lines[1], "station,category,seconds,window_share");
        assert_eq!(lines[2], "0,idle,0.00025,0.25");
        assert_eq!(lines[3], "1,data_tx,0.00075,0.75");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn non_airtime_records_are_ignored() {
        let mut l = AirtimeLedger::new();
        l.on_record(EventRecord::Backoff {
            t: SimTime::from_micros(1),
            node: 1,
            slots: 4,
            cw: 31,
        });
        assert_eq!(l.slices(), 0);
        assert_eq!(l.attempts(), 0);
    }
}
