//! Trace summarisation: turns a JSONL event log back into the
//! aggregate picture `airtime-cli inspect` prints — collision and
//! retry counts, per-station airtime shares, and token-bucket
//! occupancy timelines.

use std::fmt;

use airtime_sim::SimTime;

use crate::event::{parse_lines, EventRecord, TcpPhase, TokenCause};
use crate::observer::{deliver, Observer};

/// Per-station aggregates from `tx_attempt` records.
#[derive(Clone, Debug, Default)]
pub struct StationSummary {
    /// Station id (0 = AP).
    pub node: u64,
    /// Transmission attempts.
    pub attempts: u64,
    /// Successful (ACKed) attempts.
    pub successes: u64,
    /// Attempts that were retries (`retry > 0`).
    pub retries: u64,
    /// Total channel time occupied, seconds.
    pub airtime_s: f64,
    /// This station's share of all accounted airtime, in `[0, 1]`.
    pub share: f64,
}

/// Per-client token-bucket occupancy aggregates from `token_update`
/// records.
#[derive(Clone, Debug)]
pub struct TokenSummary {
    /// Client id.
    pub client: u64,
    /// Number of balance updates seen.
    pub updates: u64,
    /// Fill events vs debit events.
    pub fills: u64,
    /// Debit events.
    pub debits: u64,
    /// Lowest balance seen, microseconds.
    pub min_us: f64,
    /// Highest balance seen, microseconds.
    pub max_us: f64,
    /// Mean of observed balances, microseconds.
    pub mean_us: f64,
    /// Fraction of observations with a negative balance (the client is
    /// in airtime debt).
    pub negative_frac: f64,
    /// Last observed fill weight.
    pub last_rate: f64,
}

/// Everything `inspect` reports about one trace.
#[derive(Clone, Debug, Default)]
pub struct InspectSummary {
    /// Total parseable records.
    pub total: u64,
    /// Lines that failed to parse (counted, not fatal).
    pub malformed: u64,
    /// Record counts by `"type"`, sorted descending.
    pub by_type: Vec<(String, u64)>,
    /// First record timestamp.
    pub t_first: Option<SimTime>,
    /// Last record timestamp.
    pub t_last: Option<SimTime>,
    /// Collision records.
    pub collisions: u64,
    /// Channel time lost to collisions, seconds.
    pub collision_airtime_s: f64,
    /// Backoff draws.
    pub backoffs: u64,
    /// Mean backoff draw, slots.
    pub mean_backoff_slots: f64,
    /// Scheduler dequeues.
    pub sched_decisions: u64,
    /// TCP retransmission timeouts.
    pub tcp_rtos: u64,
    /// Per-station aggregates, sorted by id.
    pub stations: Vec<StationSummary>,
    /// Per-client token aggregates, sorted by id.
    pub tokens: Vec<TokenSummary>,
}

struct TokenAcc {
    client: u64,
    updates: u64,
    fills: u64,
    debits: u64,
    min_us: f64,
    max_us: f64,
    sum_us: f64,
    negative: u64,
    last_rate: f64,
}

/// The running totals behind one [`InspectSummary`]: an observer
/// that reads every record, fed by [`summarize`] or by
/// [`replay`](crate::replay) of a trace file.
#[derive(Default)]
pub struct Summarizer {
    s: InspectSummary,
    by_type: Vec<(String, u64)>,
    stations: Vec<StationSummary>,
    tokens: Vec<TokenAcc>,
    backoff_slots_sum: u64,
}

impl Observer for Summarizer {
    fn on_record(&mut self, rec: EventRecord) {
        self.s.total += 1;
        let t = rec.time();
        if self.s.t_first.is_none() {
            self.s.t_first = Some(t);
        }
        self.s.t_last = Some(match self.s.t_last {
            Some(prev) => prev.max(t),
            None => t,
        });
        let kind = rec.kind().to_string();
        match self.by_type.iter_mut().find(|(k, _)| *k == kind) {
            Some(slot) => slot.1 += 1,
            None => self.by_type.push((kind, 1)),
        }

        match rec {
            EventRecord::TxAttempt {
                node,
                success,
                retry,
                airtime,
                ..
            } => {
                let st = match self.stations.iter_mut().find(|st| st.node == node) {
                    Some(st) => st,
                    None => {
                        self.stations.push(StationSummary {
                            node,
                            ..Default::default()
                        });
                        self.stations.last_mut().unwrap()
                    }
                };
                st.attempts += 1;
                if success {
                    st.successes += 1;
                }
                if retry > 0 {
                    st.retries += 1;
                }
                st.airtime_s += airtime.as_secs_f64();
            }
            EventRecord::Collision { airtime, .. } => {
                self.s.collisions += 1;
                self.s.collision_airtime_s += airtime.as_secs_f64();
            }
            EventRecord::Backoff { slots, .. } => {
                self.s.backoffs += 1;
                self.backoff_slots_sum += slots;
            }
            EventRecord::SchedDecision { .. } => {
                self.s.sched_decisions += 1;
            }
            EventRecord::TokenUpdate {
                client,
                tokens_us,
                rate,
                cause,
                ..
            } => {
                let acc = match self.tokens.iter_mut().find(|a| a.client == client) {
                    Some(a) => a,
                    None => {
                        self.tokens.push(TokenAcc {
                            client,
                            updates: 0,
                            fills: 0,
                            debits: 0,
                            min_us: f64::INFINITY,
                            max_us: f64::NEG_INFINITY,
                            sum_us: 0.0,
                            negative: 0,
                            last_rate: rate,
                        });
                        self.tokens.last_mut().unwrap()
                    }
                };
                acc.updates += 1;
                match cause {
                    TokenCause::Fill => acc.fills += 1,
                    TokenCause::Debit => acc.debits += 1,
                }
                acc.min_us = acc.min_us.min(tokens_us);
                acc.max_us = acc.max_us.max(tokens_us);
                acc.sum_us += tokens_us;
                if tokens_us < 0.0 {
                    acc.negative += 1;
                }
                acc.last_rate = rate;
            }
            EventRecord::Tcp { phase, .. } => {
                if phase == TcpPhase::Rto {
                    self.s.tcp_rtos += 1;
                }
            }
            EventRecord::Mac { .. }
            | EventRecord::QueueChange { .. }
            | EventRecord::AirtimeSlice { .. }
            | EventRecord::FrameSpan { .. }
            | EventRecord::RunMark { .. } => {}
        }
    }
}

impl Summarizer {
    /// The summary of the records seen, with `malformed` lines that
    /// did not parse.
    pub fn into_summary(self, malformed: u64) -> InspectSummary {
        let Summarizer {
            mut s,
            mut by_type,
            mut stations,
            mut tokens,
            backoff_slots_sum,
        } = self;
        s.malformed = malformed;
        by_type.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        s.by_type = by_type;

        if s.backoffs > 0 {
            s.mean_backoff_slots = backoff_slots_sum as f64 / s.backoffs as f64;
        }

        stations.sort_by_key(|st| st.node);
        let total_air: f64 = stations.iter().map(|st| st.airtime_s).sum();
        for st in &mut stations {
            st.share = if total_air > 0.0 {
                st.airtime_s / total_air
            } else {
                0.0
            };
        }
        s.stations = stations;

        tokens.sort_by_key(|a| a.client);
        s.tokens = tokens
            .into_iter()
            .map(|a| TokenSummary {
                client: a.client,
                updates: a.updates,
                fills: a.fills,
                debits: a.debits,
                min_us: a.min_us,
                max_us: a.max_us,
                mean_us: a.sum_us / a.updates as f64,
                negative_frac: a.negative as f64 / a.updates as f64,
                last_rate: a.last_rate,
            })
            .collect();

        s
    }
}

/// Summarises an iterator of JSONL lines.
pub fn summarize<I>(lines: I) -> InspectSummary
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut tally = Summarizer::default();
    let bad = parse_lines(lines, |rec| deliver(&mut tally, rec));
    tally.into_summary(bad.count)
}

impl fmt::Display for InspectSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "records: {}", self.total)?;
        if self.malformed > 0 {
            writeln!(f, "malformed lines skipped: {}", self.malformed)?;
        }
        if let (Some(a), Some(b)) = (self.t_first, self.t_last) {
            writeln!(
                f,
                "span: {:.3} s – {:.3} s",
                a.as_secs_f64(),
                b.as_secs_f64()
            )?;
        }
        if !self.by_type.is_empty() {
            writeln!(f, "\nby type:")?;
            for (kind, n) in &self.by_type {
                writeln!(f, "  {kind:<15} {n:>10}")?;
            }
        }
        writeln!(
            f,
            "\ncollisions: {} ({:.3} s of channel time lost)",
            self.collisions, self.collision_airtime_s
        )?;
        if self.backoffs > 0 {
            writeln!(
                f,
                "backoff draws: {} (mean {:.1} slots)",
                self.backoffs, self.mean_backoff_slots
            )?;
        }
        if self.sched_decisions > 0 {
            writeln!(f, "scheduler dequeues: {}", self.sched_decisions)?;
        }
        if self.tcp_rtos > 0 {
            writeln!(f, "tcp timeouts: {}", self.tcp_rtos)?;
        }
        if !self.stations.is_empty() {
            writeln!(f, "\nper-station airtime:")?;
            writeln!(
                f,
                "  {:>4}  {:>9}  {:>9}  {:>8}  {:>10}  {:>6}",
                "node", "attempts", "success", "retries", "airtime_s", "share"
            )?;
            for st in &self.stations {
                writeln!(
                    f,
                    "  {:>4}  {:>9}  {:>9}  {:>8}  {:>10.3}  {:>5.1}%",
                    st.node,
                    st.attempts,
                    st.successes,
                    st.retries,
                    st.airtime_s,
                    st.share * 100.0
                )?;
            }
        }
        if !self.tokens.is_empty() {
            writeln!(f, "\ntoken buckets (µs of airtime credit):")?;
            writeln!(
                f,
                "  {:>6}  {:>8}  {:>10}  {:>10}  {:>10}  {:>7}  {:>6}",
                "client", "updates", "min", "mean", "max", "neg", "rate"
            )?;
            for tk in &self.tokens {
                writeln!(
                    f,
                    "  {:>6}  {:>8}  {:>10.1}  {:>10.1}  {:>10.1}  {:>6.1}%  {:>6.3}",
                    tk.client,
                    tk.updates,
                    tk.min_us,
                    tk.mean_us,
                    tk.max_us,
                    tk.negative_frac * 100.0,
                    tk.last_rate
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventRecord, MacPhase, QueueSite};
    use airtime_sim::SimDuration;

    fn lines() -> Vec<String> {
        let recs = vec![
            EventRecord::TxAttempt {
                t: SimTime::from_micros(100),
                node: 1,
                client: 1,
                bytes: 1500,
                rate_mbps: 11.0,
                success: true,
                retry: 0,
                airtime: SimDuration::from_micros(1617),
            },
            EventRecord::TxAttempt {
                t: SimTime::from_micros(2000),
                node: 2,
                client: 2,
                bytes: 1500,
                rate_mbps: 1.0,
                success: false,
                retry: 1,
                airtime: SimDuration::from_micros(12221),
            },
            EventRecord::TxAttempt {
                t: SimTime::from_micros(16000),
                node: 2,
                client: 2,
                bytes: 1500,
                rate_mbps: 1.0,
                success: true,
                retry: 2,
                airtime: SimDuration::from_micros(12221),
            },
            EventRecord::Collision {
                t: SimTime::from_micros(500),
                stations: 2,
                airtime: SimDuration::from_micros(12221),
            },
            EventRecord::Backoff {
                t: SimTime::from_micros(600),
                node: 1,
                slots: 10,
                cw: 31,
            },
            EventRecord::Backoff {
                t: SimTime::from_micros(700),
                node: 2,
                slots: 20,
                cw: 63,
            },
            EventRecord::TokenUpdate {
                t: SimTime::from_millis(2),
                client: 0,
                tokens_us: 1000.0,
                rate: 0.5,
                cause: TokenCause::Fill,
            },
            EventRecord::TokenUpdate {
                t: SimTime::from_millis(3),
                client: 0,
                tokens_us: -617.0,
                rate: 0.5,
                cause: TokenCause::Debit,
            },
            EventRecord::Tcp {
                t: SimTime::from_millis(4),
                flow: 1,
                phase: TcpPhase::Rto,
                cwnd: 1.0,
                flight: 0,
            },
            EventRecord::Mac {
                t: SimTime::from_millis(5),
                phase: MacPhase::Drop,
                node: 2,
            },
            EventRecord::QueueChange {
                t: SimTime::from_millis(6),
                site: QueueSite::Ap,
                key: 1,
                len: 3,
            },
        ];
        recs.iter().map(|r| r.to_json_line()).collect()
    }

    #[test]
    fn summarize_aggregates_correctly() {
        let s = summarize(lines());
        assert_eq!(s.total, 11);
        assert_eq!(s.malformed, 0);
        assert_eq!(s.collisions, 1);
        assert_eq!(s.backoffs, 2);
        assert!((s.mean_backoff_slots - 15.0).abs() < 1e-9);
        assert_eq!(s.tcp_rtos, 1);
        assert_eq!(s.stations.len(), 2);
        let n2 = &s.stations[1];
        assert_eq!(n2.node, 2);
        assert_eq!(n2.attempts, 2);
        assert_eq!(n2.successes, 1);
        assert_eq!(n2.retries, 2);
        let share_sum: f64 = s.stations.iter().map(|st| st.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        assert_eq!(s.tokens.len(), 1);
        let tk = &s.tokens[0];
        assert_eq!(tk.updates, 2);
        assert_eq!(tk.fills, 1);
        assert_eq!(tk.debits, 1);
        assert_eq!(tk.min_us, -617.0);
        assert!((tk.negative_frac - 0.5).abs() < 1e-9);
        assert_eq!(s.t_first, Some(SimTime::from_micros(100)));
        assert_eq!(s.t_last, Some(SimTime::from_micros(16000)));
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let mut ls = lines();
        ls.insert(2, "not json at all".to_string());
        ls.push(String::new());
        let s = summarize(ls);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.total, 11);
    }

    #[test]
    fn display_renders_all_sections() {
        let text = summarize(lines()).to_string();
        for needle in [
            "records: 11",
            "by type:",
            "collisions: 1",
            "per-station airtime:",
            "token buckets",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
    }

    #[test]
    fn empty_input_summarizes_cleanly() {
        let s = summarize(Vec::<String>::new());
        assert_eq!(s.total, 0);
        assert!(s.stations.is_empty());
        let _ = s.to_string();
    }
}
