//! Frame-trace records — what a passive sniffer sees.
//!
//! A [`Trace`] is also the sniffer itself: it is an [`Observer`] that
//! reads only transmission attempts, so attaching one to a simulator
//! run captures every data frame the way a monitor-mode card would.

use airtime_obs::{EventRecord, Hook, Observer};
use airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES;
use airtime_phy::DataRate;
use airtime_sim::{SimDuration, SimTime};

/// One captured data frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameRecord {
    /// Capture timestamp.
    pub at: SimTime,
    /// The client user this frame belongs to (source for uplink,
    /// destination for downlink).
    pub user: usize,
    /// PHY rate the frame was sent at.
    pub rate: DataRate,
    /// Frame size on the air in bytes.
    pub bytes: u64,
    /// True for AP→client frames.
    pub downlink: bool,
}

/// A capture session: records plus the observation span.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Frames in non-decreasing timestamp order.
    pub records: Vec<FrameRecord>,
    /// Length of the observation window.
    pub duration: SimDuration,
}

impl Trace {
    /// Creates an empty trace spanning `duration`.
    pub fn new(duration: SimDuration) -> Self {
        Trace {
            records: Vec::new(),
            duration,
        }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if timestamps go backwards.
    pub fn push(&mut self, rec: FrameRecord) {
        debug_assert!(
            self.records.last().is_none_or(|last| last.at <= rec.at),
            "trace timestamps must be non-decreasing"
        );
        self.records.push(rec);
    }

    /// Total bytes captured.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Serialises the trace as CSV (`t_ns,user,rate_bps,bytes,downlink`
    /// with a header row) for external analysis tooling.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 32 + 64);
        out.push_str(&format!("# duration_ns={}\n", self.duration.as_nanos()));
        out.push_str("t_ns,user,rate_bps,bytes,downlink\n");
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                r.at.as_nanos(),
                r.user,
                r.rate.bps(),
                r.bytes,
                u8::from(r.downlink)
            ));
        }
        out
    }
}

/// The 802.11b or 802.11g rate `pred` selects.
fn find_rate(pred: impl Fn(DataRate) -> bool) -> Option<DataRate> {
    DataRate::ALL_B
        .into_iter()
        .chain(DataRate::ALL_G)
        .find(|&r| pred(r))
}

/// The sniffer: every transmission attempt becomes one captured frame,
/// billed to its client (the AP is node 0, so user = client − 1) and
/// sized on the air (payload plus MAC header and FCS).
impl Observer for Trace {
    fn wants(&self, hook: Hook) -> bool {
        hook == Hook::TxAttempt
    }

    fn on_record(&mut self, rec: EventRecord) {
        let EventRecord::TxAttempt {
            t,
            node,
            client,
            bytes,
            rate_mbps,
            ..
        } = rec
        else {
            return;
        };
        self.push(FrameRecord {
            at: t,
            user: client as usize - 1,
            rate: find_rate(|r| r.mbps() == rate_mbps)
                .unwrap_or_else(|| panic!("no 802.11b/g rate of {rate_mbps} Mbit/s")),
            bytes: bytes + MAC_DATA_OVERHEAD_BYTES,
            downlink: node == 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ms: u64, user: usize, bytes: u64) -> FrameRecord {
        FrameRecord {
            at: SimTime::from_millis(t_ms),
            user,
            rate: DataRate::B11,
            bytes,
            downlink: false,
        }
    }

    #[test]
    fn accumulates_and_counts() {
        let mut t = Trace::new(SimDuration::from_secs(1));
        t.push(rec(0, 0, 100));
        t.push(rec(5, 2, 200));
        t.push(rec(5, 0, 300));
        assert_eq!(t.total_bytes(), 600);
        assert_eq!(t.records.len(), 3);
    }

    #[test]
    fn sniffer_rebuilds_frames_from_attempts() {
        let attempt = |node, client, rate_mbps| EventRecord::TxAttempt {
            t: SimTime::from_millis(3),
            node,
            client,
            bytes: 1500,
            rate_mbps,
            success: false,
            retry: 1,
            airtime: SimDuration::from_micros(1617),
        };
        let mut t = Trace::new(SimDuration::from_secs(1));
        assert!(t.wants(Hook::TxAttempt) && !t.wants(Hook::AirtimeSlice));
        t.on_tx_attempt(attempt(0, 2, 5.5));
        t.on_tx_attempt(attempt(1, 1, 54.0));
        let frame = |user, rate, downlink| FrameRecord {
            at: SimTime::from_millis(3),
            user,
            rate,
            bytes: 1500 + MAC_DATA_OVERHEAD_BYTES,
            downlink,
        };
        assert_eq!(
            t.records,
            vec![
                frame(1, DataRate::B5_5, true),
                frame(0, DataRate::G54, false)
            ]
        );
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(SimDuration::from_secs(1));
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn csv_has_header_and_one_row_per_frame() {
        let mut t = Trace::new(SimDuration::from_secs(2));
        t.push(rec(7, 3, 40));
        let mut far = rec(1999, 1, 1500);
        far.rate = DataRate::G54;
        far.downlink = true;
        t.push(far);
        assert_eq!(
            t.to_csv(),
            "# duration_ns=2000000000\n\
             t_ns,user,rate_bps,bytes,downlink\n\
             7000000,3,11000000,40,0\n\
             1999000000,1,54000000,1500,1\n"
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    #[cfg(debug_assertions)]
    fn rejects_time_travel() {
        let mut t = Trace::new(SimDuration::from_secs(1));
        t.push(rec(10, 0, 1));
        t.push(rec(5, 0, 1));
    }
}
