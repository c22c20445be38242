//! Frame airtime arithmetic and MAC timing parameters.
//!
//! Everything the paper measures ultimately reduces to how long a frame
//! exchange occupies the channel, so these numbers are load-bearing: the
//! simulated baseline throughputs of Table 2 come straight out of this
//! module's arithmetic plus DCF contention.

use airtime_sim::SimDuration;

use crate::rates::DataRate;

/// PLCP preamble length for DSSS/CCK transmissions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Preamble {
    /// 144 µs preamble + 48 µs header, both at 1 Mbit/s (192 µs total).
    /// This is the 2004-era default and what the paper's hardware used.
    Long,
    /// 72 µs preamble at 1 Mbit/s + 24 µs header at 2 Mbit/s (96 µs
    /// total). Not permitted for 1 Mbit/s payloads.
    Short,
}

/// MAC-level byte overhead added to an MSDU in a data frame:
/// LLC/SNAP (8) + MAC header (24) + FCS (4).
pub const MAC_DATA_OVERHEAD_BYTES: u64 = 36;

/// Size of an 802.11 ACK control frame in bytes.
pub const ACK_FRAME_BYTES: u64 = 14;

/// Size of an 802.11 RTS control frame in bytes.
pub const RTS_FRAME_BYTES: u64 = 20;

/// Size of an 802.11 CTS control frame in bytes.
pub const CTS_FRAME_BYTES: u64 = 14;

/// 2.4 GHz PHY timing and contention parameters for an 802.11b (or mixed
/// b/g) cell.
///
/// The defaults are the 802.11b values with a long preamble, matching the
/// paper's Prism-2/Cisco-350 testbed. Mixed b/g cells keep the long
/// 20 µs slot, which is why the paper predicts 802.11g brings less than
/// its nominal speed-up when b clients are present.
#[derive(Clone, Copy, Debug)]
pub struct Phy80211b {
    /// Slot time (20 µs for 802.11b and mixed-mode g).
    pub slot: SimDuration,
    /// Short interframe space (10 µs).
    pub sifs: SimDuration,
    /// Minimum contention window (31 for 802.11b).
    pub cw_min: u32,
    /// Maximum contention window (1023).
    pub cw_max: u32,
    /// Retry limit before a frame is dropped (dot11ShortRetryLimit = 7).
    pub retry_limit: u32,
    /// PLCP preamble used for DSSS/CCK frames.
    pub preamble: Preamble,
}

impl Default for Phy80211b {
    fn default() -> Self {
        Phy80211b {
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
            preamble: Preamble::Long,
        }
    }
}

impl Phy80211b {
    /// DIFS = SIFS + 2 × slot (50 µs with defaults).
    pub fn difs(&self) -> SimDuration {
        self.sifs + self.slot * 2
    }

    /// PLCP preamble + header duration for a DSSS/CCK transmission.
    ///
    /// The 1 Mbit/s rate always uses the long preamble, regardless of the
    /// configured policy, as the standard requires.
    pub fn plcp_duration(&self, rate: DataRate) -> SimDuration {
        debug_assert!(!rate.is_ofdm());
        match (self.preamble, rate) {
            (_, DataRate::B1) | (Preamble::Long, _) => SimDuration::from_micros(192),
            (Preamble::Short, _) => SimDuration::from_micros(96),
        }
    }

    /// Airtime of a data frame carrying an `msdu_bytes`-byte payload
    /// (e.g. an IP datagram) at `rate` — PLCP plus MAC framing plus
    /// payload bits.
    pub fn data_tx_time(&self, msdu_bytes: u64, rate: DataRate, preamble: Preamble) -> SimDuration {
        let bits = (msdu_bytes + MAC_DATA_OVERHEAD_BYTES) * 8;
        if rate.is_ofdm() {
            ofdm_tx_time(bits, rate)
        } else {
            let plcp = match (preamble, rate) {
                (_, DataRate::B1) | (Preamble::Long, _) => SimDuration::from_micros(192),
                (Preamble::Short, _) => SimDuration::from_micros(96),
            };
            plcp + SimDuration::for_bits(bits, rate.bps())
        }
    }

    /// Airtime of a data frame using the PHY's configured preamble.
    pub fn data_tx_time_default(&self, msdu_bytes: u64, rate: DataRate) -> SimDuration {
        self.data_tx_time(msdu_bytes, rate, self.preamble)
    }

    /// Airtime of the synchronous MAC ACK answering a data frame sent at
    /// `data_rate` (the ACK itself goes out at `data_rate.ack_rate()`).
    pub fn ack_tx_time(&self, data_rate: DataRate) -> SimDuration {
        let ack_rate = data_rate.ack_rate();
        let bits = ACK_FRAME_BYTES * 8;
        if ack_rate.is_ofdm() {
            ofdm_tx_time(bits, ack_rate)
        } else {
            self.plcp_duration(ack_rate) + SimDuration::for_bits(bits, ack_rate.bps())
        }
    }

    /// Airtime of an RTS control frame protecting a data frame sent at
    /// `data_rate` (RTS goes out at the basic rate).
    pub fn rts_tx_time(&self, data_rate: DataRate) -> SimDuration {
        self.control_tx_time(RTS_FRAME_BYTES, data_rate)
    }

    /// Airtime of a CTS control frame answering an RTS.
    pub fn cts_tx_time(&self, data_rate: DataRate) -> SimDuration {
        self.control_tx_time(CTS_FRAME_BYTES, data_rate)
    }

    fn control_tx_time(&self, bytes: u64, data_rate: DataRate) -> SimDuration {
        let rate = data_rate.ack_rate();
        let bits = bytes * 8;
        if rate.is_ofdm() {
            ofdm_tx_time(bits, rate)
        } else {
            self.plcp_duration(rate) + SimDuration::for_bits(bits, rate.bps())
        }
    }

    /// Channel time of the RTS/CTS handshake preceding a protected data
    /// frame: RTS + SIFS + CTS + SIFS.
    pub fn rts_cts_overhead(&self, data_rate: DataRate) -> SimDuration {
        self.rts_tx_time(data_rate) + self.sifs + self.cts_tx_time(data_rate) + self.sifs
    }

    /// Channel time consumed by one complete successful data exchange:
    /// DIFS + DATA + SIFS + ACK.
    ///
    /// This is the paper's per-packet "channel occupancy time" (§2.3,
    /// items i–iv), excluding random backoff, which is accounted
    /// separately because idle backoff slots are shared by all
    /// contenders.
    pub fn exchange_time(&self, msdu_bytes: u64, rate: DataRate) -> SimDuration {
        self.difs()
            + self.data_tx_time_default(msdu_bytes, rate)
            + self.sifs
            + self.ack_tx_time(rate)
    }

    /// Contention window after `retries` consecutive failures:
    /// CW = min(CWmax, 2^retries × (CWmin + 1) − 1).
    pub fn cw_after(&self, retries: u32) -> u32 {
        let grown = ((self.cw_min as u64 + 1) << retries.min(16)) - 1;
        grown.min(self.cw_max as u64) as u32
    }
}

/// OFDM (802.11g ERP) frame duration: 16 µs preamble + 4 µs SIGNAL +
/// ceil((16 service + bits + 6 tail) / bits-per-symbol) 4 µs symbols +
/// 6 µs signal extension required in the 2.4 GHz band.
fn ofdm_tx_time(bits: u64, rate: DataRate) -> SimDuration {
    let bits_per_symbol = rate.bps() * 4 / 1_000_000; // e.g. 54 Mbit/s → 216
    let symbols = (16 + bits + 6).div_ceil(bits_per_symbol);
    SimDuration::from_micros(20)
        + SimDuration::from_micros(4) * symbols
        + SimDuration::from_micros(6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interframe_spaces() {
        let phy = Phy80211b::default();
        assert_eq!(phy.difs().as_micros(), 50);
    }

    #[test]
    fn data_tx_time_long_preamble() {
        let phy = Phy80211b::default();
        // 1500 B MSDU + 36 B framing = 1536 B = 12288 bits.
        // At 11 Mbit/s: ceil(12288/11) = 1117.09.. → 1117.091 µs + 192.
        let t = phy.data_tx_time(1500, DataRate::B11, Preamble::Long);
        assert_eq!(t.as_nanos(), 192_000 + 1_117_091);
        // At 1 Mbit/s: 12288 µs + 192.
        let t = phy.data_tx_time(1500, DataRate::B1, Preamble::Long);
        assert_eq!(t.as_micros(), 192 + 12_288);
    }

    #[test]
    fn short_preamble_never_applies_to_1m() {
        let phy = Phy80211b {
            preamble: Preamble::Short,
            ..Phy80211b::default()
        };
        let t1 = phy.data_tx_time(100, DataRate::B1, Preamble::Short);
        let t1_long = phy.data_tx_time(100, DataRate::B1, Preamble::Long);
        assert_eq!(t1, t1_long);
        let t11_short = phy.data_tx_time(100, DataRate::B11, Preamble::Short);
        let t11_long = phy.data_tx_time(100, DataRate::B11, Preamble::Long);
        assert_eq!((t11_long - t11_short).as_micros(), 96);
    }

    #[test]
    fn ack_times() {
        let phy = Phy80211b::default();
        // ACK for 11 Mbit/s data goes at 2 Mbit/s: 192 + 56 = 248 µs.
        assert_eq!(phy.ack_tx_time(DataRate::B11).as_micros(), 248);
        // ACK for 1 Mbit/s data goes at 1 Mbit/s: 192 + 112 = 304 µs.
        assert_eq!(phy.ack_tx_time(DataRate::B1).as_micros(), 304);
    }

    #[test]
    fn exchange_time_composition() {
        let phy = Phy80211b::default();
        let t = phy.exchange_time(1500, DataRate::B11);
        let expect = phy.difs()
            + phy.data_tx_time_default(1500, DataRate::B11)
            + phy.sifs
            + phy.ack_tx_time(DataRate::B11);
        assert_eq!(t, expect);
        // Slow exchanges dominate fast ones by roughly the rate ratio.
        let slow = phy.exchange_time(1500, DataRate::B1);
        assert!(slow.as_nanos() > 7 * t.as_nanos());
    }

    #[test]
    fn rts_cts_timing() {
        let phy = Phy80211b::default();
        // RTS: 20 B at 2 Mbit/s behind an 11M data frame: 192 + 80 µs.
        assert_eq!(phy.rts_tx_time(DataRate::B11).as_micros(), 272);
        // CTS: 14 B at 2 Mbit/s: 192 + 56 µs.
        assert_eq!(phy.cts_tx_time(DataRate::B11).as_micros(), 248);
        assert_eq!(
            phy.rts_cts_overhead(DataRate::B11),
            phy.rts_tx_time(DataRate::B11) + phy.sifs + phy.cts_tx_time(DataRate::B11) + phy.sifs
        );
        // At 1 Mbit/s the handshake uses the 1M basic rate.
        assert_eq!(phy.rts_tx_time(DataRate::B1).as_micros(), 192 + 160);
    }

    #[test]
    fn contention_window_growth() {
        let phy = Phy80211b::default();
        assert_eq!(phy.cw_after(0), 31);
        assert_eq!(phy.cw_after(1), 63);
        assert_eq!(phy.cw_after(2), 127);
        assert_eq!(phy.cw_after(5), 1023);
        assert_eq!(phy.cw_after(6), 1023); // clamped at CWmax
        assert_eq!(phy.cw_after(40), 1023); // no overflow
    }

    #[test]
    fn ofdm_durations() {
        let phy = Phy80211b::default();
        // 1500 B at 54 Mbit/s: bits = 1536*8 = 12288; symbols =
        // ceil((16+12288+6)/216) = 57; 20 + 228 + 6 = 254 µs.
        let t = phy.data_tx_time(1500, DataRate::G54, Preamble::Long);
        assert_eq!(t.as_micros(), 254);
        // OFDM ACK at 24 Mbit/s: symbols = ceil((16+112+6)/96) = 2 →
        // 20 + 8 + 6 = 34 µs.
        assert_eq!(phy.ack_tx_time(DataRate::G54).as_micros(), 34);
    }

    #[test]
    fn ofdm_faster_than_cck_for_same_payload() {
        let phy = Phy80211b::default();
        let g6 = phy.data_tx_time_default(1500, DataRate::G6);
        let b11 = phy.data_tx_time_default(1500, DataRate::B11);
        // 6 Mbit/s OFDM is slower per bit than 11 Mbit/s CCK.
        assert!(g6 > b11);
        let g12 = phy.data_tx_time_default(1500, DataRate::G12);
        assert!(g12 < b11);
    }

    #[test]
    fn airtime_monotone_in_size_and_antitone_in_rate() {
        let phy = Phy80211b::default();
        for rate in DataRate::ALL_B {
            let small = phy.data_tx_time_default(100, rate);
            let big = phy.data_tx_time_default(1500, rate);
            assert!(small < big);
        }
        for pair in DataRate::ALL_B.windows(2) {
            let slow = phy.data_tx_time_default(1500, pair[0]);
            let fast = phy.data_tx_time_default(1500, pair[1]);
            assert!(fast < slow);
        }
    }
}
