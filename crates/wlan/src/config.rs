//! Experiment configuration types.

use airtime_net::TcpConfig;
use airtime_phy::{DataRate, PathLossModel, Phy80211b, Wall};
use airtime_sim::{SimDuration, SimTime};

// The scheduler family registry lives in `airtime-sched` (the pluggable
// fairness-policy subsystem); re-exported here so experiment configs
// keep writing `airtime_wlan::SchedulerKind`.
pub use airtime_sched::SchedulerKind;

/// Radio link between one client and the AP.
#[derive(Clone, Debug)]
pub enum LinkSpec {
    /// Fixed data rate with an optional flat frame error rate — the
    /// paper's manual-rate experiments ("each node has a similar frame
    /// loss rate of less than 2%").
    Fixed {
        /// Data rate for every frame on this link.
        rate: DataRate,
        /// Flat frame error rate (0.0–1.0).
        fer: f64,
    },
    /// Distance/walls geometry with SNR-driven errors and ARF rate
    /// adaptation — the EXP-1 office setup.
    Path {
        /// Distance from the AP in feet (the paper quotes feet).
        distance_ft: f64,
        /// Walls on the direct path.
        walls: Vec<Wall>,
        /// Site-specific shadowing in dB (see `airtime-phy` docs).
        shadow_db: f64,
        /// Initial ARF rate.
        initial_rate: DataRate,
    },
}

/// What entity the AP scheduler's queues and airtime accounts key on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regulate {
    /// One queue/account per client station — the paper's default
    /// notion (§2.2: fairness among competing *nodes*).
    PerStation,
    /// One queue/account per flow — the §4.5 extension ("TBR ... can
    /// be extended to allocate channel time among various flows of
    /// each node").
    PerFlow,
}

/// Flow direction relative to the wireless client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Client sends to a wired host.
    Uplink,
    /// A wired host sends to the client.
    Downlink,
}

/// Transport protocol of a flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Transport {
    /// Ack-clocked TCP (Reno/NewReno).
    Tcp,
    /// UDP datagrams (saturating unless rate-paced).
    Udp,
}

/// One traffic flow attached to a station.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// TCP or UDP.
    pub transport: Transport,
    /// Uplink or downlink.
    pub direction: Direction,
    /// When the flow starts.
    pub start: SimTime,
    /// `Some(bytes)` = task model (completes and reports its time);
    /// `None` = fluid model (runs forever).
    pub task_bytes: Option<u64>,
    /// Application-level rate limit in bit/s (the paper's Table 4
    /// bottleneck sender), or UDP pacing rate. `None` = greedy.
    pub rate_limit_bps: Option<f64>,
}

/// Size of every UDP datagram the engine sends, headers included.
pub(crate) const UDP_DATAGRAM_BYTES: u64 = 1500;

impl FlowSpec {
    /// The bytes one packet of this flow draws from its rate limiter:
    /// a UDP datagram, or one TCP segment of `cfg.tcp.mss` bytes.
    pub fn paced_packet_bytes(&self, cfg: &NetworkConfig) -> u64 {
        match self.transport {
            Transport::Udp => UDP_DATAGRAM_BYTES,
            Transport::Tcp => cfg.tcp.mss,
        }
    }

    /// A greedy TCP flow in `direction`, fluid model.
    pub fn tcp(direction: Direction) -> Self {
        FlowSpec {
            transport: Transport::Tcp,
            direction,
            start: SimTime::ZERO,
            task_bytes: None,
            rate_limit_bps: None,
        }
    }

    /// A saturating UDP flow in `direction`.
    pub fn udp(direction: Direction) -> Self {
        FlowSpec {
            transport: Transport::Udp,
            direction,
            start: SimTime::ZERO,
            task_bytes: None,
            rate_limit_bps: None,
        }
    }
}

/// One client station: its link plus its flows.
#[derive(Clone, Debug)]
pub struct StationConfig {
    /// Radio link description.
    pub link: LinkSpec,
    /// Flows terminating at this station.
    pub flows: Vec<FlowSpec>,
    /// QoS weight for schedulers that support weighted shares (the
    /// §4.5 extension): TBR, weighted DRR, PF, and max-min. 1.0 = equal
    /// share; must be positive. Families without a weighted mode
    /// (FIFO, RR, TXOP) ignore it.
    pub weight: f64,
}

impl StationConfig {
    /// A station at a fixed rate with a low (1%) loss floor and one
    /// greedy TCP flow in `direction` — the paper's standard node.
    pub fn tcp_at(rate: DataRate, direction: Direction) -> Self {
        StationConfig {
            link: LinkSpec::Fixed { rate, fer: 0.01 },
            flows: vec![FlowSpec::tcp(direction)],
            weight: 1.0,
        }
    }
}

/// A complete experiment description. All fields are plain data; two
/// runs of the same config are bit-identical.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Client stations (the AP is implicit).
    pub stations: Vec<StationConfig>,
    /// AP queue discipline.
    pub scheduler: SchedulerKind,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Measurement warm-up to discard (slow start, queue fill).
    pub warmup: SimDuration,
    /// Master RNG seed.
    pub seed: u64,
    /// PHY parameters.
    pub phy: Phy80211b,
    /// Path-loss model for [`LinkSpec::Path`] stations.
    pub path_loss: PathLossModel,
    /// TCP stack parameters.
    pub tcp: TcpConfig,
    /// One-way wired backbone latency.
    pub wired_delay: SimDuration,
    /// Client interface queue capacity in packets.
    pub client_queue_cap: usize,
    /// When true, the AP learns true uplink retransmission counts (the
    /// paper's proposed 4-bit retry header, §4.2). When false — the
    /// paper's actual implementation — uplink airtime is estimated as a
    /// single transfer, slightly biasing TBR toward lossy slow nodes.
    pub uplink_retry_info: bool,
    /// The §4.1 client-cooperation extension: clients defer uplink
    /// transmissions while their airtime balance is negative (needed
    /// only for heavy uplink UDP).
    pub client_cooperation: bool,
    /// Multi-rate retry chains at the MAC (real rate-adaptive cards).
    /// Off for the paper's manually-pinned-rate experiments; on for the
    /// EXP-1 office scenario.
    pub retry_rate_fallback: bool,
    /// Rate-control parameters for [`LinkSpec::Path`] stations.
    pub arf: airtime_phy::ArfConfig,
    /// RTS/CTS protection threshold in on-air bytes (`None` = off).
    pub rts_threshold: Option<u64>,
    /// Regulation granularity (stations vs flows).
    pub regulate: Regulate,
    /// The §4.2 heuristic the paper left as future work: when uplink
    /// retry counts are unavailable, scale each uplink frame's airtime
    /// estimate by 1/(1−p̂), where p̂ is an EWMA of the client link's
    /// observed downlink attempt failures. Ignored when
    /// `uplink_retry_info` is set.
    pub uplink_loss_estimator: bool,
}

impl NetworkConfig {
    /// A config with the defaults used throughout the evaluation:
    /// 30 s runs with 3 s warm-up, 2 ms wired RTT component, stock PHY.
    pub fn new(stations: Vec<StationConfig>, scheduler: SchedulerKind) -> Self {
        NetworkConfig {
            stations,
            scheduler,
            duration: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(3),
            seed: 1,
            phy: Phy80211b::default(),
            path_loss: PathLossModel::default(),
            tcp: TcpConfig::default(),
            wired_delay: SimDuration::from_millis(1),
            client_queue_cap: 50,
            uplink_retry_info: false,
            client_cooperation: false,
            retry_rate_fallback: false,
            arf: airtime_phy::ArfConfig::default(),
            rts_threshold: None,
            regulate: Regulate::PerStation,
            uplink_loss_estimator: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_sane_defaults() {
        let st = StationConfig::tcp_at(DataRate::B11, Direction::Uplink);
        assert_eq!(st.flows.len(), 1);
        assert_eq!(st.flows[0].transport, Transport::Tcp);
        let cfg = NetworkConfig::new(vec![st], SchedulerKind::Fifo);
        assert_eq!(cfg.stations.len(), 1);
        assert!(cfg.warmup < cfg.duration);
        assert!(!cfg.uplink_retry_info);
    }

    #[test]
    fn flow_spec_helpers() {
        let u = FlowSpec::udp(Direction::Downlink);
        assert_eq!(u.transport, Transport::Udp);
        assert_eq!(u.direction, Direction::Downlink);
        assert!(u.task_bytes.is_none());
        let t = FlowSpec::tcp(Direction::Uplink);
        assert_eq!(t.transport, Transport::Tcp);
    }
}
