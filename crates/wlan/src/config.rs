//! Experiment configuration types.

use airtime_net::TcpConfig;
use airtime_phy::{DataRate, PathLossModel, Phy80211b, Wall};
use airtime_sim::{SimDuration, SimTime};

// The scheduler family registry lives in `airtime-sched` (the pluggable
// fairness-policy subsystem); re-exported here so experiment configs
// keep writing `airtime_wlan::SchedulerKind`.
pub use airtime_sched::SchedulerKind;

pub use airtime_core::ConfigError;

/// The most stations one cell may hold: four times the largest
/// scaling preset (1,024). A station list built past it is a typo,
/// not an experiment, and would exhaust memory while it is replicated.
pub const MAX_STATIONS: usize = 4096;

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

impl LinkSpec {
    /// The rate the link starts at: the fixed rate, or a geometry
    /// link's initial ARF rate.
    pub fn rate(&self) -> DataRate {
        match self {
            LinkSpec::Fixed { rate, .. } => *rate,
            LinkSpec::Path { initial_rate, .. } => *initial_rate,
        }
    }
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

    /// Checks the flow against the run it belongs to: a rate limit must
    /// be positive, finite and fast enough to release one packet within
    /// `run.duration` (a slower pacer would never send).
    pub fn validate(&self, run: &NetworkConfig) -> Result<(), ConfigError> {
        let Some(bps) = self.rate_limit_bps else {
            return Ok(());
        };
        let field = "rate_limit_bps";
        if !(bps.is_finite() && bps > 0.0) {
            let rule = format!("expects a positive, finite bit rate, got {bps}");
            return Err(ConfigError::key(field, &rule));
        }
        let bytes = self.paced_packet_bytes(run);
        let secs = run.duration.as_secs_f64();
        let min_bps = (bytes * 8) as f64 / secs;
        if bps < min_bps {
            let rule = format!(
                "= {bps:?} cannot release one {bytes}-byte packet within duration_s = {secs}; \
                 the minimum is {min_bps} bit/s"
            );
            return Err(ConfigError::key(field, &rule));
        }
        Ok(())
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
    /// Checks the link (`fer` in [0, 1), `distance_ft` finite and
    /// non-negative), the weight (positive, finite) and every flow,
    /// naming the offending flow's index.
    pub fn validate(&self, run: &NetworkConfig) -> Result<(), ConfigError> {
        match &self.link {
            LinkSpec::Fixed { fer, .. } => ConfigError::check(
                (0.0..1.0).contains(fer),
                "fer",
                "expects a fraction in [0, 1)",
            ),
            LinkSpec::Path { distance_ft: d, .. } => {
                let rule = "expects a finite distance >= 0";
                ConfigError::check(d.is_finite() && *d >= 0.0, "distance_ft", rule)
            }
        }?;
        let w = self.weight;
        ConfigError::check(
            w > 0.0 && w.is_finite(),
            "weight",
            "expects a positive number",
        )?;
        for (i, flow) in self.flows.iter().enumerate() {
            flow.validate(run)
                .map_err(|e| ConfigError { flow: Some(i), ..e })?;
        }
        Ok(())
    }

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

    /// Checks every range rule on the config and names the first
    /// offending field, with its station and flow index for per-station
    /// and per-flow rules. The station count comes last, so a config
    /// whose only fault is an empty station list reports `stations`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let run = !self.duration.is_zero();
        ConfigError::check(run, "duration_s", "expects a positive duration")?;
        for (i, st) in self.stations.iter().enumerate() {
            st.validate(self).map_err(|e| ConfigError {
                station: Some(i),
                ..e
            })?;
        }
        if self.warmup >= self.duration {
            let msg = "warmup_s must be smaller than duration_s";
            return Err(ConfigError::new("warmup_s", msg));
        }
        // With no room, no uplink packet or TCP ack could leave a client;
        // a saturating uplink fills all the room there is, packet by packet.
        let cap = (1..=100_000).contains(&self.client_queue_cap);
        let rule = "expects a positive packet count, at most 100000";
        ConfigError::check(cap, "client_queue_cap", rule)?;
        self.scheduler.validate()?;
        let n = self.stations.len();
        if n == 0 || n > MAX_STATIONS {
            let msg = format!("a cell holds 1 to {MAX_STATIONS} stations, got {n}");
            return Err(ConfigError::new("stations", msg));
        }
        Ok(())
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

    /// A valid two-station TBR cell: 11 Mb/s TCP up, and a 1 Mb/s
    /// station with a TCP flow and a paced UDP flow, over 4 s.
    fn cell() -> NetworkConfig {
        let mut slow = StationConfig::tcp_at(DataRate::B1, Direction::Uplink);
        let mut udp = FlowSpec::udp(Direction::Downlink);
        udp.rate_limit_bps = Some(100_000.0);
        slow.flows.push(udp);
        let fast = StationConfig::tcp_at(DataRate::B11, Direction::Uplink);
        let mut cfg = NetworkConfig::new(vec![fast, slow], SchedulerKind::tbr());
        cfg.duration = SimDuration::from_secs(4);
        cfg.warmup = SimDuration::from_secs(1);
        cfg
    }

    /// The error `edit` provokes: its field, station and flow index, and
    /// its message.
    fn broken(edit: impl FnOnce(&mut NetworkConfig)) -> ConfigError {
        let mut cfg = cell();
        edit(&mut cfg);
        cfg.validate().expect_err("the edit breaks a rule")
    }

    #[test]
    fn the_builders_and_presets_are_valid() {
        cell().validate().unwrap();
        for kind in [SchedulerKind::Fifo, SchedulerKind::tbr()] {
            crate::scenarios::exp1_office(kind.clone())
                .validate()
                .unwrap();
            let rates = [DataRate::B11, DataRate::B1];
            crate::scenarios::uploaders(&rates, kind)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn run_wide_rules_name_their_field() {
        let e = broken(|c| c.duration = SimDuration::ZERO);
        assert_eq!(e.field, "duration_s");
        assert_eq!(e.msg, "key 'duration_s' expects a positive duration");
        for warmup in [4, 5] {
            let e = broken(|c| c.warmup = SimDuration::from_secs(warmup));
            assert_eq!(e.field, "warmup_s");
            assert_eq!(e.msg, "warmup_s must be smaller than duration_s");
        }
        for cap in [0, 100_001] {
            let e = broken(|c| c.client_queue_cap = cap);
            assert_eq!(e.field, "client_queue_cap");
            assert!(e.msg.contains("expects a positive packet count"), "{e}");
        }
        let mut cfg = cell();
        cfg.client_queue_cap = 100_000;
        cfg.validate().unwrap();
        let e = broken(|c| {
            if let SchedulerKind::Tbr(t) = &mut c.scheduler {
                t.bucket = SimDuration::ZERO;
            }
        });
        assert_eq!(
            (e.field, e.msg.as_str()),
            ("bucket_ms", "bucket must be positive")
        );
        assert_eq!((e.station, e.flow, e.cell), (None, None, None));
    }

    #[test]
    fn station_count_is_between_one_and_the_cap() {
        let e = broken(|c| c.stations.clear());
        assert_eq!(e.field, "stations");
        assert!(e.msg.contains("got 0"), "{e}");
        let e = broken(|c| c.stations = vec![c.stations[0].clone(); MAX_STATIONS + 1]);
        assert_eq!(e.field, "stations");
        assert!(
            e.msg
                .contains(&format!("1 to {MAX_STATIONS} stations, got 4097")),
            "{e}"
        );
        let mut cfg = cell();
        cfg.stations = vec![cfg.stations[0].clone(); MAX_STATIONS];
        cfg.validate().unwrap();
    }

    #[test]
    fn link_and_weight_rules_name_the_station() {
        for fer in [1.0, -0.1, f64::NAN] {
            let e = broken(|c| {
                c.stations[1].link = LinkSpec::Fixed {
                    rate: DataRate::B1,
                    fer,
                }
            });
            assert_eq!((e.field, e.station, e.flow), ("fer", Some(1), None));
            assert_eq!(e.msg, "key 'fer' expects a fraction in [0, 1)");
        }
        for distance_ft in [-50.0, f64::NAN, f64::INFINITY] {
            let e = broken(|c| {
                c.stations[0].link = LinkSpec::Path {
                    distance_ft,
                    walls: Vec::new(),
                    shadow_db: 0.0,
                    initial_rate: DataRate::B11,
                }
            });
            assert_eq!((e.field, e.station), ("distance_ft", Some(0)));
            assert_eq!(e.msg, "key 'distance_ft' expects a finite distance >= 0");
        }
        let mut cfg = cell();
        cfg.stations[0].link = LinkSpec::Path {
            distance_ft: 0.0,
            walls: Vec::new(),
            shadow_db: 0.0,
            initial_rate: DataRate::B11,
        };
        cfg.validate().unwrap();
        for weight in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let e = broken(|c| c.stations[1].weight = weight);
            assert_eq!((e.field, e.station), ("weight", Some(1)));
            assert_eq!(e.msg, "key 'weight' expects a positive number");
        }
    }

    #[test]
    fn rate_limit_rules_name_the_station_and_flow() {
        for bps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let e = broken(|c| c.stations[1].flows[1].rate_limit_bps = Some(bps));
            assert_eq!(
                (e.field, e.station, e.flow),
                ("rate_limit_bps", Some(1), Some(1))
            );
            assert!(e
                .msg
                .starts_with("key 'rate_limit_bps' expects a positive, finite bit rate"));
        }
        // One 1500-byte datagram in 4 s needs 3000 bit/s; one 1460-byte
        // TCP segment 2920 bit/s.
        let e = broken(|c| c.stations[1].flows[1].rate_limit_bps = Some(2999.0));
        assert_eq!(
            e.msg,
            "key 'rate_limit_bps' = 2999.0 cannot release one 1500-byte packet within \
             duration_s = 4; the minimum is 3000 bit/s"
        );
        assert_eq!(
            e.to_string(),
            format!("station 1: flow 1: {}", e.msg),
            "the display names where the field sits"
        );
        let e = broken(|c| c.stations[0].flows[0].rate_limit_bps = Some(1e-300));
        assert_eq!((e.station, e.flow), (Some(0), Some(0)));
        assert!(e.msg.ends_with("the minimum is 2920 bit/s"), "{e}");
        let mut cfg = cell();
        cfg.stations[0].flows[0].rate_limit_bps = Some(2920.0);
        cfg.stations[1].flows[1].rate_limit_bps = Some(3000.0);
        cfg.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "station 1: key 'weight' expects a positive number")]
    fn run_panics_with_the_validators_message() {
        let mut cfg = cell();
        cfg.stations[1].weight = 0.0;
        crate::run(&cfg);
    }
}
