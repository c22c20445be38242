//! Compiling a parsed scenario document into a runnable
//! [`NetworkConfig`].
//!
//! The compiler is strict: every key is checked against the schema for
//! its section and unknown keys are errors naming the line and the
//! accepted alternatives — a typo in a scenario file fails fast instead
//! of silently running the default experiment.
//!
//! The format, by section (all keys optional unless noted):
//!
//! ```toml
//! name = "fig2-dcf-anomaly"   # document name (defaults to "scenario")
//! seed = 1                    # master RNG seed
//! duration_s = 60             # simulated seconds (int or float)
//! warmup_s = 5                # measurement warm-up to discard
//! direction = "up"            # default flow direction: up | down
//! station_count = 4           # replicate declared stations cyclically
//!
//! [scheduler]
//! kind = "tbr"                # fifo | rr | drr | tbr | txop | pf | maxmin
//! bucket_ms = 20              # TBR/TXOP parameter tables, see below
//!
//! [[station]]                 # at least one station is required
//! rate = "11"                 # fixed-rate link: Mbit/s from the
//!                             # 802.11b/g set ("5.5" needs quotes)
//! fer = 0.01                  # flat frame error rate
//! weight = 1.0                # QoS weight (tbr, drr, pf, maxmin)
//! transport = "tcp"           # tcp | udp (one implicit flow)
//! # … or a geometry link:
//! # distance_ft = 26
//! # walls = ["thin_wood", "thick"]
//! # shadow_db = 33.8
//! # initial_rate = "11"
//!
//! [[station.flow]]            # explicit flows override the implicit one
//! transport = "tcp"
//! direction = "down"
//! start_s = 1.5
//! task_bytes = 1000000
//! rate_limit_bps = 2100000.0
//!
//! [check]
//! property = "auto"           # auto | airtime_fair | throughput_fair | none
//! tolerance = 0.15
//! strict = false              # non-zero exit when a cell fails
//!
//! [sweep]                     # see crate::sweep
//! scheduler = ["rr", "tbr"]
//! "station.1.rate" = ["5.5", "2", "1"]
//! ```
//!
//! Compiling is linear in the document. Each `[[station]]` reads its
//! `[[station.flow]]` and `[[station.mobility]]` tables from its own
//! range of the child index ([`Doc::families`]), built in one pass; a
//! sub-table above every `[[station]]` is a `file:line` error. The
//! compiler only reads the document: [`crate::sweep::expand`] copies it
//! once per sweep cell to write that cell's axis values, and a document
//! without a `[sweep]` is compiled as it stands.
//!
//! Declaring one or more `[[cells]]` tables turns the scenario into a
//! multi-cell topology run (`airtime-topo`): stations gain positions
//! and optional waypoint mobility, and the sweep's per-job engine
//! becomes the lockstep multi-cell driver with roaming metrics and
//! per-cell airtime audits.
//!
//! ```toml
//! [topology]                  # optional; requires [[cells]]
//! hysteresis_db = 6.0         # handoff margin
//! min_rssi_dbm = -94.0        # association floor (default: rate set's)
//! assoc_tick_ms = 100         # management-plane cadence
//! rate_set = "b"              # b | g | a (floor + auto-rate table)
//!
//! [[cells]]                   # one per AP
//! x_ft = 0.0
//! y_ft = 0.0
//! channel = 1                 # same channel => shared medium
//!
//! [[station]]                 # stations gain placement keys
//! rate = "11"
//! x_ft = 0.0
//! y_ft = 10.0
//! auto_rate = false           # true: re-pick rate from RSSI each tick
//!
//! [[station.mobility]]        # at most one per station
//! speed_fps = 15.0
//! x_ft = [0.0, 300.0]         # waypoint coordinates, pairwise
//! y_ft = [10.0, 10.0]
//! ```

use airtime_phy::{DataRate, RateSet, Wall};
use airtime_sim::{SimDuration, SimTime};
use airtime_topo::{CellSpec, Placement, Point, RatePolicy, TopologyConfig, WaypointPath};
use airtime_wlan::{
    ConfigError, Direction, FlowSpec, LinkSpec, NetworkConfig, Regulate, SchedulerKind,
    StationConfig, Transport, MAX_STATIONS,
};

use crate::toml::{Doc, Entry, Family, Table, Value};

/// A compile failure with its source line (mirrors
/// [`crate::toml::ParseError`] so the CLI prints both the same way).
pub type CompileError = crate::toml::ParseError;

/// Refuses to run a compiled scenario that has no stations of its own:
/// a `[tournament]` document, whose rate mixes supply them.
pub(crate) fn check_runnable(doc: &Doc, spec: &ScenarioSpec) -> Result<(), CompileError> {
    if !spec.cfg.stations.is_empty() {
        return Ok(());
    }
    err(
        doc.table("tournament").map_or(1, |t| t.line),
        "scenario declares no [[station]] tables; its [tournament] section supplies \
         them, so run it with `airtime-cli tournament`",
    )
}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError {
        line,
        msg: msg.into(),
    })
}

/// Maps a validator's error to the line of the key that set the
/// offending field: the first of `tables` holding it, else the first
/// table's own line (a default broke the rule). The range rules
/// themselves live on the config types.
fn locate(e: ConfigError, tables: &[&Table]) -> CompileError {
    let line = tables
        .iter()
        .find_map(|t| t.get(e.field))
        .map_or(tables[0].line, |k| k.line);
    CompileError { line, msg: e.msg }
}

/// Which baseline property a sweep cell is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckProperty {
    /// Pick by scheduler: time-based disciplines (TBR, TXOP) must share
    /// *airtime* evenly; packet-based ones (FIFO, RR, DRR) share
    /// *throughput* evenly (the DCF anomaly, Figure 2).
    Auto,
    /// Max deviation of any station's airtime share from `1/n` must be
    /// within tolerance.
    AirtimeFair,
    /// Jain's index of per-station goodput must be at least
    /// `1 − tolerance`.
    ThroughputFair,
    /// No check; cells report `skip`.
    None,
}

/// The `[check]` section.
#[derive(Clone, Copy, Debug)]
pub struct CheckSpec {
    /// Property to verify per cell.
    pub property: CheckProperty,
    /// Allowed deviation (see [`CheckProperty`]).
    pub tolerance: f64,
    /// When true, a failing cell makes the sweep exit non-zero.
    pub strict: bool,
}

impl Default for CheckSpec {
    fn default() -> Self {
        CheckSpec {
            property: CheckProperty::Auto,
            tolerance: 0.15,
            strict: false,
        }
    }
}

/// A compiled scenario: everything one job needs to run and label
/// itself.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Document name.
    pub name: String,
    /// The runnable configuration.
    pub cfg: NetworkConfig,
    /// Baseline-property check settings.
    pub check: CheckSpec,
    /// Display label per station (`11M`, `5.5M`, or `path` for
    /// geometry links).
    pub rate_labels: Vec<String>,
    /// Multi-cell topology, when the scenario declares `[[cells]]`
    /// tables. `topo.base` is a clone of `cfg` — the sweep engine runs
    /// the topology driver instead of the single-cell engine.
    pub topo: Option<TopologyConfig>,
}

// ---- typed accessors ----------------------------------------------------

/// The value of `e` as `get` reads it, or a diagnostic saying that the
/// key expects `what`.
fn want<'a, T>(
    e: &'a Entry,
    what: &str,
    get: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, CompileError> {
    get(&e.value).ok_or_else(|| CompileError {
        line: e.line,
        msg: format!(
            "key '{}' expects {what}, got {}",
            e.key,
            e.value.type_name()
        ),
    })
}

/// Sets `slot` from `t`'s `key`, read by `read`, when the table has it.
fn set<T>(
    t: &Table,
    key: &str,
    slot: &mut T,
    read: impl FnOnce(&Entry) -> Result<T, CompileError>,
) -> Result<(), CompileError> {
    if let Some(e) = t.get(key) {
        *slot = read(e)?;
    }
    Ok(())
}

fn want_str(e: &Entry) -> Result<&str, CompileError> {
    want(e, "a string", Value::as_str)
}

fn want_f64(e: &Entry) -> Result<f64, CompileError> {
    want(e, "a number", Value::as_f64)
}

fn want_u64(e: &Entry) -> Result<u64, CompileError> {
    want(e, "a non-negative integer", |v| {
        v.as_i64().and_then(|i| u64::try_from(i).ok())
    })
}

fn want_bool(e: &Entry) -> Result<bool, CompileError> {
    want(e, "true or false", Value::as_bool)
}

/// The longest duration any `*_s`/`*_ms` key (or the CLI's `--secs`)
/// accepts: one simulated day. Far above every shipped preset, and far
/// below the point where nanosecond arithmetic saturates, so a typo
/// like `duration_s = 1e30` fails here instead of never finishing.
pub const MAX_DURATION_SECS: u64 = 86_400;

/// Parses a non-negative duration key given in units of `unit_ns`
/// nanoseconds, capped at [`MAX_DURATION_SECS`].
fn duration(e: &Entry, unit_ns: f64, unit: &str) -> Result<SimDuration, CompileError> {
    let v = want_f64(e)?;
    if v < 0.0 || !v.is_finite() {
        return err(e.line, format!("key '{}' expects {unit} >= 0", e.key));
    }
    let ns = (v * unit_ns).round();
    if ns > SimDuration::from_secs(MAX_DURATION_SECS).as_nanos() as f64 {
        return err(
            e.line,
            format!(
                "key '{}' is longer than one simulated day ({MAX_DURATION_SECS} s)",
                e.key
            ),
        );
    }
    Ok(SimDuration::from_nanos(ns as u64))
}

fn duration_secs(e: &Entry) -> Result<SimDuration, CompileError> {
    duration(e, 1e9, "seconds")
}

fn duration_millis(e: &Entry) -> Result<SimDuration, CompileError> {
    duration(e, 1e6, "milliseconds")
}

/// Parses a data rate given as a string (`"11"`, `"5.5"`, `"54"`) or a
/// bare number (`11`, `5.5`).
pub fn parse_rate(e: &Entry) -> Result<DataRate, CompileError> {
    let tok = match &e.value {
        Value::Str(s) => s.trim().trim_end_matches('M').to_string(),
        Value::Int(i) => i.to_string(),
        // A long float (`1e-300` is 300 digits in full) prints as `1e-300`.
        Value::Float(f) if format!("{f}").len() > 16 => format!("{f:e}"),
        Value::Float(f) => format!("{f}"),
        other => {
            return err(
                e.line,
                format!(
                    "key '{}' expects a rate in Mbit/s, got {}",
                    e.key,
                    other.type_name()
                ),
            )
        }
    };
    match rate_from_token(&tok) {
        Some(rate) => Ok(rate),
        None => err(
            e.line,
            format!(
                "unknown rate '{tok}'; expected one of 1, 2, 5.5, 11, 6, 9, 12, 18, 24, 36, 48, 54"
            ),
        ),
    }
}

/// Maps a bare rate token (`"11"`, `"5.5"`, with or without a trailing
/// `M`) to its [`DataRate`] of 802.11b/g; `None` for anything else.
pub fn rate_from_token(tok: &str) -> Option<DataRate> {
    let mbps: f64 = tok.trim().trim_end_matches('M').parse().ok()?;
    let mut rates = DataRate::ALL_B.into_iter().chain(DataRate::ALL_G);
    rates.find(|r| r.mbps() == mbps)
}

fn parse_direction(e: &Entry) -> Result<Direction, CompileError> {
    direction_from(want_str(e)?, e.line)
}

/// Maps a direction token (`up`/`uplink`, `down`/`downlink`) written
/// at `line` to its [`Direction`].
pub(crate) fn direction_from(tok: &str, line: usize) -> Result<Direction, CompileError> {
    match tok.trim() {
        "up" | "uplink" => Ok(Direction::Uplink),
        "down" | "downlink" => Ok(Direction::Downlink),
        other => err(
            line,
            format!("unknown direction '{other}'; expected up or down"),
        ),
    }
}

fn parse_transport(e: &Entry) -> Result<Transport, CompileError> {
    match want_str(e)? {
        "tcp" => Ok(Transport::Tcp),
        "udp" => Ok(Transport::Udp),
        other => err(
            e.line,
            format!("unknown transport '{other}'; expected tcp or udp"),
        ),
    }
}

pub(crate) fn check_keys(
    table: &Table,
    section: &str,
    allowed: &[&str],
) -> Result<(), CompileError> {
    for e in &table.entries {
        if !allowed.contains(&e.key.as_str()) {
            return err(
                e.line,
                format!(
                    "unknown key '{}' in [{}]; expected one of: {}",
                    e.key,
                    section,
                    allowed.join(", ")
                ),
            );
        }
    }
    Ok(())
}

// ---- sections -----------------------------------------------------------

const ROOT_KEYS: &[&str] = &[
    "name",
    "seed",
    "duration_s",
    "warmup_s",
    "direction",
    "station_count",
    "wired_delay_ms",
    "client_queue_cap",
    "uplink_retry_info",
    "uplink_loss_estimator",
    "client_cooperation",
    "retry_rate_fallback",
    "rts_threshold",
    "regulate",
];

const STATION_KEYS: &[&str] = &[
    "rate",
    "fer",
    "weight",
    "count",
    "distance_ft",
    "walls",
    "shadow_db",
    "initial_rate",
    "transport",
    "direction",
    "start_s",
    "task_bytes",
    "rate_limit_bps",
    "x_ft",
    "y_ft",
    "auto_rate",
];

/// Station keys that only mean something in a `[[cells]]` topology.
const PLACEMENT_KEYS: &[&str] = &["x_ft", "y_ft", "auto_rate"];

const TOPOLOGY_KEYS: &[&str] = &["hysteresis_db", "min_rssi_dbm", "assoc_tick_ms", "rate_set"];

const CELLS_KEYS: &[&str] = &["x_ft", "y_ft", "channel"];

const MOBILITY_KEYS: &[&str] = &["speed_fps", "x_ft", "y_ft"];

const FLOW_KEYS: &[&str] = &[
    "transport",
    "direction",
    "start_s",
    "task_bytes",
    "rate_limit_bps",
];

const SCHEDULER_KEYS: &[&str] = &[
    "kind",
    "fill_period_ms",
    "adjust_period_ms",
    "bucket_ms",
    "initial_tokens_ms",
    "excess_threshold",
    "demand_threshold",
    "min_rate",
    "donation_streak",
    "restitution",
    "total_buffer",
    "quantum_ms",
    "beta",
    "rate_ewma",
];

const CHECK_KEYS: &[&str] = &["property", "tolerance", "strict"];

fn compile_scheduler(doc: &Doc) -> Result<SchedulerKind, CompileError> {
    let Some(t) = doc.table("scheduler") else {
        return Ok(SchedulerKind::tbr());
    };
    check_keys(t, "scheduler", SCHEDULER_KEYS)?;
    let mut kind = match t.get("kind") {
        Some(e) => {
            let name = want_str(e)?;
            SchedulerKind::from_family(name).ok_or_else(|| CompileError {
                line: e.line,
                msg: format!(
                    "unknown scheduler '{name}'; expected one of {}",
                    airtime_sched::family_names()
                ),
            })?
        }
        None => SchedulerKind::tbr(),
    };
    // Parameters that only make sense for one discipline are rejected
    // elsewhere, so a `[sweep]` over `scheduler.kind` can keep a TBR
    // parameter table alongside — the parameters simply don't apply to
    // the fifo/rr/drr cells.
    let total_buffer =
        |buf: &mut usize| set(t, "total_buffer", buf, |e| want_u64(e).map(|v| v as usize));
    match &mut kind {
        SchedulerKind::Fifo | SchedulerKind::RoundRobin | SchedulerKind::Drr => {}
        SchedulerKind::Tbr(c) => {
            set(t, "fill_period_ms", &mut c.fill_period, duration_millis)?;
            set(t, "adjust_period_ms", &mut c.adjust_period, duration_millis)?;
            set(t, "bucket_ms", &mut c.bucket, duration_millis)?;
            if let Some(e) = t.get("initial_tokens_ms") {
                c.initial_tokens = duration_millis(e)?;
            }
            set(t, "excess_threshold", &mut c.excess_threshold, want_f64)?;
            set(t, "demand_threshold", &mut c.demand_threshold, want_f64)?;
            set(t, "min_rate", &mut c.min_rate, want_f64)?;
            if let Some(e) = t.get("donation_streak") {
                c.donation_streak = u32::try_from(want_u64(e)?).or_else(|_| {
                    err(
                        e.line,
                        format!("donation_streak must be at most {}", u32::MAX),
                    )
                })?;
            }
            set(t, "restitution", &mut c.restitution, want_f64)?;
            total_buffer(&mut c.total_buffer)?;
        }
        SchedulerKind::Txop(c) => {
            set(t, "quantum_ms", &mut c.quantum, duration_millis)?;
            total_buffer(&mut c.total_buffer)?;
        }
        SchedulerKind::Pf(c) => {
            set(t, "beta", &mut c.beta, want_f64)?;
            total_buffer(&mut c.total_buffer)?;
        }
        SchedulerKind::MaxMin(c) => {
            set(t, "rate_ewma", &mut c.rate_ewma, want_f64)?;
            total_buffer(&mut c.total_buffer)?;
        }
    }
    kind.validate().map_err(|e| {
        let e = locate(e, &[t]);
        CompileError {
            msg: format!("[scheduler] {}", e.msg),
            ..e
        }
    })?;
    Ok(kind)
}

/// The flow keys of `t`: a `[[station.flow]]` table, or the station
/// table itself when it declares one implicit flow.
fn compile_flow(t: &Table, default_direction: Direction) -> Result<FlowSpec, CompileError> {
    let mut flow = FlowSpec {
        transport: Transport::Tcp,
        direction: default_direction,
        start: SimTime::ZERO,
        task_bytes: None,
        rate_limit_bps: None,
    };
    set(t, "transport", &mut flow.transport, parse_transport)?;
    set(t, "direction", &mut flow.direction, parse_direction)?;
    set(t, "start_s", &mut flow.start, |e| {
        Ok(SimTime::ZERO + duration_secs(e)?)
    })?;
    set(t, "task_bytes", &mut flow.task_bytes, |e| {
        want_u64(e).map(Some)
    })?;
    set(t, "rate_limit_bps", &mut flow.rate_limit_bps, |e| {
        want_f64(e).map(Some)
    })?;
    Ok(flow)
}

/// A station's spatial declaration, kept separate from the
/// [`StationConfig`] until we know whether the scenario is a topology
/// (`[[cells]]` present) at all.
#[derive(Clone, Debug)]
struct PlacementDecl {
    x: f64,
    y: f64,
    auto_rate: bool,
    mobility: Option<WaypointPath>,
    /// Line of the first placement key used, if any — so a placement
    /// key in a single-cell scenario can be rejected with its own line.
    used_at: Option<usize>,
}

fn compile_placement(station: Family) -> Result<PlacementDecl, CompileError> {
    let t = station.table;
    let mut decl = PlacementDecl {
        x: 0.0,
        y: 10.0,
        auto_rate: false,
        mobility: None,
        used_at: None,
    };
    for key in PLACEMENT_KEYS {
        if let Some(e) = t.get(key) {
            decl.used_at.get_or_insert(e.line);
        }
    }
    set(t, "x_ft", &mut decl.x, want_f64)?;
    set(t, "y_ft", &mut decl.y, want_f64)?;
    set(t, "auto_rate", &mut decl.auto_rate, want_bool)?;
    let mut mobility_tables = station.children("mobility");
    let first = mobility_tables.next();
    if let Some(extra) = mobility_tables.next() {
        return err(
            extra.line,
            "a station has at most one [[station.mobility]] table",
        );
    }
    if let Some(mt) = first {
        check_keys(mt, "station.mobility", MOBILITY_KEYS)?;
        decl.used_at.get_or_insert(mt.line);
        let coords = |key: &str| -> Result<Vec<f64>, CompileError> {
            let Some(e) = mt.get(key) else {
                return err(
                    mt.line,
                    format!("[[station.mobility]] needs '{key}' (waypoint coordinates)"),
                );
            };
            want(e, "an array of numbers", |v| {
                v.as_array()?.iter().map(Value::as_f64).collect()
            })
        };
        let xs = coords("x_ft")?;
        let ys = coords("y_ft")?;
        if xs.len() != ys.len() || xs.is_empty() {
            return err(
                mt.line,
                format!(
                    "'x_ft' and 'y_ft' must be non-empty and pairwise ({} vs {} waypoints)",
                    xs.len(),
                    ys.len()
                ),
            );
        }
        let speed = match mt.get("speed_fps") {
            Some(e) => want_f64(e)?,
            None => return err(mt.line, "[[station.mobility]] needs 'speed_fps'"),
        };
        let waypoints: Vec<Point> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| Point::new(x, y))
            .collect();
        decl.x = waypoints[0].x_ft;
        decl.y = waypoints[0].y_ft;
        decl.mobility = Some(WaypointPath::new(waypoints, speed));
    }
    Ok(decl)
}

fn compile_station(
    station: Family,
    default_direction: Direction,
) -> Result<(StationConfig, PlacementDecl, usize), CompileError> {
    let t = station.table;
    check_keys(t, "station", STATION_KEYS)?;

    let geometry = t.get("distance_ft").is_some();
    let link = if geometry {
        for bad in ["rate", "fer"] {
            if let Some(e) = t.get(bad) {
                return err(
                    e.line,
                    format!("'{bad}' conflicts with 'distance_ft'; a station link is either fixed-rate (rate/fer) or geometry (distance_ft/walls/shadow_db/initial_rate)"),
                );
            }
        }
        let distance_ft = want_f64(t.get("distance_ft").unwrap())?;
        let mut walls = Vec::new();
        if let Some(e) = t.get("walls") {
            let Some(xs) = e.value.as_array() else {
                return err(
                    e.line,
                    format!("key 'walls' expects an array, got {}", e.value.type_name()),
                );
            };
            for x in xs {
                walls.push(match x.as_str() {
                    Some("thin_wood") => Wall::ThinWood,
                    Some("thick") => Wall::Thick,
                    _ => {
                        let msg = format!("key 'walls' expects thin_wood or thick, got {x}");
                        return err(e.line, msg);
                    }
                });
            }
        }
        let (mut shadow_db, mut initial_rate) = (0.0, DataRate::B11);
        set(t, "shadow_db", &mut shadow_db, want_f64)?;
        set(t, "initial_rate", &mut initial_rate, parse_rate)?;
        LinkSpec::Path {
            distance_ft,
            walls,
            shadow_db,
            initial_rate,
        }
    } else {
        for bad in ["walls", "shadow_db", "initial_rate"] {
            if let Some(e) = t.get(bad) {
                return err(
                    e.line,
                    format!("'{bad}' requires 'distance_ft' (geometry links only)"),
                );
            }
        }
        let rate = match t.get("rate") {
            Some(e) => parse_rate(e)?,
            None => {
                return err(
                    t.line,
                    "station needs either 'rate' (fixed link) or 'distance_ft' (geometry link)",
                )
            }
        };
        let mut fer = 0.01;
        set(t, "fer", &mut fer, want_f64)?;
        LinkSpec::Fixed { rate, fer }
    };

    let weight = match t.get("weight") {
        Some(e) => want_f64(e)?,
        None => 1.0,
    };

    let mut flow_tables = station.children("flow").peekable();
    let flows = if flow_tables.peek().is_none() {
        vec![compile_flow(t, default_direction)?]
    } else {
        for bad in ["transport", "start_s", "task_bytes", "rate_limit_bps"] {
            if let Some(e) = t.get(bad) {
                return err(
                    e.line,
                    format!("station key '{bad}' conflicts with explicit [[station.flow]] tables"),
                );
            }
        }
        let mut d = default_direction;
        set(t, "direction", &mut d, parse_direction)?;
        let mut flows = Vec::new();
        for ft in flow_tables {
            check_keys(ft, "station.flow", FLOW_KEYS)?;
            flows.push(compile_flow(ft, d)?);
        }
        flows
    };

    let count = match t.get("count") {
        Some(e) => {
            let c = want_u64(e)? as usize;
            if c == 0 {
                return err(e.line, "key 'count' expects at least 1");
            }
            c
        }
        None => 1,
    };

    Ok((
        StationConfig {
            link,
            flows,
            weight,
        },
        compile_placement(station)?,
        count,
    ))
}

fn parse_rate_set(e: &Entry) -> Result<RateSet, CompileError> {
    match want_str(e)? {
        "b" => Ok(RateSet::B),
        "g" => Ok(RateSet::G),
        "a" => Ok(RateSet::A),
        other => err(
            e.line,
            format!("unknown rate_set '{other}'; expected b, g, or a"),
        ),
    }
}

/// Compiles `[[cells]]` + `[topology]` into a [`TopologyConfig`], or
/// `None` for a single-cell scenario. `cfg` must be the finished
/// template (it is cloned into `topo.base`).
fn compile_topology(
    doc: &Doc,
    cfg: &NetworkConfig,
    placements: Vec<PlacementDecl>,
) -> Result<Option<TopologyConfig>, CompileError> {
    let cell_tables = doc.array_tables("cells");
    if cell_tables.is_empty() {
        if let Some(t) = doc.table("topology") {
            return err(t.line, "[topology] requires at least one [[cells]] table");
        }
        if let Some(line) = placements.iter().find_map(|p| p.used_at) {
            return err(
                line,
                "station placement (x_ft/y_ft/auto_rate/[[station.mobility]]) requires [[cells]] tables",
            );
        }
        return Ok(None);
    }

    let mut cells = Vec::with_capacity(cell_tables.len());
    for t in &cell_tables {
        check_keys(t, "cells", CELLS_KEYS)?;
        let x = match t.get("x_ft") {
            Some(e) => want_f64(e)?,
            None => 0.0,
        };
        let y = match t.get("y_ft") {
            Some(e) => want_f64(e)?,
            None => 0.0,
        };
        let channel = match t.get("channel") {
            Some(e) => u8::try_from(want_u64(e)?)
                .or_else(|_| err(e.line, "key 'channel' expects a channel number in 1..=255"))?,
            None => 1,
        };
        cells.push(CellSpec {
            position: Point::new(x, y),
            channel,
        });
    }

    let mut rate_set = RateSet::B;
    let mut hysteresis_db = 6.0;
    let mut min_rssi_dbm = None;
    let mut assoc_tick = SimDuration::from_millis(100);
    if let Some(t) = doc.table("topology") {
        check_keys(t, "topology", TOPOLOGY_KEYS)?;
        set(t, "rate_set", &mut rate_set, parse_rate_set)?;
        set(t, "hysteresis_db", &mut hysteresis_db, want_f64)?;
        set(t, "min_rssi_dbm", &mut min_rssi_dbm, |e| {
            want_f64(e).map(Some)
        })?;
        set(t, "assoc_tick_ms", &mut assoc_tick, duration_millis)?;
    }

    let placements = placements
        .into_iter()
        .zip(&cfg.stations)
        .map(|(d, st)| Placement {
            position: Point::new(d.x, d.y),
            mobility: d.mobility,
            rate: if d.auto_rate {
                RatePolicy::Auto
            } else {
                RatePolicy::Pinned(st.link.rate())
            },
        })
        .collect();

    Ok(Some(TopologyConfig {
        base: cfg.clone(),
        cells,
        placements,
        rate_set,
        hysteresis_db,
        min_rssi_dbm: min_rssi_dbm.unwrap_or_else(|| rate_set.association_floor_dbm()),
        assoc_tick,
    }))
}

fn compile_check(doc: &Doc) -> Result<CheckSpec, CompileError> {
    let Some(t) = doc.table("check") else {
        return Ok(CheckSpec::default());
    };
    check_keys(t, "check", CHECK_KEYS)?;
    let mut check = CheckSpec::default();
    if let Some(e) = t.get("property") {
        check.property = match want_str(e)? {
            "auto" => CheckProperty::Auto,
            "airtime_fair" => CheckProperty::AirtimeFair,
            "throughput_fair" => CheckProperty::ThroughputFair,
            "none" => CheckProperty::None,
            other => {
                return err(
                    e.line,
                    format!(
                        "unknown property '{other}'; expected auto, airtime_fair, throughput_fair, or none"
                    ),
                )
            }
        };
    }
    if let Some(e) = t.get("tolerance") {
        let tol = want_f64(e)?;
        if !(0.0..=1.0).contains(&tol) {
            return err(e.line, "key 'tolerance' expects a fraction in [0, 1]");
        }
        check.tolerance = tol;
    }
    set(t, "strict", &mut check.strict, want_bool)?;
    Ok(check)
}

/// Section names the compiler understands; anything else in a header is
/// an error.
const KNOWN_TABLES: &[&str] = &[
    "scheduler",
    "check",
    "sweep",
    "station",
    "topology",
    "cells",
    "tournament",
];

/// Compiles a parsed document into a [`ScenarioSpec`]. The `[sweep]`
/// table, if any, is ignored here — [`crate::sweep::expand`] consumes
/// it before compiling each job.
pub fn compile(doc: &Doc) -> Result<ScenarioSpec, CompileError> {
    for t in &doc.tables {
        if !KNOWN_TABLES.contains(&t.path[0].as_str()) {
            return err(
                t.line,
                format!(
                    "unknown section [{}]; expected one of: {}",
                    t.path.join("."),
                    KNOWN_TABLES.join(", ")
                ),
            );
        }
        if t.path.len() > 2
            || (t.path.len() == 2
                && (t.path[0] != "station" || (t.path[1] != "flow" && t.path[1] != "mobility")))
        {
            return err(
                t.line,
                format!(
                    "unknown section [{}]; nested tables are only [[station.flow]] and [[station.mobility]]",
                    t.path.join(".")
                ),
            );
        }
        if (t.path[0] == "station" || t.path[0] == "cells") && !t.array {
            let name = t.path.join(".");
            return err(
                t.line,
                format!("{name} tables are declared as [[{name}]] (double brackets)"),
            );
        }
    }

    let root = &doc.root;
    check_keys(root, "root", ROOT_KEYS)?;

    let name = match doc.get("name") {
        Some(e) => want_str(e)?.to_string(),
        None => "scenario".to_string(),
    };
    let default_direction = match doc.get("direction") {
        Some(e) => parse_direction(e)?,
        None => Direction::Uplink,
    };

    let scheduler = compile_scheduler(doc)?;
    let mut cfg = NetworkConfig::new(Vec::new(), scheduler);
    set(root, "duration_s", &mut cfg.duration, duration_secs)?;

    let stations = doc.families("station")?;
    // A [tournament] scenario populates its stations from the rate
    // mixes, so the base file may legitimately declare none.
    if stations.is_empty() && doc.table("tournament").is_none() {
        return err(
            1,
            "scenario declares no [[station]] tables; at least one is required",
        );
    }
    // `origin[s]` is the [[station]] table behind station `s` once
    // `count` and `station_count` have replicated the tables; both are
    // checked against the cap before anything is replicated.
    let mut declared = Vec::with_capacity(stations.len());
    let mut origin = Vec::new();
    for (i, &station) in stations.iter().enumerate() {
        let t = station.table;
        let (st, place, count) = compile_station(station, default_direction)?;
        if origin.len().saturating_add(count) > MAX_STATIONS {
            return err(
                t.get("count").map_or(t.line, |e| e.line),
                format!("key 'count' = {count} takes the cell past {MAX_STATIONS} stations"),
            );
        }
        origin.extend(std::iter::repeat_n(i, count));
        declared.push((st, place));
    }
    if let Some(e) = doc.get("station_count") {
        let n = want_u64(e)?;
        if n == 0 || n > MAX_STATIONS as u64 || origin.is_empty() {
            return err(
                e.line,
                format!(
                    "key 'station_count' expects 1 to {MAX_STATIONS} stations replicated \
                     from at least one [[station]] table, got {n}"
                ),
            );
        }
        // Replicate the declared list cyclically to exactly n stations
        // (so a sweep over station_count grows a homogeneous or
        // repeating-pattern cell). Placements replicate in lockstep.
        origin = (0..n as usize).map(|s| origin[s % origin.len()]).collect();
    }
    // When every table stands for exactly its own station, in order, the
    // compiled stations move into the config instead of being cloned. A
    // length check alone is not enough: `count = 2` on the first table
    // truncated by `station_count` also has one origin per table.
    let placements: Vec<_>;
    (cfg.stations, placements) = if origin.iter().copied().eq(0..declared.len()) {
        declared.into_iter().unzip()
    } else {
        origin.iter().map(|&i| declared[i].clone()).unzip()
    };

    set(root, "seed", &mut cfg.seed, want_u64)?;
    set(root, "warmup_s", &mut cfg.warmup, duration_secs)?;
    if let Some(e) = doc.get("wired_delay_ms") {
        cfg.wired_delay = duration_millis(e)?;
    }
    set(root, "client_queue_cap", &mut cfg.client_queue_cap, |e| {
        want_u64(e).map(|v| v as usize)
    })?;
    for (key, flag) in [
        ("uplink_retry_info", &mut cfg.uplink_retry_info),
        ("uplink_loss_estimator", &mut cfg.uplink_loss_estimator),
        ("client_cooperation", &mut cfg.client_cooperation),
        ("retry_rate_fallback", &mut cfg.retry_rate_fallback),
    ] {
        set(root, key, flag, want_bool)?;
    }
    set(root, "rts_threshold", &mut cfg.rts_threshold, |e| {
        want_u64(e).map(Some)
    })?;
    if let Some(e) = doc.get("regulate") {
        cfg.regulate = match want_str(e)? {
            "station" => Regulate::PerStation,
            "flow" => Regulate::PerFlow,
            other => {
                return err(
                    e.line,
                    format!("unknown regulate '{other}'; expected station or flow"),
                )
            }
        };
    }
    // Geometry links need the multi-rate retry chain the real EXP-1
    // cards used; switch it on automatically like scenarios::exp1_office.
    let geometry = |s: &StationConfig| matches!(s.link, LinkSpec::Path { .. });
    cfg.retry_rate_fallback |= cfg.stations.iter().any(geometry);

    let rate_labels = cfg
        .stations
        .iter()
        .map(|s| match &s.link {
            LinkSpec::Fixed { rate, .. } => rate.to_string(),
            LinkSpec::Path { .. } => "path".to_string(),
        })
        .collect();

    // The tables that declare what a validator error names: the cell's,
    // or the flow's, mobility and station's tables behind its station
    // (a mobility `x_ft` before the placement's), then the root and
    // [topology].
    let located = |e: ConfigError| {
        let mut tables = Vec::new();
        tables.extend(e.cell.map(|c| doc.array_tables("cells")[c]));
        if let Some(s) = e.station {
            let station = stations[origin[s]];
            tables.extend(e.flow.and_then(|f| station.children("flow").nth(f)));
            tables.extend(station.children("mobility"));
            tables.push(station.table);
        }
        tables.push(root);
        tables.extend(doc.table("topology"));
        locate(e, &tables)
    };
    match cfg.validate() {
        // A [tournament] supplies the stations; the validator reports
        // an empty list only once every run-wide rule has passed.
        Err(e) if cfg.stations.is_empty() && e.field == "stations" => {}
        r => r.map_err(located)?,
    }

    let check = compile_check(doc)?;
    let topo = compile_topology(doc, &cfg, placements)?;
    if let Some(t) = &topo {
        t.validate().map_err(located)?;
    }

    Ok(ScenarioSpec {
        name,
        cfg,
        check,
        rate_labels,
        topo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml::parse;

    fn compile_text(text: &str) -> Result<ScenarioSpec, CompileError> {
        compile(&parse(text).unwrap())
    }

    #[test]
    fn minimal_scenario_compiles_with_defaults() {
        let spec = compile_text("[[station]]\nrate = \"11\"\n").unwrap();
        assert_eq!(spec.name, "scenario");
        assert_eq!(spec.cfg.stations.len(), 1);
        assert!(matches!(spec.cfg.scheduler, SchedulerKind::Tbr(_)));
        assert_eq!(spec.rate_labels, vec!["11M"]);
        assert_eq!(spec.cfg.seed, 1);
    }

    #[test]
    fn full_scenario_compiles() {
        let spec = compile_text(
            r#"
name = "demo"
seed = 9
duration_s = 12.5
warmup_s = 2
direction = "down"

[scheduler]
kind = "tbr"
bucket_ms = 10
fill_period_ms = 1

[[station]]
rate = "11"
weight = 2.0

[[station]]
rate = "5.5"
fer = 0.02
transport = "udp"
direction = "up"

[check]
property = "airtime_fair"
tolerance = 0.1
strict = true
"#,
        )
        .unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.cfg.seed, 9);
        assert_eq!(spec.cfg.duration.as_secs_f64(), 12.5);
        assert_eq!(spec.cfg.stations[0].weight, 2.0);
        assert_eq!(spec.cfg.stations[1].flows[0].transport, Transport::Udp);
        assert_eq!(spec.cfg.stations[1].flows[0].direction, Direction::Uplink);
        assert_eq!(spec.cfg.stations[0].flows[0].direction, Direction::Downlink);
        match &spec.cfg.scheduler {
            SchedulerKind::Tbr(c) => {
                assert_eq!(c.bucket, SimDuration::from_millis(10));
                assert_eq!(c.fill_period, SimDuration::from_millis(1));
            }
            other => panic!("wrong scheduler {other:?}"),
        }
        assert_eq!(spec.check.property, CheckProperty::AirtimeFair);
        assert!(spec.check.strict);
    }

    #[test]
    fn pf_and_maxmin_schedulers_compile() {
        let spec = compile_text(
            "[scheduler]\nkind = \"pf\"\nbeta = 0.01\ntotal_buffer = 200\n[[station]]\nrate = \"11\"\n",
        )
        .unwrap();
        match &spec.cfg.scheduler {
            SchedulerKind::Pf(c) => {
                assert_eq!(c.beta, 0.01);
                assert_eq!(c.total_buffer, 200);
            }
            other => panic!("wrong scheduler {other:?}"),
        }
        let spec = compile_text(
            "[scheduler]\nkind = \"maxmin\"\nrate_ewma = 0.5\n[[station]]\nrate = \"11\"\n",
        )
        .unwrap();
        match &spec.cfg.scheduler {
            SchedulerKind::MaxMin(c) => assert_eq!(c.rate_ewma, 0.5),
            other => panic!("wrong scheduler {other:?}"),
        }
        // Out-of-range tunables are rejected with the offending line.
        let e =
            compile_text("[scheduler]\nkind = \"pf\"\nbeta = 1.5\n[[station]]\nrate = \"11\"\n")
                .unwrap_err();
        assert!(e.msg.contains("beta must be in (0, 1]"), "{}", e.msg);
        assert_eq!(e.line, 3);
        // The unknown-family diagnostic lists the whole registry.
        let e =
            compile_text("[scheduler]\nkind = \"lifo\"\n[[station]]\nrate = \"11\"\n").unwrap_err();
        assert!(
            e.msg
                .contains("expected one of fifo, rr, drr, tbr, txop, pf, maxmin"),
            "{}",
            e.msg
        );
        assert_eq!(e.line, 2);
    }

    #[test]
    fn degenerate_scheduler_tunables_are_rejected_at_their_line() {
        // Each of these once hung or ran to 0 Mb/s (or silently wrapped);
        // they must fail at compile time and point at the offending key.
        for (table, needle) in [
            (
                "kind = \"tbr\"\nfill_period_ms = 0",
                "fill_period must be positive",
            ),
            ("kind = \"tbr\"\nbucket_ms = 0", "bucket must be positive"),
            (
                "kind = \"txop\"\nquantum_ms = 0",
                "quantum must be positive",
            ),
            (
                "kind = \"tbr\"\ndonation_streak = 4294967297",
                "donation_streak must be at most 4294967295",
            ),
            (
                "kind = \"tbr\"\nmin_rate = -0.1",
                "min_rate must be a finite",
            ),
            (
                "kind = \"maxmin\"\nrate_ewma = 0",
                "rate_ewma must be in (0, 1]",
            ),
        ] {
            let text = format!("[scheduler]\n{table}\n[[station]]\nrate = \"11\"\n");
            let e = compile_text(&text).unwrap_err();
            assert!(e.msg.contains(needle), "{table}: {}", e.msg);
            assert_eq!(e.line, 3, "{table}: {}", e.msg);
        }
        // The same tunables are fine on a family that ignores them.
        compile_text("[scheduler]\nkind = \"rr\"\nbucket_ms = 0\n[[station]]\nrate = \"11\"\n")
            .unwrap();
    }

    /// `adjust_period_ms = 0` once compiled and re-adjusted rates at
    /// every fill; an adjustment period shorter than the fill period is
    /// now a `file:line` diagnostic at its key.
    #[test]
    fn adjust_period_shorter_than_fill_period_is_rejected_at_its_key() {
        for (table, line) in [
            ("adjust_period_ms = 0", 3),
            ("fill_period_ms = 5\nadjust_period_ms = 4", 4),
        ] {
            let text =
                format!("[scheduler]\nkind = \"tbr\"\n{table}\n[[station]]\nrate = \"11\"\n");
            let doc = crate::parse_text(&text, "cell.toml").unwrap();
            let e = crate::compile(&doc, "cell.toml").unwrap_err().to_string();
            assert!(
                e.starts_with(&format!(
                    "cell.toml:{line}: [scheduler] adjust_period must be at least fill_period"
                )),
                "{table}: {e}"
            );
        }
        // Equal periods are allowed: one adjustment per fill.
        compile_text("[scheduler]\nkind = \"tbr\"\nfill_period_ms = 5\nadjust_period_ms = 5\n[[station]]\nrate = \"11\"\n")
            .unwrap();
    }

    #[test]
    fn explicit_flows_and_station_count() {
        let spec = compile_text(
            r#"
station_count = 3
[[station]]
rate = "11"
[[station.flow]]
transport = "tcp"
task_bytes = 1000
[[station.flow]]
transport = "udp"
direction = "down"
"#,
        )
        .unwrap();
        assert_eq!(spec.cfg.stations.len(), 3);
        assert_eq!(spec.cfg.stations[0].flows.len(), 2);
        assert_eq!(spec.cfg.stations[0].flows[0].task_bytes, Some(1000));
        assert_eq!(spec.cfg.stations[2].flows[1].transport, Transport::Udp);
    }

    #[test]
    fn geometry_links_compile() {
        let spec = compile_text(
            "[[station]]\ndistance_ft = 26\nwalls = [\"thin_wood\", \"thick\"]\nshadow_db = 3.0\n",
        )
        .unwrap();
        assert!(matches!(spec.cfg.stations[0].link, LinkSpec::Path { .. }));
        assert!(spec.cfg.retry_rate_fallback);
        assert_eq!(spec.rate_labels, vec!["path"]);
    }

    #[test]
    fn topology_scenario_compiles() {
        let spec = compile_text(
            r#"
duration_s = 10
[topology]
hysteresis_db = 4.0
assoc_tick_ms = 50
rate_set = "b"

[[cells]]
x_ft = 0
y_ft = 0
channel = 1

[[cells]]
x_ft = 150
channel = 6

[[station]]
rate = "11"
x_ft = 0
y_ft = 10

[[station]]
rate = "1"
auto_rate = true
[[station.mobility]]
speed_fps = 15
x_ft = [0, 300]
y_ft = [10, 10]
"#,
        )
        .unwrap();
        let topo = spec.topo.expect("topology");
        assert_eq!(topo.cells.len(), 2);
        assert_eq!(topo.cells[1].position.x_ft, 150.0);
        assert_eq!(topo.cells[1].channel, 6);
        assert_eq!(topo.hysteresis_db, 4.0);
        assert_eq!(topo.assoc_tick, SimDuration::from_millis(50));
        assert_eq!(topo.placements.len(), 2);
        assert_eq!(
            topo.placements[0].rate,
            airtime_topo::RatePolicy::Pinned(DataRate::B11)
        );
        assert_eq!(topo.placements[1].rate, airtime_topo::RatePolicy::Auto);
        let path = topo.placements[1].mobility.as_ref().expect("mobility");
        assert_eq!(path.waypoints.len(), 2);
        assert_eq!(topo.base.stations.len(), spec.cfg.stations.len());
        topo.validate().unwrap();
    }

    #[test]
    fn placements_replicate_with_station_count() {
        let spec = compile_text(
            r#"
station_count = 4
[[cells]]
channel = 1
[[station]]
rate = "11"
x_ft = 30
[[station]]
rate = "1"
x_ft = 60
"#,
        )
        .unwrap();
        let topo = spec.topo.unwrap();
        assert_eq!(topo.placements.len(), 4);
        assert_eq!(topo.placements[0].position.x_ft, 30.0);
        assert_eq!(topo.placements[1].position.x_ft, 60.0);
        assert_eq!(topo.placements[2].position.x_ft, 30.0);
        assert_eq!(topo.placements[3].position.x_ft, 60.0);
    }

    #[test]
    fn truncating_station_count_keeps_replicated_tables() {
        // `count` replicates the first table and `station_count` then
        // truncates to as many stations as there are tables: the stations
        // are still the replicated ones, not one per table.
        for (counts, n, want) in [
            ([2, 1], 2, vec![11.0, 11.0]),
            ([2, 1], 3, vec![11.0, 11.0, 1.0]),
            ([1, 2], 2, vec![11.0, 1.0]),
        ] {
            let text = format!(
                "station_count = {n}\n[[cells]]\nchannel = 1\n\
                 [[station]]\nrate = \"11\"\ncount = {}\nx_ft = 30\n\
                 [[station]]\nrate = \"1\"\ncount = {}\nx_ft = 60\n",
                counts[0], counts[1]
            );
            let spec = compile_text(&text).unwrap();
            let rates: Vec<f64> = spec
                .cfg
                .stations
                .iter()
                .map(|s| match s.link {
                    LinkSpec::Fixed { rate, .. } => rate.mbps(),
                    _ => panic!("fixed-rate link expected"),
                })
                .collect();
            assert_eq!(rates, want, "counts {counts:?}, station_count {n}");
            let xs: Vec<f64> = spec
                .topo
                .unwrap()
                .placements
                .iter()
                .map(|p| p.position.x_ft)
                .collect();
            let want_x: Vec<f64> = want
                .iter()
                .map(|&r| if r == 11.0 { 30.0 } else { 60.0 })
                .collect();
            assert_eq!(xs, want_x, "counts {counts:?}, station_count {n}");
        }
    }

    #[test]
    fn single_cell_scenarios_have_no_topology() {
        let spec = compile_text("[[station]]\nrate = \"11\"\n").unwrap();
        assert!(spec.topo.is_none());
    }

    #[test]
    fn topology_rejections() {
        for (text, needle) in [
            (
                "[topology]\nhysteresis_db = 6\n[[station]]\nrate = \"11\"\n",
                "requires at least one [[cells]]",
            ),
            (
                "[[station]]\nrate = \"11\"\nx_ft = 5\n",
                "requires [[cells]]",
            ),
            (
                "[cells]\nchannel = 1\n[[station]]\nrate = \"11\"\n",
                "double brackets",
            ),
            (
                "[[cells]]\nchannel = 0\n[[station]]\nrate = \"11\"\n",
                "channel number in 1..=255",
            ),
            (
                "[[cells]]\nchannel = 1\n[topology]\nrate_set = \"n\"\n[[station]]\nrate = \"11\"\n",
                "unknown rate_set 'n'",
            ),
            (
                "[[cells]]\nchannel = 1\n[[station]]\nrate = \"11\"\n[[station.mobility]]\nspeed_fps = 5\nx_ft = [0, 10]\ny_ft = [0]\n",
                "pairwise",
            ),
            (
                "[[cells]]\nchannel = 1\n[[station]]\nrate = \"11\"\n[[station.mobility]]\nx_ft = [0]\ny_ft = [0]\n",
                "needs 'speed_fps'",
            ),
            (
                "[[cells]]\nchannel = 1\nbogus = 1\n[[station]]\nrate = \"11\"\n",
                "unknown key 'bogus'",
            ),
        ] {
            let e = compile_text(text).unwrap_err();
            assert!(e.msg.contains(needle), "for {text:?}: got '{e}'");
        }
    }

    #[test]
    fn zero_client_queue_cap_is_rejected_at_its_line() {
        // Once ran to `total 0.000 Mb/s` and exited 0: no uplink packet
        // or TCP ack could ever enter a client's interface queue.
        let e = compile_text("seed = 1\nclient_queue_cap = 0\n[[station]]\nrate = \"11\"\n")
            .unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(
            e.msg
                .contains("key 'client_queue_cap' expects a positive packet count"),
            "{e}"
        );
        let spec = compile_text("client_queue_cap = 1\n[[station]]\nrate = \"11\"\n").unwrap();
        assert_eq!(spec.cfg.client_queue_cap, 1);
    }

    #[test]
    fn non_positive_rate_limit_is_rejected_at_its_line() {
        // `rate_limit_bps = 0.0` once panicked inside the TCP sender's
        // token bucket (exit 101). Both the explicit-flow and the
        // implicit-flow spelling are checked.
        for (text, line) in [
            (
                "[[station]]\nrate = \"11\"\n[[station.flow]]\ndirection = \"up\"\nrate_limit_bps = 0.0\n",
                5,
            ),
            (
                "[[station]]\nrate = \"11\"\ntransport = \"udp\"\nrate_limit_bps = -1\n",
                4,
            ),
        ] {
            let e = compile_text(text).unwrap_err();
            assert_eq!(e.line, line, "for {text:?}: {e}");
            assert!(
                e.msg
                    .contains("key 'rate_limit_bps' expects a positive, finite bit rate"),
                "for {text:?}: {e}"
            );
        }
    }

    #[test]
    fn rate_limit_too_low_to_release_one_packet_is_rejected() {
        // `rate_limit_bps = 1e-300` on a UDP flow once ran to
        // 0.000 Mb/s: its pacer never released a datagram. The floor is
        // one packet per run: a 1500-byte datagram or a 1460-byte TCP
        // segment over `duration_s`. Both spellings of a flow are
        // checked.
        for (text, line, min) in [
            (
                "duration_s = 3\n[[station]]\nrate = \"11\"\ntransport = \"udp\"\nrate_limit_bps = 1e-300\n",
                5,
                "the minimum is 4000 bit/s",
            ),
            (
                "duration_s = 4\n[[station]]\nrate = \"11\"\n[[station.flow]]\nrate_limit_bps = 2919\n",
                5,
                "the minimum is 2920 bit/s",
            ),
        ] {
            let e = compile_text(text).unwrap_err();
            assert_eq!(e.line, line, "for {text:?}: {e}");
            assert!(e.msg.contains(min), "for {text:?}: {e}");
        }
        // Exactly one packet per run is accepted.
        let spec = compile_text(
            "duration_s = 4\n[[station]]\nrate = \"11\"\n[[station.flow]]\nrate_limit_bps = 2920\n",
        )
        .unwrap();
        assert_eq!(spec.cfg.stations[0].flows[0].rate_limit_bps, Some(2920.0));
    }

    /// Validator errors land on the line that set the offending field,
    /// through replication (`count`), explicit flows, cells and
    /// mobility tables.
    #[test]
    fn validator_errors_point_at_the_key_that_set_the_field() {
        for (text, line, needle) in [
            (
                "[[station]]\nrate = \"11\"\ncount = 2\n[[station]]\nrate = \"1\"\nweight = 0\n",
                6,
                "key 'weight' expects a positive number",
            ),
            (
                "[[station]]\nrate = \"11\"\n[[station.flow]]\n[[station.flow]]\ntransport = \"udp\"\nrate_limit_bps = -3\n",
                6,
                "key 'rate_limit_bps' expects a positive, finite bit rate, got -3",
            ),
            (
                "[[station]]\ndistance_ft = -50\n",
                2,
                "key 'distance_ft' expects a finite distance >= 0",
            ),
            (
                "[[cells]]\nchannel = 1\n[[cells]]\nx_ft = 150\nchannel = 0\n[[station]]\nrate = \"11\"\n",
                5,
                "key 'channel' expects a channel number in 1..=255",
            ),
            (
                "[topology]\nmin_rssi_dbm = -24\n[[cells]]\n[[station]]\nrate = \"11\"\n",
                2,
                "above the strongest RSSI any station can see (-25 dBm",
            ),
            (
                "[[cells]]\n[[station]]\nrate = \"11\"\nx_ft = 3\n[[station.mobility]]\nspeed_fps = 0\nx_ft = [0]\ny_ft = [0]\n",
                6,
                "key 'speed_fps' expects a positive speed",
            ),
            (
                "duration_s = 2\n[[station]]\nrate = \"11\"\n",
                1,
                "warmup_s must be smaller than duration_s",
            ),
        ] {
            let e = compile_text(text).unwrap_err();
            assert_eq!(e.line, line, "for {text:?}: {e}");
            assert!(e.msg.contains(needle), "for {text:?}: {e}");
        }
    }

    /// Both replication keys are checked against the cap before any
    /// station is built; `count = 100000000000` once exhausted memory.
    #[test]
    fn station_counts_past_the_cap_fail_before_replication() {
        let over = MAX_STATIONS + 1;
        for (text, line, needle) in [
            (
                format!("[[station]]\nrate = \"11\"\ncount = {over}\n"),
                3,
                "key 'count' = 4097 takes the cell past 4096 stations".to_string(),
            ),
            (
                "[[station]]\nrate = \"11\"\ncount = 4000\n[[station]]\nrate = \"1\"\ncount = 97\n"
                    .to_string(),
                6,
                "key 'count' = 97 takes the cell past 4096 stations".to_string(),
            ),
            (
                format!("seed = 1\nstation_count = {over}\n[[station]]\nrate = \"11\"\n"),
                2,
                format!("key 'station_count' expects 1 to {MAX_STATIONS} stations"),
            ),
        ] {
            let e = compile_text(&text).unwrap_err();
            assert_eq!(e.line, line, "for {text:?}: {e}");
            assert!(e.msg.contains(&needle), "for {text:?}: {e}");
        }
        let spec = compile_text(&format!(
            "station_count = {MAX_STATIONS}\n[[station]]\nrate = \"11\"\n"
        ))
        .unwrap();
        assert_eq!(spec.cfg.stations.len(), MAX_STATIONS);
        // A [tournament] document declares no station to replicate; its
        // `station_count` once divided by zero.
        let e = compile_text(
            "station_count = 3\n[tournament]\nfamilies = [\"rr\"]\nrate_mixes = [\"11\"]\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.msg.contains("from at least one [[station]] table"), "{e}");
    }

    #[test]
    fn rejection_messages_name_line_and_expectation() {
        for (text, needle) in [
            ("[[station]]\nrate = \"7\"\n", "unknown rate '7'"),
            ("[[station]]\nrate = 7.5\n", "unknown rate '7.5'; expected"),
            (
                "[[station]]\nrate = 1e-300\n",
                "unknown rate '1e-300'; expected",
            ),
            (
                "[[station]]\nrate = \"11\"\nbogus = 1\n",
                "unknown key 'bogus'",
            ),
            (
                "bogus = 1\n[[station]]\nrate = \"11\"\n",
                "unknown key 'bogus'",
            ),
            ("[typo]\nx = 1\n", "unknown section [typo]"),
            (
                "duration_s = 5\nwarmup_s = 5\n[[station]]\nrate = \"11\"\n",
                "warmup_s must be smaller",
            ),
            (
                "[scheduler]\nbucket_ms = 86400001\n[[station]]\nrate = \"11\"\n",
                "key 'bucket_ms' is longer than one simulated day",
            ),
            (
                "[[station]]\nrate = \"11\"\nfer = 1.5\n",
                "fraction in [0, 1)",
            ),
            (
                "[[station]]\nrate = \"11\"\nweight = 0\n",
                "positive number",
            ),
            (
                "[scheduler]\nkind = \"lifo\"\n[[station]]\nrate = \"11\"\n",
                "unknown scheduler 'lifo'",
            ),
            ("x = 1\n", "unknown key 'x'"),
            ("[station]\nrate = \"11\"\n", "double brackets"),
            (
                "[[station]]\nrate = \"11\"\ndistance_ft = 4\n",
                "conflicts with 'distance_ft'",
            ),
            (
                "[[station]]\nrate = \"11\"\n[station.flow]\ntransport = \"udp\"\n",
                "station.flow tables are declared as [[station.flow]] (double brackets)",
            ),
        ] {
            let e = compile_text(text).unwrap_err();
            assert!(e.msg.contains(needle), "for {text:?}: got '{e}'");
            assert!(e.line >= 1);
        }
        // A sub-table above every [[station]] belongs to no station; it
        // was once dropped and the run went ahead without it.
        for (text, line, needle) in [
            (
                "seed = 1\n[[station.flow]]\ntransport = \"udp\"\n[[station]]\nrate = \"11\"\n",
                2,
                "[[station.flow]] comes before every [[station]] table",
            ),
            (
                "[[cells]]\n[[station.mobility]]\nspeed_fps = 5\nx_ft = [0]\ny_ft = [0]\n[[station]]\nrate = \"11\"\n",
                2,
                "[[station.mobility]] comes before every [[station]] table",
            ),
        ] {
            let e = compile_text(text).unwrap_err();
            assert_eq!(e.line, line, "for {text:?}: {e}");
            assert!(e.msg.contains(needle), "for {text:?}: got '{e}'");
        }
        // Durations are capped at one simulated day, inclusive, and the
        // diagnostic points at the offending key's line.
        let e =
            compile_text("seed = 3\nduration_s = 1e30\n[[station]]\nrate = \"11\"\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(
            e.msg
                .contains("key 'duration_s' is longer than one simulated day"),
            "{e}"
        );
        let spec = compile_text("duration_s = 86400\n[[station]]\nrate = \"11\"\n").unwrap();
        assert_eq!(spec.cfg.duration, SimDuration::from_secs(MAX_DURATION_SECS));
        let e = compile_text("duration_s = 86400.001\n[[station]]\nrate = \"11\"\n").unwrap_err();
        assert!(e.msg.contains("longer than one simulated day"), "{e}");
        let e = compile_text("").unwrap_err();
        assert!(e.msg.contains("no [[station]]"), "{e}");
        // `record_trace` was a key until the frame sniffer became an
        // observer; a file still setting it fails at that line.
        let e = compile_text("seed = 1\nrecord_trace = true\n[[station]]\nrate = \"11\"\n")
            .unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("unknown key 'record_trace'"), "{e}");
    }
}
