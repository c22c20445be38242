//! The lockstep multiplexer: one shared timeline over N per-cell
//! engines.
//!
//! Each cell runs the unmodified single-cell event loop through the
//! [`CellSim`] facade; this driver always steps the cell holding the
//! globally-earliest event (ties to the lowest cell id), so the
//! interleaving is a pure function of the configuration — the same
//! determinism contract as a single cell, extended across cells.
//!
//! Two couplings cross cell boundaries:
//!
//! - **Co-channel carrier sense.** Whenever a cell's medium turns
//!   busy, the driver mirrors the busy window into every other cell on
//!   the same channel as a defer (`CellSim::defer_all`), so co-channel
//!   cells contend for one shared medium while distinct channels run
//!   as independent DCF domains. Each window costs the neighbour one
//!   cell-wide MAC deferral and one expiry timer, not one per station;
//!   the MAC ignores a window it already holds, so the driver keeps no
//!   mirror state of its own. Exchanges *starting* in the same slot in
//!   two co-channel cells do not collide with each other — the mirror
//!   is one event behind — a deliberate simplification over a full
//!   shared-medium model.
//! - **Roaming.** On a fixed management tick the driver moves mobile
//!   stations along their waypoint paths, refreshes their path-loss
//!   links, and applies the RSSI/hysteresis association policy:
//!   disassociate (flushing the old AP's queues), then associate with
//!   fresh scheduler registration and fresh transport incarnations at
//!   the new AP.

use std::time::Instant;

use airtime_obs::Observer;
use airtime_sim::{LoopProfiler, NsHist, SimDuration, SimTime};
use airtime_wlan::{CellSim, NetworkConfig};

use crate::config::{AssocDecision, TopologyConfig};
use crate::report::{HandoffRecord, RoamingReport, TopoReport, Visit};

/// Host-side stats for one cell's lane of a profiled topology run.
#[derive(Clone, Debug)]
pub struct CellLaneProfile {
    /// Events this cell dispatched.
    pub events: u64,
    /// Host cost of this cell's dispatches.
    pub dispatch: NsHist,
    /// Deepest this cell's event queue ever got.
    pub queue_high_water: u64,
}

/// The host-side profile of one topology run: where the driver's wall
/// time went, per event label and per cell lane. Purely observational
/// — the paired [`TopoReport`] is byte-identical to an unprofiled
/// run's.
#[derive(Clone, Debug)]
pub struct TopoProfile {
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Total events dispatched across all cells.
    pub events: u64,
    /// Dispatch-cost distributions per event label, all cells merged.
    pub labels: Vec<(&'static str, NsHist)>,
    /// Driver phases as hierarchical paths, in this order: `drain` (one
    /// sample per pass to a management boundary), `drain/mirror` (one
    /// per busy window offered to co-channel neighbours inside a pass)
    /// and `management` (one per tick). A phase that never ran is
    /// absent.
    pub phases: Vec<(String, NsHist)>,
    /// Per-cell lane stats, index-aligned with the topology's cells.
    pub cells: Vec<CellLaneProfile>,
}

/// The driver phases, as [`TopoProfile::phases`] labels them, indexed
/// by [`DRAIN`], [`MIRROR`] and [`MANAGEMENT`].
const PHASES: [&str; 3] = ["drain", "drain/mirror", "management"];
const DRAIN: usize = 0;
const MIRROR: usize = 1;
const MANAGEMENT: usize = 2;

/// Host-side measurement state threaded through a profiled run.
struct TopoProbe {
    started: Instant,
    phases: [NsHist; 3],
    labels: LoopProfiler,
    per_cell: Vec<NsHist>,
}

/// Records the time since `t0` under `phase` when profiling (`t0` is
/// `Some` exactly then, so the unprofiled path reads no clock).
fn phase_done(probe: Option<&mut TopoProbe>, t0: Option<Instant>, phase: usize) {
    if let (Some(p), Some(t0)) = (probe, t0) {
        p.phases[phase].record(t0.elapsed());
    }
}

/// Runs a topology with one observer per cell (index-aligned).
/// Observers see each cell's own event stream — per-cell airtime
/// ledgers audit against that cell's own timeline.
///
/// # Panics
///
/// Panics with the validator's message when
/// [`TopologyConfig::validate`] rejects `topo`, and when
/// `obs.len() != topo.cells.len()`.
pub fn run_topology<O: Observer>(topo: &TopologyConfig, obs: &mut [O]) -> TopoReport {
    run_topology_inner(topo, obs, None).0
}

/// Like [`run_topology`], but measures the driver as it runs and
/// returns the host-side [`TopoProfile`] alongside the report.
///
/// # Panics
///
/// Same as [`run_topology`].
pub fn run_topology_profiled<O: Observer>(
    topo: &TopologyConfig,
    obs: &mut [O],
) -> (TopoReport, TopoProfile) {
    let n_cells = topo.cells.len();
    let mut probe = TopoProbe {
        started: Instant::now(),
        phases: [NsHist::new(), NsHist::new(), NsHist::new()],
        labels: LoopProfiler::new(),
        per_cell: vec![NsHist::new(); n_cells],
    };
    let (report, cells) = run_topology_inner(topo, obs, Some(&mut probe));
    let events: u64 = cells.iter().map(|(e, _)| e).sum();
    let profile = TopoProfile {
        wall_s: probe.started.elapsed().as_secs_f64(),
        events,
        labels: probe.labels.dists(),
        phases: PHASES
            .iter()
            .zip(probe.phases)
            .filter(|(_, h)| h.count() > 0)
            .map(|(path, h)| (path.to_string(), h))
            .collect(),
        cells: cells
            .into_iter()
            .zip(probe.per_cell)
            .map(|((events, queue_high_water), dispatch)| CellLaneProfile {
                events,
                dispatch,
                queue_high_water,
            })
            .collect(),
    };
    (report, profile)
}

/// The shared driver. Returns the report plus each cell's
/// `(events_processed, queue_high_water)` — read before the cells are
/// consumed, so the profiled wrapper can build lane stats.
fn run_topology_inner<O: Observer>(
    topo: &TopologyConfig,
    obs: &mut [O],
    mut probe: Option<&mut TopoProbe>,
) -> (TopoReport, Vec<(u64, u64)>) {
    topo.validate().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        obs.len(),
        topo.cells.len(),
        "one observer per cell, index-aligned"
    );
    let n_cells = topo.cells.len();
    let n_st = topo.base.stations.len();
    let end = SimTime::ZERO + topo.base.duration;

    // Initial positions and association state.
    let pos0: Vec<_> = topo
        .placements
        .iter()
        .map(|p| p.position_at(SimDuration::ZERO))
        .collect();
    // RSSI from each station to each AP at t = 0. A station without
    // mobility keeps it for the whole run.
    let rssi0: Vec<Vec<f64>> = pos0
        .iter()
        .map(|&p| (0..n_cells).map(|c| topo.rssi_dbm(p, c)).collect())
        .collect();
    let mut current: Vec<Option<usize>> = rssi0
        .iter()
        .map(|rssi| match topo.decide(None, rssi) {
            AssocDecision::Join(c) => Some(c),
            _ => None,
        })
        .collect();

    // Per-cell configs: the shared template, with this cell's initial
    // per-station rates and a deterministically split RNG stream.
    let cfgs: Vec<NetworkConfig> = (0..n_cells)
        .map(|c| {
            let mut cfg = topo.base.clone();
            cfg.seed = topo
                .base
                .seed
                .wrapping_add((c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for (s, st) in cfg.stations.iter_mut().enumerate() {
                let rate = topo.rate_towards(pos0[s], c, topo.placements[s].rate);
                st.link = airtime_wlan::LinkSpec::Fixed { rate, fer: 0.0 };
            }
            cfg
        })
        .collect();

    let mut cells: Vec<CellSim<'_, O>> = cfgs
        .iter()
        .zip(obs.iter_mut())
        .enumerate()
        .map(|(c, (cfg, o))| {
            let mask: Vec<bool> = (0..n_st).map(|s| current[s] == Some(c)).collect();
            CellSim::new(cfg, o, &mask)
        })
        .collect();

    // Replace the placeholder error models with distance-driven ones
    // for every initially-associated station.
    for s in 0..n_st {
        if let Some(c) = current[s] {
            let d = pos0[s].distance_ft(topo.cells[c].position);
            cells[c].set_station_link(s, topo.link_at(d));
        }
    }

    let mut roaming = RoamingReport {
        outage: vec![SimDuration::ZERO; n_st],
        ..RoamingReport::default()
    };
    // When each station joined its current cell, and the goodput it
    // had delivered there by then.
    let mut joined: Vec<(SimTime, u64)> = vec![(SimTime::ZERO, 0); n_st];

    let mut next_tick = SimTime::ZERO + topo.assoc_tick;
    loop {
        let boundary = next_tick.min(end);
        // Drain events up to the boundary, always the globally
        // earliest first.
        let drain_t0 = probe.is_some().then(Instant::now);
        loop {
            let mut best: Option<(SimTime, usize)> = None;
            for (i, cell) in cells.iter_mut().enumerate() {
                if let Some(t) = cell.peek_time() {
                    if t <= boundary && best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let Some((t, i)) = best else { break };
            // One branch on the unprofiled path; when profiling, time
            // the step and bill it to the label and the cell's lane.
            match probe.as_deref_mut() {
                None => {
                    cells[i].step();
                }
                Some(p) => {
                    let t0 = Instant::now();
                    let label = cells[i].step_labeled().map(|(_, l)| l);
                    let cost = t0.elapsed();
                    if let Some(label) = label {
                        p.per_cell[i].record(cost);
                        p.labels.count_timed(label, cost);
                    }
                }
            }
            // Mirror the busy window into co-channel neighbours; a
            // window a neighbour already holds is a no-op there.
            if let Some(busy_end) = cells[i].busy_until() {
                let t0 = probe.is_some().then(Instant::now);
                let channel = topo.cells[i].channel;
                for (j, cell) in cells.iter_mut().enumerate() {
                    if j != i && topo.cells[j].channel == channel {
                        cell.defer_all(t, busy_end);
                    }
                }
                phase_done(probe.as_deref_mut(), t0, MIRROR);
            }
        }
        phase_done(probe.as_deref_mut(), drain_t0, DRAIN);
        if next_tick > end {
            break;
        }
        let t0 = probe.is_some().then(Instant::now);
        management_tick(
            topo,
            &mut cells,
            &rssi0,
            next_tick,
            &mut current,
            &mut joined,
            &mut roaming,
        );
        phase_done(probe.as_deref_mut(), t0, MANAGEMENT);
        next_tick += topo.assoc_tick;
    }

    // Close the books: stations still associated get their final
    // visit interval.
    for s in 0..n_st {
        if let Some(c) = current[s] {
            close_visit(&mut roaming, &cells[c], s, c, joined[s], end);
        }
    }
    let lane_stats: Vec<(u64, u64)> = cells
        .iter()
        .map(|c| (c.events_processed(), c.queue_high_water()))
        .collect();
    let reports = cells.into_iter().map(|c| c.finish(end)).collect();
    (
        TopoReport {
            cells: reports,
            roaming,
            end,
        },
        lane_stats,
    )
}

/// Closes station `s`'s visit to `cell` (cell index `c`) at `to`,
/// crediting it the goodput delivered since `joined`.
fn close_visit<O: Observer>(
    roaming: &mut RoamingReport,
    cell: &CellSim<'_, O>,
    s: usize,
    c: usize,
    joined: (SimTime, u64),
    to: SimTime,
) {
    let (from, bytes_at_join) = joined;
    roaming.visits.push(Visit {
        station: s,
        cell: c,
        from,
        to,
        goodput_bytes: cell.station_goodput_bytes(s).saturating_sub(bytes_at_join),
    });
}

/// One management-plane tick at `now`: mobility, link refresh,
/// association policy. `rssi0` is each station's RSSI to every AP at
/// t = 0, which holds for stations without mobility.
fn management_tick<O: Observer>(
    topo: &TopologyConfig,
    cells: &mut [CellSim<'_, O>],
    rssi0: &[Vec<f64>],
    now: SimTime,
    current: &mut [Option<usize>],
    joined: &mut [(SimTime, u64)],
    roaming: &mut RoamingReport,
) {
    let n_cells = topo.cells.len();
    let elapsed = now.saturating_since(SimTime::ZERO);
    let mut moving_rssi = Vec::with_capacity(n_cells);
    for s in 0..current.len() {
        let placement = &topo.placements[s];
        let moved = placement.mobility.is_some();
        let p = placement.position_at(elapsed);
        let rssi: &[f64] = if moved {
            moving_rssi.clear();
            moving_rssi.extend((0..n_cells).map(|c| topo.rssi_dbm(p, c)));
            &moving_rssi
        } else {
            &rssi0[s]
        };
        // Points the station's link model and, under automatic rate
        // selection, its PHY rate at cell `c` from where it stands now.
        let aim = |cell: &mut CellSim<'_, O>, c: usize| {
            cell.set_station_link(s, topo.link_at(p.distance_ft(topo.cells[c].position)));
            cell.set_station_rate(s, topo.rate_towards(p, c, placement.rate));
        };
        // A moving station's channel to its serving AP degrades (or
        // improves) continuously.
        if moved {
            if let Some(c) = current[s] {
                aim(&mut cells[c], c);
            }
        }
        let from = current[s];
        let to = match topo.decide(from, rssi) {
            AssocDecision::Stay => from,
            AssocDecision::Join(to) => Some(to),
            AssocDecision::Drop => None,
        };
        if to != from {
            if let Some(c) = from {
                close_visit(roaming, &cells[c], s, c, joined[s], now);
                cells[c].disassociate(s, now);
            }
            if let Some(to) = to {
                aim(&mut cells[to], to);
                cells[to].associate(s, now);
            }
            // Both lanes see the move: the losing cell records the
            // departure, the gaining cell the arrival, so either side's
            // fingerprint alone localizes a roaming divergence.
            let (from_id, to_id) = (from.map(|c| c as u64), to.map(|c| c as u64));
            for c in from.into_iter().chain(to) {
                cells[c].observe_handoff(now, s as u64, from_id, to_id);
            }
            roaming.handoffs.push(HandoffRecord {
                at: now,
                station: s,
                from,
                to,
                serving_rssi_dbm: from.map(|c| rssi[c]),
                target_rssi_dbm: to.map(|c| rssi[c]),
            });
            current[s] = to;
            if let Some(to) = to {
                joined[s] = (now, cells[to].station_goodput_bytes(s));
            }
        }
        if current[s].is_none() {
            roaming.outage[s] += topo.assoc_tick;
        }
    }
}
