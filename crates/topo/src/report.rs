//! Results of a multi-cell run: per-cell engine reports plus the
//! roaming metrics the single-cell [`Report`] cannot express —
//! handoffs, association intervals and outage time.

use airtime_sim::{SimDuration, SimTime};
use airtime_wlan::Report;

/// One association-state transition.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HandoffRecord {
    /// When the management tick decided it.
    pub at: SimTime,
    /// The station that moved.
    pub station: usize,
    /// Serving cell before (`None`: joined from outage / initial
    /// association happened below the floor).
    pub from: Option<usize>,
    /// Serving cell after (`None`: dropped to outage).
    pub to: Option<usize>,
    /// RSSI towards the old serving AP at decision time, dBm.
    pub serving_rssi_dbm: Option<f64>,
    /// RSSI towards the new serving AP at decision time, dBm.
    pub target_rssi_dbm: Option<f64>,
}

/// One contiguous stay at one AP.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Visit {
    /// The station.
    pub station: usize,
    /// The serving cell.
    pub cell: usize,
    /// Association instant.
    pub from: SimTime,
    /// Disassociation instant (or end of run).
    pub to: SimTime,
    /// Goodput bytes delivered for this station during the stay.
    pub goodput_bytes: u64,
}

impl Visit {
    /// Mean goodput over the stay, Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        let secs = self.to.saturating_since(self.from).as_secs_f64();
        if secs > 0.0 {
            self.goodput_bytes as f64 * 8.0 / 1e6 / secs
        } else {
            0.0
        }
    }
}

/// The roaming side of a topology run.
#[derive(Clone, Debug, Default)]
pub struct RoamingReport {
    /// Every association transition, in decision order.
    pub handoffs: Vec<HandoffRecord>,
    /// Every completed stay (closed at end of run for stations still
    /// associated), in close order.
    pub visits: Vec<Visit>,
    /// Per-station time spent unassociated, quantised to the
    /// management tick.
    pub outage: Vec<SimDuration>,
}

impl RoamingReport {
    /// AP-to-AP handoffs (excluding outage drops and joins).
    pub fn handoff_count(&self, station: usize) -> usize {
        self.handoffs
            .iter()
            .filter(|h| h.station == station && h.from.is_some() && h.to.is_some())
            .count()
    }

    /// The stays of one station, in chronological order.
    pub fn visits_of(&self, station: usize) -> Vec<&Visit> {
        let mut v: Vec<&Visit> = self
            .visits
            .iter()
            .filter(|v| v.station == station)
            .collect();
        v.sort_by_key(|v| v.from);
        v
    }
}

/// Everything a topology run produced.
#[derive(Clone, Debug)]
pub struct TopoReport {
    /// Per-cell engine reports, index-aligned with the topology's
    /// cells. Flow/station indices inside are the global station
    /// indices (every cell is configured with the full station list;
    /// stations only produce traffic while associated there).
    pub cells: Vec<Report>,
    /// Handoffs, visits and outage.
    pub roaming: RoamingReport,
    /// End of the run.
    pub end: SimTime,
}

impl TopoReport {
    /// Total goodput across all cells, Mbit/s.
    pub fn total_goodput_mbps(&self) -> f64 {
        self.cells.iter().map(|c| c.total_goodput_mbps).sum()
    }
}
