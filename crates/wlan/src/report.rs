//! Experiment results.

use airtime_mac::MacStats;
use airtime_sim::{SimDuration, SimTime};

use crate::config::{Direction, Transport};

/// Measured outcome of one flow.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Index into the experiment's flow list.
    pub flow: usize,
    /// The client station (0-based, excluding the AP).
    pub station: usize,
    /// Transport protocol.
    pub transport: Transport,
    /// Direction.
    pub direction: Direction,
    /// Application goodput over the post-warm-up window, Mbit/s.
    pub goodput_mbps: f64,
    /// Bytes delivered post-warm-up.
    pub goodput_bytes: u64,
    /// Task completion time (from flow start), for task-model flows
    /// that finished.
    pub completion: Option<SimDuration>,
    /// TCP retransmissions (0 for UDP).
    pub retransmits: u64,
    /// TCP timeouts (0 for UDP).
    pub timeouts: u64,
    /// Median per-packet latency of delivered data packets, in
    /// milliseconds (AP/client queueing plus air), post-warm-up.
    pub latency_p50_ms: Option<f64>,
    /// 95th-percentile per-packet latency in milliseconds.
    pub latency_p95_ms: Option<f64>,
}

/// Measured outcome of one client station.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// Station index (0-based, excluding the AP).
    pub station: usize,
    /// Channel occupancy accumulated post-warm-up.
    pub occupancy: SimDuration,
    /// This station's fraction of all clients' occupancy (the paper's
    /// T(i) under saturation).
    pub occupancy_share: f64,
    /// Sum of this station's flows' goodputs, Mbit/s.
    pub goodput_mbps: f64,
}

/// Full experiment outcome.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-flow results, in config order.
    pub flows: Vec<FlowReport>,
    /// Per-station results, in config order.
    pub nodes: Vec<NodeReport>,
    /// Aggregate goodput across all flows, Mbit/s.
    pub total_goodput_mbps: f64,
    /// MAC-level statistics for the whole run (including warm-up).
    pub mac: MacStats,
    /// Packets dropped by the AP scheduler's buffers.
    pub sched_drops: u64,
    /// Fraction of post-warm-up wall time the medium was busy.
    pub utilization: f64,
    /// Simulated time at the end of the run.
    pub end: SimTime,
    /// Final TBR token-refill rates per station (when TBR was the
    /// scheduler) — exposes what ADJUSTRATEEVENT converged to.
    pub tbr_rates: Option<Vec<f64>>,
}

impl Report {
    /// Mean completion time over task flows that completed (the paper's
    /// AvgTaskTime); `None` when no task flow finished.
    pub fn avg_task_time(&self) -> Option<SimDuration> {
        let done: Vec<SimDuration> = self.flows.iter().filter_map(|f| f.completion).collect();
        if done.is_empty() {
            None
        } else {
            let total_ns: u64 = done.iter().map(|d| d.as_nanos()).sum();
            Some(SimDuration::from_nanos(total_ns / done.len() as u64))
        }
    }

    /// Latest completion time (FinalTaskTime), if every task flow in
    /// the experiment completed.
    pub fn final_task_time(&self) -> Option<SimDuration> {
        let mut max = SimDuration::ZERO;
        for f in &self.flows {
            match f.completion {
                Some(c) => max = max.max(c),
                None => return None,
            }
        }
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airtime_mac::MacStats;

    fn flow(completion: Option<SimDuration>) -> FlowReport {
        FlowReport {
            flow: 0,
            station: 0,
            transport: Transport::Tcp,
            direction: Direction::Uplink,
            goodput_mbps: 1.0,
            goodput_bytes: 1,
            completion,
            retransmits: 0,
            timeouts: 0,
            latency_p50_ms: None,
            latency_p95_ms: None,
        }
    }

    fn report(flows: Vec<FlowReport>) -> Report {
        Report {
            flows,
            nodes: Vec::new(),
            total_goodput_mbps: 0.0,
            mac: MacStats::default(),
            sched_drops: 0,
            utilization: 0.0,
            end: SimTime::ZERO,
            tbr_rates: None,
        }
    }

    #[test]
    fn task_time_aggregation() {
        let r = report(vec![
            flow(Some(SimDuration::from_secs(2))),
            flow(Some(SimDuration::from_secs(4))),
        ]);
        assert_eq!(r.avg_task_time(), Some(SimDuration::from_secs(3)));
        assert_eq!(r.final_task_time(), Some(SimDuration::from_secs(4)));
    }

    #[test]
    fn incomplete_tasks_poison_final_time_only() {
        let r = report(vec![flow(Some(SimDuration::from_secs(2))), flow(None)]);
        assert_eq!(r.avg_task_time(), Some(SimDuration::from_secs(2)));
        assert_eq!(r.final_task_time(), None);
    }

    #[test]
    fn no_tasks_no_times() {
        let r = report(vec![]);
        assert_eq!(r.avg_task_time(), None);
        // Vacuously, every task flow completed.
        assert_eq!(r.final_task_time(), Some(SimDuration::ZERO));
    }
}
