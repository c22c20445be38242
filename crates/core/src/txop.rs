//! TXOP-based time fairness — the paper's 802.11e integration path.
//!
//! §4.5: "Using 802.11e, competing nodes acquire Transmission
//! Opportunities (TXOP), each of which is defined as an interval of
//! time when a station has the right to initiate transmissions. …
//! TBR can be integrated with 802.11e by choosing appropriate traffic
//! categories for each competing node according to their fair share of
//! channel occupancy time."
//!
//! [`TxopScheduler`] realises that idea at the AP: clients are served
//! round-robin, each receiving a grant of `quantum` *channel time*; the
//! grant is debited by measured exchange airtime (COMPLETEEVENT), and
//! the turn passes when the grant is exhausted or the queue empties.
//! It is the deficit-round-robin idea transplanted from bytes to
//! microseconds — time-based fairness by construction, with burst
//! length bounded by the quantum instead of TBR's bucket. Compared to
//! TBR it needs no token-fill timer and no rate adjustment, but it
//! cannot regulate uplink traffic (a grant only paces what the AP
//! itself transmits), so it suits downlink-dominated cells.

use airtime_sim::{SimDuration, SimTime};

use crate::buffer::BufferPolicy;
use crate::config::ConfigError;
use crate::scheduler::{ClientId, EnqueueOutcome, QueuePool, QueuedPacket, Scheduler};

/// Configuration for [`TxopScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct TxopConfig {
    /// Channel time granted per turn (802.11e TXOP limits are of this
    /// order: 1.5–6 ms).
    pub quantum: SimDuration,
    /// Total packet buffer split across client queues.
    pub total_buffer: usize,
    /// Queue drop policy.
    pub buffer: BufferPolicy,
}

impl Default for TxopConfig {
    fn default() -> Self {
        TxopConfig {
            quantum: SimDuration::from_millis(6),
            total_buffer: 100,
            buffer: BufferPolicy::DropTail,
        }
    }
}

impl TxopConfig {
    /// Checks the tunables: a zero quantum never opens a grant, so
    /// nothing would ever be released.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.quantum.is_zero() {
            return Err(ConfigError::new("quantum_ms", "quantum must be positive"));
        }
        Ok(())
    }
}

/// Round-robin channel-time grants at the AP.
pub struct TxopScheduler {
    config: TxopConfig,
    pool: QueuePool,
    current: usize,
    /// Remaining channel time in the current grant, ns (may run
    /// negative on the exchange that exhausts it — the overshoot is
    /// banked against that client's *next* grant, like a DRR deficit).
    remaining: f64,
    /// Banked overshoot per client (≤ 0), ns.
    carry: Vec<f64>,
    /// Airtime served per client (measurement).
    served: Vec<f64>,
}

impl TxopScheduler {
    /// Creates an empty scheduler.
    ///
    /// # Panics
    ///
    /// Panics when [`TxopConfig::validate`] rejects `config`.
    pub fn new(config: TxopConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        TxopScheduler {
            config,
            pool: QueuePool::with_policy(config.total_buffer, config.buffer),
            current: 0,
            remaining: 0.0,
            carry: Vec::new(),
            served: Vec::new(),
        }
    }

    /// Total channel time served to `client` so far.
    pub fn served_airtime(&self, client: ClientId) -> Option<SimDuration> {
        self.pool
            .slot_of(client)
            .map(|i| SimDuration::from_nanos(self.served[i].max(0.0) as u64))
    }

    /// Ends the current turn (banking any overshoot against its owner)
    /// and moves to the next backlogged client whose banked debt plus a
    /// fresh quantum leaves a positive grant. A client in deep debt
    /// (one slow frame can cost several quanta) receives one quantum
    /// per round until it surfaces, exactly like a DRR deficit.
    fn advance(&mut self) -> bool {
        let n = self.pool.len();
        if n == 0 {
            return false;
        }
        if self.current < self.carry.len() {
            // Bank debt; forfeit unused surplus (standard DRR rule).
            self.carry[self.current] += self.remaining.min(0.0);
            self.remaining = 0.0;
        }
        let quantum = self.config.quantum.as_nanos() as f64;
        // Up to a few sweeps: debt never exceeds one frame's airtime,
        // which is a small number of quanta.
        for k in 1..=8 * n {
            let i = (self.current + k) % n;
            if self.pool.queues[i].is_empty() {
                continue;
            }
            let grant = self.carry[i] + quantum;
            if grant > 0.0 {
                self.current = i;
                self.remaining = grant;
                self.carry[i] = 0.0;
                return true;
            }
            // Still in debt: credit the quantum and keep going.
            self.carry[i] = grant;
        }
        false
    }
}

impl Scheduler for TxopScheduler {
    fn on_associate(&mut self, client: ClientId, _now: SimTime) {
        let slot = self.pool.add_client(client);
        if slot >= self.served.len() {
            self.served.push(0.0);
            self.carry.push(0.0);
        }
    }

    fn on_disassociate(&mut self, client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        let flushed = self.pool.flush_client(client);
        if let Some(slot) = self.pool.slot_of(client) {
            // Any banked debt or in-progress grant dies with the
            // association; `served` keeps measuring lifetime totals.
            self.carry[slot] = 0.0;
            if slot == self.current {
                self.remaining = 0.0;
            }
        }
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, now: SimTime) -> EnqueueOutcome {
        self.on_associate(pkt.client, now);
        self.pool.enqueue(pkt)
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        let n = self.pool.len();
        if n == 0 || self.pool.backlog() == 0 {
            return None;
        }
        let in_grant = self.remaining > 0.0 && !self.pool.queues[self.current].is_empty();
        if !in_grant && !self.advance() {
            return None;
        }
        self.pool.queues[self.current].pop_front()
    }

    fn on_complete(
        &mut self,
        client: ClientId,
        airtime: SimDuration,
        sent_by_ap: bool,
        _now: SimTime,
    ) {
        if !sent_by_ap {
            return; // a grant only paces the AP's own transmissions
        }
        if let Some(slot) = self.pool.slot_of(client) {
            let t = airtime.as_nanos() as f64;
            self.served[slot] += t;
            if slot == self.current {
                self.remaining -= t;
            }
        }
    }

    fn backlog(&self) -> usize {
        self.pool.backlog()
    }

    fn queue_len(&self, client: ClientId) -> usize {
        self.pool.queue_len(client)
    }

    fn drops(&self) -> u64 {
        self.pool.drops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AIRTIME_11M: SimDuration = SimDuration::from_micros(1617);
    const AIRTIME_1M: SimDuration = SimDuration::from_micros(12_854);

    fn pkt(client: usize, handle: u64) -> QueuedPacket {
        QueuedPacket {
            client: ClientId(client),
            handle,
            bytes: 1500,
        }
    }

    /// Saturated synthetic channel with per-client frame airtimes.
    fn drive(costs: &[SimDuration], span: SimDuration, quantum: SimDuration) -> Vec<SimDuration> {
        let mut s = TxopScheduler::new(TxopConfig {
            quantum,
            ..TxopConfig::default()
        });
        let n = costs.len();
        let mut now = SimTime::ZERO;
        for c in 0..n {
            s.on_associate(ClientId(c), now);
        }
        let end = SimTime::ZERO + span;
        let mut airtime = vec![SimDuration::ZERO; n];
        let mut h = 0;
        while now < end {
            for c in 0..n {
                while s.queue_len(ClientId(c)) < 10 {
                    s.enqueue(pkt(c, h), now);
                    h += 1;
                }
            }
            let p = s.dequeue(now).expect("saturated");
            let cost = costs[p.client.index()];
            now += cost;
            airtime[p.client.index()] += cost;
            s.on_complete(p.client, cost, true, now);
        }
        airtime
    }

    #[test]
    fn equal_airtime_for_mixed_rates() {
        let airtime = drive(
            &[AIRTIME_11M, AIRTIME_1M],
            SimDuration::from_secs(30),
            SimDuration::from_millis(6),
        );
        let ratio = airtime[0].as_secs_f64() / airtime[1].as_secs_f64();
        assert!((0.9..1.1).contains(&ratio), "airtime ratio {ratio}");
    }

    #[test]
    fn quantum_bounds_consecutive_service() {
        // With a 6 ms quantum, the 11M client (1.617 ms frames) gets at
        // most 4 consecutive packets before the turn passes.
        let mut s = TxopScheduler::new(TxopConfig::default());
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        for h in 0..40 {
            s.enqueue(pkt(0, h), now);
            s.enqueue(pkt(1, 100 + h), now);
        }
        let mut run = 0;
        let mut max_run = 0;
        let mut last = usize::MAX;
        for _ in 0..30 {
            let p = s.dequeue(now).unwrap();
            s.on_complete(p.client, AIRTIME_11M, true, now);
            if p.client.index() == last {
                run += 1;
            } else {
                run = 1;
                last = p.client.index();
            }
            max_run = max_run.max(run);
        }
        assert!(max_run <= 4, "run of {max_run} exceeds the quantum");
    }

    #[test]
    fn empty_queue_forfeits_turn() {
        let mut s = TxopScheduler::new(TxopConfig::default());
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        s.enqueue(pkt(1, 1), now);
        let p = s.dequeue(now).unwrap();
        assert_eq!(p.client, ClientId(1));
        assert!(s.dequeue(now).is_none());
    }

    #[test]
    fn uplink_completions_do_not_consume_grants() {
        let mut s = TxopScheduler::new(TxopConfig::default());
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.enqueue(pkt(0, 1), now);
        let _ = s.dequeue(now).unwrap();
        let before = s.remaining;
        s.on_complete(ClientId(0), AIRTIME_1M, false, now);
        assert_eq!(s.remaining, before, "uplink airtime must not debit");
    }

    #[test]
    fn served_airtime_is_tracked() {
        let mut s = TxopScheduler::new(TxopConfig::default());
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.enqueue(pkt(0, 1), now);
        let p = s.dequeue(now).unwrap();
        s.on_complete(p.client, AIRTIME_11M, true, now);
        assert_eq!(s.served_airtime(ClientId(0)), Some(AIRTIME_11M));
        assert_eq!(s.served_airtime(ClientId(9)), None);
    }
}
