//! The AP scheduler abstraction and the throughput-fair baselines.
//!
//! The paper's Exp-Normal configuration is a stock AP: one shared
//! drop-tail interface queue ([`FifoScheduler`]). Commodity APs of the
//! era effectively served clients round-robin ([`RoundRobinScheduler`],
//! §2.4: "the AP queuing scheme … usually transmits to wireless clients
//! in a round-robin manner"), and the wired-style fair-queuing baseline
//! the paper cites is Deficit Round Robin ([`DrrScheduler`], their
//! reference \[24\]). All of these are *throughput-based* fair: with equal
//! packet sizes they equalise packets (hence bytes) per client, letting
//! slow clients hog airtime. The time-based alternative is
//! [`crate::TbrScheduler`].

use airtime_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

use crate::buffer::{BufferPolicy, RedState};

/// Identifier of an associated client station, as the AP driver sees it
/// (the real implementation keys on the 6-byte MAC address; an index is
/// isomorphic and cheaper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub usize);

impl ClientId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A packet queued at the AP for downlink transmission to `client`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueuedPacket {
    /// Destination client (for uplink TCP flows this is the client whose
    /// acks these are — the regulated entity either way).
    pub client: ClientId,
    /// Opaque upper-layer cookie.
    pub handle: u64,
    /// Size on the wire in bytes.
    pub bytes: u64,
}

/// Result of offering a packet to the scheduler's buffers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnqueueOutcome {
    /// Buffered.
    Accepted,
    /// Rejected by the drop-tail policy (buffer full).
    Dropped,
}

/// An AP packet-scheduling discipline — the one trait every family
/// implements.
///
/// The paper's event names map onto this trait as follows:
/// ASSOCIATEEVENT → [`on_associate`](Scheduler::on_associate),
/// APPTXEVENT → [`enqueue`](Scheduler::enqueue),
/// MACTXEVENT → [`dequeue`](Scheduler::dequeue),
/// COMPLETEEVENT → [`on_complete`](Scheduler::on_complete),
/// ADJUSTRATEEVENT → [`on_tick`](Scheduler::on_tick) (on the
/// [`tick_period`](Scheduler::tick_period) grid; TBR's FILLEVENT is a
/// closed-form read, not an event).
///
/// Beyond the paper's handlers, the trait carries the hooks an embedding
/// simulator needs to treat every family uniformly: the §4.5 weighted
/// association ([`on_associate_weighted`](Scheduler::on_associate_weighted))
/// and token-state introspection for token-regulated families
/// ([`token_balance_ns`](Scheduler::token_balance_ns) /
/// [`token_fill_rate`](Scheduler::token_fill_rate)), so embedders never
/// downcast to a concrete type.
pub trait Scheduler {
    /// A client joined the cell.
    fn on_associate(&mut self, client: ClientId, now: SimTime);

    /// A client joined the cell with a QoS weight (1.0 = equal share).
    /// Disciplines without weighted shares ignore the weight.
    fn on_associate_weighted(&mut self, client: ClientId, _weight: f64, now: SimTime) {
        self.on_associate(client, now);
    }

    /// Associates every `(client, weight)` of `members` at `now`, in
    /// order, leaving the same state as one
    /// [`on_associate_weighted`](Scheduler::on_associate_weighted) call
    /// each. Regulators that re-normalise every key per association
    /// (TBR) override it to do that once.
    fn on_associate_all(&mut self, members: &[(ClientId, f64)], now: SimTime) {
        for &(client, weight) in members {
            self.on_associate_weighted(client, weight, now);
        }
    }

    /// A client left the cell (roamed away or timed out). Flushes the
    /// client's buffered packets and returns them so the embedder can
    /// close their lifecycles; any per-client service state (token
    /// balance, deficit, grant carry) is dropped — a station that comes
    /// back re-registers from scratch via
    /// [`on_associate`](Scheduler::on_associate). Disciplines with
    /// only shared state keep the client's packets (a stock FIFO cannot
    /// tell whose packets are whose without scanning; those that can,
    /// do).
    fn on_disassociate(&mut self, _client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        Vec::new()
    }

    /// The network layer has a packet for `client` (APPTXEVENT).
    fn enqueue(&mut self, pkt: QueuedPacket, now: SimTime) -> EnqueueOutcome;

    /// The MAC is ready for a frame (MACTXEVENT): pick one, if any
    /// client is currently eligible.
    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket>;

    /// A frame exchange involving `client` finished, consuming `airtime`
    /// of channel occupancy (COMPLETEEVENT). `sent_by_ap` distinguishes
    /// downlink from uplink frames; both debit the same client.
    /// Disciplines that do not account airtime ignore it.
    fn on_complete(
        &mut self,
        _client: ClientId,
        _airtime: SimDuration,
        _sent_by_ap: bool,
        _now: SimTime,
    ) {
    }

    /// Brings time-driven state (releases, rate adjustment) up to
    /// `now`. A consult like any other: it must not change what the
    /// scheduler does. A no-op for disciplines without a
    /// [`tick_period`](Scheduler::tick_period).
    fn on_tick(&mut self, _now: SimTime) {}

    /// The grid on which the scheduler's time-driven work falls; `None`
    /// (the default) for disciplines that need no timer.
    ///
    /// Simulators never tick a scheduler at every grid instant. A
    /// scheduler with a period runs the work due on its grid at the
    /// grid instants themselves, whichever entry point comes next, and
    /// keeps its clocks lazy (TBR reads each balance in closed form).
    /// Its state is then a pure function of the writes — enqueues,
    /// dequeues, completions, (dis)associations — and consults at any
    /// other instants ([`on_tick`](Scheduler::on_tick),
    /// [`next_wake`](Scheduler::next_wake),
    /// [`has_eligible`](Scheduler::has_eligible)) change nothing. The
    /// driver calls `on_tick` only at the wake-ups `next_wake` asks for
    /// and at the end of a run.
    fn tick_period(&self) -> Option<SimDuration> {
        None
    }

    /// When nothing is eligible, the exact instant something may next
    /// become eligible: the first release instant, or earlier work on
    /// the grid that may move it (TBR's rate adjustment). At that
    /// instant [`has_eligible`](Scheduler::has_eligible) turns true
    /// unless that earlier work postponed the release; one grid step
    /// before, it is false. `None` when no wake-up is needed. The
    /// driver keeps one deadline armed there, so the release instant
    /// does not depend on which other events happen to be dispatched.
    fn next_wake(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// Total packets currently buffered.
    fn backlog(&self) -> usize;

    /// Packets currently buffered for `client` (for disciplines with a
    /// single shared queue, the shared occupancy). Lets traffic sources
    /// apply upstream back-pressure instead of blind-feeding a full
    /// buffer.
    fn queue_len(&self, client: ClientId) -> usize;

    /// True when [`dequeue`](Scheduler::dequeue) would return a packet.
    /// The default — any backlog — holds for every work-conserving
    /// discipline; regulators that hold packets back override it with
    /// an O(1) read (TBR: a non-empty eligible ring, or a release
    /// instant at or before `now`), since the driver asks after every
    /// dispatch.
    fn has_eligible(&self, _now: SimTime) -> bool {
        self.backlog() > 0
    }

    /// Packets dropped by the buffer policy so far.
    fn drops(&self) -> u64;

    /// The client's channel-time token balance in nanoseconds (may be
    /// negative), for token-regulated disciplines; `None` otherwise.
    fn token_balance_ns(&self, _client: ClientId) -> Option<f64> {
        None
    }

    /// The client's token fill rate as a fraction of wall-clock time,
    /// for token-regulated disciplines; `None` otherwise.
    fn token_fill_rate(&self, _client: ClientId) -> Option<f64> {
        None
    }
}

// ---------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------

/// A stock AP's single shared drop-tail queue (the paper's Exp-Normal:
/// "the kernel interface queue (with the maximum size of 110) is used to
/// store packets").
pub struct FifoScheduler {
    queue: VecDeque<QueuedPacket>,
    capacity: usize,
    drops: u64,
}

impl FifoScheduler {
    /// Creates a FIFO with the given packet capacity.
    pub fn new(capacity: usize) -> Self {
        FifoScheduler {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            drops: 0,
        }
    }
}

impl Default for FifoScheduler {
    /// The paper's 110-packet kernel interface queue.
    fn default() -> Self {
        FifoScheduler::new(110)
    }
}

impl Scheduler for FifoScheduler {
    fn on_associate(&mut self, _client: ClientId, _now: SimTime) {}

    fn on_disassociate(&mut self, client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        // A real kernel interface queue would let these frames age out;
        // scanning them away models the driver flush on DEAUTH.
        let mut flushed = Vec::new();
        self.queue.retain(|p| {
            if p.client == client {
                flushed.push(*p);
                false
            } else {
                true
            }
        });
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, _now: SimTime) -> EnqueueOutcome {
        if self.queue.len() >= self.capacity {
            self.drops += 1;
            EnqueueOutcome::Dropped
        } else {
            self.queue.push_back(pkt);
            EnqueueOutcome::Accepted
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        self.queue.pop_front()
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn queue_len(&self, _client: ClientId) -> usize {
        self.queue.len()
    }

    fn drops(&self) -> u64 {
        self.drops
    }
}

// ---------------------------------------------------------------------
// Per-client queue pool shared by RR / DRR / TBR
// ---------------------------------------------------------------------

/// Per-client drop-tail queues with a shared total budget, as in the
/// paper's §4.4: an AP with total buffer x serves n clients with n
/// queues of x/n packets each.
pub struct QueuePool {
    /// One FIFO per registered client, in slot order.
    pub queues: Vec<VecDeque<QueuedPacket>>,
    /// Slot → client mapping (append-only).
    clients: Vec<ClientId>,
    /// Client → slot, indexed by [`ClientId::index`]: client ids are
    /// dense station or flow indices, and slots are never reused, so
    /// an entry once set never changes.
    slot_by_client: Vec<Option<usize>>,
    total_budget: usize,
    drops: u64,
    policy: BufferPolicy,
    red: Vec<RedState>,
    rng: SimRng,
}

impl QueuePool {
    pub fn new(total_budget: usize) -> Self {
        Self::with_policy(total_budget, BufferPolicy::DropTail)
    }

    pub fn with_policy(total_budget: usize, policy: BufferPolicy) -> Self {
        QueuePool {
            queues: Vec::new(),
            clients: Vec::new(),
            slot_by_client: Vec::new(),
            total_budget: total_budget.max(1),
            drops: 0,
            policy,
            red: Vec::new(),
            // Deterministic: the pool's RED randomness is part of the
            // scheduler's state, seeded the same every run.
            rng: SimRng::new(0x52ED_0BFF),
        }
    }

    pub fn slot_of(&self, client: ClientId) -> Option<usize> {
        self.slot_by_client.get(client.index()).copied().flatten()
    }

    pub fn add_client(&mut self, client: ClientId) -> usize {
        match self.slot_of(client) {
            Some(i) => i,
            None => {
                if client.index() >= self.slot_by_client.len() {
                    self.slot_by_client.resize(client.index() + 1, None);
                }
                self.slot_by_client[client.index()] = Some(self.clients.len());
                self.clients.push(client);
                self.queues.push(VecDeque::new());
                self.red.push(RedState::default());
                self.queues.len() - 1
            }
        }
    }

    /// Packets buffered for `client` (0 for an unregistered client).
    pub fn queue_len(&self, client: ClientId) -> usize {
        self.slot_of(client).map_or(0, |i| self.queues[i].len())
    }

    pub fn per_queue_cap(&self) -> usize {
        (self.total_budget / self.queues.len().max(1)).max(1)
    }

    pub fn enqueue(&mut self, pkt: QueuedPacket) -> EnqueueOutcome {
        let slot = self.add_client(pkt.client);
        let cap = self.per_queue_cap();
        let len = self.queues[slot].len();
        if self.red[slot].should_drop(&self.policy, len, cap, &mut self.rng) {
            self.drops += 1;
            EnqueueOutcome::Dropped
        } else {
            self.queues[slot].push_back(pkt);
            EnqueueOutcome::Accepted
        }
    }

    /// Drains and returns every packet buffered for `client`. The slot
    /// itself persists (slots are append-only so RR/DRR rotation
    /// indices stay stable across association churn); only its contents
    /// and RED history go.
    pub fn flush_client(&mut self, client: ClientId) -> Vec<QueuedPacket> {
        match self.slot_of(client) {
            Some(i) => {
                self.red[i] = RedState::default();
                self.queues[i].drain(..).collect()
            }
            None => Vec::new(),
        }
    }

    /// Counts a drop decided outside the pool's own buffer policy
    /// (e.g. traffic addressed to a disassociated client).
    pub fn note_drop(&mut self) {
        self.drops += 1;
    }

    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    pub fn drops(&self) -> u64 {
        self.drops
    }

    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True when no client slot has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }
}

// ---------------------------------------------------------------------
// Round robin
// ---------------------------------------------------------------------

/// Packet-granularity round robin over per-client queues — equal
/// *transmission opportunities* per client, i.e. the downlink analogue
/// of DCF's fairness notion.
pub struct RoundRobinScheduler {
    pool: QueuePool,
    next: usize,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler with a shared buffer budget.
    pub fn new(total_budget: usize) -> Self {
        RoundRobinScheduler {
            pool: QueuePool::new(total_budget),
            next: 0,
        }
    }
}

impl Default for RoundRobinScheduler {
    fn default() -> Self {
        RoundRobinScheduler::new(100)
    }
}

impl Scheduler for RoundRobinScheduler {
    fn on_associate(&mut self, client: ClientId, _now: SimTime) {
        self.pool.add_client(client);
    }

    fn on_disassociate(&mut self, client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        self.pool.flush_client(client)
    }

    fn enqueue(&mut self, pkt: QueuedPacket, _now: SimTime) -> EnqueueOutcome {
        self.pool.enqueue(pkt)
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        let n = self.pool.len();
        for k in 0..n {
            let i = (self.next + k) % n;
            if let Some(pkt) = self.pool.queues[i].pop_front() {
                self.next = (i + 1) % n;
                return Some(pkt);
            }
        }
        None
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

// ---------------------------------------------------------------------
// Deficit round robin
// ---------------------------------------------------------------------

/// Deficit Round Robin (Shreedhar & Varghese) — byte-granularity
/// throughput fairness even with mixed packet sizes. Still
/// throughput-based: it equalises *bytes*, not channel time, so a slow
/// client's bytes cost the cell far more airtime.
pub struct DrrScheduler {
    pool: QueuePool,
    deficits: Vec<u64>,
    quantum: u64,
    /// Per-client QoS weights scaling the quantum (the weighted-DRR
    /// extension, so weighted scenarios compare across families).
    weights: Vec<f64>,
    next: usize,
    /// Queue currently being drained within its round's deficit.
    in_service: Option<usize>,
}

impl DrrScheduler {
    /// Creates a DRR scheduler with the given buffer budget and byte
    /// quantum (use at least the MTU so every round can send).
    pub fn new(total_budget: usize, quantum: u64) -> Self {
        DrrScheduler {
            pool: QueuePool::new(total_budget),
            deficits: Vec::new(),
            quantum: quantum.max(1),
            weights: Vec::new(),
            next: 0,
            in_service: None,
        }
    }

    /// The byte grant slot `i` receives per round visit.
    fn quantum_of(&self, i: usize) -> u64 {
        let w = self.weights.get(i).copied().unwrap_or(1.0);
        ((self.quantum as f64 * w).round() as u64).max(1)
    }

    fn serve(&mut self, i: usize) -> Option<QueuedPacket> {
        let front = *self.pool.queues[i].front()?;
        if self.deficits[i] < front.bytes {
            return None;
        }
        self.deficits[i] -= front.bytes;
        let pkt = self.pool.queues[i].pop_front();
        if self.pool.queues[i].is_empty() {
            // An emptied queue forfeits its deficit (standard DRR).
            self.deficits[i] = 0;
            self.in_service = None;
        } else {
            self.in_service = Some(i);
        }
        pkt
    }
}

impl Default for DrrScheduler {
    fn default() -> Self {
        DrrScheduler::new(100, 1500)
    }
}

impl Scheduler for DrrScheduler {
    fn on_associate(&mut self, client: ClientId, now: SimTime) {
        // Registration without an explicit weight keeps (or defaults
        // to) weight 1.0 — plain DRR.
        let weight = self
            .pool
            .slot_of(client)
            .and_then(|i| self.weights.get(i).copied())
            .unwrap_or(1.0);
        self.on_associate_weighted(client, weight, now);
    }

    /// Associates `client` with a QoS weight: each visit grants
    /// `weight × quantum` bytes, so long-term byte shares follow the
    /// weights (classic weighted DRR). Weight 1.0 is plain DRR.
    fn on_associate_weighted(&mut self, client: ClientId, weight: f64, _now: SimTime) {
        assert!(weight > 0.0, "weight must be positive");
        let slot = self.pool.add_client(client);
        while slot >= self.deficits.len() {
            self.deficits.push(0);
            self.weights.push(1.0);
        }
        self.weights[slot] = weight;
    }

    fn on_disassociate(&mut self, client: ClientId, _now: SimTime) -> Vec<QueuedPacket> {
        let flushed = self.pool.flush_client(client);
        if let Some(slot) = self.pool.slot_of(client) {
            self.deficits[slot] = 0;
            self.weights[slot] = 1.0;
            if self.in_service == Some(slot) {
                self.in_service = None;
            }
        }
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, _now: SimTime) -> EnqueueOutcome {
        let slot = self.pool.add_client(pkt.client);
        while slot >= self.deficits.len() {
            self.deficits.push(0);
            self.weights.push(1.0);
        }
        self.pool.enqueue(pkt)
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QueuedPacket> {
        let n = self.pool.len();
        if n == 0 || self.pool.backlog() == 0 {
            return None;
        }
        // Continue draining the queue whose round is in progress.
        if let Some(i) = self.in_service {
            if let Some(pkt) = self.serve(i) {
                return Some(pkt);
            }
            // Deficit exhausted: its round is over.
            self.in_service = None;
            self.next = (i + 1) % n;
        }
        // Walk the round, granting each backlogged queue its quantum as
        // it is visited; a packet larger than quantum + deficit carries
        // the deficit to the next round. Two sweeps guarantee progress
        // for any front packet ≤ 2 quanta; the quantum is sized ≥ MTU so
        // one sweep normally suffices.
        for _ in 0..2 * n {
            let i = self.next;
            self.next = (i + 1) % n;
            if self.pool.queues[i].is_empty() {
                self.deficits[i] = 0;
                continue;
            }
            self.deficits[i] += self.quantum_of(i);
            if let Some(pkt) = self.serve(i) {
                return Some(pkt);
            }
        }
        None
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

    fn pkt(client: usize, handle: u64, bytes: u64) -> QueuedPacket {
        QueuedPacket {
            client: ClientId(client),
            handle,
            bytes,
        }
    }

    /// Sparse client ids (per-flow keys up to ~80) registered, flushed
    /// and re-registered in random order: slots stay append-only and
    /// the index agrees with a linear search over the slot table.
    #[test]
    fn queue_pool_index_matches_a_linear_search() {
        let mut rng = SimRng::new(0x51_07);
        let mut pool = QueuePool::new(400);
        let linear = |pool: &QueuePool, c: ClientId| pool.clients.iter().position(|&x| x == c);
        for round in 0..2_000 {
            // Every third id up to 80: gaps on both sides of each key.
            let client = ClientId(rng.below(27) as usize * 3 + 2);
            let before = pool.clients.clone();
            let known = linear(&pool, client);
            match rng.below(3) {
                0 => {
                    let slot = pool.add_client(client);
                    assert_eq!(Some(slot), known.or(Some(before.len())), "round {round}");
                }
                1 => {
                    pool.flush_client(client);
                }
                _ => {
                    let _ = pool.enqueue(pkt(client.index(), round, 100));
                }
            }
            // Append-only: the old table is a prefix of the new one,
            // growing by at most the one new client.
            assert_eq!(&pool.clients[..before.len()], &before[..], "round {round}");
            assert!(pool.clients.len() <= before.len() + 1, "round {round}");
            for id in 0..90 {
                let c = ClientId(id);
                assert_eq!(
                    pool.slot_of(c),
                    linear(&pool, c),
                    "round {round}: client {id}"
                );
            }
        }
        assert_eq!(pool.len(), 27, "every key registered once");
    }

    #[test]
    fn fifo_is_first_in_first_out_and_droptail() {
        let mut f = FifoScheduler::new(2);
        let now = SimTime::ZERO;
        assert_eq!(f.enqueue(pkt(0, 1, 100), now), EnqueueOutcome::Accepted);
        assert_eq!(f.enqueue(pkt(1, 2, 100), now), EnqueueOutcome::Accepted);
        assert_eq!(f.enqueue(pkt(0, 3, 100), now), EnqueueOutcome::Dropped);
        assert_eq!(f.drops(), 1);
        assert_eq!(f.backlog(), 2);
        assert!(f.has_eligible(now));
        assert_eq!(f.dequeue(now).unwrap().handle, 1);
        assert_eq!(f.dequeue(now).unwrap().handle, 2);
        assert!(f.dequeue(now).is_none());
    }

    #[test]
    fn drr_weight_scales_byte_share() {
        // Weight 2 vs 1: over many rounds the heavy client should move
        // ~2× the bytes of the light one (equal packet sizes, both
        // saturated).
        let mut s = DrrScheduler::new(1000, 1500);
        let now = SimTime::ZERO;
        s.on_associate_weighted(ClientId(0), 2.0, now);
        s.on_associate_weighted(ClientId(1), 1.0, now);
        let mut served = [0u64; 2];
        let mut h = 0;
        for _ in 0..300 {
            for c in 0..2 {
                while s.queue_len(ClientId(c)) < 8 {
                    s.enqueue(pkt(c, h, 1500), now);
                    h += 1;
                }
            }
            let p = s.dequeue(now).expect("saturated");
            served[p.client.index()] += p.bytes;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (1.8..2.2).contains(&ratio),
            "weighted byte ratio {ratio}, served {served:?}"
        );
    }

    #[test]
    fn drr_weight_default_is_plain_drr() {
        // on_associate (no weight) must behave exactly like weight 1.0.
        let mut a = DrrScheduler::new(100, 1500);
        let mut b = DrrScheduler::new(100, 1500);
        let now = SimTime::ZERO;
        for c in 0..2 {
            a.on_associate(ClientId(c), now);
            b.on_associate_weighted(ClientId(c), 1.0, now);
        }
        for h in 0..6 {
            a.enqueue(pkt((h % 2) as usize, h, 700), now);
            b.enqueue(pkt((h % 2) as usize, h, 700), now);
        }
        for _ in 0..6 {
            assert_eq!(
                a.dequeue(now).map(|p| p.handle),
                b.dequeue(now).map(|p| p.handle)
            );
        }
    }

    #[test]
    fn rr_alternates_between_backlogged_clients() {
        let mut s = RoundRobinScheduler::new(100);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        for h in 0..4 {
            s.enqueue(pkt(0, h, 1500), now);
            s.enqueue(pkt(1, 100 + h, 1500), now);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(now).map(|p| p.handle))
            .take(4)
            .collect();
        assert_eq!(order, vec![0, 100, 1, 101]);
    }

    #[test]
    fn rr_skips_empty_queues() {
        let mut s = RoundRobinScheduler::new(100);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        s.on_associate(ClientId(2), now);
        s.enqueue(pkt(2, 9, 500), now);
        assert_eq!(s.dequeue(now).unwrap().handle, 9);
        assert!(s.dequeue(now).is_none());
    }

    #[test]
    fn pool_splits_budget_per_client() {
        let mut s = RoundRobinScheduler::new(10);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        // 10 / 2 = 5 per queue.
        for h in 0..5 {
            assert_eq!(s.enqueue(pkt(0, h, 100), now), EnqueueOutcome::Accepted);
        }
        assert_eq!(s.enqueue(pkt(0, 99, 100), now), EnqueueOutcome::Dropped);
        assert_eq!(s.enqueue(pkt(1, 50, 100), now), EnqueueOutcome::Accepted);
    }

    #[test]
    fn drr_equalises_bytes_with_mixed_packet_sizes() {
        let mut s = DrrScheduler::new(1000, 1500);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        // Client 0 sends 1500-byte packets, client 1 sends 500-byte.
        for h in 0..200 {
            s.enqueue(pkt(0, h, 1500), now);
            s.enqueue(pkt(1, 1000 + 3 * h, 500), now);
            s.enqueue(pkt(1, 1001 + 3 * h, 500), now);
            s.enqueue(pkt(1, 1002 + 3 * h, 500), now);
        }
        let mut bytes = [0u64; 2];
        for _ in 0..120 {
            let p = s.dequeue(now).expect("backlogged");
            bytes[p.client.index()] += p.bytes;
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.8..1.25).contains(&ratio), "byte ratio {ratio}");
    }

    #[test]
    fn drr_returns_none_when_empty() {
        let mut s = DrrScheduler::default();
        s.on_associate(ClientId(0), SimTime::ZERO);
        assert!(s.dequeue(SimTime::ZERO).is_none());
        assert!(!s.has_eligible(SimTime::ZERO));
    }

    #[test]
    fn fifo_disassociate_flushes_only_that_client() {
        let mut f = FifoScheduler::new(10);
        let now = SimTime::ZERO;
        f.enqueue(pkt(0, 1, 100), now);
        f.enqueue(pkt(1, 2, 100), now);
        f.enqueue(pkt(0, 3, 100), now);
        let flushed = f.on_disassociate(ClientId(0), now);
        assert_eq!(
            flushed.iter().map(|p| p.handle).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(f.backlog(), 1);
        assert_eq!(f.dequeue(now).unwrap().handle, 2);
    }

    #[test]
    fn rr_disassociate_keeps_rotation_stable() {
        let mut s = RoundRobinScheduler::new(100);
        let now = SimTime::ZERO;
        for c in 0..3 {
            s.on_associate(ClientId(c), now);
            s.enqueue(pkt(c, c as u64, 1500), now);
        }
        let flushed = s.on_disassociate(ClientId(1), now);
        assert_eq!(flushed.len(), 1);
        assert_eq!(s.queue_len(ClientId(1)), 0);
        // Remaining clients still drain in slot order.
        assert_eq!(s.dequeue(now).unwrap().handle, 0);
        assert_eq!(s.dequeue(now).unwrap().handle, 2);
        assert!(s.dequeue(now).is_none());
    }

    #[test]
    fn drr_disassociate_clears_deficit_and_service() {
        let mut s = DrrScheduler::new(1000, 1500);
        let now = SimTime::ZERO;
        s.on_associate(ClientId(0), now);
        s.on_associate(ClientId(1), now);
        for h in 0..3 {
            s.enqueue(pkt(0, h, 500), now);
            s.enqueue(pkt(1, 10 + h, 500), now);
        }
        // Put client 0 mid-round, then drop it.
        let first = s.dequeue(now).unwrap();
        assert_eq!(first.client, ClientId(0));
        let flushed = s.on_disassociate(ClientId(0), now);
        assert_eq!(flushed.len(), 2);
        // Only client 1's packets remain, served in order.
        for h in 10..13 {
            assert_eq!(s.dequeue(now).unwrap().handle, h);
        }
        assert!(s.dequeue(now).is_none());
    }

    #[test]
    fn drr_single_queue_drains_in_order() {
        let mut s = DrrScheduler::new(100, 1500);
        let now = SimTime::ZERO;
        for h in 0..5 {
            s.enqueue(pkt(0, h, 1500), now);
        }
        for h in 0..5 {
            assert_eq!(s.dequeue(now).unwrap().handle, h);
        }
        assert!(s.dequeue(now).is_none());
    }
}
