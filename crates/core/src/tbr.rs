//! TBR — the Time-based Regulator (§4 of the paper).
//!
//! TBR runs at the AP, above the MAC and below the network layer, and
//! regulates packet release so that every competing client receives an
//! equal (or weighted) long-term share of *channel occupancy time*. It
//! is a leaky/token bucket per client whose token unit is **channel time
//! in microseconds**, not bytes — that single design choice is what
//! turns throughput-based fairness into time-based fairness:
//!
//! - **ASSOCIATEEVENT** ([`TbrScheduler::on_associate`]): create the
//!   client's queue, initialise `tokens`, `bucket` and `rate`.
//! - **FILLEVENT** (lazy): a balance read at `t` is
//!   `min(bucketᵢ, tokensᵢ + rateᵢ·(t − as_ofᵢ))`, from the balance
//!   and instant of its last write; a client in debt resumes at the
//!   first `fill_period` grid instant that read turns positive.
//! - **APPTXEVENT** ([`TbrScheduler::enqueue`]): queue a packet on its
//!   client's queue (any buffer policy works; drop-tail here, §4.4).
//! - **MACTXEVENT** ([`TbrScheduler::dequeue`]): when the MAC can take a
//!   frame, pick round-robin among queues that are non-empty *and* have
//!   positive tokens (a ring of eligible keys). Round-robin choice only
//!   affects short-term fairness, not correctness (§4.1).
//! - **COMPLETEEVENT** ([`TbrScheduler::on_complete`]): debit the
//!   client's tokens by the exchange's measured channel occupancy —
//!   including retransmissions, and for *both* uplink and downlink
//!   frames, since the AP is only a facilitator (§2.2).
//! - **ADJUSTRATEEVENT** (at its grid instant, run by whichever entry
//!   point comes first at or after it): keep the
//!   channel fully utilised without violating max-min fairness by
//!   moving rate from the most under-utilising client (half its excess
//!   at a time) to the clients that consumed their full allocation
//!   (§4.3, Figure 7).
//!
//! Uplink TCP needs no client cooperation: the acks of an uplink flow
//! are downlink packets through these queues, so exhausted tokens stall
//! the acks and ack-clocking throttles the sender. Uplink UDP requires
//! the optional client-side defer (the notification-bit mechanism of
//! §4.1), which `airtime-wlan` implements as an extension.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use airtime_sim::{SimDuration, SimTime};

use crate::buffer::BufferPolicy;
use crate::config::ConfigError;
use crate::scheduler::{ClientId, EnqueueOutcome, QueuePool, QueuedPacket, Scheduler};

/// Tunables for [`TbrScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct TbrConfig {
    /// The release grid: a client in debt resumes at the first multiple
    /// of this period where its balance reads positive. Balances
    /// themselves accrue continuously. Rate adjustments fall on this
    /// grid too.
    pub fill_period: SimDuration,
    /// ADJUSTRATEEVENT period.
    pub adjust_period: SimDuration,
    /// Bucket depth: the maximum burst of channel time a client can
    /// accumulate (§4.5 discusses its short-term-fairness impact).
    pub bucket: SimDuration,
    /// Token balance at association (the paper's `T_init`).
    pub initial_tokens: SimDuration,
    /// `R_th`: a client whose unused fraction of its rate exceeds this
    /// is considered under-utilising by the rate adjuster.
    pub excess_threshold: f64,
    /// A client only donates rate if its queue was empty for more than
    /// `1 − demand_threshold` of the adjustment window. This guards the
    /// adjuster against misreading scheduling friction (token-bucket
    /// caps, contention gaps) of a fully backlogged client as lack of
    /// demand, which would otherwise drift rates away from fair shares.
    pub demand_threshold: f64,
    /// Rate floor: adjustment never pushes a client below this share,
    /// so a returning client can always ramp back up.
    pub min_rate: f64,
    /// A client must look under-demanding for this many consecutive
    /// adjustment windows before it donates rate. TCP traffic through a
    /// binding token gate is bursty (acks pile up and release together),
    /// so single-window excess alternates; genuine low demand (an
    /// application-limited sender) persists across windows.
    pub donation_streak: u32,
    /// Per-adjustment relaxation of every rate toward its weighted fair
    /// share. Donations taken on the basis of a transient (e.g. a
    /// client that looked idle while DCF starved it) heal instead of
    /// compounding; persistent genuine under-demand keeps winning
    /// because fresh donations outpace the relaxation.
    pub restitution: f64,
    /// Total packet buffer split evenly across client queues (§4.4).
    pub total_buffer: usize,
    /// Drop policy for those queues (§4.1: "TBR works with any
    /// buffering scheme").
    pub buffer: BufferPolicy,
}

impl Default for TbrConfig {
    fn default() -> Self {
        TbrConfig {
            fill_period: SimDuration::from_millis(2),
            adjust_period: SimDuration::from_secs(1),
            bucket: SimDuration::from_millis(20),
            initial_tokens: SimDuration::from_millis(5),
            excess_threshold: 0.10,
            demand_threshold: 0.5,
            min_rate: 0.02,
            donation_streak: 2,
            restitution: 0.1,
            total_buffer: 100,
            buffer: BufferPolicy::DropTail,
        }
    }
}

impl TbrConfig {
    /// Checks the tunables, naming the first offending one. A zero fill
    /// period leaves no release grid, a zero bucket caps
    /// every balance at zero so nothing is ever released, and an
    /// adjustment period shorter than the fill period would re-adjust
    /// rates at every fill, on windows too short to measure demand.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fill_period.is_zero() {
            return Err(ConfigError::new(
                "fill_period_ms",
                "fill_period must be positive",
            ));
        }
        if self.adjust_period < self.fill_period {
            return Err(ConfigError::new(
                "adjust_period_ms",
                format!(
                    "adjust_period must be at least fill_period ({} ms)",
                    self.fill_period.as_secs_f64() * 1e3
                ),
            ));
        }
        if self.bucket.is_zero() {
            return Err(ConfigError::new("bucket_ms", "bucket must be positive"));
        }
        for (name, v) in [
            ("excess_threshold", self.excess_threshold),
            ("demand_threshold", self.demand_threshold),
            ("min_rate", self.min_rate),
            ("restitution", self.restitution),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ConfigError::new(
                    name,
                    format!("{name} must be a finite non-negative number"),
                ));
            }
        }
        Ok(())
    }
}

/// Where a key sits in the release machinery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Listed {
    /// Empty queue or closed account: in neither structure.
    Idle,
    /// Backlogged with a positive balance: served from the ring.
    Ring,
    /// Backlogged and waiting for `release_at`: on the blocked heap.
    Blocked,
}

struct ClientState {
    /// Channel-time balance in nanoseconds (may be negative) as of
    /// `as_of`. Only debits, rate changes and (dis)association write
    /// it; every other read is [`ClientState::balance_at`].
    tokens: f64,
    as_of: SimTime,
    /// From when on the balance reads positive: at or before `as_of`
    /// when it already does, otherwise the first `fill_period` grid
    /// instant where [`ClientState::balance_at`] turns positive
    /// ([`SimTime::FAR_FUTURE`] while the rate is zero).
    release_at: SimTime,
    listed: Listed,
    /// The key has an entry in the ring, possibly a stale one.
    in_ring: bool,
    /// Token refill rate as a fraction of wall-clock time.
    rate: f64,
    /// QoS weight (1.0 = equal share).
    weight: f64,
    /// Channel time consumed since `start` (the paper's `actualᵢ`).
    actual: f64,
    start: SimTime,
    /// Accumulated wall time with a non-empty queue since `start`.
    demand_time: f64,
    /// When the queue last became non-empty, if it is now.
    backlog_since: Option<SimTime>,
    /// Consecutive adjustment windows this client looked under-demanding.
    low_demand_streak: u32,
    /// Smoothed share of consumed airtime across adjustment windows.
    usage_ewma: Option<f64>,
    /// False after DISASSOCIATEEVENT: the slot persists (pool slots are
    /// append-only) but the client holds no rate, accrues no tokens and
    /// is excluded from adjustment until it re-associates.
    active: bool,
}

impl ClientState {
    /// The balance at `t ≥ as_of`: FILLEVENT in closed form. Tokens
    /// only rise between writes, so one clamp at the read equals a
    /// clamp at every fill.
    fn balance_at(&self, t: SimTime, cap: f64) -> f64 {
        let dt = t.saturating_since(self.as_of).as_nanos();
        if dt == 0 {
            return self.tokens;
        }
        (self.tokens + dt as f64 * self.rate).min(cap)
    }

    /// Writes the balance at `t` back as the stored one.
    fn materialize(&mut self, t: SimTime, cap: f64) {
        self.tokens = self.balance_at(t, cap);
        self.as_of = t;
    }
}

/// The Time-based Regulator.
///
/// Per packet it does O(log keys) work: eligible keys wait in a
/// round-robin ring, blocked ones in a min-heap on their release
/// instant, and balances are read lazily. Only the rate adjustment
/// and (dis)association visit every key.
pub struct TbrScheduler {
    config: TbrConfig,
    pool: QueuePool,
    states: Vec<ClientState>,
    /// Eligible keys in service order. An entry whose key has since
    /// left [`Listed::Ring`] is dropped when it reaches the front.
    ring: VecDeque<usize>,
    /// Keys currently [`Listed::Ring`].
    eligible: usize,
    /// Blocked keys by `(release_at, slot)`. The top entry is always
    /// live; superseded entries below it are dropped as they surface.
    blocked: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// The instant the regulator has caught up to.
    clock: SimTime,
    /// The next ADJUSTRATEEVENT, a multiple of `adjust_step`.
    next_adjust: SimTime,
    /// `adjust_period` rounded up to the fill grid.
    adjust_step: SimDuration,
    /// Total channel time debited, per client (measurement).
    debited: Vec<f64>,
    /// Reused by every rate adjustment: the active slots, and each
    /// one's excess rate and demand fraction.
    act: Vec<usize>,
    usage: Vec<(f64, f64)>,
}

impl TbrScheduler {
    /// Creates an empty regulator.
    ///
    /// # Panics
    ///
    /// Panics when [`TbrConfig::validate`] rejects `config`.
    pub fn new(config: TbrConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let p = config.fill_period.as_nanos();
        let adjust_step = SimDuration::from_nanos(config.adjust_period.as_nanos().div_ceil(p) * p);
        TbrScheduler {
            pool: QueuePool::with_policy(config.total_buffer, config.buffer),
            config,
            states: Vec::new(),
            ring: VecDeque::new(),
            eligible: 0,
            blocked: BinaryHeap::new(),
            clock: SimTime::ZERO,
            next_adjust: SimTime::ZERO + adjust_step,
            adjust_step,
            debited: Vec::new(),
            act: Vec::new(),
            usage: Vec::new(),
        }
    }

    fn cap(&self) -> f64 {
        self.config.bucket.as_nanos() as f64
    }

    /// Brings the regulator to `now` (never backwards) and returns the
    /// instant it is at. Runs every ADJUSTRATEEVENT due by then at its
    /// own instant, with the releases that precede it, so the state is
    /// a pure function of the writes (debits, enqueues, dequeues,
    /// associations) whatever the consult times.
    fn catch_up(&mut self, now: SimTime) -> SimTime {
        let now = now.max(self.clock);
        while self.next_adjust <= now {
            let a = self.next_adjust;
            self.release_until(a);
            self.clock = a;
            self.adjust_rates(a);
            self.next_adjust = a + self.adjust_step;
        }
        self.release_until(now);
        self.clock = now;
        now
    }

    /// Moves every blocked key whose release instant is at or before
    /// `t` onto the ring, in release order.
    fn release_until(&mut self, t: SimTime) {
        while let Some(&Reverse((at, slot))) = self.blocked.peek() {
            if at > t {
                break;
            }
            self.blocked.pop();
            self.set_listing(slot, Listed::Ring);
            self.settle_blocked();
        }
    }

    /// Files `slot` under `want`, keeping the eligible count and the
    /// ring in step; the blocked heap is the caller's.
    fn set_listing(&mut self, slot: usize, want: Listed) {
        let s = &mut self.states[slot];
        if s.listed == Listed::Ring {
            self.eligible -= 1;
        }
        if want == Listed::Ring {
            self.eligible += 1;
            if !s.in_ring {
                s.in_ring = true;
                self.ring.push_back(slot);
            }
        }
        s.listed = want;
    }

    /// Drops superseded entries off the top of the blocked heap.
    fn settle_blocked(&mut self) {
        while let Some(&Reverse((at, slot))) = self.blocked.peek() {
            let s = &self.states[slot];
            if s.listed == Listed::Blocked && s.release_at == at {
                break;
            }
            self.blocked.pop();
        }
    }

    /// The first instant `s`'s balance reads positive (see
    /// [`ClientState::release_at`]). The closed form lands within a
    /// grid step of it; the two loops settle float rounding against
    /// the very read eligibility is defined by.
    fn release_instant(&self, s: &ClientState) -> SimTime {
        if s.tokens > 0.0 {
            return s.as_of;
        }
        if s.rate <= 0.0 {
            return SimTime::FAR_FUTURE;
        }
        let p = self.config.fill_period.as_nanos();
        let cap = self.cap();
        let cross = s.as_of.as_nanos() as f64 + -s.tokens / s.rate;
        let k = (cross / p as f64).ceil();
        if k >= (SimTime::FAR_FUTURE.as_nanos() / p) as f64 {
            return SimTime::FAR_FUTURE;
        }
        // No grid instant at or before `as_of` reads positive (the
        // balance there is the stored, non-positive one), so the
        // downward loop stops at `as_of` by itself.
        let positive = |k: u64| s.balance_at(SimTime::from_nanos(k * p), cap) > 0.0;
        let mut k = k as u64;
        while !positive(k) {
            k += 1;
        }
        while positive(k - 1) {
            k -= 1;
        }
        SimTime::from_nanos(k * p)
    }

    /// The listing `slot`'s backlog and release instant call for.
    fn listing(&self, slot: usize) -> Listed {
        let s = &self.states[slot];
        if !s.active || self.pool.queues[slot].is_empty() {
            Listed::Idle
        } else if s.release_at <= self.clock {
            Listed::Ring
        } else {
            Listed::Blocked
        }
    }

    /// Re-files `slot` after a write; `old_release` is its release
    /// instant before the write.
    fn refile(&mut self, slot: usize, old_release: SimTime) {
        let want = self.listing(slot);
        let s = &self.states[slot];
        if s.listed == want && (want != Listed::Blocked || s.release_at == old_release) {
            return;
        }
        self.set_listing(slot, want);
        if want == Listed::Blocked {
            self.blocked
                .push(Reverse((self.states[slot].release_at, slot)));
        }
        self.settle_blocked();
    }

    /// After the rates changed at `clock`: recomputes the release
    /// instant of every key in debt or blocked and rebuilds the blocked
    /// heap. A blocked key whose balance turned positive off the grid,
    /// between its crossing and its grid release, becomes eligible. Any
    /// other key with a positive balance keeps its listing and its
    /// release instant (at or before `as_of`).
    fn refile_debtors(&mut self) {
        self.blocked.clear();
        for slot in 0..self.states.len() {
            let s = &self.states[slot];
            if s.tokens > 0.0 && s.listed != Listed::Blocked {
                continue;
            }
            let release = self.release_instant(&self.states[slot]);
            self.states[slot].release_at = release;
            let want = self.listing(slot);
            self.set_listing(slot, want);
            if want == Listed::Blocked {
                self.blocked.push(Reverse((release, slot)));
            }
        }
    }

    /// Debug builds only: the ring, the blocked heap and the counters
    /// must agree with a scan of every key's backlog and balance.
    #[cfg(debug_assertions)]
    fn check_listings(&self) {
        let mut ring_entries = vec![0usize; self.states.len()];
        for &i in &self.ring {
            ring_entries[i] += 1;
        }
        for (i, s) in self.states.iter().enumerate() {
            if s.tokens > 0.0 {
                assert!(
                    s.release_at <= s.as_of,
                    "key {i}: positive but released later"
                );
            } else {
                assert_eq!(
                    s.release_at,
                    self.release_instant(s),
                    "key {i}: release instant"
                );
            }
            assert_eq!(s.listed, self.listing(i), "key {i} at {:?}", self.clock);
            assert_eq!(
                ring_entries[i],
                usize::from(s.in_ring),
                "key {i}: ring entries"
            );
            assert!(
                s.listed != Listed::Ring || s.in_ring,
                "key {i}: eligible off the ring"
            );
            if s.listed == Listed::Blocked {
                assert!(
                    self.blocked
                        .iter()
                        .any(|&Reverse(e)| e == (s.release_at, i)),
                    "key {i}: blocked off the heap"
                );
            }
        }
        let ring_keys = self.states.iter().filter(|s| s.listed == Listed::Ring);
        assert_eq!(self.eligible, ring_keys.count(), "eligible count");
        if let Some(&Reverse((at, i))) = self.blocked.peek() {
            let s = &self.states[i];
            assert!(
                s.listed == Listed::Blocked && s.release_at == at,
                "stale heap top"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn check_listings(&self) {}

    /// Resets every rate to its weighted fair share (membership or
    /// weight changed) at `now`.
    fn reset_rates(&mut self, now: SimTime) {
        let cap = self.cap();
        let total_w: f64 = self
            .states
            .iter()
            .filter(|s| s.active)
            .map(|s| s.weight)
            .sum();
        for s in &mut self.states {
            if s.active {
                s.materialize(now, cap);
            }
            s.rate = if s.active { s.weight / total_w } else { 0.0 };
            s.actual = 0.0;
            s.start = now;
        }
        self.refile_debtors();
    }

    /// Total channel time ever debited to a client.
    pub fn debited_of(&self, client: ClientId) -> Option<SimDuration> {
        self.pool
            .slot_of(client)
            .map(|i| SimDuration::from_nanos(self.debited[i].max(0.0) as u64))
    }

    /// ADJUSTRATEEVENT at `now`: balances accrue at the old rates up to
    /// `now`, then the rates move and every key is refiled.
    fn adjust_rates(&mut self, now: SimTime) {
        // Only current members participate; disassociated slots hold no
        // rate and must neither donate nor receive. With every slot
        // active (the single-cell case) the index vector is the
        // identity and the arithmetic below is unchanged term-for-term.
        let mut act = std::mem::take(&mut self.act);
        act.clear();
        act.extend((0..self.states.len()).filter(|&i| self.states[i].active));
        let cap = self.cap();
        for &i in &act {
            self.states[i].materialize(now, cap);
        }
        let n = act.len();
        let total_actual: f64 = act.iter().map(|&i| self.states[i].actual).sum();
        let span_ns = act
            .first()
            .map(|&i| now.saturating_since(self.states[i].start).as_nanos() as f64)
            .unwrap_or(0.0);
        // Only adjust when the window carried meaningful traffic.
        let measurable = span_ns > 0.0 && total_actual / span_ns > 0.2;
        if n >= 2 && measurable {
            // The paper's §4.3 compares each client's rate with its
            // achieved usage. We normalise usage by the *total consumed
            // airtime* rather than wall time: a regulated cell never
            // consumes 100% of wall time (backoff, gating gaps), so a
            // wall-time comparison makes every client — including ones
            // starved by contention — look under-demanding and sends
            // the adjuster into a donation spiral. Against consumed
            // airtime, Σ usage = Σ rate = 1 and a fair cell measures
            // zero excess everywhere.
            let mut usage = std::mem::take(&mut self.usage);
            usage.clear();
            for &si in &act {
                let s = &mut self.states[si];
                let span = now.saturating_since(s.start).as_nanos() as f64;
                // Smooth the usage share across windows: TCP through a
                // binding gate is bursty, and reacting to one quiet
                // window would slowly siphon rate away from a client
                // that is merely oscillating.
                let w = s.actual / total_actual;
                let smoothed = match s.usage_ewma {
                    Some(prev) => 0.5 * prev + 0.5 * w,
                    None => w,
                };
                s.usage_ewma = Some(smoothed);
                let mut demand = s.demand_time;
                if let Some(since) = s.backlog_since {
                    demand += now.saturating_since(since).as_nanos() as f64;
                }
                let demand_frac = if span > 0.0 { demand / span } else { 1.0 };
                usage.push((s.rate - smoothed, demand_frac));
            }
            let th = self.config.excess_threshold;
            let full = || (0..n).filter(|&i| usage[i].0 <= th);
            // Donors must have spare rate, demonstrably little demand
            // (a backlogged client that fell short of its rate is
            // experiencing scheduling friction, not low demand), and a
            // *persistent* record of it across adjustment windows.
            for (&si, &(excess, demand_frac)) in act.iter().zip(&usage) {
                let looks_idle = excess > th && demand_frac < self.config.demand_threshold;
                if looks_idle {
                    self.states[si].low_demand_streak += 1;
                } else {
                    self.states[si].low_demand_streak = 0;
                }
            }
            let donor = (0..n)
                .filter(|&i| self.states[act[i]].low_demand_streak >= self.config.donation_streak)
                .max_by(|&a, &b| usage[a].0.total_cmp(&usage[b].0));
            let receivers = full().count();
            if let (Some(m), true) = (donor, receivers > 0) {
                // Donate half the maximal excess, respecting the floor.
                let mut donation = usage[m].0 / 2.0;
                donation = donation.min(self.states[act[m]].rate - self.config.min_rate);
                if donation > 0.0 {
                    self.states[act[m]].rate -= donation;
                    let each = donation / receivers as f64;
                    for j in full() {
                        self.states[act[j]].rate += each;
                    }
                }
            }
            self.usage = usage;
        }
        // Restitution: relax every rate toward its weighted fair share.
        // Sum-preserving because both the rates and the fair shares sum
        // to one.
        let total_w: f64 = act.iter().map(|&i| self.states[i].weight).sum();
        let k = self.config.restitution.clamp(0.0, 1.0);
        for &i in &act {
            let s = &mut self.states[i];
            let fair = s.weight / total_w;
            s.rate += k * (fair - s.rate);
        }
        for &i in &act {
            let s = &mut self.states[i];
            s.actual = 0.0;
            s.start = now;
            s.demand_time = 0.0;
            if s.backlog_since.is_some() {
                s.backlog_since = Some(now);
            }
        }
        self.act = act;
        self.refile_debtors();
    }

    /// Opens (or reopens) `client`'s account at `now`, without touching
    /// the other keys' rates.
    fn register(&mut self, client: ClientId, weight: f64, now: SimTime) {
        assert!(weight > 0.0, "weight must be positive");
        let slot = self.pool.add_client(client);
        let initial = self.config.initial_tokens.as_nanos() as f64;
        if slot >= self.states.len() {
            self.states.push(ClientState {
                tokens: initial,
                as_of: now,
                release_at: now,
                listed: Listed::Idle,
                in_ring: false,
                rate: 0.0,
                weight,
                actual: 0.0,
                start: now,
                demand_time: 0.0,
                backlog_since: None,
                low_demand_streak: 0,
                usage_ewma: None,
                active: true,
            });
            self.debited.push(0.0);
        } else if !self.states[slot].active {
            // Re-association after a disassociation: the client
            // registers from scratch — fresh initial tokens, no memory
            // of its previous stint (debt was settled by leaving; usage
            // history would poison the adjuster's EWMA).
            let s = &mut self.states[slot];
            s.tokens = initial;
            s.as_of = now;
            s.release_at = now;
            s.weight = weight;
            s.actual = 0.0;
            s.start = now;
            s.demand_time = 0.0;
            s.backlog_since = None;
            s.low_demand_streak = 0;
            s.usage_ewma = None;
            s.active = true;
        } else {
            self.states[slot].weight = weight;
        }
    }
}

impl Scheduler for TbrScheduler {
    fn on_associate(&mut self, client: ClientId, now: SimTime) {
        // Idempotent while associated: re-association keeps any
        // explicitly set weight. A disassociated slot re-registers from
        // scratch with the default weight.
        let now = self.catch_up(now);
        match self.pool.slot_of(client) {
            Some(slot) if self.states[slot].active => {}
            _ => self.on_associate_weighted(client, 1.0, now),
        }
    }

    /// Associates `client` with a QoS weight (the §4.5 extension: the
    /// desired share need not be equal). Weight 1.0 is the paper's
    /// default equal share.
    fn on_associate_weighted(&mut self, client: ClientId, weight: f64, now: SimTime) {
        self.on_associate_all(&[(client, weight)], now);
    }

    /// Registers every member, then normalises the rates and refiles
    /// the debtors once: O(keys) however many join.
    fn on_associate_all(&mut self, members: &[(ClientId, f64)], now: SimTime) {
        if members.is_empty() {
            return;
        }
        // Run the adjustments due before the membership changes, under
        // the old membership.
        let now = self.catch_up(now);
        for &(client, weight) in members {
            self.register(client, weight, now);
        }
        self.reset_rates(now);
        self.check_listings();
    }

    /// Disassociates `client`: flushes its queue, drops its token
    /// balance (positive or negative — the account closes with the
    /// association, §4.2 keys accounts on the association lifetime) and
    /// redistributes its rate among the remaining members.
    fn on_disassociate(&mut self, client: ClientId, now: SimTime) -> Vec<QueuedPacket> {
        let now = self.catch_up(now);
        let Some(slot) = self.pool.slot_of(client) else {
            return Vec::new();
        };
        let flushed = self.pool.flush_client(client);
        let s = &mut self.states[slot];
        s.active = false;
        s.tokens = 0.0;
        s.as_of = now;
        s.rate = 0.0;
        s.actual = 0.0;
        s.demand_time = 0.0;
        s.backlog_since = None;
        s.low_demand_streak = 0;
        s.usage_ewma = None;
        self.reset_rates(now);
        self.check_listings();
        flushed
    }

    fn enqueue(&mut self, pkt: QueuedPacket, now: SimTime) -> EnqueueOutcome {
        let now = self.catch_up(now);
        if self.pool.slot_of(pkt.client).is_none() {
            self.on_associate(pkt.client, now);
        }
        let slot = self.pool.slot_of(pkt.client).expect("associated above");
        if !self.states[slot].active {
            // Traffic addressed to a station that roamed away; without
            // an association there is no queue to hold it.
            self.pool.note_drop();
            return EnqueueOutcome::Dropped;
        }
        let was_empty = self.pool.queues[slot].is_empty();
        let outcome = self.pool.enqueue(pkt);
        if was_empty && outcome == EnqueueOutcome::Accepted {
            if self.states[slot].backlog_since.is_none() {
                self.states[slot].backlog_since = Some(now);
            }
            let release = self.states[slot].release_at;
            self.refile(slot, release);
        }
        self.check_listings();
        outcome
    }

    /// Serves the ring's front key. It goes to the back while it stays
    /// backlogged: its balance is only debited at completion.
    fn dequeue(&mut self, now: SimTime) -> Option<QueuedPacket> {
        let now = self.catch_up(now);
        while let Some(i) = self.ring.pop_front() {
            let s = &mut self.states[i];
            if s.listed != Listed::Ring {
                s.in_ring = false;
                continue;
            }
            let pkt = self.pool.queues[i]
                .pop_front()
                .expect("a ring key is backlogged");
            if self.pool.queues[i].is_empty() {
                s.in_ring = false;
                if let Some(since) = s.backlog_since.take() {
                    s.demand_time += now.saturating_since(since).as_nanos() as f64;
                }
                self.set_listing(i, Listed::Idle);
            } else {
                self.ring.push_back(i);
            }
            self.check_listings();
            return Some(pkt);
        }
        self.check_listings();
        None
    }

    fn on_complete(
        &mut self,
        client: ClientId,
        airtime: SimDuration,
        _sent_by_ap: bool,
        now: SimTime,
    ) {
        // At a timestamp shared with an adjustment instant, the debit
        // lands after the adjustment whatever consulted first.
        let now = self.catch_up(now);
        let slot = match self.pool.slot_of(client) {
            Some(s) => s,
            None => {
                // First sign of life from this client was an uplink
                // frame: associate it on the fly.
                self.on_associate(client, now);
                self.pool.slot_of(client).expect("just associated")
            }
        };
        let t = airtime.as_nanos() as f64;
        let cap = self.cap();
        let s = &mut self.states[slot];
        if !s.active {
            // A frame already at the MAC when its station disassociated
            // completes against a closed account; nothing to debit.
            return;
        }
        // Debt is never forgiven: a client that consumed more channel
        // time than its allocation stays silent until the deficit is
        // repaid — that *is* the regulation. (An earlier draft clamped
        // the deficit, which quietly subsidised slow clients whose
        // single exchange exceeded the clamp.)
        s.materialize(now, cap);
        s.tokens -= t;
        s.actual += t;
        self.debited[slot] += t;
        let old = s.release_at;
        let release = self.release_instant(&self.states[slot]);
        self.states[slot].release_at = release;
        self.refile(slot, old);
        self.check_listings();
    }

    fn on_tick(&mut self, now: SimTime) {
        self.catch_up(now);
        self.check_listings();
    }

    fn tick_period(&self) -> Option<SimDuration> {
        Some(self.config.fill_period)
    }

    /// The earliest blocked release, or the next adjustment if that
    /// comes first (it may move releases earlier). Exact: the wake
    /// finds the key eligible, one `fill_period` earlier would not.
    fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        let &Reverse((at, _)) = self.blocked.peek()?;
        Some(at.min(self.next_adjust).max(now))
    }

    fn backlog(&self) -> usize {
        self.pool.backlog()
    }

    fn queue_len(&self, client: ClientId) -> usize {
        self.pool.queue_len(client)
    }

    fn has_eligible(&self, now: SimTime) -> bool {
        self.eligible > 0
            || self
                .blocked
                .peek()
                .is_some_and(|&Reverse((at, _))| at <= now)
    }

    fn drops(&self) -> u64 {
        self.pool.drops()
    }

    /// The balance at the instant the regulator last caught up to.
    fn token_balance_ns(&self, client: ClientId) -> Option<f64> {
        self.pool
            .slot_of(client)
            .map(|i| self.states[i].balance_at(self.clock, self.cap()))
    }

    fn token_fill_rate(&self, client: ClientId) -> Option<f64> {
        self.pool.slot_of(client).map(|i| self.states[i].rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::RoundRobinScheduler;
    use airtime_sim::SimRng;

    const AIRTIME_11M: SimDuration = SimDuration::from_micros(1617); // 1500 B at 11 Mbit/s
    const AIRTIME_1M: SimDuration = SimDuration::from_micros(12_854); // 1500 B at 1 Mbit/s

    fn pkt(client: usize, bytes: u64) -> QueuedPacket {
        QueuedPacket {
            client: ClientId(client),
            handle: 0,
            bytes,
        }
    }

    /// Drives a scheduler over a synthetic saturated channel where each
    /// client's packets cost a fixed airtime; returns per-client
    /// (packets, airtime) after `span`.
    fn drive_saturated<S: Scheduler>(
        sched: &mut S,
        costs: &[SimDuration],
        span: SimDuration,
    ) -> (Vec<u64>, Vec<SimDuration>) {
        let n = costs.len();
        let mut now = SimTime::ZERO;
        for c in 0..n {
            sched.on_associate(ClientId(c), now);
        }
        let end = SimTime::ZERO + span;
        let tick = sched.tick_period().unwrap_or(SimDuration::from_millis(2));
        let mut next_tick = SimTime::ZERO + tick;
        let mut packets = vec![0u64; n];
        let mut airtime = vec![SimDuration::ZERO; n];
        while now < end {
            // Keep every queue topped up (saturation).
            for c in 0..n {
                while sched.backlog() < 50 * n {
                    let before = sched.backlog();
                    sched.enqueue(pkt(c, 1500), now);
                    if sched.backlog() == before {
                        break; // queue full
                    }
                }
            }
            match sched.dequeue(now) {
                Some(p) => {
                    let c = p.client.index();
                    let cost = costs[c];
                    now += cost;
                    packets[c] += 1;
                    airtime[c] += cost;
                    sched.on_complete(p.client, cost, true, now);
                }
                None => {
                    now = next_tick.max(now);
                }
            }
            while next_tick <= now {
                sched.on_tick(next_tick);
                next_tick += tick;
            }
        }
        (packets, airtime)
    }

    #[test]
    fn equal_rates_equal_everything() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let (packets, airtime) = drive_saturated(
            &mut tbr,
            &[AIRTIME_11M, AIRTIME_11M],
            SimDuration::from_secs(20),
        );
        let pr = packets[0] as f64 / packets[1] as f64;
        assert!((0.95..1.05).contains(&pr), "packet ratio {pr}");
        let ar = airtime[0].as_secs_f64() / airtime[1].as_secs_f64();
        assert!((0.95..1.05).contains(&ar), "airtime ratio {ar}");
    }

    #[test]
    fn mixed_rates_equal_airtime_unequal_packets() {
        // The core claim: 11 Mbit/s vs 1 Mbit/s clients receive equal
        // channel-time shares, so packet counts differ by the airtime
        // ratio (≈7.95).
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let (packets, airtime) = drive_saturated(
            &mut tbr,
            &[AIRTIME_11M, AIRTIME_1M],
            SimDuration::from_secs(30),
        );
        let shares = crate::fairness::airtime_shares(&airtime);
        assert!(
            (shares[0] - 0.5).abs() < 0.03,
            "airtime share {shares:?} should be ~50/50"
        );
        let pr = packets[0] as f64 / packets[1] as f64;
        let expected = AIRTIME_1M.as_secs_f64() / AIRTIME_11M.as_secs_f64();
        assert!(
            (pr / expected - 1.0).abs() < 0.1,
            "packet ratio {pr} vs expected {expected}"
        );
    }

    #[test]
    fn disassociate_flushes_and_redistributes_rate() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        tbr.on_associate(ClientId(2), now);
        for h in 0..4 {
            tbr.enqueue(
                QueuedPacket {
                    client: ClientId(1),
                    handle: h,
                    bytes: 1500,
                },
                now,
            );
        }
        assert!((tbr.token_fill_rate(ClientId(1)).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        let flushed = tbr.on_disassociate(ClientId(1), now);
        assert_eq!(flushed.len(), 4);
        assert_eq!(tbr.queue_len(ClientId(1)), 0);
        // The departed client's share moves to the remaining members.
        assert_eq!(tbr.token_fill_rate(ClientId(1)), Some(0.0));
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 0.5).abs() < 1e-12);
        assert!((tbr.token_fill_rate(ClientId(2)).unwrap() - 0.5).abs() < 1e-12);
        // Traffic for a gone station has nowhere to go.
        let before = tbr.drops();
        assert_eq!(
            tbr.enqueue(
                QueuedPacket {
                    client: ClientId(1),
                    handle: 99,
                    bytes: 1500
                },
                now
            ),
            EnqueueOutcome::Dropped
        );
        assert_eq!(tbr.drops(), before + 1);
    }

    #[test]
    fn reassociation_re_registers_fresh_tokens() {
        let cfg = TbrConfig::default();
        let mut tbr = TbrScheduler::new(cfg);
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        // Burn client 1 deep into debt, then roam it away and back.
        tbr.on_complete(ClientId(1), SimDuration::from_millis(50), true, now);
        assert!(tbr.token_balance_ns(ClientId(1)).unwrap() < 0.0);
        tbr.on_disassociate(ClientId(1), now);
        assert_eq!(tbr.token_balance_ns(ClientId(1)), Some(0.0));
        let later = now + SimDuration::from_secs(2);
        tbr.on_associate(ClientId(1), later);
        // Fresh registration: initial tokens, fair split restored.
        let init = cfg.initial_tokens.as_nanos() as f64;
        assert_eq!(tbr.token_balance_ns(ClientId(1)), Some(init));
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 0.5).abs() < 1e-12);
        assert!((tbr.token_fill_rate(ClientId(1)).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn departed_member_is_excluded_from_fills_and_adjustment() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        tbr.on_disassociate(ClientId(1), now);
        // Drive well past several adjustment windows with only client 0
        // consuming; rates must stay a one-member allocation throughout.
        let mut t = now;
        for _ in 0..2_000 {
            t += SimDuration::from_millis(2);
            tbr.on_tick(t);
            tbr.on_complete(ClientId(0), SimDuration::from_micros(1617), true, t);
        }
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(tbr.token_fill_rate(ClientId(1)), Some(0.0));
        assert_eq!(tbr.token_balance_ns(ClientId(1)), Some(0.0));
    }

    #[test]
    fn round_robin_contrast_equal_packets_skewed_airtime() {
        // The throughput-fair baseline on the same workload: packets
        // equalise, airtime collapses onto the slow client.
        let mut rr = RoundRobinScheduler::new(100);
        let (packets, airtime) = drive_saturated(
            &mut rr,
            &[AIRTIME_11M, AIRTIME_1M],
            SimDuration::from_secs(30),
        );
        let pr = packets[0] as f64 / packets[1] as f64;
        assert!((0.95..1.05).contains(&pr), "packet ratio {pr}");
        let shares = crate::fairness::airtime_shares(&airtime);
        assert!(
            shares[1] > 0.85,
            "slow client should hog airtime: {shares:?}"
        );
    }

    #[test]
    fn baseline_property_slow_client_unharmed_by_tbr() {
        // Under TBR the slow client gets half the channel time — the
        // same as it would competing against another slow client. Its
        // packet rate must therefore match the all-slow cell.
        let span = SimDuration::from_secs(30);
        let mut tbr_mixed = TbrScheduler::new(TbrConfig::default());
        let (p_mixed, _) = drive_saturated(&mut tbr_mixed, &[AIRTIME_11M, AIRTIME_1M], span);
        let mut tbr_slow = TbrScheduler::new(TbrConfig::default());
        let (p_slow, _) = drive_saturated(&mut tbr_slow, &[AIRTIME_1M, AIRTIME_1M], span);
        let ratio = p_mixed[1] as f64 / p_slow[1] as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "slow client throughput changed: {ratio} ({} vs {})",
            p_mixed[1],
            p_slow[1]
        );
    }

    #[test]
    fn tokens_gate_release() {
        let mut tbr = TbrScheduler::new(TbrConfig {
            initial_tokens: SimDuration::from_micros(1),
            ..TbrConfig::default()
        });
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        tbr.enqueue(pkt(0, 1500), now);
        // Draining client 0's tokens blocks its queue...
        let p = tbr.dequeue(now).expect("tiny positive balance releases");
        tbr.on_complete(p.client, AIRTIME_1M, true, now);
        tbr.enqueue(pkt(0, 1500), now);
        assert!(tbr.dequeue(now).is_none(), "negative balance must block");
        assert!(!tbr.has_eligible(now));
        // ...until the 12.85 ms debt is repaid at a refill rate of
        // 0.5: just under 26 ms of wall time.
        let later = SimTime::from_millis(27);
        tbr.on_tick(later);
        assert!(
            tbr.has_eligible(later),
            "tokens={:?}",
            tbr.token_balance_ns(ClientId(0))
        );
        assert!(tbr.dequeue(later).is_some());
    }

    #[test]
    fn uplink_completions_also_debit() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        let before = tbr.token_balance_ns(ClientId(0)).unwrap();
        tbr.on_complete(ClientId(0), AIRTIME_11M, false, now);
        let after = tbr.token_balance_ns(ClientId(0)).unwrap();
        assert!((before - after - AIRTIME_11M.as_nanos() as f64).abs() < 1.0);
        assert_eq!(tbr.debited_of(ClientId(0)).unwrap(), AIRTIME_11M);
    }

    #[test]
    fn unknown_uplink_client_is_auto_associated() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_complete(ClientId(5), AIRTIME_11M, false, SimTime::ZERO);
        assert!(tbr.token_fill_rate(ClientId(5)).is_some());
    }

    #[test]
    fn adjust_rate_reallocates_unused_share() {
        // Client 1 has demand for only a trickle; client 0 is saturated.
        // After a few ADJUSTRATEEVENTs client 0's rate should grow well
        // past its initial 0.5 (§4.3 / Table 4 behaviour).
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let mut now = SimTime::ZERO;
        tbr.on_associate(ClientId(0), now);
        tbr.on_associate(ClientId(1), now);
        let tick = tbr.tick_period().unwrap();
        let mut next_tick = now + tick;
        let end = SimTime::from_secs(10);
        let mut trickle_due = now;
        while now < end {
            if now >= trickle_due {
                tbr.enqueue(pkt(1, 1500), now);
                trickle_due = now + SimDuration::from_millis(50);
            }
            while tbr.backlog() < 20 {
                tbr.enqueue(pkt(0, 1500), now);
            }
            match tbr.dequeue(now) {
                Some(p) => {
                    now += AIRTIME_11M;
                    tbr.on_complete(p.client, AIRTIME_11M, true, now);
                }
                None => now = next_tick.max(now),
            }
            while next_tick <= now {
                tbr.on_tick(next_tick);
                next_tick += tick;
            }
        }
        let r0 = tbr.token_fill_rate(ClientId(0)).unwrap();
        let r1 = tbr.token_fill_rate(ClientId(1)).unwrap();
        assert!(r0 > 0.8, "saturated client rate {r0}");
        assert!(r1 >= TbrConfig::default().min_rate - 1e-9);
        assert!((r0 + r1 - 1.0).abs() < 1e-6, "rates must sum to 1");
    }

    #[test]
    fn weighted_shares_follow_weights() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let now = SimTime::ZERO;
        tbr.on_associate_weighted(ClientId(0), 2.0, now);
        tbr.on_associate_weighted(ClientId(1), 1.0, now);
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((tbr.token_fill_rate(ClientId(1)).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        // And the served airtime follows ≈2:1 on a saturated channel.
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_associate_weighted(ClientId(0), 2.0, now);
        tbr.on_associate_weighted(ClientId(1), 1.0, now);
        // Disable adjustment interference by equalising demand.
        let (_, airtime) = drive_saturated(
            &mut tbr,
            &[AIRTIME_11M, AIRTIME_11M],
            SimDuration::from_secs(20),
        );
        let ratio = airtime[0].as_secs_f64() / airtime[1].as_secs_f64();
        assert!((1.8..2.2).contains(&ratio), "airtime ratio {ratio}");
    }

    #[test]
    fn rates_always_sum_to_one() {
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        let mut now = SimTime::ZERO;
        for c in 0..5 {
            tbr.on_associate(ClientId(c), now);
        }
        // Hammer the adjuster with lopsided usage.
        for round in 0..50 {
            now += SimDuration::from_millis(200);
            tbr.on_complete(
                ClientId(round % 2),
                SimDuration::from_millis(150),
                true,
                now,
            );
            tbr.on_tick(now);
        }
        let total: f64 = (0..5)
            .map(|c| tbr.token_fill_rate(ClientId(c)).unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "rates sum to {total}");
        for c in 0..5 {
            assert!(
                tbr.token_fill_rate(ClientId(c)).unwrap() >= TbrConfig::default().min_rate - 1e-9
            );
        }
    }

    #[test]
    fn late_association_renormalizes_rates() {
        // ASSOCIATEEVENT mid-run: a third client joining resets every
        // rate to the (new) fair share — the paper's initialisation
        // semantics.
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_associate(ClientId(0), SimTime::ZERO);
        tbr.on_associate(ClientId(1), SimTime::ZERO);
        // Perturb rates via usage so the reset is observable.
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += SimDuration::from_millis(500);
            tbr.on_complete(ClientId(0), SimDuration::from_millis(400), true, now);
            tbr.on_tick(now);
        }
        tbr.on_associate(ClientId(2), now);
        for c in 0..3 {
            let r = tbr.token_fill_rate(ClientId(c)).unwrap();
            assert!((r - 1.0 / 3.0).abs() < 1e-9, "client {c} rate {r}");
        }
    }

    /// One random operation a driver could perform at `now`.
    fn random_op<S: Scheduler>(
        s: &mut S,
        rng: &mut SimRng,
        n: usize,
        now: SimTime,
    ) -> Option<QueuedPacket> {
        let c = rng.below(n as u64) as usize;
        match rng.below(10) {
            0..=3 => {
                s.enqueue(pkt(c, 1500), now);
                None
            }
            4..=6 => {
                let p = s.dequeue(now);
                if let Some(p) = p {
                    let us = 300 + rng.below(13_000);
                    s.on_complete(p.client, SimDuration::from_micros(us), true, now);
                }
                p
            }
            7 | 8 => {
                let us = 300 + rng.below(13_000);
                s.on_complete(ClientId(c), SimDuration::from_micros(us), false, now);
                None
            }
            _ => {
                if rng.chance(0.5) {
                    s.on_disassociate(ClientId(c), now);
                } else {
                    s.on_associate(ClientId(c), now);
                }
                None
            }
        }
    }

    #[test]
    fn lazy_catch_up_is_bitwise_identical_to_dense_ticking() {
        // Property: consults change nothing. Two regulators see the
        // same writes (enqueues, dequeues, debits, association churn);
        // one is also consulted — `has_eligible`, `next_wake` and
        // `on_tick` — at random instants in between, as densely as a
        // per-grid timer or as sparsely as an idle cell. Every dequeue,
        // balance and rate must agree bit for bit, not merely within
        // tolerance.
        for seed in 0..40u64 {
            let mut rng = SimRng::new(seed);
            let n = 2 + rng.below(4) as usize;
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + rng.below(3) as f64).collect();
            // Half the seeds start with a token so small that blocking
            // begins at the first debit.
            let initial_us = if seed % 2 == 0 { 1 } else { 5_000 };
            let mk = || {
                let mut t = TbrScheduler::new(TbrConfig {
                    initial_tokens: SimDuration::from_micros(initial_us),
                    ..TbrConfig::default()
                });
                for (c, &w) in weights.iter().enumerate() {
                    t.on_associate_weighted(ClientId(c), w, SimTime::ZERO);
                }
                t
            };
            let mut plain = mk();
            let mut probed = mk();
            let mut now = SimTime::ZERO;
            for step in 0..600 {
                let gap_us = match rng.below(4) {
                    0 => rng.below(200),
                    1 => rng.below(6_000),
                    2 => rng.below(60_000),
                    _ => rng.below(1_500_000),
                };
                let next = now + SimDuration::from_micros(gap_us);
                let mut probes: Vec<u64> = (0..rng.below(4))
                    .map(|_| rng.below(gap_us * 1_000 + 1))
                    .collect();
                probes.sort_unstable();
                for off in probes {
                    let t = now + SimDuration::from_nanos(off);
                    let _ = probed.has_eligible(t);
                    let _ = probed.next_wake(t);
                    probed.on_tick(t);
                }
                now = next;
                // Both draw the op from the same stream position.
                let mut twin = rng.clone();
                let a = random_op(&mut plain, &mut rng, n, now);
                let b = random_op(&mut probed, &mut twin, n, now);
                assert_eq!(a, b, "seed {seed}: dequeue diverged at step {step}");
                assert_eq!(plain.has_eligible(now), probed.has_eligible(now));
                assert_eq!(plain.next_wake(now), probed.next_wake(now));
                for c in 0..n {
                    let (tp, tq) = (
                        plain.token_balance_ns(ClientId(c)).unwrap(),
                        probed.token_balance_ns(ClientId(c)).unwrap(),
                    );
                    assert_eq!(
                        tp.to_bits(),
                        tq.to_bits(),
                        "seed {seed} step {step}: tokens {tp} vs {tq}"
                    );
                    let (rp, rq) = (
                        plain.token_fill_rate(ClientId(c)).unwrap(),
                        probed.token_fill_rate(ClientId(c)).unwrap(),
                    );
                    assert_eq!(
                        rp.to_bits(),
                        rq.to_bits(),
                        "seed {seed} step {step}: rates {rp} vs {rq}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_wake_is_exact_and_grid_aligned() {
        let period = TbrConfig::default().fill_period;
        for seed in 0..200u64 {
            let mut rng = SimRng::new(seed);
            let mut tbr = TbrScheduler::new(TbrConfig {
                initial_tokens: SimDuration::from_micros(1),
                ..TbrConfig::default()
            });
            let n = 2 + rng.below(6) as usize;
            for c in 0..n {
                tbr.on_associate(ClientId(c), SimTime::ZERO);
            }
            // Unblocked (no backlog): no wake needed.
            assert_eq!(tbr.next_wake(SimTime::ZERO), None);
            let now = SimTime::from_micros(rng.below(200_000));
            tbr.enqueue(pkt(0, 1500), now);
            let p = tbr.dequeue(now).expect("initial tokens release");
            let balance = tbr.token_balance_ns(ClientId(0)).unwrap() as u64;
            let debt = SimDuration::from_nanos(balance + 1 + rng.below(40_000_000));
            tbr.on_complete(p.client, debt, true, now);
            tbr.enqueue(pkt(0, 1500), now);
            assert!(tbr.dequeue(now).is_none(), "negative balance blocks");
            assert!(!tbr.has_eligible(now));
            let wake = tbr.next_wake(now).expect("blocked queue wants a wake");
            assert!(wake > now);
            assert_eq!(
                wake.as_nanos() % period.as_nanos(),
                0,
                "wake lands on the grid"
            );
            assert!(
                wake < SimTime::from_secs(1),
                "release precedes the first adjustment"
            );
            // Exact: one grid step earlier the balance is not positive
            // and nothing is eligible; at the wake the key releases.
            let before = SimTime::from_nanos(wake.as_nanos() - period.as_nanos());
            assert!(
                !tbr.has_eligible(before),
                "seed {seed}: eligible before the wake"
            );
            if before >= now {
                tbr.on_tick(before);
                assert!(tbr.token_balance_ns(ClientId(0)).unwrap() <= 0.0);
            }
            assert!(
                tbr.has_eligible(wake),
                "seed {seed}: not eligible at the wake"
            );
            tbr.on_tick(wake);
            assert!(tbr.token_balance_ns(ClientId(0)).unwrap() > 0.0);
            assert_eq!(tbr.dequeue(wake).map(|p| p.client), Some(ClientId(0)));
        }
    }

    #[test]
    fn next_wake_stops_at_the_next_adjustment() {
        // A debt that outlasts the adjustment instant: rates may move
        // there, so the wake must not sleep past it.
        let mut tbr = TbrScheduler::new(TbrConfig {
            initial_tokens: SimDuration::from_micros(1),
            ..TbrConfig::default()
        });
        tbr.on_associate(ClientId(0), SimTime::ZERO);
        tbr.on_associate(ClientId(1), SimTime::ZERO);
        let now = SimTime::from_millis(900);
        tbr.enqueue(pkt(0, 1500), now);
        let p = tbr.dequeue(now).unwrap();
        tbr.on_complete(p.client, SimDuration::from_millis(400), true, now);
        tbr.enqueue(pkt(0, 1500), now);
        assert_eq!(tbr.next_wake(now), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn off_grid_membership_change_releases_a_key_past_its_crossing() {
        // Key 0 is debited 9.75 ms against 5 ms of initial tokens at
        // t = 0. With 2 keys (rate 1/2) its balance crosses zero at
        // 9.5 ms and its grid release is 10 ms; with 3 keys (rate 1/3)
        // at 14.25 ms and 16 ms. A membership change between the two
        // re-files it with a positive balance: it must dequeue.
        for (n, at_us) in [(2, 9_700), (3, 15_000)] {
            let mut tbr = TbrScheduler::new(TbrConfig::default());
            for c in 0..n {
                tbr.on_associate(ClientId(c), SimTime::ZERO);
            }
            tbr.enqueue(pkt(0, 1500), SimTime::ZERO);
            let p = tbr.dequeue(SimTime::ZERO).unwrap();
            tbr.on_complete(
                p.client,
                SimDuration::from_micros(9_750),
                true,
                SimTime::ZERO,
            );
            tbr.enqueue(pkt(0, 1500), SimTime::ZERO);
            let at = SimTime::from_micros(at_us);
            if n == 2 {
                tbr.on_associate(ClientId(2), at);
            } else {
                tbr.on_disassociate(ClientId(2), at);
            }
            assert!(tbr.token_balance_ns(ClientId(0)).unwrap() > 0.0);
            assert!(tbr.has_eligible(at), "{n} keys: not eligible");
            assert_eq!(tbr.dequeue(at).map(|p| p.client), Some(ClientId(0)));
        }
    }

    #[test]
    fn plain_reassociation_preserves_weights() {
        // `drive_saturated` re-associates clients with the plain call;
        // an explicitly set weight must survive it.
        let mut tbr = TbrScheduler::new(TbrConfig::default());
        tbr.on_associate_weighted(ClientId(0), 3.0, SimTime::ZERO);
        tbr.on_associate_weighted(ClientId(1), 1.0, SimTime::ZERO);
        tbr.on_associate(ClientId(0), SimTime::ZERO);
        assert!((tbr.token_fill_rate(ClientId(0)).unwrap() - 0.75).abs() < 1e-12);
        assert!((tbr.token_fill_rate(ClientId(1)).unwrap() - 0.25).abs() < 1e-12);
    }

    /// Every field the regulator's future depends on, floats as bits.
    fn full_state(t: &TbrScheduler) -> String {
        let keys: Vec<_> = t
            .states
            .iter()
            .map(|s| {
                let bits = |x: f64| x.to_bits();
                (
                    (bits(s.tokens), s.as_of, s.release_at, s.listed, s.in_ring),
                    (bits(s.rate), bits(s.weight), bits(s.actual), s.start),
                    (bits(s.demand_time), s.backlog_since, s.active),
                    (s.low_demand_streak, s.usage_ewma.map(bits)),
                )
            })
            .collect();
        let mut blocked = t.blocked.clone().into_sorted_vec();
        blocked.dedup();
        format!(
            "{keys:?} ring {:?} eligible {} blocked {blocked:?} clock {:?} adjust {:?} queues {:?}",
            t.ring, t.eligible, t.clock, t.next_adjust, t.pool.queues
        )
    }

    #[test]
    fn batch_association_equals_one_key_at_a_time() {
        // Two regulators live through the same history; then one
        // registers a batch of keys (new, departed and current ones,
        // random weights) in one call and the other one key at a time.
        // Their whole state must agree bit for bit, and stay in step.
        for (case, keys) in [1usize, 2, 3, 7, 40, 300].into_iter().enumerate() {
            for seed in 0..4u64 {
                let history = || {
                    let mut rng = SimRng::new(1_000 * case as u64 + seed);
                    let initial_us = if seed % 2 == 0 { 1 } else { 5_000 };
                    let mut t = TbrScheduler::new(TbrConfig {
                        initial_tokens: SimDuration::from_micros(initial_us),
                        ..TbrConfig::default()
                    });
                    let mut now = SimTime::ZERO;
                    if seed >= 2 {
                        // Half the keys first, with traffic and churn.
                        let first: Vec<_> = (0..keys.div_ceil(2))
                            .map(|c| (ClientId(c), 1.0 + rng.below(4) as f64))
                            .collect();
                        t.on_associate_all(&first, now);
                        for _ in 0..200 {
                            now += SimDuration::from_micros(rng.below(40_000));
                            random_op(&mut t, &mut rng, keys.div_ceil(2), now);
                        }
                    }
                    (t, now, rng)
                };
                let (mut one, mut now, mut rng) = history();
                let (mut batch, ..) = history();
                assert_eq!(full_state(&one), full_state(&batch));
                let members: Vec<_> = (0..keys)
                    .map(|c| (ClientId(c), 0.25 + 4.0 * rng.unit()))
                    .collect();
                now += SimDuration::from_micros(rng.below(3_000));
                for &(c, w) in &members {
                    one.on_associate_weighted(c, w, now);
                }
                batch.on_associate_all(&members, now);
                assert_eq!(
                    full_state(&one),
                    full_state(&batch),
                    "{keys} keys, seed {seed}"
                );
                for step in 0..300 {
                    now += SimDuration::from_micros(rng.below(20_000));
                    let mut twin = rng.clone();
                    let a = random_op(&mut one, &mut rng, keys, now);
                    let b = random_op(&mut batch, &mut twin, keys, now);
                    assert_eq!(a, b, "{keys} keys, seed {seed}: step {step}");
                }
                assert_eq!(full_state(&one), full_state(&batch));
            }
        }
    }
}
