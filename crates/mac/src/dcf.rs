//! The DCF contention state machine.
//!
//! # Model
//!
//! All stations share one collision domain. Contention follows DCF:
//! a station with a frame waits for the medium to be idle for DIFS, then
//! counts down a slotted backoff; the countdown freezes while the medium
//! is busy and resumes after the next DIFS-idle period. A station whose
//! frame arrives while the medium has been idle long enough transmits
//! immediately (backoff 0). After every transmission — successful or not
//! — the sender draws a post-transmission backoff, which is what keeps a
//! solo saturated sender from monopolising the air back-to-back (the
//! effect the paper points to in Figure 4's downlink-vs-uplink gap).
//!
//! Two stations whose countdowns expire on the same slot collide; both
//! double their contention windows and retry. Frame corruption is drawn
//! per attempt from the client link's [`LinkErrorModel`]. A corrupted
//! data frame or lost ACK looks the same to the sender (no ACK), so both
//! trigger a retransmission; a frame whose ACK was lost is conservatively
//! treated as undelivered (real receivers dedup retransmissions — the
//! probability is small enough not to matter at the paper's <2% loss).
//!
//! # Timing simplifications (documented deviations)
//!
//! - Propagation delay is zero (one-room cell; the paper's own occupancy
//!   definition lumps it into the exchange).
//! - A failed exchange occupies the medium for the same span as a
//!   successful one (data + SIFS + ACK): the sender's ACK-timeout is of
//!   that order, and EIFS deferral by third parties is folded into it.
//! - Backoff a station carries into an idle spell (its post-transmission
//!   draw, with no frame pending) counts down only while some other
//!   station's countdown runs. Every backoff is kept as an expiry on one
//!   cell-wide countdown clock, the total slots the countdown has
//!   advanced; a station's remaining count is its expiry minus the
//!   clock, saturating at zero, so each advance shortens every carried
//!   backoff alike, idle and deferred stations' included. Over an idle
//!   medium with no contender the clock stands still, and the backoff
//!   stays frozen until the station's next frame, where real DCF would
//!   keep counting. Saturated senders (the paper's regime) are
//!   unaffected.

use airtime_phy::{DataRate, LinkErrorModel, Phy80211b};
use airtime_sim::{SimDuration, SimRng, SimTime};

use crate::frame::{Frame, FrameOutcome, NodeId};

/// Static configuration for a [`DcfWorld`].
#[derive(Clone, Copy, Debug)]
pub struct DcfConfig {
    /// PHY timing/contention parameters.
    pub phy: Phy80211b,
    /// Which station is the access point (for airtime attribution).
    pub ap: NodeId,
    /// Multi-rate retry chains: step the rate down one notch every two
    /// failed attempts of the same frame, as real rate-adaptive cards
    /// do. Leave off for the paper's manually-pinned-rate experiments.
    pub retry_rate_fallback: bool,
    /// Protect data frames whose on-air size exceeds this with an
    /// RTS/CTS handshake (`None` = never, the 2004 default). Protected
    /// collisions waste only the short RTS instead of the whole frame.
    pub rts_threshold: Option<u64>,
}

/// Events the embedding simulator must deliver back to [`DcfWorld::handle`]
/// at the requested times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacEvent {
    /// A scheduled contention resolution point. Stale generations are
    /// ignored, so the embedder never needs to cancel events; each one
    /// supersedes every earlier one, so an embedder may also keep only
    /// the latest.
    AccessResolved {
        /// Generation stamp; compared against the world's current one.
        generation: u64,
    },
    /// End of the current medium-busy period.
    TxEnd,
    /// A station's TBR-style transmission deferral has expired.
    DeferExpired {
        /// The station whose defer timer fired.
        node: NodeId,
    },
    /// The cell-wide deferral set by [`DcfWorld::defer_medium`] has
    /// expired.
    MediumDeferExpired,
}

/// Outputs of the MAC state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacEffect {
    /// Deliver `event` back to [`DcfWorld::handle`] at time `at`.
    Schedule {
        /// Due time.
        at: SimTime,
        /// Event to deliver.
        event: MacEvent,
    },
    /// A frame arrived intact at its destination (receiver side).
    Delivered {
        /// The delivered frame.
        frame: Frame,
    },
    /// The sender is done with a frame: it was acked or dropped.
    /// `airtime_total` is the channel occupancy consumed by *all*
    /// attempts of this frame — the quantity TBR debits (§4.2).
    TxFinal {
        /// The frame in question.
        frame: Frame,
        /// Delivered or dropped.
        outcome: FrameOutcome,
        /// Occupancy across every attempt, including failures.
        airtime_total: SimDuration,
    },
    /// One transmission attempt finished (rate-control feedback and
    /// on-air trace hook; fires for every attempt, not just the last).
    Attempt {
        /// The frame being attempted.
        frame: Frame,
        /// True when this attempt was acked.
        success: bool,
        /// True when the attempt failed because of a slot collision.
        collision: bool,
        /// Channel occupancy of this single attempt.
        airtime: SimDuration,
        /// How many earlier attempts this frame already consumed (0 for
        /// a first transmission).
        retry: u32,
    },
    /// A station drew a fresh backoff counter. Only emitted when the
    /// embedder opted in via [`DcfWorld::set_emit_backoff`]; the draw
    /// itself happens (and consumes randomness) either way, so opting
    /// in never perturbs the run.
    BackoffDrawn {
        /// The station that drew.
        node: NodeId,
        /// Slots drawn, uniform in `[0, cw]`.
        slots: u32,
        /// The contention window used for the draw.
        cw: u32,
    },
    /// One exclusive slice of the medium timeline. Only emitted when
    /// the embedder opted in via [`DcfWorld::set_emit_airtime`]; the
    /// accounting is effect-only (no RNG, no state the contention
    /// machine reads back), so opting in never perturbs the run.
    ///
    /// Slices of one DCF cycle are emitted together when the cycle's
    /// transmission ends, in chronological order, and consecutive
    /// cycles tile wall time exactly — the conservation invariant the
    /// obs-layer auditor checks.
    AirtimeSlice {
        /// When the slice began.
        start: SimTime,
        /// How long it lasted.
        dur: SimDuration,
        /// Billed client's node index. Idle and collision time carry
        /// the AP's index here: the AP never owns occupancy (§2.2), so
        /// its id doubles as "the cell itself".
        client: usize,
        /// What the time was spent on.
        kind: SliceKind,
    },
}

/// What a [`MacEffect::AirtimeSlice`] was spent on (mirrors the obs
/// crate's `AirtimeCategory`; the MAC stays observation-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceKind {
    /// MPDU payload bits on the air.
    DataTx,
    /// ACK frames.
    Ack,
    /// Fixed MAC overhead: DIFS, SIFS, preambles, RTS/CTS.
    MacOverhead,
    /// Contention countdown while at least one station has traffic.
    Backoff,
    /// Busy time destroyed by simultaneous transmissions.
    Collision,
    /// Nobody had traffic pending.
    Idle,
}

struct Station {
    pending: Option<Frame>,
    /// Countdown-clock reading at which the backoff expires: the
    /// remaining slots, measured from the world's `anchor` while a
    /// countdown is active, are `expiry − clock`, saturating at zero.
    /// `Some` whenever a frame is pending (a frame on the air keeps the
    /// expiry it won with, so it reads zero); may carry a
    /// post-transmission backoff between frames. `None` only before the
    /// station's first frame.
    expiry: Option<u64>,
    cw: u32,
    retries: u32,
    defer_until: Option<SimTime>,
    airtime_this_frame: SimDuration,
}

struct InFlight {
    frame: Frame,
    data_lost: bool,
    ack_lost: bool,
    airtime: SimDuration,
}

/// Aggregate MAC statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Transmission attempts started.
    pub attempts: u64,
    /// Attempts that ended in a slot collision.
    pub collision_events: u64,
    /// Attempts that were retransmissions (retry index ≥ 1).
    pub retries: u64,
    /// Frames delivered (acked).
    pub delivered: u64,
    /// Frames dropped at the retry limit.
    pub dropped: u64,
}

/// One link's memoised frame-error rates. An SNR link's FER costs a
/// `powf`, an `ln_1p` and an `exp`, yet a link sees few distinct frames:
/// its data size and its TCP-ack size, at one rate between rate changes.
#[derive(Clone, Copy, Default)]
struct FerMemo {
    /// Data-frame FER by `(rate, on-air bytes)`, the latest first.
    data: [Option<((DataRate, u64), f64)>; 2],
    /// ACK FER by the rate of the data frame it answers, the latest first.
    ack: [Option<(DataRate, f64)>; 2],
}

impl FerMemo {
    /// `link.data_fer(rate, bytes)`, memoised.
    fn data_fer(&mut self, link: LinkErrorModel, rate: DataRate, bytes: u64) -> f64 {
        recall(&mut self.data, (rate, bytes), || link.data_fer(rate, bytes))
    }

    /// `link.ack_fer(rate)`, memoised.
    fn ack_fer(&mut self, link: LinkErrorModel, rate: DataRate) -> f64 {
        recall(&mut self.ack, rate, || link.ack_fer(rate))
    }
}

/// The value `slots` holds for `key`, or `compute()`'s, which then
/// replaces the older slot.
fn recall<K: Copy + PartialEq>(
    slots: &mut [Option<(K, f64)>; 2],
    key: K,
    compute: impl FnOnce() -> f64,
) -> f64 {
    if let Some((_, v)) = slots.iter().flatten().find(|(k, _)| *k == key) {
        return *v;
    }
    let v = compute();
    *slots = [Some((key, v)), slots[0]];
    v
}

/// The shared-medium DCF world: all stations plus the channel.
pub struct DcfWorld {
    config: DcfConfig,
    links: Vec<LinkErrorModel>,
    /// Per link, the FERs its model has produced ([`DcfWorld::set_link`]
    /// forgets a link's).
    fer_memo: Vec<FerMemo>,
    stations: Vec<Station>,
    rng: SimRng,
    /// When the medium last became idle.
    idle_start: SimTime,
    /// End of the current busy period, if transmitting.
    busy_until: Option<SimTime>,
    /// Slot-grid origin of the active countdown.
    anchor: SimTime,
    countdown_active: bool,
    /// Slots the countdown has advanced in total: the clock every
    /// station's backoff `expiry` is read against.
    clock: u64,
    /// `(expiry, id)` of every station with a pending frame and no
    /// deferral of its own, sorted: the minimum is the head, and the
    /// stations whose backoff has run out are a prefix.
    contenders: Vec<(u64, usize)>,
    /// Stations with a deferral of their own (client cooperation), in
    /// no particular order. Their deferral may lapse before its timer
    /// is delivered, so they are checked against `now` at each query.
    held: Vec<usize>,
    generation: u64,
    /// When the live `AccessResolved` (the one stamped `generation`)
    /// is due, if one is live.
    access_at: Option<SimTime>,
    /// End of the cell-wide deferral a co-channel neighbour's busy
    /// period imposes (see [`DcfWorld::defer_medium`]).
    medium_defer: Option<SimTime>,
    in_flight: Vec<InFlight>,
    /// Scratch buffer for the stations that won the current access.
    winners: Vec<usize>,
    occupancy: Vec<SimDuration>,
    busy_accum: SimDuration,
    stats: MacStats,
    emit_backoff: bool,
    emit_airtime: bool,
    /// When the current idle period first had a contender (the boundary
    /// between `Idle` and `Backoff`/`MacOverhead` ledger time).
    contention_since: Option<SimTime>,
    /// Ledger slices of the in-progress DCF cycle, captured at channel
    /// access and emitted when its transmission ends.
    pending_slices: Vec<(SimTime, SimDuration, usize, SliceKind)>,
}

impl DcfWorld {
    /// Creates a world of `links.len()` stations. `links[i]` describes
    /// the radio link between station `i` and the AP (the AP's own entry
    /// is unused).
    ///
    /// # Panics
    ///
    /// Panics if the AP index is out of range.
    pub fn new(config: DcfConfig, links: Vec<LinkErrorModel>, rng: SimRng) -> Self {
        assert!(config.ap.index() < links.len(), "AP index out of range");
        let n = links.len();
        let cw_min = config.phy.cw_min;
        DcfWorld {
            config,
            fer_memo: vec![FerMemo::default(); n],
            links,
            stations: (0..n)
                .map(|_| Station {
                    pending: None,
                    expiry: None,
                    cw: cw_min,
                    retries: 0,
                    defer_until: None,
                    airtime_this_frame: SimDuration::ZERO,
                })
                .collect(),
            rng,
            idle_start: SimTime::ZERO,
            busy_until: None,
            anchor: SimTime::ZERO,
            countdown_active: false,
            clock: 0,
            contenders: Vec::new(),
            held: Vec::new(),
            generation: 0,
            access_at: None,
            medium_defer: None,
            in_flight: Vec::new(),
            winners: Vec::new(),
            occupancy: vec![SimDuration::ZERO; n],
            busy_accum: SimDuration::ZERO,
            stats: MacStats::default(),
            emit_backoff: false,
            emit_airtime: false,
            contention_since: None,
            pending_slices: Vec::new(),
        }
    }

    /// Opts in to [`MacEffect::BackoffDrawn`] effects. Off by default;
    /// turning it on changes only the effect stream, never the backoff
    /// draws themselves.
    pub fn set_emit_backoff(&mut self, on: bool) {
        self.emit_backoff = on;
    }

    /// Opts in to [`MacEffect::AirtimeSlice`] effects. Off by default;
    /// like backoff emission, the flag only adds effects — it touches
    /// neither the RNG stream nor any state the contention machine
    /// reads, so observed runs stay bit-identical.
    pub fn set_emit_airtime(&mut self, on: bool) {
        self.emit_airtime = on;
    }

    /// Number of stations (including the AP).
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// True when station `node`'s MAC can take a new frame.
    pub fn can_accept(&self, node: NodeId) -> bool {
        self.stations[node.index()].pending.is_none()
    }

    /// Replaces the error model of `node`'s link (e.g. mobility).
    pub fn set_link(&mut self, node: NodeId, link: LinkErrorModel) {
        self.links[node.index()] = link;
        self.fer_memo[node.index()] = FerMemo::default();
    }

    /// Channel occupancy attributed to client `node` so far — the
    /// paper's T(i) numerator.
    pub fn occupancy(&self, node: NodeId) -> SimDuration {
        self.occupancy[node.index()]
    }

    /// Total time the medium has been busy.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_accum
    }

    /// End of the current busy period, if an exchange is on the air.
    /// Multi-cell drivers mirror this into co-channel neighbours as a
    /// defer window (carrier sense across cells).
    pub fn busy_until(&self) -> Option<SimTime> {
        self.busy_until
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// [`DcfWorld::offer_frame_into`] with its effects in a fresh `Vec`,
    /// for callers that keep no effect buffer of their own.
    pub fn offer_frame(&mut self, now: SimTime, frame: Frame) -> Result<Vec<MacEffect>, Frame> {
        let mut effects = Vec::new();
        self.offer_frame_into(now, frame, &mut effects)
            .map(|()| effects)
    }

    /// Hands a frame to the MAC of `frame.src`, appending the effects
    /// to `effects`.
    ///
    /// Returns `Err(frame)` (unchanged, `effects` untouched) if that MAC
    /// is still working on a previous frame; check
    /// [`DcfWorld::can_accept`] first.
    pub fn offer_frame_into(
        &mut self,
        now: SimTime,
        frame: Frame,
        effects: &mut Vec<MacEffect>,
    ) -> Result<(), Frame> {
        let idx = frame.src.index();
        assert!(idx < self.stations.len(), "unknown source station");
        assert!(
            frame.dst.index() < self.stations.len(),
            "unknown destination"
        );
        if self.stations[idx].pending.is_some() {
            return Err(frame);
        }
        let medium_busy = self.busy_until.is_some_and(|t| now < t);
        let needs_backoff = self.stations[idx].expiry.is_none();
        if needs_backoff {
            // No carried post-transmission backoff: immediate access when
            // the medium is idle, fresh draw when it is busy.
            let b = if medium_busy {
                let cw = self.stations[idx].cw;
                let b = self.draw_backoff(cw);
                if self.emit_backoff {
                    effects.push(MacEffect::BackoffDrawn {
                        node: frame.src,
                        slots: b,
                        cw,
                    });
                }
                b
            } else {
                0
            };
            self.stations[idx].expiry = Some(self.clock + b as u64);
        }
        let st = &mut self.stations[idx];
        st.pending = Some(frame);
        st.retries = 0;
        st.airtime_this_frame = SimDuration::ZERO;
        self.list(idx);
        self.reschedule_access(now, effects);
        self.check_contenders(now);
        Ok(())
    }

    /// Forbids `node` from starting new transmissions until `until`
    /// (TBR client-cooperation, §4.1 of the paper). Appends the timer
    /// event the embedder must schedule to `effects`. A defer can only
    /// be extended: a request ending at or before the station's
    /// effective deferral — its own or the medium's
    /// ([`DcfWorld::defer_medium`]) — is a no-op (the pending expiry
    /// timer stays valid).
    pub fn set_defer(
        &mut self,
        now: SimTime,
        node: NodeId,
        until: SimTime,
        effects: &mut Vec<MacEffect>,
    ) {
        let held = self.deferred_until(node.index());
        if until <= now || held.is_some_and(|t| t >= until) {
            return;
        }
        let idx = node.index();
        if self.stations[idx].defer_until.is_none() {
            self.unlist(idx);
            self.held.push(idx);
        }
        self.stations[idx].defer_until = Some(until);
        effects.push(MacEffect::Schedule {
            at: until,
            event: MacEvent::DeferExpired { node },
        });
        self.reschedule_access(now, effects);
        self.check_contenders(now);
    }

    /// Forbids every station from starting new transmissions until
    /// `until` — how a multi-cell driver imposes a co-channel
    /// neighbour's busy period (carrier sense across cells). One timer
    /// per window: appends the single [`MacEvent::MediumDeferExpired`]
    /// the embedder must schedule. A window ending at or before `now`,
    /// or at or before every station's effective deferral (so at or
    /// before an already-set window), is a no-op.
    ///
    /// Its effect equals [`DcfWorld::set_defer`] on every station in
    /// index order, minus that sequence's per-station timers and
    /// superseded access events. Fidelity note: the sequence's first
    /// effective call holds one station alone, so when the local medium
    /// is idle and another station is still contending, a running
    /// backoff countdown first advances to the slot boundary at `now`;
    /// that advance is kept on purpose. Afterwards the countdown is
    /// inactive, the contention period is closed and no access event is
    /// live.
    pub fn defer_medium(&mut self, now: SimTime, until: SimTime, effects: &mut Vec<MacEffect>) {
        if until <= now || self.medium_defer.is_some_and(|t| t >= until) {
            return;
        }
        // Stations whose own deferral outlasts the window ignore it. The
        // per-station loop this call equals starts with the lowest index
        // the window reaches: the "first" station.
        let outlasts = |i: usize| self.stations[i].defer_until.is_some_and(|t| t >= until);
        if self.held.iter().filter(|&&i| outlasts(i)).count() == self.stations.len() {
            return;
        }
        // Station `c` is the first one when every lower index outlasts.
        let is_first = |c: usize| self.held.iter().filter(|&&i| i < c && outlasts(i)).count() == c;
        if self.busy_until.is_none_or(|t| now >= t) {
            // Holding the first station alone advances a running
            // countdown to `now` when any other station still contends.
            let advance = {
                let mut contending = self.listed(now).iter().copied().chain(self.released(now));
                match (contending.next(), contending.next()) {
                    (Some(_), Some(_)) => true,
                    (Some((_, c)), None) => !is_first(c),
                    (None, _) => false,
                }
            };
            if advance {
                self.sync_countdown(now);
            }
            self.generation += 1; // Invalidate any scheduled access.
            self.access_at = None;
            self.countdown_active = false;
            self.contention_since = None;
        }
        self.medium_defer = Some(until);
        effects.push(MacEffect::Schedule {
            at: until,
            event: MacEvent::MediumDeferExpired,
        });
        self.check_contenders(now);
    }

    /// [`DcfWorld::handle_into`] with its effects in a fresh `Vec`, for
    /// callers that keep no effect buffer of their own.
    pub fn handle(&mut self, now: SimTime, event: MacEvent) -> Vec<MacEffect> {
        let mut effects = Vec::new();
        self.handle_into(now, event, &mut effects);
        effects
    }

    /// Delivers a due event, appending its effects to `effects`.
    pub fn handle_into(&mut self, now: SimTime, event: MacEvent, effects: &mut Vec<MacEffect>) {
        match event {
            MacEvent::AccessResolved { generation } => {
                if generation == self.generation {
                    self.access_at = None;
                    if self.busy_until.is_none() {
                        self.on_access(now, effects);
                    }
                }
            }
            MacEvent::TxEnd => self.on_tx_end(now, effects),
            MacEvent::DeferExpired { node } => {
                let idx = node.index();
                if self.stations[idx].defer_until.is_some_and(|t| t <= now) {
                    self.stations[idx].defer_until = None;
                    let at = self.held.iter().position(|&i| i == idx);
                    self.held
                        .swap_remove(at.expect("a deferred station is held"));
                    self.list(idx);
                    // A running medium deferral still holds the station;
                    // its own expiry reschedules.
                    if self.medium_defer.is_none_or(|t| now >= t) {
                        self.reschedule_access(now, effects);
                    }
                }
            }
            MacEvent::MediumDeferExpired => {
                if self.medium_defer.is_some_and(|t| t <= now) {
                    self.medium_defer = None;
                    self.reschedule_access(now, effects);
                }
            }
        }
        self.check_contenders(now);
    }

    fn draw_backoff(&mut self, cw: u32) -> u32 {
        self.rng.below(cw as u64 + 1) as u32
    }

    /// The later of station `idx`'s own deferral and the medium's.
    fn deferred_until(&self, idx: usize) -> Option<SimTime> {
        self.stations[idx].defer_until.max(self.medium_defer)
    }

    /// Files station `idx` in the contender list if it contends: a
    /// pending frame and no deferral of its own. Pair every change of a
    /// station's frame, expiry or own deferral with [`Self::unlist`]
    /// before and this after.
    fn list(&mut self, idx: usize) {
        if let Some(key) = self.list_key(idx) {
            let at = self
                .contenders
                .binary_search(&key)
                .expect_err("listed twice");
            self.contenders.insert(at, key);
        }
    }

    /// Takes station `idx` out of the contender list, if it is there.
    fn unlist(&mut self, idx: usize) {
        if let Some(key) = self.list_key(idx) {
            let at = self.contenders.binary_search(&key).expect("listed");
            self.contenders.remove(at);
        }
    }

    /// Station `idx`'s contender-list entry, if it belongs in the list.
    fn list_key(&self, idx: usize) -> Option<(u64, usize)> {
        let st = &self.stations[idx];
        if st.pending.is_some() && st.defer_until.is_none() {
            Some((st.expiry.expect("a pending frame has a backoff"), idx))
        } else {
            None
        }
    }

    /// The listed contenders, if the medium deferral lets any contend
    /// at `now`.
    fn listed(&self, now: SimTime) -> &[(u64, usize)] {
        if self.medium_defer.is_none_or(|t| now >= t) {
            &self.contenders
        } else {
            &[]
        }
    }

    /// `(expiry, id)` of the held stations that contend at `now`: a
    /// pending frame, and both their own and the medium's deferral over.
    fn released(&self, now: SimTime) -> impl Iterator<Item = (u64, usize)> + '_ {
        let open = self.medium_defer.is_none_or(|t| now >= t);
        self.held.iter().filter_map(move |&i| {
            let st = &self.stations[i];
            let free = open && st.pending.is_some() && st.defer_until.is_some_and(|t| now >= t);
            free.then(|| (st.expiry.expect("a pending frame has a backoff"), i))
        })
    }

    /// The earliest backoff expiry among the stations contending at `now`.
    fn min_expiry(&self, now: SimTime) -> Option<u64> {
        let head = self.listed(now).first().copied();
        head.into_iter()
            .chain(self.released(now))
            .map(|(e, _)| e)
            .min()
    }

    /// Fills `out` with the stations contending at `now` whose backoff
    /// has run out on the clock, in id order.
    fn collect_winners(&self, now: SimTime, out: &mut Vec<usize>) {
        let clock = self.clock;
        out.clear();
        let expired = |&(e, _): &(u64, usize)| e <= clock;
        let listed = self.listed(now).iter().copied().take_while(expired);
        out.extend(
            listed
                .chain(self.released(now).filter(expired))
                .map(|(_, i)| i),
        );
        out.sort_unstable();
    }

    /// Debug builds only: the minimum expiry and the winners read off the
    /// contender list must equal those of a full per-station scan.
    #[cfg(debug_assertions)]
    fn check_contenders(&self, now: SimTime) {
        let scan: Vec<(u64, usize)> = (0..self.stations.len())
            .filter(|&i| {
                let contends = self.deferred_until(i).is_none_or(|t| now >= t);
                self.stations[i].pending.is_some() && contends
            })
            .map(|i| (self.stations[i].expiry.expect("pending"), i))
            .collect();
        assert_eq!(
            self.min_expiry(now),
            scan.iter().map(|&(e, _)| e).min(),
            "contender list minimum at {now:?}"
        );
        let mut winners = Vec::new();
        self.collect_winners(now, &mut winners);
        let expired: Vec<usize> = scan
            .iter()
            .filter(|&&(e, _)| e <= self.clock)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(winners, expired, "contender list winners at {now:?}");
    }

    #[cfg(not(debug_assertions))]
    fn check_contenders(&self, _now: SimTime) {}

    /// The client side of an AP↔station exchange, for occupancy
    /// attribution (§2.2: the AP is a facilitator; its transmissions
    /// count against the destination client).
    fn client_of(&self, frame: &Frame) -> usize {
        if frame.src == self.config.ap {
            frame.dst.index()
        } else {
            frame.src.index()
        }
    }

    fn slot(&self) -> SimDuration {
        self.config.phy.slot
    }

    /// Recomputes and schedules the next contention-resolution point.
    /// When the live access event is already due at that instant it
    /// stays as it is: no new generation, no second event.
    fn reschedule_access(&mut self, now: SimTime, effects: &mut Vec<MacEffect>) {
        if self.busy_until.is_some_and(|t| now < t) {
            return; // TxEnd will reschedule.
        }
        let Some(min_expiry) = self.min_expiry(now) else {
            self.generation += 1; // Invalidate any scheduled access.
            self.access_at = None;
            self.countdown_active = false;
            self.contention_since = None;
            return;
        };
        if self.contention_since.is_none() {
            self.contention_since = Some(now);
        }
        self.sync_countdown(now);
        let min_b = min_expiry.saturating_sub(self.clock);
        let at = self.anchor + self.slot() * min_b;
        if self.access_at == Some(at) {
            return;
        }
        self.generation += 1; // Invalidate any previously scheduled access.
        self.access_at = Some(at);
        effects.push(MacEffect::Schedule {
            at,
            event: MacEvent::AccessResolved {
                generation: self.generation,
            },
        });
    }

    /// Starts the backoff countdown at the next slot boundary at or
    /// after `now` (on the grid anchored DIFS after the medium went
    /// idle), or advances a running one, and the clock with it, to it.
    fn sync_countdown(&mut self, now: SimTime) {
        let slot = self.slot();
        let base = self.idle_start + self.config.phy.difs();
        // Next slot boundary ≥ max(now, base) on the grid anchored at base.
        let start = now.max(base);
        let offset_ns = start.saturating_since(base).as_nanos();
        let k = offset_ns.div_ceil(slot.as_nanos());
        let new_anchor = base + slot * k;
        if !self.countdown_active {
            self.anchor = new_anchor;
            self.countdown_active = true;
            return;
        }
        if new_anchor <= self.anchor {
            return;
        }
        self.clock += (new_anchor - self.anchor) / slot;
        self.anchor = new_anchor;
    }

    /// Contention resolved: the minimum countdown expired at `now`.
    fn on_access(&mut self, now: SimTime, effects: &mut Vec<MacEffect>) {
        self.clock += now.saturating_since(self.anchor) / self.slot();
        self.anchor = now;
        self.countdown_active = false;

        let mut winners = std::mem::take(&mut self.winners);
        self.collect_winners(now, &mut winners);
        if winners.is_empty() {
            self.winners = winners;
            // Stale state (e.g. the minimum-backoff station was deferred
            // in the meantime); recompute.
            self.reschedule_access(now, effects);
            return;
        }

        let phy = self.config.phy;
        let collided = winners.len() > 1;
        let mut busy_span = SimDuration::ZERO;
        for &w in &winners {
            let mut frame = self.stations[w].pending.expect("contender has a frame");
            if self.config.retry_rate_fallback {
                // Multi-rate retry chain: r, r, r−1, r−1, r−2, …
                for _ in 0..(self.stations[w].retries / 2) {
                    match frame.rate.step_down() {
                        Some(down) => frame.rate = down,
                        None => break,
                    }
                }
            }
            let client = self.client_of(&frame);
            let link = self.links[client];
            let on_air_bytes = frame.msdu_bytes + airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES;
            let memo = &mut self.fer_memo[client];
            let data_lost = self
                .rng
                .chance(memo.data_fer(link, frame.rate, on_air_bytes));
            let ack_lost = !data_lost && self.rng.chance(memo.ack_fer(link, frame.rate));
            let on_air = frame.msdu_bytes + airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES;
            let protected = self.config.rts_threshold.is_some_and(|th| on_air > th);
            let handshake = if protected {
                phy.rts_cts_overhead(frame.rate)
            } else {
                SimDuration::ZERO
            };
            let data_dur = phy.data_tx_time_default(frame.msdu_bytes, frame.rate);
            let ack_dur = phy.ack_tx_time(frame.rate);
            let span = handshake + data_dur + phy.sifs + ack_dur;
            // A protected frame that collides wastes only its RTS (plus
            // the CTS timeout ≈ SIFS + CTS); unprotected collisions
            // burn the whole data frame.
            let collision_span = if protected {
                phy.rts_tx_time(frame.rate) + phy.sifs + phy.cts_tx_time(frame.rate)
            } else {
                span
            };
            let effective = if collided { collision_span } else { span };
            busy_span = busy_span.max(effective);
            self.in_flight.push(InFlight {
                frame,
                data_lost,
                ack_lost,
                // Per-attempt occupancy: DIFS + the attempt's air (§2.3).
                airtime: phy.difs() + effective,
            });
            // The winner's expiry stays: it reads zero while the frame
            // is on the air, and TxEnd replaces it.
            if self.stations[w].retries > 0 {
                self.stats.retries += 1;
            }
        }
        self.stats.attempts += winners.len() as u64;
        self.winners = winners;
        if collided {
            self.stats.collision_events += 1;
        }
        let end = now + busy_span;
        self.busy_until = Some(end);
        self.busy_accum += busy_span;
        if self.emit_airtime {
            self.capture_cycle_slices(now, busy_span, collided);
        }
        self.contention_since = None;
        effects.push(MacEffect::Schedule {
            at: end,
            event: MacEvent::TxEnd,
        });
    }

    /// Captures the ledger slices of the cycle that just won access:
    /// the idle/contention gap `[idle_start, now]` plus the busy period
    /// `[now, now + busy_span]`, split chronologically so consecutive
    /// cycles tile wall time exactly. Emission waits until the cycle's
    /// TxEnd (everything is then in the past).
    fn capture_cycle_slices(&mut self, now: SimTime, busy_span: SimDuration, collided: bool) {
        let cell = self.config.ap.index();
        let push = |slices: &mut Vec<(SimTime, SimDuration, usize, SliceKind)>,
                    start: SimTime,
                    dur: SimDuration,
                    client: usize,
                    kind: SliceKind| {
            if !dur.is_zero() {
                slices.push((start, dur, client, kind));
            }
        };
        let mut slices = std::mem::take(&mut self.pending_slices);
        debug_assert!(slices.is_empty(), "previous cycle not drained");

        // The gap: idle until somebody had traffic, then DIFS deferral,
        // then backoff countdown. The DIFS/backoff boundary inside the
        // active part is attribution (conservation holds regardless of
        // where it falls); DIFS-first matches the DCF sequence.
        let active_from = match self.contention_since {
            Some(c) => c.clamp(self.idle_start, now),
            None => now,
        };
        let idle_dur = active_from.saturating_since(self.idle_start);
        push(
            &mut slices,
            self.idle_start,
            idle_dur,
            cell,
            SliceKind::Idle,
        );
        let active = now.saturating_since(active_from);
        let difs_part = active.min(self.config.phy.difs());
        let backoff_part = active - difs_part;
        // A single winner owns its access time; colliding winners
        // overlap, so the cell absorbs it.
        let owner = if collided {
            cell
        } else {
            self.client_of(&self.in_flight[0].frame)
        };
        push(
            &mut slices,
            active_from,
            difs_part,
            owner,
            SliceKind::MacOverhead,
        );
        push(
            &mut slices,
            active_from + difs_part,
            backoff_part,
            owner,
            SliceKind::Backoff,
        );

        // The busy period. A clean exchange splits into its on-air
        // parts (they sum to busy_span exactly); a collision destroys
        // the whole busy period, which nobody owns.
        if collided {
            push(&mut slices, now, busy_span, cell, SliceKind::Collision);
        } else {
            let phy = self.config.phy;
            let frame = self.in_flight[0].frame;
            let on_air = frame.msdu_bytes + airtime_phy::timing::MAC_DATA_OVERHEAD_BYTES;
            let protected = self.config.rts_threshold.is_some_and(|th| on_air > th);
            let handshake = if protected {
                phy.rts_cts_overhead(frame.rate)
            } else {
                SimDuration::ZERO
            };
            let data_dur = phy.data_tx_time_default(frame.msdu_bytes, frame.rate);
            let ack_dur = phy.ack_tx_time(frame.rate);
            debug_assert_eq!(handshake + data_dur + phy.sifs + ack_dur, busy_span);
            let mut t = now;
            push(&mut slices, t, handshake, owner, SliceKind::MacOverhead);
            t += handshake;
            push(&mut slices, t, data_dur, owner, SliceKind::DataTx);
            t += data_dur;
            push(&mut slices, t, phy.sifs, owner, SliceKind::MacOverhead);
            t += phy.sifs;
            push(&mut slices, t, ack_dur, owner, SliceKind::Ack);
        }
        self.pending_slices = slices;
    }

    /// Emits the ledger slices covering everything not yet accounted
    /// for, up to `end`: the in-progress busy period clipped at `end`,
    /// or the trailing idle/contention gap. Call once when the run
    /// ends so the timeline tiles `[0, end]` exactly.
    pub fn drain_airtime_tail(&mut self, end: SimTime) -> Vec<MacEffect> {
        let mut effects = Vec::new();
        if !self.emit_airtime {
            return effects;
        }
        if !self.pending_slices.is_empty() {
            // Mid-transmission: the captured cycle runs past `end`.
            for (start, dur, client, kind) in std::mem::take(&mut self.pending_slices) {
                if start >= end {
                    continue;
                }
                let dur = dur.min(end.saturating_since(start));
                effects.push(MacEffect::AirtimeSlice {
                    start,
                    dur,
                    client,
                    kind,
                });
            }
        } else if end > self.idle_start {
            // Idle tail; unfinished contention counts as cell backoff
            // (no winner exists to own it).
            let cell = self.config.ap.index();
            let active_from = match self.contention_since {
                Some(c) => c.clamp(self.idle_start, end),
                None => end,
            };
            let idle_dur = active_from.saturating_since(self.idle_start);
            if !idle_dur.is_zero() {
                effects.push(MacEffect::AirtimeSlice {
                    start: self.idle_start,
                    dur: idle_dur,
                    client: cell,
                    kind: SliceKind::Idle,
                });
            }
            let active = end.saturating_since(active_from);
            if !active.is_zero() {
                effects.push(MacEffect::AirtimeSlice {
                    start: active_from,
                    dur: active,
                    client: cell,
                    kind: SliceKind::Backoff,
                });
            }
        }
        effects
    }

    fn on_tx_end(&mut self, now: SimTime, effects: &mut Vec<MacEffect>) {
        self.busy_until = None;
        self.idle_start = now;
        if self.emit_airtime {
            for (start, dur, client, kind) in self.pending_slices.drain(..) {
                effects.push(MacEffect::AirtimeSlice {
                    start,
                    dur,
                    client,
                    kind,
                });
            }
        }
        let collision = self.in_flight.len() > 1;
        // Taken and put back so the buffer's allocation is reused.
        let mut flights = std::mem::take(&mut self.in_flight);
        for tx in flights.drain(..) {
            let client = self.client_of(&tx.frame);
            self.occupancy[client] += tx.airtime;
            let idx = tx.frame.src.index();
            self.stations[idx].airtime_this_frame += tx.airtime;
            let success = !collision && !tx.data_lost && !tx.ack_lost;
            effects.push(MacEffect::Attempt {
                frame: tx.frame,
                success,
                collision,
                airtime: tx.airtime,
                retry: self.stations[idx].retries,
            });
            if success {
                self.stats.delivered += 1;
                effects.push(MacEffect::Delivered { frame: tx.frame });
                let total = self.stations[idx].airtime_this_frame;
                effects.push(MacEffect::TxFinal {
                    frame: tx.frame,
                    outcome: FrameOutcome::Delivered,
                    airtime_total: total,
                });
                self.finish_frame(idx, effects);
            } else {
                let st = &mut self.stations[idx];
                st.retries += 1;
                if st.retries >= self.config.phy.retry_limit {
                    self.stats.dropped += 1;
                    let total = st.airtime_this_frame;
                    effects.push(MacEffect::TxFinal {
                        frame: tx.frame,
                        outcome: FrameOutcome::Dropped,
                        airtime_total: total,
                    });
                    self.finish_frame(idx, effects);
                } else {
                    st.cw = self.config.phy.cw_after(st.retries);
                    let cw = st.cw;
                    let b = self.draw_backoff(cw);
                    if self.emit_backoff {
                        effects.push(MacEffect::BackoffDrawn {
                            node: tx.frame.src,
                            slots: b,
                            cw,
                        });
                    }
                    self.unlist(idx);
                    self.stations[idx].expiry = Some(self.clock + b as u64);
                    self.list(idx);
                }
            }
        }
        self.in_flight = flights;
        self.reschedule_access(now, effects);
    }

    /// Resets sender state after a frame's final outcome and draws the
    /// mandatory post-transmission backoff.
    fn finish_frame(&mut self, idx: usize, effects: &mut Vec<MacEffect>) {
        let cw_min = self.config.phy.cw_min;
        let b = self.draw_backoff(cw_min);
        if self.emit_backoff {
            effects.push(MacEffect::BackoffDrawn {
                node: NodeId(idx),
                slots: b,
                cw: cw_min,
            });
        }
        self.unlist(idx);
        let st = &mut self.stations[idx];
        st.pending = None;
        st.retries = 0;
        st.cw = cw_min;
        st.expiry = Some(self.clock + b as u64);
        st.airtime_this_frame = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The memoised FERs equal the link model's own, bit for bit,
    /// whatever the query order and however often the link changes.
    #[test]
    fn memoised_fers_equal_the_link_model_across_set_link() {
        let rates: Vec<DataRate> = DataRate::ALL_B.into_iter().chain(DataRate::ALL_G).collect();
        let sizes = [28, 68, 1528, 1500, 3];
        let config = DcfConfig {
            phy: Phy80211b::default(),
            ap: NodeId(0),
            retry_rate_fallback: false,
            rts_threshold: None,
        };
        let links = vec![LinkErrorModel::FixedFer(0.1); 4];
        let mut world = DcfWorld::new(config, links, SimRng::new(1));
        let mut rng = SimRng::new(7);
        let pick = |rng: &mut SimRng, n: usize| rng.below(n as u64) as usize;
        for step in 0..20_000 {
            let client = 1 + pick(&mut rng, 3);
            if step % 97 == 0 {
                let link = match pick(&mut rng, 4) {
                    0 => LinkErrorModel::Perfect,
                    1 => LinkErrorModel::FixedFer(pick(&mut rng, 100) as f64 / 100.0),
                    _ => LinkErrorModel::Snr {
                        snr_db: pick(&mut rng, 400) as f64 / 10.0 - 5.0,
                    },
                };
                world.set_link(NodeId(client), link);
            }
            let rate = rates[pick(&mut rng, rates.len())];
            let bytes = sizes[pick(&mut rng, sizes.len())];
            let link = world.links[client];
            let memo = &mut world.fer_memo[client];
            // The second query of the pair reads the memo.
            for _ in 0..2 {
                assert_eq!(
                    memo.data_fer(link, rate, bytes).to_bits(),
                    link.data_fer(rate, bytes).to_bits(),
                    "data FER of {link:?} at {rate:?}, {bytes} bytes"
                );
                assert_eq!(
                    memo.ack_fer(link, rate).to_bits(),
                    link.ack_fer(rate).to_bits(),
                    "ACK FER of {link:?} at {rate:?}"
                );
            }
            assert!(memo
                .data
                .contains(&Some(((rate, bytes), link.data_fer(rate, bytes)))));
            assert!(memo.ack.contains(&Some((rate, link.ack_fer(rate)))));
        }
    }
}
