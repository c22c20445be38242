//! A stable, deterministic event queue.
//!
//! Events popped from an [`EventQueue`] come out in timestamp order;
//! events with equal timestamps come out in the order they were
//! scheduled. The stable tie-break matters: MAC simulations routinely
//! schedule several events for the same nanosecond, and an unstable
//! order would make runs non-reproducible across platforms or
//! standard-library versions.
//!
//! Plain events sit in a binary heap keyed on `(time, seq)`.
//!
//! # Deadlines
//!
//! A re-armable timer (a TCP retransmission timer, a delayed ACK, the
//! MAC's next contention point) is a *deadline*: each arm supersedes
//! the previous one. Pushing one event per arm would leave every
//! superseded arm in the heap until it pops and is ignored. Instead,
//! [`EventQueue::arm`] gives each deadline key one slot and at most
//! one heap entry:
//!
//! - the slot holds the latest arm: its time, its sequence stamp and
//!   its event;
//! - the key's heap entry is never later than that arm. An earlier arm
//!   moves the entry up at once. A later arm only updates the slot;
//!   the entry is moved down to the armed time when it reaches the top
//!   of the heap, without popping anything;
//! - [`EventQueue::disarm`] empties the slot, and the entry is dropped
//!   when it reaches the top.
//!
//! A deadline therefore pops exactly once, at its latest armed time,
//! with its latest event, and in the position a plain event scheduled
//! by that arm would have had: the arm takes its sequence stamp when it
//! is made. Superseded arms never pop.
//!
//! With timers kept this way, the pending population is the live work:
//! one entry per MAC exchange or wire crossing in flight, one per armed
//! transport timer and a few wake-ups, a few dozen on a paper cell.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (time, seq) first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One deadline's heap entry: where it sits, not what it delivers.
#[derive(Clone, Copy)]
struct Mark {
    time: SimTime,
    seq: u64,
    key: usize,
}

impl Mark {
    fn stamp(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A deadline key's slot (see the module docs).
struct Slot<E> {
    /// The latest arm, `None` once disarmed or delivered.
    armed: Option<Entry<E>>,
    /// Index of the key's entry in `EventQueue::marks`, if it has one.
    at: Option<usize>,
}

/// A deterministic priority queue of timestamped events.
///
/// # Examples
///
/// ```
/// use airtime_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(10), 'b');
/// q.schedule(SimTime::from_micros(10), 'c'); // same time, scheduled later
/// q.schedule(SimTime::from_micros(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
///
/// A deadline keeps one entry however often it is re-armed:
///
/// ```
/// use airtime_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.arm(0, SimTime::from_micros(5), "rto #1");
/// q.arm(0, SimTime::from_micros(9), "rto #2"); // supersedes #1
/// q.schedule(SimTime::from_micros(7), "ack");
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some((SimTime::from_micros(7), "ack")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(9), "rto #2")));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Deadline entries: a min-heap on `(time, seq)`, at most one per
    /// key. The top is always *settled*: its slot is armed at exactly
    /// its stamp.
    marks: Vec<Mark>,
    slots: Vec<Slot<E>>,
    next_seq: u64,
    popped: u64,
    last_seq: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            marks: Vec::new(),
            slots: Vec::new(),
            next_seq: 0,
            popped: 0,
            last_seq: 0,
            high_water: 0,
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn note_len(&mut self) {
        self.high_water = self.high_water.max(self.len());
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        self.heap.push(Entry { time, seq, event });
        self.note_len();
    }

    /// Arms deadline `key` to deliver `event` at `time`, superseding
    /// whatever the key was armed with: the earlier arm will not pop.
    /// Keys are small dense indices chosen by the caller; the queue
    /// keeps one slot per key up to the largest one used.
    pub fn arm(&mut self, key: usize, time: SimTime, event: E) {
        let seq = self.take_seq();
        if key >= self.slots.len() {
            self.slots.resize_with(key + 1, || Slot {
                armed: None,
                at: None,
            });
        }
        self.slots[key].armed = Some(Entry { time, seq, event });
        match self.slots[key].at {
            None => {
                self.marks.push(Mark { time, seq, key });
                self.sift_up(self.marks.len() - 1);
                self.note_len();
            }
            Some(i) if (time, seq) < self.marks[i].stamp() => {
                self.marks[i].time = time;
                self.marks[i].seq = seq;
                self.sift_up(i);
            }
            // A later arm: the entry catches up when it reaches the top.
            Some(0) => self.settle(),
            Some(_) => {}
        }
    }

    /// The instant deadline `key` is armed for, if it is armed.
    pub fn armed(&self, key: usize) -> Option<SimTime> {
        self.slots.get(key)?.armed.as_ref().map(|e| e.time)
    }

    /// Disarms deadline `key`: whatever it was armed with will not pop.
    /// A no-op for a key that is not armed.
    pub fn disarm(&mut self, key: usize) {
        if let Some(slot) = self.slots.get_mut(key) {
            slot.armed = None;
            if slot.at == Some(0) {
                self.settle();
            }
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let deadline_first = match (self.marks.first(), self.heap.peek()) {
            (Some(m), Some(e)) => m.stamp() < (e.time, e.seq),
            (m, _) => m.is_some(),
        };
        let e = if deadline_first {
            let key = self.remove_top_mark();
            let e = self.slots[key]
                .armed
                .take()
                .expect("the top mark is settled");
            self.settle();
            e
        } else {
            self.heap.pop()?
        };
        self.popped += 1;
        self.last_seq = e.seq;
        Some((e.time, e.event))
    }

    /// Sequence stamp of the most recently popped event: the schedule
    /// ordinal this queue assigned it (ties at one timestamp pop in
    /// ascending `seq`; a deadline's stamp is its latest arm's). The
    /// dispatch hook reports it next to each dispatch. Zero before the
    /// first pop.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let m = self.marks.first().map(|m| m.time);
        let e = self.heap.peek().map(|e| e.time);
        match (m, e) {
            (Some(m), Some(e)) => Some(m.min(e)),
            (m, e) => m.or(e),
        }
    }

    /// Number of queue entries: pending events plus deadline entries
    /// that have not yet caught up with a disarm.
    pub fn len(&self) -> usize {
        self.heap.len() + self.marks.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.marks.is_empty()
    }

    /// The pending events, in no particular order: every scheduled
    /// event and every armed deadline's latest event.
    pub fn pending(&self) -> impl Iterator<Item = (SimTime, &E)> {
        let armed = self.slots.iter().filter_map(|s| s.armed.as_ref());
        self.heap.iter().chain(armed).map(|e| (e.time, &e.event))
    }

    /// Total number of events popped since creation (a progress metric and
    /// a handy runaway-simulation guard).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// The largest number of entries ever held at once — the queue's
    /// high-water mark. Useful for sizing and for spotting scenarios
    /// whose pending-event population grows without bound.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    // -- the deadline heap ---------------------------------------------

    /// Restores the settled-top invariant: drops disarmed entries and
    /// moves entries that lag behind a later arm down to it.
    fn settle(&mut self) {
        while let Some(&top) = self.marks.first() {
            match &self.slots[top.key].armed {
                None => {
                    self.remove_top_mark();
                }
                Some(e) if (e.time, e.seq) != top.stamp() => {
                    self.marks[0].time = e.time;
                    self.marks[0].seq = e.seq;
                    self.sift_down(0);
                }
                Some(_) => break,
            }
        }
    }

    /// Removes the top deadline entry and returns its key.
    fn remove_top_mark(&mut self) -> usize {
        let top = self.marks.swap_remove(0);
        self.slots[top.key].at = None;
        if !self.marks.is_empty() {
            self.sift_down(0);
        }
        top.key
    }

    fn place(&mut self, i: usize, m: Mark) {
        self.marks[i] = m;
        self.slots[m.key].at = Some(i);
    }

    fn sift_up(&mut self, mut i: usize) {
        let m = self.marks[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.marks[parent].stamp() <= m.stamp() {
                break;
            }
            self.place(i, self.marks[parent]);
            i = parent;
        }
        self.place(i, m);
    }

    fn sift_down(&mut self, mut i: usize) {
        let m = self.marks[i];
        let n = self.marks.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.marks[right].stamp() < self.marks[left].stamp() {
                right
            } else {
                left
            };
            if m.stamp() <= self.marks[child].stamp() {
                break;
            }
            self.place(i, self.marks[child]);
            i = child;
        }
        self.place(i, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            let (pt, e) = q.pop().unwrap();
            assert_eq!(pt, t);
            assert_eq!(e, i);
        }
    }

    #[test]
    fn peek_len_and_counter() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(5), ());
        q.schedule(SimTime::from_micros(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        q.pop();
        assert_eq!(q.events_processed(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_tracks_peak_len() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for i in 0..10 {
            q.schedule(SimTime::from_micros(i), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        q.schedule(SimTime::ZERO, 0);
        assert_eq!(q.high_water(), 10);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let mut t = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for round in 0..50u64 {
            q.schedule(t + SimDuration::from_micros(round % 7), round);
            if round % 3 == 0 {
                if let Some((pt, _)) = q.pop() {
                    assert!(pt >= last);
                    last = pt;
                    t = pt;
                }
            }
        }
        while let Some((pt, _)) = q.pop() {
            assert!(pt >= last);
            last = pt;
        }
    }

    #[test]
    fn a_rearmed_deadline_pops_once_with_its_latest_arm() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros;
        q.arm(3, t(10), "a");
        q.arm(3, t(30), "b"); // later: lazy
        q.arm(3, t(20), "c"); // earlier than b: moves the entry up
        q.schedule(t(15), "plain");
        assert_eq!(q.len(), 2, "one entry per deadline");
        assert_eq!(q.peek_time(), Some(t(15)));
        assert_eq!(q.pop(), Some((t(15), "plain")));
        assert_eq!(q.pop(), Some((t(20), "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    fn a_later_arm_of_the_top_deadline_moves_it_down_at_once() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros;
        q.arm(0, t(1), 'x');
        q.schedule(t(5), 'p');
        q.arm(0, t(9), 'y');
        assert_eq!(q.peek_time(), Some(t(5)), "the stale top must not show");
        assert_eq!(q.pop(), Some((t(5), 'p')));
        assert_eq!(q.pop(), Some((t(9), 'y')));
    }

    #[test]
    fn disarmed_deadlines_never_pop() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros;
        q.arm(0, t(4), 0);
        q.arm(1, t(2), 1);
        q.disarm(1); // the top: dropped at once
        q.disarm(0);
        q.disarm(7); // never armed
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // A disarmed key can be armed again.
        q.arm(0, t(6), 2);
        assert_eq!(q.pending().count(), 1);
        assert_eq!(q.pop(), Some((t(6), 2)));
    }

    #[test]
    fn equal_time_deadlines_keep_arm_order() {
        // A deadline takes its sequence stamp when armed, so it ties
        // with plain events exactly like a plain event scheduled then.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        q.arm(0, SimTime::from_micros(1), "early");
        q.schedule(t, "before");
        q.arm(0, t, "deadline");
        q.schedule(t, "after");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["before", "deadline", "after"]);
    }

    #[test]
    fn randomized_deadlines_match_one_event_per_arm() {
        // Schedules, arms, disarms and pops at random against an oracle
        // that keeps every plain event plus each key's latest arm: the
        // queue must pop the same `(time, seq)` sequence, which is what
        // pushing one event per arm and ignoring superseded ones pops.
        let mut rng = crate::rng::SimRng::new(11);
        let mut q = EventQueue::new();
        let mut plain: Vec<(SimTime, u64)> = Vec::new();
        let mut armed: Vec<Option<(SimTime, u64)>> = vec![None; 6];
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut pops = 0;
        for _ in 0..30_000 {
            let t = SimTime::from_nanos(now + rng.below(40_000));
            let r = rng.below(10);
            if r < 2 {
                q.schedule(t, seq);
                plain.push((t, seq));
                seq += 1;
            } else if r < 5 {
                let key = rng.below(6) as usize;
                q.arm(key, t, seq);
                armed[key] = Some((t, seq));
                seq += 1;
            } else if r < 6 {
                let key = rng.below(6) as usize;
                q.disarm(key);
                armed[key] = None;
            } else {
                let best_plain = (0..plain.len()).min_by_key(|&i| plain[i]);
                let best_armed = (0..armed.len())
                    .filter(|&k| armed[k].is_some())
                    .min_by_key(|&k| armed[k]);
                let want = match (best_plain, best_armed) {
                    (Some(i), Some(k)) if plain[i] < armed[k].unwrap() => plain.remove(i),
                    (_, Some(k)) => armed[k].take().unwrap(),
                    (Some(i), None) => plain.remove(i),
                    (None, None) => {
                        assert_eq!(q.pop(), None);
                        continue;
                    }
                };
                assert_eq!(q.peek_time(), Some(want.0));
                assert_eq!(q.pop(), Some(want));
                assert_eq!(q.last_seq(), want.1);
                now = want.0.as_nanos();
                pops += 1;
            }
            let live = plain.len() + armed.iter().flatten().count();
            assert_eq!(q.pending().count(), live);
            assert!(q.len() <= plain.len() + armed.len(), "one entry per key");
        }
        assert!(pops > 10_000, "trace too small: {pops} pops");
    }

    #[test]
    fn randomized_trace_matches_a_sorted_oracle() {
        // Schedules and pops interleaved at random, with same-timestamp
        // bursts, checked against a plain list that pops its minimum
        // `(time, schedule order)` entry.
        let mut rng = crate::rng::SimRng::new(7);
        let mut q = EventQueue::new();
        let mut oracle: Vec<(SimTime, u64)> = Vec::new();
        let mut now = 0u64;
        let mut tag = 0u64;
        for _ in 0..20_000 {
            if rng.chance(0.3) {
                let t = SimTime::from_nanos(now + rng.below(50_000));
                for _ in 0..1 + rng.below(4) {
                    q.schedule(t, tag);
                    oracle.push((t, tag));
                    tag += 1;
                }
            } else if let Some(i) = (0..oracle.len()).min_by_key(|&i| oracle[i]) {
                let want = oracle.remove(i);
                assert_eq!(q.pop(), Some(want));
                assert_eq!(q.last_seq(), want.1);
                now = want.0.as_nanos();
            } else {
                assert_eq!(q.pop(), None);
            }
            assert_eq!(q.len(), oracle.len());
        }
        assert!(tag > 10_000, "trace too small: {tag} events");
    }
}
