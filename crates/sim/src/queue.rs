//! A stable, deterministic event queue.
//!
//! Events popped from an [`EventQueue`] come out in timestamp order;
//! events with equal timestamps come out in the order they were
//! scheduled. The stable tie-break matters: MAC simulations routinely
//! schedule several events for the same nanosecond, and an unstable
//! order would make runs non-reproducible across platforms or
//! standard-library versions.
//!
//! The queue is a binary heap keyed on `(time, seq)`. Pending-event
//! populations stay in the low hundreds (one MAC timer per node, one
//! or two transport timers per flow), where a heap pop costs about
//! seven comparisons.

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
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
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
            next_seq: 0,
            popped: 0,
            last_seq: 0,
            high_water: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        if self.heap.len() > self.high_water {
            self.high_water = self.heap.len();
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.popped += 1;
            self.last_seq = e.seq;
            (e.time, e.event)
        })
    }

    /// Sequence stamp of the most recently popped event: the schedule
    /// ordinal this queue assigned it (ties at one timestamp pop in
    /// ascending `seq`). The flight recorder logs it next to each
    /// dispatch. Zero before the first pop.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped since creation (a progress metric and
    /// a handy runaway-simulation guard).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// The largest number of events ever pending at once — the queue's
    /// high-water mark. Useful for sizing and for spotting scenarios
    /// whose pending-event population grows without bound.
    pub fn high_water(&self) -> usize {
        self.high_water
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
