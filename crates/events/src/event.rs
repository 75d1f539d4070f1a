//! A deterministic discrete-event queue.
//!
//! Events scheduled at the same instant are delivered in FIFO scheduling
//! order (a monotonically increasing sequence number breaks ties), which
//! keeps simulations reproducible regardless of heap internals.
//!
//! Entries live in one of two places. A FIFO *lane* takes every entry
//! scheduled at or after the lane's current tail, so it stays sorted by
//! `(at, seq)` without any comparisons beyond the tail check; a binary
//! heap takes the rest. `pop` and `peek_time` merge the two by `(at,
//! seq)`, which is a total order, so delivery is exactly the order a
//! single heap would give. A simulation that pre-submits a long,
//! time-ordered arrival stream keeps it in the lane, and the heap holds
//! only the few in-flight events scheduled behind the stream's tail.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; invert so the earliest (then
        // first-scheduled) entry is popped first.
        other.key().cmp(&self.key())
    }
}

/// A time-ordered event queue driving a discrete-event simulation.
///
/// # Example
///
/// ```
/// use rif_events::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_us(2), "b");
/// q.schedule(SimTime::from_us(1), "a");
/// q.schedule(SimTime::from_us(2), "c"); // same instant as "b", FIFO after it
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    /// Entries in `(at, seq)` order: each was scheduled at or after the
    /// tail it joined behind.
    lane: VecDeque<Entry<E>>,
    /// Entries scheduled earlier than the lane's tail at the time.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The instant of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for delivery at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into the
    /// past indicates a causality bug.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        // `seq` grows with every call, so an entry no earlier than the
        // tail also sorts after it by `(at, seq)`.
        if self.lane.back().is_none_or(|tail| at >= tail.at) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Whether the next entry by `(at, seq)` is the lane's front (`Some(true)`)
    /// or the heap's top (`Some(false)`); `None` when both are empty.
    fn next_in_lane(&self) -> Option<bool> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => Some(l.key() < h.key()),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = if self.next_in_lane()? {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.next_in_lane()? {
            self.lane.front().map(|e| e.at)
        } else {
            self.heap.peek().map(|e| e.at)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(30), 3);
        q.schedule(SimTime::from_us(10), 1);
        q.schedule(SimTime::from_us(20), 2);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn ties_resolve_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_us(7), i);
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let want: Vec<_> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(5), ());
        q.schedule(SimTime::from_us(5), ());
        q.schedule(SimTime::from_us(9), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            assert_eq!(q.now(), t);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), ());
        q.pop();
        q.schedule(SimTime::from_us(5), ());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_us(4), ());
        q.schedule(SimTime::from_us(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(2)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(1), "a");
        let (t, _) = q.pop().unwrap();
        q.schedule(t + crate::SimDuration::from_us(1), "b");
        q.schedule(t + crate::SimDuration::from_us(3), "d");
        q.schedule(t + crate::SimDuration::from_us(2), "c");
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, ["b", "c", "d"]);
    }

    /// The delivery order the queue promises: one binary heap keyed by
    /// `(at, seq)`. Test oracle only.
    #[derive(Default)]
    struct ReferenceQueue {
        heap: BinaryHeap<std::cmp::Reverse<(SimTime, u64, u32)>>,
        next_seq: u64,
    }

    impl ReferenceQueue {
        fn schedule(&mut self, at: SimTime, payload: u32) {
            self.heap
                .push(std::cmp::Reverse((at, self.next_seq, payload)));
            self.next_seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.heap.pop().map(|std::cmp::Reverse((at, _, p))| (at, p))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|std::cmp::Reverse((at, _, _))| *at)
        }
    }

    #[test]
    fn matches_single_heap_reference_under_random_interleaving() {
        // Counts of the cases the lane/heap split must get right, so the
        // test fails loudly if the generator stops exercising one.
        let (mut behind_tail, mut equal_ts, mut at_now, mut refills) = (0, 0, 0, 0);
        for seed in 0..24 {
            let mut rng = crate::SimRng::seed_from(seed);
            let mut q = EventQueue::new();
            let mut r = ReferenceQueue::default();
            let mut payload = 0u32;
            let mut last_at = SimTime::ZERO;
            let mut horizon = SimTime::ZERO;
            let mut was_empty = false;
            for step in 0..3000 {
                // Alternate filling and draining phases so the queue
                // empties and refills many times per seed.
                let p_pop = if (step / 200) % 2 == 1 { 0.85 } else { 0.3 };
                if rng.chance(p_pop) {
                    let got = q.pop();
                    assert_eq!(got, r.pop(), "seed {seed} step {step}: pop");
                    if let Some((t, _)) = got {
                        assert_eq!(q.now(), t);
                    }
                } else {
                    let now = q.now();
                    let at = match rng.index(5) {
                        0 => now,
                        1 => last_at.max(now),
                        2 => now + crate::SimDuration::from_ns(rng.int_range(0, 64)),
                        3 => horizon.max(now) + crate::SimDuration::from_ns(rng.int_range(0, 100)),
                        _ => now + crate::SimDuration::from_ns(rng.int_range(0, 5000)),
                    };
                    if q.lane.back().is_some_and(|t| at < t.at) {
                        behind_tail += 1;
                    }
                    if at == last_at {
                        equal_ts += 1;
                    }
                    if at == now {
                        at_now += 1;
                    }
                    if was_empty {
                        refills += 1;
                    }
                    q.schedule(at, payload);
                    r.schedule(at, payload);
                    payload += 1;
                    last_at = at;
                    horizon = horizon.max(at);
                }
                assert_eq!(
                    q.peek_time(),
                    r.peek_time(),
                    "seed {seed} step {step}: peek"
                );
                assert_eq!(q.len(), r.heap.len(), "seed {seed} step {step}: len");
                assert_eq!(q.is_empty(), r.heap.is_empty(), "seed {seed} step {step}");
                was_empty = q.is_empty();
            }
            while let Some(want) = r.pop() {
                assert_eq!(q.pop(), Some(want), "seed {seed}: final drain");
            }
            assert!(q.is_empty() && q.pop().is_none() && q.peek_time().is_none());
        }
        for (case, n) in [
            ("behind the lane tail", behind_tail),
            ("equal timestamps", equal_ts),
            ("exactly now", at_now),
            ("refill after empty", refills),
        ] {
            assert!(n > 100, "case {case:?} exercised only {n} times");
        }
    }
}
