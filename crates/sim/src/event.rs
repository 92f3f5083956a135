//! Deterministic event queue.
//!
//! A binary min-heap keyed on `(SimTime, sequence)` where `sequence` is a
//! monotonically increasing insertion counter. The counter breaks ties so
//! that events scheduled for the same instant pop in insertion order, making
//! every simulation run bit-for-bit reproducible regardless of heap
//! internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: payload `E` plus its due time and tie-break
/// sequence.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    // Reversed: BinaryHeap is a max-heap, we need earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic future-event list for a discrete-event simulation.
///
/// ```
/// use pax_sim::event::EventQueue;
/// use pax_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime(5), "b");
/// q.schedule(SimTime(3), "a");
/// q.schedule(SimTime(5), "c");
/// assert_eq!(q.pop(), Some((SimTime(3), "a")));
/// assert_eq!(q.pop(), Some((SimTime(5), "b"))); // insertion order at t=5
/// assert_eq!(q.pop(), Some((SimTime(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedule `payload` to fire at `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// Due time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Remove up to `max` events sharing the earliest pending due time
    /// (the *coincident group*) and append them to `out`, in exactly the
    /// order repeated [`EventQueue::pop`] calls would return them. `out`
    /// is not cleared. Returns the number of events moved — 0 when the
    /// queue is empty or `max` is 0. This is the multi-lane executive's
    /// batch pop: one call drains a whole service round.
    pub fn pop_coincident_into(&mut self, max: usize, out: &mut Vec<(SimTime, E)>) -> usize {
        let Some(t) = self.peek_time() else { return 0 };
        let mut n = 0;
        while n < max {
            match self.heap.peek() {
                Some(s) if s.at == t => {
                    let s = self.heap.pop().expect("peeked");
                    out.push((s.at, s.payload));
                    n += 1;
                }
                _ => break,
            }
        }
        n
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for run statistics).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 3);
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), "a");
        q.schedule(SimTime(1), "b");
        assert_eq!(q.pop(), Some((SimTime(1), "b")));
        q.schedule(SimTime(2), "c");
        assert_eq!(q.pop(), Some((SimTime(2), "c")));
        assert_eq!(q.pop(), Some((SimTime(5), "a")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(9), ());
        q.schedule(SimTime(4), ());
        assert_eq!(q.peek_time(), Some(SimTime(4)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(9)));
    }

    #[test]
    fn pop_coincident_takes_only_the_earliest_tick() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), "a");
        q.schedule(SimTime(5), "b");
        q.schedule(SimTime(7), "c");
        q.schedule(SimTime(5), "d");
        let mut out = Vec::new();
        assert_eq!(q.pop_coincident_into(8, &mut out), 3);
        assert_eq!(
            out,
            vec![(SimTime(5), "a"), (SimTime(5), "b"), (SimTime(5), "d")]
        );
        assert_eq!(q.pop(), Some((SimTime(7), "c")));
        assert_eq!(q.pop_coincident_into(4, &mut out), 0);
    }

    #[test]
    fn pop_coincident_respects_max_and_appends() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime(3), i);
        }
        let mut out = vec![(SimTime(0), 99)];
        assert_eq!(q.pop_coincident_into(2, &mut out), 2);
        assert_eq!(
            out,
            vec![(SimTime(0), 99), (SimTime(3), 0), (SimTime(3), 1)]
        );
        assert_eq!(q.pop_coincident_into(0, &mut out), 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime(3), 2)));
    }

    #[test]
    fn counts_scheduled_total() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), ());
        q.schedule(SimTime(2), ());
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.len(), 1);
    }
}
