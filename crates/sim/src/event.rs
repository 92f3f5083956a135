//! Deterministic future-event list: a short sorted line, a binary heap
//! behind it.
//!
//! Events pop in `(time, seq)` order, where `seq` is the insertion
//! count: events scheduled for the same instant pop in the order they
//! were scheduled, so every simulation run is bit-for-bit reproducible.
//!
//! The executive's calendar holds O(processors) events — every processor
//! is either computing (one `TaskDone` pending) or presenting itself for
//! work (one `Seek`) — so the queue is sized to that population. The
//! earliest at most `NEAR` events sit in a **sorted tier**, a ring kept
//! in pop order; everything later sits in the **far tier**, a
//! `(time, seq)` binary min-heap.
//!
//! One invariant: *every sorted-tier entry precedes every heap entry in
//! `(time, seq)`*. Three rules keep it:
//!
//! 1. `schedule` puts an event in the sorted tier iff it is due strictly
//!    before the tier's latest entry, or the heap is empty and the tier
//!    has room. A full tier first spills its latest entry to the heap,
//!    *with the `seq` it was scheduled under*. Inside the tier the new
//!    event goes behind every entry due at or before it — which is
//!    `(time, seq)` order, since its `seq` is the largest yet, without a
//!    sequence number ever being compared there.
//! 2. `pop` takes the sorted tier's front; an empty tier is first
//!    refilled with the heap's `NEAR / 2` earliest entries, so that half
//!    of it stays free for the near events scheduled next.
//! 3. `peek_time` is the sorted tier's front, else the heap's head.
//!
//! While the population fits the sorted tier the heap is never touched:
//! a completion due later than everything pending is one compare and a
//! push on the ring's back, a seek due in a few ticks walks in a few
//! slots from its front, and a pop moves one index — where a heap pays
//! about five two-key compares on unpredictable branches. Behind a
//! larger population the tier still takes the short-lived near events
//! that would each have sifted to the heap's root and back out.
//!
//! The heap stays because supported inputs need it: on the paper's
//! 1 000-processor checkerboard a sorted-only list makes every insert an
//! O(population) shift and ran the experiment twice as slow. Two
//! refinements keep the bulk patterns, which gain nothing from a sorted
//! front, at the bare heap's price: a full tier with *nothing* behind it
//! is handed to the heap whole rather than entry by entry (the
//! population has outgrown it; rule 2 brings the front back), and rule
//! 2 skips the refill when nothing has been scheduled since the last
//! one (a drain: no event can overtake the entries a refill would move).
//!
//! `NEAR` is a constant, not an option: its value is a property of a
//! cache line and a branch predictor, not of a workload. Below it the
//! tier is a few lines walked linearly, above it the heap takes over by
//! itself, and the two-tier queue was measured against the bare heap on
//! the engine's mix from 16 to 1 024 processors without finding an input
//! that wants another value.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Most entries the sorted tier holds (see the module docs).
const NEAR: usize = 32;

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

/// Deterministic future-event list for a discrete-event simulation: the
/// earliest pending events in a sorted ring, the rest in a binary heap
/// behind it (the module docs give the invariant and its three rules).
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
    /// The sorted tier: at most `NEAR` entries in pop order, each
    /// preceding every entry of `far`.
    near: VecDeque<Scheduled<E>>,
    /// The far tier.
    far: BinaryHeap<Scheduled<E>>,
    /// Events ever scheduled; the next event's `seq`.
    scheduled_total: u64,
    /// `scheduled_total` when the sorted tier was last refilled.
    refilled_at: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue. Allocates nothing until the first
    /// [`EventQueue::schedule`].
    pub fn new() -> Self {
        Self::with_tiers(VecDeque::new(), BinaryHeap::new())
    }

    /// An empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_tiers(
            VecDeque::with_capacity(cap.min(NEAR)),
            BinaryHeap::with_capacity(cap.saturating_sub(NEAR)),
        )
    }

    fn with_tiers(near: VecDeque<Scheduled<E>>, far: BinaryHeap<Scheduled<E>>) -> Self {
        EventQueue {
            near,
            far,
            scheduled_total: 0,
            refilled_at: 0,
        }
    }

    /// Schedule `payload` to fire at `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.scheduled_total;
        self.scheduled_total += 1;
        match self.near.back() {
            Some(latest) if at < latest.at => self.schedule_near(at, seq, payload),
            _ if self.far.is_empty() && self.near.len() < NEAR => {
                if self.near.is_empty() {
                    // The one place the ring is allocated: a queue's
                    // first event always comes through here.
                    self.near.reserve_exact(NEAR);
                }
                self.near.push_back(Scheduled { at, seq, payload });
            }
            _ => self.far.push(Scheduled { at, seq, payload }),
        }
    }

    /// Rule 1 for an event due strictly before the sorted tier's latest.
    fn schedule_near(&mut self, at: SimTime, seq: u64, payload: E) {
        let ev = Scheduled { at, seq, payload };
        if self.near.len() == NEAR {
            if self.far.is_empty() {
                // The population has outgrown the tier: hand it to the
                // heap whole, and let the next pop refill it.
                self.far.extend(self.near.drain(..));
                self.far.push(ev);
                return;
            }
            let spilled = self.near.pop_back().expect("the tier is full");
            self.far.push(spilled);
        }
        // Walk the event in from the nearer end until it sits behind
        // every entry due at or before it; the middle entry stops either
        // walk.
        let len = self.near.len();
        if at < self.near[len / 2].at {
            self.near.push_front(ev);
            let mut i = 0;
            while self.near[i + 1].at <= at {
                self.near.swap(i, i + 1);
                i += 1;
            }
        } else {
            self.near.push_back(ev);
            let mut i = len;
            while at < self.near[i - 1].at {
                self.near.swap(i, i - 1);
                i -= 1;
            }
        }
    }

    /// Rule 2 with the sorted tier empty: refill it with the heap's
    /// `NEAR / 2` earliest entries and pop the first of them — unless
    /// nothing has been scheduled since the last refill, when the caller
    /// is draining, no new event can overtake the entries a refill would
    /// move, and they come straight off the heap.
    ///
    /// Out of line on purpose: inlined into [`EventQueue::pop`] the heap's
    /// pop merges its result with the ring's through the stack on every
    /// pop, which tripled the calendar's share of a `batch_identity` rep.
    #[inline(never)]
    fn pop_behind_empty_tier(&mut self) -> Option<Scheduled<E>> {
        if self.refilled_at != self.scheduled_total {
            self.refilled_at = self.scheduled_total;
            for _ in 0..NEAR / 2 {
                let Some(s) = self.far.pop() else { break };
                self.near.push_back(s);
            }
        }
        self.near.pop_front().or_else(|| self.far.pop())
    }

    /// Remove and return the earliest event, if any (rule 2).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = match self.near.pop_front() {
            Some(s) => s,
            None => self.pop_behind_empty_tier()?,
        };
        Some((s.at, s.payload))
    }

    /// Due time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.near.front().or_else(|| self.far.peek()).map(|s| s.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
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

    /// Ids in pop order.
    fn drain(q: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn a_tie_with_the_tiers_latest_goes_behind_the_heap() {
        // NEAR entries at t=10 fill the tier, five more wait in the heap;
        // a sixth tie must pop after those five, not ride the tier.
        let mut q = EventQueue::new();
        let n = NEAR as u32 + 6;
        for i in 0..n {
            q.schedule(SimTime(10), i);
        }
        assert_eq!((q.near.len(), q.far.len()), (NEAR, 6));
        assert_eq!(drain(&mut q), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn a_spilled_entry_keeps_the_seq_it_was_scheduled_under() {
        let mut q = EventQueue::new();
        let n = NEAR as u32 + 5;
        for i in 0..n {
            q.schedule(SimTime(10), i);
        }
        // Joins the full tier and spills entry NEAR - 1 in among the
        // five later ties; its own seq still sorts it ahead of them.
        q.schedule(SimTime(5), 99);
        assert_eq!((q.near.len(), q.far.len()), (NEAR, 6));
        let mut want = vec![99];
        want.extend(0..n);
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn an_outgrown_tier_is_handed_to_the_heap_whole() {
        let mut q = EventQueue::new();
        for i in 0..NEAR as u32 {
            q.schedule(SimTime(10 + u64::from(i)), i);
        }
        assert_eq!((q.near.len(), q.far.len()), (NEAR, 0));
        q.schedule(SimTime(3), 99);
        assert_eq!((q.near.len(), q.far.len()), (0, NEAR + 1));
        // The next pop brings the front back.
        assert_eq!(q.pop(), Some((SimTime(3), 99)));
        assert_eq!(q.near.len(), NEAR / 2 - 1);
        assert_eq!(drain(&mut q), (0..NEAR as u32).collect::<Vec<_>>());
    }

    #[test]
    fn scheduling_below_the_heaps_head_while_the_tier_is_empty() {
        let mut q = EventQueue::new();
        let n = 2 * NEAR as u32;
        for i in 0..n {
            q.schedule(SimTime(10 + u64::from(i)), i);
        }
        // A drain: one refill, then straight off the heap.
        for i in 0..NEAR as u32 + NEAR as u32 / 2 {
            assert_eq!(q.pop(), Some((SimTime(10 + u64::from(i)), i)));
        }
        assert_eq!((q.near.len(), q.far.len()), (0, NEAR / 2));
        q.schedule(SimTime(1), 99);
        assert_eq!(q.peek_time(), Some(SimTime(1)));
        // Scheduling ends the drain: this pop refills.
        assert_eq!(q.pop(), Some((SimTime(1), 99)));
        assert_eq!((q.near.len(), q.far.len()), (NEAR / 2 - 1, 1));
        assert_eq!(
            drain(&mut q),
            (NEAR as u32 + NEAR as u32 / 2..n).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_coincident_group_larger_than_the_tier_pops_in_order_across_refills() {
        let mut q = EventQueue::new();
        let n = 3 * NEAR as u32;
        for i in 0..n {
            q.schedule(SimTime(7), i);
            q.schedule(SimTime(9), n + i);
        }
        for i in 0..n {
            assert_eq!(q.peek_time(), Some(SimTime(7)));
            assert_eq!(q.pop(), Some((SimTime(7), i)));
        }
        assert_eq!(q.peek_time(), Some(SimTime(9)));
        assert_eq!(q.len(), n as usize);
    }

    #[test]
    fn a_warm_hold_loop_never_regrows_either_tier() {
        // The engine's mix: every pop is re-scheduled, alternately a few
        // ticks ahead and a service time ahead.
        for population in [16, 4 * NEAR as u32] {
            let mut q = EventQueue::new();
            for i in 0..population {
                q.schedule(SimTime(100 + u64::from(i % 7)), i);
            }
            let hold = |q: &mut EventQueue<u32>, pairs: u32| {
                for k in 0..pairs {
                    let (at, e) = q.pop().expect("the population is constant");
                    let ahead = if k % 2 == 0 {
                        3
                    } else {
                        100 + u64::from(k % 5)
                    };
                    q.schedule(SimTime(at.0 + ahead), e);
                }
            };
            hold(&mut q, 1_000);
            let warm = (q.near.capacity(), q.far.capacity());
            hold(&mut q, 50_000);
            assert_eq!(
                (q.near.capacity(), q.far.capacity()),
                warm,
                "population {population}"
            );
            assert_eq!(q.len(), population as usize);
        }
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
