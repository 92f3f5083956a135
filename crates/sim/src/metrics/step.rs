//! Step-function time series: the number of busy processors over time.
//!
//! This is the primary instrument for every utilization figure in the
//! reproduction: a piecewise-constant function recorded as change points,
//! integrable over arbitrary windows, and queryable for "final wave" and
//! rundown statistics.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// A piecewise-constant, integer-valued function of simulated time,
/// recorded as `(time, new_value)` change points.
///
/// Values are recorded with [`StepTrace::record`]; repeated values at the
/// same instant collapse to the latest one, keeping traces compact even
/// when thousands of events land on one tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepTrace {
    points: Vec<(SimTime, u32)>,
}

impl StepTrace {
    /// Empty trace (value is implicitly 0 before the first point).
    pub fn new() -> StepTrace {
        StepTrace { points: Vec::new() }
    }

    /// Record that the value became `value` at time `at`. Times must be
    /// non-decreasing across calls.
    pub fn record(&mut self, at: SimTime, value: u32) {
        if let Some(&mut (last_t, ref mut last_v)) = self.points.last_mut() {
            debug_assert!(at >= last_t, "StepTrace must be recorded in time order");
            if last_t == at {
                *last_v = value;
                // Collapse no-op transitions: if the previous point now has
                // the same value, the new point was redundant.
                if self.points.len() >= 2 {
                    let prev = self.points[self.points.len() - 2].1;
                    if prev == value {
                        self.points.pop();
                    }
                }
                return;
            }
            if *last_v == value {
                return; // no change
            }
        }
        self.points.push((at, value));
    }

    /// The value at time `at` (0 before the first change point).
    pub fn value_at(&self, at: SimTime) -> u32 {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Integral of the function over `[from, to)`, in value·ticks.
    /// Used as "busy processor-time".
    pub fn integral(&self, from: SimTime, to: SimTime) -> u64 {
        if to <= from || self.points.is_empty() {
            return 0;
        }
        let mut acc: u64 = 0;
        let mut cur_t = from;
        let mut cur_v = self.value_at(from);
        let start = match self.points.binary_search_by(|&(t, _)| t.cmp(&from)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        for &(t, v) in &self.points[start..] {
            if t >= to {
                break;
            }
            acc += (t - cur_t).ticks() * cur_v as u64;
            cur_t = t;
            cur_v = v;
        }
        acc += (to - cur_t).ticks() * cur_v as u64;
        acc
    }

    /// Utilization over `[from, to)` relative to a capacity of `capacity`
    /// processors: integral / (capacity × window).
    pub fn utilization(&self, capacity: usize, from: SimTime, to: SimTime) -> f64 {
        if capacity == 0 || to <= from {
            return 0.0;
        }
        self.integral(from, to) as f64 / (capacity as u64 * (to - from).ticks()) as f64
    }

    /// Idle processor-time over `[from, to)` against `capacity`:
    /// capacity × window − integral.
    pub fn idle_time(&self, capacity: usize, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        let cap = capacity as u64 * (to - from).ticks();
        cap.saturating_sub(self.integral(from, to))
    }

    /// The last instant, scanning backward from `end`, at which the value
    /// was at least `threshold`; the "rundown onset" detector. Returns the
    /// time the trace *dropped below* `threshold` for the final time before
    /// `end`, or `None` if it never reached the threshold.
    pub fn rundown_onset(&self, threshold: u32, end: SimTime) -> Option<SimTime> {
        let mut onset = None;
        let mut prev_v = 0u32;
        for &(t, v) in &self.points {
            if t > end {
                break;
            }
            if prev_v >= threshold && v < threshold {
                onset = Some(t);
            }
            if v >= threshold {
                onset = None; // recovered; rundown restarts later
            }
            prev_v = v;
        }
        onset
    }

    /// Raw change points, for plotting/export.
    pub fn points(&self) -> &[(SimTime, u32)] {
        &self.points
    }

    /// The sum of several step functions, each shifted later by its
    /// offset: the result's value at `t` is the sum over the parts of
    /// `trace.value_at(t - offset)`. A k-way merge of the parts' change
    /// points, which are already in time order, so the cost is
    /// `O(points · log parts)` and nothing is re-sorted.
    pub fn superimpose(parts: &[(StepTrace, SimDuration)]) -> StepTrace {
        // `next[i]` is part i's first unread point; the heap holds each
        // part's next change instant on the shared time axis.
        let mut next = vec![0usize; parts.len()];
        let mut heads: BinaryHeap<Reverse<(SimTime, usize)>> = parts
            .iter()
            .enumerate()
            .filter_map(|(i, (part, offset))| {
                let &(t, _) = part.points.first()?;
                Some(Reverse((t + *offset, i)))
            })
            .collect();
        // Every point of the sum sits at some part's instant, so the
        // parts' total bounds its length: the sum never grows.
        let total = parts.iter().map(|(part, _)| part.points.len()).sum();
        let mut sum = StepTrace {
            points: Vec::with_capacity(total),
        };
        let mut level: u32 = 0;
        while let Some(&Reverse((t, _))) = heads.peek() {
            let mut changed = false;
            while let Some(mut head) = heads.peek_mut() {
                let Reverse((at, i)) = *head;
                if at != t {
                    break;
                }
                let (part, offset) = &parts[i];
                let before = match next[i] {
                    0 => 0,
                    n => part.points[n - 1].1,
                };
                let after = part.points[next[i]].1;
                changed |= after != before;
                level = level - before + after;
                next[i] += 1;
                // Overwrite the head with the part's next point (one sift
                // when the guard drops) rather than pop and push.
                match part.points.get(next[i]) {
                    Some(&(t_next, _)) => *head = Reverse((t_next + *offset, i)),
                    None => {
                        PeekMut::pop(head);
                    }
                }
            }
            if changed {
                sum.record(t, level);
            }
        }
        sum
    }
}

/// A level — busy processors, processors up — kept as a [`StepTrace`]
/// while its `±delta` changes arrive slightly out of time order.
///
/// A discrete-event engine learns of a change before simulated time
/// reaches it (a dispatch at `now` knows the task's start and end), but
/// never of a change in its past. [`LevelSweep::add`] therefore accepts
/// any instant at or after the last [`LevelSweep::settle`] horizon and
/// holds it in a short time-ordered buffer; `settle(now)` moves
/// everything before `now` into the trace, and nothing is logged or
/// sorted at the end of the run.
///
/// The engine feeds a sweep as nearly in time order as it can, so that
/// an `add` is a push or a merge into the back: a task's `+1` when it is
/// dispatched (its start lies ahead of `now` by the dispatch service),
/// its `−1` only when its completion is serviced, at `now`. What waits
/// is then the starts still ahead of `now` — at most one a processor —
/// not two changes for every task in flight. Out of order is only a
/// completion (or a crash's cancelling `−1`) at `now` behind starts
/// still waiting for their dispatch service to end; it takes the sorted
/// insert, among that few.
///
/// Changes at one instant are summed before the trace sees them, so a
/// coincident `+1`/`−1` leaves no point.
#[derive(Debug, Clone, Default)]
pub struct LevelSweep {
    trace: StepTrace,
    level: i64,
    /// Changes not yet in the trace: ascending, one net entry an instant.
    pending: VecDeque<(SimTime, i32)>,
    horizon: SimTime,
    /// Points to reserve in the trace when the first change settles;
    /// zero once reserved, or when nothing was declared.
    expected: u64,
}

impl LevelSweep {
    /// New sweep at level zero.
    pub fn new() -> LevelSweep {
        LevelSweep::default()
    }

    /// New sweep at level zero whose trace is expected to reach at most
    /// `points` change points — a bound from the declared work, which a
    /// run that fragments less than it may leaves partly unused. Room for
    /// them is reserved once, when the first change settles — not here,
    /// so building the sweep stays free — and the trace then records
    /// without growth copies. If the reservation fails, or the trace
    /// passes the bound, it grows as [`LevelSweep::new`]'s does; the trace
    /// is the same either way.
    pub fn expecting(points: u64) -> LevelSweep {
        LevelSweep {
            expected: points,
            ..LevelSweep::default()
        }
    }

    /// Change the level by `delta` at time `at`, which must not precede
    /// the horizon last given to [`LevelSweep::settle`].
    #[inline]
    pub fn add(&mut self, at: SimTime, delta: i32) {
        assert!(
            at >= self.horizon,
            "level change at {at} precedes the settled horizon {}",
            self.horizon
        );
        // Changes arrive nearly in order: most belong at the back.
        match self.pending.back_mut() {
            Some((latest, net)) if *latest == at => *net += delta,
            Some(&mut (latest, _)) if latest > at => {
                let i = self.pending.partition_point(|&(t, _)| t <= at);
                if i > 0 && self.pending[i - 1].0 == at {
                    self.pending[i - 1].1 += delta;
                } else {
                    self.pending.insert(i, (at, delta));
                }
            }
            _ => self.pending.push_back((at, delta)),
        }
    }

    /// Promise that no later change precedes `horizon`; every pending
    /// change before it moves into the trace.
    #[inline]
    pub fn settle(&mut self, horizon: SimTime) {
        debug_assert!(horizon >= self.horizon, "horizon went backwards");
        self.horizon = horizon;
        while let Some(&(t, net)) = self.pending.front() {
            if t >= horizon {
                break;
            }
            self.pending.pop_front();
            self.apply(t, net);
        }
    }

    #[inline]
    fn apply(&mut self, t: SimTime, net: i32) {
        if self.expected != 0 {
            self.reserve_expected();
        }
        self.level += i64::from(net);
        debug_assert!(self.level >= 0, "level went negative at {t}");
        self.trace.record(t, self.level.max(0) as u32);
    }

    /// The declared size is input, not a promise: a count no allocation
    /// can hold leaves the trace to grow as it goes.
    #[cold]
    fn reserve_expected(&mut self) {
        let points = usize::try_from(std::mem::take(&mut self.expected)).unwrap_or(usize::MAX);
        let _ = self.trace.points.try_reserve_exact(points);
    }

    /// Changes still waiting for the horizon to pass them.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Settle every pending change, whatever its instant, and yield the
    /// finished trace.
    pub fn finish(mut self) -> StepTrace {
        while let Some((t, net)) = self.pending.pop_front() {
            self.apply(t, net);
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime(x)
    }

    #[test]
    fn value_at_steps() {
        let mut s = StepTrace::new();
        s.record(t(10), 1);
        s.record(t(20), 3);
        s.record(t(30), 0);
        assert_eq!(s.value_at(t(0)), 0);
        assert_eq!(s.value_at(t(10)), 1);
        assert_eq!(s.value_at(t(15)), 1);
        assert_eq!(s.value_at(t(20)), 3);
        assert_eq!(s.value_at(t(29)), 3);
        assert_eq!(s.value_at(t(30)), 0);
        assert_eq!(s.value_at(t(1000)), 0);
    }

    #[test]
    fn integral_simple() {
        let mut s = StepTrace::new();
        s.record(t(0), 2);
        s.record(t(10), 4);
        s.record(t(20), 0);
        // [0,10): 2*10=20, [10,20): 4*10=40
        assert_eq!(s.integral(t(0), t(20)), 60);
        assert_eq!(s.integral(t(5), t(15)), 2 * 5 + 4 * 5);
        assert_eq!(s.integral(t(20), t(100)), 0);
        assert_eq!(s.integral(t(10), t(10)), 0);
    }

    #[test]
    fn collapses_same_instant_updates() {
        let mut s = StepTrace::new();
        s.record(t(5), 1);
        s.record(t(5), 2);
        s.record(t(5), 3);
        assert_eq!(s.points().len(), 1);
        assert_eq!(s.value_at(t(5)), 3);
    }

    #[test]
    fn collapses_noop_transitions() {
        let mut s = StepTrace::new();
        s.record(t(1), 2);
        s.record(t(2), 3);
        s.record(t(2), 2); // back to 2 at same instant -> redundant point
        assert_eq!(s.value_at(t(3)), 2);
        assert_eq!(s.points().len(), 1);
        s.record(t(5), 2); // no change, ignored
        assert_eq!(s.points().len(), 1);
    }

    #[test]
    fn utilization_and_idle() {
        let mut s = StepTrace::new();
        s.record(t(0), 4);
        s.record(t(50), 2);
        s.record(t(100), 0);
        // capacity 4 over [0,100): busy = 4*50 + 2*50 = 300, cap = 400
        assert!((s.utilization(4, t(0), t(100)) - 0.75).abs() < 1e-12);
        assert_eq!(s.idle_time(4, t(0), t(100)), 100);
    }

    #[test]
    fn rundown_onset_found() {
        let mut s = StepTrace::new();
        s.record(t(0), 8);
        s.record(t(60), 5); // drops below full
        s.record(t(70), 8); // recovers
        s.record(t(90), 3); // final drop
        s.record(t(100), 0);
        assert_eq!(s.rundown_onset(8, t(100)), Some(t(90)));
        assert_eq!(s.rundown_onset(100, t(100)), None);
    }

    #[test]
    fn level_sweep_traces() {
        let mut c = LevelSweep::new();
        // two tasks dispatched at 0, known before their starts come due
        c.add(t(5), 1);
        c.add(t(20), -1);
        c.add(t(0), 1);
        c.add(t(10), -1);
        c.settle(t(10));
        assert_eq!(c.pending(), 2, "changes at or after the horizon wait");
        let tr = c.finish();
        assert_eq!(tr.value_at(t(7)), 2);
        assert_eq!(tr.integral(t(0), t(20)), 5 + 2 * 5 + 10);
    }

    #[test]
    fn level_sweep_sums_coincident_changes() {
        let mut c = LevelSweep::new();
        c.add(t(0), 1);
        c.add(t(10), -1);
        c.add(t(10), 1); // next task starts as the first ends
        c.add(t(30), -1);
        assert_eq!(c.finish().points(), &[(t(0), 1), (t(30), 0)]);
    }

    /// 120 task spans, some of zero length, many sharing instants, in
    /// time order.
    fn task_span_changes() -> Vec<(SimTime, i32)> {
        let mut changes: Vec<(SimTime, i32)> = (0..120u64)
            .flat_map(|k| {
                let start = 5 * k;
                [(t(start), 1), (t(start + k * 7 % 23), -1)]
            })
            .collect();
        changes.sort_by_key(|&(at, _)| at);
        changes
    }

    /// Feed `changes` in time order, the horizon on the heels of every
    /// change: each add is a push or a merge into the back.
    fn sweep_in_order(mut sweep: LevelSweep, changes: &[(SimTime, i32)]) -> StepTrace {
        for &(at, delta) in changes {
            sweep.settle(at);
            sweep.add(at, delta);
        }
        sweep.finish()
    }

    #[test]
    fn level_sweep_feed_order_does_not_show() {
        let changes = task_span_changes();
        // The same changes sixteen at a time, each batch latest first,
        // the horizon moved up only between batches.
        let mut shuffled = LevelSweep::new();
        for batch in changes.chunks(16) {
            shuffled.settle(batch[0].0);
            for &(at, delta) in batch.iter().rev() {
                shuffled.add(at, delta);
            }
        }
        let trace = sweep_in_order(LevelSweep::new(), &changes);
        assert_eq!(trace, shuffled.finish());
        assert_eq!(trace.points().last().map(|&(_, level)| level), Some(0));
        assert_eq!(
            trace.integral(t(0), t(1_000)),
            (0..120).map(|k| k * 7 % 23).sum()
        );
    }

    #[test]
    fn level_sweep_expected_size_does_not_show() {
        let changes = task_span_changes();
        let grown = sweep_in_order(LevelSweep::new(), &changes);
        let exact = grown.points().len() as u64;
        for expected in [0, 1, exact, 10 * exact] {
            let reserved = sweep_in_order(LevelSweep::expecting(expected), &changes);
            assert_eq!(reserved, grown, "expecting {expected} points");
            if expected >= exact {
                // Reserved once, never grown past the reservation.
                assert_eq!(reserved.points.capacity() as u64, expected);
            }
        }
        // A count no allocation can hold leaves the trace to grow.
        assert_eq!(
            sweep_in_order(LevelSweep::expecting(u64::MAX), &changes),
            grown
        );
    }

    #[test]
    #[should_panic(expected = "precedes the settled horizon")]
    fn level_sweep_rejects_changes_in_the_settled_past() {
        let mut c = LevelSweep::new();
        c.settle(t(10));
        c.add(t(9), 1);
    }

    #[test]
    fn superimpose_shifts_and_sums() {
        let mut a = StepTrace::new();
        a.record(t(0), 2);
        a.record(t(10), 0);
        let mut b = StepTrace::new();
        b.record(t(0), 1);
        b.record(t(5), 0);
        let sum = StepTrace::superimpose(&[(a, SimDuration(0)), (b, SimDuration(5))]);
        assert_eq!(sum.points(), &[(t(0), 2), (t(5), 3), (t(10), 0)]);
        assert_eq!(sum.points.capacity(), 4, "sized from the parts");
        assert!(StepTrace::superimpose(&[]).points().is_empty());
    }
}
