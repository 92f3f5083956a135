//! The waiting computation queue.
//!
//! "The waiting computation queue was kept in a known order and ... such
//! conflicting computations would be placed ahead of the normal
//! computations in the queue and, thus, given higher priority."
//!
//! Two segments implement that order: an *elevated* segment (released
//! conflicting/enabled computations, FIFO) ahead of per-job *normal*
//! segments (FIFO within a job, round-robin across jobs so that a
//! multi-parallel-job-stream environment shares the machine).
//!
//! A seeking processor is handed the head in time independent of how
//! many jobs were ever submitted: the jobs whose normal segment holds
//! work form an active set (a two-level bitmap), and the round-robin
//! successor is a find-next-set over it, not a walk over every job's
//! segment.

use crate::descriptor::QueueClass;
use crate::ids::{DescId, JobId};
use std::collections::VecDeque;

/// The set of jobs whose normal segment is non-empty: one bit per job,
/// and above those words one summary bit per word, so the next member
/// at or after an index costs a few word reads up to 4 096 jobs and
/// `jobs / 4 096` summary words beyond that.
#[derive(Debug)]
struct ActiveSet {
    /// `words` job words, then their summary words (one allocation).
    bits: Vec<u64>,
    words: usize,
    /// Words and segments read while locating heads (scaling tests).
    #[cfg(test)]
    probes: std::cell::Cell<usize>,
}

impl ActiveSet {
    fn new(jobs: usize) -> ActiveSet {
        let words = jobs.div_ceil(64);
        ActiveSet {
            bits: vec![0; words + words.div_ceil(64)],
            words,
            #[cfg(test)]
            probes: std::cell::Cell::new(0),
        }
    }

    #[inline]
    fn probe(&self) {
        #[cfg(test)]
        self.probes.set(self.probes.get() + 1);
    }

    #[inline]
    fn insert(&mut self, j: usize) {
        let w = j >> 6;
        self.bits[w] |= 1 << (j & 63);
        self.bits[self.words + (w >> 6)] |= 1 << (w & 63);
    }

    #[inline]
    fn remove(&mut self, j: usize) {
        let w = j >> 6;
        self.bits[w] &= !(1 << (j & 63));
        if self.bits[w] == 0 {
            self.bits[self.words + (w >> 6)] &= !(1 << (w & 63));
        }
    }

    #[inline]
    fn contains(&self, j: usize) -> bool {
        self.bits[j >> 6] & (1 << (j & 63)) != 0
    }

    /// The smallest member `≥ from`.
    #[inline]
    fn next_from(&self, from: usize) -> Option<usize> {
        let (words, summary) = self.bits.split_at(self.words);
        let w = from >> 6;
        self.probe();
        let here = words.get(w)? & (!0 << (from & 63));
        if here != 0 {
            return Some(w << 6 | here.trailing_zeros() as usize);
        }
        // The first non-empty word after `w`, through the summary.
        let w = w + 1;
        let mut s = w >> 6;
        self.probe();
        let mut above = summary.get(s)? & (!0 << (w & 63));
        while above == 0 {
            s += 1;
            self.probe();
            above = *summary.get(s)?;
        }
        let w = s << 6 | above.trailing_zeros() as usize;
        self.probe();
        Some(w << 6 | words[w].trailing_zeros() as usize)
    }

    /// Members in round-robin order from `cursor`: ascending from the
    /// cursor to the last job, then from job 0 up to the cursor.
    fn cyclic_from(&self, cursor: usize) -> impl Iterator<Item = usize> + '_ {
        let mut from = cursor;
        let mut wrapped = false;
        std::iter::from_fn(move || loop {
            match self.next_from(from) {
                Some(j) if wrapped && j >= cursor => return None,
                Some(j) => {
                    from = j + 1;
                    return Some(j);
                }
                None if wrapped => return None,
                None => {
                    wrapped = true;
                    from = 0;
                }
            }
        })
    }
}

/// The executive's waiting computation queue.
///
/// Storage follows the jobs in flight, not the jobs submitted: a job
/// holds a normal segment only from its first push to its
/// [`WaitingQueue::release`], and a submitted job costs the queue one
/// `u32` (its segment index) and one bit (its place in the active set).
#[derive(Debug)]
pub struct WaitingQueue {
    elevated: VecDeque<DescId>,
    /// Each job's index into `segments`, or [`NO_SEGMENT`] while it holds
    /// none. The round-robin runs over these job indices.
    segment_of: Vec<u32>,
    /// Normal segments of the jobs holding one, recycled: a job's first
    /// push takes a free one (or adds one), its release hands it back
    /// with its buffer kept.
    segments: Vec<VecDeque<DescId>>,
    /// Indices of `segments` no job holds.
    free: Vec<u32>,
    active: ActiveSet,
    segment_capacity: usize,
    rr_cursor: usize,
    len: usize,
}

/// The segment index of a job that holds no segment.
const NO_SEGMENT: u32 = u32::MAX;

/// Initial per-segment capacity: enough for every release of a typical
/// phase (two tasks per processor on a large machine) before the segment
/// deques ever reallocate.
const SEGMENT_CAPACITY: usize = 128;

impl WaitingQueue {
    /// Queue serving `jobs` job streams (≥ 1).
    pub fn new(jobs: usize) -> WaitingQueue {
        Self::with_capacity(jobs, SEGMENT_CAPACITY)
    }

    /// Queue serving `jobs` job streams whose segments reserve `cap`
    /// slots when they are first taken (sized from the expected task
    /// count per phase), so steady-state pushes stay allocation-free.
    pub fn with_capacity(jobs: usize, cap: usize) -> WaitingQueue {
        assert!(jobs > 0, "need at least one job stream");
        WaitingQueue {
            elevated: VecDeque::with_capacity(cap),
            segment_of: vec![NO_SEGMENT; jobs],
            segments: Vec::new(),
            free: Vec::new(),
            active: ActiveSet::new(jobs),
            segment_capacity: cap,
            rr_cursor: 0,
            len: 0,
        }
    }

    /// Total queued descriptions.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segment of `class` for `job`, ready to take a push: a job
    /// without a normal segment takes a recycled one first, and an idle
    /// segment joins the active set.
    #[inline]
    fn segment_for_push(&mut self, class: QueueClass, job: JobId) -> &mut VecDeque<DescId> {
        self.len += 1;
        match class {
            QueueClass::Elevated => &mut self.elevated,
            QueueClass::Normal => {
                let j = job.0 as usize;
                if self.segment_of[j] == NO_SEGMENT {
                    self.segment_of[j] = self.free.pop().unwrap_or_else(|| {
                        self.segments
                            .push(VecDeque::with_capacity(self.segment_capacity));
                        (self.segments.len() - 1) as u32
                    });
                }
                let seg = &mut self.segments[self.segment_of[j] as usize];
                if seg.is_empty() {
                    self.active.insert(j);
                }
                seg
            }
        }
    }

    /// `job` has finished and will queue nothing more: its drained
    /// segment returns to the pool for the next arrival.
    pub fn release(&mut self, job: JobId) {
        let j = job.0 as usize;
        let s = self.segment_of[j];
        if s != NO_SEGMENT && self.segments[s as usize].is_empty() {
            self.segment_of[j] = NO_SEGMENT;
            self.free.push(s);
        }
    }

    /// Append to the back of the given class ("behind the current phase
    /// description" for universal successors is achieved by normal-class
    /// FIFO order).
    #[inline]
    pub fn push_back(&mut self, id: DescId, class: QueueClass, job: JobId) {
        self.segment_for_push(class, job).push_back(id);
    }

    /// Push to the *front* of the given class. Used for split remainders so
    /// the current phase keeps its place ahead of anything queued behind it.
    #[inline]
    pub fn push_front(&mut self, id: DescId, class: QueueClass, job: JobId) {
        self.segment_for_push(class, job).push_front(id);
    }

    /// The job whose normal segment is next in round-robin order: the
    /// first active job at or cyclically after the cursor.
    #[inline]
    fn head_job(&self) -> Option<usize> {
        // The cursor's own job is first in line; the set is asked only
        // when that job has nothing queued.
        self.active.probe();
        if self.active.contains(self.rr_cursor) {
            return Some(self.rr_cursor);
        }
        self.active
            .next_from(self.rr_cursor)
            .or_else(|| self.active.next_from(0))
    }

    /// Pop the next description: elevated first, then round-robin over the
    /// jobs' normal segments.
    #[inline]
    pub fn pop(&mut self) -> Option<DescId> {
        self.pop_class(true, true)
    }

    /// Pop the first description within the leading `window` entries (in
    /// [`WaitingQueue::pop`] order) for which `pred` holds; when none
    /// matches, pop the head. This is the data-proximity assignment scan:
    /// the window bounds the executive time spent matching, and falling
    /// back to the head keeps the queue work-conserving — a seeking worker
    /// never leaves empty-handed while work waits.
    ///
    /// Matching the overall head behaves exactly like `pop` (round-robin
    /// cursor advances); deeper matches are removed in place and leave the
    /// cursor untouched, so job-stream fairness is preserved.
    pub fn pop_matching(
        &mut self,
        window: usize,
        mut pred: impl FnMut(DescId) -> bool,
    ) -> Option<DescId> {
        let mut scanned = 0usize;
        for pos in 0..self.elevated.len() {
            if scanned >= window {
                return self.pop();
            }
            let id = self.elevated[pos];
            if pred(id) {
                self.elevated.remove(pos);
                self.len -= 1;
                return Some(id);
            }
            scanned += 1;
        }
        let mut found = None;
        'scan: for j in self.active.cyclic_from(self.rr_cursor) {
            let seg = &self.segments[self.segment_of[j] as usize];
            for (pos, &id) in seg.iter().enumerate() {
                if scanned >= window {
                    break 'scan;
                }
                if pred(id) {
                    found = Some((j, pos, id));
                    break 'scan;
                }
                scanned += 1;
            }
        }
        let Some((j, pos, id)) = found else {
            return self.pop();
        };
        if self.elevated.is_empty() && j == self.rr_cursor && pos == 0 {
            // exact head: keep pop()'s fairness bookkeeping
            return self.pop();
        }
        let seg = &mut self.segments[self.segment_of[j] as usize];
        seg.remove(pos);
        if seg.is_empty() {
            self.active.remove(j);
        }
        self.len -= 1;
        Some(id)
    }

    /// Pop the next description from the *allowed* segments only — the
    /// affinity-restricted variant of [`WaitingQueue::pop`] used by
    /// heterogeneous processor classes. With both segments allowed this
    /// is exactly `pop` (same round-robin bookkeeping); with a segment
    /// disallowed its entries are invisible to this worker and wait for
    /// one whose class may serve them.
    #[inline]
    pub fn pop_class(&mut self, allow_elevated: bool, allow_normal: bool) -> Option<DescId> {
        if allow_elevated {
            if let Some(id) = self.elevated.pop_front() {
                self.len -= 1;
                return Some(id);
            }
        }
        if !allow_normal {
            return None;
        }
        let j = self.head_job()?;
        self.active.probe();
        let seg = &mut self.segments[self.segment_of[j] as usize];
        let id = seg.pop_front().expect("an active job's segment holds work");
        if seg.is_empty() {
            self.active.remove(j);
        }
        self.rr_cursor = if j + 1 == self.segment_of.len() {
            0
        } else {
            j + 1
        };
        self.len -= 1;
        Some(id)
    }

    /// Peek without removing (same order as [`WaitingQueue::pop`]).
    pub fn peek(&self) -> Option<DescId> {
        match self.elevated.front() {
            Some(&id) => Some(id),
            None => {
                let j = self.head_job()?;
                self.segments[self.segment_of[j] as usize].front().copied()
            }
        }
    }

    /// Remove a specific description from the segment it was queued in
    /// (`class` and `job` as recorded in the arena when it was pushed).
    /// Linear in that one segment — only used by the priority-elevation
    /// carve path, where a segment holds a handful of descriptions.
    /// Returns true if found.
    pub fn remove(&mut self, id: DescId, class: QueueClass, job: JobId) -> bool {
        let j = job.0 as usize;
        let seg = match class {
            QueueClass::Elevated => &mut self.elevated,
            QueueClass::Normal if self.segment_of[j] == NO_SEGMENT => return false,
            QueueClass::Normal => &mut self.segments[self.segment_of[j] as usize],
        };
        let Some(pos) = seg.iter().position(|&x| x == id) else {
            return false;
        };
        seg.remove(pos);
        self.len -= 1;
        if class == QueueClass::Normal && seg.is_empty() {
            self.active.remove(j);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DescId {
        DescId(i)
    }

    #[test]
    fn elevated_precedes_normal() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Elevated, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(0));
        q.push_back(d(4), QueueClass::Elevated, JobId(0));
        let order: Vec<DescId> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![d(2), d(4), d(1), d(3)]);
    }

    #[test]
    fn push_front_keeps_remainder_ahead() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(10), QueueClass::Normal, JobId(0)); // current phase master
        q.push_back(d(20), QueueClass::Normal, JobId(0)); // universal successor behind it
        let popped = q.pop().unwrap();
        assert_eq!(popped, d(10));
        // split: remainder goes back to the front, still ahead of successor
        q.push_front(d(11), QueueClass::Normal, JobId(0));
        assert_eq!(q.pop(), Some(d(11)));
        assert_eq!(q.pop(), Some(d(20)));
    }

    #[test]
    fn round_robin_across_jobs() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        q.push_back(d(4), QueueClass::Normal, JobId(1));
        let order: Vec<DescId> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![d(1), d(3), d(2), d(4)]);
    }

    #[test]
    fn round_robin_skips_empty_jobs() {
        let mut q = WaitingQueue::new(3);
        q.push_back(d(1), QueueClass::Normal, JobId(2));
        q.push_back(d(2), QueueClass::Normal, JobId(2));
        assert_eq!(q.pop(), Some(d(1)));
        assert_eq!(q.pop(), Some(d(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_matching_prefers_match_within_window() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(0));
        assert_eq!(q.pop_matching(8, |id| id == d(3)), Some(d(3)));
        assert_eq!(q.len(), 2);
        // remaining order unchanged
        assert_eq!(q.pop(), Some(d(1)));
        assert_eq!(q.pop(), Some(d(2)));
    }

    #[test]
    fn pop_matching_falls_back_to_head_when_no_match() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        assert_eq!(q.pop_matching(8, |_| false), Some(d(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_matching_window_bounds_scan() {
        let mut q = WaitingQueue::new(1);
        for i in 1..=6 {
            q.push_back(d(i), QueueClass::Normal, JobId(0));
        }
        // match sits at position 4 but window is 2: falls back to head
        assert_eq!(q.pop_matching(2, |id| id == d(5)), Some(d(1)));
        // window 0 is pure queue order
        assert_eq!(q.pop_matching(0, |id| id == d(5)), Some(d(2)));
    }

    #[test]
    fn pop_matching_scans_elevated_before_normal() {
        let mut q = WaitingQueue::new(1);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Elevated, JobId(0));
        q.push_back(d(3), QueueClass::Elevated, JobId(0));
        // both elevated entries match; the earlier one wins
        assert_eq!(q.pop_matching(8, |id| id.0 >= 2), Some(d(2)));
        assert_eq!(q.pop(), Some(d(3)));
        assert_eq!(q.pop(), Some(d(1)));
    }

    #[test]
    fn pop_matching_head_match_advances_round_robin() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        // head (job 0) matches: cursor moves to job 1 as with pop()
        assert_eq!(q.pop_matching(8, |id| id == d(1)), Some(d(1)));
        assert_eq!(q.pop(), Some(d(3)));
        assert_eq!(q.pop(), Some(d(2)));
    }

    #[test]
    fn pop_matching_deep_match_preserves_fairness_cursor() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Normal, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        // deep match in job 0: cursor still at job 0 for the next pop
        assert_eq!(q.pop_matching(8, |id| id == d(2)), Some(d(2)));
        assert_eq!(q.pop(), Some(d(1)));
        assert_eq!(q.pop(), Some(d(3)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_matching_empty_queue() {
        let mut q = WaitingQueue::new(1);
        assert_eq!(q.pop_matching(8, |_| true), None);
    }

    #[test]
    fn pop_class_restricts_segments() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(1), QueueClass::Normal, JobId(0));
        q.push_back(d(2), QueueClass::Elevated, JobId(0));
        q.push_back(d(3), QueueClass::Normal, JobId(1));
        // Normal-only skips the elevated head entirely.
        assert_eq!(q.pop_class(false, true), Some(d(1)));
        // Elevated-only sees only the elevated segment.
        assert_eq!(q.pop_class(true, false), Some(d(2)));
        assert_eq!(q.pop_class(true, false), None);
        // Both segments allowed behaves exactly like pop().
        assert_eq!(q.pop_class(true, true), Some(d(3)));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_class_keeps_round_robin_fairness() {
        let mut a = WaitingQueue::new(2);
        let mut b = WaitingQueue::new(2);
        for (id, job) in [(1, 0), (2, 0), (3, 1), (4, 1)] {
            a.push_back(d(id), QueueClass::Normal, JobId(job));
            b.push_back(d(id), QueueClass::Normal, JobId(job));
        }
        let via_pop: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let via_class: Vec<_> = std::iter::from_fn(|| b.pop_class(true, true)).collect();
        assert_eq!(via_pop, via_class);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = WaitingQueue::new(2);
        q.push_back(d(5), QueueClass::Normal, JobId(1));
        q.push_back(d(6), QueueClass::Elevated, JobId(0));
        assert_eq!(q.peek(), Some(d(6)));
        assert_eq!(q.pop(), Some(d(6)));
        assert_eq!(q.peek(), Some(d(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    /// The queue as it was before the active set: every job keeps a
    /// deque for the whole run and each operation walks the segments
    /// from the cursor. Shares no code with [`WaitingQueue`]; the
    /// differential test below holds the two to the same answers.
    struct LinearScanQueue {
        elevated: VecDeque<DescId>,
        normal: Vec<VecDeque<DescId>>,
        rr_cursor: usize,
        len: usize,
    }

    impl LinearScanQueue {
        fn new(jobs: usize) -> LinearScanQueue {
            LinearScanQueue {
                elevated: VecDeque::new(),
                normal: vec![VecDeque::new(); jobs],
                rr_cursor: 0,
                len: 0,
            }
        }

        fn segment(&mut self, class: QueueClass, job: JobId) -> &mut VecDeque<DescId> {
            match class {
                QueueClass::Elevated => &mut self.elevated,
                QueueClass::Normal => &mut self.normal[job.0 as usize],
            }
        }

        fn push_back(&mut self, id: DescId, class: QueueClass, job: JobId) {
            self.len += 1;
            self.segment(class, job).push_back(id);
        }

        fn push_front(&mut self, id: DescId, class: QueueClass, job: JobId) {
            self.len += 1;
            self.segment(class, job).push_front(id);
        }

        fn pop(&mut self) -> Option<DescId> {
            self.pop_class(true, true)
        }

        fn pop_class(&mut self, allow_elevated: bool, allow_normal: bool) -> Option<DescId> {
            if allow_elevated {
                if let Some(id) = self.elevated.pop_front() {
                    self.len -= 1;
                    return Some(id);
                }
            }
            if allow_normal {
                let jobs = self.normal.len();
                for k in 0..jobs {
                    let j = (self.rr_cursor + k) % jobs;
                    if let Some(id) = self.normal[j].pop_front() {
                        self.rr_cursor = (j + 1) % jobs;
                        self.len -= 1;
                        return Some(id);
                    }
                }
            }
            None
        }

        fn pop_matching(
            &mut self,
            window: usize,
            mut pred: impl FnMut(DescId) -> bool,
        ) -> Option<DescId> {
            let mut scanned = 0usize;
            for pos in 0..self.elevated.len() {
                if scanned >= window {
                    return self.pop();
                }
                let id = self.elevated[pos];
                if pred(id) {
                    self.elevated.remove(pos);
                    self.len -= 1;
                    return Some(id);
                }
                scanned += 1;
            }
            let jobs = self.normal.len();
            for k in 0..jobs {
                let j = (self.rr_cursor + k) % jobs;
                for pos in 0..self.normal[j].len() {
                    if scanned >= window {
                        return self.pop();
                    }
                    let id = self.normal[j][pos];
                    if pred(id) {
                        if self.elevated.is_empty() && k == 0 && pos == 0 {
                            return self.pop();
                        }
                        self.normal[j].remove(pos);
                        self.len -= 1;
                        return Some(id);
                    }
                    scanned += 1;
                }
            }
            self.pop()
        }

        fn peek(&self) -> Option<DescId> {
            if let Some(&id) = self.elevated.front() {
                return Some(id);
            }
            let jobs = self.normal.len();
            (0..jobs).find_map(|k| self.normal[(self.rr_cursor + k) % jobs].front().copied())
        }

        fn remove(&mut self, id: DescId) -> bool {
            let segments = std::iter::once(&mut self.elevated).chain(self.normal.iter_mut());
            for q in segments {
                if let Some(pos) = q.iter().position(|&x| x == id) {
                    q.remove(pos);
                    self.len -= 1;
                    return true;
                }
            }
            false
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random traffic gives the same answers, length and cursor as
        /// the linear-scan reference, step for step. Job picks cluster
        /// on a few "hot" jobs spread over the index space so segments
        /// fill, drain and refill across word and summary boundaries.
        #[test]
        fn matches_linear_scan_reference(
            jobs in 1usize..300,
            ops in proptest::collection::vec((0u8..11, 0usize..4096, 0u32..8), 1..400),
        ) {
            let mut q = WaitingQueue::with_capacity(jobs, 4);
            let mut oracle = LinearScanQueue::new(jobs);
            // where each queued id sits, as the arena records it
            let mut queued: Vec<(DescId, QueueClass, JobId)> = Vec::new();
            for (step, &(op, pick, arg)) in ops.iter().enumerate() {
                let id = DescId(step as u32);
                let job = JobId(((pick % 5) * jobs / 5 + pick % 3).min(jobs - 1) as u32);
                let class = if arg == 0 { QueueClass::Elevated } else { QueueClass::Normal };
                let popped = match op {
                    0..=2 => {
                        q.push_back(id, class, job);
                        oracle.push_back(id, class, job);
                        queued.push((id, class, job));
                        None
                    }
                    3 => {
                        q.push_front(id, class, job);
                        oracle.push_front(id, class, job);
                        queued.push((id, class, job));
                        None
                    }
                    4 | 5 => Some((q.pop(), oracle.pop())),
                    6 => {
                        let (e, n) = (arg & 1 == 0, arg & 2 == 0);
                        Some((q.pop_class(e, n), oracle.pop_class(e, n)))
                    }
                    7 | 8 => {
                        let m = arg + 1;
                        Some((
                            q.pop_matching(pick % 12, |x| x.0 % m == 0),
                            oracle.pop_matching(pick % 12, |x| x.0 % m == 0),
                        ))
                    }
                    10 => {
                        // a storage matter only: the oracle has no such step
                        if !queued.iter().any(|&(_, c, j)| c == QueueClass::Normal && j == job) {
                            q.release(job);
                        }
                        None
                    }
                    _ => {
                        let target = if queued.is_empty() {
                            (id, class, job) // not queued anywhere
                        } else {
                            queued[pick % queued.len()]
                        };
                        let found = q.remove(target.0, target.1, target.2);
                        prop_assert_eq!(found, oracle.remove(target.0));
                        found.then_some((Some(target.0), Some(target.0)))
                    }
                };
                if let Some((got, want)) = popped {
                    prop_assert_eq!(got, want, "step {}", step);
                    queued.retain(|&(x, _, _)| Some(x) != got);
                }
                prop_assert_eq!(q.peek(), oracle.peek(), "step {}", step);
                prop_assert_eq!(q.len(), oracle.len);
                prop_assert_eq!(q.len(), queued.len());
                prop_assert_eq!(q.rr_cursor, oracle.rr_cursor, "step {}", step);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A stream of jobs through four places in flight: each job
        /// queues work, is drained and released, and the next arrival
        /// takes a recycled segment. The queue pops exactly as the
        /// per-job `VecDeque` reference does, and never holds more
        /// segments than there are jobs in flight.
        #[test]
        fn recycled_segments_pop_like_per_job_deques(
            jobs in 64usize..100,
            ops in proptest::collection::vec((0u8..8, 0usize..4), 800..1500),
        ) {
            const IN_FLIGHT: usize = 4;
            let mut q = WaitingQueue::with_capacity(jobs, 2);
            let mut oracle = LinearScanQueue::new(jobs);
            let mut flight: Vec<usize> = (0..IN_FLIGHT).collect();
            let mut admitted = IN_FLIGHT;
            for (step, &(op, pick)) in ops.iter().enumerate() {
                let Some(&job) = flight.get(pick % flight.len().max(1)) else {
                    break;
                };
                let id = DescId(step as u32);
                let jid = JobId(job as u32);
                match op {
                    0 => {
                        q.push_back(id, QueueClass::Normal, jid);
                        oracle.push_back(id, QueueClass::Normal, jid);
                    }
                    1 => {
                        q.push_front(id, QueueClass::Normal, jid);
                        oracle.push_front(id, QueueClass::Normal, jid);
                    }
                    2 => {
                        q.push_back(id, QueueClass::Elevated, jid);
                        oracle.push_back(id, QueueClass::Elevated, jid);
                    }
                    3..=5 => prop_assert_eq!(q.pop(), oracle.pop(), "step {}", step),
                    _ => {
                        // The job finishes: pop until its segment is
                        // drained, release it, admit the next arrival.
                        while !oracle.normal[job].is_empty() {
                            prop_assert_eq!(q.pop(), oracle.pop(), "step {}", step);
                        }
                        q.release(jid);
                        let at = flight.iter().position(|&j| j == job).unwrap();
                        if admitted < jobs {
                            flight[at] = admitted;
                            admitted += 1;
                        } else {
                            flight.swap_remove(at);
                        }
                    }
                }
                prop_assert_eq!(q.peek(), oracle.peek(), "step {}", step);
                prop_assert_eq!(q.len(), oracle.len);
                prop_assert_eq!(q.rr_cursor, oracle.rr_cursor, "step {}", step);
                prop_assert!(q.segments.len() <= IN_FLIGHT, "{} segments", q.segments.len());
            }
            prop_assert_eq!(admitted, jobs, "every job of the stream went through");
        }
    }

    /// Finding the head costs the same handful of reads whether four
    /// jobs were submitted or four thousand: the work is counted, not
    /// timed, so the test cannot flake on a loaded host.
    #[test]
    fn pop_cost_is_independent_of_jobs_submitted() {
        const JOBS: usize = 4096;
        let active = [3u32, 1000, 2047, 4095];
        let mut q = WaitingQueue::new(JOBS);
        for (i, &j) in active.iter().enumerate() {
            q.push_back(d(i as u32), QueueClass::Normal, JobId(j));
            q.push_back(d(100 + i as u32), QueueClass::Normal, JobId(j));
        }
        let mut worst = 0;
        for round in 0..1000u32 {
            q.active.probes.set(0);
            let id = q.pop().expect("eight entries circulate");
            worst = worst.max(q.active.probes.get());
            q.push_back(id, QueueClass::Normal, JobId(active[round as usize % 4]));
        }
        assert!(worst <= 8, "a pop read {worst} words and segments");
    }

    #[test]
    fn released_jobs_share_storage() {
        let mut q = WaitingQueue::new(1000);
        for j in 0..1000 {
            q.push_back(d(j), QueueClass::Normal, JobId(j));
            assert_eq!(q.pop(), Some(d(j)));
            q.release(JobId(j));
        }
        assert_eq!(q.segments.len(), 1, "one segment served every job in turn");
        assert!(q.segment_of.iter().all(|&s| s == NO_SEGMENT));
    }
}
