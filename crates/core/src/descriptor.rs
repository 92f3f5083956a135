//! Computation descriptions and their conflict queues.
//!
//! PAX described computations "as large, contiguous collections of
//! granules. The descriptions were split apart as necessary to produce
//! conveniently sized tasks for workers and then merged back into single
//! descriptions when the work was completed." Each description carries "a
//! queue head for a double circularly-linked list of computable but
//! conflicting computational granules" — on completion, everything on that
//! queue becomes unconditionally computable.
//!
//! [`DescArena`] stores descriptions **struct-of-arrays**: one parallel
//! lane per field class, indexed by [`DescId`]. Completion processing — the
//! executive's hot loop — touches the `ranges`, identity, and `flags`
//! lanes of a few descriptors per event; with the old array-of-structs
//! slab every such touch dragged a whole ~56-byte `Descriptor` through the
//! cache, most of it (links, state, generation) dead weight for that
//! access. The lanes are:
//!
//! | lane        | element                 | used by                          |
//! |-------------|-------------------------|----------------------------------|
//! | `ranges`    | `GranuleRange` (8 B)    | dispatch, split, completion merge |
//! | `instances` | `InstanceId` (4 B)      | completion, dispatch             |
//! | `jobs`      | `JobId` (4 B)           | enqueue                          |
//! | `flags`     | `u8` bitset             | enabling / overlap / queue class |
//! | `links`     | `Links` + `DescState`   | conflict-queue ops, lifecycle    |
//! | `live_idx`  | `u32`                   | O(1) live-list removal           |
//!
//! Lifecycle state rides in the `links` lane rather than its own vector:
//! every conflict-queue operation writes state and links together
//! (queued ⇒ `Conflicted`, drained ⇒ `Fresh`), so a separate state lane
//! would cost each cq op one extra random cache line for nothing — and
//! the hot completion scan reads no state at all.
//!
//! Callers never see the layout: every operation goes through the typed
//! [`DescId`] accessor API (`range`, `instance`, `state`, `set_state`,
//! `enabling`, …), so `engine.rs`, `queue.rs`, and the dispatch path are
//! layout-agnostic. The conflict queue is still a double circularly-linked
//! list over arena indices (`u32::MAX` = nil), so no unsafe code is
//! needed. Completed descriptions are recycled through a free list.

use crate::ids::{DescId, GranuleRange, InstanceId, JobId, WorkerId};

/// Scheduling class of a description in the waiting computation queue.
///
/// "it was determined that such conflicting computations would be placed
/// ahead of the normal computations in the queue and, thus, given higher
/// priority."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueClass {
    /// Released conflicting/enabled computations — scheduled first.
    Elevated,
    /// Ordinary phase work, in dispatch order.
    Normal,
}

/// Lifecycle state of a description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescState {
    /// Newly created, not yet placed anywhere.
    Fresh,
    /// In the waiting computation queue.
    Waiting,
    /// Queued on another description's conflict queue, awaiting enablement.
    Conflicted,
    /// Detached into a successor-splitting task's information.
    Detached,
    /// Executing on a worker.
    Running(WorkerId),
    /// Completed (slot will be recycled).
    Done,
}

/// Nil link sentinel (`Option<DescId>` without the extra word).
const NIL: u32 = u32::MAX;

/// Flag lane bits.
const F_ENABLING: u8 = 1 << 0;
const F_OVERLAP: u8 = 1 << 1;
const F_ELEVATED: u8 = 1 << 2;

/// Conflict-queue linkage of one description: the head of its own queue,
/// the circular links used while *it* sits on some queue, and the owner
/// whose queue it is on. Grouped in one lane because the four fields are
/// only ever read and written together, by the cq operations.
#[derive(Debug, Clone, Copy)]
struct Links {
    cq_head: u32,
    next: u32,
    prev: u32,
    owner: u32,
    /// Lifecycle state lives with the links: every conflict-queue
    /// operation writes state and links together, so splitting them
    /// apart costs one extra cache line per op for nothing — the
    /// completion scan never reads state.
    state: DescState,
}

impl Links {
    const EMPTY: Links = Links {
        cq_head: NIL,
        next: NIL,
        prev: NIL,
        owner: NIL,
        state: DescState::Fresh,
    };
}

/// Struct-of-arrays arena of computation descriptions with free-list
/// recycling and conflict-queue operations. See the module docs for the
/// lane layout.
#[derive(Debug, Default)]
pub struct DescArena {
    ranges: Vec<GranuleRange>,
    instances: Vec<InstanceId>,
    jobs: Vec<JobId>,
    flags: Vec<u8>,
    links: Vec<Links>,
    /// Position in the owning instance's live list, maintained by the
    /// engine so completion removes a descriptor in O(1) (`NIL` = untracked).
    live_idx: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
    created_total: u64,
}

impl DescArena {
    /// Empty arena.
    pub fn new() -> DescArena {
        DescArena::default()
    }

    /// Empty arena with every lane pre-sized for `cap` descriptions.
    pub fn with_capacity(cap: usize) -> DescArena {
        DescArena {
            ranges: Vec::with_capacity(cap),
            instances: Vec::with_capacity(cap),
            jobs: Vec::with_capacity(cap),
            flags: Vec::with_capacity(cap),
            links: Vec::with_capacity(cap),
            live_idx: Vec::with_capacity(cap),
            ..DescArena::default()
        }
    }

    /// Allocate a description for `range` of `instance`.
    pub fn alloc(&mut self, instance: InstanceId, job: JobId, range: GranuleRange) -> DescId {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.created_total += 1;
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            self.ranges[i] = range;
            self.instances[i] = instance;
            self.jobs[i] = job;
            self.flags[i] = 0;
            self.links[i] = Links::EMPTY;
            self.live_idx[i] = NIL;
            DescId(idx)
        } else {
            let idx = self.ranges.len() as u32;
            self.ranges.push(range);
            self.instances.push(instance);
            self.jobs.push(job);
            self.flags.push(0);
            self.links.push(Links::EMPTY);
            self.live_idx.push(NIL);
            DescId(idx)
        }
    }

    /// Recycle a completed description. Its conflict queue must already be
    /// empty and it must not sit on anyone else's queue.
    pub fn release(&mut self, id: DescId) {
        let i = id.0 as usize;
        debug_assert!(
            self.links[i].cq_head == NIL,
            "releasing descriptor with conflicts"
        );
        debug_assert!(
            self.links[i].owner == NIL,
            "releasing descriptor still on a queue"
        );
        debug_assert!(
            !matches!(self.links[i].state, DescState::Done),
            "double release"
        );
        self.links[i].state = DescState::Done;
        self.live -= 1;
        self.free.push(id.0);
    }

    // --- typed field accessors (the layout firewall) -------------------

    /// Covered granules `[lo, hi)`.
    #[inline]
    pub fn range(&self, id: DescId) -> GranuleRange {
        self.ranges[id.0 as usize]
    }

    /// Phase instance the granules belong to.
    #[inline]
    pub fn instance(&self, id: DescId) -> InstanceId {
        self.instances[id.0 as usize]
    }

    /// Job stream (multi-job environments).
    #[inline]
    pub fn job(&self, id: DescId) -> JobId {
        self.jobs[id.0 as usize]
    }

    /// Lifecycle state.
    #[inline]
    pub fn state(&self, id: DescId) -> DescState {
        self.links[id.0 as usize].state
    }

    /// Set the lifecycle state.
    #[inline]
    pub fn set_state(&mut self, id: DescId, s: DescState) {
        self.links[id.0 as usize].state = s;
    }

    /// Scheduling class when waiting.
    #[inline]
    pub fn class(&self, id: DescId) -> QueueClass {
        if self.flags[id.0 as usize] & F_ELEVATED != 0 {
            QueueClass::Elevated
        } else {
            QueueClass::Normal
        }
    }

    /// Set the scheduling class.
    #[inline]
    pub fn set_class(&mut self, id: DescId, c: QueueClass) {
        let f = &mut self.flags[id.0 as usize];
        match c {
            QueueClass::Elevated => *f |= F_ELEVATED,
            QueueClass::Normal => *f &= !F_ELEVATED,
        }
    }

    /// The paper's status bit: completion of this description must
    /// decrement enablement counters of dependent successor granules.
    #[inline]
    pub fn enabling(&self, id: DescId) -> bool {
        self.flags[id.0 as usize] & F_ENABLING != 0
    }

    /// Set the enabling status bit.
    #[inline]
    pub fn set_enabling(&mut self, id: DescId, v: bool) {
        let f = &mut self.flags[id.0 as usize];
        if v {
            *f |= F_ENABLING;
        } else {
            *f &= !F_ENABLING;
        }
    }

    /// Set at dispatch when the owning instance's predecessor was still
    /// incomplete — i.e. this task executes *during* the predecessor's
    /// phase, which is the overlap the paper measures.
    #[inline]
    pub fn overlap(&self, id: DescId) -> bool {
        self.flags[id.0 as usize] & F_OVERLAP != 0
    }

    /// Set the overlap marker.
    #[inline]
    pub fn set_overlap(&mut self, id: DescId, v: bool) {
        let f = &mut self.flags[id.0 as usize];
        if v {
            *f |= F_OVERLAP;
        } else {
            *f &= !F_OVERLAP;
        }
    }

    /// Number of granules covered by `id`.
    #[inline]
    pub fn granules(&self, id: DescId) -> u32 {
        self.ranges[id.0 as usize].len()
    }

    /// True when the conflict queue of `id` is non-empty.
    #[inline]
    pub fn has_conflicts(&self, id: DescId) -> bool {
        self.links[id.0 as usize].cq_head != NIL
    }

    /// Live-list slot of `id` (`u32::MAX` = untracked).
    #[inline]
    pub(crate) fn live_idx(&self, id: DescId) -> u32 {
        self.live_idx[id.0 as usize]
    }

    /// Record the live-list slot of `id`.
    #[inline]
    pub(crate) fn set_live_idx(&mut self, id: DescId, idx: u32) {
        self.live_idx[id.0 as usize] = idx;
    }

    // --- population statistics -----------------------------------------

    /// Currently live descriptions.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live descriptions.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total allocations over the run (storage-economy statistic; the
    /// paper chose contiguous collections precisely to keep this low).
    pub fn created_total(&self) -> u64 {
        self.created_total
    }

    /// Number of slots across all lanes (live + recyclable).
    pub fn slots(&self) -> usize {
        self.ranges.len()
    }

    // --- conflict queue (double circularly-linked list) ---------------

    /// Append `member` to `owner`'s conflict queue.
    pub fn cq_push(&mut self, owner: DescId, member: DescId) {
        debug_assert!(owner != member);
        debug_assert!(self.links[member.0 as usize].owner == NIL);
        let head = self.links[owner.0 as usize].cq_head;
        if head == NIL {
            let m = &mut self.links[member.0 as usize];
            m.next = member.0;
            m.prev = member.0;
            m.owner = owner.0;
            self.links[owner.0 as usize].cq_head = member.0;
        } else {
            // insert before head == append at tail of circular list
            let tail = self.links[head as usize].prev;
            debug_assert!(tail != NIL, "circular list invariant");
            {
                let m = &mut self.links[member.0 as usize];
                m.next = head;
                m.prev = tail;
                m.owner = owner.0;
            }
            self.links[tail as usize].next = member.0;
            self.links[head as usize].prev = member.0;
        }
        self.links[member.0 as usize].state = DescState::Conflicted;
    }

    /// Detach every member of `owner`'s conflict queue into `out` (which
    /// is *not* cleared), in insertion order. Members come back with state
    /// `Fresh` and no links. Taking the output buffer from the caller lets
    /// completion processing reuse one vector across every event.
    pub fn cq_drain_into(&mut self, owner: DescId, out: &mut Vec<DescId>) {
        let head = self.links[owner.0 as usize].cq_head;
        if head == NIL {
            return;
        }
        let mut cur = head;
        loop {
            let next = self.links[cur as usize].next;
            debug_assert!(next != NIL, "circular list invariant");
            {
                let m = &mut self.links[cur as usize];
                m.next = NIL;
                m.prev = NIL;
                m.owner = NIL;
            }
            self.links[cur as usize].state = DescState::Fresh;
            out.push(DescId(cur));
            if next == head {
                break;
            }
            cur = next;
        }
        self.links[owner.0 as usize].cq_head = NIL;
    }

    /// Remove a single `member` from whatever conflict queue it is on.
    pub fn cq_remove(&mut self, member: DescId) {
        let Links {
            owner, next, prev, ..
        } = self.links[member.0 as usize];
        assert!(owner != NIL, "cq_remove on unqueued descriptor");
        debug_assert!(next != NIL && prev != NIL, "circular list invariant");
        if next == member.0 {
            // sole member
            self.links[owner as usize].cq_head = NIL;
        } else {
            self.links[prev as usize].next = next;
            self.links[next as usize].prev = prev;
            if self.links[owner as usize].cq_head == member.0 {
                self.links[owner as usize].cq_head = next;
            }
        }
        let m = &mut self.links[member.0 as usize];
        m.next = NIL;
        m.prev = NIL;
        m.owner = NIL;
        self.links[member.0 as usize].state = DescState::Fresh;
    }

    /// Collect members of `owner`'s conflict queue into `out` (not
    /// cleared) without detaching them.
    pub fn cq_members_into(&self, owner: DescId, out: &mut Vec<DescId>) {
        let head = self.links[owner.0 as usize].cq_head;
        if head == NIL {
            return;
        }
        let mut cur = head;
        loop {
            out.push(DescId(cur));
            let next = self.links[cur as usize].next;
            debug_assert!(next != NIL, "circular list invariant");
            if next == head {
                break;
            }
            cur = next;
        }
    }

    /// Split the waiting description `id` at `at` granules: `id` keeps the
    /// front `[lo, lo+at)`; a new description takes the remainder. Any
    /// identity-mapped successors on the conflict queue are *not* touched
    /// here — the executive decides when and how to split them (demand
    /// split, presplit, or successor-splitting task).
    ///
    /// Returns the remainder's id.
    pub fn split(&mut self, id: DescId, at: u32) -> DescId {
        let i = id.0 as usize;
        let range = self.ranges[i];
        assert!(at > 0 && at < range.len(), "split must be strictly inside");
        let (instance, job) = (self.instances[i], self.jobs[i]);
        let inherited = self.flags[i] & (F_ELEVATED | F_ENABLING);
        let (front, back) = range.split_at(at);
        self.ranges[i] = front;
        let rem = self.alloc(instance, job, back);
        self.flags[rem.0 as usize] = inherited;
        rem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `owner`'s queue, detached, through [`DescArena::cq_drain_into`].
    fn drain(a: &mut DescArena, owner: DescId) -> Vec<DescId> {
        let mut out = Vec::new();
        a.cq_drain_into(owner, &mut out);
        out
    }

    /// `owner`'s queue, in place, through [`DescArena::cq_members_into`].
    fn members(a: &DescArena, owner: DescId) -> Vec<DescId> {
        let mut out = Vec::new();
        a.cq_members_into(owner, &mut out);
        out
    }

    fn arena_with(n: usize) -> (DescArena, Vec<DescId>) {
        let mut a = DescArena::new();
        let ids = (0..n)
            .map(|i| {
                a.alloc(
                    InstanceId(0),
                    JobId(0),
                    GranuleRange::new(i as u32 * 10, i as u32 * 10 + 10),
                )
            })
            .collect();
        (a, ids)
    }

    #[test]
    fn alloc_and_recycle() {
        let (mut a, ids) = arena_with(3);
        assert_eq!(a.live(), 3);
        a.release(ids[1]);
        assert_eq!(a.live(), 2);
        let d = a.alloc(InstanceId(1), JobId(0), GranuleRange::new(0, 5));
        assert_eq!(d, ids[1], "free slot is reused");
        assert_eq!(a.live(), 3);
        assert_eq!(a.peak_live(), 3);
        assert_eq!(a.created_total(), 4);
        assert_eq!(a.slots(), 3);
        // recycled slot comes back fully reset
        assert_eq!(a.state(d), DescState::Fresh);
        assert_eq!(a.class(d), QueueClass::Normal);
        assert!(!a.enabling(d) && !a.overlap(d));
        assert!(!a.has_conflicts(d));
    }

    #[test]
    fn conflict_queue_push_drain_order() {
        let (mut a, ids) = arena_with(4);
        a.cq_push(ids[0], ids[1]);
        a.cq_push(ids[0], ids[2]);
        a.cq_push(ids[0], ids[3]);
        assert!(a.has_conflicts(ids[0]));
        assert_eq!(a.state(ids[1]), DescState::Conflicted);
        let drained = drain(&mut a, ids[0]);
        assert_eq!(drained, vec![ids[1], ids[2], ids[3]]);
        assert!(!a.has_conflicts(ids[0]));
        assert_eq!(a.state(ids[1]), DescState::Fresh);
        assert!(drain(&mut a, ids[0]).is_empty());
    }

    #[test]
    fn conflict_queue_remove_middle() {
        let (mut a, ids) = arena_with(4);
        a.cq_push(ids[0], ids[1]);
        a.cq_push(ids[0], ids[2]);
        a.cq_push(ids[0], ids[3]);
        a.cq_remove(ids[2]);
        assert_eq!(members(&a, ids[0]), vec![ids[1], ids[3]]);
        let drained = drain(&mut a, ids[0]);
        assert_eq!(drained, vec![ids[1], ids[3]]);
    }

    #[test]
    fn conflict_queue_remove_head_and_sole() {
        let (mut a, ids) = arena_with(3);
        a.cq_push(ids[0], ids[1]);
        a.cq_push(ids[0], ids[2]);
        a.cq_remove(ids[1]); // head
        assert_eq!(members(&a, ids[0]), vec![ids[2]]);
        a.cq_remove(ids[2]); // sole member
        assert!(!a.has_conflicts(ids[0]));
    }

    #[test]
    fn split_preserves_attributes() {
        let mut a = DescArena::new();
        let d = a.alloc(InstanceId(2), JobId(1), GranuleRange::new(0, 100));
        a.set_class(d, QueueClass::Elevated);
        a.set_enabling(d, true);
        let rem = a.split(d, 30);
        assert_eq!(a.range(d), GranuleRange::new(0, 30));
        assert_eq!(a.range(rem), GranuleRange::new(30, 100));
        assert_eq!(a.class(rem), QueueClass::Elevated);
        assert!(a.enabling(rem));
        assert_eq!(a.instance(rem), InstanceId(2));
        assert_eq!(a.job(rem), JobId(1));
        // overlap is a dispatch-time marker and must NOT be inherited
        a.set_overlap(d, true);
        let rem2 = a.split(d, 10);
        assert!(!a.overlap(rem2));
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn split_rejects_degenerate() {
        let mut a = DescArena::new();
        let d = a.alloc(InstanceId(0), JobId(0), GranuleRange::new(0, 10));
        let _ = a.split(d, 10);
    }

    #[test]
    fn nested_conflict_queues() {
        // successor queued on current; successor itself has a queue head
        // usable for its own successors (chained overlap structures).
        let (mut a, ids) = arena_with(3);
        a.cq_push(ids[0], ids[1]);
        a.cq_push(ids[1], ids[2]);
        assert_eq!(members(&a, ids[0]), vec![ids[1]]);
        assert_eq!(members(&a, ids[1]), vec![ids[2]]);
        // draining the outer queue leaves the inner intact
        let drained = drain(&mut a, ids[0]);
        assert_eq!(drained, vec![ids[1]]);
        assert_eq!(members(&a, ids[1]), vec![ids[2]]);
    }

    #[test]
    fn flag_lane_bits_are_independent() {
        let (mut a, ids) = arena_with(1);
        let d = ids[0];
        a.set_enabling(d, true);
        a.set_overlap(d, true);
        a.set_class(d, QueueClass::Elevated);
        assert!(a.enabling(d) && a.overlap(d));
        assert_eq!(a.class(d), QueueClass::Elevated);
        a.set_enabling(d, false);
        assert!(!a.enabling(d) && a.overlap(d));
        assert_eq!(a.class(d), QueueClass::Elevated);
        a.set_class(d, QueueClass::Normal);
        assert!(a.overlap(d));
        assert_eq!(a.class(d), QueueClass::Normal);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let a = DescArena::with_capacity(64);
        assert_eq!(a.live(), 0);
        assert_eq!(a.slots(), 0);
        assert_eq!(a.created_total(), 0);
    }
}
