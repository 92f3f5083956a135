//! Model-based equivalence: the SoA [`DescArena`] against the
//! array-of-structs slab it replaced.
//!
//! The reference model below *is* the old layout — one `Descriptor`
//! struct per slot, `Option<usize>` links, a free list — with the same
//! operations implemented the obvious way. Random operation sequences
//! (alloc / release / split / flag writes / conflict-queue push, drain,
//! remove) are applied to both, and every observable — field reads,
//! queue membership order, population statistics, recycling order — must
//! agree after every step. Any divergence the lane layout could
//! introduce (wrong lane reset on recycle, link corruption, flag bit
//! aliasing) shows up as a mismatch with the failing operation index.

use pax_core::descriptor::{DescArena, DescState, QueueClass};
use pax_core::ids::{DescId, GranuleRange, InstanceId, JobId};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference model: the pre-SoA array-of-structs arena.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ModelDesc {
    instance: InstanceId,
    job: JobId,
    range: GranuleRange,
    class: QueueClass,
    enabling: bool,
    overlap: bool,
    state: DescState,
    cq_head: Option<usize>,
    next: Option<usize>,
    prev: Option<usize>,
    owner: Option<usize>,
}

#[derive(Debug, Default)]
struct ModelArena {
    slots: Vec<ModelDesc>,
    free: Vec<usize>,
    live: usize,
    peak: usize,
    created: u64,
}

impl ModelArena {
    fn alloc(&mut self, instance: InstanceId, job: JobId, range: GranuleRange) -> usize {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        self.created += 1;
        let d = ModelDesc {
            instance,
            job,
            range,
            class: QueueClass::Normal,
            enabling: false,
            overlap: false,
            state: DescState::Fresh,
            cq_head: None,
            next: None,
            prev: None,
            owner: None,
        };
        if let Some(i) = self.free.pop() {
            self.slots[i] = d;
            i
        } else {
            self.slots.push(d);
            self.slots.len() - 1
        }
    }

    fn release(&mut self, i: usize) {
        self.slots[i].state = DescState::Done;
        self.live -= 1;
        self.free.push(i);
    }

    fn cq_push(&mut self, owner: usize, member: usize) {
        match self.slots[owner].cq_head {
            None => {
                let m = &mut self.slots[member];
                m.next = Some(member);
                m.prev = Some(member);
                m.owner = Some(owner);
                m.state = DescState::Conflicted;
                self.slots[owner].cq_head = Some(member);
            }
            Some(head) => {
                let tail = self.slots[head].prev.unwrap();
                {
                    let m = &mut self.slots[member];
                    m.next = Some(head);
                    m.prev = Some(tail);
                    m.owner = Some(owner);
                    m.state = DescState::Conflicted;
                }
                self.slots[tail].next = Some(member);
                self.slots[head].prev = Some(member);
            }
        }
    }

    fn cq_drain(&mut self, owner: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let Some(head) = self.slots[owner].cq_head else {
            return out;
        };
        let mut cur = head;
        loop {
            let next = self.slots[cur].next.unwrap();
            let m = &mut self.slots[cur];
            m.next = None;
            m.prev = None;
            m.owner = None;
            m.state = DescState::Fresh;
            out.push(cur);
            if next == head {
                break;
            }
            cur = next;
        }
        self.slots[owner].cq_head = None;
        out
    }

    fn cq_remove(&mut self, member: usize) {
        let (owner, next, prev) = {
            let m = &self.slots[member];
            (m.owner.unwrap(), m.next.unwrap(), m.prev.unwrap())
        };
        if next == member {
            self.slots[owner].cq_head = None;
        } else {
            self.slots[prev].next = Some(next);
            self.slots[next].prev = Some(prev);
            if self.slots[owner].cq_head == Some(member) {
                self.slots[owner].cq_head = Some(next);
            }
        }
        let m = &mut self.slots[member];
        m.next = None;
        m.prev = None;
        m.owner = None;
        m.state = DescState::Fresh;
    }

    fn cq_members(&self, owner: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let Some(head) = self.slots[owner].cq_head else {
            return out;
        };
        let mut cur = head;
        loop {
            out.push(cur);
            let next = self.slots[cur].next.unwrap();
            if next == head {
                break;
            }
            cur = next;
        }
        out
    }

    fn split(&mut self, i: usize, at: u32) -> usize {
        let (instance, job, range, class, enabling) = {
            let d = &self.slots[i];
            (d.instance, d.job, d.range, d.class, d.enabling)
        };
        let (front, back) = range.split_at(at);
        self.slots[i].range = front;
        let rem = self.alloc(instance, job, back);
        self.slots[rem].class = class;
        self.slots[rem].enabling = enabling;
        rem
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Compare every observable of slot `i`.
fn check_slot(sut: &DescArena, model: &ModelArena, i: usize) -> Result<(), TestCaseError> {
    let id = DescId(i as u32);
    let m = &model.slots[i];
    prop_assert_eq!(sut.range(id), m.range, "range of slot {}", i);
    prop_assert_eq!(sut.instance(id), m.instance, "instance of slot {}", i);
    prop_assert_eq!(sut.job(id), m.job, "job of slot {}", i);
    prop_assert_eq!(sut.state(id), m.state, "state of slot {}", i);
    prop_assert_eq!(sut.class(id), m.class, "class of slot {}", i);
    prop_assert_eq!(sut.enabling(id), m.enabling, "enabling of slot {}", i);
    prop_assert_eq!(sut.overlap(id), m.overlap, "overlap of slot {}", i);
    prop_assert_eq!(
        sut.has_conflicts(id),
        m.cq_head.is_some(),
        "cq_head of slot {}",
        i
    );
    Ok(())
}

fn check_all(sut: &DescArena, model: &ModelArena) -> Result<(), TestCaseError> {
    prop_assert_eq!(sut.live(), model.live);
    prop_assert_eq!(sut.peak_live(), model.peak);
    prop_assert_eq!(sut.created_total(), model.created);
    prop_assert_eq!(sut.slots(), model.slots.len());
    for i in 0..model.slots.len() {
        check_slot(sut, model, i)?;
        let mut queue = Vec::new();
        sut.cq_members_into(DescId(i as u32), &mut queue);
        let members: Vec<usize> = queue.into_iter().map(|d| d.0 as usize).collect();
        prop_assert_eq!(members, model.cq_members(i), "queue of slot {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary operation sequences leave the SoA arena and the AoS
    /// model observably identical at every step.
    #[test]
    fn soa_arena_equals_aos_model(
        ops in proptest::collection::vec((0u8..8, 0u16..64, 0u16..64), 1..120),
    ) {
        let mut sut = DescArena::new();
        let mut model = ModelArena::default();
        // ids of slots currently usable (not Done), parallel across both
        let mut alive: Vec<usize> = Vec::new();

        for (step, &(op, a, b)) in ops.iter().enumerate() {
            match op {
                // alloc
                0 | 1 => {
                    let lo = u32::from(a) * 8;
                    let len = u32::from(b) % 30 + 2;
                    let inst = InstanceId(u32::from(a) % 5);
                    let job = JobId(u32::from(b) % 3);
                    let r = GranuleRange::new(lo, lo + len);
                    let s = sut.alloc(inst, job, r);
                    let m = model.alloc(inst, job, r);
                    prop_assert_eq!(s.0 as usize, m, "alloc slot at step {}", step);
                    alive.push(m);
                }
                // release (only legal targets: unowned, queue-less)
                2 => {
                    let candidates: Vec<usize> = alive
                        .iter()
                        .copied()
                        .filter(|&i| {
                            model.slots[i].owner.is_none() && model.slots[i].cq_head.is_none()
                        })
                        .collect();
                    if let Some(&i) = candidates.get(a as usize % candidates.len().max(1)) {
                        sut.release(DescId(i as u32));
                        model.release(i);
                        alive.retain(|&x| x != i);
                    }
                }
                // cq_push
                3 | 4 => {
                    if alive.len() >= 2 {
                        let owner = alive[a as usize % alive.len()];
                        let member_candidates: Vec<usize> = alive
                            .iter()
                            .copied()
                            .filter(|&i| i != owner && model.slots[i].owner.is_none())
                            .collect();
                        if let Some(&member) =
                            member_candidates.get(b as usize % member_candidates.len().max(1))
                        {
                            sut.cq_push(DescId(owner as u32), DescId(member as u32));
                            model.cq_push(owner, member);
                        }
                    }
                }
                // cq_drain_into
                5 => {
                    if !alive.is_empty() {
                        let owner = alive[a as usize % alive.len()];
                        let mut drained = Vec::new();
                        sut.cq_drain_into(DescId(owner as u32), &mut drained);
                        let s: Vec<usize> = drained.into_iter().map(|d| d.0 as usize).collect();
                        prop_assert_eq!(s, model.cq_drain(owner), "drain order at step {}", step);
                    }
                }
                // cq_remove
                6 => {
                    let queued: Vec<usize> = alive
                        .iter()
                        .copied()
                        .filter(|&i| model.slots[i].owner.is_some())
                        .collect();
                    if let Some(&member) = queued.get(a as usize % queued.len().max(1)) {
                        sut.cq_remove(DescId(member as u32));
                        model.cq_remove(member);
                    }
                }
                // split + flag writes
                _ => {
                    let splittable: Vec<usize> = alive
                        .iter()
                        .copied()
                        .filter(|&i| model.slots[i].range.len() >= 2)
                        .collect();
                    if let Some(&i) = splittable.get(a as usize % splittable.len().max(1)) {
                        // flags first, so the split inherits them
                        let elevate = b & 1 != 0;
                        let class = if elevate {
                            QueueClass::Elevated
                        } else {
                            QueueClass::Normal
                        };
                        sut.set_class(DescId(i as u32), class);
                        model.slots[i].class = class;
                        sut.set_enabling(DescId(i as u32), b & 2 != 0);
                        model.slots[i].enabling = b & 2 != 0;
                        sut.set_overlap(DescId(i as u32), b & 4 != 0);
                        model.slots[i].overlap = b & 4 != 0;
                        let at = u32::from(b) % (model.slots[i].range.len() - 1) + 1;
                        let s = sut.split(DescId(i as u32), at);
                        let m = model.split(i, at);
                        prop_assert_eq!(s.0 as usize, m, "split slot at step {}", step);
                        alive.push(m);
                    }
                }
            }
            check_all(&sut, &model)?;
        }
    }
}
