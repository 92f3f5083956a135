//! Overlap initiation — identity conflict queues, composite maps and
//! enablement counters, priority elevation — and the executive's
//! background backlog that builds maps and splits successors off the
//! dispatch path.

use super::{CounterState, Engine, Ev, ExecTask, InstState};
use crate::descriptor::{DescState, QueueClass};
use crate::ids::{DescId, GranuleRange, InstanceId, JobId};
use crate::mapping::{EnablementMapping, MappingKind};
use crate::policy::CompositeBuild;
use crate::program::{Lookahead, Step};
use crate::rangeset::coalesce_indices_into;
use pax_sim::time::SimDuration;
use std::mem::take;
use std::sync::Arc;

/// Lane-time slice for chunked background composite-map construction.
const BUILD_CHUNK_TICKS: u64 = 64;

impl Engine {
    /// Apply the overlap policy at the moment `pred` becomes current:
    /// look ahead for the next dispatch and initiate it under the declared
    /// enablement mapping.
    pub(super) fn initiate_successor(&mut self, pred_id: InstanceId) {
        if !self.policy.enabled {
            return;
        }
        let (job, dispatch_step) = {
            let p = self.inst(pred_id);
            (p.job, p.dispatch_step)
        };
        // Borrow the ENABLE clause from the shared program instead of
        // cloning the spec vector (and its mapping payloads) per overlap.
        let program = Arc::clone(&self.programs[job]);
        let (enables, take_branches) = match &program.steps[dispatch_step] {
            Step::Dispatch {
                enables,
                branch_independent,
                ..
            } => (enables, *branch_independent),
            _ => return,
        };
        self.scratch
            .counters
            .clone_from(&self.runs[self.run_of[job] as usize].counters);
        let la = program.lookahead(dispatch_step, &mut self.scratch.counters, take_branches);
        let (succ_phase, succ_step) = match la {
            Lookahead::Phase { phase, step } => (phase, step),
            _ => return, // serial gap, opaque branch, or program end
        };
        let Some(spec) = enables.iter().find(|e| e.successor == succ_phase) else {
            return;
        };
        let kind = spec.mapping.kind();
        if kind == MappingKind::Null {
            return;
        }
        let succ_id = self.new_instance(
            job,
            succ_phase,
            succ_step,
            InstState::Initiated,
            Some(pred_id),
            Some(kind),
        );
        self.inst_mut(pred_id).successor = Some(succ_id);
        self.run_mut(job).pending_successor = Some((succ_step, succ_id));
        let mut cost = self.cfg.costs.phase_init;
        match &spec.mapping {
            EnablementMapping::Universal => {
                // "the successor phase is also initiated and the resulting
                // computation description placed in the waiting computation
                // queue behind the current phase description."
                let full = GranuleRange::new(0, self.inst(succ_id).granules);
                self.release_range(succ_id, full, QueueClass::Normal, &mut cost);
            }
            EnablementMapping::Identity => {
                self.init_identity(pred_id, succ_id, &mut cost);
            }
            m @ (EnablementMapping::ForwardIndirect(_)
            | EnablementMapping::ReverseIndirect(_)
            | EnablementMapping::Seam(_)) => {
                self.init_counted(pred_id, succ_id, m, &mut cost);
            }
            EnablementMapping::Null => unreachable!(),
        }
        self.exec_service(self.now, cost);
    }

    /// Identity overlap: queue a matching successor description on every
    /// live current-phase description's conflict queue; ranges already
    /// completed release immediately.
    fn init_identity(&mut self, pred_id: InstanceId, succ_id: InstanceId, cost: &mut SimDuration) {
        let job = JobId(self.inst(succ_id).job as u32);
        // Live-list order fixes the successor's descriptor ids and its own
        // live-list order, so the descriptors are made in that order...
        let mut pred_live = take(&mut self.scratch.desc_ranges);
        pred_live.extend(
            self.inst(pred_id)
                .live_descs
                .iter()
                .map(|&d| (d, self.arena.range(d))),
        );
        for &(pd, range) in &pred_live {
            let sd = self.arena.alloc(succ_id, job, range);
            self.live_push(succ_id, sd);
            self.arena.cq_push(pd, sd);
        }
        pred_live.clear();
        self.scratch.desc_ranges = pred_live;
        // ...while the successor's released set, empty until now, is
        // filled from the sorted copy, so every insert lands on its end.
        let mut live = take(&mut self.scratch.live_ranges);
        let mut done_runs = take(&mut self.scratch.runs);
        self.completed_runs_into(pred_id, &mut live, &mut done_runs);
        let released = &mut self.inst_mut(succ_id).released;
        for &range in &live {
            released.insert(range);
        }
        live.clear();
        self.scratch.live_ranges = live;
        let rclass = self.released_class();
        for &r in &done_runs {
            *cost += self.cfg.costs.release;
            self.release_range(succ_id, r, rclass, cost);
        }
        done_runs.clear();
        self.scratch.runs = done_runs;
    }

    /// Append the completed granules of `inst_id` to `out` as coalesced
    /// runs in index order: its released granules that no live
    /// description covers. Leaves the ranges of its live descriptions in
    /// `live` (cleared first), sorted by `lo`. Debug builds check that the
    /// runs total `granules − remaining`.
    fn completed_runs_into(
        &self,
        inst_id: InstanceId,
        live: &mut Vec<GranuleRange>,
        out: &mut Vec<GranuleRange>,
    ) {
        let inst = self.inst(inst_id);
        live.clear();
        live.extend(inst.live_descs.iter().map(|&d| self.arena.range(d)));
        // Live ranges are disjoint, so their `lo`s are distinct: the
        // unstable sort is deterministic and allocation-free.
        live.sort_unstable_by_key(|r| r.lo);
        let start = out.len();
        released_minus_live(inst.released.iter_runs(), live.iter().copied(), out);
        debug_assert_eq!(
            out[start..].iter().map(|r| r.len() as u64).sum::<u64>(),
            u64::from(inst.granules - inst.remaining),
            "derived completed runs must total granules − remaining"
        );
    }

    /// Indirect (forward/reverse/seam) overlap: set status bits on the
    /// current phase, arrange composite-map construction, and gate the
    /// successor behind enablement counters.
    fn init_counted(
        &mut self,
        pred_id: InstanceId,
        succ_id: InstanceId,
        mapping: &EnablementMapping,
        cost: &mut SimDuration,
    ) {
        let early_limit = self.policy.indirect_subset.min(self.inst(succ_id).granules);
        let composite = Arc::clone(mapping.composite().expect("an indirect mapping"));
        // Only entries that feed the chosen early subset are constructed
        // (the paper's subset advice caps the enablement problem's size).
        let useful = if early_limit as usize >= composite.requires.len() {
            composite.entries()
        } else {
            composite
                .targets
                .iter()
                .filter(|&&r| r < early_limit)
                .count() as u64
        };
        self.inst_mut(succ_id).counter_state = Some(CounterState {
            composite,
            useful,
            counters: None,
            early_limit,
        });
        // Status bit on every live description of the current phase.
        let mut live = take(&mut self.scratch.members);
        live.extend_from_slice(&self.inst(pred_id).live_descs);
        for &d in &live {
            self.arena.set_enabling(d, true);
        }
        live.clear();
        self.scratch.members = live;
        match self.policy.composite_build {
            CompositeBuild::Immediate => self.build_composite(succ_id, cost),
            CompositeBuild::Background => {
                self.exec_backlog.push_back(ExecTask::BuildComposite {
                    inst: succ_id,
                    prepaid: SimDuration::ZERO,
                });
                self.kick_exec();
            }
        }
    }

    /// The simulated executive finishes constructing the composite map for
    /// `succ_id`: charge the construction, arm the enablement counters,
    /// apply decrements for already-completed predecessor granules, release
    /// whatever that enables, and optionally elevate the enabling
    /// current-phase granules.
    fn build_composite(&mut self, succ_id: InstanceId, cost: &mut SimDuration) {
        let full = GranuleRange::new(0, self.inst(succ_id).granules);
        if self.inst(succ_id).state != InstState::Initiated
            || self.inst(succ_id).released.contains_range(full)
        {
            return; // barrier already lifted; the map would be useless
        }
        let Some(pred_id) = self.inst(succ_id).predecessor else {
            return;
        };
        let pred_granules = self.inst(pred_id).granules;
        let (comp, early_limit) = {
            let cs = self
                .inst(succ_id)
                .counter_state
                .as_ref()
                .expect("counted gate");
            if cs.counters.is_some() {
                return;
            }
            *cost += self.cfg.costs.composite_map_per_entry * cs.useful;
            (Arc::clone(&cs.composite), cs.early_limit)
        };

        let counters = comp.requires[..early_limit as usize].to_vec();
        // Null-set-enabled granules in the early window behave like a
        // universal successor: queue them behind the current phase.
        let mut zero_now = take(&mut self.scratch.zero_now);
        zero_now.extend((0..early_limit).filter(|&r| counters[r as usize] == 0));
        self.inst_mut(succ_id)
            .counter_state
            .as_mut()
            .expect("counted gate")
            .counters = Some(counters);
        let mut runs = take(&mut self.scratch.runs);
        coalesce_indices_into(&mut zero_now, &mut runs);
        for &run in &runs {
            *cost += self.cfg.costs.release;
            self.release_range(succ_id, run, QueueClass::Normal, cost);
        }
        zero_now.clear();
        self.scratch.zero_now = zero_now;
        // Decrements for predecessor granules that completed before the
        // map was built (background construction). `apply_decrements`
        // coalesces into `runs`, so here `runs` takes the live ranges and
        // the `live_ranges` buffer takes the completed runs.
        let mut done = take(&mut self.scratch.live_ranges);
        self.completed_runs_into(pred_id, &mut runs, &mut done);
        runs.clear();
        self.scratch.runs = runs;
        self.apply_decrements(succ_id, &done, cost);
        done.clear();
        self.scratch.live_ranges = done;

        // Elevate the current-phase granules that enable the successor.
        // Only granules that enable the chosen early subset are worth
        // elevating ("identify a subset group of successor-phase
        // granules ... so as to avoid solving an unnecessarily large
        // enablement problem"); and if most of the current phase is
        // enabling, elevation is a no-op by definition — skip it
        // rather than shatter the master description.
        let mut enabling = take(&mut self.scratch.indices);
        enabling.extend(
            (0..pred_granules).filter(|&i| comp.dependents_of(i).iter().any(|&r| r < early_limit)),
        );
        if enabling.len() * 2 <= pred_granules as usize {
            self.elevate_enabling_granules(pred_id, &mut enabling, cost);
        }
        enabling.clear();
        self.scratch.indices = enabling;
    }

    /// Carve the enabling current-phase granules into elevated individual
    /// descriptions, "placed in the waiting computation queue in such a
    /// manner as to elevate their computational priority".
    fn elevate_enabling_granules(
        &mut self,
        pred_id: InstanceId,
        enabling: &mut Vec<u32>,
        cost: &mut SimDuration,
    ) {
        let mut runs = take(&mut self.scratch.runs);
        coalesce_indices_into(enabling, &mut runs);
        let mut candidates = take(&mut self.scratch.desc_ranges);
        for &run in &runs {
            // Find waiting descriptors of the predecessor intersecting run.
            candidates.clear();
            candidates.extend(
                self.inst(pred_id)
                    .live_descs
                    .iter()
                    .filter(|&&d| matches!(self.arena.state(d), DescState::Waiting))
                    .filter_map(|&d| self.arena.range(d).intersect(run).map(|ovl| (d, ovl))),
            );
            for &(d, ovl) in &candidates {
                // The descriptor may have been replaced by an earlier carve
                // in this same loop; re-check.
                if !matches!(self.arena.state(d), DescState::Waiting) {
                    continue;
                }
                let drange = self.arena.range(d);
                let Some(ovl) = drange.intersect(ovl) else {
                    continue;
                };
                let job = self.arena.job(d);
                let queued = self.waiting.remove(d, self.arena.class(d), job);
                debug_assert!(queued, "a waiting descriptor sits in its arena segment");
                if ovl == drange {
                    // Whole descriptor is enabling: move it to the
                    // elevated segment.
                    let class = QueueClass::Elevated;
                    self.arena.set_class(d, class);
                    self.waiting.push_back(d, class, job);
                    continue;
                }
                // Split out the overlapping middle. At most a leading and
                // a trailing non-enabling piece exist; two slots replace
                // the old per-candidate vector.
                let mut lead: Option<DescId> = None;
                let mut tail: Option<DescId> = None;
                let mut cur = d;
                if ovl.lo > drange.lo {
                    let rem = self.arena.split(cur, ovl.lo - drange.lo);
                    self.splits += 1;
                    *cost += self.cfg.costs.split;
                    self.live_push(pred_id, rem);
                    lead = Some(cur); // leading non-enabling part
                    cur = rem;
                }
                if ovl.hi < self.arena.range(cur).hi {
                    let tail_at = ovl.hi - self.arena.range(cur).lo;
                    let rem = self.arena.split(cur, tail_at);
                    self.splits += 1;
                    *cost += self.cfg.costs.split;
                    self.live_push(pred_id, rem);
                    tail = Some(rem); // trailing non-enabling part
                }
                // `cur` is now exactly the enabling overlap.
                self.arena.set_class(cur, QueueClass::Elevated);
                self.waiting.push_back(cur, QueueClass::Elevated, job);
                self.arena.set_state(cur, DescState::Waiting);
                for p in [lead, tail].into_iter().flatten() {
                    self.arena.set_class(p, QueueClass::Normal);
                    self.waiting.push_front(p, QueueClass::Normal, job);
                    self.arena.set_state(p, DescState::Waiting);
                }
                self.wake_workers(2);
            }
        }
        candidates.clear();
        self.scratch.desc_ranges = candidates;
        runs.clear();
        self.scratch.runs = runs;
    }

    pub(super) fn on_exec_kick(&mut self) {
        let Some(task) = self.exec_backlog.front().copied() else {
            return;
        };
        let free = self.earliest_exec_free();
        if free > self.now {
            self.events.schedule(free, Ev::ExecKick);
            return;
        }
        self.exec_backlog.pop_front();
        let mut cost = SimDuration::ZERO;
        match task {
            ExecTask::BuildComposite { inst, prepaid } => {
                // `None` is a stale task (barrier already lifted): dropped.
                if let Some(total) = self.composite_build_cost(inst) {
                    let chunk = SimDuration(BUILD_CHUNK_TICKS);
                    if prepaid + chunk < total {
                        // pay one slice and yield the lane so worker
                        // dispatch/completion services interleave
                        cost += chunk;
                        self.exec_backlog.push_back(ExecTask::BuildComposite {
                            inst,
                            prepaid: prepaid + chunk,
                        });
                    } else {
                        cost += total.saturating_sub(prepaid);
                        let mut state_cost = SimDuration::ZERO;
                        self.build_composite(inst, &mut state_cost);
                        // state_cost re-counts the build; the chunks
                        // already paid for it, so only charge the
                        // decrement/release/carve portion on top
                        cost += state_cost.saturating_sub(total);
                    }
                }
            }
            ExecTask::SplitSuccessor { succ_desc, pred } => {
                self.exec_split_successor(succ_desc, pred, &mut cost)
            }
        }
        self.exec_service(self.now, cost);
        if !self.exec_backlog.is_empty() {
            self.kick_exec();
        }
    }

    /// Lane time the simulated executive needs to construct the composite
    /// map for `succ` (subset-limited), or `None` when the build is stale
    /// (the successor already became current or fully released) or done.
    /// Asked once per background chunk, so it is O(1): the entry count was
    /// taken when the successor was initiated ([`CounterState::useful`]).
    fn composite_build_cost(&self, succ_id: InstanceId) -> Option<SimDuration> {
        let succ = self.inst(succ_id);
        let full = GranuleRange::new(0, succ.granules);
        if succ.state != InstState::Initiated || succ.released.contains_range(full) {
            return None;
        }
        let cs = succ.counter_state.as_ref()?;
        if cs.counters.is_some() {
            return None;
        }
        Some(self.cfg.costs.composite_map_per_entry * cs.useful)
    }

    /// Execute a successor-splitting task: distribute the detached
    /// successor description across the predecessor's current pieces,
    /// releasing parts whose enablers already completed.
    fn exec_split_successor(
        &mut self,
        succ_desc: DescId,
        pred: InstanceId,
        cost: &mut SimDuration,
    ) {
        if !matches!(self.arena.state(succ_desc), DescState::Detached) {
            return; // already handled elsewhere
        }
        let range = self.arena.range(succ_desc);
        let succ_inst = self.arena.instance(succ_desc);

        // Pieces: live predecessor descriptors get matching conflicted
        // pieces; the gaps between them (completed sub-ranges) release
        // immediately. `range` lies inside the predecessor's released set,
        // and it may have completed already: then every piece is a gap.
        let mut pieces = take(&mut self.scratch.pieces);
        pieces.extend(self.inst(pred).live_descs.iter().filter_map(|&pd| {
            self.arena
                .range(pd)
                .intersect(range)
                .map(|ovl| (ovl, Some(pd)))
        }));
        // Piece lo values are distinct (the pieces are disjoint), so the
        // unstable sorts are behavior-identical and allocation-free.
        pieces.sort_unstable_by_key(|(r, _)| r.lo);
        let mut done = take(&mut self.scratch.runs);
        released_minus_live([range], pieces.iter().map(|&(r, _)| r), &mut done);
        pieces.extend(done.iter().map(|&r| (r, None)));
        pieces.sort_unstable_by_key(|(r, _)| r.lo);
        done.clear();
        self.scratch.runs = done;
        debug_assert_eq!(
            pieces.iter().map(|(r, _)| r.len() as u64).sum::<u64>(),
            range.len() as u64,
            "predecessor pieces must tile the successor range"
        );

        // Slice the detached descriptor front-to-back.
        let mut cur = succ_desc;
        self.arena.set_state(cur, DescState::Fresh);
        for (i, &(r, target)) in pieces.iter().enumerate() {
            let piece = if i + 1 == pieces.len() {
                cur
            } else {
                let at = r.hi - self.arena.range(cur).lo;
                let rem = self.arena.split(cur, at);
                self.splits += 1;
                *cost += self.cfg.costs.split;
                self.live_push(succ_inst, rem);
                let piece = cur;
                cur = rem;
                piece
            };
            debug_assert_eq!(self.arena.range(piece), r);
            match target {
                Some(pd) => self.arena.cq_push(pd, piece),
                None => {
                    *cost += self.cfg.costs.release;
                    let rc = self.released_class();
                    self.enqueue(piece, rc);
                }
            }
        }
        pieces.clear();
        self.scratch.pieces = pieces;
    }
}

/// Append to `out` the granules of `released` that no `live` range covers:
/// an instance's completed granules, since released = completed ⊔ live.
/// Both inputs are sorted by `lo` and disjoint, and each live range lies
/// inside one released run; the output runs are coalesced and in order.
fn released_minus_live(
    released: impl IntoIterator<Item = GranuleRange>,
    live: impl IntoIterator<Item = GranuleRange>,
    out: &mut Vec<GranuleRange>,
) {
    let mut live = live.into_iter().peekable();
    for run in released {
        let mut cursor = run.lo;
        while let Some(l) = live.next_if(|l| l.lo < run.hi) {
            if l.lo > cursor {
                out.push(GranuleRange::new(cursor, l.lo));
            }
            cursor = l.hi;
        }
        if cursor < run.hi {
            out.push(GranuleRange::new(cursor, run.hi));
        }
    }
}
