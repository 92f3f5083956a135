//! Program interpretation: stepping a job's program from one dispatch to
//! the next, and the phase instances that creates, promotes and
//! completes.

use super::{Engine, EngineError, Ev, InstState, Instance};
use crate::descriptor::QueueClass;
use crate::ids::{GranuleRange, InstanceId, PhaseId};
use crate::mapping::MappingKind;
use crate::phase::PhaseStats;
use crate::program::{Step, Stop, WALK_STEPS};
use crate::rangeset::RangeSet;
use pax_sim::time::SimDuration;
use std::sync::Arc;

impl Engine {
    pub(super) fn new_instance(
        &mut self,
        job: usize,
        def: PhaseId,
        dispatch_step: usize,
        state: InstState,
        predecessor: Option<InstanceId>,
        enabled_by: Option<MappingKind>,
    ) -> InstanceId {
        let d = &self.programs[job].phases[def.0 as usize];
        let granules = d.granules;
        let task_size = self
            .policy
            .sizing
            .task_granules(granules, self.cfg.processors);
        let mut stats = PhaseStats::new(self.now);
        stats.serial_gap = std::mem::take(&mut self.run_mut(job).pending_serial_gap);
        // Under eviction, reuse a recycled slot: its run sets were cleared
        // in place (buffers kept warm) and its live list is empty, so the
        // steady-state service loop creates instances without allocating.
        let id = match self.evict.then(|| self.free_instances.pop()).flatten() {
            Some(slot) => {
                let inst = &mut self.instances[slot as usize];
                debug_assert_eq!(inst.state, InstState::Evicted, "free slot not evicted");
                debug_assert!(inst.live_descs.is_empty());
                inst.def = def;
                inst.job = job;
                inst.dispatch_step = dispatch_step;
                inst.state = state;
                inst.granules = granules;
                inst.remaining = granules;
                inst.task_size = task_size;
                inst.predecessor = predecessor;
                inst.successor = None;
                inst.enabled_by = enabled_by;
                inst.counter_state = None;
                inst.stats = stats;
                InstanceId(slot)
            }
            None => {
                let id = InstanceId(self.instances.len() as u32);
                self.instances.push(Instance {
                    def,
                    job,
                    dispatch_step,
                    state,
                    granules,
                    remaining: granules,
                    task_size,
                    released: RangeSet::new(),
                    live_descs: Vec::new(),
                    predecessor,
                    successor: None,
                    enabled_by,
                    counter_state: None,
                    stats,
                });
                id
            }
        };
        if self.evict {
            self.run_mut(job).instances.push(id);
        }
        id
    }

    /// Walk `job`'s program from step `pc` to its next effect: a dispatch
    /// takes effect, a serial region is scheduled, or the program ends.
    /// A walk that spends its [`WALK_STEPS`] budget first (a loop with no
    /// dispatch, serial region or end) aborts the job.
    ///
    /// Holding a reference-counted handle on the program (one pointer
    /// bump per call, not per step) lets the interpreter borrow the step
    /// it stopped at across the `&mut self` state changes it triggers.
    pub(super) fn run_program(&mut self, job: usize, pc: usize) {
        let program = Arc::clone(&self.programs[job]);
        let mut fuel = WALK_STEPS;
        match program.walk(pc, &mut self.run_mut(job).counters, true, &mut fuel) {
            Stop::End => self.finish_job(job),
            Stop::Endless(at) => {
                let detail = format!(
                    "step {at}: more than {WALK_STEPS} counter steps without a dispatch, \
                     serial region or end"
                );
                self.abort
                    .get_or_insert(EngineError::JobAborted { job, detail });
            }
            Stop::At(pc, Step::Serial { duration, .. }) => {
                let duration = *duration;
                let end = self.exec_service_serial(self.now, duration);
                let run = self.run_mut(job);
                run.pc = pc;
                run.pending_serial_gap += duration;
                self.events.schedule(end, Ev::SerialDone { job });
            }
            Stop::At(pc, Step::Dispatch { phase, .. }) => {
                // Was a successor already initiated for this step? The
                // lookahead that initiated it walked this very path on a
                // copy of these counters, so it predicted this step.
                if let Some((predicted, inst_id)) = self.run_mut(job).pending_successor.take() {
                    debug_assert_eq!(predicted, pc, "the lookahead walks the path the job takes");
                    self.promote(inst_id, pc);
                    return;
                }
                let inst_id = self.new_instance(job, *phase, pc, InstState::Current, None, None);
                let mut cost = self.cfg.costs.phase_init;
                let full = GranuleRange::new(0, self.inst(inst_id).granules);
                self.release_range(inst_id, full, QueueClass::Normal, &mut cost);
                self.exec_service(self.now, cost);
                self.initiate_successor(inst_id);
            }
            Stop::At(..) => unreachable!("a walk that takes branches stops at no branch"),
        }
    }

    /// An initiated successor becomes the current phase of its job.
    fn promote(&mut self, inst_id: InstanceId, pc: usize) {
        {
            let now = self.now;
            let inst = self.inst_mut(inst_id);
            inst.state = InstState::Current;
            inst.stats.current_at = now;
            inst.dispatch_step = pc;
        }
        self.initiate_successor(inst_id);
        if self.inst(inst_id).remaining == 0 {
            // The overlapped successor finished all its released work
            // before its predecessor completed (fully drained universal
            // phase): complete it immediately.
            let mut cost = SimDuration::ZERO;
            self.complete_instance(inst_id, &mut cost);
            self.exec_service(self.now, cost);
        }
    }

    /// All granules of `inst` are complete: record it, lift the successor
    /// barrier, and advance the program.
    pub(super) fn complete_instance(&mut self, inst_id: InstanceId, cost: &mut SimDuration) {
        let now = self.now;
        {
            let inst = self.inst_mut(inst_id);
            debug_assert_eq!(inst.remaining, 0);
            debug_assert_eq!(inst.state, InstState::Current);
            inst.state = InstState::Complete;
            inst.stats.completed_at = Some(now);
        }
        let (job, step, succ) = {
            let i = self.inst(inst_id);
            (i.job, i.dispatch_step, i.successor)
        };
        if let Some(succ_id) = succ {
            self.release_residual(succ_id, cost);
        }
        self.run_program(job, step + 1);
    }

    pub(super) fn on_serial_done(&mut self, job: usize) {
        let pc = self.run(job).pc;
        self.run_program(job, pc + 1);
    }
}
