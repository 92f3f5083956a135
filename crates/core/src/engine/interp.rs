//! Program interpretation: stepping a job's program from one dispatch to
//! the next, and the phase instances that creates, promotes and
//! completes.

use super::{Engine, Ev, InstState, Instance};
use crate::descriptor::QueueClass;
use crate::ids::{GranuleRange, InstanceId, PhaseId};
use crate::mapping::MappingKind;
use crate::phase::PhaseStats;
use crate::program::Step;
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
        let d = &self.jobs[job].program.phases[def.0 as usize];
        let granules = d.granules;
        let task_size = self
            .policy
            .sizing
            .task_granules(granules, self.cfg.processors);
        let mut stats = PhaseStats::new(self.now);
        stats.serial_gap = std::mem::take(&mut self.jobs[job].pending_serial_gap);
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
                    completed: RangeSet::new(),
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
            self.jobs[job].instances.push(id);
        }
        id
    }

    /// Execute program steps for `job` starting at step `pc` until a
    /// dispatch takes effect, a serial region is scheduled, or the program
    /// ends.
    ///
    /// Holding a reference-counted handle on the program (one pointer
    /// bump per call, not per step) lets the interpreter borrow each step
    /// across the `&mut self` state changes it triggers, where indexing
    /// `self.jobs` afresh used to force a deep `Step::clone` per step
    /// executed.
    pub(super) fn run_program(&mut self, job: usize, mut pc: usize) {
        let program = Arc::clone(&self.jobs[job].program);
        loop {
            match &program.steps[pc] {
                Step::End => {
                    self.finish_job(job);
                    return;
                }
                Step::Incr { idx, delta } => {
                    let c = &mut self.jobs[job].counters[*idx];
                    *c = c.saturating_add(*delta);
                    pc += 1;
                }
                Step::Goto(t) => pc = *t,
                Step::Branch {
                    test,
                    on_true,
                    on_false,
                } => {
                    pc = if test.eval(&self.jobs[job].counters) {
                        *on_true
                    } else {
                        *on_false
                    };
                }
                Step::Serial { duration, label } => {
                    let duration = *duration;
                    let (_s, end) = self.exec_service_serial(self.now, duration);
                    self.jobs[job].pc = pc;
                    self.jobs[job].pending_serial_gap += duration;
                    self.tlog.log(self.now, || {
                        format!("job{job} serial '{label}' until {end}")
                    });
                    self.events.schedule(end, Ev::SerialDone { job });
                    return;
                }
                Step::Dispatch { phase, .. } => {
                    let phase = *phase;
                    // Was a successor already initiated for this step?
                    if let Some((pred_step, inst_id)) = self.jobs[job].pending_successor.take() {
                        if pred_step == pc {
                            self.promote(inst_id, pc);
                            return;
                        }
                        // Misprediction cannot happen with counter-only
                        // branch tests; surface loudly if it ever does.
                        self.warnings.push(format!(
                            "job{job}: lookahead predicted step {pred_step}, actual {pc}; \
                             initiated instance {inst_id} abandoned"
                        ));
                    }
                    let inst_id = self.new_instance(job, phase, pc, InstState::Current, None, None);
                    let mut cost = self.cfg.costs.phase_init;
                    let full = GranuleRange::new(0, self.inst(inst_id).granules);
                    self.release_range(inst_id, full, QueueClass::Normal, &mut cost);
                    self.exec_service(self.now, cost);
                    self.initiate_successor(inst_id);
                    return;
                }
            }
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
        self.tlog.log(now, || {
            format!("{inst_id} complete (job{job}, step {step})")
        });
        self.run_program(job, step + 1);
    }

    pub(super) fn on_serial_done(&mut self, job: usize) {
        let pc = self.jobs[job].pc;
        self.run_program(job, pc + 1);
    }
}
