//! The fault-injection layer: crash and repair events, preemption of
//! the task a crash interrupts, and the retry policy's verdict on the
//! lost range.

use super::{Engine, EngineError, Ev};
use crate::descriptor::DescState;
use crate::ids::{DescId, WorkerId};
use pax_sim::faults::{fault_seed, FaultModel, FaultPlan, RetryPolicy};
use pax_sim::metrics::LevelSweep;
use pax_sim::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::collections::VecDeque;

/// Runtime state of the fault-injection layer. Lives behind
/// `Engine::faults` (`None` when the machine has no [`FaultPlan`]), so a
/// failure-free run pays nothing: no extra RNG draws, no extra events,
/// and no per-completion allocations (the counting-allocator test pins
/// the faults-enabled-but-fault-free leg too).
pub(super) struct FaultRt {
    model: FaultModel,
    retry: RetryPolicy,
    /// Dedicated fault RNG ([`fault_seed`]-derived), never shared with
    /// the engine's task-sampling stream.
    rng: SmallRng,
    /// Down processors (indexed by worker).
    pub(super) down: Vec<bool>,
    /// In-flight task per worker: `(descriptor, compute start, scheduled
    /// end)`. The `end` doubles as a staleness token: a `TaskDone` whose
    /// `(desc, end)` no longer matches was preempted by a crash and is
    /// dropped.
    pub(super) running: Vec<Option<(DescId, SimTime, SimTime)>>,
    /// Scripted down-spans pending per processor; front = the span of
    /// the next scheduled crash event for that processor.
    scripted: Vec<VecDeque<Option<u64>>>,
    /// Reissue counts, tracked only for descriptors that lost work to a
    /// crash (cleared on completion so recycled descriptor ids start
    /// fresh).
    pub(super) attempts: Vec<(DescId, u32)>,
    /// Processors up: `+processors` at start, `-1` per crash, `+1` per
    /// repair.
    pub(super) avail: LevelSweep,
    /// Compute ticks spent on ranges later lost to crashes.
    pub(super) lost_work: SimDuration,
    /// Lost ranges reissued into the waiting queue.
    pub(super) retries: u64,
    /// Accepted crashes.
    pub(super) crashes: u64,
}

impl FaultRt {
    pub(super) fn new(mut plan: FaultPlan, processors: usize, seed: u64) -> FaultRt {
        if let FaultModel::Scripted(evs) = &mut plan.model {
            // Out-of-range processors are ignored; a stable sort by crash
            // instant aligns the per-processor span queues with calendar
            // insertion order.
            evs.retain(|e| e.processor < processors);
            evs.sort_by_key(|e| e.crash_at);
        }
        FaultRt {
            retry: plan.retry,
            rng: pax_sim::seeded_rng(fault_seed(seed)),
            down: vec![false; processors],
            running: vec![None; processors],
            scripted: vec![VecDeque::new(); processors],
            attempts: Vec::new(),
            avail: LevelSweep::new(),
            lost_work: SimDuration::ZERO,
            retries: 0,
            crashes: 0,
            model: plan.model,
        }
    }
}

impl Engine {
    /// Is this completion event stale? A crash preempting worker `w`
    /// clears its in-flight record, so a `TaskDone` whose `(desc, end)`
    /// no longer matches the record was scheduled for work that never
    /// finished. (If the same descriptor was re-dispatched to the same
    /// worker with the same end time, the events are interchangeable at
    /// that tick — the first one serviced completes the task and the
    /// other is dropped here.)
    #[inline]
    pub(super) fn task_done_is_stale(&self, w: WorkerId, d: DescId) -> bool {
        match self.faults.as_ref() {
            None => false,
            Some(f) => !matches!(
                f.running[w.0 as usize],
                Some((desc, _, end)) if desc == d && end == self.now
            ),
        }
    }

    /// Schedule the initial crash events of the machine's fault plan.
    /// Random up-spans come from the dedicated fault RNG in processor
    /// order; scripted crashes are scheduled in crash-instant order, with
    /// their down-spans queued per processor in the same order.
    pub(super) fn start_faults(&mut self) {
        if self.all_jobs_done() {
            return; // nothing will run: schedule no fault stream
        }
        let now = self.now;
        let procs = self.cfg.processors;
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        f.avail.add(now, procs as i32);
        match &f.model {
            FaultModel::Random {
                time_to_failure, ..
            } => {
                for w in 0..procs {
                    let up = time_to_failure.sample(&mut f.rng).ticks().max(1);
                    self.events.schedule(
                        now + SimDuration(up),
                        Ev::Crash {
                            worker: WorkerId(w as u32),
                        },
                    );
                }
            }
            FaultModel::Scripted(evs) => {
                for e in evs {
                    f.scripted[e.processor].push_back(e.repair_after);
                    self.events.schedule(
                        SimTime(e.crash_at),
                        Ev::Crash {
                            worker: WorkerId(e.processor as u32),
                        },
                    );
                }
            }
        }
    }

    /// A processor goes down. Preempts any in-flight task (the lost range
    /// re-enters dispatch per the retry policy), removes the worker from
    /// circulation, and schedules the repair. Once every job is done the
    /// stream stops renewing itself, so the calendar always drains.
    pub(super) fn on_crash(&mut self, w: WorkerId) {
        let wi = w.0 as usize;
        let all_done = self.all_jobs_done();
        let f = self
            .faults
            .as_mut()
            .expect("crash event without a fault plan");
        // The event's scripted span must be consumed even when the crash
        // itself is ignored, to keep the span queue aligned.
        let scripted_span = match &f.model {
            FaultModel::Scripted(_) => Some(
                f.scripted[wi]
                    .pop_front()
                    .expect("scheduled crash has a queued span"),
            ),
            FaultModel::Random { .. } => None,
        };
        if all_done || f.down[wi] {
            return;
        }
        f.down[wi] = true;
        f.crashes += 1;
        f.avail.add(self.now, -1);
        let down_span: Option<u64> = match scripted_span {
            Some(span) => span,
            None => {
                let FaultModel::Random { time_to_repair, .. } = &f.model else {
                    unreachable!("non-scripted crash under a scripted model")
                };
                Some(time_to_repair.sample(&mut f.rng).ticks().max(1))
            }
        };
        match f.running[wi].take() {
            Some((d, start, end)) => self.preempt_lost_task(w, d, start, end),
            None => {
                // Idle (or mid-seek) worker: pull it off the idle stack so
                // wake-ups cannot hand work to a dead processor; an
                // in-flight seek is dropped by the `on_seek` guard.
                if let Some(pos) = self.idle_workers.iter().position(|&x| x == w) {
                    self.idle_workers.remove(pos);
                }
                // A worker parked on a resource pool likewise leaves the
                // park list (its wait ends at the crash); the repair event
                // re-seeks it, and it re-parks if the pool is still dry.
                if let Some(h) = self.hetero.as_mut() {
                    if let Some(pos) = h.parked.iter().position(|&(x, _, _)| x == w) {
                        let (_, since, pool) = h.parked.remove(pos);
                        let waited = self.now.since(since);
                        h.pool_wait_ticks[pool as usize] += waited;
                    }
                }
            }
        }
        if let Some(ticks) = down_span {
            self.events
                .schedule(self.now + SimDuration(ticks), Ev::Repair { worker: w });
        }
    }

    /// Reverse the dispatch-time accounting of a preempted task and route
    /// its granule range per the retry policy. The busy trace keeps the
    /// span the worker really computed (start → crash) — that time is
    /// *lost work*, counted separately from useful compute — while the
    /// Gantt trace drops the task's compute span: it never finished, and
    /// its granules get their real span when they are reissued.
    fn preempt_lost_task(&mut self, w: WorkerId, d: DescId, start: SimTime, end: SimTime) {
        let exec = end.since(start);
        // Tokens held by the preempted task return immediately — before
        // the retry policy can abort the run — so a crash never leaks
        // pool capacity, whatever the policy decides.
        self.release_tokens(w);
        if let Some(h) = self.hetero.as_mut() {
            if let Some(c) = h.class_idx(w) {
                // Reverse the per-class useful-compute accounting exactly
                // as `compute_total` below; the span really computed is
                // lost work, not utilization.
                h.class_busy[c] -= exec;
            }
        }
        // The crash can land before the task's compute even started (the
        // dispatch service was still queued): nothing was computed then.
        // This `-1` stands in for the one the completion, now stale,
        // will never add.
        let cancel_from = start.max(self.now);
        self.computing.add(cancel_from, -1);
        self.compute_total -= exec;
        self.gantt.retract_last(w.0);
        let f = self
            .faults
            .as_mut()
            .expect("preemption without a fault plan");
        f.lost_work += cancel_from.since(start);
        let retry = f.retry;
        let attempts = match f.attempts.iter_mut().find(|(id, _)| *id == d) {
            Some(e) => {
                e.1 += 1;
                e.1
            }
            None => {
                f.attempts.push((d, 1));
                1
            }
        };
        if let RetryPolicy::Bounded { max_attempts } = retry {
            if attempts > max_attempts {
                let job = self.arena.job(d).0 as usize;
                let detail = format!(
                    "descriptor lost to processor crashes {attempts} times \
                     (reissue budget {max_attempts})"
                );
                self.abort
                    .get_or_insert(EngineError::JobAborted { job, detail });
                return;
            }
        }
        self.faults.as_mut().expect("fault plan present").retries += 1;
        let class = self.arena.class(d);
        let job = self.arena.job(d);
        self.arena.set_state(d, DescState::Waiting);
        self.waiting.push_front(d, class, job);
        self.wake_workers(1);
    }

    /// A processor comes back up: rejoin the pool (via a fresh seek),
    /// and — under the random model — draw the next up-span.
    pub(super) fn on_repair(&mut self, w: WorkerId) {
        let wi = w.0 as usize;
        let all_done = self.all_jobs_done();
        let f = self
            .faults
            .as_mut()
            .expect("repair event without a fault plan");
        if !f.down[wi] {
            debug_assert!(false, "repair of an up processor");
            return;
        }
        f.down[wi] = false;
        f.avail.add(self.now, 1);
        if !all_done {
            if let FaultModel::Random {
                time_to_failure, ..
            } = &f.model
            {
                let up = time_to_failure.sample(&mut f.rng).ticks().max(1);
                self.events
                    .schedule(self.now + SimDuration(up), Ev::Crash { worker: w });
            }
        }
        self.events.schedule(self.now, Ev::Seek(w));
    }
}
