//! Service mode: the arrival feed, the machine's admission policy, the
//! run slots admitted jobs hold, and eviction of finished jobs' instances.

use super::{job_done, Engine, Ev, InstState, JobRun, NO_RUN};
use crate::ids::{JobId, WorkerId};
use pax_sim::machine::AdmissionPolicy;
use pax_sim::time::{SimDuration, SimTime};
use std::mem::take;

impl Engine {
    pub(crate) fn start(&mut self) {
        // The feed takes every later arrival: sized once, not by doubling.
        let later = self
            .reports
            .iter()
            .filter(|r| r.arrived_at != SimTime::ZERO);
        self.feed.reserve_exact(later.count());
        for j in 0..self.reports.len() {
            // `t = 0` arrivals are admitted directly: under the default
            // accept-all policy the event stream (and hence the whole
            // run) is bit-identical to the closed batch engine. Later
            // arrivals wait in the feed.
            let at = self.reports[j].arrived_at;
            if at == SimTime::ZERO {
                self.admit_or_queue(j);
            } else {
                self.feed.push((at, j));
            }
        }
        // Stable: coincident arrivals keep job-index order.
        self.feed.sort_by_key(|&(at, _)| at);
        for w in 0..self.cfg.processors {
            self.events
                .schedule(SimTime::ZERO, Ev::Seek(WorkerId(w as u32)));
        }
        self.start_faults();
    }

    /// Jobs admitted and not yet finished: the run slots taken.
    fn in_flight(&self) -> usize {
        self.runs.len() - self.free_runs.len()
    }

    /// Job `job` reached its arrival instant: apply the machine's
    /// admission policy.
    pub(super) fn admit_or_queue(&mut self, job: usize) {
        match self.cfg.admission {
            AdmissionPolicy::AcceptAll => self.admit_job(job),
            AdmissionPolicy::BoundedDefer { max_in_flight } => {
                if self.in_flight() < max_in_flight {
                    self.admit_job(job);
                } else {
                    self.deferred.push_back(job);
                }
            }
            AdmissionPolicy::Shed { max_in_flight } => {
                if self.in_flight() < max_in_flight {
                    self.admit_job(job);
                } else {
                    // Shed: the job never runs and takes no run slot.
                    // `rejected` keeps the drained calendar from reading
                    // as a deadlock; `finished_at` stays `None` so
                    // latency accounting skips it.
                    self.reports[job].rejected = true;
                    self.unfinished -= 1;
                    self.jobs_rejected += 1;
                }
            }
        }
    }

    /// Start `job` now: it takes a run slot (a recycled one when a
    /// finished job left one, its buffers kept), and its first dispatch
    /// enters the executive exactly as a batch job's would.
    fn admit_job(&mut self, job: usize) {
        let slot = self.free_runs.pop().unwrap_or_else(|| {
            self.runs.push(JobRun::default());
            (self.runs.len() - 1) as u32
        });
        let run = &mut self.runs[slot as usize];
        debug_assert!(run.instances.is_empty(), "a free slot lists no instances");
        run.pc = 0;
        run.counters.clear();
        run.counters.resize(self.programs[job].counters, 0);
        run.pending_successor = None;
        run.pending_serial_gap = SimDuration::ZERO;
        self.run_of[job] = slot;
        self.reports[job].started_at = self.now;
        self.run_program(job, 0);
    }

    /// The program of `job` reached `End`: record completion, recycle its
    /// instances under eviction, hand its run slot back, and let the
    /// admission policy pull the next deferred arrival through the freed
    /// place.
    pub(super) fn finish_job(&mut self, job: usize) {
        self.reports[job].finished_at = Some(self.now);
        self.unfinished -= 1;
        self.waiting.release(JobId(job as u32));
        let slot = std::mem::replace(&mut self.run_of[job], NO_RUN);
        if self.evict {
            self.evict_job_instances(slot);
        }
        self.free_runs.push(slot);
        if let Some(next) = self.deferred.pop_front() {
            self.admit_job(next);
        }
    }

    /// Whether every job has finished or been shed, from the running
    /// count rather than a scan of the job table.
    pub(super) fn all_jobs_done(&self) -> bool {
        debug_assert_eq!(
            self.unfinished,
            self.reports.iter().filter(|r| !job_done(r)).count(),
            "unfinished-job count out of sync with the report rows"
        );
        self.unfinished == 0
    }

    /// Return every instance listed by run slot `slot`, whose job just
    /// finished, to the free list: released set cleared in place
    /// (allocations kept), counter state dropped, instance marked
    /// [`InstState::Evicted`]. All of a job's instances die together, so
    /// no surviving predecessor/successor reference can dangle (those
    /// links never cross jobs). The emptied list stays with the slot.
    fn evict_job_instances(&mut self, slot: u32) {
        let mut ids = take(&mut self.runs[slot as usize].instances);
        for id in ids.drain(..) {
            let inst = &mut self.instances[id.0 as usize];
            if inst.state != InstState::Complete {
                // Every initiated successor is promoted (the lookahead
                // walks the path the job takes), so none should be left;
                // keep one rather than evict live state.
                debug_assert_eq!(inst.state, InstState::Initiated, "evicting live instance");
                continue;
            }
            debug_assert!(
                inst.live_descs.is_empty(),
                "complete instance has live descs"
            );
            inst.state = InstState::Evicted;
            inst.released.clear();
            inst.counter_state = None;
            self.free_instances.push(id.0);
        }
        self.runs[slot as usize].instances = ids;
    }
}
