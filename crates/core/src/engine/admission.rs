//! Service mode: the arrival feed, the machine's admission policy, and
//! eviction of finished jobs' instances.

use super::{Engine, Ev, InstState};
use crate::ids::{JobId, WorkerId};
use pax_sim::machine::AdmissionPolicy;
use pax_sim::time::SimTime;
use std::mem::take;

impl Engine {
    pub(crate) fn start(&mut self) {
        for j in 0..self.jobs.len() {
            // `t = 0` arrivals are admitted directly: under the default
            // accept-all policy the event stream (and hence the whole
            // run) is bit-identical to the closed batch engine. Later
            // arrivals wait in the feed.
            let at = self.jobs[j].arrived_at;
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

    /// Job `job` reached its arrival instant: apply the machine's
    /// admission policy.
    pub(super) fn admit_or_queue(&mut self, job: usize) {
        match self.cfg.admission {
            AdmissionPolicy::AcceptAll => self.admit_job(job),
            AdmissionPolicy::BoundedDefer { max_in_flight } => {
                if self.in_flight < max_in_flight {
                    self.admit_job(job);
                } else {
                    self.deferred.push_back(job);
                }
            }
            AdmissionPolicy::Shed { max_in_flight } => {
                if self.in_flight < max_in_flight {
                    self.admit_job(job);
                } else {
                    // Shed: the job never runs. `done` keeps the drained
                    // calendar from reading as a deadlock; `finished_at`
                    // stays `None` so latency accounting skips it.
                    self.jobs[job].rejected = true;
                    self.jobs[job].done = true;
                    self.jobs_rejected += 1;
                }
            }
        }
    }

    /// Start `job` now: its first dispatch enters the executive exactly
    /// as a batch job's would.
    fn admit_job(&mut self, job: usize) {
        self.in_flight += 1;
        if self.evict {
            if let Some(buf) = self.inst_list_pool.pop() {
                self.jobs[job].instances = buf;
            }
        }
        self.jobs[job].started_at = self.now;
        self.run_program(job, 0);
    }

    /// The program of `job` reached `End`: record completion, recycle its
    /// instances under eviction, and let the admission policy pull the
    /// next deferred arrival through the freed slot.
    pub(super) fn finish_job(&mut self, job: usize) {
        self.jobs[job].done = true;
        self.jobs[job].finished_at = Some(self.now);
        self.in_flight -= 1;
        self.waiting.release(JobId(job as u32));
        if self.evict {
            self.evict_job_instances(job);
        }
        if let Some(next) = self.deferred.pop_front() {
            self.admit_job(next);
        }
    }

    /// Return every instance of finished job `job` to the free list: released
    /// set cleared in place (allocations kept), counter state dropped,
    /// slot marked [`InstState::Evicted`]. All of a job's instances die
    /// together, so no surviving predecessor/successor reference can
    /// dangle (those links never cross jobs).
    fn evict_job_instances(&mut self, job: usize) {
        let mut ids = take(&mut self.jobs[job].instances);
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
        self.inst_list_pool.push(ids);
    }
}
