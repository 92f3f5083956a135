//! The end of a run: the deadlock check and the [`RunReport`].

use super::{job_done, Engine, EngineError, InstState};
use crate::ids::InstanceId;
use crate::report::{ClassReport, PhaseReport, PoolReport, RunReport};
use pax_sim::machine::ExecutivePlacement;
use pax_sim::metrics::StepTrace;
use pax_sim::time::{SimDuration, SimTime};

impl Engine {
    /// Deadlock check plus report construction, once the calendar is dry.
    pub(crate) fn finish(mut self) -> Result<RunReport, EngineError> {
        if let Some(err) = self.abort.take() {
            return Err(err);
        }
        let unfinished: Vec<usize> = self
            .reports
            .iter()
            .enumerate()
            .filter(|(_, r)| !job_done(r))
            .map(|(i, _)| i)
            .collect();
        if !unfinished.is_empty() {
            let down = self
                .faults
                .as_ref()
                .map(|f| f.down.iter().filter(|&&d| d).count())
                .unwrap_or(0);
            let detail = format!(
                "waiting queue len {}, backlog {}, live descriptors {}, \
                 down processors {down}",
                self.waiting.len(),
                self.exec_backlog.len(),
                self.arena.live(),
            );
            return Err(EngineError::Deadlock {
                unfinished_jobs: unfinished,
                detail,
            });
        }
        Ok(self.build_report())
    }

    fn build_report(self) -> RunReport {
        let makespan = self.last_event_end.since(SimTime::ZERO);
        let busy_trace = self.computing.finish();
        let (avail_trace, lost_work, retries, crashes) = match self.faults {
            Some(f) => (f.avail.finish(), f.lost_work, f.retries, f.crashes),
            None => (StepTrace::new(), SimDuration::ZERO, 0, 0),
        };
        let (class_reports, pool_reports) = match self.hetero {
            Some(h) => (
                h.classes
                    .iter()
                    .enumerate()
                    .map(|(i, c)| ClassReport {
                        name: c.name.clone(),
                        processors: c.count,
                        speed_percent: c.speed_percent,
                        busy: h.class_busy[i],
                        tasks: h.class_tasks[i],
                    })
                    .collect(),
                h.pools
                    .iter()
                    .enumerate()
                    .map(|(i, p)| PoolReport {
                        name: p.name.clone(),
                        tokens: p.tokens,
                        waits: h.pool_waits[i],
                        wait_ticks: h.pool_wait_ticks[i],
                    })
                    .collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        // Evicted slots are holes, not phases: with eviction on, `phases`
        // holds only the instances still live when the run ended (the
        // recycled ones were reported through job latency accounting).
        let phases: Vec<PhaseReport> = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.state != InstState::Evicted)
            .map(|(i, inst)| PhaseReport {
                instance: InstanceId(i as u32),
                name: self.programs[inst.job].phases[inst.def.0 as usize]
                    .name
                    .clone(),
                job: inst.job as u32,
                granules: inst.granules,
                enabled_by: inst.enabled_by,
                stats: inst.stats.clone(),
            })
            .collect();
        RunReport {
            processors: self.cfg.processors,
            makespan,
            compute_time: self.compute_total,
            mgmt_time: self.mgmt_total,
            serial_time: self.serial_total,
            mgmt_steals_workers: self.cfg.executive == ExecutivePlacement::StealsWorker,
            busy_trace,
            avail_trace,
            lost_work,
            retries,
            crashes,
            phases,
            jobs: self.reports,
            jobs_rejected: self.jobs_rejected,
            instances_peak: self.instances.len(),
            events: self.events_processed,
            tasks_dispatched: self.tasks_dispatched,
            splits: self.splits,
            local_granules: self.local_granules,
            remote_granules: self.remote_granules,
            remote_stall: self.remote_stall,
            descriptors_created: self.arena.created_total(),
            descriptors_peak: self.arena.peak_live(),
            gantt: if self.gantt.is_enabled() {
                Some(self.gantt)
            } else {
                None
            },
            class_reports,
            pool_reports,
        }
    }
}
