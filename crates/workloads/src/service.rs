//! Open-system service workloads: streaming job admission.
//!
//! The batch workloads submit every job at time zero and measure the
//! makespan of the closed set — the paper's own experimental frame. A
//! *service* workload instead feeds a long-lived machine a stream of job
//! arrivals (Poisson by default) and measures what an operator of such a
//! machine would: admission→completion latency percentiles and
//! steady-state throughput, with completed program instances evicted so
//! memory stays bounded by the in-flight population rather than the
//! stream length.
//!
//! [`ServiceConfig::simulation`] assembles the stream on top of the same
//! two-phase identity-mapped rundown job the fleet workloads use, so
//! service results are directly comparable to the batch sweeps. With
//! `mean_gap = 0` every arrival lands at time zero and the run reduces
//! exactly to the closed system (the equivalence suite pins this).

use crate::fleet::{demand_split, identity_pair};
use pax_core::policy::OverlapPolicy;
use pax_core::program::Program;
use pax_core::Simulation;
use pax_sim::dist::ArrivalProcess;
use pax_sim::machine::{AdmissionPolicy, MachineConfig};

/// A stream of identical jobs arriving at a machine held in service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total jobs in the arrival stream (split round-robin over groups).
    pub jobs: usize,
    /// Mean inter-arrival gap in ticks (Poisson process). `0` degenerates
    /// to all-arrivals-at-time-zero — the closed batch system.
    pub mean_gap: u64,
    /// Number of machine groups the stream is spread over (each group is
    /// one replica of the machine config with its own arrival stream).
    pub groups: usize,
    /// Granules per phase, per job (two phases per job).
    pub granules_per_job: u32,
    /// Constant granule cost in ticks.
    pub granule_cost: u64,
    /// Worker-task size in granules.
    pub task_size: u32,
    /// How the executive treats arrivals beyond capacity.
    pub admission: AdmissionPolicy,
}

impl ServiceConfig {
    /// A single-machine Poisson stream: `jobs` arrivals with the given
    /// mean gap, accept-all admission, modest per-job work.
    pub fn poisson(jobs: usize, mean_gap: u64) -> ServiceConfig {
        ServiceConfig {
            jobs,
            mean_gap,
            groups: 1,
            granules_per_job: 32,
            granule_cost: 100,
            task_size: 16,
            admission: AdmissionPolicy::AcceptAll,
        }
    }

    /// Spread the stream over `groups` machine replicas.
    pub fn with_groups(mut self, groups: usize) -> ServiceConfig {
        self.groups = groups;
        self
    }

    /// Select the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> ServiceConfig {
        self.admission = admission;
        self
    }

    /// One job's program: two identity-mapped phases, overlapping through
    /// the rundown (the fleet workloads' shape, for comparability).
    pub fn program(&self) -> Program {
        identity_pair(["svc-a", "svc-z"], self.granules_per_job, self.granule_cost)
    }

    /// The overlap policy the service runs under.
    pub fn policy(&self) -> OverlapPolicy {
        demand_split(self.task_size)
    }

    /// Jobs routed to group `g` (round-robin remainder-first split).
    pub fn jobs_in_group(&self, g: usize) -> usize {
        let base = self.jobs / self.groups;
        let extra = usize::from(g < self.jobs % self.groups);
        base + extra
    }

    /// Assemble the full service simulation on `machine` (the configured
    /// admission policy overrides the machine's; eviction is always on —
    /// a service run must not grow with the stream length).
    pub fn simulation(&self, machine: MachineConfig, seed: u64) -> Simulation {
        assert!(self.groups >= 1, "a service fleet needs at least one group");
        assert!(self.jobs >= 1, "a service stream needs at least one job");
        let machine = machine.with_admission(self.admission);
        let mut sim = Simulation::new(machine, self.policy())
            .with_seed(seed)
            .with_eviction();
        let program = self.program();
        for g in 0..self.groups {
            let count = self.jobs_in_group(g);
            if count == 0 {
                continue;
            }
            let process = if self.mean_gap == 0 {
                // Degenerate closed system: everything arrives at zero.
                ArrivalProcess::trace(vec![pax_sim::SimTime::ZERO; count])
            } else {
                ArrivalProcess::poisson(self.mean_gap)
            };
            sim.add_job_stream_in_group(program.clone(), process, count, g);
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_service_reports_latency_and_bounded_instances() {
        let cfg = ServiceConfig::poisson(200, 400);
        let r = cfg.simulation(MachineConfig::new(8), 7).run().unwrap();
        assert_eq!(r.jobs.len(), 200);
        assert_eq!(r.jobs_completed(), 200);
        assert!(r.latency_p50().is_some());
        assert!(r.latency_p99() >= r.latency_p50());
        assert!(r.throughput() > 0.0);
        // Eviction keeps live instances bounded by concurrency, not by
        // the stream length (200 jobs × 2 phases = 400 without eviction).
        assert!(
            r.instances_peak < 400,
            "instances_peak {} must stay below the unevicted total",
            r.instances_peak
        );
    }

    #[test]
    fn zero_gap_stream_matches_the_closed_batch_run() {
        let cfg = ServiceConfig::poisson(12, 0);
        let service = cfg.simulation(MachineConfig::new(4), 7).run().unwrap();
        // Closed reference: same jobs submitted the classic way.
        let mut batch = Simulation::new(
            MachineConfig::new(4).with_admission(AdmissionPolicy::AcceptAll),
            cfg.policy(),
        )
        .with_seed(7);
        for _ in 0..12 {
            batch.add_job(cfg.program());
        }
        let batch = batch.run().unwrap();
        assert_eq!(service.events, batch.events);
        assert_eq!(service.makespan, batch.makespan);
        assert_eq!(service.busy_trace.points(), batch.busy_trace.points());
    }

    #[test]
    fn shed_admission_rejects_beyond_capacity() {
        let cfg = ServiceConfig::poisson(64, 1)
            .with_admission(AdmissionPolicy::Shed { max_in_flight: 2 });
        let r = cfg.simulation(MachineConfig::new(2), 11).run().unwrap();
        assert!(
            r.jobs_rejected > 0,
            "a gap-1 stream must overflow capacity 2"
        );
        assert_eq!(
            r.jobs_completed() + r.jobs_rejected as usize,
            64,
            "every arrival either completes or is shed"
        );
        // Rejected jobs carry no latency.
        assert!(r
            .jobs
            .iter()
            .filter(|j| j.rejected)
            .all(|j| j.latency().is_none()));
    }

    #[test]
    fn grouped_service_splits_the_stream() {
        let cfg = ServiceConfig::poisson(30, 300).with_groups(3);
        assert_eq!((0..3).map(|g| cfg.jobs_in_group(g)).sum::<usize>(), 30);
        let r = cfg.simulation(MachineConfig::new(4), 7).run().unwrap();
        assert_eq!(r.jobs_completed(), 30);
        assert_eq!(r.processors, 12);
    }
}
