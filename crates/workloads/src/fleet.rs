//! Fleet workloads: many machine groups for the sharded engine.
//!
//! The sharded core (`pax_core::shard`) distributes *machine groups* —
//! replicas of one configured machine, each running its own jobs — so a
//! workload has to opt into groups to scale past one shard. This module
//! provides the two canonical fleet shapes the shard-scaling sweeps and
//! the equivalence suite use:
//!
//! * [`FleetConfig::simulation`] with no stage latency — `groups`
//!   independent replicas, all admitted at time zero (an embarrassingly
//!   parallel sweep grid: the best case for sharding);
//! * with [`FleetConfig::stage_latency`] set — a pipeline
//!   `0 → 1 → ... → groups-1` of admission edges, giving the epoch
//!   coordinator real conservative windows to derive from the latency.

use pax_core::mapping::EnablementMapping;
use pax_core::phase::PhaseDef;
use pax_core::policy::{OverlapPolicy, SplitStrategy, TaskSizing};
use pax_core::program::Program;
use pax_core::Simulation;
use pax_sim::dist::CostModel;
use pax_sim::machine::MachineConfig;
use pax_sim::time::SimDuration;

/// A fleet of identical machine groups, each running one identity-mapped
/// two-phase rundown job (the shard-scaling workhorse shape).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of machine groups (each a replica of the machine config).
    pub groups: usize,
    /// Granules per phase, per group (each group runs two phases, so a
    /// group executes `2 × granules_per_group` granules).
    pub granules_per_group: u32,
    /// Constant granule cost in ticks.
    pub granule_cost: u64,
    /// Worker-task size in granules.
    pub task_size: u32,
    /// `Some(latency)` chains the groups `0 → 1 → …` with that admission
    /// latency (a staged campaign); `None` admits every group at time
    /// zero (independent fleet).
    pub stage_latency: Option<SimDuration>,
}

impl FleetConfig {
    /// An independent fleet: `groups` replicas, no admission edges.
    pub fn independent(groups: usize, granules_per_group: u32) -> FleetConfig {
        FleetConfig {
            groups,
            granules_per_group,
            granule_cost: 100,
            task_size: 16,
            stage_latency: None,
        }
    }

    /// A staged fleet: groups chained by admission edges of `latency`.
    pub fn staged(groups: usize, granules_per_group: u32, latency: SimDuration) -> FleetConfig {
        FleetConfig {
            stage_latency: Some(latency),
            ..FleetConfig::independent(groups, granules_per_group)
        }
    }

    /// One group's program: two identity-mapped phases, overlapping
    /// through the rundown exactly like the bench identity scenario.
    pub fn program(&self) -> Program {
        identity_pair(
            ["fleet-a", "fleet-z"],
            self.granules_per_group,
            self.granule_cost,
        )
    }

    /// The overlap policy the fleet runs under (demand splitting at the
    /// configured task size).
    pub fn policy(&self) -> OverlapPolicy {
        demand_split(self.task_size)
    }

    /// Assemble the full multi-group simulation on `machine` (whose
    /// `shards` policy decides how the groups are distributed).
    pub fn simulation(&self, machine: MachineConfig, seed: u64) -> Simulation {
        assert!(self.groups >= 1, "a fleet needs at least one group");
        let mut sim = Simulation::new(machine, self.policy()).with_seed(seed);
        let program = self.program();
        for g in 0..self.groups {
            sim.add_job_in_group(program.clone(), g);
        }
        if let Some(latency) = self.stage_latency {
            for g in 1..self.groups {
                sim.link_groups(g - 1, g, latency);
            }
        }
        sim
    }
}

/// The fleet and service job: phases `names[0]` then `names[1]`, each of
/// `granules` constant-`cost` granules, the second enabled by identity
/// from the first.
pub(crate) fn identity_pair(names: [&str; 2], granules: u32, cost: u64) -> Program {
    let phases = names.map(|name| PhaseDef::new(name, granules, CostModel::constant(cost)));
    Program::chain(phases.into(), vec![EnablementMapping::Identity])
        .expect("a two-phase identity job is statically valid")
}

/// Overlap with demand splitting at `task_size` granules a task: the
/// fleet and service policy.
pub(crate) fn demand_split(task_size: u32) -> OverlapPolicy {
    OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(task_size))
        .with_split_strategy(SplitStrategy::DemandSplit)
}

/// The canonical degraded-fleet fault plan used by the bench sweep and
/// chaos tests: exponential time-to-failure with a mean a little under
/// half a sweep fleet's group makespan (so every group sees a handful of
/// crashes per run) and a constant repair span, under the default
/// reissue-at-front retry policy. Per-processor fault streams derive
/// from the group seed, so the plan is bit-identical at every shard
/// count.
pub fn degraded_fault_plan() -> pax_sim::FaultPlan {
    pax_sim::FaultPlan::random(
        pax_sim::dist::DurationDist::exponential(40_000),
        pax_sim::dist::DurationDist::constant(7_500),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_fleet_runs_and_scales_shard_free() {
        let cfg = FleetConfig::independent(3, 64);
        let base = cfg.simulation(MachineConfig::new(4), 7).run().unwrap();
        assert_eq!(base.jobs.len(), 3);
        assert_eq!(base.processors, 12);
    }

    #[test]
    fn staged_fleet_serializes_group_starts() {
        let cfg = FleetConfig::staged(3, 32, SimDuration(25));
        let r = cfg.simulation(MachineConfig::new(4), 7).run().unwrap();
        // Each stage starts strictly after the previous one finished.
        for g in 1..3 {
            assert!(r.jobs[g].started_at > r.jobs[g - 1].finished_at.unwrap());
        }
    }
}
