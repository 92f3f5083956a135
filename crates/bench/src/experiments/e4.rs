//! **E4 — the two-tasks-per-processor rule.**
//!
//! Paper claim: "there should be at the outset of the current-phase work
//! at least two tasks for each processor so that at least one task
//! execution time will be available to process the completion of the
//! first task assigned to the processor and to schedule the enabled
//! next-phase task. ... it assumes that one such completion, enablement,
//! and scheduling cycle for each of the processors in the system can be
//! completed in a single task execution time."
//!
//! The experiment sweeps the tasks-per-processor ratio under non-zero
//! management costs (dedicated serial executive) and measures where
//! overlap stops being able to hide completion/enablement/scheduling
//! work. At ratio < 2 the executive has no slack: the first completions
//! arrive while every processor still holds only its first task, so
//! enabled successors queue behind a service burst and the rundown dip
//! persists; at ≥ 2 the dip closes.

use crate::table::{f2, pct, Table};
use pax_core::mapping::MappingKind;
use pax_core::prelude::*;
use pax_sim::machine::{MachineConfig, ManagementCosts};
use pax_workloads::generators::{CostShape, GeneratorConfig};

/// One sweep row.
#[derive(Debug)]
pub struct E4Row {
    /// Tasks-per-processor ratio at phase outset.
    pub ratio: f64,
    /// Resulting task size in granules.
    pub task_granules: u32,
    /// Overlap makespan (ticks).
    pub makespan: u64,
    /// Utilization.
    pub utilization: f64,
    /// Idle processor-ticks in rundown windows, summed over phases.
    pub rundown_idle: u64,
    /// Computation-to-management ratio.
    pub comp_to_mgmt: f64,
}

/// Results of E4.
#[derive(Debug)]
pub struct E4Result {
    /// Processor count.
    pub processors: usize,
    /// Sweep rows.
    pub rows: Vec<E4Row>,
    /// Barrier baseline makespan at ratio 2.0 (for context).
    pub strict_makespan: u64,
}

/// Run E4.
pub fn run(quick: bool) -> E4Result {
    let processors = 16;
    let granules = if quick { 480 } else { 1920 };
    let cfg = GeneratorConfig {
        phases: 4,
        granules,
        mean_cost: 200,
        shape: CostShape::Jittered,
        mapping: MappingKind::Identity,
        reverse_fan: 4,
        seed: 0xE4,
    };
    // Management heavy enough to matter: one completion+dispatch cycle
    // is ~2% of a task time at ratio 2.
    let costs = ManagementCosts::pax_default().scaled(8);
    let machine = MachineConfig::new(processors).with_costs(costs);

    let program = cfg.build();
    let run_with = |ratio: f64, policy: OverlapPolicy| {
        let policy = policy.with_sizing(TaskSizing::TasksPerProcessor(ratio));
        let mut sim = Simulation::new(machine.clone(), policy).with_seed(0xE4);
        sim.add_job(program.clone());
        sim.run().expect("E4 run")
    };

    let strict = run_with(2.0, OverlapPolicy::strict());
    let mut rows = Vec::new();
    for &ratio in &[0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0] {
        let r = run_with(ratio, OverlapPolicy::overlap());
        let rundown_idle: u64 = (0..r.phases.len())
            .filter_map(|i| r.rundown_of(i))
            .map(|w| w.idle_processor_time)
            .sum();
        rows.push(E4Row {
            ratio,
            task_granules: TaskSizing::TasksPerProcessor(ratio).task_granules(granules, processors),
            makespan: r.makespan.ticks(),
            utilization: r.utilization(),
            rundown_idle,
            comp_to_mgmt: r.comp_to_mgmt_ratio(),
        });
    }
    E4Result {
        processors,
        rows,
        strict_makespan: strict.makespan.ticks(),
    }
}

impl std::fmt::Display for E4Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E4 — tasks-per-processor sweep, {} processors (strict baseline @2.0: {})",
            self.processors, self.strict_makespan
        )?;
        let mut t = Table::new(&[
            "tasks/proc",
            "task size",
            "makespan",
            "vs strict",
            "utilization",
            "rundown idle",
            "C/M",
        ]);
        for r in &self.rows {
            t.row(vec![
                f2(r.ratio),
                r.task_granules.to_string(),
                r.makespan.to_string(),
                f2(self.strict_makespan as f64 / r.makespan as f64),
                pct(r.utilization * 100.0),
                r.rundown_idle.to_string(),
                f2(r.comp_to_mgmt),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tasks_per_processor_is_enough() {
        let r = run(true);
        let at = |ratio: f64| {
            r.rows
                .iter()
                .find(|x| (x.ratio - ratio).abs() < 1e-9)
                .unwrap()
        };
        // The paper's guidance: ratio 2 must beat ratio 1 (and the strict
        // baseline), because a one-task-per-processor outset gives the
        // executive no slack to schedule enabled successors.
        assert!(
            at(2.0).makespan <= at(1.0).makespan,
            "ratio 2 ({}) should not lose to ratio 1 ({})",
            at(2.0).makespan,
            at(1.0).makespan
        );
        assert!(at(2.0).makespan < r.strict_makespan);
        // Diminishing returns beyond 2: going to 8 must not bring another
        // large win (tiny tasks pay more management).
        let gain_1_to_2 = at(1.0).makespan as f64 / at(2.0).makespan as f64;
        let gain_2_to_8 = at(2.0).makespan as f64 / at(8.0).makespan as f64;
        assert!(
            gain_2_to_8 < gain_1_to_2.max(1.04),
            "gain 2→8 {gain_2_to_8} unexpectedly exceeds 1→2 {gain_1_to_2}"
        );
    }

    #[test]
    fn utilization_healthy_at_recommended_ratio() {
        let r = run(true);
        let at2 = r
            .rows
            .iter()
            .find(|x| (x.ratio - 2.0).abs() < 1e-9)
            .unwrap();
        assert!(at2.utilization > 0.85, "utilization {}", at2.utilization);
    }
}
