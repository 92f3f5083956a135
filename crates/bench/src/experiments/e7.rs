//! **E7 — successor-splitting strategies (control-strategies ablation).**
//!
//! The paper weighs three ways to keep queued identity successors in sync
//! with demand-driven splitting: split the successor inside the dispatch
//! ("the additional delays ... may represent an unacceptable situation"),
//! presplit everything ahead of idle workers, or detach the successor
//! into "a successor-splitting task that could be quickly queued for
//! later attention when the executive would again be idle."
//!
//! The experiment sweeps the split cost under all three strategies (plus
//! the elevate-released ablation) and reports makespans — presplitting
//! and successor-split tasks should dominate demand splitting as split
//! costs grow.

use crate::table::{pct, Table};
use pax_core::mapping::MappingKind;
use pax_core::prelude::*;
use pax_sim::machine::{ExecutivePlacement, MachineConfig, ManagementCosts};
use pax_workloads::generators::{CostShape, GeneratorConfig};

/// One (strategy, split-cost) cell.
#[derive(Debug)]
pub struct E7Row {
    /// Split strategy.
    pub strategy: SplitStrategy,
    /// Split cost scale factor applied to the default cost table.
    pub split_cost_scale: u64,
    /// Overlap makespan (ticks).
    pub makespan: u64,
    /// Utilization.
    pub utilization: f64,
    /// Total descriptor splits performed.
    pub splits: u64,
}

/// Results of E7.
#[derive(Debug)]
pub struct E7Result {
    /// All cells.
    pub rows: Vec<E7Row>,
    /// The elevate-released ablation: (elevated, makespan).
    pub elevate_ablation: Vec<(bool, u64)>,
}

/// Run E7.
pub fn run(quick: bool) -> E7Result {
    let processors = 16;
    let granules = if quick { 400 } else { 1600 };
    let cfg = GeneratorConfig {
        phases: 4,
        granules,
        mean_cost: 100,
        shape: CostShape::Jittered,
        mapping: MappingKind::Identity,
        reverse_fan: 4,
        seed: 0xE7,
    };
    let run_with = |strategy: SplitStrategy, scale: u64, elevate: bool| {
        let mut costs = ManagementCosts::pax_default();
        costs.split = costs.split * scale;
        let machine = MachineConfig::new(processors)
            .with_executive(ExecutivePlacement::StealsWorker)
            .with_costs(costs);
        let policy = OverlapPolicy::overlap()
            .with_split_strategy(strategy)
            .with_elevate_released(elevate);
        let mut sim = Simulation::new(machine, policy).with_seed(0xE7);
        sim.add_job(cfg.build());
        sim.run().expect("E7 run")
    };

    let mut rows = Vec::new();
    for strategy in [
        SplitStrategy::DemandSplit,
        SplitStrategy::PreSplit,
        SplitStrategy::SuccessorSplitTask,
    ] {
        for &scale in &[1u64, 8, 32, 128] {
            let r = run_with(strategy, scale, false);
            rows.push(E7Row {
                strategy,
                split_cost_scale: scale,
                makespan: r.makespan.ticks(),
                utilization: r.utilization(),
                splits: r.splits,
            });
        }
    }
    let elevate_ablation = vec![
        (
            false,
            run_with(SplitStrategy::SuccessorSplitTask, 8, false)
                .makespan
                .ticks(),
        ),
        (
            true,
            run_with(SplitStrategy::SuccessorSplitTask, 8, true)
                .makespan
                .ticks(),
        ),
    ];
    E7Result {
        rows,
        elevate_ablation,
    }
}

impl std::fmt::Display for E7Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E7 — successor-splitting strategy ablation (identity phases)"
        )?;
        let mut t = Table::new(&[
            "strategy",
            "split cost ×",
            "makespan",
            "utilization",
            "splits",
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{:?}", r.strategy),
                r.split_cost_scale.to_string(),
                r.makespan.to_string(),
                pct(r.utilization * 100.0),
                r.splits.to_string(),
            ]);
        }
        writeln!(f, "{}", t.render())?;
        writeln!(f, "released-successor placement (split cost ×8):")?;
        for (elevated, makespan) in &self.elevate_ablation {
            writeln!(
                f,
                "  {}: {makespan}",
                if *elevated {
                    "elevated ahead of current phase"
                } else {
                    "behind current phase (default)"
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(r: &E7Result, s: SplitStrategy, scale: u64) -> &E7Row {
        r.rows
            .iter()
            .find(|x| x.strategy == s && x.split_cost_scale == scale)
            .unwrap()
    }

    #[test]
    fn all_strategies_complete_and_agree_at_cheap_splits() {
        let r = run(true);
        let d = cell(&r, SplitStrategy::DemandSplit, 1).makespan;
        let p = cell(&r, SplitStrategy::PreSplit, 1).makespan;
        let s = cell(&r, SplitStrategy::SuccessorSplitTask, 1).makespan;
        let max = d.max(p).max(s) as f64;
        let min = d.min(p).min(s) as f64;
        assert!(
            max / min < 1.10,
            "cheap splits: {d} {p} {s} diverge too much"
        );
    }

    #[test]
    fn presplit_wins_at_extreme_split_costs() {
        // Presplitting does roughly half the splits of the other
        // strategies on identity chains (successor pieces pair with
        // already-task-sized current pieces), so it dominates when splits
        // are very expensive.
        let r = run(true);
        let pre = cell(&r, SplitStrategy::PreSplit, 128).makespan;
        let demand = cell(&r, SplitStrategy::DemandSplit, 128).makespan;
        let task = cell(&r, SplitStrategy::SuccessorSplitTask, 128).makespan;
        assert!(pre < demand, "presplit {pre} !< demand {demand}");
        assert!(pre < task, "presplit {pre} !< successor-task {task}");
        // presplit's split count is about half the demand strategy's
        let pre_splits = cell(&r, SplitStrategy::PreSplit, 1).splits;
        let demand_splits = cell(&r, SplitStrategy::DemandSplit, 1).splits;
        assert!(pre_splits * 2 <= demand_splits + 2);
    }

    #[test]
    fn successor_split_task_hides_moderate_split_latency() {
        // The paper's motivation: detaching the successor split into a
        // background task keeps it out of the dispatch path. At moderate
        // split costs this matches or beats splitting on demand.
        let r = run(true);
        let task = cell(&r, SplitStrategy::SuccessorSplitTask, 8).makespan;
        let demand = cell(&r, SplitStrategy::DemandSplit, 8).makespan;
        assert!(
            task as f64 <= demand as f64 * 1.02,
            "successor-split task ({task}) should not lose to demand ({demand})"
        );
    }

    #[test]
    fn elevating_released_successors_does_not_win() {
        let r = run(true);
        let behind = r.elevate_ablation[0].1;
        let ahead = r.elevate_ablation[1].1;
        assert!(
            behind <= ahead,
            "scheduling released successors behind the current phase \
             ({behind}) should not lose to elevating them ({ahead})"
        );
    }
}
