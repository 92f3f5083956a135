//! **E8 — the reverse-indirect engineering judgment.**
//!
//! Paper: "Some engineering judgement must be made to weigh the cost (in
//! terms of management overhead, computational resource transferred from
//! workers to management, etc.) of some reverse enablement mapping
//! solution against the cost of computational rundown in 9 percent of the
//! parallel computational phases. ... extensive composite granule map
//! generation could be self defeating. Some real parallel machines may
//! provide separate executive computing resources, in which case the
//! generation and use of composite granule maps would not be out of the
//! question." Plus: build the map *after* getting the current phase into
//! execution, and "identify a subset group of successor-phase granules
//! ... so as to avoid solving an unnecessarily large enablement problem."
//!
//! Grid of configurations over the paper's `IMAP(J,I), J=1..10` fragment:
//! subset vs full enablement problems, cheap vs costly maps, background vs
//! immediate construction, worker-stealing vs dedicated executives.

use crate::table::{f2, pct, Table};
use pax_core::mapping::EnablementMapping;
use pax_core::prelude::*;
use pax_sim::machine::{ExecutivePlacement, MachineConfig, ManagementCosts};
use pax_workloads::fragments::fragment_reverse;
use std::sync::Arc;

/// One configuration's outcome.
#[derive(Debug)]
pub struct E8Row {
    /// Description.
    pub config: String,
    /// Makespan (ticks).
    pub makespan: u64,
    /// Utilization.
    pub utilization: f64,
    /// Management time (ticks).
    pub mgmt_time: u64,
    /// Successor granules that ran during the predecessor.
    pub overlap_granules: u64,
}

/// Results of E8.
#[derive(Debug)]
pub struct E8Result {
    /// Strict-barrier baseline makespan.
    pub strict_makespan: u64,
    /// Rows, in the order described in the module docs.
    pub rows: Vec<E8Row>,
}

/// Run E8.
pub fn run(quick: bool) -> E8Result {
    let processors = 16;
    let n = if quick { 240u32 } else { 720 };
    let fan = 10; // the paper's J=1,10
    let mean = 300u64;
    let (_prog, rmap) = fragment_reverse(n, fan, 0xE8);
    let mapping = EnablementMapping::ReverseIndirect(Arc::new(rmap));

    let build = |with_enable: bool| {
        let cost = || CostModel::new(DurationDist::uniform(mean / 2, mean * 3 / 2));
        let phases = vec![
            PhaseDef::new("A(I)=FUNC(I)", n, cost()),
            PhaseDef::new("B(I)=SUM A(IMAP(J,I))", n, cost()),
        ];
        let edge = if with_enable {
            mapping.clone()
        } else {
            EnablementMapping::Null
        };
        Program::chain(phases, vec![edge]).unwrap()
    };

    let run_with = |with_enable: bool,
                    placement: ExecutivePlacement,
                    map_cost: u64,
                    subset: u32,
                    build_timing: CompositeBuild| {
        let mut costs = ManagementCosts::pax_default();
        costs.composite_map_per_entry = pax_sim::SimDuration(map_cost);
        let machine = MachineConfig::new(processors)
            .with_executive(placement)
            .with_costs(costs);
        let policy = if with_enable {
            OverlapPolicy::overlap()
                .with_indirect_subset(subset)
                .with_composite_build(build_timing)
        } else {
            OverlapPolicy::strict()
        };
        let mut sim = Simulation::new(machine, policy).with_seed(0xE8);
        sim.add_job(build(with_enable));
        sim.run().expect("E8 run")
    };

    let strict = run_with(
        false,
        ExecutivePlacement::StealsWorker,
        1,
        u32::MAX,
        CompositeBuild::Background,
    );

    let subset = (processors as u32) * 2;
    let mut rows = Vec::new();
    let mut push = |config: &str, r: RunReport| {
        rows.push(E8Row {
            config: config.into(),
            makespan: r.makespan.ticks(),
            utilization: r.utilization(),
            mgmt_time: r.mgmt_time.ticks(),
            overlap_granules: r.total_overlap_granules(),
        });
    };

    use ExecutivePlacement::{Dedicated, StealsWorker};
    push(
        "subset 2P, cheap map (x1), background",
        run_with(true, StealsWorker, 1, subset, CompositeBuild::Background),
    );
    push(
        "full subset, cheap map (x1), background",
        run_with(true, StealsWorker, 1, u32::MAX, CompositeBuild::Background),
    );
    push(
        "subset 2P, costly map (x50), background",
        run_with(true, StealsWorker, 50, subset, CompositeBuild::Background),
    );
    push(
        "subset 2P, costly map (x50), IMMEDIATE (paper warns)",
        run_with(true, StealsWorker, 50, subset, CompositeBuild::Immediate),
    );
    push(
        "subset 2P, map x10, background, steals worker",
        run_with(true, StealsWorker, 10, subset, CompositeBuild::Background),
    );
    push(
        "subset 2P, map x10, background, dedicated exec",
        run_with(true, Dedicated, 10, subset, CompositeBuild::Background),
    );

    E8Result {
        strict_makespan: strict.makespan.ticks(),
        rows,
    }
}

impl std::fmt::Display for E8Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E8 — reverse-indirect cost/benefit (strict baseline {})",
            self.strict_makespan
        )?;
        let mut t = Table::new(&[
            "configuration",
            "makespan",
            "vs strict",
            "utilization",
            "mgmt",
            "ovl granules",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.config.clone(),
                r.makespan.to_string(),
                f2(self.strict_makespan as f64 / r.makespan as f64),
                pct(r.utilization * 100.0),
                r.mgmt_time.to_string(),
                r.overlap_granules.to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_with_cheap_map_beats_strict() {
        let r = run(true);
        let best = &r.rows[0];
        assert!(
            best.makespan < r.strict_makespan,
            "subset+cheap ({}) must beat strict ({})",
            best.makespan,
            r.strict_makespan
        );
        assert!(best.overlap_granules > 0);
    }

    #[test]
    fn costly_background_build_is_self_defeating_but_bounded() {
        let r = run(true);
        let costly_bg = &r.rows[2];
        // The map never finishes in time: no overlap materializes, but the
        // chunked background build keeps the damage bounded.
        assert_eq!(costly_bg.overlap_granules, 0);
        assert!(
            costly_bg.makespan < r.strict_makespan * 115 / 100,
            "background build must stay bounded: {} vs strict {}",
            costly_bg.makespan,
            r.strict_makespan
        );
    }

    #[test]
    fn immediate_costly_build_delays_the_current_phase() {
        let r = run(true);
        let immediate = &r.rows[3];
        let background = &r.rows[2];
        // "it would seem wise to get the current phase into execution
        // without the delay of constructing the necessary information"
        assert!(
            immediate.makespan > background.makespan * 2,
            "immediate {} should be far worse than background {}",
            immediate.makespan,
            background.makespan
        );
    }

    #[test]
    fn dedicated_executive_absorbs_map_cost() {
        let r = run(true);
        let stealing = &r.rows[4];
        let dedicated = &r.rows[5];
        assert!(
            dedicated.makespan <= stealing.makespan,
            "dedicated ({}) should not lose to worker-stealing ({})",
            dedicated.makespan,
            stealing.makespan
        );
    }
}
