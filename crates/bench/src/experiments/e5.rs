//! **E5 — the computation-to-management ratio.**
//!
//! Paper claim: "Operational experience shows that the ratio of
//! computation to management has been running at something in the
//! neighborhood of 200." and the worry that matters: "executive
//! computation was done at the direct expense of worker computation"
//! (UNIVAC 1100), with "a middle management scheme to parallelize the
//! serial management function" listed as a strategy under development.
//!
//! The experiment runs the CASPER pipeline under PAX-like management
//! costs, sweeping granule size to locate the C/M ≈ 200 operating point,
//! then compares executive placements (worker-stealing vs dedicated) and
//! the middle-management extension (2 and 4 executive lanes).

use crate::table::{f2, pct, Table};
use pax_core::prelude::*;
use pax_sim::machine::{ExecutivePlacement, MachineConfig, ManagementCosts};
use pax_workloads::casper::CasperConfig;

/// One row of the granule-size sweep.
#[derive(Debug)]
pub struct E5SizeRow {
    /// Mean granule cost in ticks.
    pub mean_cost: u64,
    /// Measured computation-to-management ratio.
    pub comp_to_mgmt: f64,
    /// Utilization.
    pub utilization: f64,
    /// Makespan.
    pub makespan: u64,
}

/// One row of the placement/lanes comparison.
#[derive(Debug)]
pub struct E5PlacementRow {
    /// Description of the arrangement.
    pub arrangement: String,
    /// Makespan (ticks).
    pub makespan: u64,
    /// Utilization.
    pub utilization: f64,
    /// Management time (ticks).
    pub mgmt_time: u64,
    /// C/M ratio.
    pub comp_to_mgmt: f64,
}

/// Results of E5.
#[derive(Debug)]
pub struct E5Result {
    /// Granule-size sweep.
    pub size_sweep: Vec<E5SizeRow>,
    /// Placement comparison at the ≈200 operating point.
    pub placements: Vec<E5PlacementRow>,
}

/// Run E5.
pub fn run(quick: bool) -> E5Result {
    let processors = 16;
    let granules = if quick { 64 } else { 240 };
    let costs = ManagementCosts::pax_default();

    let run_casper = |mean_cost: u64, machine: MachineConfig| {
        let cfg = CasperConfig {
            granules,
            iterations: 1,
            mean_cost,
            serial_ticks: mean_cost,
            ..CasperConfig::default()
        };
        let mut sim = Simulation::new(machine, OverlapPolicy::overlap()).with_seed(0xE5);
        sim.add_job(cfg.build(true));
        sim.run().expect("E5 run")
    };

    let mut size_sweep = Vec::new();
    for &mean_cost in &[50u64, 100, 200, 400, 800, 1600] {
        let machine = MachineConfig::new(processors)
            .with_executive(ExecutivePlacement::StealsWorker)
            .with_costs(costs.clone());
        let r = run_casper(mean_cost, machine);
        size_sweep.push(E5SizeRow {
            mean_cost,
            comp_to_mgmt: r.comp_to_mgmt_ratio(),
            utilization: r.utilization(),
            makespan: r.makespan.ticks(),
        });
    }

    // Operating point nearest C/M = 200.
    let op = size_sweep
        .iter()
        .min_by(|a, b| {
            (a.comp_to_mgmt - 200.0)
                .abs()
                .partial_cmp(&(b.comp_to_mgmt - 200.0).abs())
                .unwrap()
        })
        .map(|r| r.mean_cost)
        .unwrap_or(100);

    let mut placements = Vec::new();
    let arrangements: Vec<(String, MachineConfig)> = vec![
        (
            "steals-worker (UNIVAC 1100)".into(),
            MachineConfig::new(processors)
                .with_executive(ExecutivePlacement::StealsWorker)
                .with_costs(costs.clone()),
        ),
        (
            "dedicated executive".into(),
            MachineConfig::new(processors)
                .with_executive(ExecutivePlacement::Dedicated)
                .with_costs(costs.clone()),
        ),
        (
            "dedicated, 2 lanes (middle mgmt)".into(),
            MachineConfig::new(processors)
                .with_executive(ExecutivePlacement::Dedicated)
                .with_costs(costs.clone())
                .with_executive_lanes(2),
        ),
        (
            "dedicated, 4 lanes (middle mgmt)".into(),
            MachineConfig::new(processors)
                .with_executive(ExecutivePlacement::Dedicated)
                .with_costs(costs.clone())
                .with_executive_lanes(4),
        ),
        (
            "hardware sync (free mgmt)".into(),
            MachineConfig::ideal(processors),
        ),
    ];
    for (name, machine) in arrangements {
        let r = run_casper(op, machine);
        placements.push(E5PlacementRow {
            arrangement: name,
            makespan: r.makespan.ticks(),
            utilization: r.utilization(),
            mgmt_time: r.mgmt_time.ticks(),
            comp_to_mgmt: r.comp_to_mgmt_ratio(),
        });
    }

    E5Result {
        size_sweep,
        placements,
    }
}

impl std::fmt::Display for E5Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "E5 — computation-to-management ratio (paper: ≈200)")?;
        let mut t = Table::new(&["granule cost", "C/M ratio", "utilization", "makespan"]);
        for r in &self.size_sweep {
            t.row(vec![
                r.mean_cost.to_string(),
                f2(r.comp_to_mgmt),
                pct(r.utilization * 100.0),
                r.makespan.to_string(),
            ]);
        }
        writeln!(f, "{}", t.render())?;
        writeln!(f, "executive placement at the ≈200 operating point:")?;
        let mut t2 = Table::new(&["arrangement", "makespan", "utilization", "mgmt time", "C/M"]);
        for r in &self.placements {
            t2.row(vec![
                r.arrangement.clone(),
                r.makespan.to_string(),
                pct(r.utilization * 100.0),
                r.mgmt_time.to_string(),
                if r.comp_to_mgmt.is_finite() {
                    f2(r.comp_to_mgmt)
                } else {
                    "inf".into()
                },
            ]);
        }
        write!(f, "{}", t2.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_grows_with_granule_size() {
        let r = run(true);
        for w in r.size_sweep.windows(2) {
            assert!(
                w[1].comp_to_mgmt > w[0].comp_to_mgmt,
                "C/M should grow with granule size: {} then {}",
                w[0].comp_to_mgmt,
                w[1].comp_to_mgmt
            );
        }
    }

    #[test]
    fn dedicated_executive_not_slower_than_stealing() {
        let r = run(true);
        let steal = &r.placements[0];
        let ded = &r.placements[1];
        assert!(ded.makespan <= steal.makespan);
        // middle management (more lanes) never hurts
        let l2 = &r.placements[2];
        let l4 = &r.placements[3];
        assert!(l2.makespan <= ded.makespan);
        assert!(l4.makespan <= l2.makespan);
        // hardware sync is the asymptote; allow a whisker of slack since
        // zero-cost management perturbs dispatch interleavings of the
        // stochastic workload
        let hw = &r.placements[4];
        assert!(hw.makespan as f64 <= l4.makespan as f64 * 1.01);
    }
}
