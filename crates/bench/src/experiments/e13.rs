//! **E13 (extension) — serial-executive saturation at scale.**
//!
//! The paper's stated motivation for all of its management strategies:
//! "This paper is an effort to chart a method of improving upon this
//! situation so as to **stave off any backsliding that might occur as the
//! ratio of computational to management resources increases**." PAX's
//! management was serial; as the processor count grows with granule cost
//! held fixed, the executive must eventually saturate — every dispatch
//! and completion passes through one service lane.
//!
//! The experiment scales the machine from 16 to 1024 processors with
//! per-processor work held constant (weak scaling), and measures
//! utilization under:
//!
//! * the serial executive, worker-stealing (UNIVAC 1100 arrangement);
//! * the serial executive on a dedicated processor;
//! * 4 and 16 middle-management lanes (the paper's "middle management
//!   scheme to parallelize the serial management function");
//! * free management (hardware-synchronization bound).
//!
//! The knee is predictable: one phase of `waves × P` tasks costs the
//! executive `tasks × (dispatch + completion)` lane-ticks against a span
//! of `waves × granule_cost` compute-ticks, so a single lane saturates
//! near `P ≈ granule_cost / (dispatch + completion)`; `L` lanes push the
//! knee out `L`-fold. Overlap is kept on throughout — rundown filling is
//! orthogonal to management saturation, which this experiment isolates.

use crate::table::{f2, pct, Table};
use pax_core::mapping::MappingKind;
use pax_core::prelude::*;
use pax_sim::machine::{ExecutivePlacement, MachineConfig, ManagementCosts};
use pax_workloads::generators::{CostShape, GeneratorConfig};

/// One (processors, arrangement) cell.
#[derive(Debug)]
pub struct E13Row {
    /// Worker processors.
    pub processors: usize,
    /// Arrangement label.
    pub arrangement: &'static str,
    /// Makespan in ticks.
    pub makespan: u64,
    /// Worker utilization.
    pub utilization: f64,
    /// Computation-to-management ratio.
    pub comp_to_mgmt: f64,
    /// Weak-scaling efficiency vs the same arrangement at the smallest
    /// machine (1.0 = perfect weak scaling).
    pub efficiency: f64,
}

/// Results of E13.
#[derive(Debug)]
pub struct E13Result {
    /// All cells, grouped by arrangement then processors.
    pub rows: Vec<E13Row>,
    /// Waves of tasks per phase (weak-scaling constant).
    pub waves: u32,
}

const GRANULE_COST: u64 = 100;

/// Arrangements swept: label, executive placement, lanes, cost scale.
fn arrangements() -> Vec<(&'static str, ExecutivePlacement, usize, bool)> {
    vec![
        (
            "serial, steals worker",
            ExecutivePlacement::StealsWorker,
            1,
            false,
        ),
        ("serial, dedicated", ExecutivePlacement::Dedicated, 1, false),
        (
            "4 lanes, dedicated",
            ExecutivePlacement::Dedicated,
            4,
            false,
        ),
        (
            "16 lanes, dedicated",
            ExecutivePlacement::Dedicated,
            16,
            false,
        ),
        ("free management", ExecutivePlacement::Dedicated, 1, true),
    ]
}

/// Run E13.
pub fn run(quick: bool) -> E13Result {
    // weak scaling: granules = waves × processors, so ideal makespan is
    // constant across machine sizes
    let waves: u32 = if quick { 6 } else { 12 };
    let machines: &[usize] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024]
    };

    let mut rows = Vec::new();
    for (label, placement, lanes, free) in arrangements() {
        let mut base: Option<f64> = None;
        for &p in machines {
            let program = GeneratorConfig {
                phases: 3,
                granules: waves * p as u32,
                mean_cost: GRANULE_COST,
                shape: CostShape::Jittered,
                mapping: MappingKind::Identity,
                reverse_fan: 4,
                seed: 0xE13,
            }
            .build();
            let costs = if free {
                ManagementCosts::free()
            } else {
                ManagementCosts::pax_default()
            };
            let machine = MachineConfig::new(p)
                .with_executive(placement)
                .with_costs(costs)
                .with_executive_lanes(lanes);
            let mut sim = Simulation::new(machine, OverlapPolicy::overlap()).with_seed(0xE13);
            sim.add_job(program);
            let r = sim.run().expect("E13 run");
            // throughput per processor, normalized to this arrangement's
            // smallest machine
            let tput = r.compute_time.ticks() as f64 / (r.makespan.ticks() as f64 * p as f64);
            let eff = match base {
                None => {
                    base = Some(tput);
                    1.0
                }
                Some(b) => tput / b,
            };
            rows.push(E13Row {
                processors: p,
                arrangement: label,
                makespan: r.makespan.ticks(),
                utilization: r.utilization(),
                comp_to_mgmt: r.comp_to_mgmt_ratio(),
                efficiency: eff,
            });
        }
    }
    E13Result { rows, waves }
}

impl std::fmt::Display for E13Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E13 — executive saturation under weak scaling ({} waves/phase, \
             granule cost {GRANULE_COST})",
            self.waves
        )?;
        let mut t = Table::new(&[
            "arrangement",
            "processors",
            "makespan",
            "utilization",
            "C/M",
            "weak-scaling eff",
        ]);
        let mut last = "";
        for r in &self.rows {
            t.row(vec![
                if r.arrangement == last {
                    String::new()
                } else {
                    last = r.arrangement;
                    r.arrangement.to_string()
                },
                r.processors.to_string(),
                r.makespan.to_string(),
                pct(r.utilization * 100.0),
                if r.comp_to_mgmt.is_finite() {
                    f2(r.comp_to_mgmt)
                } else {
                    "inf".into()
                },
                f2(r.efficiency),
            ]);
        }
        writeln!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(r: &'a E13Result, arr: &str, p: usize) -> &'a E13Row {
        r.rows
            .iter()
            .find(|x| x.arrangement == arr && x.processors == p)
            .unwrap()
    }

    #[test]
    fn serial_executive_saturates_at_scale() {
        let r = run(true);
        let small = cell(&r, "serial, steals worker", 16);
        let large = cell(&r, "serial, steals worker", 256);
        assert!(
            large.efficiency < small.efficiency * 0.85,
            "serial management should backslide at 256 processors: \
             {:.3} vs {:.3}",
            large.efficiency,
            small.efficiency
        );
    }

    #[test]
    fn middle_management_lanes_stave_off_backsliding() {
        let r = run(true);
        let serial = cell(&r, "serial, dedicated", 256);
        let lanes4 = cell(&r, "4 lanes, dedicated", 256);
        let lanes16 = cell(&r, "16 lanes, dedicated", 256);
        assert!(
            lanes4.efficiency > serial.efficiency,
            "4 lanes ({:.3}) must beat serial ({:.3}) at 256 procs",
            lanes4.efficiency,
            serial.efficiency
        );
        assert!(
            lanes16.efficiency >= lanes4.efficiency * 0.98,
            "16 lanes ({:.3}) must not lose to 4 ({:.3})",
            lanes16.efficiency,
            lanes4.efficiency
        );
    }

    #[test]
    fn free_management_is_the_upper_bound() {
        let r = run(true);
        for p in [16usize, 64, 256] {
            let free = cell(&r, "free management", p);
            for arr in [
                "serial, steals worker",
                "serial, dedicated",
                "4 lanes, dedicated",
                "16 lanes, dedicated",
            ] {
                let x = cell(&r, arr, p);
                assert!(
                    free.utilization >= x.utilization - 0.02,
                    "free mgmt ({:.3}) must bound {arr} ({:.3}) at {p} procs",
                    free.utilization,
                    x.utilization
                );
            }
        }
    }

    #[test]
    fn comp_to_mgmt_ratio_is_scale_invariant_per_task() {
        // C/M depends on granule cost and per-task management, not on the
        // machine size: the ratio should stay in one band across the sweep.
        let r = run(true);
        let ratios: Vec<f64> = r
            .rows
            .iter()
            .filter(|x| x.arrangement == "serial, dedicated")
            .map(|x| x.comp_to_mgmt)
            .collect();
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().copied().fold(0.0, f64::max);
        assert!(
            max / min < 2.0,
            "C/M should not explode with machine size: {ratios:?}"
        );
    }
}
