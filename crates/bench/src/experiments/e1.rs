//! **E1 — the checkerboard rundown arithmetic.**
//!
//! Paper claim (introduction): with a 1024-points-per-side potential grid
//! (2²⁰ points) and 1000 processors, "each computational phase will
//! provide 524,288 individual computations, or 524 computations for each
//! of the 1000 processors; however, 288 computations will be left over
//! ... This will leave 712 processors with nothing to do while the final
//! 288 computations are carried out."
//!
//! The experiment reproduces the arithmetic exactly in simulation, then
//! shows what the paper's remedy (seam-mapped overlap, the extension it
//! foresees) recovers, and sweeps the granularity to show when rundown
//! actually hurts.

use crate::table::{f2, pct, Table};
use pax_core::prelude::*;
use pax_sim::dist::CostModel;
use pax_sim::machine::MachineConfig;
use pax_sim::SimTime;
use pax_workloads::checkerboard::{checkerboard_program, Checkerboard, Color};

/// Results of the E1 run.
#[derive(Debug)]
pub struct E1Result {
    /// Granules per phase (expect 524,288 at n=1024).
    pub granules_per_phase: u32,
    /// Whole waves per phase (expect 524).
    pub full_waves: u32,
    /// Leftover computations (expect 288).
    pub leftover: u32,
    /// Busy processors in the final wave measured from the simulation.
    pub final_wave_busy: u32,
    /// Idle processors in the final wave (expect 712).
    pub final_wave_idle: u32,
    /// Strict-barrier utilization over the two-phase run.
    pub strict_utilization: f64,
    /// Seam-overlap utilization.
    pub overlap_utilization: f64,
    /// Strict-barrier makespan in ticks.
    pub strict_makespan: u64,
    /// Overlap makespan in ticks.
    pub overlap_makespan: u64,
    /// Granularity sweep rows: (grid n, granules, waves, tail, strict
    /// utilization, overlap utilization).
    pub sweep: Vec<(usize, u32, u32, u32, f64, f64)>,
}

/// Run E1. `quick` shrinks the headline grid so debug-mode tests finish
/// fast; the sweep always runs at laptop scale.
pub fn run(quick: bool) -> E1Result {
    let (n, procs) = if quick { (64, 40) } else { (1024, 1000) };
    let board = Checkerboard::new(n);
    let granules = board.granules(Color::Red);
    let full_waves = granules / procs as u32;
    let leftover = granules % procs as u32;

    let cost = 100u64;
    let program = checkerboard_program(n, 2, CostModel::constant(cost));
    let run_once = |policy: OverlapPolicy| {
        let policy = policy.with_sizing(TaskSizing::Fixed(1));
        let mut sim = Simulation::new(MachineConfig::ideal(procs), policy);
        sim.add_job(program.clone());
        sim.run().expect("E1 run failed")
    };
    let strict = run_once(OverlapPolicy::strict());
    let overlapped = run_once(OverlapPolicy::overlap());

    // Final-wave occupancy: sample the busy trace just before phase 0's
    // completion.
    let phase_end = strict.phases[0].stats.completed_at.expect("phase done");
    let final_wave_busy = strict
        .busy_trace
        .value_at(SimTime(phase_end.ticks().saturating_sub(cost / 2)));
    let final_wave_idle = procs as u32 - final_wave_busy;

    // Granularity sweep at laptop scale: the same phase structure with
    // ever-smaller grids (fewer waves) makes the tail matter more.
    let sweep_procs = 100;
    let mut sweep = Vec::new();
    for sweep_n in [16usize, 24, 32, 48, 64, 96] {
        let b = Checkerboard::new(sweep_n);
        let g = b.granules(Color::Red);
        let waves = g.div_ceil(sweep_procs as u32);
        let tail = g % sweep_procs as u32;
        let program = checkerboard_program(sweep_n, 4, CostModel::constant(cost));
        let mk = |policy: OverlapPolicy| {
            let policy = policy.with_sizing(TaskSizing::Fixed(1));
            let mut sim = Simulation::new(MachineConfig::ideal(sweep_procs), policy);
            sim.add_job(program.clone());
            sim.run().expect("sweep run failed")
        };
        let s = mk(OverlapPolicy::strict());
        let o = mk(OverlapPolicy::overlap());
        sweep.push((sweep_n, g, waves, tail, s.utilization(), o.utilization()));
    }

    E1Result {
        granules_per_phase: granules,
        full_waves,
        leftover,
        final_wave_busy,
        final_wave_idle,
        strict_utilization: strict.utilization(),
        overlap_utilization: overlapped.utilization(),
        strict_makespan: strict.makespan.ticks(),
        overlap_makespan: overlapped.makespan.ticks(),
        sweep,
    }
}

impl std::fmt::Display for E1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E1 — checkerboard rundown (paper: 524 waves + 288 leftover, 712 idle)"
        )?;
        writeln!(
            f,
            "  granules/phase {}  waves {}  leftover {}  final-wave busy {}  idle {}",
            self.granules_per_phase,
            self.full_waves,
            self.leftover,
            self.final_wave_busy,
            self.final_wave_idle
        )?;
        writeln!(
            f,
            "  strict: makespan {}  utilization {}",
            self.strict_makespan,
            pct(self.strict_utilization * 100.0)
        )?;
        writeln!(
            f,
            "  seam overlap: makespan {}  utilization {}",
            self.overlap_makespan,
            pct(self.overlap_utilization * 100.0)
        )?;
        let mut t = Table::new(&[
            "grid",
            "granules",
            "waves",
            "tail",
            "util strict",
            "util overlap",
            "gain",
        ]);
        for &(n, g, w, tail, us, uo) in &self.sweep {
            t.row(vec![
                format!("{n}x{n}"),
                g.to_string(),
                w.to_string(),
                tail.to_string(),
                pct(us * 100.0),
                pct(uo * 100.0),
                f2(uo / us),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_arithmetic_holds() {
        let r = run(true);
        // 64×64 board: 2048 red cells on 40 procs = 51 waves + 8 leftover
        assert_eq!(r.granules_per_phase, 2048);
        assert_eq!(r.full_waves, 51);
        assert_eq!(r.leftover, 8);
        assert_eq!(r.final_wave_busy, 8);
        assert_eq!(r.final_wave_idle, 32);
        assert!(r.overlap_utilization >= r.strict_utilization);
        assert!(r.overlap_makespan <= r.strict_makespan);
    }

    #[test]
    fn sweep_shows_overlap_gain_grows_with_coarseness() {
        let r = run(true);
        // Coarser grids (fewer waves) leave more rundown on the table, so
        // the overlap gain should be at least as large at 16² as at 96².
        let first = r.sweep.first().unwrap();
        let last = r.sweep.last().unwrap();
        let gain_small = first.5 / first.4;
        let gain_large = last.5 / last.4;
        assert!(
            gain_small >= gain_large * 0.98,
            "gain at 16² {gain_small} vs 96² {gain_large}"
        );
    }
}
