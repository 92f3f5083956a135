//! The paper's running example end to end: the checkerboard successive
//! over-relaxation solution of the potential field problem.
//!
//! ```text
//! cargo run --release --example checkerboard_sor
//! ```
//!
//! Three parts:
//! 1. the exact 1024²-grid / 1000-processor arithmetic from the paper's
//!    introduction (524 full waves, 288 leftover, 712 idle processors);
//! 2. a simulated comparison of strict barriers vs seam-mapped overlap
//!    (the extension the paper foresees as "a seam mapping problem");
//! 3. a *real* red–black SOR solve on OS threads, verifying the physics
//!    (convergence to the discrete harmonic solution) and showing the
//!    overlap filling rundown on actual hardware.

use pax_core::prelude::*;
use pax_runtime::{run_chain, RtPhase, RuntimeConfig, SharedF64};
use pax_workloads::checkerboard::{checkerboard_program, Checkerboard, Color, RedBlackGrid};
use std::sync::Arc;
use std::time::Duration;

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    part1_paper_arithmetic()?;
    part2_simulated_overlap()?;
    part3_real_threads();
    Ok(())
}

fn part1_paper_arithmetic() -> Result<(), Box<dyn std::error::Error>> {
    println!("== part 1: the paper's 1024²/1000-processor arithmetic ==");
    let board = Checkerboard::new(1024);
    let granules = board.granules(Color::Red);
    println!("granules per phase: {granules} (2^20 grid points, half per color)");
    println!(
        "on 1000 processors: {} full waves, {} left over -> {} processors idle in the final wave",
        granules / 1000,
        granules % 1000,
        1000 - granules % 1000
    );

    let program = checkerboard_program(1024, 2, CostModel::constant(100));
    let mut sim = Simulation::new(
        MachineConfig::ideal(1000),
        OverlapPolicy::strict().with_sizing(TaskSizing::Fixed(1)),
    );
    sim.add_job(program);
    let r = sim.run()?;
    let end = r.phases[0]
        .stats
        .completed_at
        .ok_or("the strict phase never completed")?;
    let final_busy = r.busy_trace.value_at(pax_sim::SimTime(end.ticks() - 50));
    println!(
        "simulated: final wave busy = {final_busy}, idle = {}, phase utilization {:.3}%\n",
        1000 - final_busy,
        r.utilization() * 100.0
    );
    Ok(())
}

fn part2_simulated_overlap() -> Result<(), Box<dyn std::error::Error>> {
    println!("== part 2: strict vs seam overlap (128² grid, 100 processors, 6 sweeps) ==");
    let program = checkerboard_program(128, 6, CostModel::constant(100));
    let exec = |policy: OverlapPolicy| {
        let policy = policy.with_sizing(TaskSizing::Fixed(8));
        let mut sim = Simulation::new(MachineConfig::ideal(100), policy);
        sim.add_job(program.clone());
        sim.run()
    };
    let strict = exec(OverlapPolicy::strict())?;
    let over = exec(OverlapPolicy::overlap())?;
    println!(
        "strict:  makespan {:>8}  utilization {:.2}%",
        strict.makespan.ticks(),
        strict.utilization() * 100.0
    );
    println!(
        "overlap: makespan {:>8}  utilization {:.2}%  ({} granules ran early)",
        over.makespan.ticks(),
        over.utilization() * 100.0,
        over.total_overlap_granules()
    );
    println!(
        "speedup {:.3}x\n",
        strict.makespan.ticks() as f64 / over.makespan.ticks() as f64
    );
    Ok(())
}

fn part3_real_threads() {
    println!("== part 3: real red–black SOR on OS threads ==");
    let n = 33; // grid side; interior (n-2)² cells relax
    let omega = 1.5;
    let sweeps = 60; // 30 red/black pairs

    // Reference sequential solve for correctness.
    let mut reference = RedBlackGrid::with_top_boundary(n, 100.0);
    for _ in 0..sweeps / 2 {
        reference.sweep(Color::Red, omega);
        reference.sweep(Color::Black, omega);
    }

    // Threaded solve: each sweep is a phase whose granules are the cells
    // of one color; seam maps gate each cell on its opposite-color
    // neighbors, which is exactly the enablement the paper derives for
    // the checkerboard.
    let board = Checkerboard::new(n);
    let grid = Arc::new(SharedF64::from_vec(
        RedBlackGrid::with_top_boundary(n, 100.0).values().to_vec(),
    ));
    let cells_of = |color: Color| -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if board.color(r, c) == color {
                    v.push((r, c));
                }
            }
        }
        v
    };
    let relax = move |grid: &SharedF64, r: usize, c: usize| {
        if r == 0 || c == 0 || r + 1 == n || c + 1 == n {
            return;
        }
        let idx = r * n + c;
        let avg =
            0.25 * (grid.get(idx - n) + grid.get(idx + n) + grid.get(idx - 1) + grid.get(idx + 1));
        grid.set(idx, grid.get(idx) + omega * (avg - grid.get(idx)));
    };

    let maps = [Color::Red, Color::Black]
        .map(|color| EnablementMapping::Seam(Arc::new(board.seam_map(color))));
    let phases: Vec<RtPhase> = (0..sweeps)
        .map(|s| {
            let color = if s % 2 == 0 { Color::Red } else { Color::Black };
            let cells = Arc::new(cells_of(color));
            let g = Arc::clone(&grid);
            let p = RtPhase::new(
                format!("sweep-{s}"),
                board.granules(color),
                Arc::new(move |granule| {
                    let (r, c) = cells[granule as usize];
                    relax(&g, r, c);
                    // make the granule's cost visible at thread scale
                    pax_runtime::spin_for(Duration::from_micros(3));
                }),
            );
            if s + 1 < sweeps {
                p.with_mapping(maps[s % 2].clone())
            } else {
                p
            }
        })
        .collect();

    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2)
        .clamp(2, 8);
    let report = run_chain(phases, RuntimeConfig::new(workers, 16));

    // Verify against the sequential reference.
    let mut max_err: f64 = 0.0;
    for (i, &expect) in reference.values().iter().enumerate() {
        max_err = max_err.max((grid.get(i) - expect).abs());
    }
    println!(
        "threads {workers}: wall {:?}, utilization {:.1}%, {} overlap granules",
        report.wall,
        report.utilization() * 100.0,
        report.total_overlap_granules()
    );
    println!("max |threaded − sequential| = {max_err:.3e} (seam enablement preserves the sweep order per cell)");
    assert!(
        max_err < 1e-9,
        "threaded SOR diverged from the sequential reference"
    );
    println!("solution verified against sequential red–black SOR ✓");
}
