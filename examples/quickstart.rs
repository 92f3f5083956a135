//! Quickstart: two identity-mapped phases, strict barriers vs overlap.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This is the paper's second Fortran fragment (`B(I)=A(I)` then
//! `C(I)=B(I)`) as a simulation: granule `i` of the second phase becomes
//! computable the moment granule `i` of the first completes, so the
//! second phase's work fills the first phase's rundown tail.

use pax_core::prelude::*;

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
    // 100 granules of ~100 ticks each on 8 processors: 100 = 12×8 + 4,
    // so each phase ends with a 4-granule final wave that idles half the
    // machine under strict barriers.
    let cost = CostModel::new(DurationDist::uniform(50, 150));
    let phases = ["B(I)=A(I)", "C(I)=B(I)"].map(|name| PhaseDef::new(name, 100, cost.clone()));
    let program = Program::chain(phases.into(), vec![EnablementMapping::Identity])?;

    let exec = |label: &str, policy: OverlapPolicy| {
        let mut sim = Simulation::new(MachineConfig::ideal(8), policy).with_seed(7);
        sim.add_job(program.clone());
        let report = sim.run()?;
        println!("== {label} ==");
        println!("{report}");
        Ok::<_, pax_core::engine::EngineError>(report)
    };

    let strict = exec("strict barriers", OverlapPolicy::strict())?;
    let overlap = exec("phase overlap", OverlapPolicy::overlap())?;

    let speedup = strict.makespan.ticks() as f64 / overlap.makespan.ticks() as f64;
    println!(
        "overlap executed {} successor granules during the first phase's rundown",
        overlap.total_overlap_granules()
    );
    println!(
        "makespan {} -> {} ({speedup:.3}x), utilization {:.1}% -> {:.1}%",
        strict.makespan.ticks(),
        overlap.makespan.ticks(),
        strict.utilization() * 100.0,
        overlap.utilization() * 100.0,
    );
    Ok(())
}
