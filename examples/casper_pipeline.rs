//! The synthetic CASPER pipeline: the paper's 22-phase Navier–Stokes
//! solver census, classified automatically and executed with overlap.
//!
//! ```text
//! cargo run --release --example casper_pipeline
//! ```

use pax_analyze::classify_program;
use pax_core::prelude::*;
use pax_workloads::casper::{casper_declared_census, CasperConfig, CASPER_PHASES};

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
    let cfg = CasperConfig {
        granules: 240,
        iterations: 2,
        mean_cost: 100,
        ..CasperConfig::default()
    };

    // --- census -------------------------------------------------------
    println!("== the PAX/CASPER census (paper table) ==");
    println!("{}", casper_declared_census());

    // --- automatic classification --------------------------------------
    println!("== classifier output over the array model ==");
    let model = cfg.array_model();
    let classes = classify_program(&model);
    let mut agree = 0;
    for (i, (_, _, cl)) in classes.iter().enumerate() {
        let (name, declared, _) = CASPER_PHASES[i];
        let ok = cl.kind == declared;
        agree += ok as usize;
        println!(
            "  {:>2} {:<24} declared {:<17} classified {:<17} {}",
            i + 1,
            name,
            declared.label(),
            cl.kind.label(),
            if ok { "✓" } else { "✗" }
        );
    }
    println!("  agreement: {agree}/22\n");

    // --- execution ------------------------------------------------------
    println!("== two time-steps on 16 processors (PAX costs, worker-stealing executive) ==");
    let machine = MachineConfig::new(16)
        .with_executive(ExecutivePlacement::StealsWorker)
        .with_costs(ManagementCosts::pax_default());
    let program = cfg.build(true);
    let exec = |policy| {
        let mut sim = Simulation::new(machine.clone(), policy).with_seed(0xCA5);
        sim.add_job(program.clone());
        sim.run()
    };
    let strict = exec(OverlapPolicy::strict())?;
    let over = exec(OverlapPolicy::overlap())?;
    println!(
        "strict:  makespan {:>9}  utilization {:>5.1}%  C/M {:>6.1}",
        strict.makespan.ticks(),
        strict.utilization() * 100.0,
        strict.comp_to_mgmt_ratio()
    );
    println!(
        "overlap: makespan {:>9}  utilization {:>5.1}%  C/M {:>6.1}  ({} granules ran early)",
        over.makespan.ticks(),
        over.utilization() * 100.0,
        over.comp_to_mgmt_ratio(),
        over.total_overlap_granules()
    );
    println!(
        "speedup {:.3}x across {} phase instances",
        strict.makespan.ticks() as f64 / over.makespan.ticks() as f64,
        over.phases.len()
    );

    // --- per-phase overlap detail ---------------------------------------
    println!("\nper-phase overlap in the first time-step:");
    for p in over.phases.iter().take(22) {
        if p.stats.overlap_granules > 0 {
            println!(
                "  {:<24} {:>5} of {:>5} granules ran during its predecessor ({}% ) via {}",
                p.name,
                p.stats.overlap_granules,
                p.granules,
                (p.overlap_fraction() * 100.0) as u32,
                p.enabled_by.map(|k| k.label()).unwrap_or("-")
            );
        }
    }
    Ok(())
}
