//! Data-proximity work assignment on a clustered-memory machine.
//!
//! The paper names "a data-proximity work assignment algorithm" as one of
//! the management strategies identified for development, motivated by
//! PAX/CASPER's observation that "shared information access times were
//! unpredictable and unrepeatable from instance to instance". This example
//! builds a 16-worker machine whose memory is split into 4 clusters,
//! runs the same identity-mapped 4-phase workload under queue-order and
//! proximity assignment, and prints where the remote-access time went.
//!
//! ```text
//! cargo run --release --example data_proximity -- [--clusters N] [--stall T]
//! ```

use pax_core::prelude::*;
use pax_workloads::generators::{CostShape, GeneratorConfig};

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
    let mut clusters = 4usize;
    let mut stall = 100u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--clusters" => {
                clusters = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--clusters expects a cluster count")?;
            }
            "--stall" => {
                stall = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--stall expects a tick count")?;
            }
            other => return Err(format!("unknown argument {other}").into()),
        }
    }

    let processors = 16;
    let program = GeneratorConfig {
        phases: 4,
        granules: 1024,
        mean_cost: 100,
        shape: CostShape::Jittered,
        mapping: MappingKind::Identity,
        reverse_fan: 4,
        seed: 42,
    }
    .build();

    println!(
        "machine: {processors} workers, {clusters} memory clusters, \
         remote stall {stall} ticks/granule"
    );
    println!("workload: 4 identity-mapped phases x 1024 jittered granules\n");

    let exec = |label: &str, layout: DataLayout, assignment: AssignmentPolicy| {
        let machine = MachineConfig::new(processors)
            .with_locality(LocalityModel::new(clusters, SimDuration(stall)).with_layout(layout));
        let policy = OverlapPolicy::overlap()
            .with_split_strategy(SplitStrategy::PreSplit)
            .with_assignment(assignment);
        let mut sim = Simulation::new(machine, policy).with_seed(42);
        sim.add_job(program.clone());
        let r = sim.run()?;
        println!(
            "{label:<28} makespan {:>8}  remote {:>5.1}%  stall {:>9} ticks  eff-util {:>5.1}%",
            r.makespan.ticks(),
            r.remote_fraction() * 100.0,
            r.remote_stall.ticks(),
            r.effective_utilization() * 100.0,
        );
        Ok::<_, pax_core::engine::EngineError>(r.makespan.ticks())
    };

    println!("block data layout (array sweeps):");
    let fifo = exec(
        "  queue order (PAX default)",
        DataLayout::Block,
        AssignmentPolicy::QueueOrder,
    )?;
    let prox = exec(
        "  data proximity (window 32)",
        DataLayout::Block,
        AssignmentPolicy::DataProximity { scan_window: 32 },
    )?;
    println!("  -> proximity speedup {:.2}x\n", fifo as f64 / prox as f64);

    println!("cyclic (interleaved) layout — contiguous tasks straddle all clusters:");
    exec(
        "  queue order",
        DataLayout::Cyclic,
        AssignmentPolicy::QueueOrder,
    )?;
    exec(
        "  data proximity (window 32)",
        DataLayout::Cyclic,
        AssignmentPolicy::DataProximity { scan_window: 32 },
    )?;
    println!(
        "  -> layout mismatch: no assignment policy can fix interleaved data;\n\
         \x20    the remote fraction is pinned near (C-1)/C = {:.1}%",
        (clusters - 1) as f64 / clusters as f64 * 100.0
    );
    Ok(())
}
