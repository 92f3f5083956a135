//! Interactive rundown explorer: sweep machine and workload parameters
//! from the command line and watch the busy-processor profile.
//!
//! ```text
//! cargo run --release --example rundown_explorer -- \
//!     --procs 32 --granules 500 --phases 4 --mapping identity \
//!     --shape straggler --ratio 2.0
//! ```
//!
//! Prints the barrier and overlap busy-processor traces side by side as
//! an ASCII chart, plus the summary numbers. Pass `--csv` to emit the
//! two traces as CSV (for external plotting) instead of ASCII art.

use pax_core::prelude::*;
use pax_workloads::generators::{CostShape, GeneratorConfig};

struct Args {
    procs: usize,
    granules: u32,
    phases: usize,
    mapping: MappingKind,
    shape: CostShape,
    ratio: f64,
    seed: u64,
    csv: bool,
    clusters: usize,
    stall: u64,
    window: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        procs: 32,
        granules: 500,
        phases: 4,
        mapping: MappingKind::Identity,
        shape: CostShape::Jittered,
        ratio: 2.0,
        seed: 42,
        csv: false,
        clusters: 0,
        stall: 100,
        window: 32,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    fn num<T: std::str::FromStr>(val: &str, what: &str) -> Result<T, String> {
        val.parse()
            .map_err(|_| format!("{what} expects a number, got '{val}'"))
    }
    while i < argv.len() {
        let key = argv[i].as_str();
        let val = argv.get(i + 1).cloned().unwrap_or_default();
        match key {
            "--csv" => {
                args.csv = true;
                i += 1;
                continue;
            }
            "--procs" => args.procs = num(&val, "--procs")?,
            "--granules" => args.granules = num(&val, "--granules")?,
            "--phases" => args.phases = num(&val, "--phases")?,
            "--ratio" => args.ratio = num(&val, "--ratio")?,
            "--seed" => args.seed = num(&val, "--seed")?,
            "--clusters" => args.clusters = num(&val, "--clusters")?,
            "--stall" => args.stall = num(&val, "--stall")?,
            "--window" => args.window = num(&val, "--window")?,
            "--mapping" => {
                args.mapping = match val.as_str() {
                    "universal" => MappingKind::Universal,
                    "identity" => MappingKind::Identity,
                    "forward" => MappingKind::ForwardIndirect,
                    "reverse" => MappingKind::ReverseIndirect,
                    "seam" => MappingKind::Seam,
                    "null" => MappingKind::Null,
                    other => return Err(format!("unknown mapping '{other}'")),
                }
            }
            "--shape" => {
                args.shape = match val.as_str() {
                    "constant" => CostShape::Constant,
                    "jittered" => CostShape::Jittered,
                    "exponential" => CostShape::Exponential,
                    "straggler" => CostShape::Straggler,
                    other => return Err(format!("unknown shape '{other}'")),
                }
            }
            "--help" | "-h" => {
                println!(
                    "options: --procs N --granules N --phases N --ratio F --seed N --csv\n\
                     --mapping universal|identity|forward|reverse|seam|null\n\
                     --shape constant|jittered|exponential|straggler\n\
                     --clusters N (0 = uniform memory) --stall T --window N\n\
                     (clustered memory compares queue-order vs data-proximity assignment)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
        i += 2;
    }
    Ok(args)
}

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
    let a = parse_args()?;
    let cfg = GeneratorConfig {
        phases: a.phases,
        granules: a.granules,
        mean_cost: 100,
        shape: a.shape,
        mapping: a.mapping,
        reverse_fan: 4,
        seed: a.seed,
    };
    let machine = if a.clusters > 0 {
        MachineConfig::ideal(a.procs).with_locality(pax_sim::locality::LocalityModel::new(
            a.clusters,
            pax_sim::SimDuration(a.stall),
        ))
    } else {
        MachineConfig::ideal(a.procs)
    };
    let program = cfg.build();
    let exec = |policy: OverlapPolicy| {
        let mut policy = policy.with_sizing(TaskSizing::TasksPerProcessor(a.ratio));
        if a.clusters > 0 {
            // clustered memory: presplit so the proximity scan has
            // visible pieces to choose among
            policy = policy
                .with_split_strategy(SplitStrategy::PreSplit)
                .with_assignment(AssignmentPolicy::DataProximity {
                    scan_window: a.window,
                });
        }
        let mut sim = Simulation::new(machine.clone(), policy).with_seed(a.seed);
        sim.add_job(program.clone());
        sim.run()
    };
    let strict = exec(OverlapPolicy::strict())?;
    let over = exec(OverlapPolicy::overlap())?;

    println!(
        "{} phases × {} granules ({:?} costs, {} mapping) on {} processors, {} tasks/proc\n",
        a.phases,
        a.granules,
        a.shape,
        a.mapping.label(),
        a.procs,
        a.ratio
    );

    // CSV mode: emit the raw traces and exit.
    if a.csv {
        let end = pax_sim::SimTime(strict.makespan.ticks().max(over.makespan.ticks()));
        print!(
            "{}",
            pax_sim::metrics::step_traces_csv(
                &[
                    ("strict", &strict.busy_trace),
                    ("overlap", &over.busy_trace)
                ],
                pax_sim::SimTime(0),
                end,
                200,
            )
        );
        return Ok(());
    }

    // ASCII profile: 56 samples across the longer makespan.
    let span = strict.makespan.ticks().max(over.makespan.ticks());
    let width = 56usize;
    let bar = |r: &RunReport, t: u64| -> usize {
        let busy = r.busy_trace.value_at(pax_sim::SimTime(t)) as usize;
        busy * 20 / a.procs.max(1)
    };
    println!("{:>10}  {:<22}{:<22}", "time", "strict", "overlap");
    for i in 0..width {
        let t = span * i as u64 / width as u64;
        let s = bar(&strict, t);
        let o = bar(&over, t);
        println!("{t:>10}  {:<22}{:<22}", "#".repeat(s), "#".repeat(o));
    }
    println!(
        "\nstrict:  makespan {:>9}  utilization {:>6.2}%",
        strict.makespan.ticks(),
        strict.utilization() * 100.0
    );
    println!(
        "overlap: makespan {:>9}  utilization {:>6.2}%  speedup {:.3}x  overlap granules {}",
        over.makespan.ticks(),
        over.utilization() * 100.0,
        strict.makespan.ticks() as f64 / over.makespan.ticks() as f64,
        over.total_overlap_granules()
    );
    for (i, p) in strict.phases.iter().enumerate() {
        let sw = strict
            .rundown_of(i)
            .map(|w| w.idle_processor_time)
            .unwrap_or(0);
        let ow = over
            .rundown_of(i)
            .map(|w| w.idle_processor_time)
            .unwrap_or(0);
        println!(
            "  {:<10} rundown idle: strict {:>8}  overlap {:>8}",
            p.name, sw, ow
        );
    }
    if a.clusters > 0 {
        println!(
            "\nclustered memory ({} clusters, {} tick stall, proximity window {}):",
            a.clusters, a.stall, a.window
        );
        println!(
            "  strict:  remote {:>5.1}%  stall {:>9} ticks  effective util {:>6.2}%",
            strict.remote_fraction() * 100.0,
            strict.remote_stall.ticks(),
            strict.effective_utilization() * 100.0
        );
        println!(
            "  overlap: remote {:>5.1}%  stall {:>9} ticks  effective util {:>6.2}%",
            over.remote_fraction() * 100.0,
            over.remote_stall.ticks(),
            over.effective_utilization() * 100.0
        );
    }
    Ok(())
}
