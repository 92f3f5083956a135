//! `pax-benchmark`: the repo's reference-normalised rundown benchmark.
//! See `README.md` beside this crate for what is measured and why.

mod alloc;
mod golden;
mod host;
mod json;
mod layers;
mod metrics;
mod refkernel;
mod run;
mod stats;
mod trace;
mod workloads;

use golden::{Entry, GOLDEN_SEEDS};
use json::Json;
use refkernel::RefKernel;
use run::{first_run, verify, Protocol, Verified};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: pax-benchmark --workload <name> [--seed n] [--seconds s] \
                     [--trace 0|1] [--quick]\n       pax-benchmark --check | --update-golden";

enum Mode {
    Measure,
    Check,
    UpdateGolden,
}

struct Args {
    mode: Mode,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        mode: Mode::Measure,
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let found = WORKLOADS.iter().find(|w| w.name == name);
                out.workload = Some(found.ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}'; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 3_600.0) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: 0 or 1")),
                }
            }
            "--quick" => out.quick = true,
            "--check" => out.mode = Mode::Check,
            "--update-golden" => out.mode = Mode::UpdateGolden,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

/// The benchmark's own directory: `cargo run` exports it; a binary
/// started by hand falls back to where it was built.
fn home() -> PathBuf {
    let dir = std::env::var_os("CARGO_MANIFEST_DIR");
    dir.map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn entry_of(workload: &Workload, seed: u64, quick: bool, v: &Verified) -> Entry {
    Entry {
        workload: workload.name.to_string(),
        seed,
        quick,
        signature: v.signature,
        sim: v.sim,
    }
}

/// Every `(workload, golden seed, size)` verified afresh.
fn golden_sweep() -> Result<Vec<Entry>, String> {
    let mut tr = Tracer::new();
    let mut entries = Vec::new();
    for workload in &WORKLOADS {
        for seed in GOLDEN_SEEDS {
            for quick in [false, true] {
                let input = workload.generate(seed, quick);
                let v = verify(&input, first_run(&input, &mut tr)?, &mut tr)?;
                if !v.disagreements.is_empty() {
                    return Err(format!(
                        "{} seed {seed}: drivers disagree: {}",
                        workload.name,
                        v.disagreements.join("; ")
                    ));
                }
                entries.push(entry_of(workload, seed, quick, &v));
            }
        }
    }
    Ok(entries)
}

fn check_golden() -> Result<bool, String> {
    let recorded = golden::load(&home().join("golden.json"))?;
    let fresh = golden_sweep()?;
    let mut same = recorded.len() == fresh.len();
    for e in &fresh {
        let size = if e.quick { "quick" } else { "full" };
        match golden::find(&recorded, &e.workload, e.seed, e.quick) {
            Some(r) if r == e => println!("ok       {} seed {} {size}", e.workload, e.seed),
            Some(r) => {
                same = false;
                println!("MISMATCH {} seed {} {size}", e.workload, e.seed);
                println!("  golden {r:?}\n  got    {e:?}");
            }
            None => {
                same = false;
                println!("MISSING  {} seed {} {size}", e.workload, e.seed);
            }
        }
    }
    Ok(same)
}

fn measure(args: &Args) -> Result<bool, String> {
    let workload = args.workload.ok_or(USAGE)?;
    let seconds = args.seconds.unwrap_or(if args.quick { 2.0 } else { 30.0 });
    let size = if args.quick { "quick" } else { "full" };
    println!("host: {} | load {}", host::describe(), host::load_average());
    let input = workload.generate(args.seed, args.quick);
    println!(
        "run: workload {} | seed {} | size {size} | seconds {seconds} | trace {} | K {} | {}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        workload.setups_per_sample,
        input.describe()
    );

    let mut tr = Tracer::new();
    let mut kernel = RefKernel::new();
    let first = first_run(&input, &mut tr)?;
    let protocol = Protocol {
        input: &input,
        expected: workloads::signature(&first),
        seconds,
        trace: args.trace,
        setups_per_sample: workload.setups_per_sample,
    };
    let measured = protocol.measure(&mut kernel, &mut tr);
    for f in &measured.failures {
        println!("failed: {f}");
    }

    let verified = verify(&input, first, &mut tr)?;
    let mut correct = measured.failed == 0 && verified.disagreements.is_empty();
    for d in &verified.disagreements {
        println!("check: DRIVERS DISAGREE: {d}");
    }
    if verified.disagreements.is_empty() {
        println!(
            "check: own driver = Simulation::run = re-driven epoch loop = ThreadedSession \
             ({} events, makespan {}, fingerprint {:016x})",
            verified.signature.events, verified.signature.makespan, verified.signature.fingerprint
        );
    }
    let recorded = golden::load(&home().join("golden.json"))?;
    match golden::find(&recorded, workload.name, args.seed, args.quick) {
        None => println!("check: no golden for seed {} size {size}", args.seed),
        Some(g) if *g == entry_of(workload, args.seed, args.quick, &verified) => {
            println!("check: matches golden.json")
        }
        Some(g) => {
            correct = false;
            println!("check: GOLDEN MISMATCH: recorded {g:?}");
        }
    }

    let values = if args.trace {
        let out = home().join("out");
        let path = out.join(format!("trace-{}.json", workload.name));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, tr.to_json(workload.name).to_pretty()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
        metrics::per_layer(
            workload,
            args,
            &input,
            &verified,
            &measured,
            &tr,
            &mut kernel,
        )
    } else {
        metrics::end_to_end(&verified, &measured)?
    };
    for v in &values {
        println!("{}", v.line());
    }
    println!("host: load at end {}", host::load_average());

    let metrics = values.iter().map(|v| (v.name, v.to_json()));
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(measured.attempted)),
        ("failed", Json::Int(measured.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", summary.to_line());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| match args.mode {
        Mode::Measure => measure(&args),
        Mode::Check => check_golden(),
        Mode::UpdateGolden => {
            let path = home().join("golden.json");
            golden::save(&path, &golden_sweep()?)?;
            println!("wrote {}", path.display());
            Ok(true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pax-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
