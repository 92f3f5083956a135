//! Experiment harness: regenerates every quantitative claim of NASA
//! TM-87349 (the `pax_bench` crate docs have the claim → experiment index).
//!
//! ```text
//! cargo run --release -p pax-bench --bin experiments            # all
//! cargo run --release -p pax-bench --bin experiments -- e1 e5   # subset
//! cargo run --release -p pax-bench --bin experiments -- --quick # small sizes
//! ```
//!
//! `--quick` is the only flag; any other `--flag`, like any unknown
//! experiment id, is an error before anything runs.

use pax_bench::experiments as ex;
use std::time::Instant;

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| a.starts_with("--") && *a != "--quick") {
        return Err(format!("unknown flag '{unknown}' (valid flags: --quick)").into());
    }
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    if let Some(unknown) = selected
        .iter()
        .find(|s| !EXPERIMENTS.iter().any(|(id, _)| id == s))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        return Err(format!(
            "unknown experiment id '{unknown}' (valid ids: {})",
            valid.join(" ")
        )
        .into());
    }

    println!(
        "PAX rundown reproduction — experiment harness ({} mode)\n",
        if quick { "quick" } else { "full" }
    );

    let t0 = Instant::now();
    for (id, run) in EXPERIMENTS {
        if selected.is_empty() || selected.iter().any(|s| s == id) {
            section(&id.to_uppercase(), || println!("{}", run(quick)));
        }
    }
    println!("\nall requested experiments done in {:?}", t0.elapsed());
    Ok(())
}

/// Runs one experiment (`quick` sizes or full) and renders its table.
type Experiment = fn(bool) -> String;

/// Every claim experiment by id; ids on the command line are checked
/// against this table, and it is the only place an experiment is named.
const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("e1", |quick| ex::e1::run(quick).to_string()),
    ("e2", |quick| ex::e2::run(quick).to_string()),
    ("e3", |quick| ex::e3::run(quick).to_string()),
    ("e4", |quick| ex::e4::run(quick).to_string()),
    ("e5", |quick| ex::e5::run(quick).to_string()),
    ("e6", |quick| ex::e6::run(quick).to_string()),
    ("e7", |quick| ex::e7::run(quick).to_string()),
    ("e8", |quick| ex::e8::run(quick).to_string()),
    ("e9", |quick| ex::e9::run(quick).to_string()),
    ("e10", |quick| ex::e10::run(quick).to_string()),
    ("e12", |quick| ex::e12::run(quick).to_string()),
    ("e13", |quick| ex::e13::run(quick).to_string()),
];

fn section(id: &str, run: impl FnOnce()) {
    let t = Instant::now();
    println!("{}", "=".repeat(78));
    run();
    println!("[{id} took {:?}]\n", t.elapsed());
}
