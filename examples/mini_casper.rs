//! The paper's CASPER phase-character change as a real computation:
//! power-of-compression → interpolator-matrix-generation → field
//! relaxation → structural loads, every timestep, on actual threads.
//!
//! The pipeline exercises the paper's mapping mix end to end — reverse
//! indirect through a dynamically generated `IMAP`, identity, universal,
//! and a serial convergence decision (null) — and verifies the result is
//! **bitwise identical** to a sequential reference under barriers and
//! under overlap.
//!
//! ```text
//! cargo run --release --example mini_casper -- [--cells N] [--steps T]
//! ```

use pax_bench::experiments::e9::mini_casper_chain;
use pax_runtime::{run_chain, RuntimeConfig};
use pax_workloads::MiniCasper;
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
    let mut cells = 512u32;
    let mut steps = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cells" => {
                cells = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cells expects a cell count")?;
            }
            "--steps" => {
                steps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--steps expects a timestep count")?;
            }
            other => return Err(format!("unknown argument {other}").into()),
        }
    }

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8);
    let spec = MiniCasper::new(cells, 4, steps, 2, 0xCA5);
    let (u_ref, s_ref) = spec.reference();
    let spin = Duration::from_micros(60);

    println!(
        "mini-CASPER: {cells} cells × {steps} timesteps on {workers} threads \
         (fan-4 dynamic IMAP, serial decision every 2 steps)\n"
    );
    println!(
        "per-timestep mappings: power -REVERSE-> interp -IDENTITY-> apply -UNIVERSAL-> structural"
    );
    println!("every 2nd step boundary: serial convergence decision (NULL)\n");

    let run_mode = |label: &str, f: &dyn Fn() -> std::time::Duration| {
        // best of three to shrug off VM noise
        let wall = (0..3)
            .map(|_| f())
            .min()
            .unwrap_or(std::time::Duration::ZERO);
        println!("{label:<34} {wall:>10.1?}");
        wall
    };

    let barrier = run_mode("strict barriers", &|| {
        let (phases, u, s) = mini_casper_chain(&spec, spin);
        let r = run_chain(phases, RuntimeConfig::new(workers, 8).barrier());
        assert_eq!(u.to_vec(), u_ref, "bitwise check failed");
        assert_eq!(s.to_vec(), s_ref);
        r.wall
    });
    let overlap = run_mode("phase overlap (central exec)", &|| {
        let (phases, u, s) = mini_casper_chain(&spec, spin);
        let r = run_chain(phases, RuntimeConfig::new(workers, 8));
        assert_eq!(u.to_vec(), u_ref, "bitwise check failed");
        assert_eq!(s.to_vec(), s_ref);
        r.wall
    });

    println!(
        "\noverlap speedup {:.2}x — both bitwise equal to the sequential reference",
        barrier.as_secs_f64() / overlap.as_secs_f64(),
    );
    Ok(())
}
