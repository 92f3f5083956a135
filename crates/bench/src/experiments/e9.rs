//! **E9 — phase overlap on real threads.**
//!
//! The simulator reproduces the paper's claims deterministically; this
//! experiment checks the *shape* survives contact with real hardware: a
//! straggler-tailed phase chain and a seam-mapped red–black SOR sweep run
//! on an OS thread pool, barrier vs overlap, measuring wall-clock and
//! utilization.

use crate::table::{f2, pct, Table};
use pax_core::mapping::EnablementMapping;
use pax_runtime::{run_chain, RtPhase, RuntimeConfig};
use pax_workloads::checkerboard::{Checkerboard, Color};
use std::sync::Arc;
use std::time::Duration;

/// One workload's barrier-vs-overlap measurement.
#[derive(Debug)]
pub struct E9Row {
    /// Workload name.
    pub workload: String,
    /// Worker threads.
    pub workers: usize,
    /// Barrier wall-clock.
    pub barrier_wall: Duration,
    /// Overlap wall-clock.
    pub overlap_wall: Duration,
    /// Barrier utilization.
    pub barrier_util: f64,
    /// Overlap utilization.
    pub overlap_util: f64,
    /// Overlap granules measured.
    pub overlap_granules: u64,
}

impl E9Row {
    /// Wall-clock speedup of overlap over barrier.
    pub fn speedup(&self) -> f64 {
        self.barrier_wall.as_secs_f64() / self.overlap_wall.as_secs_f64().max(1e-9)
    }
}

/// Results of E9.
#[derive(Debug)]
pub struct E9Result {
    /// Rows per workload/thread-count.
    pub rows: Vec<E9Row>,
}

fn straggler_chain(phases: usize, granules: u32, base: Duration) -> Vec<RtPhase> {
    (0..phases)
        .map(|i| {
            let b = base;
            let g = granules;
            let p = RtPhase::new(
                format!("phase-{i}"),
                granules,
                Arc::new(move |gr| {
                    // the last granule of each phase is a 10× straggler
                    if gr == g - 1 {
                        pax_runtime::spin_for(b * 10);
                    } else {
                        pax_runtime::spin_for(b);
                    }
                }),
            );
            if i + 1 < phases {
                p.with_mapping(EnablementMapping::Universal)
            } else {
                p
            }
        })
        .collect()
}

fn seam_sor_chain(n: usize, sweeps: usize, per_cell: Duration) -> Vec<RtPhase> {
    let board = Checkerboard::new(n);
    let maps = [Color::Red, Color::Black]
        .map(|color| EnablementMapping::Seam(Arc::new(board.seam_map(color))));
    (0..sweeps)
        .map(|s| {
            let color = if s % 2 == 0 { Color::Red } else { Color::Black };
            let granules = board.granules(color);
            let p = RtPhase::synthetic(
                format!("{}-sweep-{s}", if s % 2 == 0 { "red" } else { "black" }),
                granules,
                per_cell,
            );
            if s + 1 < sweeps {
                p.with_mapping(maps[s % 2].clone())
            } else {
                p
            }
        })
        .collect()
}

/// Assemble the mini-CASPER pipeline (power → interp → apply →
/// structural per timestep, real `f64` kernels) as a thread chain.
/// Returns the phases plus the `u` and `s` buffers for verification.
pub fn mini_casper_chain(
    spec: &pax_workloads::MiniCasper,
    extra_spin: Duration,
) -> (
    Vec<RtPhase>,
    Arc<pax_runtime::SharedF64>,
    Arc<pax_runtime::SharedF64>,
) {
    use pax_runtime::SharedF64;
    use pax_workloads::MiniCasper as MC;

    let n = spec.n;
    let u = Arc::new(SharedF64::from_vec(spec.initial_u()));
    let s = Arc::new(SharedF64::from_vec(spec.initial_s()));
    let p = Arc::new(SharedF64::zeros(n as usize));
    let m = Arc::new(SharedF64::zeros(n as usize));
    let imap: Arc<Vec<Vec<u32>>> = Arc::new(spec.imap.clone());
    let reverse = EnablementMapping::ReverseIndirect(Arc::new(spec.reverse_map()));

    let mut phases = Vec::with_capacity(spec.timesteps * 4);
    for t in 0..spec.timesteps {
        let serial_next = spec.serial_every > 0 && (t + 1) % spec.serial_every == 0;
        // 1. power of compression
        let (ur, pw) = (Arc::clone(&u), Arc::clone(&p));
        phases.push(
            RtPhase::new(
                format!("power-{t}"),
                n,
                Arc::new(move |g| {
                    pax_runtime::spin_for(extra_spin);
                    pw.set(g as usize, MC::power_kernel(ur.get(g as usize)));
                }),
            )
            .with_mapping(reverse.clone()),
        );
        // 2. interpolator matrix row (gathers p through the dynamic IMAP)
        let (pr, mw, im) = (Arc::clone(&p), Arc::clone(&m), Arc::clone(&imap));
        phases.push(
            RtPhase::new(
                format!("interp-{t}"),
                n,
                Arc::new(move |g| {
                    pax_runtime::spin_for(extra_spin);
                    let row = &im[g as usize];
                    let v = MC::interp_kernel(row.iter().map(|&j| pr.get(j as usize)));
                    mw.set(g as usize, v);
                }),
            )
            .with_mapping(EnablementMapping::Identity),
        );
        // 3. apply (relax the field in place)
        let (uw, mr) = (Arc::clone(&u), Arc::clone(&m));
        phases.push(
            RtPhase::new(
                format!("apply-{t}"),
                n,
                Arc::new(move |g| {
                    pax_runtime::spin_for(extra_spin);
                    let i = g as usize;
                    uw.set(i, MC::apply_kernel(uw.get(i), mr.get(i)));
                }),
            )
            .with_mapping(EnablementMapping::Universal),
        );
        // 4. structural load table (self-contained)
        let sw = Arc::clone(&s);
        let last = t + 1 == spec.timesteps;
        let mut ph = RtPhase::new(
            format!("structural-{t}"),
            n,
            Arc::new(move |g| {
                pax_runtime::spin_for(extra_spin);
                let i = g as usize;
                sw.set(i, MC::structural_kernel(sw.get(i), g));
            }),
        );
        if !last {
            ph = ph.with_mapping(if serial_next {
                // the paper's null mapping: a serial convergence decision
                // separates the timesteps
                EnablementMapping::Null
            } else {
                EnablementMapping::Universal
            });
        }
        phases.push(ph);
    }
    (phases, u, s)
}

/// Run E9. `quick` shrinks spin times and sizes for test runs.
pub fn run(quick: bool) -> E9Result {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let workers = hw.clamp(2, 8);
    let (base, per_cell, chain_granules, grid_n, sweeps) = if quick {
        (
            Duration::from_micros(200),
            Duration::from_micros(40),
            24,
            16,
            4,
        )
    } else {
        (
            Duration::from_millis(1),
            Duration::from_micros(80),
            48,
            32,
            6,
        )
    };

    // The host may be a small shared VM; take the best of three runs of
    // each mode so CPU-steal spikes don't masquerade as scheduling
    // effects.
    let best_of = |mk: &dyn Fn() -> Vec<RtPhase>, cfg: RuntimeConfig| {
        (0..3)
            .map(|_| run_chain(mk(), cfg.clone()))
            .min_by_key(|r| r.wall)
            .expect("three runs")
    };
    let mut rows = Vec::new();
    // Straggler chain: universal fill.
    {
        let task = 1;
        let barrier = best_of(
            &|| straggler_chain(4, chain_granules, base),
            RuntimeConfig::new(workers, task).barrier(),
        );
        let overlap = best_of(
            &|| straggler_chain(4, chain_granules, base),
            RuntimeConfig::new(workers, task),
        );
        rows.push(E9Row {
            workload: format!("straggler chain ({chain_granules} granules × 4 phases)"),
            workers,
            barrier_wall: barrier.wall,
            overlap_wall: overlap.wall,
            barrier_util: barrier.utilization(),
            overlap_util: overlap.utilization(),
            overlap_granules: overlap.total_overlap_granules(),
        });
    }
    // Seam-mapped SOR sweeps.
    {
        let task = 4;
        let barrier = best_of(
            &|| seam_sor_chain(grid_n, sweeps, per_cell),
            RuntimeConfig::new(workers, task).barrier(),
        );
        let overlap = best_of(
            &|| seam_sor_chain(grid_n, sweeps, per_cell),
            RuntimeConfig::new(workers, task),
        );
        rows.push(E9Row {
            workload: format!("seam SOR ({grid_n}×{grid_n}, {sweeps} sweeps)"),
            workers,
            barrier_wall: barrier.wall,
            overlap_wall: overlap.wall,
            barrier_util: barrier.utilization(),
            overlap_util: overlap.utilization(),
            overlap_granules: overlap.total_overlap_granules(),
        });
    }
    // Mini-CASPER: real numeric kernels through the paper's own mapping
    // mix (reverse-indirect → identity → universal ×2 per timestep, plus
    // a serial decision); the result must be bitwise equal to the
    // sequential reference in every mode.
    {
        let (cells, steps) = if quick { (96u32, 3usize) } else { (256, 4) };
        let spec = pax_workloads::MiniCasper::new(cells, 4, steps, 2, 0xCA5);
        let (u_ref, s_ref) = spec.reference();
        let task = 4;
        let verified = |cfg: RuntimeConfig| {
            (0..3)
                .map(|_| {
                    let (phases, u, s) = mini_casper_chain(&spec, per_cell);
                    let r = run_chain(phases, cfg.clone());
                    assert_eq!(u.to_vec(), u_ref, "u must match the sequential reference");
                    assert_eq!(s.to_vec(), s_ref, "s must match the sequential reference");
                    r
                })
                .min_by_key(|r| r.wall)
                .expect("three runs")
        };
        let barrier = verified(RuntimeConfig::new(workers, task).barrier());
        let overlap = verified(RuntimeConfig::new(workers, task));
        rows.push(E9Row {
            workload: format!("mini-CASPER ({cells} cells × {steps} steps, bit-exact)"),
            workers,
            barrier_wall: barrier.wall,
            overlap_wall: overlap.wall,
            barrier_util: barrier.utilization(),
            overlap_util: overlap.utilization(),
            overlap_granules: overlap.total_overlap_granules(),
        });
    }
    E9Result { rows }
}

impl std::fmt::Display for E9Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "E9 — real-thread validation (barrier vs overlap)")?;
        let mut t = Table::new(&[
            "workload",
            "threads",
            "barrier wall",
            "overlap wall",
            "speedup",
            "barrier util",
            "overlap util",
            "ovl granules",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.workers.to_string(),
                format!("{:.1?}", r.barrier_wall),
                format!("{:.1?}", r.overlap_wall),
                f2(r.speedup()),
                pct(r.barrier_util * 100.0),
                pct(r.overlap_util * 100.0),
                r.overlap_granules.to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Overlap occurs on every row, and mini-CASPER is bit-exact (`run`
    /// asserts it). The wall-clock ratio is a reading of the host, which
    /// E9's table prints, and is not asserted: the tests of this crate's
    /// lib binary run concurrently on the same cores, and on a 2-vCPU host
    /// the ratio then moves by more than a bound on it could allow.
    /// The runtime's `overlap_improves_utilization_with_rundown_tail`
    /// pins the real-thread overlap claim on a 35 ms structural gap.
    #[test]
    fn overlap_helps_or_matches_on_real_threads() {
        for row in &run(true).rows {
            assert!(row.overlap_granules > 0, "{}: no overlap", row.workload);
        }
    }
}
