//! **E11 (extension) — lateral worker-to-worker communication.**
//!
//! The paper names, among "additional strategies which have been
//! identified for development … a direct worker-to-worker lateral
//! communication scheme". This experiment compares the central-executive
//! thread executor (every dispatch through one queue — PAX's serial
//! management) with the lateral work-stealing executor (released
//! successors go to the releasing worker's own deque; idle workers steal
//! from peers), on the same overlap workloads.

use crate::table::{pct, Table};
use pax_core::mapping::EnablementMapping;
use pax_runtime::{run_chain, run_chain_lateral, RtPhase, RtReport, RuntimeConfig};
use std::sync::Arc;
use std::time::Duration;

/// One workload × executor cell.
#[derive(Debug)]
pub struct E11Row {
    /// Workload label.
    pub workload: String,
    /// Executor label.
    pub executor: String,
    /// Wall-clock.
    pub wall: Duration,
    /// Utilization.
    pub utilization: f64,
    /// Overlap granules.
    pub overlap_granules: u64,
    /// Same-cluster peer steals (clustered lateral executor only).
    pub steals_same: u64,
    /// Cross-cluster peer steals.
    pub steals_cross: u64,
}

type Executor = fn(Vec<RtPhase>, RuntimeConfig) -> RtReport;

/// Results of E11.
#[derive(Debug)]
pub struct E11Result {
    /// All cells.
    pub rows: Vec<E11Row>,
    /// Worker threads used.
    pub workers: usize,
}

fn identity_chain(phases: usize, granules: u32, per: Duration) -> Vec<RtPhase> {
    (0..phases)
        .map(|i| {
            let p = RtPhase::synthetic(format!("p{i}"), granules, per);
            if i + 1 < phases {
                p.with_mapping(EnablementMapping::Identity)
            } else {
                p
            }
        })
        .collect()
}

fn fine_grained_chain(phases: usize, granules: u32) -> Vec<RtPhase> {
    // nearly-zero granule cost: scheduling overhead dominates, which is
    // where lateral hand-off should earn its keep
    (0..phases)
        .map(|i| {
            let p = RtPhase::new(
                format!("fine{i}"),
                granules,
                Arc::new(|_| {
                    std::hint::black_box(17u64.wrapping_mul(31));
                }),
            );
            if i + 1 < phases {
                p.with_mapping(EnablementMapping::Identity)
            } else {
                p
            }
        })
        .collect()
}

/// Run E11.
pub fn run(quick: bool) -> E11Result {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8);
    let (coarse_granules, fine_granules, per) = if quick {
        (48u32, 2_000u32, Duration::from_micros(100))
    } else {
        (96, 20_000, Duration::from_micros(200))
    };

    // proximity-aware stealing: pair workers into clusters of two
    let clusters = (workers / 2).max(1);
    let mut rows = Vec::new();
    let mut bench = |workload: &str, mk: &dyn Fn() -> Vec<RtPhase>, task: u32| {
        // Best of five per executor, the three interleaved run by run, so
        // load that comes and goes on a shared host falls on all alike.
        let executors: [(Executor, RuntimeConfig); 3] = [
            (run_chain, RuntimeConfig::new(workers, task)),
            (run_chain_lateral, RuntimeConfig::new(workers, task)),
            (
                run_chain_lateral,
                RuntimeConfig::new(workers, task).with_clusters(clusters),
            ),
        ];
        let mut best: [Option<RtReport>; 3] = [None, None, None];
        for _ in 0..5 {
            for ((exec, cfg), best) in executors.iter().zip(&mut best) {
                let r = exec(mk(), cfg.clone());
                if best.as_ref().is_none_or(|b| r.wall < b.wall) {
                    *best = Some(r);
                }
            }
        }
        let [central, lateral, clustered] = best.map(|r| r.expect("five runs"));
        rows.push(E11Row {
            workload: workload.into(),
            executor: "central executive".into(),
            wall: central.wall,
            utilization: central.utilization(),
            overlap_granules: central.total_overlap_granules(),
            steals_same: 0,
            steals_cross: 0,
        });
        rows.push(E11Row {
            workload: workload.into(),
            executor: "lateral (work stealing)".into(),
            wall: lateral.wall,
            utilization: lateral.utilization(),
            overlap_granules: lateral.total_overlap_granules(),
            steals_same: lateral.steals_same_cluster,
            steals_cross: lateral.steals_cross_cluster,
        });
        rows.push(E11Row {
            workload: workload.into(),
            executor: format!("lateral, clustered steal ({clusters})"),
            wall: clustered.wall,
            utilization: clustered.utilization(),
            overlap_granules: clustered.total_overlap_granules(),
            steals_same: clustered.steals_same_cluster,
            steals_cross: clustered.steals_cross_cluster,
        });
    };

    bench(
        "coarse identity chain",
        &|| identity_chain(4, coarse_granules, per),
        2,
    );
    bench(
        "fine-grained identity chain",
        &|| fine_grained_chain(4, fine_granules),
        32,
    );

    E11Result { rows, workers }
}

impl std::fmt::Display for E11Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E11 — central executive vs lateral worker-to-worker ({} threads)",
            self.workers
        )?;
        let mut t = Table::new(&[
            "workload",
            "executor",
            "wall",
            "utilization",
            "ovl granules",
            "steals same/cross",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.executor.clone(),
                format!("{:.1?}", r.wall),
                pct(r.utilization * 100.0),
                r.overlap_granules.to_string(),
                if r.steals_same + r.steals_cross > 0 {
                    format!("{}/{}", r.steals_same, r.steals_cross)
                } else {
                    "-".into()
                },
            ]);
        }
        writeln!(f, "{}", t.render())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One combined test, so E11's runs never race each other's wall
    /// clocks. The other tests of this crate's lib binary (E9's thread
    /// pools among them) still run concurrently on the same cores, so the
    /// wall-clock bound is read as `run` reads it, the executors
    /// interleaved and the best of five kept, and retried up to three
    /// times before it fails.
    #[test]
    fn executors_complete_and_lateral_is_competitive() {
        let mut last = String::new();
        for _attempt in 0..3 {
            let r = run(true);
            assert_eq!(r.rows.len(), 6);
            // one clustered row per workload; a flat steal order has no
            // same-cluster victim
            let clustered = r
                .rows
                .iter()
                .filter(|x| x.executor.starts_with("lateral, clustered"));
            assert_eq!(clustered.count(), 2);
            for row in r
                .rows
                .iter()
                .filter(|x| x.executor == "lateral (work stealing)")
            {
                assert_eq!(row.steals_same, 0, "{}", row.workload);
            }
            for row in &r.rows {
                assert!(row.wall > Duration::ZERO);
            }
            let fine_wall = |executor: &str| {
                r.rows
                    .iter()
                    .find(|x| x.workload.starts_with("fine") && x.executor.starts_with(executor))
                    .expect("a fine-grained row per executor")
                    .wall
            };
            let (central, lateral) = (fine_wall("central"), fine_wall("lateral"));
            // The lateral scheme exists to relieve the serial executive; on
            // scheduling-dominated workloads it must stay in the same
            // ballpark (a generous bound — the interesting numbers are in
            // the harness table, not this smoke check).
            if lateral.as_secs_f64() <= central.as_secs_f64() * 3.0 {
                return;
            }
            last = format!("lateral {lateral:?} vs central {central:?}");
        }
        panic!("after 3 attempts: {last}");
    }
}
