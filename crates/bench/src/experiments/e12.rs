//! **E12 (extension) — the data-proximity work assignment algorithm.**
//!
//! The paper names three management strategies "identified for
//! development": a middle management scheme (measured as executive lanes
//! in E5), a direct worker-to-worker lateral communication scheme (E11,
//! retired), and "a data-proximity work assignment algorithm" — this
//! experiment.
//! The motivation is the paper's observation that in PAX/CASPER "shared
//! information access times were unpredictable and unrepeatable from
//! instance to instance": on a clustered-memory machine, which worker
//! executes a granule determines how long its data accesses take.
//!
//! Four sweeps:
//!
//! 1. **Remote-penalty sweep** — queue-order vs proximity assignment as
//!    the per-granule remote stall grows (block data layout). Proximity
//!    should hold the remote fraction near zero and win more as stalls
//!    grow.
//! 2. **Scan-window sweep** — the bounded queue scan is the same
//!    engineering-judgment trade as E8's composite-map subset: window 0
//!    is queue order, small windows capture most of the benefit.
//! 3. **Layout mismatch** — cyclic (interleaved) data defeats proximity
//!    matching of contiguous tasks: the remote fraction is pinned near
//!    (C−1)/C whatever the scheduler does. An honest negative result.
//! 4. **Composition with overlap** — phase overlap and proximity
//!    assignment attack different losses (rundown idleness vs remote
//!    stalls); together they should beat either alone.

use crate::table::{pct, Table};
use pax_core::mapping::MappingKind;
use pax_core::prelude::*;
use pax_sim::locality::{DataLayout, LocalityModel};
use pax_sim::machine::MachineConfig;
use pax_sim::time::SimDuration;
use pax_workloads::generators::{CostShape, GeneratorConfig};

/// One measured configuration.
#[derive(Debug)]
pub struct E12Row {
    /// Sweep label ("penalty", "window", "layout", "compose").
    pub sweep: &'static str,
    /// Per-granule remote stall in ticks.
    pub remote_extra: u64,
    /// Proximity scan window (`None` = queue order).
    pub window: Option<usize>,
    /// Data layout.
    pub layout: DataLayout,
    /// Whether phase overlap was enabled.
    pub overlap: bool,
    /// Makespan (ticks).
    pub makespan: u64,
    /// Fraction of granules executed off their home cluster.
    pub remote_fraction: f64,
    /// Utilization counting remote stalls as useful occupancy.
    pub utilization: f64,
    /// Utilization with stalls deducted.
    pub effective_utilization: f64,
}

/// Results of E12.
#[derive(Debug)]
pub struct E12Result {
    /// All measured cells.
    pub rows: Vec<E12Row>,
    /// Workers / clusters used.
    pub processors: usize,
    /// Cluster count.
    pub clusters: usize,
}

const MEAN_COST: u64 = 100;

fn workload(quick: bool) -> pax_core::program::Program {
    GeneratorConfig {
        phases: 4,
        granules: if quick { 256 } else { 1024 },
        mean_cost: MEAN_COST,
        shape: CostShape::Jittered,
        mapping: MappingKind::Identity,
        reverse_fan: 4,
        seed: 0xE12,
    }
    .build()
}

#[allow(clippy::too_many_arguments)] // experiment sweep axes, not an API
fn measure(
    quick: bool,
    sweep: &'static str,
    remote_extra: u64,
    window: Option<usize>,
    layout: DataLayout,
    policy: OverlapPolicy,
    processors: usize,
    clusters: usize,
) -> E12Row {
    let machine = MachineConfig::new(processors)
        .with_locality(LocalityModel::new(clusters, SimDuration(remote_extra)).with_layout(layout));
    // Presplit throughout: the proximity scan can only choose among
    // *visible* descriptions, so the queue must expose task-sized pieces
    // rather than one demand-split master. Presplitting is the paper's own
    // "work ahead in otherwise idle time" mechanism, and both policies get
    // it so the comparison stays apples-to-apples.
    let overlap = policy.enabled;
    let policy = policy
        .with_split_strategy(SplitStrategy::PreSplit)
        .with_assignment(match window {
            Some(scan_window) => AssignmentPolicy::DataProximity { scan_window },
            None => AssignmentPolicy::QueueOrder,
        });
    let mut sim = Simulation::new(machine, policy).with_seed(0xE12);
    sim.add_job(workload(quick));
    let r = sim.run().expect("E12 run");
    E12Row {
        sweep,
        remote_extra,
        window,
        layout,
        overlap,
        makespan: r.makespan.ticks(),
        remote_fraction: r.remote_fraction(),
        utilization: r.utilization(),
        effective_utilization: r.effective_utilization(),
    }
}

/// Run E12.
pub fn run(quick: bool) -> E12Result {
    let processors = 16;
    let clusters = 4;
    let mut rows = Vec::new();

    // 1. remote-penalty sweep, block layout, overlap on
    for &extra in &[0u64, 25, 50, 100, 200] {
        for window in [None, Some(32)] {
            rows.push(measure(
                quick,
                "penalty",
                extra,
                window,
                DataLayout::Block,
                OverlapPolicy::overlap(),
                processors,
                clusters,
            ));
        }
    }

    // 2. scan-window sweep at a substantial penalty
    for &w in &[0usize, 4, 16, 64] {
        rows.push(measure(
            quick,
            "window",
            MEAN_COST,
            Some(w),
            DataLayout::Block,
            OverlapPolicy::overlap(),
            processors,
            clusters,
        ));
    }

    // 3. layout mismatch: cyclic data, both policies
    for window in [None, Some(32)] {
        rows.push(measure(
            quick,
            "layout",
            MEAN_COST / 2,
            window,
            DataLayout::Cyclic,
            OverlapPolicy::overlap(),
            processors,
            clusters,
        ));
    }

    // 4. composition with overlap
    for policy in [OverlapPolicy::strict(), OverlapPolicy::overlap()] {
        for window in [None, Some(32)] {
            rows.push(measure(
                quick,
                "compose",
                MEAN_COST,
                window,
                DataLayout::Block,
                policy.clone(),
                processors,
                clusters,
            ));
        }
    }

    E12Result {
        rows,
        processors,
        clusters,
    }
}

fn policy_label(window: Option<usize>) -> String {
    match window {
        None => "queue order".into(),
        Some(w) => format!("proximity w={w}"),
    }
}

impl std::fmt::Display for E12Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E12 — data-proximity work assignment ({} workers, {} memory clusters)",
            self.processors, self.clusters
        )?;

        writeln!(f, "remote-penalty sweep (block layout, overlap on):")?;
        let mut t = Table::new(&[
            "remote stall",
            "assignment",
            "makespan",
            "remote %",
            "util",
            "eff util",
        ]);
        for r in self.rows.iter().filter(|r| r.sweep == "penalty") {
            t.row(vec![
                r.remote_extra.to_string(),
                policy_label(r.window),
                r.makespan.to_string(),
                pct(r.remote_fraction * 100.0),
                pct(r.utilization * 100.0),
                pct(r.effective_utilization * 100.0),
            ]);
        }
        writeln!(f, "{}", t.render())?;

        writeln!(f, "scan-window sweep (stall = granule mean):")?;
        let mut t = Table::new(&["window", "makespan", "remote %", "eff util"]);
        for r in self.rows.iter().filter(|r| r.sweep == "window") {
            t.row(vec![
                r.window.unwrap().to_string(),
                r.makespan.to_string(),
                pct(r.remote_fraction * 100.0),
                pct(r.effective_utilization * 100.0),
            ]);
        }
        writeln!(f, "{}", t.render())?;

        writeln!(f, "layout mismatch (cyclic/interleaved data):")?;
        let mut t = Table::new(&["assignment", "makespan", "remote %"]);
        for r in self.rows.iter().filter(|r| r.sweep == "layout") {
            t.row(vec![
                policy_label(r.window),
                r.makespan.to_string(),
                pct(r.remote_fraction * 100.0),
            ]);
        }
        writeln!(f, "{}", t.render())?;

        writeln!(f, "composition with phase overlap (stall = granule mean):")?;
        let mut t = Table::new(&["phases", "assignment", "makespan", "remote %", "eff util"]);
        for r in self.rows.iter().filter(|r| r.sweep == "compose") {
            t.row(vec![
                if r.overlap { "overlap" } else { "strict" }.into(),
                policy_label(r.window),
                r.makespan.to_string(),
                pct(r.remote_fraction * 100.0),
                pct(r.effective_utilization * 100.0),
            ]);
        }
        writeln!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(
        r: &'a E12Result,
        sweep: &str,
        extra: u64,
        window: Option<usize>,
        overlap: bool,
    ) -> &'a E12Row {
        r.rows
            .iter()
            .find(|x| {
                x.sweep == sweep
                    && x.remote_extra == extra
                    && x.window == window
                    && x.overlap == overlap
            })
            .unwrap()
    }

    #[test]
    fn proximity_cuts_remote_fraction_under_block_layout() {
        let r = run(true);
        let fifo = find(&r, "penalty", 100, None, true);
        let prox = find(&r, "penalty", 100, Some(32), true);
        assert!(
            prox.remote_fraction < fifo.remote_fraction / 2.0,
            "proximity {:.3} should be well below queue order {:.3}",
            prox.remote_fraction,
            fifo.remote_fraction
        );
        assert!(prox.makespan < fifo.makespan);
    }

    #[test]
    fn advantage_grows_with_remote_penalty() {
        let r = run(true);
        let gain = |extra: u64| {
            let fifo = find(&r, "penalty", extra, None, true).makespan as f64;
            let prox = find(&r, "penalty", extra, Some(32), true).makespan as f64;
            fifo / prox
        };
        assert!(
            gain(200) > gain(25),
            "gain at 200 ({:.3}) should exceed gain at 25 ({:.3})",
            gain(200),
            gain(25)
        );
        // with no stall the two policies tie (proximity may reorder but
        // cannot win anything)
        let g0 = gain(0);
        assert!(
            (0.97..=1.03).contains(&g0),
            "no-stall gain {g0:.3} should be ~1"
        );
    }

    #[test]
    fn window_zero_matches_queue_order() {
        let r = run(true);
        let w0 = find(&r, "window", 100, Some(0), true);
        let fifo = find(&r, "penalty", 100, None, true);
        assert_eq!(w0.makespan, fifo.makespan);
        assert!((w0.remote_fraction - fifo.remote_fraction).abs() < 1e-9);
    }

    #[test]
    fn modest_window_captures_most_of_the_benefit() {
        let r = run(true);
        let w4 = find(&r, "window", 100, Some(4), true);
        let w64 = find(&r, "window", 100, Some(64), true);
        let w0 = find(&r, "window", 100, Some(0), true);
        assert!(w4.remote_fraction < w0.remote_fraction);
        assert!(w64.remote_fraction <= w4.remote_fraction + 1e-9);
    }

    #[test]
    fn cyclic_layout_is_hopeless_for_both_policies() {
        let r = run(true);
        for row in r.rows.iter().filter(|x| x.sweep == "layout") {
            assert!(
                row.remote_fraction > 0.70,
                "cyclic remote fraction should stay near (C-1)/C, got {:.3}",
                row.remote_fraction
            );
        }
    }

    #[test]
    fn overlap_and_proximity_compose() {
        let r = run(true);
        let strict_fifo = find(&r, "compose", 100, None, false).makespan;
        let strict_prox = find(&r, "compose", 100, Some(32), false).makespan;
        let ovl_fifo = find(&r, "compose", 100, None, true).makespan;
        let ovl_prox = find(&r, "compose", 100, Some(32), true).makespan;
        assert!(ovl_prox < strict_fifo, "combined must beat plain strict");
        assert!(
            ovl_prox <= strict_prox,
            "adding overlap must not hurt proximity"
        );
        assert!(
            ovl_prox <= ovl_fifo,
            "adding proximity must not hurt overlap"
        );
    }
}
