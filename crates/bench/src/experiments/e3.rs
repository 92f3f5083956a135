//! **E3 — rundown utilization profiles (figure-style).**
//!
//! The paper's core qualitative claim: without overlap, busy-processor
//! count collapses at the end of every phase ("computational rundown");
//! with an enablement mapping, successor work fills the collapse. This
//! experiment emits the busy-processor time series across a two-phase
//! boundary, barrier vs overlap, for each mapping kind — the series a
//! figure would plot — plus summary rundown-idle numbers.

use crate::table::{f2, pct, Table};
use pax_core::mapping::MappingKind;
use pax_core::prelude::*;
use pax_sim::machine::MachineConfig;
use pax_workloads::generators::{CostShape, GeneratorConfig};

/// One mapping's barrier-vs-overlap comparison.
#[derive(Debug)]
pub struct E3Row {
    /// Mapping kind.
    pub mapping: MappingKind,
    /// Barrier makespan (ticks).
    pub strict_makespan: u64,
    /// Overlap makespan (ticks).
    pub overlap_makespan: u64,
    /// Barrier utilization.
    pub strict_util: f64,
    /// Overlap utilization.
    pub overlap_util: f64,
    /// Idle processor-ticks in the rundown window of phase 0, barrier.
    pub strict_rundown_idle: u64,
    /// Idle processor-ticks in the rundown window of phase 0, overlap.
    pub overlap_rundown_idle: u64,
    /// Granules of successor phases executed during predecessors.
    pub overlap_granules: u64,
    /// Resampled busy-processor series (time, strict, overlap).
    pub series: Vec<(u64, u32, u32)>,
}

/// Results of E3.
#[derive(Debug)]
pub struct E3Result {
    /// Processor count used.
    pub processors: usize,
    /// Rows per mapping kind.
    pub rows: Vec<E3Row>,
}

/// Run E3.
pub fn run(quick: bool) -> E3Result {
    let processors = 32;
    let granules = if quick { 200 } else { 1000 };
    let mappings = [
        MappingKind::Universal,
        MappingKind::Identity,
        MappingKind::ForwardIndirect,
        MappingKind::ReverseIndirect,
        MappingKind::Seam,
        MappingKind::Null,
    ];
    let mut rows = Vec::new();
    for mapping in mappings {
        let cfg = GeneratorConfig {
            phases: 3,
            granules,
            mean_cost: 100,
            shape: CostShape::Jittered,
            mapping,
            reverse_fan: 4,
            seed: 0xE3,
        };
        let program = cfg.build();
        let run_once = |policy| {
            let mut sim = Simulation::new(MachineConfig::ideal(processors), policy).with_seed(0xE3);
            sim.add_job(program.clone());
            sim.run().expect("E3 run")
        };
        let strict = run_once(OverlapPolicy::strict());
        let over = run_once(OverlapPolicy::overlap());
        let span = strict.makespan.ticks().max(over.makespan.ticks());
        let samples = 24usize;
        let series: Vec<(u64, u32, u32)> = (0..samples)
            .map(|i| {
                let t = span * i as u64 / (samples as u64 - 1);
                (
                    t,
                    strict.busy_trace.value_at(pax_sim::SimTime(t)),
                    over.busy_trace.value_at(pax_sim::SimTime(t)),
                )
            })
            .collect();
        rows.push(E3Row {
            mapping,
            strict_makespan: strict.makespan.ticks(),
            overlap_makespan: over.makespan.ticks(),
            strict_util: strict.utilization(),
            overlap_util: over.utilization(),
            strict_rundown_idle: strict
                .rundown_of(0)
                .map(|w| w.idle_processor_time)
                .unwrap_or(0),
            overlap_rundown_idle: over
                .rundown_of(0)
                .map(|w| w.idle_processor_time)
                .unwrap_or(0),
            overlap_granules: over.total_overlap_granules(),
            series,
        });
    }
    E3Result { processors, rows }
}

impl std::fmt::Display for E3Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "E3 — rundown profiles, {} processors (3 phases, jittered costs)",
            self.processors
        )?;
        let mut t = Table::new(&[
            "mapping",
            "strict span",
            "overlap span",
            "speedup",
            "strict util",
            "overlap util",
            "rundown idle s",
            "rundown idle o",
            "ovl granules",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.mapping.label().into(),
                r.strict_makespan.to_string(),
                r.overlap_makespan.to_string(),
                f2(r.strict_makespan as f64 / r.overlap_makespan as f64),
                pct(r.strict_util * 100.0),
                pct(r.overlap_util * 100.0),
                r.strict_rundown_idle.to_string(),
                r.overlap_rundown_idle.to_string(),
                r.overlap_granules.to_string(),
            ]);
        }
        writeln!(f, "{}", t.render())?;
        // figure-style ASCII series for the identity row
        if let Some(row) = self
            .rows
            .iter()
            .find(|r| r.mapping == MappingKind::Identity)
        {
            writeln!(f, "busy processors over time (identity mapping):")?;
            writeln!(f, "{:>10}  {:>7}  {:>7}", "t", "strict", "overlap")?;
            for &(t, s, o) in &row.series {
                writeln!(f, "{t:>10}  {s:>7}  {o:>7}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_beats_barrier_for_overlappable_mappings() {
        let r = run(true);
        for row in &r.rows {
            if row.mapping.overlappable() {
                assert!(
                    row.overlap_makespan <= row.strict_makespan,
                    "{:?}: {} > {}",
                    row.mapping,
                    row.overlap_makespan,
                    row.strict_makespan
                );
                assert!(
                    row.overlap_granules > 0,
                    "{:?} produced no overlap",
                    row.mapping
                );
            } else {
                assert_eq!(row.overlap_granules, 0);
                assert_eq!(row.overlap_makespan, row.strict_makespan);
            }
        }
    }

    #[test]
    fn overlap_reduces_rundown_idle_for_identity() {
        let r = run(true);
        let id = r
            .rows
            .iter()
            .find(|x| x.mapping == MappingKind::Identity)
            .unwrap();
        assert!(
            id.overlap_rundown_idle < id.strict_rundown_idle,
            "idle {} !< {}",
            id.overlap_rundown_idle,
            id.strict_rundown_idle
        );
    }
}
