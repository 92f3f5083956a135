//! **E6 — the multi-job-stream alternative.**
//!
//! Paper claim (introduction): "Another alternative is to create a
//! multi-parallel-job-stream environment that allows computational work
//! of one job stream to fill in when another job stream enters a
//! computational rundown situation. This will bring processor utilization
//! up; however, ... the introduction of such a 'batch' environment will
//! inevitably distribute processor resources among the several job
//! streams and, thus, reduce the total processing power on any particular
//! job and lengthen its elapsed wall-clock time."
//!
//! The experiment runs 1, 2 and 4 identical job streams on one machine
//! (strict barriers, no overlap) and contrasts with single-job overlap:
//! batching raises utilization but stretches per-job wall-clock, while
//! overlap raises utilization *and* shortens the job.

use crate::table::{f2, pct, Table};
use pax_core::mapping::MappingKind;
use pax_core::prelude::*;
use pax_sim::machine::MachineConfig;
use pax_workloads::generators::{CostShape, GeneratorConfig};

/// One arrangement's outcome.
#[derive(Debug)]
pub struct E6Row {
    /// Description.
    pub arrangement: String,
    /// Number of job streams.
    pub jobs: usize,
    /// Machine utilization.
    pub utilization: f64,
    /// Mean per-job makespan (ticks).
    pub mean_job_span: f64,
    /// Worst per-job makespan (ticks).
    pub max_job_span: u64,
}

/// Results of E6.
#[derive(Debug)]
pub struct E6Result {
    /// Rows for each arrangement.
    pub rows: Vec<E6Row>,
}

/// Run E6.
pub fn run(quick: bool) -> E6Result {
    let processors = 16;
    let granules = if quick { 200 } else { 1000 };
    let cfg = GeneratorConfig {
        phases: 5,
        granules,
        mean_cost: 100,
        shape: CostShape::Straggler, // heavy rundown tails
        mapping: MappingKind::Identity,
        reverse_fan: 4,
        seed: 0xE6,
    };
    let mut rows = Vec::new();
    let mut run_jobs = |jobs: usize, overlap: bool, label: &str| {
        let policy = if overlap {
            OverlapPolicy::overlap()
        } else {
            OverlapPolicy::strict()
        };
        let mut sim = Simulation::new(MachineConfig::ideal(processors), policy).with_seed(0xE6);
        for _ in 0..jobs {
            sim.add_job(cfg.build(overlap));
        }
        let r = sim.run().expect("E6 run");
        let spans: Vec<u64> = r
            .jobs
            .iter()
            .map(|j| j.makespan().expect("job finished").ticks())
            .collect();
        rows.push(E6Row {
            arrangement: label.to_string(),
            jobs,
            utilization: r.utilization(),
            mean_job_span: spans.iter().sum::<u64>() as f64 / spans.len() as f64,
            max_job_span: spans.iter().copied().max().unwrap_or(0),
        });
    };
    run_jobs(1, false, "1 job, strict barriers");
    run_jobs(2, false, "2 job streams (batch fill)");
    run_jobs(4, false, "4 job streams (batch fill)");
    run_jobs(1, true, "1 job, phase overlap (the paper's remedy)");
    E6Result { rows }
}

impl std::fmt::Display for E6Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "E6 — batch job streams vs phase overlap")?;
        let mut t = Table::new(&[
            "arrangement",
            "jobs",
            "utilization",
            "mean job span",
            "max job span",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.arrangement.clone(),
                r.jobs.to_string(),
                pct(r.utilization * 100.0),
                f2(r.mean_job_span),
                r.max_job_span.to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_raises_utilization_but_stretches_jobs() {
        let r = run(true);
        let single = &r.rows[0];
        let two = &r.rows[1];
        let four = &r.rows[2];
        assert!(two.utilization > single.utilization);
        assert!(four.utilization >= two.utilization);
        // "reduce the total processing power on any particular job and
        // lengthen its elapsed wall-clock time"
        // batching shares the machine: each added stream lengthens every
        // job's wall-clock (the exact factor depends on how much rundown
        // idle the fill recovers)
        assert!(two.mean_job_span > single.mean_job_span * 1.2);
        assert!(four.mean_job_span > two.mean_job_span * 1.2);
    }

    #[test]
    fn overlap_beats_batching_on_both_axes() {
        let r = run(true);
        let single = &r.rows[0];
        let overlap = &r.rows[3];
        assert!(overlap.utilization > single.utilization);
        assert!(
            overlap.mean_job_span < single.mean_job_span,
            "overlap should shorten the job, not stretch it"
        );
    }
}
