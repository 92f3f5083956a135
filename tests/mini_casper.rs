//! Cross-crate validation of the mini-CASPER numeric pipeline: the same
//! dataflow must produce bitwise-identical results through the sequential
//! reference and the central-executive thread executor — under barriers
//! and under overlap — and the simulated executive must schedule it
//! without violating any enablement. The chain oracle in
//! `tests/chain_executors.rs` also runs the pipeline in both modes and
//! checks its release order.

use pax_bench::experiments::e9::mini_casper_chain;
use pax_core::prelude::*;
use pax_runtime::{run_chain, RuntimeConfig};
use pax_sim::machine::MachineConfig;
use pax_workloads::{CostShape, MiniCasper};
use std::time::Duration;

fn spec() -> MiniCasper {
    MiniCasper::new(128, 4, 3, 2, 0xFEED)
}

#[test]
fn central_executor_is_bit_exact_in_all_modes() {
    let spec = spec();
    let (u_ref, s_ref) = spec.reference();
    for overlap in [false, true] {
        let (phases, u, s) = mini_casper_chain(&spec, Duration::ZERO);
        let cfg = if overlap {
            RuntimeConfig::new(3, 8)
        } else {
            RuntimeConfig::new(3, 8).barrier()
        };
        run_chain(phases, cfg);
        assert_eq!(u.to_vec(), u_ref, "u (overlap={overlap})");
        assert_eq!(s.to_vec(), s_ref, "s (overlap={overlap})");
    }
}

#[test]
fn repeated_runs_are_bit_identical_across_executors() {
    // determinism is a property of the dataflow, not the schedule: any
    // two runs agree exactly, whatever their worker count
    let spec = spec();
    let mut finals: Vec<Vec<f64>> = Vec::new();
    for workers in [2, 2, 4] {
        let (phases, u, _) = mini_casper_chain(&spec, Duration::ZERO);
        run_chain(phases, RuntimeConfig::new(workers, 4));
        finals.push(u.to_vec());
    }
    for w in finals.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn simulated_executive_overlaps_the_pipeline_legally() {
    let spec = spec();
    let program = spec.sim_program(30, CostShape::Jittered);
    let mut sim = Simulation::new(MachineConfig::ideal(8), OverlapPolicy::overlap()).with_gantt();
    sim.add_job(program);
    let r = sim.run().unwrap();
    assert!(r.total_overlap_granules() > 0, "pipeline must overlap");

    // Enablement safety from the Gantt trace: no interp-t granule may
    // start before all its IMAP-required power-t granules end.
    let gantt = r.gantt.as_ref().unwrap();
    use std::collections::HashMap;
    let mut start: HashMap<(u32, u32), u64> = HashMap::new();
    let mut end: HashMap<(u32, u32), u64> = HashMap::new();
    for span in gantt.spans() {
        for g in span.lo..span.hi {
            start.insert((span.phase, g), span.start.ticks());
            end.insert((span.phase, g), span.end.ticks());
        }
    }
    let mut checked = 0;
    for w in r.phases.windows(2) {
        if w[1].enabled_by != Some(pax_core::mapping::MappingKind::ReverseIndirect) {
            continue;
        }
        let (power_i, interp_i) = (w[0].instance.0, w[1].instance.0);
        for (g, reqs) in spec.imap.iter().enumerate() {
            let Some(&s0) = start.get(&(interp_i, g as u32)) else {
                continue;
            };
            for &dep in reqs {
                let e = end.get(&(power_i, dep)).copied().unwrap_or(u64::MAX);
                assert!(
                    s0 >= e,
                    "interp granule {g} started at {s0} before power {dep} ended at {e}"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 200,
        "the reverse-map invariant must fire: {checked}"
    );
}

#[test]
fn serial_decision_blocks_overlap_at_the_right_boundaries() {
    // serial_every = 1: every timestep boundary is a convergence decision,
    // so no granule of any timestep may run before the previous timestep
    // completes entirely.
    let spec = MiniCasper::new(64, 3, 3, 1, 5);
    let program = spec.sim_program(20, CostShape::Constant);
    let mut sim = Simulation::new(MachineConfig::ideal(4), OverlapPolicy::overlap());
    sim.add_job(program);
    let r = sim.run().unwrap();
    // 12 phase instances; overlap may only happen *within* a timestep
    // (power→interp→apply→structural), never across the serial boundary
    for (i, ph) in r.phases.iter().enumerate() {
        let step_first = i % 4 == 0;
        if step_first {
            assert_eq!(
                ph.stats.overlap_granules, 0,
                "phase {i} ({}) crossed a serial decision",
                ph.name
            );
        }
    }
}
