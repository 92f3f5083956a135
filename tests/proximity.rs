//! Cross-crate integration tests for the data-proximity work assignment
//! extension (E12): pax-sim's clustered-memory model + pax-core's
//! assignment policy + pax-workloads' generators and checkerboard, with
//! schedule-level verification through Gantt traces.

use pax_core::mapping::MappingKind;
use pax_core::prelude::*;
use pax_sim::dist::CostModel;
use pax_sim::locality::{DataLayout, LocalityModel};
use pax_sim::machine::MachineConfig;
use pax_sim::time::SimDuration;
use pax_workloads::checkerboard::checkerboard_program;
use pax_workloads::generators::{CostShape, GeneratorConfig};

fn clustered(processors: usize, clusters: usize, stall: u64) -> MachineConfig {
    MachineConfig::ideal(processors).with_locality(LocalityModel::new(clusters, SimDuration(stall)))
}

fn proximity(window: usize) -> OverlapPolicy {
    OverlapPolicy::overlap()
        .with_split_strategy(SplitStrategy::PreSplit)
        .with_assignment(AssignmentPolicy::DataProximity {
            scan_window: window,
        })
}

/// Every compute span in the Gantt trace must agree with the report's
/// local/remote accounting: re-deriving the remote count per span from
/// the machine's own locality model reproduces the report total.
#[test]
fn gantt_spans_agree_with_remote_accounting() {
    let processors = 8;
    let clusters = 4;
    let cfg = clustered(processors, clusters, 7);
    let loc = cfg.locality.clone().unwrap();
    let program = GeneratorConfig {
        phases: 3,
        granules: 240,
        mean_cost: 50,
        shape: CostShape::Jittered,
        mapping: MappingKind::Identity,
        reverse_fan: 4,
        seed: 7,
    }
    .build();
    let mut sim = Simulation::new(cfg, proximity(16)).with_gantt();
    sim.add_job(program);
    let r = sim.run().unwrap();

    let gantt = r.gantt.as_ref().expect("gantt enabled");
    let mut remote = 0u64;
    let mut executed = 0u64;
    for span in gantt.spans() {
        executed += u64::from(span.hi - span.lo);
        let wc = loc.worker_cluster(span.worker as usize, processors);
        remote += loc.remote_granules(span.lo, span.hi, 240, wc);
    }
    assert_eq!(executed, 3 * 240);
    assert_eq!(remote, r.remote_granules, "gantt-derived remote count");
    assert_eq!(r.local_granules + r.remote_granules, executed);
    assert_eq!(r.remote_stall.ticks(), 7 * remote);
}

/// Proximity assignment must not break the seam-enablement safety
/// invariant on the checkerboard: black cells still wait for their red
/// neighbors even when the scheduler reorders for locality.
#[test]
fn proximity_preserves_seam_enablement_on_checkerboard() {
    let n = 12;
    let program = checkerboard_program(n, 2, CostModel::constant(10));
    let mut sim = Simulation::new(
        clustered(5, 2, 4),
        proximity(8).with_sizing(TaskSizing::Fixed(2)),
    )
    .with_gantt();
    sim.add_job(program);
    let r = sim.run().unwrap();

    // Reconstruct per-granule completion times per phase instance.
    let gantt = r.gantt.as_ref().unwrap();
    use std::collections::HashMap;
    let mut done: HashMap<(u32, u32), u64> = HashMap::new(); // (inst, granule) -> end
    let mut start: HashMap<(u32, u32), u64> = HashMap::new();
    for span in gantt.spans() {
        for g in span.lo..span.hi {
            done.insert((span.phase, g), span.end.ticks());
            start.insert((span.phase, g), span.start.ticks());
        }
    }
    // For every seam-enabled pair of adjacent instances, check that each
    // successor granule starts no earlier than all its cross-color
    // neighbor enablers end. The map direction follows the predecessor's
    // color (red-sweep enables black cells and vice versa).
    use pax_workloads::checkerboard::{Checkerboard, Color};
    let board = Checkerboard::new(n);
    let mut checked = 0usize;
    for w in r.phases.windows(2) {
        let (pred_i, succ_i) = (w[0].instance.0, w[1].instance.0);
        if w[1].enabled_by != Some(MappingKind::Seam) {
            continue;
        }
        let from = if w[0].name.starts_with("red") {
            Color::Red
        } else {
            Color::Black
        };
        let seam = board.seam_map(from);
        for (succ_g, enablers) in seam.requires.iter().enumerate() {
            let Some(&s) = start.get(&(succ_i, succ_g as u32)) else {
                continue;
            };
            for &pred_g in enablers {
                let e = done.get(&(pred_i, pred_g)).copied().unwrap_or(u64::MAX);
                assert!(
                    s >= e,
                    "successor granule {succ_g} started at {s} before \
                     enabler {pred_g} ended at {e}"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked > 100,
        "seam invariant must actually fire: {checked}"
    );
    // every granule of every phase executed
    for ph in &r.phases {
        assert_eq!(ph.stats.executed_granules, ph.granules);
    }
}

/// Multi-job streams with proximity assignment: round-robin fairness and
/// work conservation hold with the queue scan active.
#[test]
fn proximity_with_multiple_job_streams() {
    let mk = |seed: u64| {
        GeneratorConfig {
            phases: 2,
            granules: 128,
            mean_cost: 40,
            shape: CostShape::Jittered,
            mapping: MappingKind::Identity,
            reverse_fan: 4,
            seed,
        }
        .build()
    };
    let mut sim = Simulation::new(clustered(8, 4, 10), proximity(16));
    sim.add_job(mk(1));
    sim.add_job(mk(2));
    let r = sim.run().unwrap();
    assert_eq!(r.jobs.len(), 2);
    for j in &r.jobs {
        assert!(j.finished_at.is_some());
    }
    assert_eq!(r.local_granules + r.remote_granules, 4 * 128);
    // both jobs share the machine: neither monopolizes (each span well
    // under the total makespan would be too strong; just check both ran
    // concurrently at some point by comparing starts to the makespan)
    let spans: Vec<u64> = r
        .jobs
        .iter()
        .map(|j| j.makespan().unwrap().ticks())
        .collect();
    let total = r.makespan.ticks();
    assert!(
        spans.iter().all(|&s| s > total / 2),
        "round-robin sharing should interleave the jobs: {spans:?} vs {total}"
    );
}

/// Proximity's benefit survives the full PAX cost model (management
/// charges on every dispatch/split) — not just ideal machines.
#[test]
fn proximity_wins_with_real_management_costs() {
    let program = GeneratorConfig {
        phases: 4,
        granules: 512,
        mean_cost: 100,
        shape: CostShape::Jittered,
        mapping: MappingKind::Identity,
        reverse_fan: 4,
        seed: 99,
    }
    .build();
    let machine = MachineConfig::new(16).with_locality(LocalityModel::new(4, SimDuration(100)));
    let fifo = {
        let mut s = Simulation::new(
            machine.clone(),
            OverlapPolicy::overlap().with_split_strategy(SplitStrategy::PreSplit),
        );
        s.add_job(program.clone());
        s.run().unwrap()
    };
    let prox = {
        let mut s = Simulation::new(machine, proximity(32));
        s.add_job(program);
        s.run().unwrap()
    };
    assert!(
        prox.makespan.ticks() < fifo.makespan.ticks(),
        "proximity {} !< fifo {}",
        prox.makespan,
        fifo.makespan
    );
    assert!(prox.remote_fraction() < 0.10);
    assert!(fifo.remote_fraction() > 0.50);
}

/// Cyclic layouts pin the remote fraction near (C-1)/C for every policy
/// and window — the negative result, end to end.
#[test]
fn cyclic_layout_remote_fraction_is_invariant() {
    let program = GeneratorConfig {
        phases: 2,
        granules: 256,
        mean_cost: 50,
        shape: CostShape::Constant,
        mapping: MappingKind::Identity,
        reverse_fan: 4,
        seed: 3,
    }
    .build();
    let mut fracs = Vec::new();
    for window in [0usize, 8, 64] {
        let machine = MachineConfig::ideal(8)
            .with_locality(LocalityModel::new(4, SimDuration(5)).with_layout(DataLayout::Cyclic));
        let mut s = Simulation::new(machine, proximity(window));
        s.add_job(program.clone());
        let r = s.run().unwrap();
        fracs.push(r.remote_fraction());
    }
    for f in &fracs {
        assert!(
            (*f - 0.75).abs() < 0.05,
            "cyclic remote fraction should sit near 0.75: {fracs:?}"
        );
    }
}
