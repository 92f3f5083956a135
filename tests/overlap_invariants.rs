//! Schedule-level safety invariants, checked from Gantt traces at
//! moderate scale: the executive must never start a successor granule
//! before its enablers complete — under any mapping, policy, or machine.

use pax_core::prelude::*;
use pax_sim::dist::CostModel;
use pax_sim::machine::{ExecutivePlacement, MachineConfig, ManagementCosts};
use pax_workloads::checkerboard::{checkerboard_program, Checkerboard, Color};
use std::sync::Arc;

fn overlap_policy(strategy: SplitStrategy) -> OverlapPolicy {
    OverlapPolicy::overlap()
        .with_split_strategy(strategy)
        .with_sizing(TaskSizing::Fixed(3))
}

/// Checkerboard seam invariant: every black cell must start strictly
/// after all of its red neighbors complete, even while the red phase is
/// still draining.
#[test]
fn seam_enablement_invariant_on_checkerboard() {
    let n = 12;
    let board = Checkerboard::new(n);
    let program = checkerboard_program(n, 2, CostModel::constant(10), true);
    let mut sim = Simulation::new(
        MachineConfig::ideal(5),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(2)),
    )
    .with_gantt();
    sim.add_job(program);
    let r = sim.run().unwrap();
    let g = r.gantt.as_ref().unwrap();
    assert!(
        r.phases[1].stats.overlap_granules > 0,
        "no seam overlap happened"
    );
    let seam = board.seam_map(Color::Red);
    for (black_granule, reds) in seam.requires.iter().enumerate() {
        let start = g
            .granule_start(1, black_granule as u32)
            .expect("black granule ran");
        for &red in reds {
            let done = g.granule_completion(0, red).expect("red granule ran");
            assert!(
                start >= done,
                "black {black_granule} started {start} before red {red} done {done}"
            );
        }
    }
}

/// The invariant holds under management costs and the worker-stealing
/// executive as well.
#[test]
fn identity_invariant_with_costs_and_stealing_executive() {
    for strategy in [
        SplitStrategy::DemandSplit,
        SplitStrategy::PreSplit,
        SplitStrategy::SuccessorSplitTask,
    ] {
        let cost = CostModel::new(pax_sim::dist::DurationDist::uniform(5, 60));
        let phases = ["a", "b"].map(|name| PhaseDef::new(name, 50, cost.clone()));
        let program = Program::chain(phases.into(), vec![EnablementMapping::Identity]).unwrap();
        let machine = MachineConfig::new(6)
            .with_executive(ExecutivePlacement::StealsWorker)
            .with_costs(ManagementCosts::pax_default().scaled(3));
        let mut sim = Simulation::new(machine, overlap_policy(strategy))
            .with_seed(31)
            .with_gantt();
        sim.add_job(program);
        let r = sim.run().unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        let g = r.gantt.as_ref().unwrap();
        for i in 0..50u32 {
            let done = g.granule_completion(0, i).unwrap();
            let start = g.granule_start(1, i).unwrap();
            assert!(start >= done, "{strategy:?}: granule {i}");
        }
    }
}

/// Forward maps with collisions (several writers of one successor
/// granule): the successor may start only after the *last* writer.
#[test]
fn forward_collision_invariant() {
    // granules 0..20 write successor granule i/4 (4 writers each)
    let targets: Vec<u32> = (0..20).map(|i| i / 4).collect();
    let fwd = ForwardMap::new(targets.clone(), 20);
    let phases = vec![
        PhaseDef::new(
            "writers",
            20,
            CostModel::new(pax_sim::dist::DurationDist::uniform(5, 40)),
        ),
        PhaseDef::new("readers", 20, CostModel::constant(10)),
    ];
    let mapping = EnablementMapping::ForwardIndirect(Arc::new(fwd));
    let mut sim = Simulation::new(
        MachineConfig::ideal(4),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    )
    .with_seed(77)
    .with_gantt();
    sim.add_job(Program::chain(phases, vec![mapping]).unwrap());
    let r = sim.run().unwrap();
    let g = r.gantt.as_ref().unwrap();
    for succ in 0..5u32 {
        let start = g.granule_start(1, succ).unwrap();
        for writer in (succ * 4)..(succ * 4 + 4) {
            let done = g.granule_completion(0, writer).unwrap();
            assert!(
                start >= done,
                "successor {succ} started before writer {writer} finished"
            );
        }
    }
}

/// Overlap is work-conserving: identical total compute regardless of
/// policy, machine, or split strategy.
#[test]
fn work_conservation_across_policies() {
    let mk = || {
        let cfg = pax_workloads::generators::GeneratorConfig {
            phases: 4,
            granules: 64,
            mean_cost: 25,
            shape: pax_workloads::generators::CostShape::Constant,
            mapping: MappingKind::Identity,
            reverse_fan: 4,
            seed: 3,
        };
        cfg.build(true)
    };
    let mut spans = Vec::new();
    for (procs, policy) in [
        (4usize, OverlapPolicy::strict()),
        (4, OverlapPolicy::overlap()),
        (7, overlap_policy(SplitStrategy::PreSplit)),
        (7, overlap_policy(SplitStrategy::SuccessorSplitTask)),
    ] {
        let mut sim = Simulation::new(MachineConfig::ideal(procs), policy);
        sim.add_job(mk());
        let r = sim.run().unwrap();
        assert_eq!(r.compute_time.ticks(), 4 * 64 * 25);
        spans.push(r.makespan.ticks());
    }
    // sanity: more processors never hurt
    assert!(spans[2] <= spans[1]);
}

/// Descriptor economy: the arena recycles; peak live descriptors stay far
/// below total allocations on long runs.
#[test]
fn descriptor_arena_recycles() {
    let cfg = pax_workloads::casper::CasperConfig {
        granules: 64,
        iterations: 3,
        mean_cost: 20,
        ..Default::default()
    };
    let mut sim = Simulation::new(MachineConfig::ideal(8), OverlapPolicy::overlap());
    sim.add_job(cfg.build(true));
    let r = sim.run().unwrap();
    assert!(
        (r.descriptors_peak as u64) * 4 < r.descriptors_created,
        "peak {} vs created {} — arena not recycling",
        r.descriptors_peak,
        r.descriptors_created
    );
}
