//! Edge cases and failure-mode tests for the executive.

use pax_core::prelude::*;
use pax_sim::dist::{CostModel, DurationDist};
use pax_sim::machine::{ExecutivePlacement, MachineConfig, ManagementCosts};
use std::sync::Arc;

fn simple_program(granules: u32, phases: usize, mapping: EnablementMapping) -> Program {
    let defs = (0..phases)
        .map(|i| PhaseDef::new(format!("p{i}"), granules, CostModel::constant(10)))
        .collect();
    Program::chain(defs, vec![mapping; phases - 1]).unwrap()
}

#[test]
fn single_granule_phases() {
    let p = simple_program(1, 3, EnablementMapping::Identity);
    let mut sim = Simulation::new(MachineConfig::ideal(4), OverlapPolicy::overlap());
    sim.add_job(p);
    let r = sim.run().unwrap();
    assert_eq!(r.makespan.ticks(), 30);
    for ph in &r.phases {
        assert_eq!(ph.stats.executed_granules, 1);
    }
}

#[test]
fn one_processor_machine() {
    let p = simple_program(10, 2, EnablementMapping::Universal);
    let mut sim = Simulation::new(MachineConfig::ideal(1), OverlapPolicy::overlap());
    sim.add_job(p);
    let r = sim.run().unwrap();
    // one processor: overlap cannot help, must equal serial time
    assert_eq!(r.makespan.ticks(), 200);
    assert!((r.utilization() - 1.0).abs() < 1e-9);
}

#[test]
fn more_processors_than_granules() {
    let p = simple_program(3, 2, EnablementMapping::Identity);
    let mut sim = Simulation::new(
        MachineConfig::ideal(64),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    );
    sim.add_job(p);
    let r = sim.run().unwrap();
    // phase 1 at t=0..10 (3 procs busy), phase 2 granules enabled at 10:
    // 10..20 — the barrier-free chain is the critical path
    assert_eq!(r.makespan.ticks(), 20);
}

#[test]
fn empty_simulation_rejected() {
    let sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::strict());
    let err = sim.run().unwrap_err();
    assert!(matches!(err, EngineError::InvalidProgram(_)));
}

#[test]
fn invalid_program_rejected_before_running() {
    let bad = Program {
        phases: vec![PhaseDef::new("a", 4, CostModel::constant(1))],
        steps: vec![Step::Goto(99), Step::End],
        counters: 0,
    };
    let mut sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::strict());
    sim.add_job(bad);
    let err = sim.run().unwrap_err();
    match err {
        EngineError::InvalidProgram(msg) => assert!(msg.contains("goto")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn zero_cost_granules_complete() {
    let zero = PhaseDef::new("zero", 50, CostModel::constant(0));
    let zero = Program::chain(vec![zero], vec![]).unwrap();
    let mut sim = Simulation::new(MachineConfig::ideal(4), OverlapPolicy::strict());
    sim.add_job(zero);
    let r = sim.run().unwrap();
    assert_eq!(r.makespan.ticks(), 0);
    assert_eq!(r.phases[0].stats.executed_granules, 50);
}

#[test]
fn huge_skip_probability_still_completes() {
    let model = CostModel::new(DurationDist::constant(100)).with_skip(0.95, 1);
    let skipped = PhaseDef::new("mostly-skipped", 200, model);
    let mut sim = Simulation::new(MachineConfig::ideal(8), OverlapPolicy::strict());
    sim.add_job(Program::chain(vec![skipped], vec![]).unwrap());
    let r = sim.run().unwrap();
    assert_eq!(r.phases[0].stats.executed_granules, 200);
    // expected compute ≈ 200 × (0.05×100 + 0.95×1) ≈ 1190; allow wide noise
    assert!(r.compute_time.ticks() < 4000);
}

#[test]
fn identity_chain_of_many_phases() {
    let p = simple_program(17, 12, EnablementMapping::Identity);
    let mut sim = Simulation::new(
        MachineConfig::ideal(5),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    );
    sim.add_job(p);
    let r = sim.run().unwrap();
    assert_eq!(r.phases.len(), 12);
    assert_eq!(r.compute_time.ticks(), 17 * 12 * 10);
    // every interior phase should achieve some overlap (17 % 5 != 0)
    let overlapped = r
        .phases
        .iter()
        .skip(1)
        .filter(|p| p.stats.overlap_granules > 0)
        .count();
    assert!(overlapped >= 8, "only {overlapped} of 11 phases overlapped");
}

#[test]
fn reverse_map_with_full_fan_in() {
    // every successor granule depends on every current granule: overlap
    // machinery degenerates to a barrier but must stay correct
    let n = 12u32;
    let req: Vec<Vec<u32>> = (0..n).map(|_| (0..n).collect()).collect();
    let mapping = EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(req, n)));
    let p = simple_program(n, 2, mapping);
    let mut sim = Simulation::new(
        MachineConfig::ideal(4),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    );
    sim.add_job(p);
    let r = sim.run().unwrap();
    let pred_end = r.phases[0].stats.completed_at.unwrap();
    let succ_start = r.phases[1].stats.first_start.unwrap();
    assert!(succ_start >= pred_end, "full fan-in must act as a barrier");
    assert_eq!(r.phases[1].stats.overlap_granules, 0);
}

#[test]
fn forward_map_partial_coverage_releases_rest_immediately() {
    // only granule 0 of the successor is written by the current phase;
    // granules 1.. are null-set enabled and may run from initiation
    let fwd = ForwardMap::new(vec![0], 16);
    let mapping = EnablementMapping::ForwardIndirect(Arc::new(fwd));
    let phases = vec![
        PhaseDef::new("a", 1, CostModel::constant(100)),
        PhaseDef::new("b", 16, CostModel::constant(10)),
    ];
    let mut sim = Simulation::new(
        MachineConfig::ideal(4),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    )
    .with_gantt();
    sim.add_job(Program::chain(phases, vec![mapping]).unwrap());
    let r = sim.run().unwrap();
    let g = r.gantt.as_ref().unwrap();
    // successor granule 1 (null-set) may start before the predecessor ends
    let pred_end = g.granule_completion(0, 0).unwrap();
    let free_start = g.granule_start(1, 1).unwrap();
    assert!(
        free_start < pred_end,
        "null-set granules should fill immediately"
    );
    // but successor granule 0 must wait for its writer
    let gated_start = g.granule_start(1, 0).unwrap();
    assert!(gated_start >= pred_end);
}

#[test]
fn stealing_executive_with_huge_costs_still_terminates() {
    let p = simple_program(30, 3, EnablementMapping::Identity);
    let machine = MachineConfig::new(4)
        .with_executive(ExecutivePlacement::StealsWorker)
        .with_costs(ManagementCosts::pax_default().scaled(1000));
    let mut sim = Simulation::new(machine, OverlapPolicy::overlap());
    sim.add_job(p);
    let r = sim.run().unwrap();
    assert_eq!(r.phases.len(), 3);
    assert!(
        r.comp_to_mgmt_ratio() < 1.0,
        "management should dominate here"
    );
}

#[test]
fn multi_lane_executive_equivalent_work() {
    let run_with_lanes = |lanes: usize| {
        let machine = MachineConfig::new(6)
            .with_costs(ManagementCosts::pax_default().scaled(20))
            .with_executive_lanes(lanes);
        let mut sim = Simulation::new(machine, OverlapPolicy::overlap());
        sim.add_job(simple_program(60, 3, EnablementMapping::Universal));
        sim.run().unwrap()
    };
    let one = run_with_lanes(1);
    let four = run_with_lanes(4);
    assert_eq!(one.compute_time, four.compute_time);
    assert!(four.makespan <= one.makespan, "lanes should not hurt");
}

#[test]
fn gantt_disabled_by_default() {
    let p = simple_program(8, 1, EnablementMapping::Null);
    let mut sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::strict());
    sim.add_job(p);
    let r = sim.run().unwrap();
    assert!(r.gantt.is_none());
}

#[test]
fn seam_mapping_runs_through_engine() {
    let n = 20u32;
    let req: Vec<Vec<u32>> = (0..n)
        .map(|r| vec![r.saturating_sub(1), r, (r + 1).min(n - 1)])
        .collect();
    let mapping = EnablementMapping::Seam(Arc::new(ReverseMap::new(req.clone(), n)));
    let p = simple_program(n, 2, mapping);
    let mut sim = Simulation::new(
        MachineConfig::ideal(3),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    )
    .with_gantt();
    sim.add_job(p);
    let r = sim.run().unwrap();
    let g = r.gantt.as_ref().unwrap();
    for (succ, deps) in req.iter().enumerate() {
        let start = g.granule_start(1, succ as u32).unwrap();
        for &d in deps {
            let done = g.granule_completion(0, d).unwrap();
            assert!(start >= done, "seam violated at {succ}");
        }
    }
    assert!(r.phases[1].stats.overlap_granules > 0);
}

#[test]
fn deterministic_across_policies_not_required_but_within_policy_yes() {
    let run_once = |seed: u64| {
        let phases = ["a", "b"].map(|name| {
            let mean = pax_sim::SimDuration(30);
            PhaseDef::new(name, 40, CostModel::new(DurationDist::Exponential { mean }))
        });
        let program = Program::chain(phases.into(), vec![EnablementMapping::Identity]);
        let mut sim =
            Simulation::new(MachineConfig::ideal(4), OverlapPolicy::overlap()).with_seed(seed);
        sim.add_job(program.unwrap());
        sim.run().unwrap()
    };
    let a1 = run_once(11);
    let a2 = run_once(11);
    let b1 = run_once(12);
    assert_eq!(a1.makespan, a2.makespan);
    assert_eq!(a1.events, a2.events);
    // different seeds should (almost surely) differ
    assert_ne!(a1.makespan, b1.makespan);
}

#[test]
fn loop_back_edge_overlap_across_iterations() {
    // A single phase dispatched in a counter loop, identity-mapped to its
    // own next dispatch through ENABLE/BRANCHINDEPENDENT: the lookahead
    // must preprocess the loop branch and overlap iteration k+1's
    // instance with iteration k's rundown.
    let mut b = ProgramBuilder::new();
    let a = b.phase(PhaseDef::new("sweep", 10, CostModel::constant(10)));
    let k = b.counter();
    let top = b.next_index();
    b.dispatch_enable_branch_independent(
        a,
        vec![EnableSpec {
            successor: a,
            mapping: EnablementMapping::Identity,
        }],
    ); // step 0
    b.incr(k, 1); // step 1
    b.step(Step::Branch {
        test: BranchTest::CounterLt(k, 4),
        on_true: top,
        on_false: 3,
    }); // step 2 (on_false -> End at step 3)
    let program = b.build().unwrap();

    let mut sim = Simulation::new(
        MachineConfig::ideal(4),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    )
    .with_gantt();
    sim.add_job(program);
    let r = sim.run().unwrap();
    assert_eq!(r.phases.len(), 4, "four loop iterations");
    // iterations 2..4 overlap into their predecessors' rundown
    let overlapped = r
        .phases
        .iter()
        .skip(1)
        .filter(|p| p.stats.overlap_granules > 0)
        .count();
    assert!(overlapped >= 2, "only {overlapped} iterations overlapped");
    // enablement invariant across the back edge: granule i of instance
    // n+1 starts after granule i of instance n completes
    let g = r.gantt.as_ref().unwrap();
    for inst in 1..4u32 {
        for i in 0..10u32 {
            let pred_done = g.granule_completion(inst - 1, i).unwrap();
            let succ_start = g.granule_start(inst, i).unwrap();
            assert!(
                succ_start >= pred_done,
                "iteration {inst} granule {i} violated the back-edge enablement"
            );
        }
    }
    // and the loop still beats the strict version
    let mut strict = Simulation::new(
        MachineConfig::ideal(4),
        OverlapPolicy::strict().with_sizing(TaskSizing::Fixed(1)),
    );
    strict.add_job({
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("sweep", 10, CostModel::constant(10)));
        let k = b.counter();
        let top = b.next_index();
        b.dispatch(a);
        b.incr(k, 1);
        b.step(Step::Branch {
            test: BranchTest::CounterLt(k, 4),
            on_true: top,
            on_false: 3,
        });
        b.build().unwrap()
    });
    let s = strict.run().unwrap();
    assert!(
        r.makespan < s.makespan,
        "{} !< {}",
        r.makespan.ticks(),
        s.makespan.ticks()
    );
}
