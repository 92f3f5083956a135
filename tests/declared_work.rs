//! The work a program declares sizes the run's busy trace up front.
//! The declaration is input, so a size no allocation can hold must leave
//! the run to grow its trace as it goes: never abort, panic or overflow.
//! It is a bound: a run dispatches no more tasks than its program
//! declares, and a looping program declares its loop, iteration by
//! iteration.

use pax_core::prelude::*;
use pax_workloads::{CasperConfig, FleetConfig, ServiceConfig};

/// Two jobs of one `u32::MAX`-granule phase in one-granule tasks declare
/// about 1.7 × 10¹⁰ level changes, some 275 GB of trace points. A run
/// paused early needs a few hundred of them.
#[test]
fn an_unholdable_declared_size_falls_back_to_growth() {
    let policy = OverlapPolicy::strict().with_sizing(TaskSizing::Fixed(1));
    let mut sim = Simulation::new(MachineConfig::new(4), policy);
    for _ in 0..2 {
        let huge = PhaseDef::new("huge", u32::MAX, CostModel::constant(100));
        sim.add_job(Program::chain(vec![huge], vec![]).expect("one dispatch is a valid program"));
    }
    let mut session = sim.into_session().expect("the simulation builds");
    assert_eq!(session.step_until(SimTime(10_000)), Ok(false));
    drop(session);
}

/// A `Goto` back to a dispatch with no exit: the walk's step budget runs
/// out, the program declares nothing, and the session still builds and
/// runs, its trace growing as it goes.
#[test]
fn an_endless_program_declares_nothing_and_still_runs() {
    let mut b = ProgramBuilder::new();
    let spin = b.phase(PhaseDef::new("spin", 4, CostModel::constant(100)));
    b.dispatch(spin); // 0
    b.step(Step::Goto(0));
    let program = b
        .build()
        .expect("a loop without an exit is a valid program");
    let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1));
    assert_eq!(program.declared_tasks(&policy, 4), None);
    let mut sim = Simulation::new(MachineConfig::new(4), policy);
    sim.add_job(program);
    let mut session = sim.into_session().expect("the simulation builds");
    assert_eq!(session.step_until(SimTime(10_000)), Ok(false));
}

/// The benchmark's CASPER: 480 granules on 16 processors, two tasks a
/// processor, so a phase carved whole is ⌈480 / 15⌉ = 32 tasks.
fn casper(seed: u64, iterations: u32) -> CasperConfig {
    CasperConfig {
        granules: 480,
        iterations,
        seed,
        ..CasperConfig::default()
    }
}

#[test]
fn casper_declares_at_least_the_tasks_it_dispatches() {
    let per_task = TaskSizing::TasksPerProcessor(2.0).task_granules(480, 16);
    let carved = u64::from(480u32.div_ceil(per_task));
    for seed in [7, 11, 23] {
        for iterations in [1, 4, 40] {
            let cfg = casper(seed, iterations);
            let policy = OverlapPolicy::overlap();
            let program = cfg.build(true);
            let declared = program.declared_tasks(&policy, 16).expect("CASPER ends");
            // Strict: nothing fragments, every phase is carved whole.
            assert_eq!(
                program.declared_tasks(&OverlapPolicy::strict(), 16),
                Some(u64::from(iterations) * 22 * carved),
                "seed {seed}, {iterations} iterations"
            );
            // Five phases an iteration may fragment to a task a granule:
            // the counted successors of the two reverse maps (flux-assembly,
            // grid-deformation) and of the forward map (structural-dynamics),
            // and the identity successors of two of them (flux-smooth,
            // aero-structural-couple).
            assert_eq!(declared, u64::from(iterations) * (17 * carved + 5 * 480));
            let mut sim = Simulation::new(MachineConfig::new(16), policy).with_seed(seed);
            sim.add_job(program);
            let report = sim.run().expect("CASPER runs");
            assert!(
                declared >= report.tasks_dispatched,
                "seed {seed}, {iterations} iterations: declared {declared} < dispatched {}",
                report.tasks_dispatched
            );
        }
    }
}

/// The straight-line programs with no counted map declare what the
/// syntactic sum ⌈granules / task size⌉ over their dispatches gave.
#[test]
fn straight_line_programs_declare_every_phase_carved_whole() {
    // batch_identity and a fleet_degraded group: two identity-mapped
    // phases in one-granule tasks.
    let fleet = FleetConfig {
        task_size: 1,
        ..FleetConfig::independent(8, 10_000)
    };
    assert_eq!(
        fleet.program().declared_tasks(&fleet.policy(), 8),
        Some(20_000)
    );
    // The same pair in the fleet's default 16-granule tasks: ⌈10000/16⌉ twice.
    let coarse = FleetConfig::independent(8, 10_000);
    assert_eq!(
        coarse.program().declared_tasks(&coarse.policy(), 8),
        Some(2 * 625)
    );
    // service_stream: two 32-granule phases in 16-granule tasks.
    let service = ServiceConfig::poisson(4_000, 1_000);
    assert_eq!(
        service.program().declared_tasks(&service.policy(), 8),
        Some(4)
    );
}
