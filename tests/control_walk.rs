//! One walker steps the control stream. The interpreter, the overlap
//! lookahead and the declared-work walk all call `Program::walk`, so the
//! phase the lookahead predicts is the phase the job dispatches, however
//! many counter steps lie between, and a loop with no dispatch ends the
//! run with a typed error on every driver instead of spinning forever in
//! zero simulated time.

mod common;

use common::oracle;
use pax_core::prelude::*;

/// `dispatch a (UNIVERSAL → b); c += 1; if c < 100 goto 1; dispatch b`:
/// 199 counter steps between the two dispatches.
fn counted_loop(cost: CostModel) -> Program {
    let mut b = ProgramBuilder::new();
    let pa = b.phase(PhaseDef::new("a", 17, cost.clone()));
    let pb = b.phase(PhaseDef::new("b", 17, cost));
    let c = b.counter();
    let universal = EnableSpec {
        successor: pb,
        mapping: EnablementMapping::Universal,
    };
    b.dispatch_enable_branch_independent(pa, vec![universal]); // 0
    b.incr(c, 1); // 1
    b.step(Step::Branch {
        test: BranchTest::CounterLt(c, 100),
        on_true: 1,
        on_false: 3,
    }); // 2
    b.dispatch(pb); // 3
    b.build().expect("a counted loop is a valid program")
}

#[test]
fn the_lookahead_predicts_the_dispatch_a_loop_reaches() {
    let program = counted_loop(CostModel::constant(10));
    assert_eq!(program.interlock_gaps(), Ok(vec![]));
    let ahead = program.lookahead(0, &mut [0], true);
    assert_eq!(
        ahead,
        Lookahead::Phase {
            phase: PhaseId(1),
            step: 3
        }
    );
    let cost = CostModel::new(DurationDist::uniform(5, 50));
    let build = |machine| {
        let mut sim = Simulation::new(machine, OverlapPolicy::overlap());
        sim.add_job(counted_loop(cost.clone()));
        sim
    };
    let report = oracle("counted_loop", build, MachineConfig::new(4), &[60, 200])
        .reference
        .expect("the counted loop runs to its end");
    let ran: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(ran, ["a", "b"]);
    // `b` was initiated while `a` ran down, and filled its idle processors.
    let b = &report.phases[1];
    assert_eq!(b.enabled_by, Some(MappingKind::Universal));
    assert!(b.stats.initiated_at < b.stats.current_at, "{:?}", b.stats);
    assert!(b.stats.overlap_granules > 0, "{:?}", b.stats);
}

#[test]
fn a_loop_with_no_dispatch_aborts_its_job_on_every_driver() {
    // `DISPATCH a / spin: INCREMENT K / GO TO spin`, and a `Goto` to its
    // own step.
    let spin = |loop_body: &[Step]| {
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", 4, CostModel::constant(10)));
        b.counter();
        b.dispatch(a);
        for step in loop_body {
            b.step(step.clone());
        }
        b.build()
            .expect("a loop without an exit is a valid program")
    };
    let increment = [Step::Incr { idx: 0, delta: 1 }, Step::Goto(1)];
    for (name, body) in [
        ("increment", &increment[..]),
        ("self_goto", &[Step::Goto(1)]),
    ] {
        let build = |machine| {
            let mut sim = Simulation::new(machine, OverlapPolicy::overlap());
            sim.add_job(spin(body));
            sim
        };
        match oracle(name, build, MachineConfig::new(2), &[10, 1_000]).reference {
            Err(EngineError::JobAborted { job, detail }) => {
                assert_eq!(job, 0);
                assert!(
                    detail.contains("step 1: more than 65536 counter steps without a dispatch"),
                    "{detail}"
                );
            }
            other => panic!("{name}: expected JobAborted, got {other:?}"),
        }
    }
}

#[test]
fn a_modulus_that_is_not_positive_is_an_invalid_program_not_a_panic() {
    let program = Program {
        phases: vec![PhaseDef::new("a", 4, CostModel::constant(10))],
        steps: vec![
            Step::Branch {
                test: BranchTest::CounterModEq {
                    counter: 0,
                    modulus: 0,
                    residue: 0,
                },
                on_true: 1,
                on_false: 1,
            },
            Step::Dispatch {
                phase: PhaseId(0),
                enables: vec![],
                branch_independent: false,
            },
            Step::End,
        ],
        counters: 1,
    };
    let mut sim = Simulation::new(MachineConfig::new(2), OverlapPolicy::overlap());
    sim.add_job(program);
    match sim.run() {
        Err(EngineError::InvalidProgram(detail)) => {
            assert!(detail.contains("modulus 0"), "{detail}")
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}
