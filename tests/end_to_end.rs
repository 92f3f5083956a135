//! Cross-crate integration: analyzer → executive, language → executive,
//! workloads → both.

use pax_analyze::prelude::*;
use pax_core::prelude::*;
use pax_lang::{run_script, MapBindings};
use pax_sim::dist::CostModel;
use pax_sim::machine::MachineConfig;
use pax_workloads::fragments;

/// The full pipeline the paper implies: inspect code (IR), identify the
/// enablement mapping, hand it to the executive, overlap correctly.
#[test]
fn classifier_output_drives_the_executive() {
    for (name, prog) in [
        ("universal", fragments::fragment_universal(40)),
        ("identity", fragments::fragment_identity(40)),
        ("reverse", fragments::fragment_reverse(40, 6, 11).0),
        ("forward", fragments::fragment_forward(40, 40, 11).0),
    ] {
        let phases: Vec<&LoopPhase> = prog.parallel_phases().map(|(_, p)| p).collect();
        let cl = classify(&prog, phases[0], phases[1], false);
        assert!(cl.kind.overlappable(), "{name} must be overlappable");

        let sim_prog = fragments::fragment_simulation(&prog, CostModel::constant(10));
        let mut sim = Simulation::new(
            MachineConfig::ideal(6),
            OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
        )
        .with_gantt();
        sim.add_job(sim_prog);
        let r = sim.run().unwrap_or_else(|e| panic!("{name}: {e}"));

        // Every dependence derived by the classifier is honoured by the
        // schedule: successor granule r starts after all required current
        // granules complete.
        let g = r.gantt.as_ref().expect("gantt enabled");
        for (succ, deps) in cl.requires.iter().enumerate() {
            let Some(start) = g.granule_start(1, succ as u32) else {
                continue;
            };
            for &d in deps {
                let done = g.granule_completion(0, d).expect("dependency granule ran");
                assert!(
                    start >= done,
                    "{name}: successor {succ} started {start} before dep {d} done {done}"
                );
            }
        }
        assert!(
            r.phases[1].stats.overlap_granules > 0,
            "{name}: no overlap achieved"
        );
    }
}

/// A script using every statement type runs identically through the
/// language front end and a hand-built program.
#[test]
fn language_and_builder_agree() {
    let src = "
        DEFINE PHASE a GRANULES 30 COST CONST 10
        DEFINE PHASE b GRANULES 30 COST CONST 10
        DISPATCH a ENABLE [b/MAPPING=IDENTITY]
        DISPATCH b
    ";
    let from_script = run_script(
        src,
        &MapBindings::new(),
        MachineConfig::ideal(4),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    )
    .expect("script runs");

    let phases = ["a", "b"].map(|name| PhaseDef::new(name, 30, CostModel::constant(10)));
    let mut sim = Simulation::new(
        MachineConfig::ideal(4),
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
    );
    sim.add_job(Program::chain(phases.into(), vec![EnablementMapping::Identity]).unwrap());
    let by_hand = sim.run().unwrap();

    assert_eq!(from_script.makespan, by_hand.makespan);
    assert_eq!(from_script.compute_time, by_hand.compute_time);
    assert_eq!(
        from_script.total_overlap_granules(),
        by_hand.total_overlap_granules()
    );
}

/// The checkerboard seam map generated by the workload crate satisfies
/// the classifier's notion of a seam when expressed as an IR program.
#[test]
fn checkerboard_seam_is_classified_as_seam() {
    use pax_workloads::checkerboard::{Checkerboard, Color};
    let board = Checkerboard::new(8);
    let seam = board.seam_map(Color::Red);
    let mut p = ArrayProgram::new();
    let red = p.array("RED", board.granules(Color::Red));
    let black = p.array("BLACK", board.granules(Color::Black));
    let m = p.map("NBR", seam.requires.clone(), false); // static geometry
    p.parallel(LoopPhase {
        name: "red".into(),
        granules: board.granules(Color::Red),
        writes: vec![Access::new(red, IndexExpr::Identity)],
        reads: vec![],
        lines: 4,
    });
    p.parallel(LoopPhase {
        name: "black".into(),
        granules: board.granules(Color::Black),
        writes: vec![Access::new(black, IndexExpr::Identity)],
        reads: vec![Access::new(red, IndexExpr::GatherMany(m))],
        lines: 4,
    });
    let cls = classify_program(&p);
    assert_eq!(cls.len(), 1);
    assert_eq!(cls[0].2.kind, pax_core::mapping::MappingKind::Seam);
    // and the classifier's requirement lists equal the geometric seam map
    for (g, deps) in cls[0].2.requires.iter().enumerate() {
        let mut expect = seam.requires[g].clone();
        expect.sort_unstable();
        let mut got = deps.clone();
        got.sort_unstable();
        assert_eq!(got, expect, "cell granule {g}");
    }
}

/// Multi-job plus overlap compose: two CASPER-like jobs with overlap both
/// complete, conserving work.
#[test]
fn multi_job_with_overlap() {
    use pax_workloads::generators::{CostShape, GeneratorConfig};
    let cfg = GeneratorConfig {
        phases: 3,
        granules: 60,
        mean_cost: 20,
        shape: CostShape::Jittered,
        mapping: pax_core::mapping::MappingKind::Identity,
        reverse_fan: 4,
        seed: 99,
    };
    let mut sim = Simulation::new(MachineConfig::ideal(8), OverlapPolicy::overlap());
    sim.add_job(cfg.build());
    sim.add_job(cfg.build());
    let r = sim.run().unwrap();
    assert_eq!(r.jobs.len(), 2);
    assert!(r.jobs.iter().all(|j| j.finished_at.is_some()));
    assert_eq!(r.phases.len(), 6);
    for p in &r.phases {
        assert_eq!(p.stats.executed_granules, 60);
    }
}

/// Management costs and overlap interact sanely: overlap still wins on a
/// machine with realistic PAX costs.
#[test]
fn overlap_wins_under_management_costs() {
    use pax_sim::machine::{ExecutivePlacement, ManagementCosts};
    use pax_workloads::casper::CasperConfig;
    let cfg = CasperConfig {
        granules: 80,
        iterations: 1,
        mean_cost: 100,
        serial_ticks: 100,
        ..CasperConfig::default()
    };
    let machine = MachineConfig::new(12)
        .with_executive(ExecutivePlacement::StealsWorker)
        .with_costs(ManagementCosts::pax_default());
    let program = cfg.build(true);
    let run = |policy| {
        let mut sim = Simulation::new(machine.clone(), policy).with_seed(5);
        sim.add_job(program.clone());
        sim.run().unwrap()
    };
    let strict = run(OverlapPolicy::strict());
    let over = run(OverlapPolicy::overlap());
    assert!(
        over.makespan < strict.makespan,
        "overlap {} !< strict {}",
        over.makespan.ticks(),
        strict.makespan.ticks()
    );
}
