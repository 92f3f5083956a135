//! Failure injection: malformed programs, inconsistent mappings, and
//! boundary abuse must be rejected loudly — at build time by
//! [`Program::chain`], again by the engine for hand-assembled programs,
//! or by construction-time assertions — never by silent mis-scheduling.

use pax_core::mapping::{ForwardMap, ReverseMap};
use pax_core::prelude::*;
use pax_sim::dist::CostModel;
use pax_sim::machine::MachineConfig;
use std::sync::Arc;

/// A two-phase chain; returns the build's verdict.
fn try_two_phases(g_a: u32, g_b: u32, mapping: EnablementMapping) -> Result<Program, String> {
    let phases = vec![
        PhaseDef::new("a", g_a, CostModel::constant(5)),
        PhaseDef::new("b", g_b, CostModel::constant(5)),
    ];
    Program::chain(phases, vec![mapping])
}

fn two_phases(g_a: u32, g_b: u32, mapping: EnablementMapping) -> Program {
    try_two_phases(g_a, g_b, mapping).expect("valid program")
}

// ---------------------------------------------------------------------
// build-time validation (the builder refuses inconsistent mappings)
// ---------------------------------------------------------------------

#[test]
fn identity_with_mismatched_granule_counts_is_rejected() {
    let msg = try_two_phases(32, 48, EnablementMapping::Identity).unwrap_err();
    assert!(msg.contains("identity"), "{msg}");
    assert!(msg.contains("32") && msg.contains("48"), "{msg}");
}

#[test]
fn forward_map_sized_for_wrong_successor_is_rejected() {
    // map built for a 16-granule successor, attached to a 32-granule phase
    let fmap = Arc::new(ForwardMap::new(vec![0, 5, 15], 16));
    let msg = try_two_phases(32, 32, EnablementMapping::ForwardIndirect(fmap)).unwrap_err();
    assert!(msg.contains("forward map"), "{msg}");
}

#[test]
fn forward_map_longer_than_current_phase_is_rejected() {
    // 8 current granules cannot drive a 12-entry forward map
    let fmap = Arc::new(ForwardMap::new((0..12).collect(), 32));
    let msg = try_two_phases(8, 32, EnablementMapping::ForwardIndirect(fmap)).unwrap_err();
    assert!(msg.contains("entries"), "{msg}");
}

#[test]
fn reverse_map_with_wrong_successor_coverage_is_rejected() {
    // requires lists for 10 successor granules, phase has 32
    let rmap = Arc::new(ReverseMap::new(vec![vec![0u32]; 10], 32));
    let msg = try_two_phases(32, 32, EnablementMapping::ReverseIndirect(rmap)).unwrap_err();
    assert!(msg.contains("reverse map"), "{msg}");
}

#[test]
fn seam_map_requiring_out_of_range_granule_is_rejected() {
    // lists built against a 100-granule phase, attached to a 4-granule one
    let seam = Arc::new(ReverseMap::new(vec![vec![0], vec![99]], 100));
    let msg = try_two_phases(4, 2, EnablementMapping::Seam(seam)).unwrap_err();
    assert!(
        msg.contains("seam map requires current granule 99"),
        "{msg}"
    );
}

// ---------------------------------------------------------------------
// engine-level re-validation (hand-assembled or tampered programs are
// caught by Simulation::run before any event executes)
// ---------------------------------------------------------------------

/// Corrupt a valid program after build: shrink the successor phase so an
/// identity mapping no longer lines up.
fn tampered_program() -> Program {
    let mut p = two_phases(16, 16, EnablementMapping::Identity);
    p.phases[1].granules = 24;
    p
}

#[test]
fn engine_rejects_tampered_program() {
    let mut sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::overlap());
    sim.add_job(tampered_program());
    match sim.run() {
        Err(EngineError::InvalidProgram(msg)) => {
            assert!(msg.contains("identity"), "{msg}")
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

#[test]
fn one_bad_job_poisons_the_whole_simulation() {
    // job 0 is fine, job 1 is tampered: the run must refuse both
    let good = two_phases(16, 16, EnablementMapping::Identity);
    let mut sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::overlap());
    sim.add_job(good);
    sim.add_job(tampered_program());
    match sim.run() {
        Err(EngineError::InvalidProgram(msg)) => {
            assert!(msg.contains("job 1"), "error must name the job: {msg}")
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

#[test]
fn engine_rejects_dangling_goto() {
    let mut p = two_phases(8, 8, EnablementMapping::Identity);
    let end = p.steps.len();
    p.steps.insert(0, pax_core::program::Step::Goto(end + 5));
    let mut sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::strict());
    sim.add_job(p);
    match sim.run() {
        Err(EngineError::InvalidProgram(msg)) => assert!(msg.contains("goto"), "{msg}"),
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

#[test]
fn engine_rejects_unknown_counter() {
    let mut p = two_phases(8, 8, EnablementMapping::Identity);
    p.steps
        .insert(0, pax_core::program::Step::Incr { idx: 3, delta: 1 });
    let mut sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::strict());
    sim.add_job(p);
    match sim.run() {
        Err(EngineError::InvalidProgram(msg)) => assert!(msg.contains("counter"), "{msg}"),
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

#[test]
fn simulation_with_no_jobs_is_rejected() {
    let sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::strict());
    match sim.run() {
        Err(EngineError::InvalidProgram(msg)) => assert!(msg.contains("no jobs")),
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
}

#[test]
fn error_display_is_informative() {
    let e = EngineError::InvalidProgram("step 3: goto target out of range".into());
    let s = e.to_string();
    assert!(s.contains("invalid program"));
    assert!(s.contains("step 3"));
    let d = EngineError::Deadlock {
        unfinished_jobs: vec![0, 2],
        detail: "gated work never released".into(),
    };
    let s = d.to_string();
    assert!(s.contains("deadlock") && s.contains("[0, 2]"));
}

// ---------------------------------------------------------------------
// construction-time assertions (panics, not UB or silent truncation)
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "forward map target out of successor range")]
fn forward_map_rejects_out_of_range_target() {
    let _ = ForwardMap::new(vec![0, 7, 16], 16);
}

#[test]
#[should_panic(expected = "reverse map dependency out of current-phase range")]
fn reverse_map_rejects_out_of_range_dependency() {
    let _ = ReverseMap::new(vec![vec![0], vec![31], vec![32]], 32);
}

#[test]
fn machine_with_zero_processors_rejected() {
    // Construction is infallible; the session build surfaces the error.
    let mut sim = Simulation::new(MachineConfig::new(0), OverlapPolicy::strict());
    sim.add_job(two_phases(4, 4, EnablementMapping::Identity));
    assert!(matches!(
        sim.run(),
        Err(EngineError::InvalidConfig(
            pax_sim::machine::ConfigError::ZeroProcessors
        ))
    ));
}

// ---------------------------------------------------------------------
// the checks must not over-reject
// ---------------------------------------------------------------------

#[test]
fn strict_and_overlap_policies_reject_the_same_programs() {
    for policy in [OverlapPolicy::strict(), OverlapPolicy::overlap()] {
        let mut sim = Simulation::new(MachineConfig::ideal(2), policy);
        sim.add_job(tampered_program());
        assert!(matches!(sim.run(), Err(EngineError::InvalidProgram(_))));
    }
}

#[test]
fn valid_indirect_maps_still_pass_validation() {
    // sanity: the consistency checks must not reject correct programs
    let fmap = Arc::new(ForwardMap::new((0..32).map(|g| (g * 7) % 32).collect(), 32));
    let p = two_phases(32, 32, EnablementMapping::ForwardIndirect(fmap));
    assert!(p.validate().is_ok());
    let rmap = Arc::new(ReverseMap::new(
        (0..32).map(|r| vec![r, (r + 1) % 32]).collect(),
        32,
    ));
    let p = two_phases(32, 32, EnablementMapping::ReverseIndirect(rmap));
    assert!(p.validate().is_ok());
    let mut sim = Simulation::new(MachineConfig::ideal(4), OverlapPolicy::overlap());
    sim.add_job(p);
    let r = sim.run().unwrap();
    assert_eq!(r.phases[1].stats.executed_granules, 32);
}

#[test]
fn forward_map_covering_subset_of_current_phase_is_fine() {
    // fewer map entries than current granules is legal: the remaining
    // successor granules are enabled by the null set
    let fmap = Arc::new(ForwardMap::new(vec![3, 1, 2], 32));
    let p = two_phases(32, 32, EnablementMapping::ForwardIndirect(fmap));
    assert!(p.validate().is_ok());
}
