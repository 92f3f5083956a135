//! Smoke test guarding the quickstart invariant shown in the
//! `pax-core` crate-level doctest: on an ideal machine, overlapping a
//! two-phase identity-mapped program never loses to the strict barrier.
//!
//! The doctest only runs under `cargo test --doc`; this integration
//! test keeps the same end-to-end claim under plain `cargo test`, and
//! checks the run reports are complete and work-conserving while at it.

use pax_core::prelude::*;
use pax_sim::dist::CostModel;
use pax_sim::machine::MachineConfig;

/// The doctest's program: two 64-granule phases, identity-mapped.
fn two_phase_identity() -> Program {
    let phases =
        ["copy-a-to-b", "copy-b-to-c"].map(|name| PhaseDef::new(name, 64, CostModel::constant(10)));
    Program::chain(phases.into(), vec![EnablementMapping::Identity])
        .expect("two-phase identity program builds")
}

fn run(policy: OverlapPolicy, procs: usize) -> pax_core::report::RunReport {
    let mut s = Simulation::new(MachineConfig::ideal(procs), policy);
    s.add_job(two_phase_identity());
    s.run().expect("run completes without deadlock")
}

#[test]
fn overlap_never_loses_to_strict_on_the_quickstart_program() {
    // the doctest's exact configuration...
    let strict = run(OverlapPolicy::strict(), 8);
    let overlapped = run(OverlapPolicy::overlap(), 8);
    assert!(
        overlapped.makespan <= strict.makespan,
        "overlap {} > strict {} on the quickstart program",
        overlapped.makespan.ticks(),
        strict.makespan.ticks()
    );

    // ...and the same invariant across a sweep of machine widths, so a
    // scheduling regression can't hide behind the single 8-processor
    // point the doctest pins.
    for procs in [1, 2, 3, 5, 8, 16, 64] {
        let strict = run(OverlapPolicy::strict(), procs);
        let overlapped = run(OverlapPolicy::overlap(), procs);
        assert!(
            overlapped.makespan <= strict.makespan,
            "overlap {} > strict {} at {procs} processors",
            overlapped.makespan.ticks(),
            strict.makespan.ticks()
        );

        // both modes execute every granule exactly once and conserve work
        for r in [&strict, &overlapped] {
            assert_eq!(r.phases.len(), 2);
            for ph in &r.phases {
                assert_eq!(ph.stats.executed_granules, 64);
            }
            assert_eq!(r.compute_time.ticks(), 2 * 64 * 10);
            assert!(r.jobs[0].finished_at.is_some());
        }
    }
}

#[test]
fn overlap_strictly_wins_when_the_machine_outruns_the_rundown() {
    // With more processors than granules per wave, strict mode idles the
    // machine during each phase's rundown; identity overlap must beat it
    // outright, not just tie — this is the paper's headline effect.
    let strict = run(OverlapPolicy::strict(), 48);
    let overlapped = run(OverlapPolicy::overlap(), 48);
    assert!(
        overlapped.makespan < strict.makespan,
        "expected a strict win: overlap {} vs strict {}",
        overlapped.makespan.ticks(),
        strict.makespan.ticks()
    );
}
