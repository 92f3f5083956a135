//! The work a program declares sizes the run's level traces up front.
//! The declaration is input, so a size no allocation can hold must leave
//! the run to grow its traces as it goes: never abort, panic or overflow.

use pax_core::prelude::*;

/// Two jobs of one `u32::MAX`-granule phase in one-granule tasks declare
/// about 1.7 × 10¹⁰ level changes, some 275 GB of trace points. A run
/// paused early needs a few hundred of them.
#[test]
fn an_unholdable_declared_size_falls_back_to_growth() {
    let policy = OverlapPolicy::strict().with_sizing(TaskSizing::Fixed(1));
    let mut sim = Simulation::new(MachineConfig::new(4), policy);
    for _ in 0..2 {
        let mut b = ProgramBuilder::new();
        let huge = b.phase(PhaseDef::new("huge", u32::MAX, CostModel::constant(100)));
        b.dispatch(huge);
        sim.add_job(b.build().expect("one dispatch is a valid program"));
    }
    let mut session = sim.into_session().expect("the simulation builds");
    assert_eq!(session.step_until(SimTime(10_000)), Ok(false));
    drop(session);
}
