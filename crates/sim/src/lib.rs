//! # pax-sim — discrete-event simulation substrate
//!
//! This crate is the machine-level substrate for reproducing
//! *Increasing Processor Utilization During Parallel Computation Rundown*
//! (W. H. Jones, NASA TM-87349, ICPP 1986). The paper's executive, PAX, ran
//! on a UNIVAC 1100 testbed we obviously cannot use; everything the paper
//! claims, however, concerns *scheduling structure* — which processor is
//! busy when — and that is exactly what a deterministic discrete-event
//! simulation reproduces.
//!
//! Provided here:
//!
//! * [`time`] — integer-tick virtual time ([`SimTime`], [`SimDuration`]).
//! * [`event`] — a deterministic future-event list ([`event::EventQueue`])
//!   with insertion-order tie-breaking, so runs are bit-for-bit
//!   reproducible.
//! * [`dist`] — granule execution-time distributions, including the
//!   conditional-skip behaviour the paper reports from CASPER.
//! * [`faults`] — processor crash/repair plans ([`faults::FaultPlan`])
//!   and retry policies for work lost to a crash, attached per machine
//!   via [`machine::MachineConfig::with_faults`].
//! * [`machine`] — processor pools, executive placement
//!   (worker-stealing à la UNIVAC 1100 vs dedicated), itemized
//!   management costs, heterogeneous speed classes
//!   ([`machine::ProcessorClass`]) and secondary-resource token pools
//!   ([`machine::ResourcePool`]).
//! * [`locality`] — clustered-memory model (data homes, remote-access
//!   stalls) behind the paper's "data-proximity work assignment" strategy.
//! * [`metrics`] — busy-processor step traces (always on) and opt-in
//!   per-worker compute spans (Gantt traces).
//!
//! The scheduling logic itself (phases, enablement mappings, the waiting
//! computation queue, overlap control) lives in `pax-core`, layered on top
//! of this crate.

#![warn(missing_docs)]

pub mod calendar;
pub mod dist;
pub mod event;
pub mod faults;
pub mod locality;
pub mod machine;
pub mod metrics;
pub mod time;

pub use calendar::{Calendar, CalendarKind};
pub use dist::{ArrivalProcess, CostModel, DurationDist};
pub use event::EventQueue;
pub use faults::{FaultModel, FaultPlan, RetryPolicy, ScriptedFault};
pub use locality::{DataLayout, LocalityModel};
pub use machine::{
    AdmissionPolicy, ClassAffinity, ConfigError, ExecutivePlacement, MachineConfig,
    ManagementCosts, ProcessorClass, ResourcePool, ShardPolicy,
};
pub use metrics::{GanttTrace, LevelSweep, Span, StepTrace};
pub use time::{SimDuration, SimTime};

/// Construct the deterministic RNG used across the workspace.
///
/// All stochastic behaviour in the reproduction flows from explicitly
/// seeded generators so that every experiment re-runs identically.
pub fn seeded_rng(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}

/// The splitmix64 finalizer. Every derived seed in the workspace (per
/// machine group, per arrival stream, per fault plan) is this applied to
/// a domain-separated mix of the scenario seed, so derived streams are
/// independent of each other and of the engine's own stream.
pub fn mix_seed(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
