//! # pax-core — the paper's contribution
//!
//! A full re-implementation of the scheduling machinery described in
//! *Increasing Processor Utilization During Parallel Computation Rundown*
//! (W. H. Jones, NASA TM-87349, ICPP 1986): a PAX-style dynamic executive
//! that overlaps parallel computational phases to keep processors busy
//! while a phase runs down.
//!
//! ## Concepts
//!
//! * A **phase** ([`phase::PhaseDef`]) is a bag of **granules** —
//!   indivisible computations executed asynchronously by workers.
//! * Phases normally execute in strict sequence; as one drains, processors
//!   idle (**computational rundown**).
//! * An **enablement mapping** ([`mapping::EnablementMapping`]) between a
//!   phase and its successor says which successor granules become
//!   computable as current granules complete: universal, identity,
//!   forward/reverse indirect (via **composite granule maps** with
//!   **enablement counters**), seam (extension), or null.
//! * The **executive** ([`engine::Simulation`]) dispatches **computation
//!   descriptions** ([`descriptor`]) — contiguous granule collections that
//!   are split on demand into worker-sized tasks and merged back on
//!   completion — through a **waiting computation queue** ([`queue`])
//!   where released enabled work is "placed ahead of the normal
//!   computations".
//! * An [`policy::OverlapPolicy`] selects among the paper's control
//!   strategies: overlap or the strict barrier (`enabled`), task sizing
//!   (`sizing`), demand splitting vs presplitting vs successor-splitting
//!   tasks (`split_strategy`), immediate vs background composite-map
//!   construction (`composite_build`), the early-enablement subset size
//!   (`indirect_subset`), whether released successor work is queued ahead
//!   of the current phase (`elevate_released`), and the worker-to-work
//!   matching rule (`assignment`).
//!
//! ## Quick example
//!
//! ```
//! use pax_core::prelude::*;
//!
//! // Two 64-granule phases, identity-mapped (B(I)=A(I); C(I)=B(I)).
//! let phases = ["copy-a-to-b", "copy-b-to-c"]
//!     .map(|name| PhaseDef::new(name, 64, CostModel::constant(10)));
//! let program = Program::chain(phases.into(), vec![EnablementMapping::Identity]).unwrap();
//!
//! let strict = {
//!     let mut s = Simulation::new(MachineConfig::ideal(8), OverlapPolicy::strict());
//!     s.add_job(program.clone());
//!     s.run().unwrap()
//! };
//! let overlapped = {
//!     let mut s = Simulation::new(MachineConfig::ideal(8), OverlapPolicy::overlap());
//!     s.add_job(program);
//!     s.run().unwrap()
//! };
//! assert!(overlapped.makespan <= strict.makespan);
//! ```

#![warn(missing_docs)]

pub mod descriptor;
pub mod engine;
pub mod ids;
pub mod mapping;
pub mod phase;
pub mod policy;
pub mod program;
pub mod queue;
pub mod rangeset;
pub mod report;
pub mod shard;

/// Convenient re-exports of the items almost every user needs: the whole
/// configure → build → run/session → report surface, including the
/// `pax-sim` machine-description types, so a scenario needs only
/// `use pax_core::prelude::*;`.
pub mod prelude {
    pub use crate::engine::{EngineError, Session, Simulation};
    pub use crate::ids::{GranuleRange, InstanceId, JobId, PhaseId, WorkerId};
    pub use crate::mapping::{
        CompositeMap, EnablementMapping, ForwardMap, MappingKind, ReverseMap,
    };
    pub use crate::phase::{PhaseDef, PhaseStats};
    pub use crate::policy::{
        AssignmentPolicy, CompositeBuild, OverlapPolicy, SplitStrategy, TaskSizing,
    };
    pub use crate::program::{BranchTest, EnableSpec, Lookahead, Program, ProgramBuilder, Step};
    pub use crate::report::{
        ClassReport, JobReport, PhaseReport, PoolReport, RunReport, RundownWindow,
    };
    pub use crate::shard::{Coordinator, EpochPlan, GroupLink, ShardEngine, ShardedRun};
    pub use pax_sim::dist::{ArrivalProcess, CostModel, DurationDist};
    pub use pax_sim::faults::{FaultModel, FaultPlan, RetryPolicy, ScriptedFault};
    pub use pax_sim::locality::{DataLayout, LocalityModel};
    pub use pax_sim::machine::{
        AdmissionPolicy, ClassAffinity, ConfigError, ExecutivePlacement, MachineConfig,
        ManagementCosts, ProcessorClass, ResourcePool, ShardPolicy,
    };
    pub use pax_sim::seeded_rng;
    pub use pax_sim::time::{SimDuration, SimTime};
}

pub use prelude::*;
