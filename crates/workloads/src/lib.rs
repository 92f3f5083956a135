//! # pax-workloads — the workloads of NASA TM-87349
//!
//! * [`checkerboard`] — the checkerboard SOR potential-field problem (the
//!   paper's running example), with grid geometry, seam-map construction,
//!   the exact 1024²/1000-processor arithmetic, and a real `f64` red–black
//!   SOR kernel.
//! * [`casper`] — a synthetic pipeline matching CASPER's published census
//!   (22 phases, 1188 parallel lines, 6/9/4/2/1 mapping breakdown) with
//!   dynamically generated information-selection maps.
//! * [`fleet`] — multi-machine-group fleets (independent or staged by
//!   admission edges) for the sharded engine's scaling sweeps.
//! * [`fragmentation`] — the stripe-churn insert sequence that keeps a
//!   granule-run set maximally fragmented (the run-storage stress shape
//!   the benchmark's `rangeset_churn` kernel drives).
//! * [`fragments`] — the paper's four Fortran fragments as analyzable
//!   array programs and runnable simulations.
//! * [`generators`] — parameterized synthetic workloads for the rundown
//!   sweeps.
//! * [`mini_casper`] — a miniature *numeric* CASPER: the paper's
//!   "power of compression → interpolator matrix generation" pipeline as
//!   real `f64` kernels with a dynamic `IMAP`, for validating executors
//!   on CASPER-shaped dataflow.
//! * [`scenario`] — declarative scenario files: heterogeneous machines
//!   (speed classes, resource pools, faults, admission) and workloads
//!   loaded from JSON with line-accurate [`scenario::ScenarioError`]
//!   diagnostics. Format spec in `docs/SCENARIO_FORMAT.md`.

#![warn(missing_docs)]

pub mod casper;
pub mod checkerboard;
pub mod fleet;
pub mod fragmentation;
pub mod fragments;
pub mod generators;
pub mod mini_casper;
pub mod scenario;
pub mod service;

pub use casper::{casper_declared_census, CasperConfig, CASPER_PHASES};
pub use checkerboard::{checkerboard_program, Checkerboard, Color, RedBlackGrid};
pub use fleet::{degraded_fault_plan, FleetConfig};
pub use fragmentation::stripe_churn_ranges;
pub use fragments::{
    fragment_forward, fragment_identity, fragment_reverse, fragment_simulation, fragment_universal,
};
pub use generators::{CostShape, GeneratorConfig};
pub use mini_casper::MiniCasper;
pub use scenario::{Scenario, ScenarioError, ScenarioErrorKind};
pub use service::ServiceConfig;
