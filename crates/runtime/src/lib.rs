//! # pax-runtime — phase overlap on real threads
//!
//! The simulator (`pax-core`) reproduces the paper's scheduling claims
//! deterministically; this crate demonstrates them on actual hardware. A
//! pool of OS threads executes a linear chain of phases under either
//! strict barriers or the paper's enablement machinery (identity releases,
//! composite-map enablement counters, universal window releases), and the
//! report measures real utilization and rundown fill. Each edge of the
//! chain is the simulator's own
//! [`EnablementMapping`](pax_core::mapping::EnablementMapping), checked
//! against its two phases by the same
//! [`check_edge`](pax_core::mapping::EnablementMapping::check_edge)
//! before any thread starts, as is every phase's granule count (at least
//! one); an indirect edge's composite map comes from
//! [`composite`](pax_core::mapping::EnablementMapping::composite), built
//! once per map and shared by every run that uses it, before the clock
//! starts. A granule whose work panics stops the run: every
//! worker exits and the panic is re-raised on the caller.
//!
//! [`run_chain`] ([`executor`]) routes every dispatch through a central
//! serial executive — one mutex-guarded queue and a condvar, each worker
//! servicing its own completion under the lock (PAX's arrangement). What a
//! completion releases, and when (the mapping's release, the one-phase
//! lookahead window, deferral, the residual release, `done`), is written
//! once in the crate-private `book` module, apart from the threads.
//!
//! An oracle checks the executor on threads, in the workspace's
//! `tests/chain_executors.rs`: every chain case runs under barriers and
//! under overlap, and no granule may start before the granules its edge's
//! mapping requires have ended, nor run other than once.
//!
//! [`ThreadedSession`] ([`shard_exec`]) runs the simulator's sharded
//! epoch loop ([`pax_core::shard::ShardedRun`]) with one worker thread
//! per shard, at every shard count. Each epoch is one command a shard
//! over its own channel and one reply a shard over a shared one; a
//! panicking or wedged shard surfaces as
//! [`EngineError::ShardFailed`](pax_core::engine::EngineError::ShardFailed),
//! and dropping the session lets its workers exit.
//!
//! ```
//! use pax_core::mapping::EnablementMapping;
//! use pax_runtime::{run_chain, RtPhase, RuntimeConfig};
//! use std::time::Duration;
//!
//! let phases = vec![
//!     RtPhase::synthetic("sweep-1", 32, Duration::from_micros(50))
//!         .with_mapping(EnablementMapping::Identity),
//!     RtPhase::synthetic("sweep-2", 32, Duration::from_micros(50)),
//! ];
//! let report = run_chain(phases, RuntimeConfig::new(4, 2));
//! assert_eq!(report.phases.len(), 2);
//! ```

#![warn(missing_docs)]

pub(crate) mod book;
pub mod executor;
pub mod shard_exec;
pub mod work;

pub use executor::{run_chain, RtPhase, RtPhaseReport, RtReport, RuntimeConfig};
pub use shard_exec::ThreadedSession;
pub use work::{spin_for, SharedF64};
