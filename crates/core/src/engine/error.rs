//! The errors a simulation run surfaces.

use pax_sim::machine::ConfigError;

/// Errors surfaced by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The event queue drained while jobs were still incomplete: some
    /// gated work was never released (a scheduling bug or an impossible
    /// program).
    Deadlock {
        /// Indices of unfinished jobs.
        unfinished_jobs: Vec<usize>,
        /// Diagnostic text.
        detail: String,
    },
    /// A program failed validation before the run started.
    InvalidProgram(String),
    /// The machine configuration failed
    /// [`pax_sim::machine::MachineConfig::validate`] at session build.
    InvalidConfig(ConfigError),
    /// A job can never complete, so the run fails structurally instead
    /// of deadlocking or hanging: a processor crash lost a granule range
    /// that the machine's [`pax_sim::faults::RetryPolicy`] refused to
    /// reissue, or the job's program ran more than
    /// [`WALK_STEPS`](crate::program::WALK_STEPS) counter steps without a
    /// dispatch, serial region or end (a loop with no dispatch).
    JobAborted {
        /// Index of the aborted job.
        job: usize,
        /// Diagnostic text.
        detail: String,
    },
    /// A shard worker thread of the threaded driver panicked, or did
    /// not reply to an epoch's command before the watchdog deadline, so
    /// the epoch cannot complete. Raised by `pax-runtime`'s
    /// `ThreadedSession` in place of a process hang; once raised, every
    /// later call on the session returns the same error.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// The panic's message, with the epoch and window it struck in,
        /// or the watchdog diagnostic naming the epoch.
        cause: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Deadlock {
                unfinished_jobs,
                detail,
            } => write!(f, "deadlock: jobs {unfinished_jobs:?} unfinished; {detail}"),
            EngineError::InvalidProgram(s) => write!(f, "invalid program: {s}"),
            EngineError::InvalidConfig(e) => write!(f, "invalid machine config: {e}"),
            EngineError::JobAborted { job, detail } => {
                write!(f, "job {job} aborted: {detail}")
            }
            EngineError::ShardFailed { shard, cause } => {
                write!(f, "shard {shard} failed: {cause}")
            }
        }
    }
}

impl std::error::Error for EngineError {}
