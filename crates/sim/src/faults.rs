//! Processor fault injection: crash/repair plans and retry policies.
//!
//! The paper's machine never loses a processor, but degraded capacity is
//! exactly where rundown utilization gets interesting: a crash preempts
//! the in-flight task (its granule range is lost and re-enters dispatch),
//! the worker pool shrinks until the repair lands, and the executive's
//! ability to keep the *surviving* processors busy is what the
//! degraded-capacity report fields measure.
//!
//! A [`FaultPlan`] is pure configuration — attached to a machine through
//! `MachineConfig::with_faults` — and is interpreted by the engine in
//! `pax-core`. Two models are provided:
//!
//! * [`FaultModel::Random`]: per-processor alternating up/down spans drawn
//!   from [`DurationDist`]s. The engine samples them from a **dedicated
//!   fault RNG** split deterministically from the scenario seed, so a run
//!   with faults disabled consumes zero extra random draws (the golden
//!   fingerprints stay bit-identical) and a run with faults enabled is
//!   bit-identical across shard counts and shard drivers.
//! * [`FaultModel::Scripted`]: explicit crash instants for tests — "break
//!   processor 2 at tick 500, repair it 40 ticks later".
//!
//! What happens to the preempted work is the [`RetryPolicy`]: reissue the
//! lost range at the front of the waiting queue (the default, and the
//! natural reading of the paper's waiting-computation queue), or reissue
//! a bounded number of times — zero gives up at the first loss — before
//! escalating to a structured `EngineError::JobAborted`.

use crate::dist::DurationDist;

/// What the engine does with a granule range lost to a processor crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// Re-enqueue the lost range at the front of its queue class, without
    /// bound — the run completes whenever enough capacity survives. The
    /// default.
    #[default]
    ReissueFront,
    /// Reissue a lost descriptor up to `max_attempts` times; one more
    /// crash of the same descriptor escalates to
    /// `EngineError::JobAborted`. `max_attempts: 0` gives up on the whole
    /// job at the first lost range.
    Bounded {
        /// Reissues allowed per descriptor before the job is aborted.
        max_attempts: u32,
    },
}

/// How crash/repair instants are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModel {
    /// Every processor alternates up/down spans drawn independently from
    /// the two distributions (spans are clamped to ≥ 1 tick so a
    /// degenerate distribution cannot freeze virtual time). Sampled from
    /// a dedicated fault RNG derived from the scenario seed.
    Random {
        /// Distribution of up spans (time to failure).
        time_to_failure: DurationDist,
        /// Distribution of down spans (time to repair).
        time_to_repair: DurationDist,
    },
    /// Explicit fault events, for deterministic tests. Events whose
    /// `processor` is out of range for the machine are ignored.
    Scripted(Vec<ScriptedFault>),
}

/// One scripted crash: processor `processor` goes down at local tick
/// `crash_at` and comes back `repair_after` ticks later (never, when
/// `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    /// Worker processor index.
    pub processor: usize,
    /// Crash instant, in the machine's local virtual time.
    pub crash_at: u64,
    /// Down span in ticks; `None` is a permanent loss.
    pub repair_after: Option<u64>,
}

/// A complete fault-injection plan: the crash/repair model plus the
/// retry policy for preempted work.
///
/// ```
/// use pax_sim::dist::DurationDist;
/// use pax_sim::faults::{FaultPlan, RetryPolicy, ScriptedFault};
///
/// // Random crashes: exponential up spans, constant repair, with a
/// // bounded reissue budget instead of the default retry-forever.
/// let random = FaultPlan::random(
///     DurationDist::exponential(5_000),
///     DurationDist::constant(400),
/// )
/// .with_retry(RetryPolicy::Bounded { max_attempts: 3 });
/// assert_eq!(random.retry, RetryPolicy::Bounded { max_attempts: 3 });
///
/// // Scripted crashes for deterministic tests: processor 0 goes down at
/// // tick 500 for 40 ticks; processor 2 is lost for good at tick 900.
/// let scripted = FaultPlan::scripted(vec![
///     ScriptedFault { processor: 0, crash_at: 500, repair_after: Some(40) },
///     ScriptedFault { processor: 2, crash_at: 900, repair_after: None },
/// ]);
/// assert_eq!(scripted.retry, RetryPolicy::ReissueFront);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Crash/repair generation model.
    pub model: FaultModel,
    /// Disposition of granule ranges lost to crashes.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A random plan: every processor alternates up spans from
    /// `time_to_failure` and down spans from `time_to_repair`, under the
    /// default [`RetryPolicy::ReissueFront`].
    pub fn random(time_to_failure: DurationDist, time_to_repair: DurationDist) -> FaultPlan {
        FaultPlan {
            model: FaultModel::Random {
                time_to_failure,
                time_to_repair,
            },
            retry: RetryPolicy::default(),
        }
    }

    /// A scripted plan from explicit crash events, under the default
    /// [`RetryPolicy::ReissueFront`].
    pub fn scripted(faults: Vec<ScriptedFault>) -> FaultPlan {
        FaultPlan {
            model: FaultModel::Scripted(faults),
            retry: RetryPolicy::default(),
        }
    }

    /// Builder-style: set the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> FaultPlan {
        self.retry = retry;
        self
    }
}

/// Deterministic seed for the dedicated fault RNG of a machine whose
/// engine runs with scenario (or per-group) seed `seed`.
///
/// The fault stream must never share the engine's task-sampling RNG:
/// with a shared stream, merely enabling faults would perturb every
/// sampled task time, and a faults-disabled run could not be guaranteed
/// to consume zero extra draws. [`crate::mix_seed`] over a
/// domain-separated seed gives an independent, reproducible stream.
pub fn fault_seed(seed: u64) -> u64 {
    crate::mix_seed(seed ^ 0x000F_A017_5EED_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let p = FaultPlan::random(DurationDist::exponential(1_000), DurationDist::constant(50))
            .with_retry(RetryPolicy::Bounded { max_attempts: 3 });
        assert_eq!(p.retry, RetryPolicy::Bounded { max_attempts: 3 });
        assert!(matches!(p.model, FaultModel::Random { .. }));

        let s = FaultPlan::scripted(vec![ScriptedFault {
            processor: 1,
            crash_at: 500,
            repair_after: Some(40),
        }]);
        assert_eq!(s.retry, RetryPolicy::ReissueFront);
        match &s.model {
            FaultModel::Scripted(evs) => assert_eq!(evs.len(), 1),
            other => panic!("expected scripted model, got {other:?}"),
        }
    }

    #[test]
    fn default_retry_is_reissue_front() {
        assert_eq!(RetryPolicy::default(), RetryPolicy::ReissueFront);
    }

    #[test]
    fn fault_seed_is_deterministic_and_domain_separated() {
        assert_eq!(fault_seed(7), fault_seed(7));
        assert_ne!(fault_seed(7), 7);
        assert_ne!(fault_seed(7), fault_seed(8));
    }
}
