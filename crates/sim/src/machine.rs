//! Machine model: processor pool, executive placement, management costs.
//!
//! The paper's testbed was PAX on a UNIVAC 1100, where "executive
//! computation was done at the direct expense of worker computation", and it
//! notes that "some real parallel machines may provide separate executive
//! computing resources". Both arrangements are modelled by
//! [`ExecutivePlacement`].
//!
//! Management costs are itemized to match the operations the paper names:
//! task dispatch, description splitting, completion processing, enablement
//! recognition, successor scheduling, merging, and composite-map
//! construction for indirect mappings.

use crate::calendar::CalendarKind;
use crate::faults::FaultPlan;
use crate::locality::LocalityModel;
use crate::time::SimDuration;

/// Where executive (management) computation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutivePlacement {
    /// Management runs on the requesting worker's own processor, serialized
    /// by a global executive lock — the UNIVAC 1100 arrangement. Management
    /// time directly displaces worker computation.
    StealsWorker,
    /// A dedicated executive processor performs management; workers wait
    /// only for service latency. Models machines with "separate executive
    /// computing resources" (or hardware synchronization primitives when
    /// costs are set near zero).
    Dedicated,
}

/// Itemized management (executive) operation costs, in ticks.
///
/// The defaults are scaled so that, with ~100-tick granules, the
/// computation-to-management ratio lands in the neighborhood of the
/// paper's observed ≈200 (see experiment E5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManagementCosts {
    /// Handing a ready task to an idle worker.
    pub dispatch: SimDuration,
    /// Splitting one computation description into two.
    pub split: SimDuration,
    /// Processing the completion of one task (merge accounting included).
    pub completion: SimDuration,
    /// Releasing one queued (conflicting or enabled) computation into the
    /// waiting queue.
    pub release: SimDuration,
    /// Per-entry cost of constructing a composite granule map for an
    /// indirect enablement mapping.
    pub composite_map_per_entry: SimDuration,
    /// Per-dependent cost of decrementing enablement counters at completion.
    pub counter_decrement: SimDuration,
    /// Initiating a phase (creating its master description).
    pub phase_init: SimDuration,
}

impl ManagementCosts {
    /// A frictionless machine: every management operation is free. Useful
    /// for reproducing pure-arithmetic claims (experiment E1) and as a
    /// baseline in overhead sweeps.
    pub fn free() -> ManagementCosts {
        ManagementCosts {
            dispatch: SimDuration::ZERO,
            split: SimDuration::ZERO,
            completion: SimDuration::ZERO,
            release: SimDuration::ZERO,
            composite_map_per_entry: SimDuration::ZERO,
            counter_decrement: SimDuration::ZERO,
            phase_init: SimDuration::ZERO,
        }
    }

    /// Default costs used by the CASPER-style experiments. One dispatch +
    /// one completion ≈ 0.5 ticks of management per granule; a 100-tick
    /// granule then yields a computation-to-management ratio ≈ 200.
    pub fn pax_default() -> ManagementCosts {
        ManagementCosts {
            dispatch: SimDuration(1),
            split: SimDuration(2),
            completion: SimDuration(1),
            release: SimDuration(1),
            composite_map_per_entry: SimDuration(1),
            counter_decrement: SimDuration(1),
            phase_init: SimDuration(2),
        }
    }

    /// Scale every cost by an integer factor (overhead sweeps).
    pub fn scaled(&self, factor: u64) -> ManagementCosts {
        ManagementCosts {
            dispatch: self.dispatch * factor,
            split: self.split * factor,
            completion: self.completion * factor,
            release: self.release * factor,
            composite_map_per_entry: self.composite_map_per_entry * factor,
            counter_decrement: self.counter_decrement * factor,
            phase_init: self.phase_init * factor,
        }
    }
}

impl Default for ManagementCosts {
    fn default() -> Self {
        ManagementCosts::pax_default()
    }
}

/// How many shards the sharded engine partitions a simulation's *machine
/// groups* across (`pax-core`'s `Simulation::add_job_in_group` /
/// `link_groups`).
///
/// Jobs that share one simulated machine are coupled through the global
/// waiting queue, the idle-worker stack, the executive lanes, and the
/// run's RNG stream, so the indivisible unit of sharding is the **group**
/// (one machine plus the jobs it runs), never an individual job. Group
/// `g` is owned by shard `g % shards`; each shard drains its own
/// calendars up to a conservative epoch boundary, and cross-group
/// effects (job-admission edges) are exchanged at a two-phase barrier.
///
/// This is a **host-performance knob, not a semantics knob**: every
/// shard count (including pathological ones such as 3) produces
/// bit-identical reports, pinned by the equivalence suite. Per-group RNG
/// streams are split deterministically from the scenario seed, so
/// results do not depend on which shard — or which OS thread — a group
/// lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Number of shards (≥ 1). Clamped to the number of groups at run
    /// time; `1` selects the classic single-threaded drive loop.
    pub shards: usize,
}

impl ShardPolicy {
    /// The single-shard (classic single-threaded) policy — the pinned
    /// reference the sharded drivers are diffed against.
    pub fn single() -> ShardPolicy {
        ShardPolicy { shards: 1 }
    }

    /// A policy with `shards` shards. Infallible by design — a zero
    /// count is reported as [`ConfigError::ZeroShards`] when the config
    /// is validated at session build.
    pub fn new(shards: usize) -> ShardPolicy {
        ShardPolicy { shards }
    }
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy::single()
    }
}

/// What the executive does when a new job arrives while the machine is
/// already loaded — the open-system backpressure knob.
///
/// In a closed batch every job is admitted at time zero and the policy
/// never engages ([`AdmissionPolicy::AcceptAll`] with nothing to refuse).
/// Under a streaming arrival process the policy decides whether a
/// machine drowning in overlapping rundowns keeps accepting work,
/// defers it, or sheds it — and the report accounts for the choice
/// (`jobs_rejected`, per-job latency measured from *arrival*, so a
/// deferred job's queueing delay is visible in p99).
///
/// ```
/// use pax_sim::machine::{AdmissionPolicy, MachineConfig};
///
/// let m = MachineConfig::new(4).with_admission(AdmissionPolicy::Shed { max_in_flight: 8 });
/// assert!(m.validate().is_ok());
/// // Zero capacity can never admit anything and is rejected at build.
/// let bad = MachineConfig::new(4)
///     .with_admission(AdmissionPolicy::BoundedDefer { max_in_flight: 0 });
/// assert!(bad.validate().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit every arrival immediately. The default, and the only policy
    /// a closed (all arrivals at t=0) run ever exercises.
    #[default]
    AcceptAll,
    /// Admit at most `max_in_flight` uncompleted jobs; later arrivals
    /// wait in an admission queue (FIFO) and enter as completions free
    /// capacity. Nothing is lost — latency absorbs the backpressure.
    BoundedDefer {
        /// Maximum number of admitted-but-unfinished jobs (≥ 1).
        max_in_flight: usize,
    },
    /// Admit at most `max_in_flight` uncompleted jobs; arrivals beyond
    /// that are rejected outright and counted in `jobs_rejected` (their
    /// `JobReport` is marked rejected and excluded from percentiles).
    Shed {
        /// Maximum number of admitted-but-unfinished jobs (≥ 1).
        max_in_flight: usize,
    },
}

/// Which waiting-queue segments a processor class may serve.
///
/// The waiting computation queue has two scheduling classes (elevated
/// conflict-released work ahead of normal phase work); affinity restricts
/// which of them a worker drawn from a [`ProcessorClass`] may pop. The
/// default, [`ClassAffinity::Any`], is the homogeneous behaviour. A
/// machine whose classes collectively cannot serve both segments is
/// rejected at validation ([`ConfigError::UncoveredQueueClass`]), since
/// work queued in an unservable segment would wait forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassAffinity {
    /// Serve either queue segment — the homogeneous default.
    #[default]
    Any,
    /// Serve only elevated (conflict-released / enabling) work.
    ElevatedOnly,
    /// Serve only normal phase work.
    NormalOnly,
}

impl ClassAffinity {
    /// Whether this affinity may pop elevated-segment work.
    pub fn serves_elevated(self) -> bool {
        !matches!(self, ClassAffinity::NormalOnly)
    }

    /// Whether this affinity may pop normal-segment work.
    pub fn serves_normal(self) -> bool {
        !matches!(self, ClassAffinity::ElevatedOnly)
    }
}

/// One speed class in a heterogeneous processor pool.
///
/// Classes partition the machine's workers: the first
/// [`ProcessorClass::count`] workers belong to the first declared class,
/// the next to the second, and so on ([`MachineConfig::validate`] requires
/// the counts to sum to `processors`). Each task's sampled duration is
/// scaled by the *dispatching* worker's class speed, after the cost model
/// has drawn its random value — so heterogeneity never changes how many
/// random draws a run makes, and a 100-percent class is bit-identical to
/// the homogeneous machine.
///
/// ```
/// use pax_sim::machine::{ClassAffinity, MachineConfig, ProcessorClass};
///
/// // Two fast workers (half duration) alongside six nominal ones.
/// let m = MachineConfig::new(8).with_classes(vec![
///     ProcessorClass::new("fast", 2, 200),
///     ProcessorClass::new("base", 6, 100),
/// ]);
/// assert!(m.validate().is_ok());
/// assert_eq!(m.classes[0].scale_ticks(1000), 500); // 200 % speed
/// assert_eq!(m.classes[1].scale_ticks(1000), 1000); // nominal
/// assert_eq!(m.classes[0].affinity, ClassAffinity::Any);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorClass {
    /// Class name, used in per-class report accounting.
    pub name: String,
    /// Number of workers in this class (≥ 1; counts must sum to
    /// `processors`).
    pub count: usize,
    /// Speed as a percentage of nominal: 100 = nominal, 200 = twice as
    /// fast (durations halve), 50 = half speed (durations double).
    /// Stored as an integer so duration scaling is exact and
    /// deterministic; zero is rejected at validation.
    pub speed_percent: u32,
    /// Which waiting-queue segments this class's workers may serve.
    pub affinity: ClassAffinity,
}

impl ProcessorClass {
    /// A class of `count` workers at `speed_percent` of nominal speed,
    /// serving any queue segment.
    pub fn new(name: impl Into<String>, count: usize, speed_percent: u32) -> ProcessorClass {
        ProcessorClass {
            name: name.into(),
            count,
            speed_percent,
            affinity: ClassAffinity::Any,
        }
    }

    /// Builder-style: restrict which queue segments the class serves.
    pub fn with_affinity(mut self, affinity: ClassAffinity) -> ProcessorClass {
        self.affinity = affinity;
        self
    }

    /// Scale a sampled task duration (in ticks) by this class's speed:
    /// `ceil(ticks × 100 / speed_percent)`, computed in 128-bit and
    /// saturating at `u64::MAX`, so a slow class never turns a long task
    /// into a short one. At 100 percent this is exactly the identity,
    /// which is what keeps a speed-100 class bit-identical to the
    /// homogeneous machine.
    pub fn scale_ticks(&self, ticks: u64) -> u64 {
        debug_assert!(self.speed_percent > 0, "validated at session build");
        let p = u128::from(self.speed_percent.max(1));
        u64::try_from((u128::from(ticks) * 100).div_ceil(p)).unwrap_or(u64::MAX)
    }
}

/// A named pool of secondary-resource tokens (operators, licenses,
/// fixtures — anything a task needs *in addition to* a processor).
///
/// A phase that declares `requires: ["operator"]` dispatches a task only
/// when a worker **and** one token from every named pool are available;
/// the tokens are held for the task's whole execution and returned when
/// it completes — or when a processor crash preempts it, so fault
/// injection cannot leak tokens and break determinism.
///
/// ```
/// use pax_sim::machine::{MachineConfig, ResourcePool};
///
/// let m = MachineConfig::new(8)
///     .with_resources(vec![ResourcePool::new("operator", 3)]);
/// assert!(m.validate().is_ok());
/// assert_eq!(m.resources[0].tokens, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourcePool {
    /// Pool name, referenced by phase `requires` lists and report rows.
    pub name: String,
    /// Number of tokens in the pool (≥ 1; zero is rejected at
    /// validation, because a task requiring an empty pool could never
    /// dispatch).
    pub tokens: u32,
}

impl ResourcePool {
    /// A pool named `name` holding `tokens` tokens.
    pub fn new(name: impl Into<String>, tokens: u32) -> ResourcePool {
        ResourcePool {
            name: name.into(),
            tokens,
        }
    }

    /// Check a phase's `requires` list against the machine's `pools`:
    /// each name a declared pool, and each once. The error is the index
    /// of the first name that is not, and what it is (`requires …`).
    pub fn check_requires(
        pools: &[ResourcePool],
        requires: &[String],
    ) -> Result<(), (usize, String)> {
        for (k, name) in requires.iter().enumerate() {
            if !pools.iter().any(|p| p.name == *name) {
                return Err((k, format!("undeclared resource pool '{name}'")));
            }
            if requires[..k].contains(name) {
                return Err((k, format!("resource pool '{name}' twice")));
            }
        }
        Ok(())
    }
}

/// A structured machine-configuration error, produced by
/// [`MachineConfig::validate`] once at session build.
///
/// The builder setters themselves are infallible — a config is data and
/// may pass through invalid intermediate states while being assembled —
/// and validation happens exactly once, when a `Simulation` is turned
/// into a session (or run). This replaces the scattered constructor
/// panics the setters used to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `processors == 0`: the machine has no workers to run granules.
    ZeroProcessors,
    /// `executive_lanes == 0`: the executive has no service lanes.
    ZeroExecutiveLanes,
    /// `shards.shards == 0`: the run has no shard to execute on.
    ZeroShards,
    /// An admission policy with `max_in_flight == 0` can never admit
    /// any job at all.
    ZeroAdmissionCapacity,
    /// Declared processor-class counts do not sum to `processors`.
    ClassCountMismatch {
        /// Sum of all [`ProcessorClass::count`] values.
        classes_total: usize,
        /// The machine's `processors` field the sum must equal.
        processors: usize,
    },
    /// A processor class with `count == 0` contributes no workers.
    ZeroClassCount {
        /// Index of the offending class in `classes`.
        class: usize,
    },
    /// A processor class with `speed_percent == 0` would run forever.
    ZeroClassSpeed {
        /// Index of the offending class in `classes`.
        class: usize,
    },
    /// Two processor classes share a name, making per-class report rows
    /// ambiguous.
    DuplicateClassName {
        /// Index of the *second* occurrence in `classes`.
        class: usize,
    },
    /// The declared classes collectively cannot serve both waiting-queue
    /// segments (e.g. every class is `ElevatedOnly`), so work queued in
    /// the unserved segment would wait forever.
    UncoveredQueueClass,
    /// A resource pool with `tokens == 0` can never satisfy a requiring
    /// task.
    ZeroPoolTokens {
        /// Index of the offending pool in `resources`.
        pool: usize,
    },
    /// Two resource pools share a name, making `requires` references
    /// ambiguous.
    DuplicatePoolName {
        /// Index of the *second* occurrence in `resources`.
        pool: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroProcessors => write!(f, "machine needs at least one processor"),
            ConfigError::ZeroExecutiveLanes => write!(f, "need at least one executive lane"),
            ConfigError::ZeroShards => write!(f, "need at least one shard"),
            ConfigError::ZeroAdmissionCapacity => {
                write!(f, "admission policy needs max_in_flight >= 1")
            }
            ConfigError::ClassCountMismatch {
                classes_total,
                processors,
            } => write!(
                f,
                "processor class counts sum to {classes_total} but the machine has {processors} processors"
            ),
            ConfigError::ZeroClassCount { class } => {
                write!(f, "processor class {class} has count 0")
            }
            ConfigError::ZeroClassSpeed { class } => {
                write!(f, "processor class {class} has speed_percent 0")
            }
            ConfigError::DuplicateClassName { class } => {
                write!(f, "processor class {class} repeats an earlier class name")
            }
            ConfigError::UncoveredQueueClass => write!(
                f,
                "class affinities leave a waiting-queue segment with no processor able to serve it"
            ),
            ConfigError::ZeroPoolTokens { pool } => {
                write!(f, "resource pool {pool} has 0 tokens")
            }
            ConfigError::DuplicatePoolName { pool } => {
                write!(f, "resource pool {pool} repeats an earlier pool name")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete machine description for a simulation run.
///
/// Assembled with infallible builder setters and checked once by
/// [`MachineConfig::validate`] at session build:
///
/// ```
/// use pax_sim::machine::{AdmissionPolicy, MachineConfig, ProcessorClass, ResourcePool};
///
/// let m = MachineConfig::new(8)
///     .with_executive_lanes(2)
///     .with_admission(AdmissionPolicy::BoundedDefer { max_in_flight: 6 })
///     .with_classes(vec![
///         ProcessorClass::new("fast", 2, 200),
///         ProcessorClass::new("base", 6, 100),
///     ])
///     .with_resources(vec![ResourcePool::new("operator", 3)]);
/// assert!(m.validate().is_ok());
///
/// // Class counts must cover the whole pool; errors are typed.
/// let bad = MachineConfig::new(8).with_classes(vec![ProcessorClass::new("fast", 2, 200)]);
/// assert!(bad.validate().is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of worker processors.
    pub processors: usize,
    /// Where management computation executes.
    pub executive: ExecutivePlacement,
    /// Itemized management costs.
    pub costs: ManagementCosts,
    /// Number of parallel executive service lanes. PAX's management was
    /// serial (lanes = 1); the paper names "a middle management scheme to
    /// parallelize the serial management function" as a strategy under
    /// development, which larger values model.
    pub executive_lanes: usize,
    /// Optional clustered-memory model. `None` (the default) is uniform
    /// memory: every access costs the same from every processor. `Some`
    /// adds per-granule remote stalls and gives the scheduler's
    /// data-proximity assignment policy something to optimize (the third
    /// strategy the paper names as under development).
    pub locality: Option<LocalityModel>,
    /// Sharding policy for multi-group simulations. Every shard count is
    /// result-identical; counts > 1 let the threaded driver in
    /// `pax-runtime` drain independent machine groups in parallel.
    pub shards: ShardPolicy,
    /// Admission policy for streaming arrivals (open-system service
    /// mode). [`AdmissionPolicy::AcceptAll`] — the default — admits
    /// every job on arrival and is the only policy a closed batch ever
    /// exercises, so the golden shapes are untouched.
    pub admission: AdmissionPolicy,
    /// Optional processor fault-injection plan. `None` (the default) is a
    /// failure-free machine — and costs zero extra random draws, so the
    /// golden shapes are untouched. `Some` makes crashes a deterministic
    /// scenario axis: crash/repair streams come from a dedicated RNG
    /// split from the scenario seed, so faulty runs stay bit-identical
    /// across shard counts and shard drivers. On a fleet, every machine
    /// group replica experiences the plan in its own local time.
    pub faults: Option<FaultPlan>,
    /// Heterogeneous processor classes. Empty (the default) is the
    /// homogeneous machine — every worker nominal speed, any queue
    /// segment — and takes exactly the homogeneous dispatch path, so the
    /// golden shapes are untouched and zero extra random draws occur.
    /// Non-empty classes partition the workers in declaration order;
    /// [`MachineConfig::validate`] requires the counts to sum to
    /// `processors`.
    pub classes: Vec<ProcessorClass>,
    /// Secondary-resource token pools. Empty (the default) means tasks
    /// need only a processor. A phase declaring `requires` names pools
    /// here; a task dispatches only when a worker and one token from
    /// every required pool are available, and tokens are returned on
    /// completion *and* on crash preemption.
    pub resources: Vec<ResourcePool>,
}

impl MachineConfig {
    /// A machine with `processors` workers, dedicated executive, and
    /// default PAX costs. Infallible — `processors == 0` is reported as
    /// [`ConfigError::ZeroProcessors`] by [`MachineConfig::validate`]
    /// at session build.
    pub fn new(processors: usize) -> MachineConfig {
        MachineConfig {
            processors,
            executive: ExecutivePlacement::Dedicated,
            costs: ManagementCosts::pax_default(),
            executive_lanes: 1,
            locality: None,
            shards: ShardPolicy::default(),
            admission: AdmissionPolicy::default(),
            faults: None,
            classes: Vec::new(),
            resources: Vec::new(),
        }
    }

    /// An idealized frictionless machine (free management, dedicated
    /// executive) — used where the paper reasons with pure arithmetic.
    pub fn ideal(processors: usize) -> MachineConfig {
        MachineConfig::new(processors).with_costs(ManagementCosts::free())
    }

    /// Check the assembled config for structural validity. Called once
    /// at session build (`Simulation::into_session` / `run`); the
    /// builder setters themselves never panic or clamp.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.processors == 0 {
            return Err(ConfigError::ZeroProcessors);
        }
        if self.executive_lanes == 0 {
            return Err(ConfigError::ZeroExecutiveLanes);
        }
        if self.shards.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        match self.admission {
            AdmissionPolicy::BoundedDefer { max_in_flight }
            | AdmissionPolicy::Shed { max_in_flight }
                if max_in_flight == 0 =>
            {
                return Err(ConfigError::ZeroAdmissionCapacity);
            }
            _ => {}
        }
        if !self.classes.is_empty() {
            let mut total = 0usize;
            let mut elevated_served = false;
            let mut normal_served = false;
            for (i, c) in self.classes.iter().enumerate() {
                if c.count == 0 {
                    return Err(ConfigError::ZeroClassCount { class: i });
                }
                if c.speed_percent == 0 {
                    return Err(ConfigError::ZeroClassSpeed { class: i });
                }
                if self.classes[..i].iter().any(|p| p.name == c.name) {
                    return Err(ConfigError::DuplicateClassName { class: i });
                }
                total += c.count;
                elevated_served |= c.affinity.serves_elevated();
                normal_served |= c.affinity.serves_normal();
            }
            if total != self.processors {
                return Err(ConfigError::ClassCountMismatch {
                    classes_total: total,
                    processors: self.processors,
                });
            }
            if !(elevated_served && normal_served) {
                return Err(ConfigError::UncoveredQueueClass);
            }
        }
        for (i, p) in self.resources.iter().enumerate() {
            if p.tokens == 0 {
                return Err(ConfigError::ZeroPoolTokens { pool: i });
            }
            if self.resources[..i].iter().any(|q| q.name == p.name) {
                return Err(ConfigError::DuplicatePoolName { pool: i });
            }
        }
        Ok(())
    }

    /// Builder-style: set the number of executive lanes (middle
    /// management extension). Infallible — a zero count is reported as
    /// [`ConfigError::ZeroExecutiveLanes`] at session build.
    pub fn with_executive_lanes(mut self, lanes: usize) -> MachineConfig {
        self.executive_lanes = lanes;
        self
    }

    /// Builder-style: set executive placement.
    pub fn with_executive(mut self, placement: ExecutivePlacement) -> MachineConfig {
        self.executive = placement;
        self
    }

    /// Builder-style: set management costs.
    pub fn with_costs(mut self, costs: ManagementCosts) -> MachineConfig {
        self.costs = costs;
        self
    }

    /// Builder-style: attach a clustered-memory model.
    pub fn with_locality(mut self, locality: LocalityModel) -> MachineConfig {
        self.locality = Some(locality);
        self
    }

    /// Does nothing: the executive has one future-event list. Kept only
    /// because the frozen `benchmark/` crate calls it; goes in the next
    /// benchmark PR.
    pub fn with_calendar(self, _calendar: CalendarKind) -> MachineConfig {
        self
    }

    /// Builder-style: set the sharding policy for multi-group runs.
    pub fn with_shards(mut self, shards: ShardPolicy) -> MachineConfig {
        self.shards = shards;
        self
    }

    /// Builder-style: set the admission policy for streaming arrivals.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> MachineConfig {
        self.admission = admission;
        self
    }

    /// Builder-style: attach a processor fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> MachineConfig {
        self.faults = Some(faults);
        self
    }

    /// Builder-style: declare heterogeneous processor classes.
    /// Infallible — count/speed/affinity problems are reported by
    /// [`MachineConfig::validate`] at session build.
    pub fn with_classes(mut self, classes: Vec<ProcessorClass>) -> MachineConfig {
        self.classes = classes;
        self
    }

    /// Builder-style: declare secondary-resource token pools.
    /// Infallible — empty pools and duplicate names are reported by
    /// [`MachineConfig::validate`] at session build.
    pub fn with_resources(mut self, resources: Vec<ResourcePool>) -> MachineConfig {
        self.resources = resources;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_machine_is_free() {
        let m = MachineConfig::ideal(8);
        assert_eq!(m.costs, ManagementCosts::free());
        assert_eq!(m.executive, ExecutivePlacement::Dedicated);
        assert_eq!(m.processors, 8);
    }

    #[test]
    fn ideal_is_new_with_free_costs() {
        for n in [1, 8, 1000] {
            let free = MachineConfig::new(n).with_costs(ManagementCosts::free());
            assert_eq!(MachineConfig::ideal(n), free);
        }
    }

    #[test]
    fn scaling_costs() {
        let c = ManagementCosts::pax_default().scaled(10);
        assert_eq!(c.dispatch, SimDuration(10));
        assert_eq!(c.split, SimDuration(20));
    }

    #[test]
    fn builder_chain() {
        let m = MachineConfig::new(4)
            .with_executive(ExecutivePlacement::StealsWorker)
            .with_costs(ManagementCosts::free())
            .with_calendar(CalendarKind::BinaryHeap);
        assert_eq!(m.executive, ExecutivePlacement::StealsWorker);
        assert_eq!(m.costs.dispatch, SimDuration::ZERO);
    }

    #[test]
    fn zero_processors_rejected_at_validation() {
        // Construction is infallible; the structural error surfaces
        // exactly once, at session build.
        assert_eq!(
            MachineConfig::new(0).validate(),
            Err(ConfigError::ZeroProcessors)
        );
        assert_eq!(
            MachineConfig::new(4).with_executive_lanes(0).validate(),
            Err(ConfigError::ZeroExecutiveLanes)
        );
        assert_eq!(MachineConfig::new(4).validate(), Ok(()));
    }

    #[test]
    fn shard_policy_defaults_and_builder() {
        // One shard (the classic single-threaded drive loop) stays the
        // default; higher counts are a host-performance knob pinned
        // result-identical by the equivalence suite.
        assert_eq!(MachineConfig::new(4).shards, ShardPolicy::single());
        assert_eq!(MachineConfig::ideal(4).shards, ShardPolicy::single());
        assert_eq!(ShardPolicy::default().shards, 1);
        let m = MachineConfig::new(4).with_shards(ShardPolicy::new(8));
        assert_eq!(m.shards.shards, 8);
    }

    #[test]
    fn zero_shards_rejected_at_validation() {
        assert_eq!(
            MachineConfig::new(4)
                .with_shards(ShardPolicy::new(0))
                .validate(),
            Err(ConfigError::ZeroShards)
        );
        assert_eq!(
            MachineConfig::new(4)
                .with_shards(ShardPolicy::new(8))
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn admission_defaults_and_validation() {
        // Accept-all stays the default — the only policy a closed batch
        // exercises, so golden shapes are untouched.
        assert_eq!(MachineConfig::new(4).admission, AdmissionPolicy::AcceptAll);
        assert_eq!(
            MachineConfig::ideal(4).admission,
            AdmissionPolicy::AcceptAll
        );
        let m = MachineConfig::new(4)
            .with_admission(AdmissionPolicy::BoundedDefer { max_in_flight: 8 });
        assert_eq!(
            m.admission,
            AdmissionPolicy::BoundedDefer { max_in_flight: 8 }
        );
        assert_eq!(m.validate(), Ok(()));
        for bad in [
            AdmissionPolicy::BoundedDefer { max_in_flight: 0 },
            AdmissionPolicy::Shed { max_in_flight: 0 },
        ] {
            assert_eq!(
                MachineConfig::new(4).with_admission(bad).validate(),
                Err(ConfigError::ZeroAdmissionCapacity)
            );
        }
        // Errors render as readable messages.
        assert!(ConfigError::ZeroProcessors
            .to_string()
            .contains("processor"));
    }

    #[test]
    fn faults_default_and_builder() {
        // Failure-free stays the default — no plan, no extra RNG draws,
        // golden shapes untouched.
        assert_eq!(MachineConfig::new(4).faults, None);
        assert_eq!(MachineConfig::ideal(4).faults, None);
        let plan = crate::faults::FaultPlan::random(
            crate::dist::DurationDist::exponential(10_000),
            crate::dist::DurationDist::constant(500),
        )
        .with_retry(crate::faults::RetryPolicy::Bounded { max_attempts: 0 });
        let m = MachineConfig::new(4).with_faults(plan.clone());
        assert_eq!(m.faults, Some(plan));
    }

    #[test]
    fn classes_default_and_builder() {
        // Homogeneous stays the default — no classes, no scaling, golden
        // shapes untouched.
        assert!(MachineConfig::new(4).classes.is_empty());
        assert!(MachineConfig::ideal(4).classes.is_empty());
        let m = MachineConfig::new(4).with_classes(vec![
            ProcessorClass::new("fast", 1, 200).with_affinity(ClassAffinity::Any),
            ProcessorClass::new("slow", 3, 50),
        ]);
        assert_eq!(m.classes.len(), 2);
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn class_validation_rules() {
        let base = MachineConfig::new(4);
        assert_eq!(
            base.clone()
                .with_classes(vec![ProcessorClass::new("a", 3, 100)])
                .validate(),
            Err(ConfigError::ClassCountMismatch {
                classes_total: 3,
                processors: 4
            })
        );
        assert_eq!(
            base.clone()
                .with_classes(vec![
                    ProcessorClass::new("a", 4, 100),
                    ProcessorClass::new("b", 0, 100)
                ])
                .validate(),
            Err(ConfigError::ZeroClassCount { class: 1 })
        );
        assert_eq!(
            base.clone()
                .with_classes(vec![ProcessorClass::new("a", 4, 0)])
                .validate(),
            Err(ConfigError::ZeroClassSpeed { class: 0 })
        );
        assert_eq!(
            base.clone()
                .with_classes(vec![
                    ProcessorClass::new("a", 2, 100),
                    ProcessorClass::new("a", 2, 200)
                ])
                .validate(),
            Err(ConfigError::DuplicateClassName { class: 1 })
        );
        // Every class elevated-only leaves normal work unserved.
        assert_eq!(
            base.clone()
                .with_classes(vec![
                    ProcessorClass::new("a", 4, 100).with_affinity(ClassAffinity::ElevatedOnly)
                ])
                .validate(),
            Err(ConfigError::UncoveredQueueClass)
        );
        // A normal-only + elevated-only split covers both segments.
        assert_eq!(
            base.with_classes(vec![
                ProcessorClass::new("a", 2, 100).with_affinity(ClassAffinity::NormalOnly),
                ProcessorClass::new("b", 2, 100).with_affinity(ClassAffinity::ElevatedOnly),
            ])
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn resource_validation_rules() {
        assert!(MachineConfig::new(4).resources.is_empty());
        let m = MachineConfig::new(4).with_resources(vec![
            ResourcePool::new("operator", 3),
            ResourcePool::new("license", 1),
        ]);
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(
            MachineConfig::new(4)
                .with_resources(vec![ResourcePool::new("operator", 0)])
                .validate(),
            Err(ConfigError::ZeroPoolTokens { pool: 0 })
        );
        assert_eq!(
            MachineConfig::new(4)
                .with_resources(vec![
                    ResourcePool::new("operator", 1),
                    ResourcePool::new("operator", 2)
                ])
                .validate(),
            Err(ConfigError::DuplicatePoolName { pool: 1 })
        );
        assert!(ConfigError::UncoveredQueueClass
            .to_string()
            .contains("segment"));
    }

    #[test]
    fn speed_scaling_is_exact_and_ceil() {
        let nominal = ProcessorClass::new("n", 1, 100);
        for t in [0u64, 1, 7, 100, 1_000_000_007] {
            assert_eq!(nominal.scale_ticks(t), t, "100 % must be identity");
        }
        let fast = ProcessorClass::new("f", 1, 200);
        assert_eq!(fast.scale_ticks(1000), 500);
        assert_eq!(fast.scale_ticks(7), 4); // ceil(3.5)
        let slow = ProcessorClass::new("s", 1, 50);
        assert_eq!(slow.scale_ticks(1000), 2000);
        let odd = ProcessorClass::new("o", 1, 300);
        assert_eq!(odd.scale_ticks(10), 4); // ceil(10/3)
    }

    #[test]
    fn slow_class_saturates_instead_of_wrapping() {
        let slowest = ProcessorClass::new("s", 1, 1);
        assert_eq!(slowest.scale_ticks(1 << 62), u64::MAX);
        assert_eq!(slowest.scale_ticks(u64::MAX), u64::MAX);
        assert_eq!(slowest.scale_ticks(1 << 56), 100 << 56);
        let nominal = ProcessorClass::new("n", 1, 100);
        assert_eq!(nominal.scale_ticks(u64::MAX), u64::MAX);
    }

    #[test]
    fn affinity_segment_coverage() {
        assert!(ClassAffinity::Any.serves_elevated());
        assert!(ClassAffinity::Any.serves_normal());
        assert!(ClassAffinity::ElevatedOnly.serves_elevated());
        assert!(!ClassAffinity::ElevatedOnly.serves_normal());
        assert!(!ClassAffinity::NormalOnly.serves_elevated());
        assert!(ClassAffinity::NormalOnly.serves_normal());
    }
}
