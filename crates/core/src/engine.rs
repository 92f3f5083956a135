//! The PAX-style executive, driven by a discrete-event simulation.
//!
//! One [`Simulation`] runs one machine ([`MachineConfig`]) executing one or
//! more job streams (each a [`Program`]) under an [`OverlapPolicy`]. The
//! executive implements the paper's mechanisms:
//!
//! * demand-driven **splitting** of large contiguous computation
//!   descriptions into worker-sized tasks, with merge-on-completion
//!   bookkeeping;
//! * the **waiting computation queue** with elevated placement of released
//!   conflicting/enabled computations;
//! * per-description **conflict queues** (double circularly-linked lists)
//!   used to hang identity-mapped successor pieces off the current-phase
//!   pieces that enable them;
//! * **composite granule maps** with status bits and **enablement
//!   counters** for forward/reverse indirect (and seam) mappings;
//! * **successor-splitting tasks** and **presplitting** as alternatives to
//!   demand splitting of queued successors;
//! * serial executive service (optionally multi-lane), either stealing
//!   worker time (UNIVAC 1100) or on a dedicated processor. With more
//!   than one lane the run loop drains up to `lanes` coincident
//!   completion events per service round (see
//!   [`BatchPolicy`]) — the batched drain
//!   is pinned run-identical to single-event service.
//!
//! State changes are applied at event time; the *costs* of management
//! operations are accumulated per event and charged to the executive
//! timeline, which delays subsequent dispatches exactly as a serial
//! executive would. (Releases are therefore visible at the instant their
//! completion event fires, while no released work can *start* before the
//! executive finishes the corresponding service — the same observable
//! order PAX produced.)

use crate::descriptor::{DescArena, DescState, QueueClass};
use crate::ids::{DescId, GranuleRange, InstanceId, JobId, PhaseId, WorkerId};
use crate::mapping::{CompositeMap, EnablementMapping, MappingKind};
use crate::phase::PhaseStats;
use crate::policy::{AssignmentPolicy, CompositeBuild, OverlapPolicy, SplitStrategy};
use crate::program::{Lookahead, Program, Step};
use crate::queue::WaitingQueue;
use crate::rangeset::{coalesce_indices_into, RangeSet};
use crate::report::{ClassReport, JobReport, PhaseReport, PoolReport, RunReport};
use pax_sim::dist::{arrival_seed, ArrivalProcess, DurationDist};
use pax_sim::event::EventQueue;
use pax_sim::faults::{fault_seed, FaultModel, FaultPlan, RetryPolicy};
use pax_sim::machine::{
    AdmissionPolicy, BatchPolicy, ClassAffinity, ConfigError, ExecutivePlacement, MachineConfig,
    ProcessorClass, ResourcePool,
};
use pax_sim::metrics::{Activity, GanttTrace, LevelSweep, Span, StepTrace};
use pax_sim::time::{SimDuration, SimTime};
use pax_sim::trace::TraceLog;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;
use std::mem::take;
use std::sync::Arc;

/// Lane-time slice for chunked background composite-map construction.
const BUILD_CHUNK_TICKS: u64 = 64;

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
    /// A processor crash lost a granule range that the machine's
    /// [`pax_sim::faults::RetryPolicy`] refused to reissue — the job can
    /// never complete, so the run fails structurally instead of
    /// deadlocking.
    JobAborted {
        /// Index of the aborted job.
        job: usize,
        /// Diagnostic text.
        detail: String,
    },
    /// A shard worker thread of the threaded driver panicked or missed
    /// the watchdog deadline, so the epoch protocol cannot complete.
    /// Raised by `pax-runtime`'s `run_sharded_threaded` in place of the
    /// process hang a naked barrier would produce.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// Panic payload or watchdog diagnostic.
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

/// Simulator events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A worker asks the executive for work.
    Seek(WorkerId),
    /// A worker finished the task described by `desc`.
    TaskDone { worker: WorkerId, desc: DescId },
    /// Poke the executive to look at its background backlog.
    ExecKick,
    /// A serial inter-phase region finished for job `job`.
    SerialDone { job: usize },
    /// Fault injection: the worker's processor crashes.
    Crash { worker: WorkerId },
    /// Fault injection: the worker's processor comes back up.
    Repair { worker: WorkerId },
}

/// Background executive work items.
#[derive(Debug, Clone, Copy)]
enum ExecTask {
    /// Build the composite granule map for an initiated successor.
    /// `prepaid` tracks lane time already spent: builds are chunked so the
    /// executive "works ahead in otherwise idle time" instead of blocking
    /// every dispatch behind one monolithic service.
    BuildComposite {
        inst: InstanceId,
        prepaid: SimDuration,
    },
    /// Split a detached successor description against the current live
    /// pieces of its predecessor ("the successor computation could be
    /// split and requeued to the appropriate current computation
    /// descriptions").
    SplitSuccessor { succ_desc: DescId, pred: InstanceId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    /// Created early by overlap initiation; gates still in place.
    Initiated,
    /// The running phase of its job.
    Current,
    /// All granules complete.
    Complete,
    /// Recycled after its job finished (service mode): the slot is on the
    /// free list, its run sets cleared in place, awaiting a new arrival.
    Evicted,
}

/// Enablement-counter state held by an initiated successor instance.
#[derive(Debug)]
struct CounterState {
    mapping: EnablementMapping,
    /// The active composite granule map (decrements flow through it).
    /// `Arc`-shared so the cost probe, the builder, and completion
    /// processing all reference one constructed map instead of cloning
    /// counter vectors.
    composite: Option<Arc<CompositeMap>>,
    /// A map constructed by the background cost probe but not yet applied;
    /// [`Engine::build_composite`] takes it instead of rebuilding.
    prebuilt: Option<Arc<CompositeMap>>,
    /// Remaining requirement per successor granule, only the first
    /// `early_limit` entries are active.
    counters: Vec<u32>,
    early_limit: u32,
}

#[derive(Debug)]
struct Instance {
    def: PhaseId,
    job: usize,
    dispatch_step: usize,
    state: InstState,
    granules: u32,
    remaining: u32,
    task_size: u32,
    /// Granules with an existing descriptor or already completed.
    released: RangeSet,
    completed: RangeSet,
    live_descs: Vec<DescId>,
    predecessor: Option<InstanceId>,
    successor: Option<InstanceId>,
    enabled_by: Option<MappingKind>,
    counter_state: Option<CounterState>,
    stats: PhaseStats,
}

/// Per-job runtime state. The job's [`Program`] is shared, not owned:
/// every job of an arrival stream points at the stream's one copy, and
/// the interpreter can hold the handle across `&mut self` calls without
/// cloning `Vec`/`String` payloads per step executed.
#[derive(Debug)]
struct JobRt {
    program: Arc<Program>,
    pc: usize,
    counters: Vec<i64>,
    /// Successor instance initiated by overlap, keyed by the dispatch step
    /// it was predicted for.
    pending_successor: Option<(usize, InstanceId)>,
    pending_serial_gap: SimDuration,
    done: bool,
    arrived_at: SimTime,
    started_at: SimTime,
    finished_at: Option<SimTime>,
    /// Shed by the admission policy (never ran).
    rejected: bool,
    /// This job's instances, tracked only under eviction so completion
    /// can recycle them in O(own instances). Buffers rotate through
    /// [`Engine::inst_list_pool`] to keep the steady state alloc-free.
    instances: Vec<InstanceId>,
}

/// A configured simulation, ready to run.
///
/// ```
/// use pax_core::engine::Simulation;
/// use pax_core::policy::OverlapPolicy;
/// use pax_core::program::ProgramBuilder;
/// use pax_core::phase::PhaseDef;
/// use pax_sim::dist::CostModel;
/// use pax_sim::machine::MachineConfig;
///
/// let mut b = ProgramBuilder::new();
/// let p = b.phase(PhaseDef::new("only", 32, CostModel::constant(5)));
/// b.dispatch(p);
/// let program = b.build().unwrap();
///
/// let mut sim = Simulation::new(MachineConfig::ideal(4), OverlapPolicy::strict());
/// sim.add_job(program);
/// let report = sim.run().unwrap();
/// assert_eq!(report.phases.len(), 1);
/// // 32 granules × 5 ticks on 4 processors = 40 ticks
/// assert_eq!(report.makespan.ticks(), 40);
/// ```
pub struct Simulation {
    pub(crate) cfg: MachineConfig,
    pub(crate) policy: OverlapPolicy,
    pub(crate) programs: Vec<Arc<Program>>,
    /// Machine group of each job in `programs` (parallel vector). Jobs in
    /// one group share one simulated machine; distinct groups are
    /// independent machines, coupled only through [`Simulation::link_groups`]
    /// admission edges — the unit the sharded drivers distribute.
    pub(crate) groups: Vec<usize>,
    /// Arrival instant of each job (parallel to `programs`); `t = 0` for
    /// batch jobs. In multi-group simulations instants are *local* to the
    /// group's timeline (global = group admission + instant), which keeps
    /// them shard-count-invariant.
    pub(crate) arrivals: Vec<SimTime>,
    /// Arrival streams not yet expanded into concrete jobs (see
    /// [`Simulation::expand_streams`]).
    pub(crate) streams: Vec<StreamSpec>,
    /// Recycle the instances of finished jobs (bounded-memory service).
    pub(crate) evict: bool,
    pub(crate) links: Vec<crate::shard::GroupLink>,
    pub(crate) seed: u64,
    pub(crate) gantt: bool,
    pub(crate) trace: bool,
}

/// A deferred arrival stream: `count` copies of one program admitted at
/// instants drawn from an [`ArrivalProcess`], all in one machine group.
pub(crate) struct StreamSpec {
    program: Arc<Program>,
    process: ArrivalProcess,
    count: usize,
    group: usize,
}

impl Simulation {
    /// A simulation of `cfg` under `policy`, with no jobs yet.
    pub fn new(cfg: MachineConfig, policy: OverlapPolicy) -> Simulation {
        Simulation {
            cfg,
            policy,
            programs: Vec::new(),
            groups: Vec::new(),
            arrivals: Vec::new(),
            streams: Vec::new(),
            evict: false,
            links: Vec::new(),
            seed: 0x5EED_CA5E,
            gantt: false,
            trace: false,
        }
    }

    /// Add a job stream; returns its id.
    pub fn add_job(&mut self, program: Program) -> JobId {
        self.add_job_in_group(program, 0)
    }

    /// Add a job arriving at instant `at` (open-system admission): the
    /// job enters the machine's admission policy when simulated time
    /// reaches `at`, while earlier jobs are still running down. `at = 0`
    /// is exactly [`Simulation::add_job`].
    pub fn add_job_at(&mut self, program: Program, at: SimTime) -> JobId {
        self.add_job_at_in_group(program, at, 0)
    }

    /// Add a job arriving at instant `at` in machine group `group`. The
    /// instant is local to the group's timeline: a gated group's jobs
    /// arrive `at` ticks after the group is admitted.
    pub fn add_job_at_in_group(&mut self, program: Program, at: SimTime, group: usize) -> JobId {
        self.push_job(Arc::new(program), at, group)
    }

    fn push_job(&mut self, program: Arc<Program>, at: SimTime, group: usize) -> JobId {
        self.programs.push(program);
        self.groups.push(group);
        self.arrivals.push(at);
        JobId(self.programs.len() as u32 - 1)
    }

    /// Add `count` copies of `program` arriving at instants drawn from
    /// `process` (Poisson inter-arrival gaps, or a recorded trace). The
    /// instants are expanded deterministically at session build from a
    /// per-stream RNG ([`pax_sim::dist::arrival_seed`]), so the same seed
    /// reproduces the same arrival pattern at every shard count.
    pub fn add_job_stream(&mut self, program: Program, process: ArrivalProcess, count: usize) {
        self.add_job_stream_in_group(program, process, count, 0);
    }

    /// [`Simulation::add_job_stream`] targeted at machine group `group`.
    pub fn add_job_stream_in_group(
        &mut self,
        program: Program,
        process: ArrivalProcess,
        count: usize,
        group: usize,
    ) {
        self.streams.push(StreamSpec {
            program: Arc::new(program),
            process,
            count,
            group,
        });
    }

    /// Evict (recycle) the phase instances of each job as it finishes, so
    /// live memory stays bounded over unbounded arrival streams. The
    /// report then keeps only the instances still live at run end (its
    /// `instances_peak` field records the high-water mark); per-job
    /// latency accounting is unaffected.
    pub fn with_eviction(mut self) -> Simulation {
        self.evict = true;
        self
    }

    /// Expand every pending arrival stream into concrete `(program, at)`
    /// jobs, appended after all directly-added jobs in stream order.
    /// Idempotent (streams are drained); called once at session build so
    /// expansion precedes sharding — job↔group assignment and instants
    /// are therefore identical at every shard count.
    pub(crate) fn expand_streams(&mut self) {
        if self.streams.is_empty() {
            return;
        }
        let streams = take(&mut self.streams);
        for (i, s) in streams.into_iter().enumerate() {
            let mut rng = pax_sim::seeded_rng(arrival_seed(self.seed, i as u64));
            // Every job of the stream shares the stream's one program.
            for at in s.process.instants(s.count, &mut rng) {
                self.push_job(Arc::clone(&s.program), at, s.group);
            }
        }
    }

    /// Add a job stream to machine group `group`; returns its id.
    ///
    /// Jobs in one group run on one shared simulated machine (contending
    /// for its processors, executive lanes, and waiting queue, exactly as
    /// [`Simulation::add_job`] jobs do). Jobs in different groups run on
    /// independent replicas of the machine `cfg` describes. Group indices
    /// must be dense: adding to group `g` requires groups `0..g` to exist
    /// already (`run` validates this).
    pub fn add_job_in_group(&mut self, program: Program, group: usize) -> JobId {
        self.add_job_at_in_group(program, SimTime::ZERO, group)
    }

    /// Gate machine group `succ` on machine group `pred`: `succ` is
    /// admitted (its jobs start) `latency` ticks after the last job of
    /// `pred` finishes. `latency` must be ≥ 1 tick — it is the minimum
    /// cross-group event latency the sharded drivers derive their
    /// conservative epoch windows from.
    pub fn link_groups(&mut self, pred: usize, succ: usize, latency: SimDuration) {
        assert!(pred != succ, "a group cannot gate itself");
        assert!(
            latency >= SimDuration(1),
            "cross-group admission latency must be at least one tick"
        );
        self.links.push(crate::shard::GroupLink {
            pred,
            succ,
            latency,
        });
    }

    /// Set the RNG seed (deterministic per seed).
    pub fn with_seed(mut self, seed: u64) -> Simulation {
        self.seed = seed;
        self
    }

    /// Record a per-worker Gantt trace (needed by overlap-invariant
    /// tests; costs memory proportional to task count).
    pub fn with_gantt(mut self) -> Simulation {
        self.gantt = true;
        self
    }

    /// Record a textual debug trace.
    pub fn with_trace(mut self) -> Simulation {
        self.trace = true;
        self
    }

    /// Execute to completion: a thin wrapper over the session API —
    /// [`Simulation::into_session`], [`Session::drain`],
    /// [`Session::report`].
    ///
    /// Single-group runs with `cfg.shards ≤ 1` take the classic
    /// single-threaded drive loop. Everything else goes through the
    /// sharded core driver ([`crate::shard`]), which is pinned
    /// bit-identical to it; the threaded driver lives in `pax-runtime`.
    pub fn run(self) -> Result<RunReport, EngineError> {
        let mut session = self.into_session()?;
        session.drain()?;
        session.report()
    }

    /// Build a long-lived [`Session`]: expand arrival streams, validate
    /// the machine configuration and every program, construct the
    /// engine(s), and admit the `t = 0` jobs. The caller then drives the
    /// session with [`Session::step_until`] / [`Session::drain`] and
    /// extracts the result with [`Session::report`].
    pub fn into_session(mut self) -> Result<Session, EngineError> {
        self.expand_streams();
        self.cfg.validate().map_err(EngineError::InvalidConfig)?;
        self.validate()?;
        if self.is_single_group() && self.cfg.shards.shards <= 1 {
            let mut eng = Engine::new(self);
            eng.start();
            Ok(Session {
                inner: SessionInner::Inline(Box::new(eng)),
            })
        } else {
            Ok(Session {
                inner: SessionInner::Sharded(self.into_sharded()?),
            })
        }
    }

    /// True when every job is in group 0 and no admission edges exist —
    /// the shape [`Simulation::add_job`] alone produces.
    pub(crate) fn is_single_group(&self) -> bool {
        self.links.is_empty() && self.groups.iter().all(|&g| g == 0)
    }

    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        for (i, p) in self.programs.iter().enumerate() {
            // The jobs of a stream share one program: check it once.
            if i > 0 && Arc::ptr_eq(p, &self.programs[i - 1]) {
                continue;
            }
            p.validate()
                .map_err(|e| EngineError::InvalidProgram(format!("job {i}: {e}")))?;
            // `requires` lists resolve against the machine's pools here,
            // once, so the engine's per-dispatch lookup is by index.
            for ph in &p.phases {
                for (k, name) in ph.requires.iter().enumerate() {
                    if !self.cfg.resources.iter().any(|pool| pool.name == *name) {
                        return Err(EngineError::InvalidProgram(format!(
                            "job {i}: phase '{}' requires unknown resource pool '{name}'",
                            ph.name
                        )));
                    }
                    if ph.requires[..k].contains(name) {
                        return Err(EngineError::InvalidProgram(format!(
                            "job {i}: phase '{}' requires pool '{name}' twice",
                            ph.name
                        )));
                    }
                }
            }
        }
        if self.programs.is_empty() {
            return Err(EngineError::InvalidProgram("no jobs".into()));
        }
        Ok(())
    }
}

/// A long-lived, non-consuming simulation drive: the open-system service
/// loop. Built by [`Simulation::into_session`]; stepped in bounded time
/// windows ([`Session::step_until`]) or to completion ([`Session::drain`]);
/// consumed once by [`Session::report`].
///
/// Every drive path — the inline engine, the sharded reference driver,
/// and `pax-runtime`'s threaded driver — goes through the same windowed
/// loop, so chopping a run into `step_until` windows at *any* boundaries
/// is result-invariant: a session stepped to `t = ∞` in one go and a
/// session stepped tick by tick produce bit-identical reports.
pub struct Session {
    inner: SessionInner,
}

enum SessionInner {
    /// Single-group, unsharded: one engine driven directly.
    Inline(Box<Engine>),
    /// Multi-group or multi-shard: the epoch coordinator plus its shard
    /// engines, driven by the conservative-window protocol.
    Sharded(crate::shard::ShardedRun),
}

impl Session {
    /// Drain every event due at or before `limit` (global time). Returns
    /// `true` once the simulation has fully run down — no pending events
    /// (and, sharded, no pending admissions) remain at any time.
    pub fn step_until(&mut self, limit: SimTime) -> Result<bool, EngineError> {
        match &mut self.inner {
            SessionInner::Inline(eng) => Ok(eng.run_window(Some(limit))),
            SessionInner::Sharded(run) => run.step_until(Some(limit)),
        }
    }

    /// Run the session to completion (equivalent to `step_until(∞)`).
    pub fn drain(&mut self) -> Result<(), EngineError> {
        match &mut self.inner {
            SessionInner::Inline(eng) => {
                let drained = eng.run_window(None);
                debug_assert!(drained, "unbounded window must drain the calendar");
                Ok(())
            }
            SessionInner::Sharded(run) => run.step_until(None).map(|_| ()),
        }
    }

    /// Finish the session: drain any remaining work, run the deadlock
    /// checks, and merge the final [`RunReport`].
    pub fn report(mut self) -> Result<RunReport, EngineError> {
        self.drain()?;
        match self.inner {
            SessionInner::Inline(eng) => eng.finish(),
            SessionInner::Sharded(run) => {
                let (coordinator, shards) = run.into_parts();
                coordinator.finish(shards)
            }
        }
    }
}

/// Reusable buffers for the executive's per-event processing. Every
/// vector is taken (`std::mem::take`), filled, drained, cleared, and put
/// back, so the steady-state completion path performs no heap allocation:
/// each buffer reaches its high-water capacity during warm-up and is
/// recycled for the rest of the run. Fields are grouped by the path that
/// uses them; no two users of one field are ever live at the same time
/// (release paths called while a buffer is out never touch that buffer).
#[derive(Debug, Default)]
struct Scratch {
    /// Conflict-queue members drained at completion. Owned by the batched
    /// completion service for a whole drain (several events), so it must
    /// not be shared with paths reachable from completion processing —
    /// `members` below serves those.
    wakeups: Vec<DescId>,
    /// Conflict-queue members snapshotted at overlap initiation.
    members: Vec<DescId>,
    /// Conflict-queue members mirrored during a demand split.
    split_members: Vec<DescId>,
    /// Successor granules whose enablement counters just reached zero.
    freed: Vec<u32>,
    /// Null-set-enabled granules discovered at composite-map build.
    zero_now: Vec<u32>,
    /// Enabling current-phase granules (priority elevation).
    indices: Vec<u32>,
    /// Coalesced granule runs about to be released.
    runs: Vec<GranuleRange>,
    /// `(descriptor, range)` pairs snapshotted from live lists.
    desc_ranges: Vec<(DescId, GranuleRange)>,
    /// Successor-splitting tiles: range plus the predecessor piece (if
    /// any) whose conflict queue receives it.
    pieces: Vec<(GranuleRange, Option<DescId>)>,
}

/// Runtime state of the fault-injection layer. Lives behind
/// `Engine::faults` (`None` when the machine has no [`FaultPlan`]), so a
/// failure-free run pays nothing: no extra RNG draws, no extra events,
/// and no per-completion allocations (the counting-allocator test pins
/// the faults-enabled-but-fault-free leg too).
struct FaultRt {
    model: FaultModel,
    retry: RetryPolicy,
    /// Dedicated fault RNG ([`fault_seed`]-derived), never shared with
    /// the engine's task-sampling stream.
    rng: SmallRng,
    /// Down processors (indexed by worker).
    down: Vec<bool>,
    /// In-flight task per worker: `(descriptor, compute start, scheduled
    /// end)`. The `end` doubles as a staleness token: a `TaskDone` whose
    /// `(desc, end)` no longer matches was preempted by a crash and is
    /// dropped.
    running: Vec<Option<(DescId, SimTime, SimTime)>>,
    /// Scripted down-spans pending per processor; front = the span of
    /// the next scheduled crash event for that processor.
    scripted: Vec<VecDeque<Option<u64>>>,
    /// Reissue counts, tracked only for descriptors that lost work to a
    /// crash (cleared on completion so recycled descriptor ids start
    /// fresh).
    attempts: Vec<(DescId, u32)>,
    /// Processors up: `+processors` at start, `-1` per crash, `+1` per
    /// repair.
    avail: LevelSweep,
    /// Compute ticks spent on ranges later lost to crashes.
    lost_work: SimDuration,
    /// Lost ranges reissued into the waiting queue.
    retries: u64,
    /// Accepted crashes.
    crashes: u64,
}

impl FaultRt {
    fn new(mut plan: FaultPlan, processors: usize, seed: u64) -> FaultRt {
        if let FaultModel::Scripted(evs) = &mut plan.model {
            // Out-of-range processors are ignored; a stable sort by crash
            // instant aligns the per-processor span queues with calendar
            // insertion order.
            evs.retain(|e| e.processor < processors);
            evs.sort_by_key(|e| e.crash_at);
        }
        FaultRt {
            retry: plan.retry,
            rng: pax_sim::seeded_rng(fault_seed(seed)),
            down: vec![false; processors],
            running: vec![None; processors],
            scripted: vec![VecDeque::new(); processors],
            attempts: Vec::new(),
            avail: LevelSweep::new(),
            lost_work: SimDuration::ZERO,
            retries: 0,
            crashes: 0,
            model: plan.model,
        }
    }
}

/// Runtime state of the heterogeneous-classes / secondary-resources
/// layer. Lives behind `Engine::hetero` (`None` when the machine declares
/// neither processor classes nor resource pools), so a homogeneous,
/// unconstrained run takes exactly the classic dispatch path: no scaling
/// arithmetic, no token checks, and no extra RNG draws — the golden
/// shapes are untouched. Duration scaling happens *after* the cost model
/// has sampled, so heterogeneity never changes the RNG draw count either.
struct HeteroRt {
    /// Worker index → class index. Empty when the machine declares no
    /// classes (resources-only configs): every worker is then nominal
    /// speed with unrestricted affinity.
    class_of: Vec<u16>,
    /// The declared classes (speed, affinity, name), in worker order.
    classes: Vec<ProcessorClass>,
    /// Useful compute ticks executed by each class (crash-preempted work
    /// is reversed here exactly as in `compute_total`).
    class_busy: Vec<SimDuration>,
    /// Tasks dispatched to each class.
    class_tasks: Vec<u64>,
    /// Tokens currently available per pool.
    tokens: Vec<u32>,
    /// The declared pools (capacity + name, for the report).
    pools: Vec<ResourcePool>,
    /// Resolved `requires` lists: job → phase → pool indices. Resolved
    /// once at engine build (names validated at session build).
    phase_pools: Vec<Vec<Vec<u16>>>,
    /// Pool indices held by the task running on each worker.
    held: Vec<Vec<u16>>,
    /// Workers parked because a required pool was empty:
    /// `(worker, parked since, blocking pool)`, woken on any release.
    parked: Vec<(WorkerId, SimTime, u16)>,
    /// Dispatch attempts that blocked on each pool.
    pool_waits: Vec<u64>,
    /// Worker-ticks spent parked on each pool.
    pool_wait_ticks: Vec<SimDuration>,
}

impl HeteroRt {
    /// The class of worker `w`, or `None` on a classless (resources-only)
    /// machine.
    #[inline]
    fn class_idx(&self, w: WorkerId) -> Option<usize> {
        if self.class_of.is_empty() {
            None
        } else {
            Some(self.class_of[w.0 as usize] as usize)
        }
    }
}

pub(crate) struct Engine {
    cfg: MachineConfig,
    policy: OverlapPolicy,
    jobs: Vec<JobRt>,
    instances: Vec<Instance>,
    arena: DescArena,
    waiting: WaitingQueue,
    events: EventQueue<Ev>,
    /// Arrivals not yet due, as `(arrived_at, job)` sorted by instant and
    /// then job index, consumed from `feed_next`. They wait beside the
    /// calendar rather than in it, so the calendar holds O(processors)
    /// events however long the stream is. An arrival precedes every
    /// calendar event of its tick.
    feed: Vec<(SimTime, usize)>,
    feed_next: usize,
    scratch: Scratch,
    now: SimTime,
    exec_lanes: Vec<SimTime>,
    exec_backlog: VecDeque<ExecTask>,
    idle_workers: Vec<WorkerId>,
    rng: SmallRng,
    /// Processors computing and executive lanes serving, traced as the
    /// run goes: dispatch and service learn their spans ahead of `now`,
    /// and each event round settles what `now` has passed.
    computing: LevelSweep,
    managing: LevelSweep,
    compute_total: SimDuration,
    mgmt_total: SimDuration,
    serial_total: SimDuration,
    last_event_end: SimTime,
    gantt: GanttTrace,
    tlog: TraceLog,
    events_processed: u64,
    tasks_dispatched: u64,
    splits: u64,
    local_granules: u64,
    remote_granules: u64,
    remote_stall: SimDuration,
    warnings: Vec<String>,
    /// Round buffers for `run_window`, kept on the engine so repeated
    /// epoch windows reuse one allocation instead of growing fresh
    /// vectors per window (pinned by the alloc-free regression test).
    round_batch: Vec<(SimTime, Ev)>,
    round_dones: Vec<(WorkerId, DescId)>,
    /// Jobs admitted and not yet finished (admission-policy accounting).
    in_flight: usize,
    /// Jobs held back by `AdmissionPolicy::BoundedDefer`, in arrival
    /// order; each job completion admits the front one.
    deferred: VecDeque<usize>,
    /// Jobs shed by `AdmissionPolicy::Shed`.
    jobs_rejected: u64,
    /// Recycle finished jobs' instances (service mode).
    evict: bool,
    /// Evicted instance slots available for reuse (LIFO, so the peak of
    /// `instances.len()` is the true live high-water mark).
    free_instances: Vec<u32>,
    /// Recycled per-job instance-list buffers (see [`JobRt::instances`]).
    inst_list_pool: Vec<Vec<InstanceId>>,
    /// Fault-injection runtime; `None` on failure-free machines.
    faults: Option<FaultRt>,
    /// Heterogeneous-classes / secondary-resources runtime; `None` on
    /// homogeneous, unconstrained machines.
    hetero: Option<HeteroRt>,
    /// First structural abort (e.g. a retry policy giving up on lost
    /// work); set mid-run, surfaced by [`Engine::finish`].
    abort: Option<EngineError>,
}

impl Engine {
    pub(crate) fn new(s: Simulation) -> Engine {
        debug_assert_eq!(
            s.programs.len(),
            s.arrivals.len(),
            "arrival instants parallel the job list"
        );
        debug_assert!(s.streams.is_empty(), "streams expanded before build");
        let jobs: Vec<JobRt> = s
            .programs
            .into_iter()
            .zip(s.arrivals)
            .map(|(program, arrived_at)| {
                let counters = vec![0i64; program.counters];
                JobRt {
                    program,
                    pc: 0,
                    counters,
                    pending_successor: None,
                    pending_serial_gap: SimDuration::ZERO,
                    done: false,
                    arrived_at,
                    started_at: SimTime::ZERO,
                    finished_at: None,
                    rejected: false,
                    instances: Vec::new(),
                }
            })
            .collect();
        let njobs = jobs.len();
        let faults = s
            .cfg
            .faults
            .clone()
            .map(|plan| FaultRt::new(plan, s.cfg.processors, s.seed));
        let hetero = if s.cfg.classes.is_empty() && s.cfg.resources.is_empty() {
            None
        } else {
            let mut class_of = Vec::with_capacity(s.cfg.processors);
            for (ci, c) in s.cfg.classes.iter().enumerate() {
                class_of.extend(std::iter::repeat_n(ci as u16, c.count));
            }
            debug_assert!(
                class_of.is_empty() || class_of.len() == s.cfg.processors,
                "class counts validated at session build"
            );
            // Resolve `requires` names to pool indices once; unknown
            // names were rejected by `Simulation::validate`.
            let phase_pools: Vec<Vec<Vec<u16>>> = jobs
                .iter()
                .map(|j| {
                    j.program
                        .phases
                        .iter()
                        .map(|ph| {
                            ph.requires
                                .iter()
                                .map(|name| {
                                    s.cfg
                                        .resources
                                        .iter()
                                        .position(|p| p.name == *name)
                                        .expect("pool names validated at session build")
                                        as u16
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let npools = s.cfg.resources.len();
            let nclasses = s.cfg.classes.len();
            Some(HeteroRt {
                class_of,
                classes: s.cfg.classes.clone(),
                class_busy: vec![SimDuration::ZERO; nclasses],
                class_tasks: vec![0; nclasses],
                tokens: s.cfg.resources.iter().map(|p| p.tokens).collect(),
                pools: s.cfg.resources.clone(),
                phase_pools,
                held: vec![Vec::new(); s.cfg.processors],
                parked: Vec::new(),
                pool_waits: vec![0; npools],
                pool_wait_ticks: vec![SimDuration::ZERO; npools],
            })
        };
        Engine {
            waiting: WaitingQueue::new(njobs.max(1)),
            jobs,
            instances: Vec::new(),
            arena: DescArena::new(),
            events: EventQueue::new(),
            feed: Vec::new(),
            feed_next: 0,
            scratch: Scratch::default(),
            now: SimTime::ZERO,
            exec_lanes: vec![SimTime::ZERO; s.cfg.executive_lanes],
            exec_backlog: VecDeque::new(),
            idle_workers: Vec::with_capacity(s.cfg.processors),
            rng: pax_sim::seeded_rng(s.seed),
            computing: LevelSweep::new(),
            managing: LevelSweep::new(),
            compute_total: SimDuration::ZERO,
            mgmt_total: SimDuration::ZERO,
            serial_total: SimDuration::ZERO,
            last_event_end: SimTime::ZERO,
            gantt: if s.gantt {
                GanttTrace::enabled()
            } else {
                GanttTrace::disabled()
            },
            tlog: if s.trace {
                TraceLog::enabled(100_000)
            } else {
                TraceLog::disabled()
            },
            events_processed: 0,
            tasks_dispatched: 0,
            splits: 0,
            local_granules: 0,
            remote_granules: 0,
            remote_stall: SimDuration::ZERO,
            warnings: Vec::new(),
            round_batch: Vec::with_capacity(s.cfg.executive_lanes),
            round_dones: Vec::with_capacity(s.cfg.executive_lanes),
            in_flight: 0,
            deferred: VecDeque::new(),
            jobs_rejected: 0,
            evict: s.evict,
            free_instances: Vec::new(),
            inst_list_pool: Vec::new(),
            faults,
            hetero,
            abort: None,
            cfg: s.cfg,
            policy: s.policy,
        }
    }

    // ------------------------------------------------------------------
    // executive service timeline
    // ------------------------------------------------------------------

    /// Charge `cost` to the least-loaded executive lane starting no
    /// earlier than `at`; returns `(service_start, service_end)`.
    fn exec_service(&mut self, at: SimTime, cost: SimDuration) -> (SimTime, SimTime) {
        let lane = self
            .exec_lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let start = at.max(self.exec_lanes[lane]);
        let end = start + cost;
        self.exec_lanes[lane] = end;
        if !cost.is_zero() {
            self.managing.add(start, 1);
            self.managing.add(end, -1);
            self.mgmt_total += cost;
        }
        self.last_event_end = self.last_event_end.max(end);
        (start, end)
    }

    /// Like [`Engine::exec_service`] but accounted as *serial algorithm
    /// work* rather than management: the paper's null mappings arise from
    /// "serial actions and decisions" that are part of the computation,
    /// so they must not pollute the computation-to-management ratio.
    fn exec_service_serial(&mut self, at: SimTime, cost: SimDuration) -> (SimTime, SimTime) {
        let (start, end) = self.exec_service(at, cost);
        if !cost.is_zero() {
            // move the charge from management to serial
            self.mgmt_total -= cost;
            self.serial_total += cost;
        }
        (start, end)
    }

    fn earliest_exec_free(&self) -> SimTime {
        self.exec_lanes.iter().copied().min().unwrap_or(self.now)
    }

    // ------------------------------------------------------------------
    // waiting-queue helpers
    // ------------------------------------------------------------------

    fn enqueue(&mut self, desc: DescId, class: QueueClass, front: bool) {
        let job = self.arena.job(desc);
        self.arena.set_class(desc, class);
        self.arena.set_state(desc, DescState::Waiting);
        if front {
            self.waiting.push_front(desc, class, job);
        } else {
            self.waiting.push_back(desc, class, job);
        }
        self.wake_workers(1);
    }

    /// Queue class for released successor work, per policy.
    fn released_class(&self) -> QueueClass {
        if self.policy.elevate_released {
            QueueClass::Elevated
        } else {
            QueueClass::Normal
        }
    }

    fn wake_workers(&mut self, n: usize) {
        for _ in 0..n {
            match self.idle_workers.pop() {
                Some(w) => self.events.schedule(self.now, Ev::Seek(w)),
                None => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // instance lifecycle
    // ------------------------------------------------------------------

    fn new_instance(
        &mut self,
        job: usize,
        def: PhaseId,
        dispatch_step: usize,
        state: InstState,
        predecessor: Option<InstanceId>,
        enabled_by: Option<MappingKind>,
    ) -> InstanceId {
        let d = &self.jobs[job].program.phases[def.0 as usize];
        let granules = d.granules;
        let task_size = self
            .policy
            .sizing
            .task_granules(granules, self.cfg.processors);
        let mut stats = PhaseStats::new(self.now);
        stats.serial_gap = std::mem::take(&mut self.jobs[job].pending_serial_gap);
        // Under eviction, reuse a recycled slot: its run sets were cleared
        // in place (buffers kept warm) and its live list is empty, so the
        // steady-state service loop creates instances without allocating.
        let id = match self.evict.then(|| self.free_instances.pop()).flatten() {
            Some(slot) => {
                let inst = &mut self.instances[slot as usize];
                debug_assert_eq!(inst.state, InstState::Evicted, "free slot not evicted");
                debug_assert!(inst.live_descs.is_empty());
                inst.def = def;
                inst.job = job;
                inst.dispatch_step = dispatch_step;
                inst.state = state;
                inst.granules = granules;
                inst.remaining = granules;
                inst.task_size = task_size;
                inst.predecessor = predecessor;
                inst.successor = None;
                inst.enabled_by = enabled_by;
                inst.counter_state = None;
                inst.stats = stats;
                InstanceId(slot)
            }
            None => {
                let id = InstanceId(self.instances.len() as u32);
                self.instances.push(Instance {
                    def,
                    job,
                    dispatch_step,
                    state,
                    granules,
                    remaining: granules,
                    task_size,
                    released: RangeSet::new(),
                    completed: RangeSet::new(),
                    live_descs: Vec::new(),
                    predecessor,
                    successor: None,
                    enabled_by,
                    counter_state: None,
                    stats,
                });
                id
            }
        };
        if self.evict {
            self.jobs[job].instances.push(id);
        }
        id
    }

    #[inline]
    fn inst(&self, id: InstanceId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    #[inline]
    fn inst_mut(&mut self, id: InstanceId) -> &mut Instance {
        &mut self.instances[id.0 as usize]
    }

    /// Track `d` on its instance's live list, recording the slot index on
    /// the descriptor so completion can remove it in O(1).
    #[inline]
    fn live_push(&mut self, inst_id: InstanceId, d: DescId) {
        let live = &mut self.instances[inst_id.0 as usize].live_descs;
        self.arena.set_live_idx(d, live.len() as u32);
        live.push(d);
    }

    /// Untrack `d` from its instance's live list (O(1) swap-remove via the
    /// index stored at [`Engine::live_push`] time).
    #[inline]
    fn live_remove(&mut self, inst_id: InstanceId, d: DescId) {
        let idx = self.arena.live_idx(d) as usize;
        let live = &mut self.instances[inst_id.0 as usize].live_descs;
        debug_assert_eq!(live.get(idx), Some(&d), "live index out of sync");
        live.swap_remove(idx);
        if let Some(&moved) = live.get(idx) {
            self.arena.set_live_idx(moved, idx as u32);
        }
        self.arena.set_live_idx(d, u32::MAX);
    }

    /// Release a granule range of `inst` into the waiting queue. With the
    /// presplit strategy the range is carved into task-sized descriptors
    /// immediately; otherwise one descriptor covers the whole range and is
    /// split on demand by dispatches.
    fn release_range(
        &mut self,
        inst_id: InstanceId,
        range: GranuleRange,
        class: QueueClass,
        cost: &mut SimDuration,
    ) {
        if range.is_empty() {
            return;
        }
        let (job, task_size, enabling) = {
            let inst = self.inst(inst_id);
            let enabling = inst
                .successor
                .map(|s| self.inst(s).counter_state.is_some())
                .unwrap_or(false);
            (inst.job, inst.task_size, enabling)
        };
        self.inst_mut(inst_id).released.insert(range);
        // "One possibility is to presplit the tasks before idle workers
        // present themselves to the executive" — applies to any release,
        // not just overlap successors, so strict-barrier runs can presplit
        // too (the data-proximity scan needs the visible pieces, E12).
        let presplit =
            self.policy.split_strategy == SplitStrategy::PreSplit && range.len() > task_size;
        if presplit {
            let mut lo = range.lo;
            while lo < range.hi {
                let hi = (lo + task_size).min(range.hi);
                let d = self
                    .arena
                    .alloc(inst_id, JobId(job as u32), GranuleRange::new(lo, hi));
                self.arena.set_enabling(d, enabling);
                self.live_push(inst_id, d);
                self.enqueue(d, class, false);
                if hi < range.hi {
                    *cost += self.cfg.costs.split;
                    self.splits += 1;
                }
                lo = hi;
            }
        } else {
            let d = self.arena.alloc(inst_id, JobId(job as u32), range);
            self.arena.set_enabling(d, enabling);
            self.live_push(inst_id, d);
            self.enqueue(d, class, false);
        }
    }

    /// Release everything of `succ` not yet released (the phase barrier
    /// falling when its predecessor completes).
    fn release_residual(&mut self, succ_id: InstanceId, cost: &mut SimDuration) {
        let full = GranuleRange::new(0, self.inst(succ_id).granules);
        let mut gaps = take(&mut self.scratch.runs);
        self.inst(succ_id).released.subtract_into(full, &mut gaps);
        for &g in &gaps {
            *cost += self.cfg.costs.release;
            self.release_range(succ_id, g, QueueClass::Normal, cost);
        }
        gaps.clear();
        self.scratch.runs = gaps;
    }

    // ------------------------------------------------------------------
    // program interpretation
    // ------------------------------------------------------------------

    /// Execute program steps for `job` starting at step `pc` until a
    /// dispatch takes effect, a serial region is scheduled, or the program
    /// ends.
    ///
    /// Holding a reference-counted handle on the program (one pointer
    /// bump per call, not per step) lets the interpreter borrow each step
    /// across the `&mut self` state changes it triggers, where indexing
    /// `self.jobs` afresh used to force a deep `Step::clone` per step
    /// executed.
    fn run_program(&mut self, job: usize, mut pc: usize) {
        let program = Arc::clone(&self.jobs[job].program);
        loop {
            match &program.steps[pc] {
                Step::End => {
                    self.finish_job(job);
                    return;
                }
                Step::Incr { idx, delta } => {
                    self.jobs[job].counters[*idx] += delta;
                    pc += 1;
                }
                Step::Goto(t) => pc = *t,
                Step::Branch {
                    test,
                    on_true,
                    on_false,
                } => {
                    pc = if test.eval(&self.jobs[job].counters) {
                        *on_true
                    } else {
                        *on_false
                    };
                }
                Step::Serial { duration, label } => {
                    let duration = *duration;
                    let (_s, end) = self.exec_service_serial(self.now, duration);
                    self.jobs[job].pc = pc;
                    self.jobs[job].pending_serial_gap += duration;
                    self.tlog.log(self.now, || {
                        format!("job{job} serial '{label}' until {end}")
                    });
                    self.events.schedule(end, Ev::SerialDone { job });
                    return;
                }
                Step::Dispatch { phase, .. } => {
                    let phase = *phase;
                    // Was a successor already initiated for this step?
                    if let Some((pred_step, inst_id)) = self.jobs[job].pending_successor.take() {
                        if pred_step == pc {
                            self.promote(inst_id, pc);
                            return;
                        }
                        // Misprediction cannot happen with counter-only
                        // branch tests; surface loudly if it ever does.
                        self.warnings.push(format!(
                            "job{job}: lookahead predicted step {pred_step}, actual {pc}; \
                             initiated instance {inst_id} abandoned"
                        ));
                    }
                    let inst_id = self.new_instance(job, phase, pc, InstState::Current, None, None);
                    let mut cost = self.cfg.costs.phase_init;
                    let full = GranuleRange::new(0, self.inst(inst_id).granules);
                    self.release_range(inst_id, full, QueueClass::Normal, &mut cost);
                    self.exec_service(self.now, cost);
                    self.initiate_successor(inst_id);
                    return;
                }
            }
        }
    }

    /// An initiated successor becomes the current phase of its job.
    fn promote(&mut self, inst_id: InstanceId, pc: usize) {
        {
            let now = self.now;
            let inst = self.inst_mut(inst_id);
            inst.state = InstState::Current;
            inst.stats.current_at = now;
            inst.dispatch_step = pc;
        }
        self.initiate_successor(inst_id);
        if self.inst(inst_id).remaining == 0 {
            // The overlapped successor finished all its released work
            // before its predecessor completed (fully drained universal
            // phase): complete it immediately.
            let mut cost = SimDuration::ZERO;
            self.complete_instance(inst_id, &mut cost);
            self.exec_service(self.now, cost);
        }
    }

    /// All granules of `inst` are complete: record it, lift the successor
    /// barrier, and advance the program.
    fn complete_instance(&mut self, inst_id: InstanceId, cost: &mut SimDuration) {
        let now = self.now;
        {
            let inst = self.inst_mut(inst_id);
            debug_assert_eq!(inst.remaining, 0);
            debug_assert_eq!(inst.state, InstState::Current);
            inst.state = InstState::Complete;
            inst.stats.completed_at = Some(now);
        }
        let (job, step, succ) = {
            let i = self.inst(inst_id);
            (i.job, i.dispatch_step, i.successor)
        };
        if let Some(succ_id) = succ {
            self.release_residual(succ_id, cost);
        }
        self.tlog.log(now, || {
            format!("{inst_id} complete (job{job}, step {step})")
        });
        self.run_program(job, step + 1);
    }

    /// Apply the overlap policy at the moment `pred` becomes current:
    /// look ahead for the next dispatch and initiate it under the declared
    /// enablement mapping.
    fn initiate_successor(&mut self, pred_id: InstanceId) {
        if !self.policy.enabled {
            return;
        }
        let (job, dispatch_step) = {
            let p = self.inst(pred_id);
            (p.job, p.dispatch_step)
        };
        // Borrow the ENABLE clause from the shared program instead of
        // cloning the spec vector (and its mapping payloads) per overlap.
        let program = Arc::clone(&self.jobs[job].program);
        let (enables, branch_independent) = match &program.steps[dispatch_step] {
            Step::Dispatch {
                enables,
                branch_independent,
                ..
            } => (enables, *branch_independent),
            _ => return,
        };
        let la = program.lookahead(dispatch_step, &self.jobs[job].counters, branch_independent);
        let (succ_phase, succ_step) = match la {
            Lookahead::Phase { phase, step } => (phase, step),
            _ => return, // serial gap, opaque branch, or program end
        };
        let Some(spec) = enables.iter().find(|e| e.successor == succ_phase) else {
            if !enables.is_empty() {
                let names: Vec<&str> = enables
                    .iter()
                    .map(|e| {
                        self.jobs[job].program.phases[e.successor.0 as usize]
                            .name
                            .as_str()
                    })
                    .collect();
                self.warnings.push(format!(
                    "interlock: ENABLE clause of step {dispatch_step} names {names:?} but \
                     the following phase is '{}' — no overlap applied",
                    self.jobs[job].program.phases[succ_phase.0 as usize].name
                ));
            }
            return;
        };
        let kind = spec.mapping.kind();
        if kind == MappingKind::Null {
            return;
        }
        if kind == MappingKind::Identity {
            let pg = self.inst(pred_id).granules;
            let sg = self.jobs[job].program.phases[succ_phase.0 as usize].granules;
            if pg != sg {
                self.warnings.push(format!(
                    "identity mapping requires equal granule counts ({pg} vs {sg}); \
                     overlap skipped at step {dispatch_step}"
                ));
                return;
            }
        }
        let succ_id = self.new_instance(
            job,
            succ_phase,
            succ_step,
            InstState::Initiated,
            Some(pred_id),
            Some(kind),
        );
        self.inst_mut(pred_id).successor = Some(succ_id);
        self.jobs[job].pending_successor = Some((succ_step, succ_id));
        let mut cost = self.cfg.costs.phase_init;
        match &spec.mapping {
            EnablementMapping::Universal => {
                // "the successor phase is also initiated and the resulting
                // computation description placed in the waiting computation
                // queue behind the current phase description."
                let full = GranuleRange::new(0, self.inst(succ_id).granules);
                self.release_range(succ_id, full, QueueClass::Normal, &mut cost);
            }
            EnablementMapping::Identity => {
                self.init_identity(pred_id, succ_id, &mut cost);
            }
            m @ (EnablementMapping::ForwardIndirect(_)
            | EnablementMapping::ReverseIndirect(_)
            | EnablementMapping::Seam(_)) => {
                self.init_counted(pred_id, succ_id, m.clone(), &mut cost);
            }
            EnablementMapping::Null => unreachable!(),
        }
        self.exec_service(self.now, cost);
        self.tlog.log(self.now, || {
            format!(
                "{pred_id} initiated successor {succ_id} via {}",
                kind.label()
            )
        });
    }

    /// Identity overlap: queue a matching successor description on every
    /// live current-phase description's conflict queue; ranges already
    /// completed release immediately.
    fn init_identity(&mut self, pred_id: InstanceId, succ_id: InstanceId, cost: &mut SimDuration) {
        let job = JobId(self.inst(succ_id).job as u32);
        let mut pred_live = take(&mut self.scratch.desc_ranges);
        pred_live.extend(
            self.inst(pred_id)
                .live_descs
                .iter()
                .map(|&d| (d, self.arena.range(d))),
        );
        for &(pd, range) in &pred_live {
            let sd = self.arena.alloc(succ_id, job, range);
            self.live_push(succ_id, sd);
            self.inst_mut(succ_id).released.insert(range);
            self.arena.cq_push(pd, sd);
        }
        pred_live.clear();
        self.scratch.desc_ranges = pred_live;
        let mut done_runs = take(&mut self.scratch.runs);
        done_runs.extend(self.inst(pred_id).completed.iter_runs());
        let rclass = self.released_class();
        for &r in &done_runs {
            *cost += self.cfg.costs.release;
            self.release_range(succ_id, r, rclass, cost);
        }
        done_runs.clear();
        self.scratch.runs = done_runs;
    }

    /// Indirect (forward/reverse/seam) overlap: set status bits on the
    /// current phase, arrange composite-map construction, and gate the
    /// successor behind enablement counters.
    fn init_counted(
        &mut self,
        pred_id: InstanceId,
        succ_id: InstanceId,
        mapping: EnablementMapping,
        cost: &mut SimDuration,
    ) {
        let early_limit = self.policy.indirect_subset.min(self.inst(succ_id).granules);
        self.inst_mut(succ_id).counter_state = Some(CounterState {
            mapping,
            composite: None,
            prebuilt: None,
            counters: Vec::new(),
            early_limit,
        });
        // Status bit on every live description of the current phase.
        let mut live = take(&mut self.scratch.members);
        live.extend_from_slice(&self.inst(pred_id).live_descs);
        for &d in &live {
            self.arena.set_enabling(d, true);
        }
        live.clear();
        self.scratch.members = live;
        match self.policy.composite_build {
            CompositeBuild::Immediate => self.build_composite(succ_id, cost),
            CompositeBuild::Background => {
                self.exec_backlog.push_back(ExecTask::BuildComposite {
                    inst: succ_id,
                    prepaid: SimDuration::ZERO,
                });
                self.kick_exec();
            }
        }
    }

    /// Construct the composite granule map for `succ_id`, apply decrements
    /// for already-completed predecessor granules, release whatever that
    /// enables, and optionally elevate the enabling current-phase granules.
    fn build_composite(&mut self, succ_id: InstanceId, cost: &mut SimDuration) {
        let full = GranuleRange::new(0, self.inst(succ_id).granules);
        if self.inst(succ_id).state != InstState::Initiated
            || self.inst(succ_id).released.contains_range(full)
        {
            return; // barrier already lifted; the map would be useless
        }
        let Some(pred_id) = self.inst(succ_id).predecessor else {
            return;
        };
        let pred_granules = self.inst(pred_id).granules;
        let (comp, early_limit) = {
            let cs = self
                .inst_mut(succ_id)
                .counter_state
                .as_mut()
                .expect("counted gate");
            if cs.composite.is_some() {
                return;
            }
            // The background cost probe may have constructed the map
            // already; share that one instead of building twice.
            let comp = cs
                .prebuilt
                .take()
                .unwrap_or_else(|| Arc::new(CompositeMap::build(&cs.mapping, pred_granules)));
            (comp, cs.early_limit)
        };
        // Only entries that feed the chosen early subset are constructed
        // (the paper's subset advice caps the enablement problem's size).
        let useful_entries = comp.targets.iter().filter(|&&r| r < early_limit).count() as u64;
        *cost += self.cfg.costs.composite_map_per_entry * useful_entries;

        let mut counters: Vec<u32> = comp.requires[..early_limit as usize].to_vec();
        // Null-set-enabled granules in the early window behave like a
        // universal successor: queue them behind the current phase.
        let mut zero_now = take(&mut self.scratch.zero_now);
        zero_now.extend((0..early_limit).filter(|&r| counters[r as usize] == 0));
        // Decrements for predecessor granules that completed before the
        // map was built (background construction). `comp` is an owned
        // handle, so the completed runs iterate without materializing.
        let mut freed = take(&mut self.scratch.freed);
        let decrement_cost = self.cfg.costs.counter_decrement;
        for run in self.inst(pred_id).completed.iter_runs() {
            for g in run.iter() {
                for &r in comp.dependents_of(g) {
                    if r < early_limit {
                        let c = &mut counters[r as usize];
                        debug_assert!(*c > 0);
                        *c -= 1;
                        *cost += decrement_cost;
                        if *c == 0 {
                            freed.push(r);
                        }
                    }
                }
            }
        }
        let mut runs = take(&mut self.scratch.runs);
        coalesce_indices_into(&mut zero_now, &mut runs);
        for &run in &runs {
            *cost += self.cfg.costs.release;
            self.release_range(succ_id, run, QueueClass::Normal, cost);
        }
        runs.clear();
        let rclass = self.released_class();
        coalesce_indices_into(&mut freed, &mut runs);
        for &run in &runs {
            *cost += self.cfg.costs.release;
            self.release_range(succ_id, run, rclass, cost);
        }
        runs.clear();
        self.scratch.runs = runs;
        zero_now.clear();
        self.scratch.zero_now = zero_now;
        freed.clear();
        self.scratch.freed = freed;
        if self.policy.elevate_enabling {
            // Only granules that enable the chosen early subset are worth
            // elevating ("identify a subset group of successor-phase
            // granules ... so as to avoid solving an unnecessarily large
            // enablement problem"); and if most of the current phase is
            // enabling, elevation is a no-op by definition — skip it
            // rather than shatter the master description.
            let mut enabling = take(&mut self.scratch.indices);
            enabling.extend(
                (0..pred_granules)
                    .filter(|&i| comp.dependents_of(i).iter().any(|&r| r < early_limit)),
            );
            if enabling.len() * 2 <= pred_granules as usize {
                self.elevate_enabling_granules(pred_id, &mut enabling, cost);
            }
            enabling.clear();
            self.scratch.indices = enabling;
        }
        let cs = self
            .inst_mut(succ_id)
            .counter_state
            .as_mut()
            .expect("counted gate");
        cs.composite = Some(comp);
        cs.counters = counters;
    }

    /// Carve the enabling current-phase granules into elevated individual
    /// descriptions, "placed in the waiting computation queue in such a
    /// manner as to elevate their computational priority".
    fn elevate_enabling_granules(
        &mut self,
        pred_id: InstanceId,
        enabling: &mut Vec<u32>,
        cost: &mut SimDuration,
    ) {
        let mut runs = take(&mut self.scratch.runs);
        coalesce_indices_into(enabling, &mut runs);
        let mut candidates = take(&mut self.scratch.desc_ranges);
        for &run in &runs {
            // Find waiting descriptors of the predecessor intersecting run.
            candidates.clear();
            candidates.extend(
                self.inst(pred_id)
                    .live_descs
                    .iter()
                    .filter(|&&d| matches!(self.arena.state(d), DescState::Waiting))
                    .filter_map(|&d| self.arena.range(d).intersect(run).map(|ovl| (d, ovl))),
            );
            for &(d, ovl) in &candidates {
                // The descriptor may have been replaced by an earlier carve
                // in this same loop; re-check.
                if !matches!(self.arena.state(d), DescState::Waiting) {
                    continue;
                }
                let drange = self.arena.range(d);
                let Some(ovl) = drange.intersect(ovl) else {
                    continue;
                };
                let job = self.arena.job(d);
                let queued = self.waiting.remove(d, self.arena.class(d), job);
                debug_assert!(queued, "a waiting descriptor sits in its arena segment");
                if ovl == drange {
                    // Whole descriptor is enabling: move it to the
                    // elevated segment.
                    let class = QueueClass::Elevated;
                    self.arena.set_class(d, class);
                    self.waiting.push_back(d, class, job);
                    continue;
                }
                // Split out the overlapping middle. At most a leading and
                // a trailing non-enabling piece exist; two slots replace
                // the old per-candidate vector.
                let mut lead: Option<DescId> = None;
                let mut tail: Option<DescId> = None;
                let mut cur = d;
                if ovl.lo > drange.lo {
                    let rem = self.arena.split(cur, ovl.lo - drange.lo);
                    self.splits += 1;
                    *cost += self.cfg.costs.split;
                    self.live_push(pred_id, rem);
                    lead = Some(cur); // leading non-enabling part
                    cur = rem;
                }
                if ovl.hi < self.arena.range(cur).hi {
                    let tail_at = ovl.hi - self.arena.range(cur).lo;
                    let rem = self.arena.split(cur, tail_at);
                    self.splits += 1;
                    *cost += self.cfg.costs.split;
                    self.live_push(pred_id, rem);
                    tail = Some(rem); // trailing non-enabling part
                }
                // `cur` is now exactly the enabling overlap.
                self.arena.set_class(cur, QueueClass::Elevated);
                self.waiting.push_back(cur, QueueClass::Elevated, job);
                self.arena.set_state(cur, DescState::Waiting);
                for p in [lead, tail].into_iter().flatten() {
                    self.arena.set_class(p, QueueClass::Normal);
                    self.waiting.push_front(p, QueueClass::Normal, job);
                    self.arena.set_state(p, DescState::Waiting);
                }
                self.wake_workers(2);
            }
        }
        candidates.clear();
        self.scratch.desc_ranges = candidates;
        runs.clear();
        self.scratch.runs = runs;
    }

    // ------------------------------------------------------------------
    // event handlers
    // ------------------------------------------------------------------

    /// Select waiting work for worker `w` per the assignment policy.
    ///
    /// Queue order is PAX's the-more-the-merrier allocation. Data
    /// proximity scans a bounded window for a description whose *front*
    /// granule (the part the worker will actually receive after any
    /// demand split) is homed in the worker's memory cluster.
    fn pick_work(&mut self, w: WorkerId) -> Option<DescId> {
        // Affinity-restricted classes see only the queue segments they may
        // serve; the restricted pop bypasses the data-proximity scan
        // (affinity is the stronger constraint). `Any` classes fall
        // through to the homogeneous path unchanged.
        if let Some(h) = self.hetero.as_ref() {
            if let Some(c) = h.class_idx(w) {
                let aff = h.classes[c].affinity;
                if aff != ClassAffinity::Any {
                    return self
                        .waiting
                        .pop_class(aff.serves_elevated(), aff.serves_normal());
                }
            }
        }
        match (self.policy.assignment, self.cfg.locality.as_ref()) {
            (AssignmentPolicy::DataProximity { scan_window }, Some(loc)) => {
                let wc = loc.worker_cluster(w.0 as usize, self.cfg.processors);
                let arena = &self.arena;
                let instances = &self.instances;
                self.waiting.pop_matching(scan_window, |id| {
                    let total = instances[arena.instance(id).0 as usize].granules;
                    loc.home_cluster(arena.range(id).lo, total) == wc
                })
            }
            _ => self.waiting.pop(),
        }
    }

    /// Remote-access stall for `range` executed by worker `w`, with
    /// local/remote accounting. Zero on uniform-memory machines.
    fn locality_stall(
        &mut self,
        w: WorkerId,
        inst_id: InstanceId,
        range: GranuleRange,
    ) -> SimDuration {
        let Some(loc) = self.cfg.locality.as_ref() else {
            return SimDuration::ZERO;
        };
        let total = self.inst(inst_id).granules;
        let wc = loc.worker_cluster(w.0 as usize, self.cfg.processors);
        let remote = loc.remote_granules(range.lo, range.hi, total, wc);
        let stall = loc.stall(remote);
        self.remote_granules += remote;
        self.local_granules += u64::from(range.len()) - remote;
        self.remote_stall += stall;
        stall
    }

    /// Return every pool token held by the task on worker `w` and wake
    /// all token-parked workers (each re-seeks in park order and re-parks
    /// if its pool is still dry — the re-check draws no RNG, so parking
    /// churn never perturbs determinism). Called on completion *and* on
    /// crash preemption: a crash that leaked tokens would starve the pool
    /// and break fault determinism.
    fn release_tokens(&mut self, w: WorkerId) {
        let Some(h) = self.hetero.as_mut() else {
            return;
        };
        let wi = w.0 as usize;
        if h.held[wi].is_empty() {
            return;
        }
        for i in 0..h.held[wi].len() {
            let p = h.held[wi][i] as usize;
            h.tokens[p] += 1;
        }
        h.held[wi].clear();
        let now = self.now;
        for (pw, since, pool) in h.parked.drain(..) {
            h.pool_wait_ticks[pool as usize] += now.since(since);
            self.events.schedule(now, Ev::Seek(pw));
        }
    }

    fn on_seek(&mut self, w: WorkerId) {
        // A seek scheduled before the processor crashed can fire while it
        // is down: drop it (without parking the worker on the idle stack —
        // the repair event re-seeks it).
        if let Some(f) = self.faults.as_ref() {
            if f.down[w.0 as usize] {
                return;
            }
        }
        let Some(mut d) = self.pick_work(w) else {
            self.idle_workers.push(w);
            return;
        };
        let inst_id = self.arena.instance(d);
        // Secondary-resource gate: a task dispatches only when one token
        // from every pool its phase requires is available. Checked before
        // any split/cost/RNG activity, so a blocked attempt leaves no
        // trace beyond the wait accounting — the description returns to
        // the head of its segment and the worker parks until a completion
        // (or crash preemption) returns a token.
        if let Some(h) = self.hetero.as_mut() {
            let inst = &self.instances[inst_id.0 as usize];
            let (job, phase) = (inst.job, inst.def.0 as usize);
            let req = &h.phase_pools[job][phase];
            if let Some(&blocked) = req.iter().find(|&&p| h.tokens[p as usize] == 0) {
                let class = self.arena.class(d);
                let jobid = self.arena.job(d);
                self.waiting.push_front(d, class, jobid);
                h.pool_waits[blocked as usize] += 1;
                h.parked.push((w, self.now, blocked));
                return;
            }
            let wi = w.0 as usize;
            for i in 0..h.phase_pools[job][phase].len() {
                let p = h.phase_pools[job][phase][i];
                h.tokens[p as usize] -= 1;
                h.held[wi].push(p);
            }
        }
        let task_size = self.inst(inst_id).task_size;
        let mut cost = self.cfg.costs.dispatch;
        if self.arena.range(d).len() > task_size {
            d = self.dispatch_split(d, task_size, &mut cost);
        }
        // Sample execution time for the granules of this task, plus any
        // remote-access stall under a clustered-memory machine.
        let range = self.arena.range(d);
        let mut exec =
            self.sample_task_time(inst_id, range) + self.locality_stall(w, inst_id, range);
        // Heterogeneous speed: scale the sampled duration by the
        // dispatching worker's class — *after* sampling, so the RNG draw
        // count is independent of class layout, and a 100-percent class
        // is bit-identical to the homogeneous machine.
        if let Some(h) = self.hetero.as_mut() {
            if let Some(c) = h.class_idx(w) {
                exec = SimDuration(h.classes[c].scale_ticks(exec.0));
                h.class_busy[c] += exec;
                h.class_tasks[c] += 1;
            }
        }
        let (svc_start, svc_end) = self.exec_service(self.now, cost);
        self.record_dispatch_gantt(w, svc_start, svc_end);
        let overlapping = self
            .inst(inst_id)
            .predecessor
            .map(|p| self.inst(p).state != InstState::Complete)
            .unwrap_or(false);
        self.arena.set_state(d, DescState::Running(w));
        self.arena.set_overlap(d, overlapping);
        let start = svc_end;
        let end = start + exec;
        self.computing.add(start, 1);
        self.computing.add(end, -1);
        self.compute_total += exec;
        // The makespan frontier advances when the completion is *serviced*
        // (its `exec_service` ends at or after `end`), never at dispatch:
        // a task preempted by a crash must not leave a phantom end time.
        if let Some(f) = self.faults.as_mut() {
            f.running[w.0 as usize] = Some((d, start, end));
        }
        {
            let inst = self.inst_mut(inst_id);
            inst.stats.first_start = Some(match inst.stats.first_start {
                Some(t) => t.min(start),
                None => start,
            });
        }
        if self.gantt.is_enabled() {
            self.gantt.push(Span {
                worker: w.0,
                start,
                end,
                activity: Activity::Compute {
                    phase: inst_id.0,
                    lo: range.lo,
                    hi: range.hi,
                },
            });
        }
        self.tasks_dispatched += 1;
        self.events
            .schedule(end, Ev::TaskDone { worker: w, desc: d });
    }

    /// Split descriptor `d` so the front `task_size` granules go to the
    /// worker; handle any queued identity successors per the policy's
    /// split strategy. Returns the descriptor to dispatch.
    fn dispatch_split(&mut self, d: DescId, task_size: u32, cost: &mut SimDuration) -> DescId {
        let inst_id = self.arena.instance(d);
        let has_conflicts = self.arena.has_conflicts(d);
        if has_conflicts && self.policy.split_strategy == SplitStrategy::SuccessorSplitTask {
            // Detach successors into background splitting tasks first.
            let mut members = take(&mut self.scratch.split_members);
            self.arena.cq_drain_into(d, &mut members);
            for &m in &members {
                self.arena.set_state(m, DescState::Detached);
                self.exec_backlog.push_back(ExecTask::SplitSuccessor {
                    succ_desc: m,
                    pred: inst_id,
                });
            }
            members.clear();
            self.scratch.split_members = members;
            self.kick_exec();
        }
        let rem = self.arena.split(d, task_size);
        self.splits += 1;
        *cost += self.cfg.costs.split;
        self.live_push(inst_id, rem);
        if self.arena.has_conflicts(d) {
            // Demand split (also the fallback when presplit pieces grew
            // conflicts): mirror the split onto every queued successor.
            let front = self.arena.range(d);
            let mut members = take(&mut self.scratch.split_members);
            self.arena.cq_members_into(d, &mut members);
            for &m in &members {
                let mrange = self.arena.range(m);
                if mrange.hi <= front.hi {
                    continue; // wholly within the dispatched piece
                }
                if mrange.lo >= front.hi {
                    // wholly within the remainder: move it over
                    self.arena.cq_remove(m);
                    self.arena.cq_push(rem, m);
                    continue;
                }
                let at = front.hi - mrange.lo;
                let mrem = self.arena.split(m, at);
                self.splits += 1;
                *cost += self.cfg.costs.split;
                let succ_inst = self.arena.instance(m);
                self.live_push(succ_inst, mrem);
                self.arena.cq_push(rem, mrem);
            }
            members.clear();
            self.scratch.split_members = members;
        }
        // Remainder keeps its place at the head of its class.
        let class = self.arena.class(rem);
        let job = self.arena.job(rem);
        self.arena.set_state(rem, DescState::Waiting);
        self.waiting.push_front(rem, class, job);
        self.wake_workers(1);
        d
    }

    fn sample_task_time(&mut self, inst_id: InstanceId, range: GranuleRange) -> SimDuration {
        let inst = &self.instances[inst_id.0 as usize];
        // Disjoint field borrows: the model stays borrowed from `jobs`
        // while the RNG advances, so nothing is cloned per dispatch
        // (bimodal models heap-allocate their arms on clone).
        let model = &self.jobs[inst.job].program.phases[inst.def.0 as usize].cost;
        // Fast path: constant cost, no conditional skip.
        if model.skip_probability == 0.0 {
            if let DurationDist::Constant(c) = model.dist {
                return c * range.len() as u64;
            }
        }
        let rng = &mut self.rng;
        let mut total = SimDuration::ZERO;
        for _ in range.iter() {
            total += model.sample(rng);
        }
        total
    }

    fn record_dispatch_gantt(&mut self, w: WorkerId, svc_start: SimTime, svc_end: SimTime) {
        if !self.gantt.is_enabled() {
            return;
        }
        match self.cfg.executive {
            ExecutivePlacement::StealsWorker => {
                if svc_start > self.now {
                    self.gantt.push(Span {
                        worker: w.0,
                        start: self.now,
                        end: svc_start,
                        activity: Activity::ExecutiveWait,
                    });
                }
                if svc_end > svc_start {
                    self.gantt.push(Span {
                        worker: w.0,
                        start: svc_start,
                        end: svc_end,
                        activity: Activity::Management,
                    });
                }
            }
            ExecutivePlacement::Dedicated => {
                if svc_end > self.now {
                    self.gantt.push(Span {
                        worker: w.0,
                        start: self.now,
                        end: svc_end,
                        activity: Activity::ExecutiveWait,
                    });
                }
            }
        }
    }

    /// Service a run of coincident completion events in calendar order —
    /// the multi-lane executive's batched drain. The conflict-queue
    /// wakeup buffer is taken once for the whole batch and every event's
    /// merge, wakeups, enablement decrements, and (possible) instance
    /// completion are applied in event order with per-event service
    /// charges, so a batched drain is observably identical to servicing
    /// the same events one pop at a time ([`BatchPolicy::Single`]) —
    /// the equivalence the fingerprint tests pin. Coalescings that would
    /// change descriptor granularity (merging freed runs *across* events
    /// into wider releases) are deliberately not performed: they would
    /// alter split/release charges and break the reference semantics.
    fn service_completions(&mut self, dones: &[(WorkerId, DescId)]) {
        let mut wakeups = take(&mut self.scratch.wakeups);
        for &(w, d) in dones {
            if let Some(f) = self.faults.as_mut() {
                f.running[w.0 as usize] = None;
                // Forget the reissue budget: the descriptor id can be
                // recycled by the arena after release.
                if let Some(pos) = f.attempts.iter().position(|&(id, _)| id == d) {
                    f.attempts.swap_remove(pos);
                }
            }
            // The finished task's secondary-resource tokens return to
            // their pools before anything else is serviced, so released
            // conflict-queue work and parked workers see them.
            self.release_tokens(w);
            let inst_id = self.arena.instance(d);
            let range = self.arena.range(d);
            let enabling = self.arena.enabling(d);
            let mut cost = self.cfg.costs.completion;

            // Merge the completed range back into the phase's accounting.
            {
                let ran_during_predecessor = self.arena.overlap(d);
                let inst = self.inst_mut(inst_id);
                inst.completed.insert(range);
                inst.remaining -= range.len();
                inst.stats.executed_granules += range.len();
                if ran_during_predecessor {
                    inst.stats.overlap_granules += range.len();
                }
            }
            self.live_remove(inst_id, d);

            // Release everything on the conflict queue: "Upon completion
            // of the described computation, all the queued conflicting
            // computations became unconditionally computable and were
            // placed in the waiting computation queue" (ahead of normal
            // work).
            wakeups.clear();
            self.arena.cq_drain_into(d, &mut wakeups);
            let rclass = self.released_class();
            for &m in &wakeups {
                cost += self.cfg.costs.release;
                self.enqueue(m, rclass, false);
            }

            // Status bit: decrement enablement counters of the successor.
            if enabling {
                if let Some(succ_id) = self.inst(inst_id).successor {
                    self.apply_decrements(succ_id, range, &mut cost);
                }
            }

            self.arena.release(d);

            if self.inst(inst_id).remaining == 0 && self.inst(inst_id).state == InstState::Current {
                self.complete_instance(inst_id, &mut cost);
            }

            let (svc_start, svc_end) = self.exec_service(self.now, cost);
            self.record_dispatch_gantt(w, svc_start, svc_end);
            let seek_at = match self.cfg.executive {
                ExecutivePlacement::StealsWorker => svc_end,
                ExecutivePlacement::Dedicated => self.now,
            };
            self.events.schedule(seek_at, Ev::Seek(w));
        }
        wakeups.clear();
        self.scratch.wakeups = wakeups;
    }

    fn apply_decrements(
        &mut self,
        succ_id: InstanceId,
        range: GranuleRange,
        cost: &mut SimDuration,
    ) {
        let decrement_cost = self.cfg.costs.counter_decrement;
        let release_cost = self.cfg.costs.release;
        let mut freed = take(&mut self.scratch.freed);
        {
            let Some(cs) = self.inst_mut(succ_id).counter_state.as_mut() else {
                self.scratch.freed = freed;
                return;
            };
            let Some(comp) = cs.composite.as_ref() else {
                self.scratch.freed = freed;
                return; // map not built yet; build applies these later
            };
            let early = cs.early_limit;
            for g in range.iter() {
                for &r in comp.dependents_of(g) {
                    if r < early {
                        let c = &mut cs.counters[r as usize];
                        debug_assert!(*c > 0, "enablement counter underflow");
                        *c -= 1;
                        *cost += decrement_cost;
                        if *c == 0 {
                            freed.push(r);
                        }
                    }
                }
            }
        }
        let rclass = self.released_class();
        let mut runs = take(&mut self.scratch.runs);
        coalesce_indices_into(&mut freed, &mut runs);
        for &run in &runs {
            *cost += release_cost;
            self.release_range(succ_id, run, rclass, cost);
        }
        runs.clear();
        self.scratch.runs = runs;
        freed.clear();
        self.scratch.freed = freed;
    }

    fn kick_exec(&mut self) {
        let at = self.now.max(self.earliest_exec_free());
        self.events.schedule(at, Ev::ExecKick);
    }

    fn on_exec_kick(&mut self) {
        let Some(task) = self.exec_backlog.front().copied() else {
            return;
        };
        let free = self.earliest_exec_free();
        if free > self.now {
            self.events.schedule(free, Ev::ExecKick);
            return;
        }
        self.exec_backlog.pop_front();
        let mut cost = SimDuration::ZERO;
        match task {
            ExecTask::BuildComposite { inst, prepaid } => {
                let total = self.composite_build_cost(inst);
                match total {
                    None => {
                        // Stale: barrier already lifted, drop the task —
                        // and any map the cost probe cached for it, which
                        // would otherwise be retained until run end.
                        if let Some(cs) = self.inst_mut(inst).counter_state.as_mut() {
                            cs.prebuilt = None;
                        }
                    }
                    Some(total) => {
                        let chunk = SimDuration(BUILD_CHUNK_TICKS);
                        if prepaid + chunk < total {
                            // pay one slice and yield the lane so worker
                            // dispatch/completion services interleave
                            cost += chunk;
                            self.exec_backlog.push_back(ExecTask::BuildComposite {
                                inst,
                                prepaid: prepaid + chunk,
                            });
                        } else {
                            cost += total.saturating_sub(prepaid);
                            let mut state_cost = SimDuration::ZERO;
                            self.build_composite(inst, &mut state_cost);
                            // state_cost re-counts the build; the chunks
                            // already paid for it, so only charge the
                            // decrement/release/carve portion on top
                            cost += state_cost.saturating_sub(total);
                        }
                    }
                }
            }
            ExecTask::SplitSuccessor { succ_desc, pred } => {
                self.exec_split_successor(succ_desc, pred, &mut cost)
            }
        }
        self.exec_service(self.now, cost);
        if !self.exec_backlog.is_empty() {
            self.kick_exec();
        }
    }

    /// Lane time required to construct the composite map for `succ`
    /// (subset-limited), or `None` when the build is stale (the successor
    /// already became current or fully released). The map constructed for
    /// the estimate is cached on the counter state ([`CounterState::prebuilt`])
    /// and handed to [`Engine::build_composite`], which used to build the
    /// whole CSR structure a second time.
    fn composite_build_cost(&mut self, succ_id: InstanceId) -> Option<SimDuration> {
        let full = GranuleRange::new(0, self.inst(succ_id).granules);
        if self.inst(succ_id).state != InstState::Initiated
            || self.inst(succ_id).released.contains_range(full)
        {
            return None;
        }
        let pred_id = self.inst(succ_id).predecessor?;
        let pred_granules = self.inst(pred_id).granules;
        let per_entry = self.cfg.costs.composite_map_per_entry;
        let cs = self.inst_mut(succ_id).counter_state.as_mut()?;
        if cs.composite.is_some() {
            return None;
        }
        if cs.prebuilt.is_none() {
            cs.prebuilt = Some(Arc::new(CompositeMap::build(&cs.mapping, pred_granules)));
        }
        let comp = cs.prebuilt.as_ref().expect("just built");
        let useful = comp.targets.iter().filter(|&&r| r < cs.early_limit).count() as u64;
        Some(per_entry * useful)
    }

    /// Execute a successor-splitting task: distribute the detached
    /// successor description across the predecessor's current pieces,
    /// releasing parts whose enablers already completed.
    fn exec_split_successor(
        &mut self,
        succ_desc: DescId,
        pred: InstanceId,
        cost: &mut SimDuration,
    ) {
        if !matches!(self.arena.state(succ_desc), DescState::Detached) {
            return; // already handled elsewhere
        }
        let range = self.arena.range(succ_desc);
        let succ_inst = self.arena.instance(succ_desc);
        let job = self.arena.job(succ_desc);

        // Pieces: completed predecessor sub-ranges release immediately;
        // live predecessor descriptors get matching conflicted pieces.
        let mut pieces = take(&mut self.scratch.pieces);
        pieces.extend(
            self.inst(pred)
                .completed
                .covered_in_iter(range)
                .map(|r| (r, None)),
        );
        pieces.extend(self.inst(pred).live_descs.iter().filter_map(|&pd| {
            self.arena
                .range(pd)
                .intersect(range)
                .map(|ovl| (ovl, Some(pd)))
        }));
        // Piece lo values are distinct (they tile the range), so the
        // unstable sort is behavior-identical and allocation-free.
        pieces.sort_unstable_by_key(|(r, _)| r.lo);
        debug_assert_eq!(
            pieces.iter().map(|(r, _)| r.len() as u64).sum::<u64>(),
            range.len() as u64,
            "predecessor pieces must tile the successor range"
        );

        if pieces.len() == 1 {
            let (_, target) = pieces[0];
            match target {
                Some(pd) => {
                    self.arena.set_state(succ_desc, DescState::Fresh);
                    self.arena.cq_push(pd, succ_desc);
                }
                None => {
                    *cost += self.cfg.costs.release;
                    let rc = self.released_class();
                    self.enqueue(succ_desc, rc, false);
                }
            }
            pieces.clear();
            self.scratch.pieces = pieces;
            return;
        }

        // Slice the detached descriptor front-to-back.
        let mut cur = succ_desc;
        self.arena.set_state(cur, DescState::Fresh);
        for (i, &(r, target)) in pieces.iter().enumerate() {
            let piece = if i + 1 == pieces.len() {
                cur
            } else {
                let at = r.hi - self.arena.range(cur).lo;
                let rem = self.arena.split(cur, at);
                self.splits += 1;
                *cost += self.cfg.costs.split;
                self.live_push(succ_inst, rem);
                let piece = cur;
                cur = rem;
                piece
            };
            debug_assert_eq!(self.arena.range(piece), r);
            match target {
                Some(pd) => self.arena.cq_push(pd, piece),
                None => {
                    *cost += self.cfg.costs.release;
                    let _ = job;
                    let rc = self.released_class();
                    self.enqueue(piece, rc, false);
                }
            }
        }
        pieces.clear();
        self.scratch.pieces = pieces;
    }

    fn on_serial_done(&mut self, job: usize) {
        let pc = self.jobs[job].pc;
        self.run_program(job, pc + 1);
    }

    // ------------------------------------------------------------------
    // streaming admission & eviction (service mode)
    // ------------------------------------------------------------------

    /// Job `job` reached its arrival instant: apply the machine's
    /// admission policy.
    fn admit_or_queue(&mut self, job: usize) {
        match self.cfg.admission {
            AdmissionPolicy::AcceptAll => self.admit_job(job),
            AdmissionPolicy::BoundedDefer { max_in_flight } => {
                if self.in_flight < max_in_flight {
                    self.admit_job(job);
                } else {
                    self.deferred.push_back(job);
                }
            }
            AdmissionPolicy::Shed { max_in_flight } => {
                if self.in_flight < max_in_flight {
                    self.admit_job(job);
                } else {
                    // Shed: the job never runs. `done` keeps the drained
                    // calendar from reading as a deadlock; `finished_at`
                    // stays `None` so latency accounting skips it.
                    self.jobs[job].rejected = true;
                    self.jobs[job].done = true;
                    self.jobs_rejected += 1;
                    self.tlog
                        .log(self.now, || format!("job{job} shed by admission"));
                }
            }
        }
    }

    /// Start `job` now: its first dispatch enters the executive exactly
    /// as a batch job's would.
    fn admit_job(&mut self, job: usize) {
        self.in_flight += 1;
        if self.evict {
            if let Some(buf) = self.inst_list_pool.pop() {
                self.jobs[job].instances = buf;
            }
        }
        self.jobs[job].started_at = self.now;
        self.run_program(job, 0);
    }

    /// The program of `job` reached `End`: record completion, recycle its
    /// instances under eviction, and let the admission policy pull the
    /// next deferred arrival through the freed slot.
    fn finish_job(&mut self, job: usize) {
        self.jobs[job].done = true;
        self.jobs[job].finished_at = Some(self.now);
        self.in_flight -= 1;
        self.waiting.release(JobId(job as u32));
        if self.evict {
            self.evict_job_instances(job);
        }
        if let Some(next) = self.deferred.pop_front() {
            self.admit_job(next);
        }
    }

    /// Return every instance of finished job `job` to the free list: run
    /// sets cleared in place (allocations kept), counter state dropped,
    /// slot marked [`InstState::Evicted`]. All of a job's instances die
    /// together, so no surviving predecessor/successor reference can
    /// dangle (those links never cross jobs).
    fn evict_job_instances(&mut self, job: usize) {
        let mut ids = take(&mut self.jobs[job].instances);
        for id in ids.drain(..) {
            let inst = &mut self.instances[id.0 as usize];
            if inst.state != InstState::Complete {
                // An abandoned lookahead misprediction could leave an
                // Initiated instance behind; keep it (leaked, warned
                // about at initiation) rather than evict live state.
                debug_assert_eq!(inst.state, InstState::Initiated, "evicting live instance");
                continue;
            }
            debug_assert!(
                inst.live_descs.is_empty(),
                "complete instance has live descs"
            );
            inst.state = InstState::Evicted;
            inst.released.clear();
            inst.completed.clear();
            inst.counter_state = None;
            self.free_instances.push(id.0);
        }
        self.inst_list_pool.push(ids);
    }

    // ------------------------------------------------------------------
    // run loop & report
    // ------------------------------------------------------------------

    // ------------------------------------------------------------------
    // fault injection
    // ------------------------------------------------------------------

    /// Is this completion event stale? A crash preempting worker `w`
    /// clears its in-flight record, so a `TaskDone` whose `(desc, end)`
    /// no longer matches the record was scheduled for work that never
    /// finished. (If the same descriptor was re-dispatched to the same
    /// worker with the same end time, the events are interchangeable at
    /// that tick — the first one serviced completes the task and the
    /// other is dropped here.)
    #[inline]
    fn task_done_is_stale(&self, w: WorkerId, d: DescId) -> bool {
        match self.faults.as_ref() {
            None => false,
            Some(f) => !matches!(
                f.running[w.0 as usize],
                Some((desc, _, end)) if desc == d && end == self.now
            ),
        }
    }

    /// Schedule the initial crash events of the machine's fault plan.
    /// Random up-spans come from the dedicated fault RNG in processor
    /// order; scripted crashes are scheduled in crash-instant order, with
    /// their down-spans queued per processor in the same order.
    fn start_faults(&mut self) {
        if self.jobs.iter().all(|j| j.done) {
            return; // nothing will run: schedule no fault stream
        }
        let now = self.now;
        let procs = self.cfg.processors;
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        f.avail.add(now, procs as i32);
        match &f.model {
            FaultModel::Random {
                time_to_failure, ..
            } => {
                for w in 0..procs {
                    let up = time_to_failure.sample(&mut f.rng).ticks().max(1);
                    self.events.schedule(
                        now + SimDuration(up),
                        Ev::Crash {
                            worker: WorkerId(w as u32),
                        },
                    );
                }
            }
            FaultModel::Scripted(evs) => {
                for e in evs {
                    f.scripted[e.processor].push_back(e.repair_after);
                    self.events.schedule(
                        SimTime(e.crash_at),
                        Ev::Crash {
                            worker: WorkerId(e.processor as u32),
                        },
                    );
                }
            }
        }
    }

    /// A processor goes down. Preempts any in-flight task (the lost range
    /// re-enters dispatch per the retry policy), removes the worker from
    /// circulation, and schedules the repair. Once every job is done the
    /// stream stops renewing itself, so the calendar always drains.
    fn on_crash(&mut self, w: WorkerId) {
        let wi = w.0 as usize;
        let all_done = self.jobs.iter().all(|j| j.done);
        let f = self
            .faults
            .as_mut()
            .expect("crash event without a fault plan");
        // The event's scripted span must be consumed even when the crash
        // itself is ignored, to keep the span queue aligned.
        let scripted_span = match &f.model {
            FaultModel::Scripted(_) => Some(
                f.scripted[wi]
                    .pop_front()
                    .expect("scheduled crash has a queued span"),
            ),
            FaultModel::Random { .. } => None,
        };
        if all_done || f.down[wi] {
            return;
        }
        f.down[wi] = true;
        f.crashes += 1;
        f.avail.add(self.now, -1);
        let down_span: Option<u64> = match scripted_span {
            Some(span) => span,
            None => {
                let FaultModel::Random { time_to_repair, .. } = &f.model else {
                    unreachable!("non-scripted crash under a scripted model")
                };
                Some(time_to_repair.sample(&mut f.rng).ticks().max(1))
            }
        };
        match f.running[wi].take() {
            Some((d, start, end)) => self.preempt_lost_task(w, d, start, end),
            None => {
                // Idle (or mid-seek) worker: pull it off the idle stack so
                // wake-ups cannot hand work to a dead processor; an
                // in-flight seek is dropped by the `on_seek` guard.
                if let Some(pos) = self.idle_workers.iter().position(|&x| x == w) {
                    self.idle_workers.remove(pos);
                }
                // A worker parked on a resource pool likewise leaves the
                // park list (its wait ends at the crash); the repair event
                // re-seeks it, and it re-parks if the pool is still dry.
                if let Some(h) = self.hetero.as_mut() {
                    if let Some(pos) = h.parked.iter().position(|&(x, _, _)| x == w) {
                        let (_, since, pool) = h.parked.remove(pos);
                        let waited = self.now.since(since);
                        h.pool_wait_ticks[pool as usize] += waited;
                    }
                }
            }
        }
        if let Some(ticks) = down_span {
            self.events
                .schedule(self.now + SimDuration(ticks), Ev::Repair { worker: w });
        }
    }

    /// Reverse the dispatch-time accounting of a preempted task and route
    /// its granule range per the retry policy. The busy trace keeps the
    /// span the worker really computed (start → crash) — that time is
    /// *lost work*, counted separately from useful compute.
    fn preempt_lost_task(&mut self, w: WorkerId, d: DescId, start: SimTime, end: SimTime) {
        let exec = end.since(start);
        // Tokens held by the preempted task return immediately — before
        // the retry policy can abort the run — so a crash never leaks
        // pool capacity, whatever the policy decides.
        self.release_tokens(w);
        if let Some(h) = self.hetero.as_mut() {
            if let Some(c) = h.class_idx(w) {
                // Reverse the per-class useful-compute accounting exactly
                // as `compute_total` below; the span really computed is
                // lost work, not utilization.
                h.class_busy[c] -= exec;
            }
        }
        // The crash can land before the task's compute even started (the
        // dispatch service was still queued): nothing was computed then.
        let cancel_from = start.max(self.now);
        self.computing.add(cancel_from, -1);
        self.computing.add(end, 1);
        self.compute_total -= exec;
        let f = self
            .faults
            .as_mut()
            .expect("preemption without a fault plan");
        f.lost_work += cancel_from.since(start);
        let retry = f.retry;
        let attempts = match f.attempts.iter_mut().find(|(id, _)| *id == d) {
            Some(e) => {
                e.1 += 1;
                e.1
            }
            None => {
                f.attempts.push((d, 1));
                1
            }
        };
        let give_up = match retry {
            RetryPolicy::Abandon => true,
            RetryPolicy::Bounded { max_attempts } => attempts > max_attempts,
            RetryPolicy::ReissueFront => false,
        };
        if give_up {
            let job = self.arena.job(d).0 as usize;
            let detail = match retry {
                RetryPolicy::Abandon => format!(
                    "processor {} crashed at {} and the retry policy abandons lost work",
                    w.0, self.now
                ),
                _ => format!(
                    "descriptor lost to processor crashes {attempts} times \
                     (reissue budget {})",
                    match retry {
                        RetryPolicy::Bounded { max_attempts } => max_attempts,
                        _ => 0,
                    }
                ),
            };
            self.abort
                .get_or_insert(EngineError::JobAborted { job, detail });
            return;
        }
        self.faults.as_mut().expect("fault plan present").retries += 1;
        let class = self.arena.class(d);
        let job = self.arena.job(d);
        self.arena.set_state(d, DescState::Waiting);
        self.waiting.push_front(d, class, job);
        self.wake_workers(1);
    }

    /// A processor comes back up: rejoin the pool (via a fresh seek),
    /// and — under the random model — draw the next up-span.
    fn on_repair(&mut self, w: WorkerId) {
        let wi = w.0 as usize;
        let all_done = self.jobs.iter().all(|j| j.done);
        let f = self
            .faults
            .as_mut()
            .expect("repair event without a fault plan");
        if !f.down[wi] {
            debug_assert!(false, "repair of an up processor");
            return;
        }
        f.down[wi] = false;
        f.avail.add(self.now, 1);
        if !all_done {
            if let FaultModel::Random {
                time_to_failure, ..
            } = &f.model
            {
                let up = time_to_failure.sample(&mut f.rng).ticks().max(1);
                self.events
                    .schedule(self.now + SimDuration(up), Ev::Crash { worker: w });
            }
        }
        self.events.schedule(self.now, Ev::Seek(w));
    }

    pub(crate) fn start(&mut self) {
        for j in 0..self.jobs.len() {
            // `t = 0` arrivals are admitted directly: under the default
            // accept-all policy the event stream (and hence the whole
            // run) is bit-identical to the closed batch engine. Later
            // arrivals wait in the feed.
            let at = self.jobs[j].arrived_at;
            if at == SimTime::ZERO {
                self.admit_or_queue(j);
            } else {
                self.feed.push((at, j));
            }
        }
        // Stable: coincident arrivals keep job-index order.
        self.feed.sort_by_key(|&(at, _)| at);
        for w in 0..self.cfg.processors {
            self.events
                .schedule(SimTime::ZERO, Ev::Seek(WorkerId(w as u32)));
        }
        self.start_faults();
    }

    /// The arrival the next round admits, if one is due no later than
    /// the calendar's head (the feed wins ties).
    fn due_arrival(&self) -> Option<(SimTime, usize)> {
        let next = self.feed.get(self.feed_next).copied()?;
        self.events
            .peek_time()
            .is_none_or(|t| next.0 <= t)
            .then_some(next)
    }

    /// Due time of the next pending arrival or event, if any — the
    /// sharded coordinator's per-group progress lower bound.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.due_arrival()
            .map(|(at, _)| at)
            .or(self.events.peek_time())
    }

    /// End time of the last event serviced so far (the local makespan
    /// once the calendar has drained).
    pub(crate) fn frontier(&self) -> SimTime {
        self.last_event_end
    }

    /// Events the executive drains per service round: one in the pinned
    /// reference mode, up to the lane count otherwise (the paper's
    /// parallel executive services the queue with every idle lane).
    fn batch_capacity(&self) -> usize {
        match self.cfg.batch {
            BatchPolicy::Single => 1,
            BatchPolicy::Coincident => self.cfg.executive_lanes.max(1),
        }
    }

    /// Handle one drained coincident group in calendar order. Runs of
    /// adjacent completion events go through the batched completion
    /// service; state evolution is identical to popping the same events
    /// one at a time.
    fn process_batch(&mut self, batch: &[(SimTime, Ev)], dones: &mut Vec<(WorkerId, DescId)>) {
        let mut i = 0;
        while i < batch.len() {
            let (t, ev) = batch[i];
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            match ev {
                Ev::TaskDone { worker, desc } => {
                    dones.clear();
                    self.events_processed += 1;
                    if !self.task_done_is_stale(worker, desc) {
                        dones.push((worker, desc));
                    }
                    while let Some(&(t2, Ev::TaskDone { worker, desc })) = batch.get(i + 1) {
                        debug_assert_eq!(t2, t, "coincident group spans ticks");
                        self.events_processed += 1;
                        if !self.task_done_is_stale(worker, desc) {
                            dones.push((worker, desc));
                        }
                        i += 1;
                    }
                    self.service_completions(dones);
                }
                Ev::Seek(w) => {
                    self.events_processed += 1;
                    self.on_seek(w);
                }
                Ev::ExecKick => {
                    self.events_processed += 1;
                    self.on_exec_kick();
                }
                Ev::SerialDone { job } => {
                    self.events_processed += 1;
                    self.on_serial_done(job);
                }
                Ev::Crash { worker } => {
                    self.events_processed += 1;
                    self.on_crash(worker);
                }
                Ev::Repair { worker } => {
                    self.events_processed += 1;
                    self.on_repair(worker);
                }
            }
            i += 1;
        }
    }

    /// Admit arrivals and drain events due at or before `limit` (all that
    /// remain when `None`). Returns `true` when neither the feed nor the
    /// calendar holds anything afterwards.
    ///
    /// Pausing between windows mutates no engine state, and every batch a
    /// windowed drain forms is a batch the unbounded loop would form (the
    /// batch groupings are pinned observably identical to
    /// [`BatchPolicy::Single`] service anyway), so chopping a run into
    /// windows at *any* boundaries is result-invariant — the property the
    /// sharded drivers' determinism contract rests on.
    pub(crate) fn run_window(&mut self, limit: Option<SimTime>) -> bool {
        let cap = self.batch_capacity();
        let mut batch = take(&mut self.round_batch);
        let mut dones = take(&mut self.round_dones);
        let drained_all = loop {
            if self.abort.is_some() {
                // Structural abort (e.g. retry policy gave up): stop
                // draining; `finish` surfaces the error. Reported as
                // drained so the sharded epoch protocol can terminate.
                break true;
            }
            let arrival = self.due_arrival();
            let Some(round_start) = arrival.map(|(at, _)| at).or(self.events.peek_time()) else {
                break true;
            };
            if limit.is_some_and(|l| round_start > l) {
                break false;
            }
            // Simulated time never runs backwards, so no level change can
            // still arrive before this round.
            self.computing.settle(round_start);
            self.managing.settle(round_start);
            if let Some(f) = self.faults.as_mut() {
                f.avail.settle(round_start);
            }
            if let Some((at, job)) = arrival {
                debug_assert!(at >= self.now, "time went backwards");
                self.feed_next += 1;
                self.now = at;
                self.events_processed += 1;
                self.admit_or_queue(job);
            } else {
                batch.clear();
                let drained = self.events.pop_coincident_into(cap, &mut batch);
                debug_assert!(drained > 0, "peeked event must drain");
                self.process_batch(&batch, &mut dones);
            }
        };
        self.round_batch = batch;
        self.round_dones = dones;
        drained_all
    }

    /// Deadlock check plus report construction, once the calendar is dry.
    pub(crate) fn finish(mut self) -> Result<RunReport, EngineError> {
        if let Some(err) = self.abort.take() {
            return Err(err);
        }
        let unfinished: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.done)
            .map(|(i, _)| i)
            .collect();
        if !unfinished.is_empty() {
            let down = self
                .faults
                .as_ref()
                .map(|f| f.down.iter().filter(|&&d| d).count())
                .unwrap_or(0);
            let detail = format!(
                "waiting queue len {}, backlog {}, live descriptors {}, \
                 down processors {down}, trace:\n{}",
                self.waiting.len(),
                self.exec_backlog.len(),
                self.arena.live(),
                self.tlog
            );
            return Err(EngineError::Deadlock {
                unfinished_jobs: unfinished,
                detail,
            });
        }
        Ok(self.build_report())
    }

    fn build_report(self) -> RunReport {
        let makespan = self.last_event_end.since(SimTime::ZERO);
        let busy_trace = self.computing.finish();
        let mgmt_trace = self.managing.finish();
        let (avail_trace, lost_work, retries, crashes) = match self.faults {
            Some(f) => (f.avail.finish(), f.lost_work, f.retries, f.crashes),
            None => (StepTrace::new(), SimDuration::ZERO, 0, 0),
        };
        let (class_reports, pool_reports) = match self.hetero {
            Some(h) => (
                h.classes
                    .iter()
                    .enumerate()
                    .map(|(i, c)| ClassReport {
                        name: c.name.clone(),
                        processors: c.count,
                        speed_percent: c.speed_percent,
                        busy: h.class_busy[i],
                        tasks: h.class_tasks[i],
                    })
                    .collect(),
                h.pools
                    .iter()
                    .enumerate()
                    .map(|(i, p)| PoolReport {
                        name: p.name.clone(),
                        tokens: p.tokens,
                        waits: h.pool_waits[i],
                        wait_ticks: h.pool_wait_ticks[i],
                    })
                    .collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        // Evicted slots are holes, not phases: with eviction on, `phases`
        // holds only the instances still live when the run ended (the
        // recycled ones were reported through job latency accounting).
        let phases: Vec<PhaseReport> = self
            .instances
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.state != InstState::Evicted)
            .map(|(i, inst)| PhaseReport {
                instance: InstanceId(i as u32),
                name: self.jobs[inst.job].program.phases[inst.def.0 as usize]
                    .name
                    .clone(),
                job: inst.job as u32,
                granules: inst.granules,
                enabled_by: inst.enabled_by,
                stats: inst.stats.clone(),
            })
            .collect();
        let jobs: Vec<JobReport> = self
            .jobs
            .iter()
            .map(|j| JobReport {
                arrived_at: j.arrived_at,
                started_at: j.started_at,
                finished_at: j.finished_at,
                rejected: j.rejected,
            })
            .collect();
        RunReport {
            processors: self.cfg.processors,
            makespan,
            compute_time: self.compute_total,
            mgmt_time: self.mgmt_total,
            serial_time: self.serial_total,
            mgmt_steals_workers: self.cfg.executive == ExecutivePlacement::StealsWorker,
            busy_trace,
            mgmt_trace,
            avail_trace,
            lost_work,
            retries,
            crashes,
            phases,
            jobs,
            jobs_rejected: self.jobs_rejected,
            instances_peak: self.instances.len(),
            events: self.events_processed,
            tasks_dispatched: self.tasks_dispatched,
            splits: self.splits,
            local_granules: self.local_granules,
            remote_granules: self.remote_granules,
            remote_stall: self.remote_stall,
            descriptors_created: self.arena.created_total(),
            descriptors_peak: self.arena.peak_live(),
            gantt: if self.gantt.is_enabled() {
                Some(self.gantt)
            } else {
                None
            },
            warnings: self.warnings,
            class_reports,
            pool_reports,
        }
    }
}

// An RNG sanity helper: keep the unused `Rng` import meaningful if the
// fast-path elides sampling entirely in a build.
#[allow(dead_code)]
fn _rng_guard<R: Rng>(_r: &mut R) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PhaseDef;
    use crate::program::{EnableSpec, ProgramBuilder};
    use pax_sim::dist::CostModel;

    fn linear_program(
        granules: u32,
        phases: usize,
        cost_ticks: u64,
        mapping: impl Fn(usize) -> EnablementMapping,
    ) -> Program {
        let mut b = ProgramBuilder::new();
        let ids: Vec<PhaseId> = (0..phases)
            .map(|i| {
                b.phase(PhaseDef::new(
                    format!("p{i}"),
                    granules,
                    CostModel::constant(cost_ticks),
                ))
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            if i + 1 < phases {
                b.dispatch_enable(
                    id,
                    vec![EnableSpec {
                        successor: ids[i + 1],
                        mapping: mapping(i),
                    }],
                );
            } else {
                b.dispatch(id);
            }
        }
        b.build().unwrap()
    }

    fn run(program: Program, processors: usize, policy: OverlapPolicy) -> RunReport {
        let mut sim = Simulation::new(MachineConfig::ideal(processors), policy);
        sim.add_job(program);
        sim.run().expect("run failed")
    }

    #[test]
    fn single_phase_perfect_division() {
        // 32 granules × 5 ticks on 4 procs, task size = 4 (2 tasks/proc):
        // ideal makespan = 32*5/4 = 40.
        let p = linear_program(32, 1, 5, |_| EnablementMapping::Null);
        let r = run(p, 4, OverlapPolicy::strict());
        assert_eq!(r.makespan.ticks(), 40);
        assert_eq!(r.compute_time.ticks(), 160);
        assert!((r.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].stats.executed_granules, 32);
    }

    #[test]
    fn level_sweeps_hold_only_the_changes_in_flight() {
        // Ten times the work must not deepen the pending buffers: what
        // waits is what the processors and lanes have in flight, never
        // the history of the run.
        let worst_pending = |granules: u32| {
            let program = linear_program(granules, 2, 100, |_| EnablementMapping::Identity);
            let policy = OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1));
            let mut sim = Simulation::new(MachineConfig::new(8), policy);
            sim.add_job(program);
            let mut eng = Engine::new(sim);
            eng.start();
            let mut worst = 0;
            while let Some(t) = eng.next_event_time() {
                eng.run_window(Some(t));
                worst = worst.max(eng.computing.pending() + eng.managing.pending());
            }
            assert!(eng.finish().is_ok());
            worst
        };
        let (small, large) = (worst_pending(500), worst_pending(5_000));
        assert!(small > 0 && large <= small + 2, "{small} -> {large}");
        assert!(
            large <= 4 * (8 + 1),
            "{large} changes pending on 8 processors"
        );
    }

    #[test]
    fn strict_barrier_sequences_phases() {
        let p = linear_program(16, 3, 10, |_| EnablementMapping::Identity);
        let r = run(p, 4, OverlapPolicy::strict());
        assert_eq!(r.phases.len(), 3);
        // With a barrier, each phase spans 16*10/4 = 40 ticks.
        assert_eq!(r.makespan.ticks(), 120);
        for ph in &r.phases {
            assert_eq!(ph.stats.overlap_granules, 0);
            assert_eq!(ph.enabled_by, None);
        }
    }

    #[test]
    fn rundown_idle_without_overlap() {
        // 5 granules of 10 ticks on 4 processors: wave 1 runs 4, wave 2
        // runs 1 → 3 processors idle for 10 ticks.
        let p = linear_program(5, 1, 10, |_| EnablementMapping::Null);
        let r = run(
            p,
            4,
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        assert_eq!(r.makespan.ticks(), 20);
        assert_eq!(r.compute_time.ticks(), 50);
        let rd = r.rundown_of(0).unwrap();
        assert_eq!(rd.idle_processor_time, 30);
    }

    #[test]
    fn universal_overlap_fills_rundown() {
        // Two universal phases, 6 granules × 10 ticks each, 4 procs,
        // task=1. Strict: 2 ticks idle-waves per phase (6 = 4+2).
        // Overlap: second phase granules fill the first phase's tail.
        let p = linear_program(6, 2, 10, |_| EnablementMapping::Universal);
        let strict = run(
            p.clone(),
            4,
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        let overlap = run(
            p,
            4,
            OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        assert_eq!(strict.makespan.ticks(), 40); // 20 per phase
        assert_eq!(overlap.makespan.ticks(), 30); // 12 granules / 4 procs × 10
        assert!(overlap.phases[1].stats.overlap_granules > 0);
        assert_eq!(overlap.phases[1].enabled_by, Some(MappingKind::Universal));
        assert!(overlap.utilization() > strict.utilization());
    }

    #[test]
    fn identity_overlap_respects_enablement() {
        // 10 granules on 4 processors leaves a 2-granule final wave — the
        // rundown the overlap must fill.
        let p = linear_program(10, 2, 10, |_| EnablementMapping::Identity);
        let policy = OverlapPolicy::overlap()
            .with_sizing(crate::policy::TaskSizing::Fixed(1))
            .with_split_strategy(SplitStrategy::DemandSplit);
        let mut sim = Simulation::new(MachineConfig::ideal(4), policy).with_gantt();
        sim.add_job(p);
        let r = sim.run().unwrap();
        assert_eq!(r.phases.len(), 2);
        assert!(
            r.phases[1].stats.overlap_granules > 0,
            "no overlap achieved"
        );
        // Invariant: successor granule i must start at or after the
        // completion of current granule i.
        let g = r.gantt.as_ref().unwrap();
        for i in 0..10u32 {
            let pred_done = g.granule_completion(0, i).unwrap();
            let succ_start = g.granule_start(1, i).unwrap();
            assert!(
                succ_start >= pred_done,
                "granule {i}: successor started {succ_start} before enabler finished {pred_done}"
            );
        }
        // Overlap must beat the strict barrier (2 × 3 waves × 10 = 60).
        assert!(r.makespan.ticks() < 60, "makespan {}", r.makespan.ticks());
    }

    #[test]
    fn identity_overlap_all_split_strategies_agree_on_invariant() {
        for strat in [
            SplitStrategy::DemandSplit,
            SplitStrategy::PreSplit,
            SplitStrategy::SuccessorSplitTask,
        ] {
            let p = linear_program(12, 2, 7, |_| EnablementMapping::Identity);
            let policy = OverlapPolicy::overlap()
                .with_sizing(crate::policy::TaskSizing::Fixed(2))
                .with_split_strategy(strat);
            let mut sim = Simulation::new(MachineConfig::ideal(3), policy).with_gantt();
            sim.add_job(p);
            let r = sim.run().unwrap_or_else(|e| panic!("{strat:?}: {e}"));
            let g = r.gantt.as_ref().unwrap();
            for i in 0..12u32 {
                let pred_done = g.granule_completion(0, i).unwrap();
                let succ_start = g.granule_start(1, i).unwrap();
                assert!(
                    succ_start >= pred_done,
                    "{strat:?} granule {i}: {succ_start} < {pred_done}"
                );
            }
            assert_eq!(r.phases[1].stats.executed_granules, 12);
        }
    }

    #[test]
    fn null_mapping_never_overlaps() {
        let p = linear_program(8, 2, 10, |_| EnablementMapping::Null);
        let r = run(
            p,
            4,
            OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        assert_eq!(r.phases[1].stats.overlap_granules, 0);
        assert_eq!(r.makespan.ticks(), 40);
    }

    #[test]
    fn serial_region_blocks_overlap_and_takes_time() {
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", 8, CostModel::constant(10)));
        let c = b.phase(PhaseDef::new("c", 8, CostModel::constant(10)));
        b.dispatch_enable(
            a,
            vec![EnableSpec {
                successor: c,
                mapping: EnablementMapping::Universal,
            }],
        );
        b.serial(15, "decide");
        b.dispatch(c);
        let p = b.build().unwrap();
        let r = run(
            p,
            4,
            OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        // No overlap through the serial region; makespan = 20 + 15 + 20.
        assert_eq!(r.phases[1].stats.overlap_granules, 0);
        assert_eq!(r.makespan.ticks(), 55);
        assert_eq!(r.phases[1].stats.serial_gap.ticks(), 15);
    }

    #[test]
    fn forward_indirect_overlap() {
        // Phase a (10 granules) forward-maps i -> 9-i into phase b.
        let fwd = crate::mapping::ForwardMap::new((0..10).rev().collect(), 10);
        let mapping = EnablementMapping::ForwardIndirect(std::sync::Arc::new(fwd));
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 10, CostModel::constant(10)));
        let pb = b.phase(PhaseDef::new("b", 10, CostModel::constant(10)));
        b.dispatch_enable(
            pa,
            vec![EnableSpec {
                successor: pb,
                mapping,
            }],
        );
        b.dispatch(pb);
        let p = b.build().unwrap();
        let policy = OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1));
        let mut sim = Simulation::new(MachineConfig::ideal(4), policy).with_gantt();
        sim.add_job(p);
        let r = sim.run().unwrap();
        assert!(r.phases[1].stats.overlap_granules > 0);
        // Invariant: b's granule r starts after a's granule (9-r) ends.
        let g = r.gantt.as_ref().unwrap();
        for i in 0..10u32 {
            let pred_done = g.granule_completion(0, i).unwrap();
            let succ_start = g.granule_start(1, 9 - i).unwrap();
            assert!(succ_start >= pred_done);
        }
        assert!(r.makespan.ticks() < 60);
    }

    #[test]
    fn reverse_indirect_overlap() {
        // Successor granule r requires current granules {r, (r+1)%8}.
        let req: Vec<Vec<u32>> = (0..8).map(|r| vec![r, (r + 1) % 8]).collect();
        let rmap = crate::mapping::ReverseMap::new(req.clone(), 8);
        let mapping = EnablementMapping::ReverseIndirect(std::sync::Arc::new(rmap));
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 8, CostModel::constant(10)));
        let pb = b.phase(PhaseDef::new("b", 8, CostModel::constant(10)));
        b.dispatch_enable(
            pa,
            vec![EnableSpec {
                successor: pb,
                mapping,
            }],
        );
        b.dispatch(pb);
        let p = b.build().unwrap();
        let policy = OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1));
        let mut sim = Simulation::new(MachineConfig::ideal(3), policy).with_gantt();
        sim.add_job(p);
        let r = sim.run().unwrap();
        let g = r.gantt.as_ref().unwrap();
        for (rr, deps) in req.iter().enumerate() {
            let succ_start = g.granule_start(1, rr as u32).unwrap();
            for &d in deps {
                let dep_done = g.granule_completion(0, d).unwrap();
                assert!(
                    succ_start >= dep_done,
                    "succ {rr} started {succ_start} before dep {d} done {dep_done}"
                );
            }
        }
        assert_eq!(r.phases[1].stats.executed_granules, 8);
    }

    #[test]
    fn interlock_warning_on_wrong_enable() {
        // ENABLE names phase c but b follows.
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let pb = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        let pc = b.phase(PhaseDef::new("c", 4, CostModel::constant(1)));
        b.dispatch_enable(
            pa,
            vec![EnableSpec {
                successor: pc,
                mapping: EnablementMapping::Universal,
            }],
        );
        b.dispatch(pb);
        b.dispatch(pc);
        let p = b.build().unwrap();
        let r = run(p, 2, OverlapPolicy::overlap());
        assert!(!r.warnings.is_empty());
        assert!(r.warnings[0].contains("interlock"));
        // phase b got no overlap
        assert_eq!(r.phases[1].stats.overlap_granules, 0);
    }

    #[test]
    fn looping_program_dispatches_multiple_instances() {
        // for k in 0..3 { dispatch a } via counter + branch
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(5)));
        let k = b.counter();
        let loop_top = b.next_index();
        b.dispatch(pa);
        b.incr(k, 1);
        b.step(Step::Branch {
            test: crate::program::BranchTest::CounterLt(k, 3),
            on_true: loop_top,
            on_false: loop_top + 3,
        });
        let p = b.build().unwrap();
        let r = run(p, 2, OverlapPolicy::strict());
        assert_eq!(r.phases.len(), 3);
        assert!(r.jobs[0].finished_at.is_some());
        // 3 × (4 granules × 5 ticks / 2 procs) = 30
        assert_eq!(r.makespan.ticks(), 30);
    }

    #[test]
    fn branch_preprocessing_overlaps_taken_arm() {
        // dispatch a ENABLE/BRANCHINDEPENDENT [b/universal c/universal];
        // counter==0 → branch false → c.
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 7, CostModel::constant(10)));
        let pb = b.phase(PhaseDef::new("b", 7, CostModel::constant(10)));
        let pc = b.phase(PhaseDef::new("c", 7, CostModel::constant(10)));
        let k = b.counter();
        b.dispatch_enable_branch_independent(
            pa,
            vec![
                EnableSpec {
                    successor: pb,
                    mapping: EnablementMapping::Universal,
                },
                EnableSpec {
                    successor: pc,
                    mapping: EnablementMapping::Universal,
                },
            ],
        ); // step 0
        b.step(Step::Branch {
            test: crate::program::BranchTest::CounterModNe {
                counter: k,
                modulus: 10,
                residue: 0,
            },
            on_true: 2,
            on_false: 3,
        }); // step 1
        b.dispatch(pb); // step 2 (skipped; falls through to End? use goto)
        b.dispatch(pc); // step 3
        let p = b.build().unwrap();
        let r = run(
            p,
            3,
            OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        // counter 0 → MOD == 0 → false arm → c overlapped, b never ran...
        // (note: with the fallthrough program shape, after c the program
        // hits End; b is only reachable through the true arm)
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c"]);
        assert!(r.phases[1].stats.overlap_granules > 0);
    }

    #[test]
    fn steals_worker_vs_dedicated_accounting() {
        let p = linear_program(64, 2, 100, |_| EnablementMapping::Universal);
        let mk = |placement| {
            let cfg = MachineConfig::new(4)
                .with_executive(placement)
                .with_costs(pax_sim::machine::ManagementCosts::pax_default());
            let mut sim = Simulation::new(cfg, OverlapPolicy::strict());
            sim.add_job(linear_program(64, 2, 100, |_| EnablementMapping::Universal));
            sim.run().unwrap()
        };
        let _ = p;
        let stolen = mk(ExecutivePlacement::StealsWorker);
        let dedicated = mk(ExecutivePlacement::Dedicated);
        assert!(stolen.mgmt_time.ticks() > 0);
        assert!(stolen.mgmt_steals_workers);
        assert!(!dedicated.mgmt_steals_workers);
        // The computation-to-management ratio: 64 granules × 100 ticks
        // compute vs ~2 ticks per task management.
        assert!(stolen.comp_to_mgmt_ratio() > 10.0);
    }

    #[test]
    fn multi_job_streams_share_machine() {
        let mut sim = Simulation::new(MachineConfig::ideal(4), OverlapPolicy::strict());
        sim.add_job(linear_program(16, 2, 10, |_| EnablementMapping::Null));
        sim.add_job(linear_program(16, 2, 10, |_| EnablementMapping::Null));
        let r = sim.run().unwrap();
        assert_eq!(r.jobs.len(), 2);
        assert!(r.jobs.iter().all(|j| j.finished_at.is_some()));
        // Two jobs of 320 compute ticks each on 4 procs: both finish, and
        // round-robin sharing means both take longer than alone (80).
        for j in &r.jobs {
            assert!(j.makespan().unwrap().ticks() > 80);
        }
        assert_eq!(r.compute_time.ticks(), 640);
    }

    #[test]
    fn pending_arrivals_wait_beside_the_calendar_not_in_it() {
        // However long the stream, `start` parks nothing in the calendar
        // for it: the population stays O(processors), and the run still
        // admits every arrival.
        let cfg = MachineConfig::new(4).with_executive_lanes(2);
        let bound = cfg.processors + cfg.executive_lanes + 1;
        let mut sim = Simulation::new(cfg, OverlapPolicy::overlap()).with_eviction();
        sim.add_job_stream(
            linear_program(8, 2, 10, |_| EnablementMapping::Identity),
            ArrivalProcess::poisson(200),
            10_000,
        );
        sim.expand_streams();
        let mut eng = Engine::new(sim);
        eng.start();
        assert_eq!(eng.feed.len(), 10_000);
        assert!(
            eng.events.len() <= bound,
            "{} events parked at start, bound {bound}",
            eng.events.len()
        );
        assert_eq!(eng.next_event_time(), Some(SimTime::ZERO));
        assert!(eng.run_window(None));
        let report = eng.finish().unwrap();
        assert_eq!(report.jobs_completed(), 10_000);
    }

    #[test]
    fn deterministic_runs_with_same_seed() {
        let mk = || {
            let p = linear_program(64, 3, 0, |_| EnablementMapping::Universal);
            // use stochastic costs
            let mut b = ProgramBuilder::new();
            let mut prev: Option<PhaseId> = None;
            let mut ids = Vec::new();
            for i in 0..3 {
                let id = b.phase(PhaseDef::new(
                    format!("p{i}"),
                    64,
                    pax_sim::dist::CostModel::new(DurationDist::uniform(5, 50)),
                ));
                ids.push(id);
                let _ = prev.replace(id);
            }
            for (i, &id) in ids.iter().enumerate() {
                if i + 1 < 3 {
                    b.dispatch_enable(
                        id,
                        vec![EnableSpec {
                            successor: ids[i + 1],
                            mapping: EnablementMapping::Universal,
                        }],
                    );
                } else {
                    b.dispatch(id);
                }
            }
            let _ = p;
            let program = b.build().unwrap();
            let mut sim =
                Simulation::new(MachineConfig::ideal(8), OverlapPolicy::overlap()).with_seed(42);
            sim.add_job(program);
            sim.run().unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.tasks_dispatched, b.tasks_dispatched);
    }

    #[test]
    fn elevated_subset_limits_indirect_problem_size() {
        let req: Vec<Vec<u32>> = (0..30).map(|r| vec![r]).collect();
        let rmap = crate::mapping::ReverseMap::new(req, 30);
        let mapping = EnablementMapping::ReverseIndirect(std::sync::Arc::new(rmap));
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 30, CostModel::constant(10)));
        let pb = b.phase(PhaseDef::new("b", 30, CostModel::constant(10)));
        b.dispatch_enable(
            pa,
            vec![EnableSpec {
                successor: pb,
                mapping,
            }],
        );
        b.dispatch(pb);
        let p = b.build().unwrap();
        let policy = OverlapPolicy::overlap()
            .with_sizing(crate::policy::TaskSizing::Fixed(1))
            .with_indirect_subset(4);
        let r = run(p, 4, policy);
        // Only the first 4 successor granules were counter-gated; all 30
        // still execute.
        assert_eq!(r.phases[1].stats.executed_granules, 30);
        assert!(r.phases[1].stats.overlap_granules >= 1);
    }

    #[test]
    fn zero_management_costs_mean_infinite_ratio() {
        let p = linear_program(8, 1, 10, |_| EnablementMapping::Null);
        let r = run(p, 2, OverlapPolicy::strict());
        assert!(r.comp_to_mgmt_ratio().is_infinite());
        assert_eq!(r.idle_time(), 0);
    }

    // ------------------------------------------------------------------
    // data-proximity work assignment (E12 machinery)
    // ------------------------------------------------------------------

    use pax_sim::locality::{DataLayout, LocalityModel};
    use pax_sim::time::SimDuration;

    fn locality_machine(
        processors: usize,
        clusters: usize,
        remote_extra: u64,
        layout: DataLayout,
    ) -> MachineConfig {
        MachineConfig::ideal(processors).with_locality(
            LocalityModel::new(clusters, SimDuration(remote_extra)).with_layout(layout),
        )
    }

    fn run_on(program: Program, cfg: MachineConfig, policy: OverlapPolicy) -> RunReport {
        let mut sim = Simulation::new(cfg, policy);
        sim.add_job(program);
        sim.run().expect("run failed")
    }

    #[test]
    fn uniform_memory_reports_no_locality_traffic() {
        let p = linear_program(32, 1, 5, |_| EnablementMapping::Null);
        let r = run(p, 4, OverlapPolicy::strict());
        assert_eq!(r.local_granules, 0);
        assert_eq!(r.remote_granules, 0);
        assert_eq!(r.remote_stall, SimDuration::ZERO);
        assert_eq!(r.remote_fraction(), 0.0);
    }

    #[test]
    fn locality_accounts_every_granule() {
        let p = linear_program(96, 2, 5, |_| EnablementMapping::Identity);
        let cfg = locality_machine(4, 4, 3, DataLayout::Block);
        let r = run_on(p, cfg, OverlapPolicy::strict());
        assert_eq!(r.local_granules + r.remote_granules, 2 * 96);
        // stall is exactly remote_extra per remote granule, charged to
        // compute (workers occupied)
        assert_eq!(r.remote_stall.ticks(), 3 * r.remote_granules);
        let pure = 2 * 96 * 5;
        assert_eq!(r.compute_time.ticks(), pure + r.remote_stall.ticks());
    }

    #[test]
    fn proximity_assignment_beats_queue_order_under_drift() {
        // Jittered granule costs make queue-order assignment drift off the
        // initial (accidentally local) block alignment; the proximity scan
        // holds workers to their home blocks.
        let mut b = ProgramBuilder::new();
        let ids: Vec<PhaseId> = (0..4)
            .map(|i| {
                b.phase(PhaseDef::new(
                    format!("p{i}"),
                    256,
                    CostModel::new(pax_sim::dist::DurationDist::uniform(20, 60)),
                ))
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            if i + 1 < 4 {
                b.dispatch_enable(
                    id,
                    vec![EnableSpec {
                        successor: ids[i + 1],
                        mapping: EnablementMapping::Identity,
                    }],
                );
            } else {
                b.dispatch(id);
            }
        }
        let program = b.build().unwrap();
        let cfg = locality_machine(8, 4, 40, DataLayout::Block);

        let fifo = run_on(
            program.clone(),
            cfg.clone(),
            OverlapPolicy::overlap().with_assignment(AssignmentPolicy::QueueOrder),
        );
        let prox = run_on(
            program,
            cfg,
            OverlapPolicy::overlap()
                .with_assignment(AssignmentPolicy::DataProximity { scan_window: 32 }),
        );
        assert!(
            prox.remote_fraction() < fifo.remote_fraction(),
            "proximity must reduce remote traffic: {:.3} vs {:.3}",
            prox.remote_fraction(),
            fifo.remote_fraction()
        );
        assert!(
            prox.makespan <= fifo.makespan,
            "less stall must not lengthen the run: {} vs {}",
            prox.makespan,
            fifo.makespan
        );
        // Work conservation: both execute every granule.
        assert_eq!(prox.local_granules + prox.remote_granules, 4 * 256);
        assert_eq!(fifo.local_granules + fifo.remote_granules, 4 * 256);
    }

    #[test]
    fn proximity_without_locality_model_is_queue_order() {
        let p = linear_program(64, 2, 10, |_| EnablementMapping::Identity);
        let base = run(
            p.clone(),
            4,
            OverlapPolicy::overlap().with_assignment(AssignmentPolicy::QueueOrder),
        );
        let prox = run(
            p,
            4,
            OverlapPolicy::overlap()
                .with_assignment(AssignmentPolicy::DataProximity { scan_window: 16 }),
        );
        assert_eq!(base.makespan, prox.makespan);
        assert_eq!(base.tasks_dispatched, prox.tasks_dispatched);
        assert_eq!(prox.remote_granules, 0);
    }

    #[test]
    fn cyclic_layout_defeats_proximity_with_contiguous_tasks() {
        // Interleaved data: any contiguous multi-granule task straddles all
        // clusters, so proximity matching on the front granule cannot
        // reduce the remote fraction below (C-1)/C.
        let p = linear_program(256, 1, 10, |_| EnablementMapping::Null);
        let cfg = locality_machine(8, 4, 5, DataLayout::Cyclic);
        let r = run_on(
            p,
            cfg,
            OverlapPolicy::strict()
                .with_assignment(AssignmentPolicy::DataProximity { scan_window: 32 }),
        );
        let frac = r.remote_fraction();
        assert!(
            frac > 0.70,
            "cyclic layout should stay mostly remote, got {frac:.3}"
        );
    }

    #[test]
    fn zero_scan_window_degenerates_to_queue_order() {
        let p = linear_program(128, 2, 10, |_| EnablementMapping::Identity);
        let cfg = locality_machine(4, 2, 5, DataLayout::Block);
        let a = run_on(
            p.clone(),
            cfg.clone(),
            OverlapPolicy::overlap().with_assignment(AssignmentPolicy::QueueOrder),
        );
        let b = run_on(
            p,
            cfg,
            OverlapPolicy::overlap()
                .with_assignment(AssignmentPolicy::DataProximity { scan_window: 0 }),
        );
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.remote_granules, b.remote_granules);
    }

    #[test]
    fn locality_runs_deterministically() {
        let mk = || {
            let p = linear_program(200, 3, 15, |_| EnablementMapping::Identity);
            let cfg = locality_machine(8, 4, 10, DataLayout::Block);
            run_on(
                p,
                cfg,
                OverlapPolicy::overlap()
                    .with_assignment(AssignmentPolicy::DataProximity { scan_window: 16 }),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.remote_granules, b.remote_granules);
        assert_eq!(a.remote_stall, b.remote_stall);
    }

    #[test]
    fn uniform_class_matches_homogeneous_run() {
        // A single 100%-speed class covering every processor is the
        // homogeneous machine: same makespan, same compute, zero extra
        // RNG draws — only the report grows a class section.
        let p = linear_program(32, 2, 7, |_| EnablementMapping::Identity);
        let base = run(p.clone(), 4, OverlapPolicy::strict());
        let cfg = MachineConfig::ideal(4).with_classes(vec![ProcessorClass::new("base", 4, 100)]);
        let r = run_on(p, cfg, OverlapPolicy::strict());
        assert_eq!(r.makespan, base.makespan);
        assert_eq!(r.compute_time, base.compute_time);
        assert_eq!(r.tasks_dispatched, base.tasks_dispatched);
        assert!(base.class_reports.is_empty());
        assert_eq!(r.class_reports.len(), 1);
        assert_eq!(r.class_reports[0].tasks, r.tasks_dispatched);
        assert_eq!(r.class_reports[0].busy, r.compute_time);
    }

    #[test]
    fn slow_class_stretches_every_task() {
        // 8 granules × 10 ticks on one 50%-speed processor: each task
        // takes ceil(10·100/50) = 20 ticks → makespan 160, not 80.
        let p = linear_program(8, 1, 10, |_| EnablementMapping::Null);
        let cfg = MachineConfig::ideal(1).with_classes(vec![ProcessorClass::new("slow", 1, 50)]);
        let r = run_on(
            p,
            cfg,
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        assert_eq!(r.makespan.ticks(), 160);
        assert_eq!(r.class_reports[0].busy.ticks(), 160);
        assert_eq!(r.class_reports[0].tasks, 8);
    }

    #[test]
    fn fast_class_takes_more_work() {
        // One 200% processor and one 100% processor splitting 16
        // single-granule tasks of 10 ticks: the fast worker finishes
        // each task in 5 ticks and should clear about twice the tasks.
        let p = linear_program(16, 1, 10, |_| EnablementMapping::Null);
        let cfg = MachineConfig::ideal(2).with_classes(vec![
            ProcessorClass::new("fast", 1, 200),
            ProcessorClass::new("base", 1, 100),
        ]);
        let r = run_on(
            p,
            cfg,
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        let fast = &r.class_reports[0];
        let base = &r.class_reports[1];
        assert_eq!(fast.tasks + base.tasks, 16);
        assert!(
            fast.tasks > base.tasks,
            "fast class should clear more tasks: fast={} base={}",
            fast.tasks,
            base.tasks
        );
        // 16 granules, fast does ~2 per base task: optimum is ~53 ticks.
        assert!(r.makespan.ticks() < 80, "makespan {}", r.makespan.ticks());
    }

    #[test]
    fn affinity_keeps_elevated_only_class_off_normal_work() {
        // A strict run produces only Normal-queue descriptors, so an
        // ElevatedOnly class must sit idle while the NormalOnly class
        // does everything.
        let p = linear_program(12, 1, 10, |_| EnablementMapping::Null);
        let cfg = MachineConfig::ideal(2).with_classes(vec![
            ProcessorClass::new("helper", 1, 100).with_affinity(ClassAffinity::ElevatedOnly),
            ProcessorClass::new("main", 1, 100).with_affinity(ClassAffinity::NormalOnly),
        ]);
        let r = run_on(
            p,
            cfg,
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        assert_eq!(r.class_reports[0].tasks, 0);
        assert_eq!(r.class_reports[1].tasks, 12);
        assert_eq!(r.makespan.ticks(), 120);
    }

    #[test]
    fn single_token_pool_serializes_phase() {
        // 4 processors but one "operator" token: tasks of the gated
        // phase run one at a time. 4 granules × 10 ticks → 40 ticks.
        let mut b = ProgramBuilder::new();
        let id = b.phase(
            PhaseDef::new("gated", 4, CostModel::constant(10))
                .with_requires(vec!["operator".into()]),
        );
        b.dispatch(id);
        let p = b.build().unwrap();
        let cfg = MachineConfig::ideal(4).with_resources(vec![ResourcePool::new("operator", 1)]);
        let r = run_on(
            p,
            cfg,
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        assert_eq!(r.makespan.ticks(), 40);
        let pool = r.pool_report("operator").unwrap();
        assert_eq!(pool.tokens, 1);
        assert!(pool.waits > 0, "blocked dispatches should be counted");
        assert!(pool.wait_ticks.ticks() > 0);
    }

    #[test]
    fn unknown_pool_name_is_a_structured_error() {
        let mut b = ProgramBuilder::new();
        let id = b.phase(
            PhaseDef::new("gated", 4, CostModel::constant(10))
                .with_requires(vec!["nonexistent".into()]),
        );
        b.dispatch(id);
        let p = b.build().unwrap();
        let mut sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::strict());
        sim.add_job(p);
        match sim.run() {
            Err(EngineError::InvalidProgram(msg)) => {
                assert!(msg.contains("nonexistent"), "{msg}");
                assert!(msg.contains("gated"), "{msg}");
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
    }

    #[test]
    fn crash_returns_held_tokens() {
        // Processor 0 takes the only token, crashes permanently mid-task,
        // and never repairs. If the crash path leaked the token the
        // remaining processor could never dispatch the rest of the phase
        // and the run would deadlock instead of completing.
        use pax_sim::faults::{FaultPlan, ScriptedFault};
        let mut b = ProgramBuilder::new();
        let id = b.phase(
            PhaseDef::new("gated", 6, CostModel::constant(10))
                .with_requires(vec!["operator".into()]),
        );
        b.dispatch(id);
        let p = b.build().unwrap();
        let cfg = MachineConfig::ideal(2)
            .with_resources(vec![ResourcePool::new("operator", 1)])
            .with_faults(FaultPlan::scripted(vec![ScriptedFault {
                processor: 0,
                crash_at: 5,
                repair_after: None,
            }]));
        let r = run_on(
            p,
            cfg.clone(),
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        assert_eq!(r.crashes, 1);
        // All six granules execute (one is re-issued after the crash) on
        // the surviving processor, serialized by the token.
        assert_eq!(r.phases[0].stats.executed_granules, 6);
        // Deterministic: the same scenario reruns bit-identically.
        let mut again = Simulation::new(
            cfg,
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        again.add_job({
            let mut b = ProgramBuilder::new();
            let id = b.phase(
                PhaseDef::new("gated", 6, CostModel::constant(10))
                    .with_requires(vec!["operator".into()]),
            );
            b.dispatch(id);
            b.build().unwrap()
        });
        let r2 = again.run().unwrap();
        assert_eq!(r.makespan, r2.makespan);
        assert_eq!(r.lost_work, r2.lost_work);
        assert_eq!(
            r.pool_report("operator").unwrap().waits,
            r2.pool_report("operator").unwrap().waits
        );
    }

    #[test]
    fn parked_worker_crash_releases_park_slot() {
        // Worker 1 parks on the exhausted pool, then crashes while
        // parked (permanent). The run must still complete on worker 0
        // and pool wait accounting must close the park interval.
        use pax_sim::faults::{FaultPlan, ScriptedFault};
        let mut b = ProgramBuilder::new();
        let id = b.phase(
            PhaseDef::new("gated", 5, CostModel::constant(10))
                .with_requires(vec!["operator".into()]),
        );
        b.dispatch(id);
        let p = b.build().unwrap();
        let cfg = MachineConfig::ideal(2)
            .with_resources(vec![ResourcePool::new("operator", 1)])
            .with_faults(FaultPlan::scripted(vec![ScriptedFault {
                processor: 1,
                crash_at: 3,
                repair_after: None,
            }]));
        let r = run_on(
            p,
            cfg,
            OverlapPolicy::strict().with_sizing(crate::policy::TaskSizing::Fixed(1)),
        );
        assert_eq!(r.phases[0].stats.executed_granules, 5);
        assert_eq!(r.makespan.ticks(), 50);
    }
}
