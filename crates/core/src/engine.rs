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
//!   worker time (UNIVAC 1100) or on a dedicated processor. Every service
//!   round takes one calendar event; more lanes let more rounds' service
//!   overlap in simulated time, not more events per round.
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
use crate::mapping::{CompositeMap, MappingKind};
use crate::phase::PhaseStats;
use crate::policy::{AssignmentPolicy, OverlapPolicy, SplitStrategy};
use crate::program::Program;
use crate::queue::WaitingQueue;
use crate::rangeset::{coalesce_indices_into, RangeSet};
use crate::report::JobReport;
use pax_sim::dist::DurationDist;
use pax_sim::event::EventQueue;
use pax_sim::machine::{
    ClassAffinity, ExecutivePlacement, MachineConfig, ProcessorClass, ResourcePool,
};
use pax_sim::metrics::{GanttTrace, LevelSweep, Span};
use pax_sim::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::collections::VecDeque;
use std::mem::take;
use std::sync::Arc;

mod admission;
mod error;
mod faults;
mod interp;
mod overlap;
mod report;
mod session;

pub use error::EngineError;
use faults::FaultRt;
pub use session::{Session, Simulation};

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
    /// free list, its released set cleared in place, awaiting a new arrival.
    Evicted,
}

/// Enablement-counter state held by an initiated successor instance.
///
/// Two clocks meet here. The *simulated* executive constructs a composite
/// map for every initiated successor and pays `useful` entries of lane
/// time for it, immediately or in background chunks; until that is paid
/// `counters` is `None` and completions decrement nothing. The *host*
/// takes the map at initiation from the mapping itself
/// ([`EnablementMapping::composite`](crate::mapping::EnablementMapping::composite)),
/// which builds it once per payload: every instance initiated under one
/// mapping payload shares one constructed map.
#[derive(Debug)]
struct CounterState {
    /// The successor's composite granule map (decrements flow through
    /// it), shared with its mapping and with sibling instances.
    composite: Arc<CompositeMap>,
    /// Entries of `composite` that feed the early subset, counted once:
    /// what the executive is charged to build the map.
    useful: u64,
    /// Remaining requirement per successor granule of the early subset;
    /// `None` until the simulated build is done.
    counters: Option<Vec<u32>>,
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
    /// Granules given a description: released = completed ⊔ live, the
    /// ranges of `live_descs` being disjoint and inside it. The completed
    /// set is not kept; it is derived where read
    /// ([`Engine::completed_runs_into`]).
    released: RangeSet,
    live_descs: Vec<DescId>,
    predecessor: Option<InstanceId>,
    successor: Option<InstanceId>,
    enabled_by: Option<MappingKind>,
    counter_state: Option<CounterState>,
    stats: PhaseStats,
}

/// The run state of an admitted job: where its program stands and what
/// it has in flight. A job holds a slot only between admission and
/// finish; the slots live in [`Engine::runs`], taken from
/// [`Engine::free_runs`] by `admit_job` and handed back by `finish_job`
/// with their buffers kept, so the job table's cost follows the jobs in
/// flight and a warm service loop admits without allocating. What every
/// job keeps for the whole run is its report row
/// ([`Engine::reports`]) and its program ([`Engine::programs`]).
#[derive(Debug, Default)]
struct JobRun {
    pc: usize,
    counters: Vec<i64>,
    /// Successor instance initiated by overlap, keyed by the dispatch step
    /// it was predicted for.
    pending_successor: Option<(usize, InstanceId)>,
    pending_serial_gap: SimDuration,
    /// This job's instances, tracked only under eviction so completion
    /// can recycle them in O(own instances); the buffer stays with the
    /// slot for the next job.
    instances: Vec<InstanceId>,
}

/// The run slot of a job not admitted yet, or finished.
const NO_RUN: u32 = u32::MAX;

/// A job's row says it will run no more: finished, or shed.
fn job_done(row: &JobReport) -> bool {
    row.rejected || row.finished_at.is_some()
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
    /// Conflict-queue members drained at completion. Owned by the
    /// completion service while it re-queues them, so it must not be
    /// shared with paths reachable from completion processing —
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
    /// An instance's live ranges sorted by `lo`, for deriving its
    /// completed runs.
    live_ranges: Vec<GranuleRange>,
    /// Successor-splitting tiles: range plus the predecessor piece (if
    /// any) whose conflict queue receives it.
    pieces: Vec<(GranuleRange, Option<DescId>)>,
    /// The job's counter file, copied for the overlap lookahead to step.
    counters: Vec<i64>,
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
    /// once per program at engine build (names validated at session
    /// build); the jobs of a stream share their program's table.
    phase_pools: Vec<Arc<[Vec<u16>]>>,
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
    /// Each job's program, the simulation's vector as given: the jobs of
    /// an arrival stream share one, and the interpreter can hold the
    /// handle across `&mut self` calls without cloning payloads per step.
    programs: Vec<Arc<Program>>,
    /// Each job's report row, written as the job goes: `arrived_at` at
    /// build, `started_at` at admission, `finished_at` at finish,
    /// `rejected` on shed. The report takes the rows as they stand.
    reports: Vec<JobReport>,
    /// Each job's slot in `runs` while it is admitted, else [`NO_RUN`].
    run_of: Vec<u32>,
    /// Run slots, as many as jobs were ever in flight at once; those not
    /// in `free_runs` are held by the jobs admitted and not yet finished.
    runs: Vec<JobRun>,
    /// Slots of finished jobs, ready for the next admission.
    free_runs: Vec<u32>,
    /// Jobs neither finished nor shed: the run is over for the fault
    /// stream when this reaches zero.
    unfinished: usize,
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
    /// Processors computing, traced as the run goes: dispatch learns a
    /// task's start ahead of `now`, and each event round settles what
    /// `now` has passed. The executive is accounted by its totals only;
    /// the lanes' live level is the `exec_lanes` entries ending after
    /// `now`.
    computing: LevelSweep,
    compute_total: SimDuration,
    mgmt_total: SimDuration,
    serial_total: SimDuration,
    last_event_end: SimTime,
    gantt: GanttTrace,
    events_processed: u64,
    tasks_dispatched: u64,
    splits: u64,
    local_granules: u64,
    remote_granules: u64,
    remote_stall: SimDuration,
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
    /// The engine for a built simulation. Its busy trace is sized once
    /// from the tasks the jobs' programs declare
    /// ([`Program::declared_tasks`](crate::program::Program::declared_tasks),
    /// two points a task), so it records without growth copies; a job
    /// whose program declares nothing leaves it to grow as it goes.
    pub(crate) fn new(s: Simulation) -> Engine {
        debug_assert_eq!(
            s.programs.len(),
            s.arrivals.len(),
            "arrival instants parallel the job list"
        );
        debug_assert!(s.streams.is_empty(), "streams expanded before build");
        // The work the jobs declare sizes the busy trace (a task adds at
        // most one `+1` and one `−1` to it). A stream's jobs share one
        // program, walked once; loops are walked iteration by iteration,
        // and a job whose walk runs out of steps declares nothing.
        let declared_tasks = s.programs.chunk_by(Arc::ptr_eq).try_fold(0u64, |sum, run| {
            let tasks = run[0].declared_tasks(&s.policy, s.cfg.processors)?;
            Some(sum.saturating_add(tasks.saturating_mul(run.len() as u64)))
        });
        let trace_points = declared_tasks.map_or(0, |tasks| tasks.saturating_mul(2));
        let reports: Vec<JobReport> = s
            .arrivals
            .iter()
            .map(|&arrived_at| JobReport {
                arrived_at,
                started_at: SimTime::ZERO,
                finished_at: None,
                rejected: false,
            })
            .collect();
        let njobs = reports.len();
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
            // Resolve `requires` names to pool indices once per program
            // (a stream's jobs share one); unknown names were rejected by
            // `Simulation::validate`.
            let mut phase_pools: Vec<Arc<[Vec<u16>]>> = Vec::with_capacity(njobs);
            for run in s.programs.chunk_by(Arc::ptr_eq) {
                let resolved: Arc<[Vec<u16>]> = run[0]
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
                    .collect();
                phase_pools.extend(std::iter::repeat_n(resolved, run.len()));
            }
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
            programs: s.programs,
            reports,
            run_of: vec![NO_RUN; njobs],
            runs: Vec::new(),
            free_runs: Vec::new(),
            unfinished: njobs,
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
            computing: LevelSweep::expecting(trace_points),
            compute_total: SimDuration::ZERO,
            mgmt_total: SimDuration::ZERO,
            serial_total: SimDuration::ZERO,
            last_event_end: SimTime::ZERO,
            gantt: if s.gantt {
                GanttTrace::enabled()
            } else {
                GanttTrace::disabled()
            },
            events_processed: 0,
            tasks_dispatched: 0,
            splits: 0,
            local_granules: 0,
            remote_granules: 0,
            remote_stall: SimDuration::ZERO,
            deferred: VecDeque::new(),
            jobs_rejected: 0,
            evict: s.evict,
            free_instances: Vec::new(),
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
    /// earlier than `at`; returns when the service ends.
    fn exec_service(&mut self, at: SimTime, cost: SimDuration) -> SimTime {
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
        self.mgmt_total += cost;
        self.last_event_end = self.last_event_end.max(end);
        end
    }

    /// Like [`Engine::exec_service`] but accounted as *serial algorithm
    /// work* rather than management: the paper's null mappings arise from
    /// "serial actions and decisions" that are part of the computation,
    /// so they must not pollute the computation-to-management ratio.
    fn exec_service_serial(&mut self, at: SimTime, cost: SimDuration) -> SimTime {
        let end = self.exec_service(at, cost);
        if !cost.is_zero() {
            // move the charge from management to serial
            self.mgmt_total -= cost;
            self.serial_total += cost;
        }
        end
    }

    fn earliest_exec_free(&self) -> SimTime {
        self.exec_lanes.iter().copied().min().unwrap_or(self.now)
    }

    // ------------------------------------------------------------------
    // waiting-queue helpers
    // ------------------------------------------------------------------

    fn enqueue(&mut self, desc: DescId, class: QueueClass) {
        let job = self.arena.job(desc);
        self.arena.set_class(desc, class);
        self.arena.set_state(desc, DescState::Waiting);
        self.waiting.push_back(desc, class, job);
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

    #[inline]
    fn inst(&self, id: InstanceId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    #[inline]
    fn inst_mut(&mut self, id: InstanceId) -> &mut Instance {
        &mut self.instances[id.0 as usize]
    }

    /// The run slot of admitted job `job`.
    #[inline]
    fn run(&self, job: usize) -> &JobRun {
        debug_assert_ne!(self.run_of[job], NO_RUN, "job {job} is not admitted");
        &self.runs[self.run_of[job] as usize]
    }

    #[inline]
    fn run_mut(&mut self, job: usize) -> &mut JobRun {
        debug_assert_ne!(self.run_of[job], NO_RUN, "job {job} is not admitted");
        &mut self.runs[self.run_of[job] as usize]
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
                self.enqueue(d, class);
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
            self.enqueue(d, class);
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
        let svc_end = self.exec_service(self.now, cost);
        let overlapping = self
            .inst(inst_id)
            .predecessor
            .map(|p| self.inst(p).state != InstState::Complete)
            .unwrap_or(false);
        self.arena.set_state(d, DescState::Running(w));
        self.arena.set_overlap(d, overlapping);
        let start = svc_end;
        let end = start + exec;
        // The matching `-1` is added when the completion is serviced (or
        // a crash preempts the task): the sweep is fed in time order.
        self.computing.add(start, 1);
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
                phase: inst_id.0,
                lo: range.lo,
                hi: range.hi,
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
        // Disjoint field borrows: the model stays borrowed from `programs`
        // while the RNG advances, so nothing is cloned per dispatch.
        let model = &self.programs[inst.job].phases[inst.def.0 as usize].cost;
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

    /// Service worker `w`'s non-stale completion of `d`: merge the range
    /// back, release the conflict queue, decrement the successor's
    /// enablement counters, complete the instance if it drained, and
    /// charge the lot as one executive service before `w` seeks again.
    fn service_completion(&mut self, w: WorkerId, d: DescId) {
        if let Some(f) = self.faults.as_mut() {
            f.running[w.0 as usize] = None;
            // Forget the reissue budget: the descriptor id can be
            // recycled by the arena after release.
            if let Some(pos) = f.attempts.iter().position(|&(id, _)| id == d) {
                f.attempts.swap_remove(pos);
            }
        }
        // A non-stale completion is serviced at the task's end.
        self.computing.add(self.now, -1);
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
        let mut wakeups = take(&mut self.scratch.wakeups);
        self.arena.cq_drain_into(d, &mut wakeups);
        let rclass = self.released_class();
        for &m in &wakeups {
            cost += self.cfg.costs.release;
            self.enqueue(m, rclass);
        }
        wakeups.clear();
        self.scratch.wakeups = wakeups;

        // Status bit: decrement enablement counters of the successor.
        if enabling {
            if let Some(succ_id) = self.inst(inst_id).successor {
                self.apply_decrements(succ_id, &[range], &mut cost);
            }
        }

        self.arena.release(d);

        if self.inst(inst_id).remaining == 0 && self.inst(inst_id).state == InstState::Current {
            self.complete_instance(inst_id, &mut cost);
        }

        let svc_end = self.exec_service(self.now, cost);
        let seek_at = match self.cfg.executive {
            ExecutivePlacement::StealsWorker => svc_end,
            ExecutivePlacement::Dedicated => self.now,
        };
        self.events.schedule(seek_at, Ev::Seek(w));
    }

    /// Decrement `succ_id`'s enablement counters for the completed
    /// predecessor runs `done`, and release the granules that reach zero,
    /// coalesced across all of `done`.
    fn apply_decrements(
        &mut self,
        succ_id: InstanceId,
        done: &[GranuleRange],
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
            let Some(counters) = cs.counters.as_mut() else {
                self.scratch.freed = freed;
                return; // map not built yet; build applies these later
            };
            let early = cs.early_limit;
            for run in done {
                for g in run.iter() {
                    for &r in cs.composite.dependents_of(g) {
                        if r < early {
                            let c = &mut counters[r as usize];
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

    // ------------------------------------------------------------------
    // run loop
    // ------------------------------------------------------------------

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

    /// Handle one calendar event due at `t`.
    fn process(&mut self, t: SimTime, ev: Ev) {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.events_processed += 1;
        match ev {
            Ev::TaskDone { worker, desc } => {
                if !self.task_done_is_stale(worker, desc) {
                    self.service_completion(worker, desc);
                }
            }
            Ev::Seek(w) => self.on_seek(w),
            Ev::ExecKick => self.on_exec_kick(),
            Ev::SerialDone { job } => self.on_serial_done(job),
            Ev::Crash { worker } => self.on_crash(worker),
            Ev::Repair { worker } => self.on_repair(worker),
        }
    }

    /// Admit arrivals and drain events due at or before `limit` (all that
    /// remain when `None`). Returns `true` when neither the feed nor the
    /// calendar holds anything afterwards.
    ///
    /// Each round admits one due arrival or services one calendar event.
    /// Pausing between windows mutates no engine state and a round never
    /// spans two events, so chopping a run into windows at *any*
    /// boundaries is result-invariant — the property the sharded drivers'
    /// determinism contract rests on.
    pub(crate) fn run_window(&mut self, limit: Option<SimTime>) -> bool {
        loop {
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
                let (t, ev) = self.events.pop().expect("peeked event must pop");
                self.process(t, ev);
            }
        }
    }
}

#[cfg(test)]
mod tests;
