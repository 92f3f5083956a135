//! Sharded drive of multi-group simulations under conservative
//! epoch-barrier synchronization.
//!
//! ## Why the shard unit is the machine *group*, not the job
//!
//! Jobs sharing one simulated machine are coupled through shared state a
//! serial executive makes global by construction: the round-robin
//! waiting-computation queue, the idle-worker stack, the executive lane
//! timeline, and the run's RNG stream. Splitting *inside* a machine while
//! keeping bit-identical results would require replaying exactly the
//! single-thread interleaving — i.e. not parallelism. The indivisible
//! unit this module distributes is therefore the **group**: one replica
//! of the configured machine plus the jobs submitted to it
//! ([`crate::engine::Simulation::add_job_in_group`]). Group `g` is owned
//! by shard `g % S`, and each shard drains its groups' calendars
//! independently.
//!
//! ## Conservative epochs
//!
//! Groups interact only through **admission edges**
//! ([`crate::engine::Simulation::link_groups`]): group `succ` starts
//! `latency ≥ 1` ticks after the last job of `pred` finishes. A
//! [`Coordinator`] derives each epoch's window from those latencies: the
//! window never extends past the earliest instant any unadmitted group
//! could possibly be admitted (every pred's progress lower bound plus its
//! edge latency, relaxed transitively), so no shard can observe an
//! admission "from the past". Each shard drains events up to the window
//! and deposits progress/finish notes in its **outbox**; the coordinator
//! absorbs them, decides admissions, and plans the next window.
//!
//! ## One loop, two executors
//!
//! That sequence — plan, pause at the caller's limit or clip the window
//! to it, run the epoch — is written once, in [`ShardedRun`];
//! [`Simulation::run`], a stepped [`crate::engine::Session`] and
//! `pax-runtime`'s `ThreadedSession` all go through it, a single-group
//! simulation as its 1-group case. It is parameterised only by its
//! [`Executor`], which runs an epoch whole: route the admissions the
//! coordinator decided to their shards, drain each shard up to the
//! window, have the coordinator absorb the notes. This module owns the
//! loop and the calling-thread executor (`Vec<ShardEngine>`);
//! `pax-runtime` owns the other, which gives every shard a worker thread
//! and sends it one command and takes one reply per epoch over channels,
//! at every shard count, and nothing else of the protocol.
//!
//! ## Determinism contract
//!
//! Every shard count — including pathological ones like 3 — produces a
//! bit-identical [`RunReport`]:
//!
//! * each group runs on its own `Engine` in **local time** (global time
//!   = admission time + local time), and chopping an engine's drive loop
//!   into windows at any boundaries is result-invariant (see
//!   `Engine::run_window`);
//! * admission times are computed *exactly* (pred's global finish +
//!   latency), never quantized to a barrier, so they are independent of
//!   the epoch schedule;
//! * per-group RNG streams are split deterministically from the scenario
//!   seed (`group_seed`: group 0 keeps the seed unchanged, so
//!   single-group runs reproduce the classic engine bit-for-bit; group
//!   `g > 0` gets a splitmix64-derived stream).
//!
//! The contract covers the whole report: [`RunReport`] is `Eq`, and the
//! suites compare reports with `==`, no field excepted.
//!
//! ## Merged report conventions
//!
//! A single-group run's report passes through untouched. A multi-group
//! merge models a *fleet* of `G` machine replicas: `processors` is the
//! per-group count times `G`; totals (events, compute/management time,
//! descriptor counts) are sums — `descriptors_peak` sums per-group peaks,
//! an upper bound on the true fleet-wide peak; step traces are re-based
//! to global time and superimposed; `phases` are listed group by group
//! with `job` remapped to the original submission index; per-worker Gantt
//! traces are not merged (`gantt: None`) since worker ids would collide
//! across replicas.
//!
//! Known flaw: jobs and traces are global, but each phase's
//! [`PhaseStats`](crate::phase::PhaseStats) instants stay in its group's
//! *local* time, and the report does not carry the group's admission
//! offset. So [`RunReport::rundown_of`] on a phase of a group admitted
//! after `t = 0` reads the wrong window of the global busy trace. (Two
//! 16-granule groups linked at latency 100: job 1 runs 140 → 180, its
//! phase reports 0 → 40, and `rundown_of(1)` returns 0..40 with 160 idle
//! ticks.)

use crate::engine::{Engine, EngineError, Simulation};
use crate::ids::InstanceId;
use crate::report::{JobReport, RunReport};
use pax_sim::metrics::StepTrace;
use pax_sim::time::{SimDuration, SimTime};
use std::mem::take;
use std::sync::Arc;

/// An admission edge between machine groups: `succ` starts `latency`
/// ticks after the last job of `pred` finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLink {
    /// Gating group.
    pub pred: usize,
    /// Gated group.
    pub succ: usize,
    /// Admission delay past `pred`'s finish (≥ 1 tick; the minimum over
    /// all edges bounds how short a conservative epoch can get).
    pub latency: SimDuration,
}

/// Deterministic per-group RNG seed: group 0 keeps the scenario seed (so
/// single-group runs match the classic engine exactly); higher groups get
/// independent streams through [`pax_sim::mix_seed`].
pub(crate) fn group_seed(seed: u64, group: usize) -> u64 {
    if group == 0 {
        return seed;
    }
    pax_sim::mix_seed(seed ^ (group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One epoch's progress report for one group, deposited in the owning
/// shard's outbox and absorbed by the [`Coordinator`] at the barrier.
#[derive(Debug, Clone, Copy)]
pub struct GroupNote {
    /// Group index.
    pub group: usize,
    /// Global finish time, once the group's calendar drained.
    pub finished: Option<SimTime>,
    /// Lower bound on the group's next activity in global time (its next
    /// pending event, or its finish). Monotonically non-decreasing; the
    /// coordinator grows epoch windows from these.
    pub lower_bound: SimTime,
}

/// One group's runtime state inside a shard.
struct GroupCell {
    group: usize,
    engine: Engine,
    /// Global admission time; `None` until every pred finished.
    admit: Option<SimTime>,
    started: bool,
    finished: Option<SimTime>,
}

/// The per-shard half of the sharded engine: owns the `Engine`s of the
/// groups assigned to this shard and drains them window by window.
///
/// `Send` by construction (engines are plain owned state), so the
/// threaded driver in `pax-runtime` can move one per worker thread.
pub struct ShardEngine {
    cells: Vec<GroupCell>,
    /// Reused across epochs — cleared at the top of [`ShardEngine::run_window`],
    /// never shrunk, so steady-state epochs allocate nothing.
    outbox: Vec<GroupNote>,
}

impl ShardEngine {
    /// Deliver an admission decided by the coordinator: group `group`
    /// (owned by this shard) starts at global time `admit`.
    pub fn deliver(&mut self, group: usize, admit: SimTime) {
        let cell = self
            .cells
            .iter_mut()
            .find(|c| c.group == group)
            .expect("admission delivered to the wrong shard");
        debug_assert!(cell.admit.is_none(), "group admitted twice");
        cell.admit = Some(admit);
    }

    /// Drain every admitted, unfinished group up to the global `window`
    /// (unbounded when `None`), depositing one [`GroupNote`] per such
    /// group in the outbox.
    pub fn run_window(&mut self, window: Option<SimTime>) {
        self.outbox.clear();
        for cell in &mut self.cells {
            let Some(admit) = cell.admit else { continue };
            if cell.finished.is_some() {
                continue;
            }
            if let Some(w) = window {
                if w < admit {
                    // Admitted beyond this epoch's window: nothing to
                    // drain yet; its own admission time bounds it.
                    self.outbox.push(GroupNote {
                        group: cell.group,
                        finished: None,
                        lower_bound: admit,
                    });
                    continue;
                }
            }
            if !cell.started {
                cell.engine.start();
                cell.started = true;
            }
            // The engine runs in local time; the window converts by the
            // admission offset.
            let local_limit = window.map(|w| SimTime(w.0 - admit.0));
            let drained = cell.engine.run_window(local_limit);
            let note = if drained {
                let fin = SimTime(admit.0 + cell.engine.frontier().0);
                cell.finished = Some(fin);
                GroupNote {
                    group: cell.group,
                    finished: Some(fin),
                    lower_bound: fin,
                }
            } else {
                let next = cell
                    .engine
                    .next_event_time()
                    .expect("an undrained engine has a next arrival or event");
                GroupNote {
                    group: cell.group,
                    finished: None,
                    lower_bound: SimTime(admit.0 + next.0),
                }
            };
            self.outbox.push(note);
        }
    }

    /// The notes deposited by the last [`ShardEngine::run_window`] call.
    pub fn notes(&self) -> &[GroupNote] {
        &self.outbox
    }
}

/// What the coordinator decided for the next epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochPlan {
    /// Every group finished; merge and report.
    Done,
    /// No admitted group is still running, yet these groups can never be
    /// admitted (an admission cycle) — the fleet-level deadlock.
    Stuck {
        /// Groups whose admission can never happen.
        unadmitted: Vec<usize>,
    },
    /// Run one more epoch up to `window` (unbounded when every group is
    /// already admitted).
    Run {
        /// Conservative global window: no unadmitted group can possibly
        /// be admitted at or before it... minus one tick (windows end
        /// strictly before the earliest possible admission instant never
        /// matters because admissions take effect at the *next* epoch
        /// with their exact timestamp).
        window: Option<SimTime>,
    },
}

/// The epoch coordinator: tracks per-group admission/finish state,
/// absorbs shard outboxes at each barrier, decides admissions, and plans
/// the next window.
#[derive(Debug)]
pub struct Coordinator {
    links: Vec<GroupLink>,
    /// Machine group of every job, by submission index (restores global
    /// job numbering in the merged report; empty for a lone group, whose
    /// report passes through unmerged).
    job_groups: Vec<usize>,
    processors_per_group: usize,
    admitted: Vec<Option<SimTime>>,
    finished: Vec<Option<SimTime>>,
    /// Last reported global progress lower bound per group.
    lower_bound: Vec<SimTime>,
    /// Admissions decided but not yet delivered to the owning shard.
    pending: Vec<(usize, SimTime)>,
    /// Scratch for window relaxation, reused across epochs.
    est: Vec<Option<SimTime>>,
}

impl Coordinator {
    fn n_groups(&self) -> usize {
        self.finished.len()
    }

    /// Submission indices of the jobs in `group`, in submission order.
    fn jobs_of(&self, group: usize) -> impl Iterator<Item = usize> + '_ {
        let of_group = move |(job, &g): (usize, &usize)| (g == group).then_some(job);
        self.job_groups.iter().enumerate().filter_map(of_group)
    }

    /// When `g` starts if each of its preds finishes at `finish(pred)`:
    /// the latest finish + edge latency (`t = 0` for a group no edge
    /// points at), or `None` while some pred's finish is unknown.
    fn start_after(&self, g: usize, finish: impl Fn(usize) -> Option<SimTime>) -> Option<SimTime> {
        let mut preds = self.links.iter().filter(|l| l.succ == g);
        preds.try_fold(SimTime::ZERO, |at, l| {
            Some(at.max(finish(l.pred)? + l.latency))
        })
    }

    /// Absorb one shard's epoch notes.
    pub fn absorb(&mut self, notes: &[GroupNote]) {
        for n in notes {
            let g = n.group;
            self.lower_bound[g] = self.lower_bound[g].max(n.lower_bound);
            if let Some(fin) = n.finished {
                debug_assert!(self.finished[g].is_none(), "group finished twice");
                self.finished[g] = Some(fin);
            }
        }
        // Decide admissions enabled by newly finished preds. Admission
        // times are exact — max over incoming edges of finish + latency —
        // and independent of the epoch schedule.
        for g in 0..self.n_groups() {
            if self.admitted[g].is_some() {
                continue;
            }
            if let Some(at) = self.start_after(g, |pred| self.finished[pred]) {
                self.admitted[g] = Some(at);
                self.pending.push((g, at));
            }
        }
    }

    /// Move decided-but-undelivered admissions into `into` as
    /// `(group, admit_time)` pairs; the driver (an [`Executor`], at the
    /// top of its next epoch) routes each to shard `group % shard_count`.
    pub fn drain_admissions(&mut self, into: &mut Vec<(usize, SimTime)>) {
        into.append(&mut self.pending);
    }

    /// True when no group has any activity at or before `limit` left:
    /// each is finished, admitted with its next event past the limit, or
    /// gated behind a pred whose own entry gates the pause. The windowed
    /// drivers poll this to pause a `step_until` mid-run.
    pub fn paused_past(&self, limit: SimTime) -> bool {
        (0..self.n_groups()).all(|g| {
            self.finished[g].is_some()
                || match self.admitted[g] {
                    Some(at) => self.lower_bound[g].max(at) > limit,
                    None => true,
                }
        })
    }

    /// Plan the next epoch.
    pub fn plan(&mut self) -> EpochPlan {
        let n = self.n_groups();
        if self.finished.iter().all(|f| f.is_some()) {
            return EpochPlan::Done;
        }
        let running = (0..n).any(|g| self.admitted[g].is_some() && self.finished[g].is_none());
        let has_pending = !self.pending.is_empty();
        if !running && !has_pending {
            let unadmitted: Vec<usize> = (0..n).filter(|&g| self.admitted[g].is_none()).collect();
            return EpochPlan::Stuck { unadmitted };
        }
        if (0..n).all(|g| self.admitted[g].is_some()) {
            // Nothing left to admit: every engine can run to completion.
            return EpochPlan::Run { window: None };
        }
        // Relax per-group finish lower bounds: exact finishes where known,
        // reported progress bounds for running groups, and for unadmitted
        // groups the transitive earliest-possible admission (finish ≥
        // admission). `latency ≥ 1` makes every edge strictly increasing,
        // so the fixpoint is reached in ≤ n passes on any DAG; cycle
        // members stay `None` and simply never bound the window.
        self.est.clear();
        for g in 0..n {
            self.est.push(match (self.admitted[g], self.finished[g]) {
                (_, Some(fin)) => Some(fin),
                (Some(_), None) => Some(self.lower_bound[g]),
                (None, None) => None,
            });
        }
        for _ in 0..n {
            let mut changed = false;
            for g in 0..n {
                if self.admitted[g].is_some() || self.est[g].is_some() {
                    continue;
                }
                if let Some(at) = self.start_after(g, |pred| self.est[pred]) {
                    self.est[g] = Some(at);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let window = (0..n)
            .filter(|&g| self.admitted[g].is_none())
            .filter_map(|g| self.est[g])
            .min();
        // Unadmittable-only remainder (cycle members): let the admitted
        // engines run unbounded; the next plan reports Stuck or Done.
        EpochPlan::Run { window }
    }

    /// Merge the finished shard engines into one [`RunReport`].
    ///
    /// Call only after [`Coordinator::plan`] returned [`EpochPlan::Done`]
    /// (the drivers do); single-group runs pass through untouched.
    pub fn finish(self, shards: Vec<ShardEngine>) -> Result<RunReport, EngineError> {
        let n = self.n_groups();
        let mut cells: Vec<GroupCell> = shards.into_iter().flat_map(|s| s.cells).collect();
        cells.sort_by_key(|c| c.group);
        debug_assert_eq!(cells.len(), n, "every group has exactly one cell");
        if n == 1 {
            return cells.remove(0).engine.finish();
        }
        let mut merged: Option<RunReport> = None;
        // Each group's traces with the group's admission instant, the
        // offset of its local timeline on the fleet's.
        let mut busy: Vec<(StepTrace, SimDuration)> = Vec::with_capacity(n);
        let mut avail: Vec<(StepTrace, SimDuration)> = Vec::with_capacity(n);
        let mut jobs: Vec<Option<JobReport>> = self.job_groups.iter().map(|_| None).collect();
        for cell in cells {
            let g = cell.group;
            let admit = cell
                .admit
                .expect("finish called with an unadmitted group")
                .0;
            let job_map: Vec<usize> = self.jobs_of(g).collect();
            let mut report = cell.engine.finish().map_err(|e| match e {
                EngineError::Deadlock {
                    unfinished_jobs,
                    detail,
                } => EngineError::Deadlock {
                    unfinished_jobs: unfinished_jobs.iter().map(|&j| job_map[j]).collect(),
                    detail: format!("machine group {g}: {detail}"),
                },
                EngineError::JobAborted { job, detail } => EngineError::JobAborted {
                    job: job_map[job],
                    detail: format!("machine group {g}: {detail}"),
                },
                other => other,
            })?;
            busy.push((take(&mut report.busy_trace), SimDuration(admit)));
            avail.push((take(&mut report.avail_trace), SimDuration(admit)));
            for (j, jr) in report.jobs.iter().enumerate() {
                jobs[job_map[j]] = Some(JobReport {
                    arrived_at: SimTime(admit + jr.arrived_at.0),
                    started_at: SimTime(admit + jr.started_at.0),
                    finished_at: jr.finished_at.map(|f| SimTime(admit + f.0)),
                    rejected: jr.rejected,
                });
            }
            let acc = match merged.as_mut() {
                None => {
                    let mut first = report;
                    first.processors = self.processors_per_group * n;
                    first.makespan = SimDuration(admit + first.makespan.0);
                    first.gantt = None;
                    rewrite_phases(&mut first.phases, 0, &job_map);
                    merged = Some(first);
                    continue;
                }
                Some(acc) => acc,
            };
            acc.makespan = SimDuration(acc.makespan.0.max(admit + report.makespan.0));
            acc.compute_time += report.compute_time;
            acc.lost_work += report.lost_work;
            acc.retries += report.retries;
            acc.crashes += report.crashes;
            acc.mgmt_time += report.mgmt_time;
            acc.serial_time += report.serial_time;
            acc.remote_stall += report.remote_stall;
            acc.events += report.events;
            acc.tasks_dispatched += report.tasks_dispatched;
            acc.splits += report.splits;
            acc.local_granules += report.local_granules;
            acc.remote_granules += report.remote_granules;
            acc.descriptors_created += report.descriptors_created;
            acc.descriptors_peak += report.descriptors_peak;
            acc.jobs_rejected += report.jobs_rejected;
            acc.instances_peak += report.instances_peak;
            for (a, r) in acc.class_reports.iter_mut().zip(&report.class_reports) {
                a.processors += r.processors;
                a.busy += r.busy;
                a.tasks += r.tasks;
            }
            for (a, r) in acc.pool_reports.iter_mut().zip(&report.pool_reports) {
                a.waits += r.waits;
                a.wait_ticks += r.wait_ticks;
            }
            let instance_base = acc.phases.len() as u32;
            let mut phases = report.phases;
            rewrite_phases(&mut phases, instance_base, &job_map);
            acc.phases.append(&mut phases);
        }
        let mut acc = merged.expect("at least one group");
        acc.busy_trace = StepTrace::superimpose(&busy);
        acc.avail_trace = StepTrace::superimpose(&avail);
        acc.jobs = jobs
            .into_iter()
            .map(|j| j.expect("every job reported"))
            .collect();
        Ok(acc)
    }
}

fn rewrite_phases(
    phases: &mut [crate::report::PhaseReport],
    instance_base: u32,
    job_map: &[usize],
) {
    for (i, p) in phases.iter_mut().enumerate() {
        p.instance = InstanceId(instance_base + i as u32);
        p.job = job_map[p.job as usize] as u32;
    }
}

/// How a [`ShardedRun`] executes one epoch's shards and gets the shard
/// engines back for the merge — the only thing its drivers differ in.
pub trait Executor {
    /// Deliver the admissions `coordinator` decided since the last epoch
    /// ([`Coordinator::drain_admissions`]) to their shards — group `g` to
    /// shard `g % shard count`, through [`ShardEngine::deliver`] — then
    /// drain every shard up to `window` ([`ShardEngine::run_window`]) and
    /// have `coordinator` absorb the notes each one deposited.
    fn run_epoch(
        &mut self,
        window: Option<SimTime>,
        coordinator: &mut Coordinator,
    ) -> Result<(), EngineError>;

    /// Stop executing and hand the shard engines back, in shard order.
    fn take_shards(&mut self) -> Result<Vec<ShardEngine>, EngineError>;
}

/// The calling-thread executor: every epoch's shards run in shard order
/// on the thread that drives the run.
impl Executor for Vec<ShardEngine> {
    fn run_epoch(
        &mut self,
        window: Option<SimTime>,
        coordinator: &mut Coordinator,
    ) -> Result<(), EngineError> {
        let shard_count = self.len();
        for (group, admit) in coordinator.pending.drain(..) {
            self[group % shard_count].deliver(group, admit);
        }
        for s in self.iter_mut() {
            s.run_window(window);
            coordinator.absorb(s.notes());
        }
        Ok(())
    }

    fn take_shards(&mut self) -> Result<Vec<ShardEngine>, EngineError> {
        Ok(take(self))
    }
}

/// A decomposed simulation and the one implementation of its drive: the
/// epoch [`Coordinator`] plus the [`Executor`] holding the shard engines.
pub struct ShardedRun<X = Vec<ShardEngine>> {
    coordinator: Coordinator,
    executor: X,
}

impl ShardedRun {
    /// Split into the coordinator and the shard engines, for a caller
    /// that drives the epochs itself.
    pub fn into_parts(self) -> (Coordinator, Vec<ShardEngine>) {
        (self.coordinator, self.executor)
    }

    /// The same run, its shard engines handed to the executor `make`
    /// builds from them.
    pub fn with_executor<X: Executor>(
        self,
        make: impl FnOnce(Vec<ShardEngine>) -> X,
    ) -> ShardedRun<X> {
        ShardedRun {
            coordinator: self.coordinator,
            executor: make(self.executor),
        }
    }
}

impl<X: Executor> ShardedRun<X> {
    /// Drain every event due at or before global time `limit`. Returns
    /// `Ok(true)` once the simulation has fully run down — no pending
    /// events and no pending admissions remain at any time — `Ok(false)`
    /// when it paused at the limit with work left.
    ///
    /// The epoch schedule a limited drive produces differs from the
    /// unbounded one, but window boundaries are result-invariant (see
    /// `Engine::run_window`) and admission times are exact, so the final
    /// report is bit-identical no matter how the drive was chopped.
    pub fn step_until(&mut self, limit: SimTime) -> Result<bool, EngineError> {
        self.drive(Some(limit))
    }

    /// Run to completion (equivalent to `step_until(∞)`).
    pub fn drain(&mut self) -> Result<(), EngineError> {
        self.drive(None).map(|_| ())
    }

    /// Finish: drain any remaining work, take the shard engines back
    /// from the executor, run the deadlock checks, and merge the final
    /// [`RunReport`].
    pub fn report(mut self) -> Result<RunReport, EngineError> {
        self.drain()?;
        let shards = self.executor.take_shards()?;
        self.coordinator.finish(shards)
    }

    /// The epoch loop. `limit` bounds the drive (`None`: to completion).
    fn drive(&mut self, limit: Option<SimTime>) -> Result<bool, EngineError> {
        loop {
            let window = match self.coordinator.plan() {
                EpochPlan::Done => return Ok(true),
                EpochPlan::Stuck { unadmitted } => {
                    return Err(stuck_error(&self.coordinator, &unadmitted));
                }
                EpochPlan::Run { window } => window,
            };
            if limit.is_some_and(|l| self.coordinator.paused_past(l)) {
                return Ok(false);
            }
            let window = match (window, limit) {
                (Some(w), Some(l)) => Some(w.min(l)),
                (w, l) => w.or(l),
            };
            self.executor.run_epoch(window, &mut self.coordinator)?;
        }
    }
}

impl Simulation {
    /// Decompose into per-group engines distributed over
    /// `cfg.shards.shards` shards (clamped to the group count) plus the
    /// epoch [`Coordinator`]: expands arrival streams, then validates the
    /// machine configuration, the programs, group density, and admission
    /// edges — once each; every session is built through here.
    pub fn into_sharded(mut self) -> Result<ShardedRun, EngineError> {
        self.expand_streams();
        self.cfg.validate().map_err(EngineError::InvalidConfig)?;
        self.validate()?;
        let n_groups = self.groups.iter().copied().max().unwrap_or(0) + 1;
        // A lone group is dense by construction; several are checked in
        // one pass over the jobs.
        if n_groups > 1 {
            let mut has_jobs = vec![false; n_groups];
            for &g in &self.groups {
                has_jobs[g] = true;
            }
            if let Some(g) = has_jobs.iter().position(|&has| !has) {
                return Err(EngineError::InvalidProgram(format!(
                    "machine group {g} has no jobs (group indices must be dense)"
                )));
            }
        }
        for l in &self.links {
            let fault = if l.pred >= n_groups || l.succ >= n_groups {
                "names a group with no jobs"
            } else if l.pred == l.succ {
                "gates a group on itself"
            } else if l.latency < SimDuration(1) {
                "has zero latency (the minimum is one tick)"
            } else {
                continue;
            };
            return Err(EngineError::InvalidProgram(format!(
                "admission edge {} -> {} {fault}",
                l.pred, l.succ
            )));
        }
        let shard_count = self.cfg.shards.shards.max(1).min(n_groups);
        let processors_per_group = self.cfg.processors;
        let links = take(&mut self.links);
        // A group no edge points at starts at t = 0; the rest wait.
        let admitted: Vec<Option<SimTime>> = (0..n_groups)
            .map(|g| (!links.iter().any(|l| l.succ == g)).then_some(SimTime::ZERO))
            .collect();
        let mut shards: Vec<ShardEngine> = (0..shard_count)
            .map(|_| ShardEngine {
                cells: Vec::new(),
                outbox: Vec::new(),
            })
            .collect();
        let mut place = |g: usize, engine: Engine| {
            shards[g % shard_count].cells.push(GroupCell {
                group: g,
                engine,
                admit: admitted[g],
                started: false,
                finished: None,
            });
        };
        // Only a merge renumbers jobs: a lone group keeps no job → group
        // map (32 KB a 4 000-job session, 8 page faults a set-up).
        let mut job_groups = Vec::new();
        if n_groups == 1 {
            // A lone group is the simulation itself (group 0 keeps the
            // seed): its engine takes the job vectors whole.
            place(0, Engine::new(self));
        } else {
            job_groups = take(&mut self.groups);
            // Per-group sub-simulations: same machine/policy, jobs in
            // submission order, deterministically split RNG streams.
            let mut programs: Vec<Vec<Arc<crate::program::Program>>> =
                (0..n_groups).map(|_| Vec::new()).collect();
            // Arrival instants are local to each group's timeline (global
            // arrival = admission + local arrival), so they partition with
            // the jobs unchanged — shard-count invariant by construction.
            let mut arrivals: Vec<Vec<SimTime>> = (0..n_groups).map(|_| Vec::new()).collect();
            for ((program, at), &g) in self
                .programs
                .into_iter()
                .zip(self.arrivals)
                .zip(&job_groups)
            {
                arrivals[g].push(at);
                programs[g].push(program);
            }
            for (g, (group_programs, group_arrivals)) in
                programs.into_iter().zip(arrivals).enumerate()
            {
                let sub = Simulation {
                    cfg: self.cfg.clone(),
                    policy: self.policy.clone(),
                    groups: Vec::new(),
                    programs: group_programs,
                    arrivals: group_arrivals,
                    streams: Vec::new(),
                    evict: self.evict,
                    links: Vec::new(),
                    seed: group_seed(self.seed, g),
                    gantt: self.gantt,
                };
                place(g, Engine::new(sub));
            }
        }
        let coordinator = Coordinator {
            links,
            job_groups,
            processors_per_group,
            finished: vec![None; n_groups],
            lower_bound: vec![SimTime::ZERO; n_groups],
            pending: Vec::new(),
            est: Vec::with_capacity(n_groups),
            admitted,
        };
        Ok(ShardedRun {
            coordinator,
            executor: shards,
        })
    }
}

/// Build the fleet-level deadlock error for an admission cycle.
pub fn stuck_error(coordinator: &Coordinator, unadmitted: &[usize]) -> EngineError {
    let unfinished_jobs: Vec<usize> = unadmitted
        .iter()
        .flat_map(|&g| coordinator.jobs_of(g))
        .collect();
    EngineError::Deadlock {
        unfinished_jobs,
        detail: format!(
            "machine groups {unadmitted:?} can never be admitted \
             (admission-edge cycle or a pred that deadlocked)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::EnablementMapping;
    use crate::phase::PhaseDef;
    use crate::policy::OverlapPolicy;
    use crate::program::Program;
    use pax_sim::dist::CostModel;
    use pax_sim::machine::MachineConfig;

    #[test]
    fn group_seed_splits_deterministically() {
        assert_eq!(group_seed(7, 0), 7);
        assert_ne!(group_seed(7, 1), 7);
        assert_ne!(group_seed(7, 1), group_seed(7, 2));
        assert_eq!(group_seed(7, 3), group_seed(7, 3));
    }

    /// Jobs in groups `groups` must be refused, naming `missing` as the
    /// first group without jobs.
    fn assert_sparse_groups_rejected(groups: &[usize], missing: usize) {
        let mut sim = Simulation::new(MachineConfig::ideal(2), OverlapPolicy::strict());
        let phases = ["a", "z"].map(|name| PhaseDef::new(name, 8, CostModel::constant(2)));
        let program = Program::chain(phases.into(), vec![EnablementMapping::Null]).unwrap();
        for &g in groups {
            sim.add_job_in_group(program.clone(), g);
        }
        match sim.run() {
            Err(EngineError::InvalidProgram(msg)) => {
                let want = format!("machine group {missing} has no jobs");
                assert!(msg.contains(&want), "{groups:?}: {msg}");
            }
            other => panic!("{groups:?}: expected invalid program, got {other:?}"),
        }
    }

    #[test]
    fn sparse_group_indices_are_rejected() {
        assert_sparse_groups_rejected(&[0, 2], 1);
        // The first gap is named, whatever the order jobs were added in.
        assert_sparse_groups_rejected(&[4, 0, 0, 2], 1);
        assert_sparse_groups_rejected(&[1, 2], 0);
    }
}
