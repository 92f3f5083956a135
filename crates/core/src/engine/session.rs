//! The configure → build → drive surface: the [`Simulation`] builder and
//! the long-lived [`Session`] it turns into.

use super::EngineError;
use crate::ids::JobId;
use crate::policy::OverlapPolicy;
use crate::program::Program;
use crate::report::RunReport;
use crate::shard::ShardedRun;
use pax_sim::dist::{arrival_seed, ArrivalProcess};
use pax_sim::machine::{MachineConfig, ResourcePool};
use pax_sim::time::{SimDuration, SimTime};
use std::iter::repeat_n;
use std::mem::take;
use std::sync::Arc;

/// A configured simulation, ready to run.
///
/// ```
/// use pax_core::engine::Simulation;
/// use pax_core::policy::OverlapPolicy;
/// use pax_core::program::Program;
/// use pax_core::phase::PhaseDef;
/// use pax_sim::dist::CostModel;
/// use pax_sim::machine::MachineConfig;
///
/// let only = PhaseDef::new("only", 32, CostModel::constant(5));
/// let program = Program::chain(vec![only], vec![]).unwrap();
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
        }
    }

    /// Add one job to machine group 0; returns its id.
    pub fn add_job(&mut self, program: Program) -> JobId {
        self.add_job_in_group(program, 0)
    }

    /// Add a job arriving at instant `at` in machine group `group`. The
    /// instant is local to the group's timeline: a gated group's jobs
    /// arrive `at` ticks after the group is admitted.
    pub fn add_job_at_in_group(&mut self, program: Program, at: SimTime, group: usize) -> JobId {
        self.programs.push(Arc::new(program));
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
            // The instants go straight into the job table; each job
            // vector grows once a stream, to hold all of it, rather than
            // by doubling through it. Every job of the stream shares the
            // stream's one program.
            let before = self.arrivals.len();
            s.process
                .instants_into(s.count, &mut rng, &mut self.arrivals);
            let jobs = self.arrivals.len() - before;
            self.programs.extend(repeat_n(s.program, jobs));
            self.groups.extend(repeat_n(s.group, jobs));
        }
    }

    /// Add one job to machine group `group`; returns its id.
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
    /// conservative epoch windows from — and `pred != succ`; session
    /// build rejects an edge that breaks either rule with
    /// [`EngineError::InvalidProgram`].
    pub fn link_groups(&mut self, pred: usize, succ: usize, latency: SimDuration) {
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

    /// Record a per-worker Gantt trace: one compute span per finished
    /// task (needed by overlap-invariant tests; costs memory proportional
    /// to task count).
    pub fn with_gantt(mut self) -> Simulation {
        self.gantt = true;
        self
    }

    /// Execute to completion: a thin wrapper over the session API —
    /// [`Simulation::into_session`], then [`Session::report`], which
    /// drains what is left to run (here: everything).
    pub fn run(self) -> Result<RunReport, EngineError> {
        self.into_session()?.report()
    }

    /// Build a long-lived [`Session`]: expand arrival streams, validate
    /// the machine configuration and every program, and construct the
    /// engine(s) ([`Simulation::into_sharded`]; a single-group simulation
    /// is its 1-group case). The caller then drives the session with
    /// [`Session::step_until`] / [`Session::drain`] and extracts the
    /// result with [`Session::report`]. The `t = 0` jobs are admitted by
    /// the first window driven, not here.
    pub fn into_session(self) -> Result<Session, EngineError> {
        self.into_sharded()
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
                ResourcePool::check_requires(&self.cfg.resources, &ph.requires).map_err(
                    |(_, what)| {
                        EngineError::InvalidProgram(format!(
                            "job {i}: phase '{}' requires {what}",
                            ph.name
                        ))
                    },
                )?;
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
/// A session *is* a [`ShardedRun`] on the calling thread, so it is driven
/// by the one epoch loop every driver shares (`pax-runtime`'s threaded
/// one included), and chopping a run into `step_until` windows at *any*
/// boundaries is result-invariant: a session stepped to `t = ∞` in one go
/// and a session stepped tick by tick produce bit-identical reports.
pub type Session = ShardedRun;
