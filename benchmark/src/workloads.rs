//! The four workloads: how each input is generated from the seed, set up
//! into a session, driven, and checked. The program under test only ever
//! sees an [`Input`]; the seed stops here.

use crate::trace::Tracer;
use pax_core::prelude::*;
use pax_core::shard::stuck_error;
use pax_runtime::ThreadedSession;
use pax_sim::CalendarKind;
use pax_workloads::scenario::Scenario;
use pax_workloads::{degraded_fault_plan, CasperConfig, FleetConfig};

/// Width of a `service_stream` stepping window, in ticks.
const STEP_WINDOW_TICKS: u64 = 50_000;
/// Admission latency of the `fleet_degraded` stage edges, in ticks.
const FLEET_LINK_TICKS: u64 = 500;
const FLEET_GROUPS: usize = 8;
/// Shards the fleet is decomposed into, whichever driver runs them.
const FLEET_SHARDS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    /// Consecutive set-ups timed as one `setup_s` sample, so that a
    /// sample lasts at least 5 ms on the host the benchmark was written
    /// on (the quick sizes are smoke runs and keep the same K).
    pub setups_per_sample: usize,
    generate: fn(seed: u64, quick: bool) -> Input,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch_identity",
        setups_per_sample: 2_048,
        generate: batch_identity,
    },
    Workload {
        name: "batch_casper",
        setups_per_sample: 64,
        generate: batch_casper,
    },
    Workload {
        name: "service_stream",
        setups_per_sample: 4,
        generate: service_stream,
    },
    Workload {
        name: "fleet_degraded",
        setups_per_sample: 256,
        generate: fleet_degraded,
    },
];

impl Workload {
    pub fn generate(&self, seed: u64, quick: bool) -> Input {
        (self.generate)(seed, quick)
    }
}

pub enum Input {
    Identity {
        granules: u32,
        seed: u64,
    },
    Casper(CasperConfig),
    Scenario {
        text: String,
        jobs: usize,
        seed: u64,
    },
    Fleet {
        fleet: FleetConfig,
        seed: u64,
    },
}

/// A seed-derived size jitter below `modulus` (splitmix64 finalizer), so
/// that two seeds never give byte-identical inputs.
fn jitter(seed: u64, modulus: u32) -> u32 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % u64::from(modulus)) as u32
}

fn batch_identity(seed: u64, quick: bool) -> Input {
    let (base, spread) = if quick {
        (10_000, 128)
    } else {
        (100_000, 1_024)
    };
    Input::Identity {
        granules: base + jitter(seed, spread),
        seed,
    }
}

fn batch_casper(seed: u64, quick: bool) -> Input {
    Input::Casper(CasperConfig {
        granules: 480,
        // 40, not the 48 first planned: at 48 a vector of the run doubles
        // for some seeds and not for others, and the peak resident set
        // moves in 4 MiB steps from seed to seed.
        iterations: if quick { 4 } else { 40 },
        seed,
        ..CasperConfig::default()
    })
}

fn service_stream(seed: u64, quick: bool) -> Input {
    let (base, spread) = if quick { (400, 8) } else { (4_000, 64) };
    let jobs = (base + jitter(seed, spread)) as usize;
    Input::Scenario {
        text: scenario_text(seed, jobs, true),
        jobs,
        seed,
    }
}

fn fleet_degraded(seed: u64, quick: bool) -> Input {
    let (base, spread) = if quick { (1_000, 16) } else { (10_000, 128) };
    let mut fleet = FleetConfig::independent(FLEET_GROUPS, base + jitter(seed, spread));
    fleet.task_size = 1;
    Input::Fleet { fleet, seed }
}

/// The `service_stream` scenario document. The arrival instants are the
/// same pseudo-random Poisson draw for every benchmark seed (the
/// document's own `seed` is fixed); the benchmark seed sets the stream's
/// length. A p99 over a few thousand Poisson arrivals moves by a quarter
/// from one draw to the next, which would drown any change to it.
pub fn scenario_text(seed: u64, jobs: usize, overlap: bool) -> String {
    format!(
        r#"{{
  "name": "service_stream seed {seed}",
  "seed": 1986,
  "machine": {{
    "processors": 8,
    "calendar": "heap",
    "admission": {{ "policy": "bounded_defer", "max_in_flight": 4 }}
  }},
  "workload": [
    {{
      "name": "request",
      "count": 0,
      "phases": [
        {{ "name": "svc-a", "granules": 32,
          "cost": {{ "dist": "constant", "ticks": 100 }},
          "mapping": "identity" }},
        {{ "name": "svc-z", "granules": 32,
          "cost": {{ "dist": "constant", "ticks": 100 }} }}
      ]
    }}
  ],
  "stream": {{
    "program": "request",
    "count": {jobs},
    "arrivals": {{ "process": "poisson", "mean_gap": 1000 }}
  }},
  "policy": {{ "overlap": {overlap}, "sizing": {{ "fixed": 16 }} }}
}}
"#
    )
}

fn policy(overlap: bool) -> OverlapPolicy {
    if overlap {
        OverlapPolicy::overlap()
    } else {
        OverlapPolicy::strict()
    }
}

impl Input {
    /// Sizes, for the output header.
    pub fn describe(&self) -> String {
        match self {
            Input::Identity { granules, .. } => {
                format!("2 phases x {granules} granules, task size 1, 16 processors")
            }
            Input::Casper(c) => format!(
                "22 phases x {} granules x {} iterations, 16 processors",
                c.granules, c.iterations
            ),
            Input::Scenario { text, jobs, .. } => format!(
                "{jobs} jobs x 2 phases x 32 granules, {} byte scenario, 8 processors, \
                 {STEP_WINDOW_TICKS}-tick windows",
                text.len()
            ),
            Input::Fleet { fleet, .. } => format!(
                "{} groups x 2 phases x {} granules, task size 1, 8 processors a group, \
                 {FLEET_SHARDS} shards",
                fleet.groups, fleet.granules_per_group
            ),
        }
    }

    /// Granules of one phase: the size the bare-structure timings use.
    pub fn phase_granules(&self) -> u32 {
        match self {
            Input::Identity { granules, .. } => *granules,
            Input::Casper(c) => c.granules,
            Input::Scenario { .. } => 32,
            Input::Fleet { fleet, .. } => fleet.granules_per_group,
        }
    }

    /// The event calendar's load mid-run, as `(hot, parked, spread)`:
    /// one hot entry per processor re-scheduled a service time later
    /// (100 ticks ± `spread`), plus the parked arrivals of an open
    /// stream, which are all scheduled up front (half are left mid-run).
    pub fn calendar_shape(&self) -> (usize, usize, u64) {
        match self {
            Input::Identity { .. } => (16, 0, 0),
            Input::Casper(_) => (16, 0, 50),
            Input::Scenario { jobs, .. } => (8, jobs / 2, 0),
            Input::Fleet { .. } => (8, 0, 0),
        }
    }

    pub fn cost_model(&self) -> CostModel {
        match self {
            Input::Casper(c) => c
                .build(false)
                .phases
                .first()
                .expect("CASPER has 22 phases")
                .cost
                .clone(),
            _ => CostModel::constant(100),
        }
    }

    /// The same input at half the stream length, where the input is a stream.
    pub fn half_stream(&self) -> Option<Input> {
        match *self {
            Input::Scenario { jobs, seed, .. } => Some(Input::Scenario {
                text: scenario_text(seed, jobs / 2, true),
                jobs: jobs / 2,
                seed,
            }),
            _ => None,
        }
    }

    pub fn is_fleet(&self) -> bool {
        matches!(self, Input::Fleet { .. })
    }

    /// Generated input → configured [`Simulation`]. `overlap = false`
    /// gives the same input under `OverlapPolicy::strict()` with no
    /// enables, the paper's baseline.
    pub fn simulation(&self, tr: &mut Tracer, overlap: bool) -> Result<Simulation, String> {
        match self {
            Input::Identity { granules, seed } => {
                let s = tr.enter("workloads.build");
                let mut b = ProgramBuilder::new();
                let cost = CostModel::constant(100);
                let a = b.phase(PhaseDef::new("identity-a", *granules, cost.clone()));
                let z = b.phase(PhaseDef::new("identity-z", *granules, cost));
                if overlap {
                    let enable = EnableSpec {
                        successor: z,
                        mapping: EnablementMapping::Identity,
                    };
                    b.dispatch_enable(a, vec![enable]);
                } else {
                    b.dispatch(a);
                }
                b.dispatch(z);
                let program = b.build().expect("the identity program is statically valid");
                let machine = MachineConfig::new(16).with_calendar(CalendarKind::BinaryHeap);
                let policy = policy(overlap).with_sizing(TaskSizing::Fixed(1));
                let mut sim = Simulation::new(machine, policy).with_seed(*seed);
                sim.add_job(program);
                tr.exit(s);
                Ok(sim)
            }
            Input::Casper(cfg) => {
                let s = tr.enter("workloads.build");
                let mut sim =
                    Simulation::new(MachineConfig::new(16), policy(overlap)).with_seed(cfg.seed);
                sim.add_job(cfg.build(overlap));
                tr.exit(s);
                Ok(sim)
            }
            Input::Scenario { text, jobs, seed } => {
                // The strict baseline is the same document with
                // `policy.overlap` false, which the loader turns into
                // `OverlapPolicy::strict()`.
                let strict_text;
                let text = if overlap {
                    text
                } else {
                    strict_text = scenario_text(*seed, *jobs, false);
                    &strict_text
                };
                let scenario = tr.time("workloads.scenario.parse", || Scenario::parse(text));
                let scenario = scenario.map_err(|e| e.to_string())?;
                let sim = tr.time("workloads.build", || scenario.build());
                Ok(sim.map_err(|e| e.to_string())?.with_eviction())
            }
            Input::Fleet { fleet, seed } => {
                let s = tr.enter("workloads.build");
                let machine = MachineConfig::new(8)
                    .with_faults(degraded_fault_plan())
                    .with_shards(ShardPolicy::new(FLEET_SHARDS));
                let mut sim = if overlap {
                    fleet.simulation(machine, *seed)
                } else {
                    let policy = policy(false).with_sizing(TaskSizing::Fixed(fleet.task_size));
                    let mut sim = Simulation::new(machine, policy).with_seed(*seed);
                    let program = fleet.program();
                    for g in 0..fleet.groups {
                        sim.add_job_in_group(program.clone(), g);
                    }
                    sim
                };
                // Two stages: each of the first four groups admits one
                // successor when it finishes.
                let half = fleet.groups / 2;
                for g in 0..half {
                    sim.link_groups(g, g + half, SimDuration(FLEET_LINK_TICKS));
                }
                tr.exit(s);
                Ok(sim)
            }
        }
    }

    /// The whole set-up `setup_s` times: generated input → session ready
    /// to step.
    pub fn setup(&self, tr: &mut Tracer) -> Result<Session, String> {
        let s = tr.enter("setup");
        let session = self.simulation(tr, true).and_then(|sim| {
            let session = tr.time("core.engine.into_session", || sim.into_session());
            session.map_err(|e| e.to_string())
        });
        tr.exit(s);
        session
    }

    /// Drive a ready session to completion and take its report: the
    /// call `events_per_ref_s` times.
    pub fn drive(&self, mut session: Session, tr: &mut Tracer) -> Result<RunReport, String> {
        let rep = tr.enter("rep");
        let s = tr.enter("core.engine.drive");
        let drove = match self {
            Input::Scenario { .. } => step_in_windows(&mut session, tr),
            _ => session.drain(),
        };
        tr.exit(s);
        let report = drove.and_then(|()| tr.time("core.report.finish", || session.report()));
        tr.exit(rep);
        report.map_err(|e| e.to_string())
    }

    /// Decompose into shards, as the sharded drivers take the input.
    pub fn sharded(&self, tr: &mut Tracer) -> Result<ShardedRun, String> {
        let sim = self.simulation(tr, true)?;
        let run = tr.time("core.shard.into_sharded", || sim.into_sharded());
        run.map_err(|e| e.to_string())
    }
}

/// The same run on `pax-runtime`'s threaded driver: one thread per
/// shard behind the epoch gate, the caller blocked on it.
pub fn drive_threaded(run: ShardedRun, tr: &mut Tracer) -> Result<RunReport, String> {
    let mut session = tr.time("runtime.shard_exec.spawn", || ThreadedSession::new(run));
    let rep = tr.enter("rep");
    let drove = tr.time("runtime.shard_exec.drive", || session.drain());
    let report = drove.and_then(|()| tr.time("runtime.shard_exec.finish", || session.finish()));
    tr.exit(rep);
    report.map_err(|e| e.to_string())
}

fn step_in_windows(session: &mut Session, tr: &mut Tracer) -> Result<(), EngineError> {
    let mut limit = 0u64;
    loop {
        limit += STEP_WINDOW_TICKS;
        let done = tr.time("core.engine.step_window", || {
            session.step_until(SimTime(limit))
        });
        if done? {
            return Ok(());
        }
    }
}

/// The sharded epoch loop of `pax_core::shard::ShardedRun::step_until`,
/// re-driven from here through public calls so that each part can be
/// timed: returns the report and the number of epochs run.
pub fn drive_epochs(run: ShardedRun, tr: &mut Tracer) -> Result<(RunReport, u64), String> {
    let rep = tr.enter("rep");
    let (mut coordinator, mut shards) = run.into_parts();
    let shard_count = shards.len();
    let mut admissions: Vec<(usize, SimTime)> = Vec::new();
    let mut epochs = 0u64;
    let drive = tr.enter("core.shard.drive");
    let stuck = loop {
        let window = match tr.time("core.shard.coordinator", || coordinator.plan()) {
            EpochPlan::Done => break None,
            EpochPlan::Stuck { unadmitted } => break Some(unadmitted),
            EpochPlan::Run { window } => window,
        };
        for shard in &mut shards {
            tr.time("core.shard.run_window", || shard.run_window(window));
        }
        tr.time("core.shard.coordinator", || {
            for shard in &shards {
                coordinator.absorb(shard.notes());
            }
            admissions.clear();
            coordinator.drain_admissions(&mut admissions);
            for &(group, at) in &admissions {
                shards[group % shard_count].deliver(group, at);
            }
        });
        epochs += 1;
    };
    tr.exit(drive);
    let report = match stuck {
        Some(unadmitted) => Err(stuck_error(&coordinator, &unadmitted)),
        None => tr.time("core.shard.finish", || coordinator.finish(shards)),
    };
    tr.exit(rep);
    Ok((report.map_err(|e| e.to_string())?, epochs))
}

/// What a run is checked by: the counts a user reads plus a hash over
/// the whole report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    pub events: u64,
    pub makespan: u64,
    pub fingerprint: u64,
}

pub fn signature(r: &RunReport) -> Signature {
    Signature {
        events: r.events,
        makespan: r.makespan.ticks(),
        fingerprint: fingerprint(r),
    }
}

/// FNV-1a over every deterministic field of the report: totals, each
/// job's arrival/start/finish, each surviving phase instance, and the
/// busy-processor step trace.
fn fingerprint(r: &RunReport) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for x in [
        r.processors as u64,
        r.makespan.ticks(),
        r.compute_time.ticks(),
        r.mgmt_time.ticks(),
        r.serial_time.ticks(),
        r.lost_work.ticks(),
        r.retries,
        r.crashes,
        r.jobs_rejected,
        r.events,
        r.tasks_dispatched,
        r.splits,
        r.descriptors_created,
        r.instances_peak as u64,
    ] {
        mix(x);
    }
    let time = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.ticks());
    for j in &r.jobs {
        mix(j.arrived_at.ticks());
        mix(j.started_at.ticks());
        mix(time(j.finished_at));
        mix(u64::from(j.rejected));
    }
    for p in &r.phases {
        mix(u64::from(p.job));
        mix(u64::from(p.granules));
        mix(u64::from(p.stats.executed_granules));
        mix(u64::from(p.stats.overlap_granules));
        mix(time(p.stats.completed_at));
    }
    for &(at, busy) in r.busy_trace.points() {
        mix(at.ticks());
        mix(u64::from(busy));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(input: &Input) -> String {
        match input {
            Input::Scenario { text, .. } => format!("{} {text}", input.describe()),
            _ => input.describe(),
        }
    }

    #[test]
    fn a_seed_fixes_the_input_and_another_seed_changes_it() {
        for workload in &WORKLOADS {
            for quick in [false, true] {
                let a = text(&workload.generate(7, quick));
                assert_eq!(a, text(&workload.generate(7, quick)), "{}", workload.name);
                // CASPER's seed changes its maps and costs, not its sizes.
                if workload.name != "batch_casper" {
                    assert_ne!(a, text(&workload.generate(11, quick)), "{}", workload.name);
                }
            }
        }
    }

    #[test]
    fn quick_inputs_are_a_tenth_of_the_full_ones() {
        for workload in &WORKLOADS {
            let full = workload.generate(7, false);
            let quick = workload.generate(7, true);
            let size = |i: &Input| match i {
                Input::Casper(c) => u64::from(c.iterations),
                Input::Scenario { jobs, .. } => *jobs as u64,
                other => u64::from(other.phase_granules()),
            };
            let ratio = size(&full) as f64 / size(&quick) as f64;
            assert!((9.0..=11.0).contains(&ratio), "{}: {ratio}", workload.name);
        }
    }
}
