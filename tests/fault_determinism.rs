//! Fault-injection determinism and retry-policy semantics.
//!
//! PR-6's contract — every host-performance knob is bit-identical by
//! construction — must extend to faulty runs: the same seed and
//! [`FaultPlan`] produce the same crashes, the same preemptions, the
//! same retries, and the same degraded-capacity report on every driver,
//! shard count and pause schedule. The fault stream lives
//! on a dedicated RNG split from the per-group seed, so this is a
//! designed property; the determinism oracle (`tests/common/mod.rs`)
//! pins it on scripted and random plans here and on random fleets under
//! random plans in `arena_equivalence`, and the tests below check the
//! three retry policies directly.

mod common;

use common::oracle;
use pax_core::engine::EngineError;
use pax_core::phase::PhaseDef;
use pax_core::policy::{OverlapPolicy, TaskSizing};
use pax_core::program::Program;
use pax_core::Simulation;
use pax_sim::dist::{CostModel, DurationDist};
use pax_sim::machine::MachineConfig;
use pax_sim::time::SimDuration;
use pax_sim::{FaultPlan, RetryPolicy, ScriptedFault};
use pax_workloads::casper::CasperConfig;
use pax_workloads::FleetConfig;

/// A scripted plan that hits the fleet's machines mid-phase: processor 1
/// dies early and recovers, processor 3 dies later and never comes back.
/// Group makespans for the shapes below are several thousand ticks, so
/// both events land inside the busy window of every replica.
fn scripted_plan() -> FaultPlan {
    FaultPlan::scripted(vec![
        ScriptedFault {
            processor: 1,
            crash_at: 500,
            repair_after: Some(700),
        },
        ScriptedFault {
            processor: 3,
            crash_at: 1_900,
            repair_after: None,
        },
    ])
}

/// A random plan aggressive enough to crash every group a handful of
/// times over a multi-thousand-tick makespan.
fn random_plan() -> FaultPlan {
    FaultPlan::random(
        DurationDist::exponential(1_500),
        DurationDist::constant(400),
    )
}

/// Scripted and random fault plans give one report on every driver,
/// shard count and cut set, on independent and staged
/// fleets; the cuts land on the scripted crash and repair instants.
#[test]
fn fault_injected_runs_are_identical_across_shards_and_drivers() {
    let fleets = [
        ("independent_4x48", FleetConfig::independent(4, 48)),
        (
            "staged_4x48_lat350",
            FleetConfig::staged(4, 48, SimDuration(350)),
        ),
    ];
    let plans = [("scripted", scripted_plan()), ("random", random_plan())];
    for (fname, fleet) in &fleets {
        for (pname, plan) in &plans {
            let name = format!("{fname}+{pname}");
            let machine = MachineConfig::new(4).with_faults(plan.clone());
            let cuts = &[500, 1_200, 1_900, 4_000];
            let v = oracle(&name, |cfg| fleet.simulation(cfg, 7), machine, cuts);
            assert!(v.reference.unwrap().crashes > 0, "{name}: no crash landed");
        }
    }
}

/// CASPER under random crashes gives one report on every driver, shard
/// count and cut set: crash preemption meets counted maps built in the
/// background, successor-splitting tasks and identity conflict queues,
/// all of which read a predecessor's completed granules.
#[test]
fn casper_under_faults_is_identical_across_shards_and_drivers() {
    let casper = CasperConfig {
        granules: 96,
        iterations: 3,
        seed: 5,
        ..CasperConfig::default()
    };
    let program = casper.build(true);
    let machine = MachineConfig::new(8).with_faults(random_plan());
    let v = oracle(
        "casper_96x3+random",
        |cfg| {
            let mut sim = Simulation::new(cfg, OverlapPolicy::overlap()).with_seed(3);
            sim.add_job(program.clone());
            sim
        },
        machine,
        &[700, 5_000],
    );
    assert!(v.reference.unwrap().crashes > 0, "no crash landed");
}

/// The degraded-capacity report fields actually account for the faults:
/// crashes happened, preempted ranges were reissued, worker time was
/// lost, the availability timeline is populated, and utilization against
/// available capacity is at least the nominal figure.
#[test]
fn degraded_capacity_accounting_is_populated() {
    let fleet = FleetConfig::independent(2, 48);
    let r = fleet
        .simulation(MachineConfig::new(4).with_faults(scripted_plan()), 7)
        .run()
        .unwrap();
    assert!(r.crashes > 0, "scripted crashes must land");
    assert!(r.retries > 0, "preempted in-flight work must be reissued");
    assert!(r.lost_work.ticks() > 0, "preemption loses computed ticks");
    assert!(!r.avail_trace.points().is_empty());
    assert!(r.available_ticks() < r.processors as u64 * r.makespan.ticks());
    assert!(r.available_utilization() > r.utilization());
    // Every granule still completed, despite the permanent loss of one
    // processor per replica.
    for p in &r.phases {
        assert_eq!(p.stats.executed_granules, p.granules);
    }
    let s = r.summary();
    assert!(s.contains("crashes"), "summary surfaces fault accounting");
}

/// A task a crash preempts leaves no Gantt span: the trace holds only
/// work that finished, so its spans sum to `compute_time`, every granule
/// is covered exactly once, and no span on a crashed processor reaches
/// into the time it was down.
#[test]
fn crash_preempted_tasks_leave_no_gantt_span() {
    let program = FleetConfig::independent(1, 4096).program();
    let machine = MachineConfig::new(8).with_faults(scripted_plan());
    let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(16));
    let mut sim = Simulation::new(machine, policy).with_gantt();
    sim.add_job(program);
    let r = sim.run().unwrap();
    assert_eq!(r.crashes, 2);
    assert!(r.lost_work.ticks() > 0, "both crashes cut a task short");
    let gantt = r.gantt.as_ref().expect("gantt enabled");
    let spans: u64 = gantt.spans().iter().map(|s| s.duration().ticks()).sum();
    assert_eq!(spans, r.compute_time.ticks());
    let granules: u64 = gantt.spans().iter().map(|s| u64::from(s.hi - s.lo)).sum();
    assert_eq!(granules, 2 * 4096);
    for s in gantt.spans() {
        // Processor 1 is down over [500, 1 200); processor 3 from 1 900.
        match s.worker {
            1 => assert!(s.end.ticks() <= 500 || s.start.ticks() >= 1_200, "{s:?}"),
            3 => assert!(s.end.ticks() <= 1_900, "{s:?}"),
            _ => {}
        }
    }
}

/// A faults-disabled run reports full nominal availability.
#[test]
fn fault_free_runs_report_nominal_availability() {
    let r = FleetConfig::independent(2, 24)
        .simulation(MachineConfig::new(4), 7)
        .run()
        .unwrap();
    assert_eq!(r.crashes, 0);
    assert_eq!(r.retries, 0);
    assert_eq!(r.lost_work, SimDuration::ZERO);
    assert!(r.avail_trace.points().is_empty());
    assert_eq!(
        r.available_ticks(),
        r.processors as u64 * r.makespan.ticks()
    );
    assert!((r.available_utilization() - r.utilization()).abs() < 1e-12);
}

fn one_task_program(cost: u64) -> Program {
    let solo = PhaseDef::new("solo", 1, CostModel::constant(cost));
    Program::chain(vec![solo], vec![]).unwrap()
}

/// A reissue budget of 0: the first preemption aborts the job with a
/// structured error instead of silently dropping granules.
#[test]
fn abandon_policy_aborts_on_first_loss() {
    let plan = FaultPlan::scripted(vec![ScriptedFault {
        processor: 0,
        crash_at: 10,
        repair_after: Some(5),
    }])
    .with_retry(RetryPolicy::Bounded { max_attempts: 0 });
    let mut sim = Simulation::new(
        MachineConfig::ideal(1).with_faults(plan),
        OverlapPolicy::strict(),
    );
    sim.add_job(one_task_program(50));
    match sim.run() {
        Err(EngineError::JobAborted { job, detail }) => {
            assert_eq!(job, 0);
            assert!(detail.contains("budget"), "{detail}");
        }
        other => panic!("expected JobAborted, got {other:?}"),
    }
}

/// `RetryPolicy::Bounded`: reissues are tolerated up to the budget, one
/// more crash of the same descriptor escalates to `JobAborted`.
#[test]
fn bounded_retries_escalate_to_abort() {
    // One processor, one 50-tick task, crashes at 10/20/30 with 5-tick
    // repairs: attempts 1 and 2 reissue, the third exceeds the budget.
    let crashes = vec![
        ScriptedFault {
            processor: 0,
            crash_at: 10,
            repair_after: Some(5),
        },
        ScriptedFault {
            processor: 0,
            crash_at: 20,
            repair_after: Some(5),
        },
        ScriptedFault {
            processor: 0,
            crash_at: 30,
            repair_after: Some(5),
        },
    ];
    let plan =
        FaultPlan::scripted(crashes.clone()).with_retry(RetryPolicy::Bounded { max_attempts: 2 });
    let mut sim = Simulation::new(
        MachineConfig::ideal(1).with_faults(plan),
        OverlapPolicy::strict(),
    );
    sim.add_job(one_task_program(50));
    match sim.run() {
        Err(EngineError::JobAborted { job, detail }) => {
            assert_eq!(job, 0);
            assert!(detail.contains("budget"), "{detail}");
        }
        other => panic!("expected JobAborted, got {other:?}"),
    }
    // The same schedule under the default unbounded policy completes.
    let plan = FaultPlan::scripted(crashes);
    let mut sim = Simulation::new(
        MachineConfig::ideal(1).with_faults(plan),
        OverlapPolicy::strict(),
    );
    sim.add_job(one_task_program(50));
    let r = sim.run().unwrap();
    assert_eq!(r.crashes, 3);
    assert_eq!(r.retries, 3);
    assert_eq!(r.phases[0].stats.executed_granules, 1);
}

/// A `JobAborted` escaping a machine group of a fleet names the group
/// and carries the job's global submission index, on every driver.
#[test]
fn job_abort_indices_are_remapped_in_fleets() {
    // One processor a replica, crashing at t = 40 with no reissues. Group
    // 0's lone job is done by then; group 1 runs its short job, then its
    // long one (local index 1, global index 2), which the crash aborts.
    let plan = FaultPlan::scripted(vec![ScriptedFault {
        processor: 0,
        crash_at: 40,
        repair_after: Some(5),
    }])
    .with_retry(RetryPolicy::Bounded { max_attempts: 0 });
    let fleet = |cfg| {
        let mut sim = Simulation::new(cfg, OverlapPolicy::strict());
        sim.add_job_in_group(one_task_program(30), 0);
        sim.add_job_in_group(one_task_program(30), 1);
        sim.add_job_in_group(one_task_program(50), 1);
        sim
    };
    let machine = MachineConfig::ideal(1).with_faults(plan);
    match oracle("abandon_fleet", fleet, machine, &[40, 100]).reference {
        Err(EngineError::JobAborted { job, detail }) => {
            assert_eq!(job, 2);
            assert!(detail.contains("machine group 1"), "{detail}");
        }
        other => panic!("expected JobAborted, got {other:?}"),
    }
}
