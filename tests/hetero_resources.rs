//! Heterogeneous machines and secondary resources are semantics-stable
//! across every driver and shard count.
//!
//! The `ShardPolicy` contract says sharding is a host-performance knob,
//! never a semantics knob. This suite extends that contract to the
//! heterogeneity layer: a fleet whose machines declare speed classes,
//! affinities, and resource-token pools goes through the determinism
//! oracle (`tests/common/mod.rs`), so its report — including the
//! per-class and per-pool accounting — is the same on every driver,
//! shard count and cut set. A fault-injected leg crashes
//! processors mid-task to prove held tokens are returned on the crash
//! path deterministically (a leaked token would change every downstream
//! dispatch and split the reports).

mod common;

use common::oracle;
use pax_core::prelude::*;
use pax_sim::faults::ScriptedFault;

/// A six-processor two-class machine with two token pools.
fn hetero_machine() -> MachineConfig {
    MachineConfig::new(6)
        .with_classes(vec![
            ProcessorClass::new("fast", 2, 200),
            ProcessorClass::new("base", 4, 100),
        ])
        .with_resources(vec![
            ResourcePool::new("operator", 1),
            ResourcePool::new("channel", 2),
        ])
}

/// A three-phase program whose first and last phases contend on pools
/// (when `gated`; ungated drops the `requires` lists for machines with
/// no resource pools).
fn program(granules: u32, gated: bool) -> Program {
    let mut mount = PhaseDef::new("mount", granules / 4, CostModel::constant(15));
    let mut flush = PhaseDef::new("flush", granules, CostModel::constant(4));
    if gated {
        mount = mount.with_requires(vec!["operator".into(), "channel".into()]);
        flush = flush.with_requires(vec!["channel".into()]);
    }
    let compute = PhaseDef::new(
        "compute",
        granules,
        CostModel::new(DurationDist::Uniform {
            lo: SimDuration(8),
            hi: SimDuration(24),
        }),
    );
    let edges = vec![EnablementMapping::Universal, EnablementMapping::Identity];
    Program::chain(vec![mount, compute, flush], edges).unwrap()
}

/// An 8-group fleet of gated programs on the heterogeneous machine,
/// optionally fault-injected.
fn fleet(cfg: MachineConfig, faulted: bool) -> Simulation {
    fleet_with(cfg, faulted, true)
}

fn fleet_with(cfg: MachineConfig, faulted: bool, gated: bool) -> Simulation {
    let cfg = if faulted {
        cfg.with_faults(FaultPlan::scripted(vec![
            // Crashes while tasks (likely token-holding) are in flight:
            // one transient, one permanent loss.
            ScriptedFault {
                processor: 0,
                crash_at: 20,
                repair_after: Some(60),
            },
            ScriptedFault {
                processor: 4,
                crash_at: 45,
                repair_after: None,
            },
        ]))
    } else {
        cfg
    };
    let mut sim = Simulation::new(
        cfg,
        OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(2)),
    )
    .with_seed(0xC0FFEE);
    for g in 0..8 {
        sim.add_job_in_group(program(32 + 4 * g as u32, gated), g);
        sim.add_job_at_in_group(program(16, gated), SimTime(30), g);
    }
    // One group also receives an arrival stream, so stream expansion
    // rides through the shard partitioning too.
    sim.add_job_stream_in_group(program(8, gated), ArrivalProcess::poisson(200), 3, 2);
    sim
}

fn run(sim: Simulation) -> RunReport {
    sim.run().expect("run failed")
}

/// Where the oracle pauses the hetero fleets: at the scripted crash and
/// repair instants, at the late arrivals, and inside the streams.
const CUTS: &[u64] = &[20, 30, 45, 80, 400, 1_000];

/// Heterogeneous + resource-constrained fleets give one report on every
/// driver, shard count and cut set.
#[test]
fn hetero_fleet_is_shard_invariant_on_all_drivers() {
    let v = oracle("hetero", |cfg| fleet(cfg, false), hetero_machine(), CUTS);
    v.reference.unwrap();
}

/// The fault-injected leg: crashes that preempt token-holding tasks stay
/// deterministic and shard-invariant — held tokens come back on the
/// crash path identically everywhere.
#[test]
fn faulted_hetero_fleet_is_shard_invariant_on_all_drivers() {
    let v = oracle(
        "faulted_hetero",
        |cfg| fleet(cfg, true),
        hetero_machine(),
        CUTS,
    );
    assert_eq!(
        v.reference.unwrap().crashes,
        16,
        "every group should see its two scripted crashes"
    );
}

/// Tokens always come home: after a faulted run completes, the pools'
/// merged wait accounting is internally consistent and the per-class
/// task counts cover every dispatch.
#[test]
fn accounting_is_conserved_under_faults() {
    let r = fleet(hetero_machine(), true).run().unwrap();
    let class_tasks: u64 = r.class_reports.iter().map(|c| c.tasks).sum();
    // Reissued descriptors re-dispatch through the same path, so the
    // per-class counts cover every dispatch including retries.
    assert_eq!(class_tasks, r.tasks_dispatched);
    assert!(r.retries > 0, "the scripted crashes should cost retries");
    assert_eq!(
        r.class_reports.iter().map(|c| c.processors).sum::<usize>(),
        6 * 8
    );
    for p in &r.pool_reports {
        assert!(
            p.waits > 0 || p.wait_ticks == SimDuration::ZERO,
            "{}: wait ticks without waits",
            p.name
        );
    }
}

/// A single 100 %-speed class with empty resources is byte-identical to
/// the plain homogeneous machine — heterogeneity off is really off.
#[test]
fn trivial_hetero_config_matches_homogeneous_fingerprint() {
    let homogeneous = run(fleet_with(MachineConfig::new(6), false, false));
    let trivial = MachineConfig::new(6).with_classes(vec![ProcessorClass::new("all", 6, 100)]);
    let mut r = fleet_with(trivial, false, false).run().unwrap();
    // The class section differs (it now reports), so compare everything
    // else.
    assert_eq!(r.class_reports.len(), 1);
    r.class_reports.clear();
    assert_eq!(r, homogeneous);
}

/// Speed classes shorten the simulated run and a token gate can only
/// lengthen it: the two-class fleet finishes before the uniform one, and
/// the gated fleet no earlier than the two-class one.
#[test]
fn classes_shorten_the_run_and_gates_never_do() {
    let mut two_class = hetero_machine();
    two_class.resources.clear();
    let uniform = run(fleet_with(MachineConfig::new(6), false, false));
    let classed = run(fleet_with(two_class, false, false));
    let gated = run(fleet_with(hetero_machine(), false, true));
    assert!(classed.makespan < uniform.makespan);
    assert!(gated.makespan >= classed.makespan);
    assert!(gated.pool_reports.iter().any(|p| p.waits > 0));
}
