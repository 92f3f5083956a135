//! Layout-equivalence pin for the descriptor store, and batching-
//! equivalence pin for the multi-lane executive's drained service rounds
//! (`batched_drain_matches_single_service_on_all_shapes`).
//!
//! The SoA descriptor arena must be *observably identical* to the
//! array-of-structs layout it replaced: same completion order, same
//! split/dispatch counts, same overlap statistics, event for event. This
//! suite runs thirteen scenario shapes — one per experiment family
//! (E1–E13: strict arithmetic, the census mappings, the three split
//! strategies, background builds with elevation, serial gaps, multi-job
//! streams, data proximity, stochastic costs under PAX management
//! charges) — in quick mode and compares a behavior fingerprint against
//! goldens recorded with the pre-SoA array-of-structs arena (commit
//! bf7c64c). Any layout-induced reordering, miscount, or dropped release
//! changes at least one field of at least one fingerprint.
//!
//! If an *intentional* behavior change ever lands, regenerate with:
//!
//! ```text
//! cargo test --test arena_equivalence -- --nocapture print_fingerprints
//! ```

use pax_core::prelude::*;
use pax_sim::dist::{CostModel, DurationDist};
use pax_sim::locality::{DataLayout, LocalityModel};
use pax_sim::machine::{ExecutivePlacement, MachineConfig, ManagementCosts, ShardPolicy};
use pax_sim::time::SimDuration;
use std::sync::Arc;

/// A scenario: a program, a machine, and a policy, all deterministic.
struct Shape {
    name: &'static str,
    program: Program,
    cfg: MachineConfig,
    policy: OverlapPolicy,
    jobs: usize,
}

fn two_phase(granules: u32, cost: CostModel, mapping: EnablementMapping) -> Program {
    let mut b = ProgramBuilder::new();
    let pa = b.phase(PhaseDef::new("a", granules, cost.clone()));
    let pb = b.phase(PhaseDef::new("b", granules, cost));
    b.dispatch_enable(
        pa,
        vec![EnableSpec {
            successor: pb,
            mapping,
        }],
    );
    b.dispatch(pb);
    b.build().unwrap()
}

fn reverse_fan2(n: u32) -> EnablementMapping {
    let req: Vec<Vec<u32>> = (0..n).map(|r| vec![r, (r + 1) % n]).collect();
    EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(req, n)))
}

fn shapes() -> Vec<Shape> {
    let c10 = CostModel::constant(10);
    let fixed1 = |p: OverlapPolicy| p.with_sizing(TaskSizing::Fixed(1));
    let mut v = Vec::new();

    // E1: strict-barrier rundown arithmetic (null mappings).
    v.push(Shape {
        name: "e1_strict_null",
        program: two_phase(96, c10.clone(), EnablementMapping::Null),
        cfg: MachineConfig::ideal(8),
        policy: fixed1(OverlapPolicy::strict()),
        jobs: 1,
    });
    // E2: the census's dominant mapping — identity, demand split.
    v.push(Shape {
        name: "e2_identity_demand",
        program: two_phase(128, c10.clone(), EnablementMapping::Identity),
        cfg: MachineConfig::ideal(8),
        policy: fixed1(OverlapPolicy::overlap()).with_split_strategy(SplitStrategy::DemandSplit),
        jobs: 1,
    });
    // E3: universal overlap filling the rundown.
    v.push(Shape {
        name: "e3_universal",
        program: two_phase(100, c10.clone(), EnablementMapping::Universal),
        cfg: MachineConfig::ideal(8),
        policy: fixed1(OverlapPolicy::overlap()),
        jobs: 1,
    });
    // E4: two-tasks-per-processor sizing rule (default sizing).
    v.push(Shape {
        name: "e4_task_sizing",
        program: two_phase(96, c10.clone(), EnablementMapping::Identity),
        cfg: MachineConfig::ideal(6),
        policy: OverlapPolicy::overlap(),
        jobs: 1,
    });
    // E5: PAX management costs, executive stealing worker time.
    v.push(Shape {
        name: "e5_mgmt_costs",
        program: two_phase(64, CostModel::constant(100), EnablementMapping::Identity),
        cfg: MachineConfig::new(4)
            .with_executive(ExecutivePlacement::StealsWorker)
            .with_costs(ManagementCosts::pax_default()),
        policy: fixed1(OverlapPolicy::overlap()),
        jobs: 1,
    });
    // E6: two parallel job streams sharing the machine.
    v.push(Shape {
        name: "e6_multi_job",
        program: two_phase(48, c10.clone(), EnablementMapping::Identity),
        cfg: MachineConfig::ideal(6),
        policy: fixed1(OverlapPolicy::overlap()),
        jobs: 2,
    });
    // E7: presplit and successor-splitting-task strategies.
    v.push(Shape {
        name: "e7_presplit",
        program: two_phase(80, c10.clone(), EnablementMapping::Identity),
        cfg: MachineConfig::ideal(8),
        policy: OverlapPolicy::overlap()
            .with_sizing(TaskSizing::Fixed(4))
            .with_split_strategy(SplitStrategy::PreSplit),
        jobs: 1,
    });
    v.push(Shape {
        name: "e7_succ_split_task",
        program: two_phase(80, c10.clone(), EnablementMapping::Identity),
        cfg: MachineConfig::ideal(8),
        policy: OverlapPolicy::overlap()
            .with_sizing(TaskSizing::Fixed(4))
            .with_split_strategy(SplitStrategy::SuccessorSplitTask),
        jobs: 1,
    });
    // E8: reverse-indirect with immediate build, and with background
    // build + priority elevation + early subset.
    v.push(Shape {
        name: "e8_reverse_immediate",
        program: two_phase(64, c10.clone(), reverse_fan2(64)),
        cfg: MachineConfig::ideal(8),
        policy: fixed1(OverlapPolicy::overlap()),
        jobs: 1,
    });
    v.push(Shape {
        name: "e8_reverse_background",
        program: two_phase(64, c10.clone(), reverse_fan2(64)),
        cfg: MachineConfig::new(8).with_costs(ManagementCosts::pax_default()),
        policy: fixed1(OverlapPolicy::overlap())
            .with_composite_build(CompositeBuild::Background)
            .with_elevate_enabling(true)
            .with_indirect_subset(16),
        jobs: 1,
    });
    // E10: serial region between phases (language's serial construct).
    v.push(Shape {
        name: "e10_serial_gap",
        program: {
            let mut b = ProgramBuilder::new();
            let pa = b.phase(PhaseDef::new("a", 40, c10.clone()));
            let pb = b.phase(PhaseDef::new("b", 40, c10.clone()));
            b.dispatch_enable(
                pa,
                vec![EnableSpec {
                    successor: pb,
                    mapping: EnablementMapping::Universal,
                }],
            );
            b.serial(25, "decide");
            b.dispatch(pb);
            b.build().unwrap()
        },
        cfg: MachineConfig::ideal(4),
        policy: fixed1(OverlapPolicy::overlap()),
        jobs: 1,
    });
    // E11/E13-flavored: looping dispatch under stochastic granule costs.
    v.push(Shape {
        name: "e13_stochastic_loop",
        program: {
            let mut b = ProgramBuilder::new();
            let pa = b.phase(PhaseDef::new(
                "a",
                48,
                CostModel::new(DurationDist::uniform(5, 50)),
            ));
            let k = b.counter();
            let top = b.next_index();
            b.dispatch(pa);
            b.incr(k, 1);
            b.step(Step::Branch {
                test: BranchTest::CounterLt(k, 3),
                on_true: top,
                on_false: top + 3,
            });
            b.build().unwrap()
        },
        cfg: MachineConfig::new(6).with_costs(ManagementCosts::pax_default()),
        policy: OverlapPolicy::overlap(),
        jobs: 1,
    });
    // E12: clustered memory with the data-proximity assignment scan.
    v.push(Shape {
        name: "e12_proximity",
        program: two_phase(128, c10, EnablementMapping::Identity),
        cfg: MachineConfig::ideal(8)
            .with_locality(LocalityModel::new(4, SimDuration(7)).with_layout(DataLayout::Block)),
        policy: OverlapPolicy::overlap()
            .with_assignment(AssignmentPolicy::DataProximity { scan_window: 16 }),
        jobs: 1,
    });
    v
}

/// Everything about a run that a descriptor-layout change could disturb:
/// event count, makespan, dispatch/split/descriptor counts, per-phase
/// granule and overlap totals, and the locality traffic split.
fn fingerprint(shape: &Shape) -> String {
    fingerprint_on(shape, shape.cfg.clone())
}

/// [`fingerprint`] under an overridden machine (lane-count / batch-policy
/// sweeps over the same scenario).
fn fingerprint_on(shape: &Shape, cfg: MachineConfig) -> String {
    let mut sim = Simulation::new(cfg, shape.policy.clone()).with_seed(7);
    for _ in 0..shape.jobs {
        sim.add_job(shape.program.clone());
    }
    let r = sim.run().unwrap_or_else(|e| panic!("{}: {e}", shape.name));
    golden_fingerprint(shape.name, &r)
}

/// The golden-line format shared by every driver: the observable surface
/// a calendar/layout/driver change is *not* allowed to perturb.
fn golden_fingerprint(name: &str, r: &pax_core::report::RunReport) -> String {
    let phase_sig: String = r
        .phases
        .iter()
        .map(|p| {
            format!(
                "{}:{}+{}",
                p.job, p.stats.executed_granules, p.stats.overlap_granules
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{name} ev={} mk={} tasks={} splits={} descs={} peak={} mgmt={} remote={} phases=[{phase_sig}]",
        r.events,
        r.makespan.ticks(),
        r.tasks_dispatched,
        r.splits,
        r.descriptors_created,
        r.descriptors_peak,
        r.mgmt_time.ticks(),
        r.remote_granules,
    )
}

/// Goldens recorded with the array-of-structs `Descriptor` slab at commit
/// bf7c64c (PR 2), seed 7. The SoA arena must reproduce every line.
const GOLDEN: &[&str] = &[
    "e1_strict_null ev=392 mk=240 tasks=192 splits=190 descs=192 peak=9 mgmt=0 remote=0 phases=[0:96+0,0:96+0]",
    "e2_identity_demand ev=520 mk=320 tasks=256 splits=254 descs=256 peak=136 mgmt=0 remote=0 phases=[0:128+0,0:128+0]",
    "e3_universal ev=408 mk=250 tasks=200 splits=198 descs=200 peak=10 mgmt=0 remote=0 phases=[0:100+0,0:100+4]",
    "e4_task_sizing ev=56 mk=320 tasks=24 splits=22 descs=24 peak=18 mgmt=0 remote=0 phases=[0:96+0,0:96+0]",
    "e5_mgmt_costs ev=380 mk=3331 tasks=128 splits=126 descs=128 peak=68 mgmt=576 remote=0 phases=[0:64+0,0:64+3]",
    "e6_multi_job ev=438 mk=320 tasks=192 splits=188 descs=192 peak=102 mgmt=0 remote=0 phases=[0:48+0,0:48+0,1:48+0,1:48+0]",
    "e7_presplit ev=88 mk=200 tasks=40 splits=19 descs=40 peak=40 mgmt=0 remote=0 phases=[0:80+0,0:80+16]",
    "e7_succ_split_task ev=91 mk=200 tasks=40 splits=38 descs=40 peak=26 mgmt=0 remote=0 phases=[0:80+0,0:80+16]",
    "e8_reverse_immediate ev=265 mk=160 tasks=128 splits=64 descs=128 peak=64 mgmt=0 remote=0 phases=[0:64+0,0:64+0]",
    "e8_reverse_background ev=286 mk=579 tasks=128 splits=125 descs=128 peak=10 mgmt=576 remote=0 phases=[0:64+0,0:64+7]",
    "e10_serial_gap ev=169 mk=225 tasks=80 splits=78 descs=80 peak=5 mgmt=0 remote=0 phases=[0:40+0,0:40+0]",
    "e13_stochastic_loop ev=88 mk=837 tasks=36 splits=33 descs=36 peak=7 mgmt=144 remote=0 phases=[0:48+0,0:48+0,0:48+0]",
    "e12_proximity ev=80 mk=512 tasks=32 splits=30 descs=32 peak=18 mgmt=0 remote=112 phases=[0:128+0,0:128+112]",
];

#[test]
fn soa_arena_matches_aos_goldens() {
    let shapes = shapes();
    assert_eq!(shapes.len(), 13, "one scenario per experiment family");
    let actual: Vec<String> = shapes.iter().map(fingerprint).collect();
    let mut mismatches = Vec::new();
    for (i, a) in actual.iter().enumerate() {
        match GOLDEN.get(i) {
            Some(&g) if g == a => {}
            got => mismatches.push(format!("  expected: {:?}\n  actual:   {a}", got)),
        }
    }
    assert!(
        mismatches.is_empty(),
        "descriptor-layout behavior drift:\n{}",
        mismatches.join("\n")
    );
}

/// The multi-lane executive's batched drain must be *observably
/// identical* to single-event service: a batch is a prefix of the
/// deterministic event order and each event in it is serviced exactly as
/// `BatchPolicy::Single` services it. Diff the full fingerprint (events,
/// makespan, tasks, splits, descriptors, management time, overlap
/// totals) across the two batch policies on every experiment shape, at several
/// lane counts — any drift in merge order, wakeup order, or cost
/// charging changes at least one field.
#[test]
fn batched_drain_matches_single_service_on_all_shapes() {
    use pax_sim::machine::BatchPolicy;
    let shapes = shapes();
    assert_eq!(shapes.len(), 13, "one scenario per experiment family");
    let mut mismatches = Vec::new();
    for lanes in [1usize, 2, 7, 64] {
        for shape in &shapes {
            let with = |batch: BatchPolicy| {
                fingerprint_on(
                    shape,
                    shape
                        .cfg
                        .clone()
                        .with_executive_lanes(lanes)
                        .with_batch_policy(batch),
                )
            };
            let single = with(BatchPolicy::Single);
            let batched = with(BatchPolicy::Coincident);
            if batched != single {
                mismatches.push(format!(
                    "  lanes={lanes}\n  single:  {single}\n  batched: {batched}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "batched executive service drifted from the Single reference:\n{}",
        mismatches.join("\n")
    );
}

/// Drive a simulation through the non-consuming session API in fixed
/// `window`-tick increments instead of one `run()` call.
fn fingerprint_windowed(shape: &Shape, cfg: MachineConfig, window: u64) -> String {
    let mut sim = Simulation::new(cfg, shape.policy.clone()).with_seed(7);
    for _ in 0..shape.jobs {
        sim.add_job(shape.program.clone());
    }
    let mut session = sim
        .into_session()
        .unwrap_or_else(|e| panic!("{}: {e}", shape.name));
    let mut t = window;
    while !session
        .step_until(SimTime(t))
        .unwrap_or_else(|e| panic!("{}: {e}", shape.name))
    {
        t += window;
    }
    let r = session
        .report()
        .unwrap_or_else(|e| panic!("{}: {e}", shape.name));
    golden_fingerprint(shape.name, &r)
}

/// The session API is a drive-loop refactor, not a semantics change:
/// every experiment shape stepped through `Session::step_until` in
/// arbitrary fixed windows — unsharded and at shard counts 2/4/8 (which
/// collapse to one shard on these single-group shapes but still take the
/// coordinator path) — must reproduce the recorded goldens bit for bit.
#[test]
fn session_windowed_drive_matches_goldens_on_all_shapes() {
    let shapes = shapes();
    assert_eq!(shapes.len(), 13, "one scenario per experiment family");
    let mut mismatches = Vec::new();
    for window in [13u64, 401] {
        for shards in [1usize, 4] {
            for (i, shape) in shapes.iter().enumerate() {
                let cfg = if shards <= 1 {
                    shape.cfg.clone()
                } else {
                    shape.cfg.clone().with_shards(ShardPolicy::new(shards))
                };
                let actual = fingerprint_windowed(shape, cfg, window);
                match GOLDEN.get(i) {
                    Some(&g) if g == actual => {}
                    got => mismatches.push(format!(
                        "  window={window} shards={shards}\n  expected: {got:?}\n  actual:   {actual}"
                    )),
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "session windowed drive drifted from the batch goldens:\n{}",
        mismatches.join("\n")
    );
}

/// The sharded engine is a host-performance knob, not a semantics knob
/// (the `ShardPolicy` contract): every experiment shape must reproduce
/// the recorded goldens bit for bit at shard counts 2, 4, and 8 — plus
/// the pathological count 3, which divides nothing evenly. Each shape is
/// a single machine group, so every shard count collapses to one shard
/// carrying the whole run; any drift means windowed draining perturbed
/// the schedule.
#[test]
fn sharded_engine_matches_goldens_on_all_shapes() {
    let shapes = shapes();
    assert_eq!(shapes.len(), 13, "one scenario per experiment family");
    let mut mismatches = Vec::new();
    for shards in [2usize, 3, 4, 8] {
        for (i, shape) in shapes.iter().enumerate() {
            let actual = fingerprint_on(
                shape,
                shape.cfg.clone().with_shards(ShardPolicy::new(shards)),
            );
            match GOLDEN.get(i) {
                Some(&g) if g == actual => {}
                got => mismatches.push(format!(
                    "  shards={shards}\n  expected: {got:?}\n  actual:   {actual}"
                )),
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "sharded-engine behavior drift:\n{}",
        mismatches.join("\n")
    );
}

/// Multi-group fleets — where sharding actually distributes work — must
/// produce identical reports at every shard count, on both the in-process
/// reference driver (`Simulation::run`) and the threaded epoch-barrier
/// driver (`pax_runtime::run_simulation_sharded`). Covers an independent
/// fleet and a staged fleet whose admission edges exercise the epoch
/// coordinator's conservative windows.
#[test]
fn fleet_reports_are_identical_across_shard_counts_and_drivers() {
    use pax_workloads::FleetConfig;
    let fleets = [
        ("independent_5x48", FleetConfig::independent(5, 48)),
        (
            "staged_5x48_lat350",
            FleetConfig::staged(5, 48, SimDuration(350)),
        ),
    ];
    for (name, fleet) in &fleets {
        let reference = fleet.simulation(MachineConfig::new(4), 7).run().unwrap();
        for shards in [1usize, 2, 3, 4, 8] {
            let cfg = MachineConfig::new(4).with_shards(ShardPolicy::new(shards));
            let inline = fleet.simulation(cfg.clone(), 7).run().unwrap();
            assert_eq!(
                inline, reference,
                "{name}: reference driver diverged at shards={shards}"
            );
            let threaded = pax_runtime::run_simulation_sharded(fleet.simulation(cfg, 7)).unwrap();
            assert_eq!(
                threaded, reference,
                "{name}: threaded driver diverged at shards={shards}"
            );
        }
    }
}

mod sharded_properties {
    use super::*;
    use pax_workloads::FleetConfig;
    use proptest::prelude::*;

    proptest! {
        // Each case runs 2 × (shard counts + 1) full simulations; a few
        // dozen random fleets cover the group/shard remainder lattice.
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Randomized multi-group programs: the sharded engine (inline
        /// and threaded) reproduces the single-thread engine's full
        /// report fingerprint for any group count, granule count, task
        /// size, stage latency, seed, and shard count — including shard
        /// counts exceeding the group count.
        #[test]
        fn random_fleets_shard_identically(
            groups in 1usize..6,
            granules in 4u32..48,
            task_size in 1u32..9,
            latency in 0u64..400,
            seed in 0u64..1000,
            shards in 2usize..9,
        ) {
            // latency 0 means an independent fleet (admission edges
            // require a positive latency).
            let mut fleet = match latency {
                0 => FleetConfig::independent(groups, granules),
                l => FleetConfig::staged(groups, granules, SimDuration(l)),
            };
            fleet.task_size = task_size;
            let reference = fleet.simulation(MachineConfig::new(3), seed).run().unwrap();
            let cfg = MachineConfig::new(3).with_shards(ShardPolicy::new(shards));
            let inline = fleet.simulation(cfg.clone(), seed).run().unwrap();
            prop_assert_eq!(&inline, &reference, "inline sharded driver diverged");
            let threaded =
                pax_runtime::run_simulation_sharded(fleet.simulation(cfg, seed)).unwrap();
            prop_assert_eq!(&threaded, &reference, "threaded sharded driver diverged");
        }

        /// The session API with arbitrary window sizes is a pure
        /// re-chunking of the drive loop: stepping a random fleet in
        /// random `step_until` increments — through the core [`Session`]
        /// and through the runtime `ThreadedSession` — yields the exact
        /// report `run()` produces in one shot.
        #[test]
        fn random_windows_match_one_shot_run(
            groups in 1usize..5,
            granules in 4u32..40,
            latency in 0u64..300,
            seed in 0u64..1000,
            shards in 1usize..5,
            window in 1u64..2000,
        ) {
            let fleet = match latency {
                0 => FleetConfig::independent(groups, granules),
                l => FleetConfig::staged(groups, granules, SimDuration(l)),
            };
            let cfg = MachineConfig::new(3).with_shards(ShardPolicy::new(shards));
            let reference = fleet.simulation(cfg.clone(), seed).run().unwrap();
            let mut session = fleet.simulation(cfg.clone(), seed).into_session().unwrap();
            let mut t = window;
            while !session.step_until(SimTime(t)).unwrap() {
                t += window;
            }
            let windowed = session.report().unwrap();
            prop_assert_eq!(&windowed, &reference, "windowed session diverged");
            let mut ts = pax_runtime::ThreadedSession::new(
                fleet.simulation(cfg, seed).into_sharded().unwrap(),
            );
            let mut t = window;
            while !ts.step_until(SimTime(t)).unwrap() {
                t += window;
            }
            let threaded = ts.finish().unwrap();
            prop_assert_eq!(&threaded, &reference, "windowed threaded session diverged");
        }

        /// One epoch loop drives both executors, so a calling-thread
        /// session and a `ThreadedSession` over the same staged fleet,
        /// stepped through the same random cuts, agree after *every* cut
        /// on what `step_until` returned, and at the end on the report.
        #[test]
        fn random_cuts_agree_call_by_call_across_executors(
            groups in 2usize..6,
            granules in 4u32..40,
            latency in 1u64..300,
            seed in 0u64..1000,
            shards in 2usize..5,
            cuts in proptest::collection::vec(1u64..1500, 1..16),
        ) {
            let fleet = FleetConfig::staged(groups, granules, SimDuration(latency));
            let cfg = MachineConfig::new(3).with_shards(ShardPolicy::new(shards));
            let mut calling = fleet.simulation(cfg.clone(), seed).into_session().unwrap();
            let mut threaded = pax_runtime::ThreadedSession::new(
                fleet.simulation(cfg, seed).into_sharded().unwrap(),
            );
            let mut t = 0;
            for cut in cuts {
                t += cut;
                let done = calling.step_until(SimTime(t)).unwrap();
                prop_assert_eq!(threaded.step_until(SimTime(t)).unwrap(), done, "cut at {}", t);
            }
            prop_assert_eq!(calling.report().unwrap(), threaded.finish().unwrap());
        }
    }
}

/// Regeneration helper: `cargo test --test arena_equivalence -- --nocapture print_fingerprints`
#[test]
fn print_fingerprints() {
    for line in shapes().iter().map(fingerprint) {
        println!("    \"{line}\",");
    }
}
