//! The equivalence suite's own cases, each run through the determinism
//! oracle (`tests/common/mod.rs`): the thirteen experiment shapes against
//! their goldens, the fleets, the multi-group admission cases, and one
//! proptest over random fleets.
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
//! changes at least one field of at least one fingerprint. The golden is
//! checked on the oracle's reference, so it is what every driver, shard
//! count and cut set returned.
//!
//! If an *intentional* behavior change ever lands, regenerate with:
//!
//! ```text
//! cargo test --test arena_equivalence -- --nocapture print_fingerprints
//! ```

mod common;

use common::oracle;
use pax_core::prelude::*;
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
    let phases = ["a", "b"].map(|name| PhaseDef::new(name, granules, cost.clone()));
    Program::chain(phases.into(), vec![mapping]).unwrap()
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
    // E13-flavored: looping dispatch under stochastic granule costs.
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

/// A shape's simulation on `cfg` (its own machine, or a lane-count
/// variant of it).
fn simulation(shape: &Shape, cfg: MachineConfig) -> Simulation {
    let mut sim = Simulation::new(cfg, shape.policy.clone()).with_seed(7);
    for _ in 0..shape.jobs {
        sim.add_job(shape.program.clone());
    }
    sim
}

/// Where the oracle pauses the shapes: the first ticks, instants inside
/// every run (makespans are 200–3 331 ticks), and one past them all.
const SHAPE_CUTS: &[u64] = &[0, 1, 13, 26, 160, 401, 802, 4_000];

/// The shape's report on `cfg`, once every driver returned it.
fn agreed(shape: &Shape, cfg: MachineConfig) -> RunReport {
    oracle(shape.name, |cfg| simulation(shape, cfg), cfg, SHAPE_CUTS)
        .reference
        .unwrap_or_else(|e| panic!("{}: {e}", shape.name))
}

/// The golden-line format shared by every driver: the observable surface
/// a calendar/layout/driver change is *not* allowed to perturb.
fn golden_fingerprint(name: &str, r: &RunReport) -> String {
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

/// Every shape on its own (one-lane) machine reproduces its golden, on
/// every driver, at every shard count (a single-group shape collapses to
/// one shard but still takes the coordinator path), under both batch
/// policies and paused at [`SHAPE_CUTS`].
#[test]
fn soa_arena_matches_aos_goldens() {
    let shapes = shapes();
    assert_eq!(shapes.len(), 13, "one scenario per experiment family");
    let mut mismatches = Vec::new();
    for (shape, &golden) in shapes.iter().zip(GOLDEN) {
        let actual = golden_fingerprint(shape.name, &agreed(shape, shape.cfg.clone()));
        if actual != golden {
            mismatches.push(format!("  expected: {golden}\n  actual:   {actual}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "descriptor-layout behavior drift:\n{}",
        mismatches.join("\n")
    );
}

/// Every shape keeps the determinism contract on a multi-lane executive:
/// the oracle runs each at 2, 7 and 64 lanes through every shard count,
/// driver and cut, and checks that the lanes' service fits the makespan.
/// One lane is the goldens above.
#[test]
fn every_shape_is_deterministic_on_a_multi_lane_executive() {
    let shapes = shapes();
    for lanes in [2usize, 7, 64] {
        for shape in &shapes {
            agreed(shape, shape.cfg.clone().with_executive_lanes(lanes));
        }
    }
}

/// Strict two-phase jobs of `(group, granules)` at five ticks a granule
/// on `cfg`, gated by admission edges `(pred, succ, latency)`.
fn grouped(cfg: MachineConfig, jobs: &[(usize, u32)], links: &[(usize, usize, u64)]) -> Simulation {
    let mut sim = Simulation::new(cfg, OverlapPolicy::strict()).with_seed(7);
    for &(group, granules) in jobs {
        let program = two_phase(granules, CostModel::constant(5), EnablementMapping::Null);
        sim.add_job_in_group(program, group);
    }
    for &(pred, succ, latency) in links {
        sim.link_groups(pred, succ, SimDuration(latency));
    }
    sim
}

/// Multi-group simulations, where sharding actually distributes work: an
/// independent fleet, a staged one whose admission edges exercise the
/// coordinator's conservative windows, one group of two jobs, and a
/// chain A → B → C whose last admission estimate must flow through the
/// unadmitted B without stalling the planner.
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
        let build = |cfg| fleet.simulation(cfg, 7);
        let cuts = &[0, 350, 1_200, 3_000, 9_000];
        oracle(name, build, MachineConfig::new(4), cuts)
            .reference
            .unwrap();
    }
    let one_group = |cfg| grouped(cfg, &[(0, 64), (0, 64)], &[]);
    oracle("one_group", one_group, MachineConfig::new(4), &[40, 80])
        .reference
        .unwrap();
    let chain = |cfg| grouped(cfg, &[(0, 16), (1, 16), (2, 16)], &[(0, 1, 5), (1, 2, 9)]);
    oracle("chain", chain, MachineConfig::ideal(2), &[10, 45, 90])
        .reference
        .unwrap();
}

/// Three groups whose jobs all hold one reverse map and one checkerboard
/// seam map. Each simulation gets fresh payloads, so its first initiation
/// under a map builds that map's composite: at more than one shard, on
/// whichever shard thread gets there first, while the others wait on it.
#[test]
fn groups_sharing_indirect_payloads_agree_on_every_driver() {
    use pax_workloads::{Checkerboard, Color};
    let board = Checkerboard::new(8);
    let (red, black) = (board.granules(Color::Red), board.granules(Color::Black));
    let shared = |cfg| {
        let seam = EnablementMapping::Seam(Arc::new(board.seam_map(Color::Red)));
        let gather = (0..red)
            .map(|r| vec![r % black, (3 * r + 1) % black])
            .collect();
        let reverse = EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(gather, black)));
        let cost = CostModel::new(DurationDist::uniform(5, 50));
        let phases = [("red", red), ("black", black), ("gather", red)]
            .map(|(name, granules)| PhaseDef::new(name, granules, cost.clone()));
        let program = Program::chain(phases.into(), vec![seam, reverse]).unwrap();
        let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(2));
        let mut sim = Simulation::new(cfg, policy).with_seed(7);
        for group in [0, 1, 2, 0, 1, 2] {
            sim.add_job_in_group(program.clone(), group);
        }
        sim
    };
    let r = oracle(
        "shared_payloads",
        shared,
        MachineConfig::new(4),
        &[30, 90, 200],
    )
    .reference
    .unwrap();
    assert_eq!((r.processors, r.jobs.len()), (12, 6));
    assert!(r.total_overlap_granules() > 0);
}

/// A seam map is a reverse map under another kind. A two-phase chain run
/// over one set of lists, once through a seam edge and once through a
/// reverse edge, gives the same report on every driver, strict and
/// overlapped: only the kind an overlapped phase reports it was enabled
/// by differs.
#[test]
fn seam_and_reverse_edges_over_one_list_run_identically() {
    let n = 48u32;
    let lists: Vec<Vec<u32>> = (0..n)
        .map(|r| vec![r, (r + 1) % n, (5 * r + 3) % n])
        .collect();
    let edges = [
        EnablementMapping::Seam(Arc::new(ReverseMap::new(lists.clone(), n))),
        EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(lists, n))),
    ];
    let machine = MachineConfig::new(6).with_costs(ManagementCosts::pax_default());
    for policy in [OverlapPolicy::strict(), OverlapPolicy::overlap()] {
        let [mut seam, reverse] = edges.each_ref().map(|edge| {
            let build = |cfg| {
                let cost = CostModel::new(DurationDist::uniform(5, 50));
                let policy = policy.clone().with_sizing(TaskSizing::Fixed(2));
                let mut sim = Simulation::new(cfg, policy).with_seed(7);
                sim.add_job(two_phase(n, cost, edge.clone()));
                sim
            };
            oracle(edge.kind().label(), build, machine.clone(), &[40, 200])
                .reference
                .unwrap()
        });
        let relabelled = seam
            .phases
            .iter_mut()
            .filter(|p| p.enabled_by == Some(MappingKind::Seam))
            .map(|p| p.enabled_by = Some(MappingKind::ReverseIndirect))
            .count();
        let overlapped = policy.enabled;
        assert_eq!(relabelled > 0, overlapped);
        assert_eq!(seam, reverse, "overlap {overlapped}");
    }
}

/// Five replicas of the 4-processor machine merge into one report of 20
/// processors and five jobs.
#[test]
fn independent_groups_merge_and_shard_identically() {
    let jobs: Vec<(usize, u32)> = (0..5).map(|g| (g, 32)).collect();
    let five = |cfg| grouped(cfg, &jobs, &[]);
    let r = oracle("five_groups", five, MachineConfig::new(4), &[20, 40])
        .reference
        .unwrap();
    assert_eq!(r.processors, 20);
    assert_eq!(r.jobs.len(), 5);
}

/// Group 1 starts exactly at group 0's finish plus the edge latency,
/// independent of the epoch schedule.
#[test]
fn admission_edges_offset_successor_groups_exactly() {
    let solo = grouped(MachineConfig::ideal(4), &[(0, 32)], &[])
        .run()
        .unwrap();
    let m = solo.makespan.ticks();
    let pair = |cfg| grouped(cfg, &[(0, 32), (1, 32)], &[(0, 1, 17)]);
    let cuts = &[m - 1, m, m + 16, m + 17, m + 18];
    let r = oracle("linked_pair", pair, MachineConfig::ideal(4), cuts)
        .reference
        .unwrap();
    assert_eq!(r.jobs[1].started_at.ticks(), m + 17);
    assert_eq!(r.makespan.ticks(), m + 17 + m);
    assert_eq!(r.events, solo.events * 2);
}

/// An admission cycle is a fleet-level deadlock naming the cycle's jobs;
/// a session stepped past the last runnable group's finish reports it
/// there.
#[test]
fn admission_cycle_is_a_deadlock() {
    let cycle = |cfg| grouped(cfg, &[(0, 8), (1, 8), (2, 8)], &[(1, 2, 3), (2, 1, 3)]);
    let v = oracle("admission_cycle", cycle, MachineConfig::ideal(2), &[5, 100]);
    match &v.reference {
        Err(EngineError::Deadlock {
            unfinished_jobs, ..
        }) => assert_eq!(unfinished_jobs, &[1, 2]),
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert_eq!(v.cuts[0], Ok(false));
    assert_eq!(v.cuts[1], v.reference.map(|_| true));
}

/// Jobs submitted alternating between groups keep their global indices
/// in the merged report.
#[test]
fn interleaved_submission_order_is_restored_in_the_report() {
    let interleaved = |cfg| grouped(cfg, &[(0, 8), (1, 24), (0, 8)], &[]);
    let r = oracle("interleaved", interleaved, MachineConfig::new(2), &[30])
        .reference
        .unwrap();
    assert_eq!(r.jobs.len(), 3);
    // Group 1's lone job (global index 1) is the long one.
    assert!(r.jobs[1].makespan().unwrap() > r.jobs[0].makespan().unwrap());
    // Phases point back at global job indices.
    assert!(r.phases.iter().any(|p| p.job == 1));
    assert!(r.phases.iter().all(|p| p.job <= 2));
}

/// A self-edge and a zero-latency edge are `InvalidProgram` errors that
/// name the edge, from every driver.
#[test]
fn malformed_admission_edges_are_errors_on_every_driver() {
    for (link, says) in [
        ((1, 1, 5), "admission edge 1 -> 1 gates a group on itself"),
        ((0, 1, 0), "admission edge 0 -> 1 has zero latency"),
    ] {
        let malformed = |cfg| grouped(cfg, &[(0, 8), (1, 8)], &[link]);
        match oracle(says, malformed, MachineConfig::ideal(2), &[10]).reference {
            Err(EngineError::InvalidProgram(msg)) => assert!(msg.contains(says), "{msg}"),
            other => panic!("expected invalid program, got {other:?}"),
        }
    }
}

mod sharded_properties {
    use super::*;
    use pax_workloads::FleetConfig;
    use proptest::prelude::*;

    proptest! {
        // Each case is 41 runs and 20 paused sessions; a few dozen random
        // fleets cover the group/shard remainder lattice.
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random multi-group fleets through the oracle: any group count,
        /// granule count, task size, stage latency (0 means an
        /// independent fleet: admission edges need a positive one), seed
        /// and lane count, fault-free or under a random fault plan, paused
        /// at 1–16 random cuts.
        #[test]
        fn random_fleets_shard_identically(
            groups in 1usize..6,
            granules in 4u32..48,
            task_size in 1u32..9,
            latency in 0u64..400,
            seed in 0u64..1000,
            lanes in prop_oneof![Just(1usize), Just(2), Just(7)],
            faults in proptest::bool::ANY,
            ttf in 300u64..4_000,
            ttr in 2u64..800,
            steps in proptest::collection::vec(1u64..1500, 1..17),
        ) {
            let mut fleet = match latency {
                0 => FleetConfig::independent(groups, granules),
                l => FleetConfig::staged(groups, granules, SimDuration(l)),
            };
            fleet.task_size = task_size;
            let mut machine = MachineConfig::new(3).with_executive_lanes(lanes);
            if faults {
                let plan = FaultPlan::random(
                    DurationDist::exponential(ttf),
                    DurationDist::uniform(1, ttr),
                );
                machine = machine.with_faults(plan);
            }
            let cuts: Vec<u64> = steps
                .iter()
                .scan(0, |t, step| {
                    *t += step;
                    Some(*t)
                })
                .collect();
            let name = format!("{fleet:?} seed={seed} machine={machine:?} cuts={cuts:?}");
            let v = oracle(&name, |cfg| fleet.simulation(cfg, seed), machine, &cuts);
            prop_assert!(v.reference.is_ok(), "{}: {:?}", name, v.reference);
        }
    }
}

/// Regeneration helper: `cargo test --test arena_equivalence -- --nocapture print_fingerprints`
#[test]
fn print_fingerprints() {
    for shape in &shapes() {
        let r = simulation(shape, shape.cfg.clone()).run().unwrap();
        println!("    \"{}\",", golden_fingerprint(shape.name, &r));
    }
}
