use super::*;
use crate::mapping::{EnablementMapping, ReverseMap};
use crate::phase::PhaseDef;
use crate::program::{EnableSpec, ProgramBuilder, Step};
use crate::report::RunReport;
use pax_sim::dist::{ArrivalProcess, CostModel};

/// `edges.len() + 1` phases of `granules` granules costing `cost_ticks`
/// each, chained by `edges`.
fn linear_program(granules: u32, cost_ticks: u64, edges: Vec<EnablementMapping>) -> Program {
    let phases = (0..=edges.len())
        .map(|i| PhaseDef::new(format!("p{i}"), granules, CostModel::constant(cost_ticks)))
        .collect();
    Program::chain(phases, edges).unwrap()
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
    let p = linear_program(32, 5, vec![]);
    let r = run(p, 4, OverlapPolicy::strict());
    assert_eq!(r.makespan.ticks(), 40);
    assert_eq!(r.compute_time.ticks(), 160);
    assert!((r.utilization() - 1.0).abs() < 1e-9);
    assert_eq!(r.phases.len(), 1);
    assert_eq!(r.phases[0].stats.executed_granules, 32);
}

#[test]
fn level_sweeps_hold_only_the_changes_in_flight() {
    // Ten times the work must not deepen the pending buffer: what
    // waits is what the processors have in flight, never the history
    // of the run.
    let worst_pending = |granules: u32| {
        let program = linear_program(granules, 100, vec![EnablementMapping::Identity]);
        let policy = OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1));
        let mut sim = Simulation::new(MachineConfig::new(8), policy);
        sim.add_job(program);
        let mut eng = Engine::new(sim);
        eng.start();
        let mut worst = 0;
        while let Some(t) = eng.next_event_time() {
            eng.run_window(Some(t));
            worst = worst.max(eng.computing.pending());
        }
        assert!(eng.finish().is_ok());
        worst
    };
    let (small, large) = (worst_pending(500), worst_pending(5_000));
    assert!(small > 0 && large <= small + 2, "{small} -> {large}");
    // A task's `-1` is added when its completion is serviced, at the
    // round's instant, so what waits is that instant's net change plus
    // one start a processor whose dispatch service has not ended — not
    // a start and an end for every task in flight (8 here; 19 when the
    // executive lanes' services waited in a second sweep).
    assert!(large <= 8 + 1, "{large} changes pending on 8 processors");
}

#[test]
fn strict_barrier_sequences_phases() {
    let p = linear_program(16, 10, vec![EnablementMapping::Identity; 2]);
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
    let p = linear_program(5, 10, vec![]);
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
    let p = linear_program(6, 10, vec![EnablementMapping::Universal]);
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
    let p = linear_program(10, 10, vec![EnablementMapping::Identity]);
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
        let p = linear_program(12, 7, vec![EnablementMapping::Identity]);
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
    let p = linear_program(8, 10, vec![EnablementMapping::Null]);
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
    let p = linear_program(10, 10, vec![mapping]);
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
    let p = linear_program(8, 10, vec![mapping]);
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

/// Successor granule `r` requires current granules `r + shift` and
/// `r + shift + 1` (mod `current`): a different map for every shift.
fn ring_reverse_map(successor: u32, current: u32, shift: u32) -> std::sync::Arc<ReverseMap> {
    let req = (0..successor)
        .map(|r| vec![(r + shift) % current, (r + shift + 1) % current])
        .collect();
    std::sync::Arc::new(ReverseMap::new(req, current))
}

/// Phases of the given granule counts, phase `i` enabling phase `i + 1`
/// through `maps[i]`, the whole chain repeated `iterations` times (no
/// overlap across the back edge).
fn indirect_chain(granules: &[u32], maps: &[EnablementMapping], iterations: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let ids: Vec<PhaseId> = granules
        .iter()
        .enumerate()
        .map(|(i, &g)| b.phase(PhaseDef::new(format!("p{i}"), g, CostModel::constant(10))))
        .collect();
    let k = b.counter();
    let loop_top = b.next_index();
    for (i, &id) in ids.iter().enumerate() {
        match maps.get(i) {
            Some(m) => b.dispatch_enable(
                id,
                vec![EnableSpec {
                    successor: ids[i + 1],
                    mapping: m.clone(),
                }],
            ),
            None => b.dispatch(id),
        };
    }
    b.incr(k, 1);
    let after = b.next_index() + 1;
    b.step(Step::Branch {
        test: crate::program::BranchTest::CounterLt(k, iterations),
        on_true: loop_top,
        on_false: after,
    });
    b.build().unwrap()
}

#[test]
fn shared_and_distinct_payloads_give_one_report() {
    // Two jobs behind one `Arc<ReverseMap>` share one built map; two jobs
    // holding equal maps in distinct `Arc`s build two. Nothing a report
    // records can tell the difference.
    let two_jobs = |first: std::sync::Arc<ReverseMap>, second: std::sync::Arc<ReverseMap>| {
        let policy = OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1));
        let mut sim = Simulation::new(MachineConfig::new(3), policy);
        for map in [first, second] {
            sim.add_job(indirect_chain(
                &[8, 8],
                &[EnablementMapping::ReverseIndirect(map)],
                2,
            ));
        }
        sim.run().expect("run failed")
    };
    let one = ring_reverse_map(8, 8, 0);
    let shared = two_jobs(one.clone(), one);
    let distinct = two_jobs(ring_reverse_map(8, 8, 0), ring_reverse_map(8, 8, 0));
    assert!(shared.total_overlap_granules() > 0);
    assert_eq!(shared, distinct);
}

#[test]
fn one_map_serves_current_phases_of_any_fitting_size() {
    // One map behind a 12-granule and an 8-granule current phase: its one
    // composite covers the 8 current granules it names, and the run is the
    // one two separate `Arc`s give.
    let chain = |first: std::sync::Arc<ReverseMap>, second: std::sync::Arc<ReverseMap>| {
        let maps = [
            EnablementMapping::ReverseIndirect(first),
            EnablementMapping::ReverseIndirect(second),
        ];
        let policy = OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1));
        let mut sim = Simulation::new(MachineConfig::new(3), policy);
        sim.add_job(indirect_chain(&[12, 8, 8], &maps, 2));
        sim.run().expect("run failed")
    };
    let one = ring_reverse_map(8, 8, 3);
    let shared = chain(one.clone(), one);
    let distinct = chain(ring_reverse_map(8, 8, 3), ring_reverse_map(8, 8, 3));
    assert_eq!(shared.phases[1].stats.executed_granules, 8);
    assert_eq!(shared, distinct);
}

#[test]
fn eleven_map_chain_reads_its_recorded_run() {
    // Three passes over a chain of eleven distinct maps: the run is the
    // one recorded, for these maps, from the engine that built a map per
    // initiation.
    let distinct = 11;
    let maps: Vec<EnablementMapping> = (0..distinct as u32)
        .map(|shift| EnablementMapping::ReverseIndirect(ring_reverse_map(16, 16, shift)))
        .collect();
    let policy = OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1));
    let mut sim = Simulation::new(MachineConfig::new(4), policy);
    sim.add_job(indirect_chain(&vec![16; distinct + 1], &maps, 3));
    let r = sim.run().expect("run failed");
    assert_eq!(r.phases.len(), 3 * (distinct + 1));
    assert!(r.total_overlap_granules() > 0);
    assert_eq!(
        (r.makespan.ticks(), r.events, r.mgmt_time.ticks()),
        (4_062, 1_288, 4_011)
    );
}

#[test]
fn stale_background_build_leaves_nothing_on_the_instance() {
    // A map so dear (32 entries at 100 ticks against a 40-tick phase)
    // that the current phase completes many 64-tick chunks before the
    // build would: the task goes stale and is dropped. The successor
    // then holds no armed counters and no map of its own — only its
    // handle on the mapping's.
    let mut cfg = MachineConfig::new(4);
    cfg.costs.composite_map_per_entry = SimDuration(100);
    let policy = OverlapPolicy::overlap().with_sizing(crate::policy::TaskSizing::Fixed(1));
    let mut sim = Simulation::new(cfg, policy);
    sim.add_job(indirect_chain(
        &[16, 16],
        &[EnablementMapping::ReverseIndirect(ring_reverse_map(
            16, 16, 0,
        ))],
        1,
    ));
    let mut eng = Engine::new(sim);
    eng.start();
    assert!(eng.run_window(None));
    assert!(eng.exec_backlog.is_empty());
    let succ = &eng.instances[1];
    assert_eq!(succ.state, InstState::Complete);
    let cs = succ.counter_state.as_ref().expect("a counted successor");
    assert!(cs.counters.is_none(), "the build never completed");
    assert_eq!(cs.useful, 32);
    assert_eq!(
        std::sync::Arc::strong_count(&cs.composite),
        2,
        "the mapping's map and this handle on it, nothing else"
    );
    let r = eng.finish().unwrap();
    assert_eq!(r.phases[1].stats.overlap_granules, 0);
    assert_eq!(r.phases[1].stats.executed_granules, 16);
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
    assert_eq!(p.interlock_gaps(), Ok(vec![(0, pb)]));
    let r = run(p, 2, OverlapPolicy::overlap());
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
    let p = linear_program(64, 100, vec![EnablementMapping::Universal]);
    let mk = |placement| {
        let cfg = MachineConfig::new(4)
            .with_executive(placement)
            .with_costs(pax_sim::machine::ManagementCosts::pax_default());
        let mut sim = Simulation::new(cfg, OverlapPolicy::strict());
        sim.add_job(linear_program(64, 100, vec![EnablementMapping::Universal]));
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
    sim.add_job(linear_program(16, 10, vec![EnablementMapping::Null]));
    sim.add_job(linear_program(16, 10, vec![EnablementMapping::Null]));
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
        linear_program(8, 10, vec![EnablementMapping::Identity]),
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
        // stochastic costs
        let phases = (0..3)
            .map(|i| {
                PhaseDef::new(
                    format!("p{i}"),
                    64,
                    CostModel::new(DurationDist::uniform(5, 50)),
                )
            })
            .collect();
        let program = Program::chain(phases, vec![EnablementMapping::Universal; 2]).unwrap();
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
    let p = linear_program(30, 10, vec![mapping]);
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
    let p = linear_program(8, 10, vec![]);
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
    MachineConfig::ideal(processors)
        .with_locality(LocalityModel::new(clusters, SimDuration(remote_extra)).with_layout(layout))
}

fn run_on(program: Program, cfg: MachineConfig, policy: OverlapPolicy) -> RunReport {
    let mut sim = Simulation::new(cfg, policy);
    sim.add_job(program);
    sim.run().expect("run failed")
}

#[test]
fn uniform_memory_reports_no_locality_traffic() {
    let p = linear_program(32, 5, vec![]);
    let r = run(p, 4, OverlapPolicy::strict());
    assert_eq!(r.local_granules, 0);
    assert_eq!(r.remote_granules, 0);
    assert_eq!(r.remote_stall, SimDuration::ZERO);
    assert_eq!(r.remote_fraction(), 0.0);
}

#[test]
fn locality_accounts_every_granule() {
    let p = linear_program(96, 5, vec![EnablementMapping::Identity]);
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
    let phases = (0..4)
        .map(|i| {
            PhaseDef::new(
                format!("p{i}"),
                256,
                CostModel::new(DurationDist::uniform(20, 60)),
            )
        })
        .collect();
    let program = Program::chain(phases, vec![EnablementMapping::Identity; 3]).unwrap();
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
    let p = linear_program(64, 10, vec![EnablementMapping::Identity]);
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
    let p = linear_program(256, 10, vec![]);
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
    let p = linear_program(128, 10, vec![EnablementMapping::Identity]);
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
        let p = linear_program(200, 15, vec![EnablementMapping::Identity; 2]);
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
    let p = linear_program(32, 7, vec![EnablementMapping::Identity]);
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
    let p = linear_program(8, 10, vec![]);
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
    let p = linear_program(16, 10, vec![]);
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
    let p = linear_program(12, 10, vec![]);
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
    let gated =
        PhaseDef::new("gated", 4, CostModel::constant(10)).with_requires(vec!["operator".into()]);
    let p = Program::chain(vec![gated], vec![]).unwrap();
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
    let gated = PhaseDef::new("gated", 4, CostModel::constant(10))
        .with_requires(vec!["nonexistent".into()]);
    let p = Program::chain(vec![gated], vec![]).unwrap();
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
    let gated = || {
        let def = PhaseDef::new("gated", 6, CostModel::constant(10));
        Program::chain(vec![def.with_requires(vec!["operator".into()])], vec![]).unwrap()
    };
    let p = gated();
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
    again.add_job(gated());
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
    let gated =
        PhaseDef::new("gated", 5, CostModel::constant(10)).with_requires(vec!["operator".into()]);
    let p = Program::chain(vec![gated], vec![]).unwrap();
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
