//! Property-based tests for the executive's core invariants.

use pax_core::prelude::*;
use pax_sim::dist::{CostModel, DurationDist};
use pax_sim::machine::MachineConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// A chain of one `granules`-granule phase per cost, linked by `mappings`.
fn linear(granules: u32, costs: Vec<DurationDist>, mappings: Vec<EnablementMapping>) -> Program {
    let phases = (costs.into_iter().enumerate())
        .map(|(i, c)| PhaseDef::new(format!("p{i}"), granules, CostModel::new(c)))
        .collect();
    Program::chain(phases, mappings).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every run completes (no deadlock), executes every granule exactly
    /// once, and conserves total compute time.
    #[test]
    fn runs_complete_and_conserve_work(
        granules in 2u32..24,
        procs in 1usize..9,
        cost in 1u64..20,
        nphases in 2usize..5,
        seed in 0u64..1000,
        map_seed in 0usize..5,
        overlap in proptest::bool::ANY,
        strategy in 0usize..3,
    ) {
        let maps: Vec<EnablementMapping> = (0..nphases - 1).map(|i| {
            match (i + map_seed) % 5 {
                0 => EnablementMapping::Universal,
                1 => EnablementMapping::Identity,
                2 => EnablementMapping::Null,
                3 => {
                    let t: Vec<u32> = (0..granules).map(|g| (g * 7 + 3) % granules).collect();
                    EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(t, granules)))
                }
                _ => {
                    let req: Vec<Vec<u32>> =
                        (0..granules).map(|r| vec![r % granules, (r + 1) % granules]).collect();
                    EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(req, granules)))
                }
            }
        }).collect();
        let costs = vec![DurationDist::constant(cost); nphases];
        let program = linear(granules, costs, maps);
        let split = match strategy {
            0 => SplitStrategy::DemandSplit,
            1 => SplitStrategy::PreSplit,
            _ => SplitStrategy::SuccessorSplitTask,
        };
        let policy = if overlap {
            OverlapPolicy::overlap().with_split_strategy(split)
        } else {
            OverlapPolicy::strict()
        };
        let mut sim = Simulation::new(MachineConfig::ideal(procs), policy).with_seed(seed);
        sim.add_job(program);
        let r = sim.run().expect("deadlock");
        // every granule of every phase executed exactly once
        for ph in &r.phases {
            prop_assert_eq!(ph.stats.executed_granules, granules);
        }
        // work conservation: compute time == Σ granule costs
        let expected = granules as u64 * cost * nphases as u64;
        prop_assert_eq!(r.compute_time.ticks(), expected);
        // makespan is at least the critical path lower bound
        prop_assert!(r.makespan.ticks() * procs as u64 >= expected);
        prop_assert!(r.jobs[0].finished_at.is_some());
    }

    /// Overlap never loses to the strict barrier on ideal machines
    /// (work-conserving scheduling with extra available work can only
    /// fill, never displace).
    #[test]
    fn overlap_never_worse_on_ideal_machine(
        granules in 2u32..30,
        procs in 1usize..8,
        nphases in 2usize..5,
        kind in 0usize..2,
    ) {
        let mapping = match kind {
            0 => EnablementMapping::Universal,
            _ => EnablementMapping::Identity,
        };
        let costs = vec![DurationDist::constant(10); nphases];
        let maps = vec![mapping; nphases - 1];
        let program = linear(granules, costs, maps);
        let strict = {
            let mut s = Simulation::new(
                MachineConfig::ideal(procs),
                OverlapPolicy::strict().with_sizing(TaskSizing::Fixed(1)),
            );
            s.add_job(program.clone());
            s.run().unwrap()
        };
        let over = {
            let mut s = Simulation::new(
                MachineConfig::ideal(procs),
                OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1)),
            );
            s.add_job(program);
            s.run().unwrap()
        };
        prop_assert!(
            over.makespan <= strict.makespan,
            "overlap {} > strict {}",
            over.makespan.ticks(),
            strict.makespan.ticks()
        );
    }

    /// The identity-mapping enablement invariant holds for every split
    /// strategy and stochastic costs: successor granule i never starts
    /// before current granule i completes.
    #[test]
    fn identity_enablement_invariant(
        granules in 2u32..20,
        procs in 2usize..6,
        seed in 0u64..500,
        strategy in 0usize..3,
        task in 1u32..4,
    ) {
        let split = match strategy {
            0 => SplitStrategy::DemandSplit,
            1 => SplitStrategy::PreSplit,
            _ => SplitStrategy::SuccessorSplitTask,
        };
        let costs = vec![DurationDist::uniform(1, 30); 2];
        let program = linear(granules, costs, vec![EnablementMapping::Identity]);
        let policy = OverlapPolicy::overlap()
            .with_split_strategy(split)
            .with_sizing(TaskSizing::Fixed(task));
        let mut sim = Simulation::new(MachineConfig::ideal(procs), policy)
            .with_seed(seed)
            .with_gantt();
        sim.add_job(program);
        let r = sim.run().unwrap();
        let g = r.gantt.as_ref().unwrap();
        for i in 0..granules {
            let pred_done = g.granule_completion(0, i).expect("pred granule ran");
            let succ_start = g.granule_start(1, i).expect("succ granule ran");
            prop_assert!(
                succ_start >= pred_done,
                "granule {}: succ start {:?} < pred done {:?} under {:?}",
                i, succ_start, pred_done, split
            );
        }
    }

    /// The reverse-indirect enablement invariant: successor granule r
    /// starts only after all its required current granules complete.
    #[test]
    fn reverse_indirect_enablement_invariant(
        granules in 2u32..16,
        procs in 2usize..6,
        seed in 0u64..500,
        fan in 1usize..4,
        subset_cap in 1u32..64,
    ) {
        let req: Vec<Vec<u32>> = (0..granules)
            .map(|r| (0..fan as u32).map(|j| (r + j * 3) % granules).collect())
            .collect();
        let program = linear(
            granules,
            vec![DurationDist::uniform(1, 20); 2],
            vec![EnablementMapping::ReverseIndirect(Arc::new(
                ReverseMap::new(req.clone(), granules),
            ))],
        );
        let policy = OverlapPolicy::overlap()
            .with_sizing(TaskSizing::Fixed(1))
            .with_indirect_subset(subset_cap);
        let mut sim = Simulation::new(MachineConfig::ideal(procs), policy)
            .with_seed(seed)
            .with_gantt();
        sim.add_job(program);
        let r = sim.run().unwrap();
        let g = r.gantt.as_ref().unwrap();
        for (rr, deps) in req.iter().enumerate() {
            let succ_start = g.granule_start(1, rr as u32).expect("succ ran");
            // Only counter-gated granules carry the early-release
            // guarantee; barrier-released ones trivially satisfy it too
            // (they start after the whole predecessor phase).
            for &d in deps {
                let dep_done = g.granule_completion(0, d).expect("dep ran");
                prop_assert!(
                    succ_start >= dep_done,
                    "succ {} started before dep {} completed", rr, d
                );
            }
        }
    }

    /// Management costs only ever increase makespan, and the dedicated
    /// executive is never slower than the worker-stealing one.
    #[test]
    fn management_costs_monotone(
        granules in 4u32..24,
        procs in 2usize..6,
        scale in 1u64..8,
    ) {
        let program = linear(
            granules,
            vec![DurationDist::constant(50); 3],
            vec![EnablementMapping::Universal; 2],
        );
        let run = |costs: pax_sim::machine::ManagementCosts,
                   placement: pax_sim::machine::ExecutivePlacement| {
            let cfg = MachineConfig::new(procs)
                .with_costs(costs)
                .with_executive(placement);
            let mut s = Simulation::new(cfg, OverlapPolicy::strict());
            s.add_job(program.clone());
            s.run().unwrap()
        };
        use pax_sim::machine::{ExecutivePlacement, ManagementCosts};
        let free = run(ManagementCosts::free(), ExecutivePlacement::Dedicated);
        let cheap = run(ManagementCosts::pax_default(), ExecutivePlacement::Dedicated);
        let costly = run(
            ManagementCosts::pax_default().scaled(scale),
            ExecutivePlacement::Dedicated,
        );
        let stolen = run(
            ManagementCosts::pax_default().scaled(scale),
            ExecutivePlacement::StealsWorker,
        );
        prop_assert!(free.makespan <= cheap.makespan);
        prop_assert!(cheap.makespan <= costly.makespan);
        prop_assert!(costly.makespan <= stolen.makespan);
    }
}

mod rangeset_props {
    use pax_core::ids::GranuleRange;
    use pax_core::rangeset::RangeSet;
    use proptest::prelude::*;

    fn build(ranges: &[(u32, u32)]) -> RangeSet {
        let mut s = RangeSet::new();
        for &(lo, len) in ranges {
            s.insert(GranuleRange::new(lo, lo + len));
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `subtract_into` (the borrowing gap iterator) agrees with the
        /// reference definition: every index in the window is either in
        /// the set or in exactly one reported gap.
        #[test]
        fn subtract_into_partitions_the_window(
            ranges in proptest::collection::vec((0u32..200, 1u32..20), 0..20),
            win_lo in 0u32..200,
            win_len in 0u32..100,
        ) {
            let s = build(&ranges);
            let win = GranuleRange::new(win_lo, win_lo + win_len);
            let mut gaps = Vec::new();
            s.subtract_into(win, &mut gaps);
            // gaps are sorted, disjoint, within the window
            for w in gaps.windows(2) {
                prop_assert!(w[0].hi <= w[1].lo);
            }
            for g in win.iter() {
                let in_gap = gaps.iter().any(|r| r.contains(g));
                prop_assert_eq!(in_gap, !s.contains(g), "index {}", g);
            }
            for r in &gaps {
                prop_assert!(r.lo >= win.lo && r.hi <= win.hi && !r.is_empty());
            }
        }

        /// The stored runs clipped to the window and the gap view tile
        /// the window exactly.
        #[test]
        fn covered_iter_complements_gaps(
            ranges in proptest::collection::vec((0u32..200, 1u32..20), 0..20),
            win_lo in 0u32..200,
            win_len in 0u32..100,
        ) {
            let s = build(&ranges);
            let win = GranuleRange::new(win_lo, win_lo + win_len);
            let mut tiles: Vec<GranuleRange> =
                s.iter_runs().filter_map(|run| run.intersect(win)).collect();
            s.subtract_into(win, &mut tiles);
            tiles.sort_by_key(|r| r.lo);
            let total: u64 = tiles.iter().map(|r| r.len() as u64).sum();
            prop_assert_eq!(total, win.len() as u64);
            for w in tiles.windows(2) {
                prop_assert_eq!(w[0].hi, w[1].lo, "tiles must abut");
            }
        }

        /// An insert leaves the run list canonical (sorted, disjoint,
        /// non-adjacent) and covering exactly the old set plus the range.
        #[test]
        fn insert_keeps_runs_canonical(
            ranges in proptest::collection::vec((0u32..200, 1u32..20), 0..20),
            lo in 0u32..200,
            len in 1u32..30,
        ) {
            let mut s = build(&ranges);
            let before = s.clone();
            let r = GranuleRange::new(lo, lo + len);
            s.insert(r);
            let runs: Vec<GranuleRange> = s.iter_runs().collect();
            for w in runs.windows(2) {
                prop_assert!(w[0].hi < w[1].lo, "runs {:?} not canonical", runs);
            }
            prop_assert!(runs.iter().all(|run| !run.is_empty()));
            for g in 0..240 {
                prop_assert_eq!(s.contains(g), before.contains(g) || r.contains(g), "index {}", g);
            }
        }

        /// The last-run hint is pure acceleration: after every insert the
        /// stored run list matches an independent oracle — a naive
        /// boolean-coverage model with no hint, no binary search, and no
        /// shared code path.
        #[test]
        fn hint_never_changes_insert_results(
            ranges in proptest::collection::vec((0u32..200, 1u32..20), 1..30),
        ) {
            const UNIVERSE: usize = 256;
            let mut s = RangeSet::new(); // hint warmed by every insert
            let mut covered = [false; UNIVERSE];
            for (i, &(lo, len)) in ranges.iter().enumerate() {
                s.insert(GranuleRange::new(lo, lo + len));
                for g in lo..lo + len {
                    covered[g as usize] = true;
                }
                // the stored runs must equal the model's maximal runs
                let mut model_runs = Vec::new();
                let mut g = 0;
                while g < UNIVERSE {
                    if covered[g] {
                        let start = g;
                        while g < UNIVERSE && covered[g] {
                            g += 1;
                        }
                        model_runs.push(GranuleRange::new(start as u32, g as u32));
                    } else {
                        g += 1;
                    }
                }
                let runs: Vec<GranuleRange> = s.iter_runs().collect();
                prop_assert_eq!(runs, model_runs, "run list diverged at insert {}", i);
            }
        }
    }
}

mod assignment_props {
    use pax_core::descriptor::QueueClass;
    use pax_core::ids::{DescId, JobId};
    use pax_core::prelude::*;
    use pax_core::queue::WaitingQueue;
    use pax_sim::dist::CostModel;
    use pax_sim::locality::{DataLayout, LocalityModel};
    use pax_sim::machine::MachineConfig;
    use pax_sim::time::SimDuration;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// pop_matching drains exactly the pushed set: nothing lost,
        /// nothing duplicated, regardless of window or predicate.
        #[test]
        fn pop_matching_conserves_entries(
            ids in proptest::collection::vec(0u32..1000, 1..40),
            jobs in 1usize..4,
            window in 0usize..10,
            modulus in 1u32..7,
        ) {
            let uniq: BTreeSet<u32> = ids.iter().copied().collect();
            let mut q = WaitingQueue::new(jobs);
            for (i, &id) in uniq.iter().enumerate() {
                let class = if i % 3 == 0 { QueueClass::Elevated } else { QueueClass::Normal };
                q.push_back(DescId(id), class, JobId((i % jobs) as u32));
            }
            let mut out: Vec<u32> = Vec::new();
            while let Some(d) = q.pop_matching(window, |x| x.0 % modulus == 0) {
                out.push(d.0);
            }
            let drained: BTreeSet<u32> = out.iter().copied().collect();
            prop_assert_eq!(out.len(), uniq.len(), "duplicates popped");
            prop_assert_eq!(drained, uniq);
            prop_assert!(q.is_empty());
        }

        /// With window 0, pop_matching is exactly pop.
        #[test]
        fn window_zero_equals_pop(
            ids in proptest::collection::vec(0u32..1000, 1..30),
            jobs in 1usize..4,
        ) {
            let uniq: Vec<u32> = {
                let s: BTreeSet<u32> = ids.iter().copied().collect();
                s.into_iter().collect()
            };
            let fill = |q: &mut WaitingQueue| {
                for (i, &id) in uniq.iter().enumerate() {
                    let class = if i % 4 == 0 { QueueClass::Elevated } else { QueueClass::Normal };
                    q.push_back(DescId(id), class, JobId((i % jobs) as u32));
                }
            };
            let mut q1 = WaitingQueue::new(jobs);
            let mut q2 = WaitingQueue::new(jobs);
            fill(&mut q1);
            fill(&mut q2);
            loop {
                let a = q1.pop();
                let b = q2.pop_matching(0, |_| true);
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Under a clustered machine with proximity assignment, every
        /// granule still executes exactly once, the local/remote split
        /// covers all executed granules, and the stall accounting is
        /// exact.
        #[test]
        fn proximity_runs_conserve_work(
            granules in 8u32..120,
            procs in 2usize..10,
            clusters in 1usize..5,
            extra in 0u64..12,
            window in 0usize..20,
            cyclic in proptest::bool::ANY,
            overlap in proptest::bool::ANY,
            seed in 0u64..500,
        ) {
            let layout = if cyclic { DataLayout::Cyclic } else { DataLayout::Block };
            let phases = ["a", "b"]
                .map(|name| PhaseDef::new(name, granules, CostModel::constant(9)));
            let program = Program::chain(phases.into(), vec![EnablementMapping::Identity]).unwrap();

            let cfg = MachineConfig::ideal(procs)
                .with_locality(LocalityModel::new(clusters, SimDuration(extra)).with_layout(layout));
            let policy = if overlap { OverlapPolicy::overlap() } else { OverlapPolicy::strict() }
                .with_assignment(AssignmentPolicy::DataProximity { scan_window: window });
            let mut sim = Simulation::new(cfg, policy).with_seed(seed);
            sim.add_job(program);
            let r = sim.run().expect("deadlock");

            for ph in &r.phases {
                prop_assert_eq!(ph.stats.executed_granules, granules);
            }
            prop_assert_eq!(r.local_granules + r.remote_granules, 2 * u64::from(granules));
            prop_assert_eq!(r.remote_stall.ticks(), extra * r.remote_granules);
            let pure = 2 * u64::from(granules) * 9;
            prop_assert_eq!(r.compute_time.ticks(), pure + r.remote_stall.ticks());
            // single cluster ⇒ no remote traffic at all
            if clusters == 1 {
                prop_assert_eq!(r.remote_granules, 0);
            }
        }
    }
}

mod enablement_safety {
    use pax_core::prelude::*;
    use pax_sim::dist::CostModel;
    use pax_sim::machine::MachineConfig;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fundamental safety property, checked from the schedule
        /// itself: under a randomized reverse map, no task containing a
        /// successor granule may start before every task containing one
        /// of its required current-phase granules has ended — whatever
        /// the split strategy, subset cap, machine size, or task size.
        #[test]
        fn no_successor_starts_before_its_enablers_end(
            granules in 6u32..40,
            procs in 2usize..8,
            fan in 1usize..4,
            seed in 0u64..10_000,
            strategy in 0usize..3,
            subset in prop_oneof![Just(u32::MAX), 2u32..12],
            task in 1u32..7,
        ) {
            // pseudo-random requirement lists derived from the seed
            let req: Vec<Vec<u32>> = (0..granules)
                .map(|r| {
                    (0..fan)
                        .map(|j| ((r as u64 * 31 + j as u64 * 17 + seed) % granules as u64) as u32)
                        .collect()
                })
                .collect();
            let mapping = EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(
                req.clone(),
                granules,
            )));
            let phases = ["cur", "succ"]
                .map(|name| PhaseDef::new(name, granules, CostModel::constant(7)));
            let program = Program::chain(phases.into(), vec![mapping]).unwrap();

            let split = match strategy {
                0 => SplitStrategy::DemandSplit,
                1 => SplitStrategy::PreSplit,
                _ => SplitStrategy::SuccessorSplitTask,
            };
            let policy = OverlapPolicy::overlap()
                .with_split_strategy(split)
                .with_sizing(TaskSizing::Fixed(task))
                .with_indirect_subset(subset);
            let mut sim = Simulation::new(MachineConfig::ideal(procs), policy)
                .with_seed(seed)
                .with_gantt();
            sim.add_job(program);
            let r = sim.run().expect("no deadlock");

            // granule -> (task start, task end) per instance
            let gantt = r.gantt.as_ref().unwrap();
            let mut span_of: HashMap<(u32, u32), (u64, u64)> = HashMap::new();
            for span in gantt.spans() {
                for g in span.lo..span.hi {
                    span_of.insert((span.phase, g), (span.start.ticks(), span.end.ticks()));
                }
            }
            let cur = r.phases[0].instance.0;
            let succ = r.phases[1].instance.0;
            for (g, deps) in req.iter().enumerate() {
                let (s, _) = span_of[&(succ, g as u32)];
                for &d in deps {
                    let (_, e) = span_of[&(cur, d)];
                    prop_assert!(
                        s >= e,
                        "succ granule {g} started {s} before enabler {d} ended {e} \
                         (strategy {strategy}, subset {subset}, task {task})"
                    );
                }
            }
            // and the run is complete
            prop_assert_eq!(r.phases[1].stats.executed_granules, granules);
        }
    }
}

mod composite_props {
    use pax_core::mapping::CompositeMap;
    use proptest::prelude::*;

    /// The constructor as first written: one deduplicated `Vec` per
    /// successor granule, counted, then scattered through a cursor.
    fn per_list_reference(lists: &[Vec<u32>], current_granules: u32) -> CompositeMap {
        let n_cur = current_granules as usize;
        let dedup_lists: Vec<Vec<u32>> = lists
            .iter()
            .map(|deps| {
                let mut d = deps.clone();
                d.sort_unstable();
                d.dedup();
                d
            })
            .collect();
        let mut offsets = vec![0u32; n_cur + 1];
        for &d in dedup_lists.iter().flatten() {
            offsets[d as usize + 1] += 1;
        }
        for i in 0..n_cur {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[n_cur] as usize];
        for (r, deps) in dedup_lists.iter().enumerate() {
            for &d in deps {
                targets[cursor[d as usize] as usize] = r as u32;
                cursor[d as usize] += 1;
            }
        }
        CompositeMap {
            requires: dedup_lists.iter().map(|d| d.len() as u32).collect(),
            offsets,
            targets,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The flat-buffer constructor gives the per-list one's map, entry
        /// for entry, over lists with duplicates, empties and entries in
        /// any order — and current granules nothing depends on, inside
        /// the map's extent or past it.
        #[test]
        fn flat_buffer_build_matches_per_list_reference(
            current in 1u32..40,
            lists in proptest::collection::vec(
                proptest::collection::vec(0u32..1_000, 0..14),
                0..40,
            ),
        ) {
            let lists: Vec<Vec<u32>> = lists
                .into_iter()
                .map(|deps| deps.into_iter().map(|d| d % current).collect())
                .collect();
            let built = CompositeMap::from_requirement_lists(&lists);
            let reference = per_list_reference(&lists, current);
            prop_assert_eq!(&built.requires, &reference.requires);
            // past the phase, and past the largest granule a list names,
            // a current granule enables nothing
            for g in 0..current + 2 {
                prop_assert_eq!(built.dependents_of(g), reference.dependents_of(g), "granule {}", g);
            }
            prop_assert_eq!(built.entries(), built.requires.iter().map(|&n| u64::from(n)).sum::<u64>());
        }
    }
}
