//! Property-based tests for the simulation substrate.

use pax_sim::event::EventQueue;
use pax_sim::metrics::step::StepTrace;
use pax_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// The queue against a model that shares no code with it: a `Vec`
    /// kept stably sorted by `(time, insertion index)`. Every operation
    /// is interleaved with every other; times are 0..4 ticks from the
    /// last pop, so they tie constantly (also with the sorted tier's
    /// latest entry and with the heap's head); and the population is
    /// steered 0 → 4 × the sorted tier's size → 0 and round again, so
    /// entries cross the tier boundary in both directions, the tier runs
    /// dry in front of a full heap, and coincident groups outgrow it.
    #[test]
    fn event_queue_matches_a_sorted_vec_model(
        ops in proptest::collection::vec((0u8..16, 0u64..4, 0usize..8), 1200..2000),
    ) {
        // `EventQueue`'s private `NEAR`; a different value there changes
        // what this test covers, not whether it holds.
        const TIER: usize = 32;
        let maxes = [1, 2, 3, 5, TIER / 2, TIER + 7, 3 * TIER, usize::MAX];
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let (mut now, mut next_id) = (0u64, 0u64);
        let (mut growing, mut rounds) = (true, 0);
        for &(kind, dt, m) in &ops {
            let schedule = kind < if growing { 15 } else { 8 };
            if schedule {
                let at = now + dt;
                q.schedule(SimTime(at), next_id);
                let behind = model.partition_point(|&(t, _)| t <= at);
                model.insert(behind, (at, next_id));
                next_id += 1;
            } else if kind % 2 == 0 {
                let want = (!model.is_empty()).then(|| model.remove(0));
                prop_assert_eq!(q.pop(), want.map(|(t, id)| (SimTime(t), id)), "pop order");
                now = want.map_or(now, |(t, _)| t);
            } else {
                let group = model.iter().take_while(|e| e.0 == model[0].0).count();
                for (t, id) in model.drain(..group.min(maxes[m])) {
                    prop_assert_eq!(q.peek_time(), Some(SimTime(t)), "group time");
                    prop_assert_eq!(q.pop(), Some((SimTime(t), id)), "group order");
                    now = t;
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time(), model.first().map(|&(t, _)| SimTime(t)));
            if growing && model.len() >= 4 * TIER {
                growing = false;
            } else if !growing && model.is_empty() {
                growing = true;
                rounds += 1;
            }
        }
        prop_assert!(rounds >= 1, "the population never made the round trip");
        for &(t, id) in &model {
            prop_assert_eq!(q.pop(), Some((SimTime(t), id)), "final drain");
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.scheduled_total(), next_id);
    }

    /// Events always pop in non-decreasing time order, and equal-time
    /// events pop in insertion order.
    #[test]
    fn event_queue_pops_sorted_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "insertion order violated at equal times");
            }
        }
    }

    /// The integral over a window equals the sum of integrals over any
    /// partition of that window.
    #[test]
    fn step_trace_integral_is_additive(
        changes in proptest::collection::vec((0u64..500, 0u32..16), 1..60),
        split in 0u64..500,
    ) {
        let mut sorted = changes.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut tr = StepTrace::new();
        for (t, v) in sorted {
            tr.record(SimTime(t), v);
        }
        let a = SimTime(0);
        let m = SimTime(split);
        let b = SimTime(600);
        let whole = tr.integral(a, b);
        let parts = tr.integral(a, m) + tr.integral(m, b);
        prop_assert_eq!(whole, parts);
    }

    /// Utilization is always within [0, 1] when capacity bounds the trace.
    #[test]
    fn utilization_bounded(
        changes in proptest::collection::vec((0u64..300, 0u32..8), 1..40),
    ) {
        let mut sorted = changes.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut tr = StepTrace::new();
        for (t, v) in sorted {
            tr.record(SimTime(t), v);
        }
        let u = tr.utilization(8, SimTime(0), SimTime(400));
        prop_assert!((0.0..=1.0).contains(&u), "utilization {} out of range", u);
    }

    /// idle_time + integral == capacity * window whenever the trace never
    /// exceeds capacity.
    #[test]
    fn idle_plus_busy_is_capacity(
        changes in proptest::collection::vec((0u64..300, 0u32..=8), 1..40),
    ) {
        let mut sorted = changes.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut tr = StepTrace::new();
        for (t, v) in sorted {
            tr.record(SimTime(t), v);
        }
        let from = SimTime(0);
        let to = SimTime(400);
        let busy = tr.integral(from, to);
        let idle = tr.idle_time(8, from, to);
        prop_assert_eq!(busy + idle, 8 * 400);
    }

    /// Sampling any distribution with the same seed yields identical
    /// sequences (workspace-wide determinism guarantee).
    #[test]
    fn distributions_deterministic(seed in 0u64..u64::MAX, mean in 1u64..10_000) {
        use pax_sim::dist::DurationDist;
        let d = DurationDist::exponential(mean);
        let mut r1 = pax_sim::seeded_rng(seed);
        let mut r2 = pax_sim::seeded_rng(seed);
        for _ in 0..32 {
            prop_assert_eq!(d.sample(&mut r1), d.sample(&mut r2));
        }
    }

    /// value_at agrees with a naive scan of the change points.
    #[test]
    fn value_at_matches_naive(
        changes in proptest::collection::vec((0u64..200, 0u32..10), 1..30),
        query in 0u64..250,
    ) {
        let mut sorted = changes.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut tr = StepTrace::new();
        for (t, v) in &sorted {
            tr.record(SimTime(*t), *v);
        }
        // naive: last recorded value at or before query
        let mut expect = 0u32;
        for &(t, v) in &sorted {
            if t <= query {
                expect = v;
            }
        }
        prop_assert_eq!(tr.value_at(SimTime(query)), expect);
    }
}

#[test]
fn duration_saturating_ops() {
    assert_eq!(
        SimDuration(3).saturating_sub(SimDuration(10)),
        SimDuration::ZERO
    );
}

mod locality_props {
    use pax_sim::locality::{DataLayout, LocalityModel};
    use pax_sim::time::SimDuration;
    use proptest::prelude::*;

    fn arb_layout() -> impl Strategy<Value = DataLayout> {
        prop_oneof![Just(DataLayout::Block), Just(DataLayout::Cyclic)]
    }

    proptest! {
        /// Every granule's home cluster is a valid cluster index.
        #[test]
        fn home_cluster_in_range(
            clusters in 1usize..9,
            total in 1u32..500,
            layout in arb_layout(),
        ) {
            let loc = LocalityModel::new(clusters, SimDuration(1)).with_layout(layout);
            for g in 0..total {
                prop_assert!(loc.home_cluster(g, total) < clusters);
            }
        }

        /// Worker clusters are valid and non-decreasing in worker id
        /// (block partition).
        #[test]
        fn worker_cluster_in_range_and_monotone(
            clusters in 1usize..9,
            processors in 1usize..64,
        ) {
            let loc = LocalityModel::new(clusters, SimDuration(1));
            let mut prev = 0usize;
            for w in 0..processors {
                let c = loc.worker_cluster(w, processors);
                prop_assert!(c < clusters);
                prop_assert!(c >= prev, "block partition must be monotone");
                prev = c;
            }
        }

        /// Closed-form remote counts equal brute-force counts for every
        /// layout, range, and cluster.
        #[test]
        fn remote_count_matches_brute_force(
            clusters in 1usize..7,
            total in 1u32..200,
            layout in arb_layout(),
            lo_frac in 0.0f64..1.0,
            len_frac in 0.0f64..1.0,
            cluster_sel in 0usize..7,
        ) {
            let loc = LocalityModel::new(clusters, SimDuration(1)).with_layout(layout);
            let cluster = cluster_sel % clusters;
            let lo = ((total as f64) * lo_frac) as u32;
            let hi = lo + (((total - lo) as f64) * len_frac) as u32;
            let brute = (lo..hi)
                .filter(|&g| loc.home_cluster(g, total) != cluster)
                .count() as u64;
            prop_assert_eq!(loc.remote_granules(lo, hi, total, cluster), brute);
        }

        /// Summing local counts across all clusters covers the range
        /// exactly once: Σ_c local(c) == len.
        #[test]
        fn local_counts_partition_the_range(
            clusters in 1usize..7,
            total in 1u32..200,
            layout in arb_layout(),
        ) {
            let loc = LocalityModel::new(clusters, SimDuration(1)).with_layout(layout);
            let len = u64::from(total);
            let total_local: u64 = (0..clusters)
                .map(|c| len - loc.remote_granules(0, total, total, c))
                .sum();
            prop_assert_eq!(total_local, len);
        }
    }
}

mod level_props {
    use pax_sim::metrics::step::{LevelSweep, StepTrace};
    use pax_sim::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    /// How a level trace was built before [`LevelSweep`]: log every
    /// change of the run, sort the log when the run ends, fold it.
    fn sort_and_fold(mut deltas: Vec<(SimTime, i32)>) -> StepTrace {
        deltas.sort_by_key(|&(t, d)| (t, -d));
        let mut trace = StepTrace::new();
        let mut level = 0i32;
        let mut i = 0;
        while i < deltas.len() {
            let t = deltas[i].0;
            while i < deltas.len() && deltas[i].0 == t {
                level += deltas[i].1;
                i += 1;
            }
            trace.record(t, level.max(0) as u32);
        }
        trace
    }

    /// How traces were summed before [`StepTrace::superimpose`]: un-build
    /// each into shifted deltas, concatenate, sort, fold.
    fn unbuild_concat_sort(parts: &[(StepTrace, SimDuration)]) -> StepTrace {
        let mut deltas = Vec::new();
        for (trace, offset) in parts {
            let mut prev = 0i64;
            for &(t, v) in trace.points() {
                let d = i64::from(v) - prev;
                prev = i64::from(v);
                if d != 0 {
                    deltas.push((t + *offset, d as i32));
                }
            }
        }
        sort_and_fold(deltas)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Changes fed the way the engine feeds them — task spans known
        /// ahead of `now`, zero-length spans (a coincident +/−), crash
        /// cancellations `(−1 at now, +1 at the old end)`, a span that
        /// never ends, the horizon settled at random points — leave
        /// exactly the points that logging and sorting everything leaves.
        #[test]
        fn level_sweep_matches_sort_and_fold(
            ops in proptest::collection::vec(
                (0u8..6, 0u64..30, 0u64..50, 0u64..80, proptest::bool::ANY),
                1..200,
            ),
        ) {
            let mut sweep = LevelSweep::new();
            let mut log: Vec<(SimTime, i32)> = Vec::new();
            let mut running: Vec<(SimTime, SimTime)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut change = |sweep: &mut LevelSweep, at: SimTime, delta: i32| {
                sweep.add(at, delta);
                log.push((at, delta));
            };
            for &(kind, advance, lead, len, settle) in &ops {
                now += SimDuration(advance);
                if settle {
                    sweep.settle(now);
                }
                running.retain(|&(_, end)| end > now);
                match kind {
                    4 if !running.is_empty() => {
                        let (start, end) = running.swap_remove(lead as usize % running.len());
                        change(&mut sweep, start.max(now), -1);
                        change(&mut sweep, end, 1);
                    }
                    _ => {
                        let start = now + SimDuration(lead);
                        let end = if kind == 5 { SimTime::MAX } else { start + SimDuration(len) };
                        change(&mut sweep, start, 1);
                        change(&mut sweep, end, -1);
                        running.push((start, end));
                    }
                }
            }
            let (swept, sorted) = (sweep.finish(), sort_and_fold(log));
            prop_assert_eq!(swept.points(), sorted.points());
        }

        /// The k-way merge of shifted traces equals un-building them into
        /// deltas and sorting, including traces that open with a zero
        /// point, several changes landing on one instant, and empty parts.
        #[test]
        fn superimpose_matches_unbuild_concat_sort(
            parts in proptest::collection::vec(
                (proptest::collection::vec((0u64..20, 0u32..6), 0..40), 0u64..100),
                1..9,
            ),
        ) {
            let parts: Vec<(StepTrace, SimDuration)> = parts
                .iter()
                .map(|(steps, offset)| {
                    let mut trace = StepTrace::new();
                    let mut t = SimTime::ZERO;
                    for &(dt, v) in steps {
                        t += SimDuration(dt);
                        trace.record(t, v);
                    }
                    (trace, SimDuration(*offset))
                })
                .collect();
            let (merged, sorted) = (StepTrace::superimpose(&parts), unbuild_concat_sort(&parts));
            prop_assert_eq!(merged.points(), sorted.points());
        }
    }
}
