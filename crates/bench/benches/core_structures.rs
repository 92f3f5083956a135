//! Microbenchmarks of the executive's core data structures: the
//! deterministic event queue, the range-set merge (the paper's
//! split/merge descriptions), composite-map construction, the conflict
//! queue, and the automatic classifier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pax_core::descriptor::DescArena;
use pax_core::ids::{GranuleRange, InstanceId, JobId};
use pax_core::mapping::{CompositeMap, ReverseMap};
use pax_core::rangeset::RangeSet;
use pax_sim::event::EventQueue;
use pax_sim::SimTime;
use rand::Rng;

/// One draw of the hold models' fixed LCG stream.
fn lcg_draw(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            let mut rng = pax_sim::seeded_rng(1);
            let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
            b.iter(|| {
                let mut q = EventQueue::with_capacity(n);
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime(t), i);
                }
                let mut count = 0;
                while q.pop().is_some() {
                    count += 1;
                }
                count
            })
        });
    }
    // Drain: `n` events in same-time cohorts of 64, popped one at a time
    // as the executive services them.
    for &n in &[10_000usize, 100_000] {
        g.bench_with_input(BenchmarkId::new("drain", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule(SimTime((i / 64) as u64 * 10), i);
                }
                let mut popped = 0usize;
                while q.pop().is_some() {
                    popped += 1;
                }
                popped
            })
        });
    }
    // Steady-state hold model: a fixed pending population, each pop
    // rescheduled at a recurring service spacing with one far-future
    // outlier spacing.
    g.bench_with_input(BenchmarkId::new("hold", 4_096u32), &4_096u32, |b, &n| {
        const SPACINGS: [u64; 8] = [100, 100, 100, 150, 150, 250, 400, 1_000];
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut spacing = || {
                let draw = lcg_draw(&mut lcg);
                if draw.is_multiple_of(64) {
                    100_000
                } else {
                    SPACINGS[draw % SPACINGS.len()]
                }
            };
            for i in 0..n {
                let d = spacing();
                q.schedule(SimTime(d), i);
            }
            for _ in 0..n * 8 {
                let (now, e) = q.pop().expect("the population is constant");
                let d = spacing();
                q.schedule(SimTime(now.0 + d), e);
            }
            q.len()
        })
    });
    // The engine's own mix at a fixed population: every pop is
    // re-scheduled, alternately 3 ticks ahead (a `Seek`) and 100 ± 8
    // ticks ahead (a `TaskDone`). 32 and 33 straddle the queue's sorted
    // tier; 1 024 is the large-machine side, where the heap tier carries
    // the load.
    for &n in &[8u32, 16, 32, 33, 64, 1_024] {
        g.bench_with_input(BenchmarkId::new("hold_mix", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
                let mut jitter = || lcg_draw(&mut lcg) as u64 % 17;
                for i in 0..n {
                    q.schedule(SimTime(92 + jitter()), i);
                }
                let mut sum = 0u64;
                for k in 0..200_000u64 {
                    let (at, e) = q.pop().expect("the population is constant");
                    sum = sum.wrapping_add(at.0 ^ u64::from(e));
                    let ahead = if k % 2 == 0 { 3 } else { 92 + jitter() };
                    q.schedule(SimTime(at.0 + ahead), e);
                }
                sum
            })
        });
    }
    g.finish();
}

fn bench_rangeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset_merge");
    for &n in &[1_000u32, 10_000] {
        g.bench_with_input(BenchmarkId::new("random_inserts", n), &n, |b, &n| {
            let mut rng = pax_sim::seeded_rng(2);
            let ranges: Vec<(u32, u32)> = (0..n)
                .map(|_| {
                    let lo = rng.gen_range(0..n * 4);
                    (lo, lo + rng.gen_range(1..8u32))
                })
                .collect();
            b.iter(|| {
                let mut s = RangeSet::new();
                for &(lo, hi) in &ranges {
                    s.insert(GranuleRange::new(lo, hi));
                }
                s.len()
            })
        });
    }
    g.finish();
}

fn bench_composite_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("composite_map_build");
    for &n in &[256u32, 2048] {
        g.bench_with_input(BenchmarkId::new("reverse_fan10", n), &n, |b, &n| {
            let mut rng = pax_sim::seeded_rng(3);
            let lists: Vec<Vec<u32>> = (0..n)
                .map(|_| (0..10).map(|_| rng.gen_range(0..n)).collect())
                .collect();
            let rmap = ReverseMap::new(lists, n);
            b.iter(|| CompositeMap::from_reverse(&rmap, n).entries())
        });
    }
    g.finish();
}

fn bench_conflict_queue(c: &mut Criterion) {
    c.bench_function("conflict_queue_push_drain_1000", |b| {
        b.iter(|| {
            let mut a = DescArena::new();
            let owner = a.alloc(InstanceId(0), JobId(0), GranuleRange::new(0, 10));
            let members: Vec<_> = (0..1000)
                .map(|i| a.alloc(InstanceId(1), JobId(0), GranuleRange::new(i, i + 1)))
                .collect();
            for &m in &members {
                a.cq_push(owner, m);
            }
            a.cq_drain(owner).len()
        })
    });
}

fn bench_classifier(c: &mut Criterion) {
    use pax_workloads::casper::CasperConfig;
    c.bench_function("classify_casper_model_48", |b| {
        let cfg = CasperConfig {
            granules: 48,
            ..CasperConfig::default()
        };
        let model = cfg.array_model();
        b.iter(|| pax_analyze::classify_program(&model).len())
    });
}

fn bench_waiting_queue_scan(c: &mut Criterion) {
    use pax_core::descriptor::QueueClass;
    use pax_core::ids::DescId;
    use pax_core::queue::WaitingQueue;
    let mut g = c.benchmark_group("waiting_queue_pop_matching");
    // worst case: nothing matches, the scan walks the full window then
    // falls back to the head — the price of one proximity miss
    for &window in &[4usize, 32, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                let mut q = WaitingQueue::new(1);
                for i in 0..512u32 {
                    q.push_back(DescId(i), QueueClass::Normal, JobId(0));
                }
                let mut popped = 0;
                while q.pop_matching(w, |_| false).is_some() {
                    popped += 1;
                }
                popped
            })
        });
    }
    g.finish();
}

/// The service-mode queue shape: thousands of jobs submitted over the
/// run, a handful in flight. Each iteration pops the round-robin head
/// and re-queues it behind its job — the price of one dispatch must not
/// depend on the 4 092 jobs that hold nothing. The one-job row beside
/// it is the batch shape, for the same traffic.
fn bench_waiting_queue_sparse(c: &mut Criterion) {
    use pax_core::descriptor::QueueClass;
    use pax_core::ids::DescId;
    use pax_core::queue::WaitingQueue;
    const ROUNDS: u32 = 100_000;
    let mut g = c.benchmark_group("waiting_queue_sparse");
    for (label, jobs, active) in [
        ("4096_jobs_4_active", 4096usize, [5u32, 1300, 2600, 4090]),
        ("1_job", 1, [0; 4]),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &jobs, |b, &jobs| {
            let mut q = WaitingQueue::new(jobs);
            for i in 0..8u32 {
                q.push_back(DescId(i), QueueClass::Normal, JobId(active[i as usize % 4]));
            }
            b.iter(|| {
                let mut sum = 0u64;
                for i in 0..ROUNDS {
                    let id = q.pop().expect("eight entries circulate");
                    sum += u64::from(id.0);
                    q.push_back(id, QueueClass::Normal, JobId(active[i as usize % 4]));
                }
                sum
            })
        });
    }
    g.finish();
}

fn bench_locality_remote_count(c: &mut Criterion) {
    use pax_sim::locality::{DataLayout, LocalityModel};
    use pax_sim::time::SimDuration;
    let mut g = c.benchmark_group("locality_remote_granules");
    for (label, layout) in [("block", DataLayout::Block), ("cyclic", DataLayout::Cyclic)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &layout, |b, &layout| {
            let loc = LocalityModel::new(8, SimDuration(5)).with_layout(layout);
            b.iter(|| {
                let mut total = 0u64;
                for lo in (0..1_000_000u32).step_by(4096) {
                    total += loc.remote_granules(lo, lo + 4096, 1_048_576, 3);
                }
                total
            })
        });
    }
    g.finish();
}

/// The enablement-heavy hot loop end to end: a two-phase identity-mapped
/// program at 10⁴–10⁵ granules with single-granule tasks and demand
/// splitting, so every dispatch mirrors a successor split and every
/// completion releases a conflict-queued piece. This is the scenario the
/// allocation-free completion path (scratch buffers, interned steps, O(1)
/// live-list removal) is measured by; the `batch_identity` workload of
/// `benchmark/` runs the same shape against a reference kernel.
fn bench_enablement_completion(c: &mut Criterion) {
    use pax_core::prelude::*;
    use pax_sim::machine::MachineConfig;
    use pax_sim::CostModel;
    let mut g = c.benchmark_group("enablement_completion");
    g.sample_size(5);
    for &n in &[10_000u32, 100_000] {
        g.bench_with_input(BenchmarkId::new("identity_demand_split", n), &n, |b, &n| {
            let mut pb = ProgramBuilder::new();
            let a = pb.phase(PhaseDef::new("a", n, CostModel::constant(100)));
            let s = pb.phase(PhaseDef::new("b", n, CostModel::constant(100)));
            pb.dispatch_enable(
                a,
                vec![EnableSpec {
                    successor: s,
                    mapping: EnablementMapping::Identity,
                }],
            );
            pb.dispatch(s);
            let program = pb.build().unwrap();
            b.iter(|| {
                let policy = OverlapPolicy::overlap()
                    .with_sizing(TaskSizing::Fixed(1))
                    .with_split_strategy(SplitStrategy::DemandSplit);
                let mut sim = Simulation::new(MachineConfig::new(16), policy).with_seed(7);
                sim.add_job(program.clone());
                sim.run().unwrap().events
            })
        });
        g.bench_with_input(BenchmarkId::new("reverse_fan2", n), &n, |b, &n| {
            let req: Vec<Vec<u32>> = (0..n).map(|r| vec![r, (r + 1) % n]).collect();
            let mapping =
                EnablementMapping::ReverseIndirect(std::sync::Arc::new(ReverseMap::new(req, n)));
            let mut pb = ProgramBuilder::new();
            let a = pb.phase(PhaseDef::new("a", n, CostModel::constant(100)));
            let s = pb.phase(PhaseDef::new("b", n, CostModel::constant(100)));
            pb.dispatch_enable(
                a,
                vec![EnableSpec {
                    successor: s,
                    mapping,
                }],
            );
            pb.dispatch(s);
            let program = pb.build().unwrap();
            b.iter(|| {
                let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1));
                let mut sim = Simulation::new(MachineConfig::new(16), policy).with_seed(7);
                sim.add_job(program.clone());
                sim.run().unwrap().events
            })
        });
    }
    g.finish();
}

/// RangeSet churn at 10⁴–10⁶ granules: interleaved odd/even stripe inserts
/// (worst-case run fragmentation) followed by gap subtraction through the
/// borrowing `subtract_into` API — the release-residual pattern the
/// executive performs when a phase barrier falls.
fn bench_rangeset_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset_churn");
    g.sample_size(5);
    for &n in &[10_000u32, 100_000, 1_000_000] {
        g.bench_with_input(BenchmarkId::new("stripe_then_subtract", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = RangeSet::new();
                // Even stripes first: maximal run count, every odd insert
                // later bridges two neighbors (the merge-on-completion
                // pattern at its most adversarial).
                let stripe = 8u32;
                let mut lo = 0u32;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo, lo + stripe));
                    lo += 2 * stripe;
                }
                let mut gaps = Vec::new();
                s.subtract_into(GranuleRange::new(0, n), &mut gaps);
                let gap_total: u64 = gaps.iter().map(|r| r.len() as u64).sum();
                let mut lo = stripe;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo, lo + stripe));
                    lo += 2 * stripe;
                }
                (s.run_count() as u64, gap_total, s.len())
            })
        });
    }
    g.finish();
}

/// The bridging-insert shift cost in isolation: a maximally fragmented
/// set (every other stripe present) collapsed by inserts that each
/// coalesce two neighbors — every insert pays the tail shift that
/// `splice` used to perform through its drain/relocate machinery and the
/// `copy_within` batch shift now performs as one memmove. `wide`
/// additionally measures many-run absorption (one insert swallowing 64
/// runs at a time). Measured at the guard commit (splice →
/// copy_within/Vec::insert, same host):
/// rangeset_churn/1e6 476.8 → 348.6 ms, rangeset_churn/1e5 3.30 →
/// 1.73 ms, wide/1e4 130.5 → 39.6 µs, random_inserts/1e4 1.45 ms →
/// 612 µs; bridge_pairs is memmove-bound either way (~unchanged).
fn bench_rangeset_bridging(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset_bridge");
    g.sample_size(5);
    for &n in &[10_000u32, 100_000] {
        g.bench_with_input(BenchmarkId::new("bridge_pairs", n), &n, |b, &n| {
            let stripe = 4u32;
            b.iter(|| {
                let mut s = RangeSet::new();
                let mut lo = 0u32;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo, lo + stripe));
                    lo += 2 * stripe;
                }
                // front-to-back bridge inserts: worst case for the tail
                // shift (the whole remaining run list moves every time)
                let mut lo = stripe;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo - 1, lo + stripe + 1));
                    lo += 2 * stripe;
                }
                s.run_count() as u64 + s.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("wide", n), &n, |b, &n| {
            let stripe = 4u32;
            let span = 64 * 2 * stripe; // absorbs 64 runs per insert
            b.iter(|| {
                let mut s = RangeSet::new();
                let mut lo = 0u32;
                while lo + stripe <= n {
                    s.insert(GranuleRange::new(lo, lo + stripe));
                    lo += 2 * stripe;
                }
                let mut lo = 0u32;
                while lo + span <= n {
                    s.insert(GranuleRange::new(lo, lo + span));
                    lo += span;
                }
                s.run_count() as u64 + s.len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rangeset,
    bench_composite_build,
    bench_conflict_queue,
    bench_classifier,
    bench_waiting_queue_scan,
    bench_waiting_queue_sparse,
    bench_locality_remote_count,
    bench_enablement_completion,
    bench_rangeset_churn,
    bench_rangeset_bridging
);
criterion_main!(benches);
