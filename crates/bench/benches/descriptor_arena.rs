//! Microbenchmarks of the SoA descriptor arena: the executive's
//! completion path touches a handful of lanes (range, instance, flags)
//! per event across a large live population, and the arena's win is
//! precisely that those reads stop dragging whole descriptor structs
//! through the cache. The groups here isolate that access pattern, the
//! alloc/release recycling churn, the conflict-queue link traffic, and
//! the split chains the dispatch path produces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pax_core::descriptor::{DescArena, QueueClass};
use pax_core::ids::{DescId, GranuleRange, InstanceId, JobId};
use rand::Rng;

fn populate(n: u32) -> (DescArena, Vec<DescId>) {
    let mut a = DescArena::with_capacity(n as usize);
    let ids = (0..n)
        .map(|i| {
            a.alloc(
                InstanceId(i % 7),
                JobId(i % 3),
                GranuleRange::new(i * 4, i * 4 + 4),
            )
        })
        .collect();
    (a, ids)
}

/// The completion-path read mix over a shuffled live population: range +
/// instance + enabling + overlap of each descriptor, nothing else.
fn bench_completion_field_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("descriptor_arena/completion_scan");
    for &n in &[10_000u32, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let (mut a, mut ids) = populate(n);
            for (i, &d) in ids.iter().enumerate() {
                a.set_enabling(d, i % 2 == 0);
                a.set_overlap(d, i % 3 == 0);
            }
            // visit out of allocation order, as completions do
            let mut rng = pax_sim::seeded_rng(11);
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..i + 1));
            }
            b.iter(|| {
                let mut granules = 0u64;
                let mut marked = 0u64;
                for &d in &ids {
                    granules += u64::from(a.range(d).len()) + u64::from(a.instance(d).0 % 2);
                    if a.enabling(d) || a.overlap(d) {
                        marked += 1;
                    }
                }
                (granules, marked)
            })
        });
    }
    g.finish();
}

/// Free-list churn: the steady-state alloc-on-release cycling the
/// executive performs as descriptions complete and successors release.
fn bench_alloc_release_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("descriptor_arena/alloc_release_churn");
    for &n in &[10_000u32, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let (mut a, ids) = populate(n);
                // release odd slots, then refill them through the free list
                for &d in ids.iter().skip(1).step_by(2) {
                    a.release(d);
                }
                for i in 0..n / 2 {
                    a.alloc(InstanceId(9), JobId(0), GranuleRange::new(i, i + 1));
                }
                a.created_total()
            })
        });
    }
    g.finish();
}

/// Conflict-queue traffic of an identity overlap: one queued successor
/// per live piece, pushed then drained in completion order.
fn bench_cq_mirror(c: &mut Criterion) {
    let mut g = c.benchmark_group("descriptor_arena/cq_mirror");
    for &n in &[10_000u32, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let (mut a, preds) = populate(n);
                let mut drained = Vec::with_capacity(4);
                let mut total = 0usize;
                for &pd in &preds {
                    let sd = a.alloc(InstanceId(50), JobId(0), a.range(pd));
                    a.cq_push(pd, sd);
                }
                for &pd in &preds {
                    drained.clear();
                    a.cq_drain_into(pd, &mut drained);
                    total += drained.len();
                }
                total
            })
        });
    }
    g.finish();
}

/// Dispatch-style split chains: carve a master description into
/// task-sized pieces front to back (each split touches range + identity
/// + flag lanes of two slots).
fn bench_split_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("descriptor_arena/split_chain");
    for &n in &[10_000u32, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut a = DescArena::with_capacity(n as usize);
                let mut cur = a.alloc(InstanceId(0), JobId(0), GranuleRange::new(0, n));
                a.set_class(cur, QueueClass::Elevated);
                a.set_enabling(cur, true);
                while a.granules(cur) > 1 {
                    cur = a.split(cur, 1);
                }
                a.created_total()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_completion_field_scan,
    bench_alloc_release_churn,
    bench_cq_mirror,
    bench_split_chain
);
criterion_main!(benches);
