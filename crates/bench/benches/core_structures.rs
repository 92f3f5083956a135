//! The executive's completion path end to end. Its kernels (calendar,
//! range sets, queues, map builds) are timed in isolation by the layer
//! metrics of `benchmark/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pax_core::prelude::*;

/// The enablement-heavy hot loop end to end: a two-phase identity-mapped
/// program at 10⁴–10⁵ granules with single-granule tasks and demand
/// splitting, so every dispatch mirrors a successor split and every
/// completion releases a conflict-queued piece. This is the scenario the
/// allocation-free completion path (scratch buffers, interned steps, O(1)
/// live-list removal) is measured by; the `batch_identity` workload of
/// `benchmark/` runs the same shape against a reference kernel.
fn bench_enablement_completion(c: &mut Criterion) {
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

criterion_group!(benches, bench_enablement_completion);
criterion_main!(benches);
