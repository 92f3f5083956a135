//! Criterion bench for E9: barrier vs overlap on real threads (small
//! sizes — criterion repeats runs many times).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pax_core::mapping::EnablementMapping;
use pax_runtime::{run_chain, RtPhase, RuntimeConfig};
use std::time::Duration;

fn chain(phases: usize, granules: u32) -> Vec<RtPhase> {
    (0..phases)
        .map(|i| {
            let p = RtPhase::synthetic(format!("p{i}"), granules, Duration::from_micros(30));
            if i + 1 < phases {
                p.with_mapping(EnablementMapping::Identity)
            } else {
                p
            }
        })
        .collect()
}

fn bench_runtime(c: &mut Criterion) {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 4);
    let mut g = c.benchmark_group("e9_runtime_overlap");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for (label, overlap) in [("barrier", false), ("overlap", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &overlap, |b, &ov| {
            b.iter(|| {
                let cfg = if ov {
                    RuntimeConfig::new(workers, 2)
                } else {
                    RuntimeConfig::new(workers, 2).barrier()
                };
                run_chain(chain(3, 60), cfg).wall
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
