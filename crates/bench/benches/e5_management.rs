//! What management costs the host: the CASPER pipeline under each
//! executive placement, and a wide executive against a narrow one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pax_core::prelude::*;
use pax_sim::machine::{ExecutivePlacement, MachineConfig, ManagementCosts};
use pax_workloads::casper::CasperConfig;

fn bench_casper_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5_casper_pipeline");
    g.sample_size(10);
    let cfg = CasperConfig {
        granules: 120,
        iterations: 1,
        mean_cost: 100,
        ..CasperConfig::default()
    };
    for (label, overlap) in [("strict", false), ("overlap", true)] {
        g.bench_with_input(BenchmarkId::new(label, "ideal"), &overlap, |b, &ov| {
            b.iter(|| {
                let policy = if ov {
                    OverlapPolicy::overlap()
                } else {
                    OverlapPolicy::strict()
                };
                let mut sim = Simulation::new(MachineConfig::ideal(16), policy);
                sim.add_job(cfg.build(ov));
                sim.run().unwrap().makespan
            })
        });
        g.bench_with_input(
            BenchmarkId::new(label, "steals-worker"),
            &overlap,
            |b, &ov| {
                b.iter(|| {
                    let policy = if ov {
                        OverlapPolicy::overlap()
                    } else {
                        OverlapPolicy::strict()
                    };
                    let machine = MachineConfig::new(16)
                        .with_executive(ExecutivePlacement::StealsWorker)
                        .with_costs(ManagementCosts::pax_default());
                    let mut sim = Simulation::new(machine, policy);
                    sim.add_job(cfg.build(ov));
                    sim.run().unwrap().makespan
                })
            },
        );
    }
    g.finish();
}

/// What the executive's width costs the *simulator*: the two-phase
/// identity program at 10⁵ single-granule tasks (demand split, 16
/// processors, seed 7) with 1 and with 64 executive lanes. The simulated
/// run gets a little shorter with lanes, and the gap between the two
/// rows is what the wider executive costs the host.
fn bench_executive_lanes(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5_executive_lanes");
    g.sample_size(10);
    let phases = ["a", "b"].map(|name| PhaseDef::new(name, 100_000, CostModel::constant(100)));
    let program = Program::chain(phases.into(), vec![EnablementMapping::Identity]).unwrap();
    for lanes in [1usize, 64] {
        g.bench_with_input(BenchmarkId::new("lanes", lanes), &lanes, |b, &lanes| {
            b.iter(|| {
                let machine = MachineConfig::new(16).with_executive_lanes(lanes);
                let policy = OverlapPolicy::overlap()
                    .with_sizing(TaskSizing::Fixed(1))
                    .with_split_strategy(SplitStrategy::DemandSplit);
                let mut sim = Simulation::new(machine, policy).with_seed(7);
                sim.add_job(program.clone());
                sim.run().unwrap().events
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_casper_pipeline, bench_executive_lanes);
criterion_main!(benches);
