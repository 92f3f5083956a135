//! Parameterized synthetic workload generators for the rundown
//! experiments (E3, E4, E6).

use pax_core::mapping::{EnablementMapping, ForwardMap, MappingKind, ReverseMap};
use pax_core::phase::PhaseDef;
use pax_core::program::Program;
use pax_sim::dist::{CostModel, DurationDist};
use rand::Rng;
use std::sync::Arc;

/// Shape of granule execution times for generated phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostShape {
    /// All granules take `mean` ticks.
    Constant,
    /// Uniform on `[mean/2, 3·mean/2]`.
    Jittered,
    /// Exponential with the given mean (heavy rundown tails).
    Exponential,
    /// 90% take `mean/2`, 10% take `5·mean` — stragglers.
    Straggler,
}

impl CostShape {
    /// Materialize a cost model with the given mean.
    pub fn model(self, mean: u64) -> CostModel {
        match self {
            CostShape::Constant => CostModel::constant(mean),
            CostShape::Jittered => CostModel::new(DurationDist::uniform(mean / 2, mean * 3 / 2)),
            CostShape::Exponential => CostModel::new(DurationDist::exponential(mean)),
            CostShape::Straggler => {
                CostModel::new(DurationDist::bimodal((mean / 2).max(1), mean * 5, 0.1))
            }
        }
    }
}

/// Configuration for a generated multi-phase workload.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of sequential phases.
    pub phases: usize,
    /// Granules per phase.
    pub granules: u32,
    /// Mean granule cost in ticks.
    pub mean_cost: u64,
    /// Cost shape.
    pub shape: CostShape,
    /// Mapping used on every transition.
    pub mapping: MappingKind,
    /// Fan-in for reverse mappings.
    pub reverse_fan: u32,
    /// RNG seed for generated maps.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            phases: 4,
            granules: 256,
            mean_cost: 100,
            shape: CostShape::Jittered,
            mapping: MappingKind::Identity,
            reverse_fan: 4,
            seed: 0x9E17E,
        }
    }
}

impl GeneratorConfig {
    /// Build the program: `mapping` on every transition. Run it under
    /// `OverlapPolicy::strict()` for the barrier baseline.
    pub fn build(&self) -> Program {
        assert!(self.phases >= 1);
        let mut rng = pax_sim::seeded_rng(self.seed);
        let phases = (0..self.phases)
            .map(|i| {
                let cost = self.shape.model(self.mean_cost);
                PhaseDef::new(format!("gen-{i}"), self.granules, cost)
            })
            .collect();
        let edges = (1..self.phases).map(|_| {
            match self.mapping {
                MappingKind::Universal => EnablementMapping::Universal,
                MappingKind::Identity => EnablementMapping::Identity,
                MappingKind::Null => EnablementMapping::Null,
                MappingKind::ForwardIndirect => {
                    let t: Vec<u32> = (0..self.granules)
                        .map(|_| rng.gen_range(0..self.granules))
                        .collect();
                    EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(t, self.granules)))
                }
                MappingKind::ReverseIndirect => {
                    let req: Vec<Vec<u32>> = (0..self.granules)
                        .map(|_| {
                            (0..self.reverse_fan)
                                .map(|_| rng.gen_range(0..self.granules))
                                .collect()
                        })
                        .collect();
                    EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(
                        req,
                        self.granules,
                    )))
                }
                MappingKind::Seam => {
                    // 1-D two-neighbor stencil seam
                    let req: Vec<Vec<u32>> = (0..self.granules)
                        .map(|r| vec![r, (r + 1) % self.granules])
                        .collect();
                    EnablementMapping::Seam(Arc::new(ReverseMap::new(req, self.granules)))
                }
            }
        });
        Program::chain(phases, edges.collect()).expect("generated program is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_core::prelude::*;
    use pax_sim::machine::MachineConfig;

    #[test]
    fn all_shapes_and_mappings_run() {
        for shape in [
            CostShape::Constant,
            CostShape::Jittered,
            CostShape::Exponential,
            CostShape::Straggler,
        ] {
            for mapping in [
                MappingKind::Universal,
                MappingKind::Identity,
                MappingKind::ForwardIndirect,
                MappingKind::ReverseIndirect,
                MappingKind::Seam,
                MappingKind::Null,
            ] {
                let cfg = GeneratorConfig {
                    phases: 3,
                    granules: 40,
                    mean_cost: 20,
                    shape,
                    mapping,
                    ..GeneratorConfig::default()
                };
                let mut sim = Simulation::new(MachineConfig::ideal(4), OverlapPolicy::overlap());
                sim.add_job(cfg.build());
                let r = sim
                    .run()
                    .unwrap_or_else(|e| panic!("{shape:?}/{mapping:?}: {e}"));
                assert_eq!(r.phases.len(), 3);
            }
        }
    }

    #[test]
    fn cost_shapes_have_expected_means() {
        assert_eq!(CostShape::Constant.model(100).mean_ticks(), 100.0);
        assert_eq!(CostShape::Jittered.model(100).mean_ticks(), 100.0);
        assert_eq!(CostShape::Exponential.model(100).mean_ticks(), 100.0);
        // straggler: 0.9*50 + 0.1*500 = 95
        assert!((CostShape::Straggler.model(100).mean_ticks() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = GeneratorConfig {
            mapping: MappingKind::ReverseIndirect,
            granules: 30,
            phases: 3,
            ..GeneratorConfig::default()
        };
        let run = || {
            let mut sim =
                Simulation::new(MachineConfig::ideal(4), OverlapPolicy::overlap()).with_seed(99);
            sim.add_job(cfg.build());
            sim.run().unwrap().makespan
        };
        assert_eq!(run(), run());
    }
}
