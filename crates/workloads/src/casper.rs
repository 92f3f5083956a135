//! A synthetic stand-in for CASPER, the paper's parallel Navier–Stokes
//! solver.
//!
//! CASPER itself (NASA TP-2418) is not available; what the paper publishes
//! about it is a *census*: 22 parallel computational phases totalling 1188
//! parallel lines, whose successor-enablement mappings break down as
//! 6 universal / 9 identity / 4 null / 2 reverse-indirect /
//! 1 forward-indirect, with both indirect occurrences using dynamically
//! generated information-selection maps, and nulls caused by serial
//! actions and decisions between phases. This module builds a pipeline
//! with **exactly that census** and a plausible aero-structural narrative
//! (the paper names "the change over from power of compression
//! computations to interpolator matrix generation" as a universal
//! transition), so every experiment that sweeps "CASPER" runs against the
//! published phase statistics.

use pax_analyze::ir::{Access, ArrayProgram, IndexExpr, LoopPhase};
use pax_core::mapping::{EnablementMapping, ForwardMap, MappingKind, ReverseMap};
use pax_core::phase::PhaseDef;
use pax_core::program::{BranchTest, EnableSpec, Program, ProgramBuilder, Step};
use pax_sim::dist::{CostModel, DurationDist};
use rand::Rng;
use std::sync::Arc;

/// The 22 phases: `(name, mapping-to-successor, parallel lines)`.
/// Mapping counts: 9 identity, 6 universal, 4 null, 2 reverse, 1 forward.
/// Line sums: identity 551, universal 266, null 262, reverse 78,
/// forward 31 — total 1188.
pub const CASPER_PHASES: [(&str, MappingKind, u32); 22] = [
    ("metric-generation", MappingKind::Identity, 62),
    ("power-of-compression", MappingKind::Universal, 45),
    ("interpolator-matrix-gen", MappingKind::Identity, 61),
    ("interpolator-apply", MappingKind::ReverseIndirect, 39),
    ("flux-assembly", MappingKind::Identity, 61),
    ("flux-smooth", MappingKind::Universal, 44),
    ("pressure-predictor", MappingKind::Identity, 61),
    ("boundary-conditions", MappingKind::Null, 66),
    ("momentum-x", MappingKind::Identity, 61),
    ("momentum-y", MappingKind::Identity, 61),
    ("momentum-z", MappingKind::Universal, 44),
    ("energy-update", MappingKind::Null, 65),
    ("turbulence-model", MappingKind::Identity, 61),
    ("structural-load-map", MappingKind::ForwardIndirect, 31),
    ("structural-dynamics", MappingKind::Identity, 61),
    ("aero-structural-couple", MappingKind::ReverseIndirect, 39),
    ("grid-deformation", MappingKind::Universal, 44),
    ("residual-reduce", MappingKind::Null, 65),
    ("timestep-select", MappingKind::Universal, 44),
    ("solution-update", MappingKind::Identity, 62),
    ("output-sampling", MappingKind::Universal, 45),
    ("convergence-check", MappingKind::Null, 66),
];

/// Configuration of the synthetic pipeline.
#[derive(Debug, Clone)]
pub struct CasperConfig {
    /// Granules per phase (one size across phases; identity transitions
    /// require it).
    pub granules: u32,
    /// Number of outer (time-step) iterations of the 22-phase loop.
    pub iterations: u32,
    /// Mean granule execution time in ticks.
    pub mean_cost: u64,
    /// Probability that a granule is conditionally skipped ("whether or
    /// not the computation was even to be carried out ... was a
    /// conditional part of the algorithm").
    pub skip_probability: f64,
    /// Serial-gap length before null-successor phases, in ticks.
    pub serial_ticks: u64,
    /// Fan-in of the reverse information-selection maps — the paper's
    /// fragment gathers with `J=1,10`.
    pub reverse_fan: u32,
    /// RNG seed for the dynamically generated maps.
    pub seed: u64,
}

impl Default for CasperConfig {
    fn default() -> CasperConfig {
        CasperConfig {
            granules: 240,
            iterations: 1,
            mean_cost: 100,
            skip_probability: 0.1,
            serial_ticks: 200,
            reverse_fan: 10,
            seed: 0xCA5BE7,
        }
    }
}

impl CasperConfig {
    /// Cost model shared by the phases: unpredictable, unrepeatable times
    /// with conditional skipping, per the paper's description.
    fn cost(&self) -> CostModel {
        CostModel::new(DurationDist::Uniform {
            lo: pax_sim::SimDuration(self.mean_cost / 2),
            hi: pax_sim::SimDuration(self.mean_cost * 3 / 2),
        })
        .with_skip(self.skip_probability, (self.mean_cost / 20).max(1))
    }

    /// A dynamically generated reverse map: each successor granule gathers
    /// `reverse_fan` random current granules (`IRAND` in the paper's
    /// fragment).
    fn reverse_map<R: Rng>(&self, rng: &mut R) -> ReverseMap {
        let n = self.granules;
        let requires: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..self.reverse_fan).map(|_| rng.gen_range(0..n)).collect())
            .collect();
        ReverseMap::new(requires, n)
    }

    /// A dynamically generated forward map (`IMAP(I)=IRAND()`).
    fn forward_map<R: Rng>(&self, rng: &mut R) -> ForwardMap {
        let n = self.granules;
        let targets: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        ForwardMap::new(targets, n)
    }

    /// Build the executable simulation program: the 22 phases in a loop of
    /// `iterations` time steps, with `ENABLE` declarations per the census.
    /// Run it under `OverlapPolicy::strict()` for the barrier baseline.
    ///
    /// `with_enables` is a frozen spelling the `benchmark/` workspace still
    /// calls: every other caller passes `true`. `false` omits the `ENABLE`
    /// declarations, which a strict run never reads anyway.
    pub fn build(&self, with_enables: bool) -> Program {
        let mut rng = pax_sim::seeded_rng(self.seed);
        let mut b = ProgramBuilder::new();
        let ids: Vec<pax_core::ids::PhaseId> = CASPER_PHASES
            .iter()
            .map(|(name, _, lines)| {
                b.phase(PhaseDef::new(*name, self.granules, self.cost()).with_lines(*lines))
            })
            .collect();
        let iter_counter = b.counter();
        let loop_top = b.next_index();
        for (i, (_, kind, _)) in CASPER_PHASES.iter().enumerate() {
            let succ_idx = (i + 1) % CASPER_PHASES.len();
            let succ = ids[succ_idx];
            let is_last = i + 1 == CASPER_PHASES.len();
            let mapping = match kind {
                MappingKind::Universal => Some(EnablementMapping::Universal),
                MappingKind::Identity => Some(EnablementMapping::Identity),
                MappingKind::ReverseIndirect => Some(EnablementMapping::ReverseIndirect(Arc::new(
                    self.reverse_map(&mut rng),
                ))),
                MappingKind::ForwardIndirect => Some(EnablementMapping::ForwardIndirect(Arc::new(
                    self.forward_map(&mut rng),
                ))),
                MappingKind::Null | MappingKind::Seam => None,
            };
            match (with_enables, mapping) {
                (true, Some(m)) if !is_last => {
                    b.dispatch_enable(
                        ids[i],
                        vec![EnableSpec {
                            successor: succ,
                            mapping: m,
                        }],
                    );
                }
                (true, Some(m)) if is_last => {
                    // loop back-edge: overlap into the next iteration's
                    // first phase (the branch below is counter-only, so it
                    // is preprocessable)
                    b.dispatch_enable_branch_independent(
                        ids[i],
                        vec![EnableSpec {
                            successor: succ,
                            mapping: m,
                        }],
                    );
                }
                _ => {
                    b.dispatch(ids[i]);
                }
            }
            if matches!(kind, MappingKind::Null) {
                // "serial actions and decisions had to occur between the
                // phases"
                b.serial(
                    self.serial_ticks,
                    format!("serial-after-{}", CASPER_PHASES[i].0),
                );
            }
        }
        b.incr(iter_counter, 1);
        let after = b.next_index() + 1;
        b.step(Step::Branch {
            test: BranchTest::CounterLt(iter_counter, self.iterations as i64),
            on_true: loop_top,
            on_false: after,
        });
        b.build().expect("CASPER program is structurally valid")
    }

    /// Build the array-IR model of the same pipeline, suitable for
    /// `pax_analyze::classify_program`. The classifier must recover the
    /// published census from the access patterns alone (experiment E2).
    ///
    /// The model has 23 phases: the 22 CASPER phases plus the next
    /// iteration's first phase, so all 22 transitions are classifiable.
    pub fn array_model(&self) -> ArrayProgram {
        let mut rng = pax_sim::seeded_rng(self.seed);
        let n = self.granules;
        let mut p = ArrayProgram::new();
        // one output array per phase + one private input per universal
        // successor (so universal pairs share nothing)
        let phase_count = CASPER_PHASES.len() + 1;
        let outputs: Vec<_> = (0..phase_count)
            .map(|i| p.array(format!("OUT{i}"), n))
            .collect();
        let fresh: Vec<_> = (0..phase_count)
            .map(|i| p.array(format!("IN{i}"), n))
            .collect();

        for i in 0..phase_count {
            let kind_of_prev = if i == 0 {
                None
            } else {
                Some(CASPER_PHASES[(i - 1) % CASPER_PHASES.len()].1)
            };
            let (name, _, lines) = CASPER_PHASES[i % CASPER_PHASES.len()];
            // reads depend on how the *previous* phase enables us
            let reads: Vec<Access> = match kind_of_prev {
                None => vec![Access::new(fresh[i], IndexExpr::Identity)],
                Some(MappingKind::Universal) => {
                    // character change: fresh input, nothing shared
                    vec![Access::new(fresh[i], IndexExpr::Identity)]
                }
                Some(MappingKind::Identity) | Some(MappingKind::Null) => {
                    // null transitions still share data (the cause was the
                    // serial gap, not independence)
                    vec![Access::new(outputs[i - 1], IndexExpr::Identity)]
                }
                Some(MappingKind::ReverseIndirect) => {
                    let rmap = self.reverse_map(&mut rng);
                    let m = p.map(format!("RMAP{i}"), rmap.requires.clone(), true);
                    vec![Access::new(outputs[i - 1], IndexExpr::GatherMany(m))]
                }
                Some(MappingKind::ForwardIndirect) => {
                    // the *writer* carried the map; we read our own index
                    vec![Access::new(outputs[i - 1], IndexExpr::Identity)]
                }
                Some(MappingKind::Seam) => unreachable!("no seam in CASPER"),
            };
            // writes depend on how *we* enable the next phase
            let kind_to_next = CASPER_PHASES[i % CASPER_PHASES.len()].1;
            let writes: Vec<Access> = match kind_to_next {
                MappingKind::ForwardIndirect => {
                    let fmap = self.forward_map(&mut rng);
                    let lists: Vec<Vec<u32>> = fmap.targets.iter().map(|&t| vec![t]).collect();
                    let m = p.map(format!("FMAP{i}"), lists, true);
                    vec![Access::new(outputs[i], IndexExpr::Gather(m))]
                }
                _ => vec![Access::new(outputs[i], IndexExpr::Identity)],
            };
            p.parallel(LoopPhase {
                name: name.into(),
                granules: n,
                writes,
                reads,
                lines,
            });
            if matches!(kind_to_next, MappingKind::Null) && i < phase_count - 1 {
                p.serial(format!("serial-after-{name}"), 4);
            }
        }
        p
    }
}

/// The census the pipeline is constructed to match, straight from the
/// table above (useful without running the classifier).
pub fn casper_declared_census() -> pax_analyze::census::Census {
    pax_analyze::census::Census::from_counts(
        CASPER_PHASES.iter().map(|&(_, kind, lines)| (kind, lines)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_analyze::classify_program;

    #[test]
    fn census_counts_match_paper() {
        let c = casper_declared_census();
        assert_eq!(c.total_phases(), 22);
        assert_eq!(c.total_lines(), 1188);
        assert_eq!(c.row(MappingKind::Universal).phases, 6);
        assert_eq!(c.row(MappingKind::Identity).phases, 9);
        assert_eq!(c.row(MappingKind::Null).phases, 4);
        assert_eq!(c.row(MappingKind::ReverseIndirect).phases, 2);
        assert_eq!(c.row(MappingKind::ForwardIndirect).phases, 1);
        assert_eq!(c.row(MappingKind::Universal).lines, 266);
        assert_eq!(c.row(MappingKind::Identity).lines, 551);
        assert_eq!(c.row(MappingKind::Null).lines, 262);
        assert_eq!(c.row(MappingKind::ReverseIndirect).lines, 78);
        assert_eq!(c.row(MappingKind::ForwardIndirect).lines, 31);
    }

    #[test]
    fn classifier_recovers_census_from_array_model() {
        let cfg = CasperConfig {
            granules: 48, // smaller for test speed
            ..CasperConfig::default()
        };
        let model = cfg.array_model();
        let classes = classify_program(&model);
        assert_eq!(classes.len(), 22);
        for (i, (_, _, cl)) in classes.iter().enumerate() {
            assert_eq!(
                cl.kind, CASPER_PHASES[i].1,
                "transition {i} ({}) misclassified",
                CASPER_PHASES[i].0
            );
        }
    }

    #[test]
    fn program_builds_and_validates() {
        let cfg = CasperConfig {
            granules: 32,
            iterations: 2,
            ..CasperConfig::default()
        };
        let p = cfg.build(true);
        assert!(p.validate().is_ok());
        assert_eq!(p.phases.len(), 22);
    }

    #[test]
    fn pipeline_runs_to_completion_both_modes() {
        use pax_core::engine::Simulation;
        use pax_core::policy::OverlapPolicy;
        use pax_sim::machine::MachineConfig;
        let cfg = CasperConfig {
            granules: 40,
            iterations: 1,
            mean_cost: 20,
            ..CasperConfig::default()
        };
        let program = cfg.build(true);
        assert_eq!(program.interlock_gaps(), Ok(vec![]));
        for policy in [OverlapPolicy::strict(), OverlapPolicy::overlap()] {
            let mut sim = Simulation::new(MachineConfig::ideal(8), policy);
            sim.add_job(program.clone());
            let r = sim.run().unwrap();
            assert_eq!(r.phases.len(), 22);
        }
    }

    #[test]
    fn overlap_beats_strict_on_casper() {
        use pax_core::engine::Simulation;
        use pax_core::policy::OverlapPolicy;
        use pax_sim::machine::MachineConfig;
        let cfg = CasperConfig {
            granules: 60,
            iterations: 1,
            mean_cost: 50,
            serial_ticks: 50,
            ..CasperConfig::default()
        };
        let run = |policy| {
            let mut s = Simulation::new(MachineConfig::ideal(16), policy);
            s.add_job(cfg.build(true));
            s.run().unwrap()
        };
        let strict = run(OverlapPolicy::strict());
        let over = run(OverlapPolicy::overlap());
        assert!(
            over.makespan < strict.makespan,
            "overlap {} !< strict {}",
            over.makespan.ticks(),
            strict.makespan.ticks()
        );
        assert!(over.total_overlap_granules() > 0);
    }

    #[test]
    fn multi_iteration_loop_produces_all_instances() {
        use pax_core::engine::Simulation;
        use pax_core::policy::OverlapPolicy;
        use pax_sim::machine::MachineConfig;
        let cfg = CasperConfig {
            granules: 16,
            iterations: 3,
            mean_cost: 10,
            serial_ticks: 5,
            ..CasperConfig::default()
        };
        let mut sim = Simulation::new(MachineConfig::ideal(4), OverlapPolicy::overlap());
        sim.add_job(cfg.build(true));
        let r = sim.run().unwrap();
        assert_eq!(r.phases.len(), 66, "3 iterations × 22 phases");
    }
}
