//! The paper's four Fortran fragments, as analyzable array programs and
//! as runnable simulation programs.
//!
//! These are the concrete situations the paper uses to introduce each
//! enablement mapping; tests assert the classifier assigns exactly the
//! mapping the paper assigns.

use pax_analyze::ir::{Access, ArrayProgram, IndexExpr, LoopPhase};
use pax_core::mapping::{EnablementMapping, ForwardMap, ReverseMap};
use pax_core::phase::PhaseDef;
use pax_core::program::Program;
use pax_sim::dist::CostModel;
use rand::Rng;

/// Fragment 1 — universal mapping:
///
/// ```fortran
/// DO 100 I=1,N
///   B(I)=A(I)
/// 100 CONTINUE
/// DO 200 I=1,N
///   D(I)=C(I)
/// 200 CONTINUE
/// ```
pub fn fragment_universal(n: u32) -> ArrayProgram {
    let mut p = ArrayProgram::new();
    let a = p.array("A", n);
    let b = p.array("B", n);
    let c = p.array("C", n);
    let d = p.array("D", n);
    p.parallel(LoopPhase {
        name: "B(I)=A(I)".into(),
        granules: n,
        writes: vec![Access::new(b, IndexExpr::Identity)],
        reads: vec![Access::new(a, IndexExpr::Identity)],
        lines: 3,
    });
    p.parallel(LoopPhase {
        name: "D(I)=C(I)".into(),
        granules: n,
        writes: vec![Access::new(d, IndexExpr::Identity)],
        reads: vec![Access::new(c, IndexExpr::Identity)],
        lines: 3,
    });
    p
}

/// Fragment 2 — identity (direct) mapping:
///
/// ```fortran
/// DO 100 I=1,N
///   B(I)=A(I)
/// 100 CONTINUE
/// DO 200 I=1,N
///   C(I)=B(I)
/// 200 CONTINUE
/// ```
pub fn fragment_identity(n: u32) -> ArrayProgram {
    let mut p = ArrayProgram::new();
    let a = p.array("A", n);
    let b = p.array("B", n);
    let c = p.array("C", n);
    p.parallel(LoopPhase {
        name: "B(I)=A(I)".into(),
        granules: n,
        writes: vec![Access::new(b, IndexExpr::Identity)],
        reads: vec![Access::new(a, IndexExpr::Identity)],
        lines: 3,
    });
    p.parallel(LoopPhase {
        name: "C(I)=B(I)".into(),
        granules: n,
        writes: vec![Access::new(c, IndexExpr::Identity)],
        reads: vec![Access::new(b, IndexExpr::Identity)],
        lines: 3,
    });
    p
}

/// Fragment 3 — reverse indirect mapping:
///
/// ```fortran
/// DO 10 I=1,N
///   DO 10 J=1,10
///     IMAP(J,I)=IRAND()      ! dynamically generated
/// 10 CONTINUE
/// DO 100 I=1,N
///   A(I)=FUNC(I)             ! first phase
/// 100 CONTINUE
/// DO 200 I=1,N
///   DO 200 J=1,10
///     B(I)=B(I)+A(IMAP(J,I)) ! second phase gathers
/// 200 CONTINUE
/// ```
///
/// Returns the program plus the generated map (so simulations can bind
/// the same map).
pub fn fragment_reverse(n: u32, fan: u32, seed: u64) -> (ArrayProgram, ReverseMap) {
    let mut rng = pax_sim::seeded_rng(seed);
    let lists: Vec<Vec<u32>> = (0..n)
        .map(|_| (0..fan).map(|_| rng.gen_range(0..n)).collect())
        .collect();
    let rmap = ReverseMap::new(lists.clone(), n);
    let mut p = ArrayProgram::new();
    let a = p.array("A", n);
    let b = p.array("B", n);
    let m = p.map("IMAP", lists, true);
    p.parallel(LoopPhase {
        name: "A(I)=FUNC(I)".into(),
        granules: n,
        writes: vec![Access::new(a, IndexExpr::Identity)],
        reads: vec![],
        lines: 3,
    });
    p.parallel(LoopPhase {
        name: "B(I)=SUM A(IMAP(J,I))".into(),
        granules: n,
        writes: vec![Access::new(b, IndexExpr::Identity)],
        reads: vec![Access::new(a, IndexExpr::GatherMany(m))],
        lines: 4,
    });
    (p, rmap)
}

/// Fragment 4 — forward indirect mapping:
///
/// ```fortran
/// DO 10 I=1,M
///   IMAP(I)=IRAND()          ! generate forward map
/// 10 CONTINUE
/// DO 100 I=1,M
///   B(IMAP(I))=A(IMAP(I))    ! operate on a subset
/// 100 CONTINUE
/// DO 200 I=1,N
///   C(I)=B(I)                ! operate on the whole array
/// 200 CONTINUE
/// ```
pub fn fragment_forward(m_granules: u32, n: u32, seed: u64) -> (ArrayProgram, ForwardMap) {
    assert!(m_granules <= n);
    let mut rng = pax_sim::seeded_rng(seed);
    let targets: Vec<u32> = (0..m_granules).map(|_| rng.gen_range(0..n)).collect();
    let fmap = ForwardMap::new(targets.clone(), n);
    let mut p = ArrayProgram::new();
    let a = p.array("A", n);
    let b = p.array("B", n);
    let c = p.array("C", n);
    let m = p.map("IMAP", targets.iter().map(|&t| vec![t]).collect(), true);
    p.parallel(LoopPhase {
        name: "B(IMAP(I))=A(IMAP(I))".into(),
        granules: m_granules,
        writes: vec![Access::new(b, IndexExpr::Gather(m))],
        reads: vec![Access::new(a, IndexExpr::Gather(m))],
        lines: 3,
    });
    p.parallel(LoopPhase {
        name: "C(I)=B(I)".into(),
        granules: n,
        writes: vec![Access::new(c, IndexExpr::Identity)],
        reads: vec![Access::new(b, IndexExpr::Identity)],
        lines: 3,
    });
    (p, fmap)
}

/// Build a runnable two-phase simulation program for any fragment:
/// classification output feeds straight into the executive.
pub fn fragment_simulation(program: &ArrayProgram, cost: CostModel, with_enable: bool) -> Program {
    let phases: Vec<&LoopPhase> = program.parallel_phases().map(|(_, p)| p).collect();
    assert_eq!(phases.len(), 2, "fragments have exactly two phases");
    let serial = false; // fragments have no serial gaps
    let cl = pax_analyze::classify(program, phases[0], phases[1], serial);
    let defs = (phases.iter())
        .map(|p| PhaseDef::new(&p.name, p.granules, cost.clone()).with_lines(p.lines));
    let edge = if with_enable {
        cl.mapping
    } else {
        EnablementMapping::Null
    };
    Program::chain(defs.collect(), vec![edge]).expect("fragment program is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_analyze::{classify, classify_program};
    use pax_core::mapping::MappingKind;
    use pax_core::prelude::*;
    use pax_sim::machine::MachineConfig;

    #[test]
    fn fragment1_classifies_universal() {
        let p = fragment_universal(32);
        let cls = classify_program(&p);
        assert_eq!(cls.len(), 1);
        assert_eq!(cls[0].2.kind, MappingKind::Universal);
    }

    #[test]
    fn fragment2_classifies_identity() {
        let p = fragment_identity(32);
        let cls = classify_program(&p);
        assert_eq!(cls[0].2.kind, MappingKind::Identity);
    }

    #[test]
    fn fragment3_classifies_reverse() {
        let (p, rmap) = fragment_reverse(24, 10, 7);
        let cls = classify_program(&p);
        assert_eq!(cls[0].2.kind, MappingKind::ReverseIndirect);
        // the classifier's requirement lists equal the generated map's
        // (deduped, sorted)
        for (r, deps) in cls[0].2.requires.iter().enumerate() {
            let mut expect = rmap.requires[r].clone();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(deps, &expect);
        }
    }

    #[test]
    fn fragment4_classifies_forward() {
        let (p, _) = fragment_forward(16, 40, 7);
        let cls = classify_program(&p);
        assert_eq!(cls[0].2.kind, MappingKind::ForwardIndirect);
    }

    #[test]
    fn fragments_run_with_overlap_and_match_strict_totals() {
        for (name, prog) in [
            ("universal", fragment_universal(30)),
            ("identity", fragment_identity(30)),
            ("reverse", fragment_reverse(30, 5, 3).0),
            ("forward", fragment_forward(30, 30, 3).0),
        ] {
            let sim_prog = fragment_simulation(&prog, CostModel::constant(10), true);
            let strict_prog = fragment_simulation(&prog, CostModel::constant(10), false);
            let run = |p: Program, overlap: bool| {
                let policy = if overlap {
                    OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1))
                } else {
                    OverlapPolicy::strict().with_sizing(TaskSizing::Fixed(1))
                };
                let mut s = Simulation::new(MachineConfig::ideal(4), policy);
                s.add_job(p);
                s.run().unwrap()
            };
            let over = run(sim_prog, true);
            let strict = run(strict_prog, false);
            assert_eq!(
                over.compute_time, strict.compute_time,
                "{name}: work not conserved"
            );
            assert!(
                over.makespan <= strict.makespan,
                "{name}: overlap {} > strict {}",
                over.makespan.ticks(),
                strict.makespan.ticks()
            );
        }
    }

    #[test]
    fn classification_respects_parallel_predicate() {
        // PARALLEL(q, r) must hold between any unfinished current granule
        // q and any enabled successor granule r under the derived mapping:
        // check for the identity fragment that granule r of phase 2
        // conflicts only with granule r of phase 1.
        let p = fragment_identity(16);
        let phases: Vec<&pax_analyze::ir::LoopPhase> =
            p.parallel_phases().map(|(_, ph)| ph).collect();
        let cl = classify(&p, phases[0], phases[1], false);
        for (r, deps) in cl.requires.iter().enumerate() {
            for q in 0..16u32 {
                let par = pax_analyze::parallel(&p, phases[0], q, phases[1], r as u32);
                let required = deps.contains(&q);
                assert_eq!(par, !required, "granule q={q}, r={r}");
            }
        }
    }
}
