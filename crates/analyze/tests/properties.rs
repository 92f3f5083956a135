//! Property tests: the classifier must agree with the `PARALLEL`
//! predicate it is derived from, on randomly generated array programs.

use pax_analyze::prelude::*;
use pax_core::mapping::MappingKind;
use proptest::prelude::*;

/// Build a random two-phase program over small arrays.
fn arb_program() -> impl Strategy<Value = ArrayProgram> {
    (
        2u32..16,                                   // granules
        0usize..4,                                  // phase-2 read mode
        proptest::collection::vec(0u32..16, 1..64), // map values
        1usize..4,                                  // fan
        proptest::bool::ANY,                        // dynamic map?
    )
        .prop_map(|(n, mode, mapvals, fan, dynamic)| {
            let mut p = ArrayProgram::new();
            let a = p.array("A", n);
            let b = p.array("B", n);
            let c = p.array("C", n);
            // phase 1: B(I) = A(I)
            p.parallel(LoopPhase {
                name: "p1".into(),
                granules: n,
                writes: vec![Access::new(b, IndexExpr::Identity)],
                reads: vec![Access::new(a, IndexExpr::Identity)],
                lines: 3,
            });
            // phase 2 reads vary by mode
            let reads = match mode {
                0 => vec![],                                    // universal
                1 => vec![Access::new(b, IndexExpr::Identity)], // identity
                2 => {
                    // gather through a map
                    let lists: Vec<Vec<u32>> = (0..n)
                        .map(|g| {
                            (0..fan)
                                .map(|j| mapvals[(g as usize * fan + j) % mapvals.len()] % n)
                                .collect()
                        })
                        .collect();
                    let m = p.map("IMAP", lists, dynamic);
                    vec![Access::new(b, IndexExpr::GatherMany(m))]
                }
                _ => vec![Access::new(
                    b,
                    IndexExpr::Affine {
                        stride: 1,
                        offset: 1,
                    },
                )], // shifted stencil-ish
            };
            p.parallel(LoopPhase {
                name: "p2".into(),
                granules: n,
                writes: vec![Access::new(c, IndexExpr::Identity)],
                reads,
                lines: 3,
            });
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The classifier's requirement lists are exactly the granule pairs
    /// that the PARALLEL predicate forbids.
    #[test]
    fn requires_match_parallel_predicate(program in arb_program()) {
        let phases: Vec<&LoopPhase> = program.parallel_phases().map(|(_, p)| p).collect();
        let cl = classify(&program, phases[0], phases[1], false);
        for r in 0..phases[1].granules {
            for q in 0..phases[0].granules {
                let par = parallel(&program, phases[0], q, phases[1], r);
                let required = cl.requires[r as usize].contains(&q);
                prop_assert_eq!(par, !required,
                    "kind {:?}: granule q={} r={}", cl.kind, q, r);
            }
        }
    }

    /// Universal classification ⇔ zero dependences anywhere.
    #[test]
    fn universal_iff_no_dependences(program in arb_program()) {
        let phases: Vec<&LoopPhase> = program.parallel_phases().map(|(_, p)| p).collect();
        let cl = classify(&program, phases[0], phases[1], false);
        let total: usize = cl.requires.iter().map(|d| d.len()).sum();
        prop_assert_eq!(cl.kind == MappingKind::Universal, total == 0);
    }

    /// Identity classification implies the diagonal dependence pattern.
    #[test]
    fn identity_is_diagonal(program in arb_program()) {
        let phases: Vec<&LoopPhase> = program.parallel_phases().map(|(_, p)| p).collect();
        let cl = classify(&program, phases[0], phases[1], false);
        if cl.kind == MappingKind::Identity {
            for (r, deps) in cl.requires.iter().enumerate() {
                prop_assert!(deps.is_empty() || deps == &vec![r as u32]);
            }
        }
    }

    /// Serial statements force null regardless of data.
    #[test]
    fn serial_always_null(program in arb_program()) {
        let phases: Vec<&LoopPhase> = program.parallel_phases().map(|(_, p)| p).collect();
        let cl = classify(&program, phases[0], phases[1], true);
        prop_assert_eq!(cl.kind, MappingKind::Null);
    }

    /// Classification is deterministic.
    #[test]
    fn classification_deterministic(program in arb_program()) {
        let phases: Vec<&LoopPhase> = program.parallel_phases().map(|(_, p)| p).collect();
        let a = classify(&program, phases[0], phases[1], false);
        let b = classify(&program, phases[0], phases[1], false);
        prop_assert_eq!(a.kind, b.kind);
        prop_assert_eq!(a.requires, b.requires);
    }

    /// Whatever mapping the classifier emits, feeding it to the executive
    /// yields a complete, work-conserving run.
    #[test]
    fn classified_mapping_always_runs(program in arb_program(), procs in 1usize..5) {
        use pax_core::prelude::*;
        use pax_sim::machine::MachineConfig;
        let sim_prog = pax_workloads::fragments::fragment_simulation(
            &program,
            pax_sim::dist::CostModel::constant(7),
        );
        let mut sim = Simulation::new(
            MachineConfig::ideal(procs),
            OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(2)),
        );
        sim.add_job(sim_prog);
        let r = sim.run().expect("no deadlock");
        let phases: Vec<&LoopPhase> = program.parallel_phases().map(|(_, p)| p).collect();
        let expected: u64 = (phases[0].granules as u64 + phases[1].granules as u64) * 7;
        prop_assert_eq!(r.compute_time.ticks(), expected);
    }
}
