//! Automatic classification of phase pairs into the paper's enablement
//! mapping taxonomy, and construction of the concrete
//! [`EnablementMapping`] the executive needs.
//!
//! "It is easy to postulate that some mapping function exists ... It is
//! very difficult to establish what this mapping function might be in any
//! general way. Fortunately, this mapping function is much more easily
//! identified when each concrete situation is faced." — this module faces
//! the concrete situation: given two [`LoopPhase`]s it computes, from
//! per-granule access footprints, which successor granules depend on which
//! current granules, and matches the dependence structure against the five
//! observed forms (plus seam).

use crate::access::phase_footprints;
use crate::ir::{ArrayProgram, LoopPhase};
use pax_core::mapping::{EnablementMapping, ForwardMap, MappingKind, ReverseMap};
use std::sync::Arc;

/// The result of classifying one phase pair.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Taxonomy bucket.
    pub kind: MappingKind,
    /// Concrete mapping ready for the executive (`None` for null).
    pub mapping: EnablementMapping,
    /// Dependence lists: `requires[r]` = current granules that successor
    /// granule `r` depends on (empty for universal).
    pub requires: Vec<Vec<u32>>,
}

/// Classify the enablement mapping from `current` to `next`.
///
/// `serial_between` must be true when serial actions/decisions separate
/// the two phases in program order — that forces the null mapping
/// regardless of data dependences, exactly as in PAX/CASPER ("In all cases
/// the cause was not that such an overlapping did not exist between the
/// parallel computations but was, in fact, that serial actions and
/// decisions had to occur between the phases").
pub fn classify(
    program: &ArrayProgram,
    current: &LoopPhase,
    next: &LoopPhase,
    serial_between: bool,
) -> Classification {
    if serial_between {
        return Classification {
            kind: MappingKind::Null,
            mapping: EnablementMapping::Null,
            requires: Vec::new(),
        };
    }
    let cur_fp = phase_footprints(program, current);
    let next_fp = phase_footprints(program, next);

    // requires[r] = current granules whose footprint conflicts with
    // successor granule r's footprint.
    let mut requires: Vec<Vec<u32>> = Vec::with_capacity(next_fp.len());
    for nf in &next_fp {
        let mut deps = Vec::new();
        for (i, cf) in cur_fp.iter().enumerate() {
            if cf.conflicts_with(nf) {
                deps.push(i as u32);
            }
        }
        requires.push(deps);
    }

    let total_deps: usize = requires.iter().map(|d| d.len()).sum();
    if total_deps == 0 {
        // "any granule of the second computational phase is enabled by any
        // granule or set of granules (including the null set) of the first"
        return Classification {
            kind: MappingKind::Universal,
            mapping: EnablementMapping::Universal,
            requires,
        };
    }

    // Identity: same trip count and granule r depends exactly on granule r
    // (or on nothing).
    if current.granules == next.granules {
        let identity = requires
            .iter()
            .enumerate()
            .all(|(r, deps)| deps.is_empty() || (deps.len() == 1 && deps[0] == r as u32));
        if identity {
            return Classification {
                kind: MappingKind::Identity,
                mapping: EnablementMapping::Identity,
                requires,
            };
        }
    }

    // Forward indirect: every current granule enables at most one
    // successor granule ("the identification of a particular granule in
    // the first phase can be directly mapped to an enabled granule in the
    // successor phase").
    let mut enables_of_current: Vec<Vec<u32>> = vec![Vec::new(); current.granules as usize];
    for (r, deps) in requires.iter().enumerate() {
        for &d in deps {
            enables_of_current[d as usize].push(r as u32);
        }
    }
    let forward = enables_of_current.iter().all(|e| e.len() <= 1);
    if forward {
        // Build the forward map over the current granules that map
        // somewhere; unmapped ones enable nothing, which the ForwardMap
        // representation cannot say directly — so fall back to the
        // requirement-list (reverse) representation when coverage is
        // partial, but keep the *kind* as forward when every mapped
        // current granule has a unique target.
        let fully_mapped = enables_of_current.iter().all(|e| e.len() == 1);
        if fully_mapped {
            let targets: Vec<u32> = enables_of_current.iter().map(|e| e[0]).collect();
            return Classification {
                kind: MappingKind::ForwardIndirect,
                mapping: EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(
                    targets,
                    next.granules,
                ))),
                requires,
            };
        }
        return Classification {
            kind: MappingKind::ForwardIndirect,
            mapping: EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(
                requires.clone(),
                current.granules,
            ))),
            requires,
        };
    }

    // Seam detection ("a seam mapping problem ... can be foreseen"): a
    // structured stencil — bounded fan-in/fan-out arising from *static*
    // geometry. The discriminator against reverse indirection comes from
    // the paper itself: "both occurrences of this situation [indirect
    // mapping] involved a dynamically generated information selection
    // map", whereas checkerboard adjacency is fixed at compile time. So a
    // bounded-fan dependence that flows only through static maps (or
    // through no maps at all, e.g. affine neighbor indexing) is a seam.
    let uses_dynamic_map = |ph: &LoopPhase| {
        ph.reads
            .iter()
            .chain(ph.writes.iter())
            .any(|a| match a.index {
                crate::ir::IndexExpr::Gather(m) | crate::ir::IndexExpr::GatherMany(m) => {
                    program.maps[m.0 as usize].dynamic
                }
                _ => false,
            })
    };
    let max_fan_in = requires.iter().map(|d| d.len()).max().unwrap_or(0);
    let max_fan_out = enables_of_current
        .iter()
        .map(|e| e.len())
        .max()
        .unwrap_or(0);
    let seam = !uses_dynamic_map(current)
        && !uses_dynamic_map(next)
        && max_fan_in <= 8
        && max_fan_out <= 8;
    // Everything else is reverse indirect ("a reverse mapping from desired
    // second phase granule to required first phase granules is possible"):
    // the same lists as a seam, under the other kind.
    let map = Arc::new(ReverseMap::new(requires.clone(), current.granules));
    let mapping = if seam {
        EnablementMapping::Seam(map)
    } else {
        EnablementMapping::ReverseIndirect(map)
    };
    Classification {
        kind: mapping.kind(),
        mapping,
        requires,
    }
}

/// Classify every adjacent pair of parallel phases in a program, honouring
/// intervening serial statements. Returns `(current_index, next_index,
/// classification)` triples over the program's statement indices.
pub fn classify_program(program: &ArrayProgram) -> Vec<(usize, usize, Classification)> {
    let phases: Vec<(usize, &LoopPhase)> = program.parallel_phases().collect();
    let mut out = Vec::new();
    for pair in phases.windows(2) {
        let (i, cur) = pair[0];
        let (j, next) = pair[1];
        let serial_between = program.stmts[i + 1..j]
            .iter()
            .any(|s| matches!(s, crate::ir::IrStmt::Serial { .. }));
        out.push((i, j, classify(program, cur, next, serial_between)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Access, IndexExpr, LoopPhase};

    fn phase(name: &str, granules: u32, writes: Vec<Access>, reads: Vec<Access>) -> LoopPhase {
        LoopPhase {
            name: name.into(),
            granules,
            writes,
            reads,
            lines: 1,
        }
    }

    /// The paper's universal fragment: B(I)=A(I) then D(I)=C(I).
    #[test]
    fn universal_fragment() {
        let mut p = ArrayProgram::new();
        let a = p.array("A", 8);
        let b = p.array("B", 8);
        let c = p.array("C", 8);
        let d = p.array("D", 8);
        let p1 = phase(
            "b=a",
            8,
            vec![Access::new(b, IndexExpr::Identity)],
            vec![Access::new(a, IndexExpr::Identity)],
        );
        let p2 = phase(
            "d=c",
            8,
            vec![Access::new(d, IndexExpr::Identity)],
            vec![Access::new(c, IndexExpr::Identity)],
        );
        let cl = classify(&p, &p1, &p2, false);
        assert_eq!(cl.kind, MappingKind::Universal);
    }

    /// The paper's identity fragment: B(I)=A(I) then C(I)=B(I).
    #[test]
    fn identity_fragment() {
        let mut p = ArrayProgram::new();
        let a = p.array("A", 8);
        let b = p.array("B", 8);
        let c = p.array("C", 8);
        let p1 = phase(
            "b=a",
            8,
            vec![Access::new(b, IndexExpr::Identity)],
            vec![Access::new(a, IndexExpr::Identity)],
        );
        let p2 = phase(
            "c=b",
            8,
            vec![Access::new(c, IndexExpr::Identity)],
            vec![Access::new(b, IndexExpr::Identity)],
        );
        let cl = classify(&p, &p1, &p2, false);
        assert_eq!(cl.kind, MappingKind::Identity);
        assert!(matches!(cl.mapping, EnablementMapping::Identity));
        assert_eq!(cl.requires[3], vec![3]);
    }

    /// Serial actions force the null mapping even when dependences would
    /// allow overlap.
    #[test]
    fn serial_forces_null() {
        let mut p = ArrayProgram::new();
        let a = p.array("A", 4);
        let b = p.array("B", 4);
        let c = p.array("C", 4);
        let p1 = phase(
            "b=a",
            4,
            vec![Access::new(b, IndexExpr::Identity)],
            vec![Access::new(a, IndexExpr::Identity)],
        );
        let p2 = phase(
            "c=b",
            4,
            vec![Access::new(c, IndexExpr::Identity)],
            vec![Access::new(b, IndexExpr::Identity)],
        );
        let cl = classify(&p, &p1, &p2, true);
        assert_eq!(cl.kind, MappingKind::Null);
    }

    /// The paper's reverse fragment: A(I)=FUNC(I) then
    /// B(I)=Σ_J A(IMAP(J,I)).
    #[test]
    fn reverse_indirect_fragment() {
        let mut p = ArrayProgram::new();
        let a = p.array("A", 8);
        let b = p.array("B", 4);
        // each successor granule gathers 3 pseudo-random A elements
        let lists: Vec<Vec<u32>> = vec![vec![1, 5, 7], vec![0, 5, 2], vec![3, 3, 6], vec![2, 4, 7]];
        let m = p.map("IMAP", lists.clone(), true);
        let p1 = phase("gen", 8, vec![Access::new(a, IndexExpr::Identity)], vec![]);
        let p2 = phase(
            "sum",
            4,
            vec![Access::new(b, IndexExpr::Identity)],
            vec![Access::new(a, IndexExpr::GatherMany(m))],
        );
        let cl = classify(&p, &p1, &p2, false);
        assert_eq!(cl.kind, MappingKind::ReverseIndirect);
        // requires reflect the (deduped) map lists
        assert_eq!(cl.requires[0], vec![1, 5, 7]);
        assert_eq!(cl.requires[2], vec![3, 6]);
    }

    /// The paper's forward fragment: B(IMAP(I))=A(IMAP(I)) then C(I)=B(I).
    #[test]
    fn forward_indirect_fragment() {
        let mut p = ArrayProgram::new();
        let a = p.array("A", 8);
        let b = p.array("B", 8);
        let c = p.array("C", 8);
        // forward map selects a subset of indices, one per granule
        let m = p.map("IMAP", vec![vec![6], vec![1], vec![4], vec![0]], true);
        let p1 = phase(
            "scatter",
            4,
            vec![Access::new(b, IndexExpr::Gather(m))],
            vec![Access::new(a, IndexExpr::Gather(m))],
        );
        let p2 = phase(
            "c=b",
            8,
            vec![Access::new(c, IndexExpr::Identity)],
            vec![Access::new(b, IndexExpr::Identity)],
        );
        let cl = classify(&p, &p1, &p2, false);
        assert_eq!(cl.kind, MappingKind::ForwardIndirect);
        // successor granule 6 requires current granule 0 (IMAP(0)=6)
        assert_eq!(cl.requires[6], vec![0]);
        assert!(cl.requires[2].is_empty(), "untouched elements have no deps");
    }

    /// Checkerboard-style neighbor dependence classifies as seam.
    #[test]
    fn seam_fragment() {
        let mut p = ArrayProgram::new();
        let a = p.array("ODD", 16);
        let b = p.array("EVEN", 16);
        // successor granule i reads current granules {i, i+1 mod n} — a 1-D
        // two-neighbor stencil.
        let lists: Vec<Vec<u32>> = (0..16).map(|i| vec![i, (i + 1) % 16]).collect();
        let m = p.map("NBR", lists, false);
        let p1 = phase("odd", 16, vec![Access::new(a, IndexExpr::Identity)], vec![]);
        let p2 = phase(
            "even",
            16,
            vec![Access::new(b, IndexExpr::Identity)],
            vec![Access::new(a, IndexExpr::GatherMany(m))],
        );
        let cl = classify(&p, &p1, &p2, false);
        assert_eq!(cl.kind, MappingKind::Seam);
        assert_eq!(cl.requires[0], vec![0, 1]);
    }

    #[test]
    fn classify_whole_program_with_serial_gap() {
        let mut p = ArrayProgram::new();
        let a = p.array("A", 4);
        let b = p.array("B", 4);
        let c = p.array("C", 4);
        p.parallel(phase(
            "p1",
            4,
            vec![Access::new(b, IndexExpr::Identity)],
            vec![Access::new(a, IndexExpr::Identity)],
        ));
        p.parallel(phase(
            "p2",
            4,
            vec![Access::new(c, IndexExpr::Identity)],
            vec![Access::new(b, IndexExpr::Identity)],
        ));
        p.serial("converge check", 5);
        p.parallel(phase(
            "p3",
            4,
            vec![Access::new(a, IndexExpr::Identity)],
            vec![Access::new(c, IndexExpr::Identity)],
        ));
        let cls = classify_program(&p);
        assert_eq!(cls.len(), 2);
        assert_eq!(cls[0].2.kind, MappingKind::Identity);
        assert_eq!(cls[1].2.kind, MappingKind::Null);
    }
}
