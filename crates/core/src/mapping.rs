//! Enablement mappings between a computational phase and its successor.
//!
//! The paper's central taxonomy. Let `p` range over completed granules of
//! the current phase, `q` over uncompleted ones, and `r` over granules of
//! the successor phase. A successor granule `r` may be computed early iff
//! it has been *enabled* by completed granules and `PARALLEL(q, r)` holds
//! for every uncompleted `q`. The mapping from completions to enablements
//! took five observed forms in PAX/CASPER:
//!
//! * [`EnablementMapping::Universal`] — any successor granule is enabled by
//!   the null set (the two phases share nothing). 6/22 phases, 266/1188
//!   lines.
//! * [`EnablementMapping::Identity`] — completion of granule *i* enables
//!   successor granule *i* (`B(I)=A(I)` followed by `C(I)=B(I)`). 9/22
//!   phases, 551/1188 lines.
//! * [`EnablementMapping::Null`] — no overlap is possible because serial
//!   actions and decisions intervene. 4/22 phases, 262/1188 lines.
//! * [`EnablementMapping::ReverseIndirect`] — a successor granule needs a
//!   *set* of current granules, identifiable only by mapping backward
//!   through a (dynamically generated) information-selection map. 2/22
//!   phases, 78/1188 lines.
//! * [`EnablementMapping::ForwardIndirect`] — completion of current granule
//!   *i* directly enables successor granule `IMAP(i)`. 1/22 phases,
//!   31/1188 lines.
//!
//! A sixth, **seam** mapping (checkerboard neighbor enablement) is
//! "foreseen" but beyond the paper's scope; we implement it as the
//! extension that carries the concluding claim that "more than 90 percent
//! of the computational phases are amenable to some form of phase
//! overlapping".
//!
//! All indirect forms lower to one executive mechanism, exactly as the
//! paper observes ("Each leads naturally to a list of current phase
//! granules that must be completed to enable a particular successor phase
//! granule"): the [`CompositeMap`], a per-successor requirement count plus
//! an inverted current→successors index, driven by enablement counters
//! decremented during completion processing.

use std::sync::{Arc, OnceLock};

/// Discriminant of an enablement mapping, used for census tables and
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MappingKind {
    /// Successor enabled by the null set.
    Universal,
    /// `i` enables `i`.
    Identity,
    /// `i` enables `IMAP(i)`.
    ForwardIndirect,
    /// Successor `r` requires `{IMAP(j, r)}`.
    ReverseIndirect,
    /// Grid-neighbor enablement (extension; "seam mapping problem").
    Seam,
    /// No overlap possible.
    Null,
}

impl MappingKind {
    /// Short lowercase label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            MappingKind::Universal => "universal",
            MappingKind::Identity => "identity",
            MappingKind::ForwardIndirect => "forward-indirect",
            MappingKind::ReverseIndirect => "reverse-indirect",
            MappingKind::Seam => "seam",
            MappingKind::Null => "null",
        }
    }

    /// Whether the paper counts this mapping as "easily overlapped"
    /// (universal + identity = 68% of phases).
    pub fn easily_overlapped(self) -> bool {
        matches!(self, MappingKind::Universal | MappingKind::Identity)
    }

    /// Whether any overlap at all is possible under this mapping.
    pub fn overlappable(self) -> bool {
        !matches!(self, MappingKind::Null)
    }
}

/// A forward information-selection map: current granule `i` writes the
/// location read by successor granule `fmap[i]` (the paper's
/// `B(IMAP(I))=A(IMAP(I))` → `C(I)=B(I)` fragment).
#[derive(Debug, Clone)]
pub struct ForwardMap {
    /// `fmap[i]` = successor granule enabled by current granule `i`.
    pub targets: Vec<u32>,
    /// Total granule count of the successor phase (the image of `targets`
    /// may cover only a subset; the rest are enabled by the null set).
    pub successor_granules: u32,
    composite: Built,
}

impl ForwardMap {
    /// Build, validating that every target is within the successor phase.
    pub fn new(targets: Vec<u32>, successor_granules: u32) -> ForwardMap {
        assert!(
            targets.iter().all(|&t| t < successor_granules),
            "forward map target out of successor range"
        );
        ForwardMap {
            targets,
            successor_granules,
            composite: Built::default(),
        }
    }
}

/// A reverse information-selection map: successor granule `r` reads the
/// locations written by current granules `requires[r]` (the paper's
/// `B(I) = Σ_J A(IMAP(J,I))` fragment). A seam map is the same lists
/// under another kind: [`EnablementMapping::Seam`] carries the bordering
/// current granules of each successor granule.
#[derive(Debug, Clone)]
pub struct ReverseMap {
    /// `requires[r]` = current-phase granules that must complete before
    /// successor granule `r` is enabled. Entries may repeat; duplicates
    /// are counted once.
    pub requires: Vec<Vec<u32>>,
    composite: Built,
}

impl ReverseMap {
    /// Build, validating against the current phase's granule count.
    pub fn new(requires: Vec<Vec<u32>>, current_granules: u32) -> ReverseMap {
        assert!(
            requires
                .iter()
                .all(|deps| deps.iter().all(|&d| d < current_granules)),
            "reverse map dependency out of current-phase range"
        );
        ReverseMap {
            requires,
            composite: Built::default(),
        }
    }
}

/// An indirect payload's composite map, built on first use and kept with
/// the payload. A cloned payload starts with none: its fields may be
/// edited before it is used.
#[derive(Debug, Default)]
struct Built(OnceLock<Arc<CompositeMap>>);

impl Built {
    fn get(&self, build: impl FnOnce() -> CompositeMap) -> &Arc<CompositeMap> {
        self.0.get_or_init(|| Arc::new(build()))
    }
}

impl Clone for Built {
    fn clone(&self) -> Built {
        Built::default()
    }
}

/// An enablement mapping from one phase to its successor.
#[derive(Debug, Clone)]
pub enum EnablementMapping {
    /// Any successor granule is enabled by the null set of completions.
    Universal,
    /// Completion of granule `i` enables successor granule `i`; requires
    /// equal granule counts.
    Identity,
    /// Forward information-selection map (dynamically generated in both
    /// PAX/CASPER occurrences).
    ForwardIndirect(Arc<ForwardMap>),
    /// Reverse information-selection map.
    ReverseIndirect(Arc<ReverseMap>),
    /// Structural neighbor map (extension): `requires[r]` lists the
    /// current granules that border successor granule `r`. The
    /// checkerboard instance lives in `pax-workloads`.
    Seam(Arc<ReverseMap>),
    /// No overlap: serial actions/decisions intervene between the phases.
    Null,
}

impl EnablementMapping {
    /// The census discriminant.
    pub fn kind(&self) -> MappingKind {
        match self {
            EnablementMapping::Universal => MappingKind::Universal,
            EnablementMapping::Identity => MappingKind::Identity,
            EnablementMapping::ForwardIndirect(_) => MappingKind::ForwardIndirect,
            EnablementMapping::ReverseIndirect(_) => MappingKind::ReverseIndirect,
            EnablementMapping::Seam(_) => MappingKind::Seam,
            EnablementMapping::Null => MappingKind::Null,
        }
    }

    /// Whether this mapping fits an edge from a phase of `current`
    /// granules into one of `successor` granules: the granule-count half
    /// of the interlock the paper asks for "so that the executive system
    /// (or language processor) can verify" it. The one place these rules
    /// live; program validation, the real-thread executor, the
    /// language's `ENABLE` resolution and the scenario reader all ask
    /// here. Returns a description of the first misfit.
    pub fn check_edge(&self, current: u32, successor: u32) -> Result<(), String> {
        // Reverse and seam maps are both per-successor requirement lists.
        let lists = |what: &str, requires: &[Vec<u32>]| {
            if requires.len() != successor as usize {
                Err(format!(
                    "{what} map covers {} successor granules, phase has {successor}",
                    requires.len()
                ))
            } else if let Some(&d) = requires.iter().flatten().find(|&&d| d >= current) {
                Err(format!(
                    "{what} map requires current granule {d}, phase has only {current}"
                ))
            } else {
                Ok(())
            }
        };
        match self {
            EnablementMapping::Universal | EnablementMapping::Null => Ok(()),
            EnablementMapping::Identity if current != successor => Err(format!(
                "identity mapping requires equal granule counts ({current} vs {successor})"
            )),
            EnablementMapping::Identity => Ok(()),
            EnablementMapping::ForwardIndirect(f) => {
                if f.successor_granules != successor {
                    Err(format!(
                        "forward map built for {} successor granules, phase has {successor}",
                        f.successor_granules
                    ))
                } else if f.targets.len() > current as usize {
                    Err(format!(
                        "forward map has {} entries but the current phase has only \
                         {current} granules",
                        f.targets.len()
                    ))
                } else if let Some(&t) = f.targets.iter().find(|&&t| t >= successor) {
                    Err(format!(
                        "forward map targets successor granule {t}, phase has only {successor}"
                    ))
                } else {
                    Ok(())
                }
            }
            EnablementMapping::ReverseIndirect(r) => lists("reverse", &r.requires),
            EnablementMapping::Seam(r) => lists("seam", &r.requires),
        }
    }

    /// The composite map of an indirect mapping, built on the first call
    /// and kept with the map's payload: every clone of this mapping, and
    /// every edge and instance it serves, shares the one `Arc`. `None`
    /// for universal, identity and null mappings. The map fits every
    /// current phase that [`check_edge`](Self::check_edge) accepts. It is
    /// built from the payload's fields as they are at the first call, so
    /// edit a payload only before its mapping is used.
    pub fn composite(&self) -> Option<&Arc<CompositeMap>> {
        Some(match self {
            EnablementMapping::ForwardIndirect(f) => {
                f.composite.get(|| CompositeMap::from_forward(f))
            }
            EnablementMapping::ReverseIndirect(r) | EnablementMapping::Seam(r) => r
                .composite
                .get(|| CompositeMap::from_requirement_lists(&r.requires)),
            _ => return None,
        })
    }
}

/// The executive's uniform representation of indirect enablement: for each
/// successor granule a requirement count, and for each current granule the
/// successor granules whose counters it decrements (CSR layout).
///
/// "During completion processing, a status bit ... can be checked and, if
/// it is set, an enablement counter decremented. When the enablement
/// counter reaches zero, it can be taken as a signal that the
/// successor-phase granules are computable."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositeMap {
    /// Requirement count per successor granule. Zero means the granule is
    /// enabled by the null set (released at successor initiation).
    pub requires: Vec<u32>,
    /// CSR offsets into `targets`, one slot per current granule the map
    /// covers + 1.
    pub offsets: Vec<u32>,
    /// Successor granules decremented by each current granule.
    pub targets: Vec<u32>,
}

impl CompositeMap {
    /// Number of (current → successor) dependence entries; the executive
    /// charges `composite_map_per_entry` ticks per entry to build the map.
    pub fn entries(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Successor granules that depend on current granule `i`; none past
    /// the last current granule the map names.
    #[inline]
    pub fn dependents_of(&self, i: u32) -> &[u32] {
        match self.offsets.get(i as usize..i as usize + 2) {
            Some(&[a, b]) => &self.targets[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Build from a forward map. Duplicate writers of one successor
    /// granule each count toward its requirement (all writes must land
    /// before the successor may read).
    fn from_forward(fmap: &ForwardMap) -> CompositeMap {
        let mut requires = vec![0u32; fmap.successor_granules as usize];
        for &t in &fmap.targets {
            requires[t as usize] += 1;
        }
        // each current granule has exactly one target
        CompositeMap {
            requires,
            offsets: (0..=fmap.targets.len() as u32).collect(),
            targets: fmap.targets.clone(),
        }
    }

    /// Invert per-successor requirement lists into the CSR
    /// current→successors index, over current granules up to the largest
    /// one a list names.
    pub fn from_requirement_lists(lists: &[Vec<u32>]) -> CompositeMap {
        let n_cur = lists.iter().flatten().max().map_or(0, |&d| d as usize + 1);
        // First pass: every list sorted and deduplicated, end to end in
        // one buffer; `requires[r]` is the extent of list `r` in it.
        let mut flat: Vec<u32> = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        let mut requires = Vec::with_capacity(lists.len());
        let mut offsets = vec![0u32; n_cur + 1];
        let mut scratch: Vec<u32> = Vec::new();
        for deps in lists {
            scratch.clear();
            scratch.extend_from_slice(deps);
            scratch.sort_unstable();
            scratch.dedup();
            requires.push(scratch.len() as u32);
            for &d in &scratch {
                offsets[d as usize + 1] += 1;
            }
            flat.extend_from_slice(&scratch);
        }
        for i in 0..n_cur {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n_cur].to_vec();
        let mut targets = vec![0u32; flat.len()];
        let mut rest = flat.as_slice();
        for (r, &extent) in requires.iter().enumerate() {
            let (deps, tail) = rest.split_at(extent as usize);
            for &d in deps {
                targets[cursor[d as usize] as usize] = r as u32;
                cursor[d as usize] += 1;
            }
            rest = tail;
        }
        CompositeMap {
            requires,
            offsets,
            targets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels() {
        assert_eq!(MappingKind::Universal.label(), "universal");
        assert!(MappingKind::Identity.easily_overlapped());
        assert!(!MappingKind::ReverseIndirect.easily_overlapped());
        assert!(MappingKind::Seam.overlappable());
        assert!(!MappingKind::Null.overlappable());
    }

    #[test]
    fn forward_composite_counts_duplicates() {
        // current granules 0..4 write successor granules [2, 2, 0, 1]
        let f = ForwardMap::new(vec![2, 2, 0, 1], 3);
        let c = CompositeMap::from_forward(&f);
        assert_eq!(c.requires, vec![1, 1, 2]);
        assert_eq!(c.dependents_of(0), &[2]);
        assert_eq!(c.dependents_of(1), &[2]);
        assert_eq!(c.dependents_of(2), &[0]);
        assert_eq!(c.dependents_of(3), &[1]);
        assert_eq!(c.entries(), 4);
    }

    #[test]
    fn forward_composite_partial_coverage() {
        // Only 2 current granules map; successor has 5 granules, 3 of which
        // have zero requirements (null-set enabled).
        let f = ForwardMap::new(vec![4, 0], 5);
        let c = CompositeMap::from_forward(&f);
        assert_eq!(c.requires, vec![1, 0, 0, 0, 1]);
        assert_eq!(c.requires.iter().filter(|&&x| x == 0).count(), 3);
        // current granules past the map enable nothing
        assert!(c.dependents_of(2).is_empty());
    }

    #[test]
    fn reverse_composite_dedups() {
        // successor 0 requires {1,1,2} -> {1,2}; successor 1 requires {0}
        let r = ReverseMap::new(vec![vec![1, 1, 2], vec![0]], 3);
        let c = CompositeMap::from_requirement_lists(&r.requires);
        assert_eq!(c.requires, vec![2, 1]);
        assert_eq!(c.dependents_of(0), &[1]);
        assert_eq!(c.dependents_of(1), &[0]);
        assert_eq!(c.dependents_of(2), &[0]);
    }

    #[test]
    fn decrement_simulation_releases_when_zero() {
        let r = ReverseMap::new(vec![vec![0, 1], vec![1, 2]], 3);
        let c = CompositeMap::from_requirement_lists(&r.requires);
        let mut counters = c.requires.clone();
        let mut released: Vec<u32> = Vec::new();
        for completed in [1u32, 0, 2] {
            for &dep in c.dependents_of(completed) {
                counters[dep as usize] -= 1;
                if counters[dep as usize] == 0 {
                    released.push(dep);
                }
            }
        }
        // successor 0 releases after {0,1} complete; successor 1 after {1,2}
        assert_eq!(released, vec![0, 1]);
    }

    #[test]
    fn enabling_granules_extraction() {
        let r = ReverseMap::new(vec![vec![5], vec![2, 5]], 8);
        let c = CompositeMap::from_requirement_lists(&r.requires);
        // The enabling set: current granules some successor granule needs.
        let enabling: Vec<u32> = (0..8).filter(|&i| !c.dependents_of(i).is_empty()).collect();
        assert_eq!(enabling, vec![2, 5]);
    }

    #[test]
    fn seam_composite() {
        // Two successor granules each requiring two bordering current ones.
        let s = EnablementMapping::Seam(Arc::new(ReverseMap::new(vec![vec![0, 1], vec![1, 2]], 3)));
        let c = s.composite().expect("an indirect mapping");
        assert_eq!(s.kind(), MappingKind::Seam);
        assert_eq!(c.requires, vec![2, 2]);
        assert_eq!(c.dependents_of(1), &[0, 1]);
    }

    #[test]
    fn clones_of_a_mapping_share_one_composite() {
        let f = Arc::new(ForwardMap::new(vec![0], 1));
        let m = EnablementMapping::ForwardIndirect(Arc::clone(&f));
        let first = m.composite().expect("an indirect mapping");
        assert_eq!(first.requires, vec![1]);
        assert!(Arc::ptr_eq(first, m.clone().composite().unwrap()));
        // A cloned payload is a new map: it builds its own.
        let copy = EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::clone(&f)));
        assert!(!Arc::ptr_eq(first, copy.composite().unwrap()));
        assert!(EnablementMapping::Identity.composite().is_none());
        assert!(EnablementMapping::Universal.composite().is_none());
        assert_eq!(EnablementMapping::Identity.kind(), MappingKind::Identity);
    }

    #[test]
    #[should_panic(expected = "out of successor range")]
    fn forward_map_validates() {
        let _ = ForwardMap::new(vec![3], 3);
    }

    #[test]
    #[should_panic(expected = "out of current-phase range")]
    fn reverse_map_validates() {
        let _ = ReverseMap::new(vec![vec![9]], 3);
    }
}
