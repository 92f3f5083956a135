//! Fragmentation-heavy rundown workload: strided release order that
//! keeps the executive's granule-run sets maximally fragmented.
//!
//! The dense workloads (identity, universal) complete and release
//! granules almost in index order, so the executive's `RangeSet`s stay
//! at one or two runs and every merge is an O(1) hinted extend. Real
//! irregular phases are not so kind: when the enablement mapping scatters
//! releases across the index space, the released/completed sets shatter
//! into thousands of short runs and every merge becomes a *bridging or
//! disjoint insert into the middle of a fragmented run list* — the shape
//! the contiguous-Vec run storage is worst at (each such insert shifts
//! the whole tail).
//!
//! The workload here manufactures that shape deterministically. Phase
//! `frag-a` completes its granules in index order (constant costs); its
//! forward-indirect enablement map sends completion `g` to successor
//! granule [`interleaved_stripes`]`[g]` — all even-numbered stripes of
//! width `stripe` front to back, then all odd-numbered stripes. The
//! successor's *released* set therefore first accretes one disjoint run
//! per even stripe (half the stripe count), then every odd stripe is
//! carved into the middle: a disjoint mid-list insert, `stripe − 2`
//! hinted extends, and a bridging insert closing the gap — sustained,
//! front-to-back fragmentation churn for the whole second half of the
//! phase, on both the `released` and (as those granules execute in
//! release order) the `completed` set.
//!
//! Two things use the pattern today. [`stripe_churn_ranges`] is the
//! whole-stripe insert sequence the repo benchmark's `rangeset_churn`
//! layer kernel (`benchmark/src/layers.rs`) feeds straight to a
//! `RangeSet`. [`FragmentationConfig`] embeds the same order in a
//! two-phase program; the module's own test is its one runner, and it
//! sets `CompositeBuild::Immediate` because under the default background
//! build the decrements all defer until the composite map is ready, and
//! any releases before that point arrive as one coalesced batch instead
//! of the per-completion strided singletons this workload exists to
//! produce.

use pax_core::mapping::EnablementMapping;
use pax_core::mapping::ForwardMap;
use pax_core::phase::PhaseDef;
use pax_core::program::{EnableSpec, Program, ProgramBuilder};
use pax_sim::dist::CostModel;
use std::sync::Arc;

/// The strided release order: all even-numbered stripes of width
/// `stripe` in index order, then all odd-numbered stripes. A permutation
/// of `0..granules` (`stripe` < 1 is clamped to 1; the last stripe may
/// be short when `stripe` does not divide `granules`).
///
/// Inserting ranges into a `RangeSet` in this order holds the set at
/// ⌈stripes/2⌉ disjoint runs for the whole first half, then forces a
/// disjoint middle insert plus a bridging insert per odd stripe — the
/// adversarial pattern for contiguous run storage.
pub fn interleaved_stripes(granules: u32, stripe: u32) -> Vec<u32> {
    let stripe = stripe.max(1);
    let mut order = Vec::with_capacity(granules as usize);
    for parity in 0..2u32 {
        let mut lo = parity.saturating_mul(stripe);
        while lo < granules {
            let hi = lo.saturating_add(stripe).min(granules);
            order.extend(lo..hi);
            match lo.checked_add(2 * stripe) {
                Some(next) => lo = next,
                None => break,
            }
        }
    }
    order
}

/// The stripe-churn insert sequence as whole-stripe ranges: every
/// even-numbered stripe of width `stripe` front to back, then every
/// odd-numbered stripe (`stripe` < 1 clamps to 1; the last stripe may
/// be short). Feeding these ranges to `RangeSet::insert` makes each
/// odd-stripe insert bridge its two even neighbours after the set
/// peaked at ⌈stripes/2⌉ runs — the canonical adversarial pattern for
/// contiguous run storage. This is the single definition every churn
/// measurement drives, so they all use the identical insert sequence.
pub fn stripe_churn_ranges(granules: u32, stripe: u32) -> Vec<pax_core::ids::GranuleRange> {
    let stripe = stripe.max(1);
    let mut out = Vec::with_capacity(granules.div_ceil(stripe) as usize);
    for parity in 0..2u32 {
        let mut lo = parity.saturating_mul(stripe);
        while lo < granules {
            out.push(pax_core::ids::GranuleRange::new(
                lo,
                lo.saturating_add(stripe).min(granules),
            ));
            match lo.checked_add(2 * stripe) {
                Some(next) => lo = next,
                None => break,
            }
        }
    }
    out
}

/// Configuration of the fragmentation workload.
#[derive(Debug, Clone)]
pub struct FragmentationConfig {
    /// Granules per phase.
    pub granules: u32,
    /// Stripe width of the interleaved release order. Smaller stripes
    /// mean more simultaneous runs (⌈granules/stripe⌉/2 at peak).
    pub stripe: u32,
    /// Constant granule cost in ticks (constant costs keep the
    /// completion order equal to the dispatch order, which is what makes
    /// the fragmentation deterministic).
    pub cost: u64,
}

impl Default for FragmentationConfig {
    fn default() -> FragmentationConfig {
        FragmentationConfig {
            granules: 4096,
            stripe: 8,
            cost: 100,
        }
    }
}

impl FragmentationConfig {
    /// Build the two-phase program: `frag-a` enables `frag-b` through
    /// the strided forward map.
    pub fn build(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let cost = CostModel::constant(self.cost);
        let pa = b.phase(PhaseDef::new("frag-a", self.granules, cost.clone()));
        let pb = b.phase(PhaseDef::new("frag-b", self.granules, cost));
        let targets = interleaved_stripes(self.granules, self.stripe);
        b.dispatch_enable(
            pa,
            vec![EnableSpec {
                successor: pb,
                mapping: EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(
                    targets,
                    self.granules,
                ))),
            }],
        );
        b.dispatch(pb);
        b.build().expect("fragmentation program is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_core::prelude::*;
    use pax_sim::machine::MachineConfig;

    #[test]
    fn interleaved_stripes_is_a_permutation() {
        for (n, s) in [(64u32, 8u32), (100, 8), (17, 4), (5, 1), (9, 16), (256, 3)] {
            let mut order = interleaved_stripes(n, s);
            assert_eq!(order.len(), n as usize, "n={n} s={s}");
            order.sort_unstable();
            assert!(
                order.iter().enumerate().all(|(i, &g)| g == i as u32),
                "not a permutation for n={n} s={s}"
            );
        }
        // degenerate widths clamp to single-granule stripes (even
        // indices first, then odd) instead of panicking
        assert_eq!(interleaved_stripes(4, 0), vec![0, 2, 1, 3]);
    }

    #[test]
    fn stripe_order_interleaves_even_then_odd() {
        let order = interleaved_stripes(32, 8);
        assert_eq!(&order[0..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(&order[8..16], &[16, 17, 18, 19, 20, 21, 22, 23]);
        assert_eq!(&order[16..24], &[8, 9, 10, 11, 12, 13, 14, 15]);
        assert_eq!(&order[24..32], &[24, 25, 26, 27, 28, 29, 30, 31]);
    }

    #[test]
    fn stripe_inserts_hold_the_rangeset_fragmented() {
        // The workload's whole point: inserting single granules in this
        // order keeps the run list at ~stripes/2 runs for the first half
        // (every even stripe is its own run) before the odd stripes
        // bridge them back together.
        use pax_core::rangeset::RangeSet;
        let (n, stripe) = (1024u32, 8u32);
        let mut s = RangeSet::new();
        let mut peak = 0;
        for &g in &interleaved_stripes(n, stripe) {
            s.insert(GranuleRange::new(g, g + 1));
            peak = peak.max(s.run_count());
        }
        let stripes = n.div_ceil(stripe) as usize;
        assert!(
            peak >= stripes / 2,
            "peak fragmentation {peak} < {} runs",
            stripes / 2
        );
        assert_eq!(s.run_count(), 1, "odd stripes must bridge everything");
        assert_eq!(s.len(), u64::from(n));
    }

    #[test]
    fn stripe_churn_ranges_tile_the_index_space() {
        use pax_core::rangeset::RangeSet;
        for (n, s) in [(1024u32, 8u32), (100, 8), (17, 4), (5, 1)] {
            let ranges = stripe_churn_ranges(n, s);
            assert_eq!(ranges.len() as u32, n.div_ceil(s.max(1)), "n={n} s={s}");
            let mut set = RangeSet::new();
            let mut peak = 0;
            for &r in &ranges {
                set.insert(r);
                peak = peak.max(set.run_count());
            }
            assert_eq!(set.len(), u64::from(n), "must cover every granule");
            assert_eq!(set.run_count(), 1, "odd stripes must bridge everything");
            assert!(peak as u32 >= n.div_ceil(s.max(1)) / 2, "n={n} s={s}");
        }
    }

    #[test]
    fn workload_runs_and_overlaps() {
        // 500 granules on 8 processors leaves a 4-task final wave — the
        // rundown the strided releases overlap into.
        let program = FragmentationConfig {
            granules: 500,
            stripe: 8,
            cost: 20,
        }
        .build();
        let policy = OverlapPolicy::overlap()
            .with_sizing(TaskSizing::Fixed(1))
            .with_composite_build(CompositeBuild::Immediate);
        let mut sim = Simulation::new(MachineConfig::new(8), policy).with_seed(7);
        sim.add_job(program);
        let report = sim.run().expect("fragmentation workload deadlocked");
        assert_eq!(report.phases.len(), 2);
        for p in &report.phases {
            assert_eq!(p.stats.executed_granules, 500);
        }
        assert!(
            report.phases[1].stats.overlap_granules > 0,
            "strided release must still overlap the rundown"
        );
    }
}
