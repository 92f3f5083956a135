//! The stripe-churn insert sequence: the order that keeps a granule-run
//! set maximally fragmented.
//!
//! The dense workloads (identity, universal) release granules almost in
//! index order, so the executive's `RangeSet`s stay at one or two runs
//! and every merge is an O(1) hinted extend. Real
//! irregular phases are not so kind: when the enablement mapping scatters
//! releases across the index space, the released sets shatter into
//! thousands of short runs and every merge becomes a *bridging or
//! disjoint insert into the middle of a fragmented run list* — the shape
//! the contiguous-Vec run storage is worst at (each such insert shifts
//! the whole tail).
//!
//! [`stripe_churn_ranges`] manufactures that shape deterministically, and
//! the repo benchmark's `rangeset_churn` layer kernel
//! (`benchmark/src/layers.rs`) feeds it straight to a `RangeSet`: every
//! even-numbered stripe front to back first, so the set accretes one
//! disjoint run per even stripe, then every odd stripe, each carved into
//! the middle as a bridging insert.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
