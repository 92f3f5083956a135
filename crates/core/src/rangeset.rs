//! A set of granule indices kept as sorted, disjoint, coalesced ranges.
//!
//! The executive uses range sets to track which granules of a phase have
//! been *released* — given a description, running or done. The paper's
//! descriptions are "large, contiguous collections of granules ... split
//! apart as necessary ... and then merged back into single descriptions
//! when the work was completed"; the completed granules are the released
//! ones no live description covers, so the executive derives them where
//! it reads them instead of keeping a second set.
//!
//! Runs live in one contiguous sorted `Vec<(u32, u32)>`. In-order
//! release extends a run in place via the last-run hint; a bridging or
//! disjoint insert into a *fragmented* set shifts the tail with one
//! memmove.

use crate::ids::GranuleRange;

/// Sorted, disjoint, coalesced set of `u32` indices.
///
/// Carries a one-element **last-run hint**: the position of the run the
/// last [`RangeSet::insert`] merged into. Releases mostly arrive in index
/// order (an identity successor's released set is filled from its
/// predecessor's sorted live ranges), so the common insert extends that
/// same run — the hint turns the run search into an O(1) bounds check
/// plus an in-place extend. The hint is pure acceleration state: it never
/// changes results, and equality ignores it.
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    /// Half-open `[lo, hi)` pairs, sorted, non-overlapping, non-adjacent.
    runs: Vec<(u32, u32)>,
    /// Last-run hint: index into `runs` of the last merged run (stale
    /// values are safe: the fast path re-validates before use).
    hint: usize,
}

impl PartialEq for RangeSet {
    fn eq(&self, other: &RangeSet) -> bool {
        // The hint is not part of the value.
        self.runs == other.runs
    }
}

impl Eq for RangeSet {}

impl RangeSet {
    /// Empty set.
    #[inline]
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// Empty set with room for `cap` runs before reallocating.
    #[inline]
    pub fn with_capacity(cap: usize) -> RangeSet {
        RangeSet {
            runs: Vec::with_capacity(cap),
            hint: 0,
        }
    }

    /// Number of stored runs (for diagnostics; merging keeps this small).
    #[inline]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total number of indices covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.iter_runs().map(|r| r.len() as u64).sum()
    }

    /// True when the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Cursor over the stored runs starting at the first run with
    /// `hi > after` (runs have strictly increasing ends, so everything
    /// skipped can neither contain, merge with, nor intersect anything
    /// at or beyond `after`).
    fn runs_from(&self, after: u32) -> impl Iterator<Item = GranuleRange> + '_ {
        let start = self.runs.partition_point(|&(_, rhi)| rhi <= after);
        self.runs[start..]
            .iter()
            .map(|&(lo, hi)| GranuleRange::new(lo, hi))
    }

    /// True when `g` is in the set.
    #[inline]
    pub fn contains(&self, g: u32) -> bool {
        // First run ending after g contains it iff it starts at or
        // before g (earlier runs all end at or before g).
        self.runs_from(g).next().is_some_and(|r| r.lo <= g)
    }

    /// True when the whole range `[lo, hi)` is covered.
    #[inline]
    pub fn contains_range(&self, r: GranuleRange) -> bool {
        if r.is_empty() {
            return true;
        }
        self.runs_from(r.lo)
            .next()
            .is_some_and(|run| run.lo <= r.lo && run.hi >= r.hi)
    }

    /// Insert `[lo, hi)`, merging with any overlapping or adjacent runs.
    /// Inserting an already-covered or empty range is a no-op.
    pub fn insert(&mut self, r: GranuleRange) {
        if r.is_empty() {
            return;
        }
        // Last-run hint fast path: the common in-order insert touches only
        // the run merged into last time. Handled here when the insert
        // lands wholly inside it, or extends its tail without reaching the
        // next stored run — both cases absorb exactly that one run, so the
        // result is identical to the search below.
        if let Some(&(hlo, hhi)) = self.runs.get(self.hint) {
            if r.lo >= hlo && r.lo <= hhi {
                if r.hi <= hhi {
                    return;
                }
                let clear_of_next = match self.runs.get(self.hint + 1) {
                    Some(&(nlo, _)) => r.hi < nlo, // `==` would coalesce: slow path
                    None => true,
                };
                if clear_of_next {
                    self.runs[self.hint].1 = r.hi;
                    return;
                }
            }
        }
        let (mut lo, mut hi) = (r.lo, r.hi);
        // Find the first run whose end is >= lo (candidate for merging).
        let start = self.runs.partition_point(|&(_, rhi)| rhi < lo);
        let mut end = start;
        while end < self.runs.len() && self.runs[end].0 <= hi {
            lo = lo.min(self.runs[end].0);
            hi = hi.max(self.runs[end].1);
            end += 1;
        }
        let absorbed = end - start;
        if absorbed == 1 {
            // Extend one run in place — no element shifting, no splice
            // machinery.
            self.runs[start] = (lo, hi);
        } else if absorbed == 0 {
            // Disjoint insert: `Vec::insert` is already a reserve + one
            // memmove of the tail.
            self.runs.insert(start, (lo, hi));
        } else {
            // Bridging insert (≥2 runs coalesce): write the coalesced run
            // in place and batch-shift the tail left with one
            // `copy_within` (a single memmove), instead of `splice`'s
            // per-element drain/relocate machinery.
            self.runs[start] = (lo, hi);
            self.runs.copy_within(end.., start + 1);
            self.runs.truncate(self.runs.len() - (absorbed - 1));
        }
        self.hint = start;
    }

    /// Iterate the stored runs as `GranuleRange`s.
    #[inline]
    pub fn iter_runs(&self) -> impl Iterator<Item = GranuleRange> + '_ {
        // Every run ends above 0, so this cursor starts at the first run.
        self.runs_from(0)
    }

    /// Append the *gaps* (uncovered sub-ranges) inside the window
    /// `[win.lo, win.hi)` to `out` — the set-subtraction `win − self`,
    /// written into a caller-reused buffer so the steady-state release
    /// path never allocates. `out` is *not* cleared first.
    pub fn subtract_into(&self, win: GranuleRange, out: &mut Vec<GranuleRange>) {
        if win.is_empty() {
            return;
        }
        if self.is_empty() {
            // Empty-subtrahend fast path: nothing to subtract, the whole
            // window is one gap — skip the run positioning entirely.
            out.push(win);
            return;
        }
        let mut cursor = win.lo;
        for run in self.runs_from(win.lo) {
            if run.lo >= win.hi {
                break;
            }
            if run.lo > cursor {
                out.push(GranuleRange::new(cursor, run.lo.min(win.hi)));
            }
            cursor = cursor.max(run.hi);
            if cursor >= win.hi {
                break;
            }
        }
        if cursor < win.hi {
            out.push(GranuleRange::new(cursor, win.hi));
        }
    }

    /// Remove every stored run while keeping the allocation for reuse —
    /// the eviction path resets a completed instance's released set
    /// without returning its buffer to the allocator, so a recycled
    /// instance starts warm.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.hint = 0;
    }
}

/// Coalesce a sorted-or-unsorted list of granule indices into maximal
/// contiguous ranges, appended to `out` (which is *not* cleared). Used
/// when enablement counters release many successor granules in one
/// completion-processing step: the executive creates one description per
/// contiguous run rather than one per granule, and reuses both buffers
/// across events.
pub fn coalesce_indices_into(indices: &mut Vec<u32>, out: &mut Vec<GranuleRange>) {
    if indices.is_empty() {
        return;
    }
    indices.sort_unstable();
    indices.dedup();
    let mut lo = indices[0];
    let mut prev = indices[0];
    for &g in &indices[1..] {
        if g == prev + 1 {
            prev = g;
        } else {
            out.push(GranuleRange::new(lo, prev + 1));
            lo = g;
            prev = g;
        }
    }
    out.push(GranuleRange::new(lo, prev + 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: u32, hi: u32) -> GranuleRange {
        GranuleRange::new(lo, hi)
    }

    /// The stored run list.
    fn runs(s: &RangeSet) -> Vec<GranuleRange> {
        s.iter_runs().collect()
    }

    #[test]
    fn insert_and_contains() {
        let mut s = RangeSet::new();
        s.insert(r(5, 10));
        assert!(s.contains(5));
        assert!(s.contains(9));
        assert!(!s.contains(10));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn merges_adjacent() {
        let mut s = RangeSet::new();
        s.insert(r(0, 5));
        s.insert(r(5, 10));
        assert_eq!(s.run_count(), 1);
        assert!(s.contains_range(r(0, 10)));
    }

    #[test]
    fn merges_overlapping_and_bridging() {
        let mut s = RangeSet::new();
        s.insert(r(0, 3));
        s.insert(r(6, 9));
        s.insert(r(12, 15));
        assert_eq!(s.run_count(), 3);
        s.insert(r(2, 13)); // bridges all three
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.len(), 15);
    }

    #[test]
    fn out_of_order_inserts() {
        let mut s = RangeSet::new();
        s.insert(r(20, 30));
        s.insert(r(0, 5));
        s.insert(r(10, 12));
        assert_eq!(s.run_count(), 3);
        assert!(s.contains(25));
        assert!(s.contains(0));
        assert!(!s.contains(7));
    }

    #[test]
    fn contains_range_checks_full_coverage() {
        let mut s = RangeSet::new();
        s.insert(r(0, 5));
        s.insert(r(7, 10));
        assert!(s.contains_range(r(1, 4)));
        assert!(!s.contains_range(r(3, 8)));
        assert!(s.contains_range(r(7, 10)));
        assert!(s.contains_range(r(2, 2))); // empty range trivially covered
    }

    /// The gaps of `s` inside `win`, through [`RangeSet::subtract_into`].
    fn gaps(s: &RangeSet, win: GranuleRange) -> Vec<GranuleRange> {
        let mut out = Vec::new();
        s.subtract_into(win, &mut out);
        out
    }

    #[test]
    fn gaps_in_window() {
        let mut s = RangeSet::new();
        s.insert(r(2, 4));
        s.insert(r(6, 8));
        assert_eq!(gaps(&s, r(0, 10)), vec![r(0, 2), r(4, 6), r(8, 10)]);
        assert_eq!(gaps(&s, r(3, 7)), vec![r(4, 6)]);
        let mut full = RangeSet::new();
        full.insert(r(0, 10));
        assert!(gaps(&full, r(0, 10)).is_empty());
    }

    /// Runs [`coalesce_indices_into`] finds in `v`.
    fn coalesce(mut v: Vec<u32>) -> Vec<GranuleRange> {
        let mut runs = Vec::new();
        coalesce_indices_into(&mut v, &mut runs);
        runs
    }

    #[test]
    fn coalesce_runs() {
        let runs = coalesce(vec![5, 1, 2, 3, 9, 8, 20]);
        assert_eq!(runs, vec![r(1, 4), r(5, 6), r(8, 10), r(20, 21)]);
        assert!(coalesce(Vec::new()).is_empty());
    }

    #[test]
    fn coalesce_dedups() {
        assert_eq!(coalesce(vec![3, 3, 4, 4, 5]), vec![r(3, 6)]);
    }

    #[test]
    fn insert_merges_into_stored_runs() {
        let mut s = RangeSet::new();
        s.insert(r(5, 10));
        assert_eq!(runs(&s), vec![r(5, 10)]);

        // extend one run in place
        s.insert(r(10, 12));
        assert_eq!(runs(&s), vec![r(5, 12)]);

        // bridge two runs
        s.insert(r(20, 25));
        assert_eq!(runs(&s), vec![r(5, 12), r(20, 25)]);
        s.insert(r(12, 20));
        assert_eq!(runs(&s), vec![r(5, 25)]);

        // already covered: nothing changes
        s.insert(r(6, 7));
        assert_eq!(runs(&s), vec![r(5, 25)]);
    }

    #[test]
    fn wide_bridging_insert_batch_shifts_the_tail() {
        // Exercise the wide-absorption path: one insert absorbing many
        // runs with a long surviving tail behind them (`copy_within`).
        let mut s = RangeSet::new();
        for k in 0..100u32 {
            s.insert(r(k * 10, k * 10 + 4));
        }
        assert_eq!(s.run_count(), 100);
        s.insert(r(100, 196));
        assert_eq!(s.run_count(), 91);
        // head, merged middle, and shifted tail all intact
        assert!(s.contains_range(r(90, 94)));
        assert!(s.contains_range(r(100, 196)));
        assert!(!s.contains(196));
        for k in 20..100u32 {
            assert!(s.contains_range(r(k * 10, k * 10 + 4)), "tail run {k}");
            assert!(!s.contains(k * 10 + 4));
        }
        assert_eq!(s.len(), 400 + 56);
    }

    #[test]
    fn subtract_into_appends_without_clearing() {
        let mut s = RangeSet::new();
        s.insert(r(2, 4));
        let mut out = vec![r(0, 1)];
        s.subtract_into(r(0, 6), &mut out);
        assert_eq!(out, vec![r(0, 1), r(0, 2), r(4, 6)]);
    }

    #[test]
    fn subtract_into_empty_set_fast_path() {
        // Empty subtrahend: the whole window is one gap, appended without
        // disturbing what the caller already accumulated in the scratch
        // buffer...
        let s = RangeSet::new();
        let mut out = vec![r(90, 95)];
        s.subtract_into(r(10, 20), &mut out);
        assert_eq!(out, vec![r(90, 95), r(10, 20)]);
        // ...and an empty window leaves the buffer untouched entirely,
        // for empty and non-empty sets alike.
        let mut untouched = vec![r(1, 2)];
        s.subtract_into(r(5, 5), &mut untouched);
        assert_eq!(untouched, vec![r(1, 2)]);
        let mut s2 = RangeSet::new();
        s2.insert(r(0, 4));
        s2.subtract_into(r(7, 7), &mut untouched);
        assert_eq!(untouched, vec![r(1, 2)]);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let s = RangeSet::with_capacity(16);
        assert!(s.is_empty());
        assert_eq!(s.run_count(), 0);
    }

    #[test]
    fn hint_fast_path_in_order_extends() {
        // The identity-rundown pattern: strictly in-order single-granule
        // completions. Every insert after the first must hit the hint.
        let mut s = RangeSet::new();
        for g in 0..1000u32 {
            s.insert(r(g, g + 1));
            assert_eq!(runs(&s), vec![r(0, g + 1)]);
        }
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn hint_does_not_break_bridging_insert() {
        let mut s = RangeSet::new();
        s.insert(r(0, 5)); // hint -> run 0
        s.insert(r(10, 15)); // hint -> run 1
        s.insert(r(4, 6)); // behind the hinted run: slow path
        assert_eq!(s.run_count(), 2);
        assert!(s.contains_range(r(0, 6)));
        // adjacent-to-next must coalesce, not stop at the hint run
        let mut t = RangeSet::new();
        t.insert(r(0, 5));
        t.insert(r(5, 10)); // hint on the merged run
        t.insert(r(12, 20));
        t.insert(r(10, 12)); // extends hint run right up to next
        assert_eq!(runs(&t), vec![r(0, 20)]);
    }

    #[test]
    fn hint_is_not_part_of_equality() {
        let mut a = RangeSet::new();
        a.insert(r(0, 5));
        a.insert(r(10, 15));
        let mut b = RangeSet::new();
        b.insert(r(10, 15));
        b.insert(r(0, 5));
        assert_eq!(a, b, "same runs, different hint history");
        b.insert(r(20, 21));
        assert_ne!(a, b, "different coverage must not compare equal");
    }

    #[test]
    fn hint_survives_interleaved_queries() {
        // Mixed access: inserts out of order, with covered/stale hints.
        let mut s = RangeSet::new();
        s.insert(r(50, 60));
        s.insert(r(0, 10));
        s.insert(r(55, 58)); // inside the now-shifted run
        assert_eq!(runs(&s), vec![r(0, 10), r(50, 60)]);
        s.insert(r(20, 30));
        s.insert(r(25, 35)); // extend middle run
        assert_eq!(runs(&s), vec![r(0, 10), r(20, 35), r(50, 60)]);
    }

    #[test]
    fn clear_empties_and_reuses() {
        let mut s = RangeSet::new();
        for k in 0..40u32 {
            s.insert(r(k * 10, k * 10 + 4));
        }
        assert_eq!(s.run_count(), 40);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.run_count(), 0);
        assert_eq!(s.len(), 0);
        assert_eq!(gaps(&s, r(0, 50)), vec![r(0, 50)]);
        // a cleared set behaves like a fresh one
        s.insert(r(5, 9));
        s.insert(r(9, 12));
        assert_eq!(s.run_count(), 1);
        assert!(s.contains_range(r(5, 12)));
        assert!(!s.contains(12));
    }
}
