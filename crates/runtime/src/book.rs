//! The enablement book — what a completion releases, and when.
//!
//! The real-thread executor applies the paper's rundown remedy: a
//! completed task *releases* successor granules through the phase's
//! enablement mapping (identity ranges, composite-map counters, nothing
//! before a barrier), with one phase of lookahead. That decision lives
//! here, apart from the threads: [`crate::executor`] owns the queue and
//! hands the book a sink, and the sink is all the book knows of it, so the
//! release logic is checked thread-free by this module's tests.
//!
//! The book takes no lock of its own: the executor keeps it behind the
//! mutex it already has.

use crate::executor::{RtPhase, RtPhaseReport, RuntimeConfig};
use pax_core::ids::GranuleRange;
use pax_core::mapping::{CompositeMap, MappingKind};
use pax_core::rangeset::coalesce_indices_into;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// A contiguous granule range of one phase, at most one task size long.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    pub(crate) phase: usize,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// What a granule's work panicked with.
pub(crate) type Panic = Box<dyn Any + Send>;

impl Task {
    /// Run the task's granules. A granule that panics ends the task there
    /// and its payload comes back: the task never completes, so the
    /// executor stops every worker and re-raises the payload on the
    /// caller rather than wait for a chain that cannot finish.
    pub(crate) fn run(self, specs: &[RtPhase]) -> Result<(), Panic> {
        let work = &*specs[self.phase].work;
        catch_unwind(AssertUnwindSafe(|| (self.lo..self.hi).for_each(work)))
    }
}

struct Phase {
    granules: u32,
    /// How the predecessor enables this phase (`Null` for phase 0).
    enabled_by: MappingKind,
    remaining: u32,
    /// The composite map of an indirect mapping into this phase, shared
    /// with the mapping, and this chain's enablement counters.
    composite: Option<Arc<CompositeMap>>,
    counters: Vec<u32>,
    /// Identity releases that fired while this phase was still outside
    /// the lookahead window; flushed at window entry. Without this buffer
    /// a ≥3-phase identity chain loses releases and deadlocks.
    deferred: Vec<GranuleRange>,
    first_start: Option<Instant>,
    last_end: Option<Instant>,
    overlap_granules: u64,
}

/// Release state of a phase chain.
pub(crate) struct PhaseBook {
    phases: Vec<Phase>,
    /// Lowest incomplete phase.
    current: usize,
    overlap: bool,
    task_granules: u32,
}

impl PhaseBook {
    /// The book of a chain, nothing released yet: each indirect edge's
    /// composite map taken from its mapping and its counters armed. Refuses, before any thread
    /// starts, a chain with a phase of no granules, which never completes,
    /// or with an edge whose mapping does not fit its phases
    /// ([`check_edge`](pax_core::mapping::EnablementMapping::check_edge)):
    /// unchecked, a granule could be left unreleased for ever or released
    /// twice. Refuses too the config values `RuntimeConfig`'s public fields
    /// let past its constructor ([`RuntimeConfig::check`]).
    pub(crate) fn new(specs: &[RtPhase], cfg: &RuntimeConfig) -> PhaseBook {
        assert!(!specs.is_empty(), "need at least one phase");
        cfg.check();
        let phases = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                assert!(
                    spec.granules > 0,
                    "phase {i} `{}` has no granules",
                    spec.name
                );
                let (enabled_by, composite) = match i.checked_sub(1).map(|p| &specs[p]) {
                    None => (MappingKind::Null, None),
                    Some(pred) => {
                        let m = &pred.mapping_to_next;
                        if let Err(e) = m.check_edge(pred.granules, spec.granules) {
                            panic!("phase {} `{}` into `{}`: {e}", i - 1, pred.name, spec.name);
                        }
                        (m.kind(), m.composite().cloned())
                    }
                };
                Phase {
                    granules: spec.granules,
                    remaining: spec.granules,
                    counters: composite
                        .as_ref()
                        .map_or(Vec::new(), |c| c.requires.clone()),
                    enabled_by,
                    composite,
                    deferred: Vec::new(),
                    first_start: None,
                    last_end: None,
                    overlap_granules: 0,
                }
            })
            .collect();
        PhaseBook {
            phases,
            current: 0,
            overlap: cfg.overlap,
            task_granules: cfg.task_granules,
        }
    }

    /// Every phase has completed.
    pub(crate) fn done(&self) -> bool {
        self.current >= self.phases.len()
    }

    /// Release the first phase and open the window on the second.
    pub(crate) fn start(&mut self, release: &mut impl FnMut(Task)) {
        self.release_all(0, release);
        self.on_window_entry(1, release);
    }

    /// A worker is about to run `t`.
    pub(crate) fn on_task_start(&mut self, t: Task, now: Instant) {
        let overlapped = t.phase > self.current;
        let ph = &mut self.phases[t.phase];
        ph.first_start.get_or_insert(now);
        if overlapped {
            ph.overlap_granules += (t.hi - t.lo) as u64;
        }
    }

    /// Completion processing for one task: release what it enables and,
    /// if it ends the current phase, advance. True once the chain is done.
    pub(crate) fn complete(
        &mut self,
        t: Task,
        now: Instant,
        release: &mut impl FnMut(Task),
    ) -> bool {
        let step = self.task_granules;
        let ph = &mut self.phases[t.phase];
        ph.remaining -= t.hi - t.lo;
        ph.last_end = Some(now);
        let phase_done = ph.remaining == 0;

        // Enablement into the successor. A task of the *overlapped*
        // successor (t.phase == current + 1) enables granules of phase
        // current + 2, which is still outside the lookahead window: those
        // releases are deferred (identity) or left as zeroed counters
        // (counted) and flushed at window entry — dropping them would
        // deadlock chains of three or more overlappable phases.
        let succ = t.phase + 1;
        if self.overlap && succ < self.phases.len() {
            let in_window = succ == self.current + 1;
            let Phase {
                enabled_by,
                composite,
                counters,
                deferred,
                ..
            } = &mut self.phases[succ];
            match (*enabled_by, composite) {
                (MappingKind::Identity, _) if in_window => chunk(step, succ, t.lo, t.hi, release),
                (MappingKind::Identity, _) => deferred.push(GranuleRange::new(t.lo, t.hi)),
                (_, Some(comp)) => {
                    let mut freed: Vec<u32> = Vec::new();
                    for g in t.lo..t.hi {
                        for &r in comp.dependents_of(g) {
                            let c = &mut counters[r as usize];
                            *c -= 1;
                            if *c == 0 {
                                freed.push(r);
                            }
                        }
                    }
                    if in_window {
                        let mut runs = Vec::new();
                        coalesce_indices_into(&mut freed, &mut runs);
                        for r in runs {
                            chunk(step, succ, r.lo, r.hi, release);
                        }
                    }
                }
                _ => {}
            }
        }

        if phase_done && t.phase == self.current {
            // advance over any already-finished phases
            while !self.done() && self.phases[self.current].remaining == 0 {
                self.current += 1;
                let cur = self.current;
                let Some(ph) = self.phases.get(cur) else {
                    break;
                };
                // Residual release of the new current phase: everything,
                // if nothing could be released before this barrier. In
                // overlap mode a universal phase was released whole at
                // window entry, and an identity or counted one granule by
                // granule — its predecessor is complete, so every release
                // has fired, in the window or flushed on entering it.
                if !self.overlap || ph.enabled_by == MappingKind::Null {
                    self.release_all(cur, release);
                }
                // the next phase enters the lookahead window
                self.on_window_entry(cur + 1, release);
            }
        }
        self.done()
    }

    /// Per-phase timings relative to `t0`, named after `specs`.
    pub(crate) fn phase_reports(&self, specs: &[RtPhase], t0: Instant) -> Vec<RtPhaseReport> {
        specs
            .iter()
            .zip(&self.phases)
            .map(|(spec, ph)| RtPhaseReport {
                name: spec.name.clone(),
                first_start: ph.first_start.map(|t| t.duration_since(t0)),
                last_end: ph.last_end.map(|t| t.duration_since(t0)),
                overlap_granules: ph.overlap_granules,
            })
            .collect()
    }

    /// Release all granules of `phase`. Each phase gets here at most
    /// once: at `start`, at window entry (universal, overlap mode) or on
    /// becoming current (barrier, strict mode).
    fn release_all(&mut self, phase: usize, release: &mut impl FnMut(Task)) {
        let granules = self.phases[phase].granules;
        chunk(self.task_granules, phase, 0, granules, release);
    }

    /// `phase` enters the lookahead window (its predecessor became
    /// current): release what was enabled while it was outside.
    fn on_window_entry(&mut self, phase: usize, release: &mut impl FnMut(Task)) {
        if phase >= self.phases.len() || !self.overlap {
            return;
        }
        let ph = &mut self.phases[phase];
        let runs = match ph.enabled_by {
            MappingKind::Universal => return self.release_all(phase, release),
            MappingKind::Identity => std::mem::take(&mut ph.deferred),
            MappingKind::Null => return,
            // indirect: null-set-enabled granules, and those whose
            // counters reached zero while the phase was outside the window
            MappingKind::ForwardIndirect | MappingKind::ReverseIndirect | MappingKind::Seam => {
                let mut zeroed: Vec<u32> = (0..ph.granules)
                    .filter(|&g| ph.counters[g as usize] == 0)
                    .collect();
                let mut runs = Vec::new();
                coalesce_indices_into(&mut zeroed, &mut runs);
                runs
            }
        };
        for r in runs {
            chunk(self.task_granules, phase, r.lo, r.hi, release);
        }
    }
}

/// Hand `lo..hi` of `phase` to the caller's queue as task-sized chunks.
fn chunk(step: u32, phase: usize, lo: u32, hi: u32, release: &mut impl FnMut(Task)) {
    let mut a = lo;
    while a < hi {
        let b = a.saturating_add(step).min(hi);
        release(Task {
            phase,
            lo: a,
            hi: b,
        });
        a = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_core::mapping::{EnablementMapping, ForwardMap, ReverseMap};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..below`.
    fn draw(state: &mut u64, below: u32) -> u32 {
        (splitmix(state) % below as u64) as u32
    }

    /// Per-successor requirement lists of fan-in 0 (enabled by the null
    /// set) to 3.
    fn lists(state: &mut u64, granules: u32) -> Vec<Vec<u32>> {
        (0..granules)
            .map(|_| (0..draw(state, 4)).map(|_| draw(state, granules)).collect())
            .collect()
    }

    /// The sink of a thread-free run: queues what the book releases and
    /// checks each granule against what has finished so far.
    struct Recorder {
        edges: Vec<EnablementMapping>,
        overlap: bool,
        task_granules: u32,
        finished: Vec<Vec<bool>>,
        releases: Vec<Vec<u32>>,
        ready: Vec<Task>,
        fault: Option<String>,
    }

    impl Recorder {
        fn release(&mut self, t: Task) {
            let complete = |q: usize| self.finished[q].iter().all(|&f| f);
            let fits = t.lo < t.hi && t.hi - t.lo <= self.task_granules;
            // one phase of lookahead, whatever the mapping
            let in_window = (0..t.phase.saturating_sub(1)).all(complete);
            let enabled = |g: usize| match (t.phase, self.overlap) {
                (0, _) => true,
                (p, false) => complete(p - 1),
                (p, true) => {
                    let done = &self.finished[p - 1];
                    let all = |deps: &[u32]| deps.iter().all(|&d| done[d as usize]);
                    match &self.edges[p - 1] {
                        EnablementMapping::Null => complete(p - 1),
                        EnablementMapping::Universal => true,
                        EnablementMapping::Identity => done[g],
                        EnablementMapping::ReverseIndirect(r) | EnablementMapping::Seam(r) => {
                            all(&r.requires[g])
                        }
                        // every writer of `g`, duplicates included
                        EnablementMapping::ForwardIndirect(f) => f
                            .targets
                            .iter()
                            .zip(done)
                            .all(|(&r, &d)| r as usize != g || d),
                    }
                }
            };
            if !(fits && in_window && (t.lo..t.hi).all(|g| enabled(g as usize))) {
                self.fault
                    .get_or_insert(format!("{t:?} released early or mis-sized"));
            }
            for g in t.lo..t.hi {
                self.releases[t.phase][g as usize] += 1;
            }
            self.ready.push(t);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The book alone, no threads: under any chain and any completion
        /// order every granule is released exactly once and never before
        /// the completions its mapping requires.
        #[test]
        fn every_granule_is_released_once_and_never_early(
            granules in 8u32..61,
            nphases in 2usize..6,
            mappings in proptest::collection::vec(0u8..6, 4),
            task_granules in 1u32..9,
            overlap in proptest::bool::ANY,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = seed;
            let edges: Vec<EnablementMapping> = (0..nphases - 1)
                .map(|i| match mappings[i] {
                    0 => EnablementMapping::Null,
                    1 => EnablementMapping::Universal,
                    2 => EnablementMapping::Identity,
                    3 => {
                        let map = ReverseMap::new(lists(&mut rng, granules), granules);
                        EnablementMapping::ReverseIndirect(Arc::new(map))
                    }
                    4 => {
                        let map = ReverseMap::new(lists(&mut rng, granules), granules);
                        EnablementMapping::Seam(Arc::new(map))
                    }
                    _ => {
                        // `granules` writers into `granules - 1` targets: some
                        // successor has two writers, and the last has none
                        let targets = (0..granules).map(|_| draw(&mut rng, granules - 1));
                        let map = ForwardMap::new(targets.collect(), granules);
                        EnablementMapping::ForwardIndirect(Arc::new(map))
                    }
                })
                .collect();
            let specs: Vec<RtPhase> = (0..nphases)
                .map(|i| {
                    let p = RtPhase::new(format!("p{i}"), granules, Arc::new(|_| {}));
                    match edges.get(i) {
                        Some(m) => p.with_mapping(m.clone()),
                        None => p,
                    }
                })
                .collect();
            let mut cfg = RuntimeConfig::new(1, task_granules);
            cfg.overlap = overlap;
            let mut book = PhaseBook::new(&specs, &cfg);
            let mut rec = Recorder {
                edges,
                overlap,
                task_granules,
                finished: vec![vec![false; granules as usize]; nphases],
                releases: vec![vec![0; granules as usize]; nphases],
                ready: Vec::new(),
                fault: None,
            };

            let now = Instant::now();
            let total = granules * nphases as u32;
            let (mut run, mut done) = (0, false);
            book.start(&mut |t| rec.release(t));
            while !rec.ready.is_empty() {
                let pick = draw(&mut rng, rec.ready.len() as u32) as usize;
                let t = rec.ready.swap_remove(pick);
                book.on_task_start(t, now);
                for g in t.lo..t.hi {
                    rec.finished[t.phase][g as usize] = true;
                }
                run += t.hi - t.lo;
                let current = book.current;
                done = book.complete(t, now, &mut |t| rec.release(t));
                prop_assert!(book.current >= current, "`current` went backwards");
                prop_assert_eq!(done, run == total, "`complete` after {} of {}", run, total);
                prop_assert_eq!(done, book.done());
            }
            prop_assert!(rec.fault.is_none(), "{}", rec.fault.unwrap());
            prop_assert!(done, "stalled with {} of {} granules run", run, total);
            for (p, phase) in rec.releases.iter().enumerate() {
                for (g, &n) in phase.iter().enumerate() {
                    prop_assert_eq!(n, 1, "phase {} granule {}", p, g);
                }
            }
            if !overlap {
                let reports = book.phase_reports(&specs, now);
                prop_assert!(reports.iter().all(|r| r.overlap_granules == 0));
            }
        }
    }
}
