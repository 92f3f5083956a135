//! Per-processor compute spans (Gantt charts).
//!
//! Every dispatched task can be recorded as an interval on its worker's
//! timeline, labelled with the phase and granule range it executed. The
//! correctness tests use these traces to check the paper's overlap
//! invariant — no successor granule may start before its enabling
//! current-phase granules complete. A task a crash preempts is taken
//! back out ([`GanttTrace::retract_last`]), so the spans sum to useful
//! compute.

use crate::time::{SimDuration, SimTime};

/// Granules `lo..hi` of phase `phase` executing on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Worker index.
    pub worker: u32,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Phase (instance) identifier (opaque here; `pax-core` assigns it).
    pub phase: u32,
    /// First granule of the task.
    pub lo: u32,
    /// One past the last granule of the task.
    pub hi: u32,
}

impl Span {
    /// Interval length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    fn covers(&self, phase: u32, g: u32) -> bool {
        self.phase == phase && g >= self.lo && g < self.hi
    }
}

/// Collected spans for a whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GanttTrace {
    spans: Vec<Span>,
    enabled: bool,
}

impl GanttTrace {
    /// A trace that records nothing (zero overhead beyond the branch).
    pub fn disabled() -> GanttTrace {
        GanttTrace {
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// A recording trace.
    pub fn enabled() -> GanttTrace {
        GanttTrace {
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// Whether spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one interval (no-op when disabled).
    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            debug_assert!(span.start <= span.end);
            self.spans.push(span);
        }
    }

    /// Remove the span recorded last for `worker` — its task never
    /// finished (a crash preempted it). No-op when disabled or when the
    /// worker has no span.
    pub fn retract_last(&mut self, worker: u32) {
        if let Some(i) = self.spans.iter().rposition(|s| s.worker == worker) {
            self.spans.remove(i);
        }
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The completion time of granule `g` in phase `phase`: the end of the
    /// compute span covering it. `None` if it never ran.
    pub fn granule_completion(&self, phase: u32, g: u32) -> Option<SimTime> {
        self.spans
            .iter()
            .filter(|s| s.covers(phase, g))
            .map(|s| s.end)
            .min()
    }

    /// The start time of granule `g` in phase `phase`.
    pub fn granule_start(&self, phase: u32, g: u32) -> Option<SimTime> {
        self.spans
            .iter()
            .filter(|s| s.covers(phase, g))
            .map(|s| s.start)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(worker: u32, start: u64, end: u64, phase: u32, lo: u32, hi: u32) -> Span {
        Span {
            worker,
            start: SimTime(start),
            end: SimTime(end),
            phase,
            lo,
            hi,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut g = GanttTrace::disabled();
        g.push(span(0, 0, 10, 0, 0, 1));
        assert!(g.spans().is_empty());
    }

    #[test]
    fn granule_lookup() {
        let mut g = GanttTrace::enabled();
        g.push(span(0, 0, 10, 0, 0, 5));
        g.push(span(1, 3, 9, 0, 5, 10));
        assert_eq!(g.granule_completion(0, 2), Some(SimTime(10)));
        assert_eq!(g.granule_completion(0, 7), Some(SimTime(9)));
        assert_eq!(g.granule_start(0, 7), Some(SimTime(3)));
        assert_eq!(g.granule_completion(0, 99), None);
        assert_eq!(g.granule_completion(1, 2), None);
    }

    #[test]
    fn retract_last_removes_only_that_workers_latest_span() {
        let mut g = GanttTrace::enabled();
        g.push(span(0, 0, 10, 0, 0, 5));
        g.push(span(1, 0, 12, 0, 5, 10));
        g.push(span(0, 10, 20, 0, 10, 15));
        g.retract_last(0);
        assert_eq!(
            g.spans(),
            &[span(0, 0, 10, 0, 0, 5), span(1, 0, 12, 0, 5, 10)]
        );
        assert_eq!(g.granule_completion(0, 12), None);
        g.retract_last(7);
        assert_eq!(g.spans().len(), 2);
    }
}
