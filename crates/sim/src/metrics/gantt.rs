//! Per-processor execution traces (Gantt charts).
//!
//! Every dispatched task can be recorded as an interval on its worker's
//! timeline, labelled with the phase and granule range it executed. The
//! correctness tests use these traces to check the paper's overlap
//! invariant — no successor granule may start before its enabling
//! current-phase granules complete — and the examples render them as ASCII
//! charts.

use crate::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// What a worker was doing during one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Executing granules `lo..hi` of phase `phase` (phase ids are opaque
    /// here; `pax-core` assigns them).
    Compute {
        /// Phase (instance) identifier.
        phase: u32,
        /// First granule of the task.
        lo: u32,
        /// One past the last granule of the task.
        hi: u32,
    },
    /// Performing management work on behalf of the executive.
    Management,
    /// Waiting for the executive to service a request.
    ExecutiveWait,
}

/// One interval on a worker's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Worker index.
    pub worker: u32,
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// What was happening.
    pub activity: Activity,
}

impl Span {
    /// Interval length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
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

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Compute spans only, filtered to a given phase.
    pub fn compute_spans_of_phase(&self, phase: u32) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(move |s| matches!(s.activity, Activity::Compute { phase: p, .. } if p == phase))
    }

    /// Earliest start among compute spans of `phase`, if any.
    pub fn phase_first_start(&self, phase: u32) -> Option<SimTime> {
        self.compute_spans_of_phase(phase).map(|s| s.start).min()
    }

    /// Latest end among compute spans of `phase`, if any.
    pub fn phase_last_end(&self, phase: u32) -> Option<SimTime> {
        self.compute_spans_of_phase(phase).map(|s| s.end).max()
    }

    /// The completion time of granule `g` in phase `phase`: the end of the
    /// compute span covering it. `None` if it never ran.
    pub fn granule_completion(&self, phase: u32, g: u32) -> Option<SimTime> {
        self.compute_spans_of_phase(phase)
            .filter(|s| match s.activity {
                Activity::Compute { lo, hi, .. } => g >= lo && g < hi,
                _ => false,
            })
            .map(|s| s.end)
            .min()
    }

    /// The start time of granule `g` in phase `phase`.
    pub fn granule_start(&self, phase: u32, g: u32) -> Option<SimTime> {
        self.compute_spans_of_phase(phase)
            .filter(|s| match s.activity {
                Activity::Compute { lo, hi, .. } => g >= lo && g < hi,
                _ => false,
            })
            .map(|s| s.start)
            .min()
    }

    /// Render a coarse ASCII Gantt chart, `width` characters across,
    /// one row per worker. `#` = compute, `m` = management, `.` = waiting
    /// for executive, space = idle.
    pub fn render_ascii(&self, workers: usize, width: usize) -> String {
        let mut out = String::new();
        let end = self
            .spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        if end == SimTime::ZERO || width == 0 {
            return out;
        }
        let span_ticks = end.ticks().max(1);
        for w in 0..workers {
            let mut row = vec![' '; width];
            for s in self.spans.iter().filter(|s| s.worker == w as u32) {
                let a = (s.start.ticks() * width as u64 / span_ticks) as usize;
                let b = ((s.end.ticks() * width as u64).div_ceil(span_ticks) as usize).min(width);
                let ch = match s.activity {
                    Activity::Compute { .. } => '#',
                    Activity::Management => 'm',
                    Activity::ExecutiveWait => '.',
                };
                for c in row.iter_mut().take(b).skip(a) {
                    // compute wins over management wins over waiting
                    let rank = |x: char| match x {
                        '#' => 3,
                        'm' => 2,
                        '.' => 1,
                        _ => 0,
                    };
                    if rank(ch) > rank(*c) {
                        *c = ch;
                    }
                }
            }
            let _ = writeln!(out, "P{:02} |{}|", w, row.iter().collect::<String>());
        }
        out
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
            activity: Activity::Compute { phase, lo, hi },
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut g = GanttTrace::disabled();
        g.push(span(0, 0, 10, 0, 0, 1));
        assert!(g.spans().is_empty());
    }

    #[test]
    fn phase_bounds() {
        let mut g = GanttTrace::enabled();
        g.push(span(0, 5, 10, 1, 0, 4));
        g.push(span(1, 2, 8, 1, 4, 8));
        g.push(span(0, 12, 20, 2, 0, 4));
        assert_eq!(g.phase_first_start(1), Some(SimTime(2)));
        assert_eq!(g.phase_last_end(1), Some(SimTime(10)));
        assert_eq!(g.phase_first_start(2), Some(SimTime(12)));
        assert_eq!(g.phase_first_start(9), None);
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
    }

    #[test]
    fn ascii_rendering_has_one_row_per_worker() {
        let mut g = GanttTrace::enabled();
        g.push(span(0, 0, 50, 0, 0, 1));
        g.push(Span {
            worker: 1,
            start: SimTime(50),
            end: SimTime(100),
            activity: Activity::Management,
        });
        let art = g.render_ascii(2, 20);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('#'));
        assert!(lines[1].contains('m'));
    }
}
