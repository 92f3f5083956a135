//! Plain-text export of step traces (CSV), so experiment output can be
//! plotted externally without adding serialization dependencies.

use crate::metrics::step::StepTrace;
use crate::time::SimTime;
use std::fmt::Write as _;

/// Render one or more step traces resampled onto a common time grid:
/// `time,<name1>,<name2>,…`. Useful for barrier-vs-overlap figure data.
pub fn step_traces_csv(
    traces: &[(&str, &StepTrace)],
    from: SimTime,
    to: SimTime,
    samples: usize,
) -> String {
    let mut out = String::from("time");
    for (name, _) in traces {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    if samples == 0 || to <= from {
        return out;
    }
    let span = (to - from).ticks();
    let denom = (samples.max(2) - 1) as u64;
    for i in 0..samples {
        let t = SimTime(from.ticks() + span * i as u64 / denom);
        let _ = write!(out, "{}", t.ticks());
        for (_, tr) in traces {
            let _ = write!(out, ",{}", tr.value_at(t));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_trace_csv_resamples() {
        let mut a = StepTrace::new();
        a.record(SimTime(0), 4);
        a.record(SimTime(100), 0);
        let mut b = StepTrace::new();
        b.record(SimTime(0), 2);
        let csv = step_traces_csv(
            &[("strict", &a), ("overlap", &b)],
            SimTime(0),
            SimTime(100),
            3,
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,strict,overlap");
        assert_eq!(lines[1], "0,4,2");
        assert_eq!(lines[2], "50,4,2");
        assert_eq!(lines[3], "100,0,2");
    }

    #[test]
    fn empty_inputs() {
        let csv = step_traces_csv(&[], SimTime(0), SimTime(0), 0);
        assert_eq!(csv, "time\n");
    }
}
