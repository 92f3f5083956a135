//! Measurement instruments for simulation runs.
//!
//! * [`step`] — busy-processor step traces, utilization and rundown math.
//! * [`gantt`] — per-worker interval traces for invariant checking and
//!   ASCII charts.
//! * [`stats`] — Welford accumulators, percentiles, histograms.

pub mod export;
pub mod gantt;
pub mod stats;
pub mod step;

pub use export::{gantt_csv, step_trace_csv, step_traces_csv};
pub use gantt::{Activity, GanttTrace, Span};
pub use stats::{percentile, Histogram, Welford};
pub use step::{LevelSweep, StepTrace};
