//! Measurement instruments for simulation runs.
//!
//! * [`step`] — busy-processor step traces, utilization and rundown math.
//! * [`gantt`] — opt-in per-worker compute spans for invariant checking.
//! * [`export`] — step traces resampled onto a common grid as CSV.

pub mod export;
pub mod gantt;
pub mod step;

pub use export::step_traces_csv;
pub use gantt::{GanttTrace, Span};
pub use step::{LevelSweep, StepTrace};
