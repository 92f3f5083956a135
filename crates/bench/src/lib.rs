//! # pax-bench — experiment harness for NASA TM-87349
//!
//! Every quantitative claim and illustrative construct in the paper has a
//! numbered experiment here (the TM has no numbered tables or figures;
//! this table is the index from claim to experiment id, one module each
//! under [`experiments`]):
//!
//! | id  | claim |
//! |-----|-------|
//! | E1  | the checkerboard rundown arithmetic: 1024²/1000 processors, 524 waves, 288 leftover, 712 idle |
//! | E2  | the PAX/CASPER enablement-mapping census: 27/41/18/9/5% of phases, 68% easily overlapped |
//! | E3  | rundown utilization profiles, barrier vs overlap, per mapping |
//! | E4  | the two-tasks-per-processor rule |
//! | E5  | the computation-to-management ratio ≈ 200; executive placement |
//! | E6  | the multi-job-stream alternative: fill raises utilization but stretches jobs |
//! | E7  | successor-splitting strategies: demand split vs presplit vs successor-splitting task |
//! | E8  | the reverse-indirect engineering judgment: composite-map cost vs rundown cost |
//! | E9  | phase overlap on real threads |
//! | E10 | the language construct round-trip: all four forms |
//! | E11 | retired: lateral worker-to-worker communication (its executor won no `benchmark/` row and was deleted) |
//! | E12 | (extension) the data-proximity work assignment algorithm |
//! | E13 | (extension) serial-executive saturation at scale |
//!
//! Run them all with `cargo run --release -p pax-bench --bin experiments`.
//! Host-time measurement lives elsewhere: the `benchmark/` workspace at
//! the root of the repo gives the end-to-end and per-layer numbers. What
//! a wider executive costs the host is not measured anywhere yet; E5 and
//! E13 report only what lanes buy the simulated machine.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
