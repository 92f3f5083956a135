//! Phase definitions and per-dispatch statistics.

use pax_sim::dist::CostModel;
use pax_sim::time::{SimDuration, SimTime};

/// Static description of one parallel computational phase.
#[derive(Debug, Clone)]
pub struct PhaseDef {
    /// Human-readable name (used by the language layer and reports).
    pub name: String,
    /// Number of granules dispatched per execution of this phase.
    pub granules: u32,
    /// Per-granule execution cost model.
    pub cost: CostModel,
    /// Lines of parallel code this phase represents — the census weight
    /// used to reproduce the paper's percentage-of-code statistics.
    pub lines: u32,
    /// Names of secondary-resource pools
    /// ([`ResourcePool`](pax_sim::machine::ResourcePool)) a task of this
    /// phase must hold one token from for its whole execution. Empty (the
    /// default) means the task needs only a processor. Names are resolved
    /// against `MachineConfig::resources` at session build; an unknown
    /// name is a structured engine error, not a panic.
    pub requires: Vec<String>,
}

impl PhaseDef {
    /// A phase with the given name, granule count, and cost model.
    pub fn new(name: impl Into<String>, granules: u32, cost: CostModel) -> PhaseDef {
        assert!(granules > 0, "phase must have at least one granule");
        PhaseDef {
            name: name.into(),
            granules,
            cost,
            lines: 0,
            requires: Vec::new(),
        }
    }

    /// Attach a census line weight.
    pub fn with_lines(mut self, lines: u32) -> PhaseDef {
        self.lines = lines;
        self
    }

    /// Require one token from each named secondary-resource pool for
    /// every task of this phase.
    pub fn with_requires(mut self, pools: Vec<String>) -> PhaseDef {
        self.requires = pools;
        self
    }
}

/// Timing and overlap statistics for one phase instance (one dispatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// When the instance was initiated (descriptors created / gates set).
    /// Under overlap this precedes `current_at`.
    pub initiated_at: SimTime,
    /// When the instance became the current phase (its predecessor
    /// completed, or program start).
    pub current_at: SimTime,
    /// First compute start of any of its granules.
    pub first_start: Option<SimTime>,
    /// Completion of its last granule.
    pub completed_at: Option<SimTime>,
    /// Granules of this instance that *completed* before the predecessor
    /// instance completed — the overlap the paper is after.
    pub overlap_granules: u32,
    /// Granules executed in total (== def granules when complete).
    pub executed_granules: u32,
    /// Serial time spent before this phase could be dispatched
    /// (the null-mapping "serial actions and decisions").
    pub serial_gap: SimDuration,
}

impl PhaseStats {
    /// Fresh statistics at initiation time `at`.
    pub fn new(at: SimTime) -> PhaseStats {
        PhaseStats {
            initiated_at: at,
            current_at: at,
            first_start: None,
            completed_at: None,
            overlap_granules: 0,
            executed_granules: 0,
            serial_gap: SimDuration::ZERO,
        }
    }

    /// Wall-clock span from becoming current to completion, if complete.
    pub fn span(&self) -> Option<SimDuration> {
        self.completed_at.map(|end| end.since(self.current_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_sim::dist::CostModel;

    #[test]
    fn def_builder() {
        let p = PhaseDef::new("sweep", 64, CostModel::constant(10)).with_lines(37);
        assert_eq!(p.name, "sweep");
        assert_eq!(p.granules, 64);
        assert_eq!(p.lines, 37);
        assert!(p.requires.is_empty());
        let p = p.with_requires(vec!["operator".into()]);
        assert_eq!(p.requires, ["operator"]);
    }

    #[test]
    #[should_panic(expected = "at least one granule")]
    fn def_rejects_empty() {
        let _ = PhaseDef::new("bad", 0, CostModel::constant(1));
    }

    #[test]
    fn stats_span() {
        let mut s = PhaseStats::new(SimTime(10));
        assert_eq!(s.span(), None);
        s.current_at = SimTime(20);
        s.completed_at = Some(SimTime(50));
        assert_eq!(s.span(), Some(SimDuration(30)));
    }
}
