//! Overlap-control policy: every design choice the paper discusses, as a
//! knob the experiments can sweep.

/// How the master description of a phase is carved into worker tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskSizing {
    /// Fixed number of granules per task.
    Fixed(u32),
    /// Choose the task size so that each phase yields roughly
    /// `ratio × processors` tasks. The paper's guidance: "there should be
    /// at the outset of the current-phase work at least two tasks for each
    /// processor" — `TasksPerProcessor(2.0)`.
    TasksPerProcessor(f64),
}

impl TaskSizing {
    /// Resolve to a concrete per-task granule count for a phase of
    /// `granules` granules on `processors` processors (≥ 1 granule).
    pub fn task_granules(&self, granules: u32, processors: usize) -> u32 {
        match *self {
            TaskSizing::Fixed(n) => n.max(1),
            TaskSizing::TasksPerProcessor(ratio) => {
                let tasks = (processors as f64 * ratio).max(1.0);
                ((granules as f64 / tasks).floor() as u32).max(1)
            }
        }
    }
}

/// How an idle worker is matched with waiting work.
///
/// PAX "allocated \[processors\] as they became available on a
/// the-more-the-merrier basis" — strict queue order. The paper names "a
/// data-proximity work assignment algorithm" as a strategy under
/// development; [`AssignmentPolicy::DataProximity`] is that algorithm:
/// the seeking worker scans a bounded window of the waiting computation
/// queue for a description whose data home matches the worker's memory
/// cluster, falling back to the queue head when none does. Requires a
/// [`LocalityModel`](pax_sim::locality::LocalityModel) on the machine;
/// without one it behaves exactly like [`AssignmentPolicy::QueueOrder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentPolicy {
    /// Hand the queue head to whichever worker asks (PAX behaviour).
    QueueOrder,
    /// Prefer proximate work within a bounded scan of the queue.
    DataProximity {
        /// Maximum queued descriptions examined per seek. Bounds the
        /// executive time spent matching (the same engineering-judgment
        /// trade as the composite-map subset cap): a window of zero
        /// degenerates to queue order.
        scan_window: usize,
    },
}

/// How identity-mapped successor descriptions queued on current-phase
/// descriptions are split when the current description splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Split the queued successor at the same moment the current
    /// description splits, inside the dispatch service ("the additional
    /// delays of splitting queued successor computation descriptions may
    /// represent an unacceptable situation" — this is the strategy that
    /// risks it).
    DemandSplit,
    /// Presplit phase and successor descriptions into task-sized pieces at
    /// initiation, before idle workers present themselves; the executive
    /// "works ahead in otherwise idle time".
    PreSplit,
    /// Detach the successor into a successor-splitting task "quickly
    /// queued for later attention when the executive would again be idle".
    SuccessorSplitTask,
}

/// When the composite granule map of an indirect mapping is constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositeBuild {
    /// During phase initiation, delaying the current phase's first
    /// dispatch (what the paper warns against: "it would seem wise to get
    /// the current phase into execution without the delay of constructing
    /// the necessary information").
    Immediate,
    /// As a background executive task after the current phase is running.
    Background,
}

/// The complete overlap policy for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapPolicy {
    /// Master switch: `false` reproduces the strict phase-barrier
    /// baseline.
    pub enabled: bool,
    /// Task sizing rule.
    pub sizing: TaskSizing,
    /// Identity-successor split handling.
    pub split_strategy: SplitStrategy,
    /// Composite-map construction timing for indirect mappings.
    pub composite_build: CompositeBuild,
    /// Cap on the number of successor granules subjected to early
    /// enablement under indirect mappings ("identify a subset group of
    /// successor-phase granules ... so as to avoid solving an
    /// unnecessarily large enablement problem"). `u32::MAX` = all.
    pub indirect_subset: u32,
    /// Place *released successor* pieces ahead of remaining current-phase
    /// work (PAX's conflict-release mechanism put released computations
    /// "ahead of the normal computations"). `false` (default) schedules
    /// them behind the current phase, so enabled successor work only
    /// *fills* processors the draining phase can no longer occupy —
    /// elevating it instead starves the very completions that release more
    /// successor work (measured by the E7/E8 ablations).
    pub elevate_released: bool,
    /// Worker-to-work matching rule (data-proximity extension, E12).
    pub assignment: AssignmentPolicy,
}

impl OverlapPolicy {
    /// Strict sequential phases — the baseline the paper starts from.
    pub fn strict() -> OverlapPolicy {
        OverlapPolicy {
            enabled: false,
            sizing: TaskSizing::TasksPerProcessor(2.0),
            split_strategy: SplitStrategy::DemandSplit,
            composite_build: CompositeBuild::Background,
            indirect_subset: u32::MAX,
            elevate_released: false,
            assignment: AssignmentPolicy::QueueOrder,
        }
    }

    /// Overlap with the paper's recommended settings: two tasks per
    /// processor, successor-splitting tasks, background composite builds.
    pub fn overlap() -> OverlapPolicy {
        OverlapPolicy {
            enabled: true,
            sizing: TaskSizing::TasksPerProcessor(2.0),
            split_strategy: SplitStrategy::SuccessorSplitTask,
            composite_build: CompositeBuild::Background,
            indirect_subset: u32::MAX,
            elevate_released: false,
            assignment: AssignmentPolicy::QueueOrder,
        }
    }

    /// Builder-style setters.
    pub fn with_sizing(mut self, sizing: TaskSizing) -> OverlapPolicy {
        self.sizing = sizing;
        self
    }

    /// Set the identity-successor split strategy.
    pub fn with_split_strategy(mut self, s: SplitStrategy) -> OverlapPolicy {
        self.split_strategy = s;
        self
    }

    /// Set composite-map build timing.
    pub fn with_composite_build(mut self, c: CompositeBuild) -> OverlapPolicy {
        self.composite_build = c;
        self
    }

    /// Cap the early-enablement subset for indirect mappings.
    pub fn with_indirect_subset(mut self, n: u32) -> OverlapPolicy {
        self.indirect_subset = n;
        self
    }

    /// Schedule released successor pieces ahead of current-phase work.
    pub fn with_elevate_released(mut self, e: bool) -> OverlapPolicy {
        self.elevate_released = e;
        self
    }

    /// Set the worker-to-work matching rule.
    pub fn with_assignment(mut self, a: AssignmentPolicy) -> OverlapPolicy {
        self.assignment = a;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_sizing_fixed() {
        assert_eq!(TaskSizing::Fixed(8).task_granules(100, 4), 8);
        assert_eq!(TaskSizing::Fixed(0).task_granules(100, 4), 1);
    }

    #[test]
    fn task_sizing_ratio() {
        // 100 granules, 4 procs, 2 tasks/proc -> 8 tasks -> 12 granules each
        assert_eq!(TaskSizing::TasksPerProcessor(2.0).task_granules(100, 4), 12);
        // tiny phases never go below 1 granule per task
        assert_eq!(TaskSizing::TasksPerProcessor(4.0).task_granules(3, 10), 1);
        // one task per processor
        assert_eq!(TaskSizing::TasksPerProcessor(1.0).task_granules(64, 8), 8);
    }

    #[test]
    fn presets() {
        assert!(!OverlapPolicy::strict().enabled);
        let o = OverlapPolicy::overlap();
        assert!(o.enabled);
        assert_eq!(o.split_strategy, SplitStrategy::SuccessorSplitTask);
        assert_eq!(o.composite_build, CompositeBuild::Background);
    }

    #[test]
    fn builder_chain() {
        let p = OverlapPolicy::overlap()
            .with_sizing(TaskSizing::Fixed(4))
            .with_split_strategy(SplitStrategy::PreSplit)
            .with_composite_build(CompositeBuild::Immediate)
            .with_indirect_subset(64);
        assert_eq!(p.sizing, TaskSizing::Fixed(4));
        assert_eq!(p.split_strategy, SplitStrategy::PreSplit);
        assert_eq!(p.composite_build, CompositeBuild::Immediate);
        assert_eq!(p.indirect_subset, 64);
    }
}
