//! Run reports: everything an experiment needs to reproduce the paper's
//! utilization and rundown numbers from one simulation.

use crate::ids::InstanceId;
use crate::mapping::MappingKind;
use crate::phase::PhaseStats;
use pax_sim::metrics::{GanttTrace, StepTrace};
use pax_sim::time::{SimDuration, SimTime};
use std::fmt;

/// Per-phase-instance report entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    /// Instance id, in initiation order.
    pub instance: InstanceId,
    /// Phase definition name.
    pub name: String,
    /// Job stream.
    pub job: u32,
    /// Granule count.
    pub granules: u32,
    /// Mapping through which this instance was enabled by its
    /// predecessor, if it was overlapped.
    pub enabled_by: Option<MappingKind>,
    /// Timing and overlap statistics. In a merged multi-group report
    /// these instants are in the phase's group's local time, not the
    /// global time of the report's jobs and traces (see `pax_core::shard`,
    /// "Merged report conventions").
    pub stats: PhaseStats,
}

impl PhaseReport {
    /// Fraction of this instance's granules that completed before its
    /// predecessor finished.
    pub fn overlap_fraction(&self) -> f64 {
        if self.granules == 0 {
            0.0
        } else {
            self.stats.overlap_granules as f64 / self.granules as f64
        }
    }
}

/// Per-job summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// When the job entered the system (its arrival instant — `t = 0`
    /// for batch jobs added directly).
    pub arrived_at: SimTime,
    /// When the job's first phase was dispatched. Equals `arrived_at`
    /// unless an admission policy deferred the job.
    pub started_at: SimTime,
    /// When the job's program reached `End` (`None` for unfinished or
    /// shed jobs).
    pub finished_at: Option<SimTime>,
    /// True when the admission policy shed the job instead of running it.
    pub rejected: bool,
}

impl JobReport {
    /// Elapsed wall-clock for the job from dispatch, if it finished.
    pub fn makespan(&self) -> Option<SimDuration> {
        self.finished_at.map(|f| f.since(self.started_at))
    }

    /// Service latency: arrival to completion, including any admission
    /// deferral, if the job finished.
    pub fn latency(&self) -> Option<SimDuration> {
        if self.rejected {
            return None;
        }
        self.finished_at.map(|f| f.since(self.arrived_at))
    }
}

/// Per-processor-class accounting on a heterogeneous machine
/// ([`ProcessorClass`](pax_sim::machine::ProcessorClass)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// Class name, as declared on the machine.
    pub name: String,
    /// Workers in this class (summed across groups on a sharded fleet).
    pub processors: usize,
    /// Declared speed (percent of nominal).
    pub speed_percent: u32,
    /// Useful compute ticks executed by this class (crash-preempted work
    /// deducted, exactly like `compute_time`).
    pub busy: SimDuration,
    /// Tasks dispatched to this class.
    pub tasks: u64,
}

impl ClassReport {
    /// This class's utilization over `makespan`: useful compute over the
    /// class's own capacity.
    pub fn utilization(&self, makespan: SimDuration) -> f64 {
        if makespan.is_zero() || self.processors == 0 {
            return 0.0;
        }
        self.busy.ticks() as f64 / (self.processors as u64 * makespan.ticks()) as f64
    }
}

/// Per-resource-pool accounting
/// ([`ResourcePool`](pax_sim::machine::ResourcePool)): how often and how
/// long dispatch waited on the pool's tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolReport {
    /// Pool name, as declared on the machine.
    pub name: String,
    /// Declared token capacity (per machine group).
    pub tokens: u32,
    /// Dispatch attempts that found the pool empty and parked the worker.
    pub waits: u64,
    /// Total worker-ticks spent parked on this pool.
    pub wait_ticks: SimDuration,
}

/// Full result of one simulation run. Every field is an integer count,
/// tick or name, so two reports compare with `==` — the form the
/// determinism contract of [`crate::shard`] is tested in.
#[derive(Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Worker processor count.
    pub processors: usize,
    /// Completion time of the last event.
    pub makespan: SimDuration,
    /// Total useful computation time across workers.
    pub compute_time: SimDuration,
    /// Total management (executive) time.
    pub mgmt_time: SimDuration,
    /// Serial inter-phase algorithm time (the "serial actions and
    /// decisions" behind null mappings) — kept separate from management
    /// so the computation-to-management ratio matches the paper's.
    pub serial_time: SimDuration,
    /// Whether management displaced worker computation
    /// (`ExecutivePlacement::StealsWorker`).
    pub mgmt_steals_workers: bool,
    /// Busy-compute-processor step trace.
    pub busy_trace: StepTrace,
    /// Availability timeline: how many worker processors were up over
    /// time. Empty when fault injection is disabled (all `processors`
    /// were available for the whole run).
    pub avail_trace: StepTrace,
    /// Worker time lost to crash preemption: ticks spent executing
    /// granule ranges whose results were destroyed by a processor crash.
    /// Included in the busy trace (the worker was occupied) but deducted
    /// from `compute_time` (the work must be redone).
    pub lost_work: SimDuration,
    /// Granule ranges reissued to the dispatch queue after a crash.
    pub retries: u64,
    /// Processor crashes that occurred during the run.
    pub crashes: u64,
    /// Phase instances in initiation order. With instance eviction
    /// enabled (service mode), holds only the instances still live when
    /// the run ended — evicted entries are dropped to bound memory.
    pub phases: Vec<PhaseReport>,
    /// Job summaries, including arrival/latency fields for service runs.
    pub jobs: Vec<JobReport>,
    /// Jobs shed by the admission policy (`AdmissionPolicy::Shed`).
    pub jobs_rejected: u64,
    /// Peak simultaneously-live phase instances. Without eviction this is
    /// the total instance count; with eviction it is the recycling pool's
    /// high-water mark — the bounded-memory figure for service runs.
    pub instances_peak: usize,
    /// Events processed by the simulator.
    pub events: u64,
    /// Total tasks dispatched to workers.
    pub tasks_dispatched: u64,
    /// Total descriptor splits performed.
    pub splits: u64,
    /// Granules executed in their home memory cluster (zero on
    /// uniform-memory machines, where no cluster model is configured).
    pub local_granules: u64,
    /// Granules executed outside their home cluster, each paying the
    /// machine's remote stall.
    pub remote_granules: u64,
    /// Total worker time lost to remote-access stalls. Included in
    /// `compute_time` (the worker is occupied) but not useful work — see
    /// [`RunReport::effective_utilization`].
    pub remote_stall: SimDuration,
    /// Total descriptions ever created.
    pub descriptors_created: u64,
    /// Peak simultaneously-live descriptions.
    pub descriptors_peak: usize,
    /// Per-worker compute spans of the tasks that finished
    /// ([`Simulation::with_gantt`](crate::Simulation::with_gantt); one
    /// machine group only).
    pub gantt: Option<GanttTrace>,
    /// Per-class accounting on heterogeneous machines, in declaration
    /// order. Empty on homogeneous (classless) machines.
    pub class_reports: Vec<ClassReport>,
    /// Per-pool token-wait accounting on resource-constrained machines,
    /// in declaration order. Empty when no pools are declared.
    pub pool_reports: Vec<PoolReport>,
}

impl RunReport {
    /// Overall worker utilization: useful compute over capacity.
    pub fn utilization(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.compute_time.ticks() as f64 / (self.processors as u64 * self.makespan.ticks()) as f64
    }

    /// Available processor-time over the whole run: the integral of the
    /// availability timeline, or nominal capacity
    /// (`processors * makespan`) when fault injection was disabled.
    pub fn available_ticks(&self) -> u64 {
        if self.avail_trace.points().is_empty() {
            self.processors as u64 * self.makespan.ticks()
        } else {
            self.avail_trace
                .integral(SimTime::ZERO, SimTime::ZERO + self.makespan)
        }
    }

    /// Available processor-time in `[from, to)`, against the same
    /// fault-free fallback as [`RunReport::available_ticks`].
    pub fn available_in(&self, from: SimTime, to: SimTime) -> u64 {
        if self.avail_trace.points().is_empty() {
            self.processors as u64 * to.since(from).ticks()
        } else {
            self.avail_trace.integral(from, to)
        }
    }

    /// Utilization measured against *available* rather than nominal
    /// processors: useful compute over the availability integral. Under
    /// fault injection this is the honest figure — idle time the machine
    /// could never have used (the processor was down) is not charged
    /// against the executive. Equals [`RunReport::utilization`] when
    /// faults are disabled.
    pub fn available_utilization(&self) -> f64 {
        let avail = self.available_ticks();
        if avail == 0 {
            return 0.0;
        }
        self.compute_time.ticks() as f64 / avail as f64
    }

    /// Fraction of executed granules that ran outside their home memory
    /// cluster (0.0 when no clustered-memory model was configured).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_granules + self.remote_granules;
        if total == 0 {
            0.0
        } else {
            self.remote_granules as f64 / total as f64
        }
    }

    /// Utilization counting only useful computation: remote-access stalls
    /// occupy workers but move no algorithm forward, so they are deducted.
    /// Equals [`RunReport::utilization`] on uniform-memory machines.
    pub fn effective_utilization(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        let useful = self
            .compute_time
            .ticks()
            .saturating_sub(self.remote_stall.ticks());
        useful as f64 / (self.processors as u64 * self.makespan.ticks()) as f64
    }

    /// The paper's computation-to-management ratio (∞-safe: returns
    /// `f64::INFINITY` when management time is zero).
    pub fn comp_to_mgmt_ratio(&self) -> f64 {
        if self.mgmt_time.is_zero() {
            f64::INFINITY
        } else {
            self.compute_time.ticks() as f64 / self.mgmt_time.ticks() as f64
        }
    }

    /// Idle processor-time over the whole run (management wait included
    /// for dedicated executives; for worker-stealing executives the stolen
    /// time counts as management, not idle).
    pub fn idle_time(&self) -> u64 {
        let cap = self.processors as u64 * self.makespan.ticks();
        let used = self.compute_time.ticks()
            + if self.mgmt_steals_workers {
                self.mgmt_time.ticks()
            } else {
                0
            };
        cap.saturating_sub(used)
    }

    /// Rundown analysis for phase instance `idx`: the time from when busy
    /// processors last dropped below full (`processors`) until the phase
    /// completed, and the idle processor-time lost in that window.
    ///
    /// Wrong for a phase of a group admitted after `t = 0` in a merged
    /// multi-group report: the phase's instants are group-local but the
    /// busy trace is global, so the window read is the wrong one (see
    /// `pax_core::shard`, "Merged report conventions").
    pub fn rundown_of(&self, idx: usize) -> Option<RundownWindow> {
        let p = &self.phases[idx];
        let end = p.stats.completed_at?;
        let start_search = p.stats.current_at;
        let onset = self
            .busy_trace
            .rundown_onset(self.processors as u32, end)
            .unwrap_or(start_search)
            .max(start_search);
        let idle = self.busy_trace.idle_time(self.processors, onset, end);
        Some(RundownWindow {
            onset,
            end,
            idle_processor_time: idle,
        })
    }

    /// Total overlap granules across all phases.
    pub fn total_overlap_granules(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.stats.overlap_granules as u64)
            .sum()
    }

    /// Jobs that ran to completion (shed jobs excluded).
    pub fn jobs_completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.latency().is_some()).count()
    }

    /// Nearest-rank percentile of job service latency
    /// (arrival → completion) over completed jobs. `p` in `[0, 100]`.
    /// `None` when no job completed.
    pub fn latency_percentile(&self, p: f64) -> Option<SimDuration> {
        let mut lat: Vec<SimDuration> = self.jobs.iter().filter_map(|j| j.latency()).collect();
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let p = p.clamp(0.0, 100.0);
        // Nearest-rank: ceil(p/100 * n), 1-based; p = 0 reads the minimum.
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        Some(lat[rank.max(1) - 1])
    }

    /// Median job service latency.
    pub fn latency_p50(&self) -> Option<SimDuration> {
        self.latency_percentile(50.0)
    }

    /// 99th-percentile job service latency — the service-mode tail figure.
    pub fn latency_p99(&self) -> Option<SimDuration> {
        self.latency_percentile(99.0)
    }

    /// Steady-state throughput: completed jobs per tick of makespan
    /// (0.0 for an empty run).
    pub fn throughput(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.jobs_completed() as f64 / self.makespan.ticks() as f64
    }

    /// Utilization of the named processor class (useful compute over the
    /// class's capacity), or `None` when no such class was declared.
    pub fn class_utilization(&self, name: &str) -> Option<f64> {
        self.class_reports
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.utilization(self.makespan))
    }

    /// Token-wait accounting for the named resource pool, or `None` when
    /// no such pool was declared.
    pub fn pool_report(&self, name: &str) -> Option<&PoolReport> {
        self.pool_reports.iter().find(|p| p.name == name)
    }

    /// Render a compact textual summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            s,
            "makespan {}  utilization {:.4}  compute {}  mgmt {}  C/M {:.1}",
            self.makespan,
            self.utilization(),
            self.compute_time,
            self.mgmt_time,
            self.comp_to_mgmt_ratio(),
        );
        if self.crashes > 0 {
            let _ = writeln!(
                s,
                "  crashes {}  retries {}  lost-work {}  avail-utilization {:.4}",
                self.crashes,
                self.retries,
                self.lost_work,
                self.available_utilization(),
            );
        }
        for c in &self.class_reports {
            let _ = writeln!(
                s,
                "  class {:<12} procs {:>4}  speed {:>4}%  busy {}  tasks {}  utilization {:.4}",
                c.name,
                c.processors,
                c.speed_percent,
                c.busy,
                c.tasks,
                c.utilization(self.makespan),
            );
        }
        for p in &self.pool_reports {
            let _ = writeln!(
                s,
                "  pool {:<13} tokens {:>3}  waits {:>6}  wait-ticks {}",
                p.name, p.tokens, p.waits, p.wait_ticks,
            );
        }
        for (i, p) in self.phases.iter().enumerate() {
            let _ = writeln!(
                s,
                "  [{i}] {:<22} granules {:>8}  init {:>10}  current {:>10}  done {:>10}  overlap {:>8} ({:>5.1}%)  via {}",
                p.name,
                p.granules,
                p.stats.initiated_at.ticks(),
                p.stats.current_at.ticks(),
                p.stats
                    .completed_at
                    .map(|t| t.ticks().to_string())
                    .unwrap_or_else(|| "-".into()),
                p.stats.overlap_granules,
                p.overlap_fraction() * 100.0,
                p.enabled_by.map(|k| k.label()).unwrap_or("-"),
            );
        }
        s
    }
}

/// A phase-end rundown window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RundownWindow {
    /// When busy processors last dropped below full before phase end.
    pub onset: SimTime,
    /// Phase completion.
    pub end: SimTime,
    /// Idle processor-time lost in the window.
    pub idle_processor_time: u64,
}

impl RundownWindow {
    /// Length of the window.
    pub fn span(&self) -> SimDuration {
        self.end.since(self.onset)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_sim::time::SimTime;

    fn mk_report() -> RunReport {
        let mut busy = StepTrace::new();
        busy.record(SimTime(0), 4);
        busy.record(SimTime(80), 2);
        busy.record(SimTime(100), 0);
        RunReport {
            processors: 4,
            makespan: SimDuration(100),
            compute_time: SimDuration(360),
            mgmt_time: SimDuration(10),
            serial_time: SimDuration::ZERO,
            mgmt_steals_workers: false,
            busy_trace: busy,
            avail_trace: StepTrace::new(),
            lost_work: SimDuration::ZERO,
            retries: 0,
            crashes: 0,
            phases: vec![PhaseReport {
                instance: InstanceId(0),
                name: "a".into(),
                job: 0,
                granules: 100,
                enabled_by: None,
                stats: {
                    let mut st = PhaseStats::new(SimTime(0));
                    st.completed_at = Some(SimTime(100));
                    st.overlap_granules = 25;
                    st
                },
            }],
            jobs: vec![JobReport {
                arrived_at: SimTime(0),
                started_at: SimTime(0),
                finished_at: Some(SimTime(100)),
                rejected: false,
            }],
            jobs_rejected: 0,
            instances_peak: 1,
            events: 10,
            tasks_dispatched: 8,
            splits: 4,
            local_granules: 0,
            remote_granules: 0,
            remote_stall: SimDuration::ZERO,
            descriptors_created: 12,
            descriptors_peak: 6,
            gantt: None,
            class_reports: vec![],
            pool_reports: vec![],
        }
    }

    #[test]
    fn class_and_pool_accounting() {
        let mut r = mk_report();
        assert_eq!(r.class_utilization("fast"), None);
        assert!(r.pool_report("operator").is_none());
        r.class_reports = vec![
            ClassReport {
                name: "fast".into(),
                processors: 1,
                speed_percent: 200,
                busy: SimDuration(80),
                tasks: 5,
            },
            ClassReport {
                name: "slow".into(),
                processors: 3,
                speed_percent: 50,
                busy: SimDuration(280),
                tasks: 3,
            },
        ];
        r.pool_reports = vec![PoolReport {
            name: "operator".into(),
            tokens: 2,
            waits: 7,
            wait_ticks: SimDuration(140),
        }];
        // makespan 100: fast = 80/(1*100), slow = 280/(3*100)
        assert!((r.class_utilization("fast").unwrap() - 0.8).abs() < 1e-12);
        assert!((r.class_utilization("slow").unwrap() - 280.0 / 300.0).abs() < 1e-12);
        let p = r.pool_report("operator").unwrap();
        assert_eq!(p.waits, 7);
        assert_eq!(p.wait_ticks, SimDuration(140));
        let s = r.summary();
        assert!(s.contains("class fast"));
        assert!(s.contains("pool operator"));
        // Zero-makespan guard.
        r.makespan = SimDuration::ZERO;
        assert_eq!(r.class_utilization("fast"), Some(0.0));
    }

    #[test]
    fn utilization_math() {
        let r = mk_report();
        assert!((r.utilization() - 0.9).abs() < 1e-12);
        assert!((r.comp_to_mgmt_ratio() - 36.0).abs() < 1e-12);
        assert_eq!(r.idle_time(), 400 - 360);
    }

    #[test]
    fn rundown_window_extraction() {
        let r = mk_report();
        let w = r.rundown_of(0).unwrap();
        assert_eq!(w.onset, SimTime(80));
        assert_eq!(w.end, SimTime(100));
        // [80,100): capacity 80, busy 2*20=40 -> idle 40
        assert_eq!(w.idle_processor_time, 40);
        assert_eq!(w.span(), SimDuration(20));
    }

    #[test]
    fn overlap_fraction() {
        let r = mk_report();
        assert!((r.phases[0].overlap_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(r.total_overlap_granules(), 25);
    }

    #[test]
    fn steals_worker_idle_accounting() {
        let mut r = mk_report();
        r.mgmt_steals_workers = true;
        assert_eq!(r.idle_time(), 400 - 360 - 10);
    }

    #[test]
    fn summary_renders() {
        let r = mk_report();
        let s = r.summary();
        assert!(s.contains("utilization"));
        assert!(s.contains("overlap"));
    }

    #[test]
    fn infinite_ratio_when_mgmt_free() {
        let mut r = mk_report();
        r.mgmt_time = SimDuration::ZERO;
        assert!(r.comp_to_mgmt_ratio().is_infinite());
    }

    #[test]
    fn remote_fraction_uniform_memory_is_zero() {
        let r = mk_report();
        assert_eq!(r.remote_fraction(), 0.0);
        assert!((r.effective_utilization() - r.utilization()).abs() < 1e-12);
    }

    #[test]
    fn available_ticks_falls_back_to_nominal_capacity() {
        let r = mk_report();
        assert_eq!(r.available_ticks(), 400);
        assert_eq!(r.available_in(SimTime(10), SimTime(60)), 200);
        assert!((r.available_utilization() - r.utilization()).abs() < 1e-12);
    }

    #[test]
    fn degraded_capacity_accounting() {
        let mut r = mk_report();
        // 4 up until t=40, one crash -> 3 up until repair at t=90.
        r.avail_trace.record(SimTime(0), 4);
        r.avail_trace.record(SimTime(40), 3);
        r.avail_trace.record(SimTime(90), 4);
        r.crashes = 1;
        r.retries = 1;
        r.lost_work = SimDuration(15);
        // 40*4 + 50*3 + 10*4 = 350
        assert_eq!(r.available_ticks(), 350);
        assert_eq!(r.available_in(SimTime(40), SimTime(90)), 150);
        assert!((r.available_utilization() - 360.0 / 350.0).abs() < 1e-12);
        let s = r.summary();
        assert!(s.contains("crashes 1"));
        assert!(s.contains("avail-utilization"));
    }

    #[test]
    fn latency_percentiles_and_throughput() {
        let mut r = mk_report();
        r.jobs = (0..100)
            .map(|i| JobReport {
                arrived_at: SimTime(i),
                started_at: SimTime(i),
                finished_at: Some(SimTime(i + 1 + i)), // latency i+1: 1..=100
                rejected: false,
            })
            .collect();
        // shed and unfinished jobs are excluded from both counts
        r.jobs.push(JobReport {
            arrived_at: SimTime(7),
            started_at: SimTime(7),
            finished_at: None,
            rejected: true,
        });
        r.jobs.push(JobReport {
            arrived_at: SimTime(9),
            started_at: SimTime(9),
            finished_at: None,
            rejected: false,
        });
        r.jobs_rejected = 1;
        assert_eq!(r.jobs_completed(), 100);
        assert_eq!(r.latency_p50(), Some(SimDuration(50)));
        assert_eq!(r.latency_p99(), Some(SimDuration(99)));
        assert_eq!(r.latency_percentile(100.0), Some(SimDuration(100)));
        assert_eq!(r.latency_percentile(0.0), Some(SimDuration(1)));
        // 100 completions over 100 ticks of makespan
        assert!((r.throughput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_excludes_deferral_start_but_counts_from_arrival() {
        let j = JobReport {
            arrived_at: SimTime(10),
            started_at: SimTime(25), // deferred 15 ticks by admission
            finished_at: Some(SimTime(40)),
            rejected: false,
        };
        assert_eq!(j.makespan(), Some(SimDuration(15)));
        assert_eq!(j.latency(), Some(SimDuration(30)));
    }

    #[test]
    fn no_completions_means_no_percentiles() {
        let mut r = mk_report();
        r.jobs.clear();
        assert_eq!(r.jobs_completed(), 0);
        assert_eq!(r.latency_p50(), None);
        assert_eq!(r.throughput(), 0.0);
    }

    #[test]
    fn remote_fraction_and_effective_utilization() {
        let mut r = mk_report();
        r.local_granules = 75;
        r.remote_granules = 25;
        r.remote_stall = SimDuration(60);
        assert!((r.remote_fraction() - 0.25).abs() < 1e-12);
        // (360 - 60) / 400
        assert!((r.effective_utilization() - 0.75).abs() < 1e-12);
        // plain utilization still counts occupied time
        assert!((r.utilization() - 0.9).abs() < 1e-12);
    }
}
