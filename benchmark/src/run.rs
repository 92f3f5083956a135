//! The run protocol: alternate reference kernel and rep until the time
//! is up, sample the set-up, then check the drivers against each other.

use crate::alloc;
use crate::golden::SimMetrics;
use crate::host;
use crate::refkernel::{RefKernel, REF_NOMINAL_S};
use crate::stats::{median, paired_ratio};
use crate::trace::{Span, Tracer};
use crate::workloads::{drive_epochs, drive_threaded, signature, Input, Signature};
use pax_core::prelude::{RunReport, Session};
use std::time::{Duration, Instant};

/// Set-up samples taken after the timed reps of an end-to-end run.
const SETUP_SAMPLES: usize = 30;
/// Spans a trace file holds at most: later reps are timed the same way
/// but their spans are dropped, so a long run does not write a file of
/// hundreds of megabytes.
const TRACE_SPANS_KEPT: usize = 50_000;
/// Kernel-bracketed samples of each bare-structure timing.
const MICRO_SAMPLES: usize = 5;

/// The result every driver must reproduce, and what it was checked by.
pub struct Verified {
    /// The report of the workload's own driver.
    pub report: RunReport,
    pub signature: Signature,
    pub sim: SimMetrics,
    /// Epochs the re-driven epoch loop ran.
    pub epochs: u64,
    /// One line per driver that disagreed with the workload's own.
    pub disagreements: Vec<String>,
}

/// One run on the workload's own driver: the result every later rep and
/// every other driver must reproduce.
pub fn first_run(input: &Input, tr: &mut Tracer) -> Result<RunReport, String> {
    let mark = tr.mark();
    let report = input.setup(tr).and_then(|session| input.drive(session, tr));
    tr.truncate(mark);
    report
}

/// Check `report`, the result of the workload's own `Session` (stepped
/// in windows where the workload steps), against every other driver — a
/// plain `Simulation::run`, the epoch loop re-driven by the benchmark,
/// and `ThreadedSession` — and run the input once more under the strict
/// policy for the overlap gain. In a measuring run this comes after the
/// timed reps, so that the other drivers' memory (thread arenas above
/// all) is not in the peak the run reports.
pub fn verify(input: &Input, report: RunReport, tr: &mut Tracer) -> Result<Verified, String> {
    let mark = tr.mark();
    let expected = signature(&report);
    let plain = input.simulation(tr, true)?.run();
    let plain = plain.map_err(|e| e.to_string())?;
    let (epoch_loop, epochs) = drive_epochs(input.sharded(tr)?, tr)?;
    let threaded = drive_threaded(input.sharded(tr)?, tr)?;
    let mut disagreements = Vec::new();
    for (driver, other) in [
        ("Simulation::run", &plain),
        ("re-driven epoch loop", &epoch_loop),
        ("ThreadedSession", &threaded),
    ] {
        let got = signature(other);
        if got != expected {
            disagreements.push(format!("{driver}: {got:?} != {expected:?}"));
        }
    }

    let strict = input.simulation(tr, false)?.run();
    let strict = strict.map_err(|e| e.to_string())?;
    tr.truncate(mark);
    let sim = SimMetrics {
        utilization: report.utilization(),
        makespan_ticks: report.makespan.ticks(),
        latency_p99_ticks: report.latency_p99().map_or(0, |d| d.ticks()),
        jobs_per_ktick: report.throughput() * 1_000.0,
        overlap_gain: strict.makespan.ticks() as f64 / report.makespan.ticks() as f64,
    };
    Ok(Verified {
        report,
        signature: expected,
        sim,
        epochs,
        disagreements,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The workload's own driver, spans dropped, allocator not counting.
    Plain,
    /// The same with the allocator counting; like every kind but
    /// `Plain`, a traced run keeps its spans for the trace file.
    Traced,
    /// The epoch loop re-driven on the calling thread (fleet inputs).
    Epochs,
    /// `ThreadedSession`, one thread per shard (fleet inputs).
    Threaded,
    /// The workload's own driver on half the stream (stream inputs).
    Half,
}

/// One kernel-bracketed rep.
pub struct Sample {
    pub kind: Kind,
    /// Mean of the kernel times before and after the rep, seconds.
    pub kernel: f64,
    /// Seconds of the timed call (drive + report).
    pub rep: f64,
    /// Process CPU seconds and wall seconds over set-up plus timed call
    /// (traced runs only; the set-up is a thousandth of the call).
    pub cpu: Option<(f64, f64)>,
    /// Peak of live heap bytes above the level at rep start (`Traced`).
    pub peak_bytes: u64,
    /// Per span name: seconds, allocations and bytes summed over the rep.
    totals: Vec<(&'static str, f64, u64, u64)>,
    /// Seconds of each stepping window, in order.
    pub windows: Vec<f64>,
}

impl Sample {
    fn new(kind: Kind, kernel: f64, spans: &[Span]) -> Sample {
        let mut totals: Vec<(&'static str, f64, u64, u64)> = Vec::new();
        let mut windows = Vec::new();
        for s in spans {
            if s.name == "core.engine.step_window" {
                windows.push(s.duration());
            }
            match totals.iter_mut().find(|t| t.0 == s.name) {
                Some(t) => {
                    t.1 += s.duration();
                    t.2 += s.allocs;
                    t.3 += s.alloc_bytes;
                }
                None => totals.push((s.name, s.duration(), s.allocs, s.alloc_bytes)),
            }
        }
        let rep = totals.iter().find(|t| t.0 == "rep").map_or(0.0, |t| t.1);
        Sample {
            kind,
            kernel,
            rep,
            cpu: None,
            peak_bytes: 0,
            totals,
            windows,
        }
    }

    /// The paired ratio of the timed call.
    pub fn ratio(&self) -> f64 {
        self.rep / self.kernel
    }

    /// Reference-seconds spent in the spans called `name`.
    pub fn ref_s(&self, name: &str) -> Option<f64> {
        let t = self.totals.iter().find(|t| t.0 == name)?;
        Some(t.1 / self.kernel * REF_NOMINAL_S)
    }

    /// `(allocations, bytes)` inside the spans called `name`.
    pub fn allocs(&self, name: &str) -> Option<(u64, u64)> {
        let t = self.totals.iter().find(|t| t.0 == name)?;
        Some((t.2, t.3))
    }
}

pub struct Measured {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the output.
    pub failures: Vec<String>,
    /// Every kernel time taken, seconds.
    pub kernels: Vec<f64>,
    /// `VmHWM` right after the timed reps, MiB.
    pub peak_rss_mib: Option<f64>,
    /// Paired ratios of one set-up (a sample's K set-ups divided by K).
    pub setup_ratios: Vec<f64>,
}

pub struct Protocol<'a> {
    pub input: &'a Input,
    pub expected: Signature,
    pub seconds: f64,
    pub trace: bool,
    pub setups_per_sample: usize,
}

impl Protocol<'_> {
    /// `kernel, rep, kernel, rep, …, kernel`: each kernel run closes the
    /// bracket of the rep before it and opens that of the rep after it;
    /// only the rep's set-up, which is not timed, sits between a kernel
    /// and its rep.
    pub fn measure(&self, kernel: &mut RefKernel, tr: &mut Tracer) -> Measured {
        let half = if self.trace {
            self.input.half_stream()
        } else {
            None
        };
        let mut schedule = vec![Kind::Plain];
        if self.trace {
            schedule.push(Kind::Traced);
            if self.input.is_fleet() {
                schedule.extend([Kind::Epochs, Kind::Threaded]);
            }
            if half.is_some() {
                schedule.push(Kind::Half);
            }
        }
        // Room for any run up front: a vector that grows between two reps
        // lands on top of the heap the reps have just freed and moves
        // the peak resident set by megabytes from one run to the next.
        let mut out = Measured {
            samples: Vec::with_capacity(1 << 14),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            kernels: Vec::with_capacity(1 << 14),
            peak_rss_mib: None,
            setup_ratios: Vec::new(),
        };
        let mut half_expected: Option<Signature> = None;

        // Warm-up: one discarded rep of every kind in the schedule.
        let mut last = kernel.timed();
        for &kind in &schedule {
            (last, _) = self.rep(kind, half.as_ref(), 0, last, kernel, tr);
        }
        out.kernels.push(last);
        let deadline = Instant::now() + Duration::from_secs_f64(self.seconds);
        let mut i = 0usize;
        while Instant::now() < deadline || i < schedule.len() {
            let kind = schedule[i % schedule.len()];
            i += 1;
            out.attempted += 1;
            let result;
            (last, result) = self.rep(kind, half.as_ref(), i as u32, last, kernel, tr);
            out.kernels.push(last);
            match result {
                Ok((sample, got)) => {
                    let want = match kind {
                        Kind::Half => *half_expected.get_or_insert(got),
                        _ => self.expected,
                    };
                    if got == want {
                        out.samples.push(sample);
                    } else {
                        out.fail(format!("rep {i} ({kind:?}): {got:?} != {want:?}"));
                    }
                }
                Err(e) => out.fail(format!("rep {i} ({kind:?}): {e}")),
            }
        }
        out.peak_rss_mib = host::peak_rss_mib();
        if !self.trace {
            for _ in 0..SETUP_SAMPLES {
                let result;
                (last, result) = self.setup_sample(last, kernel, tr);
                out.kernels.push(last);
                match result {
                    Ok(ratio) => out.setup_ratios.push(ratio),
                    Err(e) => out.fail(format!("set-up: {e}")),
                }
            }
        }
        out
    }

    /// Set up, time the call, run the kernel: `before` is the kernel
    /// time taken just before this rep; the one taken after it is
    /// returned for the next rep.
    fn rep(
        &self,
        kind: Kind,
        half: Option<&Input>,
        index: u32,
        before: f64,
        kernel: &mut RefKernel,
        tr: &mut Tracer,
    ) -> (f64, Result<(Sample, Signature), String>) {
        tr.set_rep(index);
        let mark = tr.mark();
        if kind == Kind::Traced {
            alloc::start();
        }
        let input = match kind {
            Kind::Half => half.expect("a Half rep is scheduled only with a half input"),
            _ => self.input,
        };
        let cpu_before = if self.trace {
            host::process_cpu_s()
        } else {
            None
        };
        let wall = Instant::now();
        let report = match kind {
            Kind::Epochs => input
                .sharded(tr)
                .and_then(|run| drive_epochs(run, tr).map(|(report, _)| report)),
            Kind::Threaded => input.sharded(tr).and_then(|run| drive_threaded(run, tr)),
            _ => input.setup(tr).and_then(|session| input.drive(session, tr)),
        };
        let wall = wall.elapsed().as_secs_f64();
        let cpu_after = if self.trace {
            host::process_cpu_s()
        } else {
            None
        };
        let after = kernel.timed();
        let peak_bytes = if kind == Kind::Traced {
            alloc::stop()
        } else {
            0
        };

        let mut sample = Sample::new(kind, (before + after) / 2.0, tr.since(mark));
        if !self.trace || kind == Kind::Plain || tr.mark() > TRACE_SPANS_KEPT {
            tr.truncate(mark);
        }
        sample.cpu = cpu_before.zip(cpu_after).map(|(a, b)| (b - a, wall));
        sample.peak_bytes = peak_bytes;
        (after, report.map(|report| (sample, signature(&report))))
    }

    /// K consecutive set-ups between two kernels; the sessions are
    /// dropped after the clock stops.
    fn setup_sample(
        &self,
        before: f64,
        kernel: &mut RefKernel,
        tr: &mut Tracer,
    ) -> (f64, Result<f64, String>) {
        let k = self.setups_per_sample;
        let mark = tr.mark();
        let mut sessions: Vec<Session> = Vec::with_capacity(k);
        let t = Instant::now();
        let mut result = Ok(());
        for _ in 0..k {
            match self.input.setup(tr) {
                Ok(session) => sessions.push(session),
                Err(e) => result = Err(e),
            }
        }
        let dt = t.elapsed().as_secs_f64();
        let after = kernel.timed();
        tr.truncate(mark);
        drop(sessions);
        (
            after,
            result.map(|()| paired_ratio(before, dt / k as f64, after)),
        )
    }
}

impl Measured {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    pub fn of<'a>(&'a self, kinds: &'a [Kind]) -> impl Iterator<Item = &'a Sample> + 'a {
        self.samples.iter().filter(move |s| kinds.contains(&s.kind))
    }

    /// Median over the samples of `kinds` of whatever `f` reads from a
    /// sample; `None` when it reads nothing from any of them.
    pub fn median_of(&self, kinds: &[Kind], f: impl Fn(&Sample) -> Option<f64>) -> Option<f64> {
        let xs: Vec<f64> = self.of(kinds).filter_map(f).collect();
        (!xs.is_empty()).then(|| median(&xs))
    }

    /// Median reference-seconds in the spans called `name`.
    pub fn ref_s(&self, kinds: &[Kind], name: &str) -> Option<f64> {
        self.median_of(kinds, |s| s.ref_s(name))
    }
}

/// Time a bare-structure work unit between kernels; returns the median
/// reference-nanoseconds per operation. The unit's checksum must repeat.
pub fn micro(kernel: &mut RefKernel, mut unit: impl FnMut() -> (u64, u64)) -> f64 {
    let mut per_op = Vec::with_capacity(MICRO_SAMPLES);
    let mut first: Option<(u64, u64)> = None;
    unit();
    for _ in 0..MICRO_SAMPLES {
        let before = kernel.timed();
        let t = Instant::now();
        let got = unit();
        let dt = t.elapsed().as_secs_f64();
        let after = kernel.timed();
        assert_eq!(
            *first.get_or_insert(got),
            got,
            "a work unit must be deterministic"
        );
        per_op.push(paired_ratio(before, dt, after) * REF_NOMINAL_S * 1e9 / got.0 as f64);
    }
    median(&per_op)
}
