//! The metrics by name: how each is computed from the samples of a run.
//! The names, units and their order match `BENCHMARK.json` (a test
//! checks it).

use crate::json::Json;
use crate::layers;
use crate::refkernel::{RefKernel, REF_NOMINAL_S};
use crate::run::{micro, Kind, Measured, Verified};
use crate::stats::{
    iqr_frac, median, parity_delta, percentile, quartiles, sorted, tail_percentile,
};
use crate::trace::Tracer;
use crate::workloads::{Input, Workload};
use crate::{host, Args};
use std::hint::black_box;

pub const END_TO_END: [(&str, &str); 8] = [
    ("events_per_ref_s", "events/ref_s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_utilization", "ratio"),
    ("sim_makespan_ticks", "ticks"),
    ("sim_latency_p99_ticks", "ticks"),
    ("sim_jobs_per_ktick", "jobs/ktick"),
    ("sim_overlap_gain", "ratio"),
];

pub const PER_LAYER: [(&str, &str); 56] = [
    ("workloads.generate_ref_s", "ref_s"),
    ("workloads.scenario.parse_ref_s", "ref_s"),
    ("workloads.scenario.parse_ref_ns_per_byte", "ref_ns/byte"),
    ("workloads.build_ref_s", "ref_s"),
    ("core.engine.into_session_ref_s", "ref_s"),
    ("core.engine.drive_ref_s", "ref_s"),
    ("core.engine.drive_ref_ns_per_event", "ref_ns/event"),
    ("core.engine.step_windows", "count"),
    ("core.engine.step_window_ref_s.p50", "ref_s"),
    ("core.engine.step_window_ref_s.p99", "ref_s"),
    ("core.engine.stream_scaling_exp", "exponent"),
    ("core.engine.events", "count"),
    ("core.engine.tasks_dispatched", "count"),
    ("core.engine.splits", "count"),
    ("core.engine.instances_peak", "count"),
    ("core.engine.jobs_completed", "count"),
    ("core.engine.jobs_rejected", "count"),
    ("core.report.finish_ref_s", "ref_s"),
    ("core.descriptor.created", "count"),
    ("core.descriptor.peak", "count"),
    ("core.queue.pushpop_ref_ns_per_op", "ref_ns/op"),
    ("core.rangeset.churn_ref_ns_per_op", "ref_ns/op"),
    ("core.mapping.build_ref_s", "ref_s"),
    ("sim.calendar.hold_ref_ns_per_op", "ref_ns/op"),
    ("sim.calendar.share_est", "ratio"),
    ("sim.dist.sample_ref_ns", "ref_ns"),
    ("sim.dist.arrivals_ref_ns", "ref_ns"),
    ("sim.faults.crashes", "count"),
    ("sim.faults.retries", "count"),
    ("sim.faults.lost_work_frac", "ratio"),
    ("core.shard.into_sharded_ref_s", "ref_s"),
    ("core.shard.epochs", "count"),
    ("core.shard.events_per_epoch", "events/epoch"),
    ("core.shard.run_window_ref_s", "ref_s"),
    ("core.shard.coordinator_ref_s", "ref_s"),
    ("runtime.shard_exec.spawn_ref_s", "ref_s"),
    ("runtime.shard_exec.drive_ref_s", "ref_s"),
    ("runtime.shard_exec.finish_ref_s", "ref_s"),
    ("runtime.shard_exec.epoch_ref_us", "ref_us"),
    ("runtime.shard_exec.cpu_over_wall", "ratio"),
    ("runtime.shard_exec.work_inflation", "ratio"),
    ("runtime.shard_exec.speedup_vs_inline", "ratio"),
    ("alloc.setup_count", "count"),
    ("alloc.drive_count", "count"),
    ("alloc.drive_bytes", "bytes"),
    ("alloc.report_count", "count"),
    ("alloc.peak_bytes", "bytes"),
    ("host.ref_kernel_s", "s"),
    ("host.raw_events_per_s", "1/s"),
    ("host.ratio_iqr_frac", "ratio"),
    ("host.aa_delta_frac", "ratio"),
    ("host.nproc", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.reps", "count"),
    ("trace.reps_traced", "count"),
];

pub enum Reading {
    Is(f64),
    /// The layer does not run on this workload.
    NotApplicable,
    /// The layer runs but this host cannot measure it.
    Unmeasured,
}

pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub reading: Reading,
    /// Sample statistics behind the value, for the human reader.
    pub note: String,
}

impl Value {
    pub fn line(&self) -> String {
        let note = if self.note.is_empty() {
            String::new()
        } else {
            format!("   [{}]", self.note)
        };
        match self.reading {
            Reading::Is(x) => format!("metric {} = {x} {}{note}", self.name, self.unit),
            Reading::NotApplicable => format!("metric {} = n/a{note}", self.name),
            Reading::Unmeasured => format!("metric {} = unmeasured{note}", self.name),
        }
    }

    /// The summary line wants a number for every metric: a reading that
    /// is absent is written as 0, which no present reading of these
    /// metrics takes except a count that is really zero.
    pub fn to_json(&self) -> Json {
        let value = match self.reading {
            Reading::Is(x) => x,
            Reading::NotApplicable | Reading::Unmeasured => 0.0,
        };
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(self.unit))])
    }
}

/// Values collected by name, then put in the order of a registry.
struct Collected(Vec<(&'static str, Reading, String)>);

impl Collected {
    fn put(&mut self, name: &'static str, x: f64) {
        self.0.push((name, Reading::Is(x), String::new()));
    }

    fn put_noted(&mut self, name: &'static str, x: f64, note: String) {
        self.0.push((name, Reading::Is(x), note));
    }

    /// A reading that may be absent because the layer did not run.
    fn put_if(&mut self, name: &'static str, x: Option<f64>) {
        let reading = x.map_or(Reading::NotApplicable, Reading::Is);
        self.0.push((name, reading, String::new()));
    }

    fn ordered(mut self, registry: &[(&'static str, &'static str)]) -> Vec<Value> {
        let values = registry.iter().map(|&(name, unit)| {
            let at = self.0.iter().position(|v| v.0 == name);
            let (_, reading, note) = self.0.swap_remove(at.expect("every metric is computed"));
            Value {
                name,
                unit,
                reading,
                note,
            }
        });
        let values: Vec<Value> = values.collect();
        assert!(
            self.0.is_empty(),
            "a computed metric is not in the registry"
        );
        values
    }
}

fn spread_note(xs: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(xs);
    let p = tail_percentile(xs.len());
    format!(
        "paired ratio median {q2:.4} q1 {q1:.4} q3 {q3:.4} p{p} {:.4} n {}",
        percentile(&sorted(xs), p),
        xs.len()
    )
}

pub fn end_to_end(v: &Verified, m: &Measured) -> Result<Vec<Value>, String> {
    let ratios: Vec<f64> = m.of(&[Kind::Plain]).map(|s| s.ratio()).collect();
    if ratios.len() < 2 || m.setup_ratios.len() < 2 {
        return Err("fewer than two reps or set-up samples succeeded".into());
    }
    let mut c = Collected(Vec::new());
    c.put_noted(
        "events_per_ref_s",
        v.signature.events as f64 / (median(&ratios) * REF_NOMINAL_S),
        format!(
            "{}; A/A odd vs even {:.4}; kernel median {:.5} s",
            spread_note(&ratios),
            parity_delta(&ratios),
            median(&m.kernels)
        ),
    );
    c.put_noted(
        "setup_s",
        median(&m.setup_ratios) * REF_NOMINAL_S,
        spread_note(&m.setup_ratios),
    );
    let rss = m.peak_rss_mib.ok_or("VmHWM is not readable on this host")?;
    c.put("peak_rss_mib", rss);
    c.put("sim_utilization", v.sim.utilization);
    c.put("sim_makespan_ticks", v.sim.makespan_ticks as f64);
    c.put("sim_latency_p99_ticks", v.sim.latency_p99_ticks as f64);
    c.put("sim_jobs_per_ktick", v.sim.jobs_per_ktick);
    c.put("sim_overlap_gain", v.sim.overlap_gain);
    Ok(c.ordered(&END_TO_END))
}

pub fn per_layer(
    workload: &Workload,
    args: &Args,
    input: &Input,
    v: &Verified,
    m: &Measured,
    tr: &Tracer,
    kernel: &mut RefKernel,
) -> Vec<Value> {
    const OWN: [Kind; 2] = [Kind::Plain, Kind::Traced];
    const EPOCHS: [Kind; 1] = [Kind::Epochs];
    let r = &v.report;
    let events = r.events as f64;
    let mut c = Collected(Vec::new());

    // workloads
    let generate_ns = micro(kernel, || {
        const CALLS: u64 = 1_000;
        let granules = (0..CALLS).map(|_| {
            let made = black_box(workload.generate(black_box(args.seed), args.quick));
            u64::from(made.phase_granules())
        });
        (CALLS, granules.sum())
    });
    c.put("workloads.generate_ref_s", generate_ns / 1e9);
    let parse = m.ref_s(&OWN, "workloads.scenario.parse");
    c.put_if("workloads.scenario.parse_ref_s", parse);
    let bytes = match input {
        Input::Scenario { text, .. } => Some(text.len() as f64),
        _ => None,
    };
    c.put_if(
        "workloads.scenario.parse_ref_ns_per_byte",
        parse.zip(bytes).map(|(s, bytes)| s * 1e9 / bytes),
    );
    c.put_if("workloads.build_ref_s", m.ref_s(&OWN, "workloads.build"));

    // core.engine
    c.put_if(
        "core.engine.into_session_ref_s",
        m.ref_s(&OWN, "core.engine.into_session"),
    );
    let drive = m.ref_s(&OWN, "core.engine.drive");
    c.put_if("core.engine.drive_ref_s", drive);
    c.put_if(
        "core.engine.drive_ref_ns_per_event",
        drive.map(|s| s * 1e9 / events),
    );
    let windows: Vec<f64> = m
        .of(&OWN)
        .flat_map(|s| s.windows.iter().map(|w| w / s.kernel * REF_NOMINAL_S))
        .collect();
    let windows = sorted(&windows);
    let per_rep = m.of(&OWN).next().map_or(0, |s| s.windows.len());
    let stepped = (per_rep > 0).then_some(per_rep as f64);
    c.put_if("core.engine.step_windows", stepped);
    c.put_if(
        "core.engine.step_window_ref_s.p50",
        stepped.map(|_| percentile(&windows, 50.0)),
    );
    c.put_if(
        "core.engine.step_window_ref_s.p99",
        stepped.map(|_| percentile(&windows, 99.0)),
    );
    let half = m.ref_s(&[Kind::Half], "core.engine.drive");
    c.put_if(
        "core.engine.stream_scaling_exp",
        half.zip(drive).map(|(half, full)| (full / half).log2()),
    );
    c.put("core.engine.events", events);
    c.put("core.engine.tasks_dispatched", r.tasks_dispatched as f64);
    c.put("core.engine.splits", r.splits as f64);
    c.put("core.engine.instances_peak", r.instances_peak as f64);
    c.put("core.engine.jobs_completed", r.jobs_completed() as f64);
    c.put("core.engine.jobs_rejected", r.jobs_rejected as f64);

    // core.report: `Session::report`; on a fleet that is the 8-group
    // merge `Coordinator::finish`.
    c.put_if(
        "core.report.finish_ref_s",
        m.ref_s(&OWN, "core.report.finish"),
    );
    c.put("core.descriptor.created", r.descriptors_created as f64);
    c.put("core.descriptor.peak", r.descriptors_peak as f64);

    // bare structures
    c.put(
        "core.queue.pushpop_ref_ns_per_op",
        micro(kernel, layers::queue_pushpop),
    );
    let granules = input.phase_granules();
    c.put(
        "core.rangeset.churn_ref_ns_per_op",
        micro(kernel, || layers::rangeset_churn(granules)),
    );
    c.put(
        "core.mapping.build_ref_s",
        micro(kernel, layers::mapping_build) / 1e9,
    );
    let cost = input.cost_model();
    let (hot, parked, spread) = input.calendar_shape();
    let hold_ns = micro(kernel, || layers::calendar_hold(hot, parked, spread));
    c.put("sim.calendar.hold_ref_ns_per_op", hold_ns);
    c.put_if(
        "sim.calendar.share_est",
        drive.map(|s| hold_ns * 2.0 * events / (s * 1e9)),
    );
    c.put(
        "sim.dist.sample_ref_ns",
        micro(kernel, || layers::dist_sample(&cost)),
    );
    c.put(
        "sim.dist.arrivals_ref_ns",
        micro(kernel, layers::dist_arrivals),
    );
    c.put("sim.faults.crashes", r.crashes as f64);
    c.put("sim.faults.retries", r.retries as f64);
    c.put(
        "sim.faults.lost_work_frac",
        r.lost_work.ticks() as f64 / r.compute_time.ticks() as f64,
    );

    // core.shard (the re-driven epoch loop) and runtime.shard_exec (the
    // threaded driver), both against the workload's own inline driver.
    const SHARDED: [Kind; 2] = [Kind::Epochs, Kind::Threaded];
    const THREADED: [Kind; 1] = [Kind::Threaded];
    let fleet = input.is_fleet();
    let epochs = fleet.then_some(v.epochs as f64);
    c.put_if(
        "core.shard.into_sharded_ref_s",
        m.ref_s(&SHARDED, "core.shard.into_sharded"),
    );
    c.put_if("core.shard.epochs", epochs);
    c.put_if("core.shard.events_per_epoch", epochs.map(|e| events / e));
    let windows_s = m.ref_s(&EPOCHS, "core.shard.run_window");
    c.put_if("core.shard.run_window_ref_s", windows_s);
    c.put_if(
        "core.shard.coordinator_ref_s",
        m.ref_s(&EPOCHS, "core.shard.coordinator"),
    );
    c.put_if(
        "runtime.shard_exec.spawn_ref_s",
        m.ref_s(&THREADED, "runtime.shard_exec.spawn"),
    );
    let threaded = m.ref_s(&THREADED, "runtime.shard_exec.drive");
    c.put_if("runtime.shard_exec.drive_ref_s", threaded);
    c.put_if(
        "runtime.shard_exec.finish_ref_s",
        m.ref_s(&THREADED, "runtime.shard_exec.finish"),
    );
    let gate = threaded.zip(windows_s).zip(epochs);
    c.put_if(
        "runtime.shard_exec.epoch_ref_us",
        gate.map(|((threaded, windows), epochs)| (threaded - windows) / epochs * 1e6),
    );
    // CPU readings are in 10 ms ticks: sum over the reps before dividing.
    let cpu_and_wall = |kinds: &[Kind]| {
        let both = m.of(kinds).filter_map(|s| s.cpu);
        let (cpu, wall, n) = both.fold((0.0, 0.0, 0), |(c, w, n), (cpu, wall)| {
            (c + cpu, w + wall, n + 1)
        });
        (n > 0).then_some((cpu / n as f64, wall / n as f64))
    };
    let threaded_cpu = cpu_and_wall(&THREADED);
    let inline_cpu = cpu_and_wall(&OWN);
    let ratio_of = |kinds: &[Kind]| m.median_of(kinds, |s| Some(s.ratio()));
    let parallel = |name: &'static str, x: Option<f64>| match x {
        _ if !fleet => (name, Reading::NotApplicable, String::new()),
        Some(x) if host::nproc() >= 2 => (name, Reading::Is(x), String::new()),
        _ => (name, Reading::Unmeasured, "needs two CPUs".to_string()),
    };
    c.0.push(parallel(
        "runtime.shard_exec.cpu_over_wall",
        threaded_cpu.map(|(cpu, wall)| cpu / wall),
    ));
    c.0.push(parallel(
        "runtime.shard_exec.work_inflation",
        threaded_cpu
            .zip(inline_cpu)
            .map(|(threaded, inline)| threaded.0 / inline.0),
    ));
    c.0.push(parallel(
        "runtime.shard_exec.speedup_vs_inline",
        ratio_of(&OWN)
            .zip(ratio_of(&THREADED))
            .map(|(inline, threaded)| inline / threaded),
    ));

    // alloc: medians over the traced reps.
    let traced = |f: &dyn Fn(&crate::run::Sample) -> Option<u64>| {
        m.median_of(&[Kind::Traced], |s| f(s).map(|x| x as f64))
    };
    c.put_if("alloc.setup_count", traced(&|s| Some(s.allocs("setup")?.0)));
    c.put_if(
        "alloc.drive_count",
        traced(&|s| Some(s.allocs("core.engine.drive")?.0)),
    );
    c.put_if(
        "alloc.drive_bytes",
        traced(&|s| Some(s.allocs("core.engine.drive")?.1)),
    );
    c.put_if(
        "alloc.report_count",
        traced(&|s| Some(s.allocs("core.report.finish")?.0)),
    );
    c.put_if("alloc.peak_bytes", traced(&|s| Some(s.peak_bytes)));

    // host and trace diagnostics, never compared between runs.
    let plain: Vec<f64> = m.of(&[Kind::Plain]).map(|s| s.ratio()).collect();
    let own: Vec<f64> = m.of(&OWN).map(|s| s.ratio()).collect();
    let raw: Vec<f64> = m.of(&OWN).map(|s| s.rep).collect();
    c.put("host.ref_kernel_s", median(&m.kernels));
    c.put_if(
        "host.raw_events_per_s",
        (!raw.is_empty()).then(|| events / median(&raw)),
    );
    c.put_if(
        "host.ratio_iqr_frac",
        (own.len() >= 2).then(|| iqr_frac(&own)),
    );
    c.put_if(
        "host.aa_delta_frac",
        (plain.len() >= 2).then(|| parity_delta(&plain)),
    );
    c.put("host.nproc", host::nproc() as f64);
    c.put("trace.spans", tr.spans().len() as f64);
    c.put_if(
        "trace.overhead_frac",
        ratio_of(&[Kind::Traced])
            .zip(ratio_of(&[Kind::Plain]))
            .map(|(t, p)| t / p - 1.0),
    );
    c.put("trace.reps", m.samples.len() as f64);
    c.put("trace.reps_traced", m.of(&[Kind::Traced]).count() as f64);
    c.ordered(&PER_LAYER)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the root of the repo names the same metrics
    /// with the same units, and the same workloads, as this crate.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json lacks {key}");
            };
            let names = items
                .iter()
                .map(|i| i.get(field).unwrap().as_str().unwrap().to_string());
            names.collect()
        };
        let pairs = |reg: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
            reg.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .unzip()
        };
        assert_eq!(
            (listed("end_to_end", "name"), listed("end_to_end", "unit")),
            pairs(&END_TO_END)
        );
        assert_eq!(
            (listed("per_layer", "name"), listed("per_layer", "unit")),
            pairs(&PER_LAYER)
        );
        let names: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads", "name"), names);
    }
}
