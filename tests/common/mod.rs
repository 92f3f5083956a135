//! The determinism oracle every equivalence suite calls.
//!
//! The contract (`pax_core::shard`, "Determinism contract"): one
//! simulation gives one result — the same `RunReport`, or the same
//! `EngineError` — on every driver, shard count and pause schedule. [`oracle`] checks all of it for one case, so a suite brings
//! only its builders and the semantics it pins on the result.

use pax_core::prelude::*;
use pax_runtime::ThreadedSession;

/// What every driver agreed on for one case.
#[derive(Debug)]
pub struct Verdict {
    /// `build(machine).run()`, which every driver returned.
    pub reference: Result<RunReport, EngineError>,
    /// What `step_until` returned at each cut: the same on both sessions
    /// at every shard count.
    #[allow(dead_code)] // not every suite pins its cuts
    pub cuts: Vec<Result<bool, EngineError>>,
}

/// Check the determinism contract for one case and return what the
/// drivers agreed on.
///
/// The reference is `build(machine).run()`, an `Err` included. At shard
/// counts 1, 2, 3, 4 and 8 (overriding `machine`'s), three drivers must
/// return exactly the reference:
/// `Simulation::run`, a `Session` stepped through `cuts` (absolute
/// instants) then `report()`, and a `ThreadedSession` stepped through the
/// same cuts then `finish()` — the threaded drain a run with no cuts
/// takes too. The two sessions must return the same from `step_until` at
/// every cut. An
/// `Ok` reference must conserve work: busy processor-time over the
/// makespan is useful compute plus the work crashes threw away (the
/// idle / overhead accounting of Acar, Charguéraud & Rainey,
/// arXiv 1709.03767). It must also fit its executive in the run: each
/// lane's services are disjoint spans inside the makespan, so management
/// plus serial time is at most lanes × groups × makespan.
///
/// Recording is observation only: `build(machine).with_gantt().run()`,
/// its trace taken out, is the reference too, and a trace (one group's
/// run keeps one) holds exactly the useful compute — its spans sum to
/// `compute_time`, with no span left for a task a crash preempted.
pub fn oracle(
    name: &str,
    build: impl Fn(MachineConfig) -> Simulation,
    machine: MachineConfig,
    cuts: &[u64],
) -> Verdict {
    let reference = build(machine.clone()).run();
    if let Ok(r) = &reference {
        let end = SimTime(r.makespan.ticks());
        let busy = r.busy_trace.integral(SimTime::ZERO, end);
        assert_eq!(
            busy,
            (r.compute_time + r.lost_work).ticks(),
            "{name}: busy processor-time is not compute time plus lost work"
        );
        let groups = (r.processors / machine.processors) as u64;
        let lanes = machine.executive_lanes as u64 * groups;
        let executive = (r.mgmt_time + r.serial_time).ticks();
        assert!(
            executive <= lanes * r.makespan.ticks(),
            "{name}: {executive} ticks of executive service do not fit \
             {lanes} lanes over a makespan of {}",
            r.makespan
        );
    }
    let mut traced = build(machine.clone()).with_gantt().run();
    if let Ok(r) = &mut traced {
        if let Some(gantt) = r.gantt.take() {
            let spans: u64 = gantt.spans().iter().map(|s| s.duration().ticks()).sum();
            assert_eq!(
                spans,
                r.compute_time.ticks(),
                "{name}: Gantt compute spans do not sum to compute time"
            );
        }
    }
    assert_eq!(traced, reference, "{name}: with_gantt");
    let mut stepped: Option<Vec<Result<bool, EngineError>>> = None;
    for shards in [1, 2, 3, 4, 8] {
        let at = format!("{name} [{shards} shards]");
        let sim = || build(machine.clone().with_shards(ShardPolicy::new(shards)));
        assert_eq!(sim().run(), reference, "{at}: Simulation::run");
        let mut calling = sim().into_session();
        let mut threaded = sim().into_sharded().map(ThreadedSession::new);
        let mut results = Vec::with_capacity(cuts.len());
        for &cut in cuts {
            let limit = SimTime(cut);
            let done = calling
                .as_mut()
                .map_err(|e| e.clone())
                .and_then(|s| s.step_until(limit));
            let threaded_done = threaded
                .as_mut()
                .map_err(|e| e.clone())
                .and_then(|s| s.step_until(limit));
            assert_eq!(threaded_done, done, "{at}: step_until({cut})");
            results.push(done);
        }
        assert_eq!(
            calling.and_then(Session::report),
            reference,
            "{at}: Session cut at {cuts:?}"
        );
        assert_eq!(
            threaded.and_then(ThreadedSession::finish),
            reference,
            "{at}: ThreadedSession cut at {cuts:?}"
        );
        match &stepped {
            None => stepped = Some(results),
            Some(first) => assert_eq!(&results, first, "{at}: step_until results"),
        }
    }
    Verdict {
        reference,
        cuts: stepped.expect("at least one configuration"),
    }
}
