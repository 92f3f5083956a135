//! Open-system service mode, end to end: a long Poisson arrival stream
//! driven through the session-backed engine with completed instances
//! evicted, latency percentiles and throughput reported, and — with the
//! fault layer composed on top — crash-for-crash identical results on
//! every driver, shard count and pause schedule (the determinism oracle,
//! `tests/common/mod.rs`).

mod common;

use common::oracle;
use pax_core::prelude::*;
use pax_workloads::ServiceConfig;

/// A ten-thousand-job Poisson stream completes with live-instance
/// memory bounded by the in-flight population, not the stream length,
/// and reports the operator-facing service metrics.
#[test]
fn ten_thousand_job_stream_has_bounded_memory_and_service_metrics() {
    let svc = ServiceConfig::poisson(10_000, 150)
        .with_groups(2)
        .with_admission(AdmissionPolicy::BoundedDefer { max_in_flight: 6 });
    let r = svc.simulation(MachineConfig::new(4), 11).run().unwrap();
    assert_eq!(r.jobs.len(), 10_000);
    assert_eq!(r.jobs_completed(), 10_000, "BoundedDefer sheds nothing");
    assert_eq!(r.jobs_rejected, 0);
    // Two phases per job: an unevicted run would peak at 20_000 live
    // instances. Deferred admission caps the in-flight population per
    // group, so the recycled arena stays tiny.
    assert!(
        r.instances_peak <= 2 * 2 * 6 + 8,
        "instance arena grew with the stream: peak {}",
        r.instances_peak
    );
    let p50 = r.latency_p50().expect("completed jobs have a median");
    let p99 = r.latency_p99().expect("completed jobs have a p99");
    assert!(
        p50 <= p99,
        "percentiles out of order: p50 {p50:?} p99 {p99:?}"
    );
    assert!(p50 > SimDuration::ZERO, "a job cannot finish instantly");
    assert!(r.throughput() > 0.0);
    // Every latency is admission→completion: no job finishes before the
    // tick it arrived on.
    assert!(r
        .jobs
        .iter()
        .all(|j| j.finished_at.is_none_or(|f| f >= j.arrived_at)));
}

/// Shed admission under saturation: rejected jobs are accounted and
/// excluded from the latency population, and the stream still drains.
#[test]
fn shed_admission_accounts_rejections_without_unbounded_growth() {
    let svc = ServiceConfig::poisson(2_000, 40)
        .with_admission(AdmissionPolicy::Shed { max_in_flight: 3 });
    let r = svc.simulation(MachineConfig::new(4), 5).run().unwrap();
    assert_eq!(r.jobs_completed() + r.jobs_rejected as usize, 2_000);
    assert!(r.jobs_rejected > 0, "a gap-40 stream must saturate 3 slots");
    assert!(r.instances_peak <= 2 * 3 + 4);
    for j in &r.jobs {
        assert_eq!(j.latency().is_none(), j.rejected);
    }
}

/// The PR 7 fault layer composes with service mode: a Poisson stream on
/// a crashing four-group fleet is crash-for-crash deterministic — the
/// same seeds produce the same crashes, retries, lost work, and latencies
/// on every driver and shard count, paused or not.
#[test]
fn faulty_service_stream_is_identical_across_shard_counts() {
    let svc = ServiceConfig::poisson(600, 250).with_groups(4);
    let machine = MachineConfig::new(3).with_faults(pax_workloads::degraded_fault_plan());
    let cuts = &[250, 10_000, 20_000];
    let v = oracle(
        "faulty_service",
        |cfg| svc.simulation(cfg, 23),
        machine,
        cuts,
    );
    assert!(v.reference.unwrap().crashes > 0, "fault plan never fired");
}

/// Service mode through the explicit sessions: pausing a live stream
/// every 777 ticks and resuming reaches the same final report as the
/// one-shot drive, and the pauses report the stream drained only once,
/// at the end.
#[test]
fn paused_and_resumed_service_stream_matches_one_shot() {
    let svc = ServiceConfig::poisson(400, 300).with_groups(3);
    // The stream saturates three processors a group: it drains at
    // t = 288 381.
    let cuts: Vec<u64> = (777..290_000).step_by(777).collect();
    let v = oracle(
        "paused_service",
        |cfg| svc.simulation(cfg, 9),
        MachineConfig::new(3),
        &cuts,
    );
    v.reference.unwrap();
    let drained = v.cuts.iter().position(|c| *c != Ok(false));
    let drained = drained.expect("the stream drains within the cuts");
    assert!(drained > 0 && v.cuts[drained..].iter().all(|c| *c == Ok(true)));
}

/// One job of the service program arriving at each of `instants` on
/// `machine`, accept-all unless the machine says otherwise, evicting.
fn trace_sim(machine: MachineConfig, streams: &[(usize, &[u64])]) -> Simulation {
    let svc = ServiceConfig::poisson(1, 1);
    let mut sim = Simulation::new(machine, svc.policy())
        .with_seed(3)
        .with_eviction();
    for &(group, instants) in streams {
        let trace = ArrivalProcess::trace(instants.iter().map(|&t| SimTime(t)).collect());
        sim.add_job_stream_in_group(svc.program(), trace, instants.len(), group);
    }
    sim
}

/// Arrivals wait in a feed beside the calendar and the feed wins ties:
/// an arrival is admitted before any calendar event of its tick. Under
/// `Shed { max_in_flight: 1 }` a job arriving on the exact tick the
/// in-flight job finishes therefore still finds the slot taken and is
/// shed; one tick later it is admitted. Two streams sharing an instant
/// admit in job-index order.
#[test]
fn arrivals_precede_the_events_of_their_tick_and_tie_in_job_order() {
    let shed = MachineConfig::ideal(4).with_admission(AdmissionPolicy::Shed { max_in_flight: 1 });
    let alone = trace_sim(shed.clone(), &[(0, &[100])]).run().unwrap();
    let finish = alone.jobs[0]
        .finished_at
        .expect("the lone job completes")
        .ticks();
    assert!(finish > 100);

    let on_the_tick = trace_sim(shed.clone(), &[(0, &[100, finish])])
        .run()
        .unwrap();
    assert_eq!(on_the_tick.jobs[0].finished_at, Some(SimTime(finish)));
    assert!(
        on_the_tick.jobs[1].rejected,
        "an arrival on the completion tick must see the job still in flight"
    );
    let a_tick_later = trace_sim(shed.clone(), &[(0, &[100, finish + 1])])
        .run()
        .unwrap();
    assert!(!a_tick_later.jobs[1].rejected);
    assert_eq!(a_tick_later.jobs_rejected, 0);

    // Stream 0's job has the lower index and takes the one slot, in
    // whichever order the streams list the shared instant.
    let tied = trace_sim(shed, &[(0, &[700, 50]), (0, &[50])])
        .run()
        .unwrap();
    let at_50: Vec<(usize, bool)> = tied
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.arrived_at == SimTime(50))
        .map(|(i, j)| (i, j.rejected))
        .collect();
    assert_eq!(at_50, vec![(0, false), (2, true)]);
}

/// A pause placed exactly on, one tick before and one tick after an
/// arrival instant — while every processor is idle and the calendar is
/// empty, so the pending arrival is the only thing keeping the run
/// alive — neither ends the run nor moves a tick of it, on one group and
/// on two, on every driver. A driver that looked only at the calendar
/// would report the run drained.
#[test]
fn pausing_around_an_arrival_on_an_idle_machine_matches_drain_on_every_driver() {
    // A job takes a few hundred ticks; the arrivals are thousands apart.
    const ARRIVALS: &[u64] = &[1_000, 5_000, 9_000];
    let one_group = |cfg| trace_sim(cfg, &[(0, ARRIVALS)]);
    let two_groups = |cfg| trace_sim(cfg, &[(0, ARRIVALS), (1, ARRIVALS)]);
    for limit in [4_999u64, 5_000, 5_001] {
        let one = oracle("one_group", one_group, MachineConfig::new(4), &[limit]);
        let two = oracle("two_groups", two_groups, MachineConfig::new(4), &[limit]);
        assert_eq!(one.cuts, [Ok(false)], "arrivals remain past t={limit}");
        assert_eq!(two.cuts, [Ok(false)], "arrivals remain past t={limit}");
        let completed = |v: common::Verdict| v.reference.unwrap().jobs_completed();
        assert_eq!((completed(one), completed(two)), (3, 6));
    }
}
