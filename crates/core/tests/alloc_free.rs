//! Counting-allocator regression test for the executive's steady state.
//!
//! The allocation-free rework (scratch-buffer reuse, interned steps,
//! O(1) live-list removal, `Arc`-shared composite maps) promises that
//! processing one completion event in identity-mapping steady state
//! performs **zero** heap allocations. Proving "zero per event" from
//! inside one process has a subtlety: long-lived vectors (descriptor
//! slab, waiting queue) legitimately double a logarithmic number of
//! times as a run grows, and the busy trace is reserved once from the
//! declared work. So the test runs the same identity-overlap workload at
//! two sizes and checks that the *extra* allocations per *extra* event
//! are (far) below one — the per-event term is zero, only the `O(log n)`
//! growth term remains — and that the extra bytes per extra task leave
//! no room for a second level trace.
//!
//! This file contains exactly one `#[test]` on purpose: the counters are
//! process-wide globals, and a concurrently running sibling test would
//! bleed allocations into the measurement window.

use pax_core::prelude::*;
use pax_sim::dist::CostModel;
use pax_sim::machine::MachineConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for: a block's size, and a reallocated block's new size.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Grow a scenario 4× and demand the *extra* allocations per *extra*
/// event stay (far) below one — the per-event term is zero, only the
/// `O(log n)` structure-doubling term remains. Each side is a run's
/// report and the allocations it performed.
fn assert_no_per_event_allocations(what: &str, small: (&RunReport, u64), large: (&RunReport, u64)) {
    let ((r1, a1), (r2, a2)) = (small, large);
    let extra_events = r2.events - r1.events;
    assert!(
        extra_events > 10_000,
        "scenario too small to measure ({extra_events} extra events)"
    );
    let extra_allocs = a2.saturating_sub(a1);
    let per_event = extra_allocs as f64 / extra_events as f64;
    assert!(
        per_event < 0.01,
        "{what} allocates: {per_event:.4} allocations/event \
         ({extra_allocs} extra allocations over {extra_events} extra events; \
         run sizes {a1} vs {a2})"
    );
}

/// Phases `a` then `b` of `granules` 100-tick granules, `b` enabled by
/// identity from `a`.
fn identity_pair(granules: u32) -> Program {
    let phases = ["a", "b"].map(|name| PhaseDef::new(name, granules, CostModel::constant(100)));
    Program::chain(phases.into(), vec![EnablementMapping::Identity]).unwrap()
}

/// Run a two-phase identity-overlap program (single-granule tasks — the
/// configuration with the most completion events per granule) on
/// `processors` processors under the given split strategy and executive
/// lane count (lanes > 1 lets completions' services overlap on the lane
/// timelines) and report the run plus the allocations it performed and
/// the bytes they asked for.
fn identity_run(
    processors: usize,
    granules: u32,
    strategy: SplitStrategy,
    lanes: usize,
) -> (RunReport, u64, u64) {
    let program = identity_pair(granules);
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(strategy);
    let machine = MachineConfig::new(processors).with_executive_lanes(lanes);
    let mut sim = Simulation::new(machine, policy).with_seed(1);
    sim.add_job(program);
    let bytes = BYTES.load(Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    (report, after - before, bytes)
}

/// A trace-driven stream of one-task jobs: an arrival is every fourth
/// event or so, so anything the feed path allocated per arrival would
/// show as a per-event term. The feed is one `Vec` built at `start`
/// (inside `into_session`) and consumed by a cursor; the drain after a
/// warm-up window must not touch the allocator on its account.
fn feed_run(jobs: usize) -> (RunReport, u64) {
    use pax_sim::dist::ArrivalProcess;
    let only = PhaseDef::new("only", 4, CostModel::constant(100));
    let program = Program::chain(vec![only], vec![]).unwrap();
    let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(4));
    let mut sim = Simulation::new(MachineConfig::new(8), policy)
        .with_seed(1)
        .with_eviction();
    // One arrival every 500 ticks against 400 ticks of work a job: the
    // machine stays under-loaded and the in-flight population O(1).
    let instants = (1..=jobs as u64)
        .map(|k| pax_sim::SimTime(k * 500))
        .collect();
    sim.add_job_stream(program, ArrivalProcess::trace(instants), jobs);
    let mut session = sim.into_session().unwrap();
    session.step_until(pax_sim::SimTime(40_000)).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    session.drain().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let report = session.report().unwrap();
    (report, after - before)
}

/// Feed-path steady state: 4× the arrivals, same allocations. Every
/// arrival past the warm-up window is admitted from the feed, and the
/// jobs are small enough that one allocation an arrival would read as
/// more than 0.1 an event.
fn assert_feed_path_alloc_free() {
    let (r1, a1) = feed_run(4_000);
    let (r2, a2) = feed_run(16_000);
    assert_eq!(r1.jobs_completed(), 4_000);
    assert_eq!(r2.jobs_completed(), 16_000);
    assert!(
        r2.events - r1.events < 10 * 12_000,
        "the 12 000 extra arrivals must be a large share of the extra events"
    );
    assert_no_per_event_allocations("admitting from the arrival feed", (&r1, a1), (&r2, a2));
}

/// Like [`identity_run`], but with the fault layer *enabled* and armed
/// with a scripted crash far beyond any reachable makespan: every
/// completion event pays the fault bookkeeping (staleness check, running
/// slot write) without a single crash actually firing. Pins that merely
/// turning faults on adds zero allocations per completion event.
fn faults_enabled_run(granules: u32) -> (RunReport, u64) {
    use pax_sim::{FaultPlan, ScriptedFault};
    let program = identity_pair(granules);
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(SplitStrategy::DemandSplit);
    let plan = FaultPlan::scripted(vec![ScriptedFault {
        processor: 0,
        crash_at: u64::MAX / 2,
        repair_after: None,
    }]);
    let cfg = MachineConfig::new(8).with_faults(plan);
    let mut sim = Simulation::new(cfg, policy).with_seed(1);
    sim.add_job(program);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (report, after - before)
}

/// The fault layer's hot path is per-worker `Vec`-slot writes only;
/// allocations happen exclusively on the cold crash path (which never
/// fires here). Same growth bound as the fault-free legs.
fn assert_faults_enabled_steady_state_alloc_free() {
    let (r1, a1) = faults_enabled_run(2_048);
    let (r2, a2) = faults_enabled_run(8_192);
    assert_eq!(r1.crashes, 0, "the scripted crash must lie beyond the run");
    assert_eq!(r2.crashes, 0);
    assert_no_per_event_allocations("faults-enabled completion processing", (&r1, a1), (&r2, a2));
}

/// The identity-overlap legs: one machine size, strategy and lane count
/// at 4× growth. Besides the allocation count, the bytes an extra task
/// asks for: the busy trace's two 16-byte points (32 B) plus the
/// descriptor arena's doublings read 138 (demand split) and 148
/// (presplit). A second level trace adds another 32 B a task (170 and
/// 180), above the ceiling.
fn assert_steady_state_alloc_free(processors: usize, strategy: SplitStrategy, lanes: usize) {
    const MAX_BYTES_PER_TASK: f64 = 160.0;
    let what =
        format!("{strategy:?} ({processors} processors, lanes {lanes}) completion processing");
    let (r1, a1, b1) = identity_run(processors, 2_048, strategy, lanes);
    let (r2, a2, b2) = identity_run(processors, 8_192, strategy, lanes);
    assert_eq!(r1.phases[0].stats.executed_granules, 2_048);
    assert_eq!(r2.phases[0].stats.executed_granules, 8_192);
    assert_no_per_event_allocations(&what, (&r1, a1), (&r2, a2));
    let per_task =
        b2.saturating_sub(b1) as f64 / (r2.tasks_dispatched - r1.tasks_dispatched) as f64;
    assert!(
        per_task < MAX_BYTES_PER_TASK,
        "{what} asks for {per_task:.1} bytes an extra task (run sizes {b1} vs {b2} bytes): \
         a second level trace is being kept"
    );
}

/// A staged four-group fleet on the sharded engine (uneven shard count 3,
/// so one shard carries two groups), admission edges forcing the epoch
/// coordinator through repeated conservative windows. Same growth
/// methodology as [`identity_run`].
fn sharded_fleet_run(granules_per_group: u32) -> (RunReport, u64) {
    use pax_sim::machine::ShardPolicy;
    use pax_sim::time::SimDuration;
    let program = identity_pair(granules_per_group);
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(SplitStrategy::DemandSplit);
    let cfg = MachineConfig::new(4).with_shards(ShardPolicy::new(3));
    let mut sim = Simulation::new(cfg, policy).with_seed(1);
    for g in 0..4 {
        sim.add_job_in_group(program.clone(), g);
        if g > 0 {
            sim.link_groups(g - 1, g, SimDuration(500));
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (report, after - before)
}

/// A Poisson service stream with eviction: `jobs` arrivals of the same
/// two-phase single-granule-task program, completed instances recycled
/// back into the arena. Growing the *stream* (not the per-job work) must
/// not grow the allocation count per event: once the in-flight pool is
/// warm, admitting a job reuses pooled run slots and instance slots, and
/// completing one returns them.
fn service_stream_run(jobs: usize) -> (RunReport, u64) {
    use pax_sim::dist::ArrivalProcess;
    let program = identity_pair(64);
    let policy = OverlapPolicy::overlap()
        .with_sizing(TaskSizing::Fixed(1))
        .with_split_strategy(SplitStrategy::DemandSplit);
    let mut sim = Simulation::new(MachineConfig::new(8), policy)
        .with_seed(1)
        .with_eviction();
    // Mean gap comfortably above the ~1 600-tick per-job service time:
    // an under-loaded open system, so the in-flight population (and with
    // it the warm pool) stays O(1) regardless of stream length.
    sim.add_job_stream(program, ArrivalProcess::poisson(4_000), jobs);
    // Setup (stream expansion, job table, arrival calendar) and final
    // report assembly legitimately scale with the stream length; the
    // steady-state claim is about the *service loop*, so measure only
    // the drain after a warm-up window has filled the instance pool.
    let mut session = sim.into_session().unwrap();
    session.step_until(pax_sim::SimTime(40_000)).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    session.drain().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let report = session.report().unwrap();
    (report, after - before)
}

/// Service-mode steady state: 4× the stream length, same in-flight
/// population. The per-completion (and per-admission) term is zero once
/// the pool is warm — admission takes a recycled run slot (counter file
/// and instance list kept) and the eviction path recycles instance slots
/// instead of allocating fresh ones, so only the report-row growth term
/// (set up once, O(1) a job, never per event) remains.
fn assert_service_steady_state_alloc_free() {
    let (r1, a1) = service_stream_run(64);
    let (r2, a2) = service_stream_run(256);
    assert_eq!(r1.jobs_completed(), 64);
    assert_eq!(r2.jobs_completed(), 256);
    assert!(
        r2.instances_peak <= r1.instances_peak + 4,
        "live-instance pool grew with the stream ({} -> {})",
        r1.instances_peak,
        r2.instances_peak
    );
    assert_no_per_event_allocations("service-stream completion processing", (&r1, a1), (&r2, a2));
}

/// The sharded engine's steady state: epochs reuse the outbox, note, and
/// admission buffers, so the extra allocations per extra event across a
/// 4× growth stay far below one — same bound as the single-group legs
/// (the merged report's assembly is O(groups + phases), not O(events)).
fn assert_sharded_steady_state_alloc_free() {
    let (r1, a1) = sharded_fleet_run(1_024);
    let (r2, a2) = sharded_fleet_run(4_096);
    assert_eq!(r1.jobs.len(), 4);
    assert_eq!(r2.jobs.len(), 4);
    assert_no_per_event_allocations("sharded fleet completion processing", (&r1, a1), (&r2, a2));
}

/// `iterations` passes over three 480-granule phases: `a` enables `b`
/// through a reverse-indirect map (fan 10), `b` enables `c` through a
/// forward-indirect one, both generated once and held by the program —
/// CASPER's indirect transitions without the other nineteen phases.
fn indirect_loop_run(iterations: i64) -> (RunReport, u64) {
    use std::sync::Arc;
    const GRANULES: u32 = 480;
    // Any fixed scramble will do for `IRAND`.
    let mut state = 0x9E37_79B9_u32;
    let mut irand = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 8) % GRANULES
    };
    let reverse = ReverseMap::new(
        (0..GRANULES)
            .map(|_| (0..10).map(|_| irand()).collect())
            .collect(),
        GRANULES,
    );
    let forward = ForwardMap::new((0..GRANULES).map(|_| irand()).collect(), GRANULES);
    let mut b = ProgramBuilder::new();
    let [pa, pb, pc] = ["a", "b", "c"]
        .map(|name| b.phase(PhaseDef::new(name, GRANULES, CostModel::constant(100))));
    let k = b.counter();
    let loop_top = b.next_index();
    b.dispatch_enable(
        pa,
        vec![EnableSpec {
            successor: pb,
            mapping: EnablementMapping::ReverseIndirect(Arc::new(reverse)),
        }],
    );
    b.dispatch_enable(
        pb,
        vec![EnableSpec {
            successor: pc,
            mapping: EnablementMapping::ForwardIndirect(Arc::new(forward)),
        }],
    );
    b.dispatch(pc);
    b.incr(k, 1);
    let after = b.next_index() + 1;
    b.step(Step::Branch {
        test: BranchTest::CounterLt(k, iterations),
        on_true: loop_top,
        on_false: after,
    });
    let program = b.build().unwrap();
    let mut sim = Simulation::new(MachineConfig::new(16), OverlapPolicy::overlap()).with_seed(1);
    sim.add_job(program);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = sim.run().unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (report, after - before)
}

/// A composite map is built once for the run, not once an iteration:
/// building the reverse one costs an allocation per successor granule
/// (480), so four times the iterations may add, per extra iteration,
/// only the phase instances' own buffers — far below half of that.
fn assert_composite_maps_built_once() {
    let (r1, a1) = indirect_loop_run(6);
    let (r2, a2) = indirect_loop_run(24);
    assert_eq!(r1.phases.len(), 3 * 6);
    assert_eq!(r2.phases.len(), 3 * 24);
    assert!(
        r2.total_overlap_granules() > r1.total_overlap_granules(),
        "the indirect transitions must overlap for the maps to matter"
    );
    let per_iteration = a2.saturating_sub(a1) as f64 / 18.0;
    assert!(
        per_iteration < 240.0,
        "{per_iteration:.0} extra allocations per extra iteration \
         (run sizes {a1} vs {a2}): a composite map is rebuilt per iteration"
    );
}

/// The bytes a `jobs`-job Poisson stream asks for from the builder to a
/// session ready to step, before any event runs: the set-up
/// `into_session` performs for an open system. `pooled` gives the
/// machine a resource pool and makes the stream's one phase require it.
fn stream_setup_bytes(jobs: usize, pooled: bool) -> u64 {
    use pax_sim::dist::ArrivalProcess;
    use pax_sim::machine::ResourcePool;
    let mut def = PhaseDef::new("only", 16, CostModel::constant(100));
    let mut machine = MachineConfig::new(8);
    if pooled {
        def = def.with_requires(vec!["operator".into()]);
        machine = machine.with_resources(vec![ResourcePool::new("operator", 3)]);
    }
    let program = Program::chain(vec![def], vec![]).unwrap();
    let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(4));
    let bytes = BYTES.load(Ordering::Relaxed);
    let mut sim = Simulation::new(machine, policy)
        .with_seed(1)
        .with_eviction();
    sim.add_job_stream(program, ArrivalProcess::poisson(4_000), jobs);
    let session = sim.into_session().unwrap();
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    drop(session);
    bytes
}

/// A submitted job costs the set-up its few fixed words: its program
/// handle, group and arrival instant as the builder holds them, its
/// report row and its queue and run-slot indices (about 72 B). What runs
/// a job (its counters, instance list and queue segment) is taken at
/// admission from slots the jobs in flight recycle. A job table that
/// builds the run state of every job up front reads about 224 B a job.
/// On a machine with pools a job adds a handle to its program's pool
/// requirements, resolved once for the stream (about 88 B in all), not
/// a table of its own (about 130 B).
fn assert_setup_bytes_follow_jobs_in_flight() {
    const MAX_BYTES_PER_JOB: f64 = 96.0;
    for pooled in [false, true] {
        let small = stream_setup_bytes(1_000, pooled);
        let large = stream_setup_bytes(4_000, pooled);
        let per_job = large.saturating_sub(small) as f64 / 3_000.0;
        assert!(
            per_job <= MAX_BYTES_PER_JOB,
            "set-up asks for {per_job:.1} bytes an extra submitted job \
             (stream sizes {small} vs {large} bytes, pooled: {pooled}): \
             per-job state is built up front"
        );
    }
}

#[test]
fn steady_state_completion_processing_is_allocation_free() {
    // Warm-up absorbs lazy one-time initialization.
    let _ = identity_run(8, 256, SplitStrategy::DemandSplit, 1);
    let _ = identity_run(8, 256, SplitStrategy::DemandSplit, 8);
    // Demand splitting: every dispatch splits and mirrors the split onto
    // the queued successor — the paths the SoA arena serves per event.
    assert_steady_state_alloc_free(8, SplitStrategy::DemandSplit, 1);
    // Presplitting: the whole descriptor population is carved at release
    // time, so the arena's lane growth (amortized, O(log n) doublings)
    // is the only allocation source left.
    assert_steady_state_alloc_free(8, SplitStrategy::PreSplit, 1);
    // Multi-lane executives: services spread over 8 and 64 lane
    // timelines — still zero allocations per event.
    assert_steady_state_alloc_free(8, SplitStrategy::DemandSplit, 8);
    assert_steady_state_alloc_free(8, SplitStrategy::PreSplit, 64);
    // 48 processors: a calendar population above the event queue's
    // sorted tier, so both tiers are live and every wave of completions
    // spills to the heap and refills from it — into buffers sized once.
    assert_steady_state_alloc_free(48, SplitStrategy::DemandSplit, 1);
    // Sharded fleet: the epoch loop's outbox/note/admission buffers are
    // reused across epochs, so windowed draining adds no per-event term.
    let _ = sharded_fleet_run(256);
    assert_sharded_steady_state_alloc_free();
    // Fault layer enabled but never firing: the staleness check and
    // running-slot bookkeeping on every completion allocate nothing.
    let _ = faults_enabled_run(256);
    assert_faults_enabled_steady_state_alloc_free();
    // Open-system service stream with eviction: a 4× longer arrival
    // stream admits and completes through a recycled instance pool —
    // still zero allocations per event once the pool is warm.
    let _ = service_stream_run(16);
    assert_service_steady_state_alloc_free();
    // The arrival feed: tiny jobs, so arrivals are a large share of the
    // events, admitted from a sorted `Vec` by a cursor.
    let _ = feed_run(256);
    assert_feed_path_alloc_free();
    // Looped indirect mappings: each composite map is built once, however
    // many iterations initiate a successor under it.
    let _ = indirect_loop_run(2);
    assert_composite_maps_built_once();
    // Set-up: the job table holds report rows and indices, not run state.
    let _ = stream_setup_bytes(100, true);
    assert_setup_bytes_follow_jobs_in_flight();
}
