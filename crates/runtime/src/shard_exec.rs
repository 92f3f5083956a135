//! The threaded executor of the sharded simulation core: one worker
//! thread per shard behind a cancellable epoch gate.
//!
//! `pax-core`'s [`pax_core::shard`] module decomposes a
//! [`Simulation`](pax_core::engine::Simulation) into per-shard
//! [`ShardEngine`]s plus an epoch [`Coordinator`], and
//! owns the one epoch loop that drives them ([`ShardedRun`]), which is
//! parameterised by an [`Executor`]. This module owns the threaded
//! executor and nothing else of the protocol: [`ThreadedSession`] is a
//! [`ShardedRun`] whose executor is the **gate** — a mutex-and-condvar
//! rendezvous that replaces the naked `std::sync::Barrier` an earlier
//! revision used, because a barrier has no failure mode: one panicking or
//! wedged shard thread left every other participant (the coordinator
//! included) blocked in `Barrier::wait` forever.
//!
//! One epoch through the gate is two phases:
//!
//! 1. **release** — the driving thread publishes the epoch command (the
//!    window the loop computed, or stop) and bumps the gate's epoch
//!    counter; each worker wakes, applies the admissions routed to its
//!    inbox, and drains its shard's calendars up to the window;
//! 2. **join** — workers deposit their outbox notes into the shared
//!    exchange and check in; once every shard checked in, the coordinator
//!    absorbs the notes and the loop goes on.
//!
//! Unlike a barrier, the gate is **failure-aware**:
//!
//! * every epoch body runs under [`std::panic::catch_unwind`]; a panic
//!   poisons the gate (records the shard and the panic message) instead
//!   of unwinding through the rendezvous, and every other participant —
//!   workers waiting for the next epoch and the driving thread waiting
//!   for check-ins — observes the poisoned flag and cancels;
//! * the driving thread's wait is guarded by a coarse **watchdog
//!   deadline** (wall-clock, default two minutes per epoch — epochs of
//!   the pinned suites complete in milliseconds, so only a genuinely
//!   wedged thread can trip it); on expiry the gate is poisoned naming
//!   the first shard that failed to check in, and the wedged thread is
//!   abandoned (workers are spawned detached precisely so an unkillable
//!   thread cannot block the driver's return);
//! * dropping the executor — an abandoned session, or an error already
//!   returned — poisons the gate too, so parked workers exit;
//! * either way the caller gets a structured
//!   [`EngineError::ShardFailed`] `{ shard, cause }` instead of a
//!   process hang.
//!
//! Determinism is inherited, not re-proven: workers only ever run whole
//! windows of their own engines, and window boundaries are
//! result-invariant, so a threaded run is bit-identical to the
//! calling-thread one by construction — the equivalence suite pins it
//! anyway. Note order in the exchange varies with thread completion
//! order, but `Coordinator::absorb` is order-insensitive within an epoch
//! (each note targets its own group; admissions are exact maxes over
//! finish times), so the nondeterministic arrival order never reaches
//! the results.

use pax_core::engine::EngineError;
use pax_core::report::RunReport;
use pax_core::shard::{Coordinator, Executor, GroupNote, ShardEngine, ShardedRun};
use pax_sim::time::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-epoch watchdog: how long the coordinator will wait for every
/// shard to check in before declaring the epoch wedged. Epochs of even
/// the largest pinned workloads complete in milliseconds of wall-clock;
/// two minutes is pure headroom for grotesquely loaded CI hosts.
const DEFAULT_WATCHDOG: Duration = Duration::from_secs(120);

/// What the coordinator asks of the workers this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Drain one conservative window (unbounded when `None`).
    Run(Option<SimTime>),
    /// Hand the engine back and exit.
    Stop,
}

/// Everything the gate guards. One mutex covers command publication,
/// check-ins, note exchange, admission inboxes, and the poison flag —
/// epoch traffic is a handful of lock acquisitions per shard, so a
/// single lock is simpler and plenty.
struct GateState {
    /// Bumped once per published epoch; workers wait for it to move.
    epoch: u64,
    command: Command,
    /// Which shards checked in for the current epoch.
    done: Vec<bool>,
    /// First failure observed: `(shard, cause)`. Once set, every
    /// participant cancels.
    poisoned: Option<(usize, String)>,
    /// Outbox notes deposited this epoch.
    exchange: Vec<GroupNote>,
    /// Admissions routed to each shard for its next epoch.
    inboxes: Vec<Vec<(usize, SimTime)>>,
    /// Engines handed back on [`Command::Stop`].
    returned: Vec<(usize, ShardEngine)>,
}

/// The cancellable epoch gate.
struct Gate {
    state: Mutex<GateState>,
    /// Wakes workers: a new epoch was published, or the gate poisoned.
    publish: Condvar,
    /// Wakes the coordinator: a worker checked in, or the gate poisoned.
    checkin: Condvar,
}

impl Gate {
    fn new(shards: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState {
                epoch: 0,
                command: Command::Stop,
                done: vec![false; shards],
                poisoned: None,
                exchange: Vec::new(),
                inboxes: (0..shards).map(|_| Vec::new()).collect(),
                returned: Vec::with_capacity(shards),
            }),
            publish: Condvar::new(),
            checkin: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        // Worker panics are confined by `catch_unwind` before any lock
        // is re-taken, so std's poisoning can only fire if the runtime
        // itself is broken; recover the guard rather than double-panic.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a failure (first writer wins) and wake everyone.
    fn poison(&self, shard: usize, cause: String) {
        let mut st = self.lock();
        if st.poisoned.is_none() {
            st.poisoned = Some((shard, cause));
        }
        self.publish.notify_all();
        self.checkin.notify_all();
    }
}

/// Render a panic payload for the `ShardFailed` cause.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard thread panicked with a non-string payload".to_string()
    }
}

/// A long-lived threaded sharded run: the counterpart of
/// [`pax_core::engine::Session`] with one persistent worker thread per
/// shard behind the cancellable epoch gate.
///
/// `step_until` pauses the whole fleet at a global time bound (arrival
/// streams keep the calendars populated between calls), `drain` runs to
/// completion, and `finish` stops the workers and merges the report —
/// all three are [`ShardedRun`]'s, the loop every driver shares.
pub struct ThreadedSession {
    run: ShardedRun<Box<dyn Executor + Send>>,
}

impl ThreadedSession {
    /// Spawn the shard workers with the default watchdog.
    pub fn new(run: ShardedRun) -> ThreadedSession {
        Self::spawn(run, DEFAULT_WATCHDOG, |_, _| {})
    }

    /// Hand the run's shard engines to worker threads (detached — the
    /// watchdog abandons a wedged thread rather than joining on it),
    /// parked at the gate awaiting the first epoch. `hook(shard, epoch)`
    /// is invoked inside the `catch_unwind` envelope before each window
    /// is drained — the chaos tests inject panicking and sleeping hooks
    /// there to simulate shard failures.
    fn spawn<F>(run: ShardedRun, watchdog: Duration, hook: F) -> ThreadedSession
    where
        F: Fn(usize, u64) + Send + Sync + 'static,
    {
        let run = run.with_executor(|shards| -> Box<dyn Executor + Send> {
            if shards.len() <= 1 {
                // A thread plus a gate rendezvous per epoch would buy
                // nothing: keep the calling-thread executor.
                return Box::new(shards);
            }
            let gate = Arc::new(Gate::new(shards.len()));
            let hook = Arc::new(hook);
            for (i, shard) in shards.into_iter().enumerate() {
                let gate = Arc::clone(&gate);
                let hook = Arc::clone(&hook);
                std::thread::Builder::new()
                    .name(format!("pax-shard-{i}"))
                    .spawn(move || worker_loop(i, shard, &gate, &*hook))
                    .expect("spawn shard worker thread");
            }
            Box::new(GateExecutor { gate, watchdog })
        });
        ThreadedSession { run }
    }

    /// Drive the fleet up to global time `limit`. Returns `Ok(true)` once
    /// every group finished, `Ok(false)` when the fleet paused at the
    /// limit with work left.
    pub fn step_until(&mut self, limit: SimTime) -> Result<bool, EngineError> {
        self.run.step_until(limit)
    }

    /// Run the fleet to completion (every calendar drained).
    pub fn drain(&mut self) -> Result<(), EngineError> {
        self.run.drain()
    }

    /// Drain any remaining work, stop the workers, and merge the final
    /// [`RunReport`].
    pub fn finish(self) -> Result<RunReport, EngineError> {
        self.run.report()
    }
}

/// The gate side of the epoch protocol: each epoch is one
/// [`publish_and_wait`] rendezvous with the worker threads.
struct GateExecutor {
    gate: Arc<Gate>,
    watchdog: Duration,
}

impl Executor for GateExecutor {
    fn run_epoch(
        &mut self,
        window: Option<SimTime>,
        coordinator: &mut Coordinator,
    ) -> Result<(), EngineError> {
        publish_and_wait(&self.gate, Command::Run(window), self.watchdog)?;
        let mut st = self.gate.lock();
        coordinator.absorb(&st.exchange);
        st.exchange.clear();
        Ok(())
    }

    fn deliver(&mut self, group: usize, admit: SimTime) {
        let mut st = self.gate.lock();
        let n = st.inboxes.len();
        st.inboxes[group % n].push((group, admit));
    }

    fn take_shards(&mut self) -> Result<Vec<ShardEngine>, EngineError> {
        publish_and_wait(&self.gate, Command::Stop, self.watchdog)?;
        let mut returned = std::mem::take(&mut self.gate.lock().returned);
        returned.sort_by_key(|&(i, _)| i);
        Ok(returned.into_iter().map(|(_, s)| s).collect())
    }
}

impl Drop for GateExecutor {
    fn drop(&mut self) {
        // Abandoned mid-run (or an error path already returned): cancel
        // any workers parked at the gate so the detached threads exit
        // instead of waiting forever. First-writer-wins makes this a
        // no-op after a real failure already poisoned, and after a clean
        // stop there is nobody left to wake.
        self.gate
            .poison(0, "session dropped before finish".to_string());
    }
}

/// One shard thread: wait for each published epoch, run it under
/// `catch_unwind`, check in; exit on stop or when the gate poisons.
fn worker_loop<F>(i: usize, mut shard: ShardEngine, gate: &Gate, hook: &F)
where
    F: Fn(usize, u64),
{
    let mut seen_epoch = 0u64;
    loop {
        let (cmd, epoch, admissions) = {
            let mut st = gate.lock();
            while st.epoch == seen_epoch && st.poisoned.is_none() {
                st = gate.publish.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.poisoned.is_some() {
                return; // cancelled: abandon the engine
            }
            seen_epoch = st.epoch;
            (st.command, st.epoch, std::mem::take(&mut st.inboxes[i]))
        };
        match cmd {
            Command::Stop => {
                let mut st = gate.lock();
                st.returned.push((i, shard));
                st.done[i] = true;
                gate.checkin.notify_all();
                return;
            }
            Command::Run(window) => {
                let body = catch_unwind(AssertUnwindSafe(|| {
                    hook(i, epoch);
                    for (g, at) in admissions {
                        shard.deliver(g, at);
                    }
                    shard.run_window(window);
                }));
                match body {
                    Ok(()) => {
                        let mut st = gate.lock();
                        if st.poisoned.is_some() {
                            return;
                        }
                        st.exchange.extend_from_slice(shard.notes());
                        st.done[i] = true;
                        gate.checkin.notify_all();
                    }
                    Err(payload) => {
                        gate.poison(i, format!("panicked: {}", panic_message(payload)));
                        return;
                    }
                }
            }
        }
    }
}

/// Publish one epoch command, then wait — watchdog-guarded — until every
/// shard checks in. A panic or watchdog expiry yields
/// [`EngineError::ShardFailed`].
fn publish_and_wait(gate: &Gate, cmd: Command, watchdog: Duration) -> Result<(), EngineError> {
    let mut st = gate.lock();
    for d in st.done.iter_mut() {
        *d = false;
    }
    st.command = cmd;
    st.epoch += 1;
    gate.publish.notify_all();
    let deadline = Instant::now() + watchdog;
    loop {
        if let Some((shard, cause)) = st.poisoned.clone() {
            return Err(EngineError::ShardFailed { shard, cause });
        }
        if st.done.iter().all(|&d| d) {
            return Ok(());
        }
        let now = Instant::now();
        if now >= deadline {
            let shard = st.done.iter().position(|&d| !d).unwrap_or(0);
            let cause = format!(
                "wedged: no check-in for epoch {} within the {:?} watchdog",
                st.epoch, watchdog
            );
            st.poisoned = Some((shard, cause.clone()));
            // Wake waiting workers so they observe the poison and exit;
            // the wedged thread itself is abandoned.
            gate.publish.notify_all();
            return Err(EngineError::ShardFailed { shard, cause });
        }
        let (guard, _) = gate
            .checkin
            .wait_timeout(st, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_core::engine::Simulation;
    use pax_core::mapping::EnablementMapping;
    use pax_core::phase::PhaseDef;
    use pax_core::policy::OverlapPolicy;
    use pax_core::program::{EnableSpec, Program, ProgramBuilder};
    use pax_sim::dist::CostModel;
    use pax_sim::machine::MachineConfig;
    use pax_sim::ShardPolicy;

    fn overlap_program(granules: u32, cost: u64) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", granules, CostModel::constant(cost)));
        let z = b.phase(PhaseDef::new("z", granules, CostModel::constant(cost)));
        b.dispatch_enable(
            a,
            vec![EnableSpec {
                successor: z,
                mapping: EnablementMapping::Identity,
            }],
        );
        b.dispatch(z);
        b.build().unwrap()
    }

    fn fleet(shards: usize, groups: usize) -> Simulation {
        let mut sim = Simulation::new(
            MachineConfig::new(4).with_shards(ShardPolicy::new(shards)),
            OverlapPolicy::overlap(),
        )
        .with_seed(7);
        for g in 0..groups {
            sim.add_job_in_group(overlap_program(48, 5), g);
        }
        sim
    }

    /// A shard thread that panics mid-epoch must surface as a structured
    /// `ShardFailed` — fast, via the poison path, not the watchdog.
    #[test]
    fn panicking_shard_surfaces_shard_failed() {
        let run = fleet(3, 6).into_sharded().unwrap();
        let started = Instant::now();
        let result = ThreadedSession::spawn(run, DEFAULT_WATCHDOG, |shard, epoch| {
            if shard == 1 && epoch == 1 {
                panic!("chaos: injected shard panic");
            }
        })
        .finish();
        let elapsed = started.elapsed();
        match result {
            Err(EngineError::ShardFailed { shard, cause }) => {
                assert_eq!(shard, 1);
                assert!(cause.contains("injected shard panic"), "{cause}");
            }
            other => panic!("expected ShardFailed, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "panic must cancel the epoch promptly, took {elapsed:?}"
        );
    }

    /// A shard thread that wedges (never checks in) trips the watchdog
    /// within its budget instead of hanging the driver forever.
    #[test]
    fn wedged_shard_trips_the_watchdog() {
        let run = fleet(3, 6).into_sharded().unwrap();
        let watchdog = Duration::from_millis(250);
        let started = Instant::now();
        let result = ThreadedSession::spawn(run, watchdog, |shard, epoch| {
            if shard == 2 && epoch == 1 {
                std::thread::sleep(Duration::from_secs(2));
            }
        })
        .finish();
        let elapsed = started.elapsed();
        match result {
            Err(EngineError::ShardFailed { shard, cause }) => {
                assert_eq!(shard, 2);
                assert!(cause.contains("watchdog"), "{cause}");
            }
            other => panic!("expected ShardFailed, got {other:?}"),
        }
        assert!(
            elapsed >= watchdog,
            "the watchdog cannot fire before its deadline"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "the driver must return without joining the wedged thread, took {elapsed:?}"
        );
    }

    /// The poison flag cancels workers parked at the gate: after a
    /// failure, a fresh run on the same process still works (no global
    /// state was corrupted).
    #[test]
    fn driver_recovers_after_a_failed_run() {
        let run = fleet(2, 4).into_sharded().unwrap();
        let result = ThreadedSession::spawn(run, DEFAULT_WATCHDOG, |shard, _| {
            if shard == 0 {
                panic!("chaos: first run dies");
            }
        })
        .finish();
        assert!(matches!(result, Err(EngineError::ShardFailed { .. })));
        let clean = ThreadedSession::new(fleet(2, 4).into_sharded().unwrap())
            .finish()
            .unwrap();
        assert_eq!(clean.jobs.len(), 4);
    }
}
