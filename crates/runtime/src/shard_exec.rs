//! The threaded executor of the sharded simulation core: one worker
//! thread per shard, driven over channels.
//!
//! `pax-core`'s [`pax_core::shard`] module decomposes a
//! [`Simulation`](pax_core::engine::Simulation) into per-shard
//! [`ShardEngine`]s plus an epoch [`Coordinator`], and
//! owns the one epoch loop that drives them ([`ShardedRun`]), which is
//! parameterised by an [`Executor`]. This module owns the threaded
//! executor and nothing else of the protocol: [`ThreadedSession`] is a
//! [`ShardedRun`] whose executor gives every shard a worker thread, at
//! every shard count.
//!
//! An epoch is one command and one reply per shard, over
//! [`std::sync::mpsc`] channels:
//!
//! 1. the driving thread sends each worker, on that worker's own command
//!    channel, `Run(window, admissions)`: the window the loop computed
//!    and the admissions the coordinator routed to the shard;
//! 2. each worker applies the admissions, drains its shard up to the
//!    window and answers `Ran(notes)` on the one reply channel all
//!    workers share; once every shard replied, the coordinator absorbs
//!    the notes in shard order and the loop goes on.
//!
//! `Stop` ends the run: each worker answers `Stopped(engine)` and exits.
//!
//! A failure is a reply too, or the lack of one:
//!
//! * every epoch body runs under [`std::panic::catch_unwind`]; a panic
//!   becomes a `Panicked` reply that names the epoch and the window, and
//!   the worker exits;
//! * the driving thread waits for replies with `recv_timeout` against a
//!   coarse **watchdog deadline** (wall-clock, default two minutes per
//!   epoch — epochs of the pinned suites complete in milliseconds, so
//!   only a genuinely wedged thread can trip it); on expiry it names the
//!   first shard that did not reply and abandons that thread (workers
//!   are spawned detached precisely so an unkillable thread cannot block
//!   the driver's return);
//! * the first failure is sticky: the call that saw it and every later
//!   one return the same [`EngineError::ShardFailed`] `{ shard, cause }`
//!   instead of a process hang;
//! * dropping the executor — an abandoned session, or an error already
//!   returned — closes the command channels, so parked workers exit.
//!
//! Determinism is inherited, not re-proven: workers only ever run whole
//! windows of their own engines, and window boundaries are
//! result-invariant, so a threaded run is bit-identical to the
//! calling-thread one by construction — the equivalence suite pins it
//! anyway. Replies arrive in thread completion order, but each lands in
//! its shard's slot, so the coordinator absorbs them in shard order, as
//! the calling-thread executor does.

use pax_core::engine::EngineError;
use pax_core::report::RunReport;
use pax_core::shard::{Coordinator, Executor, GroupNote, ShardEngine, ShardedRun};
use pax_sim::time::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-epoch watchdog: how long the driver waits for every shard to
/// reply before declaring the epoch wedged. Epochs of even the largest
/// pinned workloads complete in milliseconds of wall-clock; two minutes
/// is pure headroom for grotesquely loaded CI hosts.
const DEFAULT_WATCHDOG: Duration = Duration::from_secs(120);

/// What the driver asks of one worker.
enum Command {
    /// Deliver these `(group, admit)` admissions, then drain one
    /// conservative window (unbounded when `None`).
    Run(Option<SimTime>, Vec<(usize, SimTime)>),
    /// Hand the engine back and exit.
    Stop,
}

/// What one worker answers, tagged with its shard on the shared channel.
enum Reply {
    /// The notes of the window just drained.
    Ran(Vec<GroupNote>),
    /// The engine, handed back on [`Command::Stop`].
    Stopped(ShardEngine),
    /// The epoch body panicked (the cause); the worker has exited.
    Panicked(String),
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
/// shard.
///
/// `step_until` pauses the whole fleet at a global time bound (arrival
/// streams keep the calendars populated between calls), `drain` runs to
/// completion, and `finish` stops the workers and merges the report —
/// all three are [`ShardedRun`]'s, the loop every driver shares.
pub struct ThreadedSession {
    run: ShardedRun<ThreadExecutor>,
}

impl ThreadedSession {
    /// Spawn the shard workers with the default watchdog.
    pub fn new(run: ShardedRun) -> ThreadedSession {
        Self::spawn(run, DEFAULT_WATCHDOG, |_, _| {})
    }

    /// Hand the run's shard engines to worker threads (detached — the
    /// watchdog abandons a wedged thread rather than joining on it),
    /// each parked on its command channel awaiting the first epoch.
    /// `hook(shard, epoch)` is invoked inside the `catch_unwind` envelope
    /// before each window is drained — the chaos tests inject panicking
    /// and sleeping hooks there to simulate shard failures.
    fn spawn<F>(run: ShardedRun, watchdog: Duration, hook: F) -> ThreadedSession
    where
        F: Fn(usize, u64) + Send + Sync + 'static,
    {
        let hook = Arc::new(hook);
        let run = run.with_executor(|shards| {
            let (reply, replies) = channel();
            let commands = shards.into_iter().enumerate().map(|(i, shard)| {
                let (command, commands) = channel();
                let (reply, hook) = (reply.clone(), Arc::clone(&hook));
                std::thread::Builder::new()
                    .name(format!("pax-shard-{i}"))
                    .spawn(move || worker(i, shard, &commands, &reply, &*hook))
                    .expect("spawn shard worker thread");
                command
            });
            ThreadExecutor {
                commands: commands.collect(),
                replies,
                watchdog,
                epoch: 0,
                failed: None,
            }
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

/// The driving side of the channels: a command sender per shard worker
/// and the one reply receiver they all send to.
struct ThreadExecutor {
    commands: Vec<Sender<Command>>,
    replies: Receiver<(usize, Reply)>,
    watchdog: Duration,
    /// Rounds sent so far, the final `Stop` included: the epoch a
    /// watchdog cause names (the `Run`s are numbered as the workers
    /// number them).
    epoch: u64,
    /// The first failure, `(shard, cause)`; every later call returns it.
    failed: Option<(usize, String)>,
}

impl ThreadExecutor {
    /// Send every shard `command(shard)` and return the replies in shard
    /// order, once every shard answered. The first failure — a panic, the
    /// watchdog's expiry, or workers gone without a reply — is kept: this
    /// call and every later one return it.
    fn round(&mut self, command: impl Fn(usize) -> Command) -> Result<Vec<Reply>, EngineError> {
        let mut replies: Vec<Option<Reply>> = self.commands.iter().map(|_| None).collect();
        if self.failed.is_none() {
            self.epoch += 1;
            for (i, to) in self.commands.iter().enumerate() {
                // A worker hangs up only after a failure, which is sticky.
                let _ = to.send(command(i));
            }
            let deadline = Instant::now() + self.watchdog;
            while let Some(missing) = replies.iter().position(Option::is_none) {
                let wait = deadline.saturating_duration_since(Instant::now());
                let failure = match self.replies.recv_timeout(wait) {
                    Ok((i, Reply::Panicked(cause))) => (i, cause),
                    Ok((i, reply)) => {
                        replies[i] = Some(reply);
                        continue;
                    }
                    Err(RecvTimeoutError::Timeout) => (
                        missing,
                        format!(
                            "wedged: no reply for epoch {} within the {:?} watchdog",
                            self.epoch, self.watchdog
                        ),
                    ),
                    Err(RecvTimeoutError::Disconnected) => (
                        missing,
                        format!("exited without replying in epoch {}", self.epoch),
                    ),
                };
                self.failed = Some(failure);
                break;
            }
        }
        match self.failed.clone() {
            None => Ok(replies.into_iter().flatten().collect()),
            Some((shard, cause)) => Err(EngineError::ShardFailed { shard, cause }),
        }
    }
}

impl Executor for ThreadExecutor {
    fn run_epoch(
        &mut self,
        window: Option<SimTime>,
        coordinator: &mut Coordinator,
    ) -> Result<(), EngineError> {
        let mut admissions = Vec::new();
        coordinator.drain_admissions(&mut admissions);
        let shard_count = self.commands.len();
        let ran = self.round(|shard| {
            let mine = admissions
                .iter()
                .filter(|&&(g, _)| g % shard_count == shard);
            Command::Run(window, mine.copied().collect())
        })?;
        for reply in ran {
            if let Reply::Ran(notes) = reply {
                coordinator.absorb(&notes);
            }
        }
        Ok(())
    }

    fn take_shards(&mut self) -> Result<Vec<ShardEngine>, EngineError> {
        let stopped = self.round(|_| Command::Stop)?.into_iter();
        Ok(stopped
            .filter_map(|reply| match reply {
                Reply::Stopped(shard) => Some(shard),
                _ => None,
            })
            .collect())
    }
}

/// One shard thread: run each epoch it is sent under `catch_unwind` and
/// reply. It exits after a panic, on `Stop`, or once the executor is
/// dropped and its command channel closes.
fn worker<F>(
    i: usize,
    mut shard: ShardEngine,
    commands: &Receiver<Command>,
    replies: &Sender<(usize, Reply)>,
    hook: &F,
) where
    F: Fn(usize, u64),
{
    let mut epoch = 0u64;
    while let Ok(Command::Run(window, admissions)) = commands.recv() {
        epoch += 1;
        let body = catch_unwind(AssertUnwindSafe(|| {
            hook(i, epoch);
            for (g, at) in admissions {
                shard.deliver(g, at);
            }
            shard.run_window(window);
        }));
        let reply = match body {
            Ok(()) => Reply::Ran(shard.notes().to_vec()),
            Err(payload) => {
                let window = window.map_or("unbounded".to_string(), |w| format!("to {w}"));
                let cause = format!(
                    "panicked in epoch {epoch} (window {window}): {}",
                    panic_message(payload)
                );
                let _ = replies.send((i, Reply::Panicked(cause)));
                return;
            }
        };
        if replies.send((i, reply)).is_err() {
            return;
        }
    }
    // `Stop`, or the executor is gone and this send goes unheard.
    let _ = replies.send((i, Reply::Stopped(shard)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_core::engine::Simulation;
    use pax_core::mapping::EnablementMapping;
    use pax_core::phase::PhaseDef;
    use pax_core::policy::OverlapPolicy;
    use pax_core::program::Program;
    use pax_sim::dist::CostModel;
    use pax_sim::machine::MachineConfig;
    use pax_sim::ShardPolicy;

    fn fleet(shards: usize, groups: usize) -> Simulation {
        let mut sim = Simulation::new(
            MachineConfig::new(4).with_shards(ShardPolicy::new(shards)),
            OverlapPolicy::overlap(),
        )
        .with_seed(7);
        let phases = ["a", "z"].map(|name| PhaseDef::new(name, 48, CostModel::constant(5)));
        let program = Program::chain(phases.into(), vec![EnablementMapping::Identity]).unwrap();
        for g in 0..groups {
            sim.add_job_in_group(program.clone(), g);
        }
        sim
    }

    /// A shard thread that panics mid-epoch must surface as a structured
    /// `ShardFailed` naming the epoch — fast, via its `Panicked` reply,
    /// not the watchdog.
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
                assert!(cause.contains("epoch 1"), "{cause}");
            }
            other => panic!("expected ShardFailed, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "panic must cancel the epoch promptly, took {elapsed:?}"
        );
    }

    /// A shard thread that wedges (never replies) trips the watchdog
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

    /// After a failure, a fresh run on the same process still works (no
    /// global state was corrupted).
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

    /// Dropping a session that still has work closes the command
    /// channels: every parked worker exits and drops its hook.
    #[test]
    fn dropped_session_releases_its_threads() {
        let marker = Arc::new(());
        let held = Arc::clone(&marker);
        let mut session = ThreadedSession::spawn(
            fleet(3, 6).into_sharded().unwrap(),
            DEFAULT_WATCHDOG,
            move |_, _| {
                let _hook_holds = &held;
            },
        );
        assert!(
            !session.step_until(SimTime(20)).unwrap(),
            "the cut leaves work"
        );
        assert!(Arc::strong_count(&marker) > 1);
        drop(session);
        let started = Instant::now();
        while Arc::strong_count(&marker) > 1 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "shard workers outlived their session"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
