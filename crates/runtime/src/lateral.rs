//! Lateral worker-to-worker scheduling — the paper's named extension.
//!
//! Among the "additional strategies which have been identified for
//! development" the paper lists "a direct worker-to-worker lateral
//! communication scheme": letting workers hand work to each other instead
//! of funnelling every dispatch through the serial executive. Four
//! decades later that idea is work stealing; this module implements it
//! with crossbeam deques so the repository can measure what the strategy
//! buys over the central-executive executor in [`crate::executor`].
//!
//! The overlap machinery is the same code — `crate::book`: identity
//! releases, composite-map enablement counters, a one-phase lookahead
//! window — but releases go to the *releasing worker's own deque*
//! (lateral hand-off); idle workers steal from peers, and only the book
//! takes a lock. This module owns the deques, the injector, the steal
//! order and the steal counters.

use crate::book::{Panic, PhaseBook, Task};
use crate::executor::{RtPhase, RtReport, RuntimeConfig};
use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use parking_lot::Mutex;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Shared {
    specs: Vec<RtPhase>,
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    /// Per-worker victim order: same-cluster peers first when the config
    /// clusters workers (proximity-aware stealing), flat order otherwise.
    /// `(victim, same_cluster)` pairs, fixed at startup.
    steal_order: Vec<Vec<(usize, bool)>>,
    book: Mutex<PhaseBook>,
    /// Set when the chain completes, or when a granule panics.
    done: AtomicBool,
    /// The first granule panic.
    panic: Mutex<Option<Panic>>,
    tasks_executed: AtomicU64,
    steals_same_cluster: AtomicU64,
    steals_cross_cluster: AtomicU64,
}

impl Shared {
    fn find_task(&self, local: &Deque<Task>, id: usize) -> Option<Task> {
        // own deque first (lateral locality), then the injector, then
        // steal from peers — same-cluster victims before remote ones when
        // proximity stealing is on
        if let Some(t) = local.pop() {
            return Some(t);
        }
        loop {
            match self.injector.steal_batch_and_pop(local) {
                crossbeam::deque::Steal::Success(t) => return Some(t),
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
        for &(victim, same) in &self.steal_order[id] {
            loop {
                match self.stealers[victim].steal() {
                    crossbeam::deque::Steal::Success(t) => {
                        if same {
                            self.steals_same_cluster.fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.steals_cross_cluster.fetch_add(1, Ordering::Relaxed);
                        }
                        return Some(t);
                    }
                    crossbeam::deque::Steal::Retry => continue,
                    crossbeam::deque::Steal::Empty => break,
                }
            }
        }
        None
    }
}

/// Victim order for each thief: same-cluster peers, then cross-cluster
/// peers, each in ascending id. With clustering disabled every peer is
/// "cross-cluster" in flat id order.
fn build_steal_order(cfg: &RuntimeConfig) -> Vec<Vec<(usize, bool)>> {
    (0..cfg.workers)
        .map(|id| {
            let my = cfg.worker_cluster(id);
            let mut order: Vec<(usize, bool)> = (0..cfg.workers)
                .filter(|&v| v != id)
                .map(|v| (v, cfg.clusters.is_some() && cfg.worker_cluster(v) == my))
                .collect();
            // stable partition: same-cluster victims first
            order.sort_by_key(|&(_, same)| !same);
            order
        })
        .collect()
}

/// Run a phase chain on the lateral (work-stealing) executor. A granule
/// that panics stops the run, and its panic is re-raised here once every
/// worker has exited.
pub fn run_chain_lateral(specs: Vec<RtPhase>, cfg: RuntimeConfig) -> RtReport {
    let mut book = PhaseBook::new(&specs, &cfg);
    let workers = cfg.workers;
    let deques: Vec<Deque<Task>> = (0..workers).map(|_| Deque::new_fifo()).collect();
    let stealers: Vec<Stealer<Task>> = deques.iter().map(|d| d.stealer()).collect();
    let injector = Injector::new();
    let t0 = Instant::now();
    // nobody owns the first releases: they go to the global injector
    book.start(&mut |task| injector.push(task));
    let shared = Arc::new(Shared {
        book: Mutex::new(book),
        specs,
        steal_order: build_steal_order(&cfg),
        injector,
        stealers,
        done: AtomicBool::new(false),
        panic: Mutex::new(None),
        tasks_executed: AtomicU64::new(0),
        steals_same_cluster: AtomicU64::new(0),
        steals_cross_cluster: AtomicU64::new(0),
    });

    let mut handles = Vec::with_capacity(workers);
    for (id, deque) in deques.into_iter().enumerate() {
        let sh = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let mut busy = Duration::ZERO;
            while !sh.done.load(Ordering::Acquire) {
                let Some(t) = sh.find_task(&deque, id) else {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                    continue;
                };
                sh.book.lock().on_task_start(t, Instant::now());
                let start = Instant::now();
                let ran = t.run(&sh.specs);
                busy += start.elapsed();
                if let Err(payload) = ran {
                    sh.panic.lock().get_or_insert(payload);
                    sh.done.store(true, Ordering::Release);
                    break;
                }
                sh.tasks_executed.fetch_add(1, Ordering::AcqRel);
                // lateral hand-off: whatever `t` enables goes to this
                // worker's own deque, warm in cache
                let now = Instant::now();
                let done = sh
                    .book
                    .lock()
                    .complete(t, now, &mut |task| deque.push(task));
                if done {
                    sh.done.store(true, Ordering::Release);
                }
            }
            busy
        }));
    }

    let mut busy_total = Duration::ZERO;
    for h in handles {
        busy_total += h.join().expect("worker panicked");
    }
    let wall = t0.elapsed();
    if let Some(payload) = shared.panic.lock().take() {
        resume_unwind(payload);
    }
    let phases = shared.book.lock().phase_reports(&shared.specs, t0);
    RtReport {
        wall,
        busy: busy_total,
        workers,
        tasks: shared.tasks_executed.load(Ordering::Acquire),
        steals_same_cluster: shared.steals_same_cluster.load(Ordering::Relaxed),
        steals_cross_cluster: shared.steals_cross_cluster.load(Ordering::Relaxed),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{spin_for, SharedF64};
    use pax_core::mapping::{EnablementMapping, ReverseMap};
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    /// `n` zeroed run counters, one a granule.
    fn counters(n: u32) -> Arc<[AtomicU64]> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    #[test]
    fn every_granule_runs_exactly_once() {
        let c1 = counters(200);
        let c2 = counters(200);
        let mk = |c: &Arc<[AtomicU64]>, name: &str| {
            let c = Arc::clone(c);
            RtPhase::new(
                name,
                200,
                Arc::new(move |g| {
                    c[g as usize].fetch_add(1, SeqCst);
                }),
            )
        };
        let phases = vec![
            mk(&c1, "a").with_mapping(EnablementMapping::Identity),
            mk(&c2, "b"),
        ];
        let r = run_chain_lateral(phases, RuntimeConfig::new(4, 8));
        for i in 0..200 {
            assert_eq!(c1[i].load(SeqCst), 1, "phase a granule {i}");
            assert_eq!(c2[i].load(SeqCst), 1, "phase b granule {i}");
        }
        assert_eq!(r.tasks, 50);
    }

    #[test]
    fn identity_dataflow_preserved_under_stealing() {
        let n = 300u32;
        let b = Arc::new(SharedF64::zeros(n as usize));
        let c = Arc::new(SharedF64::zeros(n as usize));
        let b1 = Arc::clone(&b);
        let p1 = RtPhase::new(
            "w",
            n,
            Arc::new(move |g| {
                spin_for(Duration::from_micros(15));
                b1.set(g as usize, g as f64 * 3.0);
            }),
        )
        .with_mapping(EnablementMapping::Identity);
        let b2 = Arc::clone(&b);
        let c2 = Arc::clone(&c);
        let p2 = RtPhase::new(
            "r",
            n,
            Arc::new(move |g| {
                c2.set(g as usize, b2.get(g as usize) + 1.0);
            }),
        );
        run_chain_lateral(vec![p1, p2], RuntimeConfig::new(4, 4));
        for g in 0..n {
            assert_eq!(c.get(g as usize), g as f64 * 3.0 + 1.0, "granule {g}");
        }
    }

    #[test]
    fn counted_dataflow_preserved_under_stealing() {
        let n = 150u32;
        let req: Vec<Vec<u32>> = (0..n).map(|r| vec![r, (r + 3) % n]).collect();
        let reverse = EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(req, n)));
        let a = Arc::new(SharedF64::zeros(n as usize));
        let out = Arc::new(SharedF64::zeros(n as usize));
        let a1 = Arc::clone(&a);
        let p1 = RtPhase::new(
            "gen",
            n,
            Arc::new(move |g| {
                spin_for(Duration::from_micros(10));
                a1.set(g as usize, g as f64);
            }),
        )
        .with_mapping(reverse);
        let a2 = Arc::clone(&a);
        let o = Arc::clone(&out);
        let p2 = RtPhase::new(
            "use",
            n,
            Arc::new(move |g| {
                o.set(
                    g as usize,
                    a2.get(g as usize) + a2.get(((g + 3) % n) as usize),
                );
            }),
        );
        run_chain_lateral(vec![p1, p2], RuntimeConfig::new(4, 2));
        for g in 0..n {
            assert_eq!(
                out.get(g as usize),
                g as f64 + ((g + 3) % n) as f64,
                "granule {g}"
            );
        }
    }

    #[test]
    fn barrier_mode_matches_central_executor_semantics() {
        let c = counters(64);
        let cc = Arc::clone(&c);
        let phases = vec![
            RtPhase::synthetic("a", 64, Duration::from_micros(5))
                .with_mapping(EnablementMapping::Universal),
            RtPhase::new(
                "b",
                64,
                Arc::new(move |g| {
                    cc[g as usize].fetch_add(1, SeqCst);
                }),
            ),
        ];
        let r = run_chain_lateral(phases, RuntimeConfig::new(3, 4).barrier());
        assert_eq!(r.total_overlap_granules(), 0);
        for i in 0..64 {
            assert_eq!(c[i].load(SeqCst), 1);
        }
    }

    #[test]
    fn steal_order_partitions_by_cluster() {
        let cfg = RuntimeConfig::new(8, 4).with_clusters(4);
        let order = build_steal_order(&cfg);
        // worker 0 (cluster 0) raids worker 1 (cluster 0) first, then the
        // six cross-cluster peers
        assert_eq!(order[0][0], (1, true));
        assert!(order[0][1..].iter().all(|&(_, same)| !same));
        assert_eq!(order[0].len(), 7);
        // worker 5 (cluster 2) pairs with worker 4
        assert_eq!(order[5][0], (4, true));
    }

    #[test]
    fn flat_steal_order_without_clusters() {
        let cfg = RuntimeConfig::new(4, 4);
        let order = build_steal_order(&cfg);
        assert_eq!(
            order[2],
            vec![(0, false), (1, false), (3, false)],
            "id order, all cross-cluster"
        );
    }

    #[test]
    fn cluster_stealing_preserves_correctness_and_counts_steals() {
        let n = 400u32;
        let c1 = counters(n);
        let c2 = counters(n);
        let mk = |c: &Arc<[AtomicU64]>, name: &str| {
            let c = Arc::clone(c);
            RtPhase::new(
                name,
                n,
                Arc::new(move |g| {
                    spin_for(Duration::from_micros(5));
                    c[g as usize].fetch_add(1, SeqCst);
                }),
            )
        };
        let phases = vec![
            mk(&c1, "a").with_mapping(EnablementMapping::Identity),
            mk(&c2, "b"),
        ];
        let r = run_chain_lateral(phases, RuntimeConfig::new(4, 4).with_clusters(2));
        for i in 0..n as usize {
            assert_eq!(c1[i].load(SeqCst), 1);
            assert_eq!(c2[i].load(SeqCst), 1);
        }
        // steal accounting is consistent: total steals cannot exceed tasks
        assert!(r.steals_same_cluster + r.steals_cross_cluster <= r.tasks);
    }

    #[test]
    fn clustered_stealing_prefers_same_cluster_victims() {
        // Starve three of four workers (all work starts on one deque via
        // the injector after a single-task first phase), then watch where
        // steals land. Same-cluster steals should appear whenever any
        // stealing happens at all; cross-cluster steals only occur when a
        // whole cluster is dry. Run a few times to dodge scheduling luck.
        let mut same_total = 0u64;
        let mut cross_total = 0u64;
        for _ in 0..5 {
            let phases = vec![
                RtPhase::synthetic("a", 64, Duration::from_micros(50))
                    .with_mapping(EnablementMapping::Identity),
                RtPhase::synthetic("b", 64, Duration::from_micros(50)),
            ];
            let r = run_chain_lateral(phases, RuntimeConfig::new(4, 2).with_clusters(2));
            same_total += r.steals_same_cluster;
            cross_total += r.steals_cross_cluster;
        }
        // identity hand-off keeps successor work on the completing worker,
        // so peers must steal; with cluster preference the same-cluster
        // channel should carry a share whenever substantial stealing
        // occurred. (Below ~50 total steals the sample is too small to
        // judge preference — OS scheduling on a loaded 2-core VM can
        // legitimately route a handful of steals anywhere.)
        if same_total + cross_total > 50 {
            assert!(
                same_total > 0,
                "no same-cluster steals in {same_total}+{cross_total}"
            );
        }
    }

    #[test]
    fn lateral_overlaps_universal_chains() {
        let phases: Vec<RtPhase> = (0..3)
            .map(|i| {
                let p = RtPhase::synthetic(format!("p{i}"), 30, Duration::from_micros(100));
                if i < 2 {
                    p.with_mapping(EnablementMapping::Universal)
                } else {
                    p
                }
            })
            .collect();
        let r = run_chain_lateral(phases, RuntimeConfig::new(4, 1));
        assert!(r.total_overlap_granules() > 0);
        assert_eq!(r.tasks, 90);
    }
}
