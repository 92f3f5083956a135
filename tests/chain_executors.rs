//! The one oracle the real-thread chain executor answers to.
//!
//! A successor granule may start only after the current-phase granules its
//! enablement mapping names have ended: that is the promise the paper's
//! rundown remedy rests on, and `pax_runtime`'s book keeps it for the
//! central executive ([`run_chain`]). [`chain_oracle`] runs a chain under
//! barriers and under overlap and checks each run against what its
//! mappings promise; a case brings its chain, the dataflow it verifies,
//! and anything more it pins on the reports.

use pax_bench::experiments::e9::mini_casper_chain;
use pax_core::mapping::{EnablementMapping, ForwardMap, ReverseMap};
use pax_runtime::{run_chain, spin_for, RtPhase, RtReport, RuntimeConfig, SharedF64};
use pax_workloads::MiniCasper;
use proptest::prelude::*;
use rand::Rng;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// One mode the oracle runs every chain in.
struct Mode {
    name: &'static str,
    overlap: bool,
}

const MODES: [Mode; 2] = [
    Mode {
        name: "central barrier",
        overlap: false,
    },
    Mode {
        name: "central overlap",
        overlap: true,
    },
];

/// When one granule ran: how often, and its start and end stamps.
#[derive(Default)]
struct Stamp {
    runs: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

/// Wrap the work of every granule of `phases` in start and end stamps
/// drawn from `clock`; stamps start at 1, so 0 waits for nothing. A
/// granule's end stamp precedes the completion the book services under its
/// lock, and that precedes any release it makes, so a granule released by
/// it stamps its start later.
fn stamp(phases: &mut [RtPhase], clock: &Arc<AtomicU64>) -> Vec<Arc<Vec<Stamp>>> {
    phases
        .iter_mut()
        .map(|phase| {
            let stamps: Arc<Vec<Stamp>> =
                Arc::new((0..phase.granules).map(|_| Stamp::default()).collect());
            let (work, clock, own) = (
                Arc::clone(&phase.work),
                Arc::clone(clock),
                Arc::clone(&stamps),
            );
            phase.work = Arc::new(move |g| {
                let s = &own[g as usize];
                s.runs.fetch_add(1, SeqCst);
                s.start.store(clock.fetch_add(1, SeqCst) + 1, SeqCst);
                work(g);
                s.end.store(clock.fetch_add(1, SeqCst) + 1, SeqCst);
            });
            stamps
        })
        .collect()
}

/// For each of the `successor` granules after an edge, the latest end
/// stamp among the current granules it must wait for: identity the same
/// index, reverse and seam `requires[r]`, forward every writer of `r`,
/// universal none, and null — or any edge under barriers — the whole
/// current phase.
fn awaited(edge: &EnablementMapping, overlap: bool, ends: &[u64], successor: usize) -> Vec<u64> {
    let latest = |deps: &[u32]| deps.iter().map(|&d| ends[d as usize]).max().unwrap_or(0);
    match if overlap {
        edge
    } else {
        &EnablementMapping::Null
    } {
        EnablementMapping::Null => vec![ends.iter().copied().max().unwrap_or(0); successor],
        EnablementMapping::Universal => vec![0; successor],
        EnablementMapping::Identity => ends.to_vec(),
        EnablementMapping::ReverseIndirect(m) | EnablementMapping::Seam(m) => {
            m.requires.iter().map(|d| latest(d)).collect()
        }
        EnablementMapping::ForwardIndirect(m) => {
            let mut need = vec![0; successor];
            for (&r, &end) in m.targets.iter().zip(ends) {
                need[r as usize] = need[r as usize].max(end);
            }
            need
        }
    }
}

/// Run the chain `build` returns on every [`MODES`] entry, with `workers`
/// threads and `task` granules a task, and check each run:
///
/// - every granule ran exactly once;
/// - no granule started before the granules its edge's mapping requires
///   had ended ([`awaited`]);
/// - a barrier run overlapped nothing;
/// - the report has one row per phase, each with
///   `first_start ≤ last_end ≤ wall`;
/// - `busy ≤ wall × workers`, so `utilization()` is at most 1;
/// - `tasks` is `Σ⌈granules/task⌉` when no edge is counted (forward,
///   reverse or seam, under overlap), and at least that otherwise;
/// - the `verify` closure `build` returned beside the chain holds.
///
/// A run that has not returned within 10 s fails instead of hanging.
///
/// `name` heads every failure. Returns each mode's report for the case to
/// pin more on.
fn chain_oracle<V: FnOnce()>(
    name: &str,
    workers: usize,
    task: u32,
    build: impl Fn() -> (Vec<RtPhase>, V),
) -> Vec<(&'static Mode, RtReport)> {
    MODES
        .iter()
        .map(|mode| {
            let (mut phases, verify) = build();
            let edges: Vec<EnablementMapping> =
                phases.iter().map(|p| p.mapping_to_next.clone()).collect();
            let granules: Vec<u32> = phases.iter().map(|p| p.granules).collect();
            let clock = Arc::new(AtomicU64::new(0));
            let stamps = stamp(&mut phases, &clock);
            let mut cfg = RuntimeConfig::new(workers, task);
            cfg.overlap = mode.overlap;
            let at = format!("{name}, {}", mode.name);
            // on a helper thread, so that a chain that stalls fails
            let (running, over) = mpsc::channel::<()>();
            let helper = std::thread::spawn(move || {
                let _running = running; // dropped when the run returns or unwinds
                run_chain(phases, cfg)
            });
            if over.recv_timeout(Duration::from_secs(10)) == Err(RecvTimeoutError::Timeout) {
                panic!("{at}: no report within 10 s");
            }
            let report = helper
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));

            for (p, phase) in stamps.iter().enumerate() {
                for (g, s) in phase.iter().enumerate() {
                    let runs = s.runs.load(SeqCst);
                    assert_eq!(runs, 1, "{at}: phase {p} granule {g} ran {runs} times");
                }
            }
            for (p, (edge, pair)) in edges.iter().zip(stamps.windows(2)).enumerate() {
                let ends: Vec<u64> = pair[0].iter().map(|s| s.end.load(SeqCst)).collect();
                let need = awaited(edge, mode.overlap, &ends, pair[1].len());
                for (r, (s, need)) in pair[1].iter().zip(need).enumerate() {
                    assert!(
                        s.start.load(SeqCst) > need,
                        "{at}: phase {} granule {r} started before the granules its {} \
                         edge requires had ended",
                        p + 1,
                        edge.kind().label()
                    );
                }
            }

            if !mode.overlap {
                assert_eq!(
                    report.total_overlap_granules(),
                    0,
                    "{at}: a barrier run overlapped"
                );
            }
            assert_eq!(report.phases.len(), granules.len(), "{at}: report rows");
            for row in &report.phases {
                let (Some(first), Some(last)) = (row.first_start, row.last_end) else {
                    panic!("{at}: phase `{}` reports no run", row.name);
                };
                assert!(
                    first <= last,
                    "{at}: phase `{}` ends before it starts",
                    row.name
                );
                assert!(
                    last <= report.wall,
                    "{at}: phase `{}` ends at {last:?}, after the run's {:?}",
                    row.name,
                    report.wall
                );
            }
            assert!(
                report.busy <= report.wall * workers as u32,
                "{at}: {:?} busy on {workers} workers in {:?}",
                report.busy,
                report.wall
            );
            let least: u64 = granules.iter().map(|&g| g.div_ceil(task) as u64).sum();
            // an indirect edge under overlap releases what each completion
            // frees, in runs that may split a task
            let counted = mode.overlap
                && edges[..edges.len() - 1]
                    .iter()
                    .any(|e| e.composite().is_some());
            if counted {
                assert!(
                    report.tasks >= least,
                    "{at}: {} tasks < {least}",
                    report.tasks
                );
            } else {
                assert_eq!(report.tasks, least, "{at}: tasks");
            }
            verify();
            (mode, report)
        })
        .collect()
}

/// A phase of `n` granules running `work`, each after `spin` of busy time.
fn phase(
    name: &str,
    n: u32,
    spin: Duration,
    work: impl Fn(usize) + Send + Sync + 'static,
) -> RtPhase {
    RtPhase::new(
        name,
        n,
        Arc::new(move |g| {
            spin_for(spin);
            work(g as usize);
        }),
    )
}

#[test]
fn identity_chains_carry_their_dataflow() {
    // a[i] = i + 1, b[i] = 2 a[i], c[i] = b[i] + 1: a granule that ran
    // before its predecessor reads a zero. Three phases, so the second
    // identity edge's releases are deferred until it enters the window.
    let n = 200u32;
    let spin = Duration::from_micros(5);
    chain_oracle("identity chain", 4, 4, || {
        let [a, b, c] = [(); 3].map(|_| Arc::new(SharedF64::zeros(n as usize)));
        let (a1, a2, b2, b3, c3) = (a.clone(), a, b.clone(), b, c.clone());
        let chain = vec![
            phase("a", n, spin, move |i| a1.set(i, i as f64 + 1.0))
                .with_mapping(EnablementMapping::Identity),
            phase("b", n, spin, move |i| b2.set(i, a2.get(i) * 2.0))
                .with_mapping(EnablementMapping::Identity),
            phase("c", n, spin, move |i| c3.set(i, b3.get(i) + 1.0)),
        ];
        (chain, move || {
            for i in 0..n as usize {
                assert_eq!(c.get(i), 2.0 * (i as f64 + 1.0) + 1.0, "c[{i}]");
            }
        })
    });
}

#[test]
fn reverse_maps_carry_their_dataflow() {
    // out[r] = a[r] + a[r + 1] + a[r + 3] (mod n), each term a
    // requirement of the reverse map
    let n = 150u32;
    let spin = Duration::from_micros(5);
    let neighbours = move |r: u32| [r, (r + 1) % n, (r + 3) % n];
    chain_oracle("reverse stencil", 4, 2, || {
        let [a, out] = [(); 2].map(|_| Arc::new(SharedF64::zeros(n as usize)));
        let requires = (0..n).map(|r| neighbours(r).to_vec()).collect();
        let reverse = EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(requires, n)));
        let (a1, a2, o2) = (a.clone(), a, out.clone());
        let chain = vec![
            phase("gen", n, spin, move |i| a1.set(i, i as f64)).with_mapping(reverse),
            phase("stencil", n, spin, move |r| {
                let sum = neighbours(r as u32)
                    .map(|d| a2.get(d as usize))
                    .iter()
                    .sum();
                o2.set(r, sum);
            }),
        ];
        (chain, move || {
            for r in 0..n {
                let expect: f64 = neighbours(r).map(|d| d as f64).iter().sum();
                assert_eq!(out.get(r as usize), expect, "out[{r}]");
            }
        })
    });
}

#[test]
fn the_last_phases_mapping_is_not_read() {
    // `mapping_to_next` on the last phase leads nowhere: a reverse map
    // sized for no phase of this chain is neither checked nor built, and
    // the chain runs as if the last phase said `Null`.
    let n = 64u32;
    let spin = Duration::from_micros(5);
    chain_oracle("mapping past the end", 3, 2, || {
        let [a, b] = [(); 2].map(|_| Arc::new(SharedF64::zeros(n as usize)));
        let (a1, a2, b2) = (a.clone(), a, b.clone());
        let stray = ReverseMap::new(vec![vec![n + 5]; 3], n + 6);
        let chain = vec![
            phase("a", n, spin, move |i| a1.set(i, i as f64 + 1.0))
                .with_mapping(EnablementMapping::Identity),
            phase("b", n, spin, move |i| b2.set(i, a2.get(i) * 2.0))
                .with_mapping(EnablementMapping::ReverseIndirect(Arc::new(stray))),
        ];
        (chain, move || {
            for i in 0..n as usize {
                assert_eq!(b.get(i), 2.0 * (i as f64 + 1.0), "b[{i}]");
            }
        })
    });
}

#[test]
fn universal_chains_overlap_their_rundown() {
    // The last granule of the first phase is a 10 ms straggler: while it
    // runs down, the idle workers take its universal successor's granules.
    let chain = || {
        let phases = (0..3).map(|p| {
            let ph = phase(&format!("p{p}"), 30, Duration::from_micros(20), move |g| {
                if p == 0 && g == 29 {
                    spin_for(Duration::from_millis(10));
                }
            });
            if p < 2 {
                ph.with_mapping(EnablementMapping::Universal)
            } else {
                ph
            }
        });
        (phases.collect::<Vec<_>>(), || {})
    };
    for (mode, report) in chain_oracle("universal chain", 4, 1, chain) {
        if mode.overlap {
            let overlap = report.total_overlap_granules();
            assert!(overlap > 0, "{}: no overlap", mode.name);
        }
    }
}

#[test]
fn mini_casper_is_bit_exact_on_every_mode() {
    // reverse, identity, universal and null edges; any two runs of any
    // mode agree with the sequential reference bit for bit
    let spec = MiniCasper::new(128, 4, 3, 2, 0xFEED);
    let (u_ref, s_ref) = &spec.reference();
    chain_oracle("mini-CASPER", 3, 8, || {
        let (chain, u, s) = mini_casper_chain(&spec, Duration::ZERO);
        (chain, move || {
            assert_eq!(u.to_vec(), *u_ref, "u");
            assert_eq!(s.to_vec(), *s_ref, "s");
        })
    });
}

/// The edge `kind` names (0 null, 1 universal, 2 identity, 3 reverse,
/// 4 seam, 5 forward) between two phases of `n` granules, drawn from `rng`.
/// Requirement lists have fan-in 0 (enabled by the null set) to 3; a
/// forward map has `n` writers into `n - 1` targets, so some successor has
/// two writers and the last has none.
fn random_edge(kind: u8, n: u32, rng: &mut impl Rng) -> EnablementMapping {
    let mut lists = || -> Vec<Vec<u32>> {
        (0..n)
            .map(|_| {
                (0..rng.gen_range(0..4))
                    .map(|_| rng.gen_range(0..n))
                    .collect()
            })
            .collect()
    };
    match kind {
        0 => EnablementMapping::Null,
        1 => EnablementMapping::Universal,
        2 => EnablementMapping::Identity,
        3 => EnablementMapping::ReverseIndirect(Arc::new(ReverseMap::new(lists(), n))),
        4 => EnablementMapping::Seam(Arc::new(ReverseMap::new(lists(), n))),
        _ => {
            let targets = (0..n).map(|_| rng.gen_range(0..n - 1)).collect();
            EnablementMapping::ForwardIndirect(Arc::new(ForwardMap::new(targets, n)))
        }
    }
}

proptest! {
    // Two runs a case, each spawning its own threads.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random chains of all six mapping kinds, any worker count and task
    /// size: every mode keeps every promise. Each granule spins a few µs,
    /// so a release made too early has time to show.
    #[test]
    fn random_chains_keep_their_mappings_promises(
        granules in 8u32..40,
        nphases in 2usize..5,
        kinds in proptest::collection::vec(0u8..6, 4),
        workers in 1usize..5,
        task in 1u32..9,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = pax_sim::seeded_rng(seed);
        let edges: Vec<EnablementMapping> =
            kinds[..nphases - 1].iter().map(|&k| random_edge(k, granules, &mut rng)).collect();
        let name = format!(
            "{nphases} phases of {granules} granules, edges {kinds:?}, seed {seed:#x}"
        );
        chain_oracle(&name, workers, task, || {
            let chain = (0..nphases).map(|p| {
                let ph = RtPhase::synthetic(format!("p{p}"), granules, Duration::from_micros(3));
                match edges.get(p) {
                    Some(m) => ph.with_mapping(m.clone()),
                    None => ph,
                }
            });
            (chain.collect(), || {})
        });
    }
}
