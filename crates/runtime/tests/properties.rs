//! Property-based concurrency tests: random phase chains on real
//! threads, all mappings — every granule must execute exactly once,
//! whatever the OS scheduler does. The workspace's
//! `tests/chain_executors.rs` checks the same executor's release order
//! against each mapping's promise.

use pax_core::mapping::{EnablementMapping, ReverseMap};
use pax_runtime::{run_chain, RtPhase, RuntimeConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// One run counter a granule.
type Counters = Arc<[AtomicU64]>;

/// Build a random chain; returns (phases, per-phase counters).
fn chain(granules: u32, nphases: usize, mappings: &[u8]) -> (Vec<RtPhase>, Vec<Counters>) {
    let counters: Vec<Counters> = (0..nphases)
        .map(|_| (0..granules).map(|_| AtomicU64::new(0)).collect())
        .collect();
    let phases: Vec<RtPhase> = (0..nphases)
        .map(|i| {
            let c = Arc::clone(&counters[i]);
            let p = RtPhase::new(
                format!("p{i}"),
                granules,
                Arc::new(move |g| {
                    c[g as usize].fetch_add(1, SeqCst);
                }),
            );
            if i + 1 == nphases {
                return p;
            }
            match mappings[i] % 4 {
                0 => p.with_mapping(EnablementMapping::Null),
                1 => p.with_mapping(EnablementMapping::Universal),
                2 => p.with_mapping(EnablementMapping::Identity),
                _ => {
                    // deterministic pseudo-random fan-in-2 reverse map
                    let req: Vec<Vec<u32>> = (0..granules)
                        .map(|r| vec![r, (r * 7 + 3) % granules])
                        .collect();
                    let map = ReverseMap::new(req, granules);
                    p.with_mapping(EnablementMapping::ReverseIndirect(Arc::new(map)))
                }
            }
        })
        .collect();
    (phases, counters)
}

proptest! {
    // Thread spawning is expensive; a couple dozen random chains give
    // plenty of schedule diversity on a loaded machine.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Central executor: exactly-once execution for every granule of
    /// every phase under any mapping mix, worker count and task size.
    #[test]
    fn central_executor_runs_every_granule_once(
        granules in 8u32..60,
        nphases in 2usize..5,
        mappings in proptest::collection::vec(0u8..4, 4),
        workers in 1usize..5,
        task in 1u32..9,
        overlap in proptest::bool::ANY,
    ) {
        let (phases, counters) = chain(granules, nphases, &mappings);
        let cfg = RuntimeConfig::new(workers, task);
        let cfg = if overlap { cfg } else { cfg.barrier() };
        let r = run_chain(phases, cfg);
        for (i, c) in counters.iter().enumerate() {
            for g in 0..granules as usize {
                prop_assert_eq!(c[g].load(SeqCst), 1, "phase {} granule {}", i, g);
            }
        }
        prop_assert_eq!(r.phases.len(), nphases);
        if !overlap {
            prop_assert_eq!(r.total_overlap_granules(), 0);
        }
    }

    /// The task count of an identity chain is Σ ceil(granules /
    /// task_size) over its phases.
    #[test]
    fn task_count_is_deterministic(
        granules in 8u32..60,
        nphases in 2usize..4,
        task in 1u32..9,
    ) {
        let mappings = vec![2u8; 4]; // identity everywhere
        let per_phase = granules.div_ceil(task) as u64;
        let (phases, _) = chain(granules, nphases, &mappings);
        let central = run_chain(phases, RuntimeConfig::new(2, task));
        prop_assert_eq!(central.tasks, per_phase * nphases as u64);
    }
}
