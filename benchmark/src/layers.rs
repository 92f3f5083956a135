//! Bare-structure work units for the per-layer timings: each function
//! does a fixed amount of work on one public structure of the repo, with
//! no simulator around it, and returns `(operations, checksum)`.

use crate::refkernel::lcg;
use pax_core::descriptor::QueueClass;
use pax_core::ids::{DescId, GranuleRange, JobId};
use pax_core::mapping::{ForwardMap, ReverseMap};
use pax_core::queue::WaitingQueue;
use pax_core::rangeset::RangeSet;
use pax_sim::dist::{ArrivalProcess, CostModel};
use pax_sim::time::SimTime;
use pax_sim::{Calendar, CalendarKind};
use pax_workloads::stripe_churn_ranges;
use std::hint::black_box;

/// `WaitingQueue` traffic in the engine's mix: normal work appended,
/// one push in eight an elevated release at the front, pops keeping the
/// queue near 64 entries.
pub fn queue_pushpop() -> (u64, u64) {
    const ROUNDS: u32 = 200_000;
    let mut q = WaitingQueue::new(1);
    let mut sum = 0u64;
    for i in 0..64 {
        q.push_back(DescId(i), QueueClass::Normal, JobId(0));
    }
    for i in 0..ROUNDS {
        if i % 8 == 0 {
            q.push_front(DescId(i), QueueClass::Elevated, JobId(0));
        } else {
            q.push_back(DescId(i), QueueClass::Normal, JobId(0));
        }
        let DescId(popped) = q.pop().expect("the queue holds 64 entries");
        sum = sum.wrapping_mul(31).wrapping_add(u64::from(popped));
    }
    (2 * u64::from(ROUNDS), sum)
}

/// `RangeSet` churn: insert every even stripe, then the odd ones that
/// bridge them, asking for the gaps around each insert as the engine
/// does on a release.
pub fn rangeset_churn(granules: u32) -> (u64, u64) {
    const STRIPE: u32 = 4;
    let ranges = stripe_churn_ranges(granules, STRIPE);
    let mut set = RangeSet::new();
    let mut gaps: Vec<GranuleRange> = Vec::new();
    let mut sum = 0u64;
    for &r in &ranges {
        set.insert(r);
        gaps.clear();
        let lo = r.lo.saturating_sub(2 * STRIPE);
        let hi = r.hi.saturating_add(2 * STRIPE).min(granules);
        set.subtract_into(GranuleRange::new(lo, hi), &mut gaps);
        for g in &gaps {
            sum = sum.wrapping_mul(31).wrapping_add(u64::from(g.lo ^ g.hi));
        }
    }
    assert_eq!(
        set.len(),
        u64::from(granules),
        "every granule inserted once"
    );
    (
        2 * ranges.len() as u64,
        sum.wrapping_add(set.run_count() as u64),
    )
}

/// The information-selection maps of one CASPER iteration at CASPER
/// size — two reverse maps of fan 10 and one forward map over 480
/// granules — built a hundred times; one operation is one iteration's
/// three maps.
pub fn mapping_build() -> (u64, u64) {
    const ITERATIONS: u64 = 100;
    const GRANULES: u32 = 480;
    const FAN: usize = 10;
    let mut state = 0x00CA_5BE7_u64;
    let mut draw = || (lcg(&mut state) % u64::from(GRANULES)) as u32;
    let mut sum = 0u64;
    for _ in 0..ITERATIONS {
        for _ in 0..2 {
            let requires: Vec<Vec<u32>> = (0..GRANULES)
                .map(|_| (0..FAN).map(|_| draw()).collect())
                .collect();
            sum += u64::from(requires[0][0]);
            black_box(ReverseMap::new(requires, GRANULES));
        }
        let targets: Vec<u32> = (0..GRANULES).map(|_| draw()).collect();
        sum += u64::from(targets[0]);
        black_box(ForwardMap::new(targets, GRANULES));
    }
    (ITERATIONS, sum)
}

/// Hold model on a bare calendar: `hot` entries are popped and pushed
/// back one service time later (`spread` = 0 for constant cost, else
/// uniform within ± `spread`), while `parked` entries sit far in the
/// future, as the not-yet-due arrivals of an open stream do. Pop order
/// is checksummed.
pub fn calendar_hold(hot: usize, parked: usize, spread: u64) -> (u64, u64) {
    const PAIRS: u64 = 200_000;
    let mut cal: Calendar<u32> = Calendar::from_kind(CalendarKind::BinaryHeap);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut service = || 100 - spread + lcg(&mut state) % (2 * spread + 1);
    for i in 0..parked {
        cal.schedule(SimTime(u64::MAX / 2 + i as u64), u32::MAX);
    }
    for i in 0..hot {
        cal.schedule(SimTime(service()), i as u32);
    }
    let mut sum = 0u64;
    for _ in 0..PAIRS {
        let (at, id) = cal.pop().expect("the hold population is constant");
        sum = sum
            .wrapping_mul(0x0100_0000_01B3)
            .wrapping_add(at.0 ^ u64::from(id));
        cal.schedule(SimTime(at.0 + service()), id);
    }
    (2 * PAIRS, sum)
}

/// Draws from a granule cost model on the workspace's seeded generator.
pub fn dist_sample(cost: &CostModel) -> (u64, u64) {
    const DRAWS: u64 = 500_000;
    let mut rng = pax_sim::seeded_rng(7);
    let mut sum = 0u64;
    for _ in 0..DRAWS {
        sum = sum.wrapping_add(cost.sample(&mut rng).ticks());
    }
    (DRAWS, sum)
}

/// Arrival instants of a Poisson stream, as session build expands them.
pub fn dist_arrivals() -> (u64, u64) {
    const ARRIVALS: usize = 200_000;
    let mut rng = pax_sim::seeded_rng(7);
    let instants = ArrivalProcess::poisson(1_000).instants(ARRIVALS, &mut rng);
    (ARRIVALS as u64, instants.last().map_or(0, |t| t.ticks()))
}
