//! The fixed reference kernel every timed call is bracketed by.
//!
//! It calls no code of the repository, so a change to the program under
//! test cannot move it, and it mixes the two things the simulator's hot
//! loop does to a host: priority-queue traffic on a small working set
//! and dependent loads over a table larger than L1/L2. A timing divided
//! by the kernel's time taken just before and after it is a number in
//! "kernels", which neighbour contention on a shared host scales out of.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel run is *counted as*: a reference-second is a paired
/// ratio times this constant. It only fixes the scale of the reported
/// numbers (one kernel run takes about this long on the host the
/// benchmark was written on); it is never compared with a clock.
pub const REF_NOMINAL_S: f64 = 0.020;

const PENDING: usize = 4_096;
const HOLD_PAIRS: usize = 300_000;
const TABLE_WORDS: usize = 2 * 1024 * 1024 / 8;
const WALK_STEPS: usize = 250_000;

/// What [`RefKernel::run`] must return, on every host and every run.
pub const CHECKSUM: u64 = 0x93fe_3aaf_3977_3bec;

/// Knuth's 64-bit linear congruential step; the high 31 bits.
pub fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

pub struct RefKernel {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl RefKernel {
    pub fn new() -> RefKernel {
        let mut state = 0x5EED_4B45_524E_454C;
        RefKernel {
            table: (0..TABLE_WORDS).map(|_| lcg(&mut state)).collect(),
            heap: BinaryHeap::with_capacity(PENDING + 1),
        }
    }

    /// One kernel run: a hold loop (pop the earliest of 4 096 pending
    /// entries, push it back a pseudo-random distance later) followed by
    /// a walk of 250 000 steps through the 2 MiB table in which every
    /// index depends on the word just loaded. Returns a checksum over
    /// both.
    pub fn run(&mut self) -> u64 {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        self.heap.clear();
        for i in 0..PENDING {
            self.heap.push(Reverse((lcg(&mut state) % 1_000, i as u32)));
        }
        let mut sum = 0u64;
        for _ in 0..HOLD_PAIRS {
            let Reverse((at, id)) = self.heap.pop().expect("the hold population is constant");
            sum = sum
                .wrapping_mul(0x0100_0000_01B3)
                .wrapping_add(at ^ u64::from(id));
            self.heap
                .push(Reverse((at + 1 + lcg(&mut state) % 1_000, id)));
        }
        // Touch every cache line of the table first: the timed call
        // before this run may have evicted it, and the walk is meant to
        // feel the neighbours' pressure on the caches, not our own.
        let table = black_box(&self.table);
        let mut at = table.iter().step_by(8).fold(0u64, |a, &w| a ^ w) as usize % TABLE_WORDS;
        for _ in 0..WALK_STEPS {
            let word = table[at];
            sum = sum.wrapping_add(word);
            at = (word ^ sum) as usize % TABLE_WORDS;
        }
        black_box(sum)
    }

    /// Wall seconds of one run, checksum verified.
    pub fn timed(&mut self) -> f64 {
        let t = Instant::now();
        let sum = self.run();
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(sum, CHECKSUM, "reference kernel checksum changed");
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_constant_across_runs_and_instances() {
        let mut a = RefKernel::new();
        assert_eq!(a.run(), CHECKSUM);
        assert_eq!(a.run(), CHECKSUM, "a run must not depend on the one before");
        assert_eq!(RefKernel::new().run(), CHECKSUM);
    }

    #[test]
    fn work_is_not_optimised_away() {
        // Eight runs take measurably longer than one, and one takes
        // longer than a clock read.
        let mut k = RefKernel::new();
        let one = k.timed();
        let t = Instant::now();
        for _ in 0..8 {
            k.timed();
        }
        let eight = t.elapsed().as_secs_f64();
        assert!(one > 1e-4, "one kernel run took {one} s");
        assert!(eight > 3.0 * one, "eight runs {eight} s vs one {one} s");
    }
}
