//! Building blocks for real workloads: shared float arrays without data
//! races, and calibrated busy-work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A shared array of `f64` values stored as atomic bit patterns. Granule
/// ownership plus the executor's release ordering make plain relaxed
/// access correct; atomics keep the type safe without `unsafe`.
#[derive(Debug)]
pub struct SharedF64 {
    cells: Vec<AtomicU64>,
}

impl SharedF64 {
    /// An array of `n` zeros.
    pub fn zeros(n: usize) -> SharedF64 {
        SharedF64 {
            cells: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }

    /// From existing values.
    pub fn from_vec(v: Vec<f64>) -> SharedF64 {
        SharedF64 {
            cells: v.into_iter().map(|x| AtomicU64::new(x.to_bits())).collect(),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Load element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.cells[i].load(Ordering::Acquire))
    }

    /// Store element `i`.
    #[inline]
    pub fn set(&self, i: usize, v: f64) {
        self.cells[i].store(v.to_bits(), Ordering::Release);
    }

    /// Snapshot to a plain vector.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

/// Spin the CPU for roughly `d` (used to give synthetic granules a real,
/// measurable execution time; sleeping would free the core and hide the
/// utilization effects the experiments measure).
pub fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_f64_roundtrip() {
        let a = SharedF64::zeros(4);
        a.set(2, 3.5);
        assert_eq!(a.get(2), 3.5);
        assert_eq!(a.get(0), 0.0);
        assert_eq!(a.to_vec(), vec![0.0, 0.0, 3.5, 0.0]);
    }

    #[test]
    fn shared_f64_from_vec() {
        let a = SharedF64::from_vec(vec![1.0, -2.0]);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.get(1), -2.0);
    }

    #[test]
    fn spin_takes_time() {
        let t0 = Instant::now();
        spin_for(Duration::from_micros(200));
        assert!(t0.elapsed() >= Duration::from_micros(200));
    }
}
