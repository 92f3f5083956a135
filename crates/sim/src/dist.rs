//! Granule execution-time distributions.
//!
//! The paper's experience base (PAX/CASPER) is explicit that granule times
//! were *not* definite: "Most computations ... could not even be ascribed
//! with definite execution times. In some instances, whether or not the
//! computation was even to be carried out ... was a conditional part of the
//! algorithm. ... shared information access times were unpredictable and
//! unrepeatable from instance to instance."
//!
//! `DurationDist` models each of those effects:
//! * [`DurationDist::Constant`] — the checkerboard ideal ("nominally, the
//!   time for four additions and a divide").
//! * [`DurationDist::Uniform`] / [`DurationDist::Exponential`] — unpredictable
//!   access times.
//! * [`DurationDist::Bimodal`] — mostly short granules and a few long
//!   stragglers, the tail that makes a phase run down.
//! * The `skip_probability` on [`CostModel`] — conditionally executed
//!   computations that turn out to be no-ops.

use crate::time::{SimDuration, SimTime};
use rand::Rng;

/// The largest uniform draw an exponential sample transforms: `ln`
/// never sees 0.
const EXPONENTIAL_U_MAX: f64 = 1.0 - 1e-12;

/// A distribution over granule execution times, sampled in whole ticks.
#[derive(Debug, Clone, PartialEq)]
pub enum DurationDist {
    /// Every granule takes exactly this long (the idealized checkerboard).
    Constant(SimDuration),
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Smallest sample.
        lo: SimDuration,
        /// Largest sample.
        hi: SimDuration,
    },
    /// Exponential with the given mean, truncated to at least 1 tick.
    /// Models memoryless service-time jitter.
    Exponential {
        /// Mean of the distribution.
        mean: SimDuration,
    },
    /// `long` with probability `p_long`, otherwise `short`.
    Bimodal {
        /// The common, short granule.
        short: SimDuration,
        /// The rare, long granule.
        long: SimDuration,
        /// Probability of `long`, in `[0, 1]`.
        p_long: f64,
    },
}

impl DurationDist {
    /// Convenience constructor for a constant distribution.
    pub const fn constant(ticks: u64) -> DurationDist {
        DurationDist::Constant(SimDuration(ticks))
    }

    /// Convenience constructor for a uniform distribution over `[lo, hi]`.
    pub const fn uniform(lo: u64, hi: u64) -> DurationDist {
        assert!(lo <= hi, "uniform distribution requires lo <= hi");
        DurationDist::Uniform {
            lo: SimDuration(lo),
            hi: SimDuration(hi),
        }
    }

    /// Convenience constructor for an exponential distribution.
    pub const fn exponential(mean: u64) -> DurationDist {
        DurationDist::Exponential {
            mean: SimDuration(mean),
        }
    }

    /// A bimodal mix: `long` ticks with probability `p_long`, else
    /// `short`.
    pub const fn bimodal(short: u64, long: u64, p_long: f64) -> DurationDist {
        assert!(0.0 <= p_long && p_long <= 1.0, "p_long must be in [0,1]");
        DurationDist::Bimodal {
            short: SimDuration(short),
            long: SimDuration(long),
            p_long,
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match self {
            DurationDist::Constant(d) => *d,
            DurationDist::Uniform { lo, hi } => SimDuration(rng.gen_range(lo.0..=hi.0)),
            DurationDist::Exponential { mean } => {
                if mean.0 == 0 {
                    return SimDuration::ZERO;
                }
                // Inverse-transform sampling; clamp u away from 1.0 so that
                // ln never sees 0, and round to at least one tick so that a
                // "real" computation always advances time.
                let u: f64 = rng.gen::<f64>().min(EXPONENTIAL_U_MAX);
                let t = -(mean.0 as f64) * (1.0 - u).ln();
                SimDuration((t.round() as u64).max(1))
            }
            DurationDist::Bimodal {
                short,
                long,
                p_long,
            } => {
                if rng.gen::<f64>() < *p_long {
                    *long
                } else {
                    *short
                }
            }
        }
    }

    /// The largest sample [`DurationDist::sample`] can draw, in ticks.
    pub fn max_ticks(&self) -> u64 {
        match self {
            DurationDist::Constant(d) => d.0,
            DurationDist::Uniform { hi, .. } => hi.0,
            // `u` is clamped to `EXPONENTIAL_U_MAX`, so a sample is at
            // most `-ln(1 - EXPONENTIAL_U_MAX)` = 27.7 means, rounded.
            DurationDist::Exponential { mean } => mean.0.saturating_mul(28),
            DurationDist::Bimodal { short, long, .. } => short.0.max(long.0),
        }
    }

    /// Analytical mean of the distribution, in ticks (floating point).
    pub fn mean_ticks(&self) -> f64 {
        match self {
            DurationDist::Constant(d) => d.0 as f64,
            DurationDist::Uniform { lo, hi } => (lo.0 + hi.0) as f64 / 2.0,
            DurationDist::Exponential { mean } => mean.0 as f64,
            DurationDist::Bimodal {
                short,
                long,
                p_long,
            } => short.0 as f64 * (1.0 - p_long) + long.0 as f64 * p_long,
        }
    }
}

/// The full per-granule cost model: an execution-time distribution plus a
/// probability that the granule turns out to be conditionally skipped
/// (it still must be dispatched and completed, but consumes only
/// `skipped_cost` of processor time).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Distribution of execution time for granules that actually run.
    pub dist: DurationDist,
    /// Probability the computation is conditionally not carried out.
    pub skip_probability: f64,
    /// Time consumed by a skipped granule (testing its condition).
    pub skipped_cost: SimDuration,
}

impl CostModel {
    /// A model where every granule runs with the given distribution.
    pub fn new(dist: DurationDist) -> CostModel {
        CostModel {
            dist,
            skip_probability: 0.0,
            skipped_cost: SimDuration::ZERO,
        }
    }

    /// A constant-cost model (the idealized checkerboard granule).
    pub fn constant(ticks: u64) -> CostModel {
        CostModel::new(DurationDist::constant(ticks))
    }

    /// Add conditional skipping to the model.
    pub fn with_skip(mut self, probability: f64, skipped_cost: u64) -> CostModel {
        assert!(
            (0.0..=1.0).contains(&probability),
            "skip probability must be in [0,1]"
        );
        self.skip_probability = probability;
        self.skipped_cost = SimDuration(skipped_cost);
        self
    }

    /// Sample the execution time of one granule instance.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        if self.skip_probability > 0.0 && rng.gen::<f64>() < self.skip_probability {
            self.skipped_cost
        } else {
            self.dist.sample(rng)
        }
    }

    /// Expected execution time of one granule, in ticks.
    pub fn mean_ticks(&self) -> f64 {
        self.dist.mean_ticks() * (1.0 - self.skip_probability)
            + self.skipped_cost.0 as f64 * self.skip_probability
    }
}

/// When new jobs arrive into a long-lived, open-system simulation.
///
/// A closed batch admits every job at time zero; a *service* admits jobs
/// while earlier ones are still running down. The arrival process decides
/// the admission instants. Arrivals are expanded to concrete instants
/// **before** the run starts (from a dedicated, domain-separated RNG —
/// see [`arrival_seed`]), so the engine's task-sampling RNG consumes zero
/// extra draws and closed-system runs stay bit-identical to the goldens.
///
/// ```
/// use pax_sim::dist::ArrivalProcess;
/// use pax_sim::time::SimTime;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// // A trace replays its instants exactly (sorted, no RNG draws) ...
/// let trace = ArrivalProcess::trace(vec![SimTime(250), SimTime(0), SimTime(100)]);
/// let mut rng = SmallRng::seed_from_u64(7);
/// assert_eq!(
///     trace.instants(3, &mut rng),
///     vec![SimTime(0), SimTime(100), SimTime(250)],
/// );
///
/// // ... while a Poisson source draws exactly `count` gaps from the rng.
/// let poisson = ArrivalProcess::poisson(200);
/// let arrivals = poisson.instants(4, &mut rng);
/// assert_eq!(arrivals.len(), 4);
/// assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: independent exponential inter-arrival gaps
    /// with the given mean (the classic open-system M/·/· source). The
    /// first arrival lands one gap after time zero.
    Poisson {
        /// Mean inter-arrival gap, in ticks.
        mean: SimDuration,
    },
    /// Trace-driven arrivals: jobs are admitted at exactly these instants
    /// (sorted ascending; replayed as-given, no randomness).
    Trace(Vec<SimTime>),
}

impl ArrivalProcess {
    /// Poisson arrivals with the given mean inter-arrival gap in ticks.
    pub const fn poisson(mean_gap_ticks: u64) -> ArrivalProcess {
        ArrivalProcess::Poisson {
            mean: SimDuration(mean_gap_ticks),
        }
    }

    /// Trace-driven arrivals at the given instants (sorted internally so
    /// callers can list them in any order).
    pub fn trace(mut instants: Vec<SimTime>) -> ArrivalProcess {
        instants.sort_unstable();
        ArrivalProcess::Trace(instants)
    }

    /// Expand the process into `count` concrete admission instants,
    /// sorted ascending. A trace shorter than `count` yields only the
    /// instants it has; Poisson always yields exactly `count`.
    pub fn instants<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<SimTime> {
        let mut out = Vec::new();
        self.instants_into(count, rng, &mut out);
        out
    }

    /// [`ArrivalProcess::instants`], appended to `out` (which grows once,
    /// by the number of instants appended).
    pub fn instants_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        out: &mut Vec<SimTime>,
    ) {
        match self {
            ArrivalProcess::Poisson { mean } => {
                let gap = DurationDist::Exponential { mean: *mean };
                let mut t = SimTime::ZERO;
                out.extend((0..count).map(|_| {
                    t += gap.sample(rng);
                    t
                }));
            }
            ArrivalProcess::Trace(instants) => out.extend(instants.iter().take(count).copied()),
        }
    }

    /// Mean inter-arrival gap in ticks (floating point). For a trace this
    /// is the average gap over the recorded instants (0.0 when fewer than
    /// two instants exist).
    pub fn mean_gap_ticks(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { mean } => mean.0 as f64,
            ArrivalProcess::Trace(instants) => match (instants.first(), instants.last()) {
                (Some(first), Some(last)) if instants.len() > 1 => {
                    (last.0 - first.0) as f64 / (instants.len() - 1) as f64
                }
                _ => 0.0,
            },
        }
    }
}

/// Deterministic seed for the dedicated arrival RNG of job stream
/// `stream` in a simulation whose scenario seed is `seed`.
///
/// Arrival instants must never share the engine's task-sampling RNG:
/// with a shared stream, merely attaching an arrival process would
/// perturb every sampled task time and break the t=0 ≡ batch-golden
/// contract. [`crate::mix_seed`] over a domain- and stream-separated
/// seed gives each stream an independent, reproducible sequence that is
/// also stable across shard counts (expansion happens before sharding).
pub fn arrival_seed(seed: u64, stream: u64) -> u64 {
    crate::mix_seed(
        seed ^ 0x0000_A221_77A1_5EED_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn constant_is_constant() {
        let d = DurationDist::constant(42);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), SimDuration(42));
        }
        assert_eq!(d.mean_ticks(), 42.0);
    }

    #[test]
    fn uniform_within_bounds() {
        let d = DurationDist::uniform(10, 20);
        let mut r = rng();
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!(s >= SimDuration(10) && s <= SimDuration(20));
        }
        assert_eq!(d.mean_ticks(), 15.0);
    }

    #[test]
    fn exponential_mean_approximately_right() {
        let d = DurationDist::exponential(100);
        let mut r = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| d.sample(&mut r).0).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 100.0).abs() < 5.0,
            "empirical mean {mean} too far from 100"
        );
    }

    #[test]
    fn exponential_never_zero() {
        let d = DurationDist::exponential(2);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r).0 >= 1);
        }
    }

    #[test]
    fn bimodal_mixes() {
        let d = DurationDist::bimodal(1, 100, 0.25);
        let mut r = rng();
        let samples: Vec<u64> = (0..4000).map(|_| d.sample(&mut r).0).collect();
        let longs = samples.iter().filter(|&&s| s == 100).count();
        let frac = longs as f64 / samples.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "long fraction {frac}");
        assert!((d.mean_ticks() - (0.75 + 25.0)).abs() < 1e-9);
    }

    #[test]
    fn samples_never_exceed_max_ticks() {
        let shapes = [
            DurationDist::constant(0),
            DurationDist::constant(7),
            DurationDist::uniform(3, 40),
            DurationDist::exponential(1),
            DurationDist::exponential(50),
            DurationDist::bimodal(2, 90, 0.3),
        ];
        let mut r = rng();
        for d in &shapes {
            let max = d.max_ticks();
            for _ in 0..10_000 {
                let s = d.sample(&mut r).0;
                assert!(s <= max, "{d:?}: sample {s} above max_ticks {max}");
            }
        }
        // The clamped draw itself, where the bound is closest.
        let t = -(1.0 - EXPONENTIAL_U_MAX).ln();
        assert!(t.round() <= 28.0 && t > 27.0, "{t}");
    }

    #[test]
    fn skip_probability_reduces_mean() {
        let m = CostModel::constant(100).with_skip(0.5, 2);
        assert!((m.mean_ticks() - 51.0).abs() < 1e-9);
        let mut r = rng();
        let n = 10_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut r).0).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 51.0).abs() < 2.0, "empirical mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = DurationDist::uniform(0, 1_000_000);
        let a: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..100).map(|_| d.sample(&mut r).0).collect()
        };
        let b: Vec<u64> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..100).map(|_| d.sample(&mut r).0).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn uniform_rejects_inverted_bounds() {
        let _ = DurationDist::uniform(5, 1);
    }

    #[test]
    fn poisson_arrivals_are_sorted_positive_and_deterministic() {
        let p = ArrivalProcess::poisson(250);
        let a = p.instants(500, &mut SmallRng::seed_from_u64(7));
        let b = p.instants(500, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a[0] > SimTime::ZERO, "first arrival lands after t=0");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "instants sorted");
        let mean_gap = a.last().unwrap().0 as f64 / a.len() as f64;
        assert!(
            (mean_gap - 250.0).abs() < 30.0,
            "empirical mean gap {mean_gap} too far from 250"
        );
        assert_eq!(p.mean_gap_ticks(), 250.0);
    }

    #[test]
    fn trace_arrivals_replay_sorted_and_truncate() {
        let p = ArrivalProcess::trace(vec![SimTime(30), SimTime(10), SimTime(20)]);
        let mut r = rng();
        assert_eq!(
            p.instants(10, &mut r),
            vec![SimTime(10), SimTime(20), SimTime(30)]
        );
        assert_eq!(p.instants(2, &mut r), vec![SimTime(10), SimTime(20)]);
        assert_eq!(p.mean_gap_ticks(), 10.0);
        assert_eq!(ArrivalProcess::trace(vec![]).mean_gap_ticks(), 0.0);
    }

    #[test]
    fn arrival_seed_is_deterministic_and_stream_separated() {
        assert_eq!(arrival_seed(7, 0), arrival_seed(7, 0));
        assert_ne!(arrival_seed(7, 0), arrival_seed(7, 1));
        assert_ne!(arrival_seed(7, 0), arrival_seed(8, 0));
        assert_ne!(arrival_seed(7, 0), 7);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn skip_rejects_bad_probability() {
        let _ = CostModel::constant(1).with_skip(1.5, 0);
    }
}
