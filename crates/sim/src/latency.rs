//! Per-hop latency models — the paper's future work (§VI).
//!
//! The HPDC paper deliberately does not model the physical network ("It does
//! not model the physical network topology nor the queuing delays") and
//! flags it as future work, noting in §V(p) that HopsSampling "probably
//! outperforms the other algorithms in terms of delay, which we haven't
//! measured". This module provides the minimal substrate to measure exactly
//! that: a distribution of one-hop message latencies.
//!
//! [`NetworkModel`](crate::NetworkModel) draws one of these per message in
//! [`Network::send`](crate::Network::send), so an event-driven protocol's
//! end-to-end estimation delay is whatever its communication structure
//! (sequential walk hops, gossip rounds) makes of the per-hop draws.

use rand::rngs::SmallRng;
use rand::Rng;

/// A one-hop latency distribution, in abstract milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HopLatency {
    /// Every hop takes exactly this long.
    Constant(f64),
    /// Uniform on `[lo, hi)` — a crude WAN jitter model.
    Uniform {
        /// Minimum latency.
        lo: f64,
        /// Maximum latency.
        hi: f64,
    },
    /// Exponential with the given mean — heavy-ish tail, memoryless.
    Exponential {
        /// Mean latency.
        mean: f64,
    },
}

impl HopLatency {
    /// A typical wide-area profile: uniform 20–200 ms.
    pub fn wan() -> Self {
        HopLatency::Uniform {
            lo: 20.0,
            hi: 200.0,
        }
    }

    /// Draws one hop latency.
    pub fn sample(&self, rng: &mut SmallRng) -> f64 {
        match *self {
            HopLatency::Constant(ms) => ms,
            HopLatency::Uniform { lo, hi } => rng.gen_range(lo..hi),
            HopLatency::Exponential { mean } => {
                let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                -mean * u.ln()
            }
        }
    }

    /// The distribution's mean.
    pub fn mean(&self) -> f64 {
        match *self {
            HopLatency::Constant(ms) => ms,
            HopLatency::Uniform { lo, hi } => 0.5 * (lo + hi),
            HopLatency::Exponential { mean } => mean,
        }
    }

    /// Draws the maximum of `n` independent hop latencies — the duration of
    /// a synchronous round in which `n` messages fly in parallel.
    pub fn sample_max(&self, n: usize, rng: &mut SmallRng) -> f64 {
        (0..n).map(|_| self.sample(rng)).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::small_rng;

    #[test]
    fn constant_is_constant() {
        let mut rng = small_rng(1);
        let l = HopLatency::Constant(50.0);
        for _ in 0..10 {
            assert_eq!(l.sample(&mut rng), 50.0);
        }
        assert_eq!(l.mean(), 50.0);
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut rng = small_rng(2);
        let l = HopLatency::wan();
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let s = l.sample(&mut rng);
            assert!((20.0..200.0).contains(&s));
            sum += s;
        }
        let mean = sum / 20_000.0;
        assert!((mean - l.mean()).abs() < 3.0, "empirical mean {mean}");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = small_rng(3);
        let l = HopLatency::Exponential { mean: 80.0 };
        let mean: f64 = (0..50_000).map(|_| l.sample(&mut rng)).sum::<f64>() / 50_000.0;
        assert!((mean - 80.0).abs() < 2.5, "empirical mean {mean}");
    }

    #[test]
    fn sample_max_grows_with_n() {
        let mut rng = small_rng(4);
        let l = HopLatency::wan();
        let mean_of = |n: usize, rng: &mut rand::rngs::SmallRng| {
            (0..2_000).map(|_| l.sample_max(n, rng)).sum::<f64>() / 2_000.0
        };
        let one = mean_of(1, &mut rng);
        let many = mean_of(32, &mut rng);
        assert!(
            many > one,
            "max of 32 draws {many} must exceed single {one}"
        );
        assert!(many < 200.0);
    }

    #[test]
    fn sample_max_of_zero_is_zero() {
        let mut rng = small_rng(5);
        assert_eq!(HopLatency::wan().sample_max(0, &mut rng), 0.0);
    }
}
