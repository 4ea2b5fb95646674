//! The random distributions the workload models draw from.
//!
//! The vendored `rand` stand-in only provides uniform primitives, so the
//! samplers here are built from inverse CDFs and classic transforms:
//! Knuth's product method (small-rate Poisson), a normal approximation via
//! Box–Muller (large-rate Poisson), and inverse-CDF Pareto/Weibull for the
//! heavy-tailed session lengths that IPFS-style churn measurements report.

use rand::Rng;
use std::f64::consts::{PI, TAU};

/// One standard-normal draw (Box–Muller; consumes exactly two uniforms).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // 1 − U ∈ (0, 1] keeps the log finite.
    let u1 = 1.0 - rng.gen::<f64>();
    let u2 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

/// A Poisson draw with rate `lambda`.
///
/// Knuth's product method below rate 30 (exact, O(λ) uniforms), a rounded
/// `N(λ, λ)` approximation above it (flash-crowd-scale rates would
/// otherwise cost thousands of draws per step). `lambda ≤ 0` returns 0
/// without consuming the stream.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    debug_assert!(lambda.is_finite());
    if lambda <= 0.0 {
        return 0;
    }
    if lambda <= 30.0 {
        let limit = (-lambda).exp();
        let mut k = 0usize;
        let mut product = 1.0f64;
        loop {
            product *= rng.gen::<f64>();
            if product < limit {
                return k;
            }
            k += 1;
        }
    }
    (lambda + lambda.sqrt() * gaussian(rng)).round().max(0.0) as usize
}

/// Γ(x) via the Lanczos approximation (g = 7, 9 coefficients) — used to
/// convert a Weibull mean into its scale parameter. Relative error is below
/// 1e-10 on the arguments the lifetime distributions produce.
pub fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    #[expect(
        clippy::excessive_precision,
        reason = "the reference coefficients, verbatim; digits past f64 precision round"
    )]
    const C: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_59,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula for the left half-plane.
        PI / ((PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        let t = x + G + 0.5;
        TAU.sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// A session-length distribution: how long a node stays in the overlay, in
/// timeline steps.
///
/// Both families are parameterized by their *mean* so specs read as "mean
/// session of M steps, tail shape X" — the natural axis when matching
/// measured churn (e.g. the heavy-tailed IPFS session lengths).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LifetimeDist {
    /// Pareto with tail index `alpha` (> 1 for a finite mean): most
    /// sessions are short, a heavy tail of near-permanent peers remains.
    Pareto {
        /// Tail index (smaller ⇒ heavier tail).
        alpha: f64,
        /// Mean session length in steps.
        mean: f64,
    },
    /// Weibull with shape `shape` (< 1 gives the heavy-tailed,
    /// high-infant-mortality profile churn measurements report).
    Weibull {
        /// Shape parameter.
        shape: f64,
        /// Mean session length in steps.
        mean: f64,
    },
}

impl LifetimeDist {
    /// The distribution's mean session length in steps.
    pub fn mean(&self) -> f64 {
        match *self {
            LifetimeDist::Pareto { mean, .. } | LifetimeDist::Weibull { mean, .. } => mean,
        }
    }

    /// Draws one session length (consumes exactly one uniform).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 − U ∈ (0, 1] keeps both inverse CDFs finite.
        let u = 1.0 - rng.gen::<f64>();
        match *self {
            LifetimeDist::Pareto { alpha, mean } => {
                let x_m = mean * (alpha - 1.0) / alpha;
                x_m * u.powf(-1.0 / alpha)
            }
            LifetimeDist::Weibull { shape, mean } => {
                let scale = mean / gamma(1.0 + 1.0 / shape);
                scale * (-u.ln()).powf(1.0 / shape)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_sim::rng::small_rng;

    #[test]
    fn poisson_matches_rate() {
        let mut rng = small_rng(1);
        for lambda in [0.3f64, 2.5, 20.0, 500.0] {
            let n = 20_000;
            let mean = (0..n)
                .map(|_| poisson(&mut rng, lambda) as f64)
                .sum::<f64>()
                / n as f64;
            let rel = (mean - lambda).abs() / lambda;
            assert!(rel < 0.05, "λ={lambda}: sample mean {mean}");
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn gaussian_is_standard() {
        let mut rng = small_rng(2);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn gamma_known_values() {
        // Γ(n) = (n−1)!, Γ(1/2) = √π.
        assert!((gamma(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma(5.0) - 24.0).abs() < 1e-7);
        assert!((gamma(0.5) - PI.sqrt()).abs() < 1e-9);
        // Γ(1 + 1/0.5) = Γ(3) = 2 — the Weibull shape=0.5 conversion.
        assert!((gamma(3.0) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn lifetime_means_match_parameterization() {
        let mut rng = small_rng(3);
        let n = 200_000;
        for dist in [
            LifetimeDist::Pareto {
                alpha: 2.5,
                mean: 40.0,
            },
            LifetimeDist::Weibull {
                shape: 0.7,
                mean: 40.0,
            },
        ] {
            let mean = (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64;
            let rel = (mean - dist.mean()).abs() / dist.mean();
            assert!(rel < 0.1, "{dist:?}: sample mean {mean}");
            assert_eq!(dist.mean(), 40.0);
        }
    }

    #[test]
    fn pareto_is_heavier_tailed_than_weibull_at_same_mean() {
        // Same mean, but the α=1.5 Pareto should show far larger extremes
        // than a mild Weibull — that is what "heavy-tailed" buys.
        let mut rng = small_rng(4);
        let n = 50_000;
        let pareto = LifetimeDist::Pareto {
            alpha: 1.5,
            mean: 40.0,
        };
        let weibull = LifetimeDist::Weibull {
            shape: 1.0,
            mean: 40.0,
        };
        let max_p = (0..n).map(|_| pareto.sample(&mut rng)).fold(0.0, f64::max);
        let max_w = (0..n).map(|_| weibull.sample(&mut rng)).fold(0.0, f64::max);
        assert!(
            max_p > 5.0 * max_w,
            "pareto max {max_p} vs weibull max {max_w}"
        );
        // Every draw is a positive session length.
        assert!((0..1_000).all(|_| pareto.sample(&mut rng) > 0.0));
    }
}
