//! Virtual simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in abstract ticks.
///
/// The paper's simulator does not model latency, so ticks carry no physical
/// unit: protocols only rely on ordering (and the round protocols on equal
/// spacing). `SimTime` is a `u64` newtype to keep arithmetic honest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// The raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("SimTime subtraction underflow")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// `x.round().max(0.0) as u64` without the libm call: rounds half away
/// from zero, saturates at `u64::MAX`, and maps negatives and NaN to 0 —
/// the same value for every `f64`.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    // `x − t` is exact for every finite `x ≥ 0` below 2^64.
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// `x.ceil() as u64` without the libm call: saturates at `u64::MAX` and
/// maps negatives and NaN to 0 — the same value for every `f64`.
#[inline]
pub fn ceil_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_rounding_matches_the_f64_methods() {
        let two53 = 2f64.powi(53);
        let two64 = 2f64.powi(64);
        let mut cases = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            two53,
            two53 - 1.0,
            two53 + 2.0,
            2f64.powi(52) + 0.5,
            two64,
            two64 - 2048.0,
            1e30,
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            -0.4,
            -0.5,
            -0.6,
            -7.5,
            -1e30,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for k in [0u64, 1, 2, 3, 41, 1 << 20, (1 << 52) - 1] {
            let k = k as f64;
            cases.extend([k, k + 0.5, k + 0.25, k + 0.75, -(k + 0.5)]);
        }
        for x in cases {
            assert_eq!(
                round_to_u64(x),
                x.round().max(0.0) as u64,
                "round_to_u64({x:e})"
            );
            assert_eq!(ceil_to_u64(x), x.ceil() as u64, "ceil_to_u64({x:e})");
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + 5;
        assert_eq!(t.ticks(), 5);
        let mut u = t;
        u += 10;
        assert_eq!(u - t, 10);
        assert!(u > t);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn negative_duration_panics() {
        let _ = SimTime(3) - SimTime(5);
    }
}
