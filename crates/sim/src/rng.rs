//! Deterministic randomness plumbing.
//!
//! Every experiment takes a single master seed. Sub-streams (one per
//! replication, per estimation, per parallel task) are derived with
//! SplitMix64, so that results are bit-reproducible and independent of
//! thread scheduling or the order replications happen to run in.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 — the standard 64-bit seed-expansion PRNG (Steele et al.,
/// "Fast splittable pseudorandom number generators", OOPSLA 2014).
///
/// Not used as a simulation RNG itself (that is `SmallRng`); only to derive
/// well-separated seeds from a master seed.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the sequence at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Iterator for SplitMix64 {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        Some(self.next_u64())
    }
}

/// Derives the `stream`-th child seed of `master`.
///
/// Children of the same master are pairwise well-separated; the same
/// `(master, stream)` always yields the same seed.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut sm = SplitMix64::new(master ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    // Two rounds to decorrelate adjacent streams.
    sm.next_u64();
    sm.next_u64()
}

/// The per-replication seed sequence of a sweep: replication `i` runs on
/// `derive_seed(master, i)`.
///
/// This is *the* seed-derivation convention for replication sweeps — every
/// sweep fans out through [`crate::parallel::map_replications`], which
/// derives its seeds here, so a figure's replication #3 can be reproduced
/// in isolation from `(master_seed, 2)` no matter which driver originally
/// ran it.
pub fn replication_seeds(master: u64, replications: usize) -> impl Iterator<Item = u64> {
    (0..replications as u64).map(move |i| derive_seed(master, i))
}

/// The workspace-standard simulation RNG, seeded deterministically.
pub fn small_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Convenience: the `stream`-th child RNG of `master`.
pub fn child_rng(master: u64, stream: u64) -> SmallRng {
    small_rng(derive_seed(master, stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = SplitMix64::new(42).take(5).collect();
        let b: Vec<u64> = SplitMix64::new(42).take(5).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = SplitMix64::new(43).take(5).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix_known_vector() {
        // Canonical SplitMix64 test vector: seed 0 produces this sequence
        // (first value of the reference C implementation).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn derived_seeds_differ_across_streams() {
        let seeds: Vec<u64> = (0..100).map(|s| derive_seed(7, s)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision");
    }

    #[test]
    fn derived_seeds_are_stable() {
        assert_eq!(derive_seed(1, 1), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
    }

    #[test]
    fn replication_seed_sequence_is_pinned() {
        // The exact derived-seed sequence is part of the reproducibility
        // contract: published figure data is only re-derivable if these
        // values never change. Pinned for master seed 42.
        let seeds: Vec<u64> = replication_seeds(42, 4).collect();
        assert_eq!(
            seeds,
            vec![
                0x28EF_E333_B266_F103,
                0x5F23_C636_D928_E9EE,
                0x30FA_E571_8D04_8A30,
                0x96EC_B2D8_F260_DD0C,
            ]
        );
        // And the sequence is exactly the derive_seed convention.
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, derive_seed(42, i as u64));
        }
        assert_eq!(replication_seeds(42, 0).count(), 0);
    }

    #[test]
    fn child_rngs_reproduce() {
        let mut a = child_rng(9, 3);
        let mut b = child_rng(9, 3);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn splitmix_bits_look_balanced() {
        // Cheap sanity: average popcount over many outputs should be ~32.
        let total: u32 = SplitMix64::new(99)
            .take(1_000)
            .map(|v| v.count_ones())
            .sum();
        let mean = total as f64 / 1_000.0;
        assert!((30.0..34.0).contains(&mean), "mean popcount {mean}");
    }
}
