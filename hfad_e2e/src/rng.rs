//! Seeded randomness for the benchmark's inputs: every input is a pure
//! function of `--seed`, so a run can be replayed. The generator and the
//! Zipf sampler are the workspace's own (`rand::rngs::StdRng`,
//! `hfad_workload::Zipf`), the ones the corpora are built with.

pub use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator for one purpose (`stream`) of a run: clients and
/// purposes draw from separate streams of the same seed.
pub fn seeded(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream))
}

/// Stateless hash of two words (the SplitMix64 finalizer): the `b`-th
/// output of the stream keyed by `a`, addressable in any order.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_add(b.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates), used to decouple
/// popularity rank from insertion order.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed, stream| -> Vec<u64> {
            let mut rng = seeded(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_eq!(mix(3, 4), mix(3, 4));
        assert_ne!(mix(3, 4), mix(4, 3));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut perm = permutation(100, &mut seeded(5, 0));
        assert_ne!(perm, (0..100).collect::<Vec<_>>());
        perm.sort_unstable();
        assert_eq!(perm, (0..100).collect::<Vec<_>>());
    }
}
