//! Multiprogrammed workload mixes for the Fig. 13 performance study.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::AppProfile;

/// The pool of synthetic applications the mixes draw from: a spread of
/// RBMPKI values mirroring the SPEC2017+2006 range the paper uses.
pub(crate) fn app_pool() -> Vec<AppProfile> {
    [
        ("pool-0.5", 0.5),
        ("pool-1", 1.0),
        ("pool-2", 2.0),
        ("pool-4", 4.0),
        ("pool-6", 6.0),
        ("pool-9", 9.0),
        ("pool-13", 13.0),
        ("pool-18", 18.0),
        ("pool-25", 25.0),
        ("pool-35", 35.0),
    ]
    .iter()
    .map(|&(name, r)| AppProfile::with_rbmpki(name, r))
    .collect()
}

/// Draws `n` four-core mixes from the pool (with replacement), seeded.
pub fn four_core_mixes(n: usize, seed: u64) -> Vec<[AppProfile; 4]> {
    let pool = app_pool();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| core::array::from_fn(|_| pool[rng.gen_range(0..pool.len())].clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_spans_the_intensity_range() {
        let pool = app_pool();
        assert_eq!(pool.len(), 10);
        let min = pool
            .iter()
            .map(|p| p.rbmpki())
            .fold(f64::INFINITY, f64::min);
        let max = pool.iter().map(|p| p.rbmpki()).fold(0.0, f64::max);
        assert!(min < 1.0, "min {min}");
        assert!(max > 20.0, "max {max}");
    }

    #[test]
    fn mixes_are_deterministic_per_seed() {
        let a = four_core_mixes(5, 9);
        let b = four_core_mixes(5, 9);
        assert_eq!(a, b);
        let c = four_core_mixes(5, 10);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5);
    }
}
