//! Seeded property checks: a property is a closure over a generator, run
//! once per seed in `0..cases`. The panic of a failing case names its seed;
//! the property on `StdRng::seed_from_u64(seed)` reproduces it exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `property` on a fresh `StdRng` for every seed in `0..cases`.
pub fn for_seeds(cases: u64, mut property: impl FnMut(&mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let why = panic.downcast_ref::<String>().map(String::as_str);
            let why = why.or_else(|| panic.downcast_ref::<&str>().copied());
            panic!("seed {seed} of 0..{cases} failed: {}", why.unwrap_or("?"));
        }
    }
}

/// A vector whose length is drawn from `len` and whose items `item` draws.
pub fn vec_of<T>(rng: &mut StdRng, len: Range<usize>, item: impl Fn(&mut StdRng) -> T) -> Vec<T> {
    let n = rng.random_range(len);
    (0..n).map(|_| item(rng)).collect()
}
