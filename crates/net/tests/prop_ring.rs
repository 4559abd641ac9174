//! Consistent-hash ring laws (the federation's routing foundation):
//!
//! 1. **Exactly one live owner** — every cluster id maps to exactly one
//!    member of any non-empty ring, and that member is drawn from the
//!    ring's own membership list.
//! 2. **Minimal disruption on join** — adding a shard moves keys *only
//!    onto the new shard* (never between survivors), and moves roughly
//!    1/N of them.
//! 3. **Minimal disruption on leave** — removing a shard moves *only its
//!    own keys*, and the orphans land spread over the survivors.
//!
//! These are what make a federated ring transition safe: a directory
//! entry's owner changes only when its owner actually joined or died.

use faucets_core::ids::ClusterId;
use faucets_net::federation::Ring;
use faucets_sim::check::{for_seeds, vec_of};
use rand::rngs::StdRng;
use rand::Rng;

/// A name of 1..=8 letters a–z.
fn name(rng: &mut StdRng) -> String {
    let letters = vec_of(rng, 1..9, |rng| rng.random_range(b'a'..=b'z') as char);
    letters.into_iter().collect()
}

/// Membership sets of 1..=7 uniquely named shards (sorted + deduped, so
/// duplicates drawn by the generator collapse instead of biasing).
fn members(rng: &mut StdRng) -> Vec<String> {
    let mut v = vec_of(rng, 1..8, |rng| format!("fs-{}", name(rng)));
    v.sort();
    v.dedup();
    v
}

#[test]
fn every_key_has_exactly_one_live_owner() {
    for_seeds(256, |rng| {
        let ring = Ring::build(members(rng), 1);
        for k in vec_of(rng, 1..200, |rng| rng.random::<u64>()) {
            let owner = ring
                .owner(ClusterId(k))
                .expect("non-empty ring owns all keys");
            assert_eq!(
                ring.members()
                    .iter()
                    .filter(|m| m.as_str() == owner)
                    .count(),
                1,
                "owner {owner} must appear exactly once in the membership"
            );
        }
    });
}

#[test]
fn adding_a_shard_moves_keys_only_onto_it() {
    for_seeds(256, |rng| {
        let members = members(rng);
        // The `fs-new-` prefix keeps the newcomer out of `members`.
        let newcomer = format!("fs-new-{}", name(rng));
        let before = Ring::build(members.clone(), 1);
        let after = Ring::build(members.iter().cloned().chain([newcomer.clone()]), 2);
        let samples = 4_000u64;
        let mut moved = 0u64;
        for k in 0..samples {
            let was = before.owner(ClusterId(k)).unwrap();
            let now = after.owner(ClusterId(k)).unwrap();
            if was != now {
                assert_eq!(
                    now,
                    newcomer.as_str(),
                    "key {k} moved between surviving shards"
                );
                moved += 1;
            }
        }
        // The newcomer takes ~1/(N+1) of the keyspace; allow generous
        // slack for vnode variance at small N.
        let n = members.len() as f64 + 1.0;
        let share = moved as f64 / samples as f64;
        assert!(
            share < (1.0 / n) * 3.0 + 0.05,
            "newcomer took {:.3} of keys, expected about {:.3}",
            share,
            1.0 / n
        );
    });
}

#[test]
fn removing_a_shard_moves_only_its_own_keys() {
    for_seeds(256, |rng| {
        let members = members(rng);
        if members.len() < 2 {
            return;
        }
        let dead = members[rng.random_range(0..members.len())].clone();
        let before = Ring::build(members.clone(), 1);
        let after = Ring::build(members.iter().filter(|m| **m != dead).cloned(), 2);
        let samples = 4_000u64;
        let mut orphans = 0u64;
        for k in 0..samples {
            let was = before.owner(ClusterId(k)).unwrap();
            let now = after.owner(ClusterId(k)).unwrap();
            if was == dead {
                orphans += 1;
                assert_ne!(now, dead.as_str(), "dead shard still owns key {k}");
            } else {
                assert_eq!(was, now, "key {k} moved off a surviving shard");
            }
        }
        // The dead shard owned ~1/N of the keyspace.
        let n = members.len() as f64;
        let share = orphans as f64 / samples as f64;
        assert!(
            share < (1.0 / n) * 3.0 + 0.05,
            "dead shard owned {:.3} of keys, expected about {:.3}",
            share,
            1.0 / n
        );
    });
}

#[test]
fn membership_order_never_changes_routing() {
    for_seeds(256, |rng| {
        let members = members(rng);
        let a = Ring::build(members.clone(), 7);
        let b = Ring::build(members.into_iter().rev(), 7);
        for k in vec_of(rng, 1..100, |rng| rng.random::<u64>()) {
            assert_eq!(a.owner(ClusterId(k)), b.owner(ClusterId(k)));
        }
    });
}
