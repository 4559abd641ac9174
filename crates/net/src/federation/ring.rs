//! The consistent-hash ring: which shard owns which cluster id.
//!
//! Each federation member is placed on a `u64` ring at [`VNODES`] points
//! (virtual nodes smooth the key distribution), and a cluster id is owned
//! by the member whose point is the first at or clockwise-after the key's
//! hash. Membership changes therefore remap only the keys that fell
//! between the joining/leaving member's points and their predecessors —
//! the minimal-disruption law `tests/prop_ring.rs` pins down: adding a shard
//! moves keys *only onto the new shard*, removing one moves *only its own
//! keys*, and every key always has exactly one live owner.
//!
//! The ring is a pure value: rebuilt from the alive membership set on
//! every liveness change, with a monotonically increasing [`Ring::epoch`]
//! so directory rows and tests can tell ring generations apart. Hashing
//! is a splitmix64 finalizer over FNV-1a'd member names — dependency-free
//! and deterministic across shards, which is what makes any two shards
//! with the same membership view agree on every owner.

use crate::fault::mix64;
use faucets_core::ids::ClusterId;

/// Virtual nodes per member: enough to keep the per-shard key share
/// within a few percent of 1/N at small N without bloating rebuilds.
pub const VNODES: usize = 64;

/// FNV-1a over a member name, seeding its vnode points.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A consistent-hash ring over named shard members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    epoch: u64,
    members: Vec<String>,
    /// `(point, member index)` sorted by point.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// Build a ring for `members` at `epoch`. Members are sorted and
    /// deduplicated, so any two shards that agree on the membership *set*
    /// agree on every owner.
    pub fn build(members: impl IntoIterator<Item = String>, epoch: u64) -> Ring {
        let mut members: Vec<String> = members.into_iter().collect();
        members.sort();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * VNODES);
        for (i, m) in members.iter().enumerate() {
            let base = hash_name(m);
            for v in 0..VNODES {
                points.push((mix64(base ^ mix64(v as u64 + 1)), i as u32));
            }
        }
        points.sort_unstable();
        Ring {
            epoch,
            members,
            points,
        }
    }

    /// The ring generation (bumped by the federation on every liveness
    /// change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The members this ring was built from, sorted.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// True when no member is on the ring.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member owning `key`: the first ring point at or clockwise-after
    /// the key's hash (wrapping). `None` only on an empty ring.
    pub fn owner(&self, key: ClusterId) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let h = mix64(key.raw());
        let idx = match self.points.binary_search_by(|p| p.0.cmp(&h)) {
            Ok(i) => i,
            Err(i) => i % self.points.len(),
        };
        Some(&self.members[self.points[idx].1 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard-{i}")).collect()
    }

    #[test]
    fn every_key_has_exactly_one_owner() {
        let ring = Ring::build(names(4), 1);
        for k in 0..5_000u64 {
            let owner = ring.owner(ClusterId(k)).expect("non-empty ring");
            assert!(ring.members().iter().any(|m| m == owner));
        }
        assert!(Ring::build(std::iter::empty(), 0)
            .owner(ClusterId(7))
            .is_none());
    }

    #[test]
    fn identical_membership_means_identical_owners() {
        // Two shards that agree on the alive set must agree on routing,
        // regardless of insertion order or duplicates.
        let a = Ring::build(names(5), 3);
        let mut shuffled = names(5);
        shuffled.reverse();
        shuffled.push("shard-2".into()); // duplicate
        let b = Ring::build(shuffled, 3);
        for k in 0..2_000u64 {
            assert_eq!(a.owner(ClusterId(k)), b.owner(ClusterId(k)));
        }
    }

    #[test]
    fn removal_only_moves_the_dead_shards_keys() {
        let before = Ring::build(names(4), 1);
        let after = Ring::build(names(4).into_iter().filter(|m| m != "shard-1"), 2);
        for k in 0..5_000u64 {
            let was = before.owner(ClusterId(k)).unwrap();
            let now = after.owner(ClusterId(k)).unwrap();
            if was != "shard-1" {
                assert_eq!(was, now, "key {k} moved off a surviving shard");
            } else {
                assert_ne!(now, "shard-1");
            }
        }
    }

    #[test]
    fn share_is_roughly_balanced() {
        let ring = Ring::build(names(4), 1);
        let mut counts = std::collections::HashMap::new();
        let samples = 20_000u64;
        for k in 0..samples {
            *counts
                .entry(ring.owner(ClusterId(k)).unwrap().to_string())
                .or_insert(0u64) += 1;
        }
        for (m, c) in counts {
            let share = c as f64 / samples as f64;
            assert!(
                (0.10..=0.40).contains(&share),
                "{m} owns {share:.3} of keys"
            );
        }
    }
}
