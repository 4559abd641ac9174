//! Gossip membership: heartbeat-versioned anti-entropy views.
//!
//! Every federated shard keeps a [`MembershipView`]: one entry per known
//! member carrying its address, an *incarnation* (picked once per process
//! start, so a restarted shard's counters never look stale next to its
//! previous life) and a *heartbeat* counter the owner increments each
//! gossip round. Views are exchanged push-pull over
//! [`crate::proto::Request::Gossip`] and merged by `(incarnation,
//! heartbeat)` dominance — the classic heartbeat-counter failure detector:
//! a member whose counter stops advancing for ten local rounds
//! (`DEAD_AFTER_ROUNDS` in `router.rs`) is graded dead and drops off the
//! ring; a later advance (the
//! shard was partitioned, not dead, or restarted with a fresh
//! incarnation) resurrects it.
//!
//! Everything here is pure data + merge logic (no sockets), which is what
//! the unit tests and the convergence-counter deflake guard lean on.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// One member's entry in a gossiped view. Addresses travel as strings
/// (the repo's wire convention, see `ServerInfo::fd_addr`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberDigest {
    /// Shard name (the ring identity).
    pub name: String,
    /// Where the shard serves, as `ip:port`.
    pub addr: String,
    /// Process-lifetime nonce; a restart picks a new one so its reset
    /// heartbeat counter still dominates the old life's.
    pub incarnation: u64,
    /// Monotone liveness counter, advanced by the owner each round.
    pub heartbeat: u64,
}

/// A full gossiped view: every member the sender knows, plus the sender's
/// ring epoch so epochs converge to the federation-wide max.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GossipView {
    /// The sender's current ring epoch.
    pub ring_epoch: u64,
    /// Every member the sender knows about (including itself and members
    /// it has graded dead — staleness is in the counters, receivers grade
    /// for themselves).
    pub members: Vec<MemberDigest>,
}

/// Local bookkeeping for one known member.
#[derive(Debug, Clone)]
pub struct MemberState {
    /// Where the shard serves.
    pub addr: SocketAddr,
    /// Last dominant incarnation seen.
    pub incarnation: u64,
    /// Last dominant heartbeat seen.
    pub heartbeat: u64,
    /// Liveness verdict under the local failure detector.
    pub alive: bool,
    /// Local round at which the counter last advanced.
    last_advance: u64,
}

/// What a merge did, so the gossip loop can count convergence and only
/// rebuild the ring when liveness actually changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Any counter or address was refreshed.
    pub refreshed: bool,
    /// The alive set changed (ring must be rebuilt).
    pub liveness_changed: bool,
}

/// One shard's membership view (including itself).
#[derive(Debug, Clone)]
pub struct MembershipView {
    self_name: String,
    round: u64,
    members: BTreeMap<String, MemberState>,
}

impl MembershipView {
    /// A view containing only ourselves.
    pub fn new(self_name: &str, self_addr: SocketAddr, incarnation: u64) -> Self {
        let mut members = BTreeMap::new();
        members.insert(
            self_name.to_string(),
            MemberState {
                addr: self_addr,
                incarnation,
                heartbeat: 1,
                alive: true,
                last_advance: 0,
            },
        );
        MembershipView {
            self_name: self_name.to_string(),
            round: 0,
            members,
        }
    }

    /// Our shard name.
    pub fn self_name(&self) -> &str {
        &self.self_name
    }

    /// Start a local round: advance our own heartbeat.
    pub fn tick(&mut self) {
        self.round += 1;
        let round = self.round;
        if let Some(me) = self.members.get_mut(&self.self_name) {
            me.heartbeat += 1;
            me.last_advance = round;
        }
    }

    /// Merge a remote view: `(incarnation, heartbeat)` dominance per
    /// member, resurrecting members whose counters advanced.
    pub fn merge(&mut self, remote: &GossipView) -> MergeOutcome {
        let mut out = MergeOutcome::default();
        let round = self.round;
        for d in &remote.members {
            if d.name == self.self_name {
                continue; // we are the authority on ourselves
            }
            let Ok(addr) = d.addr.parse::<SocketAddr>() else {
                continue;
            };
            match self.members.get_mut(&d.name) {
                None => {
                    self.members.insert(
                        d.name.clone(),
                        MemberState {
                            addr,
                            incarnation: d.incarnation,
                            heartbeat: d.heartbeat,
                            alive: true,
                            last_advance: round,
                        },
                    );
                    out.refreshed = true;
                    out.liveness_changed = true;
                }
                Some(e) => {
                    if (d.incarnation, d.heartbeat) > (e.incarnation, e.heartbeat) {
                        e.incarnation = d.incarnation;
                        e.heartbeat = d.heartbeat;
                        e.addr = addr;
                        e.last_advance = round;
                        if !e.alive {
                            e.alive = true;
                            out.liveness_changed = true;
                        }
                        out.refreshed = true;
                    }
                }
            }
        }
        out
    }

    /// Grade liveness: a peer whose counter has not advanced for
    /// `dead_after` local rounds is dead (we never grade ourselves).
    /// Returns true when the alive set changed.
    pub fn grade(&mut self, dead_after: u64) -> bool {
        let mut changed = false;
        let round = self.round;
        for (name, e) in self.members.iter_mut() {
            if *name == self.self_name {
                continue;
            }
            let stale = round.saturating_sub(e.last_advance) > dead_after;
            if e.alive && stale {
                e.alive = false;
                changed = true;
            }
        }
        changed
    }

    /// The view we push to peers (all members, dead ones included — their
    /// stale counters cannot resurrect them at the receiver).
    pub fn digest(&self, ring_epoch: u64) -> GossipView {
        GossipView {
            ring_epoch,
            members: self
                .members
                .iter()
                .map(|(name, e)| MemberDigest {
                    name: name.clone(),
                    addr: e.addr.to_string(),
                    incarnation: e.incarnation,
                    heartbeat: e.heartbeat,
                })
                .collect(),
        }
    }

    /// Alive member names, ourselves included (the ring's input).
    pub fn alive_names(&self) -> Vec<String> {
        self.members
            .iter()
            .filter(|(_, e)| e.alive)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Alive peers (name, addr), ourselves excluded (the scatter and
    /// gossip targets).
    pub fn alive_peers(&self) -> Vec<(String, SocketAddr)> {
        self.members
            .iter()
            .filter(|(n, e)| e.alive && **n != self.self_name)
            .map(|(n, e)| (n.clone(), e.addr))
            .collect()
    }

    /// Look up an alive member's address by name.
    pub fn addr_of(&self, name: &str) -> Option<SocketAddr> {
        self.members.get(name).filter(|e| e.alive).map(|e| e.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn digest_of(view: &MembershipView) -> GossipView {
        view.digest(0)
    }

    #[test]
    fn merge_learns_members_and_dominance_wins() {
        let mut a = MembershipView::new("a", addr(1), 10);
        let mut b = MembershipView::new("b", addr(2), 20);
        b.tick();
        b.tick();
        let out = a.merge(&digest_of(&b));
        assert!(out.refreshed && out.liveness_changed);
        assert_eq!(a.alive_names(), vec!["a".to_string(), "b".to_string()]);

        // Replaying the same view changes nothing (anti-entropy converges).
        let out = a.merge(&digest_of(&b));
        assert_eq!(out, MergeOutcome::default());

        // A stale view (lower heartbeat) never regresses the entry.
        let hb = a.members.get("b").unwrap().heartbeat;
        let stale = GossipView {
            ring_epoch: 0,
            members: vec![MemberDigest {
                name: "b".into(),
                addr: addr(2).to_string(),
                incarnation: 20,
                heartbeat: hb - 1,
            }],
        };
        assert_eq!(a.merge(&stale), MergeOutcome::default());
        assert_eq!(a.members.get("b").unwrap().heartbeat, hb);
    }

    #[test]
    fn staleness_kills_and_fresh_counters_resurrect() {
        let mut a = MembershipView::new("a", addr(1), 1);
        let mut b = MembershipView::new("b", addr(2), 2);
        b.tick();
        a.merge(&digest_of(&b));
        // b goes silent for more than dead_after rounds.
        for _ in 0..5 {
            a.tick();
            a.grade(3);
        }
        assert_eq!(a.alive_names(), vec!["a".to_string()]);
        assert!(a.addr_of("b").is_none(), "dead members are not routable");

        // b speaks again with an advanced counter: resurrected.
        b.tick();
        let out = a.merge(&digest_of(&b));
        assert!(out.liveness_changed);
        assert_eq!(a.alive_names().len(), 2);

        // A *restarted* b (fresh incarnation, reset heartbeat) dominates
        // its old life even though its counter restarted from 1.
        for _ in 0..5 {
            a.tick();
            a.grade(3);
        }
        let reborn = MembershipView::new("b", addr(3), 99);
        let out = a.merge(&digest_of(&reborn));
        assert!(out.liveness_changed);
        assert_eq!(a.addr_of("b"), Some(addr(3)), "address follows the restart");
    }

    #[test]
    fn self_entry_is_never_overwritten() {
        let mut a = MembershipView::new("a", addr(1), 1);
        let forged = GossipView {
            ring_epoch: 0,
            members: vec![MemberDigest {
                name: "a".into(),
                addr: addr(9).to_string(),
                incarnation: 999,
                heartbeat: 999,
            }],
        };
        assert_eq!(a.merge(&forged), MergeOutcome::default());
        assert_eq!(a.addr_of("a"), Some(addr(1)));
    }

    #[test]
    fn a_view_that_still_carries_load_decodes() {
        // Peers built before the load digest left the view still send it.
        let mut b = MembershipView::new("b", addr(2), 2);
        b.tick();
        let view = digest_of(&b);
        let json = serde_json::to_string(&view)
            .unwrap()
            .replace(r#""heartbeat":2"#, r#""heartbeat":2,"load":17"#);
        assert!(json.contains(r#""load":17"#), "{json}");
        let decoded: GossipView = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, view);
    }
}
