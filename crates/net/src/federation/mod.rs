//! Federated central server: sharded directory + gossip membership.
//!
//! The single-process FS is the scalability ceiling the paper's §2 load
//! figures run into. This module federates it: N FS instances each own a
//! shard of the cluster directory, determined by a [`Ring`] (consistent
//! hashing over cluster ids), and learn about each other through a
//! heartbeat-counter gossip protocol ([`MembershipView`]). Any shard can
//! answer any client: requests keyed by a cluster id it does not own are
//! forwarded to the ring owner, and directory-wide queries scatter-gather
//! every alive peer with [`crate::proto::FedQuery`] frames over the
//! existing pooled/retry/breaker RPC stack.
//!
//! Layering:
//!
//! - [`ring`] — pure consistent-hash ring (who owns which cluster id).
//! - [`gossip`] — pure membership state + merge logic (who is alive).
//! - `router` — the [`Federation`] runtime tying them together: the
//!   gossip tick on the FS's service, ring rebuilds, and the
//!   forward/scatter primitives the FS handler composes.
//!
//! The replicated WAL journal under each shard is unchanged: a shard
//! journals exactly the registrations/heartbeats/evictions for the key
//! range it owns.

pub mod gossip;
pub mod ring;
mod router;

pub use gossip::{GossipView, MemberDigest, MembershipView, MergeOutcome};
pub use ring::{Ring, VNODES};
pub use router::{Federation, FederationOptions};
