//! Control-plane replication over the wire: follower daemons, remote
//! replica links, and the [`Journal`] switch that lets the FS and FD run
//! their write-ahead journals either single-node or replicated.
//!
//! The `faucets_store::replicate` module defines the mechanics — frame
//! shipping, epoch fencing, snapshot catch-up, deterministic promotion —
//! against an abstract [`ReplicaLink`]. This module supplies the deployed
//! form of both ends:
//!
//! * [`spawn_replica`] runs a **follower daemon**: a TCP service answering
//!   [`Request::ReplAppend`] / [`Request::ReplSnapshot`] /
//!   [`Request::ReplStatus`] by persisting frames into per-service
//!   [`FollowerStore`]s. A follower's on-disk directory is byte-compatible
//!   with the primary's, so promotion is nothing more exotic than opening
//!   the directory with the normal recovery path. It also answers
//!   [`Request::ReplRelease`] — the sentinel's remote promotion hand-off,
//!   equivalent to [`ReplicaHandle::release`] over the wire.
//! * [`RemoteLink`] is a [`ReplicaLink`] speaking the same protocol from
//!   the primary side, through [`call_with`] — so replication traffic
//!   rides the existing retry, deadline, breaker, and pool stack, and is
//!   fault-injectable like every other Faucets RPC. A link is a standing
//!   relationship, not a call site: it keeps one warm socket to its
//!   follower in a [`ConnPool`] of its own (unless the caller's
//!   [`CallOptions`] bring a transport), so a ship costs a round trip, not
//!   a connect, an accept and a tear-down. The store ships to a follower
//!   one RPC at a time, which is why one socket is enough; a follower that
//!   restarted while the socket sat idle is caught by the pool's health
//!   check or its one-shot stale retry and never surfaces as a ship error.
//! * [`Journal`] is what the FS/FD journal handle becomes: `Plain` wraps
//!   the PR-3 [`DurableStore`] unchanged; `Replicated` routes every commit
//!   through a [`ReplicatedStore`] built from a [`ReplicationConfig`].
//!
//! ## Failover contract
//!
//! Acknowledged-entry durability across failover is the point of the
//! design: a client `Ok` implies the record is on every follower, so
//! *any* electable follower has it. Election is
//! deterministic — probe every survivor's [`Request::ReplStatus`] position
//! and pick the maximum `(epoch, generation, acked)` (ties broken by list
//! order, see `faucets_store::pick_primary`) — and the deposed primary is
//! fenced by epoch the moment it talks to any follower that has seen the
//! new reign.
//!
//! One sizing caveat: a frame's payload, a record's JSON text, travels as
//! a JSON string inside protocol frames bounded by
//! [`crate::proto::MAX_FRAME`], and escaping can double it, so a single
//! journal record must stay under half that bound (ample for the row-sized
//! records the FS and FD journal; [`RemoteLink`] batches small frames and
//! never splits one).

use crate::pool::{ConnPool, PoolConfig};
use crate::proto::{Request, Response};
use crate::service::{call_with, serve, CallOptions, ServiceHandle};
use faucets_store::{
    Durable, DurableStore, FollowerOptions, FollowerStore, RecoveryReport, ReplFrame, ReplOptions,
    ReplPosition, ReplReply, ReplicaLink, ReplicatedStore, ReplicationMode, SnapshotBlob,
    StoreError, StoreOptions,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Payload budget per shipped [`Request::ReplAppend`] batch. A payload is
/// a record's JSON text and ships as a JSON string, which escapes each `"`
/// and `\` in it: at most twice its length (compact JSON holds no raw
/// control character), so this is set well under
/// [`crate::proto::MAX_FRAME`].
const MAX_BATCH_PAYLOAD: usize = 2 * 1024 * 1024;

/// Frame-count bound per shipped batch, so a burst of tiny records still
/// produces reasonably sized RPCs.
const MAX_BATCH_FRAMES: usize = 1024;

/// Options for [`spawn_replica`].
#[derive(Clone, Default)]
pub struct ReplicaOptions {
    /// Skip fsync in follower stores (tests/benchmarks only; a follower
    /// that lies about durability voids the acked-means-replicated contract).
    pub no_fsync: bool,
}

/// A running follower daemon hosting one [`FollowerStore`] per replicated
/// service name.
pub struct ReplicaHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    stores: Arc<Mutex<HashMap<String, Arc<FollowerStore>>>>,
    dirs: HashMap<String, PathBuf>,
    service: Option<ServiceHandle>,
}

impl ReplicaHandle {
    /// The follower's current durable position for `service`, if hosted.
    pub fn position(&self, service: &str) -> Option<ReplPosition> {
        self.stores.lock().get(service).map(|s| s.position())
    }

    /// Detach `service` from this follower and return its journal
    /// directory — the promotion hand-off. After release the follower
    /// answers `NotFound` for the service, so a fenced ex-primary cannot
    /// keep feeding it behind the promoted node's back, and the caller may
    /// open the directory with [`DurableStore::open`] (or
    /// [`ReplicatedStore::open`]) to take over as primary.
    pub fn release(&self, service: &str) -> Option<PathBuf> {
        self.stores.lock().remove(service)?;
        self.dirs.get(service).cloned()
    }

    /// Graceful stop: the accept loop and workers exit; stores stay on
    /// disk.
    pub fn shutdown(mut self) {
        if let Some(s) = self.service.take() {
            s.shutdown();
        }
    }

    /// Simulate a crash: stop serving immediately, no goodbyes.
    pub fn kill(mut self) {
        if let Some(s) = self.service.take() {
            s.kill();
        }
    }
}

/// Spawn a follower daemon on `addr` hosting one [`FollowerStore`] per
/// `(service name, journal directory)` pair. Each store recovers whatever
/// the directory already holds, so a restarted follower resumes from its
/// durable position and asks the primary only for what it missed.
pub fn spawn_replica(
    addr: &str,
    services: &[(String, PathBuf)],
    opts: ReplicaOptions,
) -> io::Result<ReplicaHandle> {
    let mut map = HashMap::new();
    let mut dirs = HashMap::new();
    for (name, dir) in services {
        let store = FollowerStore::open(
            dir,
            FollowerOptions {
                service: name.clone(),
                no_fsync: opts.no_fsync,
            },
        )
        .map_err(io::Error::other)?;
        map.insert(name.clone(), Arc::new(store));
        dirs.insert(name.clone(), dir.clone());
    }
    let stores = Arc::new(Mutex::new(map));
    let st = Arc::clone(&stores);
    let release_dirs = dirs.clone();
    let service = serve(addr, "replica", move |req| {
        let lookup = |service: &str| st.lock().get(service).cloned();
        match req {
            Request::ReplAppend { service, frames } => match lookup(&service) {
                Some(store) => repl_response(store.offer(&frames)),
                None => Response::Error(format!("unknown replicated service {service:?}")),
            },
            Request::ReplSnapshot { service, blob } => match lookup(&service) {
                Some(store) => repl_response(store.install(&blob)),
                None => Response::Error(format!("unknown replicated service {service:?}")),
            },
            Request::ReplStatus { service } => match lookup(&service) {
                Some(store) => Response::Repl(ReplReply::Ok(store.position())),
                None => Response::Error(format!("unknown replicated service {service:?}")),
            },
            // The sentinel's promotion hand-off: detach the follower so a
            // fenced ex-primary cannot keep feeding it, and hand back the
            // journal directory for prepare_promotion + reopening.
            Request::ReplRelease { service } => {
                match (st.lock().remove(&service), release_dirs.get(&service)) {
                    (Some(_), Some(dir)) => Response::Released {
                        dir: dir.display().to_string(),
                    },
                    _ => Response::Error(format!("unknown replicated service {service:?}")),
                }
            }
            other => Response::Error(format!(
                "replica daemon does not serve {}",
                other.endpoint()
            )),
        }
    })?;
    Ok(ReplicaHandle {
        addr: service.addr,
        stores,
        dirs,
        service: Some(service),
    })
}

/// Render a follower-store result as a wire response.
fn repl_response(res: Result<ReplReply, StoreError>) -> Response {
    match res {
        Ok(reply) => Response::Repl(reply),
        Err(e) => Response::Error(format!("replica store: {e}")),
    }
}

/// A [`ReplicaLink`] that ships frames to a remote follower daemon over
/// the Faucets RPC stack, on a connection it keeps: the primary ships to a
/// follower one RPC at a time (`faucets_store::replicate`'s per-link ship
/// lock), so a link holds exactly one warm socket, checked out of its
/// [`ConnPool`] for each round trip and returned after it.
pub struct RemoteLink {
    addr: SocketAddr,
    service: String,
    call: CallOptions,
}

impl RemoteLink {
    /// Link to the follower at `addr` for the named replicated service.
    /// `call` may bring its own pool ([`CallOptions::pool`], e.g. to share
    /// one across links); when it brings none the link supplies its own,
    /// so there is no way to ask for a dial per ship.
    pub fn new(addr: SocketAddr, service: impl Into<String>, mut call: CallOptions) -> RemoteLink {
        if call.pool.is_none() && call.mux.is_none() {
            call.pool = Some(Arc::new(ConnPool::new("replica", PoolConfig::default())));
        }
        RemoteLink {
            addr,
            service: service.into(),
            call,
        }
    }

    /// One request/response round-trip, mapped into store-level errors:
    /// transport failures become [`StoreError::Io`] (retryable — the
    /// next commit re-plans), peer-reported errors become
    /// [`StoreError::Corrupt`].
    fn roundtrip(&self, req: &Request) -> Result<ReplReply, StoreError> {
        match call_with(self.addr, req, &self.call) {
            Ok(Response::Repl(reply)) => Ok(reply),
            Ok(Response::Error(e)) => Err(StoreError::Corrupt(format!("replica refused: {e}"))),
            Ok(other) => Err(StoreError::Corrupt(format!(
                "unexpected replica reply: {other:?}"
            ))),
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

impl ReplicaLink for RemoteLink {
    /// Ships `frames` in batches that fit a protocol frame, moving them
    /// into the requests: the usual ship — one batch — copies nothing.
    fn offer(&self, mut frames: Vec<ReplFrame>) -> Result<ReplReply, StoreError> {
        if frames.is_empty() {
            return self.status();
        }
        loop {
            let rest = frames.split_off(batch_len(&frames));
            let reply = self.roundtrip(&Request::ReplAppend {
                service: self.service.clone(),
                frames,
            })?;
            // Fencing and snapshot demands end the batch run: the store
            // re-plans from the reply.
            if rest.is_empty() || !matches!(reply, ReplReply::Ok(_)) {
                return Ok(reply);
            }
            frames = rest;
        }
    }

    fn install(&self, blob: &SnapshotBlob) -> Result<ReplReply, StoreError> {
        self.roundtrip(&Request::ReplSnapshot {
            service: self.service.clone(),
            blob: blob.clone(),
        })
    }

    fn status(&self) -> Result<ReplReply, StoreError> {
        self.roundtrip(&Request::ReplStatus {
            service: self.service.clone(),
        })
    }
}

/// Length of the first batch of `frames` (which is not empty), bounded by
/// payload bytes and frame count. A single frame is never split, whatever
/// its size.
fn batch_len(frames: &[ReplFrame]) -> usize {
    let mut bytes = 0usize;
    for (i, f) in frames.iter().enumerate() {
        bytes += f.payload.len();
        if i > 0 && (bytes > MAX_BATCH_PAYLOAD || i >= MAX_BATCH_FRAMES) {
            return i;
        }
    }
    frames.len()
}

/// How a service's journal is replicated; plugged into
/// [`crate::fd::FdOptions::replication`] and
/// [`crate::fs::FsOptions::replication`].
#[derive(Clone)]
pub struct ReplicationConfig {
    /// Follower daemon addresses ([`spawn_replica`]) that must host this
    /// service's name.
    pub followers: Vec<SocketAddr>,
    /// Ack-before-confirm, the one mode there is. The field stays because
    /// the benchmark harness spells it; nothing reads it.
    pub mode: ReplicationMode,
    /// RPC options for replication traffic: retry, deadline, breakers and
    /// fault injection apply as on any call. Pooling always applies — a
    /// `call` that names no transport gets one [`ConnPool`] per link from
    /// [`RemoteLink::new`], i.e. one warm socket per follower, re-dialled
    /// after [`PoolConfig::idle_ttl`] (5 s) without a ship; a restarted
    /// follower costs one eviction or stale retry, not an error.
    pub call: CallOptions,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            followers: Vec::new(),
            mode: ReplicationMode::Sync,
            call: CallOptions {
                // Replication is latency-sensitive and has its own
                // re-planning loop; keep the per-call budget tight.
                connect: Duration::from_secs(2),
                ..CallOptions::default()
            },
        }
    }
}

impl ReplicationConfig {
    /// Materialise the [`ReplOptions`] for one service's store.
    fn repl_options(&self, service: &str, store: StoreOptions) -> ReplOptions {
        ReplOptions {
            store,
            links: self
                .followers
                .iter()
                .map(|addr| {
                    Arc::new(RemoteLink::new(*addr, service, self.call.clone()))
                        as Arc<dyn ReplicaLink>
                })
                .collect(),
        }
    }
}

/// A service's journal handle: the single-node [`DurableStore`] of PR 3,
/// or a [`ReplicatedStore`] shipping every commit to followers. The FS
/// and FD hold this instead of a bare store so replication is a
/// configuration choice, not a code path fork.
pub enum Journal<T: Durable> {
    /// Single-node journal (no replication).
    Plain(Arc<DurableStore<T>>),
    /// Replicated journal (primary role).
    Replicated(Arc<ReplicatedStore<T>>),
}

impl<T: Durable> Clone for Journal<T> {
    fn clone(&self) -> Self {
        match self {
            Journal::Plain(s) => Journal::Plain(Arc::clone(s)),
            Journal::Replicated(s) => Journal::Replicated(Arc::clone(s)),
        }
    }
}

impl<T: Durable + Send + 'static> Journal<T> {
    /// Open (and recover) the journal in `dir`: replicated when `repl`
    /// carries a [`ReplicationConfig`], single-node otherwise.
    pub fn open(
        dir: impl Into<PathBuf>,
        initial: T,
        service: &str,
        store_opts: StoreOptions,
        repl: Option<&ReplicationConfig>,
    ) -> Result<(Journal<T>, RecoveryReport), StoreError> {
        let dir = dir.into();
        match repl {
            None => {
                let (store, report) = DurableStore::open(&dir, initial, store_opts)?;
                Ok((Journal::Plain(Arc::new(store)), report))
            }
            Some(cfg) => {
                let opts = cfg.repl_options(service, store_opts);
                let (store, report) = ReplicatedStore::open(&dir, initial, opts)?;
                Ok((Journal::Replicated(store), report))
            }
        }
    }

    /// Journal `rec` durably and apply it: the one-record case of
    /// [`Journal::commit_all`].
    pub fn commit(&self, rec: &T::Record) -> Result<u64, StoreError> {
        self.commit_all(std::slice::from_ref(rec))
    }

    /// Journal `recs` durably in one write and apply them; on a replicated
    /// journal this also ships them, in one round (see
    /// [`ReplicatedStore::commit_all`] for what `Ok` and a NACK mean).
    pub fn commit_all(&self, recs: &[T::Record]) -> Result<u64, StoreError> {
        match self {
            Journal::Plain(s) => s.commit_all(recs),
            Journal::Replicated(s) => s.commit_all(recs),
        }
    }

    /// Read the recovered/applied state under the store lock.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        match self {
            Journal::Plain(s) => s.read(f),
            Journal::Replicated(s) => s.read(f),
        }
    }

    /// The replicated store behind this journal, if it has one — for
    /// position and fencing introspection in tests and experiments.
    pub fn replicated(&self) -> Option<&Arc<ReplicatedStore<T>>> {
        match self {
            Journal::Plain(_) => None,
            Journal::Replicated(s) => Some(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faucets_store::{pick_primary, prepare_promotion, read_epoch};
    use serde::{Deserialize, Serialize};

    /// Minimal journal state machine for wire-level tests.
    #[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
    struct Log(Vec<String>);

    impl Durable for Log {
        type Record = String;
        type Snapshot = Vec<String>;
        fn apply(&mut self, rec: &String) {
            self.0.push(rec.clone());
        }
        fn snapshot(&self) -> Vec<String> {
            self.0.clone()
        }
        fn restore(snap: Vec<String>) -> Self {
            Log(snap)
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "faucets-replica-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_fsync_store() -> StoreOptions {
        StoreOptions {
            no_fsync: true,
            compact_every: 0,
            ..StoreOptions::default()
        }
    }

    fn open_replicated(dir: &PathBuf, follower: &ReplicaHandle) -> Journal<Log> {
        let cfg = ReplicationConfig {
            followers: vec![follower.addr],
            ..ReplicationConfig::default()
        };
        Journal::open(dir, Log::default(), "svc", no_fsync_store(), Some(&cfg))
            .unwrap()
            .0
    }

    #[test]
    fn sync_commits_reach_a_remote_follower_and_survive_promotion() {
        let pdir = scratch("wire-p");
        let fdir = scratch("wire-f");
        let follower = spawn_replica(
            "127.0.0.1:0",
            &[("svc".into(), fdir.clone())],
            ReplicaOptions { no_fsync: true },
        )
        .unwrap();

        let journal = open_replicated(&pdir, &follower);
        for i in 0..20 {
            journal.commit(&format!("entry-{i}")).unwrap();
        }
        let pos = follower.position("svc").unwrap();
        assert_eq!(pos.acked, 20, "sync acks imply follower durability");

        // Promote: release the directory from the follower and open it as
        // a plain journal — every synced entry must be there.
        let dir = follower.release("svc").unwrap();
        let new_epoch = pos.epoch + 1;
        prepare_promotion(&dir, "svc", new_epoch).unwrap();
        assert_eq!(read_epoch(&dir), new_epoch);
        let (promoted, report) =
            Journal::<Log>::open(&dir, Log::default(), "svc", no_fsync_store(), None).unwrap();
        assert_eq!(report.replayed_records, 20);
        assert_eq!(promoted.read(|l| l.0.len()), 20);
        follower.shutdown();
    }

    #[test]
    fn sync_commit_nacks_when_the_follower_daemon_is_down() {
        let pdir = scratch("down-p");
        let fdir = scratch("down-f");
        let follower = spawn_replica(
            "127.0.0.1:0",
            &[("svc".into(), fdir)],
            ReplicaOptions { no_fsync: true },
        )
        .unwrap();
        let journal = open_replicated(&pdir, &follower);
        journal.commit(&"acked".to_string()).unwrap();
        follower.kill();
        let err = journal.commit(&"orphan".to_string()).unwrap_err();
        assert!(
            matches!(err, StoreError::Unreplicated { .. }),
            "expected Unreplicated, got {err}"
        );
        // Locally durable either way: the at-least-once window, exactly
        // like a torn award.
        assert_eq!(journal.read(|l| l.0.len()), 2);
    }

    #[test]
    fn election_prefers_the_most_caught_up_follower() {
        let positions = [
            ReplPosition {
                epoch: 1,
                generation: 2,
                acked: 5,
            },
            ReplPosition {
                epoch: 1,
                generation: 3,
                acked: 1,
            },
            ReplPosition {
                epoch: 1,
                generation: 2,
                acked: 9,
            },
        ];
        // Higher generation beats higher in-generation offset.
        assert_eq!(pick_primary(&positions), Some(1));
    }

    #[test]
    fn unknown_service_and_foreign_requests_are_refused() {
        let fdir = scratch("refuse-f");
        let follower = spawn_replica(
            "127.0.0.1:0",
            &[("svc".into(), fdir)],
            ReplicaOptions { no_fsync: true },
        )
        .unwrap();
        let link = RemoteLink::new(follower.addr, "nope", CallOptions::default());
        assert!(matches!(link.status(), Err(StoreError::Corrupt(_))));
        match call_with(follower.addr, &Request::Metrics, &CallOptions::default()) {
            // The serve layer answers Metrics itself; anything else the
            // replica refuses. Either way it must not panic or hang.
            Ok(Response::Metrics(_)) | Ok(Response::Error(_)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        follower.shutdown();
    }

    #[test]
    fn batching_never_splits_a_frame_and_covers_all() {
        let frames: Vec<ReplFrame> = (0..2500u64)
            .map(|i| ReplFrame {
                epoch: 1,
                generation: 1,
                seq: i,
                payload: "0".repeat(1024),
            })
            .collect();
        let mut chunks = Vec::new();
        let mut rest = &frames[..];
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(batch_len(rest));
            chunks.push(chunk);
            rest = tail;
        }
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, frames.len());
        assert!(chunks.len() >= 3, "count bound should split 2500 frames");
        for c in &chunks {
            assert!(!c.is_empty());
            assert!(c.len() <= MAX_BATCH_FRAMES);
        }
        // One oversized frame still ships alone rather than being split.
        let big = [ReplFrame {
            epoch: 1,
            generation: 1,
            seq: 0,
            payload: "0".repeat(MAX_BATCH_PAYLOAD + 1),
        }];
        assert_eq!(batch_len(&big), 1);
    }
}
