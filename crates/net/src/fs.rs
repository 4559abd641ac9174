//! The Central Faucets Server (FS) as a TCP service.
//!
//! Wraps [`faucets_core::server::FaucetsServer`] behind the wire protocol:
//! account creation, login, FD registration, heartbeats, token
//! verification for daemons (§2.2), and server matching for clients (§5.1).
//!
//! ## Durability
//!
//! With [`FsOptions::store`] set, cluster registrations are journaled to a
//! [`faucets_store::DurableStore`] *before* the directory is mutated, so a
//! `RegisterCluster` that was answered `Ok` survives an FS crash: on
//! restart the journal is replayed and every registered cluster reappears
//! with its recorded `last_heard`. If the append fails it is NACKed
//! (`Response::Error`) and the in-memory directory is left untouched —
//! "registered" means "durable". Heartbeats are deliberately *not*
//! journaled: `last_heard`/`ServerStatus` are soft state that the next
//! heartbeat refreshes, and a daemon restored with a stale `last_heard`
//! that has since died is simply re-graded dead and swept. Evictions are
//! journaled best-effort (they compact the journal but are re-derivable
//! from silence). User accounts and session tokens stay in-memory: daemons
//! re-verify tokens against the FS, so an FS restart invalidates sessions
//! and clients must log in again.
//!
//! ## Federation
//!
//! With [`FsOptions::federation`] set, this FS becomes one shard of a
//! federated directory (see [`crate::federation`]): the consistent-hash
//! ring assigns each cluster id an owning shard, `RegisterCluster` and
//! `Heartbeat` arriving at the wrong shard are forwarded to the owner
//! (whose journal — replicated or not — is the one that records them),
//! and directory-wide queries (`ListServers`, `ListClusters`) merge the
//! local shard with a [`crate::proto::FedQuery`] scatter-gather across
//! every alive peer. Accounts and session tokens remain shard-local;
//! `VerifyToken` checks locally first and then asks the peers, so a
//! daemon pointed at any shard can verify a token minted by any other.
//! A `FedQuery` is always answered from local state only — the receiver
//! never re-scatters — so cross-shard request chains are at most one hop
//! deep and shard worker pools cannot deadlock on each other.

use crate::federation::{Federation, FederationOptions};
use crate::overload::TokenBucket;
use crate::proto::{FedQuery, Request, Response};
use crate::replica::{Journal, ReplicationConfig};
use crate::service::{serve, Clock, ServiceHandle};
use faucets_core::auth::SessionToken;
use faucets_core::directory::{ServerInfo, ServerListing};
use faucets_core::ids::{ClusterId, UserId};
use faucets_core::qos::QosContract;
use faucets_core::server::FaucetsServer;
use faucets_sim::time::SimTime;
use faucets_store::{Durable, RecoveryReport, StoreOptions};
use faucets_telemetry::{Counter, Gauge};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// One journaled directory mutation (see [`DirJournal`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DirRecord {
    /// A Compute Server registered (or re-registered) with the FS.
    Register {
        /// Static description of the cluster.
        info: ServerInfo,
        /// Applications it exports ("Known Applications", §2.2).
        apps: Vec<String>,
        /// When the registration arrived; restored as `last_heard`.
        at: SimTime,
    },
    /// A cluster was evicted after missing its liveness window.
    Evict {
        /// The evicted cluster.
        cluster: ClusterId,
    },
}

/// One durable registration row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirRow {
    /// Static description of the cluster.
    pub info: ServerInfo,
    /// Applications it exports.
    pub apps: Vec<String>,
    /// Last contact recorded in the journal (registration time; heartbeats
    /// are soft state and not journaled).
    pub last_heard: SimTime,
}

/// The durable state machine behind the FS directory: the set of live
/// registrations, keyed by cluster. Registrations are few, so rows are a
/// plain `Vec` (which also keeps the JSON snapshot free of non-string map
/// keys).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DirJournal {
    /// Registered clusters, in registration order.
    pub rows: Vec<DirRow>,
}

impl Durable for DirJournal {
    type Record = DirRecord;
    type Snapshot = DirJournal;

    fn apply(&mut self, rec: &DirRecord) {
        match rec {
            DirRecord::Register { info, apps, at } => {
                self.rows.retain(|r| r.info.cluster != info.cluster);
                self.rows.push(DirRow {
                    info: info.clone(),
                    apps: apps.clone(),
                    last_heard: *at,
                });
            }
            DirRecord::Evict { cluster } => {
                self.rows.retain(|r| r.info.cluster != *cluster);
            }
        }
    }

    fn snapshot(&self) -> DirJournal {
        self.clone()
    }

    fn restore(snap: DirJournal) -> Self {
        snap
    }
}

/// Options for [`spawn_fs_durable`].
#[derive(Clone)]
pub struct FsOptions {
    /// Directory for the durable registration journal. `None` keeps the
    /// directory purely in memory (the seed behaviour).
    pub store: Option<PathBuf>,
    /// Store tuning: telemetry label, compaction cadence, fsync, injected
    /// write faults. Only consulted when `store` is set.
    pub store_opts: StoreOptions,
    /// Replicate the registration journal to follower daemons
    /// ([`crate::replica::spawn_replica`]). Only consulted when `store` is
    /// set. The service name the followers must host is `fs`.
    pub replication: Option<ReplicationConfig>,
    /// Directory-query (`ListServers`/`ListClusters`) throttle: sustained
    /// queries per second. Queries over the budget are answered
    /// [`Response::Overloaded`] so a scanning client cannot starve
    /// registrations and heartbeats. Retunable at runtime via
    /// [`FsHandle::query_bucket`]. Federation-internal frames
    /// (`Gossip`/`FedQuery`) are exempt.
    pub query_rate: f64,
    /// Directory-query burst capacity (tokens banked while idle).
    pub query_burst: f64,
    /// Run this FS as one shard of a federated directory
    /// ([`crate::federation`]). `None` keeps the single-process behaviour.
    pub federation: Option<FederationOptions>,
}

impl Default for FsOptions {
    fn default() -> Self {
        FsOptions {
            store: None,
            store_opts: StoreOptions {
                service: "fs".into(),
                ..StoreOptions::default()
            },
            replication: None,
            // Generous: far above anything the test suite or a sane client
            // generates, low enough to cap a runaway scanner.
            query_rate: 1000.0,
            query_burst: 2000.0,
            federation: None,
        }
    }
}

/// A running FS service.
pub struct FsHandle {
    /// The TCP service (address, shutdown).
    pub service: ServiceHandle,
    /// The shared server state (inspectable by tests/tools).
    pub state: Arc<Mutex<FaucetsServer>>,
    /// The registration journal, when durability is enabled — single-node
    /// or replicated per [`FsOptions::replication`].
    pub store: Option<Journal<DirJournal>>,
    /// What recovery found on startup, when durability is enabled.
    pub recovery: Option<RecoveryReport>,
    /// The directory-query throttle (live `set_rate`/`set_burst` knobs).
    pub query_bucket: Arc<TokenBucket>,
    /// The federation runtime, when this FS is a shard (ring/membership
    /// readouts for tests and experiments).
    pub federation: Option<Arc<Federation>>,
}

impl FsHandle {
    /// Graceful stop: shut the TCP service down and wait for its workers
    /// to exit. A federated shard's gossip, the service's tick, stops too.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

/// Spawn the FS on `addr` (use port 0 to pick a free port).
pub fn spawn_fs(addr: &str, clock: Clock, seed: u64) -> io::Result<FsHandle> {
    spawn_fs_durable(addr, clock, seed, FsOptions::default())
}

/// Evictions are re-derivable (a stale registration restored after a crash
/// is graded dead and swept on the next request), so journaling them only
/// compacts the journal and must never NACK the request that noticed them.
fn journal_evictions(store: &Option<Journal<DirJournal>>, evicted: &[ClusterId]) {
    if let Some(store) = store {
        for cluster in evicted {
            let _ = store.commit(&DirRecord::Evict { cluster: *cluster });
        }
    }
}

/// Everything one FS request handler needs, shared across worker threads.
/// Splitting this out of the serve closure is what lets the federated
/// paths take and *release* the state lock around network hops (scatters
/// happen with no lock held).
struct FsCore {
    state: Arc<Mutex<FaucetsServer>>,
    rng: Arc<Mutex<StdRng>>,
    journal: Option<Journal<DirJournal>>,
    clock: Clock,
    bucket: Arc<TokenBucket>,
    fed: Option<Arc<Federation>>,
    m_throttled: Counter,
    g_dir_size: Gauge,
}

impl FsCore {
    /// Verify a token: locally first, then (federated only) by asking the
    /// peers — accounts are shard-local, so a token minted by another shard
    /// is only verifiable there.
    fn verify_federated(&self, token: &SessionToken, now: SimTime) -> Result<UserId, Response> {
        let local = self.state.lock().verify_token(token, now);
        match local {
            Ok(user) => Ok(user),
            Err(e) => match &self.fed {
                Some(fed) => match fed.scatter_verify(token) {
                    Response::Verified { user } => Ok(user),
                    _ => Err(Response::Error(e.to_string())),
                },
                None => Err(Response::Error(e.to_string())),
            },
        }
    }

    /// This shard's matching servers for a QoS contract (sweeps and
    /// journals evictions as a side effect, like the pre-federation path).
    fn local_listings(&self, qos: &QosContract, now: SimTime) -> Vec<ServerListing> {
        let mut s = self.state.lock();
        let (evicted, ids) = s.listings(qos, now);
        journal_evictions(&self.journal, &evicted);
        let listings = ids
            .iter()
            .filter_map(|c| {
                s.directory.get(*c).map(|e| ServerListing {
                    info: e.info.clone(),
                    status: e.status,
                })
            })
            .collect();
        self.g_dir_size.set(s.directory.len() as f64);
        listings
    }

    /// This shard's directory rows, stamped with shard name + ring epoch
    /// when federated.
    fn local_rows(&self, now: SimTime) -> Vec<faucets_core::directory::ClusterRow> {
        let mut rows = self.state.lock().directory.rows(now);
        if let Some(fed) = &self.fed {
            let epoch = fed.ring_epoch();
            for r in &mut rows {
                r.shard = Some(fed.name().to_string());
                r.ring_epoch = epoch;
            }
        }
        rows
    }

    /// Answer a peer shard's [`FedQuery`] from local state only (never
    /// re-scatter — see the module docs on bounded forwarding depth).
    fn handle_fed_query(&self, query: &FedQuery) -> Response {
        let now = self.clock.now();
        match query {
            FedQuery::Match { qos } => Response::Servers(self.local_listings(qos, now)),
            FedQuery::Rows => Response::Clusters(self.local_rows(now)),
            FedQuery::Verify { token } => match self.state.lock().verify_token(token, now) {
                Ok(user) => Response::Verified { user },
                Err(e) => Response::Error(e.to_string()),
            },
        }
    }

    fn handle(&self, req: Request) -> Response {
        // Shard-internal frames first: exempt from the client query
        // throttle, and meaningless without a federation.
        if let Some(fed) = &self.fed {
            match &req {
                Request::Gossip { view, .. } => return fed.handle_gossip(view),
                Request::FedQuery { query, .. } => return self.handle_fed_query(query),
                // Ownership routing: registrations and heartbeats belong to
                // the ring owner's shard (and its journal).
                Request::RegisterCluster { info, .. } => {
                    if let Some((shard, addr)) = fed.forward_addr(info.cluster) {
                        return fed.forward(&shard, addr, &req);
                    }
                }
                Request::Heartbeat { cluster, .. } => {
                    if let Some((shard, addr)) = fed.forward_addr(*cluster) {
                        return fed.forward(&shard, addr, &req);
                    }
                }
                _ => {}
            }
        }
        // Directory queries are throttled before touching the lock, so a
        // scanning client cannot starve registrations and heartbeats.
        if matches!(
            req,
            Request::ListServers { .. } | Request::ListClusters { .. }
        ) && !self.bucket.try_admit()
        {
            self.m_throttled.inc();
            return Response::Overloaded { retry_after_ms: 25 };
        }
        let now = self.clock.now();
        match req {
            Request::VerifyToken { token } => match self.verify_federated(&token, now) {
                Ok(user) => Response::Verified { user },
                Err(resp) => resp,
            },
            Request::ListServers { token, qos } => {
                if let Err(resp) = self.verify_federated(&token, now) {
                    return resp;
                }
                let mut listings = self.local_listings(&qos, now);
                if let Some(fed) = &self.fed {
                    for resp in fed.scatter(FedQuery::Match { qos }) {
                        if let Response::Servers(more) = resp {
                            listings.extend(more);
                        }
                    }
                    // A server reachable via two shards during a ring
                    // transition must be listed once.
                    let mut seen = HashSet::new();
                    listings.retain(|l| seen.insert(l.info.cluster));
                }
                Response::Servers(listings)
            }
            Request::ListClusters { token } => {
                if let Err(resp) = self.verify_federated(&token, now) {
                    return resp;
                }
                let mut rows = self.local_rows(now);
                if let Some(fed) = &self.fed {
                    for resp in fed.scatter(FedQuery::Rows) {
                        if let Response::Clusters(more) = resp {
                            rows.extend(more);
                        }
                    }
                    // Local rows come first, so during a handoff the owning
                    // shard's stamp wins the dedupe.
                    let mut seen = HashSet::new();
                    rows.retain(|r| seen.insert(r.info.cluster));
                }
                Response::Clusters(rows)
            }
            other => self.handle_local(other, now),
        }
    }

    /// The single-shard request paths (identical to the pre-federation FS).
    fn handle_local(&self, req: Request, now: SimTime) -> Response {
        let mut s = self.state.lock();
        match req {
            Request::CreateUser { user, password } => {
                match s.create_user(&user, &password, &mut *self.rng.lock()) {
                    Ok(id) => Response::Verified { user: id },
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::Login { user, password } => {
                match s.login(&user, &password, now, &mut *self.rng.lock()) {
                    Ok((id, token)) => Response::Session { user: id, token },
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::RegisterCluster { info, apps } => {
                // Journal first: `Ok` must mean the registration survives a
                // crash. On a store failure the request is NACKed and the
                // in-memory directory is left untouched.
                if let Some(store) = &self.journal {
                    if let Err(e) = store.commit(&DirRecord::Register {
                        info: info.clone(),
                        apps: apps.clone(),
                        at: now,
                    }) {
                        return Response::Error(format!("registration not durable: {e}"));
                    }
                }
                s.register_cluster(info, apps, now);
                self.g_dir_size.set(s.directory.len() as f64);
                Response::Ok
            }
            Request::Heartbeat { cluster, status } => {
                // Sweep explicitly (rather than inside `heartbeat`) so the
                // evicted ids can be journaled.
                let evicted = s.sweep_dead(now);
                journal_evictions(&self.journal, &evicted);
                let known = s.heartbeat(cluster, status, now);
                self.g_dir_size.set(s.directory.len() as f64);
                if known {
                    Response::Ok
                } else {
                    Response::Error(format!("unknown cluster {cluster}"))
                }
            }
            other => Response::Error(format!("FS cannot handle {other:?}")),
        }
    }
}

/// [`spawn_fs`], with a durable registration journal: registrations are
/// journaled before they are acknowledged, and replayed on restart.
pub fn spawn_fs_durable(
    addr: &str,
    clock: Clock,
    seed: u64,
    opts: FsOptions,
) -> io::Result<FsHandle> {
    let state = Arc::new(Mutex::new(FaucetsServer::with_defaults()));
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));

    // Recover the journal and replay registrations before taking traffic.
    let (store, recovery) = match &opts.store {
        Some(dir) => {
            let (store, report) = Journal::open(
                dir,
                DirJournal::default(),
                "fs",
                opts.store_opts.clone(),
                opts.replication.as_ref(),
            )
            .map_err(io::Error::other)?;
            {
                let mut s = state.lock();
                store.read(|j| {
                    for row in &j.rows {
                        s.register_cluster(row.info.clone(), row.apps.clone(), row.last_heard);
                    }
                });
            }
            (Some(store), Some(report))
        }
        None => (None, None),
    };

    let federation = opts
        .federation
        .clone()
        .map(|f| Arc::new(Federation::new(f)));
    if let Some(fed) = &federation {
        // Shards keep their own accounts; their clients meet at shared FDs.
        state.lock().users.mint_ids_for_shard(fed.name());
    }
    let shard_label = federation
        .as_ref()
        .map(|f| f.name().to_string())
        .unwrap_or_else(|| "fs".into());
    let reg = faucets_telemetry::global();
    let query_bucket = Arc::new(TokenBucket::new(opts.query_rate, opts.query_burst));
    let core = Arc::new(FsCore {
        state: Arc::clone(&state),
        rng,
        journal: store.clone(),
        clock,
        bucket: Arc::clone(&query_bucket),
        fed: federation.clone(),
        m_throttled: reg.counter("fs_query_throttled_total", &[("shard", &shard_label)]),
        g_dir_size: reg.gauge("fs_directory_size", &[("shard", &shard_label)]),
    });
    let service = serve(addr, "fs", move |req| core.handle(req))?;
    if let Some(fed) = &federation {
        // The bound address is only known now (port 0 picks one): fix the
        // advertised self entry, then start gossiping.
        fed.activate(&service);
    }

    Ok(FsHandle {
        service,
        state,
        store,
        recovery,
        query_bucket,
        federation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::call;
    use faucets_core::directory::{ServerInfo, ServerStatus};
    use faucets_core::ids::ClusterId;
    use faucets_core::qos::QosBuilder;

    fn info(id: u64) -> ServerInfo {
        ServerInfo {
            cluster: ClusterId(id),
            name: format!("cs{id}"),
            total_pes: 64,
            mem_per_pe_mb: 1024,
            cpu_type: "x86-64".into(),
            flops_per_pe_sec: 1.0,
            fd_addr: "127.0.0.1".into(),
            fd_port: 1,
        }
    }

    #[test]
    fn account_login_verify_flow() {
        let fs = spawn_fs("127.0.0.1:0", Clock::realtime(), 1).unwrap();
        let addr = fs.service.addr;
        let r = call(
            addr,
            &Request::CreateUser {
                user: "alice".into(),
                password: "pw".into(),
            },
        )
        .unwrap();
        assert!(matches!(r, Response::Verified { .. }));
        // Wrong password fails.
        let r = call(
            addr,
            &Request::Login {
                user: "alice".into(),
                password: "xx".into(),
            },
        )
        .unwrap();
        assert!(matches!(r, Response::Error(_)));
        // Correct login mints a token the FD can verify (the §2.2 re-check).
        let Response::Session { user, token } = call(
            addr,
            &Request::Login {
                user: "alice".into(),
                password: "pw".into(),
            },
        )
        .unwrap() else {
            panic!("expected session");
        };
        let r = call(addr, &Request::VerifyToken { token }).unwrap();
        assert_eq!(r, Response::Verified { user });
    }

    #[test]
    fn registration_and_matching_over_wire() {
        let fs = spawn_fs("127.0.0.1:0", Clock::realtime(), 2).unwrap();
        let addr = fs.service.addr;
        call(
            addr,
            &Request::CreateUser {
                user: "u".into(),
                password: "p".into(),
            },
        )
        .unwrap();
        let Response::Session { token, .. } = call(
            addr,
            &Request::Login {
                user: "u".into(),
                password: "p".into(),
            },
        )
        .unwrap() else {
            panic!()
        };
        call(
            addr,
            &Request::RegisterCluster {
                info: info(1),
                apps: vec!["namd".into()],
            },
        )
        .unwrap();
        call(
            addr,
            &Request::RegisterCluster {
                info: info(2),
                apps: vec!["cfd".into()],
            },
        )
        .unwrap();
        call(
            addr,
            &Request::Heartbeat {
                cluster: ClusterId(1),
                status: ServerStatus {
                    free_pes: 48,
                    queue_len: 2,
                    accepting: true,
                    utilization: 0.25,
                    running: 4,
                },
            },
        )
        .unwrap();

        let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
        let Response::Servers(servers) = call(
            addr,
            &Request::ListServers {
                token: token.clone(),
                qos,
            },
        )
        .unwrap() else {
            panic!("expected server list")
        };
        // Static filter: only cs1 exports namd — and the match response now
        // carries the load the last heartbeat reported.
        assert_eq!(servers.len(), 1);
        assert_eq!(servers[0].info.cluster, ClusterId(1));
        assert_eq!(servers[0].status.utilization, 0.25);
        assert_eq!(servers[0].status.running, 4);
        // One match query counted, one request for bids implied by it.
        let stats = fs.state.lock().stats;
        assert_eq!((stats.matches, stats.rfb_messages), (1, 1));

        // The dashboard view lists every registered cluster, graded.
        let Response::Clusters(rows) = call(addr, &Request::ListClusters { token }).unwrap() else {
            panic!("expected cluster rows")
        };
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .any(|r| r.info.cluster == ClusterId(1) && r.status.queue_len == 2));
        // A single-process FS stamps no shard on its rows.
        assert!(rows.iter().all(|r| r.shard.is_none() && r.ring_epoch == 0));
    }

    #[test]
    fn cluster_listing_requires_valid_token() {
        let fs = spawn_fs("127.0.0.1:0", Clock::realtime(), 7).unwrap();
        let r = call(
            fs.service.addr,
            &Request::ListClusters {
                token: faucets_core::auth::SessionToken("bogus".into()),
            },
        )
        .unwrap();
        assert!(matches!(r, Response::Error(_)));
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("faucets-fs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn registration_survives_fs_restart() {
        let dir = scratch("restart");
        let opts = FsOptions {
            store: Some(dir.clone()),
            ..FsOptions::default()
        };
        let fs = spawn_fs_durable("127.0.0.1:0", Clock::realtime(), 4, opts.clone()).unwrap();
        let r = call(
            fs.service.addr,
            &Request::RegisterCluster {
                info: info(1),
                apps: vec!["namd".into()],
            },
        )
        .unwrap();
        assert_eq!(r, Response::Ok);
        drop(fs); // crash: no deregistration, nothing flushed beyond the WAL

        let fs = spawn_fs_durable("127.0.0.1:0", Clock::realtime(), 4, opts).unwrap();
        let report = fs.recovery.as_ref().expect("durable FS reports recovery");
        assert!(report.replayed_records >= 1, "report: {report:?}");
        let s = fs.state.lock();
        let e = s
            .directory
            .get(ClusterId(1))
            .expect("registration recovered");
        assert_eq!(e.info.name, "cs1");
        assert!(e.exported_apps.contains("namd"));
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unjournaled_registration_is_nacked() {
        use faucets_store::{StoreOptions, WriteFault};
        let dir = scratch("nack");
        let opts = FsOptions {
            store: Some(dir.clone()),
            store_opts: StoreOptions {
                service: "fs".into(),
                fault: Some(std::sync::Arc::new(|_: &[u8]| WriteFault::Fail)),
                ..StoreOptions::default()
            },
            ..FsOptions::default()
        };
        let fs = spawn_fs_durable("127.0.0.1:0", Clock::realtime(), 5, opts).unwrap();
        let r = call(
            fs.service.addr,
            &Request::RegisterCluster {
                info: info(1),
                apps: vec!["namd".into()],
            },
        )
        .unwrap();
        // The append failed, so the client is NACKed and the directory does
        // NOT list the cluster — "registered" always means "durable".
        assert!(matches!(r, Response::Error(_)), "got {r:?}");
        assert!(fs.state.lock().directory.get(ClusterId(1)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_queries_throttle_but_heartbeats_do_not() {
        let fs = spawn_fs("127.0.0.1:0", Clock::realtime(), 8).unwrap();
        call(
            fs.service.addr,
            &Request::RegisterCluster {
                info: info(1),
                apps: vec!["namd".into()],
            },
        )
        .unwrap();
        // Choke the query bucket at runtime: zero refill, zero capacity.
        fs.query_bucket.set_rate(0.0);
        fs.query_bucket.set_burst(0.0);
        let err = call(
            fs.service.addr,
            &Request::ListClusters {
                token: faucets_core::auth::SessionToken("x".into()),
            },
        )
        .unwrap_err();
        assert!(crate::proto::is_overload_error(&err), "got {err:?}");
        // Heartbeats and registrations are exempt from the query throttle.
        let r = call(
            fs.service.addr,
            &Request::Heartbeat {
                cluster: ClusterId(1),
                status: ServerStatus::default(),
            },
        )
        .unwrap();
        assert_eq!(r, Response::Ok);
    }

    #[test]
    fn unknown_heartbeat_is_error() {
        let fs = spawn_fs("127.0.0.1:0", Clock::realtime(), 3).unwrap();
        let r = call(
            fs.service.addr,
            &Request::Heartbeat {
                cluster: ClusterId(9),
                status: ServerStatus::default(),
            },
        )
        .unwrap();
        assert!(matches!(r, Response::Error(_)));
    }

    #[test]
    fn gossip_frames_are_rejected_without_federation() {
        let fs = spawn_fs("127.0.0.1:0", Clock::realtime(), 9).unwrap();
        let r = call(
            fs.service.addr,
            &Request::FedQuery {
                from: "stranger".into(),
                query: FedQuery::Rows,
            },
        )
        .unwrap();
        assert!(matches!(r, Response::Error(_)), "got {r:?}");
    }
}
