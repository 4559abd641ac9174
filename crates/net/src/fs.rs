//! The Central Faucets Server (FS) as a TCP service.
//!
//! Wraps [`faucets_core::server::FaucetsServer`] behind the wire protocol:
//! account creation, login, FD registration, heartbeats, token
//! verification for daemons (§2.2), and server matching for clients (§5.1).
//!
//! ## Durability
//!
//! With [`FsOptions::store`] set, user accounts are journaled to a
//! [`faucets_store::DurableStore`]: a `CreateUser` answered `Verified`
//! survives an FS crash, and on restart the journal is replayed, so every
//! account logs in under the id it was minted and the next account gets
//! the next id. If the append fails the request is NACKed
//! (`Response::Error`) and no account is created. Accounts are the one
//! thing the FS cannot relearn. The directory and sessions are soft
//! state: an FD whose heartbeat a restarted FS answers "unknown cluster"
//! registers again, so it is listed within one heartbeat period, and a
//! client logs in again.
//!
//! ## Standby
//!
//! One FS serves the grid. A second one, spawned beside it, is a standby:
//! the FDs and clients that list it in their `fs_fallbacks` rotate to it
//! when the FS stops answering, and register or log in there afresh.

use crate::overload::TokenBucket;
use crate::proto::{Request, Response};
use crate::replica::{Journal, ReplicationConfig};
use crate::service::{serve, Clock, ServiceHandle};
use faucets_core::auth::Account;
use faucets_core::directory::ServerListing;
use faucets_core::ids::ClusterId;
use faucets_core::server::FaucetsServer;
use faucets_store::{Durable, RecoveryReport, StoreOptions};
use faucets_telemetry::{Counter, Gauge};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// The durable state behind the FS: every account, in the order minted.
/// A record is one [`Account`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Accounts(pub Vec<Account>);

impl Durable for Accounts {
    type Record = Account;
    type Snapshot = Accounts;

    fn apply(&mut self, rec: &Account) {
        self.0.push(rec.clone());
    }

    fn snapshot(&self) -> Accounts {
        self.clone()
    }

    fn restore(snap: Accounts) -> Self {
        snap
    }
}

/// Options for [`spawn_fs_durable`].
#[derive(Clone)]
pub struct FsOptions {
    /// Directory for the durable account journal. `None` keeps accounts
    /// purely in memory.
    pub store: Option<PathBuf>,
    /// Store tuning: telemetry label, compaction cadence, fsync, injected
    /// write faults. Only consulted when `store` is set.
    pub store_opts: StoreOptions,
    /// Replicate the account journal to follower daemons
    /// ([`crate::replica::spawn_replica`]). Only consulted when `store` is
    /// set. The service name the followers must host is `fs`.
    pub replication: Option<ReplicationConfig>,
    /// Directory-query (`ListServers`/`ListClusters`) throttle: sustained
    /// queries per second. Queries over the budget are answered
    /// [`Response::Overloaded`] so a scanning client cannot starve
    /// registrations and heartbeats. Retunable at runtime via
    /// [`FsHandle::query_bucket`].
    pub query_rate: f64,
    /// Directory-query burst capacity (tokens banked while idle).
    pub query_burst: f64,
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
        }
    }
}

/// A running FS service.
pub struct FsHandle {
    /// The TCP service (address, shutdown).
    pub service: ServiceHandle,
    /// The shared server state (inspectable by tests/tools).
    pub state: Arc<Mutex<FaucetsServer>>,
    /// The account journal, when durability is enabled — single-node or
    /// replicated per [`FsOptions::replication`].
    pub store: Option<Journal<Accounts>>,
    /// What recovery found on startup, when durability is enabled.
    pub recovery: Option<RecoveryReport>,
    /// The directory-query throttle (live `set_rate`/`set_burst` knobs).
    pub query_bucket: Arc<TokenBucket>,
}

impl FsHandle {
    /// Graceful stop: shut the TCP service down and wait for its workers
    /// to exit.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

/// Spawn the FS on `addr` (use port 0 to pick a free port).
pub fn spawn_fs(addr: &str, clock: Clock, seed: u64) -> io::Result<FsHandle> {
    spawn_fs_durable(addr, clock, seed, FsOptions::default())
}

/// Everything one FS request handler needs, shared across worker threads.
/// The state lock is never held across a journal commit.
struct FsCore {
    state: Arc<Mutex<FaucetsServer>>,
    rng: Arc<Mutex<StdRng>>,
    journal: Option<Journal<Accounts>>,
    /// Held by one `CreateUser` from mint to insert, so no two accounts
    /// take one name and the journal holds them in minting order.
    minting: Mutex<()>,
    clock: Clock,
    bucket: Arc<TokenBucket>,
    m_throttled: Counter,
    g_dir_size: Gauge,
}

impl FsCore {
    fn handle(&self, req: Request) -> Response {
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
        if let Request::CreateUser { user, password } = req {
            return self.create_user(&user, &password);
        }
        let now = self.clock.now();
        let mut s = self.state.lock();
        match req {
            Request::Login { user, password } => {
                match s.login(&user, &password, now, &mut *self.rng.lock()) {
                    Ok((id, token)) => Response::Session { user: id, token },
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::VerifyToken { token } => match s.verify_token(&token, now) {
                Ok(user) => Response::Verified { user },
                Err(e) => Response::Error(e.to_string()),
            },
            Request::ListServers { token, qos } => match s.match_servers(&token, &qos, now) {
                Ok(ids) => {
                    self.g_dir_size.set(s.directory.len() as f64);
                    let listing = |c: &ClusterId| {
                        let e = s.directory.get(*c)?;
                        let (info, status) = (e.info.clone(), e.status);
                        Some(ServerListing { info, status })
                    };
                    Response::Servers(ids.iter().filter_map(listing).collect())
                }
                Err(e) => Response::Error(e.to_string()),
            },
            Request::ListClusters { token } => match s.verify_token(&token, now) {
                Ok(_) => Response::Clusters(s.directory.rows(now)),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::RegisterCluster { info, apps } => {
                s.register_cluster(info, apps, now);
                self.g_dir_size.set(s.directory.len() as f64);
                Response::Ok
            }
            Request::Heartbeat { cluster, status } => {
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

    /// Journal first: `Verified` must mean the account survives a crash.
    /// On a store failure the request is NACKed and no account is filed
    /// (its id stays spent).
    fn create_user(&self, name: &str, password: &str) -> Response {
        let _minting = self.minting.lock();
        let minted = self
            .state
            .lock()
            .users
            .mint(name, password, &mut *self.rng.lock());
        let account = match minted {
            Ok(account) => account,
            Err(e) => return Response::Error(e.to_string()),
        };
        if let Some(store) = &self.journal {
            if let Err(e) = store.commit(&account) {
                return Response::Error(format!("account not durable: {e}"));
            }
        }
        let user = account.id;
        self.state.lock().users.insert(account);
        Response::Verified { user }
    }
}

/// [`spawn_fs`], with a durable account journal: accounts are journaled
/// before they are acknowledged, and replayed on restart.
pub fn spawn_fs_durable(
    addr: &str,
    clock: Clock,
    seed: u64,
    opts: FsOptions,
) -> io::Result<FsHandle> {
    let state = Arc::new(Mutex::new(FaucetsServer::with_defaults()));
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));

    // Recover the journal and replay accounts before taking traffic.
    let (store, recovery) = match &opts.store {
        Some(dir) => {
            let (store, report) = Journal::open(
                dir,
                Accounts::default(),
                "fs",
                opts.store_opts.clone(),
                opts.replication.as_ref(),
            )
            .map_err(io::Error::other)?;
            let mut s = state.lock();
            store.read(|accounts| accounts.0.iter().for_each(|a| s.users.insert(a.clone())));
            drop(s);
            (Some(store), Some(report))
        }
        None => (None, None),
    };

    let reg = faucets_telemetry::global();
    let query_bucket = Arc::new(TokenBucket::new(opts.query_rate, opts.query_burst));
    let core = Arc::new(FsCore {
        state: Arc::clone(&state),
        rng,
        journal: store.clone(),
        minting: Mutex::new(()),
        clock,
        bucket: Arc::clone(&query_bucket),
        m_throttled: reg.counter("fs_query_throttled_total", &[]),
        g_dir_size: reg.gauge("fs_directory_size", &[]),
    });
    let service = serve(addr, "fs", move |req| core.handle(req))?;

    Ok(FsHandle {
        service,
        state,
        store,
        recovery,
        query_bucket,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{call, call_with, CallOptions, Timeouts};
    use faucets_core::directory::{ServerInfo, ServerStatus};
    use faucets_core::ids::{ClusterId, UserId};
    use faucets_core::qos::QosBuilder;
    use std::time::Duration;

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

    fn durable(dir: &std::path::Path, fault: Option<faucets_store::StoreFaultFn>) -> FsOptions {
        FsOptions {
            store: Some(dir.to_path_buf()),
            store_opts: StoreOptions {
                service: "fs".into(),
                fault,
                ..StoreOptions::default()
            },
            ..FsOptions::default()
        }
    }

    fn create(addr: std::net::SocketAddr, user: &str) -> Response {
        let (user, password) = (user.to_string(), "pw".to_string());
        call(addr, &Request::CreateUser { user, password }).unwrap()
    }

    fn login(addr: std::net::SocketAddr, user: &str) -> Response {
        let (user, password) = (user.to_string(), "pw".to_string());
        call(addr, &Request::Login { user, password }).unwrap()
    }

    #[test]
    fn account_survives_fs_restart() {
        let dir = scratch("restart");
        let fs =
            spawn_fs_durable("127.0.0.1:0", Clock::realtime(), 4, durable(&dir, None)).unwrap();
        let addr = fs.service.addr;
        let Response::Verified { user: alice } = create(addr, "alice") else {
            panic!("alice's account is created")
        };
        assert!(matches!(create(addr, "bob"), Response::Verified { .. }));
        drop(fs); // crash: nothing flushed beyond the WAL

        // A new process: a fresh clock, a fresh rng, the same journal.
        let fs =
            spawn_fs_durable("127.0.0.1:0", Clock::realtime(), 5, durable(&dir, None)).unwrap();
        let addr = fs.service.addr;
        assert_eq!(fs.recovery.as_ref().unwrap().replayed_records, 2);
        assert!(
            matches!(login(addr, "alice"), Response::Session { user, .. } if user == alice),
            "alice logs in under the id she was minted"
        );
        assert!(
            matches!(create(addr, "alice"), Response::Error(e) if e.contains("already exists")),
            "her name is still taken"
        );
        assert_eq!(
            create(addr, "carol"),
            Response::Verified { user: UserId(2) },
            "the next account gets the next id, never a replayed one"
        );
        drop(fs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unjournaled_account_is_nacked() {
        use faucets_store::WriteFault;
        let dir = scratch("nack");
        let fail: faucets_store::StoreFaultFn = Arc::new(|_: &[u8]| WriteFault::Fail);
        let fs = spawn_fs_durable(
            "127.0.0.1:0",
            Clock::realtime(),
            5,
            durable(&dir, Some(fail)),
        )
        .unwrap();
        // The append failed, so the caller is NACKed and no account exists
        // — "created" always means "durable".
        let r = create(fs.service.addr, "alice");
        assert!(
            matches!(&r, Response::Error(e) if e.starts_with("account not durable")),
            "got {r:?}"
        );
        assert!(matches!(
            login(fs.service.addr, "alice"),
            Response::Error(_)
        ));
        assert_eq!(fs.state.lock().users.user_count(), 0);
        drop(fs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A name is journaled and shipped to every follower with its account,
    /// so one that no account may have is refused before anything is
    /// minted or journaled.
    fn refuses_the_name(name: &str, tag: &str) {
        let dir = scratch(tag);
        let fs =
            spawn_fs_durable("127.0.0.1:0", Clock::realtime(), 11, durable(&dir, None)).unwrap();
        let r = create(fs.service.addr, name);
        assert!(
            matches!(&r, Response::Error(e) if e.contains("invalid user name")),
            "got {r:?}"
        );
        assert_eq!(
            fs.store.as_ref().unwrap().read(|a| a.0.len()),
            0,
            "nothing journaled"
        );
        assert_eq!(
            create(fs.service.addr, "alice"),
            Response::Verified { user: UserId(0) },
            "nothing minted"
        );
        drop(fs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_user_refuses_an_empty_name() {
        refuses_the_name("", "empty-name");
    }

    #[test]
    fn create_user_refuses_an_overlong_name() {
        let longest = "a".repeat(faucets_core::auth::MAX_USER_NAME_BYTES);
        refuses_the_name(&format!("{longest}a"), "long-name");
    }

    /// The directory is soft state: a durable FS that restarts as a new
    /// process, on a fresh clock, lists only the clusters that registered
    /// with it, none that registered with the process before it.
    #[test]
    fn a_fresh_clock_lists_no_cluster_that_has_not_registered_since() {
        let dir = scratch("fresh-clock");
        let register = |addr, id: u64| {
            let (info, apps) = (info(id), vec!["namd".into()]);
            call(addr, &Request::RegisterCluster { info, apps }).unwrap()
        };
        let fs =
            spawn_fs_durable("127.0.0.1:0", Clock::new(1_000.0), 12, durable(&dir, None)).unwrap();
        // 100 simulated seconds in, two clusters register; then the FS dies.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(register(fs.service.addr, 1), Response::Ok);
        assert_eq!(register(fs.service.addr, 2), Response::Ok);
        drop(fs);

        let fs =
            spawn_fs_durable("127.0.0.1:0", Clock::new(1_000.0), 12, durable(&dir, None)).unwrap();
        let addr = fs.service.addr;
        assert_eq!(register(addr, 2), Response::Ok);
        create(addr, "u");
        let Response::Session { token, .. } = login(addr, "u") else {
            panic!("expected a session")
        };
        let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
        let list = Request::ListServers {
            token: token.clone(),
            qos,
        };
        let Response::Servers(servers) = call(addr, &list).unwrap() else {
            panic!("expected server list")
        };
        let listed: Vec<ClusterId> = servers.iter().map(|s| s.info.cluster).collect();
        assert_eq!(listed, vec![ClusterId(2)]);
        let Response::Clusters(rows) = call(addr, &Request::ListClusters { token }).unwrap() else {
            panic!("expected cluster rows")
        };
        assert_eq!(rows.len(), 1);
        drop(fs);
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

    /// The state lock is not held across an account's journal commit (a
    /// WAL append, a flush and, replicated, a ship round), so token checks
    /// and logins go on meanwhile. The store's fault hook parks the new
    /// account's append; a `VerifyToken` and an existing user's `Login`
    /// must still be answered.
    #[test]
    fn tokens_verify_while_an_account_is_being_journaled() {
        use faucets_store::WriteFault;
        use std::sync::mpsc;
        let dir = scratch("parked");
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (parked_tx, release_rx) = (Mutex::new(parked_tx), Mutex::new(release_rx));
        let hook = move |payload: &[u8]| {
            if payload.windows(8).any(|w| w == b"\"parked\"") {
                let _ = parked_tx.lock().send(());
                // Parked until the test lets go (or gives up and drops
                // its end).
                let _ = release_rx.lock().recv();
            }
            WriteFault::Deliver
        };
        let fs = spawn_fs_durable(
            "127.0.0.1:0",
            Clock::realtime(),
            10,
            durable(&dir, Some(Arc::new(hook))),
        )
        .unwrap();
        let addr = fs.service.addr;
        create(addr, "u");
        let Response::Session { token, .. } = login(addr, "u") else {
            panic!("expected a session")
        };

        let parked = std::thread::spawn(move || create(addr, "parked"));
        parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the account is journaled");
        let patient = CallOptions {
            timeouts: Timeouts::both(Duration::from_secs(3)),
            ..CallOptions::default()
        };
        let verify = call_with(addr, &Request::VerifyToken { token }, &patient);
        let (user, password) = ("u".to_string(), "pw".to_string());
        let relogin = call_with(addr, &Request::Login { user, password }, &patient);
        // Unpark before judging, so a failure still shuts down cleanly.
        release_tx.send(()).unwrap();
        assert!(
            matches!(verify, Ok(Response::Verified { .. })),
            "a token check waited on the account's journal append: {verify:?}"
        );
        assert!(
            matches!(relogin, Ok(Response::Session { .. })),
            "a login waited on the account's journal append: {relogin:?}"
        );
        assert_eq!(
            parked.join().unwrap(),
            Response::Verified { user: UserId(1) }
        );
        assert_eq!(fs.state.lock().users.user_count(), 2);
        drop(fs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
