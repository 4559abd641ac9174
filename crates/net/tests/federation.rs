//! Federated central server: ring routing, gossip failure detection,
//! cross-shard token verification, and client/FD failover when a shard
//! dies.
//!
//! Deflake convention: every wait in this file synchronizes on a
//! federation readout (`alive_members`, `ring_epoch`, directory state)
//! or a telemetry counter under a bounded deadline — never a bare sleep
//! sized by hope.

mod common;

use faucets_core::auth::SessionToken;
use faucets_core::directory::{ServerInfo, ServerListing, ServerStatus};
use faucets_core::ids::{ClusterId, UserId};
use faucets_core::qos::{QosBuilder, QosContract};
use faucets_net::prelude::*;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll `ready` every few milliseconds until it holds, or fail loudly.
/// The bounded-deadline stand-in for "wait for convergence".
fn await_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(3));
    }
}

fn fed(fs: &FsHandle) -> &Arc<Federation> {
    fs.federation.as_ref().expect("federated FS")
}

/// Wait until `fs`'s membership view holds exactly `expect` alive shards.
fn await_members(fs: &FsHandle, expect: usize, what: &str) {
    await_until(what, || fed(fs).alive_members().len() == expect);
}

fn spawn_shard(name: &str, clock: &Clock, seed: u64) -> FsHandle {
    let opts = FsOptions {
        federation: Some(FederationOptions::new(name)),
        ..FsOptions::default()
    };
    spawn_fs_durable("127.0.0.1:0", clock.clone(), seed, opts).expect("shard")
}

/// The smallest cluster id the ring assigns to `name` — lets tests pick
/// keys with a known owner instead of assuming anything about hash
/// distribution.
fn owned_by(fs: &FsHandle, name: &str) -> ClusterId {
    (1..100_000)
        .map(ClusterId)
        .find(|k| fed(fs).owner_of(*k).as_deref() == Some(name))
        .expect("every shard owns some key")
}

fn info(id: ClusterId) -> ServerInfo {
    ServerInfo {
        cluster: id,
        name: format!("cs{}", id.raw()),
        total_pes: 64,
        mem_per_pe_mb: 1024,
        cpu_type: "x86-64".into(),
        flops_per_pe_sec: 1.0,
        fd_addr: "127.0.0.1".into(),
        fd_port: 1,
    }
}

fn register(at: &FsHandle, id: ClusterId) {
    let r = call(
        at.service.addr,
        &Request::RegisterCluster {
            info: info(id),
            apps: vec!["namd".into()],
        },
    )
    .expect("register rpc");
    assert_eq!(r, Response::Ok, "registration of {id:?} acked");
}

fn login(at: &FsHandle, user: &str) -> SessionToken {
    call(
        at.service.addr,
        &Request::CreateUser {
            user: user.into(),
            password: "pw".into(),
        },
    )
    .expect("create user");
    match call(
        at.service.addr,
        &Request::Login {
            user: user.into(),
            password: "pw".into(),
        },
    )
    .expect("login rpc")
    {
        Response::Session { token, .. } => token,
        other => panic!("expected session, got {other:?}"),
    }
}

fn qos() -> QosContract {
    QosBuilder::new("namd", 4, 16, 100.0).build().unwrap()
}

/// The 64-PE `namd` daemon `fed-cs` (cluster 1), homed at `home` with
/// `fallback` as its heartbeat failover.
fn spawn_fd_at(home: &FsHandle, fallback: &FsHandle, aspect: &AsHandle, clock: &Clock) -> FdHandle {
    let opts = FdOptions {
        fs_fallbacks: vec![fallback.service.addr],
        ..FdOptions::default()
    };
    let (fs, aspect, clock) = (home.service.addr, aspect.service.addr, clock.clone());
    common::spawn_cs(1, "fed-cs", 64, fs, aspect, clock, opts)
}

#[test]
fn registrations_route_to_the_ring_owner_and_queries_see_every_shard() {
    let clock = Clock::realtime();
    let a = spawn_shard("fs-a", &clock, 11);
    let b = spawn_shard("fs-b", &clock, 12);
    fed(&b).join(a.service.addr);
    await_members(&a, 2, "fs-a to see both shards");
    await_members(&b, 2, "fs-b to see both shards");

    // Keys with known owners, each registered at the *other* shard, so
    // both directions of forwarding are exercised.
    let ka = owned_by(&a, "fs-a");
    let kb = owned_by(&a, "fs-b");
    register(&b, ka); // arrives at b, owned by a → forwarded
    register(&a, kb); // arrives at a, owned by b → forwarded
    assert!(
        a.state.lock().directory.get(ka).is_some(),
        "a-owned key must land in a's directory even when registered at b"
    );
    assert!(
        a.state.lock().directory.get(kb).is_none(),
        "b-owned key must not shadow-register at a"
    );
    assert!(
        b.state.lock().directory.get(kb).is_some(),
        "b-owned key must land in b's directory even when registered at a"
    );
    assert!(b.state.lock().directory.get(ka).is_none());

    // Six more clusters, all registered at a: each must live on exactly
    // its ring owner.
    let bulk: Vec<ClusterId> = (1_000_010..1_000_016).map(ClusterId).collect();
    for &id in &bulk {
        register(&a, id);
        let owner = fed(&a).owner_of(id).expect("ring owns every key");
        let on_a = a.state.lock().directory.get(id).is_some();
        let on_b = b.state.lock().directory.get(id).is_some();
        assert_eq!(on_a, owner == "fs-a", "{id:?} owner {owner}");
        assert_eq!(on_b, owner == "fs-b", "{id:?} owner {owner}");
    }

    // A heartbeat for a b-owned cluster sent to a is forwarded too.
    let r = call(
        a.service.addr,
        &Request::Heartbeat {
            cluster: kb,
            status: ServerStatus {
                free_pes: 48,
                queue_len: 3,
                accepting: true,
                utilization: 0.25,
                running: 4,
            },
        },
    )
    .expect("heartbeat rpc");
    assert_eq!(r, Response::Ok);
    assert_eq!(
        b.state.lock().directory.get(kb).unwrap().status.queue_len,
        3
    );

    // Any shard answers the whole federated directory: the token was
    // minted at a, so querying b also exercises cross-shard verification.
    let token = login(&a, "fed-q");
    for (label, fs) in [("a", &a), ("b", &b)] {
        let Response::Servers(servers) = call(
            fs.service.addr,
            &Request::ListServers {
                token: token.clone(),
                qos: qos(),
            },
        )
        .expect("list servers") else {
            panic!("expected server list from shard {label}")
        };
        assert_eq!(servers.len(), 8, "shard {label} must merge both shards");
        let ids: HashSet<ClusterId> = servers.iter().map(|s| s.info.cluster).collect();
        assert_eq!(ids.len(), 8, "no duplicate clusters from shard {label}");

        let Response::Clusters(rows) = call(
            fs.service.addr,
            &Request::ListClusters {
                token: token.clone(),
            },
        )
        .expect("list clusters") else {
            panic!("expected cluster rows from shard {label}")
        };
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(
                r.shard.as_deref(),
                fed(&a).owner_of(r.info.cluster).as_deref(),
                "every row is stamped with its owning shard"
            );
            assert!(r.ring_epoch >= 1, "federated rows carry the ring epoch");
        }
    }
}

#[test]
fn gossip_grades_a_dead_shard_and_the_ring_heals_around_it() {
    let clock = Clock::realtime();
    let a = spawn_shard("heal-a", &clock, 21);
    let b = spawn_shard("heal-b", &clock, 22);
    let c = spawn_shard("heal-c", &clock, 23);
    fed(&b).join(a.service.addr);
    fed(&c).join(a.service.addr);
    await_members(&a, 3, "heal-a full-mesh convergence");
    await_members(&b, 3, "heal-b full-mesh convergence");
    await_members(&c, 3, "heal-c full-mesh convergence");

    // A key the doomed shard owns, chosen while it is still in the ring.
    let k = owned_by(&a, "heal-c");
    let epoch_a = fed(&a).ring_epoch();
    let epoch_b = fed(&b).ring_epoch();
    drop(c); // the shard falls silent: gossip stops, listener closes

    await_until("survivors to grade heal-c dead and bump the ring", || {
        fed(&a).alive_members().len() == 2
            && fed(&b).alive_members().len() == 2
            && fed(&a).ring_epoch() > epoch_a
            && fed(&b).ring_epoch() > epoch_b
    });

    // The orphaned key now has a live owner, and a registration routed
    // through either survivor lands in that owner's directory.
    let owner = fed(&a).owner_of(k).expect("healed ring owns the key");
    assert_ne!(owner, "heal-c", "dead shard must not own keys");
    register(&b, k);
    let holder = if owner == "heal-a" { &a } else { &b };
    assert!(
        holder.state.lock().directory.get(k).is_some(),
        "re-registration lands on the new owner {owner}"
    );
}

#[test]
fn tokens_minted_at_one_shard_verify_at_another() {
    let clock = Clock::realtime();
    let a = spawn_shard("tok-a", &clock, 31);
    let b = spawn_shard("tok-b", &clock, 32);
    fed(&b).join(a.service.addr);
    await_members(&a, 2, "tok-a convergence");
    await_members(&b, 2, "tok-b convergence");

    let token = login(&a, "tok-user");
    let r = call(b.service.addr, &Request::VerifyToken { token }).expect("verify rpc");
    assert!(
        matches!(r, Response::Verified { .. }),
        "b must verify a's token via the federation, got {r:?}"
    );

    let r = call(
        b.service.addr,
        &Request::VerifyToken {
            token: SessionToken("forged".into()),
        },
    )
    .expect("verify rpc");
    assert!(
        matches!(r, Response::Error(_)),
        "a token no shard minted is rejected everywhere, got {r:?}"
    );
}

#[test]
fn client_and_fd_fail_over_when_their_home_shard_dies() {
    let clock = Clock::new(200.0);
    let a = spawn_shard("live-a", &clock, 41);
    let b = spawn_shard("live-b", &clock, 42);
    fed(&b).join(a.service.addr);
    await_members(&a, 2, "live-a convergence");
    await_members(&b, 2, "live-b convergence");
    let aspect = spawn_appspector("127.0.0.1:0", a.service.addr, 32).expect("AS");

    // The FD and the client are both homed at b, with a as fallback.
    let _fd = spawn_fd_at(&b, &a, &aspect, &clock);
    await_until("the FD registration to reach its owning shard", || {
        a.state.lock().directory.get(ClusterId(1)).is_some()
            || b.state.lock().directory.get(ClusterId(1)).is_some()
    });

    let mut client = FaucetsClient::register(
        b.service.addr,
        aspect.service.addr,
        clock.clone(),
        "fed-user",
        "pw",
    )
    .expect("client");
    client.fs_fallbacks = vec![a.service.addr];
    client.retry = RetryPolicy::none(); // fail over on first refusal
    client
        .submit(qos(), &[])
        .expect("submit against the healthy federation");

    let failovers0 = {
        let s = faucets_telemetry::global().snapshot();
        s.counter_sum("client_fs_failovers_total", &[])
    };
    drop(b); // kill the home shard

    await_until("the survivor to grade live-b dead", || {
        fed(&a).alive_members() == ["live-a"]
    });
    await_until("the FD to rotate to the survivor and re-register", || {
        let s = faucets_telemetry::global().snapshot();
        s.counter_sum("fd_fs_failovers_total", &[("cluster", "fed-cs")]) >= 1
            && a.state.lock().directory.get(ClusterId(1)).is_some()
    });

    // The client's session and account died with b: the next submission
    // must rotate to a, re-create its account there, and still succeed.
    client
        .submit(qos(), &[])
        .expect("submit after the home shard died");
    let failovers = {
        let s = faucets_telemetry::global().snapshot();
        s.counter_sum("client_fs_failovers_total", &[])
    };
    assert!(
        failovers > failovers0,
        "the client must have counted its shard failover"
    );
}

/// Regression for E26's `job-1 already holds processors`: every shard
/// keeps its own accounts, and each used to count its users from 0, so the
/// first users of two shards were both user 0, both minted job 1, and met
/// at a shared FD. A shard's ids carry the shard.
#[test]
fn first_users_of_two_shards_share_one_fd() {
    let clock = Clock::new(200.0);
    let a = spawn_shard("ids-a", &clock, 61);
    let b = spawn_shard("ids-b", &clock, 62);
    fed(&b).join(a.service.addr);
    await_members(&a, 2, "ids-a convergence");
    await_members(&b, 2, "ids-b convergence");
    let aspect = spawn_appspector("127.0.0.1:0", a.service.addr, 32).expect("AS");
    let fd = spawn_fd_at(&a, &b, &aspect, &clock);
    await_until("the FD registration to reach its owning shard", || {
        a.state.lock().directory.get(ClusterId(1)).is_some()
            || b.state.lock().directory.get(ClusterId(1)).is_some()
    });

    let mut clients = [(&a, "first-at-a"), (&b, "first-at-b")].map(|(home, name)| {
        FaucetsClient::register(
            home.service.addr,
            aspect.service.addr,
            clock.clone(),
            name,
            "pw",
        )
        .expect("client")
    });
    assert_ne!(
        clients[0].user, clients[1].user,
        "the first users of two shards must not share an id"
    );
    let jobs = clients
        .each_mut()
        .map(|c| c.submit(qos(), &[]).expect("award").job);
    assert_ne!(jobs[0], jobs[1], "nor their first jobs");
    for (c, job) in clients.iter_mut().zip(jobs) {
        let done = c.wait(job, Duration::from_secs(30)).expect("watch");
        assert!(done.completed, "{job} ran to completion on the shared FD");
    }
    assert_eq!(fd.completed(), 2);
}

/// Regression for the bid re-solicitation dedupe: an FS answer that lists
/// the same compute server twice (as a federated scatter-gather can,
/// transiently, during a ring transition) must solicit exactly one bid.
#[test]
fn duplicate_directory_rows_solicit_one_bid_per_cluster() {
    let clock = Clock::realtime();
    let seen: Arc<Mutex<Option<ServerInfo>>> = Arc::new(Mutex::new(None));
    let seen_h = Arc::clone(&seen);
    let fake_fs = serve_with(
        "127.0.0.1:0",
        "fake-fs",
        ServeOptions::default(),
        move |req| match req {
            Request::CreateUser { .. } => Response::Verified { user: UserId(7) },
            Request::Login { .. } => Response::Session {
                user: UserId(7),
                token: SessionToken("fake-token".into()),
            },
            Request::VerifyToken { .. } => Response::Verified { user: UserId(7) },
            Request::RegisterCluster { info, .. } => {
                *seen_h.lock() = Some(info);
                Response::Ok
            }
            Request::Heartbeat { .. } => Response::Ok,
            Request::ListServers { .. } => {
                let info = seen_h.lock().clone().expect("FD registered first");
                let listing = ServerListing {
                    info,
                    status: ServerStatus {
                        free_pes: 64,
                        queue_len: 0,
                        accepting: true,
                        utilization: 0.0,
                        running: 0,
                    },
                };
                // The duplicated row the client must collapse.
                Response::Servers(vec![listing.clone(), listing])
            }
            other => Response::Error(format!("fake fs: unexpected {other:?}")),
        },
    )
    .expect("fake FS");
    let aspect = spawn_appspector("127.0.0.1:0", fake_fs.addr, 8).expect("AS");

    let (as_addr, opts) = (aspect.service.addr, FdOptions::default());
    let fd = common::spawn_cs(9, "dup-cs", 64, fake_fs.addr, as_addr, clock.clone(), opts);
    await_until("the FD to register with the fake FS", || {
        seen.lock().is_some()
    });

    let mut client =
        FaucetsClient::register(fake_fs.addr, aspect.service.addr, clock, "dup-user", "pw")
            .expect("client");
    let sub = client.submit(qos(), &[]).expect("submit");
    assert_eq!(sub.bids_received, 1, "one bid per distinct cluster");
    assert_eq!(
        fd.daemon_stats().requests,
        1,
        "the duplicated listing must not double-solicit the daemon"
    );
}
