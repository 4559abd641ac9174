//! The client side of the wire owns no thread. This file holds one test
//! and must keep holding one: the census counts every thread of the
//! process, and a second test running beside it would be counted too.

use faucets_net::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// A storm of pipelined bursts, then of solicitation rounds, over four
/// pools and four served peers, their warm sockets still checked in, leaves
/// the process with the threads it had before the first burst: replies are
/// read on the caller's own thread. The peers take the census too, while a
/// request is in their hands, which is when a fan-out thread would be alive.
#[test]
fn a_call_batch_storm_and_a_call_many_storm_leave_the_thread_count_where_it_was() {
    // The services and their workers start here, before the census: one
    // worker each, so that a peer cannot grow its pool under the storm and
    // the census counts the client side only.
    let peak = Arc::new(AtomicUsize::new(0));
    let one_worker = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let peers: Vec<ServiceHandle> = (0..4)
        .map(|_| {
            let peak = Arc::clone(&peak);
            serve_with("127.0.0.1:0", "census", one_worker.clone(), move |_| {
                peak.fetch_max(threads(), Ordering::SeqCst);
                Response::Ok
            })
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = peers.iter().map(|h| h.addr).collect();
    let before = threads();

    let callers: Vec<CallOptions> = (0..4)
        .map(|_| CallOptions {
            pool: Some(Arc::new(ConnPool::new("census", PoolConfig::default()))),
            ..CallOptions::default()
        })
        .collect();
    let req = Request::VerifyToken {
        token: faucets_core::auth::SessionToken("t".into()),
    };
    let reqs = vec![req.clone(); 64];
    for round in 0..50 {
        for opts in &callers {
            for reply in call_batch(addrs[0], &reqs, opts) {
                assert_eq!(reply.unwrap(), Response::Ok);
            }
        }
        assert_eq!(threads(), before, "burst round {round}");
    }
    for opts in &callers {
        let pool = opts.pool.as_ref().unwrap();
        assert_eq!(pool.open_connections(), 1, "one warm socket per caller");
    }
    for round in 0..50 {
        for opts in &callers {
            for reply in call_many(&addrs, &req, opts, addrs.len()) {
                assert_eq!(reply.unwrap(), Response::Ok);
            }
        }
        assert_eq!(threads(), before, "solicitation round {round}");
    }
    assert_eq!(
        peak.load(Ordering::SeqCst),
        before,
        "a thread was alive while a peer held a request"
    );
    for opts in &callers {
        let pool = opts.pool.as_ref().unwrap();
        let warm = (pool.open_connections(), pool.idle_count());
        assert_eq!(warm, (4, 4), "one warm socket per peer");
    }
    for h in peers {
        h.shutdown();
    }
}
