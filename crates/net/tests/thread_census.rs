//! The client side of the wire owns no thread. This file holds one test
//! and must keep holding one: the census counts every thread of the
//! process, and a second test running beside it would be counted too.

use faucets_net::prelude::*;
use std::sync::Arc;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// A storm of pipelined bursts over four pools, their warm sockets still
/// checked in, leaves the process with the threads it had before the first
/// burst: replies are read on the caller's own thread.
#[test]
fn a_call_batch_storm_leaves_the_thread_count_where_it_was() {
    // The reactor and its executor pool start here, before the census.
    let h = serve_with("127.0.0.1:0", "census", ServeOptions::default(), |_| {
        Response::Ok
    })
    .unwrap();
    let before = threads();

    let callers: Vec<CallOptions> = (0..4)
        .map(|_| CallOptions {
            pool: Some(Arc::new(ConnPool::new("census", PoolConfig::default()))),
            ..CallOptions::default()
        })
        .collect();
    let reqs = vec![
        Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        64
    ];
    for round in 0..50 {
        for opts in &callers {
            for reply in call_batch(h.addr, &reqs, opts) {
                assert_eq!(reply.unwrap(), Response::Ok);
            }
        }
        assert_eq!(threads(), before, "round {round}");
    }
    for opts in &callers {
        let pool = opts.pool.as_ref().unwrap();
        assert_eq!(pool.open_connections(), 1, "one warm socket per caller");
    }
    h.shutdown();
}
