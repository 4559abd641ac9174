//! Pipelining correctness under arbitrary interleavings: whatever order
//! responses come back in — permuted, partially lost, or the connection
//! failing mid-flight — every completion reaches exactly the slot that
//! registered its `request_id`, or surfaces as a typed error. A crossed
//! wire (request A paid request B's reply) is the one catastrophic failure
//! mode of request pipelining, so it gets the property treatment: over
//! real sockets with a permuted reply schedule, and on the bare
//! [`PendingMap`], which since the pooled burst fills its own slots only
//! the frozen benchmark harness still calls (`pool.pending_us`).

use faucets_net::pool::PendingMap;
use faucets_net::prelude::*;
use faucets_sim::check::for_seeds;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Build the response payload only request `id` may legitimately receive.
fn payload_for(id: u64) -> Response {
    Response::Error(format!("payload-{id}"))
}

/// A permutation of `0..n`: the identity under up to 47 random swaps.
fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..rng.random_range(0..48) {
        order.swap(rng.random_range(0..n), rng.random_range(0..n));
    }
    order
}

/// Complete registered requests in an arbitrary order: every waiter
/// observes exactly its own payload, no matter the interleaving.
#[test]
fn out_of_order_completions_reach_their_registrants() {
    for_seeds(64, |rng| {
        let n = rng.random_range(1usize..24);
        let map = Arc::new(PendingMap::new());
        let tickets: Vec<_> = (0..n as u64).map(|id| map.register(id)).collect();
        let order = permutation(rng, n);

        let completer = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                for idx in order {
                    assert!(
                        map.complete(idx as u64, payload_for(idx as u64)),
                        "registered id {idx} must find its waiter"
                    );
                }
            })
        };
        for (id, ticket) in tickets.into_iter().enumerate() {
            let got = map
                .wait(ticket, Duration::from_secs(5))
                .expect("completed request must succeed");
            assert_eq!(got, payload_for(id as u64), "crossed wire at id {id}");
        }
        completer.join().unwrap();
        assert!(map.is_empty(), "all slots consumed");
    });
}

/// Complete only a subset, then fail the connection: completed
/// requests get exactly their payload, the rest get a typed
/// disconnect error — never silence, never someone else's bytes.
#[test]
fn partial_completion_then_failure_never_crosses_wires() {
    for_seeds(64, |rng| {
        let n = rng.random_range(1usize..24);
        let map = Arc::new(PendingMap::new());
        let tickets: Vec<_> = (0..n as u64).map(|id| map.register(id)).collect();
        // An arbitrary subset (prefix of a permutation) completes before
        // the "connection" dies under everyone else.
        let order = permutation(rng, n);
        let keep = rng.random_range(0usize..24);
        let completed: Vec<usize> = order[..keep.min(n)].to_vec();
        for &idx in &completed {
            assert!(map.complete(idx as u64, payload_for(idx as u64)));
        }
        map.fail_all("connection lost");

        for (id, ticket) in tickets.into_iter().enumerate() {
            match map.wait(ticket, Duration::from_secs(5)) {
                Ok(got) => {
                    assert!(
                        completed.contains(&id),
                        "id {id} succeeded without being completed"
                    );
                    assert_eq!(got, payload_for(id as u64), "crossed wire at id {id}");
                }
                Err(e) => {
                    assert!(
                        !completed.contains(&id),
                        "completed id {id} surfaced an error: {e}"
                    );
                    assert_eq!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted,
                        "failure is the typed disconnect"
                    );
                }
            }
        }
    });
}

/// A late completion for an abandoned (timed-out) id is an orphan:
/// `complete` reports no waiter, and the abandoned caller saw a typed
/// timeout — not a stale or foreign payload.
#[test]
fn abandoned_ids_turn_late_replies_into_orphans() {
    for_seeds(64, |rng| {
        let n = rng.random_range(1usize..16);
        let abandon_mask = rng.random_range(0u32..65536);
        let map = Arc::new(PendingMap::new());
        let tickets: Vec<_> = (0..n as u64).map(|id| map.register(id)).collect();
        let mut abandoned = Vec::new();
        for (id, ticket) in tickets.into_iter().enumerate() {
            if abandon_mask & (1u32 << id) != 0 {
                // Zero timeout: the caller gives up before any reply.
                let e = map.wait(ticket, Duration::ZERO).unwrap_err();
                assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
                abandoned.push(id);
            } else {
                map.abandon(ticket.id());
                abandoned.push(id);
            }
        }
        for id in abandoned {
            assert!(
                !map.complete(id as u64, payload_for(id as u64)),
                "late reply for abandoned id {id} must be an orphan"
            );
        }
        assert!(map.is_empty());
    });
}

/// A ticket dropped without `wait` (caller panicked or bailed early)
/// deregisters its id immediately: the map does not leak the slot, and a
/// late reply for it is an orphan — never a mis-delivery.
#[test]
fn dropped_tickets_abandon_their_ids() {
    let map = Arc::new(PendingMap::new());
    let t1 = map.register(1);
    let t2 = map.register(2);
    assert_eq!(map.len(), 2);
    drop(t1);
    assert_eq!(map.len(), 1, "dropped ticket deregistered its id");
    assert!(
        !map.complete(1, payload_for(1)),
        "late reply for a dropped ticket is an orphan"
    );
    assert!(map.complete(2, payload_for(2)));
    let got = map.wait(t2, Duration::from_secs(1)).unwrap();
    assert_eq!(got, payload_for(2));
    assert!(map.is_empty());
}

/// End-to-end: a real server whose handler stalls each request by a
/// seed-keyed amount, so replies come back in an adversarial order
/// over one pooled socket — every slot of the burst still gets the
/// response to its own request.
#[test]
fn permuted_reply_schedules_match_batch_slots_over_real_sockets() {
    // Deterministic-seeded schedule sweep, kept short: three schedules of
    // sixteen stalls each (the properties above cover the state
    // space; this pins the socket plumbing).
    for seed in [3u64, 17, 40] {
        let h = serve_with(
            "127.0.0.1:0",
            "permuted",
            ServeOptions::default(),
            move |req| {
                let Request::Login { user, .. } = req else {
                    return Response::Error("unexpected".into());
                };
                let n: u64 = user.trim_start_matches('u').parse().unwrap_or(0);
                // A seed-keyed stall permutes completion order vs arrival
                // order (requests run concurrently on the executor pool).
                let stall = (n * seed + seed) % 40;
                std::thread::sleep(Duration::from_millis(stall));
                Response::Error(format!("u{n}"))
            },
        )
        .unwrap();

        let pool = Arc::new(ConnPool::new("permuted", PoolConfig::default()));
        let opts = CallOptions {
            pool: Some(pool),
            timeouts: Timeouts::both(Duration::from_secs(5)),
            retry: RetryPolicy::none(),
            ..CallOptions::default()
        };
        let reqs: Vec<Request> = (0..16)
            .map(|i| Request::Login {
                user: format!("u{i}"),
                password: String::new(),
            })
            .collect();
        let results = call_batch(h.addr, &reqs, &opts);
        for (i, r) in results.into_iter().enumerate() {
            match r.unwrap_or_else(|e| panic!("seed {seed} slot {i}: {e}")) {
                Response::Error(tag) => assert_eq!(
                    tag,
                    format!("u{i}"),
                    "seed {seed}: slot {i} was paid someone else's reply"
                ),
                other => panic!("seed {seed} slot {i}: unexpected {other:?}"),
            }
        }
        h.shutdown();
    }
}
