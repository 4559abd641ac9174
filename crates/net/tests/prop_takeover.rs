//! Property test for the sentinel takeover contract, at the store layer:
//! for ANY interleaving of an out-of-band fence (the sentinel's wire
//! deposition) with in-flight sync commits,
//!
//! 1. **no acked frame is lost** — every commit the primary acknowledged
//!    is durable in the follower's journal (that is what sync mode
//!    promised the client), and
//! 2. **no fenced frame is acked** — a commit that *starts* after the
//!    fence landed must fail; only commits already in flight may go
//!    either way (and a NACKed in-flight frame is allowed to exist on
//!    the follower — unacked ≠ forbidden, it just may not be claimed).
//!
//! The interleaving is genuinely racy (a committer thread runs while the
//! main thread fences at a seed-chosen point), which is the point:
//! the contract must hold for every schedule the OS happens to produce,
//! on top of the schedules the seeds explore.

use faucets_sim::check::for_seeds;
use faucets_store::{
    prepare_promotion, read_epoch, Durable, DurableStore, FollowerOptions, FollowerStore,
    LocalLink, ReplOptions, ReplicatedStore, ReplicationMode, StoreOptions,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "faucets-takeover-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_opts() -> StoreOptions {
    StoreOptions {
        service: "takeover".into(),
        compact_every: 0,
        no_fsync: true,
        ..StoreOptions::default()
    }
}

#[test]
fn any_takeover_interleaving_preserves_the_acked_contract() {
    for_seeds(16, |rng| {
        let commits = rng.random_range(1usize..24);
        let fence_after = rng.random_range(0usize..24);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let pdir = scratch("p", case);
        let fdir = scratch("f", case);

        let follower = Arc::new(
            FollowerStore::open(
                &fdir,
                FollowerOptions {
                    no_fsync: true,
                    ..FollowerOptions::default()
                },
            )
            .unwrap(),
        );
        let (store, _) = ReplicatedStore::open(
            &pdir,
            Log::default(),
            ReplOptions {
                store: store_opts(),
                mode: ReplicationMode::Sync,
                links: vec![Arc::new(LocalLink(Arc::clone(&follower)))],
            },
        )
        .unwrap();

        // The committer hammers sync commits; each records whether it
        // started after the fence was placed, and whether it was acked.
        let fenced_flag = Arc::new(AtomicBool::new(false));
        let attempted = Arc::new(AtomicUsize::new(0));
        let committer = {
            let store = Arc::clone(&store);
            let fenced_flag = Arc::clone(&fenced_flag);
            let attempted = Arc::clone(&attempted);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for i in 0..commits {
                    let after_fence = fenced_flag.load(Ordering::SeqCst);
                    let ok = store.commit(&format!("r{i}")).is_ok();
                    attempted.fetch_add(1, Ordering::SeqCst);
                    results.push((i, after_fence, ok));
                }
                results
            })
        };

        // Fence at the chosen interleaving point (0 = immediately; past
        // the end = after everything committed). The flag is raised
        // BEFORE the fence lands, so `after_fence && ok` can only be a
        // genuine contract violation, never instrumentation skew.
        let target = fence_after.min(commits);
        let gate = Instant::now() + Duration::from_secs(20);
        while attempted.load(Ordering::SeqCst) < target && Instant::now() < gate {
            std::thread::yield_now();
        }
        let new_epoch = store.epoch() + 1;
        fenced_flag.store(true, Ordering::SeqCst);
        store.fence(new_epoch);

        let results = committer.join().unwrap();
        let acked: Vec<String> = results
            .iter()
            .filter(|&&(_, _, ok)| ok)
            .map(|&(i, _, _)| format!("r{i}"))
            .collect();

        // Invariant 2: no fenced frame acked.
        for &(i, after_fence, ok) in &results {
            assert!(
                !(after_fence && ok),
                "commit r{i} started after the fence yet was acknowledged"
            );
        }

        // Promote the follower exactly as the sentinel would, then
        // recover its journal as a plain store.
        store.shutdown();
        drop(store);
        drop(follower);
        prepare_promotion(&fdir, "takeover", new_epoch).unwrap();
        assert_eq!(read_epoch(&fdir), new_epoch);
        let (promoted, _) = DurableStore::open(&fdir, Log::default(), store_opts()).unwrap();
        let survived = promoted.read(|l| l.0.clone());

        // Invariant 1: every acked frame survived the takeover. (The
        // follower may legitimately hold MORE than was acked — an
        // in-flight frame NACKed by the fence — but never less.)
        for rec in &acked {
            assert!(
                survived.contains(rec),
                "acked record {} missing after promotion (survived: {:?})",
                rec,
                survived
            );
        }

        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&fdir);
    });
}
