//! Property tests for batched commits: a batch of records is one WAL write
//! and one ship round, so a storage fault on any record of it must fail
//! the whole batch, and a replicated batch may only be acknowledged once
//! every follower holds it.
//!
//! 1. `commit_all` returns `Ok` only if the log on disk then holds every
//!    record of the batch, after everything committed before it.
//! 2. On `Err` the state is untouched, and the log on disk is a prefix of
//!    what was attempted (the committed records, then some of the batch)
//!    that keeps every committed record; the next commit truncates the
//!    torn tail away.
//! 3. A sync `ReplicatedStore::commit_all` over two links acknowledges only
//!    when both followers cover the batch's last frame, and a batch a
//!    follower missed ships with the next commit.

use faucets_sim::check::{for_seeds, vec_of};
use faucets_store::{
    scan_dir, Durable, DurableStore, FollowerOptions, FollowerStore, ReplFrame, ReplOptions,
    ReplReply, ReplicaLink, ReplicatedStore, ReplicationMode, SnapshotBlob, StoreError,
    StoreOptions, WriteFault,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory, unique per process and per case.
fn scratch(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "faucets-store-batch-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Append-only list of strings.
#[derive(Default)]
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

/// A batch of 1–8 records, each unique to its seed, round and place.
fn batch(rng: &mut StdRng, round: usize) -> Vec<String> {
    let n = rng.random_range(1..=8);
    (0..n)
        .map(|i| {
            let pad = vec_of(rng, 0..24, |rng| rng.random_range(b'a'..=b'z') as char);
            format!("r{round}-{i}-{}", pad.into_iter().collect::<String>())
        })
        .collect()
}

/// The records in the live WAL of `dir`, decoded, and whether the scan
/// met damage.
fn on_disk(dir: &Path) -> (Vec<String>, bool) {
    let scan = scan_dir(dir).expect("scan").expect("a live WAL");
    let records = scan
        .records
        .iter()
        .map(|r| serde_json::from_slice(r).expect("a record of the valid prefix decodes"))
        .collect();
    (records, scan.damage.is_some())
}

/// Commits of 1–8 records, half of them with a fault on a random record;
/// after each, the log on disk is checked against what was committed.
#[test]
fn a_faulted_batch_fails_whole_and_the_next_commit_repairs_it() {
    for_seeds(256, |rng| {
        let dir = scratch("faults");
        // Fates for the records of the next commit, asked in order; an
        // empty plan delivers.
        let plan = Arc::new(Mutex::new(VecDeque::<WriteFault>::new()));
        let hook_plan = Arc::clone(&plan);
        let opts = StoreOptions {
            compact_every: 0,
            no_fsync: true,
            fault: Some(Arc::new(move |_: &[u8]| {
                let next = hook_plan.lock().unwrap().pop_front();
                next.unwrap_or(WriteFault::Deliver)
            })),
            ..StoreOptions::default()
        };
        let (store, _) = DurableStore::open(&dir, Log::default(), opts).expect("open");
        let mut committed: Vec<String> = Vec::new();
        for round in 0..rng.random_range(2..8) {
            let recs = batch(rng, round);
            let fault = rng.random_bool(0.5).then(|| {
                let at = rng.random_range(0..recs.len());
                let fate = match rng.random_range(0..3) {
                    0 => WriteFault::Fail,
                    1 => WriteFault::Torn {
                        keep: rng.random_range(0..64),
                    },
                    _ => WriteFault::Garble {
                        offset: rng.random_range(0..64),
                        xor: rng.random(),
                    },
                };
                (at, fate)
            });
            {
                let mut plan = plan.lock().unwrap();
                plan.clear();
                if let Some((at, fate)) = fault {
                    plan.extend(std::iter::repeat_n(WriteFault::Deliver, at));
                    plan.push_back(fate);
                }
            }
            let res = store.commit_all(&recs);
            let (disk, damaged) = on_disk(&dir);
            match res {
                Ok(first) => {
                    assert!(fault.is_none(), "round {round}: {fault:?} was not reported");
                    assert_eq!(first, committed.len() as u64, "round {round}: first seq");
                    committed.extend(recs);
                    assert_eq!(disk, committed, "round {round}: Ok, yet the log differs");
                    assert!(!damaged, "round {round}: the torn tail outlived a commit");
                }
                Err(e) => {
                    assert!(
                        matches!(e, StoreError::InjectedFault(_)),
                        "round {round}: {e}"
                    );
                    assert!(fault.is_some(), "round {round}: Err without a fault: {e}");
                    let attempted: Vec<&String> = committed.iter().chain(&recs).collect();
                    assert!(
                        disk.len() >= committed.len() && disk.len() < attempted.len(),
                        "round {round}: {} on disk, {} committed, {} attempted",
                        disk.len(),
                        committed.len(),
                        attempted.len()
                    );
                    assert!(
                        disk.iter().zip(&attempted).all(|(d, a)| d == *a),
                        "round {round}: the log is not a prefix of what was attempted"
                    );
                }
            }
            assert_eq!(
                store.read(|s| s.0.clone()),
                committed,
                "round {round}: the state holds exactly what was committed"
            );
        }
        // A last clean commit repairs whatever the last round tore.
        plan.lock().unwrap().clear();
        store.commit(&"last".to_string()).expect("a clean commit");
        committed.push("last".into());
        drop(store);
        let (store, report) = DurableStore::open(
            &dir,
            Log::default(),
            StoreOptions {
                compact_every: 0,
                no_fsync: true,
                ..StoreOptions::default()
            },
        )
        .expect("reopen");
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(store.read(|s| s.0.clone()), committed);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A link to an in-process follower that the test can take down.
struct Flaky {
    inner: Arc<FollowerStore>,
    down: AtomicBool,
}

impl Flaky {
    fn reach(&self) -> Result<&FollowerStore, StoreError> {
        if self.down.load(Ordering::SeqCst) {
            return Err(StoreError::Io(std::io::Error::other("link down")));
        }
        Ok(&self.inner)
    }
}

impl ReplicaLink for Flaky {
    fn offer(&self, frames: Vec<ReplFrame>) -> Result<ReplReply, StoreError> {
        self.reach()?.offer(&frames)
    }
    fn install(&self, blob: &SnapshotBlob) -> Result<ReplReply, StoreError> {
        self.reach()?.install(blob)
    }
    fn status(&self) -> Result<ReplReply, StoreError> {
        Ok(ReplReply::Ok(self.reach()?.position()))
    }
}

/// Batches of 1–8 records over two followers, either of which may be
/// down for a commit: `Ok` exactly when both cover the batch's last frame.
#[test]
fn a_sync_batch_is_acked_only_when_both_followers_cover_it() {
    for_seeds(256, |rng| {
        let pdir = scratch("sync-p");
        let links: Vec<Arc<Flaky>> = (0..2)
            .map(|_| {
                let follower = FollowerStore::open(
                    scratch("sync-f"),
                    FollowerOptions {
                        no_fsync: true,
                        ..FollowerOptions::default()
                    },
                )
                .expect("follower");
                Arc::new(Flaky {
                    inner: Arc::new(follower),
                    down: AtomicBool::new(false),
                })
            })
            .collect();
        let opts = ReplOptions {
            store: StoreOptions {
                compact_every: 0,
                no_fsync: true,
                ..StoreOptions::default()
            },
            mode: ReplicationMode::Sync,
            links: links
                .iter()
                .map(|l| Arc::clone(l) as Arc<dyn ReplicaLink>)
                .collect(),
        };
        let (store, _) = ReplicatedStore::open(&pdir, Log::default(), opts).expect("open");
        let mut committed = 0u64;
        for round in 0..rng.random_range(2..6) {
            for link in &links {
                link.down.store(rng.random_bool(0.25), Ordering::SeqCst);
            }
            let recs = batch(rng, round);
            let end = committed + recs.len() as u64;
            let res = store.commit_all(&recs);
            committed = end;
            let covers: Vec<bool> = links
                .iter()
                .map(|l| {
                    let pos = l.inner.position();
                    pos.generation == 1 && pos.acked >= end
                })
                .collect();
            let any_down = links.iter().any(|l| l.down.load(Ordering::SeqCst));
            match res {
                Ok(first) => {
                    assert_eq!(first, end - recs.len() as u64, "round {round}: first seq");
                    assert!(
                        covers.iter().all(|&c| c),
                        "round {round}: acked while a follower misses the batch: {covers:?}"
                    );
                }
                Err(StoreError::Unreplicated { want: 2, got }) => {
                    assert!(any_down, "round {round}: NACKed with both links up");
                    let covering = covers.iter().filter(|&&c| c).count();
                    assert_eq!(got, covering, "round {round}: {covers:?}");
                    assert!(got < 2, "round {round}");
                }
                Err(e) => panic!("round {round}: {e}"),
            }
            // The batch is in the local log either way.
            assert_eq!(store.read(|s| s.0.len() as u64), committed);
        }
        // Both links up: the next commit carries whatever a follower missed.
        for link in &links {
            link.down.store(false, Ordering::SeqCst);
        }
        store
            .commit(&"last".to_string())
            .expect("both followers reachable");
        for link in &links {
            assert_eq!(link.inner.position().acked, committed + 1);
        }
        let _ = std::fs::remove_dir_all(&pdir);
        for link in &links {
            let _ = std::fs::remove_dir_all(link.inner.dir());
        }
    });
}
