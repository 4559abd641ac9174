//! Property tests for WAL recovery (satellite of E21).
//!
//! Whatever damage a crash inflicts on the log tail — truncation at an
//! arbitrary byte, or a flipped bit anywhere in the file — recovery must
//! return a *valid prefix* of what was appended:
//!
//! 1. every record returned equals the original at that position (a
//!    damaged record is never surfaced as garbage), and
//! 2. every record wholly written *before* the damage point survives.

use faucets_sim::check::{for_seeds, vec_of};
use faucets_store::wal::{FRAME_HEADER, HEADER_LEN};
use faucets_store::{read_wal, Durable, DurableStore, NoopObserver, StoreOptions, Wal, WalOptions};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch WAL path, unique per process and per case.
fn scratch() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("faucets-store-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("wal-{n}.log"))
}

/// 1..12 records of 0..96 arbitrary bytes each.
fn records(rng: &mut StdRng) -> Vec<Vec<u8>> {
    vec_of(rng, 1..12, |rng| vec_of(rng, 0..96, |rng| rng.random()))
}

/// Write `records` into a fresh log and return its path.
fn write_log(records: &[Vec<u8>]) -> PathBuf {
    let path = scratch();
    let _ = std::fs::remove_file(&path);
    let wal = Wal::create(
        &path,
        1,
        WalOptions {
            no_fsync: true, // damage is injected below, not by skipping fsync
            ..WalOptions::default()
        },
        Arc::new(NoopObserver),
    )
    .expect("create wal");
    for r in records {
        wal.append(r).expect("append");
    }
    path
}

/// Byte offset at which record `i` (0-based) ends inside the file.
fn frame_end(records: &[Vec<u8>], i: usize) -> usize {
    HEADER_LEN as usize
        + records[..=i]
            .iter()
            .map(|r| FRAME_HEADER + r.len())
            .sum::<usize>()
}

/// How many leading records lie *wholly* before byte `damage_at`.
fn wholly_before(records: &[Vec<u8>], damage_at: usize) -> usize {
    (0..records.len())
        .take_while(|&i| frame_end(records, i) <= damage_at)
        .count()
}

/// Check the two prefix invariants against a damaged log.
fn check(path: &Path, records: &[Vec<u8>], damage_at: usize) {
    let scan = read_wal(path).expect("scan never fails on damaged content");
    let n = scan.records.len();
    assert!(
        n <= records.len(),
        "recovered {n} records from {} written",
        records.len()
    );
    assert_eq!(
        &scan.records[..],
        &records[..n],
        "recovered records must be an exact prefix"
    );
    let must_survive = wholly_before(records, damage_at);
    assert!(
        n >= must_survive,
        "damage at byte {damage_at} may only lose records at/after it: \
         recovered {n}, but {must_survive} were wholly before the damage"
    );
    let _ = std::fs::remove_file(path);
}

/// Truncating the file at any byte keeps an exact, complete prefix.
#[test]
fn truncation_always_yields_valid_prefix() {
    for_seeds(96, |rng| {
        let records = records(rng);
        let path = write_log(&records);
        let bytes = std::fs::read(&path).expect("read");
        let cut = rng.random_range(0..=bytes.len()); // empty file through untouched
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        check(&path, &records, cut);
    });
}

/// Flipping any single byte (header included) keeps an exact prefix and
/// loses nothing before the flipped byte.
#[test]
fn bit_flip_always_yields_valid_prefix() {
    for_seeds(96, |rng| {
        let records = records(rng);
        let path = write_log(&records);
        let mut bytes = std::fs::read(&path).expect("read");
        let at = rng.random_range(0..bytes.len());
        bytes[at] ^= rng.random_range(1u8..=255);
        std::fs::write(&path, &bytes).expect("write damaged");
        check(&path, &records, at);
    });
}

/// Truncation *and* a bit flip in what remains: still a valid prefix up
/// to the earlier damage point.
#[test]
fn combined_damage_always_yields_valid_prefix() {
    for_seeds(96, |rng| {
        let records = records(rng);
        let path = write_log(&records);
        let mut bytes = std::fs::read(&path).expect("read");
        let cut = rng.random_range(1..=bytes.len()); // keep at least one byte
        bytes.truncate(cut);
        let at = rng.random_range(0..bytes.len());
        bytes[at] ^= rng.random_range(1u8..=255);
        std::fs::write(&path, &bytes).expect("write damaged");
        check(&path, &records, at.min(cut));
    });
}

// ---- Crash during compaction (DurableStore level) ----

/// Append-only list of strings; `String`/`Vec<String>` satisfy the serde
/// bounds without derives.
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

/// A kill -9 during compaction leaves a torn `snap-*.json.tmp` — and
/// possibly a torn half-renamed next-generation snapshot — next to a
/// WAL that may itself be truncated. Recovery must restore exactly
/// the wholly-written record prefix of the intact generation, never
/// let the torn snapshot shadow it, and sweep the debris.
#[test]
fn compaction_crash_recovers_exact_prefix() {
    for_seeds(48, |rng| {
        // 1..16 entries of 1..=12 letters a–z.
        let entries: Vec<String> = vec_of(rng, 1..16, |rng| {
            let letters = vec_of(rng, 1..13, |rng| rng.random_range(b'a'..=b'z') as char);
            letters.into_iter().collect()
        });
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "faucets-store-prop-compact-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            compact_every: 0,
            no_fsync: true,
            ..StoreOptions::default()
        };
        {
            let (store, _) =
                DurableStore::open(&dir, Log::default(), opts.clone()).expect("seed open");
            for e in &entries {
                store.commit(e).expect("commit");
            }
            // Crash: drop without compaction.
        }

        // Truncate the live WAL at an arbitrary byte.
        let wal = dir.join("wal-1.log");
        let bytes = std::fs::read(&wal).expect("read");
        let cut = rng.random_range(0..=bytes.len());
        std::fs::write(&wal, &bytes[..cut]).expect("truncate");

        // Plant the compaction debris: strict prefixes of the real
        // snapshot bytes (a strict prefix of a JSON array is never valid
        // JSON, exactly like a torn write).
        let full = serde_json::to_vec(&entries).expect("serialize");
        let tear = rng.random_range(0..full.len());
        std::fs::write(dir.join("snap-2.json.tmp"), &full[..tear]).expect("plant tmp");
        std::fs::write(dir.join("snap-2.json"), &full[..tear]).expect("plant snap");

        let (store, report) = DurableStore::open(&dir, Log::default(), opts).expect("recover");
        assert_eq!(report.generation, 1, "torn snapshot must not shadow gen 1");

        // The WAL payload of record i is its JSON encoding (quoted; the
        // [a-z] alphabet needs no escapes).
        let payloads: Vec<Vec<u8>> = entries
            .iter()
            .map(|e| format!("\"{e}\"").into_bytes())
            .collect();
        let survive = wholly_before(&payloads, cut);
        let got = store.read(|s| s.0.clone());
        assert_eq!(
            got.len(),
            survive,
            "exactly the records wholly before byte {cut} survive"
        );
        assert_eq!(&got[..], &entries[..survive], "recovered an exact prefix");

        let debris: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.ends_with(".tmp") || n == "snap-2.json")
            .collect();
        assert!(debris.is_empty(), "compaction debris swept: {debris:?}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
