//! State-machine durability on top of the WAL: the [`Durable`] trait,
//! snapshot + log generations, compaction, and recovery.
//!
//! A [`DurableStore`] owns a directory holding exactly one *generation* of
//! state (plus, transiently, the generation being compacted into):
//!
//! ```text
//! <dir>/snap-<g>.json   snapshot the generation starts from
//! <dir>/wal-<g>.log     records applied since that snapshot
//! ```
//!
//! Every [`DurableStore::commit`] appends the record to the WAL (fsynced
//! by group commit) **before** applying it to the in-memory state, so an
//! acknowledged mutation is always recoverable; [`DurableStore::commit_all`]
//! does the same for a batch, in one write and one flush. Compaction rolls the
//! generation forward crash-safely: write `snap-<g+1>.json.tmp`, fsync,
//! rename (atomic), fsync the directory, create `wal-<g+1>.log`, then
//! delete generation `g`. A crash in any window leaves at least one
//! complete generation on disk; recovery picks the highest generation
//! whose snapshot parses and replays its WAL's longest valid prefix.

use crate::wal::{read_wal, StoreError, StoreFaultFn, Wal, WalObserver, WalOptions, WalScan};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A state machine the store can make durable.
///
/// `apply` must be deterministic and infallible: any validation (balance
/// checks, duplicate detection) happens *before* the record is journaled —
/// see [`DurableStore::commit_check`] — because recovery replays records
/// unconditionally.
pub trait Durable: Sized {
    /// One journaled mutation.
    type Record: Serialize + DeserializeOwned;
    /// A full copy of the state, written at compaction time.
    type Snapshot: Serialize + DeserializeOwned;

    /// Fold one record into the state.
    fn apply(&mut self, rec: &Self::Record);
    /// Capture the current state for a snapshot.
    fn snapshot(&self) -> Self::Snapshot;
    /// Rebuild the state from a snapshot.
    fn restore(snap: Self::Snapshot) -> Self;
}

/// Tuning knobs for a [`DurableStore`].
#[derive(Clone)]
pub struct StoreOptions {
    /// Telemetry label: which service this store backs (`fd`, `fs`,
    /// `ledger`, ...).
    pub service: String,
    /// Compact after this many records accumulate in the WAL (0 = only on
    /// explicit [`DurableStore::compact`] calls).
    pub compact_every: u64,
    /// Skip fsync (see [`WalOptions::no_fsync`]); for tests and
    /// benchmarks that should not measure the disk.
    pub no_fsync: bool,
    /// Fault-injection hook applied to WAL appends.
    pub fault: Option<StoreFaultFn>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            service: "store".into(),
            compact_every: 1024,
            no_fsync: false,
            fault: None,
        }
    }
}

impl fmt::Debug for StoreOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreOptions")
            .field("service", &self.service)
            .field("compact_every", &self.compact_every)
            .field("no_fsync", &self.no_fsync)
            .field("fault", &self.fault.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

/// What [`DurableStore::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Generation recovered into.
    pub generation: u64,
    /// Whether a snapshot was loaded (false on first boot).
    pub snapshot_loaded: bool,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Torn-tail bytes discarded from the WAL.
    pub torn_bytes: u64,
    /// Description of the first damage the WAL scan hit, if any.
    pub damage: Option<String>,
}

/// Why a checked commit did not happen.
#[derive(Debug)]
pub enum CommitError<E> {
    /// The caller's check rejected the record; nothing was journaled.
    Rejected(E),
    /// The record passed the check but could not be made durable.
    Store(StoreError),
}

impl<E: fmt::Display> fmt::Display for CommitError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Rejected(e) => write!(f, "rejected: {e}"),
            CommitError::Store(e) => write!(f, "store failure: {e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for CommitError<E> {}

impl<E> From<StoreError> for CommitError<E> {
    fn from(e: StoreError) -> Self {
        CommitError::Store(e)
    }
}

/// Telemetry handles shared by one store.
struct StoreMetrics {
    fsync: faucets_telemetry::Histogram,
    batch: faucets_telemetry::Histogram,
    appends: faucets_telemetry::Counter,
    append_errors: faucets_telemetry::Counter,
    compactions: faucets_telemetry::Counter,
    recovery_replayed: faucets_telemetry::Counter,
    recovery_torn: faucets_telemetry::Counter,
}

impl StoreMetrics {
    fn new(service: &str) -> Arc<StoreMetrics> {
        let reg = faucets_telemetry::global();
        let labels: &[(&str, &str)] = &[("service", service)];
        Arc::new(StoreMetrics {
            fsync: reg.histogram("store_fsync_seconds", labels),
            batch: reg.histogram("store_commit_batch_size", labels),
            appends: reg.counter("store_appends_total", labels),
            append_errors: reg.counter("store_append_errors_total", labels),
            compactions: reg.counter("store_compactions_total", labels),
            recovery_replayed: reg.counter("store_recovery_replayed_records_total", labels),
            recovery_torn: reg.counter("store_recovery_torn_bytes_total", labels),
        })
    }
}

impl WalObserver for StoreMetrics {
    fn fsync_seconds(&self, secs: f64) {
        self.fsync.record(secs);
    }
    fn commit_batch(&self, records: u64) {
        self.batch.record(records as f64);
    }
    fn append_ok(&self, records: u64) {
        self.appends.add(records);
    }
    fn append_error(&self) {
        self.append_errors.inc();
    }
}

/// State guarded by the store's lock.
struct Inner<T> {
    state: T,
    wal: Wal,
    generation: u64,
    since_compact: u64,
}

/// A crash-safe, WAL-backed container for one [`Durable`] state machine.
pub struct DurableStore<T: Durable> {
    dir: PathBuf,
    opts: StoreOptions,
    metrics: Arc<StoreMetrics>,
    inner: Mutex<Inner<T>>,
}

impl<T: Durable> fmt::Debug for DurableStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("service", &self.opts.service)
            .finish()
    }
}

pub(crate) fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen}.json"))
}

pub(crate) fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen}.log"))
}

/// Generations present in `dir`, judged by their snapshot files.
pub(crate) fn list_generations(dir: &Path) -> Vec<u64> {
    let mut gens = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return gens;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            gens.push(g);
        }
    }
    gens
}

/// The serde_json text of each record: what the WAL stores and a
/// replication frame ships.
pub(crate) fn encode_all<R: Serialize>(recs: &[R]) -> Result<Vec<String>, StoreError> {
    recs.iter()
        .map(|rec| {
            serde_json::to_string(rec)
                .map_err(|e| StoreError::Corrupt(format!("record serialize: {e}")))
        })
        .collect()
}

/// Write `snap-<gen>.json` crash-safely (see [`write_atomic`]).
fn write_snapshot<S: Serialize>(
    dir: &Path,
    gen: u64,
    snap: &S,
    no_fsync: bool,
) -> Result<(), StoreError> {
    let bytes = serde_json::to_vec(snap)
        .map_err(|e| StoreError::Corrupt(format!("snapshot serialize: {e}")))?;
    write_atomic(&snap_path(dir, gen), &bytes, no_fsync)
}

/// Replace the small file at `path` crash-safely: write `<path>.tmp`,
/// fsync it, rename it over `path`, fsync the directory. A reader sees the
/// old bytes or the new ones, never a mix. `no_fsync` skips both fsyncs
/// (tests and benchmarks only). Snapshots and the replication epoch file
/// are written here.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], no_fsync: bool) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    if !no_fsync {
        f.sync_all()?;
    }
    drop(f);
    fs::rename(&tmp, path)?;
    if !no_fsync {
        if let Some(Ok(d)) = path.parent().map(File::open) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Best-effort removal of generations other than `keep` and any stray
/// temp files.
pub(crate) fn sweep(dir: &Path, keep: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_snap = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
            .is_some_and(|g| g != keep);
        let stale_wal = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
            .is_some_and(|g| g != keep);
        if stale_snap || stale_wal || name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
}

impl<T: Durable> DurableStore<T> {
    /// Open (or create) the store in `dir`, recovering any prior state.
    ///
    /// Recovery picks the highest generation whose snapshot parses,
    /// replays the longest valid prefix of its WAL on top, truncates the
    /// torn tail, and sweeps stale generations. `initial` seeds the state
    /// only when no usable generation exists (first boot).
    pub fn open(
        dir: impl Into<PathBuf>,
        initial: T,
        opts: StoreOptions,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let metrics = StoreMetrics::new(&opts.service);

        let mut gens = list_generations(&dir);
        gens.sort_unstable_by(|a, b| b.cmp(a));
        let mut loaded: Option<(u64, T)> = None;
        for g in gens {
            if let Ok(bytes) = fs::read(snap_path(&dir, g)) {
                if let Ok(snap) = serde_json::from_slice::<T::Snapshot>(&bytes) {
                    loaded = Some((g, T::restore(snap)));
                    break;
                }
            }
        }
        let (generation, mut state, snapshot_loaded) = match loaded {
            Some((g, s)) => (g, s, true),
            None => {
                write_snapshot(&dir, 1, &initial.snapshot(), opts.no_fsync)?;
                (1, initial, false)
            }
        };

        let wal_opts = WalOptions {
            no_fsync: opts.no_fsync,
            fault: opts.fault.clone(),
        };
        let observer: Arc<dyn WalObserver> = Arc::clone(&metrics) as Arc<dyn WalObserver>;
        let (wal, scan): (Wal, WalScan) =
            Wal::recover(&wal_path(&dir, generation), generation, wal_opts, observer)?;
        let mut replayed = 0u64;
        for payload in &scan.records {
            let rec: T::Record = serde_json::from_slice(payload)
                .map_err(|e| StoreError::Corrupt(format!("replay: {e}")))?;
            state.apply(&rec);
            replayed += 1;
        }
        metrics.recovery_replayed.add(replayed);
        metrics.recovery_torn.add(scan.torn_bytes);
        sweep(&dir, generation);

        let report = RecoveryReport {
            generation,
            snapshot_loaded,
            replayed_records: replayed,
            torn_bytes: scan.torn_bytes,
            damage: scan.damage,
        };
        Ok((
            DurableStore {
                dir,
                opts,
                metrics,
                inner: Mutex::new(Inner {
                    state,
                    wal,
                    generation,
                    since_compact: replayed,
                }),
            },
            report,
        ))
    }

    /// Journal `rec` durably, then apply it to the state: the one-record
    /// case of [`DurableStore::commit_all`].
    pub fn commit(&self, rec: &T::Record) -> Result<u64, StoreError> {
        self.commit_all(std::slice::from_ref(rec))
    }

    /// Journal `recs` durably, in one WAL write and one flush, then apply
    /// them in order; returns the first record's sequence number.
    ///
    /// On `Ok` every record is fsynced into the WAL — a crash at any later
    /// point replays them. On `Err` the state is untouched and none of them
    /// is durable; callers must NACK whatever acknowledgement the batch
    /// was going to back.
    pub fn commit_all(&self, recs: &[T::Record]) -> Result<u64, StoreError> {
        self.commit_encoded(recs, &encode_all(recs)?)
    }

    /// [`DurableStore::commit_all`] for a caller that already holds
    /// `payloads`, the JSON text of `recs`: a replicated store ships that
    /// very text.
    pub(crate) fn commit_encoded(
        &self,
        recs: &[T::Record],
        payloads: &[String],
    ) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock().expect("store lock");
        self.append_locked(&mut inner, recs, payloads)
    }

    fn append_locked(
        &self,
        inner: &mut Inner<T>,
        recs: &[T::Record],
        payloads: &[String],
    ) -> Result<u64, StoreError> {
        let seq = inner.wal.append_all(payloads)?;
        for rec in recs {
            inner.state.apply(rec);
        }
        inner.since_compact += recs.len() as u64;
        self.maybe_compact(inner);
        Ok(seq)
    }

    /// Validate `rec` against the current state, then journal and apply
    /// it — all under one lock, so no other commit can interleave between
    /// the check and the append.
    ///
    /// Rejection leaves the log untouched; this is how callers keep
    /// `apply` infallible (the [`Durable`] contract) while still
    /// enforcing invariants like overdraft limits.
    pub fn commit_check<E>(
        &self,
        rec: &T::Record,
        check: impl FnOnce(&T) -> Result<(), E>,
    ) -> Result<u64, CommitError<E>> {
        let recs = std::slice::from_ref(rec);
        let payloads = encode_all(recs)?;
        let mut inner = self.inner.lock().expect("store lock");
        check(&inner.state).map_err(CommitError::Rejected)?;
        Ok(self.append_locked(&mut inner, recs, &payloads)?)
    }

    /// Run `f` against the current state under the store lock.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.inner.lock().expect("store lock").state)
    }

    /// Roll the generation forward: snapshot the state, start an empty
    /// WAL, delete the old generation.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store lock");
        self.compact_locked(&mut inner)
    }

    /// The generation currently live on disk.
    pub fn generation(&self) -> u64 {
        self.inner.lock().expect("store lock").generation
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Auto-compaction on the commit path: failures are swallowed (the
    /// committed record is already durable in the old generation) and the
    /// trigger stays armed so the next commit retries.
    fn maybe_compact(&self, inner: &mut Inner<T>) {
        if self.opts.compact_every > 0 && inner.since_compact >= self.opts.compact_every {
            let _ = self.compact_locked(inner);
        }
    }

    fn compact_locked(&self, inner: &mut Inner<T>) -> Result<(), StoreError> {
        let next = inner.generation + 1;
        write_snapshot(&self.dir, next, &inner.state.snapshot(), self.opts.no_fsync)?;
        let wal_opts = WalOptions {
            no_fsync: self.opts.no_fsync,
            fault: self.opts.fault.clone(),
        };
        let observer: Arc<dyn WalObserver> = Arc::clone(&self.metrics) as Arc<dyn WalObserver>;
        let wal = Wal::create(&wal_path(&self.dir, next), next, wal_opts, observer)?;
        let old = inner.generation;
        inner.wal = wal;
        inner.generation = next;
        inner.since_compact = 0;
        let _ = fs::remove_file(snap_path(&self.dir, old));
        let _ = fs::remove_file(wal_path(&self.dir, old));
        self.metrics.compactions.inc();
        Ok(())
    }
}

/// Scan the live WAL of the store directory `dir` without opening a
/// [`DurableStore`] — a read-only diagnostic used by tests and tools.
pub fn scan_dir(dir: &Path) -> Result<Option<WalScan>, StoreError> {
    let mut gens = list_generations(dir);
    gens.sort_unstable();
    let Some(g) = gens.pop() else {
        return Ok(None);
    };
    let path = wal_path(dir, g);
    if !path.exists() {
        return Ok(None);
    }
    read_wal(&path).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WriteFault;

    /// Minimal durable state machine: an append-only list of strings.
    /// `String`/`Vec<String>` already implement serde's traits, so the
    /// test needs no derives.
    #[derive(Default)]
    struct Log {
        entries: Vec<String>,
    }

    impl Durable for Log {
        type Record = String;
        type Snapshot = Vec<String>;
        fn apply(&mut self, rec: &String) {
            self.entries.push(rec.clone());
        }
        fn snapshot(&self) -> Vec<String> {
            self.entries.clone()
        }
        fn restore(snap: Vec<String>) -> Self {
            Log { entries: snap }
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("faucets-durable-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            compact_every: 0,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn commits_survive_reopen() {
        let dir = scratch("reopen");
        {
            let (store, report) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
            assert!(!report.snapshot_loaded);
            store.commit(&"a".to_string()).unwrap();
            store.commit(&"b".to_string()).unwrap();
            // No shutdown hook: dropping without compaction models a crash.
        }
        let (store, report) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_records, 2);
        assert_eq!(
            store.read(|s| s.entries.clone()),
            vec!["a".to_string(), "b".to_string()]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_rolls_generation_and_preserves_state() {
        let dir = scratch("compact");
        let (store, _) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
        for i in 0..5 {
            store.commit(&format!("e{i}")).unwrap();
        }
        store.compact().unwrap();
        assert_eq!(store.generation(), 2);
        store.commit(&"post".to_string()).unwrap();
        drop(store);
        let (store, report) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(
            report.replayed_records, 1,
            "only post-compaction records replay"
        );
        let entries = store.read(|s| s.entries.clone());
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[5], "post");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_compaction_triggers_on_threshold() {
        let dir = scratch("auto");
        let o = StoreOptions {
            compact_every: 4,
            ..StoreOptions::default()
        };
        let (store, _) = DurableStore::open(&dir, Log::default(), o).unwrap();
        for i in 0..9 {
            store.commit(&format!("e{i}")).unwrap();
        }
        assert!(store.generation() >= 3, "two compactions fired");
        assert_eq!(store.read(|s| s.entries.len()), 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_recovers_to_prefix() {
        let dir = scratch("torn");
        let (store, _) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
        for i in 0..4 {
            store.commit(&format!("e{i}")).unwrap();
        }
        drop(store);
        // Tear the live WAL: chop 3 bytes off the last record.
        let wal = wal_path(&dir, 1);
        let len = fs::metadata(&wal).unwrap().len();
        let f = File::options().write(true).open(&wal).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (store, report) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
        assert_eq!(report.replayed_records, 3);
        assert!(report.torn_bytes > 0);
        assert_eq!(
            store.read(|s| s.entries.clone()),
            vec!["e0".to_string(), "e1".to_string(), "e2".to_string()]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_commit_check_touches_nothing() {
        let dir = scratch("check");
        let (store, _) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
        store.commit(&"ok".to_string()).unwrap();
        let res = store.commit_check(&"nope".to_string(), |s| {
            if !s.entries.is_empty() {
                Err("full".to_string())
            } else {
                Ok(())
            }
        });
        assert!(matches!(res, Err(CommitError::Rejected(_))));
        assert_eq!(store.read(|s| s.entries.len()), 1);
        drop(store);
        let (store, report) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(store.read(|s| s.entries.len()), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fault_nacks_commit_and_state_stays_consistent() {
        let dir = scratch("fault");
        let fail_next = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&fail_next);
        let o = StoreOptions {
            compact_every: 0,
            fault: Some(Arc::new(move |_: &[u8]| {
                if flag.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    WriteFault::Torn { keep: 6 }
                } else {
                    WriteFault::Deliver
                }
            })),
            ..StoreOptions::default()
        };
        let (store, _) = DurableStore::open(&dir, Log::default(), o).unwrap();
        store.commit(&"good".to_string()).unwrap();
        fail_next.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(store.commit(&"doomed".to_string()).is_err());
        assert_eq!(
            store.read(|s| s.entries.clone()),
            vec!["good".to_string()],
            "failed commit never applied"
        );
        store.commit(&"after".to_string()).unwrap();
        drop(store);
        let (store, report) = DurableStore::open(&dir, Log::default(), opts()).unwrap();
        assert_eq!(report.replayed_records, 2);
        assert_eq!(
            store.read(|s| s.entries.clone()),
            vec!["good".to_string(), "after".to_string()]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
