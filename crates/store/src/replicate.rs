//! Primary/backup replication over the framed WAL: frame shipping, epoch
//! fencing, snapshot transfer, and deterministic promotion.
//!
//! The paper's Central Server and Faucet Daemons each keep their
//! authoritative journal on exactly one disk (experiment E21). This module
//! removes that single point of loss without importing a consensus
//! library: a **primary** [`ReplicatedStore`] wraps a [`DurableStore`] and
//! ships every committed WAL frame to one or more **followers**
//! ([`FollowerStore`]), which persist byte-identical `snap-<g>.json` /
//! `wal-<g>.log` files. Promotion is therefore trivial: open a
//! `DurableStore` (or a new `ReplicatedStore`) on the follower's
//! directory and recovery replays exactly what the primary had acked.
//!
//! # The acked-vs-unacked contract
//!
//! *Acked means replicated* — a commit returns `Ok` only after the record
//! is durable locally **and** every follower persisted it, so a client
//! acknowledgement survives the loss of the primary. There is no
//! ship-behind mode: a follower that is down makes every commit NACK
//! until it is back, and the records it missed stay in the primary's WAL
//! and ship with the next commit. Unacknowledged work (a commit that
//! returned [`StoreError::Unreplicated`], a request cut off
//! mid-negotiation) may exist on the primary, on both, or on neither —
//! exactly the at-least-once window the services already NACK and retry
//! around.
//!
//! # Epoch fencing
//!
//! Every frame carries the shipping primary's **epoch**, a monotonically
//! increasing term persisted in `<dir>/epoch`. Promotion bumps the epoch
//! (`max` observed `+ 1`); a follower that has adopted epoch `e` rejects
//! frames from any epoch `< e` with [`ReplReply::Fenced`]. A deposed
//! primary that keeps shipping learns its fate on the first reply, marks
//! itself fenced, and fails every later commit with
//! [`StoreError::Fenced`] — split-brain writes cannot be acknowledged.
//! A reply that *carries* an epoch above the primary's own — the position
//! in an `Ok`, a status probe's included — fences it the same way: a
//! probe ships nothing the follower could refuse.
//!
//! # One ship in flight per link
//!
//! A committer that ships to a follower holds that link's ship lock
//! from planning the ship to recording its reply, so replies are
//! recorded in the order they were asked for and a recorded position
//! never moves backwards. A committer that waited for the lock usually
//! finds its frame covered by the ship it waited behind and sends
//! nothing; one that waited behind a ship which already had its frame in
//! view and failed takes that failure instead of trying again, so a dead
//! follower costs its queued committers one timeout, not one each.
//!
//! # Promotion
//!
//! [`pick_primary`] orders candidates by `(epoch, generation, acked)` —
//! the highest wins, ties break to the lowest index — so every surviving
//! node that sees the same candidate set elects the same new primary.
//!
//! # Out-of-band fencing
//!
//! Automatic failover (the `faucets-net` sentinel) judges a primary's
//! liveness by its answered probes and persists nothing here.
//! [`ReplicatedStore::fence`] is the out-of-band half of deposition: a
//! sentinel that has promoted a replica tells the old primary its new
//! epoch directly, so it stops acknowledging before it ever ships another
//! frame. The replica set itself is fixed at [`ReplicatedStore::open`].

use crate::durable::{
    encode_all, list_generations, snap_path, sweep, wal_path, write_atomic, Durable, DurableStore,
    RecoveryReport, StoreOptions,
};
use crate::wal::{read_wal, NoopObserver, StoreError, Wal, WalOptions};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// When a replicated commit may acknowledge the client. It has one
/// answer; the type stays because the benchmark harness spells it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationMode {
    /// Commit returns only after every follower acks. Acked entries
    /// survive primary loss.
    Sync,
}

/// One committed WAL record in flight to a follower, tagged with the
/// coordinates fencing and ordering need.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplFrame {
    /// Epoch of the shipping primary (fencing token).
    pub epoch: u64,
    /// Generation the record belongs to.
    pub generation: u64,
    /// Sequence number within the generation (the WAL append seq).
    pub seq: u64,
    /// The record's serde_json text, byte-identical to the primary's WAL
    /// payload. Text, not bytes: on the wire it travels as one JSON
    /// string, not as an array of byte values.
    pub payload: String,
}

/// A full basis transfer: the primary's current snapshot file plus every
/// WAL record after it — enough for a follower at any position (fresh, or
/// behind a compaction) to mirror the primary exactly.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotBlob {
    /// Epoch of the shipping primary.
    pub epoch: u64,
    /// Generation being transferred.
    pub generation: u64,
    /// Exact text of the primary's `snap-<generation>.json`.
    pub snapshot: String,
    /// Payloads of every WAL record in this generation, in order.
    pub records: Vec<String>,
}

/// A node's replication position — the coordinates promotion compares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplPosition {
    /// Highest epoch the node has adopted.
    pub epoch: u64,
    /// Generation of its on-disk state.
    pub generation: u64,
    /// Records durable in that generation's WAL.
    pub acked: u64,
}

/// A follower's answer to an append, install, or status probe.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplReply {
    /// Everything offered is durable; this is the follower's position.
    Ok(ReplPosition),
    /// The sender's epoch is stale — it has been deposed.
    Fenced {
        /// The higher epoch the follower has adopted.
        epoch: u64,
    },
    /// The follower cannot apply from where it is (fresh, or behind a
    /// compaction); the primary must send a [`SnapshotBlob`].
    NeedSnapshot(ReplPosition),
}

/// Transport a primary ships frames through. The in-process
/// [`LocalLink`] serves tests and benchmarks; `faucets-net` implements it
/// over the wire protocol.
///
/// `offer` may persist any prefix of the batch (e.g. to respect a frame
/// size cap) — the returned position tells the primary where to resume.
pub trait ReplicaLink: Send + Sync {
    /// Ship a batch of consecutive frames; the follower persists then acks.
    /// The batch is the caller's copy out of the catch-up buffer, handed
    /// over so the wire link can build its request out of the frames.
    fn offer(&self, frames: Vec<ReplFrame>) -> Result<ReplReply, StoreError>;
    /// Ship a full basis (snapshot + records) to rebase the follower.
    fn install(&self, blob: &SnapshotBlob) -> Result<ReplReply, StoreError>;
    /// Ask the follower where it is without shipping anything.
    fn status(&self) -> Result<ReplReply, StoreError>;
}

/// [`ReplicaLink`] to a follower living in the same process.
pub struct LocalLink(pub Arc<FollowerStore>);

impl ReplicaLink for LocalLink {
    fn offer(&self, frames: Vec<ReplFrame>) -> Result<ReplReply, StoreError> {
        self.0.offer(&frames)
    }
    fn install(&self, blob: &SnapshotBlob) -> Result<ReplReply, StoreError> {
        self.0.install(blob)
    }
    fn status(&self) -> Result<ReplReply, StoreError> {
        Ok(ReplReply::Ok(self.0.position()))
    }
}

fn epoch_path(dir: &Path) -> PathBuf {
    dir.join("epoch")
}

/// Read the fencing epoch persisted in `dir` (0 when none was written).
pub fn read_epoch(dir: &Path) -> u64 {
    fs::read_to_string(epoch_path(dir))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Persist the fencing epoch crash-safely. Always fsynced, whatever the
/// store's `no_fsync`: a lost epoch would let a deposed primary ack again.
pub fn write_epoch(dir: &Path, epoch: u64) -> Result<(), StoreError> {
    fs::create_dir_all(dir)?;
    write_atomic(&epoch_path(dir), epoch.to_string().as_bytes(), false)
}

/// Stamp a follower directory with its new term before opening it as
/// primary: persists `new_epoch` (if higher) and counts the failover.
pub fn prepare_promotion(dir: &Path, service: &str, new_epoch: u64) -> Result<(), StoreError> {
    if new_epoch > read_epoch(dir) {
        write_epoch(dir, new_epoch)?;
    }
    faucets_telemetry::global()
        .counter("repl_failovers_total", &[("service", service)])
        .inc();
    Ok(())
}

/// Deterministic leader election over advertised positions: highest
/// `(epoch, generation, acked)` wins, ties break to the lowest index.
pub fn pick_primary(positions: &[ReplPosition]) -> Option<usize> {
    positions
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| {
            (a.epoch, a.generation, a.acked)
                .cmp(&(b.epoch, b.generation, b.acked))
                .then(ib.cmp(ia))
        })
        .map(|(i, _)| i)
}

/// Telemetry handles shared by one replication role.
struct ReplMetrics {
    epoch: faucets_telemetry::Gauge,
    lag: faucets_telemetry::Gauge,
    shipped: faucets_telemetry::Counter,
    snapshot_transfers: faucets_telemetry::Counter,
    ship_errors: faucets_telemetry::Counter,
    fenced: faucets_telemetry::Counter,
    /// Wall time of a commit's ship stage (all links, one round).
    ship: faucets_telemetry::Histogram,
}

impl ReplMetrics {
    fn new(service: &str, role: &str) -> ReplMetrics {
        let reg = faucets_telemetry::global();
        let labels: &[(&str, &str)] = &[("service", service), ("role", role)];
        ReplMetrics {
            epoch: reg.gauge("repl_epoch", labels),
            lag: reg.gauge("repl_lag", labels),
            shipped: reg.counter("repl_shipped_frames_total", labels),
            snapshot_transfers: reg.counter("repl_snapshot_transfers_total", labels),
            ship_errors: reg.counter("repl_ship_errors_total", labels),
            fenced: reg.counter("repl_fenced_total", labels),
            ship: reg.histogram("repl_ship_seconds", labels),
        }
    }
}

// ---------------------------------------------------------------------------
// Follower
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`FollowerStore`].
#[derive(Clone, Debug)]
pub struct FollowerOptions {
    /// Telemetry label: which service's journal this follower mirrors.
    pub service: String,
    /// Skip fsync (tests and benchmarks only — a follower that does not
    /// fsync cannot honor the acked-means-replicated contract).
    pub no_fsync: bool,
}

impl Default for FollowerOptions {
    fn default() -> Self {
        FollowerOptions {
            service: "store".into(),
            no_fsync: false,
        }
    }
}

/// Untyped mirror state: the follower never deserializes records, it
/// persists the primary's bytes verbatim. `wal` is `None` until the first
/// snapshot install gives the follower a basis.
struct FollowerInner {
    epoch: u64,
    generation: u64,
    wal: Option<Wal>,
}

/// The backup side of replication: persists shipped frames and snapshots
/// into files byte-identical to the primary's, so promotion is just
/// opening a [`DurableStore`] on this directory.
pub struct FollowerStore {
    dir: PathBuf,
    opts: FollowerOptions,
    metrics: ReplMetrics,
    inner: Mutex<FollowerInner>,
}

impl fmt::Debug for FollowerStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FollowerStore")
            .field("dir", &self.dir)
            .field("service", &self.opts.service)
            .finish()
    }
}

impl FollowerStore {
    /// Open (or create) a follower in `dir`, recovering any mirrored
    /// state: the highest generation present, its WAL's longest valid
    /// prefix, and the persisted epoch.
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: FollowerOptions,
    ) -> Result<FollowerStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let epoch = read_epoch(&dir);
        let metrics = ReplMetrics::new(&opts.service, "follower");
        metrics.epoch.set(epoch as f64);

        let mut gens = list_generations(&dir);
        gens.sort_unstable();
        let (generation, wal) = match gens.pop() {
            Some(g) => {
                let wal_opts = WalOptions {
                    no_fsync: opts.no_fsync,
                    ..WalOptions::default()
                };
                let (wal, _scan) =
                    Wal::recover(&wal_path(&dir, g), g, wal_opts, Arc::new(NoopObserver))?;
                sweep(&dir, g);
                (g, Some(wal))
            }
            None => (0, None),
        };
        Ok(FollowerStore {
            dir,
            opts,
            metrics,
            inner: Mutex::new(FollowerInner {
                epoch,
                generation,
                wal,
            }),
        })
    }

    /// The directory this follower mirrors into — hand it to
    /// [`DurableStore::open`] (after [`prepare_promotion`]) to promote.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current `(epoch, generation, acked)` position.
    pub fn position(&self) -> ReplPosition {
        let inner = self.inner.lock().expect("follower lock");
        ReplPosition {
            epoch: inner.epoch,
            generation: inner.generation,
            acked: inner.wal.as_ref().map_or(0, |w| w.record_count()),
        }
    }

    fn adopt_epoch(
        &self,
        inner: &mut FollowerInner,
        epoch: u64,
    ) -> Result<Option<ReplReply>, StoreError> {
        if epoch < inner.epoch {
            self.metrics.fenced.inc();
            return Ok(Some(ReplReply::Fenced { epoch: inner.epoch }));
        }
        if epoch > inner.epoch {
            write_epoch(&self.dir, epoch)?;
            inner.epoch = epoch;
            self.metrics.epoch.set(epoch as f64);
        }
        Ok(None)
    }

    fn position_locked(inner: &FollowerInner) -> ReplPosition {
        ReplPosition {
            epoch: inner.epoch,
            generation: inner.generation,
            acked: inner.wal.as_ref().map_or(0, |w| w.record_count()),
        }
    }

    /// Persist a batch of consecutive frames, in one write. Duplicates (seq
    /// already durable) ack idempotently; a gap or generation mismatch asks
    /// for a snapshot; a stale epoch is fenced. Either refusal still
    /// persists the frames ahead of the one refused.
    pub fn offer(&self, frames: &[ReplFrame]) -> Result<ReplReply, StoreError> {
        let mut inner = self.inner.lock().expect("follower lock");
        let mut fresh: Vec<&str> = Vec::new();
        let (mut fenced, mut gap) = (None, false);
        for frame in frames {
            fenced = self.adopt_epoch(&mut inner, frame.epoch)?;
            let next = inner.wal.as_ref().map_or(0, |w| w.record_count()) + fresh.len() as u64;
            gap = inner.wal.is_none() || frame.generation != inner.generation || frame.seq > next;
            if fenced.is_some() || gap {
                break;
            }
            // A seq below `next` is already durable — idempotent re-offer.
            if frame.seq == next {
                fresh.push(&frame.payload);
            }
        }
        if let Some(wal) = &inner.wal {
            wal.append_all(&fresh)?;
        }
        let pos = Self::position_locked(&inner);
        Ok(fenced.unwrap_or(if gap {
            ReplReply::NeedSnapshot(pos)
        } else {
            ReplReply::Ok(pos)
        }))
    }

    /// Rebase onto a full snapshot transfer: write the snapshot bytes
    /// crash-safely, recreate the WAL with the shipped records, sweep
    /// older generations.
    pub fn install(&self, blob: &SnapshotBlob) -> Result<ReplReply, StoreError> {
        let mut inner = self.inner.lock().expect("follower lock");
        if let Some(reply) = self.adopt_epoch(&mut inner, blob.epoch)? {
            return Ok(reply);
        }
        write_atomic(
            &snap_path(&self.dir, blob.generation),
            blob.snapshot.as_bytes(),
            self.opts.no_fsync,
        )?;
        let wal_opts = WalOptions {
            no_fsync: self.opts.no_fsync,
            ..WalOptions::default()
        };
        let wal = Wal::create(
            &wal_path(&self.dir, blob.generation),
            blob.generation,
            wal_opts,
            Arc::new(NoopObserver),
        )?;
        wal.append_all(&blob.records)?;
        inner.generation = blob.generation;
        inner.wal = Some(wal);
        sweep(&self.dir, blob.generation);
        self.metrics.snapshot_transfers.inc();
        Ok(ReplReply::Ok(Self::position_locked(&inner)))
    }
}

// ---------------------------------------------------------------------------
// Primary
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`ReplicatedStore`].
#[derive(Default)]
pub struct ReplOptions {
    /// Options for the wrapped [`DurableStore`]. `compact_every` is taken
    /// over by the replication layer (the inner store never
    /// auto-compacts on its own).
    pub store: StoreOptions,
    /// Followers to ship to; a commit waits for every one.
    pub links: Vec<Arc<dyn ReplicaLink>>,
}

impl fmt::Debug for ReplOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplOptions")
            .field("store", &self.store)
            .field("links", &self.links.len())
            .finish()
    }
}

/// One follower's ship lock. A ship — plan, network I/O, record the reply
/// — runs with `failed` held, so a link has at most one in flight: replies
/// are recorded in the order they were asked for, and a committer that
/// queued here plans only after the ship ahead of it was recorded, which
/// usually covers its frame already.
#[derive(Default)]
struct ShipGate {
    /// Ships begun on this link; a committer reads it *before* queueing on
    /// the lock, so it can tell which ships began after its frames were
    /// in the buffer (and therefore planned with them in view).
    begun: AtomicU64,
    /// The ship lock. Guards the number (1-based, in `begun`'s count) of
    /// the latest ship that ended in an error, 0 while none has.
    failed: Mutex<u64>,
}

/// One follower, fixed at [`ReplicatedStore::open`]: the transport and its
/// ship lock. What the follower last reported is [`LinkPos`], at the same
/// index in [`ReplState::links`].
struct Link {
    link: Arc<dyn ReplicaLink>,
    gate: ShipGate,
}

/// What the primary knows of one follower's position.
#[derive(Default)]
struct LinkPos {
    /// Last position the follower reported, `None` before the first probe.
    pos: Option<ReplPosition>,
    /// The follower asked for a snapshot (or an offer revealed a gap).
    need_snapshot: bool,
}

/// Replication state guarded by one lock: the frame buffer for the
/// current generation plus per-link positions.
struct ReplState {
    generation: u64,
    /// Every frame of the current generation, indexed by seq — doubles as
    /// the catch-up buffer and the compaction counter.
    frames: Vec<ReplFrame>,
    /// One entry per follower, in the order of [`ReplicatedStore::links`].
    links: Vec<LinkPos>,
}

/// What one shipping step decided to do, planned under the state lock and
/// executed (network I/O) outside it.
enum Plan {
    CaughtUp,
    Probe,
    Offer(Vec<ReplFrame>),
    Install(SnapshotBlob),
}

/// The primary side of replication: a [`DurableStore`] whose committed
/// frames are shipped to followers, with epoch fencing and snapshot
/// catch-up. See the module docs for the acked-vs-unacked contract.
pub struct ReplicatedStore<T: Durable> {
    inner: DurableStore<T>,
    compact_every: u64,
    epoch: u64,
    fenced_flag: AtomicBool,
    observed_epoch: AtomicU64,
    links: Vec<Link>,
    repl: Mutex<ReplState>,
    metrics: ReplMetrics,
}

impl<T: Durable> fmt::Debug for ReplicatedStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatedStore")
            .field("dir", &self.inner.dir())
            .field("epoch", &self.epoch)
            .field("links", &self.links.len())
            .finish()
    }
}

/// Does `pos` cover a record committed at (`generation`, up to `count`
/// records)? A later generation always covers — its snapshot basis
/// includes every earlier record.
fn covers(pos: &ReplPosition, generation: u64, count: u64) -> bool {
    pos.generation > generation || (pos.generation == generation && pos.acked >= count)
}

impl<T: Durable> ReplicatedStore<T> {
    /// Open the primary store in `dir`, recovering prior state and
    /// claiming the epoch persisted there (1 on a fresh directory; a
    /// promotion raises it first with [`prepare_promotion`]). Nothing
    /// ships before the first commit.
    pub fn open(
        dir: impl Into<PathBuf>,
        initial: T,
        opts: ReplOptions,
    ) -> Result<(Arc<Self>, RecoveryReport), StoreError> {
        let dir = dir.into();
        let compact_every = opts.store.compact_every;
        let store_opts = StoreOptions {
            compact_every: 0, // replication layer drives compaction
            ..opts.store
        };
        let service = store_opts.service.clone();
        let (inner, report) = DurableStore::open(&dir, initial, store_opts)?;

        let epoch = read_epoch(&dir).max(1);
        write_epoch(&dir, epoch)?;
        let metrics = ReplMetrics::new(&service, "primary");
        metrics.epoch.set(epoch as f64);

        // Seed the catch-up buffer with whatever the live WAL already
        // holds, so a restarted primary can still serve followers that
        // are mid-generation.
        let generation = inner.generation();
        let scan = read_wal(&wal_path(&dir, generation))?;
        let frames = (0..)
            .zip(scan.records)
            .map(|(seq, payload)| {
                let payload = String::from_utf8(payload)
                    .map_err(|e| StoreError::Corrupt(format!("record {seq} is not text: {e}")))?;
                Ok(ReplFrame {
                    epoch,
                    generation,
                    seq,
                    payload,
                })
            })
            .collect::<Result<Vec<_>, StoreError>>()?;

        let links: Vec<Link> = opts
            .links
            .into_iter()
            .map(|link| Link {
                link,
                gate: ShipGate::default(),
            })
            .collect();
        let state = ReplState {
            generation,
            frames,
            links: links.iter().map(|_| LinkPos::default()).collect(),
        };

        let store = Arc::new(ReplicatedStore {
            inner,
            compact_every,
            epoch,
            fenced_flag: AtomicBool::new(false),
            observed_epoch: AtomicU64::new(epoch),
            links,
            repl: Mutex::new(state),
            metrics,
        });
        Ok((store, report))
    }

    /// Journal `rec` durably, apply it, and replicate it: the one-record
    /// case of [`ReplicatedStore::commit_all`].
    pub fn commit(&self, rec: &T::Record) -> Result<u64, StoreError> {
        self.commit_all(std::slice::from_ref(rec))
    }

    /// Journal `recs` durably in one WAL write, apply them, and replicate
    /// them in one ship round; returns the first record's sequence number.
    ///
    /// `Ok` means local-durable **and** acked by every follower;
    /// [`StoreError::Unreplicated`] means the batch is durable locally but
    /// under-replicated — NACK the client (at-least-once window, like a
    /// torn award) — and ships with the next commit. Once fenced, every
    /// commit fails with [`StoreError::Fenced`].
    pub fn commit_all(&self, recs: &[T::Record]) -> Result<u64, StoreError> {
        if self.fenced_flag.load(Ordering::Acquire) {
            return Err(self.fenced_error());
        }
        let payloads = encode_all(recs)?;
        let (target_gen, first) = {
            let mut st = self.repl.lock().expect("repl lock");
            let first = self.inner.commit_encoded(recs, &payloads)?;
            let (epoch, generation) = (self.epoch, st.generation);
            st.frames
                .extend((first..).zip(payloads).map(|(seq, payload)| ReplFrame {
                    epoch,
                    generation,
                    seq,
                    payload,
                }));
            if self.compact_every > 0 && st.frames.len() as u64 >= self.compact_every {
                // Failures are swallowed like DurableStore::maybe_compact:
                // the record is already durable in the old generation.
                if self.inner.compact().is_ok() {
                    st.generation = self.inner.generation();
                    st.frames.clear();
                }
            }
            self.update_lag(&st);
            (generation, first)
        };
        let t0 = Instant::now();
        self.ship_round();
        self.metrics.ship.record(t0.elapsed().as_secs_f64());
        if self.fenced_flag.load(Ordering::Acquire) {
            return Err(self.fenced_error());
        }
        let st = self.repl.lock().expect("repl lock");
        let target_count = first + recs.len() as u64;
        if let Some((want, got)) = self.shortfall(&st, target_gen, target_count) {
            return Err(StoreError::Unreplicated { want, got });
        }
        Ok(first)
    }

    /// Run `f` against the current state under the store lock.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.inner.read(f)
    }

    /// This primary's fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Has a follower reported a higher epoch (this node was deposed)?
    pub fn is_fenced(&self) -> bool {
        self.fenced_flag.load(Ordering::Acquire)
    }

    /// Fence this primary on out-of-band evidence of a higher epoch — the
    /// other half of deposition: a sentinel that has promoted a replica
    /// tells the deposed primary its new epoch directly, so it stops
    /// acknowledging even before its next shipping round would discover
    /// the fencing reply. Idempotent; epochs at or below our own are
    /// ignored. Returns whether the call newly fenced the store.
    pub fn fence(&self, observed_epoch: u64) -> bool {
        if observed_epoch <= self.epoch {
            return false;
        }
        self.observed_epoch
            .fetch_max(observed_epoch, Ordering::AcqRel);
        let newly = !self.fenced_flag.swap(true, Ordering::AcqRel);
        if newly {
            self.metrics.fenced.inc();
        }
        newly
    }

    /// Ack check at (`generation`, `count`): every link must cover it.
    /// Returns the `(want, got)` shortfall, or `None` when satisfied.
    fn shortfall(&self, st: &ReplState, generation: u64, count: u64) -> Option<(usize, usize)> {
        let got = st
            .links
            .iter()
            .filter(|l| l.pos.as_ref().is_some_and(|p| covers(p, generation, count)))
            .count();
        let want = st.links.len();
        (got < want).then_some((want, got))
    }

    /// The primary's own `(epoch, generation, committed)` position.
    pub fn position(&self) -> ReplPosition {
        let st = self.repl.lock().expect("repl lock");
        ReplPosition {
            epoch: self.epoch,
            generation: st.generation,
            acked: st.frames.len() as u64,
        }
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        self.inner.dir()
    }

    /// Nothing runs in the background, so there is nothing to stop: a
    /// shim kept because the benchmark harness calls it.
    pub fn shutdown(&self) {}

    fn fenced_error(&self) -> StoreError {
        StoreError::Fenced {
            held: self.epoch,
            observed: self.observed_epoch.load(Ordering::Acquire),
        }
    }

    /// Records not yet covered by the slowest follower, within the
    /// current generation (a follower behind a generation counts as
    /// lagging the whole buffer).
    fn update_lag(&self, st: &ReplState) {
        let count = st.frames.len() as u64;
        let lag = st
            .links
            .iter()
            .map(|l| match &l.pos {
                Some(p) if p.generation == st.generation => count.saturating_sub(p.acked),
                Some(p) if p.generation > st.generation => 0,
                _ => count,
            })
            .max()
            .unwrap_or(0);
        self.metrics.lag.set(lag as f64);
    }

    /// Advance every link as far as it will go; errors are counted and
    /// left for the next commit's round. Every commit ships through here,
    /// one link lock at a time.
    fn ship_round(&self) {
        // Read every gate's count before queueing on any of them: whatever
        // this round was called to ship is in the buffer by now, so a ship
        // numbered above what we read here planned with it in view.
        let seen: Vec<u64> = self
            .links
            .iter()
            .map(|l| l.gate.begun.load(Ordering::SeqCst))
            .collect();
        for (i, seen) in seen.into_iter().enumerate() {
            if let Err(StoreError::Fenced { .. }) = self.advance_link(i, seen) {
                return;
            }
        }
    }

    /// Drive follower `i` to the current position, holding its ship lock
    /// from the first plan to the last recorded reply. A committer that
    /// queued behind a ship which began after `seen` and failed takes that
    /// failure as its own and sends nothing: k committers stuck behind a
    /// dead follower cost one connect timeout, not k in series.
    fn advance_link(&self, i: usize, seen: u64) -> Result<(), StoreError> {
        let gate = &self.links[i].gate;
        let mut failed = gate.failed.lock().expect("ship lock");
        if *failed > seen {
            return Ok(());
        }
        let ship = gate.begun.fetch_add(1, Ordering::SeqCst) + 1;
        let res = self.ship(i);
        if matches!(&res, Err(e) if !matches!(e, StoreError::Fenced { .. })) {
            *failed = ship;
            self.metrics.ship_errors.inc();
        }
        res
    }

    /// One ship to follower `i`, under its ship lock: probe the follower if
    /// its position is unknown, install a snapshot if it is behind a
    /// compaction, otherwise offer the frames it is missing — until it is
    /// caught up. Plans and records under the state lock, talks to the
    /// network outside it.
    fn ship(&self, i: usize) -> Result<(), StoreError> {
        let link = &self.links[i].link;
        loop {
            let plan = {
                let st = self.repl.lock().expect("repl lock");
                let known = &st.links[i];
                match &known.pos {
                    None => Plan::Probe,
                    Some(_) if known.need_snapshot => Plan::Install(self.snapshot_blob(&st)?),
                    Some(p) if p.generation == st.generation => {
                        if p.acked >= st.frames.len() as u64 {
                            Plan::CaughtUp
                        } else {
                            Plan::Offer(st.frames[p.acked as usize..].to_vec())
                        }
                    }
                    Some(p) if p.generation > st.generation => Plan::CaughtUp,
                    Some(_) => Plan::Install(self.snapshot_blob(&st)?),
                }
            };
            let (reply, shipped, installed) = match plan {
                Plan::CaughtUp => return Ok(()),
                Plan::Probe => (link.status()?, 0, false),
                Plan::Offer(frames) => {
                    let n = frames.len() as u64;
                    (link.offer(frames)?, n, false)
                }
                Plan::Install(blob) => (link.install(&blob)?, 0, true),
            };
            // A follower that has adopted an epoch above ours answers to a
            // newer primary, whatever it says about its position: an `Ok`
            // from it (a status probe carries no epoch to refuse) must not
            // count as an ack of this reign's records.
            let reply = match reply {
                ReplReply::Ok(pos) | ReplReply::NeedSnapshot(pos) if pos.epoch > self.epoch => {
                    ReplReply::Fenced { epoch: pos.epoch }
                }
                reply => reply,
            };
            let mut st = self.repl.lock().expect("repl lock");
            let slot = &mut st.links[i];
            match reply {
                ReplReply::Ok(pos) => {
                    if installed {
                        self.metrics.snapshot_transfers.inc();
                    }
                    if shipped > 0 {
                        self.metrics.shipped.add(shipped);
                    }
                    slot.pos = Some(pos);
                    slot.need_snapshot = false;
                }
                ReplReply::NeedSnapshot(pos) => {
                    slot.pos = Some(pos);
                    slot.need_snapshot = true;
                }
                ReplReply::Fenced { epoch } => {
                    self.observed_epoch.store(epoch, Ordering::Release);
                    self.fenced_flag.store(true, Ordering::Release);
                    self.metrics.fenced.inc();
                    self.update_lag(&st);
                    return Err(self.fenced_error());
                }
            }
            self.update_lag(&st);
        }
    }

    /// The current generation's basis snapshot (exact on-disk bytes) plus
    /// the buffered frames — everything a follower needs to mirror us.
    fn snapshot_blob(&self, st: &ReplState) -> Result<SnapshotBlob, StoreError> {
        let snapshot = fs::read_to_string(snap_path(self.inner.dir(), st.generation))?;
        Ok(SnapshotBlob {
            epoch: self.epoch,
            generation: st.generation,
            snapshot,
            records: st.frames.iter().map(|f| f.payload.clone()).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// The same minimal durable state machine the durable tests use.
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
        let dir = std::env::temp_dir().join(format!("faucets-repl-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn follower(dir: &Path) -> Arc<FollowerStore> {
        Arc::new(
            FollowerStore::open(
                dir,
                FollowerOptions {
                    no_fsync: true,
                    ..FollowerOptions::default()
                },
            )
            .unwrap(),
        )
    }

    fn repl_opts(links: Vec<Arc<dyn ReplicaLink>>) -> ReplOptions {
        ReplOptions {
            store: StoreOptions {
                compact_every: 0,
                no_fsync: true,
                ..StoreOptions::default()
            },
            links,
        }
    }

    #[test]
    fn sync_commit_replicates_and_promotion_recovers_everything() {
        let pdir = scratch("sync-p");
        let fdir = scratch("sync-f");
        let f = follower(&fdir);
        let (store, _) = ReplicatedStore::open(
            &pdir,
            Log::default(),
            repl_opts(vec![Arc::new(LocalLink(Arc::clone(&f)))]),
        )
        .unwrap();
        for i in 0..10 {
            store.commit(&format!("e{i}")).unwrap();
        }
        let pos = f.position();
        assert_eq!(pos.acked, 10);
        assert_eq!(pos.epoch, 1);

        // Promote: stamp the follower dir with the next epoch and open it
        // as a typed store — byte-identical files replay the same state.
        drop(f);
        prepare_promotion(&fdir, "store", 2).unwrap();
        assert_eq!(read_epoch(&fdir), 2);
        let (promoted, report) = DurableStore::open(
            &fdir,
            Log::default(),
            StoreOptions {
                compact_every: 0,
                no_fsync: true,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.replayed_records, 10);
        assert_eq!(
            promoted.read(|s| s.entries.clone()),
            store.read(|s| s.entries.clone())
        );
        let _ = fs::remove_dir_all(&pdir);
        let _ = fs::remove_dir_all(&fdir);
    }

    #[test]
    fn fresh_follower_bootstraps_via_snapshot_transfer() {
        let pdir = scratch("boot-p");
        // Pre-existing primary data before the follower ever connects.
        {
            let (plain, _) = DurableStore::open(
                &pdir,
                Log::default(),
                StoreOptions {
                    compact_every: 0,
                    no_fsync: true,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            for i in 0..5 {
                plain.commit(&format!("old{i}")).unwrap();
            }
        }
        let fdir = scratch("boot-f");
        let f = follower(&fdir);
        let (store, _) = ReplicatedStore::open(
            &pdir,
            Log::default(),
            repl_opts(vec![Arc::new(LocalLink(Arc::clone(&f)))]),
        )
        .unwrap();
        store.commit(&"new".to_string()).unwrap();
        assert_eq!(f.position().acked, 6, "snapshot + backlog + new record");
        let _ = fs::remove_dir_all(&pdir);
        let _ = fs::remove_dir_all(&fdir);
    }

    #[test]
    fn compaction_rebases_followers_and_preserves_state() {
        let pdir = scratch("compact-p");
        let fdir = scratch("compact-f");
        let f = follower(&fdir);
        let mut opts = repl_opts(vec![Arc::new(LocalLink(Arc::clone(&f)))]);
        opts.store.compact_every = 4;
        let (store, _) = ReplicatedStore::open(&pdir, Log::default(), opts).unwrap();
        for i in 0..11 {
            store.commit(&format!("e{i}")).unwrap();
        }
        let pos = f.position();
        assert!(pos.generation >= 3, "follower crossed compactions");
        drop(f);
        prepare_promotion(&fdir, "store", 2).unwrap();
        let (promoted, _) = DurableStore::open(
            &fdir,
            Log::default(),
            StoreOptions {
                compact_every: 0,
                no_fsync: true,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(promoted.read(|s| s.entries.len()), 11);
        let _ = fs::remove_dir_all(&pdir);
        let _ = fs::remove_dir_all(&fdir);
    }

    #[test]
    fn duplicate_offers_ack_idempotently() {
        let fdir = scratch("dup-f");
        let f = follower(&fdir);
        let blob = SnapshotBlob {
            epoch: 1,
            generation: 1,
            snapshot: "[]".into(),
            records: vec![],
        };
        f.install(&blob).unwrap();
        let frame = |seq: u64| ReplFrame {
            epoch: 1,
            generation: 1,
            seq,
            payload: format!("\"r{seq}\""),
        };
        let batch = vec![frame(0), frame(1)];
        assert!(matches!(f.offer(&batch).unwrap(), ReplReply::Ok(p) if p.acked == 2));
        // Replaying the same batch must not duplicate records.
        assert!(matches!(f.offer(&batch).unwrap(), ReplReply::Ok(p) if p.acked == 2));
        // A gap asks for a snapshot instead of corrupting the mirror.
        assert!(matches!(
            f.offer(&[frame(5)]).unwrap(),
            ReplReply::NeedSnapshot(_)
        ));
        let _ = fs::remove_dir_all(&fdir);
    }

    #[test]
    fn stale_epoch_is_fenced_and_primary_stops_committing() {
        let pdir = scratch("fence-p");
        let fdir = scratch("fence-f");
        let f = follower(&fdir);
        let (store, _) = ReplicatedStore::open(
            &pdir,
            Log::default(),
            repl_opts(vec![Arc::new(LocalLink(Arc::clone(&f)))]),
        )
        .unwrap();
        store.commit(&"before".to_string()).unwrap();

        // A newer primary (epoch 2) reaches the follower.
        f.offer(&[ReplFrame {
            epoch: 2,
            generation: 1,
            seq: 1,
            payload: "\"usurper\"".into(),
        }])
        .unwrap();
        assert_eq!(f.position().epoch, 2);

        // The deposed primary's next commit is fenced and fails; local
        // state did apply (it is durable locally) but nothing later can
        // be acknowledged.
        let err = store.commit(&"late".to_string()).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Fenced {
                held: 1,
                observed: 2
            }
        ));
        assert!(store.is_fenced());
        let err = store.commit(&"later".to_string()).unwrap_err();
        assert!(matches!(err, StoreError::Fenced { .. }));
        let _ = fs::remove_dir_all(&pdir);
        let _ = fs::remove_dir_all(&fdir);
    }

    #[test]
    fn reply_from_a_newer_epoch_fences_even_a_status_probe() {
        let pdir = scratch("zombie-p");
        let fdir = scratch("zombie-f");
        let f = follower(&fdir);
        let open = || {
            ReplicatedStore::open(
                &pdir,
                Log::default(),
                repl_opts(vec![Arc::new(LocalLink(Arc::clone(&f)))]),
            )
            .unwrap()
            .0
        };
        let store = open();
        for i in 0..3 {
            store.commit(&format!("old-{i}")).unwrap();
        }
        drop(store);

        // Reign 2 writes one record to the follower while the old primary
        // is away.
        f.offer(&[ReplFrame {
            epoch: 2,
            generation: 1,
            seq: 3,
            payload: "\"new-reign\"".into(),
        }])
        .unwrap();

        // The zombie returns. Its first contact is a status probe, which
        // the follower answers `Ok` — at a position that happens to cover
        // the zombie's next record (4 records each). The reply's epoch is
        // the only evidence of deposition, and it must be enough.
        let zombie = open();
        let err = zombie.commit(&"zombie".to_string()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Fenced {
                    held: 1,
                    observed: 2
                }
            ),
            "expected Fenced, got {err}"
        );
        assert!(zombie.is_fenced());
        assert_eq!(f.position().acked, 4, "the follower took nothing from it");
        let _ = fs::remove_dir_all(&pdir);
        let _ = fs::remove_dir_all(&fdir);
    }

    /// A link whose transport always fails.
    struct DeadLink;
    impl ReplicaLink for DeadLink {
        fn offer(&self, _: Vec<ReplFrame>) -> Result<ReplReply, StoreError> {
            Err(StoreError::Io(std::io::Error::other("down")))
        }
        fn install(&self, _: &SnapshotBlob) -> Result<ReplReply, StoreError> {
            Err(StoreError::Io(std::io::Error::other("down")))
        }
        fn status(&self) -> Result<ReplReply, StoreError> {
            Err(StoreError::Io(std::io::Error::other("down")))
        }
    }

    #[test]
    fn sync_commit_nacks_when_replicas_unreachable() {
        let pdir = scratch("dead-p");
        let (store, _) =
            ReplicatedStore::open(&pdir, Log::default(), repl_opts(vec![Arc::new(DeadLink)]))
                .unwrap();
        let err = store.commit(&"doomed".to_string()).unwrap_err();
        assert!(matches!(err, StoreError::Unreplicated { want: 1, got: 0 }));
        // The at-least-once window: the record IS durable locally even
        // though the client was NACKed — exactly like a torn award.
        assert_eq!(store.read(|s| s.entries.len()), 1);
        let _ = fs::remove_dir_all(&pdir);
    }

    /// A link to an in-process follower whose replies arrive late, by a
    /// seeded jitter, and which watches how many ships it has in flight.
    struct JitterLink {
        inner: Arc<FollowerStore>,
        rng: Mutex<u64>,
        in_flight: AtomicUsize,
        max_in_flight: AtomicUsize,
    }
    impl JitterLink {
        fn new(inner: Arc<FollowerStore>, seed: u64) -> Arc<JitterLink> {
            Arc::new(JitterLink {
                inner,
                rng: Mutex::new(seed),
                in_flight: AtomicUsize::new(0),
                max_in_flight: AtomicUsize::new(0),
            })
        }
        /// Run `f` as one ship, then hold its reply for 0–255 µs.
        fn late<R>(&self, f: impl FnOnce() -> R) -> R {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_in_flight.fetch_max(now, Ordering::SeqCst);
            let reply = f();
            let micros = {
                let mut x = self.rng.lock().unwrap();
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                *x & 0xff
            };
            std::thread::sleep(Duration::from_micros(micros));
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            reply
        }
    }
    impl ReplicaLink for JitterLink {
        fn offer(&self, frames: Vec<ReplFrame>) -> Result<ReplReply, StoreError> {
            self.late(|| self.inner.offer(&frames))
        }
        fn install(&self, blob: &SnapshotBlob) -> Result<ReplReply, StoreError> {
            self.late(|| self.inner.install(blob))
        }
        fn status(&self) -> Result<ReplReply, StoreError> {
            self.late(|| Ok(ReplReply::Ok(self.inner.position())))
        }
    }

    #[test]
    fn concurrent_sync_commits_never_nack_spuriously() {
        const THREADS: usize = 4;
        const COMMITS: usize = 200;
        let pdir = scratch("race-p");
        let fdirs = [scratch("race-f0"), scratch("race-f1")];
        let links = [
            JitterLink::new(follower(&fdirs[0]), 0x9e37_79b9_7f4a_7c15),
            JitterLink::new(follower(&fdirs[1]), 0xd1b5_4a32_d192_ed03),
        ];
        let mut opts = repl_opts(
            links
                .iter()
                .map(|l| Arc::clone(l) as Arc<dyn ReplicaLink>)
                .collect(),
        );
        // A service label of its own, so the shipped-frames series below
        // counts this store only.
        opts.store.service = "race".into();
        let (store, _) = ReplicatedStore::open(&pdir, Log::default(), opts).unwrap();

        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(THREADS);
        let (nacks, regressions) = std::thread::scope(|scope| {
            // Watch the positions the primary records: per link they may
            // only move forward.
            let monitor = scope.spawn(|| {
                let mut last = [(0u64, 0u64); 2];
                let mut regressions = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let st = store.repl.lock().unwrap();
                    for (seen, l) in last.iter_mut().zip(&st.links) {
                        let now = l.pos.map_or((0, 0), |p| (p.generation, p.acked));
                        regressions += usize::from(now < *seen);
                        *seen = now;
                    }
                }
                regressions
            });
            let committers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..COMMITS)
                            .filter(|i| store.commit(&format!("t{t}-{i}")).is_err())
                            .count()
                    })
                })
                .collect();
            let nacks: usize = committers.into_iter().map(|c| c.join().unwrap()).sum();
            done.store(true, Ordering::SeqCst);
            (nacks, monitor.join().unwrap())
        });

        assert_eq!(
            nacks, 0,
            "both followers hold every record: nothing to NACK"
        );
        assert_eq!(regressions, 0, "a recorded position moved backwards");
        let frames = (THREADS * COMMITS) as u64;
        for l in &links {
            assert_eq!(l.inner.position().acked, frames);
            assert_eq!(
                l.max_in_flight.load(Ordering::SeqCst),
                1,
                "one ship in flight per link"
            );
        }
        let snap = faucets_telemetry::global().snapshot();
        assert_eq!(
            snap.histogram_sum("repl_ship_seconds", &[("service", "race")])
                .count,
            frames,
            "every sync commit's ship stage is timed"
        );
        let shipped = snap.counter_sum("repl_shipped_frames_total", &[("service", "race")]);
        assert!(
            shipped <= frames * links.len() as u64,
            "{shipped} frames shipped for {frames} records on {} links: \
             some frame went to a follower twice",
            links.len()
        );
        let _ = fs::remove_dir_all(&pdir);
        for d in &fdirs {
            let _ = fs::remove_dir_all(d);
        }
    }

    /// A link whose transport fails, but only after `delay` — a follower
    /// behind a black-holing network, where every ship costs a connect
    /// timeout.
    struct SlowDeadLink {
        delay: Duration,
        attempts: AtomicUsize,
    }
    impl SlowDeadLink {
        fn fail(&self) -> Result<ReplReply, StoreError> {
            self.attempts.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.delay);
            Err(StoreError::Io(std::io::Error::other("timed out")))
        }
    }
    impl ReplicaLink for SlowDeadLink {
        fn offer(&self, _: Vec<ReplFrame>) -> Result<ReplReply, StoreError> {
            self.fail()
        }
        fn install(&self, _: &SnapshotBlob) -> Result<ReplReply, StoreError> {
            self.fail()
        }
        fn status(&self) -> Result<ReplReply, StoreError> {
            self.fail()
        }
    }

    #[test]
    fn committers_behind_a_dead_follower_share_one_timeout() {
        const COMMITTERS: usize = 8;
        let delay = Duration::from_millis(150);
        let pdir = scratch("slowdead-p");
        let link = Arc::new(SlowDeadLink {
            delay,
            attempts: AtomicUsize::new(0),
        });
        let (store, _) = ReplicatedStore::open(
            &pdir,
            Log::default(),
            repl_opts(vec![Arc::clone(&link) as Arc<dyn ReplicaLink>]),
        )
        .unwrap();
        let start = std::sync::Barrier::new(COMMITTERS);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..COMMITTERS {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    let err = store.commit(&format!("doomed-{t}")).unwrap_err();
                    assert!(matches!(err, StoreError::Unreplicated { want: 1, got: 0 }));
                });
            }
        });
        let elapsed = t0.elapsed();
        // The first committer's ship fails after one delay and everyone
        // queued behind it takes that failure. Only a committer whose
        // frame landed after that ship had begun tries again, and the
        // rest of those take *its* failure: two ships at most, not eight.
        let attempts = link.attempts.load(Ordering::SeqCst);
        assert!(
            attempts <= 2,
            "{attempts} ships for {COMMITTERS} committers"
        );
        assert!(
            elapsed < delay * (COMMITTERS as u32) / 2,
            "{COMMITTERS} committers took {elapsed:?} behind a {delay:?} failure"
        );
        let _ = fs::remove_dir_all(&pdir);
    }

    #[test]
    fn follower_restart_resumes_mid_generation() {
        let fdir = scratch("resume-f");
        {
            let f = follower(&fdir);
            f.install(&SnapshotBlob {
                epoch: 3,
                generation: 2,
                snapshot: "[]".into(),
                records: vec!["\"a\"".into(), "\"b\"".into()],
            })
            .unwrap();
        }
        let f = follower(&fdir);
        let pos = f.position();
        assert_eq!((pos.epoch, pos.generation, pos.acked), (3, 2, 2));
        let _ = fs::remove_dir_all(&fdir);
    }

    #[test]
    fn pick_primary_is_deterministic() {
        let p = |epoch, generation, acked| ReplPosition {
            epoch,
            generation,
            acked,
        };
        assert_eq!(pick_primary(&[]), None);
        assert_eq!(
            pick_primary(&[p(1, 1, 5), p(2, 1, 0)]),
            Some(1),
            "epoch wins"
        );
        assert_eq!(
            pick_primary(&[p(1, 1, 5), p(1, 2, 0)]),
            Some(1),
            "generation breaks epoch ties"
        );
        assert_eq!(
            pick_primary(&[p(1, 1, 3), p(1, 1, 7)]),
            Some(1),
            "acked offset breaks generation ties"
        );
        assert_eq!(
            pick_primary(&[p(1, 1, 7), p(1, 1, 7)]),
            Some(0),
            "full ties go to the lowest index"
        );
    }

    #[test]
    fn epoch_file_round_trips_and_promotion_only_raises() {
        let dir = scratch("epoch");
        assert_eq!(read_epoch(&dir), 0);
        write_epoch(&dir, 7).unwrap();
        assert_eq!(read_epoch(&dir), 7);
        prepare_promotion(&dir, "store", 9).unwrap();
        assert_eq!(read_epoch(&dir), 9);
        prepare_promotion(&dir, "store", 4).unwrap();
        assert_eq!(read_epoch(&dir), 9, "promotion never lowers the epoch");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A link that counts the offers it delivers, to show batching ships a
    /// backlog in one round trip. While `down`, its offers fail.
    struct CountingLink {
        inner: Arc<FollowerStore>,
        offers: AtomicUsize,
        down: AtomicBool,
    }
    impl CountingLink {
        fn new(inner: &Arc<FollowerStore>) -> Arc<CountingLink> {
            Arc::new(CountingLink {
                inner: Arc::clone(inner),
                offers: AtomicUsize::new(0),
                down: AtomicBool::new(false),
            })
        }
    }
    impl ReplicaLink for CountingLink {
        fn offer(&self, frames: Vec<ReplFrame>) -> Result<ReplReply, StoreError> {
            if self.down.load(Ordering::Relaxed) {
                return Err(StoreError::Io(std::io::Error::other("down")));
            }
            self.offers.fetch_add(1, Ordering::Relaxed);
            self.inner.offer(&frames)
        }
        fn install(&self, blob: &SnapshotBlob) -> Result<ReplReply, StoreError> {
            self.inner.install(blob)
        }
        fn status(&self) -> Result<ReplReply, StoreError> {
            Ok(ReplReply::Ok(self.inner.position()))
        }
    }

    #[test]
    fn catch_up_ships_the_backlog_in_batches() {
        const RECORDS: u64 = 200;
        let pdir = scratch("batch-p");
        let fdir = scratch("batch-f");
        let f = follower(&fdir);
        let link = CountingLink::new(&f);
        link.down.store(true, Ordering::Relaxed);
        let mut opts = repl_opts(vec![Arc::clone(&link) as Arc<dyn ReplicaLink>]);
        // A service label of its own, so the lag gauge below is this store's.
        opts.store.service = "batch".into();
        let (store, _) = ReplicatedStore::open(&pdir, Log::default(), opts).unwrap();
        let lag = || {
            faucets_telemetry::global()
                .snapshot()
                .gauge_sum("repl_lag", &[("service", "batch"), ("role", "primary")])
        };

        // The first commit bootstraps the fresh follower by a snapshot
        // install, which the switch lets through; every later one is an
        // offer that fails, so the commit is NACKed and its record stays
        // in the primary's WAL.
        let nacks = (0..RECORDS)
            .filter(|i| store.commit(&format!("e{i}")).is_err())
            .count() as u64;
        assert_eq!(nacks, RECORDS - 1);
        assert_eq!(f.position().acked, 1);
        assert_eq!(lag(), nacks as f64, "the gauge reads the backlog");

        link.down.store(false, Ordering::Relaxed);
        store.commit(&"caught-up".to_string()).unwrap();
        assert_eq!(f.position().acked, RECORDS + 1);
        assert!(
            (link.offers.load(Ordering::Relaxed) as u64) < RECORDS + 1,
            "backlog shipped in batches, not one offer per record"
        );
        assert_eq!(lag(), 0.0);
        let _ = fs::remove_dir_all(&pdir);
        let _ = fs::remove_dir_all(&fdir);
    }

    #[test]
    fn a_batch_is_one_write_and_one_offer() {
        let pdir = scratch("commit-all-p");
        let fdir = scratch("commit-all-f");
        let f = follower(&fdir);
        let link = CountingLink::new(&f);
        let (store, _) = ReplicatedStore::open(
            &pdir,
            Log::default(),
            repl_opts(vec![Arc::clone(&link) as Arc<dyn ReplicaLink>]),
        )
        .unwrap();
        // The first commit bootstraps the fresh follower with a snapshot.
        store.commit(&"alone".to_string()).unwrap();
        let offers = link.offers.load(Ordering::Relaxed);
        let batch: Vec<String> = (0..5).map(|i| format!("b{i}")).collect();
        assert_eq!(
            store.commit_all(&batch).unwrap(),
            1,
            "the first record's seq"
        );
        assert_eq!(link.offers.load(Ordering::Relaxed), offers + 1);
        assert_eq!(f.position().acked, 6);
        assert_eq!(store.read(|s| s.entries.len()), 6);
        let _ = fs::remove_dir_all(&pdir);
        let _ = fs::remove_dir_all(&fdir);
    }

    #[test]
    fn a_record_that_is_not_text_is_corrupt() {
        let pdir = scratch("not-text-p");
        let (plain, _) =
            DurableStore::open(&pdir, Log::default(), repl_opts(vec![]).store).unwrap();
        drop(plain);
        let wal = Wal::recover(
            &wal_path(&pdir, 1),
            1,
            WalOptions::default(),
            Arc::new(NoopObserver),
        )
        .unwrap()
        .0;
        wal.append(b"\"\xff\"").unwrap();
        drop(wal);
        let err = ReplicatedStore::open(&pdir, Log::default(), repl_opts(vec![])).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&pdir);
    }

    #[test]
    fn wire_fence_deposes_immediately_and_idempotently() {
        let pdir = scratch("wirefence-p");
        let fdir = scratch("wirefence-f");
        let f = follower(&fdir);
        let (store, _) = ReplicatedStore::open(
            &pdir,
            Log::default(),
            repl_opts(vec![Arc::new(LocalLink(Arc::clone(&f)))]),
        )
        .unwrap();
        store.commit(&"before".to_string()).unwrap();

        // An epoch at or below our own is not evidence of deposition.
        assert!(!store.fence(1));
        assert!(!store.is_fenced());

        // A sentinel reports the promoted replica's higher epoch: every
        // later commit fails without ever touching the network.
        assert!(store.fence(4));
        assert!(!store.fence(4), "second fence is a no-op");
        let err = store.commit(&"late".to_string()).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Fenced {
                held: 1,
                observed: 4
            }
        ));
        let _ = fs::remove_dir_all(&pdir);
        let _ = fs::remove_dir_all(&fdir);
    }
}
