//! Embedded durability engine for the Figure-1 services: write-ahead log,
//! snapshots, and crash recovery.
//!
//! Figure 1 of the Faucets paper puts a database at the heart of the
//! Central Server — contracts, accounting records, and registrations must
//! survive process death. This crate is that substrate, built
//! Faucets-native and dependency-free (serde for record encoding and the
//! in-repo telemetry registry are its only imports).
//!
//! # WAL frame format
//!
//! A log file is a 16-byte header followed by back-to-back frames:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FWAL"
//! 4       4     format version (u32 BE, currently 1)
//! 8       8     generation (u64 BE) — must match the filename
//! ----- per record -----
//! +0      4     payload length (u32 BE, capped at 16 MiB)
//! +4      4     CRC32 (IEEE) of the payload (u32 BE)
//! +8      len   payload bytes (serde_json-encoded record)
//! ```
//!
//! Appends go through group commit: writers serialize their `write(2)`
//! under one lock, then race to a second lock whose holder fsyncs once
//! for every record written so far, so overlapping appends share a flush.
//! The stores built on the log ([`DurableStore`], [`ReplicatedStore`],
//! [`FollowerStore`]) each hold their own lock across an append, so
//! through them appends never overlap; what shares a flush there is a
//! batch, which `commit_all` (and a follower's `offer`) writes as one
//! append (see [`Wal::append_all`]).
//!
//! # Recovery invariants
//!
//! 1. **Longest valid prefix**: recovery replays records until the first
//!    damaged frame (short header, oversized length, short payload, CRC
//!    mismatch) and discards everything after it.
//! 2. **No corrupted record is ever surfaced**: CRC32 guards every
//!    payload, so damage inside a record ends the prefix rather than
//!    corrupting replay.
//! 3. **No record before the damage point is lost**: frames are
//!    self-delimiting and scanned in order, so records wholly before the
//!    damage always survive.
//! 4. **Acknowledged means durable**: [`DurableStore::commit`] (and
//!    [`DurableStore::commit_all`] for a batch) fsyncs the records *before*
//!    applying them; an error means nothing was applied and the caller
//!    must NACK. Failed appends (including injected
//!    torn/garbled writes from `net::fault`) roll the file back to the
//!    last good byte before the next append.
//! 5. **Compaction is crash-safe in every window**: the next snapshot is
//!    written to a temp file, fsynced, atomically renamed, and the
//!    directory fsynced before the old generation is deleted — at least
//!    one complete generation exists on disk at all times.
//!
//! The [`Durable`] trait (apply/snapshot/restore) is the porting surface:
//! the FD contract journal, the accounting ledger, and the Central Server
//! accounts each implement it and gain incremental journaling, periodic
//! compaction, and kill -9 recovery from one code path.

#![warn(missing_docs)]

pub mod durable;
pub mod replicate;
pub mod wal;

pub use durable::{scan_dir, CommitError, Durable, DurableStore, RecoveryReport, StoreOptions};
pub use replicate::{
    pick_primary, prepare_promotion, read_epoch, write_epoch, FollowerOptions, FollowerStore,
    LocalLink, ReplFrame, ReplOptions, ReplPosition, ReplReply, ReplicaLink, ReplicatedStore,
    ReplicationMode, SnapshotBlob,
};
pub use wal::{
    crc32, read_wal, NoopObserver, StoreError, StoreFaultFn, Wal, WalObserver, WalOptions, WalScan,
    WriteFault, MAX_RECORD,
};
