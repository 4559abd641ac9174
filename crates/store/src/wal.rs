//! The write-ahead log: CRC-framed records, group-commit fsync, torn-tail
//! recovery.
//!
//! This module is deliberately `std`-only — no serde, no parking_lot — so
//! the byte-level framing and recovery logic can be audited (and compiled)
//! in isolation. Serialization and state-machine concerns live one layer
//! up in [`crate::durable`].
//!
//! # File layout
//!
//! ```text
//! [FWAL][version: u32 BE][generation: u64 BE]          16-byte header
//! [len: u32 BE][crc32(payload): u32 BE][payload]       record 0
//! [len: u32 BE][crc32(payload): u32 BE][payload]       record 1
//! ...
//! ```
//!
//! # Recovery invariants
//!
//! * A scan replays the **longest valid prefix**: it stops at the first
//!   frame whose header is short, whose length exceeds [`MAX_RECORD`],
//!   whose payload is short, or whose CRC does not match — everything from
//!   that point on is a torn tail and is discarded.
//! * A record is **never** surfaced with damaged bytes: CRC32 (IEEE)
//!   detects all single-bit and single-byte errors, so a bit-flip inside a
//!   record ends the valid prefix instead of corrupting replay.
//! * Appending after recovery first truncates the file back to the valid
//!   prefix, so the torn tail can never be resurrected by later writes.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Magic bytes opening every WAL file.
pub const MAGIC: [u8; 4] = *b"FWAL";
/// On-disk format version.
pub const VERSION: u32 = 1;
/// Header length: magic + version + generation.
pub const HEADER_LEN: u64 = 16;
/// Frame header length: length word + CRC word.
pub const FRAME_HEADER: usize = 8;
/// Largest accepted payload — mirrors `proto::MAX_FRAME` so anything that
/// fits on the wire fits in the log.
pub const MAX_RECORD: usize = 16 * 1024 * 1024;

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time so the crate stays dependency-free.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) of `bytes` — the checksum stored in every frame header.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Everything that can go wrong talking to the store.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem failed.
    Io(io::Error),
    /// A payload exceeded [`MAX_RECORD`].
    RecordTooLarge {
        /// Offending payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// An injected fault (see [`WriteFault`]) damaged or dropped the write.
    InjectedFault(String),
    /// On-disk bytes that passed framing but cannot be interpreted — a
    /// schema mismatch or a damaged header.
    Corrupt(String),
    /// A replication peer has seen a higher epoch: this node was deposed
    /// and must stop acting as primary (see `crate::replicate`).
    Fenced {
        /// Epoch this node believed it held.
        held: u64,
        /// Higher epoch observed from a peer.
        observed: u64,
    },
    /// A replicated commit is durable locally but did not reach the
    /// required number of replicas; the caller must NACK the client.
    Unreplicated {
        /// Acks the replication policy required.
        want: usize,
        /// Acks actually collected.
        got: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds the {max}-byte cap")
            }
            StoreError::InjectedFault(why) => write!(f, "injected write fault: {why}"),
            StoreError::Corrupt(why) => write!(f, "corrupt store data: {why}"),
            StoreError::Fenced { held, observed } => {
                write!(
                    f,
                    "fenced: held epoch {held}, peer reported epoch {observed}"
                )
            }
            StoreError::Unreplicated { want, got } => {
                write!(f, "unreplicated: {got} of {want} required replica acks")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The fate an injected fault assigns to one record of a WAL append — the
/// disk-side mirror of `net::fault::FrameFault`. Any fate but `Deliver`
/// fails the whole append; in a batch the frames ahead of the struck one
/// reach the disk intact (see [`Wal::append_all`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// Write the frame intact.
    Deliver,
    /// Persist only the first `keep` bytes of the frame (a torn write).
    Torn {
        /// Bytes that reach the disk (clamped below the frame length).
        keep: usize,
    },
    /// Persist the whole write with one byte of this frame XOR-flipped.
    Garble {
        /// Byte offset to damage (wrapped modulo the frame length).
        offset: usize,
        /// XOR mask; `0` upgrades to `0xFF` so the byte always changes.
        xor: u8,
    },
    /// Drop the write from this frame on — none of it reaches the disk.
    Fail,
}

/// A fault-injection hook: inspects the payload about to be framed and
/// decides its fate. Deterministic plans live in `net::fault`.
pub type StoreFaultFn = Arc<dyn Fn(&[u8]) -> WriteFault + Send + Sync>;

/// Sink for the WAL's own instrumentation. The default no-op keeps this
/// module free of telemetry dependencies; `crate::durable` wires the real
/// registry in.
pub trait WalObserver: Send + Sync {
    /// One fsync completed, taking this many seconds.
    fn fsync_seconds(&self, _secs: f64) {}
    /// One group-commit fsync covered this many records.
    fn commit_batch(&self, _records: u64) {}
    /// This many records were appended in one write and are durable.
    fn append_ok(&self, _records: u64) {}
    /// An append failed (I/O error or injected fault).
    fn append_error(&self) {}
}

/// The do-nothing [`WalObserver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl WalObserver for NoopObserver {}

/// Tuning knobs for a [`Wal`].
#[derive(Clone, Default)]
pub struct WalOptions {
    /// Skip the fsync after each group commit. Data still reaches the
    /// kernel; crash-of-process is survivable, crash-of-host is not.
    /// Benchmarks and tests use this to avoid measuring the disk.
    pub no_fsync: bool,
    /// Optional fault-injection hook consulted before every append.
    pub fault: Option<StoreFaultFn>,
}

impl fmt::Debug for WalOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalOptions")
            .field("no_fsync", &self.no_fsync)
            .field("fault", &self.fault.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

/// What a scan of an on-disk WAL found.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Generation stamped in the header (0 when the header is damaged).
    pub generation: u64,
    /// Whether the 16-byte header was intact.
    pub header_ok: bool,
    /// Every record in the longest valid prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (header included).
    pub valid_len: u64,
    /// Bytes past the valid prefix — the torn tail a recovery discards.
    pub torn_bytes: u64,
    /// Human-readable description of the first damage found, if any.
    pub damage: Option<String>,
}

/// Scan a WAL file and return its longest valid prefix.
///
/// Never fails on damaged *content* — torn tails, bit flips, and short
/// headers all come back as a (possibly empty) valid prefix plus a
/// `damage` note. Only real I/O errors (permissions, disappearing files)
/// surface as `Err`.
pub fn read_wal(path: &Path) -> Result<WalScan, StoreError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut scan = WalScan::default();

    let mut header = [0u8; HEADER_LEN as usize];
    if !read_exact_or_eof(&mut r, &mut header)? {
        scan.damage = Some("short header".into());
        scan.torn_bytes = file_len;
        return Ok(scan);
    }
    if header[..4] != MAGIC {
        scan.damage = Some("bad magic".into());
        scan.torn_bytes = file_len;
        return Ok(scan);
    }
    let version = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if version != VERSION {
        scan.damage = Some(format!("unsupported version {version}"));
        scan.torn_bytes = file_len;
        return Ok(scan);
    }
    scan.generation = u64::from_be_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    scan.header_ok = true;
    scan.valid_len = HEADER_LEN;

    loop {
        let mut fh = [0u8; FRAME_HEADER];
        if !read_exact_or_eof(&mut r, &mut fh)? {
            // EOF exactly on a frame boundary is a clean end; a partial
            // frame header is a torn tail.
            break;
        }
        let len = u32::from_be_bytes([fh[0], fh[1], fh[2], fh[3]]) as usize;
        let crc = u32::from_be_bytes([fh[4], fh[5], fh[6], fh[7]]);
        if len > MAX_RECORD {
            scan.damage = Some(format!(
                "record {}: length {len} exceeds cap",
                scan.records.len()
            ));
            break;
        }
        let mut payload = vec![0u8; len];
        if !read_exact_or_eof(&mut r, &mut payload)? {
            scan.damage = Some(format!("record {}: payload truncated", scan.records.len()));
            break;
        }
        if crc32(&payload) != crc {
            scan.damage = Some(format!("record {}: CRC mismatch", scan.records.len()));
            break;
        }
        scan.valid_len += (FRAME_HEADER + len) as u64;
        scan.records.push(payload);
    }

    if scan.damage.is_none() && scan.valid_len < file_len {
        scan.damage = Some("trailing partial frame header".into());
    }
    scan.torn_bytes = file_len.saturating_sub(scan.valid_len);
    Ok(scan)
}

/// Fill `buf` completely, or report a clean/short EOF as `Ok(false)`.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, StoreError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(true)
}

/// Mutable log state: the file cursor and the high-water marks appends
/// move. Guarded by [`Wal::inner`].
struct WalInner {
    file: File,
    /// Sequence number the next append will take (== records written so
    /// far, replayed ones included).
    next_seq: u64,
    /// Byte length of the valid prefix — where the next frame starts.
    good_len: u64,
    /// A failed or injected append left damage past `good_len`; the next
    /// append must truncate back before writing.
    needs_repair: bool,
}

/// A single append-only log file with group-commit fsync.
///
/// Appends take two short critical sections: the *write* lock serializes
/// `write(2)` calls, then the *sync* lock serializes fsync. An appender
/// that arrives at the sync lock after another thread's fsync already
/// covered its record returns immediately — that is the group commit: two
/// appends that overlap share one disk flush.
///
/// The stores built on the log (`DurableStore`, `ReplicatedStore`,
/// `FollowerStore`) each hold their own mutex across an append, so through
/// them appends never overlap. What groups records there is
/// [`Wal::append_all`]: a batch of records is one write and one flush, and
/// `store_commit_batch_size` records the batch's length.
pub struct Wal {
    path: PathBuf,
    generation: u64,
    opts: WalOptions,
    observer: Arc<dyn WalObserver>,
    inner: Mutex<WalInner>,
    /// Records with `seq < synced_seq` are known durable.
    synced_seq: Mutex<u64>,
    /// Records with `seq < written_seq` have reached the kernel — the
    /// high-water mark an fsync promotes to durable.
    written_seq: AtomicU64,
    /// Duplicate handle used for fsync so flushes never contend with the
    /// write cursor.
    sync_file: File,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("generation", &self.generation)
            .finish()
    }
}

impl Wal {
    /// Create a fresh, empty log at `path` (truncating anything there),
    /// write and fsync its header.
    pub fn create(
        path: &Path,
        generation: u64,
        opts: WalOptions,
        observer: Arc<dyn WalObserver>,
    ) -> Result<Wal, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_be_bytes());
        header.extend_from_slice(&generation.to_be_bytes());
        file.write_all(&header)?;
        if !opts.no_fsync {
            file.sync_data()?;
        }
        Wal::assemble(path, file, generation, 0, HEADER_LEN, opts, observer)
    }

    /// Open `path` for appending, recovering the longest valid prefix.
    ///
    /// Torn tails are truncated away; a missing file, a damaged header, or
    /// a generation mismatch yields a fresh empty log stamped
    /// `generation`. The scan (with any replayable records) rides along.
    pub fn recover(
        path: &Path,
        generation: u64,
        opts: WalOptions,
        observer: Arc<dyn WalObserver>,
    ) -> Result<(Wal, WalScan), StoreError> {
        if !path.exists() {
            let wal = Wal::create(path, generation, opts, observer)?;
            return Ok((wal, WalScan::default()));
        }
        let scan = read_wal(path)?;
        if !scan.header_ok || scan.generation != generation {
            let wal = Wal::create(path, generation, opts, observer)?;
            let mut scan = scan;
            scan.records.clear();
            scan.valid_len = 0;
            return Ok((wal, scan));
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(scan.valid_len)?;
        if scan.torn_bytes > 0 && !opts.no_fsync {
            file.sync_data()?;
        }
        let mut file = file;
        file.seek(SeekFrom::Start(scan.valid_len))?;
        let next_seq = scan.records.len() as u64;
        let wal = Wal::assemble(
            path,
            file,
            generation,
            next_seq,
            scan.valid_len,
            opts,
            observer,
        )?;
        Ok((wal, scan))
    }

    fn assemble(
        path: &Path,
        file: File,
        generation: u64,
        next_seq: u64,
        good_len: u64,
        opts: WalOptions,
        observer: Arc<dyn WalObserver>,
    ) -> Result<Wal, StoreError> {
        let sync_file = file.try_clone()?;
        Ok(Wal {
            path: path.to_path_buf(),
            generation,
            opts,
            observer,
            inner: Mutex::new(WalInner {
                file,
                next_seq,
                good_len,
                needs_repair: false,
            }),
            synced_seq: Mutex::new(next_seq),
            written_seq: AtomicU64::new(next_seq),
            sync_file,
        })
    }

    /// The file this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The generation stamped in this log's header.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records appended so far (replayed ones included).
    pub fn record_count(&self) -> u64 {
        self.inner.lock().expect("wal lock").next_seq
    }

    /// Append one record durably and return its sequence number: the
    /// one-record case of [`Wal::append_all`].
    pub fn append(&self, payload: &[u8]) -> Result<u64, StoreError> {
        self.append_all(&[payload])
    }

    /// Append `payloads` durably, as one write and one flush, and return
    /// the sequence number of the first (the batch takes consecutive
    /// numbers). An empty batch writes nothing.
    ///
    /// On `Ok`, every record has been fsynced (unless
    /// [`WalOptions::no_fsync`]) — possibly by a concurrent appender's
    /// group commit. On `Err`, the batch is **not** in the log: the fault
    /// hook is asked about each record in turn, and the first fate other
    /// than `Deliver` damages the write at that record — the records ahead
    /// of it may reach the file, but as a tail the next append truncates
    /// back to the last good byte before it writes.
    pub fn append_all<P: AsRef<[u8]>>(&self, payloads: &[P]) -> Result<u64, StoreError> {
        let lens = payloads.iter().map(|p| p.as_ref().len());
        if let Some(len) = lens.clone().find(|&len| len > MAX_RECORD) {
            self.observer.append_error();
            return Err(StoreError::RecordTooLarge {
                len,
                max: MAX_RECORD,
            });
        }
        let mut frames = Vec::with_capacity(lens.map(|len| FRAME_HEADER + len).sum());
        for payload in payloads.iter().map(AsRef::as_ref) {
            frames.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            frames.extend_from_slice(&crc32(payload).to_be_bytes());
            frames.extend_from_slice(payload);
        }
        let mut inner = self.inner.lock().expect("wal lock");
        let first = inner.next_seq;
        if payloads.is_empty() {
            return Ok(first);
        }
        if inner.needs_repair {
            let good = inner.good_len;
            inner.file.set_len(good)?;
            inner.file.seek(SeekFrom::Start(good))?;
            inner.needs_repair = false;
        }
        // The first fate other than `Deliver`, and the byte range of the
        // frame it strikes.
        let mut fault = None;
        if let Some(hook) = &self.opts.fault {
            let mut start = 0;
            for payload in payloads.iter().map(AsRef::as_ref) {
                let end = start + FRAME_HEADER + payload.len();
                match hook(payload) {
                    WriteFault::Deliver => start = end,
                    fate => {
                        fault = Some((fate, start, end));
                        break;
                    }
                }
            }
        }
        if let Some((fate, start, end)) = fault {
            let (persisted, why) = match fate {
                WriteFault::Torn { keep } => {
                    let keep = keep.min(end - start - 1);
                    let why = format!("torn write: {keep} of {} bytes persisted", end - start);
                    (start + keep, why)
                }
                WriteFault::Garble { offset, xor } => {
                    let i = start + offset % (end - start);
                    frames[i] ^= if xor == 0 { 0xFF } else { xor };
                    (
                        frames.len(),
                        format!("garbled write: byte {} flipped", i - start),
                    )
                }
                // `Fail` (the scan above never yields `Deliver`).
                _ => (start, "write dropped before reaching the log".to_string()),
            };
            let _ = inner.file.write_all(&frames[..persisted]);
            inner.needs_repair = true;
            self.observer.append_error();
            return Err(StoreError::InjectedFault(why));
        }
        if let Err(e) = inner.file.write_all(&frames) {
            inner.needs_repair = true;
            self.observer.append_error();
            return Err(StoreError::Io(e));
        }
        let count = payloads.len() as u64;
        inner.next_seq += count;
        inner.good_len += frames.len() as u64;
        self.written_seq.store(inner.next_seq, Ordering::Release);
        drop(inner);

        // Group commit: whoever reaches the sync lock first flushes for
        // everyone whose write already landed.
        {
            let mut synced = self.synced_seq.lock().expect("wal sync lock");
            if *synced < first + count {
                let covered = self.written_seq.load(Ordering::Acquire);
                if !self.opts.no_fsync {
                    let t0 = Instant::now();
                    self.sync_file.sync_data()?;
                    self.observer.fsync_seconds(t0.elapsed().as_secs_f64());
                }
                self.observer.commit_batch(covered - *synced);
                *synced = covered;
            }
        }
        self.observer.append_ok(count);
        Ok(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("faucets-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_scan_round_trip() {
        let path = scratch("round.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, 1, WalOptions::default(), Arc::new(NoopObserver)).unwrap();
        for i in 0..10u32 {
            wal.append(format!("record-{i}").as_bytes()).unwrap();
        }
        drop(wal);
        let scan = read_wal(&path).unwrap();
        assert!(scan.header_ok);
        assert_eq!(scan.generation, 1);
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.records[3], b"record-3");
        assert_eq!(scan.torn_bytes, 0);
        assert!(scan.damage.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let path = scratch("torn.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, 7, WalOptions::default(), Arc::new(NoopObserver)).unwrap();
        for i in 0..5u32 {
            wal.append(format!("r{i}").as_bytes()).unwrap();
        }
        drop(wal);
        // Tear the file mid-record: keep the 5 good records plus 3 bytes.
        let good = read_wal(&path).unwrap().valid_len;
        let f = OpenOptions::new().append(true).open(&path).unwrap();
        f.set_len(good).unwrap();
        drop(f);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x00, 0x00, 0x09]).unwrap();
        drop(f);

        let (wal, scan) =
            Wal::recover(&path, 7, WalOptions::default(), Arc::new(NoopObserver)).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.torn_bytes, 3);
        assert!(scan.damage.is_some());
        // Appending after recovery lands cleanly where the tear was.
        wal.append(b"after").unwrap();
        drop(wal);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.records[5], b"after");
        assert_eq!(scan.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_ends_the_valid_prefix() {
        let path = scratch("flip.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, 1, WalOptions::default(), Arc::new(NoopObserver)).unwrap();
        for i in 0..8u32 {
            wal.append(format!("payload-{i}").as_bytes()).unwrap();
        }
        drop(wal);
        // Flip one byte inside record 4's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let rec = FRAME_HEADER + "payload-0".len();
        let off = HEADER_LEN as usize + 4 * rec + FRAME_HEADER + 2;
        bytes[off] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 4, "prefix stops before the flip");
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r, format!("payload-{i}").as_bytes(), "no corrupt record");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_faults_nack_and_roll_back() {
        let path = scratch("fault.wal");
        let _ = std::fs::remove_file(&path);
        // Fail every append whose payload starts with 'x'.
        let hook: StoreFaultFn = Arc::new(|payload: &[u8]| {
            if payload.first() == Some(&b'x') {
                WriteFault::Torn { keep: 5 }
            } else {
                WriteFault::Deliver
            }
        });
        let opts = WalOptions {
            fault: Some(hook),
            ..WalOptions::default()
        };
        let wal = Wal::create(&path, 1, opts, Arc::new(NoopObserver)).unwrap();
        wal.append(b"good-1").unwrap();
        assert!(matches!(
            wal.append(b"x-doomed"),
            Err(StoreError::InjectedFault(_))
        ));
        // The torn bytes sit past good_len; the next good append repairs.
        wal.append(b"good-2").unwrap();
        drop(wal);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"good-1".to_vec(), b"good-2".to_vec()]);
        assert_eq!(scan.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Counts what a `Wal` reports.
    #[derive(Default)]
    struct Counts {
        flushes: AtomicU64,
        flushed: AtomicU64,
        appended: AtomicU64,
    }

    impl WalObserver for Counts {
        fn commit_batch(&self, records: u64) {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.flushed.fetch_add(records, Ordering::Relaxed);
        }
        fn append_ok(&self, records: u64) {
            self.appended.fetch_add(records, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_batch_is_one_flush_and_takes_consecutive_seqs() {
        let path = scratch("batch.wal");
        let _ = std::fs::remove_file(&path);
        let counts = Arc::new(Counts::default());
        let observer = Arc::clone(&counts) as Arc<dyn WalObserver>;
        let wal = Wal::create(&path, 1, WalOptions::default(), observer).unwrap();
        assert_eq!(wal.append(b"lone").unwrap(), 0);
        assert_eq!(wal.append_all(&["a", "b", "c"]).unwrap(), 1);
        assert_eq!(wal.append_all::<&[u8]>(&[]).unwrap(), 4, "an empty batch");
        assert_eq!(counts.flushes.load(Ordering::Relaxed), 2);
        assert_eq!(counts.flushed.load(Ordering::Relaxed), 4);
        assert_eq!(counts.appended.load(Ordering::Relaxed), 4);
        drop(wal);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, [&b"lone"[..], b"a", b"b", b"c"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_under_contention() {
        let path = scratch("group.wal");
        let _ = std::fs::remove_file(&path);
        let wal =
            Arc::new(Wal::create(&path, 1, WalOptions::default(), Arc::new(NoopObserver)).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let w = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        w.append(format!("t{t}-{i}").as_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.record_count(), 200);
        drop(wal);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 200);
        assert_eq!(scan.torn_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let path = scratch("big.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::create(&path, 1, WalOptions::default(), Arc::new(NoopObserver)).unwrap();
        let big = vec![0u8; MAX_RECORD + 1];
        assert!(matches!(
            wal.append(&big),
            Err(StoreError::RecordTooLarge { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
