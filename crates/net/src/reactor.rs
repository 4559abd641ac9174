//! Thin, dependency-free epoll wrapper powering the readiness-driven
//! serve path ([`crate::service::serve_with`]).
//!
//! The repo's no-deps discipline rules out `mio`/`tokio`, so this module
//! declares the handful of syscalls it needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, `timerfd_create`, `timerfd_settime`, `poll`,
//! `recv`) directly via `extern "C"` — `std` already links libc, so the
//! symbols resolve without adding a crate. Seven pieces live here:
//!
//! - [`Epoll`]: one-shot readiness polling over raw fds, each registered
//!   with a `u64` token that comes back on its event. Every idle worker
//!   of a service (it spawns them as concurrency needs them) waits on the
//!   one set; an event disarms its fd until the worker that took it
//!   re-arms it, so no two workers hold one fd.
//! - `poll_ready`: the same question asked of one socket by the thread
//!   that owns it — a client pipelining a burst has no epoll set.
//! - `idle_open`: the pool's checkout health check, one nonblocking peek.
//! - [`Waker`]: an `eventfd` that `ServiceHandle`'s stop writes to from
//!   another thread to pop the workers out of `epoll_wait`.
//! - [`Timer`]: a `timerfd`, a service's one due tick as an fd event.
//! - [`FrameBuf`]: an incremental decoder for the length-prefixed wire
//!   format (`u32` BE length + payload) that turns arbitrary read chunks
//!   into whole frames, enforcing [`crate::proto::MAX_FRAME`] so a garbage
//!   prefix cannot balloon the buffer.
//! - `WriteQueue`: the outbound twin — queued frames flushed with
//!   vectored writes, for serve-side replies and client request bursts.
//!
//! Everything here is serde-free and socket-type-agnostic on purpose: the
//! unit tests drive it with pipes and hand-rolled byte streams; the
//! worker loop in `service/serve.rs` composes these primitives, and the
//! client's burst in `service/call.rs` uses the last two under `poll_ready`.

use std::collections::VecDeque;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::unix::io::RawFd;
use std::time::Duration;

// Raw syscall surface. Signatures mirror the glibc prototypes; `std`
// links libc so these resolve at link time without a `libc` crate dep.
#[repr(C)]
#[allow(dead_code)] // pointer-type only; records are marshaled as raw bytes
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const TimerSpec, old: *mut TimerSpec) -> i32;
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

/// `struct pollfd`: no packing quirk, the C layout on every target.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct itimerspec`: no repeat interval, then the first expiry.
#[repr(C)]
struct TimerSpec {
    interval: [std::ffi::c_long; 2],
    value: [std::ffi::c_long; 2],
}

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;
const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x80000;
const CLOCK_MONOTONIC: i32 = 1;
const MSG_PEEK: i32 = 0x2;
const MSG_DONTWAIT: i32 = 0x40;

/// NOTE: the kernel ABI packs `epoll_event` on x86-64 (12 bytes, u32 +
/// unaligned u64). Rather than fight `repr(packed)` reference rules, we
/// marshal one record through a 16-byte buffer, `data` at its offset for
/// the target: 4 on x86-64, the struct's own elsewhere.
#[cfg(target_arch = "x86_64")]
const DATA_OFFSET: usize = 4;
#[cfg(not(target_arch = "x86_64"))]
const DATA_OFFSET: usize = std::mem::offset_of!(EpollEvent, data);

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Own the fd a creating syscall returned, or its error.
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(last_os_error());
    }
    // SAFETY: a fresh fd, owned by nothing else; `OwnedFd` closes it once.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// One readiness notification, decoded from the kernel's event record.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Data can be read (includes error/hangup so a `read()` surfaces the
    /// failure instead of the fd being silently ignored).
    pub readable: bool,
    /// The fd can accept writes again.
    pub writable: bool,
}

/// Which readiness directions to watch for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// Wake when the fd can take more bytes.
    pub writable: bool,
}

impl Interest {
    /// Reads only: a connection with nothing queued to send.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Both directions: replies are queued behind a short write.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// A hang-up is watched only with reads: a peer that is gone wants
    /// nothing read, and its hang-up would report on every arming.
    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// Level-triggered, one-shot epoll instance: an event disarms its fd until
/// [`Epoll::modify`] re-arms it, so of several threads waiting on the set
/// exactly one takes each readiness. All methods are `&self`; the kernel
/// serializes `epoll_ctl` against `epoll_wait` internally.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// A fresh, close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        // The kernel ABI packs epoll_event on x86-64 (`data` at offset 4),
        // so marshal into an explicit byte buffer instead of passing an
        // aligned Rust struct.
        let mut raw = [0u8; 16];
        raw[..4].copy_from_slice(&(interest.mask() | EPOLLONESHOT).to_ne_bytes());
        raw[DATA_OFFSET..DATA_OFFSET + 8].copy_from_slice(&token.to_ne_bytes());
        // SAFETY: `raw` holds one kernel-ABI event record; the kernel
        // copies it out.
        let rc = unsafe {
            epoll_ctl(
                self.fd.as_raw_fd(),
                op,
                fd,
                raw.as_mut_ptr() as *mut EpollEvent,
            )
        };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with `token`, armed; its event reports that token.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Re-arm an already-registered fd, watching the directions given.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Block until a registered fd is ready and take its one event (or
    /// until `timeout` expires, rounded up to whole milliseconds so a
    /// caller waiting for a deadline never wakes just before it; `None`
    /// blocks indefinitely). A timeout or a signal ends the wait with
    /// `None`: the caller decides whether to wait again.
    pub fn wait(&self, timeout: Option<Duration>) -> io::Result<Option<Event>> {
        let mut raw = [0u8; 16];
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        // SAFETY: `raw` holds one kernel-ABI event record, and we ask for one.
        let rc = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                raw.as_mut_ptr() as *mut EpollEvent,
                1,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = last_os_error();
            return match err.kind() {
                io::ErrorKind::Interrupted => Ok(None),
                _ => Err(err),
            };
        }
        if rc == 0 {
            return Ok(None);
        }
        // Fixed-width slices of our own record, whatever the kernel wrote.
        let events = u32::from_ne_bytes(raw[..4].try_into().unwrap());
        let token = u64::from_ne_bytes(raw[DATA_OFFSET..DATA_OFFSET + 8].try_into().unwrap());
        let hangup = events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
        Ok(Some(Event {
            token,
            readable: events & EPOLLIN != 0 || hangup,
            writable: events & EPOLLOUT != 0,
        }))
    }
}

/// Block until `fd` is ready in a direction `want` names, or `timeout`
/// passes (neither reported): [`Epoll::wait`] for the one socket a caller
/// owns outright, nothing to register or tear down. An error or hangup
/// reports as readable, so the caller's `read` surfaces it; EINTR retries.
pub(crate) fn poll_ready(fd: RawFd, want: Interest, timeout: Duration) -> io::Result<Interest> {
    // The low event bits are the same numbers under both interfaces.
    let mut pfd = PollFd {
        fd,
        events: (want.mask() & (EPOLLIN | EPOLLOUT)) as i16,
        revents: 0,
    };
    // Rounded up: a sub-millisecond timeout must not become a busy poll.
    let timeout_ms = timeout.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32;
    loop {
        // SAFETY: `pfd` is one valid `struct pollfd`, and `nfds` says one.
        let rc = unsafe { poll(&mut pfd, 1, timeout_ms) };
        if rc >= 0 {
            let got = pfd.revents as u32;
            return Ok(Interest {
                readable: got & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                writable: got & EPOLLOUT != 0,
            });
        }
        let err = last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Is the connected socket `fd` open with nothing to read? One
/// `recv(MSG_PEEK | MSG_DONTWAIT)`, blocking flag untouched: only
/// `WouldBlock` says yes; EOF, bytes waiting or another error say no.
pub(crate) fn idle_open(fd: RawFd) -> bool {
    let mut byte = 0u8;
    // SAFETY: one writable byte, and `len` says one.
    let rc = unsafe { recv(fd, &mut byte, 1, MSG_PEEK | MSG_DONTWAIT) };
    rc < 0 && last_os_error().kind() == io::ErrorKind::WouldBlock
}

/// Cross-thread wakeup for threads parked in [`Epoll::wait`]. Backed by
/// a nonblocking `eventfd`: `wake()` writes a counter increment (cheap,
/// idempotent while pending) and leaves [`Waker::fd`] readable until
/// [`Waker::drain`].
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// A fresh nonblocking, close-on-exec eventfd.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: plain syscall.
        let fd = owned(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(Waker { fd })
    }

    /// The fd to register for reads.
    pub fn fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Make the fd readable. Never blocks: if the counter is already at
    /// its max (wakeup already pending) the EAGAIN is ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a stack value.
        unsafe {
            let _ = write(self.fd(), one.to_ne_bytes().as_ptr(), 8);
        }
    }

    /// Clear pending wakeups: the fd reads idle again.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads up to 8 bytes into a stack buffer.
        unsafe {
            let _ = read(self.fd(), buf.as_mut_ptr(), 8);
        }
    }
}

/// One due time as an fd event: a nonblocking, close-on-exec monotonic
/// `timerfd` that reads ready once its expiry passes.
pub struct Timer {
    fd: OwnedFd,
}

impl Timer {
    /// A fresh timer, disarmed.
    pub fn new() -> io::Result<Timer> {
        // The timerfd flags are the eventfd ones (both `O_NONBLOCK`, `O_CLOEXEC`).
        // SAFETY: plain syscall.
        let fd = owned(unsafe { timerfd_create(CLOCK_MONOTONIC, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(Timer { fd })
    }

    /// The fd to register for reads.
    pub fn fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Expire once, `after` from now, in place of any earlier expiry,
    /// passed and unread or still to come.
    pub fn arm(&self, after: Duration) {
        // An all-zero expiry disarms: the soonest is one nanosecond.
        let after = after.max(Duration::from_nanos(1));
        let secs = after.as_secs().min(std::ffi::c_long::MAX as u64);
        let spec = TimerSpec {
            interval: [0, 0],
            value: [secs as std::ffi::c_long, after.subsec_nanos().into()],
        };
        // SAFETY: `spec` is one valid `struct itimerspec`; no old value wanted.
        unsafe {
            timerfd_settime(self.fd(), 0, &spec, std::ptr::null_mut());
        }
    }
}

/// Incremental decoder for the `u32` BE length-prefixed wire format.
///
/// Feed it whatever chunks the socket yields via [`FrameBuf::extend`] or
/// [`FrameBuf::fill_from`], then pull complete payloads with
/// [`FrameBuf::next_frame`]. A length prefix above the configured maximum
/// is a protocol violation and returns an error — the caller must drop the
/// connection, since the stream can no longer be re-synchronized.
pub struct FrameBuf {
    /// Bytes `start..end` are read and not yet returned as frames; the
    /// zeroed rest is room a read lands in directly.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
}

/// The least room [`FrameBuf::read_from`] offers one read.
const READ_ROOM: usize = 4096;

impl FrameBuf {
    /// An empty buffer that rejects any frame longer than `max_frame`.
    pub fn new(max_frame: usize) -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_frame,
        }
    }

    /// Make room for `n` more bytes: move the unreturned bytes down over
    /// the returned ones once those are at least as many (each byte moves
    /// a bounded number of times), else grow at least twofold.
    fn reserve(&mut self, n: usize) {
        if self.buf.len() - self.end >= n {
            return;
        }
        let live = self.end - self.start;
        if self.start >= live {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, live);
        }
        if self.buf.len() - self.end < n {
            self.buf.resize((self.end + n).max(2 * self.buf.len()), 0);
        }
    }

    /// Append raw bytes read off the socket.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.reserve(chunk.len());
        self.buf[self.end..self.end + chunk.len()].copy_from_slice(chunk);
        self.end += chunk.len();
    }

    /// One read into the buffer's own room (at least [`READ_ROOM`]): the bytes taken, 0 at EOF.
    pub(crate) fn read_from(&mut self, r: &mut impl io::Read) -> io::Result<usize> {
        self.reserve(READ_ROOM);
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Drain a nonblocking socket into the buffer's own room until it
    /// would block (a read that leaves room unfilled has emptied it and
    /// saves the `WouldBlock` probe); the peer having closed its end is an
    /// error like any other.
    pub fn fill_from(&mut self, r: &mut impl io::Read) -> io::Result<()> {
        loop {
            match self.read_from(r) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) if self.end < self.buf.len() => return Ok(()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes currently buffered and not yet returned as frames.
    pub fn pending_bytes(&self) -> usize {
        self.end - self.start
    }

    /// The length of the next frame's payload, if it is fully buffered.
    fn whole(&self) -> io::Result<Option<usize>> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        // Four bytes: the `avail.len() < 4` guard above returned first.
        let len = u32::from_be_bytes(avail[..4].try_into().unwrap()) as usize;
        if len > self.max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds maximum {}", self.max_frame),
            ));
        }
        Ok((avail.len() >= 4 + len).then_some(len))
    }

    /// A whole frame, or a length prefix [`FrameBuf::next_frame`] rejects,
    /// is buffered: the next call to it returns without more bytes.
    pub(crate) fn has_frame(&self) -> bool {
        !matches!(self.whole(), Ok(None))
    }

    /// Pop the next complete frame payload, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes". `Err` means the stream is
    /// corrupt (oversized length prefix) and must be closed.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let Some(len) = self.whole()? else {
            return Ok(None);
        };
        let at = self.start + 4;
        let payload = self.buf[at..at + len].to_vec();
        self.start = at + len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(payload))
    }
}

/// The outbound twin of [`FrameBuf`]: whole frames queued for one socket
/// and pushed out with vectored writes, continuing across short writes —
/// a connection's replies on the serve path, a burst of requests on the
/// client's.
#[derive(Default)]
pub(crate) struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    /// How much of the front buffer is already on the wire.
    off: usize,
    bytes: usize,
}

impl WriteQueue {
    /// Queue one frame behind whatever is still waiting. An empty buffer
    /// (a frame some fault plan "lost") queues nothing.
    pub(crate) fn push(&mut self, buf: Vec<u8>) {
        if !buf.is_empty() {
            self.bytes += buf.len();
            self.bufs.push_back(buf);
        }
    }

    /// Bytes queued and not yet written.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Nothing left to write.
    pub(crate) fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Write until the queue is empty, up to 64 buffers per syscall. Any
    /// error ends the flush with the unwritten rest still queued —
    /// `WouldBlock` too, which on a nonblocking socket means "call again
    /// when writable" and on a blocking one is the write timeout.
    pub(crate) fn flush(&mut self, w: &mut impl io::Write) -> io::Result<()> {
        while let Some(front) = self.bufs.front() {
            let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(self.bufs.len().min(64));
            slices.push(io::IoSlice::new(&front[self.off..]));
            slices.extend(
                self.bufs
                    .iter()
                    .skip(1)
                    .take(63)
                    .map(|b| io::IoSlice::new(b)),
            );
            let mut n = match w.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.bytes -= n;
            while n > 0 {
                let front_rem = self.bufs[0].len() - self.off;
                if n >= front_rem {
                    n -= front_rem;
                    self.bufs.pop_front();
                    self.off = 0;
                } else {
                    self.off += n;
                    n = 0;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_be_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn framebuf_reassembles_across_arbitrary_chunking() {
        let mut wire = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..17u8)
            .map(|i| (0..=i).map(|j| i ^ j).collect::<Vec<u8>>())
            .collect();
        for p in &payloads {
            wire.extend_from_slice(&frame(p));
        }
        // Feed in every chunk size from 1 byte to the whole wire at once.
        for chunk in [1usize, 2, 3, 5, 7, 16, wire.len()] {
            let mut fb = FrameBuf::new(1 << 20);
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.extend(piece);
                while let Some(p) = fb.next_frame().expect("well-formed wire") {
                    got.push(p);
                }
            }
            assert_eq!(got, payloads, "chunk size {chunk}");
            assert_eq!(fb.pending_bytes(), 0);
        }
    }

    /// A reader that hands out at most `chunk` bytes per read and would
    /// block on every other call, like a socket the peer feeds slowly.
    struct Trickle<'a> {
        wire: &'a [u8],
        chunk: usize,
        dry: bool,
    }

    impl io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.dry = !self.dry;
            if !self.dry || self.wire.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.chunk).min(self.wire.len());
            buf[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_frame_larger_than_one_reads_room_reassembles_across_fills() {
        let payload: Vec<u8> = (0..3 * READ_ROOM as u32 + 17).map(|i| i as u8).collect();
        let mut wire = frame(&payload);
        wire.extend_from_slice(&frame(b"next"));
        let mut r = Trickle {
            wire: &wire,
            chunk: READ_ROOM / 2 + 1,
            dry: false,
        };
        let mut fb = FrameBuf::new(1 << 20);
        let mut fills = 0;
        let got = loop {
            fb.fill_from(&mut r).unwrap();
            fills += 1;
            if let Some(p) = fb.next_frame().unwrap() {
                break p;
            }
            assert!(fills < 100, "the frame never completed");
        };
        assert!(fills > 6, "the frame came in {fills} fills");
        assert_eq!(got, payload, "the frame is whole");
        while fb.next_frame().unwrap().is_none() {
            fb.fill_from(&mut r).unwrap();
        }
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn fill_from_keeps_what_it_read_before_the_hang_up() {
        // Reads that fill all the room offered, then EOF: the one way a
        // drain sees the peer's hang-up in the same pass as its last bytes.
        let mut wire = frame(&vec![7u8; 64 * 1024 - 4]);
        let mut fb = FrameBuf::new(1 << 20);
        let err = fb.fill_from(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        wire.drain(..4);
        assert_eq!(fb.next_frame().unwrap(), Some(wire), "the frame is whole");
    }

    #[test]
    fn framebuf_rejects_oversized_length_prefix() {
        let mut fb = FrameBuf::new(64);
        fb.extend(&(65u32).to_be_bytes());
        fb.extend(&[0u8; 10]);
        assert!(fb.next_frame().is_err(), "oversized prefix must error");
    }

    #[test]
    fn framebuf_zero_length_frames_round_trip() {
        let mut fb = FrameBuf::new(64);
        fb.extend(&frame(b""));
        fb.extend(&frame(b"x"));
        assert_eq!(fb.next_frame().unwrap(), Some(Vec::new()));
        assert_eq!(fb.next_frame().unwrap(), Some(b"x".to_vec()));
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn epoll_reports_readiness_with_tokens() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing pending yet: a short wait times out with no event.
        let got = ep.wait(Some(Duration::from_millis(10))).unwrap();
        assert!(got.is_none());

        let client = TcpStream::connect(addr).unwrap();
        let ev = ep.wait(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable);
        // One-shot: the pending accept reports no more until re-armed.
        assert!(ep.wait(Some(Duration::from_millis(10))).unwrap().is_none());
        ep.modify(listener.as_raw_fd(), 7, Interest::READ).unwrap();
        let ev = ep.wait(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert_eq!(ev.token, 7, "re-armed, the pending accept reports again");

        let (mut srv, _) = listener.accept().unwrap();
        srv.set_nonblocking(true).unwrap();
        ep.add(srv.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(client); // EOF on the accepted side
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = ep.wait(Some(Duration::from_millis(100))).unwrap();
            if let Some(ev) = got.filter(|e| e.token == 9) {
                assert!(ev.readable, "EOF must surface as readable");
                let mut buf = [0u8; 8];
                assert_eq!(srv.read(&mut buf).unwrap(), 0, "read at EOF");
                break;
            }
            assert!(Instant::now() < deadline, "no EOF event");
        }
    }

    #[test]
    fn epoll_write_interest_tracks_buffer_space() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let (srv, _) = listener.accept().unwrap();

        let ep = Epoll::new().unwrap();
        let write_only = Interest {
            readable: false,
            writable: true,
        };
        ep.add(client.as_raw_fd(), 1, write_only).unwrap();
        let ev = ep.wait(Some(Duration::from_secs(5))).unwrap();
        assert!(ev.is_some_and(|e| e.writable), "fresh socket is writable");

        // Fill the socket until WouldBlock, then writability must clear.
        let chunk = [0u8; 64 * 1024];
        loop {
            match client.write(&chunk) {
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        ep.modify(client.as_raw_fd(), 1, write_only).unwrap();
        let ev = ep.wait(Some(Duration::from_millis(50))).unwrap();
        assert!(
            !ev.is_some_and(|e| e.writable),
            "full socket must not report writable ({ev:?})"
        );
        drop(srv);
    }

    #[test]
    fn waker_pops_a_blocked_wait_and_drains() {
        let ep = Arc::new(Epoll::new().unwrap());
        let waker = Arc::new(Waker::new().unwrap());
        ep.add(waker.fd(), 42, Interest::READ).unwrap();

        let w2 = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
            w2.wake(); // coalesces: still one readable event
        });
        let start = Instant::now();
        let ev = ep.wait(Some(Duration::from_secs(10))).unwrap().unwrap();
        assert_eq!(ev.token, 42);
        assert!(start.elapsed() < Duration::from_secs(5), "wake was prompt");
        // Both wakes have landed before the drain: the second can trail
        // the first by a scheduling quantum and would re-arm the eventfd.
        t.join().unwrap();
        waker.drain();
        // Drained and re-armed: no residual readiness.
        ep.modify(waker.fd(), 42, Interest::READ).unwrap();
        let got = ep.wait(Some(Duration::from_millis(10))).unwrap();
        assert!(got.is_none(), "drain must clear the eventfd");
    }

    #[test]
    fn a_timer_reports_once_its_expiry_passes_and_rearming_replaces_it() {
        let ep = Epoll::new().unwrap();
        let timer = Timer::new().unwrap();
        ep.add(timer.fd(), 5, Interest::READ).unwrap();
        timer.arm(Duration::from_secs(30));
        assert!(ep.wait(Some(Duration::from_millis(20))).unwrap().is_none());
        // A later arming replaces the 30 s expiry; a zero wait is at once.
        timer.arm(Duration::ZERO);
        let ev = ep.wait(Some(Duration::from_secs(5))).unwrap().unwrap();
        assert_eq!(ev.token, 5);
        // Arming again clears the passed expiry: re-armed, the fd is idle.
        timer.arm(Duration::from_secs(30));
        ep.modify(timer.fd(), 5, Interest::READ).unwrap();
        assert!(ep.wait(Some(Duration::from_millis(20))).unwrap().is_none());
    }
}
