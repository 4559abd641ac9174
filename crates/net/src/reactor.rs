//! Thin, dependency-free epoll wrapper powering the readiness-driven
//! serve path ([`crate::service::serve_with`]).
//!
//! The repo's no-deps discipline rules out `mio`/`tokio`, so this module
//! declares the handful of syscalls it needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, `poll`) directly via `extern "C"` — `std`
//! already links libc, so the symbols resolve without adding a crate. Five
//! pieces live here:
//!
//! - [`Epoll`]: level-triggered readiness polling over raw fds, each
//!   registered with a `u64` token that comes back on its events.
//! - `poll_ready`: the same question asked of one socket by the thread
//!   that owns it — a client pipelining a burst has no reactor.
//! - [`Waker`]: an `eventfd` the executor pool and `ServiceHandle::stop`
//!   write to from other threads to pop the reactor out of `epoll_wait`.
//! - [`FrameBuf`]: an incremental decoder for the length-prefixed wire
//!   format (`u32` BE length + payload) that turns arbitrary read chunks
//!   into whole frames, enforcing [`crate::proto::MAX_FRAME`] so a garbage
//!   prefix cannot balloon the buffer.
//! - `WriteQueue`: the outbound twin — queued frames flushed with
//!   vectored writes, for serve-side replies and client request bursts.
//!
//! Everything here is serde-free and socket-type-agnostic on purpose: the
//! unit tests drive it with pipes and hand-rolled byte streams; the
//! reactor loop in `service/serve.rs` composes these primitives with the
//! executor pool, and the client's burst in `service/call.rs` with none.

use std::collections::VecDeque;
use std::io;
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
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// `struct pollfd`: no packing quirk, the C layout on every target.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x80000;

/// NOTE: the kernel ABI packs `epoll_event` on x86-64 (12 bytes, u32 +
/// unaligned u64). Rather than fight `repr(packed)` reference rules, we
/// marshal through explicit little-endian byte buffers sized for the
/// target: 12 bytes on x86-64, 16 elsewhere.
#[cfg(target_arch = "x86_64")]
const EVENT_SIZE: usize = 12;
#[cfg(not(target_arch = "x86_64"))]
const EVENT_SIZE: usize = std::mem::size_of::<EpollEvent>();

#[cfg(target_arch = "x86_64")]
const DATA_OFFSET: usize = 4;
#[cfg(not(target_arch = "x86_64"))]
const DATA_OFFSET: usize = std::mem::offset_of!(EpollEvent, data);

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
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

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// Level-triggered epoll instance. All methods are `&self`; the kernel
/// serializes `epoll_ctl` against `epoll_wait` internally, so `Waker`
/// writes and control calls are safe from other threads.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// A fresh, close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        // The kernel ABI packs epoll_event on x86-64 (`data` at offset 4),
        // so marshal into an explicit byte buffer instead of passing an
        // aligned Rust struct.
        let mut raw = [0u8; 16];
        raw[..4].copy_from_slice(&interest.mask().to_ne_bytes());
        raw[DATA_OFFSET..DATA_OFFSET + 8].copy_from_slice(&token.to_ne_bytes());
        // SAFETY: `raw` holds one kernel-ABI event record; the kernel
        // copies it out on ADD/MOD and ignores it on DEL.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, raw.as_mut_ptr() as *mut EpollEvent) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with `token`; events for it report that token.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the watched directions for an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`. Safe to call right before closing it.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    /// Block until at least one registered fd is ready (or `timeout`
    /// expires, rounded up to whole milliseconds so a caller waiting for a
    /// deadline never wakes just before it; `None` blocks indefinitely).
    /// Decoded events are appended to `out` (which is cleared first). A
    /// signal ends the wait early with no events: the caller re-arms from
    /// its own deadline.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        const MAX_EVENTS: usize = 1024;
        let mut raw = [0u8; EVENT_SIZE * MAX_EVENTS];
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        // SAFETY: `raw` holds MAX_EVENTS kernel-ABI event records.
        let rc = unsafe {
            epoll_wait(
                self.fd,
                raw.as_mut_ptr() as *mut EpollEvent,
                MAX_EVENTS as i32,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = last_os_error();
            return match err.kind() {
                io::ErrorKind::Interrupted => Ok(0),
                _ => Err(err),
            };
        }
        let n = rc as usize;
        for i in 0..n {
            let rec = &raw[i * EVENT_SIZE..(i + 1) * EVENT_SIZE];
            // Fixed-width slices of our own EVENT_SIZE record, whatever the kernel wrote.
            let events = u32::from_ne_bytes(rec[..4].try_into().unwrap());
            let token = u64::from_ne_bytes(rec[DATA_OFFSET..DATA_OFFSET + 8].try_into().unwrap());
            let hangup = events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
            out.push(Event {
                token,
                readable: events & EPOLLIN != 0 || hangup,
                writable: events & EPOLLOUT != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this struct and closed exactly once.
        unsafe {
            close(self.fd);
        }
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

/// Cross-thread wakeup for a reactor parked in [`Epoll::wait`]. Backed by
/// a nonblocking `eventfd`: `wake()` writes a counter increment (cheap,
/// idempotent while pending), the reactor registers [`Waker::fd`] for
/// reads and calls [`Waker::drain`] when its token fires.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// A fresh nonblocking, close-on-exec eventfd.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: plain syscall.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The fd the reactor registers for reads.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Nudge the reactor. Never blocks: if the counter is already at its
    /// max (wakeup already pending) the EAGAIN is ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a stack value.
        unsafe {
            let _ = write(self.fd, one.to_ne_bytes().as_ptr(), 8);
        }
    }

    /// Clear pending wakeups so level-triggered polling doesn't spin.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads up to 8 bytes into a stack buffer.
        unsafe {
            let _ = read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this struct and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

// SAFETY: the waker is just an fd; write/read on it are thread-safe.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

/// Incremental decoder for the `u32` BE length-prefixed wire format.
///
/// Feed it whatever chunks the socket yields via [`FrameBuf::extend`],
/// then pull complete payloads with [`FrameBuf::next_frame`]. A length
/// prefix above the configured maximum is a protocol violation and
/// returns an error — the caller must drop the connection, since the
/// stream can no longer be re-synchronized.
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Consumed prefix; compacted periodically instead of per-frame so a
    /// burst of pipelined frames costs one memmove, not one per frame.
    start: usize,
    max_frame: usize,
}

impl FrameBuf {
    /// An empty buffer that rejects any frame longer than `max_frame`.
    pub fn new(max_frame: usize) -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Append raw bytes read off the socket.
    pub fn extend(&mut self, chunk: &[u8]) {
        // Compact before growing if more than half the buffer is dead.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Drain a nonblocking socket into the buffer until it would block (a
    /// short read has emptied it and saves the `WouldBlock` probe); the
    /// peer having closed its end is an error like any other. Never inlined:
    /// its 64 KiB buffer must not join its callers' frames (inlined into
    /// `Leg::land`, it cost every RPC-making thread 64 KiB of stack).
    #[inline(never)]
    pub fn fill_from(&mut self, r: &mut impl io::Read) -> io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match r.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.extend(&buf[..n]);
                    if n < buf.len() {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes currently buffered and not yet returned as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pop the next complete frame payload, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes". `Err` means the stream is
    /// corrupt (oversized length prefix) and must be closed.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.start..];
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
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
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

    #[test]
    fn fill_from_keeps_what_it_read_before_the_hang_up() {
        // Exactly one read's worth, then EOF: the one way a drain sees the
        // peer's hang-up in the same pass as its last bytes.
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

        let mut events = Vec::new();
        // Nothing pending yet: a short wait times out with zero events.
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        let client = TcpStream::connect(addr).unwrap();
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let (mut srv, _) = listener.accept().unwrap();
        srv.set_nonblocking(true).unwrap();
        ep.add(srv.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(client); // EOF on the accepted side
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let n = ep
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if let Some(ev) = events.iter().find(|e| e.token == 9) {
                assert!(ev.readable, "EOF must surface as readable");
                let mut buf = [0u8; 8];
                assert_eq!(srv.read(&mut buf).unwrap(), 0, "read at EOF");
                break;
            }
            assert!(Instant::now() < deadline, "no EOF event after {n} events");
        }
        ep.remove(srv.as_raw_fd()).unwrap();
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
        let mut events = Vec::new();
        let n = ep.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1 && events[0].writable, "fresh socket is writable");

        // Fill the socket until WouldBlock, then writability must clear.
        let chunk = [0u8; 64 * 1024];
        loop {
            match client.write(&chunk) {
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.writable),
            "full socket must not report writable ({n} events)"
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
        let mut events = Vec::new();
        let start = Instant::now();
        let n = ep.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 42);
        assert!(start.elapsed() < Duration::from_secs(5), "wake was prompt");
        // Both wakes have landed before the drain: the second can trail
        // the first by a scheduling quantum and would re-arm the eventfd.
        t.join().unwrap();
        waker.drain();
        // Drained: no residual readiness.
        let n = ep
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drain must clear the eventfd");
    }
}
