//! The sandbox's speed, read with a fixed piece of work that does not
//! involve the program: a 128-byte message bounced between two threads of
//! the harness over a loopback TCP connection, as the program's frames
//! travel — system calls and cross-thread wakeups, the bulk of what an RPC
//! costs. In this sandbox that round trip costs between 7 and 16 µs
//! depending on what the host's other tenants are doing, for tenths of a
//! second or for minutes, and everything the program does moves with it.
//! So every slice of a run is timed next to this yardstick, and the
//! end-to-end times are reported as they would read at the yardstick's
//! nominal length (README, "Sandbox speed").

use crate::procinfo;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// The back-to-back round trip in the sandbox's fast spells, when this
/// benchmark was defined: what [`busy_rtt_us`] readings are scaled to.
pub const BUSY_NOMINAL_US: f64 = 8.0;
/// The same for a round trip that starts from a sleeping generator thread
/// at its due instant, as the paced phase's ops do.
pub const PACED_NOMINAL_US: f64 = 40.0;
/// Round trips per [`busy_rtt_us`] reading (about 10 ms).
const BUSY_ROUND_TRIPS: u32 = 1000;

/// One end of a loopback TCP connection whose other end echoes.
pub struct Pinger {
    near: TcpStream,
    echo: Option<JoinHandle<()>>,
    echo_tid: i32,
}

impl Pinger {
    pub fn new() -> std::io::Result<Pinger> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (mut far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let echo = std::thread::Builder::new()
            .name("reference-echo".into())
            .spawn(move || {
                let _ = tid_tx.send(procinfo::thread_id());
                let mut msg = [0u8; 128];
                while far.read_exact(&mut msg).is_ok() && far.write_all(&msg).is_ok() {}
            })?;
        let echo_tid = tid_rx.recv().map_err(std::io::Error::other)?;
        Ok(Pinger {
            near,
            echo: Some(echo),
            echo_tid,
        })
    }

    /// One round trip.
    pub fn ping(&mut self) -> std::io::Result<()> {
        let mut msg = [7u8; 128];
        self.near.write_all(&msg)?;
        self.near.read_exact(&mut msg)
    }
}

impl Drop for Pinger {
    fn drop(&mut self) {
        let _ = self.near.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// µs of CPU per round trip — the calling thread's and the echo thread's
/// — over [`BUSY_ROUND_TRIPS`] back-to-back round trips. CPU time and not
/// the clock's: with nothing else to run the two are the same, and while
/// the grid's daemons are still completing jobs in the background, what
/// they take is not the yardstick's.
pub fn busy_rtt_us(pinger: &mut Pinger) -> std::io::Result<f64> {
    let tids = [procinfo::thread_id(), pinger.echo_tid];
    let cpu = || tids.map(procinfo::thread_cpu_seconds).iter().sum::<f64>();
    let before = cpu();
    for _ in 0..BUSY_ROUND_TRIPS {
        pinger.ping()?;
    }
    Ok((cpu() - before) * 1e6 / f64::from(BUSY_ROUND_TRIPS))
}

/// A fixed amount of arithmetic over a buffer that fits the L1 cache, in
/// ms: what the sandbox's slow spells leave alone. Recorded, never used.
pub fn cpu_ms() -> f64 {
    let mut buf = [0u64; 512];
    let begun = Instant::now();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..4000u64 {
        for slot in buf.iter_mut() {
            h = (h ^ *slot ^ round).wrapping_mul(0x0000_0100_0000_01b3);
            *slot = h.rotate_left(17);
        }
    }
    black_box(&buf);
    begun.elapsed().as_secs_f64() * 1e3
}
