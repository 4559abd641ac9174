//! Two fixed pieces of work that do not involve the program, timed
//! between the slices of a run: how fast is the sandbox right now? The
//! readings go into the report, next to the metrics they help to read;
//! no metric is scaled by them.

use std::hint::black_box;
use std::io::{Read, Write};
use std::time::Instant;

/// Round trips of a 128-byte message between two threads over a loopback
/// TCP connection, as the program's frames travel: system calls and
/// cross-thread wakeups, the bulk of what an RPC costs. Returns µs per
/// round trip.
pub fn tcp_rtt_us() -> std::io::Result<f64> {
    const ROUND_TRIPS: u32 = 3000;
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let mut near = std::net::TcpStream::connect(listener.local_addr()?)?;
    let (mut far, _) = listener.accept()?;
    near.set_nodelay(true)?;
    far.set_nodelay(true)?;
    let echo = std::thread::spawn(move || {
        let mut msg = [0u8; 128];
        while far.read_exact(&mut msg).is_ok() && far.write_all(&msg).is_ok() {}
    });
    let mut msg = [7u8; 128];
    let begun = Instant::now();
    for _ in 0..ROUND_TRIPS {
        near.write_all(&msg)?;
        near.read_exact(&mut msg)?;
    }
    let us = begun.elapsed().as_secs_f64() * 1e6 / f64::from(ROUND_TRIPS);
    drop(near);
    echo.join().expect("echo thread panicked");
    Ok(us)
}

/// A fixed amount of arithmetic over a buffer that fits the L1 cache.
/// Returns ms.
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
