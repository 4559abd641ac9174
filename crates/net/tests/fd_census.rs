//! An FD is its service's threads and nothing else: the pump is a tick on
//! the service's epoll set, run by a worker. This file holds one test and
//! must keep holding one: the census counts every thread of the process,
//! and a second test running beside it would be counted too.

mod common;

use faucets_net::prelude::*;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Spawning one FD adds its service's workers, no reactor or any other
/// thread, and `shutdown` takes exactly those away again.
#[test]
fn an_fd_adds_its_service_threads_and_shutdown_takes_them_away() {
    // The FS and AppSpector start here, before the census.
    let clock = Clock::new(100.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 31).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap();
    let before = threads();

    let (fs_addr, as_addr) = (fs.service.addr, aspect.service.addr);
    let opts = FdOptions::default();
    let fd = common::spawn_cs(4, "census", 16, fs_addr, as_addr, clock, opts);
    // Long enough for the pump's first rounds, and for any thread they
    // might start.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        threads(),
        before + ServeOptions::default().workers,
        "an FD is its service's workers"
    );

    fd.shutdown();
    // A joined thread can linger in procfs for a moment after it exits.
    let until = Instant::now() + Duration::from_secs(5);
    while threads() != before && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), before, "shutdown left a thread behind");
    aspect.service.shutdown();
    fs.shutdown();
}
