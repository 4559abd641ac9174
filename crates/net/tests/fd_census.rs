//! An FD is its service's threads and nothing else: the pump is a tick on
//! the service's epoll set, run by a worker, and the service spawns its
//! workers as concurrency needs them. This file holds one test and must
//! keep holding one: the census counts every thread of the process, and a
//! second test running beside it would be counted too.

mod common;

use faucets_core::bid::BidRequest;
use faucets_core::ids::JobId;
use faucets_core::qos::QosBuilder;
use faucets_net::prelude::*;
use std::time::{Duration, Instant};

/// The process's threads as (the FD's, the other services', the rest). A
/// service's workers are named `faucets-<service>-<i>` (an FD's service
/// is `fd-<cluster>`), and a thread spawned without a name takes its
/// spawner's, so a thread the FD starts is counted as the FD's.
fn census() -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let comm = std::fs::read_to_string(task.unwrap().path().join("comm"));
        match comm.unwrap_or_default() {
            name if name.starts_with("faucets-fd-") => counts.0 += 1,
            name if name.starts_with("faucets-") => counts.1 += 1,
            _ => counts.2 += 1,
        }
    }
    counts
}

/// An idle FD runs a few threads, all of its service; a storm of bid
/// solicitations parked in its handler grows it to one worker per parked
/// handler and never past `ServeOptions::workers`; and `shutdown` takes
/// away every thread it spawned.
#[test]
fn an_fd_adds_its_service_threads_and_shutdown_takes_them_away() {
    // The FS, AppSpector and the bidder's session start here, before the
    // census; their services' growth is not the FD's.
    let clock = Clock::new(100.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 31).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap();
    let (fs_addr, as_addr) = (fs.service.addr, aspect.service.addr);
    let client = FaucetsClient::register(fs_addr, as_addr, clock.clone(), "census", "pw").unwrap();
    let before = census();
    assert_eq!(before.0, 0);

    // Each solicitation holds its worker for the probe floor.
    let opts = FdOptions {
        bid_probe_floor: Duration::from_millis(500),
        ..FdOptions::default()
    };
    let fd = common::spawn_cs(4, "census", 16, fs_addr, as_addr, clock.clone(), opts);
    // Long enough for the pump's first rounds, and for any thread they
    // might start.
    std::thread::sleep(Duration::from_millis(100));
    let idle = census();
    assert!(
        (1..=4).contains(&idle.0),
        "an idle FD runs {} threads",
        idle.0
    );
    assert_eq!(idle.2, before.2, "the FD started a thread of no service");

    const K: usize = 16;
    let ceiling = ServeOptions::default().workers;
    let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
    let fd_addr = fd.service.addr;
    let storm: Vec<_> = (0..K as u64)
        .map(|i| {
            let token = client.token.clone();
            let request = BidRequest {
                job: JobId(i + 1),
                user: client.user,
                qos: qos.clone(),
                issued_at: clock.now(),
            };
            std::thread::spawn(move || call(fd_addr, &Request::RequestBid { token, request }))
        })
        .collect();
    let mut peak = 0;
    while !storm.iter().all(|bidder| bidder.is_finished()) {
        peak = peak.max(census().0);
        std::thread::sleep(Duration::from_millis(1));
    }
    for bidder in storm {
        let reply = bidder.join().unwrap();
        assert!(matches!(reply, Ok(Response::BidReply(_))), "{reply:?}");
    }
    assert!(
        peak >= K,
        "{K} parked solicitations grew the FD to {peak} threads"
    );
    assert!(
        peak <= ceiling,
        "the FD grew to {peak} threads, past {ceiling}"
    );

    fd.shutdown();
    // A joined thread can linger in procfs for a moment after it exits.
    let until = Instant::now() + Duration::from_secs(5);
    let left = || {
        let (fd, _, rest) = census();
        (fd, rest)
    };
    while left() != (0, before.2) && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(left(), (0, before.2), "shutdown left a thread behind");
    aspect.service.shutdown();
    fs.shutdown();
}
