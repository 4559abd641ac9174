//! E1 integration: the full Figure-1 architecture over real TCP on
//! localhost — register FDs with the FS, authenticate, match, bid, award,
//! stage files, execute, monitor through AppSpector, download outputs.

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::market::{Baseline, SelectionPolicy, UtilizationInterpolated};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use std::time::Duration;

struct Grid {
    fs: FsHandle,
    aspect: AsHandle,
    fds: Vec<FdHandle>,
    clock: Clock,
}

fn launch(speedup: f64) -> Grid {
    let clock = Clock::new(speedup);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 99).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 32).unwrap();
    let mut fds = vec![];
    for (i, pes, baseline) in [(1u64, 128u32, true), (2, 256, false)] {
        let machine = MachineSpec::commodity(ClusterId(i), format!("cs{i}"), pes);
        let strategy: Box<dyn faucets_core::market::BidStrategy> = if baseline {
            Box::new(Baseline)
        } else {
            Box::new(UtilizationInterpolated::default())
        };
        let daemon = FaucetsDaemon::new(
            machine.server_info("127.0.0.1", 0),
            ["namd".to_string()],
            strategy,
            Money::from_units_f64(0.01),
        );
        let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
        fds.push(
            spawn_fd(
                "127.0.0.1:0",
                daemon,
                cluster,
                fs.service.addr,
                aspect.service.addr,
                clock.clone(),
            )
            .unwrap(),
        );
    }
    Grid {
        fs,
        aspect,
        fds,
        clock,
    }
}

fn quick_qos(clock: &Clock, cpu_seconds: f64) -> faucets_core::qos::QosContract {
    QosBuilder::new("namd", 8, 32, cpu_seconds)
        .efficiency(0.95, 0.8)
        .adaptive()
        .payoff(PayoffFn::hard_only(
            clock
                .now()
                .saturating_add(faucets_sim::time::SimDuration::from_hours(4)),
            Money::from_units(100),
            Money::from_units(10),
        ))
        .build()
        .unwrap()
}

#[test]
fn full_submission_monitoring_download_flow() {
    let grid = launch(2_000.0);
    let mut client = FaucetsClient::register(
        grid.fs.service.addr,
        grid.aspect.service.addr,
        grid.clock.clone(),
        "alice",
        "pw",
    )
    .expect("register+login");

    let sub = client
        .submit(
            quick_qos(&grid.clock, 8.0 * 600.0),
            &[("in.dat".into(), vec![7u8; 64])],
        )
        .expect("job placed");
    assert_eq!(sub.bids_received, 2, "both FDs bid");
    assert!(sub.price > Money::ZERO);

    let snap = client
        .wait(sub.job, Duration::from_secs(30))
        .expect("job completes");
    assert!(snap.completed);
    assert_eq!(snap.cluster, sub.cluster);
    // Output staging echoes inputs plus the synthesized output.dat.
    let names: Vec<&str> = snap.output_files.iter().map(|f| f.name.as_str()).collect();
    assert!(names.contains(&"in.dat"));
    assert!(names.contains(&"output.dat"));
    let data = client
        .download(sub.job, "in.dat")
        .expect("download staged input back");
    assert_eq!(data, vec![7u8; 64]);

    // The executing FD recorded revenue at the bid price.
    let fd = grid
        .fds
        .iter()
        .find(|f| f.cluster_id == sub.cluster)
        .unwrap();
    assert_eq!(fd.completed(), 1);
    assert_eq!(fd.revenue(), sub.price);
}

#[test]
fn least_cost_selection_picks_cheaper_bid() {
    let grid = launch(5_000.0);
    let mut client = FaucetsClient::register(
        grid.fs.service.addr,
        grid.aspect.service.addr,
        grid.clock.clone(),
        "bob",
        "pw",
    )
    .unwrap();
    client.selection = SelectionPolicy::LeastCost;

    // Idle machines: baseline bids 1.0, util-interp bids k(1-α)=0.5 → the
    // interpolated cluster (cs-2) must win.
    let sub = client
        .submit(quick_qos(&grid.clock, 8.0 * 300.0), &[])
        .unwrap();
    assert_eq!(
        sub.cluster,
        ClusterId(2),
        "discounted idle machine wins least-cost"
    );
}

#[test]
fn several_users_and_jobs_share_the_grid() {
    let grid = launch(5_000.0);
    let mut clients: Vec<FaucetsClient> = (0..3)
        .map(|i| {
            FaucetsClient::register(
                grid.fs.service.addr,
                grid.aspect.service.addr,
                grid.clock.clone(),
                &format!("user{i}"),
                "pw",
            )
            .unwrap()
        })
        .collect();

    let mut subs = vec![];
    for c in clients.iter_mut() {
        for _ in 0..2 {
            subs.push((
                c.user,
                c.submit(quick_qos(&grid.clock, 8.0 * 120.0), &[]).unwrap(),
            ));
        }
    }
    assert_eq!(subs.len(), 6);
    for (i, c) in clients.iter_mut().enumerate() {
        for (owner, sub) in &subs {
            if *owner == c.user {
                let snap = c.wait(sub.job, Duration::from_secs(30)).expect("completes");
                assert!(snap.completed);
            } else {
                // Other users' jobs are not watchable (ownership enforced).
                assert!(
                    c.watch(sub.job).is_err(),
                    "client {i} watched a foreign job"
                );
            }
        }
    }
    let total: u64 = grid.fds.iter().map(|f| f.completed()).sum();
    assert_eq!(total, 6);
}

#[test]
fn unauthenticated_submission_is_impossible() {
    let grid = launch(1_000.0);
    // Hand-rolled client with a forged token: matching fails at the FS.
    let r = call(
        grid.fs.service.addr,
        &Request::ListServers {
            token: faucets_core::auth::SessionToken("forged".into()),
            qos: quick_qos(&grid.clock, 100.0),
        },
    )
    .unwrap();
    assert!(matches!(r, Response::Error(_)));
}

#[test]
fn concurrent_clients_stress_the_services() {
    let grid = launch(10_000.0);
    let fs_addr = grid.fs.service.addr;
    let as_addr = grid.aspect.service.addr;
    let clock = grid.clock.clone();

    // Six clients submit in parallel threads against the same services.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let clock = clock.clone();
            std::thread::spawn(move || {
                let mut c = FaucetsClient::register(
                    fs_addr,
                    as_addr,
                    clock.clone(),
                    &format!("stress{i}"),
                    "pw",
                )
                .expect("register");
                let mut jobs = vec![];
                for _ in 0..3 {
                    let qos = QosBuilder::new("namd", 8, 32, 8.0 * 60.0)
                        .efficiency(0.95, 0.8)
                        .adaptive()
                        .payoff(PayoffFn::hard_only(
                            clock
                                .now()
                                .saturating_add(faucets_sim::time::SimDuration::from_hours(6)),
                            Money::from_units(50),
                            Money::from_units(5),
                        ))
                        .build()
                        .unwrap();
                    jobs.push(c.submit(qos, &[]).expect("placed under contention").job);
                }
                for job in jobs {
                    let snap = c.wait(job, Duration::from_secs(60)).expect("completes");
                    assert!(snap.completed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread clean");
    }
    let total: u64 = grid.fds.iter().map(|f| f.completed()).sum();
    assert_eq!(total, 18, "all 18 concurrent jobs ran");
}
