//! E1 integration: the full Figure-1 architecture over real TCP on
//! localhost — register FDs with the FS, authenticate, match, bid, award,
//! stage files, execute, monitor through AppSpector, download outputs.

use faucets_core::ids::ClusterId;
use faucets_core::market::SelectionPolicy;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_grid::prelude::{JobMix, ScenarioBuilder};
use faucets_load::prelude::{launch, GridTarget, LiveGrid};
use faucets_net::prelude::*;
use std::time::Duration;

/// Two Compute Servers exporting `namd`: `cs1`, 128 PEs bidding
/// baseline, and `cs2`, 256 PEs bidding util-interp.
fn two_clusters() -> ScenarioBuilder {
    let mix = JobMix {
        apps: vec!["namd".into()],
        ..JobMix::default()
    };
    ScenarioBuilder::new(99)
        .cluster(128, "equipartition", "baseline")
        .cluster(256, "equipartition", "util-interp")
        .mix(mix)
}

fn live(speedup: f64) -> LiveGrid {
    launch(&two_clusters(), Clock::new(speedup), |_| {
        FdOptions::default()
    })
    .unwrap()
}

fn client(at: &GridTarget, name: &str) -> FaucetsClient {
    FaucetsClient::register(at.fs[0], at.appspector, at.clock.clone(), name, "pw").unwrap()
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
    let grid = live(2_000.0);
    let clock = &grid.target.clock;
    let mut client = client(&grid.target, "alice");

    let sub = client
        .submit(
            quick_qos(clock, 8.0 * 600.0),
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
    let grid = live(5_000.0);
    let mut client = client(&grid.target, "bob");
    client.selection = SelectionPolicy::LeastCost;

    // Idle machines: baseline bids 1.0, util-interp bids k(1-α)=0.5 → the
    // interpolated cluster (cs-2) must win.
    let sub = client
        .submit(quick_qos(&grid.target.clock, 8.0 * 300.0), &[])
        .unwrap();
    assert_eq!(
        sub.cluster,
        ClusterId(2),
        "discounted idle machine wins least-cost"
    );
}

#[test]
fn several_users_and_jobs_share_the_grid() {
    let grid = live(5_000.0);
    let mut clients: Vec<FaucetsClient> = (0..3)
        .map(|i| client(&grid.target, &format!("user{i}")))
        .collect();

    let mut subs = vec![];
    for c in clients.iter_mut() {
        for _ in 0..2 {
            subs.push((
                c.user,
                c.submit(quick_qos(&grid.target.clock, 8.0 * 120.0), &[])
                    .unwrap(),
            ));
        }
    }
    assert_eq!(subs.len(), 6);
    for c in clients.iter_mut() {
        let user = c.user;
        for (_, sub) in subs.iter().filter(|(owner, _)| *owner == user) {
            let snap = c.wait(sub.job, Duration::from_secs(30)).expect("completes");
            assert!(snap.completed);
        }
    }
    // Every job is known to AppSpector now, so a refusal can only be the
    // ownership rule's, not an `unknown job`.
    for (i, c) in clients.iter_mut().enumerate() {
        let user = c.user;
        for (_, sub) in subs.iter().filter(|(owner, _)| *owner != user) {
            match c.watch(sub.job) {
                Err(ClientError::Rejected(why)) => assert!(why.contains("does not own"), "{why}"),
                other => panic!("client {i} watched a foreign job: {other:?}"),
            }
        }
    }
    let total: u64 = grid.fds.iter().map(|f| f.completed()).sum();
    assert_eq!(total, 6);
}

#[test]
fn unauthenticated_submission_is_impossible() {
    let grid = live(1_000.0);
    // Hand-rolled client with a forged token: matching fails at the FS.
    let r = call(
        grid.fs.service.addr,
        &Request::ListServers {
            token: faucets_core::auth::SessionToken("forged".into()),
            qos: quick_qos(&grid.target.clock, 100.0),
        },
    )
    .unwrap();
    assert!(matches!(r, Response::Error(_)));
}

#[test]
fn concurrent_clients_stress_the_services() {
    let grid = live(10_000.0);

    // Six clients submit in parallel threads against the same services.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let at = grid.target.clone();
            std::thread::spawn(move || {
                let (mut c, clock) = (client(&at, &format!("stress{i}")), &at.clock);
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
