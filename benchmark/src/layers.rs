//! Per-layer numbers, measured from outside: each layer's `pub`
//! functions timed in isolation on the workload's own data, and deltas of
//! the public telemetry registry over the traced run's saturate window.

use crate::workloads::Probes;
use faucets_core::bid::BidRequest;
use faucets_core::daemon::{ClusterManager, FaucetsDaemon};
use faucets_core::directory::{Directory, FilterLevel, ServerStatus};
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::market::{MarketInfo, SelectionPolicy};
use faucets_core::money::Money;
use faucets_core::qos::QosContract;
use faucets_core::server::FaucetsServer;
use faucets_net::pool::PendingMap;
use faucets_net::prelude::{spawn_replica, RemoteLink, ReplicaOptions};
use faucets_net::proto::{read_frame, write_frame, Envelope, Request, Response, MAX_FRAME};
use faucets_net::reactor::FrameBuf;
use faucets_net::service::CallOptions;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_sim::time::{SimDuration, SimTime};
use faucets_store::wal::{NoopObserver, Wal, WalOptions};
use faucets_store::{
    Durable, DurableStore, FollowerOptions, FollowerStore, LocalLink, ReplOptions, ReplicaLink,
    ReplicatedStore, StoreOptions,
};
use faucets_telemetry::metrics::{MetricsSnapshot, Registry};
use faucets_telemetry::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Wall time one isolated measurement may take.
const BUDGET: Duration = Duration::from_millis(60);

/// Mean µs per call of `f`, calling it repeatedly for about [`BUDGET`].
fn time_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..4 {
        f();
    }
    let begun = Instant::now();
    let mut calls = 0u64;
    while begun.elapsed() < BUDGET {
        for _ in 0..8 {
            f();
        }
        calls += 8;
    }
    begun.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// The registry's movement between two snapshots.
pub struct Window<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Window<'_> {
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        (self.after.counter_sum(name, labels) - self.before.counter_sum(name, labels)) as f64
    }

    /// `(samples, sum of samples)` a histogram gained.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> (f64, f64) {
        let (a, b) = (
            self.after.histogram_sum(name, labels),
            self.before.histogram_sum(name, labels),
        );
        ((a.count - b.count) as f64, a.sum - b.sum)
    }

    /// Mean of the samples a histogram gained, 0 when it gained none.
    pub fn histogram_mean(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let (count, sum) = self.histogram(name, labels);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counts from the registry over the saturate window in which `units`
/// units completed in `wall_s` seconds.
pub fn registry_counts(w: &Window, units: f64, wall_s: f64, out: &mut Values) {
    let all: &[(&str, &str)] = &[];
    out.insert(
        "reactor.wakeups_per_op",
        ratio(w.counter("net_reactor_wakeups_total", all), units),
    );
    out.insert(
        "reactor.ready_events_per_op",
        ratio(w.histogram("net_reactor_ready_events", all).1, units),
    );
    out.insert(
        "service.rpcs_per_op",
        ratio(w.counter("net_requests_total", all), units),
    );
    out.insert(
        "service.overload_rejections",
        w.counter("net_overload_rejections_total", all),
    );
    out.insert(
        "service.call_retries",
        w.counter("net_call_retries_total", all),
    );

    let hits = w.counter("net_pool_hits_total", all) + w.counter("net_mux_hits_total", all);
    let dials = w.counter("net_pool_misses_total", all) + w.counter("net_mux_dials_total", all);
    out.insert("pool.hit_ratio", ratio(hits, hits + dials));
    out.insert("pool.dials_per_kop", ratio(dials * 1e3, units));
    out.insert(
        "pool.stale_retries",
        w.counter("net_pool_stale_retries_total", all)
            + w.counter("net_mux_stale_retries_total", all),
    );

    let handler_us = |service: &str, endpoint: &str| {
        w.histogram_mean(
            "net_request_seconds",
            &[("service", service), ("endpoint", endpoint)],
        ) * 1e6
    };
    out.insert("fs.handler_us.verify", handler_us("fs", "VerifyToken"));
    out.insert("fs.handler_us.list", handler_us("fs", "ListServers"));
    out.insert(
        "fs.busy_share",
        ratio(
            w.histogram("net_request_seconds", &[("service", "fs")]).1,
            wall_s,
        ),
    );
    out.insert("fd.handler_us.bid", handler_us("fd", "RequestBid"));
    out.insert("fd.handler_us.award", handler_us("fd", "Award"));
    out.insert(
        "fd.journal_writes_per_op",
        ratio(w.counter("fd_journal_writes_total", all), units),
    );
    out.insert(
        "appspector.rpcs_per_job",
        ratio(
            w.counter("net_requests_total", &[("service", "appspector")]),
            units,
        ),
    );

    // One group commit is one flush to the disk where flushing is on
    // (`grid::FSYNC`), and the point where it would be where it is off.
    let (commits, _) = w.histogram("store_commit_batch_size", all);
    out.insert("store.fsyncs_per_op", ratio(commits, units));
    out.insert(
        "store.batch_mean",
        w.histogram_mean("store_commit_batch_size", all),
    );
    out.insert(
        "store.compactions",
        w.counter("store_compactions_total", all),
    );
    out.insert(
        "replica.ship_rpcs_per_op",
        ratio(
            w.counter("net_requests_total", &[("service", "replica")]),
            units,
        ),
    );
    out.insert(
        "replica.frames_per_ship",
        ratio(
            w.counter("repl_shipped_frames_total", all),
            w.counter(
                "net_requests_total",
                &[("service", "replica"), ("endpoint", "ReplAppend")],
            ),
        ),
    );
}

/// `proto`, `reactor`, `pool` and `telemetry` in isolation, on the
/// workload's own request and reply frames.
pub fn net_isolation(probes: &Probes, out: &mut Values) {
    let (req, reply) = &probes.frames;
    let req_env = Envelope {
        ctx: None,
        deadline_ms: Some(2000),
        request_id: Some(7),
        msg: req.clone(),
    };
    let reply_env = Envelope {
        ctx: None,
        deadline_ms: None,
        request_id: Some(7),
        msg: reply.clone(),
    };
    let mut req_frame = Vec::new();
    let mut reply_frame = Vec::new();
    write_frame(&mut req_frame, &req_env).expect("request envelope encodes");
    write_frame(&mut reply_frame, &reply_env).expect("reply envelope encodes");

    // Each timed call handles one request and one reply frame: halve it.
    let mut buf = Vec::with_capacity(req_frame.len() + reply_frame.len());
    let encode = time_us(|| {
        buf.clear();
        write_frame(&mut buf, black_box(&req_env)).expect("encodes");
        write_frame(&mut buf, black_box(&reply_env)).expect("encodes");
        black_box(&buf);
    }) / 2.0;
    let decode = time_us(|| {
        let a: Option<Envelope<Request>> =
            read_frame(&mut black_box(req_frame.as_slice())).expect("decodes");
        let b: Option<Envelope<Response>> =
            read_frame(&mut black_box(reply_frame.as_slice())).expect("decodes");
        black_box((a, b));
    }) / 2.0;
    out.insert("proto.encode_us", encode);
    out.insert("proto.decode_us", decode);
    out.insert(
        "proto.frame_bytes",
        (req_frame.len() + reply_frame.len()) as f64 / 2.0,
    );

    let mut frames = FrameBuf::new(MAX_FRAME as usize);
    let framebuf = time_us(|| {
        frames.extend(black_box(&req_frame));
        frames.extend(black_box(&reply_frame));
        black_box(frames.next_frame().expect("bounded frame"));
        black_box(frames.next_frame().expect("bounded frame"));
    }) / 2.0;
    out.insert("reactor.framebuf_us", framebuf);

    let pending = Arc::new(PendingMap::new());
    let mut id = 0u64;
    out.insert(
        "pool.pending_us",
        time_us(|| {
            id += 1;
            let ticket = pending.register(id);
            pending.complete(id, Response::Ok);
            black_box(pending.wait(ticket, Duration::from_secs(1)).is_ok());
        }),
    );

    // A registry of the harness's own, so the probes leave the program's
    // global registry as the run left it.
    let registry = Registry::new();
    let labels = [("service", "bench"), ("endpoint", "Probe")];
    out.insert(
        "telemetry.counter_lookup_ns",
        time_us(|| {
            registry
                .counter("net_requests_total", black_box(&labels))
                .inc()
        }) * 1e3,
    );
    let held = registry.counter("net_requests_total", &labels);
    out.insert(
        "telemetry.counter_handle_ns",
        time_us(|| black_box(&held).inc()) * 1e3,
    );
    out.insert(
        "telemetry.span_ns",
        time_us(|| drop(black_box(trace::server_span(None, "bench", "Probe")))) * 1e3,
    );
    trace::clear();
}

fn running_jobs(cluster: &mut Cluster, qos: &QosContract, count: u64, now: SimTime) {
    for i in 0..count {
        let spec = JobSpec::new(JobId(1_000_000 + i), UserId(1), qos.clone(), now)
            .expect("pool contracts are valid");
        cluster.submit_job(spec, ContractId(1_000_000 + i), Money::from_units(1), now);
    }
    cluster.on_time(now);
}

fn fresh_cluster() -> (FaucetsDaemon, Cluster) {
    let machine = MachineSpec::commodity(ClusterId(1), "iso", crate::grid::PES);
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 1),
        ["namd".to_string()],
        Box::new(faucets_core::market::Baseline),
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    (daemon, cluster)
}

/// `core` and `sched` in isolation: matching, token verification, bid,
/// award and ranking on in-process objects holding `running` jobs (the
/// workload's mean running-job count).
pub fn market_isolation(qos: &QosContract, running: u64, out: &mut Values) {
    let now = SimTime::from_secs(10);
    for (metric, servers) in [("core.match_us_4", 4u64), ("core.match_us_256", 256)] {
        let mut dir = Directory::new(SimDuration::from_secs(90));
        for c in 1..=servers {
            let machine = MachineSpec::commodity(ClusterId(c), format!("cs{c}"), crate::grid::PES);
            dir.register(
                machine.server_info("127.0.0.1", 1),
                ["namd".to_string()],
                now,
            );
            dir.heartbeat(ClusterId(c), ServerStatus::default(), now);
        }
        out.insert(
            metric,
            time_us(|| {
                black_box(dir.candidates(black_box(qos), FilterLevel::Static, now));
            }),
        );
    }

    let mut server = FaucetsServer::with_defaults();
    let mut rng = StdRng::seed_from_u64(1);
    server
        .create_user("iso", "pw", &mut rng)
        .expect("fresh user database");
    let (user, token) = server
        .login("iso", "pw", now, &mut rng)
        .expect("just-created account");
    out.insert(
        "core.verify_token_us",
        time_us(|| {
            black_box(server.verify_token(black_box(&token), now).is_ok());
        }),
    );

    let (mut daemon, mut cluster) = fresh_cluster();
    running_jobs(&mut cluster, qos, running, now);
    let request = BidRequest {
        job: JobId(1),
        user,
        qos: qos.clone(),
        issued_at: now,
    };
    out.insert(
        "core.bid_us",
        time_us(|| {
            black_box(daemon.handle_bid_request(
                &request,
                &mut cluster,
                &MarketInfo::default(),
                now,
            ));
        }),
    );
    let offer = daemon.handle_bid_request(&request, &mut cluster, &MarketInfo::default(), now);
    let bid = *offer.offer().expect("an idle cluster bids on a pool job");
    out.insert(
        "core.rank_us",
        time_us(|| {
            black_box(SelectionPolicy::LeastCost.rank(black_box(&[bid; 4]), &qos.payoff));
        }),
    );

    // Awards and submissions grow the cluster they land on, so each is
    // timed in rounds on a cluster freshly loaded with `running` jobs.
    let (mut award_us, mut submit_us, mut on_time_us) = (vec![], vec![], vec![]);
    let begun = Instant::now();
    let mut next = 1u64;
    while begun.elapsed() < 3 * BUDGET {
        let (mut daemon, mut cluster) = fresh_cluster();
        running_jobs(&mut cluster, qos, running, now);
        let spec = |n: u64| {
            JobSpec::new(JobId(n), user, qos.clone(), now).expect("pool contracts are valid")
        };
        let t = Instant::now();
        for _ in 0..16 {
            next += 1;
            let outcome =
                daemon.handle_award(spec(next), ContractId(next), &bid, &mut cluster, now);
            black_box(outcome.is_ok());
        }
        award_us.push(t.elapsed().as_secs_f64() * 1e6 / 16.0);

        let (_, mut cluster) = fresh_cluster();
        running_jobs(&mut cluster, qos, running, now);
        let t = Instant::now();
        for _ in 0..16 {
            next += 1;
            cluster.submit_job(spec(next), ContractId(next), bid.price, now);
        }
        submit_us.push(t.elapsed().as_secs_f64() * 1e6 / 16.0);
        let t = Instant::now();
        for step in 1..=16u64 {
            black_box(cluster.on_time(now.saturating_add(SimDuration(step))));
        }
        on_time_us.push(t.elapsed().as_secs_f64() * 1e6 / 16.0);
        // `probe` is what both daemon calls spend their time in.
        black_box(cluster.probe(&request, now).is_ok());
    }
    out.insert("core.award_us", crate::stats::mean(&award_us));
    out.insert("sched.submit_us", crate::stats::mean(&submit_us));
    out.insert("sched.on_time_us", crate::stats::mean(&on_time_us));
}

/// A journal of opaque text records: the smallest `Durable` there is.
#[derive(Default)]
struct TextLog(Vec<String>);

impl Durable for TextLog {
    type Record = String;
    type Snapshot = Vec<String>;
    fn apply(&mut self, rec: &String) {
        self.0.push(rec.clone());
    }
    fn snapshot(&self) -> Vec<String> {
        self.0.clone()
    }
    fn restore(snap: Vec<String>) -> Self {
        TextLog(snap)
    }
}

/// Store options for isolated journals: fsync on, as the FDs run, under a
/// telemetry label of their own.
fn iso_store() -> StoreOptions {
    StoreOptions {
        service: "bench-iso".into(),
        ..StoreOptions::default()
    }
}

/// `store` and `replica` in isolation, on the `Accept` record an FD
/// journaled during the run. `dir` is scratch space inside the run's
/// temp directory.
pub fn journal_isolation(accept: &[u8], dir: &Path, out: &mut Values) -> std::io::Result<()> {
    let io = std::io::Error::other::<faucets_store::StoreError>;
    std::fs::create_dir_all(dir)?;
    for (metric, no_fsync) in [("store.append_us", true), ("store.append_fsync_us", false)] {
        let wal = Wal::create(
            &dir.join(format!("{metric}.wal")),
            1,
            WalOptions {
                no_fsync,
                fault: None,
            },
            Arc::new(NoopObserver),
        )
        .map_err(io)?;
        out.insert(
            metric,
            time_us(|| {
                black_box(wal.append(black_box(accept)).is_ok());
            }),
        );
    }

    // What one flush costs on the sandbox's disk.
    out.insert(
        "store.fsync_ms_mean",
        (out["store.append_fsync_us"] - out["store.append_us"]) / 1e3,
    );

    // `DurableStore` journals typed records; the Accept record's own type
    // is private to the FD, so its JSON text rides as a string record.
    let record = String::from_utf8_lossy(accept).into_owned();
    let (store, _) =
        DurableStore::open(dir.join("commit"), TextLog::default(), iso_store()).map_err(io)?;
    out.insert(
        "store.commit_us",
        time_us(|| {
            black_box(store.commit(black_box(&record)).is_ok());
        }),
    );

    let follower = |name: &str| {
        FollowerStore::open(
            dir.join(name),
            FollowerOptions {
                service: "bench-iso".into(),
                no_fsync: false,
            },
        )
        .map(Arc::new)
    };
    let links: Vec<Arc<dyn ReplicaLink>> = vec![
        Arc::new(LocalLink(follower("local-f0").map_err(io)?)),
        Arc::new(LocalLink(follower("local-f1").map_err(io)?)),
    ];
    let (local, _) = ReplicatedStore::open(
        dir.join("local-primary"),
        TextLog::default(),
        ReplOptions {
            store: iso_store(),
            links,
            ..ReplOptions::default()
        },
    )
    .map_err(io)?;
    out.insert(
        "replica.commit_local_us",
        time_us(|| {
            black_box(local.commit(black_box(&record)).is_ok());
        }),
    );

    let daemons: Vec<_> = (0..2)
        .map(|f| {
            spawn_replica(
                "127.0.0.1:0",
                &[("bench-iso".to_string(), dir.join(format!("remote-f{f}")))],
                ReplicaOptions::default(),
            )
        })
        .collect::<Result<_, _>>()?;
    let call = faucets_net::replica::ReplicationConfig::default().call;
    let links: Vec<Arc<dyn ReplicaLink>> = daemons
        .iter()
        .map(|d| {
            Arc::new(RemoteLink::new(
                d.addr,
                "bench-iso",
                CallOptions::clone(&call),
            )) as Arc<dyn ReplicaLink>
        })
        .collect();
    let (remote, _) = ReplicatedStore::open(
        dir.join("remote-primary"),
        TextLog::default(),
        ReplOptions {
            store: iso_store(),
            links,
            ..ReplOptions::default()
        },
    )
    .map_err(io)?;
    out.insert(
        "replica.commit_remote_us",
        time_us(|| {
            black_box(remote.commit(black_box(&record)).is_ok());
        }),
    );
    remote.shutdown();
    local.shutdown();
    Ok(())
}
