//! `faucets` — the command-line client and service launcher.
//!
//! §2: *"The user interacts with the system using a web browser or a
//! command-line client or a GUI client."* This is the command-line client,
//! plus launchers for the three services, so a whole Figure-1 grid can be
//! assembled from shells:
//!
//! ```text
//! faucets fs         --addr 127.0.0.1:7700
//! faucets appspector --addr 127.0.0.1:7701 --fs 127.0.0.1:7700
//! faucets fd --addr 127.0.0.1:7710 --fs 127.0.0.1:7700 \
//!            --appspector 127.0.0.1:7701 --name turing --pes 256 \
//!            --policy equipartition --strategy util-interp
//! faucets register --fs 127.0.0.1:7700 --user alice --password pw
//! faucets submit --fs 127.0.0.1:7700 --appspector 127.0.0.1:7701 \
//!            --user alice --password pw --app namd --minpe 8 --maxpe 32 \
//!            --cpu-seconds 7200 --deadline-hours 2 --file input.psf
//! ```
//!
//! Every service accepts `--speedup <x>` to run its scheduler clock at x
//! simulated seconds per wall second (demos in seconds instead of hours).
//! Note that each process starts its own clock at launch, so start the
//! services before submitting when using large speedups.

use faucets_core::appspector::render_submission_form;
use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::machine::MachineSpec;
use faucets_sim::time::SimDuration;
use std::net::SocketAddr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: faucets <fs|appspector|fd|register|submit|watch> [--flag value ...]\n\
         run `faucets help` or see the module docs for the full flag list"
    );
    std::process::exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn get(&self, name: &str) -> Option<String> {
        self.0
            .iter()
            .position(|a| a == &format!("--{name}"))
            .and_then(|i| self.0.get(i + 1).cloned())
    }
    fn req(&self, name: &str) -> String {
        self.get(name).unwrap_or_else(|| {
            eprintln!("missing required flag --{name}");
            std::process::exit(2);
        })
    }
    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
    fn addr(&self, name: &str) -> SocketAddr {
        self.req(name).parse().unwrap_or_else(|e| {
            eprintln!("bad --{name}: {e}");
            std::process::exit(2);
        })
    }
}

/// A started service, or one line and exit 1 when it cannot start (its
/// port is taken, say) — not a panic's backtrace.
fn started<T>(what: &str, addr: &str, r: std::io::Result<T>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("cannot start {what} on {addr}: {e}");
        std::process::exit(1);
    })
}

fn block_forever() -> ! {
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        usage()
    };
    let args = Args(argv[1..].to_vec());
    let speedup: f64 = args.parse("speedup", 1.0);
    let clock = Clock::new(speedup);

    match cmd.as_str() {
        "fs" => {
            let addr = args.get("addr").unwrap_or_else(|| "127.0.0.1:7700".into());
            let seed: u64 = args.parse("seed", 7);
            let h = started("FS", &addr, spawn_fs(&addr, clock, seed));
            println!("Faucets Central Server listening on {}", h.service.addr);
            block_forever();
        }
        "appspector" => {
            let addr = args.get("addr").unwrap_or_else(|| "127.0.0.1:7701".into());
            let fs = args.addr("fs");
            let spawned = spawn_appspector(&addr, fs, args.parse("buffer", 64));
            let h = started("AppSpector", &addr, spawned);
            println!("AppSpector server listening on {}", h.service.addr);
            block_forever();
        }
        "fd" => {
            let addr = args.get("addr").unwrap_or_else(|| "127.0.0.1:0".into());
            let fs = args.addr("fs");
            let aspect = args.addr("appspector");
            let name = args.get("name").unwrap_or_else(|| "cluster".into());
            let pes: u32 = args.parse("pes", 128);
            let id: u64 = args.parse("cluster-id", 1);
            let policy = args.get("policy").unwrap_or_else(|| "equipartition".into());
            let strategy = args.get("strategy").unwrap_or_else(|| "baseline".into());
            let apps = args.get("apps").unwrap_or_else(|| "namd,cfd,qmc".into());
            let cost = Money::from_units_f64(args.parse("cost-per-cpusec", 0.01));

            let machine = MachineSpec::commodity(ClusterId(id), name.clone(), pes);
            let daemon = FaucetsDaemon::new(
                machine.server_info("127.0.0.1", 0),
                apps.split(',').map(str::to_string),
                faucets_core::market::strategy::by_name(&strategy),
                cost,
            );
            let cluster = Cluster::new(
                machine,
                faucets_sched::policy::by_name(&policy),
                ResizeCostModel::default(),
            );
            let opts = FdOptions::default();
            let spawned = spawn_fd_with(&addr, daemon, cluster, fs, aspect, clock, opts);
            let h = started("FD", &addr, spawned);
            println!(
                "Faucets Daemon '{name}' ({pes} PEs, {policy}/{strategy}) on {} — registered with {fs}",
                h.service.addr
            );
            block_forever();
        }
        "register" => {
            let fs = args.addr("fs");
            let r = call(
                fs,
                &Request::CreateUser {
                    user: args.req("user"),
                    password: args.req("password"),
                },
            );
            match r {
                Ok(Response::Verified { user }) => println!("account created: {user}"),
                other => {
                    eprintln!("registration failed: {other:?}");
                    std::process::exit(1);
                }
            }
        }
        "submit" => {
            let fs = args.addr("fs");
            let aspect = args.addr("appspector");
            let mut client = FaucetsClient::login(
                fs,
                aspect,
                clock.clone(),
                &args.req("user"),
                &args.req("password"),
            )
            .unwrap_or_else(|e| {
                eprintln!("login failed: {e}");
                std::process::exit(1);
            });

            let cpu: f64 = args.parse("cpu-seconds", 3600.0);
            let deadline_h: f64 = args.parse("deadline-hours", 4.0);
            let payoff: i64 = args.parse("payoff", 100);
            let qos = QosBuilder::new(
                args.get("app").unwrap_or_else(|| "namd".into()),
                args.parse("minpe", 8),
                args.parse("maxpe", 32),
                cpu,
            )
            .efficiency(0.95, 0.8)
            .adaptive()
            .payoff(PayoffFn::hard_only(
                clock
                    .now()
                    .saturating_add(SimDuration::from_secs_f64(deadline_h * 3600.0)),
                Money::from_units(payoff),
                Money::from_units(payoff / 5),
            ))
            .build()
            .unwrap_or_else(|e| {
                eprintln!("invalid job: {e}");
                std::process::exit(1);
            });

            // Stage files named on the command line.
            let mut inputs = vec![];
            let mut names = vec![];
            let mut it = args.0.iter();
            while let Some(a) = it.next() {
                if a == "--file" {
                    if let Some(path) = it.next() {
                        let data = std::fs::read(path).unwrap_or_else(|e| {
                            eprintln!("cannot read {path}: {e}");
                            std::process::exit(1);
                        });
                        names.push(path.clone());
                        inputs.push((path.clone(), data));
                    }
                }
            }
            print!("{}", render_submission_form(&qos, &names));

            match client.submit(qos, &inputs) {
                Ok(sub) => {
                    println!(
                        "{} awarded to {} for {} ({} bids, promised by {})",
                        sub.job, sub.cluster, sub.price, sub.bids_received, sub.promised_completion
                    );
                    if args.get("no-wait").is_none() {
                        println!("waiting for completion (ctrl-c to stop watching)...");
                        match client.wait(
                            sub.job,
                            Duration::from_secs(args.parse("timeout-secs", 600)),
                        ) {
                            Ok(snap) => print!("{}", snap.render_display()),
                            Err(e) => eprintln!("{e}"),
                        }
                    } else {
                        println!("watch later with: faucets watch --job {}", sub.job.raw());
                    }
                }
                Err(e) => {
                    eprintln!("submission failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "watch" => {
            let fs = args.addr("fs");
            let aspect = args.addr("appspector");
            let mut client =
                FaucetsClient::login(fs, aspect, clock, &args.req("user"), &args.req("password"))
                    .unwrap_or_else(|e| {
                        eprintln!("login failed: {e}");
                        std::process::exit(1);
                    });
            let job = faucets_core::ids::JobId(args.parse("job", 0));
            match client.watch(job) {
                Ok(snap) => print!("{}", snap.render_display()),
                Err(e) => {
                    eprintln!("watch failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "help" | "--help" | "-h" => {
            println!(
                "faucets — compute power as a utility (ICPP 2004 reproduction)\n\n\
                 services:\n\
                 \x20 faucets fs         --addr A [--speedup X]\n\
                 \x20 faucets appspector --addr A --fs FS\n\
                 \x20 faucets fd         --addr A --fs FS --appspector AS --name N --pes P\n\
                 \x20                    [--policy fcfs|easy-backfill|equipartition|profit|intranet-priority]\n\
                 \x20                    [--strategy baseline|util-interp|deadline-aware|weather-aware]\n\
                 client:\n\
                 \x20 faucets register --fs FS --user U --password P\n\
                 \x20 faucets submit   --fs FS --appspector AS --user U --password P\n\
                 \x20                  [--app namd --minpe 8 --maxpe 32 --cpu-seconds 3600]\n\
                 \x20                  [--deadline-hours 4 --payoff 100 --file F ... --no-wait]\n\
                 \x20 faucets watch    --fs FS --appspector AS --user U --password P --job N"
            );
        }
        _ => usage(),
    }
}
