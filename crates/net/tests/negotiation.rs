//! The live client negotiates as `faucets_core::market::round` decides.
//!
//! Stand-in services on loopback: an FS that lists a scripted set of
//! daemons, and up to 16 raw-socket FDs that each bid a scripted price
//! and answer an award with a scripted verdict — confirm, renege, a
//! dropped connection (a transport error) or `Overloaded`. Every script
//! also runs through `round::Negotiation` in-process, driven the way the
//! simulator drives it, and the two runs must agree on the award, the
//! number of award attempts and the number of rounds. The FDs count from
//! the wire what the client did: rounds are `ListServers` calls, and an
//! attempt is a round in which a daemon saw an `Award`.

use faucets_core::auth::SessionToken;
use faucets_core::bid::{Bid, BidResponse};
use faucets_core::directory::{ServerListing, ServerStatus};
use faucets_core::ids::{BidId, ClusterId, JobId, UserId};
use faucets_core::market::{Negotiation, SelectionPolicy};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder, QosContract};
use faucets_net::prelude::*;
use faucets_net::proto::{read_frame_with, write_frame_with};
use faucets_sched::machine::MachineSpec;
use faucets_sim::check::for_seeds;
use faucets_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};

const FDS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Confirm,
    Renege,
    Transport,
    Overloaded,
}

/// One scripted market: daemon `i` is cluster `i + 1`.
#[derive(Debug, Clone)]
struct Script {
    policy: SelectionPolicy,
    qos: QosContract,
    bids: Vec<Bid>,
    verdicts: Vec<Verdict>,
    /// The daemons the FS lists, in order; some twice.
    listed: Vec<usize>,
}

fn script(rng: &mut StdRng) -> Script {
    let n = rng.random_range(1..=FDS);
    let bids = (0..n)
        .map(|i| Bid {
            id: BidId(i as u64),
            cluster: ClusterId(i as u64 + 1),
            job: JobId(0),
            multiplier: 1.0,
            price: Money::from_units(rng.random_range(1..=200)),
            promised_completion: SimTime::from_secs(rng.random_range(60..=7_200)),
            planned_pes: 8,
        })
        .collect();
    let verdicts = (0..n)
        .map(|_| {
            let all = [
                Verdict::Confirm,
                Verdict::Renege,
                Verdict::Transport,
                Verdict::Overloaded,
            ];
            all[rng.random_range(0..all.len())]
        })
        .collect();
    let policy = [
        SelectionPolicy::LeastCost,
        SelectionPolicy::EarliestCompletion,
        SelectionPolicy::Weighted {
            time_value_per_hour: Money::from_units(10),
        },
        SelectionPolicy::BestValue,
    ][rng.random_range(0..4usize)];
    let mut listed: Vec<usize> = (0..n).collect();
    for i in 0..n {
        if rng.random_range(0..8) == 0 {
            listed.insert(rng.random_range(0..=listed.len()), i);
        }
    }
    Script {
        policy,
        qos: qos(Money::from_units(100)),
        bids,
        verdicts,
        listed,
    }
}

/// A job paying `pay` until an hour in, decaying to a fifth of it at two.
fn qos(pay: Money) -> QosContract {
    let mut qos = QosBuilder::new("namd", 8, 8, 3_600.0).build().unwrap();
    qos.payoff = PayoffFn {
        soft_deadline: SimTime::from_secs(3_600),
        hard_deadline: SimTime::from_secs(7_200),
        payoff_soft: pay,
        payoff_hard: Money::from_units_f64(pay.as_units_f64() / 5.0),
        penalty_late: Money::ZERO,
    };
    qos
}

/// The award, the award attempts and the rounds of one negotiation.
type Outcome = (Option<(ClusterId, Money)>, u32, u32);

/// The script through `round::Negotiation`, as the simulator drives it:
/// solicit, award down the slate, solicit again while a round is left.
fn modelled(s: &Script) -> Outcome {
    let mut n = Negotiation::default();
    let mut placed = None;
    while placed.is_none() && n.next_round() {
        n.offers(s.policy, &s.bids, &s.qos.payoff);
        placed = n.award_down(|b| s.verdicts[b.cluster.raw() as usize - 1] == Verdict::Confirm);
    }
    (
        placed.map(|b| (b.cluster, b.price)),
        n.attempts(),
        n.rounds(),
    )
}

/// What the stand-ins are scripted to say, and what they saw.
#[derive(Default)]
struct Market {
    script: Option<Script>,
    listing: Vec<ServerListing>,
    lists: u32,
    awards: u32,
    attempts: u32,
    awarded_this_round: Vec<bool>,
}

impl Market {
    /// Daemon `i`'s answer to `req`; `None` hangs up instead.
    fn answer(&mut self, i: usize, req: Request) -> Option<Response> {
        let s = self.script.as_ref().expect("a script is loaded");
        match req {
            Request::RequestBid { request, .. } => {
                self.awarded_this_round[i] = false;
                let bid = Bid {
                    job: request.job,
                    ..s.bids[i]
                };
                Some(Response::BidReply(BidResponse::Offer(bid)))
            }
            Request::Award { .. } => {
                let verdict = s.verdicts[i];
                self.awards += 1;
                if !std::mem::replace(&mut self.awarded_this_round[i], true) {
                    self.attempts += 1;
                }
                let reply = |confirmed| Response::AwardReply {
                    confirmed,
                    reason: None,
                };
                match verdict {
                    Verdict::Confirm => Some(reply(true)),
                    Verdict::Renege => Some(reply(false)),
                    Verdict::Overloaded => Some(Response::Overloaded { retry_after_ms: 1 }),
                    Verdict::Transport => None,
                }
            }
            other => Some(Response::Error(format!("stand-in FD: {other:?}"))),
        }
    }
}

/// The stand-in FS and FDs, and a client logged in through them.
struct StandIns {
    market: Arc<Mutex<Market>>,
    fds: Vec<SocketAddr>,
    fs: ServiceHandle,
    client: FaucetsClient,
}

/// One raw-socket FD: a thread per connection, frames answered in order.
fn stand_in_fd(i: usize, market: Arc<Mutex<Market>>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let market = Arc::clone(&market);
            std::thread::spawn(move || {
                while let Ok(Some(env)) = read_frame_with::<_, Envelope<Request>>(&mut stream, None)
                {
                    let Some(reply) = market.lock().unwrap().answer(i, env.msg) else {
                        return; // drop the connection: a transport error
                    };
                    let reply = Envelope {
                        request_id: env.request_id,
                        ..Envelope::wrap(reply)
                    };
                    if write_frame_with(&mut stream, &reply, None).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

impl StandIns {
    fn new() -> Self {
        let market = Arc::new(Mutex::new(Market::default()));
        let fds: Vec<SocketAddr> = (0..FDS)
            .map(|i| stand_in_fd(i, Arc::clone(&market)))
            .collect();
        let fs_market = Arc::clone(&market);
        let fs = serve("127.0.0.1:0", "standin-fs", move |req| match req {
            Request::Login { .. } => Response::Session {
                user: UserId(1),
                token: SessionToken("t".into()),
            },
            Request::ListServers { .. } => {
                let mut m = fs_market.lock().unwrap();
                m.lists += 1;
                Response::Servers(m.listing.clone())
            }
            other => Response::Error(format!("stand-in FS: {other:?}")),
        })
        .unwrap();
        let mut client =
            FaucetsClient::login(fs.addr, fs.addr, Clock::realtime(), "u", "p").unwrap();
        // A dropped award fails at once, not after three backoffs.
        client.retry = RetryPolicy::none();
        StandIns {
            market,
            fds,
            fs,
            client,
        }
    }

    /// Run `s` through the live client: its result, and the market's view.
    fn submit(&mut self, s: &Script) -> (Result<Submission, ClientError>, Outcome, u32) {
        {
            let mut m = self.market.lock().unwrap();
            m.listing = s
                .listed
                .iter()
                .map(|&i| {
                    let machine = MachineSpec::commodity(ClusterId(i as u64 + 1), "fd", 64);
                    ServerListing {
                        info: machine.server_info("127.0.0.1", self.fds[i].port()),
                        status: ServerStatus::default(),
                    }
                })
                .collect();
            m.script = Some(s.clone());
            (m.lists, m.awards, m.attempts) = (0, 0, 0);
            m.awarded_this_round = vec![false; FDS];
        }
        self.client.selection = s.policy;
        let result = self.client.submit(s.qos.clone(), &[]);
        let m = self.market.lock().unwrap();
        let placed = result.as_ref().ok().map(|sub| (sub.cluster, sub.price));
        (result, (placed, m.attempts, m.lists), m.awards)
    }
}

#[test]
fn the_live_client_awards_as_the_round_module_does() {
    let mut live = StandIns::new();
    for_seeds(1_000, |rng| {
        let s = script(rng);
        let (result, outcome, _) = live.submit(&s);
        assert_eq!(outcome, modelled(&s), "{s:?}\n{result:?}");
        if let Ok(sub) = result {
            assert_eq!(sub.rounds, outcome.2);
        }
    });
    live.fs.shutdown();
}

/// Regression: the client awarded down `rank`, so under `BestValue` it
/// awarded a bid that loses the client money — one `select` refuses.
#[test]
fn best_value_never_awards_a_money_loser() {
    let mut live = StandIns::new();
    let mut s = script(&mut rand::SeedableRng::seed_from_u64(0));
    s.policy = SelectionPolicy::BestValue;
    s.bids.truncate(1);
    s.bids[0].price = Money::from_units(500); // for a job paying $100
    s.verdicts = vec![Verdict::Confirm];
    s.listed = vec![0];
    let (result, (_, attempts, rounds), awards) = live.submit(&s);
    assert_eq!(awards, 0, "no Award frame reached the daemon");
    assert_eq!((attempts, rounds), (0, 1));
    assert_eq!(result, Err(ClientError::AllDeclined { solicited: 1 }));
    live.fs.shutdown();
}
