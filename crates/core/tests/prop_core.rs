//! Property tests for the core market machinery: payoff monotonicity, bid
//! conversion, contract-book state safety, selection optimality, history
//! windows, and ledger conservation under arbitrary transfer programs.

use faucets_core::accounting::{AccountId, Ledger};
use faucets_core::bid::Bid;
use faucets_core::ids::{BidId, ClusterId, JobId, UserId};
use faucets_core::market::{ContractBook, ContractState, SelectionPolicy};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder, SpeedupModel};
use faucets_sim::check::{for_seeds, vec_of};
use faucets_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

fn payoff(rng: &mut StdRng) -> PayoffFn {
    let soft = rng.random_range(0u64..100_000);
    let extra = rng.random_range(0u64..100_000);
    let pay_soft = rng.random_range(0i64..10_000);
    let pay_drop = rng.random_range(0i64..10_000);
    let penalty = rng.random_range(0i64..5_000);
    PayoffFn {
        soft_deadline: SimTime::from_secs(soft),
        hard_deadline: SimTime::from_secs(soft + extra),
        payoff_soft: Money::from_units(pay_soft),
        payoff_hard: Money::from_units((pay_soft - pay_drop).max(0).min(pay_soft)),
        penalty_late: Money::from_units(penalty),
    }
}

/// Payoff is non-increasing in completion time — finishing earlier can
/// never pay less. (The economic sanity every scheduler relies on.)
#[test]
fn payoff_monotone_nonincreasing() {
    for_seeds(256, |rng| {
        let p = payoff(rng);
        let mut ts = vec_of(rng, 2..50, |rng| rng.random_range(0u64..300_000));
        assert!(p.validate().is_ok(), "{:?}", p.validate());
        ts.sort_unstable();
        let mut prev = p.payoff_at(SimTime::from_secs(ts[0]));
        for &t in &ts[1..] {
            let v = p.payoff_at(SimTime::from_secs(t));
            assert!(v <= prev, "payoff rose from {prev} to {v} at t={t}");
            prev = v;
        }
    });
}

/// Wall time and work rate are mutually consistent (rate × wall = work)
/// at every size, and out-of-range requests clamp to the boundary.
/// (Note: wall time is *not* necessarily monotone in processors — a
/// steep efficiency decay legitimately makes extra processors a loss,
/// which is exactly why the QoS carries a `max_pes` bound.)
#[test]
fn wall_time_consistent_with_rate() {
    for_seeds(256, |rng| {
        wall_time_is_consistent(
            rng.random_range(1u32..64),
            rng.random_range(1u32..192),
            rng.random_range(10.0f64..1e6),
            rng.random_range(0.5f64..1.0),
            rng.random_range(0.0f64..0.45),
        )
    });
}

/// The one case proptest had saved for the property above
/// (`proptest_core.proptest-regressions`), kept now that the file is gone.
#[test]
fn wall_time_consistent_at_the_saved_case() {
    wall_time_is_consistent(25, 1, 10.0, 0.5, 0.2428996157226737);
}

fn wall_time_is_consistent(min_pes: u32, extra: u32, work: f64, eff_hi: f64, eff_drop: f64) {
    let max_pes = min_pes + extra;
    let qos = QosBuilder::new("x", min_pes, max_pes, work)
        .efficiency(eff_hi, eff_hi - eff_drop)
        .build()
        .unwrap();
    for pes in [min_pes, min_pes + extra / 2, max_pes] {
        let rate = qos.speedup.work_rate(pes, min_pes, max_pes);
        let wall = qos.speedup.wall_seconds(work, pes, min_pes, max_pes);
        assert!(
            (rate * wall - work).abs() / work < 1e-9,
            "rate×wall != work at {pes}"
        );
    }
    // Clamping: asking for more than max or fewer than min is the same
    // as asking for the boundary.
    assert_eq!(
        qos.wall_time_on(max_pes + 1000, 1.0),
        qos.wall_time_on(max_pes, 1.0)
    );
    assert_eq!(qos.wall_time_on(0, 1.0), qos.wall_time_on(min_pes, 1.0));
}

/// The selection winner really is arg-min of its criterion.
#[test]
fn selection_winner_is_optimal() {
    for_seeds(256, |rng| {
        let prices = vec_of(rng, 1..20, |rng| {
            (
                rng.random_range(1i64..10_000),
                rng.random_range(1u64..100_000),
            )
        });
        let bids: Vec<Bid> = prices
            .iter()
            .enumerate()
            .map(|(i, &(price, completion))| Bid {
                id: BidId(i as u64),
                cluster: ClusterId(i as u64),
                job: JobId(0),
                multiplier: 1.0,
                price: Money::from_units(price),
                promised_completion: SimTime::from_secs(completion),
                planned_pes: 1,
            })
            .collect();
        let flat = PayoffFn::flat(Money::from_units(1_000_000));
        let w = SelectionPolicy::LeastCost.select(&bids, &flat).unwrap();
        assert!(bids.iter().all(|b| w.price <= b.price));
        let w = SelectionPolicy::EarliestCompletion
            .select(&bids, &flat)
            .unwrap();
        assert!(bids
            .iter()
            .all(|b| w.promised_completion <= b.promised_completion));
        // rank() is a permutation whose head equals select().
        let ranked = SelectionPolicy::LeastCost.rank(&bids, &flat);
        assert_eq!(ranked.len(), bids.len());
        assert_eq!(
            ranked[0].cluster,
            SelectionPolicy::LeastCost
                .select(&bids, &flat)
                .unwrap()
                .cluster
        );
    });
}

/// The contract book never reaches an illegal state no matter the order
/// of operations thrown at it, and completed contracts are settled.
#[test]
fn contract_book_state_safety() {
    for_seeds(256, |rng| {
        let ops = vec_of(rng, 1..80, |rng| {
            (rng.random_range(0u8..5), rng.random_range(0u64..6))
        });
        let mut book = ContractBook::new();
        let mut ids = vec![];
        for (op, job) in ops {
            let t = SimTime::from_secs(ids.len() as u64);
            match op {
                0 => {
                    let bid = Bid {
                        id: BidId(job),
                        cluster: ClusterId(job),
                        job: JobId(job),
                        multiplier: 1.0,
                        price: Money::from_units(1),
                        promised_completion: t,
                        planned_pes: 1,
                    };
                    if let Ok(id) = book.award(bid, t) {
                        ids.push(id);
                    }
                }
                1 => {
                    if let Some(&id) = ids.last() {
                        let _ = book.confirm(id);
                    }
                }
                2 => {
                    if let Some(&id) = ids.first() {
                        let _ = book.renege(id);
                    }
                }
                3 => {
                    if let Some(&id) = ids.last() {
                        let _ = book.cancel(id);
                    }
                }
                _ => {
                    if let Some(&id) = ids.first() {
                        let _ = book.complete(id, t, Money::from_units(1));
                    }
                }
            }
        }
        // Invariants: every completed contract has settlement data; every
        // job's live contract is unique.
        for &id in &ids {
            let c = book.get(id).unwrap();
            if c.state == ContractState::Completed {
                assert!(c.settled_amount.is_some() && c.completed_at.is_some());
            }
        }
    });
}

/// Ledger totals are invariant under arbitrary (attempted) transfers,
/// and no non-overdraft account ever goes negative.
#[test]
fn ledger_invariants() {
    for_seeds(256, |rng| {
        let ops = vec_of(rng, 1..100, |rng| {
            (
                rng.random_range(0u64..4),
                rng.random_range(0u64..4),
                rng.random_range(0i64..500),
            )
        });
        let mut l: Ledger<Money> = Ledger::new();
        for i in 0..4u64 {
            l.open(AccountId::User(UserId(i)), Money::from_units(100))
                .unwrap();
        }
        let initial = l.total_micros();
        for (from, to, amt) in ops {
            let _ = l.transfer(
                AccountId::User(UserId(from)),
                AccountId::User(UserId(to)),
                Money::from_units(amt),
            );
            assert_eq!(l.total_micros(), initial);
            for i in 0..4u64 {
                assert!(!l.balance(&AccountId::User(UserId(i))).is_negative());
            }
        }
    });
}

/// Speedup models never produce zero or negative execution rates inside
/// the valid range.
#[test]
fn work_rate_positive() {
    for_seeds(256, |rng| {
        let min = rng.random_range(1u32..128);
        let extra = rng.random_range(0u32..128);
        let model = match rng.random_range(0..3) {
            0 => SpeedupModel::LinearEfficiency {
                eff_min: rng.random_range(0.01f64..1.0),
                eff_max: rng.random_range(0.01f64..1.0),
            },
            1 => SpeedupModel::Amdahl {
                serial_fraction: rng.random_range(0.0f64..0.99),
            },
            _ => SpeedupModel::Perfect,
        };
        let max = min + extra;
        for pes in [min, (min + max) / 2, max] {
            let r = model.work_rate(pes, min, max);
            assert!(
                r > 0.0 && r.is_finite(),
                "rate {r} at {pes} pes for {model:?}"
            );
        }
    });
}
