//! Accounts, billing, and the ledger.
//!
//! §1: *"Users pay for the compute power used via the billing services, or
//! barter the unused compute power of their own Compute Server via an
//! accounting service."* The [`Ledger`] is generic over the currency so the
//! same machinery settles Dollar contracts (§5.5.1), Service-Unit quotas
//! (§5.5.2), and bartering credits (§5.5.3 — see [`crate::barter`]).
//!
//! For the Figure-1 "database" role the ledger also implements
//! [`faucets_store::Durable`]: every charge, credit, and barter transfer
//! becomes a WAL record ([`LedgerOp`]), and [`DurableLedger`] rebuilds
//! balances from snapshot + log on restart — no acknowledged entry is
//! ever lost to a crash.

use crate::error::{FaucetsError, Result};
use faucets_store::{CommitError, Durable, DurableStore, RecoveryReport, StoreOptions};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::{AddAssign, Neg, SubAssign};
use std::path::PathBuf;

/// Anything that can sit in a ledger: fixed-point currencies.
pub trait Amount:
    Copy + Default + PartialOrd + AddAssign + SubAssign + Neg<Output = Self> + Debug
{
    /// Raw micro-units, for error messages and conservation checks.
    fn micros(self) -> i64;
}

impl Amount for crate::money::Money {
    fn micros(self) -> i64 {
        self.0
    }
}
impl Amount for crate::money::ServiceUnits {
    fn micros(self) -> i64 {
        self.0
    }
}

/// The parties that hold accounts.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AccountId {
    /// An end user's account.
    User(crate::ids::UserId),
    /// A Compute Server's revenue account.
    Cluster(crate::ids::ClusterId),
    /// An organization (bartering pool member).
    Org(crate::ids::OrgId),
    /// The system's own account (fees, regularization buffers).
    System,
}

impl std::fmt::Display for AccountId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccountId::User(u) => write!(f, "{u}"),
            AccountId::Cluster(c) => write!(f, "{c}"),
            AccountId::Org(o) => write!(f, "{o}"),
            AccountId::System => write!(f, "system"),
        }
    }
}

/// One transfer as the durable ledger journals it: its WAL record
/// ([`LedgerOp::Transfer`]) is the ledger's audit trail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry<A> {
    /// Source account.
    pub from: AccountId,
    /// Destination account.
    pub to: AccountId,
    /// Amount moved.
    pub amount: A,
    /// Free-form memo ("contract-7 settlement", …).
    pub memo: String,
}

/// A double-entry ledger of balances. Transfers conserve the total;
/// overdrafts are rejected unless the account allows them.
#[derive(Debug, Default)]
pub struct Ledger<A: Amount> {
    balances: BTreeMap<AccountId, A>,
    overdraft_allowed: BTreeMap<AccountId, bool>,
}

impl<A: Amount> Ledger<A> {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger {
            balances: BTreeMap::new(),
            overdraft_allowed: BTreeMap::new(),
        }
    }

    /// Open an account with an initial balance (idempotent: re-opening adds
    /// nothing and is an error).
    pub fn open(&mut self, id: AccountId, initial: A) -> Result<()> {
        if self.balances.contains_key(&id) {
            return Err(FaucetsError::AlreadyExists(format!("account {id}")));
        }
        self.balances.insert(id, initial);
        Ok(())
    }

    /// Allow (or forbid) overdrafts on an account. The System account is the
    /// usual overdraft-permitted party (it mints payoffs/penalties).
    pub fn set_overdraft(&mut self, id: AccountId, allowed: bool) {
        self.overdraft_allowed.insert(id, allowed);
    }

    /// Current balance; zero for unknown accounts.
    pub fn balance(&self, id: &AccountId) -> A {
        self.balances.get(id).copied().unwrap_or_default()
    }

    /// Whether the account exists.
    pub fn has_account(&self, id: &AccountId) -> bool {
        self.balances.contains_key(id)
    }

    /// Would a transfer of `amount` from `from` to `to` be accepted? The
    /// read-only half of [`Ledger::transfer`], split out so the durable
    /// path can validate *before* journaling (keeping replay infallible).
    pub fn validate_transfer(&self, from: &AccountId, to: &AccountId, amount: A) -> Result<()> {
        let zero = A::default();
        assert!(
            amount >= zero,
            "transfer amounts must be non-negative: {amount:?}"
        );
        let from_bal = *self
            .balances
            .get(from)
            .ok_or_else(|| FaucetsError::InsufficientFunds {
                account: from.to_string(),
                needed: amount.micros(),
                available: 0,
            })?;
        if !self.balances.contains_key(to) {
            return Err(FaucetsError::InsufficientFunds {
                account: to.to_string(),
                needed: 0,
                available: 0,
            });
        }
        let mut after = from_bal;
        after -= amount;
        if after < zero && !self.overdraft_allowed.get(from).copied().unwrap_or(false) {
            return Err(FaucetsError::InsufficientFunds {
                account: from.to_string(),
                needed: amount.micros(),
                available: from_bal.micros(),
            });
        }
        Ok(())
    }

    /// Move `amount` (must be non-negative) from one account to another.
    pub fn transfer(&mut self, from: AccountId, to: AccountId, amount: A) -> Result<()> {
        self.validate_transfer(&from, &to, amount)?;
        *self.balances.get_mut(&from).unwrap() -= amount;
        *self.balances.get_mut(&to).unwrap() += amount;
        Ok(())
    }

    /// Fold one already-validated [`LedgerOp`] into the state — the
    /// replay path, deliberately infallible (the [`Durable`] contract):
    /// every op in the WAL passed validation before it was journaled.
    pub fn apply_op(&mut self, op: &LedgerOp<A>) {
        match op {
            LedgerOp::Open { id, initial } => {
                self.balances.entry(id.clone()).or_insert(*initial);
            }
            LedgerOp::SetOverdraft { id, allowed } => {
                self.overdraft_allowed.insert(id.clone(), *allowed);
            }
            LedgerOp::Transfer(e) => {
                *self.balances.entry(e.from.clone()).or_default() -= e.amount;
                *self.balances.entry(e.to.clone()).or_default() += e.amount;
            }
        }
    }

    /// Sum of all balances in micro-units — constant under transfers, the
    /// conservation invariant property-tested in the suite.
    pub fn total_micros(&self) -> i64 {
        self.balances.values().map(|a| a.micros()).sum()
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.balances.len()
    }
}

/// One journaled ledger mutation — the WAL record type of the durable
/// ledger. Ops are validated *before* journaling, so replay applies them
/// unconditionally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LedgerOp<A> {
    /// Open an account with an initial balance.
    Open {
        /// The account to create.
        id: AccountId,
        /// Its starting balance.
        initial: A,
    },
    /// Allow or forbid overdrafts on an account.
    SetOverdraft {
        /// The account to toggle.
        id: AccountId,
        /// Whether overdrafts are permitted.
        allowed: bool,
    },
    /// Move funds between accounts.
    Transfer(LedgerEntry<A>),
}

/// Snapshot of a ledger taken at compaction: balances and overdraft
/// flags, as pair lists (JSON map keys must be strings, [`AccountId`]
/// is not). Compaction drops the transfers it folds in, memos included;
/// balances are always exact.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LedgerState<A> {
    /// `(account, balance)` pairs.
    pub balances: Vec<(AccountId, A)>,
    /// `(account, overdraft allowed)` pairs.
    pub overdraft: Vec<(AccountId, bool)>,
}

impl<A> Durable for Ledger<A>
where
    A: Amount + Serialize + DeserializeOwned,
{
    type Record = LedgerOp<A>;
    type Snapshot = LedgerState<A>;

    fn apply(&mut self, rec: &LedgerOp<A>) {
        self.apply_op(rec);
    }

    fn snapshot(&self) -> LedgerState<A> {
        LedgerState {
            balances: self.balances.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            overdraft: self
                .overdraft_allowed
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    fn restore(snap: LedgerState<A>) -> Self {
        Ledger {
            balances: snap.balances.into_iter().collect(),
            overdraft_allowed: snap.overdraft.into_iter().collect(),
        }
    }
}

/// Map a checked-commit failure back into the core error type.
fn commit_err(e: CommitError<FaucetsError>) -> FaucetsError {
    match e {
        CommitError::Rejected(e) => e,
        CommitError::Store(s) => FaucetsError::Storage(s.to_string()),
    }
}

/// A [`Ledger`] backed by a [`DurableStore`]: every mutation is fsynced
/// into the WAL before it touches a balance, so an `Ok` from
/// [`DurableLedger::transfer`] survives kill -9. This is the Figure-1
/// accounting database.
#[derive(Debug)]
pub struct DurableLedger<A: Amount + Serialize + DeserializeOwned> {
    store: DurableStore<Ledger<A>>,
}

impl<A: Amount + Serialize + DeserializeOwned> DurableLedger<A> {
    /// Open (or create) a durable ledger in `dir`, recovering prior state.
    pub fn open(dir: impl Into<PathBuf>, opts: StoreOptions) -> Result<(Self, RecoveryReport)> {
        let (store, report) = DurableStore::open(dir, Ledger::new(), opts)
            .map_err(|e| FaucetsError::Storage(e.to_string()))?;
        Ok((DurableLedger { store }, report))
    }

    /// Durable [`Ledger::open`]: journal the account creation, then apply.
    pub fn open_account(&self, id: AccountId, initial: A) -> Result<()> {
        let op = LedgerOp::Open {
            id: id.clone(),
            initial,
        };
        self.store
            .commit_check(&op, |l| {
                if l.has_account(&id) {
                    Err(FaucetsError::AlreadyExists(format!("account {id}")))
                } else {
                    Ok(())
                }
            })
            .map_err(commit_err)?;
        Ok(())
    }

    /// Durable [`Ledger::set_overdraft`].
    pub fn set_overdraft(&self, id: AccountId, allowed: bool) -> Result<()> {
        let op = LedgerOp::SetOverdraft { id, allowed };
        self.store
            .commit(&op)
            .map_err(|e| FaucetsError::Storage(e.to_string()))?;
        Ok(())
    }

    /// Durable [`Ledger::transfer`]: validated, journaled, applied — in
    /// that order, under one lock. An `Err` means no funds moved *and*
    /// nothing reached the log.
    pub fn transfer(
        &self,
        from: AccountId,
        to: AccountId,
        amount: A,
        memo: impl Into<String>,
    ) -> Result<()> {
        let op = LedgerOp::Transfer(LedgerEntry {
            from: from.clone(),
            to: to.clone(),
            amount,
            memo: memo.into(),
        });
        self.store
            .commit_check(&op, |l| l.validate_transfer(&from, &to, amount))
            .map_err(commit_err)?;
        Ok(())
    }

    /// Current balance; zero for unknown accounts.
    pub fn balance(&self, id: &AccountId) -> A {
        self.store.read(|l| l.balance(id))
    }

    /// Sum of all balances in micro-units (the conservation invariant).
    pub fn total_micros(&self) -> i64 {
        self.store.read(|l| l.total_micros())
    }

    /// Number of accounts.
    pub fn accounts(&self) -> usize {
        self.store.read(|l| l.accounts())
    }

    /// Run `f` against the ledger under the store lock.
    pub fn with_ledger<R>(&self, f: impl FnOnce(&Ledger<A>) -> R) -> R {
        self.store.read(f)
    }

    /// Force a snapshot + WAL truncation now.
    pub fn compact(&self) -> Result<()> {
        self.store
            .compact()
            .map_err(|e| FaucetsError::Storage(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClusterId, UserId};
    use crate::money::Money;

    fn ledger() -> Ledger<Money> {
        let mut l = Ledger::new();
        l.open(AccountId::User(UserId(1)), Money::from_units(100))
            .unwrap();
        l.open(AccountId::Cluster(ClusterId(1)), Money::ZERO)
            .unwrap();
        l.open(AccountId::System, Money::ZERO).unwrap();
        l.set_overdraft(AccountId::System, true);
        l
    }

    #[test]
    fn transfer_moves_money_and_conserves_total() {
        let mut l = ledger();
        let before = l.total_micros();
        l.transfer(
            AccountId::User(UserId(1)),
            AccountId::Cluster(ClusterId(1)),
            Money::from_units(30),
        )
        .unwrap();
        assert_eq!(
            l.balance(&AccountId::User(UserId(1))),
            Money::from_units(70)
        );
        assert_eq!(
            l.balance(&AccountId::Cluster(ClusterId(1))),
            Money::from_units(30)
        );
        assert_eq!(l.total_micros(), before);
    }

    #[test]
    fn overdraft_rejected_by_default() {
        let mut l = ledger();
        let err = l
            .transfer(
                AccountId::User(UserId(1)),
                AccountId::Cluster(ClusterId(1)),
                Money::from_units(101),
            )
            .unwrap_err();
        assert!(matches!(err, FaucetsError::InsufficientFunds { .. }));
        // Nothing moved.
        assert_eq!(
            l.balance(&AccountId::User(UserId(1))),
            Money::from_units(100)
        );
    }

    #[test]
    fn system_account_may_overdraft() {
        let mut l = ledger();
        l.transfer(
            AccountId::System,
            AccountId::User(UserId(1)),
            Money::from_units(500),
        )
        .unwrap();
        assert_eq!(l.balance(&AccountId::System), Money::from_units(-500));
        assert_eq!(
            l.balance(&AccountId::User(UserId(1))),
            Money::from_units(600)
        );
    }

    #[test]
    fn unknown_accounts_error() {
        let mut l = ledger();
        assert!(l
            .transfer(AccountId::User(UserId(9)), AccountId::System, Money::ZERO)
            .is_err());
        assert!(l
            .transfer(AccountId::System, AccountId::User(UserId(9)), Money::ZERO)
            .is_err());
    }

    #[test]
    fn reopening_account_is_error() {
        let mut l = ledger();
        assert!(l.open(AccountId::User(UserId(1)), Money::ZERO).is_err());
    }

    #[test]
    fn exact_balance_transfer_is_allowed() {
        let mut l = ledger();
        l.transfer(
            AccountId::User(UserId(1)),
            AccountId::Cluster(ClusterId(1)),
            Money::from_units(100),
        )
        .unwrap();
        assert_eq!(l.balance(&AccountId::User(UserId(1))), Money::ZERO);
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("faucets-ledger-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_ledger_balances_survive_reopen() {
        let dir = scratch("reopen");
        let total_before;
        {
            let (l, report) = DurableLedger::<Money>::open(&dir, StoreOptions::default()).unwrap();
            assert!(!report.snapshot_loaded);
            l.open_account(AccountId::User(UserId(1)), Money::from_units(100))
                .unwrap();
            l.open_account(AccountId::Cluster(ClusterId(1)), Money::ZERO)
                .unwrap();
            l.open_account(AccountId::System, Money::ZERO).unwrap();
            l.set_overdraft(AccountId::System, true).unwrap();
            l.transfer(
                AccountId::User(UserId(1)),
                AccountId::Cluster(ClusterId(1)),
                Money::from_units(30),
                "contract settlement",
            )
            .unwrap();
            l.transfer(
                AccountId::System,
                AccountId::User(UserId(1)),
                Money::from_units(5),
                "payoff",
            )
            .unwrap();
            total_before = l.total_micros();
            // Dropped without any clean shutdown: models kill -9.
        }
        let (l, report) = DurableLedger::<Money>::open(&dir, StoreOptions::default()).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_records, 6, "all ops replayed from WAL");
        assert_eq!(
            l.balance(&AccountId::User(UserId(1))),
            Money::from_units(75)
        );
        assert_eq!(
            l.balance(&AccountId::Cluster(ClusterId(1))),
            Money::from_units(30)
        );
        assert_eq!(l.balance(&AccountId::System), Money::from_units(-5));
        assert_eq!(l.total_micros(), total_before, "conservation across crash");
        // Overdraft flags recovered too: System may still go negative.
        l.transfer(
            AccountId::System,
            AccountId::User(UserId(1)),
            Money::from_units(1),
            "post-recovery payoff",
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_ledger_rejection_leaves_no_trace() {
        let dir = scratch("reject");
        {
            let (l, _) = DurableLedger::<Money>::open(&dir, StoreOptions::default()).unwrap();
            l.open_account(AccountId::User(UserId(1)), Money::from_units(10))
                .unwrap();
            l.open_account(AccountId::System, Money::ZERO).unwrap();
            let err = l
                .transfer(
                    AccountId::User(UserId(1)),
                    AccountId::System,
                    Money::from_units(11),
                    "overdraft attempt",
                )
                .unwrap_err();
            assert!(matches!(err, FaucetsError::InsufficientFunds { .. }));
            assert!(l
                .open_account(AccountId::User(UserId(1)), Money::ZERO)
                .is_err());
        }
        let (l, report) = DurableLedger::<Money>::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(report.replayed_records, 2, "only the two account opens");
        assert_eq!(
            l.balance(&AccountId::User(UserId(1))),
            Money::from_units(10)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_ledger_compaction_preserves_balances() {
        let dir = scratch("compact");
        {
            let (l, _) = DurableLedger::<Money>::open(&dir, StoreOptions::default()).unwrap();
            l.open_account(AccountId::User(UserId(1)), Money::from_units(100))
                .unwrap();
            l.open_account(AccountId::Cluster(ClusterId(1)), Money::ZERO)
                .unwrap();
            for _ in 0..10 {
                l.transfer(
                    AccountId::User(UserId(1)),
                    AccountId::Cluster(ClusterId(1)),
                    Money::from_units(1),
                    "tick",
                )
                .unwrap();
            }
            l.compact().unwrap();
        }
        let (l, report) = DurableLedger::<Money>::open(&dir, StoreOptions::default()).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_records, 0, "compaction emptied the WAL");
        assert_eq!(
            l.balance(&AccountId::User(UserId(1))),
            Money::from_units(90)
        );
        assert_eq!(
            l.balance(&AccountId::Cluster(ClusterId(1))),
            Money::from_units(10)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn works_for_service_units_too() {
        use crate::ids::OrgId;
        use crate::money::ServiceUnits;
        let mut l: Ledger<ServiceUnits> = Ledger::new();
        l.open(AccountId::Org(OrgId(1)), ServiceUnits::from_units(1000))
            .unwrap();
        l.open(AccountId::Org(OrgId(2)), ServiceUnits::from_units(1000))
            .unwrap();
        l.transfer(
            AccountId::Org(OrgId(1)),
            AccountId::Org(OrgId(2)),
            ServiceUnits::from_units(250),
        )
        .unwrap();
        assert_eq!(
            l.balance(&AccountId::Org(OrgId(2))),
            ServiceUnits::from_units(1250)
        );
        assert_eq!(l.total_micros(), 2000 * 1_000_000);
    }
}
