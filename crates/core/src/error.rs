//! Error types for the Faucets core.

use crate::ids::{ClusterId, ContractId, JobId, UserId};
use std::fmt;

/// Everything that can go wrong inside the Faucets core logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaucetsError {
    /// Authentication failed for the given user name.
    AuthFailed(String),
    /// The session token is missing, expired, or forged.
    InvalidToken,
    /// No such user.
    UnknownUser(UserId),
    /// No such cluster in the directory.
    UnknownCluster(ClusterId),
    /// No such job.
    UnknownJob(JobId),
    /// No such contract.
    UnknownContract(ContractId),
    /// The contract is not in the right state for the attempted transition.
    BadContractState {
        /// Contract involved.
        contract: ContractId,
        /// What was attempted.
        attempted: &'static str,
        /// The state it was actually in.
        actual: &'static str,
    },
    /// A QoS contract failed validation.
    InvalidQos(String),
    /// The account has insufficient funds/credits for the operation.
    InsufficientFunds {
        /// Who was charged.
        account: String,
        /// What was needed, in micro-units.
        needed: i64,
        /// What was available, in micro-units.
        available: i64,
    },
    /// The requested application is not exported by this Compute Server
    /// ("Known Applications", §2.2).
    UnknownApplication(String),
    /// The cluster declined to bid on the job.
    BidDeclined(String),
    /// A duplicate registration (user, cluster, application).
    AlreadyExists(String),
    /// This server has minted every user id a job id can carry.
    UserIdsExhausted,
    /// A user name that is empty or too long to be an account's.
    InvalidUserName(String),
    /// Durable storage failed: the mutation was NOT journaled and must be
    /// NACKed to whoever requested it (rendered from the store error,
    /// which is not `Clone`).
    Storage(String),
}

impl fmt::Display for FaucetsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaucetsError::AuthFailed(u) => write!(f, "authentication failed for '{u}'"),
            FaucetsError::InvalidToken => write!(f, "invalid or expired session token"),
            FaucetsError::UnknownUser(u) => write!(f, "unknown user {u}"),
            FaucetsError::UnknownCluster(c) => write!(f, "unknown cluster {c}"),
            FaucetsError::UnknownJob(j) => write!(f, "unknown job {j}"),
            FaucetsError::UnknownContract(c) => write!(f, "unknown contract {c}"),
            FaucetsError::BadContractState {
                contract,
                attempted,
                actual,
            } => {
                write!(f, "cannot {attempted} {contract}: contract is {actual}")
            }
            FaucetsError::InvalidQos(msg) => write!(f, "invalid QoS contract: {msg}"),
            FaucetsError::InsufficientFunds {
                account,
                needed,
                available,
            } => write!(
                f,
                "insufficient funds for '{account}': need {needed}µ, have {available}µ"
            ),
            FaucetsError::UnknownApplication(a) => write!(f, "application '{a}' not exported"),
            FaucetsError::BidDeclined(why) => write!(f, "bid declined: {why}"),
            FaucetsError::AlreadyExists(what) => write!(f, "already exists: {what}"),
            FaucetsError::UserIdsExhausted => write!(f, "this server has no user id left"),
            FaucetsError::InvalidUserName(why) => write!(f, "invalid user name: {why}"),
            FaucetsError::Storage(why) => write!(f, "durable storage failure: {why}"),
        }
    }
}

impl std::error::Error for FaucetsError {}

/// Shorthand result type used throughout the core.
pub type Result<T> = std::result::Result<T, FaucetsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = FaucetsError::InsufficientFunds {
            account: "ncsa".into(),
            needed: 10,
            available: 3,
        };
        assert!(e.to_string().contains("ncsa"));
        assert!(FaucetsError::AuthFailed("alice".into())
            .to_string()
            .contains("alice"));
        let e = FaucetsError::BadContractState {
            contract: ContractId(1),
            attempted: "confirm",
            actual: "completed",
        };
        assert!(e.to_string().contains("confirm"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(FaucetsError::InvalidToken);
        assert!(e.to_string().contains("token"));
    }
}
