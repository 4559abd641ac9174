//! The Faucets Central Server (FS) logic (§2).
//!
//! *"The Faucets Central Server is at the heart of the system. It maintains
//! the list of available Compute Servers and refreshes the list by
//! periodically polling the corresponding FDs. The FS also maintains the
//! list of applications clients can run. In addition the FS is also
//! responsible for authenticating the users of the system."*
//!
//! This module is transport-independent; `faucets-net` wraps it in TCP and
//! `faucets-grid` drives it from the discrete-event simulation.

use crate::auth::{SessionToken, UserDb};
use crate::directory::{Directory, FilterLevel, ServerInfo, ServerStatus};
use crate::error::Result;
use crate::ids::{ClusterId, UserId};
use crate::market::history::{ContractHistory, ContractRecord};
use crate::market::strategy::MarketInfo;
use crate::qos::QosContract;
use faucets_sim::time::{SimDuration, SimTime};
use rand::Rng;
use std::collections::BTreeSet;

/// Message-traffic counters for the E9 scalability accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Authentications performed.
    pub logins: u64,
    /// Token verifications on behalf of FDs (§2.2 double check).
    pub verifications: u64,
    /// Candidate-list queries served.
    pub matches: u64,
    /// Total request-for-bid messages implied by the served candidate lists.
    pub rfb_messages: u64,
    /// Heartbeats processed.
    pub heartbeats: u64,
    /// Daemons evicted from the directory as dead.
    pub evictions: u64,
}

/// The central server: directory + users + known applications + history.
pub struct FaucetsServer {
    /// The Compute Server directory (§5.1 filtering lives here).
    pub directory: Directory,
    /// User accounts and sessions.
    pub users: UserDb,
    /// Grid-wide contract history / price index (§5.2.1).
    pub history: ContractHistory,
    /// Filter level applied when matching servers to jobs.
    pub filter_level: FilterLevel,
    /// Traffic counters.
    pub stats: ServerStats,
}

impl FaucetsServer {
    /// A server with the given directory liveness timeout, session TTL, and
    /// history window.
    pub fn new(
        liveness_timeout: SimDuration,
        session_ttl: SimDuration,
        history_window: SimDuration,
    ) -> Self {
        FaucetsServer {
            directory: Directory::new(liveness_timeout),
            users: UserDb::new(session_ttl),
            history: ContractHistory::new(history_window),
            filter_level: FilterLevel::Static,
            stats: ServerStats::default(),
        }
    }

    /// A server with defaults suitable for most experiments: 90 s liveness,
    /// 8 h sessions, 24 h history window, static filtering.
    pub fn with_defaults() -> Self {
        FaucetsServer::new(
            SimDuration::from_secs(90),
            SimDuration::from_hours(8),
            SimDuration::from_hours(24),
        )
    }

    // -- user management ----------------------------------------------------

    /// Create a user account.
    pub fn create_user<R: Rng + ?Sized>(
        &mut self,
        name: &str,
        password: &str,
        rng: &mut R,
    ) -> Result<UserId> {
        self.users.add_user(name, password, rng)
    }

    /// Authenticate a user; mints a session token.
    pub fn login<R: Rng + ?Sized>(
        &mut self,
        name: &str,
        password: &str,
        now: SimTime,
        rng: &mut R,
    ) -> Result<(UserId, SessionToken)> {
        self.stats.logins += 1;
        self.users.authenticate(name, password, now, rng)
    }

    /// Verify a session token (used both by clients and by FDs re-checking
    /// a client's identity, §2.2).
    pub fn verify_token(&mut self, token: &SessionToken, now: SimTime) -> Result<UserId> {
        self.stats.verifications += 1;
        self.users.verify(token, now)
    }

    // -- directory ----------------------------------------------------------

    /// An FD registers itself at startup (§2: "At startup each FD registers
    /// itself with the Faucets Central Server").
    pub fn register_cluster(
        &mut self,
        info: ServerInfo,
        exported_apps: impl IntoIterator<Item = String>,
        now: SimTime,
    ) {
        self.directory.register(info, exported_apps, now);
    }

    /// Process a poll/heartbeat from an FD. Returns `false` when the
    /// cluster is unknown (never registered, or evicted as dead) — the
    /// daemon should re-register on seeing that.
    pub fn heartbeat(&mut self, cluster: ClusterId, status: ServerStatus, now: SimTime) -> bool {
        self.stats.heartbeats += 1;
        self.sweep_dead(now);
        self.directory.heartbeat(cluster, status, now)
    }

    /// Evict daemons that have been silent past the dead timeout; runs on
    /// every heartbeat and match so the directory never accumulates
    /// corpses. Returns the evicted ids.
    pub fn sweep_dead(&mut self, now: SimTime) -> Vec<ClusterId> {
        let evicted = self.directory.evict_dead(now);
        self.stats.evictions += evicted.len() as u64;
        evicted
    }

    /// The union of applications exported anywhere on the grid — "the list
    /// of applications clients can run".
    pub fn known_applications(&self) -> BTreeSet<String> {
        self.directory
            .all()
            .flat_map(|e| e.exported_apps.iter().cloned())
            .collect()
    }

    /// Serve a client's request for matching Compute Servers. The token is
    /// authenticated first; the rest is [`FaucetsServer::listings`].
    pub fn match_servers(
        &mut self,
        token: &SessionToken,
        qos: &QosContract,
        now: SimTime,
    ) -> Result<Vec<ClusterId>> {
        self.verify_token(token, now)?;
        Ok(self.listings(qos, now).1)
    }

    /// One match query from an already authenticated caller (the live FS
    /// verifies a token across shards before it asks): sweep the dead,
    /// then filter the directory per [`FaucetsServer::filter_level`].
    /// Returns the servers the sweep evicted, for the caller to journal,
    /// and the candidates. Each candidate will receive one
    /// request-for-bids message, which is what
    /// [`ServerStats::rfb_messages`] accounts.
    pub fn listings(
        &mut self,
        qos: &QosContract,
        now: SimTime,
    ) -> (Vec<ClusterId>, Vec<ClusterId>) {
        self.stats.matches += 1;
        let evicted = self.sweep_dead(now);
        let candidates = self.directory.candidates(qos, self.filter_level, now);
        self.stats.rfb_messages += candidates.len() as u64;
        (evicted, candidates)
    }

    // -- market support (§5.2.1) ---------------------------------------------

    /// Record a settled contract into the grid-wide history.
    pub fn record_settlement(&mut self, rec: ContractRecord) {
        self.history.record(rec);
    }

    /// Current grid-wide utilization estimate: mean fraction of busy
    /// processors over live servers.
    pub fn grid_utilization(&self, now: SimTime) -> Option<f64> {
        let mut busy = 0u64;
        let mut total = 0u64;
        for e in self.directory.all() {
            if self.directory.is_live(e.info.cluster, now) {
                total += e.info.total_pes as u64;
                busy += (e.info.total_pes - e.status.free_pes.min(e.info.total_pes)) as u64;
            }
        }
        (total > 0).then(|| busy as f64 / total as f64)
    }

    /// The market snapshot handed to bidding algorithms.
    pub fn market_info(&self, now: SimTime) -> MarketInfo {
        self.history.market_info(self.grid_utilization(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn info(id: u64, pes: u32) -> ServerInfo {
        ServerInfo {
            cluster: ClusterId(id),
            name: format!("cs{id}"),
            total_pes: pes,
            mem_per_pe_mb: 1024,
            cpu_type: "x86-64".into(),
            flops_per_pe_sec: 1e9,
            fd_addr: "127.0.0.1".into(),
            fd_port: 9000,
        }
    }

    fn server() -> (FaucetsServer, SessionToken) {
        let mut s = FaucetsServer::with_defaults();
        let mut rng = StdRng::seed_from_u64(7);
        s.create_user("alice", "pw", &mut rng).unwrap();
        let (_, token) = s.login("alice", "pw", SimTime::ZERO, &mut rng).unwrap();
        s.register_cluster(info(1, 64), ["namd".to_string()], SimTime::ZERO);
        s.register_cluster(
            info(2, 1024),
            ["namd".to_string(), "cfd".to_string()],
            SimTime::ZERO,
        );
        (s, token)
    }

    #[test]
    fn match_requires_valid_token() {
        let (mut s, token) = server();
        let qos = QosBuilder::new("namd", 8, 32, 100.0).build().unwrap();
        assert!(s.match_servers(&token, &qos, SimTime::from_secs(1)).is_ok());
        let bad = SessionToken("bogus".into());
        assert!(s.match_servers(&bad, &qos, SimTime::from_secs(1)).is_err());
    }

    #[test]
    fn matching_respects_filter_level() {
        let (mut s, token) = server();
        let qos = QosBuilder::new("cfd", 8, 32, 100.0).build().unwrap();
        // Static filtering: only cs2 exports cfd.
        let c = s
            .match_servers(&token, &qos, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(c, vec![ClusterId(2)]);
        // Broadcast mode returns both.
        s.filter_level = FilterLevel::None;
        let c = s
            .match_servers(&token, &qos, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn rfb_message_accounting() {
        let (mut s, token) = server();
        let qos = QosBuilder::new("namd", 8, 32, 100.0).build().unwrap();
        s.match_servers(&token, &qos, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(s.stats.matches, 1);
        assert_eq!(s.stats.rfb_messages, 2);
        // Token verification happened for login + match.
        assert_eq!(s.stats.verifications, 1);
    }

    #[test]
    fn known_applications_union() {
        let (s, _) = server();
        let apps = s.known_applications();
        assert!(apps.contains("namd") && apps.contains("cfd"));
        assert_eq!(apps.len(), 2);
    }

    #[test]
    fn grid_utilization_from_heartbeats() {
        let (mut s, _) = server();
        // cs1: 32/64 busy; cs2: 512/1024 busy → 50% overall.
        s.heartbeat(
            ClusterId(1),
            ServerStatus {
                free_pes: 32,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(10),
        );
        s.heartbeat(
            ClusterId(2),
            ServerStatus {
                free_pes: 512,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(10),
        );
        let u = s.grid_utilization(SimTime::from_secs(11)).unwrap();
        assert!((u - 0.5).abs() < 1e-9);
        assert_eq!(s.stats.heartbeats, 2);
    }

    #[test]
    fn dead_servers_drop_out_of_utilization() {
        let (mut s, _) = server();
        s.heartbeat(
            ClusterId(1),
            ServerStatus {
                free_pes: 0,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(60),
        );
        // cs2 never heartbeats; past its 90 s liveness window only cs1 counts.
        let u = s.grid_utilization(SimTime::from_secs(120)).unwrap();
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn silent_daemons_are_evicted_and_reregister() {
        use crate::directory::Liveness;
        let (mut s, token) = server(); // 90 s liveness → 270 s dead.
                                       // cs1 keeps heartbeating; cs2 goes silent after registration.
        s.heartbeat(
            ClusterId(1),
            ServerStatus {
                free_pes: 64,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(200),
        );
        assert_eq!(
            s.directory.liveness(ClusterId(2), SimTime::from_secs(200)),
            Some(Liveness::Suspect)
        );
        // Past the dead timeout, any match sweeps cs2 out.
        let qos = QosBuilder::new("namd", 8, 32, 100.0).build().unwrap();
        s.heartbeat(
            ClusterId(1),
            ServerStatus {
                free_pes: 64,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(280),
        );
        s.match_servers(&token, &qos, SimTime::from_secs(281))
            .unwrap();
        assert_eq!(s.stats.evictions, 1);
        assert!(s.directory.get(ClusterId(2)).is_none());
        // The restarted daemon re-registers and is matchable again.
        s.register_cluster(
            info(2, 1024),
            ["namd".to_string(), "cfd".to_string()],
            SimTime::from_secs(290),
        );
        let c = s
            .match_servers(&token, &qos, SimTime::from_secs(291))
            .unwrap();
        assert!(c.contains(&ClusterId(2)));
    }

    #[test]
    fn market_info_includes_history() {
        use crate::ids::JobId;
        use crate::money::Money;
        let (mut s, _) = server();
        s.record_settlement(ContractRecord {
            job: JobId(1),
            cluster: ClusterId(1),
            multiplier: 1.8,
            price: Money::from_units(10),
            cpu_seconds: 100.0,
            min_pes: 8,
            at: SimTime::from_secs(5),
        });
        let info = s.market_info(SimTime::from_secs(6));
        assert_eq!(info.recent_avg_multiplier, Some(1.8));
    }
}
