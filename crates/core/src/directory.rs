//! The Compute Server directory kept by the Faucets Central Server (§2, §5.1).
//!
//! The FS *"maintains the list of available Compute Servers and refreshes
//! the list by periodically polling the corresponding FDs … a database
//! \[stores\] the directory of available Compute Servers and some information
//! about each one, such as the maximum number of processors it has, the
//! available memory, CPU type, and the address and port number of the FD."*
//!
//! §5.1's scalable-identification mechanism is the [`Directory::candidates`]
//! filter: static properties (processors, memory, exported applications) and
//! dynamic properties (liveness, current availability) eliminate Compute
//! Servers from the request-for-bids broadcast. Experiment E9 measures the
//! message savings.

use crate::ids::ClusterId;
use crate::qos::QosContract;
use faucets_sim::time::{SimDuration, SimTime};
use faucets_telemetry::Counter;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;

/// Static properties of a Compute Server, as registered by its daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// Cluster identity.
    pub cluster: ClusterId,
    /// Human-readable name ("turing", "lemieux", …).
    pub name: String,
    /// Maximum number of processors.
    pub total_pes: u32,
    /// Memory per processor, MB.
    pub mem_per_pe_mb: u64,
    /// CPU type ("x86-64", "power4", …).
    pub cpu_type: String,
    /// Useful FLOP/s per processor.
    pub flops_per_pe_sec: f64,
    /// Address of the Faucets Daemon.
    pub fd_addr: String,
    /// Port the FD listens on ("a well-known port").
    pub fd_port: u16,
}

impl ServerInfo {
    /// Where the FD listens, or `None` when `fd_addr` is not an IP literal
    /// (rows are registered by peers, so the field is unchecked input).
    pub fn fd_socket_addr(&self) -> Option<SocketAddr> {
        Some(SocketAddr::new(self.fd_addr.parse().ok()?, self.fd_port))
    }
}

/// Dynamic status reported in each poll/heartbeat.
///
/// Beyond the liveness-proving fields the seed carried, each heartbeat now
/// reports the cluster's current load, so `Match` responses and the grid
/// dashboard can expose per-cluster pressure without another round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ServerStatus {
    /// Processors currently idle.
    pub free_pes: u32,
    /// Jobs waiting in the local queue.
    pub queue_len: u32,
    /// Whether the server is accepting new work at all.
    pub accepting: bool,
    /// Busy fraction of processors in `[0, 1]` at the time of the report.
    #[serde(default)]
    pub utilization: f64,
    /// Jobs currently running.
    #[serde(default)]
    pub running: u32,
}

/// One match-response row: a candidate Compute Server plus its latest
/// reported load, so the client can weigh per-cluster pressure when
/// ranking bids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerListing {
    /// Static registration data.
    pub info: ServerInfo,
    /// The most recent heartbeat payload.
    pub status: ServerStatus,
}

/// One dashboard row: a directory entry with load *and* health, as served
/// by the FS `ListClusters` endpoint and aggregated into the grid view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterRow {
    /// Static registration data.
    pub info: ServerInfo,
    /// The most recent heartbeat payload.
    pub status: ServerStatus,
    /// Heartbeat-derived health grade.
    pub liveness: Liveness,
    /// When the FS last heard from this daemon (simulated time).
    pub last_heard: SimTime,
    /// The federated FS shard that owns this entry (`None` on a
    /// single-process FS, and on rows from pre-federation peers).
    #[serde(default)]
    pub shard: Option<String>,
    /// The owning shard's consistent-hash ring generation when the row was
    /// produced (0 when unfederated), so dashboards can tell whether two
    /// shards' answers describe the same ring.
    #[serde(default)]
    pub ring_epoch: u64,
}

/// Directory entry: static info + latest dynamic status + exported apps.
#[derive(Debug, Clone)]
pub struct DirectoryEntry {
    /// Registration data.
    pub info: ServerInfo,
    /// Latest heartbeat payload.
    pub status: ServerStatus,
    /// When the FS last heard from the FD.
    pub last_heard: SimTime,
    /// "Known Applications" this server exports (§2.2).
    pub exported_apps: HashSet<String>,
}

/// Heartbeat-derived health of a directory entry.
///
/// A daemon is **alive** while heartbeats arrive within the liveness
/// timeout, **suspect** once a heartbeat is overdue (it stops receiving
/// request-for-bids but keeps its registration — links stall, GC pauses
/// happen), and **dead** after three liveness windows of silence, at which
/// point [`Directory::evict_dead`] removes it entirely so a restarted
/// daemon starts from a clean registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Liveness {
    /// Heartbeat within the liveness timeout.
    Alive,
    /// Heartbeat overdue; excluded from matching but still registered.
    Suspect,
    /// Silent for ≥ the dead timeout; eligible for eviction.
    Dead,
}

/// How much filtering [`Directory::candidates`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterLevel {
    /// Broadcast to every live server (the paper's "current implementation").
    None,
    /// Filter on static properties only (processors, memory, application).
    Static,
    /// Static plus dynamic properties (accepting, has any availability).
    StaticAndDynamic,
}

/// The FS-side directory of Compute Servers.
#[derive(Debug, Default)]
pub struct Directory {
    entries: BTreeMap<ClusterId, DirectoryEntry>,
    /// Heartbeats older than this mark a server suspect (non-matchable).
    liveness_timeout: SimDuration,
    /// Silence longer than this marks a server dead (evictable). Zero
    /// disables eviction entirely.
    dead_timeout: SimDuration,
    /// Telemetry: candidate queries answered (detached on
    /// `Directory::default()`, registered globally by [`Directory::new`]).
    m_queries: Counter,
    /// Telemetry: entries skipped from matching because their grade had
    /// decayed past alive.
    m_stale_skips: Counter,
    /// Telemetry: dead entries evicted.
    m_evictions: Counter,
}

impl Directory {
    /// A directory that considers a server suspect after `liveness_timeout`
    /// without a heartbeat and dead (evictable) after three times that.
    pub fn new(liveness_timeout: SimDuration) -> Self {
        let reg = faucets_telemetry::global();
        Directory {
            entries: BTreeMap::new(),
            liveness_timeout,
            dead_timeout: liveness_timeout * 3,
            m_queries: reg.counter("fs_directory_queries_total", &[]),
            m_stale_skips: reg.counter("fs_directory_stale_skips_total", &[]),
            m_evictions: reg.counter("fs_directory_evictions_total", &[]),
        }
    }

    /// Register (or re-register) a server; called when an FD starts up.
    pub fn register(
        &mut self,
        info: ServerInfo,
        exported_apps: impl IntoIterator<Item = String>,
        now: SimTime,
    ) {
        let id = info.cluster;
        self.entries.insert(
            id,
            DirectoryEntry {
                info,
                status: ServerStatus {
                    free_pes: 0,
                    queue_len: 0,
                    accepting: true,
                    ..Default::default()
                },
                last_heard: now,
                exported_apps: exported_apps.into_iter().collect(),
            },
        );
    }

    /// Remove a server (administrative deregistration).
    pub fn deregister(&mut self, cluster: ClusterId) -> bool {
        self.entries.remove(&cluster).is_some()
    }

    /// Record a heartbeat/poll response.
    pub fn heartbeat(&mut self, cluster: ClusterId, status: ServerStatus, now: SimTime) -> bool {
        match self.entries.get_mut(&cluster) {
            Some(e) => {
                e.status = status;
                e.last_heard = now;
                true
            }
            None => false,
        }
    }

    /// Is the server live (recent heartbeat) at `now`?
    pub fn is_live(&self, cluster: ClusterId, now: SimTime) -> bool {
        self.liveness(cluster, now) == Some(Liveness::Alive)
    }

    /// Heartbeat-derived health of `cluster` at `now`, or `None` if it is
    /// not registered (never registered, deregistered, or evicted).
    pub fn liveness(&self, cluster: ClusterId, now: SimTime) -> Option<Liveness> {
        self.entries.get(&cluster).map(|e| self.grade(e, now))
    }

    fn grade(&self, e: &DirectoryEntry, now: SimTime) -> Liveness {
        let silence = now.since(e.last_heard);
        if silence <= self.liveness_timeout {
            Liveness::Alive
        } else if self.dead_timeout.is_zero() || silence <= self.dead_timeout {
            Liveness::Suspect
        } else {
            Liveness::Dead
        }
    }

    /// Remove every server graded [`Liveness::Dead`] at `now`, returning
    /// the evicted ids. A daemon that restarts after eviction simply
    /// re-registers. No-op when the dead timeout is zero.
    pub fn evict_dead(&mut self, now: SimTime) -> Vec<ClusterId> {
        if self.dead_timeout.is_zero() {
            return vec![];
        }
        let dead: Vec<ClusterId> = self
            .entries
            .iter()
            .filter(|(_, e)| self.grade(e, now) == Liveness::Dead)
            .map(|(id, _)| *id)
            .collect();
        for id in &dead {
            self.entries.remove(id);
        }
        self.m_evictions.add(dead.len() as u64);
        dead
    }

    /// Every registered cluster as a dashboard row, graded at `now`.
    pub fn rows(&self, now: SimTime) -> Vec<ClusterRow> {
        self.entries
            .values()
            .map(|e| ClusterRow {
                info: e.info.clone(),
                status: e.status,
                liveness: self.grade(e, now),
                last_heard: e.last_heard,
                shard: None,
                ring_epoch: 0,
            })
            .collect()
    }

    /// Look up an entry.
    pub fn get(&self, cluster: ClusterId) -> Option<&DirectoryEntry> {
        self.entries.get(&cluster)
    }

    /// All registered clusters (live or not), in id order.
    pub fn all(&self) -> impl Iterator<Item = &DirectoryEntry> {
        self.entries.values()
    }

    /// Number of registered servers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Does the entry pass the static property filter for `qos`?
    fn static_ok(e: &DirectoryEntry, qos: &QosContract) -> bool {
        e.info.total_pes >= qos.min_pes
            && qos.fits_node_memory(e.info.mem_per_pe_mb)
            && e.exported_apps.contains(&qos.env.app)
    }

    /// Does the entry pass the dynamic property filter for `qos`?
    ///
    /// A server with a deep queue is still a candidate (the scheduler may
    /// find a window); only explicit non-acceptance or a machine entirely
    /// too busy to ever free `min_pes` before a near deadline is screened
    /// out. We keep the test conservative: accepting + not over-committed.
    fn dynamic_ok(e: &DirectoryEntry, qos: &QosContract) -> bool {
        e.status.accepting
            && e.status.queue_len < 4 * (e.info.total_pes / qos.min_pes.max(1)).max(1)
    }

    /// The servers that should receive the request-for-bids for `qos`,
    /// under the given filter level, considering only live servers.
    pub fn candidates(
        &self,
        qos: &QosContract,
        level: FilterLevel,
        now: SimTime,
    ) -> Vec<ClusterId> {
        let timeout = self.liveness_timeout;
        self.m_queries.inc();
        let mut out = vec![];
        for e in self.entries.values() {
            if now.since(e.last_heard) > timeout {
                self.m_stale_skips.inc();
                continue;
            }
            if matches!(level, FilterLevel::Static | FilterLevel::StaticAndDynamic)
                && !Self::static_ok(e, qos)
            {
                continue;
            }
            if matches!(level, FilterLevel::StaticAndDynamic) && !Self::dynamic_ok(e, qos) {
                continue;
            }
            out.push(e.info.cluster);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosBuilder;

    fn info(id: u64, pes: u32, mem: u64) -> ServerInfo {
        ServerInfo {
            cluster: ClusterId(id),
            name: format!("cs{id}"),
            total_pes: pes,
            mem_per_pe_mb: mem,
            cpu_type: "x86-64".into(),
            flops_per_pe_sec: 1e9,
            fd_addr: "127.0.0.1".into(),
            fd_port: 9000 + id as u16,
        }
    }

    #[test]
    fn a_row_that_still_carries_replicas_decodes() {
        // Peers built before the replica list left the row still send it.
        let mut json = serde_json::to_string(&info(3, 64, 1024)).unwrap();
        json.insert_str(json.len() - 1, r#","replicas":["127.0.0.1:9100"]"#);
        let row: ServerInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(row, info(3, 64, 1024));
    }

    #[test]
    fn fd_socket_addr_takes_ip_literals_only() {
        let mut row = info(1, 64, 1024);
        assert_eq!(
            row.fd_socket_addr(),
            Some("127.0.0.1:9001".parse().unwrap())
        );
        row.fd_addr = "::1".into();
        assert_eq!(row.fd_socket_addr(), Some("[::1]:9001".parse().unwrap()));
        for junk in ["", "turing.example.org", "127.0.0.1:80"] {
            row.fd_addr = junk.into();
            assert_eq!(row.fd_socket_addr(), None, "{junk:?}");
        }
    }

    fn dir() -> Directory {
        let mut d = Directory::new(SimDuration::from_secs(60));
        d.register(
            info(1, 64, 1024),
            ["namd".to_string(), "cfd".to_string()],
            SimTime::ZERO,
        );
        d.register(info(2, 1024, 512), ["namd".to_string()], SimTime::ZERO);
        d.register(info(3, 16, 4096), ["qmc".to_string()], SimTime::ZERO);
        d
    }

    fn qos(app: &str, min_pes: u32, mem: u64) -> QosContract {
        QosBuilder::new(app, min_pes, min_pes.max(32), 100.0)
            .mem_per_pe_mb(mem)
            .build()
            .unwrap()
    }

    #[test]
    fn register_heartbeat_liveness() {
        let mut d = dir();
        assert_eq!(d.len(), 3);
        assert!(d.is_live(ClusterId(1), SimTime::from_secs(30)));
        assert!(!d.is_live(ClusterId(1), SimTime::from_secs(120)));
        assert!(d.heartbeat(
            ClusterId(1),
            ServerStatus {
                free_pes: 10,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(100)
        ));
        assert!(d.is_live(ClusterId(1), SimTime::from_secs(120)));
        assert!(!d.heartbeat(ClusterId(9), ServerStatus::default(), SimTime::ZERO));
    }

    #[test]
    fn broadcast_level_returns_all_live() {
        let d = dir();
        let c = d.candidates(
            &qos("namd", 8, 256),
            FilterLevel::None,
            SimTime::from_secs(10),
        );
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn static_filter_screens_size_memory_and_app() {
        let d = dir();
        // namd, needs 32 pes min, 256MB/pe: cs1 (64pes,1024MB,namd) ok;
        // cs2 (1024pes,512MB,namd) ok; cs3 lacks namd and pes.
        let c = d.candidates(
            &qos("namd", 32, 256),
            FilterLevel::Static,
            SimTime::from_secs(1),
        );
        assert_eq!(c, vec![ClusterId(1), ClusterId(2)]);
        // Memory-hungry job: only cs3 has 4GB/pe but no namd → nobody.
        let c = d.candidates(
            &qos("namd", 8, 2048),
            FilterLevel::Static,
            SimTime::from_secs(1),
        );
        assert!(c.is_empty());
        // Huge job: only cs2 is big enough.
        let c = d.candidates(
            &qos("namd", 512, 256),
            FilterLevel::Static,
            SimTime::from_secs(1),
        );
        assert_eq!(c, vec![ClusterId(2)]);
    }

    #[test]
    fn dynamic_filter_screens_non_accepting() {
        let mut d = dir();
        d.heartbeat(
            ClusterId(1),
            ServerStatus {
                free_pes: 64,
                queue_len: 0,
                accepting: false,
                ..Default::default()
            },
            SimTime::from_secs(5),
        );
        d.heartbeat(
            ClusterId(2),
            ServerStatus {
                free_pes: 0,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(5),
        );
        let c = d.candidates(
            &qos("namd", 8, 256),
            FilterLevel::StaticAndDynamic,
            SimTime::from_secs(6),
        );
        assert_eq!(c, vec![ClusterId(2)]);
    }

    #[test]
    fn dynamic_filter_screens_hopeless_queues() {
        let mut d = dir();
        d.heartbeat(
            ClusterId(2),
            ServerStatus {
                free_pes: 0,
                queue_len: 100_000,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(5),
        );
        let c = d.candidates(
            &qos("namd", 8, 256),
            FilterLevel::StaticAndDynamic,
            SimTime::from_secs(6),
        );
        assert!(!c.contains(&ClusterId(2)));
    }

    #[test]
    fn dead_servers_never_selected() {
        let mut d = dir();
        // Only cs1 stays live.
        d.heartbeat(
            ClusterId(1),
            ServerStatus {
                free_pes: 1,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            },
            SimTime::from_secs(100),
        );
        let c = d.candidates(
            &qos("namd", 8, 256),
            FilterLevel::None,
            SimTime::from_secs(120),
        );
        assert_eq!(c, vec![ClusterId(1)]);
    }

    #[test]
    fn liveness_grades_alive_suspect_dead() {
        let d = dir(); // 60 s liveness → 180 s dead.
        let id = ClusterId(1);
        assert_eq!(
            d.liveness(id, SimTime::from_secs(59)),
            Some(Liveness::Alive)
        );
        assert_eq!(
            d.liveness(id, SimTime::from_secs(61)),
            Some(Liveness::Suspect)
        );
        assert_eq!(
            d.liveness(id, SimTime::from_secs(180)),
            Some(Liveness::Suspect)
        );
        assert_eq!(
            d.liveness(id, SimTime::from_secs(181)),
            Some(Liveness::Dead)
        );
        assert_eq!(d.liveness(ClusterId(99), SimTime::ZERO), None);
    }

    #[test]
    fn evict_dead_removes_only_the_dead() {
        let mut d = dir();
        // cs2 keeps heartbeating; cs1 and cs3 go silent.
        d.heartbeat(
            ClusterId(2),
            ServerStatus::default(),
            SimTime::from_secs(150),
        );
        let evicted = d.evict_dead(SimTime::from_secs(200));
        assert_eq!(evicted, vec![ClusterId(1), ClusterId(3)]);
        assert_eq!(d.len(), 1);
        // Eviction is idempotent.
        assert!(d.evict_dead(SimTime::from_secs(200)).is_empty());
        // A restarted daemon re-registers cleanly.
        d.register(
            info(1, 64, 1024),
            ["namd".to_string()],
            SimTime::from_secs(210),
        );
        assert_eq!(
            d.liveness(ClusterId(1), SimTime::from_secs(211)),
            Some(Liveness::Alive)
        );
    }

    #[test]
    fn default_directory_never_evicts() {
        let mut d = Directory::default();
        d.register(info(1, 64, 1024), ["namd".to_string()], SimTime::ZERO);
        assert!(d.evict_dead(SimTime::from_hours(1000)).is_empty());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn deregister() {
        let mut d = dir();
        assert!(d.deregister(ClusterId(3)));
        assert!(!d.deregister(ClusterId(3)));
        assert_eq!(d.len(), 2);
        assert!(d.get(ClusterId(3)).is_none());
    }
}
