//! # faucets-net — the deployed Faucets services (Figure 1) over TCP
//!
//! The paper's production system ran a Central Faucets Server, one Faucets
//! Daemon per cluster, and the AppSpector monitoring server as network
//! services, with command-line/GUI clients speaking to all three. This
//! crate is that deployment on `std::net` threads:
//!
//! * [`proto`] — the length-prefixed JSON wire protocol;
//! * [`fault`] — deterministic fault injection (drop/delay/truncate/garble
//!   frames, scheduled daemon outages) for chaos tests and experiments;
//! * [`fs`] — the Central Server service (auth, directory, matching);
//! * [`fd`] — the daemon service wrapping a `faucets-sched` Cluster, with a
//!   pump tick that executes jobs on a (speed-adjustable) wall clock and
//!   feeds AppSpector, and a memo of the tokens the FS vouched for in the
//!   last 30 simulated seconds (§2.2 with its staleness bound stated; its
//!   own small mutex, beside the state mutex, guards nothing else);
//! * [`appspector_srv`] — buffered monitoring and output download;
//! * [`client`] — the full §2 submission/monitoring client;
//! * [`service`] — shared plumbing, one file per concern:
//!   `service/time.rs` (clock, stop signal, timeouts, retry policy),
//!   `service/serve.rs` (the serve path's worker pool) and
//!   `service/call.rs` (the one client call path: launch, then land);
//! * [`reactor`] — the dependency-free epoll wrapper (one-shot readiness
//!   events, eventfd and timerfd, incremental frame reassembly) under the
//!   serve path;
//! * [`pool`] — persistent, health-checked client connection pooling (see
//!   below);
//! * [`overload`] — admission control, circuit breakers, and payoff-aware
//!   load shedding (see below);
//! * [`replica`] — follower daemons, remote WAL-frame shipping, and
//!   primary/backup failover for the durable control plane (see below).
//!
//! Experiment E1 and `examples/live_services.rs` run the entire Figure-1
//! architecture on localhost; experiment E19 (`exp_faults`) runs it under
//! injected faults.
//!
//! ## Failure handling
//!
//! A grid of hundreds of compute servers handling millions of jobs per day
//! *will* see daemons crash mid-negotiation and links stall, so every tier
//! of the Figure-1 stack recovers:
//!
//! * **Wire** — [`proto::read_frame`] bounds the length prefix
//!   ([`proto::MAX_FRAME`], 16 MiB) so a garbled or malicious length can
//!   never drive an unbounded allocation, and returns typed
//!   [`proto::ProtoError`]s (never panics) on truncated or corrupted
//!   frames. Both directions of a caller's socket carry timeouts
//!   ([`service::Timeouts`]), configurable per call.
//! * **Transport** — [`service::call_with`] retries transport failures
//!   under a bounded [`service::RetryPolicy`] (exponential backoff, capped,
//!   with deterministic seeded jitter). A received `Response::Error` is an
//!   answer, not a failure, and is never retried at this layer. Every
//!   attempt — a lone request, a [`service::call_batch`] burst or a
//!   [`service::call_many`] slot, pooled or not — is launch (breaker
//!   gate, a pool's socket, the write) and land (the read, the stale-socket
//!   retry, breaker and overload bookkeeping), written once.
//! * **Central Server** — the directory grades each daemon
//!   alive → suspect → dead from heartbeat recency
//!   (`faucets_core::directory::Liveness`) and evicts dead daemons, so
//!   match-making never hands out a corpse.
//! * **Client** — a bid from a daemon that has since been evicted is
//!   skipped (typed [`client::ClientError`], no panic), and if the chosen
//!   daemon dies mid-negotiation the client falls through its ranked bid
//!   list and, once exhausted, re-solicits bids from scratch.
//! * **Daemon** — the FD journals accepted QoS contracts to a
//!   `faucets_store` write-ahead log *before* confirming the award (a
//!   failed append NACKs the award, so "accepted" always means
//!   "durable"); a restarted daemon replays the log, re-registers with
//!   the FS, and resumes the contracts it had accepted before the crash.
//! * **Central Server** — with [`fs::FsOptions::store`] set, user
//!   accounts ride the same WAL engine and survive an FS restart under
//!   the ids they were minted; the directory and sessions are soft state,
//!   so clients log in again and daemons re-register on the heartbeat
//!   error path. Experiment E21
//!   (`exp_durability`) kill-9s each durable service mid-workload and
//!   asserts nothing acknowledged is lost.
//!
//! All injected failures come from a seeded [`fault::FaultPlan`]: the same
//! seed reproduces the same fault schedule byte-for-byte (see
//! [`fault::FaultPlan::schedule_description`]), so chaos tests are as
//! debuggable as deterministic ones.
//!
//! ## Observability
//!
//! Every frame is an [`proto::Envelope`] carrying an optional
//! `faucets_telemetry` trace context, every service records per-endpoint
//! request/error/latency collectors in the process-global registry, and
//! every service answers [`proto::Request::Metrics`] with a snapshot of
//! that registry. The AppSpector aggregates the lot into a
//! [`faucets_core::appspector::GridView`] on [`proto::Request::GridView`].
//! Experiment E20 (`exp_observability`) exercises the whole pipeline.
//!
//! ## Overload protection
//!
//! The paper sizes the architecture at "hundreds of Compute Servers" and
//! "millions of jobs per day" (§5); at that scale saturation is routine,
//! so every Figure-1 service degrades gracefully instead of queueing
//! without bound:
//!
//! * **One typed answer** — whoever sheds (the FS token bucket, the FD's
//!   payoff gate, deadline shedding, an injected rejection) answers
//!   [`proto::Response::Overloaded`] immediately, and callers surface it as
//!   the typed, non-retried [`proto::ProtoError::Overloaded`]. The serve
//!   layer keeps no inflight counter of its own: its worker pool, at
//!   most [`service::ServeOptions::workers`] threads, is the bound.
//! * **Deadlines** — callers stamp their remaining budget into the
//!   [`proto::Envelope`] (`deadline_ms`); the serve layer sheds work whose
//!   deadline already expired, and handlers can read
//!   [`service::request_deadline`] to stop doomed work mid-flight. The
//!   retry loop never backs off past the caller's deadline.
//! * **Breakers** — [`overload::BreakerSet`] gives each peer a
//!   closed/open/half-open circuit breaker in the client path: after
//!   enough consecutive transport failures, calls fast-fail locally until
//!   a cooldown probe succeeds. An `Overloaded` answer counts as a
//!   breaker *success* — busy is not dead.
//! * **Payoff-aware shedding** — the FD pushes §4's profit maximization
//!   into overload: over its bid-pipeline bound, [`overload::PayoffGate`]
//!   sheds bid solicitations in ascending payoff-rate order, so the most
//!   profitable contracts survive saturation. The FS throttles directory
//!   queries with an [`overload::TokenBucket`].
//!
//! All limits are counted in telemetry (sheds,
//! rejections, breaker transitions, queue-depth gauges), fault-injectable
//! via [`fault::FaultConfig::reject`], and exercised by experiment E22
//! (`exp_overload`).
//!
//! ## Connection reuse and pipelining
//!
//! At "millions of jobs per day" a fresh TCP connect per RPC is pure
//! overhead, so the client path has one warm transport and the serve path
//! runs a fixed worker pool. Every client call is passes of two halves on
//! the caller's own thread — *launch* (the peer's breaker, a socket, the
//! write) and *land* (the read, the socket settled, the grade) — and the
//! entry points differ only in how many they launch before they land:
//!
//! * **Pooling** — [`pool::ConnPool`] ([`service::CallOptions::pool`])
//!   owns sockets and knows nothing of requests: bounded, idle-evicted,
//!   health-checked ones per peer, each lent to one pass at a time, so
//!   retries, deadlines, breakers, and fault injection operate unchanged
//!   on warm streams. A failed pass *poisons* its socket (closed, never
//!   reused) — a desynchronised stream must not pay the next caller the
//!   previous caller's reply. A call without a pool rides one that keeps
//!   nothing (`conns_per_peer` 0): connection per call, down this path.
//! * **Pipelining** — the serve side runs one connection's frames in
//!   order and echoes each [`proto::Envelope`] `request_id`, so a
//!   [`service::call_batch`] burst launches in one vectored write and
//!   lands each slot from the reply that carries its id, in any order,
//!   reading while it writes. A reply no open slot asked for, a byte past
//!   the last reply or a timeout fails the open slots typed and poisons
//!   the socket — never a crossed wire.
//! * **Fan-out** — [`service::call_many`] launches one leg per peer, each
//!   on a pooled socket of its own and under the caller's trace context,
//!   then lands them all under one read timeout. The client uses it to
//!   collect a whole bid round.
//! * **Serving** — [`service::serve_with`]: its worker threads, spawned
//!   as concurrency needs them up to [`service::ServeOptions::workers`],
//!   all wait on one one-shot epoll set ([`reactor`]) holding the
//!   listener, the tick's timerfd,
//!   stop and every connection (cheap parked state, no idle wakeups). The
//!   thread that takes a connection's readiness reads it, runs up to a
//!   fixed number of its frames in order, writes their replies in one
//!   vectored write and re-arms it: no hand-off between threads. A reply
//!   backlog over `write_buf` re-arms it for writing only
//!   (back-pressure).
//!
//! Pool behaviour is fully counted (`net_pool_{hits,misses,evictions,
//! poisoned,stale_retries}_total`, `net_pool_open_conns`, and the serve
//! side's `net_open_conns`/`net_conns_accepted_total`, plus the epoll
//! set's `net_reactor_registered_fds` and `net_reactor_ready_events`, one
//! sample per event a worker takes). Speed is the
//! repository benchmark's to measure (`rpc_pingpong`, `rpc_pipelined`);
//! E23 (`exp_rpc_throughput`) and E28 (`exp_pipelined_rpc`) gate what a
//! rate cannot show: no transport error, no reply in a slot but its own.
//!
//! ## Replication and failover
//!
//! A single durable FS or FD still loses availability when its host
//! dies; the control plane therefore replicates its journals. The primary
//! ships every committed WAL frame — tagged `(epoch, generation, seq)` —
//! to follower daemons ([`replica::spawn_replica`]) which persist
//! byte-compatible journal directories before acking:
//!
//! * **Acks** — `Ok` to the client implies every follower holds the
//!   record; an under-replicated commit is NACKed as `Unreplicated`, and
//!   its record ships with the next commit. `repl_lag` reads how far the
//!   slowest follower is behind.
//! * **Failover** — probe survivors' positions (`ReplStatus`), elect with
//!   [`faucets_store::pick_primary`] (max `(epoch, generation, acked)`,
//!   deterministic tie-break), raise the epoch with
//!   [`faucets_store::prepare_promotion`], and open the released follower
//!   directory as the new primary's journal. A deposed primary is
//!   *fenced*: the first follower that has seen the higher epoch rejects
//!   its frames, and every later commit fails with `Fenced`. The
//!   [`sentinel`] module automates the whole procedure: the primary renews
//!   its lease, kept on the sentinel's clock, by answering
//!   [`proto::Request::LeaseProbe`]; missed renewals past the TTL trigger
//!   a quorum-gated election, a wire-level [`proto::Request::Fence`] of
//!   the deposed primary, and promotion of the released follower —
//!   no operator in the loop (experiment E27, `exp_selfheal`).
//! * **Membership** — a primary's replica set is fixed when its journal is
//!   opened; changing it means opening the journal again (a restart, or a
//!   promotion) with the new follower list.
//! * **Catch-up** — a follower that is empty, behind a compaction, or has
//!   a sequence gap answers `NeedSnapshot`; the primary installs its
//!   snapshot basis plus the live frame tail ([`proto::Request::ReplSnapshot`]),
//!   after which incremental shipping resumes.
//!
//! Replication traffic rides the normal RPC stack (retry, deadlines,
//! breakers, pooling, fault injection) and is counted in telemetry
//! (`repl_lag`, `repl_epoch`, `repl_shipped_frames_total`,
//! `repl_snapshot_transfers_total`, `repl_fenced_total`,
//! `repl_failovers_total`). The chaos suite (`tests/replication.rs`)
//! kill-9s a replicated primary mid-negotiation and asserts every
//! acknowledged award survives on the promoted backup; experiment E24
//! (`exp_replication`) measures failover MTTR, a late follower's
//! catch-up, and the replicated commit's cost against the PR-3
//! single-node WAL.
//!
//! ## One Central Server
//!
//! The grid has one FS, as in Figure 1: every directory query is answered
//! from one process's directory. What survives its death is the standby
//! FS: the FD and the client carry the standby's address in
//! `fs_fallbacks`, rotate to it when a call to the FS fails at the
//! transport level, and register (the FD) or re-create their account and
//! log in (the client) there. Experiment E26 (`exp_federation`) measures
//! one FS's directory-query cost against the directory's size, and kills
//! the FS mid-stream to gate that failover.

#![warn(missing_docs)]

pub mod appspector_srv;
pub mod client;
pub mod fault;
pub mod fd;
pub mod fs;
pub mod overload;
pub mod pool;
pub mod proto;
pub mod reactor;
pub mod replica;
pub mod sentinel;
pub mod service;
mod upstream;

/// Convenient glob import.
pub mod prelude {
    pub use crate::appspector_srv::{spawn_appspector, spawn_appspector_with, AsHandle};
    pub use crate::client::{ClientError, FaucetsClient, Submission};
    pub use crate::fault::{FaultConfig, FaultPlan, FaultStats, FrameFault, Outage};
    pub use crate::fd::{spawn_fd_with, FdHandle, FdOptions};
    pub use crate::fs::{spawn_fs, spawn_fs_durable, FsHandle, FsOptions};
    pub use crate::overload::{
        BreakerConfig, BreakerSet, CircuitBreaker, GateConfig, GateVerdict, PayoffGate, TokenBucket,
    };
    pub use crate::pool::{ConnPool, PoolConfig};
    pub use crate::proto::{read_frame, write_frame, Envelope, ProtoError, Request, Response};
    pub use crate::replica::{
        spawn_replica, Journal, RemoteLink, ReplicaHandle, ReplicaOptions, ReplicationConfig,
    };
    pub use crate::sentinel::{spawn_sentinel, FailoverEvent, Sentinel, SentinelOptions};
    pub use crate::service::{
        call, call_batch, call_many, call_with, serve, serve_with, CallOptions, Clock, RetryPolicy,
        ServeOptions, ServiceHandle, StopSignal, Timeouts,
    };
}
