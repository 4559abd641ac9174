//! The Faucets wire protocol.
//!
//! The 2004 system spoke a line-oriented text protocol between client, FS,
//! FD, and AppSpector; we port it to length-prefixed JSON frames: a `u32`
//! big-endian payload length followed by a JSON-encoded [`Request`] or
//! [`Response`]. JSON keeps the protocol inspectable (the paper's tooling
//! emphasis) while the length prefix makes framing robust.
//!
//! Framing failures are typed ([`ProtoError`]): a garbled or malicious
//! length prefix is rejected *before* any allocation ([`MAX_FRAME`]), and
//! a payload that frames correctly but doesn't parse is distinguished from
//! transport loss so callers can decide what is retryable. Both framing
//! functions accept an optional [`crate::fault::FaultPlan`] through their
//! `*_with` variants, which is how the fault-injection harness corrupts
//! traffic without touching service code.

use crate::fault::{FaultPlan, FrameFault};
use faucets_core::appspector::{GridView, MonitorSnapshot, TelemetrySample};
use faucets_core::auth::SessionToken;
use faucets_core::bid::{Bid, BidRequest, BidResponse};
use faucets_core::directory::{ClusterRow, ServerInfo, ServerListing, ServerStatus};
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::qos::QosContract;
use faucets_store::{ReplFrame, ReplReply, SnapshotBlob};
use faucets_telemetry::metrics::MetricsSnapshot;
use faucets_telemetry::trace::TraceContext;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Maximum accepted frame size (16 MiB) — guards against corrupt prefixes.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Requests a peer may send to any Faucets service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    // ---- Central Server (FS) ----
    /// Create a user account.
    CreateUser {
        /// Login name.
        user: String,
        /// Password.
        password: String,
    },
    /// Authenticate; mints a session token.
    Login {
        /// Login name.
        user: String,
        /// Password.
        password: String,
    },
    /// FD→FS re-verification of a client token (§2.2).
    VerifyToken {
        /// The token to check.
        token: SessionToken,
    },
    /// FD startup registration (§2).
    RegisterCluster {
        /// Static server properties.
        info: ServerInfo,
        /// Exported "Known Applications".
        apps: Vec<String>,
    },
    /// FD → FS heartbeat.
    Heartbeat {
        /// Reporting cluster.
        cluster: ClusterId,
        /// Current status.
        status: ServerStatus,
    },
    /// Client asks for matching Compute Servers for a QoS contract.
    ListServers {
        /// Session token.
        token: SessionToken,
        /// The job's requirements.
        qos: QosContract,
    },

    // ---- Faucets Daemon (FD) ----
    /// Client solicits a bid.
    RequestBid {
        /// Session token (re-verified at the FS).
        token: SessionToken,
        /// The request-for-bids payload.
        request: BidRequest,
    },
    /// Client awards the job (phase 2).
    Award {
        /// Session token.
        token: SessionToken,
        /// The job to run.
        spec: JobSpec,
        /// Contract id assigned by the client side.
        contract: ContractId,
        /// The accepted bid.
        bid: Bid,
    },
    /// Client stages an input file to the FD.
    UploadFile {
        /// Session token.
        token: SessionToken,
        /// Owning job.
        job: JobId,
        /// File name.
        name: String,
        /// Contents.
        data: Vec<u8>,
    },

    // ---- AppSpector (AS) ----
    /// FD registers a started job for monitoring.
    RegisterJob {
        /// The job.
        job: JobId,
        /// Its owner.
        owner: UserId,
        /// Where it runs.
        cluster: ClusterId,
    },
    /// The running application pushes display data.
    PushSample {
        /// The job.
        job: JobId,
        /// One telemetry sample.
        sample: TelemetrySample,
    },
    /// FD announces completion and the produced output files.
    CompleteJob {
        /// The job.
        job: JobId,
        /// Output files (name, bytes).
        outputs: Vec<(String, Vec<u8>)>,
    },
    /// Client watches a job.
    Watch {
        /// Session token.
        token: SessionToken,
        /// The job to monitor.
        job: JobId,
    },
    /// Client downloads an output file.
    Download {
        /// Session token.
        token: SessionToken,
        /// The job.
        job: JobId,
        /// File name.
        name: String,
    },

    // ---- Replication (follower daemon) ----
    /// Primary ships committed WAL frames, in commit order, to a follower.
    /// The follower persists them before answering; its reply carries the
    /// durable position (or a fencing/snapshot demand).
    ReplAppend {
        /// Name of the replicated service (keys the follower-side store).
        service: String,
        /// Committed frames, each tagged with epoch, generation, and
        /// sequence number.
        frames: Vec<ReplFrame>,
    },
    /// Primary installs a snapshot basis plus the frames committed on top
    /// of it — how a follower that is behind a compaction (or empty)
    /// catches up without the discarded WAL generations.
    ReplSnapshot {
        /// Name of the replicated service.
        service: String,
        /// The snapshot basis and its follow-on records.
        blob: SnapshotBlob,
    },
    /// Probe a follower's durable replication position without shipping
    /// anything — used by failover to elect the most-caught-up replica.
    ReplStatus {
        /// Name of the replicated service.
        service: String,
    },
    /// Sentinel → replica daemon: detach a hosted follower so its journal
    /// directory can be promoted to primary. Answered with
    /// [`Response::Released`] carrying the directory path.
    ReplRelease {
        /// Name of the replicated service.
        service: String,
    },

    // ---- Self-healing (sentinel) ----
    /// Sentinel → primary: prove you are alive and still primary. A
    /// successful probe IS a lease renewal, as the sentinel records it;
    /// the primary writes nothing. The reply ([`Response::Lease`]) carries
    /// the primary's position and fencing state.
    LeaseProbe {
        /// Name of the replicated service the lease guards.
        service: String,
    },
    /// Sentinel → deposed primary: a replica has been promoted at `epoch`;
    /// stop acknowledging immediately (the wire-level half of epoch
    /// fencing — the deposed node otherwise learns only when it next ships
    /// a frame).
    Fence {
        /// Name of the replicated service.
        service: String,
        /// The promoted node's (higher) epoch.
        epoch: u64,
    },

    // ---- Federation (FS shard ↔ FS shard) ----
    /// One shard pushes its gossip view to a peer; the peer merges it and
    /// answers [`Response::Gossip`] with its own (push-pull anti-entropy).
    Gossip {
        /// The sending shard's name.
        from: String,
        /// The sender's full membership view.
        view: crate::federation::GossipView,
    },
    /// One shard asks a peer to answer a directory query *from its local
    /// shard only* (the receiver never re-scatters — forwarding depth is
    /// bounded at one hop, so shard worker pools cannot deadlock on each
    /// other).
    FedQuery {
        /// The asking shard's name.
        from: String,
        /// What to answer locally.
        query: FedQuery,
    },

    // ---- Observability (any service) ----
    /// Ask a service for a snapshot of its metric registry. Answered by
    /// the serve layer itself, so every Figure-1 service exposes it.
    Metrics,
    /// Client (or AppSpector) asks the FS for every directory entry with
    /// its latest reported load and liveness grade.
    ListClusters {
        /// Session token.
        token: SessionToken,
    },
    /// Client asks AppSpector for the aggregated grid dashboard.
    GridView {
        /// Session token.
        token: SessionToken,
    },
}

impl Request {
    /// Stable per-endpoint label used for metrics and span names.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::CreateUser { .. } => "CreateUser",
            Request::Login { .. } => "Login",
            Request::VerifyToken { .. } => "VerifyToken",
            Request::RegisterCluster { .. } => "RegisterCluster",
            Request::Heartbeat { .. } => "Heartbeat",
            Request::ListServers { .. } => "ListServers",
            Request::RequestBid { .. } => "RequestBid",
            Request::Award { .. } => "Award",
            Request::UploadFile { .. } => "UploadFile",
            Request::RegisterJob { .. } => "RegisterJob",
            Request::PushSample { .. } => "PushSample",
            Request::CompleteJob { .. } => "CompleteJob",
            Request::Watch { .. } => "Watch",
            Request::Download { .. } => "Download",
            Request::ReplAppend { .. } => "ReplAppend",
            Request::ReplSnapshot { .. } => "ReplSnapshot",
            Request::ReplStatus { .. } => "ReplStatus",
            Request::ReplRelease { .. } => "ReplRelease",
            Request::LeaseProbe { .. } => "LeaseProbe",
            Request::Fence { .. } => "Fence",
            Request::Gossip { .. } => "Gossip",
            Request::FedQuery { query, .. } => match query {
                FedQuery::Match { .. } => "FedMatch",
                FedQuery::Rows => "FedRows",
                FedQuery::Verify { .. } => "FedVerify",
            },
            Request::Metrics => "Metrics",
            Request::ListClusters { .. } => "ListClusters",
            Request::GridView { .. } => "GridView",
        }
    }
}

/// The shard-local directory questions one federated FS may ask another
/// (carried by [`Request::FedQuery`], answered from the receiver's own
/// shard without further network hops).
// A wire type, built once per scatter and dropped: boxing `qos` would
// change nothing on the wire and add an allocation per query.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FedQuery {
    /// Return this shard's matching servers for a QoS contract
    /// (pre-verified by the asking shard — answered with
    /// [`Response::Servers`]).
    Match {
        /// The job's requirements.
        qos: QosContract,
    },
    /// Return this shard's directory rows, stamped with the shard name and
    /// ring epoch (answered with [`Response::Clusters`]).
    Rows,
    /// Does this shard recognise the session token? (Answered with
    /// [`Response::Verified`] or [`Response::Error`] — accounts are
    /// shard-local, so verification scatters.)
    Verify {
        /// The token to check.
        token: SessionToken,
    },
}

/// Responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Login result.
    Session {
        /// The authenticated user.
        user: UserId,
        /// The minted token.
        token: SessionToken,
    },
    /// Token verification result.
    Verified {
        /// The token's owner.
        user: UserId,
    },
    /// Matching servers for a QoS contract, each with its latest reported
    /// load so clients (and the dashboard) can weigh per-cluster pressure.
    Servers(Vec<ServerListing>),
    /// A bid (or decline) from an FD.
    BidReply(BidResponse),
    /// Award outcome: confirmed or reneged (with reason).
    AwardReply {
        /// True when the daemon committed and submitted the job.
        confirmed: bool,
        /// Renege reason when not confirmed.
        reason: Option<String>,
    },
    /// Monitoring snapshot.
    Snapshot(MonitorSnapshot),
    /// A downloaded file.
    File {
        /// File name.
        name: String,
        /// Contents.
        data: Vec<u8>,
    },
    /// A service's metric registry snapshot.
    Metrics(MetricsSnapshot),
    /// Every directory entry with load and liveness.
    Clusters(Vec<ClusterRow>),
    /// The aggregated grid dashboard.
    Grid(Box<GridView>),
    /// A follower's answer to any replication request: its durable
    /// position, a fencing rejection, or a demand for a snapshot.
    Repl(ReplReply),
    /// A primary's answer to [`Request::LeaseProbe`]: where it is and
    /// whether it has been fenced (a fenced primary answers honestly so
    /// the sentinel can confirm a deposition took hold).
    Lease {
        /// The primary's `(epoch, generation, acked)` position.
        position: faucets_store::ReplPosition,
        /// Has this node observed a higher epoch (been deposed)?
        fenced: bool,
    },
    /// A replica daemon's answer to [`Request::ReplRelease`]: the journal
    /// directory of the detached follower, ready for
    /// `prepare_promotion` + reopening as primary.
    Released {
        /// Filesystem path of the released journal directory.
        dir: String,
    },
    /// A federated shard's own gossip view, answering [`Request::Gossip`].
    Gossip(crate::federation::GossipView),
    /// The service is at its admission bound and shed this request before
    /// doing any work (fast-fail instead of unbounded queueing). Not an
    /// error about the request itself: the caller may retry elsewhere or
    /// after the hinted delay.
    Overloaded {
        /// Hint: milliseconds until the service expects capacity again.
        retry_after_ms: u64,
    },
    /// Any failure, with a human-readable message.
    Error(String),
}

/// The unit every connection actually exchanges: a message plus the
/// sender's [`TraceContext`], so one job's path is reconstructable across
/// services (including retried and re-solicited legs, which reuse the same
/// trace id on every attempt).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope<T> {
    /// The sender's trace context, if it is participating in a trace.
    pub ctx: Option<TraceContext>,
    /// Milliseconds of deadline budget remaining at send time, when the
    /// caller has one ([`crate::service::CallOptions::deadline`]). The
    /// server sheds a request that arrives with `Some(0)` — the caller has
    /// already abandoned it — and exposes the remaining budget to handlers
    /// via [`crate::service::request_deadline`] so queued work can be
    /// dropped the moment it becomes doomed. Absent on the wire when
    /// `None`, so pre-deadline peers interoperate.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
    /// Correlates a response with its request when multiple frames are in
    /// flight on one connection ([`crate::service::call_batch`]). The
    /// contract: a server echoes the request's id verbatim on its response
    /// envelope; responses may then arrive in any order and the client
    /// matches them back by id. Absent on the wire when `None`, so
    /// one-frame-at-a-time peers (and pre-multiplexing recordings)
    /// interoperate unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub request_id: Option<u64>,
    /// The request or response being carried.
    pub msg: T,
}

impl<T> Envelope<T> {
    /// Wrap `msg` with the calling thread's current trace context and no
    /// deadline or request id.
    pub fn wrap(msg: T) -> Self {
        Envelope {
            ctx: faucets_telemetry::trace::current(),
            deadline_ms: None,
            request_id: None,
            msg,
        }
    }
}

/// Errors at the framing layer.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport-level failure (connection loss, timeout, short read).
    Io(std::io::Error),
    /// The length prefix claims a frame larger than [`MAX_FRAME`]; rejected
    /// before any allocation so a garbled or malicious prefix cannot drive
    /// an unbounded buffer.
    FrameTooLarge(u32),
    /// The payload framed correctly but is not a valid message.
    Malformed(serde_json::Error),
    /// The call was shed by overload protection — either the peer answered
    /// [`Response::Overloaded`], or a local circuit breaker / deadline
    /// fast-failed it without touching the network. Not transient: backing
    /// off (or going elsewhere) is the point; retrying immediately is the
    /// storm this error exists to prevent.
    Overloaded {
        /// Hint: milliseconds until capacity is expected again.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            ProtoError::Malformed(e) => write!(f, "malformed payload: {e}"),
            ProtoError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Malformed(e) => Some(e),
            ProtoError::FrameTooLarge(_) | ProtoError::Overloaded { .. } => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<ProtoError> for std::io::Error {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => e,
            // Kept as the error payload (not a string) so callers can
            // recognise an overload shed with [`is_overload_error`].
            overload @ ProtoError::Overloaded { .. } => std::io::Error::other(overload),
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Did this I/O error originate as [`ProtoError::Overloaded`] (the call was
/// shed, locally or by the peer) rather than a genuine transport failure?
/// Callers use this to treat "busy" differently from "dead" — an overloaded
/// FD contributes no bid this round but must not be graded a corpse.
pub fn is_overload_error(e: &std::io::Error) -> bool {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<ProtoError>())
        .is_some_and(|p| matches!(p, ProtoError::Overloaded { .. }))
}

/// Did this I/O error say the peer hung up (EOF, reset, broken pipe) rather
/// than time out or fail mid-protocol? The pooled call path uses this to
/// recognise a reused socket that silently died while idle — the dominant
/// failure of connection reuse, safe to retry once on a fresh connection —
/// without also retrying timeouts, where the request may still be running.
pub fn is_disconnect_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotConnected
    )
}

/// Write one length-prefixed JSON frame.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), ProtoError> {
    write_frame_with(w, msg, None)
}

/// [`write_frame`], with optional fault injection: the plan may drop the
/// frame (nothing is written, `Ok` returned — the bytes were "lost on the
/// wire"), delay it, cut it off mid-frame, or flip a payload byte.
pub fn write_frame_with<W: Write, T: Serialize>(
    w: &mut W,
    msg: &T,
    faults: Option<&FaultPlan>,
) -> Result<(), ProtoError> {
    let payload = serde_json::to_vec(msg).map_err(ProtoError::Malformed)?;
    let len = payload.len() as u32;
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&payload);
    if let Some(plan) = faults {
        match plan.decide(&frame) {
            FrameFault::Deliver => {}
            FrameFault::Drop => return Ok(()),
            FrameFault::Delay(d) => std::thread::sleep(d),
            FrameFault::Truncate { keep } => {
                let keep = keep.min(frame.len());
                w.write_all(&frame[..keep])?;
                w.flush()?;
                return Ok(());
            }
            FrameFault::Garble { offset, xor } => {
                if !payload.is_empty() {
                    let at = 4 + offset % payload.len();
                    frame[at] ^= xor;
                }
            }
        }
    }
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed JSON frame. Returns `Ok(None)` on clean EOF at
/// a frame boundary.
pub fn read_frame<R: Read, T: for<'de> Deserialize<'de>>(
    r: &mut R,
) -> Result<Option<T>, ProtoError> {
    read_frame_with(r, None)
}

/// [`read_frame`], with optional fault injection on the receive path: the
/// plan may delay the read or corrupt a received payload byte before it is
/// parsed (loss and truncation are injected on the send path, where the
/// bytes still exist to lose).
pub fn read_frame_with<R: Read, T: for<'de> Deserialize<'de>>(
    r: &mut R,
    faults: Option<&FaultPlan>,
) -> Result<Option<T>, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(ProtoError::Io(e)),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    apply_receive_faults(&mut payload, faults);
    parse_payload(&payload).map(Some)
}

/// Receive-path fault injection on an already-framed payload: the plan may
/// delay "delivery" or corrupt a byte before parsing. Factored out of
/// [`read_frame_with`] so the reactor serve path — which reassembles frames
/// off nonblocking sockets itself — injects identical faults on its
/// executor threads.
pub(crate) fn apply_receive_faults(payload: &mut [u8], faults: Option<&FaultPlan>) {
    if let Some(plan) = faults {
        match plan.decide(payload) {
            FrameFault::Delay(d) => std::thread::sleep(d),
            FrameFault::Garble { offset, xor } if !payload.is_empty() => {
                let at = offset % payload.len();
                payload[at] ^= xor;
            }
            _ => {}
        }
    }
}

/// Parse a complete frame payload into a message, with the same typed
/// error [`read_frame_with`] reports.
pub(crate) fn parse_payload<T: for<'de> Deserialize<'de>>(payload: &[u8]) -> Result<T, ProtoError> {
    serde_json::from_slice(payload).map_err(ProtoError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let req = Request::Login {
            user: "alice".into(),
            password: "pw".into(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let mut cur = Cursor::new(buf);
        let back: Request = read_frame(&mut cur).unwrap().unwrap();
        assert_eq!(back, req);
        // Clean EOF after the frame.
        let eof: Option<Request> = read_frame(&mut cur).unwrap();
        assert!(eof.is_none());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Response::Ok).unwrap();
        write_frame(&mut buf, &Response::Error("x".into())).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame::<_, Response>(&mut cur).unwrap().unwrap(),
            Response::Ok
        );
        assert_eq!(
            read_frame::<_, Response>(&mut cur).unwrap().unwrap(),
            Response::Error("x".into())
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        let mut cur = Cursor::new(buf);
        // The bound is checked before any allocation and reported as the
        // typed protocol error, not a generic I/O failure.
        match read_frame::<_, Response>(&mut cur) {
            Err(ProtoError::FrameTooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn garbled_write_fails_to_parse_never_panics() {
        use crate::fault::{FaultConfig, FaultPlan};
        let plan = FaultPlan::new(
            11,
            FaultConfig {
                garble: 1.0,
                ..FaultConfig::none()
            },
        );
        let req = Request::Login {
            user: "alice".into(),
            password: "pw".into(),
        };
        let mut buf = Vec::new();
        write_frame_with(&mut buf, &req, Some(&plan)).unwrap();
        // One byte was flipped in flight: the frame either fails to parse
        // (typed Malformed) or — astronomically rarely — parses to a
        // *different* value; it must never panic or round-trip silently.
        match read_frame::<_, Request>(&mut Cursor::new(&buf)) {
            Err(ProtoError::Malformed(_)) => {}
            Ok(Some(got)) => assert_ne!(got, req, "corruption went unnoticed"),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(plan.stats().garbled, 1);
    }

    #[test]
    fn dropped_write_produces_no_bytes() {
        use crate::fault::{FaultConfig, FaultPlan};
        let plan = FaultPlan::new(
            12,
            FaultConfig {
                drop: 1.0,
                ..FaultConfig::none()
            },
        );
        let mut buf = Vec::new();
        write_frame_with(&mut buf, &Response::Ok, Some(&plan)).unwrap();
        assert!(buf.is_empty(), "a dropped frame writes nothing");
        let eof: Option<Response> = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert!(eof.is_none());
    }

    #[test]
    fn truncated_frame_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Response::Ok).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cur = Cursor::new(buf);
        assert!(read_frame::<_, Response>(&mut cur).is_err());
    }

    #[test]
    fn envelope_deadline_is_optional_on_the_wire() {
        // A frame from a pre-deadline peer (no `deadline_ms` key) parses.
        let env: Envelope<Response> = serde_json::from_str(r#"{"ctx":null,"msg":"Ok"}"#).unwrap();
        assert_eq!(env.deadline_ms, None);
        // An unstamped envelope leaves the key off the wire entirely.
        let plain = serde_json::to_string(&Envelope::wrap(Response::Ok)).unwrap();
        assert!(!plain.contains("deadline_ms"));
        // A stamped envelope round-trips.
        let env = Envelope {
            ctx: None,
            deadline_ms: Some(120),
            request_id: None,
            msg: Response::Ok,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &env).unwrap();
        let back: Envelope<Response> = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back.deadline_ms, Some(120));
    }

    #[test]
    fn overload_error_survives_io_conversion() {
        let e: std::io::Error = ProtoError::Overloaded { retry_after_ms: 40 }.into();
        assert!(is_overload_error(&e));
        assert!(!is_overload_error(&std::io::Error::other("boring")));
    }

    #[test]
    fn disconnects_are_distinguished_from_timeouts() {
        use std::io::{Error, ErrorKind};
        assert!(is_disconnect_error(&Error::new(
            ErrorKind::UnexpectedEof,
            "closed"
        )));
        assert!(is_disconnect_error(&Error::new(
            ErrorKind::ConnectionReset,
            "rst"
        )));
        assert!(!is_disconnect_error(&Error::new(
            ErrorKind::WouldBlock,
            "read timeout"
        )));
        assert!(!is_disconnect_error(&Error::new(
            ErrorKind::TimedOut,
            "read timeout"
        )));
        assert!(!is_disconnect_error(&Error::other("boring")));
    }

    #[test]
    fn binary_payload_round_trips() {
        let req = Request::UploadFile {
            token: SessionToken("t".into()),
            job: JobId(1),
            name: "input.bin".into(),
            data: (0..=255u8).collect(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(back, req);
    }
}
