//! Trace-context propagation and the in-process span log.
//!
//! A [`TraceContext`] rides in every wire frame (see `faucets_net::proto`).
//! Each thread keeps a *current* context in thread-local storage: a service
//! handler runs under the span its serve loop opened for the request, so
//! any outbound `call` the handler makes (FD → FS `VerifyToken`, FD →
//! AppSpector `CompleteJob`) stamps the same trace onto its own frames
//! without the handler touching trace plumbing at all. Closed spans append
//! to a bounded global log; [`spans_for`] reassembles one trace and
//! [`render_trace`] prints it as an indented tree.
//!
//! Span timestamps are wall-clock seconds from a process epoch
//! ([`wall_secs`]) — spans describe live request handling (the
//! discrete-event simulator records metrics, not spans).

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::metrics::ShardedLog;

/// Identifier shared by every span on one request's path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifier of one span within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The propagated triple: which trace, which span is active, and who its
/// parent was. Serialized into every frame's envelope.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The trace this frame belongs to.
    pub trace: TraceId,
    /// The span active on the sending side.
    pub span: SpanId,
    /// The sender's parent span, if any.
    pub parent: Option<SpanId>,
}

/// SplitMix64 — the same mixer the fault plans use; id generation must be
/// cheap and collision-free within a process, nothing more.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fresh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    // Mix the process id in so ids from separately launched services don't
    // collide when their logs are compared side by side.
    splitmix64(n ^ ((std::process::id() as u64) << 32))
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The context active on this thread, if any.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Run `f` with `ctx` installed as this thread's current context, restoring
/// whatever was active before. This is how fan-out helpers carry a caller's
/// trace onto worker threads: capture [`current`] on the calling thread,
/// then wrap each worker's body in `propagate` so every frame the worker
/// sends joins the caller's trace.
pub fn propagate<T>(ctx: Option<TraceContext>, f: impl FnOnce() -> T) -> T {
    let prev = current();
    CURRENT.with(|c| c.set(ctx));
    let out = f();
    CURRENT.with(|c| c.set(prev));
    out
}

/// Seconds since the process-wide epoch (first use of the telemetry
/// crate's wall clock).
pub fn wall_secs() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// One closed span, as retained in the log.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The parent span, if any.
    pub parent: Option<SpanId>,
    /// Which service emitted it (`"fs"`, `"fd"`, `"appspector"`,
    /// `"client"`).
    pub service: String,
    /// Operation name, usually the endpoint.
    pub name: String,
    /// Start, wall seconds since process epoch.
    pub start_secs: f64,
    /// End, wall seconds since process epoch.
    pub end_secs: f64,
    /// Whether the operation succeeded.
    pub ok: bool,
}

fn span_log() -> &'static ShardedLog<SpanRecord> {
    static LOG: OnceLock<ShardedLog<SpanRecord>> = OnceLock::new();
    LOG.get_or_init(|| ShardedLog::new(8, 65_536))
}

/// An open span. Dropping it closes it: the record is appended to the
/// global log and the thread's current context is restored to whatever was
/// active before.
#[derive(Debug)]
pub struct Span {
    ctx: TraceContext,
    prev: Option<TraceContext>,
    service: &'static str,
    name: String,
    start: f64,
    ok: bool,
}

impl Span {
    fn open(parent: Option<TraceContext>, service: &'static str, name: String) -> Span {
        let ctx = match parent {
            Some(p) => TraceContext {
                trace: p.trace,
                span: SpanId(fresh_id()),
                parent: Some(p.span),
            },
            None => TraceContext {
                trace: TraceId(fresh_id()),
                span: SpanId(fresh_id()),
                parent: None,
            },
        };
        let prev = current();
        CURRENT.with(|c| c.set(Some(ctx)));
        Span {
            ctx,
            prev,
            service,
            name,
            start: wall_secs(),
            ok: true,
        }
    }

    /// The context this span put in thread-local storage.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> TraceId {
        self.ctx.trace
    }

    /// Mark the operation as failed; the record keeps `ok = false`.
    pub fn fail(&mut self) {
        self.ok = false;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        span_log().push(SpanRecord {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.ctx.parent,
            service: self.service.to_string(),
            name: std::mem::take(&mut self.name),
            start_secs: self.start,
            end_secs: wall_secs(),
            ok: self.ok,
        });
    }
}

/// Open a span as a child of this thread's current context (a new root if
/// there is none). The span becomes the current context until dropped.
pub fn span(service: &'static str, name: impl Into<String>) -> Span {
    Span::open(current(), service, name.into())
}

/// Open a server-side span for a request that arrived carrying `remote`
/// (the caller's context, from the frame envelope). With `None` the span
/// starts a fresh trace — an unattributed caller still gets logged.
pub fn server_span(
    remote: Option<TraceContext>,
    service: &'static str,
    name: impl Into<String>,
) -> Span {
    Span::open(remote, service, name.into())
}

/// Every retained span of one trace, sorted by start time.
pub fn spans_for(trace: TraceId) -> Vec<SpanRecord> {
    let mut out: Vec<SpanRecord> = span_log()
        .collect()
        .into_iter()
        .filter(|r| r.trace == trace)
        .collect();
    out.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs));
    out
}

/// Number of spans currently retained across all traces.
pub fn span_count() -> usize {
    span_log().collect().len()
}

/// Discard every retained span (tests and experiment phases).
pub fn clear() {
    span_log().clear();
}

/// Render one trace as an indented tree: children under parents, siblings
/// by start time, each line showing service, name, duration, and outcome.
pub fn render_trace(trace: TraceId) -> String {
    let records = spans_for(trace);
    if records.is_empty() {
        return format!("trace {trace}: no spans retained\n");
    }
    let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.span.0).collect();
    let mut children: HashMap<Option<u64>, Vec<&SpanRecord>> = HashMap::new();
    for r in &records {
        // A span whose parent never closed locally (e.g. the parent lives in
        // another process's log) renders as a root.
        let key = match r.parent {
            Some(p) if ids.contains(&p.0) => Some(p.0),
            _ => None,
        };
        children.entry(key).or_default().push(r);
    }
    fn walk(
        out: &mut String,
        children: &HashMap<Option<u64>, Vec<&SpanRecord>>,
        key: Option<u64>,
        depth: usize,
    ) {
        if let Some(kids) = children.get(&key) {
            for r in kids {
                let ms = (r.end_secs - r.start_secs) * 1e3;
                let mark = if r.ok { "" } else { "  [FAILED]" };
                out.push_str(&format!(
                    "{:indent$}{} {}  {:.3} ms{}\n",
                    "",
                    r.service,
                    r.name,
                    ms,
                    mark,
                    indent = depth * 2
                ));
                walk(out, children, Some(r.span.0), depth + 1);
            }
        }
    }
    let mut out = format!("trace {trace} ({} spans)\n", records.len());
    walk(&mut out, &children, None, 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_restore_current() {
        let trace;
        {
            let root = span("client", "submit");
            trace = root.trace();
            assert_eq!(current().unwrap().span, root.ctx().span);
            {
                let child = span("fs", "ListServers");
                assert_eq!(child.ctx().trace, trace, "child inherits the trace");
                assert_eq!(child.ctx().parent, Some(root.ctx().span));
            }
            assert_eq!(
                current().unwrap().span,
                root.ctx().span,
                "child restored parent"
            );
        }
        assert!(current().is_none(), "root restored None");
        let spans = spans_for(trace);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "submit", "root started first");
    }

    #[test]
    fn server_span_parents_under_remote_context() {
        let remote = TraceContext {
            trace: TraceId(7),
            span: SpanId(9),
            parent: None,
        };
        let s = server_span(Some(remote), "fd", "RequestBid");
        assert_eq!(s.trace(), TraceId(7));
        assert_eq!(s.ctx().parent, Some(SpanId(9)));
        drop(s);
        let spans = spans_for(TraceId(7));
        assert!(spans
            .iter()
            .any(|r| r.service == "fd" && r.name == "RequestBid"));
    }

    #[test]
    fn propagate_installs_and_restores_context() {
        let ctx = TraceContext {
            trace: TraceId(42),
            span: SpanId(43),
            parent: None,
        };
        assert!(current().is_none());
        let seen = propagate(Some(ctx), || {
            // A span opened under the propagated context joins its trace —
            // exactly what a fan-out worker thread needs.
            let child = span("client", "RequestBid");
            assert_eq!(child.trace(), TraceId(42));
            assert_eq!(child.ctx().parent, Some(SpanId(43)));
            current().unwrap().trace
        });
        assert_eq!(seen, TraceId(42));
        assert!(current().is_none(), "previous context restored");
    }

    #[test]
    fn failed_spans_keep_the_flag() {
        let t;
        {
            let mut s = span("client", "award");
            t = s.trace();
            s.fail();
        }
        assert!(spans_for(t).iter().all(|r| !r.ok));
    }

    #[test]
    fn render_shows_a_tree() {
        let t;
        {
            let root = span("client", "submit");
            t = root.trace();
            let _a = span("fs", "Match");
        }
        let text = render_trace(t);
        assert!(text.contains("client submit"));
        assert!(text.contains("fs Match"));
    }

    #[test]
    fn ids_are_unique() {
        let a = fresh_id();
        let b = fresh_id();
        assert_ne!(a, b);
    }
}
