//! Grid-wide telemetry for the Faucets services: metrics and traces.
//!
//! The paper's AppSpector is the monitoring plane of the Faucets grid; this
//! crate is the substrate it reads from. It provides two pieces, each
//! usable on its own:
//!
//! * [`metrics`] — a sharded, lock-cheap registry of named, labelled
//!   collectors: monotone [`Counter`]s, last-value [`Gauge`]s, and
//!   log-binned [`Histogram`]s (powers-of-two bins over atomics, so the
//!   hot path is a single relaxed `fetch_add`). A process-global default
//!   registry ([`global`]) serves code that has no natural place to thread
//!   a handle through; services expose their registry over the wire via
//!   the `Metrics` endpoint in `faucets-net`. Snapshots render as both
//!   Prometheus-style text and JSON.
//!
//! * [`trace`] — cheap distributed tracing. A [`TraceContext`] (trace id,
//!   span id, parent span) rides in every `proto` frame; each service opens
//!   a server span per request, parented under the caller's span, and the
//!   thread-local current context means a handler's *outbound* calls (FD →
//!   FS token verification, FD → AppSpector completion push) propagate the
//!   same trace automatically. One job's whole path — client → FS match →
//!   RFB fan-out → FD award → CM schedule → AppSpector — reassembles from
//!   the in-process span log by [`TraceId`], including retried and
//!   re-solicited legs.
//!
//! Every record path first checks a process-global enable flag
//! ([`set_enabled`]); disabling it turns all collectors into near-no-ops,
//! which is how `exp_observability` (E20) measures instrumentation
//! overhead as an A/B on the same binary.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    enabled, global, set_enabled, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry,
};
pub use trace::{Span, SpanId, SpanRecord, TraceContext, TraceId};
