//! Shared TCP-service plumbing, one file per concern: `time` ([`Clock`],
//! [`StopSignal`], client socket [`Timeouts`], the bounded
//! [`RetryPolicy`]); `serve` (the epoll reactor and executor pool behind
//! [`serve_with`], and the one periodic tick a service may host,
//! [`ServiceHandle::tick`], which a [`Nudge`] runs early); `call` (the
//! client call path — [`call_with`], [`call_batch`], [`call_many`] —
//! where every pass of every request is launch, then land, on a socket of
//! the pool its [`CallOptions`] select).

mod call;
mod serve;
mod time;

pub use call::{call, call_batch, call_many, call_with, CallOptions};
pub use serve::{request_deadline, serve, serve_with, Nudge, ServeOptions, ServiceHandle};
pub use time::{Clock, RetryPolicy, StopSignal, Timeouts};
