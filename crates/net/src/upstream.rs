//! The Central Server as the FD and AppSpector reach it: the endpoint set,
//! the rotation to a standby FS, and the §2.2 token re-check —
//! written once for both services.

use crate::proto::{is_overload_error, Request, Response};
use crate::service::{call_with, CallOptions};
use faucets_core::auth::SessionToken;
use faucets_core::ids::UserId;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The FS endpoints a service may talk to (the FS, then its standbys)
/// and the one it currently trusts.
pub(crate) struct FsUpstream {
    endpoints: Vec<SocketAddr>,
    /// Rotation index modulo `endpoints`: request handlers verify tokens
    /// at whichever endpoint the FD's pump last found alive.
    idx: AtomicUsize,
    call: CallOptions,
}

impl FsUpstream {
    pub(crate) fn new(primary: SocketAddr, fallbacks: &[SocketAddr], call: CallOptions) -> Self {
        FsUpstream {
            endpoints: std::iter::once(primary)
                .chain(fallbacks.iter().copied())
                .collect(),
            idx: AtomicUsize::new(0),
            call,
        }
    }

    /// One call to the endpoint currently trusted.
    pub(crate) fn call(&self, req: &Request) -> io::Result<Response> {
        let fs = self.endpoints[self.idx.load(Ordering::Relaxed) % self.endpoints.len()];
        call_with(fs, req, &self.call)
    }

    /// Verify `token` with the FS, returning its user — or the
    /// `Response::Error` the handler should answer with.
    pub(crate) fn verify(&self, token: &SessionToken) -> Result<UserId, Response> {
        let token = token.clone();
        let why = match self.call(&Request::VerifyToken { token }) {
            Ok(Response::Verified { user }) => return Ok(user),
            Ok(Response::Error(e)) => e,
            Ok(other) => format!("unexpected FS reply {other:?}"),
            Err(e) => format!("FS unreachable: {e}"),
        };
        Err(Response::Error(why))
    }

    /// After a call failed with `err`: move to the next endpoint if there
    /// is one and the failure says dead — overload never rotates (busy is
    /// not dead). Returns whether it rotated.
    pub(crate) fn rotate_after(&self, err: &io::Error) -> bool {
        let rotate = self.endpoints.len() > 1 && !is_overload_error(err);
        if rotate {
            self.idx.fetch_add(1, Ordering::Relaxed);
        }
        rotate
    }
}
