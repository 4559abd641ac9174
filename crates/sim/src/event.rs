//! Event identities.

use std::fmt;

/// A unique, monotonically increasing identifier for a scheduled event.
///
/// Besides identifying events for cancellation, the id doubles as the
/// tie-breaker for events scheduled at the same instant: lower ids (scheduled
/// earlier in wall-clock order) fire first, which makes simulations
/// deterministic and gives FIFO semantics for same-time events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl fmt::Debug for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ev#{}", self.0)
    }
}
