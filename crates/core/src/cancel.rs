//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] combines an explicit cancellation flag with an
//! optional deadline. Iterative code (e.g.
//! [`CrhSession::run_to_convergence_with`](crate::session::CrhSession::run_to_convergence_with))
//! polls [`is_cancelled`](CancelToken::is_cancelled) at iteration
//! boundaries and unwinds with [`CrhError::Cancelled`](crate::error::CrhError)
//! instead of blocking a caller past its budget. Tokens are cheap to
//! clone and share: a serving layer hands one clone to the solver thread
//! and keeps another to trip when the request's deadline passes or the
//! client goes away.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, cloneable cancellation signal with an optional deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never cancels unless [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that reports cancelled once `budget` has elapsed (or
    /// [`cancel`](Self::cancel) is called earlier).
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock deadlines ARE this type's contract; chaos fates never branch on cancellation timing"
    )]
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// Trip the token: every clone observes the cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped or its deadline has passed.
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock deadlines ARE this type's contract; cancellation aborts work, it never selects results"
    )]
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Time remaining until the deadline (`None` if the token has no
    /// deadline; zero if it has already passed).
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock deadlines ARE this type's contract; remaining() only feeds sleep/poll intervals"
    )]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.remaining().is_none());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_trips_the_token() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_cancelled());
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }
}
