//! Cooperative query cancellation and deadlines.
//!
//! Out-of-core queries stream grid cells for seconds at a time; a service
//! in front of the engine needs to abandon them — a client went away, a
//! deadline expired, an operator killed a runaway query. Cancellation is
//! *cooperative*: the executor polls a [`CancelToken`] at every slot
//! boundary of the walks (`select`, `join`, `knn`, `distance`,
//! `aggregate`, and the prefetch producer) — in-memory data included, as
//! the walks' one memory slot — the natural points where no
//! device allocation is in flight, so the device ledger is balanced when
//! the query unwinds with [`StorageError::Cancelled`].

use spade_storage::StorageError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation handle. Clones observe the same flag; an
/// optional deadline cancels the token when it passes. The default token
/// never cancels.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// A token with a deadline `timeout` from now.
    pub fn deadline_in(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Request cancellation. Observed by every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested or the deadline passed?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Polling form used at cell boundaries: `Err(Cancelled)` once
    /// cancelled, so executors can propagate with `?`.
    pub fn check(&self) -> spade_storage::Result<()> {
        if self.is_cancelled() {
            Err(StorageError::Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_cancels() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_is_seen_by_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.check(), Err(StorageError::Cancelled));
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::deadline_in(Duration::from_millis(10));
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(15));
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_deadline() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_secs(1));
        assert!(t.clone().is_cancelled());
    }
}
