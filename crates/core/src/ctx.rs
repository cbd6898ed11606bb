//! The one way context reaches an executor.

use crate::cancel::CancelToken;
use crate::scope::Scope;

/// Everything an execution takes beyond `(engine, data, query)`. The
/// default is the plain local run: a token that never cancels, the full
/// scope, tenant 0, cold.
///
/// The executors read `cancel` (polled at every slot boundary, so
/// a cancel or expired deadline surfaces as
/// [`spade_storage::StorageError::Cancelled`] with the device ledger
/// balanced) and `scope`. `tenant` and `cached` are the dispatchers'
/// ([`crate::query::run_select_ctx`], [`crate::query::run_join_ctx`]).
#[derive(Debug, Clone, Default)]
pub struct QueryCtx<'a> {
    /// Clones observe the same flag, so a service hands its job's token
    /// here without allocating.
    pub cancel: CancelToken,
    pub scope: Scope<'a>,
    /// Joins the result-cache key, so namespaces never share cached bytes
    /// (the default in-process namespace is `0`).
    pub tenant: u64,
    /// Serve through [`crate::ResultCache::serve`]. Takes effect only with
    /// a full scope: a scoped partial is never admitted to or served from
    /// the cache.
    pub cached: bool,
}

impl QueryCtx<'_> {
    /// The default ctx with `cached` set: the plain local run served
    /// through the result cache.
    pub fn cached() -> Self {
        QueryCtx {
            cached: true,
            ..QueryCtx::default()
        }
    }
}
