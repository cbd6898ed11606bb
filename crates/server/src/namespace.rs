//! Multi-tenant namespaces.
//!
//! A namespace is an isolated tenant of one [`crate::QueryService`]: it has
//! its own dataset catalog (two tenants can register different data under
//! the same name), its own embedded relational store (SQL statements —
//! including those arriving over the wire — can only ever touch the
//! submitting tenant's tables), its own result-cache identity (the
//! namespace id joins every cache key, so tenants can never share cached
//! bytes), its own write-ahead-log key prefix (recovery routes replayed
//! records back to the right tenant's dataset), an optional admission
//! quota carved out of the device-memory admission controller, and an
//! optional auth token that sessions — local or over the wire — must
//! present.
//!
//! The default namespace (id 0, name `"default"`) always exists, has no
//! quota and no token, and is what the pre-namespace `QueryService` API
//! (`register`, `session`, …) operates on, so embedded single-tenant use
//! is unchanged.

use crate::request::ServiceError;
use spade_core::optimizer::JoinStrategy;
use spade_core::QueryStats;
use spade_storage::Database;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Name of the always-present default namespace.
pub const DEFAULT_NAMESPACE: &str = "default";

/// Longest accepted namespace or dataset name. Names are interpolated into
/// metric labels and WAL keys; unbounded names would let one tenant bloat
/// both.
pub const MAX_NAME_LEN: usize = 128;

/// Tuning and access control for one namespace.
#[derive(Debug, Clone, Default)]
pub struct NamespaceConfig {
    /// Device-memory admission quota in bytes: the sum of estimated
    /// footprints of this tenant's *running* queries never exceeds it.
    /// A tenant at its quota waits without blocking other tenants'
    /// admissions. `None` shares the whole device (subject to the global
    /// admission controller).
    pub quota_bytes: Option<u64>,
    /// Auth token sessions must present ([`crate::QueryService::session_in`]
    /// and the wire handshake). `None` admits anyone who knows the name.
    pub token: Option<String>,
}

/// The optimizer decisions a tenant's counters distinguish, as their
/// `decision="…"` label values; [`TenantStats::decisions`] and
/// [`TenantStats::mispredictions`] are indexed alike.
pub const DECISIONS: [&str; 4] = [
    "map_one_pass",
    "map_two_pass",
    "join_layer_index",
    "join_naive_selects",
];

/// Per-tenant admission, outcome and optimizer counters, rendered with a
/// `tenant="…"` label by [`crate::QueryService::metrics_text`].
#[derive(Debug, Default)]
pub struct TenantStats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected: AtomicU64,
    pub cancelled: AtomicU64,
    pub failed: AtomicU64,
    /// Times an admission scan skipped one of this tenant's queued queries
    /// because the tenant was at its quota (other tenants proceeded).
    pub quota_deferrals: AtomicU64,
    /// Optimizer decisions this tenant's queries made, by [`DECISIONS`].
    pub decisions: [AtomicU64; 4],
    /// Those decisions hindsight proved wrong: 2-pass Maps whose result
    /// fit the 1-pass canvas, join strategies the actuals overturned.
    pub mispredictions: [AtomicU64; 4],
}

impl TenantStats {
    /// Count the decisions of one completed job, from the plan its stats
    /// carry. A reply served from the result cache (HIT or COALESCED)
    /// counts nothing: the render that produced it counted its decisions
    /// already.
    pub(crate) fn count_plan(&self, stats: &QueryStats) {
        if stats.result_cache.served_from_cache() {
            return;
        }
        let plan = &stats.plan;
        let add = |counters: &[AtomicU64; 4], i: usize, n: u64| {
            counters[i].fetch_add(n, Ordering::Relaxed);
        };
        if let Some(m) = &plan.map {
            add(&self.decisions, 0, m.one_pass);
            add(&self.decisions, 1, m.two_pass);
            add(&self.mispredictions, 1, m.overshoots);
        }
        if let Some(j) = &plan.join {
            let i = match j.strategy {
                JoinStrategy::LayerIndex => 2,
                JoinStrategy::NaiveSelects => 3,
            };
            add(&self.decisions, i, 1);
            add(&self.mispredictions, i, j.mispredicted as u64);
        }
    }
}

/// One tenant of the service. Internal: sessions hold an `Arc` of this and
/// every queued query carries one.
#[derive(Debug)]
pub struct Namespace {
    pub(crate) id: u64,
    pub(crate) name: String,
    pub(crate) token: Option<String>,
    pub(crate) quota: Option<u64>,
    /// Estimated bytes of this tenant's currently running queries.
    reserved: AtomicU64,
    pub(crate) stats: TenantStats,
    /// This tenant's embedded relational store. SQL requests submitted
    /// through a session execute against the submitting session's
    /// namespace only — tenants can never read or modify each other's
    /// tables, matching the dataset-catalog isolation above.
    pub(crate) db: Mutex<Database>,
}

impl Namespace {
    pub(crate) fn new(id: u64, name: String, config: NamespaceConfig) -> Self {
        Namespace {
            id,
            name,
            token: config.token,
            quota: config.quota_bytes,
            reserved: AtomicU64::new(0),
            stats: TenantStats::default(),
            db: Mutex::new(Database::in_memory()),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// Estimated bytes of this tenant's running queries right now.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Acquire)
    }

    /// Check a presented token against the namespace's. A namespace with
    /// no token admits any presentation; one with a token requires an
    /// exact match, compared in constant time — this check is reachable
    /// straight from the wire handshake, so an early-exit comparison
    /// would leak how many leading bytes of a guess were right.
    pub(crate) fn authorize(&self, presented: Option<&str>) -> Result<(), ServiceError> {
        match (&self.token, presented) {
            (None, _) => Ok(()),
            (Some(t), Some(p)) if constant_time_eq(t.as_bytes(), p.as_bytes()) => Ok(()),
            (Some(_), _) => Err(ServiceError::Unauthorized(self.name.clone())),
        }
    }

    /// Can a footprint this large ever run under the quota?
    pub(crate) fn admissible(&self, bytes: u64) -> bool {
        match self.quota {
            Some(q) => bytes <= q,
            None => true,
        }
    }

    /// Atomically reserve quota for one running query; `false` leaves the
    /// query queued without blocking other tenants.
    pub(crate) fn try_reserve(&self, bytes: u64) -> bool {
        let Some(quota) = self.quota else { return true };
        let mut cur = self.reserved.load(Ordering::Acquire);
        loop {
            let new = match cur.checked_add(bytes) {
                Some(n) if n <= quota => n,
                _ => return false,
            };
            match self
                .reserved
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release a [`Namespace::try_reserve`] reservation.
    pub(crate) fn release(&self, bytes: u64) {
        if self.quota.is_none() {
            return;
        }
        let mut cur = self.reserved.load(Ordering::Acquire);
        loop {
            let new = cur.saturating_sub(bytes);
            match self
                .reserved
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The key this tenant's writes to `dataset` carry in the write-ahead
    /// log. The default namespace uses the bare dataset name, so WAL
    /// directories written before namespaces existed replay unchanged;
    /// other tenants prefix their namespace name (`:` cannot appear in
    /// either part — [`validate_name`] rejects it).
    pub(crate) fn wal_key(&self, dataset: &str) -> String {
        if self.id == 0 {
            dataset.to_string()
        } else {
            format!("{}:{}", self.name, dataset)
        }
    }
}

/// Equality whose timing depends only on the operand lengths, never on
/// where the first differing byte sits: every byte of both operands is
/// folded into an accumulator before a single final comparison decides.
/// `black_box` keeps the optimizer from reintroducing a data-dependent
/// early exit.
pub(crate) fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= std::hint::black_box((x ^ y) as usize);
    }
    diff == 0
}

/// Validate a namespace or dataset name at creation/registration time.
/// Rejects empty and oversized names (they'd bloat metric labels and WAL
/// records), control characters (they'd corrupt the Prometheus text
/// format even escaped), and `:` (the WAL-key separator).
pub fn validate_name(kind: &str, name: &str) -> Result<(), ServiceError> {
    if name.is_empty() {
        return Err(ServiceError::InvalidName(format!("empty {kind} name")));
    }
    if name.len() > MAX_NAME_LEN {
        return Err(ServiceError::InvalidName(format!(
            "{kind} name exceeds {MAX_NAME_LEN} bytes ({} given)",
            name.len()
        )));
    }
    if name.chars().any(|c| c.is_control()) {
        return Err(ServiceError::InvalidName(format!(
            "{kind} name contains control characters"
        )));
    }
    if name.contains(':') {
        return Err(ServiceError::InvalidName(format!(
            "{kind} name contains ':' (reserved as the WAL key separator)"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_reserve_release() {
        let ns = Namespace::new(
            1,
            "t".into(),
            NamespaceConfig {
                quota_bytes: Some(100),
                token: None,
            },
        );
        assert!(ns.try_reserve(60));
        assert!(!ns.try_reserve(50));
        assert!(ns.try_reserve(40));
        ns.release(60);
        assert_eq!(ns.reserved(), 40);
        assert!(!ns.admissible(101));
        assert!(ns.admissible(100));
    }

    #[test]
    fn unlimited_namespace_always_reserves() {
        let ns = Namespace::new(1, "t".into(), NamespaceConfig::default());
        assert!(ns.try_reserve(u64::MAX));
        ns.release(u64::MAX);
        assert_eq!(ns.reserved(), 0);
    }

    #[test]
    fn token_check() {
        let ns = Namespace::new(
            1,
            "t".into(),
            NamespaceConfig {
                quota_bytes: None,
                token: Some("s3cret".into()),
            },
        );
        assert!(ns.authorize(Some("s3cret")).is_ok());
        assert!(ns.authorize(Some("wrong")).is_err());
        assert!(ns.authorize(None).is_err());
        let open = Namespace::new(2, "o".into(), NamespaceConfig::default());
        assert!(open.authorize(None).is_ok());
        assert!(open.authorize(Some("anything")).is_ok());
    }

    #[test]
    fn constant_time_eq_agrees_with_plain_equality() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"", b""),
            (b"", b"a"),
            (b"a", b""),
            (b"s3cret", b"s3cret"),
            (b"s3cret", b"s3cres"),
            (b"s3cret", b"t3cret"),
            (b"s3cret", b"s3cret-longer"),
            (b"short", b"a-much-longer-token"),
        ];
        for (a, b) in cases {
            assert_eq!(constant_time_eq(a, b), a == b, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("namespace", "tenant-a").is_ok());
        assert!(validate_name("namespace", "").is_err());
        assert!(validate_name("namespace", &"x".repeat(MAX_NAME_LEN + 1)).is_err());
        assert!(validate_name("namespace", "a:b").is_err());
        assert!(validate_name("namespace", "a\nb").is_err());
        assert!(validate_name("namespace", "quote\"and\\slash").is_ok());
    }

    #[test]
    fn wal_keys_join_tenant() {
        let default = Namespace::new(0, DEFAULT_NAMESPACE.into(), NamespaceConfig::default());
        assert_eq!(default.wal_key("taxi"), "taxi");
        let t = Namespace::new(3, "acme".into(), NamespaceConfig::default());
        assert_eq!(t.wal_key("taxi"), "acme:taxi");
    }
}
