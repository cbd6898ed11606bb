//! The hot-query serving layer: a generation-keyed result cache.
//!
//! SPADE's target workload (§6, NYC-taxi / tweets exploration) re-asks the
//! same map-tile and aggregation queries constantly. This module caches
//! fully rendered [`QueryResult`]s keyed by
//! `(canonical query fingerprint, dataset identity, dataset version)`,
//! where the version is the `(grid generation, delta seq watermark)` pair
//! ([`spade_index::Version`]) the ingestion subsystem already maintains.
//!
//! **Invalidation is free.** A staged write bumps the delta watermark; a
//! compaction bumps the generation. Either changes the version and thus the
//! cache key, so stale entries simply stop being addressable — there is no
//! explicit invalidation protocol to get wrong. Both components are
//! monotone and every mutation strictly changes the pair under the
//! dataset's live lock, so two equal versions observed at different times
//! denote the *same* logical snapshot (no ABA).
//!
//! **Insertion is validate-after-compute.** The key is computed before
//! execution and recomputed after; the result is admitted only when the
//! version did not move in between. A cached entry under version `v` is
//! therefore byte-identical to a cold execution against snapshot `v` — the
//! property `tests/cache_consistency.rs` hammers with a differential +
//! property harness.
//!
//! **Concurrent identical misses render once** (singleflight): the first
//! miss becomes the leader and executes; followers block on the flight and
//! are served the leader's result as a coalesced hit. Leaders that fail,
//! panic, or race a version change release their flight so followers retry.
//!
//! **Footprint is visible to admission control.** Entry bytes are charged
//! through [`TexturePool::charge_external`] into the device ledger the
//! arena is bound to, and released the moment an entry is evicted, purged,
//! or the cache is cleared.

use crate::explain::{CacheNote, PlanReport};
use crate::query::{JoinQuery, QueryResult, SelectQuery};
use crate::stats::{CacheOutcome, QueryStats};
use spade_gpu::TexturePool;
use spade_index::Version;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One input relation of a query, pinned to the version it was read at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputVersion {
    /// Process-unique identity of the dataset handle (registration-stable:
    /// survives compaction, changes when a dataset is re-registered).
    pub token: u64,
    /// The dataset's `(generation, seq)` watermark at key time.
    pub version: Version,
}

/// Full identity of a cacheable execution: what was asked, of which
/// relations, at which versions — and on behalf of which tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical FNV-1a fingerprint of the query AST.
    pub fingerprint: u64,
    /// Namespace the query ran in. Dataset uid tokens are process-unique,
    /// but the tenant joins the key anyway so no registration pattern (uid
    /// reuse across service restarts, colliding external uids) can ever let
    /// two tenants share cached bytes. `0` is the default namespace.
    pub tenant: u64,
    pub left: InputVersion,
    /// Second relation for joins.
    pub right: Option<InputVersion>,
}

// ---------------------------------------------------------------------------
// Canonical query fingerprints
// ---------------------------------------------------------------------------

/// Incremental FNV-1a over the query AST. Floats hash by bit pattern
/// (`to_bits`), so fingerprints are exact and deterministic across runs —
/// two queries collide only if they are structurally identical (modulo the
/// 64-bit digest).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    pub fn u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn point(&mut self, p: spade_geometry::Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    pub fn points(&mut self, pts: &[spade_geometry::Point]) {
        self.u64(pts.len() as u64);
        for p in pts {
            self.point(*p);
        }
    }

    pub fn polygon(&mut self, poly: &spade_geometry::Polygon) {
        self.points(&poly.exterior.points);
        self.u64(poly.holes.len() as u64);
        for hole in &poly.holes {
            self.points(&hole.points);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Canonical fingerprint of a selection query.
pub fn fingerprint_select(q: &SelectQuery) -> u64 {
    let mut fp = Fingerprint::new();
    match q {
        SelectQuery::Intersects(poly) => {
            fp.u8(1);
            fp.polygon(poly);
        }
        SelectQuery::Range(bb) => {
            fp.u8(2);
            fp.point(bb.min);
            fp.point(bb.max);
        }
        SelectQuery::Contained(poly) => {
            fp.u8(3);
            fp.polygon(poly);
        }
        SelectQuery::WithinDistance(c, r) => {
            fp.u8(4);
            match c {
                crate::distance::DistanceConstraint::Point(p) => {
                    fp.u8(1);
                    fp.point(*p);
                }
                crate::distance::DistanceConstraint::Line(l) => {
                    fp.u8(2);
                    fp.points(&l.points);
                }
                crate::distance::DistanceConstraint::Polygon(p) => {
                    fp.u8(3);
                    fp.polygon(p);
                }
            }
            fp.f64(*r);
        }
        SelectQuery::Knn(p, k) => {
            fp.u8(5);
            fp.point(*p);
            fp.u64(*k as u64);
        }
    }
    fp.finish()
}

/// Canonical fingerprint of a join query (input identity/order lives in the
/// key's [`InputVersion`]s, not the fingerprint).
pub fn fingerprint_join(q: &JoinQuery) -> u64 {
    let mut fp = Fingerprint::new();
    match q {
        JoinQuery::Intersects => fp.u8(16),
        JoinQuery::WithinDistance(r) => {
            fp.u8(17);
            fp.f64(*r);
        }
        JoinQuery::Knn(k) => {
            fp.u8(18);
            fp.u64(*k as u64);
        }
        JoinQuery::CountPoints => fp.u8(19),
    }
    fp.finish()
}

/// Approximate resident bytes of a cached result (payload + bookkeeping).
pub fn result_bytes(r: &QueryResult) -> u64 {
    const OVERHEAD: u64 = 96; // key + entry + map slot bookkeeping
    let payload = match r {
        QueryResult::Ids(v) => v.len() * std::mem::size_of::<u32>(),
        QueryResult::Ranked(v) => v.len() * std::mem::size_of::<(u32, f64)>(),
        QueryResult::Pairs(v) => v.len() * std::mem::size_of::<(u32, u32)>(),
        QueryResult::RankedPairs(v) => v.len() * std::mem::size_of::<(u32, u32, f64)>(),
        QueryResult::Counts(v) => v.len() * std::mem::size_of::<(u32, u64)>(),
    };
    OVERHEAD + payload as u64
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

struct Entry {
    result: Arc<QueryResult>,
    /// Plan decisions of the render that produced this entry, copied into
    /// the stats of every reply it serves.
    plan: Arc<PlanReport>,
    bytes: u64,
    /// Whether the device ledger granted the reservation for this entry.
    accounted: bool,
    /// Recency stamp; matches the newest queue slot for this key.
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Lazy LRU queue of `(key, stamp)`; slots whose stamp no longer
    /// matches the entry are skipped at eviction time.
    order: VecDeque<(CacheKey, u64)>,
    tick: u64,
    bytes: u64,
}

/// What a hit serves: the cached result plus the plan of the render that
/// produced it.
type Served = (Arc<QueryResult>, Arc<PlanReport>);

enum FlightState {
    Running,
    Done(Arc<QueryResult>, Arc<PlanReport>),
    /// The leader failed, panicked, or raced a version change; followers
    /// must retry (recomputing their key).
    Failed,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Point-in-time counters for metrics exposition
/// (`spade_result_cache_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResultCacheStats {
    pub hits: u64,
    /// Queries served by waiting on a concurrent identical render.
    pub coalesced: u64,
    pub misses: u64,
    /// Queries that skipped the cache entirely (disabled).
    pub bypasses: u64,
    pub inserted: u64,
    pub evicted: u64,
    /// Computed results not admitted (version moved mid-render, or the
    /// entry alone exceeds the budget).
    pub not_stored: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently resident.
    pub bytes: u64,
}

/// LRU result cache with singleflight coalescing. See the module docs for
/// the keying and staleness story.
pub struct ResultCache {
    enabled: bool,
    budget: u64,
    inner: Mutex<Inner>,
    flights: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    arena: OnceLock<Arc<TexturePool>>,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    inserted: AtomicU64,
    evicted: AtomicU64,
    not_stored: AtomicU64,
}

/// How long a coalescing follower sleeps between leader checks — also the
/// latency bound on noticing cancellation while waiting.
const FLIGHT_POLL: Duration = Duration::from_millis(5);

impl ResultCache {
    pub fn new(budget: u64, enabled: bool) -> Self {
        ResultCache {
            enabled: enabled && budget > 0,
            budget,
            inner: Mutex::new(Inner::default()),
            flights: Mutex::new(HashMap::new()),
            arena: OnceLock::new(),
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            not_stored: AtomicU64::new(0),
        }
    }

    /// Charge entry bytes through this arena (and its device ledger). Only
    /// the first bind takes effect.
    pub fn bind_arena(&self, arena: Arc<TexturePool>) {
        let _ = self.arena.set(arena);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Serve one query execution through the cache.
    ///
    /// `make_key` computes the current cache key (re-reading dataset
    /// versions; called again to validate after a cold render). `compute`
    /// executes the query cold. `poll` is the caller's cancellation check,
    /// consulted while waiting on a concurrent identical render.
    ///
    /// No cache or flight lock is held while `compute` runs.
    pub fn serve<E>(
        &self,
        make_key: impl Fn() -> CacheKey,
        compute: impl FnOnce() -> Result<(QueryResult, QueryStats), E>,
        poll: impl Fn() -> Result<(), E>,
    ) -> Result<(Arc<QueryResult>, QueryStats), E> {
        if !self.enabled {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            let (result, mut stats) = compute()?;
            stats.result_cache = CacheOutcome::Bypass;
            stats.plan.cache = Some(CacheNote { key: None });
            return Ok((Arc::new(result), stats));
        }
        let start = Instant::now();
        let mut compute = Some(compute);
        loop {
            let key = make_key();
            if let Some((result, plan)) = self.lookup(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let stats = served_stats(&result, &plan, CacheOutcome::Hit, key, start);
                return Ok((result, stats));
            }
            // Miss: join or open the flight for this key.
            let (flight, leader) = {
                let mut flights = self.flights.lock().unwrap();
                match flights.get(&key) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight {
                            state: Mutex::new(FlightState::Running),
                            cv: Condvar::new(),
                        });
                        flights.insert(key, Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if !leader {
                match self.wait_flight(&flight, &poll)? {
                    Some((result, plan)) => {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        let outcome = CacheOutcome::CoalescedHit;
                        let stats = served_stats(&result, &plan, outcome, key, start);
                        return Ok((result, stats));
                    }
                    // Leader failed or raced a version change: retry from
                    // the top with a fresh key.
                    None => continue,
                }
            }
            // Leader: render cold, with a guard so followers are released
            // even if `compute` panics or errors.
            let guard = FlightGuard {
                cache: self,
                key,
                flight: &flight,
                resolved: false,
            };
            let outcome = compute.take().expect("leader role reached once")();
            return match outcome {
                Ok((result, mut stats)) => {
                    let result = Arc::new(result);
                    // The render's decisions are stored with the entry, so
                    // every reply it serves carries them.
                    let plan = Arc::new(stats.plan.clone());
                    // Validate-after-compute: admit only if the versions the
                    // key named did not move while rendering, so a cached
                    // entry is always byte-identical to a cold execution at
                    // its key's snapshot.
                    let stable = make_key() == key;
                    if stable {
                        self.insert(key, Arc::clone(&result), Arc::clone(&plan));
                    } else {
                        self.not_stored.fetch_add(1, Ordering::Relaxed);
                    }
                    // Followers may be served the result either way: the
                    // leader's render *was* an execution against the
                    // versions current at their probe.
                    guard.resolve(FlightState::Done(Arc::clone(&result), plan));
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    stats.result_cache = CacheOutcome::Miss;
                    stats.plan.cache = Some(CacheNote { key: Some(key) });
                    Ok((result, stats))
                }
                Err(e) => {
                    guard.resolve(FlightState::Failed);
                    Err(e)
                }
            };
        }
    }

    /// Block on a running flight. `Ok(Some)` is the leader's result,
    /// `Ok(None)` means the leader failed and the caller should retry,
    /// `Err` propagates the caller's own cancellation.
    fn wait_flight<E>(
        &self,
        flight: &Flight,
        poll: &impl Fn() -> Result<(), E>,
    ) -> Result<Option<Served>, E> {
        let mut state = flight.state.lock().unwrap();
        loop {
            match &*state {
                FlightState::Done(r, plan) => return Ok(Some((Arc::clone(r), Arc::clone(plan)))),
                FlightState::Failed => return Ok(None),
                FlightState::Running => {
                    poll()?;
                    let (guard, _) = flight.cv.wait_timeout(state, FLIGHT_POLL).unwrap();
                    state = guard;
                }
            }
        }
    }

    fn lookup(&self, key: &CacheKey) -> Option<Served> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.stamp = tick;
        let served = (Arc::clone(&entry.result), Arc::clone(&entry.plan));
        inner.order.push_back((*key, tick));
        Some(served)
    }

    fn insert(&self, key: CacheKey, result: Arc<QueryResult>, plan: Arc<PlanReport>) {
        let bytes = result_bytes(&result);
        if bytes > self.budget {
            self.not_stored.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let accounted = match self.arena.get() {
            Some(arena) => arena.charge_external(bytes),
            None => false,
        };
        let mut inner = self.inner.lock().unwrap();
        if let Some(old) = inner.map.remove(&key) {
            // A racing leader of the same key beat us; replace its entry
            // (identical payload) and refund its charge.
            inner.bytes -= old.bytes;
            self.release_charge(old.bytes, old.accounted);
        }
        while inner.bytes + bytes > self.budget {
            match inner.order.pop_front() {
                Some((victim_key, stamp)) => {
                    if inner.map.get(&victim_key).is_none_or(|v| v.stamp != stamp) {
                        continue; // stale queue slot: the key was touched or replaced since
                    }
                    let victim = inner.map.remove(&victim_key).expect("checked above");
                    inner.bytes -= victim.bytes;
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                    self.release_charge(victim.bytes, victim.accounted);
                }
                None => break,
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.order.push_back((key, tick));
        inner.bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                result,
                plan,
                bytes,
                accounted,
                stamp: tick,
            },
        );
        self.inserted.fetch_add(1, Ordering::Relaxed);
    }

    fn release_charge(&self, bytes: u64, accounted: bool) {
        if let Some(arena) = self.arena.get() {
            arena.release_external(bytes, accounted);
        }
    }

    /// Drop every entry that references dataset `token` at a version other
    /// than `current`. Stale entries are unreachable through lookups either
    /// way (their key embeds an old version) — purging just releases their
    /// bytes immediately instead of waiting for LRU pressure. Called after
    /// compaction.
    pub fn purge_outdated(&self, token: u64, current: Version) {
        let mut inner = self.inner.lock().unwrap();
        let stale: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|k| {
                let left = k.left.token == token && k.left.version != current;
                let right = k
                    .right
                    .is_some_and(|r| r.token == token && r.version != current);
                left || right
            })
            .copied()
            .collect();
        for key in stale {
            if let Some(entry) = inner.map.remove(&key) {
                inner.bytes -= entry.bytes;
                self.evicted.fetch_add(1, Ordering::Relaxed);
                self.release_charge(entry.bytes, entry.accounted);
            }
        }
    }

    /// Drop everything, releasing all charges.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        for (_, entry) in inner.map.drain() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            self.release_charge(entry.bytes, entry.accounted);
        }
        inner.order.clear();
        inner.bytes = 0;
    }

    pub fn stats(&self) -> ResultCacheStats {
        let (entries, bytes) = {
            let inner = self.inner.lock().unwrap();
            (inner.map.len() as u64, inner.bytes)
        };
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            inserted: self.inserted.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            not_stored: self.not_stored.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

/// Synthesized stats of a query served from the cache: zero I/O, zero
/// passes, zero cells — only the probe's wall time, the result count, and
/// the plan of the render that produced the entry under the probed key.
fn served_stats(
    result: &QueryResult,
    plan: &PlanReport,
    outcome: CacheOutcome,
    key: CacheKey,
    start: Instant,
) -> QueryStats {
    let mut stats = QueryStats {
        result_count: result.len() as u64,
        result_cache: outcome,
        plan: PlanReport {
            cache: Some(CacheNote { key: Some(key) }),
            ..plan.clone()
        },
        ..Default::default()
    };
    stats.finish(start.elapsed());
    stats
}

/// Releases a flight on drop so followers never wait on a dead leader.
struct FlightGuard<'a> {
    cache: &'a ResultCache,
    key: CacheKey,
    flight: &'a Flight,
    resolved: bool,
}

impl FlightGuard<'_> {
    fn resolve(mut self, state: FlightState) {
        self.resolved = true;
        self.finish(state);
    }

    fn finish(&self, state: FlightState) {
        *self.flight.state.lock().unwrap() = state;
        self.flight.cv.notify_all();
        self.cache.flights.lock().unwrap().remove(&self.key);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.resolved {
            self.finish(FlightState::Failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::{BBox, Point, Polygon};
    use std::convert::Infallible;

    fn key_at(fp: u64, seq: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            tenant: 0,
            left: InputVersion {
                token: 7,
                version: Version { generation: 1, seq },
            },
            right: None,
        }
    }

    /// Regression for cross-tenant cache sharing: identical fingerprints
    /// over identical `(token, version)` inputs must still be distinct
    /// entries when the tenant differs, so one namespace's cached bytes can
    /// never be served to another — even if dataset uids collide.
    #[test]
    fn tenants_never_share_entries() {
        let cache = ResultCache::new(1 << 20, true);
        let key_for = |tenant: u64| CacheKey {
            tenant,
            ..key_at(0xfeed, 3)
        };
        let (r1, _) = cache
            .serve::<Infallible>(
                || key_for(1),
                || Ok((ids(4), QueryStats::default())),
                || Ok(()),
            )
            .unwrap();
        // Same query, same dataset token/version, different tenant: a miss
        // computing different data, not a hit on tenant 1's entry.
        let (r2, s2) = cache
            .serve::<Infallible>(
                || key_for(2),
                || Ok((ids(9), QueryStats::default())),
                || Ok(()),
            )
            .unwrap();
        assert_eq!(s2.result_cache, crate::stats::CacheOutcome::Miss);
        assert_ne!(*r1, *r2);
        // Repeats hit within their own tenant only.
        let (r1b, s1b) = cache
            .serve::<Infallible>(
                || key_for(1),
                || panic!("tenant 1 repeat must be a hit"),
                || Ok(()),
            )
            .unwrap();
        assert_eq!(s1b.result_cache, crate::stats::CacheOutcome::Hit);
        assert_eq!(*r1, *r1b);
    }

    fn ids(n: u32) -> QueryResult {
        QueryResult::Ids((0..n).collect())
    }

    #[test]
    fn fingerprints_separate_families_and_parameters() {
        let poly = Polygon::circle(Point::new(1.0, 2.0), 3.0, 8);
        let a = fingerprint_select(&SelectQuery::Intersects(poly.clone()));
        let b = fingerprint_select(&SelectQuery::Contained(poly.clone()));
        let c = fingerprint_select(&SelectQuery::Intersects(poly.clone()));
        assert_ne!(a, b, "same constraint, different family");
        assert_eq!(a, c, "identical queries must fingerprint identically");
        let r1 = fingerprint_select(&SelectQuery::Range(BBox::new(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
        )));
        let r2 = fingerprint_select(&SelectQuery::Range(BBox::new(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0 + 1e-12),
        )));
        assert_ne!(r1, r2, "floats fingerprint by exact bit pattern");
        let k1 = fingerprint_select(&SelectQuery::Knn(Point::new(0.0, 0.0), 3));
        let k2 = fingerprint_select(&SelectQuery::Knn(Point::new(0.0, 0.0), 4));
        assert_ne!(k1, k2);
        assert_ne!(
            fingerprint_join(&JoinQuery::Intersects),
            fingerprint_join(&JoinQuery::CountPoints)
        );
        assert_ne!(
            fingerprint_join(&JoinQuery::WithinDistance(1.0)),
            fingerprint_join(&JoinQuery::WithinDistance(2.0))
        );
    }

    #[test]
    fn disabled_cache_bypasses() {
        let cache = ResultCache::new(1 << 20, false);
        for _ in 0..2 {
            let (r, stats) = cache
                .serve::<Infallible>(
                    || key_at(1, 0),
                    || Ok((ids(3), QueryStats::default())),
                    || Ok(()),
                )
                .unwrap();
            assert_eq!(r.len(), 3);
            assert_eq!(stats.result_cache, CacheOutcome::Bypass);
        }
        let s = cache.stats();
        assert_eq!(s.bypasses, 2);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn miss_then_hit_computes_once() {
        let cache = ResultCache::new(1 << 20, true);
        let mut computes = 0u32;
        let (_, stats) = cache
            .serve::<Infallible>(
                || key_at(9, 5),
                || {
                    computes += 1;
                    Ok((ids(4), QueryStats::default()))
                },
                || Ok(()),
            )
            .unwrap();
        assert_eq!(stats.result_cache, CacheOutcome::Miss);
        let (r, stats) = cache
            .serve::<Infallible>(
                || key_at(9, 5),
                || {
                    computes += 1;
                    Ok((ids(999), QueryStats::default()))
                },
                || Ok(()),
            )
            .unwrap();
        assert_eq!(computes, 1, "second identical query must not render");
        assert_eq!(stats.result_cache, CacheOutcome::Hit);
        assert_eq!(stats.cells_loaded, 0);
        assert_eq!(stats.passes, 0);
        assert_eq!(*r, ids(4));
        // A different version watermark is a different key: cold again.
        let (_, stats) = cache
            .serve::<Infallible>(
                || key_at(9, 6),
                || {
                    computes += 1;
                    Ok((ids(5), QueryStats::default()))
                },
                || Ok(()),
            )
            .unwrap();
        assert_eq!(computes, 2);
        assert_eq!(stats.result_cache, CacheOutcome::Miss);
    }

    #[test]
    fn version_moving_mid_render_blocks_admission() {
        let cache = ResultCache::new(1 << 20, true);
        let seq = std::sync::atomic::AtomicU64::new(0);
        let (_, stats) = cache
            .serve::<Infallible>(
                || key_at(1, seq.load(Ordering::Relaxed)),
                || {
                    // A concurrent write lands while rendering.
                    seq.store(1, Ordering::Relaxed);
                    Ok((ids(2), QueryStats::default()))
                },
                || Ok(()),
            )
            .unwrap();
        assert_eq!(stats.result_cache, CacheOutcome::Miss);
        let s = cache.stats();
        assert_eq!(
            s.entries, 0,
            "result computed astride a version change must not be cached"
        );
        assert_eq!(s.not_stored, 1);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let entry_bytes = result_bytes(&ids(100));
        let cache = ResultCache::new(entry_bytes * 2, true);
        let fill = |fp: u64| {
            cache
                .serve::<Infallible>(
                    || key_at(fp, 0),
                    || Ok((ids(100), QueryStats::default())),
                    || Ok(()),
                )
                .unwrap()
        };
        fill(1);
        fill(2);
        // Touch 1 so 2 is the LRU victim.
        fill(1);
        assert_eq!(cache.stats().hits, 1);
        fill(3); // evicts 2
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evicted, 1);
        assert!(s.bytes <= entry_bytes * 2);
        fill(1);
        assert_eq!(cache.stats().hits, 2, "key 1 must have survived");
        fill(2);
        assert_eq!(cache.stats().misses, 4, "key 2 was the eviction victim");
    }

    #[test]
    fn charges_balance_through_arena_ledger() {
        let arena = Arc::new(TexturePool::new());
        let ledger = Arc::new(spade_gpu::DeviceMemory::new(1 << 20));
        arena.bind_ledger(Arc::clone(&ledger));
        let entry_bytes = result_bytes(&ids(50));
        let cache = ResultCache::new(entry_bytes * 2, true);
        cache.bind_arena(Arc::clone(&arena));
        for fp in 0..10 {
            cache
                .serve::<Infallible>(
                    || key_at(fp, 0),
                    || Ok((ids(50), QueryStats::default())),
                    || Ok(()),
                )
                .unwrap();
        }
        let s = cache.stats();
        assert!(s.entries <= 2);
        assert_eq!(ledger.used(), s.bytes, "ledger mirrors resident bytes");
        assert_eq!(arena.stats().external_bytes, s.bytes);
        cache.clear();
        assert_eq!(ledger.used(), 0, "clear releases every reservation");
        assert_eq!(arena.stats().external_bytes, 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn purge_outdated_releases_stale_versions_only() {
        let arena = Arc::new(TexturePool::new());
        let cache = ResultCache::new(1 << 20, true);
        cache.bind_arena(Arc::clone(&arena));
        for seq in [1u64, 2, 3] {
            cache
                .serve::<Infallible>(
                    || key_at(seq, seq),
                    || Ok((ids(10), QueryStats::default())),
                    || Ok(()),
                )
                .unwrap();
        }
        cache.purge_outdated(
            7,
            Version {
                generation: 1,
                seq: 3,
            },
        );
        let s = cache.stats();
        assert_eq!(s.entries, 1, "only the current-version entry survives");
        assert_eq!(s.evicted, 2);
        assert_eq!(arena.stats().external_bytes, s.bytes);
        // Entries of other datasets are untouched.
        cache.purge_outdated(99, Version::MEMORY);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn failed_leader_releases_followers() {
        let cache = Arc::new(ResultCache::new(1 << 20, true));
        // Leader errors; a later identical query must be able to render.
        let err = cache.serve::<&str>(|| key_at(5, 0), || Err("boom"), || Ok(()));
        assert_eq!(err.unwrap_err(), "boom");
        let (r, stats) = cache
            .serve::<Infallible>(
                || key_at(5, 0),
                || Ok((ids(1), QueryStats::default())),
                || Ok(()),
            )
            .unwrap();
        assert_eq!(*r, ids(1));
        assert_eq!(stats.result_cache, CacheOutcome::Miss);
    }

    #[test]
    fn concurrent_identical_misses_render_once() {
        let cache = Arc::new(ResultCache::new(1 << 20, true));
        let computes = Arc::new(AtomicU64::new(0));
        let outcomes: Vec<CacheOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let computes = Arc::clone(&computes);
                    s.spawn(move || {
                        let (r, stats) = cache
                            .serve::<Infallible>(
                                || key_at(42, 0),
                                || {
                                    computes.fetch_add(1, Ordering::Relaxed);
                                    // Let followers pile up on the flight.
                                    std::thread::sleep(Duration::from_millis(30));
                                    Ok((ids(6), QueryStats::default()))
                                },
                                || Ok(()),
                            )
                            .unwrap();
                        assert_eq!(*r, ids(6));
                        stats.result_cache
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            computes.load(Ordering::Relaxed),
            1,
            "identical concurrent misses must coalesce into one render"
        );
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| **o == CacheOutcome::Miss)
                .count(),
            1
        );
        assert!(outcomes.iter().all(|o| matches!(
            o,
            CacheOutcome::Miss | CacheOutcome::Hit | CacheOutcome::CoalescedHit
        )));
    }
}
