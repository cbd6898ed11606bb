//! The engine's front door: a query AST and a single dispatch point.
//!
//! The executors in [`crate::select`], [`crate::join`], [`crate::distance`],
//! [`crate::knn`] and [`crate::aggregate`] are directly usable; this module
//! wraps them behind one [`SelectQuery`]/[`JoinQuery`] type so callers (and the paper
//! harness) can express "the query" as data — the planner then picks the
//! executor exactly as §5.2 describes per query class.

use crate::ctx::QueryCtx;
use crate::dataset::{Dataset, DatasetKind, IndexedDataset};
use crate::distance::DistanceConstraint;
use crate::engine::Spade;
use crate::result_cache::{fingerprint_join, fingerprint_select, CacheKey, InputVersion};
use crate::stats::QueryOutput;
use spade_geometry::{BBox, Point, Polygon};
use spade_storage::StorageError;

/// A single-data-set spatial query.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectQuery {
    /// `ST_INTERSECTS` with a polygonal constraint (§5.2).
    Intersects(Polygon),
    /// The rectangular-range fast path (§4.2).
    Range(BBox),
    /// `ST_CONTAINS`: objects entirely inside the constraint (§7).
    Contained(Polygon),
    /// All objects within `r` of the constraint geometry (§5.2).
    WithinDistance(DistanceConstraint, f64),
    /// The `k` objects nearest to `q` (§5.2).
    Knn(Point, usize),
}

/// A two-data-set query.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinQuery {
    /// Spatial (intersection) join (§5.2).
    Intersects,
    /// Distance join, type 1: fixed radius (§5.2).
    WithinDistance(f64),
    /// kNN join (§5.2).
    Knn(usize),
    /// Aggregation: count of right-side points per left-side polygon.
    CountPoints,
}

/// The payload of a query result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    Ids(Vec<u32>),
    Ranked(Vec<(u32, f64)>),
    Pairs(Vec<(u32, u32)>),
    RankedPairs(Vec<(u32, u32, f64)>),
    Counts(Vec<(u32, u64)>),
}

impl QueryResult {
    /// Result cardinality, whatever the payload shape.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Ids(v) => v.len(),
            QueryResult::Ranked(v) => v.len(),
            QueryResult::Pairs(v) => v.len(),
            QueryResult::RankedPairs(v) => v.len(),
            QueryResult::Counts(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids, when the payload is id-shaped.
    pub fn ids(&self) -> Option<&[u32]> {
        match self {
            QueryResult::Ids(v) => Some(v),
            _ => None,
        }
    }
}

/// Execute a selection query against an in-memory data set: cold and
/// infallible, which is what makes it (with [`run_join`]) the oracle the
/// differential suites compare every other path against.
pub fn run_select(spade: &Spade, data: &Dataset, q: &SelectQuery) -> QueryOutput<QueryResult> {
    match q {
        SelectQuery::Intersects(poly) => {
            crate::select::select(spade, data, poly).map(QueryResult::Ids)
        }
        SelectQuery::Range(bb) => {
            crate::select::select_range(spade, data, *bb).map(QueryResult::Ids)
        }
        SelectQuery::Contained(poly) => {
            crate::select::select_contained(spade, data, poly).map(QueryResult::Ids)
        }
        SelectQuery::WithinDistance(c, r) => {
            crate::distance::distance_select(spade, data, c, *r).map(QueryResult::Ids)
        }
        SelectQuery::Knn(p, k) => {
            crate::knn::knn_select(spade, data, *p, *k).map(QueryResult::Ranked)
        }
    }
}

/// Execute a join query over two in-memory data sets (cold, infallible).
pub fn run_join(
    spade: &Spade,
    d1: &Dataset,
    d2: &Dataset,
    q: &JoinQuery,
) -> QueryOutput<QueryResult> {
    match q {
        JoinQuery::Intersects => crate::join::join(spade, d1, d2).map(QueryResult::Pairs),
        JoinQuery::WithinDistance(r) => {
            crate::distance::distance_join(spade, d1, d2, *r).map(QueryResult::Pairs)
        }
        JoinQuery::Knn(k) => crate::knn::knn_join(spade, d1, d2, *k).map(QueryResult::RankedPairs),
        // The optimizer always picks the point-optimized plan for point
        // data (§5.2).
        JoinQuery::CountPoints => {
            crate::aggregate::aggregate_points(spade, d1, d2).map(QueryResult::Counts)
        }
    }
}

// ---------------------------------------------------------------------------
// Context-taking dispatch: every caller that is not the oracle
// ---------------------------------------------------------------------------

/// Where a query's data lives. Both dispatchers take `impl Into<Source>`,
/// so call sites pass `&Dataset` or `&IndexedDataset` directly.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    Memory(&'a Dataset),
    Indexed(&'a IndexedDataset),
}

impl<'a> From<&'a Dataset> for Source<'a> {
    fn from(d: &'a Dataset) -> Self {
        Source::Memory(d)
    }
}

impl<'a> From<&'a IndexedDataset> for Source<'a> {
    fn from(d: &'a IndexedDataset) -> Self {
        Source::Indexed(d)
    }
}

impl Source<'_> {
    fn name(&self) -> &str {
        match self {
            Source::Memory(d) => &d.name,
            Source::Indexed(d) => &d.name,
        }
    }

    fn kind(&self) -> DatasetKind {
        match self {
            Source::Memory(d) => d.kind,
            Source::Indexed(d) => d.kind,
        }
    }

    /// This input's result-cache key component, read live: in-memory
    /// datasets are immutable and keyed at [`spade_index::Version::MEMORY`];
    /// an indexed one carries its `(generation, delta seq)` watermark, so
    /// any staged write or compaction invalidates its entries for free.
    fn input(&self) -> InputVersion {
        match self {
            Source::Memory(d) => InputVersion {
                token: d.uid(),
                version: spade_index::Version::MEMORY,
            },
            Source::Indexed(d) => InputVersion {
                token: d.uid(),
                version: d.version(),
            },
        }
    }

    /// The (query class × kind) check: the point-only executors reach
    /// [`Dataset::as_points`], which panics on anything else.
    fn require(&self, kind: DatasetKind, class: &str) -> spade_storage::Result<()> {
        if self.kind() == kind {
            return Ok(());
        }
        Err(StorageError::Unsupported(format!(
            "{class} needs {kind:?} data, '{}' holds {:?}",
            self.name(),
            self.kind()
        )))
    }
}

/// Execute a selection query under a [`QueryCtx`] — indexed or in-memory
/// source, cold or through the result cache, full or cell-scoped, for any
/// tenant. Out-of-core execution can fail on a corrupt or unreadable block
/// (or be cancelled), so errors surface here instead of panicking
/// mid-query. With `QueryCtx::default()` the result is byte-identical to
/// [`run_select`] over the same objects.
pub fn run_select_ctx<'a>(
    spade: &Spade,
    data: impl Into<Source<'a>>,
    q: &SelectQuery,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<QueryResult>> {
    let data = data.into();
    if matches!(q, SelectQuery::WithinDistance(..) | SelectQuery::Knn(..)) {
        data.require(DatasetKind::Points, "a distance or kNN selection")?;
    }
    let fingerprint = || fingerprint_select(q);
    serve(spade, ctx, fingerprint, data, None, || match data {
        Source::Memory(d) => Ok(run_select(spade, d, q)),
        // Every query class streams through the grid filter (§5.3).
        Source::Indexed(d) => Ok(match q {
            SelectQuery::Intersects(poly) => {
                crate::select::select_indexed(spade, d, poly, ctx)?.map(QueryResult::Ids)
            }
            SelectQuery::Range(bb) => {
                crate::select::select_indexed(spade, d, &Polygon::rect(*bb), ctx)?
                    .map(QueryResult::Ids)
            }
            SelectQuery::Contained(poly) => {
                crate::select::select_contained_indexed(spade, d, poly, ctx)?.map(QueryResult::Ids)
            }
            SelectQuery::WithinDistance(c, r) => {
                crate::distance::distance_select_indexed(spade, d, c, *r, ctx)?
                    .map(QueryResult::Ids)
            }
            SelectQuery::Knn(p, k) => {
                crate::knn::knn_select_indexed(spade, d, *p, *k, ctx)?.map(QueryResult::Ranked)
            }
        }),
    })
}

/// Execute a join query under a [`QueryCtx`]; both sides must live in the
/// same kind of [`Source`]. Every indexed class is one executor over the
/// cell-pair walk ([`crate::join`]'s `PairWalk`) — the optimizer-driven
/// join, the aggregation, the distance join and the kNN join — each over
/// the scope's explicit cell pairs when it names some.
pub fn run_join_ctx<'a>(
    spade: &Spade,
    left: impl Into<Source<'a>>,
    right: impl Into<Source<'a>>,
    q: &JoinQuery,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<QueryResult>> {
    let (left, right) = (left.into(), right.into());
    match q {
        JoinQuery::Intersects => {
            if left.kind() != DatasetKind::Polygons {
                right.require(
                    DatasetKind::Polygons,
                    "an intersection join without a polygon side",
                )?;
            }
        }
        JoinQuery::WithinDistance(_) | JoinQuery::Knn(_) => {
            left.require(DatasetKind::Points, "a distance or kNN join")?;
            right.require(DatasetKind::Points, "a distance or kNN join")?;
        }
        JoinQuery::CountPoints => {
            left.require(DatasetKind::Polygons, "the counted side of an aggregation")?;
            right.require(DatasetKind::Points, "the counting side of an aggregation")?;
        }
    }
    let fingerprint = || fingerprint_join(q);
    serve(spade, ctx, fingerprint, left, Some(right), || {
        match (left, right) {
            (Source::Memory(l), Source::Memory(r)) => Ok(run_join(spade, l, r, q)),
            (Source::Indexed(l), Source::Indexed(r)) => Ok(match q {
                JoinQuery::Intersects => {
                    crate::join::join_indexed(spade, l, r, ctx)?.map(QueryResult::Pairs)
                }
                JoinQuery::CountPoints => {
                    crate::aggregate::aggregate_indexed(spade, l, r, ctx)?.map(QueryResult::Counts)
                }
                JoinQuery::WithinDistance(d) => {
                    crate::distance::distance_join_indexed(spade, l, r, *d, ctx)?
                        .map(QueryResult::Pairs)
                }
                JoinQuery::Knn(k) => crate::knn::knn_join_indexed(spade, l, r, *k, ctx)?
                    .map(QueryResult::RankedPairs),
            }),
            _ => Err(StorageError::Unsupported(
                "a join of an indexed and an in-memory dataset".into(),
            )),
        }
    })
}

/// The one place a [`QueryCtx`]'s cache policy is applied. A cached,
/// full-scope run goes through [`crate::result_cache::ResultCache::serve`]:
/// the key combines the query fingerprint, the tenant and each input's
/// live version, is computed before execution and validated after (so a
/// cached entry is always byte-identical to a cold run at its snapshot),
/// and identical concurrent misses coalesce into one render — the cancel
/// token is polled while waiting on one. Everything else runs `cold`
/// untouched and reports `BYPASS`: a scoped partial is not the answer to
/// its key, and in-memory data has no cells to scope.
fn serve(
    spade: &Spade,
    ctx: &QueryCtx,
    fingerprint: impl FnOnce() -> u64,
    left: Source<'_>,
    right: Option<Source<'_>>,
    cold: impl FnOnce() -> spade_storage::Result<QueryOutput<QueryResult>>,
) -> spade_storage::Result<QueryOutput<QueryResult>> {
    if !ctx.scope.is_full() {
        if let Source::Memory(_) = left {
            return Err(StorageError::Unsupported(
                "a cell scope on an in-memory dataset".into(),
            ));
        }
        return cold();
    }
    if !ctx.cached {
        return cold();
    }
    let fingerprint = fingerprint();
    let (result, stats) = spade.result_cache.serve(
        || CacheKey {
            fingerprint,
            tenant: ctx.tenant,
            left: left.input(),
            right: right.map(|r| r.input()),
        },
        || cold().map(|out| (out.result, out.stats)),
        || ctx.cancel.check(),
    )?;
    // Hits clone the payload out of the shared entry — still orders of
    // magnitude cheaper than a render, and it keeps the public
    // `QueryOutput` shape.
    Ok(QueryOutput {
        result: (*result).clone(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::scope::Scope;
    use crate::stats::CacheOutcome;

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
    }

    fn grid_points() -> Dataset {
        Dataset::from_points(
            "g",
            (0..100)
                .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
                .collect(),
        )
    }

    fn tiles() -> Dataset {
        Dataset::from_polygons(
            "tiles",
            vec![
                Polygon::rect(BBox::new(Point::new(-0.5, -0.5), Point::new(4.5, 4.5))),
                Polygon::rect(BBox::new(Point::new(4.5, 4.5), Point::new(9.5, 9.5))),
                Polygon::rect(BBox::new(Point::new(2.0, 2.0), Point::new(7.0, 7.0))),
            ],
        )
    }

    fn indexed(data: &Dataset, cell: f64) -> IndexedDataset {
        let grid = spade_index::GridIndex::build(None, &data.objects, cell).unwrap();
        IndexedDataset::new(data.name.clone(), data.kind, grid)
    }

    /// The five select classes. The kNN probe sits off-lattice so no two
    /// points tie on distance and the ranked order is unique.
    fn select_classes() -> Vec<SelectQuery> {
        let poly = Polygon::circle(Point::new(4.5, 4.5), 3.0, 16);
        vec![
            SelectQuery::Intersects(poly.clone()),
            SelectQuery::Range(BBox::new(Point::new(1.0, 1.0), Point::new(7.0, 6.0))),
            SelectQuery::Contained(poly),
            SelectQuery::WithinDistance(DistanceConstraint::Point(Point::new(4.0, 4.0)), 2.5),
            SelectQuery::Knn(Point::new(2.13, 7.31), 7),
        ]
    }

    #[derive(Debug)]
    enum Q {
        Select(SelectQuery),
        Join(JoinQuery),
    }

    /// The dispatcher contract, for all five select classes × {in-memory,
    /// indexed, indexed with a staged write} and all four join classes ×
    /// the same three sources:
    /// (a) `QueryCtx::default()` is the cold oracle byte for byte,
    /// (b) the cached ctx goes `MISS` then `HIT` without touching a cell,
    ///     and the HIT carries its MISS's plan,
    /// (c) a non-full scope reports `BYPASS` and leaves the cache counters
    ///     alone even when `cached` is set (and has no in-memory meaning),
    /// (d) a pre-cancelled token yields `Cancelled` from every indexed
    ///     family with the device ledger at zero,
    /// (e) every run carries its decisions in `stats.plan`: the Map
    ///     choices of each class that runs a Map, the indexed join's
    ///     strategy, and one delta merge per dataset with staged writes.
    #[test]
    fn dispatcher_contract() {
        let (pts, polys) = (grid_points(), tiles());
        let (ipts, ipolys) = (indexed(&pts, 3.0), indexed(&polys, 5.0));
        // The third source: each side re-inserts its object 0 unchanged, so
        // the logical contents (and every answer) stay the same while the
        // staged delta joins every walk.
        let (spts, spolys) = (indexed(&pts, 3.0), indexed(&polys, 5.0));
        spts.insert(0, pts.objects[0].1.clone());
        spolys.insert(0, polys.objects[0].1.clone());
        let points: [Source<'_>; 3] = [(&pts).into(), (&ipts).into(), (&spts).into()];
        let polygons: [Source<'_>; 3] = [(&polys).into(), (&ipolys).into(), (&spolys).into()];
        // A join's left side: the points for the point-only classes.
        let on_points =
            |q: &JoinQuery| !matches!(q, JoinQuery::Intersects | JoinQuery::CountPoints);
        // Every cell pair of the two sides a class actually joins.
        let all_pairs = |left: &IndexedDataset| -> Vec<(u32, u32)> {
            (0..left.grid().num_cells() as u32)
                .flat_map(|l| (0..ipts.grid().num_cells() as u32).map(move |r| (l, r)))
                .collect()
        };
        let (point_pairs, polygon_pairs) = (all_pairs(&ipts), all_pairs(&ipolys));
        let run = |q: &Q, source: usize, s: &Spade, ctx: &QueryCtx| match q {
            Q::Select(q) => run_select_ctx(s, points[source], q, ctx),
            Q::Join(q) if on_points(q) => run_join_ctx(s, points[source], points[source], q, ctx),
            Q::Join(q) => run_join_ctx(s, polygons[source], points[source], q, ctx),
        };
        let joins = [
            JoinQuery::Intersects,
            JoinQuery::WithinDistance(0.5),
            JoinQuery::Knn(3),
            JoinQuery::CountPoints,
        ];
        let classes: Vec<Q> = (select_classes().into_iter().map(Q::Select))
            .chain(joins.map(Q::Join))
            .collect();
        let oracle = engine();

        for (q, source) in classes.iter().flat_map(|q| (0..3).map(move |i| (q, i))) {
            let (out_of_core, staged) = (source > 0, source == 2);
            let label = format!("{q:?}, out of core: {out_of_core}, staged: {staged}");
            // The oracle, and a non-full scope that still covers everything.
            let (mut want, scope) = match q {
                Q::Select(q) => (
                    run_select(&oracle, &pts, q).result,
                    Scope::Cells(crate::scope::CellScope::full()),
                ),
                Q::Join(q) => (
                    run_join(&oracle, if on_points(q) { &pts } else { &polys }, &pts, q).result,
                    Scope::Pairs {
                        pairs: if on_points(q) {
                            &point_pairs
                        } else {
                            &polygon_pairs
                        },
                        include_delta: true,
                    },
                ),
            };
            // Cell order is not input order: indexed id lists come sorted.
            if let (QueryResult::Ids(ids), true) = (&mut want, out_of_core) {
                ids.sort_unstable();
            }
            let s = engine();

            if out_of_core {
                let cancelled = QueryCtx::default();
                cancelled.cancel.cancel();
                let err = run(q, source, &s, &cancelled).err();
                assert_eq!(err, Some(StorageError::Cancelled), "(d) {label}");
                assert_eq!(s.device.used(), 0, "(d) ledger after cancel, {label}");
            }

            let cold = run(q, source, &s, &QueryCtx::default()).unwrap();
            assert_eq!(cold.result, want, "(a) {label}");
            assert_eq!(cold.stats.result_cache, CacheOutcome::Bypass, "(a) {label}");

            let scoped = QueryCtx {
                scope,
                ..QueryCtx::cached()
            };
            match run(q, source, &s, &scoped) {
                Ok(out) if out_of_core => {
                    assert_eq!(out.result, want, "(c) {label}");
                    assert_eq!(out.stats.result_cache, CacheOutcome::Bypass, "(c) {label}");
                }
                Err(StorageError::Unsupported(_)) if !out_of_core => {}
                other => panic!("(c) {label}: {other:?}"),
            }
            assert_eq!(s.result_cache.stats(), Default::default(), "(c) {label}");

            let miss = run(q, source, &s, &QueryCtx::cached()).unwrap();
            let hit = run(q, source, &s, &QueryCtx::cached()).unwrap();
            assert_eq!(miss.stats.result_cache, CacheOutcome::Miss, "(b) {label}");
            assert_eq!(hit.stats.result_cache, CacheOutcome::Hit, "(b) {label}");
            assert_eq!(hit.stats.cells_loaded, 0, "(b) {label}");
            assert_eq!((&miss.result, &hit.result), (&want, &want), "(b) {label}");
            assert_eq!(hit.stats.plan, miss.stats.plan, "(b) {label}");
            let key = miss.stats.plan.cache.and_then(|note| note.key);
            assert!(key.is_some(), "(b) {label}");

            // Every select class maps its points; no join class runs a Map.
            // A self-join's two views of one staged dataset merge it once.
            let staged_sets: &[&str] = match q {
                _ if !staged => &[],
                Q::Join(q) if !on_points(q) => &["tiles", "g"],
                _ => &["g"],
            };
            let indexed_join = out_of_core && matches!(q, Q::Join(JoinQuery::Intersects));
            for plan in [&cold.stats.plan, &miss.stats.plan] {
                assert_eq!(plan.map.is_some(), matches!(q, Q::Select(_)), "(e) {label}");
                assert_eq!(plan.join.is_some(), indexed_join, "(e) {label}");
                let merged = plan.deltas.iter().map(|d| (d.dataset.as_str(), d.staged));
                let want_merged = staged_sets.iter().map(|&d| (d, 1));
                assert!(merged.eq(want_merged), "(e) {label}: {:?}", plan.deltas);
            }
        }
    }

    /// Every (query class × kind) pair the point-only executors would
    /// panic on is refused up front, whatever the source.
    #[test]
    fn kind_mismatch_is_an_error() {
        let s = engine();
        let (pts, polys) = (grid_points(), tiles());
        let (ipts, ipolys) = (indexed(&pts, 3.0), indexed(&polys, 5.0));
        let ctx = QueryCtx::default();
        let refused = |r: spade_storage::Result<QueryOutput<QueryResult>>| {
            matches!(r, Err(StorageError::Unsupported(_)))
        };
        for q in &select_classes()[3..] {
            assert!(refused(run_select_ctx(&s, &polys, q, &ctx)), "{q:?}");
            assert!(refused(run_select_ctx(&s, &ipolys, q, &ctx)), "{q:?}");
        }
        for q in [JoinQuery::WithinDistance(1.0), JoinQuery::Knn(2)] {
            assert!(refused(run_join_ctx(&s, &polys, &pts, &q, &ctx)), "{q:?}");
            assert!(refused(run_join_ctx(&s, &ipts, &ipolys, &q, &ctx)), "{q:?}");
        }
        let (count, join) = (JoinQuery::CountPoints, JoinQuery::Intersects);
        assert!(refused(run_join_ctx(&s, &polys, &polys, &count, &ctx)));
        assert!(refused(run_join_ctx(&s, &ipts, &ipts, &count, &ctx)));
        assert!(refused(run_join_ctx(&s, &pts, &pts, &join, &ctx)));
        assert!(refused(run_join_ctx(&s, &ipolys, &pts, &join, &ctx)));
    }

    /// Scoped execution must partition exactly: a 3-way split of the
    /// cell-id space, with the delta granted to exactly one scope,
    /// unions back to the unscoped result for every select family, and
    /// a partition of the join's cell pairs concatenates back to the
    /// full join. This is the local form of the cluster coordinator's
    /// byte-identity merge argument.
    #[test]
    fn scoped_execution_partitions_exactly() {
        let s = engine();
        let indexed = indexed(&grid_points(), 3.0);
        let n = indexed.grid().num_cells() as u32;
        assert!(n >= 3, "need a multi-cell grid, got {n} cells");
        let cuts = [0u32, n / 3, 2 * n / 3, u32::MAX];
        let full_ctx = QueryCtx::default();

        for q in &select_classes() {
            let full = run_select_ctx(&s, &indexed, q, &full_ctx).unwrap().result;
            let parts: Vec<QueryResult> = (0..3)
                .map(|i| {
                    let ctx = QueryCtx {
                        scope: Scope::Cells(crate::scope::CellScope {
                            lo: cuts[i],
                            hi: cuts[i + 1],
                            include_delta: i == 0,
                        }),
                        ..QueryCtx::default()
                    };
                    run_select_ctx(&s, &indexed, q, &ctx).unwrap().result
                })
                .collect();
            match full {
                QueryResult::Ids(full_ids) => {
                    let mut union: Vec<u32> = parts
                        .iter()
                        .flat_map(|p| p.ids().expect("scoped kind matches").iter().copied())
                        .collect();
                    let before = union.len();
                    union.sort_unstable();
                    union.dedup();
                    assert_eq!(before, union.len(), "scopes must be disjoint ({q:?})");
                    assert_eq!(union, full_ids, "union must equal the whole ({q:?})");
                }
                QueryResult::Ranked(full_ranked) => {
                    let mut union: Vec<(u32, f64)> = parts
                        .iter()
                        .flat_map(|p| match p {
                            QueryResult::Ranked(v) => v.clone(),
                            other => panic!("expected ranked partial, got {other:?}"),
                        })
                        .collect();
                    union.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    union.truncate(full_ranked.len());
                    assert_eq!(union, full_ranked, "merged top-k must equal the whole");
                }
                other => panic!("unexpected full result {other:?}"),
            }
        }

        // The joins: partition every cell pair across three executions.
        let ip = self::indexed(&tiles(), 5.0);
        let joins = [
            (JoinQuery::Intersects, &ip),
            (JoinQuery::CountPoints, &ip),
            (JoinQuery::WithinDistance(1.5), &indexed),
            (JoinQuery::Knn(4), &indexed),
        ];
        for (q, left) in joins {
            let all_pairs: Vec<(u32, u32)> = (0..left.grid().num_cells() as u32)
                .flat_map(|l| (0..n).map(move |r| (l, r)))
                .collect();
            let full = run_join_ctx(&s, left, &indexed, &q, &full_ctx)
                .unwrap()
                .result;
            let parts: Vec<QueryResult> = (0..3)
                .map(|i| {
                    let slice: Vec<(u32, u32)> = all_pairs
                        .iter()
                        .filter(|(l, r)| (l + r) % 3 == i)
                        .copied()
                        .collect();
                    let ctx = QueryCtx {
                        scope: Scope::Pairs {
                            pairs: &slice,
                            include_delta: i == 0,
                        },
                        ..QueryCtx::default()
                    };
                    run_join_ctx(&s, left, &indexed, &q, &ctx).unwrap().result
                })
                .collect();
            match full {
                QueryResult::Pairs(full_pairs) => {
                    let mut union: Vec<(u32, u32)> = parts
                        .iter()
                        .flat_map(|p| match p {
                            QueryResult::Pairs(v) => v.clone(),
                            other => panic!("expected pairs partial, got {other:?}"),
                        })
                        .collect();
                    union.sort_unstable();
                    union.dedup();
                    assert!(!union.is_empty(), "{q:?}");
                    assert_eq!(union, full_pairs, "pair union must equal the whole ({q:?})");
                }
                QueryResult::RankedPairs(full_ranked) => {
                    let JoinQuery::Knn(k) = q else {
                        panic!("ranked pairs from {q:?}")
                    };
                    let mut groups = std::collections::BTreeMap::<u32, Vec<(u32, f64)>>::new();
                    for p in &parts {
                        let QueryResult::RankedPairs(v) = p else {
                            panic!("expected ranked-pairs partial, got {p:?}")
                        };
                        for &(l, r, d) in v {
                            groups.entry(l).or_default().push((r, d));
                        }
                    }
                    let mut union = Vec::new();
                    for (l, mut group) in groups {
                        group.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                        group.truncate(k);
                        union.extend(group.into_iter().map(|(r, d)| (l, r, d)));
                    }
                    assert_eq!(full_ranked.len(), 100 * k);
                    assert_eq!(union, full_ranked, "merged top-k must equal the whole");
                }
                QueryResult::Counts(full_counts) => {
                    let mut sums = std::collections::BTreeMap::new();
                    for p in &parts {
                        let QueryResult::Counts(v) = p else {
                            panic!("expected counts partial, got {p:?}")
                        };
                        for (id, c) in v {
                            *sums.entry(*id).or_insert(0u64) += c;
                        }
                    }
                    let union: Vec<(u32, u64)> = sums.into_iter().collect();
                    assert_eq!(union, full_counts, "summed counts must equal the whole");
                }
                other => panic!("unexpected full join result {other:?}"),
            }
        }
    }

    #[test]
    fn result_helpers() {
        let r = QueryResult::Ids(vec![1, 2, 3]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(QueryResult::Pairs(vec![]).is_empty());
        assert!(QueryResult::Counts(vec![(1, 2)]).ids().is_none());
    }
}
