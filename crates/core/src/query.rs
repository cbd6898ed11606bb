//! The engine's front door: a query AST and a single dispatch point.
//!
//! Every query family has one executor, in [`crate::select`],
//! [`crate::join`], [`crate::distance`], [`crate::knn`] or
//! [`crate::aggregate`], over one of the two walks — and over any
//! [`Source`]: data in memory is the walk's zero-cell case, a view with
//! one memory slot. This module wraps them behind one
//! [`SelectQuery`]/[`JoinQuery`] type so callers (and the paper harness)
//! can express "the query" as data; [`run_select_ctx`] and
//! [`run_join_ctx`] pick the executor exactly as §5.2 describes per query
//! class, and apply a [`QueryCtx`]'s cache policy.

use crate::ctx::QueryCtx;
use crate::dataset::{Dataset, DatasetKind, IndexedDataset, ReadView};
use crate::distance::DistanceConstraint;
use crate::engine::Spade;
use crate::result_cache::{fingerprint_join, fingerprint_select, CacheKey, InputVersion};
use crate::stats::QueryOutput;
use spade_geometry::{BBox, Point, Polygon};
use spade_storage::StorageError;
use std::sync::Arc;

/// A single-data-set spatial query.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectQuery {
    /// `ST_INTERSECTS` with a polygonal constraint (§5.2).
    Intersects(Polygon),
    /// An axis-aligned range: runs as `Intersects(Polygon::rect(bb))`.
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

/// Where a query's data lives. Both dispatchers and every executor take
/// `impl Into<Source>`, so call sites pass `&Arc<Dataset>` or
/// `&IndexedDataset` directly; below the dispatch, everything sees only
/// the [`ReadView`] a source opens.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    Memory(&'a Arc<Dataset>),
    Indexed(&'a IndexedDataset),
}

impl<'a> From<&'a Arc<Dataset>> for Source<'a> {
    fn from(d: &'a Arc<Dataset>) -> Self {
        Source::Memory(d)
    }
}

impl<'a> From<&'a IndexedDataset> for Source<'a> {
    fn from(d: &'a IndexedDataset) -> Self {
        Source::Indexed(d)
    }
}

impl<'a> Source<'a> {
    /// The snapshot a query over this source runs against: an indexed
    /// dataset's grid and delta, or a registered dataset's memory slot.
    pub(crate) fn read_view(self) -> ReadView<'a> {
        match self {
            Source::Memory(d) => d.read_view(),
            Source::Indexed(d) => d.read_view(),
        }
    }

    /// The dataset's name, kind and process-unique identity.
    pub(crate) fn describe(self) -> (&'a str, DatasetKind, u64) {
        match self {
            Source::Memory(d) => (&d.name, d.kind, d.uid()),
            Source::Indexed(d) => (&d.name, d.kind, d.uid()),
        }
    }

    /// This input's result-cache key component, read live: an indexed
    /// dataset carries its `(generation, delta seq)` watermark, so any
    /// staged write or compaction invalidates its entries for free; a
    /// registered dataset is immutable, and its view — an empty grid with
    /// no delta — is always at `(0, 0)`.
    fn input(self) -> InputVersion {
        let version = match self {
            Source::Memory(_) => Default::default(),
            Source::Indexed(d) => d.version(),
        };
        let token = self.describe().2;
        InputVersion { token, version }
    }

    /// The (query class × kind) check each executor makes before it
    /// plans: the point-only kernels reach [`Dataset::as_points`], which
    /// panics on anything else, and a join refines only against a polygon
    /// side.
    pub(crate) fn require(self, kind: DatasetKind, class: &str) -> spade_storage::Result<()> {
        match self.describe() {
            (_, held, _) if held == kind => Ok(()),
            (name, held, _) => Err(StorageError::Unsupported(format!(
                "{class} needs {kind:?} data, '{name}' holds {held:?}"
            ))),
        }
    }
}

/// Execute a selection query under a [`QueryCtx`] — over any source, cold
/// or through the result cache, full or cell-scoped, for any tenant.
/// Every query class streams the source's slots through one cell walk
/// (§5.3), so errors from a corrupt or unreadable block, a cancel or a
/// deadline surface here instead of panicking mid-query.
pub fn run_select_ctx<'a>(
    spade: &Spade,
    data: impl Into<Source<'a>>,
    q: &SelectQuery,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<QueryResult>> {
    let d = data.into();
    serve(
        spade,
        ctx,
        || fingerprint_select(q),
        d,
        None,
        || {
            Ok(match q {
                SelectQuery::Intersects(poly) => {
                    crate::select::select_indexed(spade, d, poly, ctx)?.map(QueryResult::Ids)
                }
                SelectQuery::Range(bb) => {
                    crate::select::select_indexed(spade, d, &Polygon::rect(*bb), ctx)?
                        .map(QueryResult::Ids)
                }
                SelectQuery::Contained(poly) => {
                    crate::select::select_contained_indexed(spade, d, poly, ctx)?
                        .map(QueryResult::Ids)
                }
                SelectQuery::WithinDistance(c, r) => {
                    crate::distance::distance_select_indexed(spade, d, c, *r, ctx)?
                        .map(QueryResult::Ids)
                }
                SelectQuery::Knn(p, k) => {
                    crate::knn::knn_select_indexed(spade, d, *p, *k, ctx)?.map(QueryResult::Ranked)
                }
            })
        },
    )
}

/// Execute a join query under a [`QueryCtx`], each side from any
/// [`Source`]. Every class is one executor over the cell-pair walk
/// ([`crate::join`]'s `PairWalk`) — the layer-index join, the
/// aggregation, the distance join and the kNN join — each over the
/// scope's explicit cell pairs when it names some.
pub fn run_join_ctx<'a>(
    spade: &Spade,
    left: impl Into<Source<'a>>,
    right: impl Into<Source<'a>>,
    q: &JoinQuery,
    ctx: &QueryCtx,
) -> spade_storage::Result<QueryOutput<QueryResult>> {
    let (l, r) = (left.into(), right.into());
    serve(
        spade,
        ctx,
        || fingerprint_join(q),
        l,
        Some(r),
        || {
            Ok(match q {
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
            })
        },
    )
}

/// The one place a [`QueryCtx`]'s cache policy is applied. A cached,
/// full-scope run goes through [`crate::result_cache::ResultCache::serve`]:
/// the key combines the query fingerprint, the tenant and each input's
/// live version, is computed before execution and validated after (so a
/// cached entry is always byte-identical to a cold run at its snapshot),
/// and identical concurrent misses coalesce into one render — the cancel
/// token is polled while waiting on one. Everything else runs `cold`
/// untouched and reports `BYPASS`: a scoped partial is not the answer to
/// its key.
fn serve(
    spade: &Spade,
    ctx: &QueryCtx,
    fingerprint: impl FnOnce() -> u64,
    left: Source<'_>,
    right: Option<Source<'_>>,
    cold: impl FnOnce() -> spade_storage::Result<QueryOutput<QueryResult>>,
) -> spade_storage::Result<QueryOutput<QueryResult>> {
    if !ctx.scope.is_full() || !ctx.cached {
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
    use crate::stats::{CacheOutcome, QueryStats};

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
    }

    fn grid_points() -> Arc<Dataset> {
        Arc::new(Dataset::from_points(
            "g",
            (0..100)
                .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
                .collect(),
        ))
    }

    /// Three rectangles and a diamond. The diamond's four diagonal edges
    /// each run through three lattice points of [`grid_points`], its inside
    /// on a different side of each, so pixel centres there fall on either
    /// side of an edge and only the boundary index answers the joins and
    /// the counts right.
    fn tiles() -> Arc<Dataset> {
        let diamond = [(5.0, 0.0), (9.0, 4.0), (5.0, 8.0), (1.0, 4.0)];
        Arc::new(Dataset::from_polygons(
            "tiles",
            vec![
                Polygon::rect(BBox::new(Point::new(-0.5, -0.5), Point::new(4.5, 4.5))),
                Polygon::rect(BBox::new(Point::new(4.5, 4.5), Point::new(9.5, 9.5))),
                Polygon::rect(BBox::new(Point::new(2.0, 2.0), Point::new(7.0, 7.0))),
                Polygon::new(diamond.map(|(x, y)| Point::new(x, y)).to_vec()),
            ],
        ))
    }

    fn indexed(data: &Dataset, cell: f64) -> IndexedDataset {
        let grid = spade_index::GridIndex::build(None, &data.objects, cell).unwrap();
        IndexedDataset::new(data.name.clone(), data.kind, grid)
    }

    /// The five select classes. The intersection constraint is an L whose
    /// two inner edges run through lattice points away from the viewport's
    /// rim, so pixel centres there fall on either side of the edge and only
    /// the boundary index answers right. The kNN probe sits off-lattice so
    /// no two points tie on distance and the ranked order is unique.
    fn select_classes() -> Vec<SelectQuery> {
        let poly = Polygon::circle(Point::new(4.5, 4.5), 3.0, 16);
        let ell = [
            (0.5, 0.3),
            (7.5, 0.3),
            (7.5, 3.0),
            (4.0, 3.0),
            (4.0, 6.0),
            (0.5, 6.0),
        ];
        vec![
            SelectQuery::Intersects(Polygon::new(ell.map(|(x, y)| Point::new(x, y)).to_vec())),
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

    /// The independent answer to each class over `pts` and `polys`, from
    /// `spade_baselines::brute` (ids are input positions here).
    fn brute(q: &Q, pts: &Dataset, polys: &Dataset) -> QueryResult {
        use spade_baselines::brute;
        let points: Vec<Point> = pts.as_points().into_iter().map(|(_, p)| p).collect();
        let polygons: Vec<Polygon> = polys
            .as_polygons()
            .into_iter()
            .map(|(_, p)| p.clone())
            .collect();
        match q {
            Q::Select(SelectQuery::Intersects(poly) | SelectQuery::Contained(poly)) => {
                QueryResult::Ids(brute::select_points(&points, poly))
            }
            Q::Select(SelectQuery::Range(bb)) => {
                QueryResult::Ids(brute::select_points(&points, &Polygon::rect(*bb)))
            }
            Q::Select(SelectQuery::WithinDistance(DistanceConstraint::Point(c), r)) => {
                let near = brute::distance_join(&[*c], &points, *r);
                QueryResult::Ids(near.into_iter().map(|(_, id)| id).collect())
            }
            Q::Select(SelectQuery::Knn(p, k)) => QueryResult::Ranked(brute::knn(&points, *p, *k)),
            Q::Select(other) => unimplemented!("no brute form of {other:?}"),
            Q::Join(JoinQuery::Intersects) => {
                QueryResult::Pairs(brute::join_polygon_point(&polygons, &points))
            }
            Q::Join(JoinQuery::WithinDistance(r)) => {
                QueryResult::Pairs(brute::distance_join(&points, &points, *r))
            }
            Q::Join(JoinQuery::Knn(k)) => {
                QueryResult::RankedPairs(brute::knn_join(&points, &points, *k))
            }
            Q::Join(JoinQuery::CountPoints) => {
                QueryResult::Counts(brute::aggregate(&polygons, &points))
            }
        }
    }

    /// The passes a full-scope run of `q` over `(left, right)` renders,
    /// `warm` the left slots whose prepared form the run finds already
    /// made (a registered dataset's memo, a cell the cell cache keeps): the
    /// formulas beside DESIGN.md §1's operator table, in terms
    /// of the constraint layers, the Map implementation and the slots
    /// refined. A polygon canvas is two passes, a disk canvas one (its
    /// classified draw), a polygon's distance canvas two (the distance
    /// filter adds one hull selection per left slot), a layer index one
    /// pass per layer, a Map one pass (1-pass) or two (2-pass).
    /// The join terms come from the walk the class plans (its pairs in
    /// order, the slots each pair loads). `None` for a staged kNN select,
    /// where which of its two runs refine the memory slot is not visible
    /// from outside.
    fn expected_passes(
        s: &Spade,
        q: &Q,
        (left, right): (Source<'_>, Source<'_>),
        stats: &QueryStats,
        warm: &[u32],
    ) -> Option<u64> {
        use crate::dataset::PreparedPolygonSet;
        use crate::distance::{disk_layers, hulls_within};
        use crate::join::{hull_pairs, PairWalk};
        use crate::knn::{circle_radii, count_bound, count_circles, radius_for};
        let grid = |src: Source<'_>| src.read_view().grid.num_cells() as u64;
        if let Q::Select(q) = q {
            let map = stats.plan.map.expect("every select class maps");
            let maps = map.one_pass + map.two_pass;
            let map_passes = map.one_pass + 2 * map.two_pass;
            let filter = grid(left).min(1); // the hull selection
            return match q {
                // Canvas + coarse filter canvas, filter, one Map per slot.
                SelectQuery::Intersects(_) | SelectQuery::Range(_) | SelectQuery::Contained(_) => {
                    Some(2 + 2 + filter + map_passes)
                }
                // One distance canvas serves both filter and refinement.
                SelectQuery::WithinDistance(..) => Some(1 + filter + map_passes),
                // Two circles, two filtered runs: one counting pass per
                // slot of the first, one Map per slot of the second.
                SelectQuery::Knn(..) => {
                    let counted = match (grid(left), left.read_view().has_delta()) {
                        (0, _) => 1,
                        (_, false) => stats.cells_loaded - maps,
                        (_, true) => return None,
                    };
                    Some(1 + 1 + 2 * filter + counted + map_passes)
                }
            };
        }
        let Q::Join(j) = q else { unreachable!() };
        let ctx = QueryCtx::default();
        let walk = match j {
            JoinQuery::Intersects | JoinQuery::CountPoints => {
                PairWalk::plan(left, right, &ctx, |l, r| hull_pairs(s, l, r))
            }
            JoinQuery::WithinDistance(r) => {
                PairWalk::plan(left, right, &ctx, |a, b| hulls_within(s, a, b, |_| *r))
            }
            JoinQuery::Knn(k) => PairWalk::plan(left, right, &ctx, |(v1, l), (v2, r)| {
                hulls_within(s, (v1, l), (v2, r), |l| {
                    count_bound(v2, v2.slots(true), &v1.hull(l).exterior.points, *k)
                })
            }),
        }
        .unwrap();
        let (v1, v2) = (&walk.view1, &walk.view2);
        let load = |v: &ReadView<'_>, slot: u32| v.load_cell_cached(slot as usize, 0).unwrap().0;
        let layers = |slot: u32| {
            let data = load(v1, slot);
            let set = PreparedPolygonSet::prepare(&s.pipeline, &data, s.config.layer_resolution());
            set.layers.len() as u64
        };
        // The left slot entering residency, once per change in pair order.
        let entries: Vec<u32> = (walk.sequence.iter())
            .filter(|&&(side, _)| side == 0)
            .map(|&(_, slot)| slot as u32)
            .collect();
        let pairs = &walk.cell_pairs;
        let filtered = grid(left) + grid(right) > 0;
        let (end1, end2) = (v1.slots(true).end, v2.slots(true).end);
        // Disk layers of the left slot's points at the given radii, and
        // their passes: one per canvas per entry, one probe per pair.
        let disks = |d: &dyn Fn(u32) -> u64| {
            entries.iter().map(|&l| d(l)).sum::<u64>() + pairs.iter().map(|p| d(p.0)).sum::<u64>()
        };
        match j {
            JoinQuery::Intersects | JoinQuery::CountPoints => {
                // Filter: each side's hull layer index, then per layer of
                // the side with fewer: its canvas and one probe pass.
                let hull_layers = |v: &ReadView<'_>, end| {
                    let hulls = v.prepared_hulls(0..end);
                    let res = s.config.layer_resolution();
                    spade_canvas::layer::build_layer_index(&s.pipeline, &hulls, res).len() as u64
                };
                let (h1, h2) = (hull_layers(v1, end1), hull_layers(v2, end2));
                let filter = if filtered {
                    h1 + h2 + 3 * h1.min(h2)
                } else {
                    0
                };
                // Per left entry (a run of pairs sharing a left slot) whose
                // form the run does not find made: its layer index and its
                // layer canvases. Per pair: one probe per layer (the
                // aggregation's count folds the same probe's pairs).
                let mut passes = filter;
                for entry in pairs.chunk_by(|a, b| a.0 == b.0) {
                    let l = entry[0].0;
                    if !warm.contains(&l) {
                        passes += 3 * layers(l);
                    }
                    passes += entry.len() as u64 * layers(l);
                }
                Some(passes)
            }
            JoinQuery::WithinDistance(r) => {
                let filter = if filtered { 3 * end1 as u64 } else { 0 };
                let d = |l: u32| {
                    let pts = load(v1, l).as_points();
                    disk_layers(&pts.iter().map(|&(_, p)| (p, *r)).collect::<Vec<_>>()).len() as u64
                };
                Some(filter + disks(&d))
            }
            JoinQuery::Knn(k) => {
                let filter = if filtered { 3 * end1 as u64 } else { 0 };
                // Counting: one circle pass per left point per pair.
                let counting: u64 = pairs.iter().map(|p| load(v1, p.0).len() as u64).sum();
                // Ranking: the disks at the radii those histograms pick.
                let d = |l: u32| {
                    let paired: Vec<u32> =
                        (pairs.iter().filter(|p| p.0 == l)).map(|p| p.1).collect();
                    let hull = v1.hull(l);
                    let r_max = count_bound(v2, paired.iter().copied(), &hull.exterior.points, *k);
                    let radii = circle_radii(r_max, s.config.knn_circles());
                    let disks: Vec<(Point, f64)> = (load(v1, l).as_points().iter())
                        .map(|&(_, p)| {
                            let mut hist = vec![0; radii.len()];
                            for &r in &paired {
                                count_circles(s, &load(v2, r).as_points(), p, &radii, &mut hist);
                            }
                            (p, radius_for(&hist, &radii, *k))
                        })
                        .collect();
                    disk_layers(&disks).len() as u64
                };
                Some(filter + counting + disks(&d))
            }
        }
    }

    /// The dispatcher contract, for all five select classes × {in-memory,
    /// indexed, indexed with a staged write} and all four join classes ×
    /// the same three sources:
    /// (a) `QueryCtx::default()` answers what `brute` does, byte for byte,
    ///     at canvas resolutions 32, 64 and 256 — rasterisation is only a
    ///     filter, the boundary index decides every boundary pixel exactly,
    /// (b) the cached ctx goes `MISS` then `HIT` without touching a cell,
    ///     and the HIT carries its MISS's plan,
    /// (c) a non-full scope that covers everything reports `BYPASS` with
    ///     the full result and leaves the cache counters alone even when
    ///     `cached` is set — on the in-memory source too, whose memory
    ///     slot the scope owning the deltas owns,
    /// (d) a pre-cancelled token yields `Cancelled` from every family on
    ///     every source, with the device ledger at zero,
    /// (e) every run carries its decisions in `stats.plan`: the Map
    ///     choices of each class that runs a Map, the join plan of a
    ///     walk with grid cells on both sides, and one delta merge per
    ///     dataset with staged writes,
    /// (f) an in-memory join holds both memory slots on the device at once.
    /// And a join of an indexed and an in-memory side, either way round,
    /// answers what `brute` does for all four join classes.
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
        let run = |q: &Q, (left, right): (usize, usize), s: &Spade, ctx: &QueryCtx| match q {
            Q::Select(q) => run_select_ctx(s, points[left], q, ctx),
            Q::Join(q) if on_points(q) => run_join_ctx(s, points[left], points[right], q, ctx),
            Q::Join(q) => run_join_ctx(s, polygons[left], points[right], q, ctx),
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

        for (q, source) in classes.iter().flat_map(|q| (0..3).map(move |i| (q, i))) {
            let (out_of_core, staged) = (source > 0, source == 2);
            let label = format!("{q:?}, out of core: {out_of_core}, staged: {staged}");
            let want = brute(q, &pts, &polys);
            // A non-full scope that still covers everything.
            let scope = match q {
                Q::Select(_) => Scope::Cells(crate::scope::CellScope::full()),
                Q::Join(q) => Scope::Pairs {
                    pairs: if on_points(q) {
                        &point_pairs
                    } else {
                        &polygon_pairs
                    },
                    include_delta: true,
                },
            };
            let s = engine();
            let sources = (source, source);

            let cancelled = QueryCtx::default();
            cancelled.cancel.cancel();
            let err = run(q, sources, &s, &cancelled).err();
            assert_eq!(err, Some(StorageError::Cancelled), "(d) {label}");
            assert_eq!(s.device.used(), 0, "(d) ledger after cancel, {label}");

            let sides = match q {
                Q::Join(q) if !on_points(q) => (polygons[source], points[source]),
                _ => (points[source], points[source]),
            };
            // The left slots an earlier class already prepared at this
            // engine's layer resolution: the in-memory polygons' memo, or
            // a cell the cell cache kept.
            let (left_view, key) = (sides.0.read_view(), s.config.layer_resolution());
            let warm: Vec<u32> = (left_view.slots(true))
                .filter(|&slot| left_view.holds_prepared(slot, key))
                .collect();
            let cold = run(q, sources, &s, &QueryCtx::default()).unwrap();
            assert_eq!(cold.result, want, "(a) {label}");
            assert_eq!(cold.stats.result_cache, CacheOutcome::Bypass, "(a) {label}");
            if let Some(passes) = expected_passes(&s, q, sides, &cold.stats, &warm) {
                assert_eq!(cold.stats.passes, passes, "(g) {label}");
            }
            if let (Q::Join(JoinQuery::Intersects | JoinQuery::CountPoints), 0) = (q, source) {
                // The memo is warm now: only the per-pair passes render.
                let again = run(q, sources, &s, &QueryCtx::default()).unwrap();
                assert_eq!(again.result, cold.result, "(g) warm {label}");
                let no_time = std::time::Duration::ZERO;
                assert_eq!(again.stats.polygon_time, no_time, "(g) warm {label}");
                let passes = expected_passes(&s, q, sides, &again.stats, &[0]);
                assert_eq!(Some(again.stats.passes), passes, "(g) warm {label}");
            }
            for resolution in [32, 64] {
                let config = EngineConfig {
                    resolution,
                    ..EngineConfig::test_small()
                };
                let out = run(q, sources, &Spade::new(config), &QueryCtx::default()).unwrap();
                assert_eq!(out.result, want, "(a) resolution {resolution}, {label}");
            }
            if let (Q::Join(q), false) = (q, out_of_core) {
                // Both memory slots were on the device at once.
                let left = if on_points(q) { &pts } else { &polys };
                let slots = (left.byte_size() + pts.byte_size()) as u64;
                assert!(s.device.peak() >= slots, "(f) {label}");
            }

            let scoped = QueryCtx {
                scope,
                ..QueryCtx::cached()
            };
            let out = run(q, sources, &s, &scoped).unwrap();
            assert_eq!(out.result, want, "(c) {label}");
            assert_eq!(out.stats.result_cache, CacheOutcome::Bypass, "(c) {label}");
            assert_eq!(s.result_cache.stats(), Default::default(), "(c) {label}");

            let miss = run(q, sources, &s, &QueryCtx::cached()).unwrap();
            let hit = run(q, sources, &s, &QueryCtx::cached()).unwrap();
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

            // The mixed joins: this source on the left, the in-memory one
            // on the right, and the other way round.
            if let (Q::Join(_), true) = (q, out_of_core) {
                for mixed in [(source, 0), (0, source)] {
                    let out = run(q, mixed, &s, &QueryCtx::default()).unwrap();
                    assert_eq!(out.result, want, "mixed {mixed:?}, {label}");
                }
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
        assert!(refused(run_join_ctx(&s, &ipts, &pts, &join, &ctx)));
    }

    /// The executors make the same (class × kind) check themselves: a
    /// library call that bypasses the dispatcher gets the same
    /// `Unsupported`, not a panic in a kernel, over either source.
    #[test]
    fn executors_refuse_wrong_kinds() {
        use crate::{aggregate, distance, join, knn};
        let s = engine();
        let (pts, polys) = (grid_points(), tiles());
        let (ipts, ipolys) = (indexed(&pts, 3.0), indexed(&polys, 5.0));
        let ctx = QueryCtx::default();
        let refused = |r: Result<(), StorageError>| matches!(r, Err(StorageError::Unsupported(_)));
        let near = DistanceConstraint::Point(Point::new(4.0, 4.0));
        for (p, q) in [
            (Source::from(&pts), Source::from(&polys)),
            ((&ipts).into(), (&ipolys).into()),
        ] {
            let cases: [(&str, Result<(), StorageError>); 7] = [
                (
                    "join(points, points)",
                    join::join_indexed(&s, p, p, &ctx).map(drop),
                ),
                (
                    "aggregate(points, points)",
                    aggregate::aggregate_indexed(&s, p, p, &ctx).map(drop),
                ),
                (
                    "aggregate(polys, polys)",
                    aggregate::aggregate_indexed(&s, q, q, &ctx).map(drop),
                ),
                (
                    "distance_join(polys, polys)",
                    distance::distance_join_indexed(&s, q, q, 1.0, &ctx).map(drop),
                ),
                (
                    "knn_join(polys, polys)",
                    knn::knn_join_indexed(&s, q, q, 2, &ctx).map(drop),
                ),
                (
                    "distance_select(polys)",
                    distance::distance_select_indexed(&s, q, &near, 2.5, &ctx).map(drop),
                ),
                (
                    "knn_select(polys)",
                    knn::knn_select_indexed(&s, q, Point::new(2.0, 7.0), 3, &ctx).map(drop),
                ),
            ];
            for (case, r) in cases {
                assert!(refused(r), "{case}");
            }
        }
        assert_eq!(s.device.used(), 0);
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
