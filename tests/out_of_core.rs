//! Out-of-core behaviour: disk-backed grid indexes, device-memory
//! accounting, and equivalence between the in-memory and out-of-core
//! query paths (§5.3).

use spade::baselines::brute;
use spade::datagen::{spider, urban};
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::distance::{self, DistanceConstraint};
use spade::engine::stats::QueryOutput;
use spade::engine::{
    aggregate, join, knn, select, EngineConfig, QueryCtx, QueryStats, Scope, Spade,
};
use spade::geometry::{BBox, Geometry, Point, Polygon};
use spade::index::GridIndex;
use spade::storage::StorageError;
use std::sync::Arc;

fn engine() -> Spade {
    Spade::new(EngineConfig::test_small())
}

fn unit() -> BBox {
    BBox::new(Point::ZERO, Point::new(1.0, 1.0))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spade-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn disk_backed_selection_equals_in_memory() {
    let spade = engine();
    let pts = spider::gaussian_points(20_000, 7);
    let data = Arc::new(Dataset::from_points("p", pts));
    let dir = tmpdir("sel");
    let grid = GridIndex::build(Some(dir.clone()), &data.objects, 0.2).unwrap();
    assert!(grid.num_cells() > 4);
    let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);

    for c in urban::constraint_polygons(3, &unit(), 0.12, 24, 1) {
        let mem = select::select_indexed(&spade, &data, &c, &QueryCtx::default()).unwrap();
        assert_eq!(mem.stats.cells_loaded, 0);
        let mem = mem.result;
        let ooc = select::select_indexed(&spade, &indexed, &c, &QueryCtx::default()).unwrap();
        assert_eq!(ooc.result, mem);
        // The hull filter must prune something for a 0.24-wide constraint.
        assert!(ooc.stats.cells_loaded < indexed.grid().num_cells() as u64);
        // Every disk byte crosses the bus, plus the constraint canvas and
        // its boundary index (§6.3: SPADE ships indexes with the data).
        assert!(ooc.stats.bytes_to_device >= ooc.stats.bytes_from_disk);
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn disk_backed_join_equals_in_memory() {
    let spade = engine();
    let pts = Arc::new(Dataset::from_points("p", spider::uniform_points(8_000, 9)));
    let parcels = Arc::new(Dataset::from_polygons(
        "parcels",
        spider::parcels(100, 0.05, 11),
    ));
    let ctx = QueryCtx::default();
    let mem = join::join_indexed(&spade, &parcels, &pts, &ctx)
        .unwrap()
        .result;

    let dir = tmpdir("join");
    let g1 = GridIndex::build(Some(dir.join("a")), &parcels.objects, 0.35).unwrap();
    let g2 = GridIndex::build(Some(dir.join("b")), &pts.objects, 0.35).unwrap();
    let i1 = IndexedDataset::new("parcels", DatasetKind::Polygons, g1);
    let i2 = IndexedDataset::new("p", DatasetKind::Points, g2);
    let ooc = join::join_indexed(&spade, &i1, &i2, &QueryCtx::default()).unwrap();
    assert_eq!(ooc.result, mem);
    assert!(ooc.stats.cells_loaded > 0);
    std::fs::remove_dir_all(dir).ok();
}

/// A point set in memory and as a disk-backed grid under `dir`.
fn point_grid(dir: &std::path::Path, pts: Vec<Point>, cell: f64) -> (Arc<Dataset>, IndexedDataset) {
    let data = Arc::new(Dataset::from_points("p", pts));
    let grid = GridIndex::build(Some(dir.to_path_buf()), &data.objects, cell).unwrap();
    let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);
    (data, indexed)
}

/// What a pair walk must report cold, and on a repeat served by the cell
/// cache: every cell touch is a prefetch hit or miss, the cold run read
/// disk, the repeat read none.
fn assert_walked(cold: &QueryStats, warm: &QueryStats) {
    assert!(
        cold.cells_loaded > 0 && cold.bytes_from_disk > 0,
        "{cold:?}"
    );
    for st in [cold, warm] {
        assert_eq!(st.prefetch_hits + st.prefetch_misses, st.cells_loaded);
    }
    assert_eq!(warm.cells_loaded, cold.cells_loaded);
    assert_eq!(warm.bytes_from_disk, 0);
    assert_eq!(warm.cache_hits, warm.cells_loaded);
}

/// Distance and kNN joins out of core: indexed ≡ in-memory ≡ brute force,
/// through the walk's ledger — cells loaded, disk bytes, the cell cache.
#[test]
fn disk_backed_distance_and_knn_joins_equal_in_memory_and_brute_force() {
    let spade = Spade::new(EngineConfig {
        resolution: 64,
        ..EngineConfig::test_small()
    });
    let dir = tmpdir("pjoin");
    let ctx = QueryCtx::default();
    for seed in [51u64, 53, 59] {
        let (l, r) = (
            spider::uniform_points(80, seed),
            spider::gaussian_points(400, seed + 1),
        );
        // Each class gets grids of its own: a cold cell cache.
        let grids = |class: &str| {
            let at = dir.join(format!("{class}-{seed}"));
            let left = point_grid(&at.join("l"), l.clone(), 0.35);
            (left, point_grid(&at.join("r"), r.clone(), 0.35))
        };

        let ((lm, li), (rm, ri)) = grids("distance");
        let mut truth = brute::distance_join(&l, &r, 0.06);
        truth.sort_unstable();
        assert!(!truth.is_empty());
        let mem = distance::distance_join_indexed(&spade, &lm, &rm, 0.06, &ctx).unwrap();
        assert_eq!(mem.result, truth);
        let cold = distance::distance_join_indexed(&spade, &li, &ri, 0.06, &ctx).unwrap();
        let warm = distance::distance_join_indexed(&spade, &li, &ri, 0.06, &ctx).unwrap();
        assert_eq!((&cold.result, &warm.result), (&truth, &truth), "{seed}");
        assert_walked(&cold.stats, &warm.stats);

        let ((lm, li), (rm, ri)) = grids("knn");
        let truth: Vec<(u32, u32, f64)> = (0u32..)
            .zip(&l)
            .flat_map(|(i, p)| {
                brute::knn(&r, *p, 4)
                    .into_iter()
                    .map(move |(j, d)| (i, j, d))
            })
            .collect();
        let mem = knn::knn_join_indexed(&spade, &lm, &rm, 4, &ctx).unwrap();
        assert_eq!(mem.result, truth);
        let cold = knn::knn_join_indexed(&spade, &li, &ri, 4, &ctx).unwrap();
        let warm = knn::knn_join_indexed(&spade, &li, &ri, 4, &ctx).unwrap();
        assert_eq!((&cold.result, &warm.result), (&truth, &truth), "{seed}");
        assert_walked(&cold.stats, &warm.stats);
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Both classes run inside the device budget: whatever the data size, the
/// peak is one cell per side, and a small radius reads only the cells
/// around each left cell.
#[test]
fn distance_and_knn_joins_stay_inside_the_device_budget() {
    let config = EngineConfig {
        resolution: 64,
        ..EngineConfig::test_small()
    };
    let dir = tmpdir("budget");
    let (lm, li) = point_grid(&dir.join("l"), spider::uniform_points(300, 61), 0.125);
    let (rm, ri) = point_grid(&dir.join("r"), spider::uniform_points(24_000, 67), 0.125);
    let largest = |d: &IndexedDataset| d.grid().cells().iter().map(|c| c.bytes).max().unwrap();
    let total = |d: &IndexedDataset| d.grid().cells().iter().map(|c| c.bytes).sum::<u64>();
    let canvas = |res: u32| (res as u64).pow(2) * 16;
    let canvases = canvas(config.distance_resolution()) + canvas(config.filter_resolution());
    let resident = largest(&li) + largest(&ri);
    assert!(total(&li) + total(&ri) >= 4 * (resident + canvases));
    let ctx = QueryCtx::default();
    // The in-memory witnesses run on an engine of their own: their memory
    // slots are whole datasets, far beyond one cell per side.
    let witness = Spade::new(config.clone());

    let spade = Spade::new(config.clone());
    let near = distance::distance_join_indexed(&spade, &li, &ri, 0.01, &ctx).unwrap();
    let mem = distance::distance_join_indexed(&witness, &lm, &rm, 0.01, &ctx).unwrap();
    assert_eq!(near.result, mem.result);
    assert!(0 < spade.device.peak() && spade.device.peak() <= resident);
    let (nl, nr) = (li.grid().num_cells() as u64, ri.grid().num_cells() as u64);
    assert!(near.stats.cells_loaded < nl * nr, "{:?}", near.stats);

    let spade = Spade::new(config.clone());
    let nearest = knn::knn_join_indexed(&spade, &li, &ri, 2, &ctx).unwrap();
    let mem = knn::knn_join_indexed(&witness, &lm, &rm, 2, &ctx).unwrap();
    assert_eq!(nearest.result, mem.result);
    assert!(0 < spade.device.peak() && spade.device.peak() <= resident);
    assert_eq!(spade.device.used(), 0);

    // With staged writes on both sides the bound is the same: a delta is
    // resident as one more cell of its side, never beside one.
    let (mut lo, mut ro) = (lm.objects.clone(), rm.objects.clone());
    for (id, p) in (30_000..).zip(spider::uniform_points(60, 71)) {
        let (d, objects) = if id % 2 == 0 {
            (&li, &mut lo)
        } else {
            (&ri, &mut ro)
        };
        d.insert(id, Geometry::Point(p));
        objects.push((id, Geometry::Point(p)));
    }
    let slot = |d: &IndexedDataset| largest(d).max(d.delta_stats().bytes);
    assert!(li.delta_stats().bytes > largest(&li));
    let resident = slot(&li) + slot(&ri);
    let (lm, rm) = (
        Arc::new(Dataset::from_objects("l", DatasetKind::Points, lo)),
        Arc::new(Dataset::from_objects("r", DatasetKind::Points, ro)),
    );
    let spade = Spade::new(config.clone());
    let near = distance::distance_join_indexed(&spade, &li, &ri, 0.01, &ctx).unwrap();
    let mem = distance::distance_join_indexed(&witness, &lm, &rm, 0.01, &ctx).unwrap();
    assert_eq!(near.result, mem.result);
    assert!(0 < spade.device.peak() && spade.device.peak() <= resident);
    assert_eq!(spade.device.used(), 0);
    let spade = Spade::new(config);
    let nearest = knn::knn_join_indexed(&spade, &li, &ri, 2, &ctx).unwrap();
    let mem = knn::knn_join_indexed(&witness, &lm, &rm, 2, &ctx).unwrap();
    assert_eq!(nearest.result, mem.result);
    assert!(0 < spade.device.peak() && spade.device.peak() <= resident);
    assert_eq!(spade.device.used(), 0);
    std::fs::remove_dir_all(dir).ok();
}

/// A small-radius distance join on 9 × 9 cells of 25 lattice points each
/// pairs every cell with little more than itself.
#[test]
fn small_radius_distance_join_prunes_cell_pairs() {
    let spade = Spade::new(EngineConfig {
        resolution: 64,
        ..EngineConfig::test_small()
    });
    let lattice: Vec<Point> = (0..45 * 45)
        .map(|i| Point::new((2 * (i % 45) + 1) as f64, (2 * (i / 45) + 1) as f64))
        .collect();
    let dir = tmpdir("lattice");
    let (lattice, data) = point_grid(&dir, lattice, 10.0);
    let cells = data.grid().num_cells() as u64;
    assert_eq!(cells, 81);
    let out =
        distance::distance_join_indexed(&spade, &data, &data, 0.5, &QueryCtx::default()).unwrap();
    let itself: Vec<(u32, u32)> = (0..45 * 45).map(|i| (i, i)).collect();
    assert_eq!(out.result, itself);
    let loaded = out.stats.cells_loaded;
    assert!(
        2 * cells <= loaded && loaded < cells * cells,
        "{:?}",
        out.stats
    );

    // A staged write is one more cell in that plan, not a scan after it: a
    // one-cell data set in the lattice's corner, with one staged insert,
    // joins the 81 cells from either side reading only the corner — as
    // does the lattice once it carries a staged insert of its own — and
    // answers as a cold rebuild of the logical contents does.
    let at = |x: f64, y: f64| Geometry::Point(Point::new(x, y));
    let few = vec![(0, at(1.25, 1.25)), (1, at(3.0, 3.25)), (7, at(5.0, 1.25))];
    let mut all = lattice.objects.clone();
    let tiles: Vec<Polygon> = (0..81)
        .map(|i| {
            let min = Point::new((10 * (i % 9) + 1) as f64, (10 * (i / 9) + 1) as f64);
            Polygon::rect(BBox::new(min, min + Point::new(8.0, 8.0)))
        })
        .collect();
    let tiles = Dataset::from_polygons("tiles", tiles);
    let grid = |objects: &[(u32, Geometry)]| GridIndex::build(None, objects, 10.0).unwrap();
    let tiles = IndexedDataset::new("tiles", DatasetKind::Polygons, grid(&tiles.objects));
    assert_eq!(tiles.grid().num_cells(), 81);
    let written = IndexedDataset::new("few", DatasetKind::Points, grid(&few[..2]));
    written.insert(7, few[2].1.clone());
    let cold = IndexedDataset::new("few", DatasetKind::Points, grid(&few));
    let ctx = QueryCtx::default();
    for both in [false, true] {
        if both {
            all.push((5000, at(3.0, 3.375)));
            data.insert(5000, at(3.0, 3.375));
        }
        let cold_data = IndexedDataset::new("p", DatasetKind::Points, grid(&all));
        let sides = [(&written, &data), (&data, &written)];
        let cold_sides = [(&cold, &cold_data), (&cold_data, &cold)];
        for ((l, r), (cl, cr)) in sides.into_iter().zip(cold_sides) {
            let before = cache_lookups([l, r]);
            let near = distance::distance_join_indexed(&spade, l, r, 0.5, &ctx).unwrap();
            assert_reads_a_corner(&near.stats, cache_lookups([l, r]) - before, 1);
            let want = distance::distance_join_indexed(&spade, cl, cr, 0.5, &ctx).unwrap();
            assert_eq!(near.result, want.result);
            assert_eq!(near.result.len(), 3 + both as usize);
        }
        let before = cache_lookups([&written, &data]);
        let nearest = knn::knn_join_indexed(&spade, &written, &data, 1, &ctx).unwrap();
        assert_reads_a_corner(&nearest.stats, cache_lookups([&written, &data]) - before, 2);
        let want = knn::knn_join_indexed(&spade, &cold, &cold_data, 1, &ctx).unwrap();
        assert_eq!(nearest.result, want.result);
        assert_eq!(nearest.result.len(), 3);
        assert_eq!(nearest.result[1].1 == 5000, both);
        for ((l, r), (cl, cr)) in [(&written, &tiles), (&tiles, &written)]
            .into_iter()
            .zip([(&cold, &tiles), (&tiles, &cold)])
        {
            let before = cache_lookups([l, r]);
            let inside = join::join_indexed(&spade, l, r, &ctx).unwrap();
            assert_reads_a_corner(&inside.stats, cache_lookups([l, r]) - before, 1);
            let want = join::join_indexed(&spade, cl, cr, &ctx).unwrap();
            assert_eq!(inside.result, want.result);
            assert_eq!(inside.result.len(), 3);
        }
    }
    assert_eq!(spade.device.used(), 0);

    // Scattered: the explicit pairs of two shards cannot name a delta, so
    // the shard that owns the deltas adds their terms itself.
    let full = distance::distance_join_indexed(&spade, &written, &data, 0.5, &ctx).unwrap();
    let mut parts = Vec::new();
    for shard in 0..2 {
        let pairs: Vec<(u32, u32)> = (0..81).filter(|r| r % 2 == shard).map(|r| (0, r)).collect();
        let scope = Scope::Pairs {
            pairs: &pairs,
            include_delta: shard == 0,
        };
        let ctx = QueryCtx {
            scope,
            ..QueryCtx::default()
        };
        let part = distance::distance_join_indexed(&spade, &written, &data, 0.5, &ctx).unwrap();
        parts.extend(part.result);
    }
    parts.sort_unstable();
    assert_eq!(parts, full.result);
    std::fs::remove_dir_all(dir).ok();
}

/// A query's result, printed, and its stats: one shape for every class.
fn shown<T: std::fmt::Debug>(out: Result<QueryOutput<T>, StorageError>) -> (String, QueryStats) {
    let out = out.unwrap();
    (format!("{:?}", out.result), out.stats)
}

/// The cell walk's half of the same contract, on the same lattice: a
/// staged insert is a slot the hull filter admits or not — never a scan
/// after the walk — and an admitted one is counted and on the device
/// ledger like the cell it is; and an aggregation's zero-fill reads only
/// through the walk, and only in the scope that owns the deltas.
#[test]
fn a_staged_delta_is_one_more_slot_of_the_cell_walk() {
    let config = EngineConfig {
        resolution: 64,
        ..EngineConfig::test_small()
    };
    let lattice: Vec<Point> = (0..45 * 45)
        .map(|i| Point::new((2 * (i % 45) + 1) as f64, (2 * (i / 45) + 1) as f64))
        .collect();
    let mut all = Dataset::from_points("p", lattice).objects;
    let grid = |objects: &[(u32, Geometry)]| GridIndex::build(None, objects, 10.0).unwrap();
    let data = IndexedDataset::new("p", DatasetKind::Points, grid(&all));
    let cell_bytes = data.grid().cells()[0].bytes;
    assert!(data.grid().cells().iter().all(|c| c.bytes == cell_bytes));

    // Each class around the centre of cell (4, 4), on an engine of its own:
    // its result, its stats and its device peak.
    let q = Point::new(45.0, 45.0);
    let window = Polygon::rect(BBox::new(Point::new(42.0, 42.0), Point::new(48.0, 48.0)));
    let origin = DistanceConstraint::Point(q);
    let classes = |d: &IndexedDataset| -> [(String, QueryStats, u64); 3] {
        let ctx = QueryCtx::default();
        let run = |class: usize| {
            let spade = Spade::new(config.clone());
            let (result, stats) = match class {
                0 => shown(select::select_indexed(&spade, d, &window, &ctx)),
                1 => shown(distance::distance_select_indexed(
                    &spade, d, &origin, 3.0, &ctx,
                )),
                _ => shown(knn::knn_select_indexed(&spade, d, q, 3, &ctx)),
            };
            assert_eq!(spade.device.used(), 0);
            (result, stats, spade.device.peak())
        };
        [run(0), run(1), run(2)]
    };
    let rebuilt = |all: &[(u32, Geometry)]| {
        classes(&IndexedDataset::new("p", DatasetKind::Points, grid(all)))
    };
    let before = classes(&data);

    // Far from every constraint: no delta slot loads, nothing more renders.
    let far = Geometry::Point(Point::new(88.0, 88.5));
    data.insert(5000, far.clone());
    all.push((5000, far));
    for ((got, want), was) in classes(&data).iter().zip(rebuilt(&all)).zip(&before) {
        assert_eq!(got.0, want.0);
        assert_eq!(got.1.cells_loaded, was.1.cells_loaded, "{:?}", got.1);
        assert_eq!(got.1.passes, was.1.passes, "{:?}", got.1);
        assert_eq!(got.2, was.2);
    }

    // Inside every constraint, and by now larger than a cell: one more
    // slot per pass, shipped and resident in the place of a cell — but no
    // grid cell, so `cells_loaded` does not count it.
    for (id, i) in (5001..5100).zip(0..) {
        let near = Geometry::Point(Point::new(44.0 + 0.02 * i as f64, 45.5));
        data.insert(id, near.clone());
        all.push((id, near));
    }
    let delta = data.delta_stats();
    assert!(delta.bytes > cell_bytes);
    // (Beside a resident slot, the Map output list its refinement checks
    // out: 16 B per object.)
    let resident = delta.bytes - cell_bytes + 16 * (delta.staged as u64 - 25);
    for (((got, want), was), passes) in (classes(&data).iter())
        .zip(rebuilt(&all))
        .zip(&before)
        .zip([1, 1, 2])
    {
        assert_eq!(got.0, want.0);
        assert_ne!(got.0, was.0);
        assert_eq!(got.1.cells_loaded, was.1.cells_loaded);
        let shipped = got.1.bytes_to_device - was.1.bytes_to_device;
        assert_eq!(shipped, passes * delta.bytes, "{:?}", got.1);
        assert_eq!(got.2, was.2 + resident);
    }

    // A scattered aggregation over one tile per lattice cell: the shard
    // that owns no delta looks up the cells of its two pairs and nothing
    // else; the owner streams the tiles no pair of its own named; and the
    // per-id sum of the two is the whole, which is a cold rebuild's.
    let tiles: Vec<Polygon> = (0..81)
        .map(|i| {
            let min = Point::new((10 * (i % 9) + 1) as f64, (10 * (i / 9) + 1) as f64);
            Polygon::rect(BBox::new(min, min + Point::new(8.0, 8.0)))
        })
        .collect();
    let tiles = Dataset::from_polygons("tiles", tiles);
    let tiles = IndexedDataset::new("tiles", DatasetKind::Polygons, grid(&tiles.objects));
    let spade = Spade::new(config.clone());
    let whole = aggregate::aggregate_indexed(&spade, &tiles, &data, &QueryCtx::default()).unwrap();
    let cold = IndexedDataset::new("p", DatasetKind::Points, grid(&all));
    let want = aggregate::aggregate_indexed(&spade, &tiles, &cold, &QueryCtx::default()).unwrap();
    assert_eq!(whole.result, want.result);
    assert_eq!(whole.result.len(), 81);
    let mut sum = std::collections::BTreeMap::new();
    for owner in [false, true] {
        let pairs: Vec<(u32, u32)> = (0..81)
            .filter(|i| (*i < 2) != owner)
            .map(|i| (i, i))
            .collect();
        let ctx = QueryCtx {
            scope: Scope::Pairs {
                pairs: &pairs,
                include_delta: owner,
            },
            ..QueryCtx::default()
        };
        let before = cache_lookups([&tiles, &data]);
        let part = aggregate::aggregate_indexed(&spade, &tiles, &data, &ctx).unwrap();
        let looked_up = cache_lookups([&tiles, &data]) - before;
        assert!(
            looked_up <= part.stats.cells_loaded,
            "{looked_up}: {:?}",
            part.stats
        );
        assert_eq!(part.result.len(), if owner { 81 } else { 2 });
        for (id, n) in part.result {
            *sum.entry(id).or_insert(0) += n;
        }
    }
    assert_eq!(Vec::from_iter(sum), whole.result);
}

/// Lifetime lookups of the two sides' cell caches: every cell read of an
/// indexed query goes through one.
fn cache_lookups(sides: [&IndexedDataset; 2]) -> u64 {
    let lookups = |d: &IndexedDataset| {
        let (hits, misses) = d.cache.counters();
        hits + misses
    };
    sides.into_iter().map(lookups).sum()
}

/// A selective walk reads under ten slots a pass, and looks up no cell
/// that its `cells_loaded` does not count.
fn assert_reads_a_corner(stats: &QueryStats, looked_up: u64, passes: u64) {
    assert!(stats.cells_loaded < 10 * passes, "{stats:?}");
    assert!(looked_up <= stats.cells_loaded, "{looked_up}: {stats:?}");
}

/// Run `query` and cancel it from inside its walk: as soon as a cell is
/// resident on the device.
fn cancelled_mid_walk<T>(
    spade: &Spade,
    query: impl FnOnce(&QueryCtx) -> Result<T, StorageError>,
) -> Option<StorageError> {
    let ctx = QueryCtx::default();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            use std::sync::atomic::Ordering::Acquire;
            while spade.device.used() == 0 && !done.load(Acquire) {
                std::thread::yield_now();
            }
            ctx.cancel.cancel();
        });
        let out = query(&ctx);
        done.store(true, std::sync::atomic::Ordering::Release);
        out.err()
    })
}

#[test]
fn device_memory_is_balanced_after_queries() {
    let spade = engine();
    let data = Dataset::from_points("p", spider::uniform_points(10_000, 13));
    let grid = GridIndex::build(None, &data.objects, 0.25).unwrap();
    let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);
    let c = urban::constraint_polygons(1, &unit(), 0.2, 16, 2)
        .pop()
        .unwrap();
    for _ in 0..3 {
        let _ = select::select_indexed(&spade, &indexed, &c, &QueryCtx::default()).unwrap();
    }
    // The walk frees the constraint canvas of each kNN pass, and frees it
    // when a pass is cancelled.
    let q = Point::new(0.4, 0.6);
    let near = knn::knn_select_indexed(&spade, &indexed, q, 50, &QueryCtx::default()).unwrap();
    assert_eq!(near.result.len(), 50);
    let cancelled = QueryCtx::default();
    cancelled.cancel.cancel();
    assert_eq!(
        knn::knn_select_indexed(&spade, &indexed, q, 50, &cancelled).unwrap_err(),
        StorageError::Cancelled
    );
    // The pair walk frees both resident cells when a distance or kNN join
    // is cancelled under it.
    let few = Dataset::from_points("few", spider::uniform_points(400, 15));
    let grid = GridIndex::build(None, &few.objects, 0.5).unwrap();
    let few = IndexedDataset::new("few", DatasetKind::Points, grid);
    let stopped = cancelled_mid_walk(&spade, |ctx| {
        distance::distance_join_indexed(&spade, &few, &indexed, 0.02, ctx)
    });
    assert_eq!(stopped, Some(StorageError::Cancelled));
    assert_eq!(spade.device.used(), 0);
    let stopped = cancelled_mid_walk(&spade, |ctx| {
        knn::knn_join_indexed(&spade, &few, &indexed, 2, ctx)
    });
    assert_eq!(stopped, Some(StorageError::Cancelled));
    // All uploads must have been freed.
    assert_eq!(spade.device.used(), 0);
    assert!(near.stats.bytes_to_device > 0);
    assert!(spade.device.peak() > 0);
}

#[test]
fn transfer_time_counts_into_io() {
    // With a very slow modeled bus, I/O must dominate the breakdown — the
    // paper's central observation (§6.2).
    let spade = Spade::new(EngineConfig {
        bandwidth: 2.0e6, // 2 MB/s bus
        ..EngineConfig::test_small()
    });
    let data = Dataset::from_points("p", spider::uniform_points(30_000, 17));
    let grid = GridIndex::build(None, &data.objects, 0.2).unwrap();
    let indexed = IndexedDataset::new("p", DatasetKind::Points, grid);
    let c = urban::constraint_polygons(1, &unit(), 0.3, 16, 3)
        .pop()
        .unwrap();
    let out = select::select_indexed(&spade, &indexed, &c, &QueryCtx::default()).unwrap();
    assert!(
        out.stats.io_fraction() > 0.5,
        "io fraction {} with a 2 MB/s bus",
        out.stats.io_fraction()
    );
}

/// Pipelining must not change what a query computes: identical results and
/// an identical `cells_loaded` count for every worker count × prefetch
/// depth combination (depth 0 is the synchronous fallback path) — for the
/// callers of the cell walk (one run, and kNN's two) and of the cell-pair
/// walk (one run, and the kNN join's two).
#[test]
fn pipelined_execution_is_deterministic() {
    let dir = tmpdir("det");
    let index = |name: &str, data: Dataset, cell_size: f64| {
        let grid = GridIndex::build(Some(dir.join(name)), &data.objects, cell_size).unwrap();
        IndexedDataset::new(name, data.kind, grid)
    };
    let indexed = index(
        "p",
        Dataset::from_points("p", spider::gaussian_points(15_000, 29)),
        0.2,
    );
    // The pair walk's inputs are small and the canvases coarse: eighteen
    // joins in a debug build.
    let polys = index(
        "parcels",
        Dataset::from_polygons("parcels", spider::parcels(30, 0.08, 31)),
        0.35,
    );
    let sparse = index(
        "sparse",
        Dataset::from_points("sparse", spider::uniform_points(3_000, 37)),
        0.35,
    );
    let few = index(
        "few",
        Dataset::from_points("few", spider::uniform_points(150, 39)),
        0.35,
    );
    let c = urban::constraint_polygons(1, &unit(), 0.25, 24, 4)
        .pop()
        .unwrap();
    let q = Point::new(0.45, 0.55);
    let origin = DistanceConstraint::Point(q);

    let mut reference = None;
    for workers in [1usize, 2, 8] {
        for depth in [0usize, 1, 4] {
            let spade = Spade::new(EngineConfig {
                workers,
                prefetch_depth: depth,
                resolution: 64,
                ..EngineConfig::test_small()
            });
            let ctx = QueryCtx::default();
            let selected = select::select_indexed(&spade, &indexed, &c, &ctx).unwrap();
            let near =
                distance::distance_select_indexed(&spade, &sparse, &origin, 0.3, &ctx).unwrap();
            let nearest = knn::knn_select_indexed(&spade, &sparse, q, 25, &ctx).unwrap();
            let joined = join::join_indexed(&spade, &polys, &sparse, &ctx).unwrap();
            let counted = aggregate::aggregate_indexed(&spade, &polys, &sparse, &ctx).unwrap();
            let close = distance::distance_join_indexed(&spade, &few, &sparse, 0.03, &ctx).unwrap();
            let closest = knn::knn_join_indexed(&spade, &few, &sparse, 3, &ctx).unwrap();
            let got = (
                (selected.result, near.result, nearest.result),
                (joined.result, counted.result),
                (close.result, closest.result),
                [
                    selected.stats,
                    near.stats,
                    nearest.stats,
                    joined.stats,
                    counted.stats,
                    close.stats,
                    closest.stats,
                ]
                .map(|s| s.cells_loaded),
            );
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "workers={workers} depth={depth}"),
            }
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A join whose optimizer-ordered cell pairs revisit cells must be served
/// from the cell cache on revisits, and the prefetcher must account every
/// cell touch as either a hit or a miss — in the aggregation over the same
/// walk as well.
#[test]
fn shared_cell_join_hits_the_cache() {
    let spade = engine();
    let parcels = Dataset::from_polygons("parcels", spider::parcels(120, 0.08, 33));
    let pts = Dataset::from_points("p", spider::uniform_points(12_000, 35));
    let dir = tmpdir("cache");
    let g1 = GridIndex::build(Some(dir.join("a")), &parcels.objects, 0.3).unwrap();
    let g2 = GridIndex::build(Some(dir.join("b")), &pts.objects, 0.3).unwrap();
    let i1 = IndexedDataset::new("parcels", DatasetKind::Polygons, g1);
    let i2 = IndexedDataset::new("p", DatasetKind::Points, g2);

    let out = join::join_indexed(&spade, &i1, &i2, &QueryCtx::default()).unwrap();
    assert!(
        out.stats.cache_hits > 0,
        "shared-cell join order produced no cache hits: {:?}",
        out.stats
    );
    // Every delivered cell is either prefetched ahead of time or waited on.
    assert_eq!(
        out.stats.prefetch_hits + out.stats.prefetch_misses,
        out.stats.cells_loaded,
        "prefetch accounting must cover every cell touch"
    );
    // Cached cells skip the disk but still cross the modeled bus.
    assert!(out.stats.bytes_to_device >= out.stats.bytes_from_disk);

    let counted = aggregate::aggregate_indexed(&spade, &i1, &i2, &QueryCtx::default()).unwrap();
    assert!(counted.stats.cells_loaded > 0);
    assert_eq!(
        counted.stats.prefetch_hits + counted.stats.prefetch_misses,
        counted.stats.cells_loaded,
        "prefetch accounting must cover every cell touch"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn grid_cells_respect_byte_budget_heuristic() {
    let data = Dataset::from_points("p", spider::uniform_points(50_000, 19));
    let budget = 200 << 10; // 200 KiB
    let cell = GridIndex::cell_size_for_budget(&data.extent, data.byte_size() as u64, budget);
    let grid = GridIndex::build(None, &data.objects, cell).unwrap();
    // Under a uniform distribution every cell should be within ~2× budget.
    for c in grid.cells() {
        assert!(
            c.bytes < 2 * budget,
            "cell of {} bytes exceeds twice the budget",
            c.bytes
        );
    }
}

#[test]
fn hull_bounds_are_tighter_than_bboxes() {
    // The convex-hull cell bound (§5.3) must never exceed its own bbox and
    // must cover every member geometry.
    let pts = spider::gaussian_points(5_000, 23);
    let data = Dataset::from_points("p", pts);
    let grid = GridIndex::build(None, &data.objects, 0.25).unwrap();
    let mut strictly_smaller = 0;
    for cell in grid.cells() {
        let hull_area = cell.hull.area();
        let bbox_area = cell.bbox().area();
        assert!(hull_area <= bbox_area + 1e-12);
        if hull_area < bbox_area * 0.999 {
            strictly_smaller += 1;
        }
    }
    assert!(strictly_smaller > 0, "hulls never tighter than bboxes");
}
