//! Hot-tile serving: cold render vs result-cache hit.
//!
//! A dashboard pans back to a tile it already rendered: with the result
//! cache on, the second identical query is a hash probe plus a payload
//! clone instead of a cell scan and a full render. The bench measures the
//! three paths per family — cold (cache disabled), first touch (miss +
//! admission) and hot (every iteration a HIT) — over the same indexed
//! dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use spade_bench::workloads as wl;
use spade_core::dataset::IndexedDataset;
use spade_core::query::{self, SelectQuery};
use spade_core::{EngineConfig, QueryCtx, Spade};
use spade_geometry::{BBox, Point};

fn engine(cache: bool) -> Spade {
    let mut c = EngineConfig::default();
    c.result_cache_enabled = cache;
    Spade::new(c)
}

fn tile_queries() -> Vec<(&'static str, SelectQuery)> {
    let extent = wl::nyc_extent();
    let span = extent.max - extent.min;
    let tile = BBox::new(
        extent.min + Point::new(span.x * 0.3, span.y * 0.3),
        extent.min + Point::new(span.x * 0.6, span.y * 0.6),
    );
    let constraint = wl::constraints(&extent, 32, 7)[3].clone();
    let center = extent.min + Point::new(span.x * 0.5, span.y * 0.5);
    vec![
        ("range", SelectQuery::Range(tile)),
        ("intersects", SelectQuery::Intersects(constraint)),
        ("knn", SelectQuery::Knn(center, 32)),
    ]
}

fn bench_tile_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("tile_cache");
    g.sample_size(10);
    let cold = engine(false);
    let hot = engine(true);
    let data = wl::taxi(50_000);
    let cold_idx: IndexedDataset = wl::index(&cold, &data);
    let hot_idx: IndexedDataset = wl::index(&hot, &data);

    for (name, q) in tile_queries() {
        g.bench_function(format!("{name}/cold"), |b| {
            b.iter(|| {
                query::run_select_ctx(&cold, &cold_idx, &q, &QueryCtx::cached())
                    .expect("select")
                    .result
                    .len()
            })
        });
        g.bench_function(format!("{name}/hot"), |b| {
            // Warm the entry once; every timed iteration is a HIT.
            query::run_select_ctx(&hot, &hot_idx, &q, &QueryCtx::cached()).expect("warm");
            b.iter(|| {
                query::run_select_ctx(&hot, &hot_idx, &q, &QueryCtx::cached())
                    .expect("select")
                    .result
                    .len()
            })
        });
        g.bench_function(format!("{name}/invalidated"), |b| {
            // A write between queries forces a fresh render + admission:
            // the cache's worst case (miss + validate + store).
            let mut i = 0u32;
            b.iter(|| {
                hot_idx.insert(
                    1_000_000 + i,
                    spade_geometry::Geometry::Point(Point::new(0.0, 0.0)),
                );
                i += 1;
                query::run_select_ctx(&hot, &hot_idx, &q, &QueryCtx::cached())
                    .expect("select")
                    .result
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tile_cache);
criterion_main!(benches);
