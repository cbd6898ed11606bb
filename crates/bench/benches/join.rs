//! Join benchmarks (Tables 2/3 at micro scale), including the layer-index
//! vs naive-loop ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use spade_baselines::cluster::{ClusterConfig, PointRdd, PolygonRdd};
use spade_bench::workloads as wl;
use spade_core::dataset::{IndexedDataset, PreparedPolygonSet};
use spade_core::engine::Constraint;
use spade_core::{join, select, EngineConfig, QueryCtx, Spade};
use spade_index::GridIndex;

fn bench_point_polygon_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_point_polygon");
    g.sample_size(10);
    let spade = spade_bench::experiments::bench_engine();
    let pts = wl::taxi(30_000);
    let polys = wl::neighborhoods();

    g.bench_function("spade_mem", |b| {
        b.iter(|| join::join(&spade, &polys, &pts).result.len())
    });
    let rdd = PointRdd::build(
        pts.as_points().into_iter().map(|(_, p)| p).collect(),
        ClusterConfig::default(),
    );
    let prdd = PolygonRdd::build(
        polys
            .as_polygons()
            .into_iter()
            .map(|(_, p)| p.clone())
            .collect(),
        ClusterConfig::default(),
    );
    g.bench_function("cluster", |b| b.iter(|| rdd.join_polygons(&prdd).len()));
    g.finish();
}

fn bench_polygon_polygon_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_polygon_polygon");
    g.sample_size(10);
    let spade = spade_bench::experiments::bench_engine();
    let parcels = wl::parcels(1_000);
    let boxes = wl::spider_boxes(10, false, 3);
    g.bench_function("spade_mem", |b| {
        b.iter(|| join::join(&spade, &parcels, &boxes).result.len())
    });
    g.finish();
}

fn bench_layer_vs_naive(c: &mut Criterion) {
    // The ablation: one canvas per layer vs one canvas per polygon.
    let mut g = c.benchmark_group("join_strategy");
    g.sample_size(10);
    let spade = spade_bench::experiments::bench_engine();
    let polys = wl::neighborhoods();
    let pts = wl::taxi(30_000);
    let set = PreparedPolygonSet::prepare(&spade.pipeline, &polys, 512);
    let points = pts.as_points();

    g.bench_function("layer_index", |b| {
        b.iter(|| join::join_polygon_point_mem(&spade, &set, &points).len())
    });
    g.bench_function("naive_per_polygon", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for poly in &set.polygons {
                let constraint = Constraint::from_polygons(&spade, std::slice::from_ref(poly));
                n += select::select_points_mem(&spade, &points, &constraint).len();
            }
            n
        })
    });
    g.finish();
}

fn disk_index(dir: &std::path::Path, data: &spade_core::Dataset, budget: u64) -> IndexedDataset {
    let cell = GridIndex::cell_size_for_budget(&data.extent, data.byte_size() as u64, budget);
    let grid = GridIndex::build(Some(dir.to_path_buf()), &data.objects, cell).expect("grid build");
    IndexedDataset::new(data.name.clone(), data.kind, grid)
}

fn bench_ooc_pipelining(c: &mut Criterion) {
    // The pipelining ablation: the same disk-backed join with prefetch and
    // the cell cache disabled (synchronous, every read + decode on the
    // critical path, repeated per query) vs the pipelined executor, whose
    // cache is sized to hold the working set so repeat queries skip the
    // disk entirely.
    let mut g = c.benchmark_group("join_out_of_core");
    g.sample_size(10);
    let dir = std::env::temp_dir().join(format!("spade-bench-ooc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let polys =
        spade_core::Dataset::from_polygons("parcels", spade_datagen::spider::parcels(12, 0.25, 5));
    let pts =
        spade_core::Dataset::from_points("p", spade_datagen::spider::uniform_points(600_000, 7));
    let base = EngineConfig {
        resolution: 512,
        device_memory: 64 << 20,
        max_cell_bytes: 2 << 20,
        layer_resolution: 512,
        cell_cache_bytes: 128 << 20, // holds the full ~36 MiB working set
        ..EngineConfig::default()
    };
    let i1 = disk_index(&dir.join("a"), &polys, base.max_cell_bytes);
    let i2 = disk_index(&dir.join("b"), &pts, base.max_cell_bytes);

    let synchronous = Spade::new(EngineConfig {
        prefetch_depth: 0,
        cell_cache_bytes: 0,
        ..base.clone()
    });
    g.bench_function("synchronous", |b| {
        b.iter(|| {
            join::join_indexed(&synchronous, &i1, &i2, &QueryCtx::default())
                .expect("indexed join")
                .result
                .len()
        })
    });

    let pipelined = Spade::new(base.clone());
    g.bench_function("pipelined", |b| {
        b.iter(|| {
            join::join_indexed(&pipelined, &i1, &i2, &QueryCtx::default())
                .expect("indexed join")
                .result
                .len()
        })
    });

    // The observability ablation: the same pipelined join with tracing
    // spans armed. The delta against "pipelined" is the live tracing cost;
    // the acceptance bar (disabled tracing within 10% of untraced) is
    // enforced by the `tracing_overhead_within_ten_percent` test.
    let traced = Spade::new(EngineConfig {
        tracing: true,
        ..base
    });
    g.bench_function("pipelined_traced", |b| {
        b.iter(|| {
            let n = join::join_indexed(&traced, &i1, &i2, &QueryCtx::default())
                .expect("indexed join")
                .result
                .len();
            spade_core::trace::drain();
            n
        })
    });
    spade_core::trace::set_enabled(false);
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_point_polygon_join,
    bench_polygon_polygon_join,
    bench_layer_vs_naive,
    bench_ooc_pipelining
);
criterion_main!(benches);
