//! Selection-query benchmarks (the Fig. 5 family at micro scale):
//! SPADE vs STIG vs cluster vs S2-like on the same constraint.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spade_baselines::cluster::{ClusterConfig, PointRdd};
use spade_baselines::s2like::PointIndex;
use spade_baselines::stig::Stig;
use spade_bench::workloads as wl;
use spade_core::select;
use spade_core::QueryCtx;

fn bench_point_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("select_points");
    g.sample_size(10);
    let spade = spade_bench::experiments::bench_engine();
    let data = wl::taxi(50_000);
    let pts: Vec<_> = data.as_points().into_iter().map(|(_, p)| p).collect();
    let constraint = wl::constraints(&wl::nyc_extent(), 48, 1)[5].clone();

    g.bench_function("spade_mem", |b| {
        b.iter(|| select::select(&spade, &data, &constraint).result.len())
    });
    let indexed = wl::index(&spade, &data);
    g.bench_function("spade_ooc", |b| {
        b.iter(|| {
            select::select_indexed(&spade, &indexed, &constraint, &QueryCtx::default())
                .expect("indexed select")
                .result
                .len()
        })
    });
    let stig = Stig::build(pts.clone(), 1024);
    g.bench_function("stig", |b| {
        b.iter(|| stig.select_polygon(&constraint, 8).len())
    });
    let rdd = PointRdd::build(pts.clone(), ClusterConfig::default());
    g.bench_function("cluster", |b| {
        b.iter(|| rdd.select_polygon(&constraint).len())
    });
    let s2 = PointIndex::build(pts);
    g.bench_function("s2like", |b| {
        b.iter(|| s2.select_polygon(&constraint).len())
    });
    g.finish();
}

fn bench_selectivity_sweep(c: &mut Criterion) {
    // SPADE selection time vs constraint extent (the Fig. 10-left sweep).
    let mut g = c.benchmark_group("select_extent_sweep");
    g.sample_size(10);
    let spade = spade_bench::experiments::bench_engine();
    let data = wl::spider_points(40, false, 1);
    for extent in [0.1f64, 0.3, 0.5] {
        let constraint = wl::unit_square_constraint(extent);
        g.bench_with_input(
            BenchmarkId::from_parameter(extent),
            &constraint,
            |b, constraint| b.iter(|| select::select(&spade, &data, constraint).result.len()),
        );
    }
    g.finish();
}

fn bench_polygon_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("select_polygons");
    g.sample_size(10);
    let spade = spade_bench::experiments::bench_engine();
    let data = wl::buildings(10_000);
    let constraint = wl::constraints(&wl::world_extent(), 96, 2)[7].clone();
    g.bench_function("spade_mem", |b| {
        b.iter(|| select::select(&spade, &data, &constraint).result.len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_point_selection,
    bench_selectivity_sweep,
    bench_polygon_selection
);
criterion_main!(benches);
