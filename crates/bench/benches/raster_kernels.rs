//! Microbenchmarks for the batched (lane-parallel) kernels in isolation:
//! coverage counting, rasterization under both rules (the conservative one
//! on boundary slivers and on the cell-hull filter's fans of large hulls),
//! the band-direct draw of a constraint canvas's interior,
//! point-containment scans, and the storage filter kernel, most against
//! their scalar forms. The
//! raster kernels' and the draw's speed-ups are gated by
//! `tests/simd_gate.rs`; these isolate where the time goes when a kernel
//! regresses.

use criterion::{criterion_group, criterion_main, Criterion};
use spade_datagen::urban;
use spade_geometry::predicates::{point_in_polygon, points_in_polygon_mask};
use spade_geometry::{BBox, Point, Polygon};
use spade_gpu::{raster, BlendMode, DrawCall, Pipeline, Primitive, Texture, Viewport};
use spade_storage::exec::{scan_with, CmpOp, Expr};
use spade_storage::table::{Schema, Table};
use spade_storage::value::Value;
use spade_storage::DataType;
use std::f64::consts::TAU;

fn lcg(seed: &mut u64) -> f64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
}

fn vp() -> Viewport {
    Viewport::new(BBox::new(Point::ZERO, Point::new(1.0, 1.0)), 512, 512)
}

/// Medium triangles covering a few thousand pixels each — the shape of
/// canvas-creation draws, where per-pixel cost dominates.
fn triangles(n: usize) -> Vec<Primitive> {
    let mut seed = 0xbeef_u64;
    (0..n)
        .map(|i| {
            let (x, y) = (lcg(&mut seed) * 0.8, lcg(&mut seed) * 0.8);
            Primitive::triangle(
                Point::new(x, y),
                Point::new(x + 0.05 + lcg(&mut seed) * 0.1, y + lcg(&mut seed) * 0.02),
                Point::new(x + lcg(&mut seed) * 0.02, y + 0.05 + lcg(&mut seed) * 0.1),
                [i as u32 + 1, 0, 0, 0],
            )
        })
        .collect()
}

fn bench_coverage(c: &mut Criterion) {
    let prims = triangles(64);
    let pipe = Pipeline::with_workers(1);
    let call = DrawCall::simple(vp(), BlendMode::Replace, false);
    let mut g = c.benchmark_group("coverage_count");
    g.bench_function("count_pass", |b| b.iter(|| pipe.count_pass(&prims, &call)));
    g.finish();
}

fn bench_rasterize(c: &mut Criterion) {
    let prims = triangles(64);
    let vp = vp();
    let mut g = c.benchmark_group("rasterize");
    g.bench_function("scalar", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &prims {
                raster::rasterize(p, &vp, false, &mut |x, y| {
                    acc = acc.wrapping_add(u64::from(x) ^ u64::from(y));
                });
            }
            acc
        })
    });
    g.bench_function("batched_emit", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for p in &prims {
                raster::rasterize_with(p, &vp, false, &mut |x, y| {
                    acc = acc.wrapping_add(u64::from(x) ^ u64::from(y));
                });
            }
            acc
        })
    });
    g.finish();
}

/// The interior pass of a 48-vertex constraint canvas at 1024² (the shape
/// `simd_gate` times): `Pipeline::draw` on one worker, one slice blend per
/// triangle row, against the oracle's fragments blended one by one.
fn bench_blocks(c: &mut Criterion) {
    let world = BBox::new(Point::ZERO, Point::new(1.0, 1.0));
    let constraint = &urban::constraint_polygons(1, &world, 0.3, 48, 0xc0de)[0];
    let prims: Vec<Primitive> = (constraint.triangulate().into_iter())
        .map(|t| Primitive::triangle(t.a, t.b, t.c, [1, 0, 1, 0]))
        .collect();
    let vp = Viewport::new(constraint.bbox(), 1024, 1024);
    let call = DrawCall::simple(vp, BlendMode::Replace, false);
    let pipe = Pipeline::with_workers(1);
    let mut tex = Texture::new(1024, 1024);
    let mut g = c.benchmark_group("blocks");
    g.bench_function("oracle", |b| {
        b.iter(|| {
            tex.clear();
            for p in &prims {
                raster::rasterize(p, &vp, false, &mut |x, y| {
                    tex.put(x, y, call.blend.apply(tex.get(x, y), p.attrs()))
                });
            }
        })
    });
    g.bench_function("draw", |b| {
        b.iter(|| {
            tex.clear();
            pipe.draw(&mut tex, &prims, &call)
        })
    });
    g.finish();
}

/// Conservative coverage of thin diagonal slivers (polygon boundary fans):
/// one covered run per row against the oracle's test of every bbox pixel.
fn bench_conservative(c: &mut Criterion) {
    let mut seed = 0x511e_u64;
    let prims: Vec<Primitive> = (0..64)
        .map(|i| {
            let (x, y) = (lcg(&mut seed) * 0.6, lcg(&mut seed) * 0.6);
            let d = 0.05 + lcg(&mut seed) * 0.3;
            Primitive::triangle(
                Point::new(x, y),
                Point::new(x + d, y + d + 0.002),
                Point::new(x + d + 0.004, y + d + 0.006),
                [i + 1, 0, 0, 0],
            )
        })
        .collect();
    let vp = vp();
    let mut g = c.benchmark_group("conservative");
    for (name, runs) in [("oracle", false), ("runs", true)] {
        g.bench_function(name, |b| b.iter(|| conservative(&prims, &vp, runs)));
    }
    // The cell-hull filter's draw: fans of convex hulls 10–1000× the
    // viewport, whose boundaries cross it, so many rows of a fan
    // triangle's bounding box lie wholly beside the viewport's coverage.
    let hulls = hull_fans();
    g.bench_function("hull_fans_small_viewport", |b| {
        b.iter(|| conservative(&hulls, &vp, true))
    });
    g.finish();
}

/// Every conservative fragment of `prims`, through the row runs or the
/// per-pixel oracle, folded into a checksum.
fn conservative(prims: &[Primitive], vp: &Viewport, runs: bool) -> u64 {
    let mut acc = 0u64;
    let mut emit = |x: u32, y: u32| acc = acc.wrapping_add(u64::from(x) ^ u64::from(y));
    for p in prims {
        if runs {
            raster::rasterize_with(p, vp, true, &mut emit);
        } else {
            raster::rasterize(p, vp, true, &mut emit);
        }
    }
    acc
}

/// The triangulated convex hulls of 12 grid cells, each 10–1000× the unit
/// viewport across, with the boundary passing within a viewport of it.
fn hull_fans() -> Vec<Primitive> {
    let mut seed = 0x4a11_u64;
    let mut lcg = move || lcg(&mut seed);
    let mut prims = Vec::new();
    for i in 0..12 {
        let r = 10f64.powf(1.0 + 2.0 * lcg());
        let a = lcg() * TAU;
        let c = Point::new(0.5, 0.5) - Point::new(a.cos(), a.sin()) * (r + 2.0 * lcg() - 0.5);
        let verts = (0..24)
            .map(|j| {
                let b = (f64::from(j) + 0.8 * lcg()) / 24.0 * TAU;
                c + Point::new(b.cos(), b.sin()) * r
            })
            .collect();
        let fan = Polygon::new(verts).triangulate().into_iter();
        prims.extend(fan.map(|t| Primitive::triangle(t.a, t.b, t.c, [i + 1, 0, 0, 0])));
    }
    prims
}

fn bench_containment(c: &mut Criterion) {
    let mut seed = 0xabcd_u64;
    let verts: Vec<Point> = (0..64)
        .map(|i| {
            let a = (i as f64) / 64.0 * std::f64::consts::TAU;
            let r = 0.3 + lcg(&mut seed) * 0.15;
            Point::new(0.5 + r * a.cos(), 0.5 + r * a.sin())
        })
        .collect();
    let poly = Polygon::new(verts);
    let pts: Vec<Point> = (0..10_000)
        .map(|_| Point::new(lcg(&mut seed), lcg(&mut seed)))
        .collect();
    let mut g = c.benchmark_group("polygon_containment");
    g.bench_function("scalar", |b| {
        b.iter(|| -> usize { pts.iter().filter(|&&p| point_in_polygon(p, &poly)).count() })
    });
    g.bench_function("mask_kernel", |b| {
        let mut mask = Vec::new();
        b.iter(|| -> usize {
            points_in_polygon_mask(&pts, &poly, &mut mask);
            mask.iter().filter(|&&m| m).count()
        })
    });
    g.finish();
}

fn bench_filter_scan(c: &mut Criterion) {
    let mut seed = 0x51ab_u64;
    let mut t = Table::new(
        "bench",
        Schema::new(vec![
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Float),
        ]),
    );
    for _ in 0..100_000 {
        let a = Value::Int((lcg(&mut seed) * 1000.0) as i64);
        let b = if lcg(&mut seed) < 0.05 {
            Value::Null
        } else {
            Value::Float(lcg(&mut seed))
        };
        t.insert(vec![a, b]).unwrap();
    }
    let f = Expr::cmp(CmpOp::Gt, Expr::col("a"), Expr::lit(500i64)).and(Expr::cmp(
        CmpOp::Lt,
        Expr::col("b"),
        Expr::lit(0.25),
    ));
    let mut g = c.benchmark_group("filter_scan");
    g.sample_size(20);
    g.bench_function("row_wise", |b| {
        b.iter(|| scan_with(&t, &[], Some(&f), false).unwrap().num_rows())
    });
    g.bench_function("block_kernel", |b| {
        b.iter(|| scan_with(&t, &[], Some(&f), true).unwrap().num_rows())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_coverage,
    bench_rasterize,
    bench_blocks,
    bench_conservative,
    bench_containment,
    bench_filter_scan
);
criterion_main!(benches);
