//! Micro-benchmarks of the software graphics pipeline: rasterization rules,
//! blending, the parallel scan, and canvas creation (a polygon canvas and
//! kNN's circle canvas).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spade_canvas::create::{render_polygons, PreparedPolygon};
use spade_canvas::distance::distance_canvas_points;
use spade_geometry::{BBox, Point, Polygon};
use spade_gpu::{scan, BlendMode, DrawCall, Pipeline, Primitive, Texture, Viewport};

fn vp(n: u32) -> Viewport {
    Viewport::new(BBox::new(Point::ZERO, Point::new(1.0, 1.0)), n, n)
}

fn tri_field(n: usize) -> Vec<Primitive> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.37) % 0.9;
            let y = (i as f64 * 0.71) % 0.9;
            Primitive::triangle(
                Point::new(x, y),
                Point::new(x + 0.05, y),
                Point::new(x, y + 0.05),
                [i as u32 + 1, 0, 0, 0],
            )
        })
        .collect()
}

fn bench_rasterization(c: &mut Criterion) {
    let mut g = c.benchmark_group("rasterize");
    g.sample_size(20);
    let pipe = Pipeline::new();
    let prims = tri_field(1000);
    for conservative in [false, true] {
        g.bench_with_input(
            BenchmarkId::new("1000tris_512px", conservative),
            &conservative,
            |b, &cons| {
                b.iter(|| {
                    let mut tex = Texture::new(512, 512);
                    pipe.draw(
                        &mut tex,
                        &prims,
                        &DrawCall::simple(vp(512), BlendMode::Replace, cons),
                    );
                    tex.count_non_null()
                })
            },
        );
    }
    g.finish();
}

fn bench_blend_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("blend");
    g.sample_size(20);
    let pipe = Pipeline::new();
    let points: Vec<Primitive> = (0..100_000)
        .map(|i| {
            Primitive::point(
                Point::new((i as f64 * 0.618) % 1.0, (i as f64 * 0.414) % 1.0),
                [1, 1, 0, 0],
            )
        })
        .collect();
    for mode in [BlendMode::Replace, BlendMode::Max] {
        g.bench_with_input(
            BenchmarkId::new("100k_points", format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let mut tex = Texture::new(256, 256);
                    pipe.draw(&mut tex, &points, &DrawCall::simple(vp(256), mode, false));
                })
            },
        );
    }
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan");
    g.sample_size(20);
    let pool = spade_gpu::WorkerPool::new(8);
    let mut tex = Texture::new(1024, 1024);
    for i in (0..tex.len()).step_by(7) {
        tex.put_linear(i, [1, 0, 0, 0]);
    }
    g.bench_function("compact_1Mpx", |b| {
        b.iter(|| scan::compact_non_null(&tex, &pool))
    });
    g.finish();
}

fn bench_canvas_creation(c: &mut Criterion) {
    let mut g = c.benchmark_group("canvas");
    g.sample_size(10);
    let pipe = Pipeline::new();
    let polys: Vec<PreparedPolygon> = (0..64)
        .map(|i| {
            let cx = 0.1 + (i % 8) as f64 * 0.1;
            let cy = 0.1 + (i / 8) as f64 * 0.1;
            PreparedPolygon::prepare(i as u32, &Polygon::circle(Point::new(cx, cy), 0.04, 16))
        })
        .collect();
    g.bench_function("64_polygons_512px", |b| {
        b.iter(|| render_polygons(&pipe, vp(512), &polys))
    });
    // A kNN select's within-circle: one point at the distance resolution.
    let (q, r) = (Point::new(0.4, 0.6), 0.05);
    let circle = Viewport::square_pixels(BBox::new(q, q).inflate(r), 512);
    g.bench_function("distance_circle_512px", |b| {
        b.iter(|| distance_canvas_points(&pipe, circle, &[(0, q, r)]))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rasterization,
    bench_blend_modes,
    bench_scan,
    bench_canvas_creation
);
criterion_main!(benches);
