//! Determinism of the persistent render executor: every query family must
//! produce byte-identical results at any worker count, with one executor
//! reused across all passes of all queries (chunk-ordered map stages and
//! primitive-ordered blending make the schedule irrelevant), both on the
//! in-memory and the pipelined out-of-core path. Each engine runs the
//! whole suite twice, so the second round renders entirely into recycled
//! arena framebuffers — any stale pixel would desynchronize the bytes.

use spade::datagen::{spider, urban};
use spade::engine::dataset::{Dataset, DatasetKind, IndexedDataset};
use spade::engine::distance::DistanceConstraint;
use spade::engine::optimizer::{stats::MIN_SAMPLES, JoinStrategy};
use spade::engine::{aggregate, distance, join, knn, select, EngineConfig, QueryCtx, Spade};
use spade::geometry::{BBox, Point};
use spade::index::GridIndex;

fn unit() -> BBox {
    BBox::new(Point::ZERO, Point::new(1.0, 1.0))
}

/// A directory of its own for every call: the tests of this binary run on
/// parallel threads, each builds (and on drop removes) a [`Fixture`], so a
/// name shared by two of them lets one delete the block files the other is
/// still reading.
fn tmpdir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("spade-det-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// All datasets the suite queries, in-memory and disk-backed.
struct Fixture {
    pts: Dataset,
    parcels: Dataset,
    pts_idx: IndexedDataset,
    parcels_idx: IndexedDataset,
    dir: std::path::PathBuf,
}

impl Fixture {
    fn build() -> Fixture {
        let pts = Dataset::from_points("p", spider::gaussian_points(6_000, 71));
        let parcels = Dataset::from_polygons("parcels", spider::parcels(80, 0.05, 73));
        let dir = tmpdir("fix");
        let gp = GridIndex::build(Some(dir.join("p")), &pts.objects, 0.2).unwrap();
        let gq = GridIndex::build(Some(dir.join("q")), &parcels.objects, 0.35).unwrap();
        Fixture {
            pts_idx: IndexedDataset::new("p", DatasetKind::Points, gp),
            parcels_idx: IndexedDataset::new("parcels", DatasetKind::Polygons, gq),
            pts,
            parcels,
            dir,
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn push_u32s(out: &mut Vec<u8>, ids: &[u32]) {
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

/// Run all five query families on one engine and flatten every result into
/// one byte string. Floating-point distances are encoded via their exact
/// bit patterns, so any deviation — even one ULP — changes the bytes.
fn run_suite(spade: &Spade, f: &Fixture) -> Vec<u8> {
    let mut out = Vec::new();

    // 1. Polygon-constraint selection.
    let c = urban::constraint_polygons(1, &unit(), 0.2, 24, 5)
        .pop()
        .unwrap();
    let mut mem = select::select(spade, &f.pts, &c).result;
    mem.sort_unstable();
    push_u32s(&mut out, &mem);
    push_u32s(
        &mut out,
        &select::select_indexed(spade, &f.pts_idx, &c, &QueryCtx::default())
            .unwrap()
            .result,
    );

    // 2. Distance selection around a point.
    let dc = DistanceConstraint::Point(Point::new(0.45, 0.55));
    push_u32s(
        &mut out,
        &distance::distance_select(spade, &f.pts, &dc, 0.08).result,
    );
    push_u32s(
        &mut out,
        &distance::distance_select_indexed(spade, &f.pts_idx, &dc, 0.08, &QueryCtx::default())
            .unwrap()
            .result,
    );

    // 3. kNN.
    for k in [1usize, 12] {
        for (id, d) in knn::knn_select(spade, &f.pts, Point::new(0.3, 0.7), k).result {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        for (id, d) in knn::knn_select_indexed(
            spade,
            &f.pts_idx,
            Point::new(0.3, 0.7),
            k,
            &QueryCtx::default(),
        )
        .unwrap()
        .result
        {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
    }

    // 4. Polygon × point join.
    for (a, b) in join::join(spade, &f.parcels, &f.pts).result {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    let mut ooc = join::join_indexed(spade, &f.parcels_idx, &f.pts_idx, &QueryCtx::default())
        .unwrap()
        .result;
    ooc.sort_unstable();
    for (a, b) in ooc {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }

    // 5. Per-polygon aggregation (both plans).
    for (id, n) in aggregate::aggregate_points(spade, &f.parcels, &f.pts).result {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
    for (id, n) in
        aggregate::aggregate_indexed(spade, &f.parcels_idx, &f.pts_idx, &QueryCtx::default())
            .unwrap()
            .result
    {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }

    out
}

/// Byte-identical results for every query family at workers ∈ {1, 2, 8},
/// in-memory and out-of-core, including a second round per engine that
/// replays the suite through the already-warm executor and arena.
#[test]
fn all_query_families_byte_identical_across_worker_counts() {
    let f = Fixture::build();
    let mut reference: Option<Vec<u8>> = None;
    for workers in [1usize, 2, 8] {
        let spade = Spade::new(EngineConfig {
            workers,
            ..EngineConfig::test_small()
        });
        for round in 0..2 {
            let bytes = run_suite(&spade, &f);
            match &reference {
                None => reference = Some(bytes),
                Some(want) => assert_eq!(
                    &bytes, want,
                    "divergent result bytes at workers={workers} round={round}"
                ),
            }
        }
        // Same executor served every pass of both rounds; nothing leaked.
        assert!(spade.pipeline.pool().stats().jobs > 0);
        assert_eq!(spade.pipeline.arena().stats().live_bytes, 0);
        assert_eq!(spade.device.used(), 0);
    }
}

/// The join strategy must be invisible in result bytes: an engine pinned
/// to the layer-index join, one pinned to the naive selects, and a free
/// engine whose adaptive choice was calibrated on both run three rounds of
/// all five query families at a small 1-pass budget, byte-identically —
/// the optimizer may only re-route work, never change answers.
#[test]
fn forced_and_adaptive_join_strategies_byte_identical() {
    let f = Fixture::build();
    let engine = || {
        Spade::new(EngineConfig {
            workers: 2,
            max_map_slots: 64,
            ..EngineConfig::test_small()
        })
    };
    let (layer, naive, free) = (engine(), engine(), engine());
    layer
        .observed
        .set_join_override(Some(JoinStrategy::LayerIndex));
    naive
        .observed
        .set_join_override(Some(JoinStrategy::NaiveSelects));
    let join = |spade: &Spade| {
        join::join_indexed(spade, &f.parcels_idx, &f.pts_idx, &QueryCtx::default()).unwrap()
    };
    // Calibrate: forced runs warm the free engine's cost of both strategies.
    for forced in [JoinStrategy::LayerIndex, JoinStrategy::NaiveSelects] {
        free.observed.set_join_override(Some(forced));
        for _ in 0..MIN_SAMPLES {
            join(&free);
        }
    }
    free.observed.set_join_override(None);
    for round in 0..3 {
        let want = run_suite(&layer, &f);
        assert_eq!(run_suite(&naive, &f), want, "naive join at round {round}");
        assert_eq!(run_suite(&free, &f), want, "adaptive join at round {round}");
    }
    // The comparison is vacuous unless the free engine decided from its
    // observations.
    let decision = join(&free).stats.plan.join.expect("join plan reported");
    assert!(decision.adaptive, "calibrated engine decided statically");
}

/// The batched kernels must be invisible in result bytes: with
/// `simd_kernels` off every rasterization, blend, and scan loop runs its
/// scalar form, yet all five query families — in-memory and out-of-core —
/// must stay byte-identical to the batched engine at every worker count.
/// The kernels are bit-identical by construction (same floating-point
/// operation sequences on the same operands), and this is the end-to-end
/// proof.
#[test]
fn simd_kernels_on_off_byte_identical() {
    let f = Fixture::build();
    for workers in [1usize, 2, 8] {
        let cfg = |simd| EngineConfig {
            workers,
            simd_kernels: simd,
            ..EngineConfig::test_small()
        };
        let on = Spade::new(cfg(true));
        let off = Spade::new(cfg(false));
        for round in 0..2 {
            let a = run_suite(&on, &f);
            let b = run_suite(&off, &f);
            assert_eq!(
                a, b,
                "simd kernels changed result bytes at workers={workers} round={round}"
            );
        }
        // Non-vacuity: the batched engine actually took the block path,
        // the scalar engine never did.
        assert!(
            on.pipeline.batched_blocks() > 0,
            "simd engine never emitted a coverage block at workers={workers}"
        );
        assert_eq!(off.pipeline.batched_blocks(), 0);
    }
}

/// Arena regression: the second round above rendered into recycled
/// framebuffers. Prove the recycling actually happened (hits > 0) and that
/// disabling the arena entirely still yields the same bytes — pooling is
/// purely an allocation optimization, never a semantic one.
#[test]
fn recycled_framebuffers_never_leak_stale_pixels() {
    let f = Fixture::build();
    let pooled = Spade::new(EngineConfig {
        workers: 2,
        ..EngineConfig::test_small()
    });
    let first = run_suite(&pooled, &f);
    let second = run_suite(&pooled, &f);
    assert_eq!(first, second, "recycled framebuffers changed results");
    let stats = pooled.pipeline.arena().stats();
    assert!(
        stats.hits > 0,
        "suite replay never hit the arena: {stats:?}"
    );

    let unpooled = Spade::new(EngineConfig {
        workers: 2,
        ..EngineConfig::test_small()
    });
    unpooled.pipeline.arena().set_retain_limit(0);
    assert_eq!(run_suite(&unpooled, &f), first, "pooling changed results");
    assert_eq!(unpooled.pipeline.arena().stats().hits, 0);
}
