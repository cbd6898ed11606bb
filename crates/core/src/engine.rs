//! The engine object and shared query machinery.

use crate::config::EngineConfig;
use crate::explain::DeltaInfo;
use crate::stats::QueryStats;
use spade_canvas::canvas::CanvasLayer;
use spade_canvas::create::{self, PreparedPolygon};
use spade_geometry::{BBox, Point, Segment, Triangle};
use spade_gpu::{DeviceMemory, Pipeline, Viewport};
use std::sync::Arc;
use std::time::Instant;

/// The SPADE engine: the software pipeline, the simulated device, and the
/// configuration. One instance serves many queries; per-query statistics
/// are measured with snapshots.
pub struct Spade {
    pub config: EngineConfig,
    pub pipeline: Pipeline,
    /// Shared with the pipeline's framebuffer arena, which charges
    /// checked-out render targets against the same ledger as data cells.
    pub device: Arc<DeviceMemory>,
    /// The hot-query serving layer: rendered results keyed by
    /// `(query fingerprint, dataset version)`, served by the cached
    /// dispatchers in [`crate::query`]. Its resident bytes are charged
    /// through the arena into the device ledger.
    pub result_cache: crate::result_cache::ResultCache,
    /// Measured per-pair join costs feeding the optimizer's adaptive join
    /// decision — see [`crate::optimizer::stats`].
    pub observed: crate::optimizer::stats::ObservedStats,
}

impl Spade {
    pub fn new(config: EngineConfig) -> Self {
        if config.tracing {
            // One-way arming: tracing is process-global, and an untraced
            // engine must not silence a traced one sharing the process.
            crate::trace::set_enabled(true);
        }
        let pipeline = Pipeline::with_workers(config.effective_workers());
        pipeline.set_simd_kernels(config.simd_kernels);
        let device = Arc::new(
            DeviceMemory::with_bandwidth(config.device_memory, config.bandwidth)
                .paced(config.pace_transfers),
        );
        pipeline.arena().bind_ledger(Arc::clone(&device));
        pipeline
            .arena()
            .set_retain_limit(config.texture_pool_bytes());
        let result_cache = crate::result_cache::ResultCache::new(
            config.result_cache_bytes(),
            config.result_cache_enabled,
        );
        result_cache.bind_arena(pipeline.arena_handle());
        Spade {
            config,
            pipeline,
            device,
            result_cache,
            observed: crate::optimizer::stats::ObservedStats::new(),
        }
    }

    /// A default-configured engine.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The query viewport over a world region: square pixels, longer axis
    /// at the configured resolution, slightly inflated so geometry exactly
    /// on the region border still rasterizes inside.
    pub fn viewport_for(&self, region: &BBox) -> Viewport {
        let pad = (region.width().max(region.height()) * 1e-6).max(1e-9);
        Viewport::square_pixels(region.inflate(pad), self.config.resolution)
    }

    /// Begin measuring a query. Opens a per-query recording frame on the
    /// calling thread ([`spade_gpu::record`]), so the measurement sees only
    /// this query's pipeline and transfer work even when other queries run
    /// concurrently against the same engine.
    pub(crate) fn begin(&self) -> Measure {
        spade_gpu::record::begin();
        Measure {
            start: Instant::now(),
            open: true,
        }
    }
}

/// Per-query measurement backed by a thread-local recording frame, so
/// overlapping queries on a shared engine never see each other's counters.
/// If a query unwinds early (an error or cancellation propagating with `?`
/// before `finish`), the `Drop` impl closes the frame so the thread's frame
/// stack stays balanced.
pub(crate) struct Measure {
    start: Instant,
    open: bool,
}

impl Measure {
    /// Close the measurement into a stats record. `disk_io` is the wall
    /// time spent in block loads, `disk_bytes` the bytes read, both
    /// tracked by the caller; device transfers and the Map choices come
    /// from this query's own recording frame, not the global ledger.
    pub(crate) fn finish(
        mut self,
        spade: &Spade,
        disk_io: std::time::Duration,
        disk_bytes: u64,
        polygon_time: std::time::Duration,
        cells_loaded: u64,
        result_count: u64,
    ) -> QueryStats {
        self.open = false;
        let frame = spade_gpu::record::finish();
        let dev_time = frame.transfer_time();
        let mut stats = QueryStats {
            io_time: disk_io + dev_time,
            gpu_time: std::time::Duration::from_nanos(frame.gpu.gpu_nanos),
            polygon_time,
            bytes_from_disk: disk_bytes,
            bytes_to_device: frame.transfer_bytes,
            passes: frame.gpu.draw_calls,
            cells_loaded,
            result_count,
            ..Default::default()
        };
        if frame.map != Default::default() {
            stats.plan.map = Some(frame.map);
        }
        // Include modeled device-transfer time in the wall total: on real
        // hardware the bus transfer is wall time; in simulation it is
        // accounting, so it is added on top of the measured elapsed time —
        // unless transfers are paced, in which case the sleep already
        // occupied wall time and adding it again would double-count.
        let extra = if spade.device.is_paced() {
            std::time::Duration::ZERO
        } else {
            dev_time
        };
        stats.finish(self.start.elapsed() + extra);
        stats
    }

    /// [`Measure::finish`] for an out-of-core query: disk I/O, bytes and
    /// cell count come from the cell stream, whose overlap accounting is
    /// charged once the wall clock is closed; `deltas` are the walk's
    /// delta merges.
    pub(crate) fn finish_streamed(
        self,
        spade: &Spade,
        stream: &crate::prefetch::StreamStats,
        deltas: &[DeltaInfo],
        polygon_time: std::time::Duration,
        result_count: u64,
    ) -> QueryStats {
        let mut stats = self.finish(
            spade,
            stream.io_time,
            stream.bytes_from_disk,
            polygon_time,
            stream.cells,
            result_count,
        );
        stream.charge(&mut stats);
        stats.plan.deltas = deltas.to_vec();
        stats
    }
}

impl Drop for Measure {
    fn drop(&mut self) {
        if self.open {
            let _ = spade_gpu::record::finish();
        }
    }
}

/// A rendered query constraint: a polygon-class canvas layer and its
/// viewport. Built from polygonal constraints, rectangles, or distance
/// constraints; the select/join executors sample it as a texture.
pub struct Constraint {
    pub layer: CanvasLayer,
    pub viewport: Viewport,
    /// Total vertex count of the constraint geometry (reported for the
    /// polygon-complexity analyses in §6.2).
    pub num_vertices: usize,
}

impl Constraint {
    /// Wrap an already-rendered canvas layer (distance canvases are built
    /// by the [`spade_canvas::distance`] generators and masked through the
    /// same machinery as polygonal constraints).
    pub fn from_layer(layer: CanvasLayer, viewport: Viewport, num_vertices: usize) -> Constraint {
        Constraint {
            layer,
            viewport,
            num_vertices,
        }
    }

    /// Build a constraint canvas from prepared polygons (one rendering
    /// pass for interiors, one for boundaries, §5.2 step 1).
    pub fn from_polygons(spade: &Spade, polys: &[PreparedPolygon]) -> Constraint {
        Self::from_polygons_res(spade, polys, spade.config.resolution)
    }

    /// Like [`Constraint::from_polygons`] with an explicit resolution —
    /// index filtering runs at a coarse resolution since cell hulls only
    /// gate block loads (§5.3's filter stage tolerates coarse canvases:
    /// false positives just load one extra cell).
    pub fn from_polygons_res(
        spade: &Spade,
        polys: &[PreparedPolygon],
        resolution: u32,
    ) -> Constraint {
        let mut bbox = BBox::empty();
        let mut verts = 0;
        for p in polys {
            bbox = bbox.union(&p.bbox);
            verts += p.num_vertices();
        }
        let pad = (bbox.width().max(bbox.height()) * 1e-6).max(1e-9);
        let viewport = Viewport::square_pixels(bbox.inflate(pad), resolution);
        let layer = create::render_polygons(&spade.pipeline, viewport, polys);
        Constraint {
            layer,
            viewport,
            num_vertices: verts,
        }
    }

    /// Build a constraint from axis-parallel rectangles (the range-query
    /// fast path through the geometry shader, §4.2).
    pub fn from_rects(spade: &Spade, rects: &[(u32, BBox)]) -> Constraint {
        let mut bbox = BBox::empty();
        for (_, b) in rects {
            bbox = bbox.union(b);
        }
        let viewport = spade.viewport_for(&bbox);
        let layer = create::render_rects(&spade.pipeline, viewport, rects);
        Constraint {
            layer,
            viewport,
            num_vertices: rects.len() * 4,
        }
    }

    /// Classify-and-match a point against the constraint, appending the
    /// ids of matching constraint objects to `out` (cleared first). The
    /// out-parameter keeps the hot fragment path allocation-free.
    pub fn match_point_into(&self, p: Point, out: &mut Vec<u32>) {
        out.clear();
        let Some((x, y)) = self.viewport.world_to_pixel(p) else {
            return;
        };
        let v = self.layer.texture.get(x, y);
        match spade_canvas::canvas::classify(v) {
            spade_canvas::PixelClass::Outside => {}
            spade_canvas::PixelClass::Interior => {
                out.push(spade_canvas::canvas::pixel_id(v).expect("interior pixel id"));
            }
            spade_canvas::PixelClass::Boundary => {
                let vb = spade_canvas::canvas::pixel_bound(v).expect("boundary pixel vb");
                out.extend(self.layer.boundary.matches_point_at((x, y), vb, p));
            }
        }
    }

    /// Boolean form: does the point intersect *any* constraint object?
    /// (The selection fast path: no id list needed, no allocation.)
    pub fn match_point_any(&self, p: Point) -> bool {
        let Some((x, y)) = self.viewport.world_to_pixel(p) else {
            return false;
        };
        let v = self.layer.texture.get(x, y);
        match spade_canvas::canvas::classify(v) {
            spade_canvas::PixelClass::Outside => false,
            spade_canvas::PixelClass::Interior => true,
            spade_canvas::PixelClass::Boundary => {
                let vb = spade_canvas::canvas::pixel_bound(v).expect("boundary pixel vb");
                self.layer.boundary.test_point_at((x, y), vb, p)
            }
        }
    }

    /// Convenience allocating form of [`Constraint::match_point_into`].
    pub fn match_point(&self, p: Point) -> Vec<u32> {
        let mut out = Vec::new();
        self.match_point_into(p, &mut out);
        out
    }

    /// Match a segment fragment at a given canvas pixel.
    pub fn match_segment_at(&self, px: (u32, u32), s: Segment, out: &mut Vec<u32>) {
        self.match_prim_at(px, out, |bi, vb, out| {
            out.extend(bi.matches_segment_at(px, vb, s))
        })
    }

    /// Match a triangle fragment at a given canvas pixel.
    pub fn match_triangle_at(&self, px: (u32, u32), t: &Triangle, out: &mut Vec<u32>) {
        self.match_prim_at(px, out, |bi, vb, out| {
            out.extend(bi.matches_triangle_at(px, vb, t))
        })
    }

    fn match_prim_at(
        &self,
        px: (u32, u32),
        out: &mut Vec<u32>,
        exact: impl Fn(&spade_canvas::BoundaryIndex, u32, &mut Vec<u32>),
    ) {
        out.clear();
        let v = self.layer.texture.get(px.0, px.1);
        match spade_canvas::canvas::classify(v) {
            spade_canvas::PixelClass::Outside => {}
            // The whole pixel is covered by this constraint object, and the
            // fragment witnesses the candidate touching the pixel.
            spade_canvas::PixelClass::Interior => {
                out.push(spade_canvas::canvas::pixel_id(v).expect("interior pixel id"));
            }
            spade_canvas::PixelClass::Boundary => {
                let vb = spade_canvas::canvas::pixel_bound(v).expect("boundary pixel vb");
                exact(&self.layer.boundary, vb, out);
            }
        }
    }

    /// Device byte footprint of this constraint (texture + boundary index).
    pub fn byte_size(&self) -> u64 {
        (self.layer.texture.byte_size() + self.layer.boundary.byte_size()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_geometry::Polygon;

    fn engine() -> Spade {
        Spade::new(EngineConfig::test_small())
    }

    #[test]
    fn viewport_covers_region() {
        let s = engine();
        let vp = s.viewport_for(&BBox::new(Point::ZERO, Point::new(10.0, 5.0)));
        assert!(vp.world.contains(Point::ZERO));
        assert!(vp.world.contains(Point::new(10.0, 5.0)));
        assert_eq!(vp.width, s.config.resolution);
    }

    #[test]
    fn constraint_matches_points() {
        let s = engine();
        let poly = Polygon::rect(BBox::new(Point::new(2.0, 2.0), Point::new(8.0, 8.0)));
        let prepared = vec![PreparedPolygon::prepare(7, &poly)];
        let c = Constraint::from_polygons(&s, &prepared);
        assert_eq!(c.match_point(Point::new(5.0, 5.0)), vec![7]);
        assert_eq!(c.match_point(Point::new(2.0, 5.0)), vec![7]); // on edge
        assert!(c.match_point(Point::new(1.0, 1.0)).is_empty());
        assert!(c.match_point(Point::new(100.0, 100.0)).is_empty()); // off canvas
        assert_eq!(c.num_vertices, 4);
        assert!(c.byte_size() > 0);
    }

    #[test]
    fn rect_constraint_equivalent() {
        let s = engine();
        let bb = BBox::new(Point::new(2.0, 2.0), Point::new(8.0, 8.0));
        let c = Constraint::from_rects(&s, &[(3, bb)]);
        assert_eq!(c.match_point(Point::new(5.0, 5.0)), vec![3]);
        assert!(c.match_point(Point::new(8.7, 5.0)).is_empty());
        // Boundary-exactness right at the rim.
        assert_eq!(c.match_point(Point::new(8.0, 8.0)), vec![3]);
    }

    #[test]
    fn measurement_produces_breakdown() {
        let s = engine();
        let m = s.begin();
        // Some GPU work.
        let poly = Polygon::rect(BBox::new(Point::ZERO, Point::new(4.0, 4.0)));
        let _ = Constraint::from_polygons(&s, &[PreparedPolygon::prepare(0, &poly)]);
        let stats = m.finish(
            &s,
            std::time::Duration::from_millis(1),
            123,
            std::time::Duration::ZERO,
            0,
            42,
        );
        assert!(stats.total_time > std::time::Duration::ZERO);
        assert!(stats.passes >= 2); // interior + boundary pass
        assert_eq!(stats.bytes_from_disk, 123);
        assert_eq!(stats.result_count, 42);
        assert!(stats.io_time >= std::time::Duration::from_millis(1));
    }

    /// Overlapping queries on one shared engine must each see only their
    /// own pipeline work: per-query deltas, not global diffs.
    #[test]
    fn concurrent_measurements_do_not_double_count() {
        let s = engine();
        let poly = Polygon::rect(BBox::new(Point::ZERO, Point::new(4.0, 4.0)));

        // Reference: the work one constraint render performs, run alone.
        let m = s.begin();
        let _ = Constraint::from_polygons(&s, &[PreparedPolygon::prepare(0, &poly)]);
        let alone = m.finish(
            &s,
            std::time::Duration::ZERO,
            0,
            std::time::Duration::ZERO,
            0,
            0,
        );

        // 4 threads run the same query concurrently against the same
        // engine; every one must report exactly the solo pass count and
        // byte volume even though the global counters see 4× the work.
        let stats: Vec<crate::stats::QueryStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let m = s.begin();
                        // Freed on drop.
                        let _c = s.device.charge(64);
                        let _ =
                            Constraint::from_polygons(&s, &[PreparedPolygon::prepare(0, &poly)]);
                        m.finish(
                            &s,
                            std::time::Duration::ZERO,
                            0,
                            std::time::Duration::ZERO,
                            0,
                            0,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for st in &stats {
            assert_eq!(st.passes, alone.passes, "pipeline passes leaked");
            assert_eq!(st.bytes_to_device, 64, "transfers leaked across queries");
        }
    }

    /// A measurement abandoned by an early error (`?` before `finish`)
    /// must not leave its frame on the thread stack and corrupt the next
    /// query's attribution.
    #[test]
    fn dropped_measure_closes_its_frame() {
        let s = engine();
        {
            let _m = s.begin(); // dropped without finish, as on an error path
            s.pipeline.stats.add_draw_call();
        }
        let m = s.begin();
        let stats = m.finish(
            &s,
            std::time::Duration::ZERO,
            0,
            std::time::Duration::ZERO,
            0,
            0,
        );
        assert_eq!(stats.passes, 0, "stale frame leaked into next query");
    }
}
