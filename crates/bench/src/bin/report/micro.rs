//! Direct micro-spans: a layer's public function called on the workload's
//! own inputs, after the timed operations of a traced run. They give the
//! per-layer table a number for layers the reply statistics only show as
//! part of a sum (cell decode, WAL append, triangulation, constraint
//! rendering, one draw call, the wire codecs).

use spade_canvas::create::{render_polygons, PreparedPolygon};
use spade_geometry::earcut::triangulate_polygon;
use spade_geometry::{BBox, Geometry, Point, Polygon};
use spade_gpu::{BlendMode, DrawCall, Pipeline, Primitive, Texture, Viewport};
use spade_index::GridIndex;
use spade_net::proto::{decode_client, decode_server, encode_client, encode_server};
use spade_net::{ClientMsg, ServerMsg};
use spade_server::{QueryRequest, QueryResponse};
use spade_storage::wal::{Wal, WalOp, WalSync};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::stats;
use spade_datagen::Rng;

/// Canvas resolution of `EngineConfig::default()`.
const RESOLUTION: u32 = 1024;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Mean time of one `GridIndex::load_cell` (read + decode), over every cell.
pub fn load_cell_ms(grid: &GridIndex) -> f64 {
    let n = grid.num_cells();
    let t = Instant::now();
    for i in 0..n {
        black_box(grid.load_cell(i).expect("load a cell the index just wrote"));
    }
    ms_since(t) / n.max(1) as f64
}

/// Mean time of one `Wal::append` of a point insert at `GroupCommit`, over
/// 1 000 appends into a fresh log under `dir`.
pub fn wal_append_us(dir: &Path) -> f64 {
    const APPENDS: u32 = 1_000;
    let (mut wal, _) = Wal::open(dir, WalSync::GroupCommit).expect("open a scratch WAL");
    let t = Instant::now();
    for i in 0..APPENDS {
        let geom = Geometry::Point(Point::new(f64::from(i), -f64::from(i)));
        black_box(
            wal.append("live", WalOp::Insert { id: i, geom })
                .expect("append"),
        );
    }
    ms_since(t) * 1e3 / f64::from(APPENDS)
}

/// Mean time of `triangulate_polygon` per polygon.
pub fn triangulate_us(polygons: &[Polygon]) -> f64 {
    let t = Instant::now();
    for p in polygons {
        black_box(triangulate_polygon(black_box(p)));
    }
    ms_since(t) * 1e3 / polygons.len().max(1) as f64
}

/// Mean time to turn one constraint polygon into a canvas layer:
/// `PreparedPolygon::prepare` plus `render_polygons` over its own bounding
/// box at the default resolution.
pub fn constraint_ms(polygons: &[Polygon]) -> f64 {
    let pipe = Pipeline::new();
    let t = Instant::now();
    for (i, p) in polygons.iter().enumerate() {
        let prepared = PreparedPolygon::prepare(i as u32, p);
        let vp = Viewport::square_pixels(prepared.bbox, RESOLUTION);
        black_box(render_polygons(&pipe, vp, std::slice::from_ref(&prepared)));
    }
    ms_since(t) / polygons.len().max(1) as f64
}

/// Median time of one `Pipeline::draw` of a fixed batch of 10 000 small
/// triangles into a 1024² target. The batch does not depend on the seed: it
/// is the same work on every run and every workload.
pub fn draw_ms() -> f64 {
    const TRIANGLES: usize = 10_000;
    let world = BBox::new(Point::ZERO, Point::new(1.0, 1.0));
    let mut r = spade_datagen::rng(0x5eed);
    let prims: Vec<Primitive> = (0..TRIANGLES)
        .map(|i| {
            let c = Point::new(r.gen::<f64>(), r.gen::<f64>());
            let mut corner =
                || Point::new(c.x + 0.02 * r.gen::<f64>(), c.y + 0.02 * r.gen::<f64>());
            Primitive::triangle(corner(), corner(), corner(), [i as u32, 0, 0, 0])
        })
        .collect();
    let pipe = Pipeline::new();
    let vp = Viewport::new(world, RESOLUTION, RESOLUTION);
    let call = DrawCall::simple(vp, BlendMode::Replace, false);
    let mut target = Texture::new(RESOLUTION, RESOLUTION);
    let times: Vec<f64> = (0..7)
        .map(|_| {
            target.clear();
            let t = Instant::now();
            black_box(pipe.draw(&mut target, &prims, &call));
            ms_since(t)
        })
        .collect();
    stats::median(&times).unwrap_or(0.0)
}

/// The wire codecs on the workload's own messages: mean time of one
/// `encode_client` of a request, mean time of one `decode_server` of a
/// reply, and the mean encoded reply size — `(encode_us, decode_us, bytes)`.
pub fn codec(requests: &[QueryRequest], replies: Vec<QueryResponse>) -> (f64, f64, f64) {
    const ROUNDS: usize = 20;
    let msgs: Vec<ClientMsg> = requests.iter().cloned().map(ClientMsg::Request).collect();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for msg in &msgs {
            black_box(encode_client(black_box(msg)));
        }
    }
    let encode_us = ms_since(t) * 1e3 / (ROUNDS * msgs.len().max(1)) as f64;
    for msg in &msgs {
        decode_client(&encode_client(msg)).expect("requests survive the wire");
    }

    let frames: Vec<Vec<u8>> = replies
        .into_iter()
        .map(|r| encode_server(&ServerMsg::Reply(Ok(r))))
        .collect();
    let n = frames.len().max(1);
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for frame in &frames {
            black_box(decode_server(black_box(frame)).expect("decode an encoded reply"));
        }
    }
    let decode_us = ms_since(t) * 1e3 / (ROUNDS * n) as f64;
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
    (encode_us, decode_us, bytes)
}
