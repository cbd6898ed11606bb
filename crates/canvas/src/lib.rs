//! The discrete canvas model and the GPU-friendly spatial algebra.
//!
//! A *canvas* is a "drawing" of a geometric object whose pixels carry the
//! metadata needed for query execution (§2.1). The discrete canvas (§4.1)
//! extends the formal model with a fourth component `vb` per pixel — a
//! pointer into the [`boundary`] index — so that rasterization never
//! sacrifices accuracy: pixels are either *certainly inside* a geometry,
//! *certainly outside*, or *boundary pixels* whose membership is resolved by
//! a constant-time exact test against the indexed triangle/segment.
//!
//! Modules:
//!
//! * [`canvas`] — the pixel-format conventions and the
//!   [`canvas::CanvasLayer`] (one texture per primitive class).
//! * [`boundary`] — the boundary index (§4.3), including overflow lists for
//!   pixels crossed by several edges (a strengthening over the paper; see
//!   DESIGN.md).
//! * [`create`] — canvas creation through the shader pipeline (§4.2):
//!   polygons (two-pass interior+boundary).
//! * [`distance`] — distance-constraint canvases built with geometry
//!   shaders: circles around points, capsules around segments, buffers
//!   around polygons (§4.2).
//! * [`layer`] — the layer index (§4.3, §5.5): partitioning objects into
//!   non-intersecting layers with the two-pass blend/mask algorithm.
//! * [`algebra`] — the algebra operators (§5.1): the two Map
//!   implementations, with dissect fused into the 1-pass Map's scan. The
//!   other operators are fused into the passes that use them — geometric
//!   transform into the viewport's world-to-pixel mapping (data are
//!   projected at load), mask into a discarding fragment
//!   shader, (multiway) blend into the pass's `BlendMode` — see DESIGN.md
//!   §1.

pub mod algebra;
pub mod boundary;
pub mod canvas;
pub mod create;
pub mod distance;
pub mod layer;

pub use boundary::{BoundaryEntry, BoundaryGeom, BoundaryIndex};
pub use canvas::{PixelClass, CH_BOUND, CH_FLAG, CH_ID, CH_VAL, FLAG_BOUNDARY, FLAG_INTERIOR};
pub use layer::LayerIndex;
