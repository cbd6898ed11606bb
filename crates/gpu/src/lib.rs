//! A software implementation of the computer graphics (shader) pipeline.
//!
//! SPADE implements its spatial algebra with the *graphics pipeline* — vertex
//! shaders, optional geometry shaders, clipping, rasterization, fragment
//! shaders and blending (§2.2) — so that it runs on any GPU. This crate is
//! the substitution this reproduction makes for OpenGL on physical GPU
//! hardware (see DESIGN.md): a from-scratch software pipeline with the same
//! stages and the same semantics, executed data-parallel on a worker pool:
//! assembly, the geometry stage and clipping by primitive chunk, a draw's
//! rasterization, shading and blending by row band of its target, each
//! band over the primitives binned to it in primitive order.
//!
//! The important properties carried over from the real pipeline:
//!
//! * **Stage structure** — draw calls run primitive assembly → geometry
//!   shader → clipping → rasterization → fragment shader → blend, the
//!   stages of §2.2 that SPADE's passes use; every SPADE operator is
//!   expressed as one or more passes. There is no vertex stage: data are
//!   projected into the query's coordinate system at load, so the paper's
//!   vertex transform is the viewport's world-to-pixel mapping.
//! * **Conservative rasterization** — §4.2 relies on the hardware feature
//!   that draws *every* pixel touched by a primitive; [`raster`] implements
//!   both the default (center-sample) and conservative rules.
//! * **Framebuffer objects** — rendering targets off-screen textures with
//!   four 32-bit channels per pixel `[r, g, b, a]`, the representation the
//!   discrete canvas maps its `(v0, v1, v2, vb)` tuples onto (§4.1).
//! * **Blending** — fixed-function blends (replace, keep-first, max and
//!   the distance canvases' classified blend) plus programmable blending in
//!   the fragment shader.
//! * **Parallel scan** — result extraction uses a prefix-scan compaction,
//!   standing in for the CUDA scan of Harris et al. that the paper cites.
//! * **Device memory accounting** — a configurable budget plus transfer
//!   byte/time accounting stands in for GPU memory and the PCIe bus, so the
//!   out-of-core machinery and the query optimizer's transfer-cost model
//!   behave as on real hardware.

pub mod arena;
pub mod blend;
pub mod device;
pub mod pipeline;
pub mod pool;
pub mod primitive;
pub mod raster;
pub mod record;
pub mod scan;
pub mod shader;
pub mod texture;
pub mod trace;
pub mod viewport;

pub use arena::{ArenaStats, PooledTexture, TexturePool};
pub use blend::BlendMode;
pub use device::DeviceMemory;
pub use pipeline::{DrawCall, Pipeline};
pub use pool::{PoolStats, WorkerPool};
pub use primitive::{Assemble, Primitive};
pub use record::FrameTotals;
pub use shader::{FnFragment, Fragment, FragmentShader, GeometryShader, WriteAttrs};
pub use texture::{PixelValue, Texture, NULL_PIXEL};
pub use viewport::Viewport;
