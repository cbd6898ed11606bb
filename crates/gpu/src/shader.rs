//! Programmable shader stages.
//!
//! The three customizable stages of the pipeline (§2.2):
//!
//! * [`VertexShader`] — per-vertex transform into the query's screen space,
//!   plus coordinate-system projections (§4.2, §5.1 "Geometric Transform");
//! * [`GeometryShader`] — optional primitive expansion: SPADE uses it to
//!   turn rectangles into triangle pairs and distance constraints into
//!   circles/rounded rectangles (§4.2);
//! * [`FragmentShader`] — per-fragment logic: canvas writes, mask tests,
//!   programmable blending, fragment discard (§5.1).
//!
//! Shaders read *uniforms* and *bound textures* through a [`ShaderContext`],
//! mirroring GL's read-only texture units (the paper stores constraint
//! canvases in texture memory for fast read access, §5.1 "Mask"). An atomic
//! counter is exposed for the counting pass of the 2-pass Map operator.

use crate::primitive::{Primitive, Vertex};
use crate::texture::{PixelValue, Texture};
use spade_geometry::Point;
use std::sync::atomic::{AtomicU32, Ordering};

/// A fragment handed to the fragment shader: the pixel being shaded, the
/// world position of its center, and the primitive's flat attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fragment {
    pub x: u32,
    pub y: u32,
    /// World-space center of the pixel.
    pub world: Point,
    /// Flat (per-primitive) attributes, e.g. object id / boundary pointer.
    pub attrs: [u32; 4],
}

/// Read-only resources visible to shaders during a draw call.
pub struct ShaderContext<'a> {
    /// Bound textures ("texture units"). Index 0 is conventionally the
    /// constraint canvas in SPADE's passes.
    pub textures: &'a [&'a Texture],
    /// Float uniforms (query parameters such as distances).
    pub uniforms_f: &'a [f64],
    /// Integer uniforms (identifiers, counts).
    pub uniforms_u: &'a [u32],
    /// Atomic counter buffer, used by the simulated Map counting pass.
    pub counter: &'a AtomicU32,
}

impl<'a> ShaderContext<'a> {
    /// Sample texture `unit` at `(x, y)`, returning `None` outside bounds.
    pub fn tex(&self, unit: usize, x: u32, y: u32) -> Option<PixelValue> {
        self.textures.get(unit).and_then(|t| t.get_checked(x, y))
    }

    /// Increment the atomic counter, returning the previous value.
    pub fn count(&self) -> u32 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }
}

/// The per-vertex stage. Must be `Sync`: vertices are shaded in parallel.
pub trait VertexShader: Sync {
    fn shade(&self, v: Vertex) -> Vertex;
}

/// The optional primitive-expansion stage.
pub trait GeometryShader: Sync {
    /// Emit zero or more primitives for one input primitive.
    fn expand(&self, prim: &Primitive, out: &mut Vec<Primitive>);
}

/// The per-fragment stage. Returning `None` discards the fragment.
pub trait FragmentShader: Sync {
    fn shade(&self, frag: &Fragment, ctx: &ShaderContext<'_>) -> Option<PixelValue>;

    /// `true` when this shader emits for *every* fragment without reading
    /// the context (no discard, no counter, no texture sampling). Lets the
    /// counting pass of the 2-pass Map operator count coverage directly
    /// instead of invoking the shader per pixel.
    fn always_emits(&self) -> bool {
        false
    }

    /// `true` when this shader writes `frag.attrs` verbatim for every
    /// fragment (which implies [`always_emits`]). Lets the pipeline push
    /// whole batched coverage blocks into the SoA fragment buffers without
    /// invoking the shader per pixel — the rasterizer already knows the
    /// value every covered pixel will carry.
    ///
    /// [`always_emits`]: FragmentShader::always_emits
    fn writes_attrs(&self) -> bool {
        false
    }
}

/// The identity vertex shader (positions already in screen space).
pub struct IdentityVertex;

impl VertexShader for IdentityVertex {
    fn shade(&self, v: Vertex) -> Vertex {
        v
    }
}

/// A vertex shader applying an affine transform `p * scale + offset`, the
/// form of the paper's model-view transform to `[-1, 1]²` space.
pub struct AffineVertex {
    pub scale: Point,
    pub offset: Point,
}

impl VertexShader for AffineVertex {
    fn shade(&self, v: Vertex) -> Vertex {
        Vertex {
            pos: Point::new(
                v.pos.x * self.scale.x + self.offset.x,
                v.pos.y * self.scale.y + self.offset.y,
            ),
            attrs: v.attrs,
        }
    }
}

/// A vertex shader applying an arbitrary function (projection changes such
/// as EPSG:4326 → EPSG:3857 are expressed this way).
pub struct FnVertex<F: Fn(Point) -> Point + Sync>(pub F);

impl<F: Fn(Point) -> Point + Sync> VertexShader for FnVertex<F> {
    fn shade(&self, v: Vertex) -> Vertex {
        Vertex {
            pos: (self.0)(v.pos),
            attrs: v.attrs,
        }
    }
}

/// A fragment shader that writes the primitive attributes unchanged — the
/// canvas-creation shader (object id into the texture, §4.2).
pub struct WriteAttrs;

impl FragmentShader for WriteAttrs {
    fn shade(&self, frag: &Fragment, _ctx: &ShaderContext<'_>) -> Option<PixelValue> {
        Some(frag.attrs)
    }

    fn always_emits(&self) -> bool {
        true
    }

    fn writes_attrs(&self) -> bool {
        true
    }
}

/// A fragment shader wrapping a closure.
pub struct FnFragment<F>(pub F)
where
    F: Fn(&Fragment, &ShaderContext<'_>) -> Option<PixelValue> + Sync;

impl<F> FragmentShader for FnFragment<F>
where
    F: Fn(&Fragment, &ShaderContext<'_>) -> Option<PixelValue> + Sync,
{
    fn shade(&self, frag: &Fragment, ctx: &ShaderContext<'_>) -> Option<PixelValue> {
        (self.0)(frag, ctx)
    }
}

/// The pass-through geometry shader (no expansion).
pub struct NoGeometry;

impl GeometryShader for NoGeometry {
    fn expand(&self, prim: &Primitive, out: &mut Vec<Primitive>) {
        out.push(*prim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_vertex_passthrough() {
        let v = Vertex::new(Point::new(1.0, 2.0), [7, 0, 0, 0]);
        assert_eq!(IdentityVertex.shade(v), v);
    }

    #[test]
    fn affine_vertex_transform() {
        let sh = AffineVertex {
            scale: Point::new(2.0, 3.0),
            offset: Point::new(1.0, -1.0),
        };
        let v = sh.shade(Vertex::new(Point::new(1.0, 1.0), [7, 0, 0, 0]));
        assert_eq!(v.pos, Point::new(3.0, 2.0));
        assert_eq!(v.attrs[0], 7);
    }

    #[test]
    fn fn_vertex_projection() {
        let sh = FnVertex(|p: Point| Point::new(p.x * 10.0, p.y));
        assert_eq!(
            sh.shade(Vertex::new(Point::new(2.0, 5.0), [0, 0, 0, 0]))
                .pos
                .x,
            20.0
        );
    }

    #[test]
    fn write_attrs_fragment() {
        let counter = AtomicU32::new(0);
        let ctx = ShaderContext {
            textures: &[],
            uniforms_f: &[],
            uniforms_u: &[],
            counter: &counter,
        };
        let frag = Fragment {
            x: 1,
            y: 2,
            world: Point::ZERO,
            attrs: [9, 8, 7, 6],
        };
        assert_eq!(WriteAttrs.shade(&frag, &ctx), Some([9, 8, 7, 6]));
    }

    #[test]
    fn context_texture_sampling_and_counter() {
        let mut t = Texture::new(2, 2);
        t.put(1, 1, [5, 0, 0, 0]);
        let counter = AtomicU32::new(0);
        let binding = [&t];
        let ctx = ShaderContext {
            textures: &binding,
            uniforms_f: &[1.5],
            uniforms_u: &[42],
            counter: &counter,
        };
        assert_eq!(ctx.tex(0, 1, 1), Some([5, 0, 0, 0]));
        assert_eq!(ctx.tex(0, 5, 5), None);
        assert_eq!(ctx.tex(3, 0, 0), None);
        assert_eq!(ctx.count(), 0);
        assert_eq!(ctx.count(), 1);
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn no_geometry_passthrough() {
        let p = Primitive::point(Point::ZERO, [0; 4]);
        let mut out = Vec::new();
        NoGeometry.expand(&p, &mut out);
        assert_eq!(out, vec![p]);
    }

    #[test]
    fn fn_fragment_discard() {
        let sh = FnFragment(|frag: &Fragment, _ctx: &ShaderContext<'_>| {
            if frag.attrs[0] > 5 {
                Some(frag.attrs)
            } else {
                None
            }
        });
        let counter = AtomicU32::new(0);
        let ctx = ShaderContext {
            textures: &[],
            uniforms_f: &[],
            uniforms_u: &[],
            counter: &counter,
        };
        let keep = Fragment {
            x: 0,
            y: 0,
            world: Point::ZERO,
            attrs: [6, 0, 0, 0],
        };
        let drop = Fragment {
            attrs: [3, 0, 0, 0],
            ..keep
        };
        assert!(sh.shade(&keep, &ctx).is_some());
        assert!(sh.shade(&drop, &ctx).is_none());
    }
}
