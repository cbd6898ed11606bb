//! Programmable shader stages.
//!
//! The two customizable stages of the pipeline (§2.2) that SPADE's passes
//! use (data are projected at load, so no pass transforms its vertices):
//!
//! * [`GeometryShader`] — optional primitive expansion: SPADE uses it to
//!   turn distance constraints into squares and capsules (§4.2);
//! * [`FragmentShader`] — per-fragment logic: canvas writes, mask tests,
//!   programmable blending, fragment discard (§5.1).

use crate::primitive::Primitive;
use crate::texture::PixelValue;
use spade_geometry::Point;

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

/// The optional primitive-expansion stage.
pub trait GeometryShader: Sync {
    /// Emit zero or more primitives for one input primitive.
    fn expand(&self, prim: &Primitive, out: &mut Vec<Primitive>);
}

/// The per-fragment stage. Returning `None` discards the fragment.
pub trait FragmentShader: Sync {
    fn shade(&self, frag: &Fragment) -> Option<PixelValue>;

    /// `true` when this shader writes `frag.attrs` verbatim for every
    /// fragment. Lets a default-rule draw run band-direct — the rasterizer
    /// already knows the value every covered pixel will carry, so each
    /// triangle row's run is blended as one slice without invoking the
    /// shader per pixel — and lets the counting pass count coverage
    /// directly.
    fn writes_attrs(&self) -> bool {
        false
    }
}

/// A fragment shader that writes the primitive attributes unchanged — the
/// canvas-creation shader (object id into the texture, §4.2).
pub struct WriteAttrs;

impl FragmentShader for WriteAttrs {
    fn shade(&self, frag: &Fragment) -> Option<PixelValue> {
        Some(frag.attrs)
    }

    fn writes_attrs(&self) -> bool {
        true
    }
}

/// A fragment shader wrapping a closure.
pub struct FnFragment<F>(pub F)
where
    F: Fn(&Fragment) -> Option<PixelValue> + Sync;

impl<F> FragmentShader for FnFragment<F>
where
    F: Fn(&Fragment) -> Option<PixelValue> + Sync,
{
    fn shade(&self, frag: &Fragment) -> Option<PixelValue> {
        (self.0)(frag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_attrs_fragment() {
        let frag = Fragment {
            x: 1,
            y: 2,
            world: Point::ZERO,
            attrs: [9, 8, 7, 6],
        };
        assert_eq!(WriteAttrs.shade(&frag), Some([9, 8, 7, 6]));
    }

    #[test]
    fn fn_fragment_discard() {
        let sh = FnFragment(|frag: &Fragment| {
            if frag.attrs[0] > 5 {
                Some(frag.attrs)
            } else {
                None
            }
        });
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
        assert!(sh.shade(&keep).is_some());
        assert!(sh.shade(&drop).is_none());
    }
}
