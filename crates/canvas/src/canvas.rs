//! Canvas pixel conventions and the canvas layer.
//!
//! The discrete canvas stores, per pixel, a triple of 4-tuples — one tuple
//! `(v0, v1, v2, vb)` per primitive class (§4.1). Each tuple maps directly
//! onto the four color channels of an FBO texture, so each class is one
//! [`CanvasLayer`]. A fused select/join pass binds only the layer of the
//! class it needs, so the engine renders layers, never the full triple.
//!
//! Channel conventions used throughout this reproduction:
//!
//! | channel | name | meaning |
//! |---|---|---|
//! | 0 | `CH_ID`    | object identifier + 1 (0 = null pixel) |
//! | 1 | `CH_VAL`   | free payload (Map slots) |
//! | 2 | `CH_FLAG`  | [`FLAG_INTERIOR`] and/or [`FLAG_BOUNDARY`] bits |
//! | 3 | `CH_BOUND` | boundary-index entry + 1 (0 = no boundary data) |

use crate::boundary::BoundaryIndex;
use spade_gpu::{PixelValue, Texture};

/// Channel index of the object identifier (`v0`).
pub const CH_ID: usize = 0;
/// Channel index of the free payload value (`v1`).
pub const CH_VAL: usize = 1;
/// Channel index of the classification flags (`v2`).
pub const CH_FLAG: usize = 2;
/// Channel index of the boundary pointer (`vb`).
pub const CH_BOUND: usize = 3;

/// Flag bit: the pixel is certainly covered by the geometry.
pub const FLAG_INTERIOR: u32 = 1;
/// Flag bit: coverage is uncertain; resolve with the boundary index.
pub const FLAG_BOUNDARY: u32 = 2;

/// Classification of one canvas pixel with respect to a geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PixelClass {
    /// No geometry touches this pixel.
    Outside,
    /// The pixel is certainly covered (no exact test needed).
    Interior,
    /// The pixel is touched but coverage is uncertain: run the boundary test.
    Boundary,
}

/// Classify a raw pixel value.
pub fn classify(v: PixelValue) -> PixelClass {
    if v[CH_ID] == 0 {
        PixelClass::Outside
    } else if v[CH_FLAG] & FLAG_BOUNDARY != 0 {
        PixelClass::Boundary
    } else {
        PixelClass::Interior
    }
}

/// Pack canvas attributes into a pixel value.
pub fn pack(id: u32, val: u32, flags: u32, bound: u32) -> PixelValue {
    [id + 1, val, flags, bound]
}

/// Object id stored in a pixel, if any.
pub fn pixel_id(v: PixelValue) -> Option<u32> {
    v[CH_ID].checked_sub(1)
}

/// Boundary entry index stored in a pixel, if any.
pub fn pixel_bound(v: PixelValue) -> Option<u32> {
    v[CH_BOUND].checked_sub(1)
}

/// One primitive-class layer of a canvas: the texture plus the boundary
/// index its `vb` pointers reference.
#[derive(Debug, PartialEq)]
pub struct CanvasLayer {
    pub texture: Texture,
    pub boundary: BoundaryIndex,
}

impl CanvasLayer {
    pub fn new(width: u32, height: u32) -> Self {
        CanvasLayer {
            texture: Texture::new(width, height),
            boundary: BoundaryIndex::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_and_classify() {
        let interior = pack(7, 0, FLAG_INTERIOR, 0);
        assert_eq!(classify(interior), PixelClass::Interior);
        assert_eq!(pixel_id(interior), Some(7));
        assert_eq!(pixel_bound(interior), None);

        let boundary = pack(7, 0, FLAG_BOUNDARY, 12 + 1);
        assert_eq!(classify(boundary), PixelClass::Boundary);
        assert_eq!(pixel_bound(boundary), Some(12));

        assert_eq!(classify([0, 0, 0, 0]), PixelClass::Outside);
        assert_eq!(pixel_id([0, 0, 0, 0]), None);
    }

    #[test]
    fn boundary_flag_wins_over_interior() {
        // A pixel may carry both flags (interior pass then boundary pass):
        // uncertainty dominates.
        let both = pack(3, 0, FLAG_INTERIOR | FLAG_BOUNDARY, 1);
        assert_eq!(classify(both), PixelClass::Boundary);
    }
}
