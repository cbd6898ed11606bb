//! Structure-of-arrays fragment buffers.
//!
//! The two-phase draw — shaded passes, whose fragment shader may discard or
//! compute a value, and conservative passes — rasterizes each chunk of the
//! primitive stream into one buffer per target band, then blends each band
//! from its buffers in chunk (= primitive) order. The SoA layout here —
//! separate `x`, `y` and `value` arrays, every entry a live fragment — is
//! what the batched blend kernel ([`crate::blend::BlendMode::blend_soa`])
//! iterates with the mode dispatch hoisted out of the loop. A default-rule
//! canvas-creation draw stages nothing: it blends each triangle's row runs
//! into its band directly (see [`crate::pipeline`]).

use crate::texture::PixelValue;

/// SoA fragment staging buffer for one (chunk, band) pair.
#[derive(Default)]
pub struct FragmentBuffer {
    /// Pixel column per fragment.
    pub xs: Vec<u32>,
    /// Pixel row per fragment.
    pub ys: Vec<u32>,
    /// Value to blend per fragment.
    pub vals: Vec<PixelValue>,
}

impl FragmentBuffer {
    pub fn new() -> FragmentBuffer {
        FragmentBuffer::default()
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Append one fragment.
    #[inline]
    pub fn push(&mut self, x: u32, y: u32, v: PixelValue) {
        self.xs.push(x);
        self.ys.push(y);
        self.vals.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_appends_in_order() {
        let mut fb = FragmentBuffer::new();
        assert!(fb.is_empty());
        fb.push(3, 4, [9, 0, 0, 0]);
        fb.push(10, 7, [1, 2, 3, 4]);
        assert_eq!(fb.len(), 2);
        assert_eq!(fb.xs, vec![3, 10]);
        assert_eq!(fb.ys, vec![4, 7]);
        assert_eq!(fb.vals, vec![[9, 0, 0, 0], [1, 2, 3, 4]]);
    }
}
