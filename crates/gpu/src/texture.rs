//! Textures: the storage behind framebuffer objects.
//!
//! Each pixel carries four 32-bit values, mirroring the `[r, g, b, a]` color
//! channels of an FBO texture (§2.2, "Virtual Screen"). The discrete canvas
//! maps one `(v0, v1, v2, vb)` tuple onto these channels (§4.1), with `0`
//! reserved as the null value (identifiers are stored shifted by one).

/// The value of one pixel: four 32-bit channels.
pub type PixelValue = [u32; 4];

/// The null pixel: no geometry rendered here.
pub const NULL_PIXEL: PixelValue = [0; 4];

/// A 2-D texture of [`PixelValue`]s, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Texture {
    width: u32,
    height: u32,
    data: Vec<PixelValue>,
}

impl Texture {
    /// A texture cleared to [`NULL_PIXEL`].
    pub fn new(width: u32, height: u32) -> Self {
        Texture {
            width,
            height,
            data: vec![NULL_PIXEL; (width as usize) * (height as usize)],
        }
    }

    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Byte size of the backing store (what a device allocation would cost).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<PixelValue>()
    }

    /// Reset every pixel to [`NULL_PIXEL`].
    pub fn clear(&mut self) {
        self.data.fill(NULL_PIXEL);
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + (x as usize)
    }

    /// Read a pixel. Panics (debug) / wraps (release) out of bounds; use
    /// [`Texture::get_checked`] for fallible access.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> PixelValue {
        self.data[self.idx(x, y)]
    }

    /// Fallible pixel read.
    pub fn get_checked(&self, x: u32, y: u32) -> Option<PixelValue> {
        if x < self.width && y < self.height {
            Some(self.data[self.idx(x, y)])
        } else {
            None
        }
    }

    #[inline]
    pub fn put(&mut self, x: u32, y: u32, v: PixelValue) {
        let i = self.idx(x, y);
        self.data[i] = v;
    }

    /// Linear (flat index) write.
    #[inline]
    pub fn put_linear(&mut self, i: usize, v: PixelValue) {
        self.data[i] = v;
    }

    /// The raw pixel slice (row-major).
    pub fn pixels(&self) -> &[PixelValue] {
        &self.data
    }

    /// Count of non-null pixels.
    pub fn count_non_null(&self) -> usize {
        self.data.iter().filter(|p| **p != NULL_PIXEL).count()
    }

    /// Split the texture rows into disjoint horizontal bands for parallel
    /// blending. Returns mutable row-slices, one per band, each with its
    /// first row.
    pub fn band_slices(&mut self, bands: usize) -> Vec<(u32, &mut [PixelValue])> {
        let h = self.height as usize;
        let w = self.width as usize;
        let bands = bands.clamp(1, h.max(1));
        let rows_per_band = h.div_ceil(bands);
        let mut out = Vec::with_capacity(bands);
        let mut rest: &mut [PixelValue] = &mut self.data;
        let mut y0 = 0usize;
        while y0 < h {
            let rows = rows_per_band.min(h - y0);
            let (band, tail) = rest.split_at_mut(rows * w);
            out.push((y0 as u32, band));
            rest = tail;
            y0 += rows;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_texture_is_null() {
        let t = Texture::new(4, 3);
        assert_eq!(t.len(), 12);
        assert_eq!(t.count_non_null(), 0);
        assert_eq!(t.get(3, 2), NULL_PIXEL);
    }

    #[test]
    fn put_get_roundtrip() {
        let mut t = Texture::new(8, 8);
        t.put(5, 6, [1, 2, 3, 4]);
        assert_eq!(t.get(5, 6), [1, 2, 3, 4]);
        assert_eq!(t.count_non_null(), 1);
        t.clear();
        assert_eq!(t.count_non_null(), 0);
    }

    #[test]
    fn checked_access() {
        let t = Texture::new(2, 2);
        assert!(t.get_checked(1, 1).is_some());
        assert!(t.get_checked(2, 0).is_none());
        assert!(t.get_checked(0, 2).is_none());
    }

    #[test]
    fn linear_access_is_row_major() {
        let mut t = Texture::new(3, 2);
        t.put(2, 1, [9, 0, 0, 0]);
        assert_eq!(t.pixels()[5], [9, 0, 0, 0]);
        t.put_linear(0, [7, 0, 0, 0]);
        assert_eq!(t.get(0, 0), [7, 0, 0, 0]);
    }

    #[test]
    fn byte_size_accounts_all_channels() {
        let t = Texture::new(10, 10);
        assert_eq!(t.byte_size(), 100 * 16);
    }

    #[test]
    fn band_split_covers_all_rows() {
        let mut t = Texture::new(4, 10);
        let bands = t.band_slices(3);
        assert_eq!(bands.len(), 3);
        let total: usize = bands.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, 40);
        assert_eq!(bands[0].0, 0);
        assert_eq!(bands[1].0, 4);
        assert_eq!(bands[2].0, 8);
    }

    #[test]
    fn band_split_more_bands_than_rows() {
        let mut t = Texture::new(4, 2);
        let bands = t.band_slices(8);
        assert_eq!(bands.len(), 2);
    }
}
