//! The programmable fragment stage.
//!
//! The one customizable stage of the pipeline (§2.2) that SPADE's passes
//! use (data are projected at load, so no pass transforms its vertices, and
//! a source a canvas expands — a distance constraint's square or capsule,
//! §4.2 — is built as triangles before its draw):
//!
//! * [`FragmentShader`] — per-fragment logic: canvas writes, mask tests,
//!   programmable blending, fragment discard (§5.1). A draw hands it a
//!   primitive's covered row runs at once ([`FragmentShader::shade_runs`]),
//!   so a shader that knows its value along a run classifies the run
//!   instead of its pixels.

use crate::texture::PixelValue;

/// A fragment handed to the fragment shader: the pixel being shaded and
/// the primitive's flat attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fragment {
    pub x: u32,
    pub y: u32,
    /// Flat (per-primitive) attributes, e.g. object id / boundary pointer.
    pub attrs: [u32; 4],
}

/// A covered run of one row: `(y, x0, x1)`, the pixels `x0..=x1` of row `y`.
pub type Run = (u32, u32, u32);

/// The fragment stage. Returning `None` from [`shade`] discards the
/// fragment.
///
/// [`shade`]: FragmentShader::shade
pub trait FragmentShader: Sync {
    fn shade(&self, frag: &Fragment) -> Option<PixelValue>;

    /// Shade `runs`, the covered row runs of one primitive carrying `attrs`,
    /// appending to `out` each sub-run that keeps a value, with that value:
    /// every pixel at most once, every pixel of a sub-run taking the value
    /// `shade` gives it. The provided form shades pixel by pixel
    /// ([`shade_pixels`]); a shader that can find where its value changes
    /// along a row overrides it to shade only there. One call per primitive,
    /// not per row: a draw of many small triangles pays one dynamic call for
    /// each, and the blending stays in the caller.
    fn shade_runs(&self, attrs: [u32; 4], runs: &[Run], out: &mut Vec<(Run, PixelValue)>) {
        for &run in runs {
            shade_pixels(self, attrs, run, out);
        }
    }
}

/// The provided [`FragmentShader::shade_runs`] of one run: every pixel of
/// it shaded, each stretch of equal kept values appended as one sub-run. An
/// override with no run form for some primitive hands its runs here.
pub fn shade_pixels<S: FragmentShader + ?Sized>(
    shader: &S,
    attrs: [u32; 4],
    (y, x0, x1): Run,
    out: &mut Vec<(Run, PixelValue)>,
) {
    // The stretch being gathered: its first column and its value.
    let mut open: Option<(u32, PixelValue)> = None;
    for x in x0..=x1 {
        let v = shader.shade(&Fragment { x, y, attrs });
        if open.map(|(_, w)| w) != v {
            if let Some((start, w)) = open {
                out.push(((y, start, x - 1), w));
            }
            open = v.map(|v| (x, v));
        }
    }
    if let Some((start, w)) = open {
        out.push(((y, start, x1), w));
    }
}

/// A fragment shader that writes the primitive attributes unchanged — the
/// canvas-creation shader (object id into the texture, §4.2). A run is one
/// value, so it is kept whole.
pub struct WriteAttrs;

impl FragmentShader for WriteAttrs {
    fn shade(&self, frag: &Fragment) -> Option<PixelValue> {
        Some(frag.attrs)
    }

    fn shade_runs(&self, attrs: [u32; 4], runs: &[Run], out: &mut Vec<(Run, PixelValue)>) {
        out.extend(runs.iter().map(|&run| (run, attrs)));
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

    /// The sub-runs a shader keeps of runs on row 0.
    fn runs(sh: &dyn FragmentShader, runs: &[(u32, u32)], attrs: [u32; 4]) -> Vec<(u32, u32)> {
        let runs: Vec<Run> = runs.iter().map(|&(x0, x1)| (0, x0, x1)).collect();
        let mut out = Vec::new();
        sh.shade_runs(attrs, &runs, &mut out);
        out.iter().map(|&((_, x0, x1), _)| (x0, x1)).collect()
    }

    #[test]
    fn write_attrs_fragment() {
        let frag = Fragment {
            x: 1,
            y: 2,
            attrs: [9, 8, 7, 6],
        };
        assert_eq!(WriteAttrs.shade(&frag), Some([9, 8, 7, 6]));
        assert_eq!(
            runs(&WriteAttrs, &[(3, 9), (12, 12)], [9, 8, 7, 6]),
            [(3, 9), (12, 12)]
        );
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
            attrs: [6, 0, 0, 0],
        };
        let drop = Fragment {
            attrs: [3, 0, 0, 0],
            ..keep
        };
        assert!(sh.shade(&keep).is_some());
        assert!(sh.shade(&drop).is_none());
        // The provided run form: each stretch of equal kept values once.
        assert_eq!(runs(&sh, &[(2, 4)], keep.attrs), [(2, 4)]);
        assert!(runs(&sh, &[(2, 4)], drop.attrs).is_empty());
        let stripes = FnFragment(|f: &Fragment| (f.x % 5 != 2).then_some([f.x / 5, 0, 0, 0]));
        assert_eq!(
            runs(&stripes, &[(1, 13)], [0; 4]),
            [(1, 1), (3, 4), (5, 6), (8, 9), (10, 11), (13, 13)]
        );
    }
}
