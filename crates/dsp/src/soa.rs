//! Split (structure-of-arrays) complex buffers.
//!
//! `[Complex]` interleaves real and imaginary parts (`re, im, re, im, …`),
//! so a vector load of consecutive samples pulls both components into one
//! register and every arithmetic instruction wastes half its lanes on the
//! component it does not need. A [`SoaComplex`] stores all real parts in
//! one contiguous `Vec<f64>` and all imaginary parts in another, which is
//! the layout the batched PDP transform
//! ([`crate::pdp::DelayProfile::peak_powers_from_csi_rows_with`]) reads:
//! a batch of `lanes` same-length signals is packed *lane-major* —
//! sample `i` of lane `l` lives at flat index `i * lanes + l` — so the
//! values a butterfly touches in lockstep across the batch are contiguous
//! and the inner per-lane loops autovectorize.

use crate::Complex;

/// A split complex buffer: real parts and imaginary parts in separate
/// contiguous vectors.
///
/// The two vectors always have equal length. Besides plain element access
/// this type offers the *lane-major matrix* view used for batching: with
/// `lanes` interleaved signals, row `i` (one sample index across the whole
/// batch) occupies `re[i*lanes..(i+1)*lanes]` and the matching `im` range.
///
/// # Example
///
/// ```
/// use nomloc_dsp::{Complex, SoaComplex};
///
/// let mut soa = SoaComplex::new();
/// soa.reset(4); // 2 rows × 2 lanes of zeros
/// soa.write_lane(0, 2, &[Complex::new(1.0, 2.0), Complex::new(3.0, 4.0)]);
/// assert_eq!(soa.get(0), Complex::new(1.0, 2.0)); // row 0, lane 0
/// assert_eq!(soa.get(2), Complex::new(3.0, 4.0)); // row 1, lane 0
/// assert_eq!(soa.get(1), Complex::ZERO); // row 0, lane 1 untouched
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoaComplex {
    /// Real components.
    pub re: Vec<f64>,
    /// Imaginary components.
    pub im: Vec<f64>,
}

impl SoaComplex {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with room for `n` elements per component.
    pub fn with_capacity(n: usize) -> Self {
        SoaComplex {
            re: Vec::with_capacity(n),
            im: Vec::with_capacity(n),
        }
    }

    /// Number of complex elements.
    #[inline]
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.re.len(), self.im.len());
        self.re.len()
    }

    /// Returns `true` when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Clears and resizes both components to `len` zeros, keeping the
    /// allocated capacity — the reuse pattern of a per-thread scratch.
    pub fn reset(&mut self, len: usize) {
        self.re.clear();
        self.re.resize(len, 0.0);
        self.im.clear();
        self.im.resize(len, 0.0);
    }

    /// Element at flat index `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> Complex {
        Complex::new(self.re[idx], self.im[idx])
    }

    /// Overwrites the element at flat index `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    #[inline]
    pub fn set(&mut self, idx: usize, z: Complex) {
        self.re[idx] = z.re;
        self.im[idx] = z.im;
    }

    /// Appends one element.
    pub fn push(&mut self, z: Complex) {
        self.re.push(z.re);
        self.im.push(z.im);
    }

    /// Transposes an interleaved row into lane `lane` of the lane-major
    /// matrix view with `lanes` columns: sample `i` of `row` lands at flat
    /// index `i * lanes + lane`. Rows beyond `row.len()` keep their
    /// current contents (zeros after [`SoaComplex::reset`] — exactly the
    /// zero-padding the padded IFFT wants).
    ///
    /// # Panics
    ///
    /// Panics when `lane >= lanes` or the buffer is shorter than
    /// `row.len() * lanes`.
    pub fn write_lane(&mut self, lane: usize, lanes: usize, row: &[Complex]) {
        assert!(lane < lanes, "lane index out of range");
        assert!(
            row.len().saturating_mul(lanes) <= self.len(),
            "row does not fit the lane-major buffer"
        );
        for (i, z) in row.iter().enumerate() {
            let at = i * lanes + lane;
            self.re[at] = z.re;
            self.im[at] = z.im;
        }
    }

    /// Inverse of [`SoaComplex::write_lane`]: overwrites `out` with lane
    /// `lane` of the lane-major matrix view, one element per row.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= lanes` or the buffer length is not a multiple
    /// of `lanes`.
    pub fn read_lane_into(&self, lane: usize, lanes: usize, out: &mut Vec<Complex>) {
        assert!(lane < lanes, "lane index out of range");
        assert_eq!(
            self.len() % lanes,
            0,
            "buffer length must be a whole number of rows"
        );
        out.clear();
        let rows = self.len() / lanes;
        out.extend((0..rows).map(|i| self.get(i * lanes + lane)));
    }

    /// Builds a split copy of an interleaved slice.
    pub fn from_interleaved(samples: &[Complex]) -> Self {
        SoaComplex {
            re: samples.iter().map(|z| z.re).collect(),
            im: samples.iter().map(|z| z.im).collect(),
        }
    }

    /// Rebuilds the interleaved representation.
    pub fn to_interleaved(&self) -> Vec<Complex> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| Complex::new(re, im))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_round_trip() {
        let x: Vec<Complex> = (0..7)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let soa = SoaComplex::from_interleaved(&x);
        assert_eq!(soa.len(), 7);
        assert_eq!(soa.to_interleaved(), x);
    }

    #[test]
    fn lane_write_read_round_trip() {
        let lanes = 3;
        let rows = 4;
        let mut soa = SoaComplex::new();
        soa.reset(rows * lanes);
        let lanes_data: Vec<Vec<Complex>> = (0..lanes)
            .map(|l| {
                (0..rows)
                    .map(|i| Complex::new((l * 10 + i) as f64, -((l + i) as f64)))
                    .collect()
            })
            .collect();
        for (l, row) in lanes_data.iter().enumerate() {
            soa.write_lane(l, lanes, row);
        }
        let mut out = vec![Complex::ONE; 1]; // dirty
        for (l, row) in lanes_data.iter().enumerate() {
            soa.read_lane_into(l, lanes, &mut out);
            assert_eq!(&out, row, "lane {l}");
        }
    }

    #[test]
    fn short_rows_leave_padding_zero() {
        let mut soa = SoaComplex::new();
        soa.reset(8); // 4 rows × 2 lanes
        soa.write_lane(1, 2, &[Complex::new(5.0, 6.0)]);
        assert_eq!(soa.get(1), Complex::new(5.0, 6.0));
        for idx in [0, 2, 3, 4, 5, 6, 7] {
            assert_eq!(soa.get(idx), Complex::ZERO, "index {idx}");
        }
    }

    #[test]
    fn reset_zeroes_previous_contents() {
        let mut soa = SoaComplex::from_interleaved(&[Complex::ONE; 5]);
        soa.reset(3);
        assert_eq!(soa.len(), 3);
        assert!(soa.to_interleaved().iter().all(|z| *z == Complex::ZERO));
    }

    #[test]
    #[should_panic(expected = "lane index out of range")]
    fn lane_bounds_checked() {
        let mut soa = SoaComplex::new();
        soa.reset(4);
        soa.write_lane(2, 2, &[]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn row_overflow_rejected() {
        let mut soa = SoaComplex::new();
        soa.reset(4);
        soa.write_lane(0, 2, &[Complex::ZERO; 3]);
    }
}
