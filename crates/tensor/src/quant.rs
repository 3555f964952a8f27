//! Affine int8 quantization modeling the Edge TPU data path.
//!
//! The early Edge TPU supports only INT8 arithmetic (paper §2.1). When the
//! SHMT runtime schedules an HLOP onto the Edge TPU it "perform\[s\] data type
//! casting through the desired quantization method before distributing the
//! input data" and restores the application precision on completion
//! (§3.3.2). [`QuantParams`] captures the affine mapping used for that
//! round-trip, and [`quantize_tensor`]/[`dequantize_tensor`] apply it.
//!
//! The quality loss SHMT's QAWS policy manages comes precisely from this
//! round-trip: partitions with wide value ranges lose more absolute
//! precision per int8 step, which is why criticality is defined over the
//! sampled range and standard deviation (§3.5).

use crate::Tensor;

/// Affine quantization parameters mapping `f32` values onto `i8` codes.
///
/// A real value `x` maps to `round(x / scale) + zero_point`, clamped to
/// `[-128, 127]`.
///
/// # Examples
///
/// ```
/// use shmt_tensor::quant::QuantParams;
///
/// let qp = QuantParams::from_range(-1.0, 1.0);
/// let code = qp.quantize(0.5);
/// let back = qp.dequantize(code);
/// assert!((back - 0.5).abs() <= qp.scale());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    lo: f32,
}

impl QuantParams {
    /// Derives parameters covering the closed interval `[lo, hi]`.
    ///
    /// Degenerate inputs are widened to a tiny symmetric interval so the
    /// mapping is always invertible: if `lo > hi` they are swapped, and if
    /// the interval has zero width it is inflated around its midpoint.
    pub fn from_range(lo: f32, hi: f32) -> Self {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let (lo, hi) = if (hi - lo).abs() < f32::EPSILON {
            (lo - 0.5, hi + 0.5)
        } else {
            (lo, hi)
        };
        // `lo` maps to code -128 and `hi` to 127. Anchoring the mapping at
        // `lo` (rather than at a zero point) keeps it exact for ranges far
        // from zero, where an integer zero point would overflow or lose
        // float precision.
        let scale = (hi - lo) / 255.0;
        QuantParams { scale, lo }
    }

    /// Derives parameters from the observed range of a tensor.
    pub fn from_tensor(t: &Tensor) -> Self {
        let (lo, hi) = t.min_max();
        Self::from_range(lo, hi)
    }

    /// Derives parameters from the observed range of a slice.
    ///
    /// NaN elements are ignored; an empty or all-NaN slice yields the unit
    /// interval `[0, 1]`.
    pub fn from_slice(values: &[f32]) -> Self {
        match crate::scan::min_max(std::iter::once(values)) {
            None => Self::from_range(0.0, 1.0),
            Some((lo, hi)) => Self::from_range(lo, hi),
        }
    }

    /// The real-value width of one int8 step.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The code that represents real zero. For ranges that do not include
    /// zero this lies outside the `i8` code space.
    pub fn zero_point(&self) -> i32 {
        (-self.lo / self.scale).round() as i32 - 128
    }

    /// Quantizes a single value.
    pub fn quantize(&self, x: f32) -> i8 {
        code_of(self.lo, self.scale, x)
    }

    /// Dequantizes a single code.
    pub fn dequantize(&self, code: i8) -> f32 {
        self.lo + (f32::from(code) + 128.0) * self.scale
    }

    /// Rounds a value to the nearest representable point of this grid:
    /// bit-identical to `dequantize(quantize(x))`.
    ///
    /// Because it has the semantics of a round trip through an `i8` code,
    /// it is not quite the arithmetic of [`QuantParams::snap_slice`]. A
    /// NaN becomes code 0 (the float-to-int cast saturates NaN to 0) and
    /// snaps to `lo + 128·scale`, the middle of the grid. A grid index of
    /// `-0.0` comes back as `+0.0`, which changes the sign of a zero
    /// result when `lo` is `-0.0`. [`QuantParams::snap_into`] is the bulk
    /// form with exactly these semantics.
    pub fn snap(&self, x: f32) -> f32 {
        snap_of(self.lo, self.scale, x)
    }

    /// Quantizes a contiguous slice into `dst` — the bulk form of the Edge
    /// TPU input cast, with the affine parameters hoisted out of the loop.
    ///
    /// Produces exactly the same codes as calling [`QuantParams::quantize`]
    /// per element.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn quantize_slice(&self, src: &[f32], dst: &mut [i8]) {
        assert_eq!(src.len(), dst.len(), "quantize_slice length mismatch");
        let (lo, scale) = (self.lo, self.scale);
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = code_of(lo, scale, x);
        }
    }

    /// Dequantizes a contiguous slice of codes into `dst` — the bulk form
    /// of restoring application precision after an Edge TPU HLOP.
    ///
    /// Produces exactly the same values as calling
    /// [`QuantParams::dequantize`] per element.
    ///
    /// # Panics
    ///
    /// Panics if `codes` and `dst` have different lengths.
    pub fn dequantize_slice(&self, codes: &[i8], dst: &mut [f32]) {
        assert_eq!(codes.len(), dst.len(), "dequantize_slice length mismatch");
        let (lo, scale) = (self.lo, self.scale);
        for (d, &code) in dst.iter_mut().zip(codes) {
            *d = lo + (f32::from(code) + 128.0) * scale;
        }
    }

    /// Snaps every element of a slice to this grid in place: the Edge TPU
    /// input cast, computed as `lo + round_code(y)·scale` for
    /// `y = (v − lo) / scale` without going through an `i8` code.
    ///
    /// This is *not* bit-identical to per-element [`QuantParams::snap`]
    /// calls. A NaN stays NaN here, where `snap` maps it to
    /// `lo + 128·scale`. A grid index of `-0.0` (from
    /// `y ∈ (−0.5, −0.0]`) keeps its sign here, so with `lo = −0.0` the
    /// result is `-0.0` where `snap` gives `+0.0`. Every other value
    /// agrees. Use [`QuantParams::snap_into`] for `snap`'s semantics.
    pub fn snap_slice(&self, values: &mut [f32]) {
        let (lo, scale) = (self.lo, self.scale);
        for v in values.iter_mut() {
            *v = lo + round_code((*v - lo) / scale) * scale;
        }
    }

    /// Snaps `src` to this grid into `dst`: the bulk form of
    /// [`QuantParams::snap`], bit-identical to calling it per element
    /// (NaN snaps to `lo + 128·scale`, a `-0.0` grid index to `+0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` have different lengths.
    pub fn snap_into(&self, src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "snap_into length mismatch");
        let (lo, scale) = (self.lo, self.scale);
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = snap_of(lo, scale, x);
        }
    }
}

/// The `i8` code of `x` on the grid `(lo, scale)`. A NaN index stays NaN
/// through `round_code`, and the saturating cast sends it to code 0.
#[inline(always)]
fn code_of(lo: f32, scale: f32, x: f32) -> i8 {
    (round_code((x - lo) / scale) - 128.0) as i8
}

/// `x` snapped to the grid `(lo, scale)` with the semantics of the `i8`
/// code round trip, but without the saturating cast, so slice loops over
/// it vectorize.
#[inline(always)]
fn snap_of(lo: f32, scale: f32, x: f32) -> f32 {
    let y = (x - lo) / scale;
    // NaN is code 0, grid index 128. `abs` turns a `-0.0` index into the
    // `+0.0` the code round trip produces; every other index is positive.
    let q = if y.is_nan() {
        128.0
    } else {
        round_code(y).abs()
    };
    lo + q * scale
}

/// `2^23`: adding it to an `f32` in `[0, 2^23)` and subtracting it again
/// rounds to the nearest integer, ties to even.
const ROUND_BIAS: f32 = 8_388_608.0;

/// The int8 grid index of `y`: rounded half away from zero, then clamped
/// to `[0, 255]`.
///
/// Bit-identical to `y.round().clamp(0.0, 255.0)` for every `y`: the
/// `-0.0` that order yields for `y ∈ (−0.5, −0.0]` is kept, and a NaN
/// comes back as the same NaN, quieted the way `roundf` quiets it. On
/// `[−0.0, 255]` the clamp is a no-op, so this is also `f32::round` there.
///
/// The arithmetic is float-only so that slice loops over it vectorize.
/// `f32::round` is a libm `roundf` call on the baseline x86-64 target, and
/// a saturating `as i32` cast is a scalar `cvttss2si`; either one keeps a
/// loop scalar. Instead the value is clamped first (`max` also sends NaN
/// to 0) and rounded with the `2^23` bias, which rounds ties to even; a
/// remainder of exactly one half is then bumped up, giving ties away from
/// zero. The subtraction `c − e` is exact because `e` is within one half
/// of `c`.
///
/// # Examples
///
/// ```
/// use shmt_tensor::quant::round_code;
///
/// assert_eq!(round_code(2.5), 3.0);
/// assert_eq!(round_code(3.5), 4.0);
/// assert_eq!(round_code(-7.0), 0.0);
/// assert_eq!(round_code(300.0), 255.0);
/// assert!(round_code(-0.25).is_sign_negative());
/// assert!(round_code(f32::NAN).is_nan());
/// ```
#[inline(always)]
pub fn round_code(y: f32) -> f32 {
    // Not `clamp`: that keeps a NaN, and `max` sending it to 0 is what
    // lets the rest of the arithmetic run branch-free on every lane.
    #[allow(clippy::manual_clamp)]
    let c = y.max(0.0).min(255.0);
    let e = (c + ROUND_BIAS) - ROUND_BIAS;
    let q = if c - e >= 0.5 { e + 1.0 } else { e };
    // Round-then-clamp kept the sign of `y` on (−0.5, −0.0]; above that
    // interval the index is positive and the sign copy is a no-op.
    if y > -0.5 {
        q.copysign(y)
    } else if y.is_nan() {
        y + y
    } else {
        q
    }
}

/// An owned 2-D array of int8 codes plus the parameters that produced it —
/// what an Edge TPU HLOP receives as its input buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    params: QuantParams,
}

impl QuantTensor {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization parameters in effect.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Borrows the raw codes in row-major order.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Byte size of the device buffer (1 byte per element).
    pub fn byte_len(&self) -> usize {
        self.codes.len()
    }
}

/// Quantizes a whole tensor with parameters derived from its own range.
///
/// # Examples
///
/// ```
/// use shmt_tensor::{quant, Tensor};
///
/// let t = Tensor::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
/// let q = quant::quantize_tensor(&t);
/// let back = quant::dequantize_tensor(&q);
/// for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
///     assert!((a - b).abs() <= q.params().scale());
/// }
/// ```
pub fn quantize_tensor(t: &Tensor) -> QuantTensor {
    quantize_tensor_with(t, QuantParams::from_tensor(t))
}

/// Quantizes a whole tensor with caller-chosen parameters.
pub fn quantize_tensor_with(t: &Tensor, params: QuantParams) -> QuantTensor {
    let mut codes = vec![0i8; t.len()];
    params.quantize_slice(t.as_slice(), &mut codes);
    QuantTensor {
        rows: t.rows(),
        cols: t.cols(),
        codes,
        params,
    }
}

/// Restores a quantized tensor to `f32` ("restoring the result to the data
/// precision that the application desires", §3.3.2).
pub fn dequantize_tensor(q: &QuantTensor) -> Tensor {
    let mut data = vec![0f32; q.codes.len()];
    q.params.dequantize_slice(&q.codes, &mut data);
    Tensor::from_vec(q.rows, q.cols, data).expect("quantized tensor has valid shape")
}

/// Snaps every element of a slice to the int8 grid derived from the slice's
/// own range — the one-line model of "send through the TPU input path".
pub fn snap_slice(values: &mut [f32]) {
    QuantParams::from_slice(values).snap_slice(values);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_is_bounded_by_scale() {
        let qp = QuantParams::from_range(-10.0, 30.0);
        for i in 0..=100 {
            let x = -10.0 + 40.0 * (i as f32) / 100.0;
            let err = (qp.snap(x) - x).abs();
            assert!(err <= qp.scale() * 0.5 + 1e-5, "x={x} err={err}");
        }
    }

    #[test]
    fn endpoints_map_to_extreme_codes() {
        let qp = QuantParams::from_range(0.0, 255.0);
        assert_eq!(qp.quantize(0.0), -128);
        assert_eq!(qp.quantize(255.0), 127);
    }

    #[test]
    fn narrow_range_far_from_zero_round_trips() {
        // Regression: an integer zero point would overflow for this range.
        let qp = QuantParams::from_range(100.2, 100.7);
        let x = 100.45f32;
        assert!((qp.snap(x) - x).abs() <= qp.scale(), "snap={}", qp.snap(x));
        assert!(qp.zero_point() < -30_000);
    }

    #[test]
    fn degenerate_range_is_widened() {
        let qp = QuantParams::from_range(5.0, 5.0);
        assert!(qp.scale() > 0.0);
        assert!((qp.snap(5.0) - 5.0).abs() <= qp.scale());
    }

    #[test]
    fn swapped_range_is_normalized() {
        let a = QuantParams::from_range(1.0, -1.0);
        let b = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn wider_range_means_coarser_grid() {
        let narrow = QuantParams::from_range(0.0, 1.0);
        let wide = QuantParams::from_range(0.0, 1000.0);
        assert!(wide.scale() > narrow.scale() * 500.0);
    }

    #[test]
    fn tensor_round_trip_preserves_shape() {
        let t = Tensor::from_fn(3, 5, |r, c| (r as f32) - (c as f32) * 0.25);
        let q = quantize_tensor(&t);
        assert_eq!(q.byte_len(), 15);
        let back = dequantize_tensor(&q);
        assert_eq!(back.shape(), t.shape());
    }

    #[test]
    fn from_slice_ignores_nan_and_handles_empty() {
        let qp = QuantParams::from_slice(&[f32::NAN, 1.0, 3.0]);
        assert!((qp.snap(2.0) - 2.0).abs() <= qp.scale());
        let empty = QuantParams::from_slice(&[]);
        assert!(empty.scale() > 0.0);
    }

    #[test]
    fn round_trip_far_from_zero() {
        // A one-unit range six orders of magnitude from the origin: the
        // lo-anchored mapping must keep the per-step error at `scale()`,
        // where a zero-point formulation would lose all precision.
        let qp = QuantParams::from_range(1e6, 1e6 + 1.0);
        for i in 0..=64 {
            let x = 1e6 + i as f32 / 64.0;
            let err = (qp.dequantize(qp.quantize(x)) - x).abs();
            assert!(err <= qp.scale(), "x={x} err={err} scale={}", qp.scale());
        }
    }

    #[test]
    fn round_trip_negative_only_range() {
        let qp = QuantParams::from_range(-40.0, -8.0);
        for i in 0..=100 {
            let x = -40.0 + 32.0 * (i as f32) / 100.0;
            let err = (qp.dequantize(qp.quantize(x)) - x).abs();
            assert!(err <= qp.scale(), "x={x} err={err}");
        }
    }

    #[test]
    fn from_slice_with_leading_nans_round_trips() {
        let values = [f32::NAN, f32::NAN, -2.5, 7.0, 0.25];
        let qp = QuantParams::from_slice(&values);
        for &x in values.iter().filter(|v| !v.is_nan()) {
            let err = (qp.dequantize(qp.quantize(x)) - x).abs();
            assert!(err <= qp.scale(), "x={x} err={err}");
        }
        // NaN itself saturates to code 0 (Rust float-to-int cast), not a
        // poisoned buffer.
        assert_eq!(qp.quantize(f32::NAN), 0);
    }

    #[test]
    fn bulk_slice_paths_match_per_element_calls() {
        let src: Vec<f32> = (0..257).map(|i| (i as f32) * 0.37 - 11.0).collect();
        let qp = QuantParams::from_slice(&src);

        let mut codes = vec![0i8; src.len()];
        qp.quantize_slice(&src, &mut codes);
        let per_elem: Vec<i8> = src.iter().map(|&v| qp.quantize(v)).collect();
        assert_eq!(codes, per_elem);

        let mut back = vec![0f32; codes.len()];
        qp.dequantize_slice(&codes, &mut back);
        let back_per_elem: Vec<f32> = codes.iter().map(|&c| qp.dequantize(c)).collect();
        assert_eq!(back, back_per_elem);

        let mut snapped = src.clone();
        qp.snap_slice(&mut snapped);
        let snap_per_elem: Vec<f32> = src.iter().map(|&v| qp.snap(v)).collect();
        assert_eq!(snapped, snap_per_elem);
    }

    /// The pre-vectorization per-element formulas, kept verbatim as the
    /// references the float-only rounding must match bit for bit.
    fn snap_slice_reference(qp: &QuantParams, values: &mut [f32]) {
        let (lo, scale) = (qp.lo, qp.scale);
        for v in values.iter_mut() {
            let q = ((*v - lo) / scale).round().clamp(0.0, 255.0);
            *v = lo + q * scale;
        }
    }

    fn quantize_reference(qp: &QuantParams, x: f32) -> i8 {
        let q = ((x - qp.lo) / qp.scale).round().clamp(0.0, 255.0);
        (q - 128.0) as i8
    }

    fn snap_reference(qp: &QuantParams, x: f32) -> f32 {
        let code = quantize_reference(qp, x);
        qp.lo + (f32::from(code) + 128.0) * qp.scale
    }

    /// Grids covering `lo = ±0.0`, a negative-only range, ranges far from
    /// zero, a sub-unit one, one whose scale overflows to infinity, and
    /// one whose scale is subnormal.
    fn sweep_grids() -> Vec<QuantParams> {
        vec![
            QuantParams::from_range(0.0, 255.0),
            QuantParams::from_range(-0.0, 1.0),
            QuantParams::from_range(-0.0, 300.0),
            QuantParams::from_range(-40.0, -8.0),
            QuantParams::from_range(-10.0, 30.0),
            QuantParams::from_range(1e6, 1e6 + 1.0),
            QuantParams::from_range(-1e-3, 2e-3),
            QuantParams::from_range(-f32::MAX, f32::MAX),
            QuantParams {
                scale: 1e-40,
                lo: -0.0,
            },
        ]
    }

    /// A strided sweep over all 2^32 bit patterns (NaNs, infinities and
    /// subnormals included) plus hand-picked edge values.
    fn sweep_values() -> Vec<f32> {
        let mut values: Vec<f32> = (0..=u32::MAX).step_by(4093).map(f32::from_bits).collect();
        values.extend([
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signaling NaN
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x8000_0001),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ]);
        values
    }

    /// Grid-index positions `k + 0.5` and their neighbours one ulp away,
    /// mapped back to input values for `qp`, plus the same offsets around
    /// `-0.5` and `255.5` where the clamp and the sign restore meet.
    fn halfway_values(qp: &QuantParams) -> Vec<f32> {
        let mut values = Vec::new();
        for k in -2..=257 {
            let half = k as f32 + 0.5;
            for y in [
                half,
                f32::from_bits(half.to_bits() + 1),
                f32::from_bits(half.to_bits() - 1),
            ] {
                values.push(y);
                values.push(qp.lo + y * qp.scale);
            }
        }
        values.extend([-0.5f32, -0.499_999_97, -1e-30, -0.0, 0.499_999_97]);
        values
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn round_code_matches_round_then_clamp_bit_for_bit() {
        let mut values = sweep_values();
        for qp in sweep_grids() {
            values.extend(halfway_values(&qp));
        }
        for y in values {
            let want = y.round().clamp(0.0, 255.0);
            assert_eq!(round_code(y).to_bits(), want.to_bits(), "y = {y:e}");
        }
    }

    #[test]
    fn snap_slice_and_snap_into_match_old_formulas_bit_for_bit() {
        let values = sweep_values();
        for qp in sweep_grids() {
            let mut values = values.clone();
            values.extend(halfway_values(&qp));

            let mut bulk = values.clone();
            qp.snap_slice(&mut bulk);
            let mut reference = values.clone();
            snap_slice_reference(&qp, &mut reference);
            assert_eq!(bits_of(&bulk), bits_of(&reference), "snap_slice {qp:?}");

            let mut into = vec![0.0; values.len()];
            qp.snap_into(&values, &mut into);
            let per_elem: Vec<f32> = values.iter().map(|&x| snap_reference(&qp, x)).collect();
            assert_eq!(bits_of(&into), bits_of(&per_elem), "snap_into {qp:?}");
            let current: Vec<f32> = values.iter().map(|&x| qp.snap(x)).collect();
            assert_eq!(bits_of(&current), bits_of(&per_elem), "snap {qp:?}");
            let round_trip: Vec<f32> = values
                .iter()
                .map(|&x| qp.dequantize(qp.quantize(x)))
                .collect();
            assert_eq!(
                bits_of(&round_trip),
                bits_of(&per_elem),
                "round trip {qp:?}"
            );
        }
    }

    #[test]
    fn quantize_and_quantize_slice_match_old_formula() {
        let values = sweep_values();
        for qp in sweep_grids() {
            let mut values = values.clone();
            values.extend(halfway_values(&qp));
            let want: Vec<i8> = values.iter().map(|&x| quantize_reference(&qp, x)).collect();
            let per_elem: Vec<i8> = values.iter().map(|&x| qp.quantize(x)).collect();
            assert_eq!(per_elem, want, "quantize {qp:?}");
            let mut bulk = vec![0i8; values.len()];
            qp.quantize_slice(&values, &mut bulk);
            assert_eq!(bulk, want, "quantize_slice {qp:?}");
        }
    }

    #[test]
    fn native_round_matches_f32_round_on_its_domain() {
        // The native-u8 input path rounds elements whose non-NaN range
        // lies in [0, 255]: `round_code` there must equal `f32::round`,
        // including on -0.0, NaN and at every halfway point.
        let mut values = sweep_values();
        for k in 0..=255 {
            let half = k as f32 + 0.5;
            values.extend([
                half,
                f32::from_bits(half.to_bits() + 1),
                f32::from_bits(half.to_bits() - 1),
                k as f32,
            ]);
        }
        values.retain(|v| v.is_nan() || (-0.0..=255.0).contains(v));
        for v in values {
            assert_eq!(round_code(v).to_bits(), v.round().to_bits(), "v = {v:e}");
        }
    }

    #[test]
    fn snap_and_snap_slice_differ_only_on_nan_and_signed_zero() {
        // Pinned semantics of the two paths; neither may change, since
        // each one's bits are published output.
        let qp = QuantParams::from_range(-2.0, 2.0);
        let mid = -2.0 + 128.0 * qp.scale();
        assert_eq!(qp.snap(f32::NAN), mid);
        let mut v = [f32::NAN];
        qp.snap_slice(&mut v);
        assert!(v[0].is_nan());
        let mut into = [0.0];
        qp.snap_into(&[f32::NAN], &mut into);
        assert_eq!(into[0], mid);

        // With lo = -0.0, an input just below lo is grid index -0.0:
        // snap_slice keeps the sign, snap (and snap_into) give +0.0.
        let qp = QuantParams::from_range(-0.0, 1.0);
        for x in [-1e-30f32, -1e-6] {
            assert_eq!(qp.snap(x).to_bits(), 0.0f32.to_bits(), "snap {x}");
            let mut v = [x];
            qp.snap_slice(&mut v);
            assert_eq!(v[0].to_bits(), (-0.0f32).to_bits(), "snap_slice {x}");
            let mut into = [1.0];
            qp.snap_into(&[x], &mut into);
            assert_eq!(into[0].to_bits(), 0.0f32.to_bits(), "snap_into {x}");
        }
        // `-0.0 - -0.0` is `+0.0`, so lo itself is index +0.0 on both
        // paths; with lo = +0.0 the index sign cannot reach the result.
        for lo in [-0.0f32, 0.0] {
            let qp = QuantParams::from_range(lo, 1.0);
            let mut v = [lo, -1e-6];
            qp.snap_slice(&mut v);
            let want = if lo.is_sign_negative() {
                [0.0, -0.0]
            } else {
                [0.0, 0.0]
            };
            assert_eq!(bits_of(&v), bits_of(&want), "lo = {lo:?}");
        }
    }

    #[test]
    fn snap_slice_is_idempotent() {
        let mut v = vec![0.1, 0.5, 0.9, -0.3];
        snap_slice(&mut v);
        let first = v.clone();
        snap_slice(&mut v);
        for (a, b) in first.iter().zip(&v) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
