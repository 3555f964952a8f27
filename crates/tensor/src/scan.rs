//! The NaN-ignoring range scan behind every `min_max` in the crate.
//!
//! A fold like `(lo.min(v), hi.max(v))` carries one running minimum
//! through the whole slice. LLVM will not vectorize that loop-carried
//! floating-point reduction without fast-math flags, so it runs one scalar
//! compare per element. This scan keeps [`LANES`] independent running
//! minima and maxima instead, which the SLP vectorizer packs into
//! `minps`/`maxps`, and folds the lanes once at the end.

/// Independent accumulator lanes: two SSE vectors or one AVX vector.
const LANES: usize = 8;

/// Minimum and maximum of the non-NaN elements of `rows`, scanned in
/// order; `None` when there is no such element.
///
/// The result is bit-identical to the sequential fold
/// `(first, first)` → `(lo.min(v), hi.max(v))` over the NaN-filtered
/// elements. `f32::min` and `f32::max` return the non-NaN operand, so a
/// NaN element never enters a lane, and the values are exact whatever the
/// lane split. Only the sign of a zero result could differ, because
/// `+0.0` and `-0.0` compare equal and a lane may keep either one. The
/// sequential fold keeps the first element equal to its minimum (or
/// maximum), so a zero result is replaced by the first zero element in
/// scan order. That costs a second, early-exiting pass only when the
/// minimum or maximum is zero.
pub(crate) fn min_max<'a, I>(rows: I) -> Option<(f32, f32)>
where
    I: Iterator<Item = &'a [f32]> + Clone,
{
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    for row in rows.clone() {
        let chunks = row.chunks_exact(LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(chunk) {
                *l = v.min(*l);
                *h = v.max(*h);
            }
        }
        for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(tail) {
            *l = v.min(*l);
            *h = v.max(*h);
        }
    }
    let mut min = lo.iter().fold(f32::INFINITY, |m, &l| m.min(l));
    let mut max = hi.iter().fold(f32::NEG_INFINITY, |m, &h| m.max(h));
    if min > max {
        // The accumulators never moved: every element was NaN.
        return None;
    }
    if min == 0.0 || max == 0.0 {
        let first_zero = rows
            .flat_map(|row| row.iter().copied())
            .find(|&v| v == 0.0)
            .unwrap_or(0.0);
        if min == 0.0 {
            min = first_zero;
        }
        if max == 0.0 {
            max = first_zero;
        }
    }
    Some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-vectorization folds of `Tensor::min_max` and
    /// `TensorView::to_tensor_with_min_max`, kept verbatim (the first
    /// reports the all-NaN case as `None` here) as the references the
    /// lane-wise scan must match bit for bit.
    fn fold_reference(values: &[f32]) -> Option<(f32, f32)> {
        let mut it = values.iter().copied().filter(|v| !v.is_nan());
        let folded = it
            .next()
            .map(|first| it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))));
        let mut range: Option<(f32, f32)> = None;
        for v in values.iter().copied().filter(|v| !v.is_nan()) {
            range = Some(match range {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            });
        }
        assert_eq!(bits(folded), bits(range), "the two old folds disagree");
        folded
    }

    fn bits(r: Option<(f32, f32)>) -> Option<(u32, u32)> {
        r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
    }

    fn assert_matches_fold(values: &[f32]) {
        assert_eq!(
            bits(min_max(std::iter::once(values))),
            bits(fold_reference(values)),
            "{values:?}"
        );
    }

    #[test]
    fn matches_fold_on_mixed_signed_zeros() {
        let cases: [&[f32]; 8] = [
            &[0.0, -0.0],
            &[-0.0, 0.0],
            &[1.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, -0.0],
            &[1.0, -0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 0.0],
            &[-1.0, -0.0, -2.0, -3.0, 0.0, -5.0, -6.0, -7.0, -0.0, 0.0],
            &[-0.0; 13],
            &[5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0, -0.0, 0.0],
            &[f32::NAN, -0.0, f32::NAN, 0.0, 3.0],
        ];
        for values in cases {
            assert_matches_fold(values);
        }
    }

    #[test]
    fn matches_fold_with_leading_nans_infinities_and_ragged_lengths() {
        for len in 0..=3 * LANES + 1 {
            for lead in [0, 1, LANES, LANES + 3] {
                let values: Vec<f32> = (0..len)
                    .map(|i| match i {
                        i if i < lead => f32::NAN,
                        i if i % 5 == 0 => -0.0,
                        i if i % 7 == 0 => 0.0,
                        i if i % 11 == 0 => f32::INFINITY,
                        i => (i as f32 * 0.37).sin(),
                    })
                    .collect();
                assert_matches_fold(&values);
            }
        }
    }

    #[test]
    fn all_nan_or_empty_is_none() {
        assert_eq!(min_max(std::iter::once(&[f32::NAN; 11][..])), None);
        assert_eq!(min_max(std::iter::once(&[][..])), None);
        assert_eq!(min_max(std::iter::empty::<&[f32]>()), None);
    }

    #[test]
    fn single_infinities_are_a_range() {
        assert_matches_fold(&[f32::INFINITY]);
        assert_matches_fold(&[f32::NEG_INFINITY]);
        assert_matches_fold(&[f32::NAN, f32::NEG_INFINITY, f32::INFINITY]);
    }

    #[test]
    fn rows_scan_as_one_sequence() {
        // The first zero is picked across row boundaries, not per row.
        let a = [3.0, 2.0, -0.0];
        let b = [0.0, 1.0];
        let joined = [3.0, 2.0, -0.0, 0.0, 1.0];
        assert_eq!(
            bits(min_max([&a[..], &b[..]].into_iter())),
            bits(fold_reference(&joined))
        );
    }
}
