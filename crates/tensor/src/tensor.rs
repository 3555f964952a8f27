use crate::{Result, TensorError};

/// An owned, row-major, dense 2-D array of `f32`.
///
/// All SHMT datasets in the paper are flat 2-D floating-point arrays held in
/// the system's shared main memory (§4.1); `Tensor` plays that role here.
///
/// Backing storage is pooled: tensors take their buffer from the global
/// page arena ([`crate::arena`]) and return it on drop, so steady-state
/// tensor traffic performs no heap allocation once the arena is warm.
///
/// # Examples
///
/// ```
/// use shmt_tensor::Tensor;
///
/// let mut t = Tensor::zeros(2, 3);
/// t[(1, 2)] = 4.0;
/// assert_eq!(t.get(1, 2), Some(4.0));
/// assert_eq!(t.as_slice().len(), 6);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = crate::arena::take_f32(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        crate::arena::put_f32(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Creates a `rows x cols` tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the element count overflows.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` tensor with every element set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the element count overflows.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self::try_filled(rows, cols, value).expect("valid tensor shape")
    }

    /// Fallible variant of [`Tensor::filled`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if either dimension is zero or
    /// `rows * cols` overflows `usize`.
    pub fn try_filled(rows: usize, cols: usize, value: f32) -> Result<Self> {
        let len = Self::checked_len(rows, cols)?;
        let mut data = crate::arena::take_f32(len);
        data.resize(len, value);
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a tensor by evaluating `f(row, col)` for every element.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the element count overflows.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let len = Self::checked_len(rows, cols).expect("valid tensor shape");
        let mut data = crate::arena::take_f32(len);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] for a degenerate shape and
    /// [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        let len = Self::checked_len(rows, cols)?;
        if data.len() != len {
            return Err(TensorError::ShapeMismatch {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    fn checked_len(rows: usize, cols: usize) -> Result<usize> {
        if rows == 0 || cols == 0 {
            return Err(TensorError::InvalidShape { rows, cols });
        }
        rows.checked_mul(cols)
            .ok_or(TensorError::InvalidShape { rows, cols })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements. Tensors always hold
    /// at least one element, so this is always `false`; provided for
    /// API completeness alongside [`Tensor::len`].
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the backing storage in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the backing storage in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing storage. The buffer
    /// leaves the arena's custody: it is freed normally unless the
    /// caller hands it back (e.g. via [`Tensor::from_vec`]).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Checked element access.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Borrows one full row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds for {} rows",
            self.rows
        );
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows one full row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Borrows a rectangular window.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the tensor bounds; use
    /// [`Tensor::try_view`] for a checked variant.
    pub fn view(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> TensorView<'_> {
        self.try_view(row0, col0, rows, cols)
            .expect("view within bounds")
    }

    /// Checked variant of [`Tensor::view`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if the window exceeds the tensor.
    pub fn try_view(
        &self,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Result<TensorView<'_>> {
        self.check_window(row0, col0, rows, cols)?;
        Ok(TensorView {
            data: &self.data,
            stride: self.cols,
            row0,
            col0,
            rows,
            cols,
        })
    }

    /// Mutably borrows a rectangular window.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if the window exceeds the tensor.
    pub fn try_view_mut(
        &mut self,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Result<TensorViewMut<'_>> {
        self.check_window(row0, col0, rows, cols)?;
        Ok(TensorViewMut {
            stride: self.cols,
            data: &mut self.data,
            row0,
            col0,
            rows,
            cols,
        })
    }

    fn check_window(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Result<()> {
        let row_end = row0.checked_add(rows);
        let col_end = col0.checked_add(cols);
        match (row_end, col_end) {
            (Some(re), Some(ce)) if re <= self.rows && ce <= self.cols && rows > 0 && cols > 0 => {
                Ok(())
            }
            _ => Err(TensorError::OutOfBounds {
                row: row0.saturating_add(rows.saturating_sub(1)),
                col: col0.saturating_add(cols.saturating_sub(1)),
                bounds: (self.rows, self.cols),
            }),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Tensor {
        let mut data = crate::arena::take_f32(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Minimum and maximum element values.
    ///
    /// NaN elements are ignored; if every element is NaN the result is
    /// `(0.0, 0.0)`.
    pub fn min_max(&self) -> (f32, f32) {
        crate::scan::min_max(std::iter::once(self.as_slice())).unwrap_or((0.0, 0.0))
    }
}

impl std::ops::Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (row, col): (usize, usize)) -> &f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds"
        );
        &self.data[row * self.cols + col]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds"
        );
        &mut self.data[row * self.cols + col]
    }
}

/// A borrowed rectangular window over a [`Tensor`].
///
/// # Examples
///
/// ```
/// use shmt_tensor::Tensor;
///
/// let t = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
/// let v = t.view(1, 1, 2, 2);
/// assert_eq!(v.at(0, 0), 5.0);
/// assert_eq!(v.to_tensor().as_slice(), &[5.0, 6.0, 9.0, 10.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a> {
    data: &'a [f32],
    stride: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
}

impl<'a> TensorView<'a> {
    /// Number of rows in the window.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the window.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total elements in the window.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Always `false`; windows are non-degenerate by construction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element at window-relative coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the window.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of window"
        );
        self.data[(self.row0 + row) * self.stride + self.col0 + col]
    }

    /// Borrows one window row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &'a [f32] {
        assert!(row < self.rows, "row {row} out of window");
        let start = (self.row0 + row) * self.stride + self.col0;
        &self.data[start..start + self.cols]
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).iter().copied())
    }

    /// Copies the window into a new owned [`Tensor`].
    pub fn to_tensor(&self) -> Tensor {
        let mut data = crate::arena::take_f32(self.len());
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
        }
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Copies the window into an owned [`Tensor`] while scanning its
    /// NaN-filtered minimum and maximum in the same pass — the fused
    /// form of [`TensorView::to_tensor`] + [`TensorView::min_max`] used
    /// by the Edge TPU transfer step, so each transferred page is
    /// touched once instead of twice.
    ///
    /// Returns `None` for the range when every element is NaN, matching
    /// the `(0.0, 0.0)` convention of [`TensorView::min_max`] at the
    /// call site's discretion. The range is bit-identical to a separate
    /// [`TensorView::min_max`] scan: both run the same lane-wise scan
    /// over the same elements in the same row-major order. The scan reads
    /// the fresh contiguous copy, which is still in cache.
    pub fn to_tensor_with_min_max(&self) -> (Tensor, Option<(f32, f32)>) {
        let copy = self.to_tensor();
        let range = crate::scan::min_max(std::iter::once(copy.as_slice()));
        (copy, range)
    }

    /// Minimum and maximum element values within the window.
    ///
    /// NaN elements are ignored; all-NaN windows yield `(0.0, 0.0)`.
    pub fn min_max(&self) -> (f32, f32) {
        crate::scan::min_max((0..self.rows).map(|r| self.row(r))).unwrap_or((0.0, 0.0))
    }
}

/// A mutably borrowed rectangular window over a [`Tensor`].
#[derive(Debug)]
pub struct TensorViewMut<'a> {
    data: &'a mut [f32],
    stride: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
}

impl<'a> TensorViewMut<'a> {
    /// Number of rows in the window.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the window.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mutably borrows one window row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row {row} out of window");
        let start = (self.row0 + row) * self.stride + self.col0;
        &mut self.data[start..start + self.cols]
    }

    /// Overwrites the window with the contents of `src`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RectMismatch`] when shapes differ.
    pub fn copy_from(&mut self, src: &TensorView<'_>) -> Result<()> {
        if (self.rows, self.cols) != (src.rows(), src.cols()) {
            return Err(TensorError::RectMismatch {
                src: (src.rows(), src.cols()),
                dst: (self.rows, self.cols),
            });
        }
        for r in 0..self.rows {
            self.row_mut(r).copy_from_slice(src.row(r));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_shape_and_zero_values() {
        let t = Tensor::zeros(3, 5);
        assert_eq!(t.shape(), (3, 5));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        let err = Tensor::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        assert!(matches!(
            Tensor::try_filled(0, 4, 1.0),
            Err(TensorError::InvalidShape { rows: 0, cols: 4 })
        ));
        assert!(Tensor::try_filled(usize::MAX, 2, 1.0).is_err());
    }

    #[test]
    fn indexing_round_trips() {
        let mut t = Tensor::zeros(4, 4);
        t[(2, 3)] = 7.5;
        assert_eq!(t[(2, 3)], 7.5);
        assert_eq!(t.get(2, 3), Some(7.5));
        assert_eq!(t.get(4, 0), None);
    }

    #[test]
    fn view_reads_correct_window() {
        let t = Tensor::from_fn(4, 4, |r, c| (r * 10 + c) as f32);
        let v = t.view(1, 2, 2, 2);
        assert_eq!(v.at(0, 0), 12.0);
        assert_eq!(v.at(1, 1), 23.0);
        assert_eq!(v.row(1), &[22.0, 23.0]);
    }

    #[test]
    fn view_out_of_bounds_errors() {
        let t = Tensor::zeros(4, 4);
        assert!(t.try_view(3, 3, 2, 2).is_err());
        assert!(t.try_view(0, 0, 0, 1).is_err());
        assert!(t.try_view(usize::MAX, 0, 2, 1).is_err());
    }

    #[test]
    fn view_mut_copy_from_writes_window() {
        let src_t = Tensor::filled(2, 2, 9.0);
        let src = src_t.view(0, 0, 2, 2);
        let mut dst = Tensor::zeros(4, 4);
        dst.try_view_mut(1, 1, 2, 2)
            .unwrap()
            .copy_from(&src)
            .unwrap();
        assert_eq!(dst[(1, 1)], 9.0);
        assert_eq!(dst[(2, 2)], 9.0);
        assert_eq!(dst[(0, 0)], 0.0);
        assert_eq!(dst[(3, 3)], 0.0);
    }

    #[test]
    fn copy_from_shape_mismatch_errors() {
        let src_t = Tensor::filled(2, 3, 1.0);
        let src = src_t.view(0, 0, 2, 3);
        let mut dst = Tensor::zeros(4, 4);
        let err = dst
            .try_view_mut(0, 0, 2, 2)
            .unwrap()
            .copy_from(&src)
            .unwrap_err();
        assert_eq!(
            err,
            TensorError::RectMismatch {
                src: (2, 3),
                dst: (2, 2)
            }
        );
    }

    #[test]
    fn min_max_ignores_nan() {
        let t = Tensor::from_vec(1, 4, vec![3.0, f32::NAN, -1.0, 2.0]).unwrap();
        assert_eq!(t.min_max(), (-1.0, 3.0));
    }

    #[test]
    fn to_tensor_with_min_max_matches_separate_passes() {
        let t = Tensor::from_fn(5, 7, |r, c| (r as f32) - (c as f32) * 0.5);
        let v = t.view(1, 2, 3, 4);
        let (copy, range) = v.to_tensor_with_min_max();
        assert_eq!(copy, v.to_tensor());
        assert_eq!(range, Some(v.min_max()));
    }

    #[test]
    fn to_tensor_with_min_max_all_nan_is_none() {
        let nan = Tensor::from_vec(1, 2, vec![f32::NAN, f32::NAN]).unwrap();
        let (copy, range) = nan.view(0, 0, 1, 2).to_tensor_with_min_max();
        assert_eq!(range, None);
        assert!(copy.as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn dropped_tensor_buffer_is_recycled() {
        let t = Tensor::filled(32, 32, 1.5);
        let before = crate::arena::stats();
        drop(t);
        let after = crate::arena::stats();
        assert!(after.recycled + after.dropped > before.recycled + before.dropped);
    }

    #[test]
    fn map_preserves_shape() {
        let t = Tensor::from_fn(2, 2, |r, c| (r + c) as f32);
        let doubled = t.map(|v| v * 2.0);
        assert_eq!(doubled.as_slice(), &[0.0, 2.0, 2.0, 4.0]);
        assert_eq!(doubled.shape(), t.shape());
    }
}
