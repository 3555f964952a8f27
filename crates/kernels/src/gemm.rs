//! Dense matrix multiplication (the `GEMM` VOP of Table 1).
//!
//! The paper's programming-model walkthrough (Fig 4) uses a 2K x 2K GEMM
//! decomposed into per-device chunks: each HLOP computes a tile of the
//! output from a row band of `A` and the whole of `B`. The kernel here
//! multiplies two equal-shaped square matrices so it fits the VOP
//! single-shape partitioning (`C = A * B`, all `n x n`).

use shmt_tensor::quant::QuantParams;
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

use crate::{Kernel, KernelShape};

/// Square matrix multiply kernel: `out[tile] = (A * B)[tile]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Gemm;

/// Depth of the k-blocking: `KB` rows of `B` (a `KB x tile_cols` panel)
/// are streamed against every output row before moving to the next panel,
/// so the panel stays cache-resident across the whole row band.
const KB: usize = 128;

/// Blocked i-k-j matrix multiply of `a[rows, :] * b` restricted to output
/// columns `col0..col0 + ncols`, overwriting that span of `out`.
///
/// Per output element the products accumulate in globally ascending `k`
/// order with the same zero-skip as a naive i-k-j loop, so results are
/// bit-identical to the unblocked form.
pub(crate) fn gemm_into(
    a: &Tensor,
    b: &Tensor,
    row0: usize,
    nrows: usize,
    col0: usize,
    ncols: usize,
    out: &mut Tensor,
) {
    let depth = a.cols();
    for r in row0..row0 + nrows {
        out.row_mut(r)[col0..col0 + ncols].fill(0.0);
    }
    let mut kb = 0;
    while kb < depth {
        let kend = (kb + KB).min(depth);
        for r in row0..row0 + nrows {
            let apanel = &a.row(r)[kb..kend];
            let dst = &mut out.row_mut(r)[col0..col0 + ncols];
            for (k, &av) in apanel.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b.row(kb + k)[col0..col0 + ncols];
                for (d, &bv) in dst.iter_mut().zip(brow) {
                    *d += av * bv;
                }
            }
        }
        kb = kend;
    }
}

impl Kernel for Gemm {
    fn name(&self) -> &'static str {
        "GEMM"
    }

    fn shape(&self) -> KernelShape {
        KernelShape {
            num_inputs: 2,
            global_inputs: true,
            ..KernelShape::elementwise()
        }
    }

    fn run_exact(&self, inputs: &[&Tensor], tile: Tile, out: &mut Tensor) {
        let (a, b) = (inputs[0], inputs[1]);
        assert_eq!(
            a.shape(),
            b.shape(),
            "GEMM VOP multiplies equal-shaped squares"
        );
        let (n, m) = a.shape();
        assert_eq!(n, m, "GEMM VOP requires square inputs");
        gemm_into(a, b, tile.row0, tile.rows, tile.col0, tile.cols, out);
    }

    /// The Edge TPU is literally a matrix engine: its int8 GEMM quantizes
    /// both operands globally (weights-and-activations style) rather than
    /// per partition, because every output tile reads all of `A`'s row
    /// band and all of `B`.
    fn run_npu(&self, inputs: &[&Tensor], tile: Tile, out: &mut Tensor) {
        let qa = QuantParams::from_slice(inputs[0].as_slice());
        let qb = QuantParams::from_slice(inputs[1].as_slice());
        let mut a = inputs[0].clone();
        qa.snap_into(inputs[0].as_slice(), a.as_mut_slice());
        let mut b = inputs[1].clone();
        qb.snap_into(inputs[1].as_slice(), b.as_mut_slice());
        self.run_exact(&[&a, &b], tile, out);
        // Output through the int8 accumulator-rescale grid.
        let exact = out
            .view(tile.row0, tile.col0, tile.rows, tile.cols)
            .to_tensor();
        let (lo, hi) = exact.min_max();
        let q = QuantParams::from_range(lo, hi);
        for r in 0..tile.rows {
            let dst = &mut out.row_mut(tile.row0 + r)[tile.col0..tile.col0 + tile.cols];
            q.snap_into(exact.row(r), dst);
        }
    }

    fn work_per_element(&self) -> f64 {
        // 2n flops per output element; parameterized at the paper's 2K.
        4096.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(n: usize) -> Tile {
        Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: n,
            cols: n,
        }
    }

    #[test]
    fn matches_reference_gemm() {
        let a = Tensor::from_fn(8, 8, |r, c| ((r * 3 + c) % 5) as f32 - 2.0);
        let b = Tensor::from_fn(8, 8, |r, c| ((r + c * 7) % 11) as f32 * 0.5);
        let mut out = Tensor::zeros(8, 8);
        Gemm.run_exact(&[&a, &b], full(8), &mut out);
        let expect = crate::primitives::gemm(&a, &b);
        for (x, y) in out.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn tile_split_matches_full_run() {
        let a = Tensor::from_fn(16, 16, |r, c| ((r * 5 + c * 3) % 7) as f32);
        let b = Tensor::from_fn(16, 16, |r, c| ((r + c) % 9) as f32 - 4.0);
        let mut whole = Tensor::zeros(16, 16);
        Gemm.run_exact(&[&a, &b], full(16), &mut whole);
        let mut split = Tensor::zeros(16, 16);
        for (i, (r0, c0)) in [(0, 0), (0, 8), (8, 0), (8, 8)].iter().enumerate() {
            let t = Tile {
                index: i,
                row0: *r0,
                col0: *c0,
                rows: 8,
                cols: 8,
            };
            Gemm.run_exact(&[&a, &b], t, &mut split);
        }
        assert_eq!(whole.as_slice(), split.as_slice());
    }

    #[test]
    fn npu_gemm_is_close_but_quantized() {
        let a = Tensor::from_fn(16, 16, |r, c| ((r * 13 + c) % 17) as f32 / 17.0);
        let b = Tensor::from_fn(16, 16, |r, c| ((r + c * 11) % 13) as f32 / 13.0);
        let mut exact = Tensor::zeros(16, 16);
        Gemm.run_exact(&[&a, &b], full(16), &mut exact);
        let mut approx = Tensor::zeros(16, 16);
        Gemm.run_npu(&[&a, &b], full(16), &mut approx);
        let (lo, hi) = exact.min_max();
        let range = hi - lo;
        let mut max_err = 0.0f32;
        for (x, y) in exact.as_slice().iter().zip(approx.as_slice()) {
            max_err = max_err.max((x - y).abs());
        }
        assert!(max_err > 0.0, "int8 GEMM must differ");
        assert!(
            max_err < 0.1 * range,
            "but stay close: {max_err} of {range}"
        );
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let a = Tensor::zeros(4, 8);
        let b = Tensor::zeros(4, 8);
        let mut out = Tensor::zeros(4, 8);
        Gemm.run_exact(
            &[&a, &b],
            Tile {
                index: 0,
                row0: 0,
                col0: 0,
                rows: 4,
                cols: 8,
            },
            &mut out,
        );
    }
}
