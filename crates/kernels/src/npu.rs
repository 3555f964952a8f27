//! The Edge TPU / NPU execution path.
//!
//! The paper's Edge TPU HLOPs are pre-trained int8 neural networks that
//! approximate each kernel (§4.2, following the NPU line of work). We model
//! that data path faithfully at the precision level:
//!
//! 1. The runtime casts the HLOP's input partition (plus halo) to int8 with
//!    an affine quantization derived from the partition's own range
//!    (§3.3.2's "data type casting through the desired quantization
//!    method").
//! 2. The device computes the kernel on the dequantized values.
//! 3. The result is emitted through the int8 output grid; a per-kernel
//!    *fidelity* factor (>= 1) coarsens that grid to stand in for the
//!    residual approximation error of the NN itself.
//!
//! Because both grids derive from the *partition's* value range, partitions
//! with wide ranges lose more absolute precision — the property QAWS's
//! criticality sampling (range + standard deviation, §3.5) is designed to
//! detect and route away from the NPU.

use shmt_tensor::quant::{round_code, QuantParams};
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

use crate::{Aggregation, Kernel};

/// How the NPU's int8 output grid is organized.
///
/// Edge TPU models use *per-channel* quantization where a layer's channels
/// have very different dynamic ranges; our transform kernels exploit the
/// same freedom: a DCT model quantizes each of the 64 coefficient
/// positions on its own grid (the DC term would otherwise drown the AC
/// terms), and a DWT model quantizes each subband separately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutputQuant {
    /// One grid derived from the whole output tile's range.
    PerTile,
    /// One grid per position within an `edge x edge` block (DCT8x8).
    BlockChannels {
        /// Block edge (8 for DCT8x8).
        edge: usize,
    },
    /// One grid per quadrant subband of an `edge x edge` block (DWT).
    Subbands {
        /// Block edge (32 for the blocked DWT).
        edge: usize,
    },
}

/// Runs `kernel` on `tile` through the modeled NPU path, writing the
/// degraded result into `out`.
///
/// `fidelity` coarsens the output grid: `1.0` is pure int8; larger values
/// model an NN whose approximation error exceeds a quantization step.
///
/// # Panics
///
/// Panics if `inputs` does not match the kernel's arity, if the tile is out
/// of bounds, or if `fidelity < 1.0`.
pub fn run_via_npu<K: Kernel + ?Sized>(
    kernel: &K,
    inputs: &[&Tensor],
    tile: Tile,
    out: &mut Tensor,
    fidelity: f32,
) {
    run_via_npu_quant(kernel, inputs, tile, out, fidelity, OutputQuant::PerTile);
}

/// [`run_via_npu`] with an explicit output-grid organization.
///
/// # Panics
///
/// As [`run_via_npu`].
pub fn run_via_npu_quant<K: Kernel + ?Sized>(
    kernel: &K,
    inputs: &[&Tensor],
    tile: Tile,
    out: &mut Tensor,
    fidelity: f32,
    quant: OutputQuant,
) {
    assert!(fidelity >= 1.0, "fidelity must be >= 1.0, got {fidelity}");
    let shape = kernel.shape();
    assert_eq!(
        inputs.len(),
        shape.num_inputs,
        "kernel {} arity",
        kernel.name()
    );
    let (rows, cols) = inputs[0].shape();

    // Extract the partition plus halo, aligned down to the block edge so
    // block transforms keep their phase, spanning full rows if required.
    let ext = extended_region(
        tile,
        shape.halo,
        shape.block_align,
        shape.full_rows,
        rows,
        cols,
    );

    // Quantize-snap each input region: this is the int8 device buffer.
    // Kernels with native uint8 models take integer 8-bit image data
    // losslessly; everything else goes through the affine int8 cast. The
    // range scan runs on the fresh copy while it is in cache, and the
    // snap follows (the old path did copy, then a full min/max pass, then
    // a second range scan inside `from_slice`). Both the scan and the
    // rounding vectorize.
    let native_u8 = kernel.npu_native_u8();
    assert!(inputs.len() <= MAX_ARITY, "kernel arity above MAX_ARITY");
    let mut snapped: [Option<Tensor>; MAX_ARITY] = [None, None, None, None];
    for (slot, t) in snapped.iter_mut().zip(inputs) {
        let view = t.view(ext.row0, ext.col0, ext.rows, ext.cols);
        let (mut local, range) = view.to_tensor_with_min_max();
        // `None` means every element was NaN; `min_max` reports (0, 0)
        // there, and `from_slice` falls back to the unit range.
        let (lo, hi) = range.unwrap_or((0.0, 0.0));
        if native_u8 && lo >= 0.0 && hi <= 255.0 {
            // `round_code` is `f32::round` on [-0.0, 255] and NaN.
            local.map_inplace(round_code);
        } else {
            let params = match range {
                Some((lo, hi)) => QuantParams::from_range(lo, hi),
                None => QuantParams::from_range(0.0, 1.0),
            };
            params.snap_slice(local.as_mut_slice());
        }
        *slot = Some(local);
    }
    let mut snapped_refs: [&Tensor; MAX_ARITY] = [inputs[0]; MAX_ARITY];
    for (r, s) in snapped_refs.iter_mut().zip(&snapped) {
        if let Some(s) = s {
            *r = s;
        }
    }
    let snapped_refs = &snapped_refs[..inputs.len()];

    // Run the exact kernel on the snapped local data.
    let local_tile = Tile {
        index: tile.index,
        row0: tile.row0 - ext.row0,
        col0: tile.col0 - ext.col0,
        rows: tile.rows,
        cols: tile.cols,
    };
    match shape.aggregation {
        Aggregation::Tile => {
            let mut local_out = Tensor::zeros(ext.rows, ext.cols);
            kernel.run_exact(snapped_refs, local_tile, &mut local_out);
            // Re-quantize the produced tile through the (possibly coarsened)
            // int8 output grid *while publishing* it to the global output:
            // each produced value is read once and the snapped result goes
            // straight to its final location, instead of an in-place snap
            // pass followed by a copy pass. The snap arithmetic is the
            // same, so the output is bit-identical to the two-pass form.
            match quant {
                OutputQuant::PerTile => {
                    publish_snapped_tile(&local_out, local_tile, tile, out, fidelity);
                }
                OutputQuant::BlockChannels { edge } => publish_snapped_channels(
                    &local_out,
                    local_tile,
                    tile,
                    out,
                    fidelity,
                    |r, c| (r % edge) * edge + c % edge,
                    edge * edge,
                ),
                OutputQuant::Subbands { edge } => publish_snapped_channels(
                    &local_out,
                    local_tile,
                    tile,
                    out,
                    fidelity,
                    |r, c| {
                        let half = edge / 2;
                        usize::from(r % edge >= half) * 2 + usize::from(c % edge >= half)
                    },
                    4,
                ),
            }
        }
        Aggregation::Reduce {
            rows: srows,
            cols: scols,
            op,
        } => {
            // Reduction kernels accumulate into the shared buffer; partial
            // buffers fold with the reduction's own operation.
            let shape2 = kernel.shape();
            let mut local_out = shape2.allocate_output(srows, scols);
            kernel.run_exact(snapped_refs, local_tile, &mut local_out);
            for r in 0..srows {
                let dst = out.row_mut(r);
                for (d, s) in dst.iter_mut().zip(local_out.row(r)) {
                    *d = op.combine(*d, *s);
                }
            }
        }
    }
}

/// Maximum kernel arity the NPU path supports (enough for every paper
/// benchmark); lets the snapped input buffers live in fixed stack arrays.
const MAX_ARITY: usize = 4;

/// The tensor-arena pages one [`run_via_npu_quant`] call on a
/// tile-aggregated kernel with `arity` inputs takes, all of them the size
/// of the tile's [`extended_region`]: one snapped copy per input and the
/// produced tile. Executors pre-size the arena with this count so a warm
/// NPU claim never misses the pool.
pub fn scratch_pages(arity: usize) -> usize {
    arity + 1
}

/// The tile expanded by its halo, aligned and clamped; `(row0, col0)` is the
/// region origin in dataset coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First dataset row of the region.
    pub row0: usize,
    /// First dataset column of the region.
    pub col0: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

/// Expands `tile` by `halo`, aligns it down to `block_align`, optionally
/// widens it to full rows, and clamps it to the `rows x cols` dataset.
///
/// This is the exact input footprint a (non-`global_inputs`) kernel may
/// read while computing `tile`; executors use it to hand workers tile-local
/// extracts instead of whole tensors.
///
/// # Panics
///
/// Panics if the tile exceeds the dataset bounds.
pub fn extended_region(
    tile: Tile,
    halo: usize,
    block_align: usize,
    full_rows: bool,
    rows: usize,
    cols: usize,
) -> Region {
    assert!(
        tile.row0 + tile.rows <= rows && tile.col0 + tile.cols <= cols,
        "tile out of dataset bounds"
    );
    let align_down = |v: usize| (v / block_align) * block_align;
    let row0 = align_down(tile.row0.saturating_sub(halo));
    let row_end = (tile.row0 + tile.rows + halo).min(rows);
    let (col0, col_end) = if full_rows {
        (0, cols)
    } else {
        (
            align_down(tile.col0.saturating_sub(halo)),
            (tile.col0 + tile.cols + halo).min(cols),
        )
    };
    Region {
        row0,
        col0,
        rows: row_end - row0,
        cols: col_end - col0,
    }
}

/// Most channels any output-grid organization uses (DCT8x8's 64 block
/// positions); lets per-channel ranges and grids live on the stack.
const MAX_CHANNELS: usize = 64;

/// Snaps the `local_tile` region of `local` per channel and writes the
/// result into the `tile` region of `out` in one pass. Each channel id
/// gets its own int8 grid derived from that channel's observed range
/// within the tile. Channel ids are computed from *local* coordinates,
/// which share the global block phase because the extraction region is
/// block-aligned.
fn publish_snapped_channels(
    local: &Tensor,
    local_tile: Tile,
    tile: Tile,
    out: &mut Tensor,
    fidelity: f32,
    channel_of: impl Fn(usize, usize) -> usize,
    channels: usize,
) {
    assert!(channels <= MAX_CHANNELS, "too many quantization channels");
    let mut lo = [f32::INFINITY; MAX_CHANNELS];
    let mut hi = [f32::NEG_INFINITY; MAX_CHANNELS];
    for r in local_tile.row0..local_tile.row0 + local_tile.rows {
        let row = &local.row(r)[local_tile.col0..local_tile.col0 + local_tile.cols];
        for (j, &v) in row.iter().enumerate() {
            let ch = channel_of(r, local_tile.col0 + j);
            lo[ch] = lo[ch].min(v);
            hi[ch] = hi[ch].max(v);
        }
    }
    let mut params = [QuantParams::from_range(0.0, 1.0); MAX_CHANNELS];
    for (ch, p) in params.iter_mut().take(channels).enumerate() {
        if lo[ch] <= hi[ch] {
            let mid = 0.5 * (lo[ch] + hi[ch]);
            let half = 0.5 * (hi[ch] - lo[ch]) * fidelity;
            *p = QuantParams::from_range(mid - half, mid + half);
        }
    }
    for r in 0..tile.rows {
        let lr = local_tile.row0 + r;
        let src = &local.row(lr)[local_tile.col0..local_tile.col0 + tile.cols];
        let dst = &mut out.row_mut(tile.row0 + r)[tile.col0..tile.col0 + tile.cols];
        for (j, (d, s)) in dst.iter_mut().zip(src).enumerate() {
            let ch = channel_of(lr, local_tile.col0 + j);
            *d = params[ch].snap(*s);
        }
    }
}

/// Snaps the `local_tile` region of `local` to an int8 grid derived from
/// that region's range (step coarsened by `fidelity`) and writes the
/// result into the `tile` region of `out` in one pass.
fn publish_snapped_tile(
    local: &Tensor,
    local_tile: Tile,
    tile: Tile,
    out: &mut Tensor,
    fidelity: f32,
) {
    let view = local.view(
        local_tile.row0,
        local_tile.col0,
        local_tile.rows,
        local_tile.cols,
    );
    let (lo, hi) = view.min_max();
    // Coarsen by pretending the range is `fidelity` times wider.
    let mid = 0.5 * (lo + hi);
    let half = 0.5 * (hi - lo) * fidelity;
    let params = QuantParams::from_range(mid - half, mid + half);
    for r in 0..tile.rows {
        let src = &local.row(local_tile.row0 + r)[local_tile.col0..local_tile.col0 + tile.cols];
        let dst = &mut out.row_mut(tile.row0 + r)[tile.col0..tile.col0 + tile.cols];
        params.snap_into(src, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn extended_region_clamps_at_edges() {
        let t = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 4,
            cols: 4,
        };
        let r = extended_region(t, 2, 1, false, 16, 16);
        assert_eq!((r.row0, r.col0, r.rows, r.cols), (0, 0, 6, 6));
    }

    #[test]
    fn extended_region_aligns_to_blocks() {
        let t = Tile {
            index: 0,
            row0: 8,
            col0: 16,
            rows: 8,
            cols: 8,
        };
        let r = extended_region(t, 0, 8, false, 64, 64);
        assert_eq!((r.row0, r.col0), (8, 16));
        let t2 = Tile {
            index: 0,
            row0: 9,
            col0: 17,
            rows: 7,
            cols: 7,
        };
        let r2 = extended_region(t2, 1, 8, false, 64, 64);
        assert_eq!(r2.row0 % 8, 0);
        assert_eq!(r2.col0 % 8, 0);
    }

    #[test]
    fn extended_region_full_rows_spans_width() {
        let t = Tile {
            index: 0,
            row0: 4,
            col0: 8,
            rows: 2,
            cols: 8,
        };
        let r = extended_region(t, 0, 1, true, 16, 32);
        assert_eq!((r.col0, r.cols), (0, 32));
    }

    #[test]
    fn npu_output_close_but_not_exact() {
        let bench = Benchmark::Sobel;
        let kernel = bench.kernel();
        let inputs = bench.generate_inputs(64, 64, 3);
        let refs: Vec<_> = inputs.iter().collect();
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 64,
            cols: 64,
        };

        let mut exact = Tensor::zeros(64, 64);
        kernel.run_exact(&refs, tile, &mut exact);
        let mut npu = Tensor::zeros(64, 64);
        kernel.run_npu(&refs, tile, &mut npu);

        let (lo, hi) = exact.min_max();
        let range = hi - lo;
        let mut max_err = 0.0f32;
        let mut any_diff = false;
        for (a, b) in exact.as_slice().iter().zip(npu.as_slice()) {
            let e = (a - b).abs();
            max_err = max_err.max(e);
            any_diff |= e > 0.0;
        }
        assert!(any_diff, "NPU path should differ from exact");
        assert!(
            max_err < 0.2 * range,
            "NPU error should be bounded: {max_err} vs range {range}"
        );
    }

    #[test]
    fn npu_wide_range_partition_has_larger_absolute_error() {
        // Two synthetic partitions: one narrow, one wide. The wide one must
        // show larger absolute error after the NPU path — the mechanism
        // QAWS depends on.
        let bench = Benchmark::MeanFilter;
        let kernel = bench.kernel();
        let narrow = Tensor::from_fn(32, 32, |r, c| 100.0 + ((r * 31 + c * 17) % 10) as f32 * 0.1);
        let wide = Tensor::from_fn(32, 32, |r, c| ((r * 31 + c * 17) % 100) as f32 * 25.0);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 32,
            cols: 32,
        };

        let mean_abs_err = |input: &Tensor| {
            let refs = vec![input];
            let mut exact = Tensor::zeros(32, 32);
            kernel.run_exact(&refs, tile, &mut exact);
            let mut npu = Tensor::zeros(32, 32);
            kernel.run_npu(&refs, tile, &mut npu);
            exact
                .as_slice()
                .iter()
                .zip(npu.as_slice())
                .map(|(a, b)| (a - b).abs() as f64)
                .sum::<f64>()
                / 1024.0
        };
        assert!(mean_abs_err(&wide) > 10.0 * mean_abs_err(&narrow));
    }

    /// The pre-fusion NPU pipeline, kept verbatim as the reference the
    /// fused path must match bit-for-bit: separate copy / min-max /
    /// parameter passes on the way in, and an in-place snap followed by
    /// a copy pass on the way out.
    fn two_pass_reference<K: Kernel + ?Sized>(
        kernel: &K,
        inputs: &[&Tensor],
        tile: Tile,
        out: &mut Tensor,
        fidelity: f32,
        quant: OutputQuant,
    ) {
        let shape = kernel.shape();
        let (rows, cols) = inputs[0].shape();
        let ext = extended_region(
            tile,
            shape.halo,
            shape.block_align,
            shape.full_rows,
            rows,
            cols,
        );
        let native_u8 = kernel.npu_native_u8();
        let snapped: Vec<Tensor> = inputs
            .iter()
            .map(|t| {
                let view = t.view(ext.row0, ext.col0, ext.rows, ext.cols);
                let mut local = view.to_tensor();
                let (lo, hi) = local.min_max();
                if native_u8 && lo >= 0.0 && hi <= 255.0 {
                    local.map_inplace(|v| v.round());
                } else {
                    let params = QuantParams::from_slice(local.as_slice());
                    params.snap_slice(local.as_mut_slice());
                }
                local
            })
            .collect();
        let snapped_refs: Vec<&Tensor> = snapped.iter().collect();
        let local_tile = Tile {
            index: tile.index,
            row0: tile.row0 - ext.row0,
            col0: tile.col0 - ext.col0,
            rows: tile.rows,
            cols: tile.cols,
        };
        match shape.aggregation {
            Aggregation::Tile => {
                let mut local_out = Tensor::zeros(ext.rows, ext.cols);
                kernel.run_exact(&snapped_refs, local_tile, &mut local_out);
                let snap_channels =
                    |t: &mut Tensor, channel_of: &dyn Fn(usize, usize) -> usize, channels| {
                        let mut lo = vec![f32::INFINITY; channels];
                        let mut hi = vec![f32::NEG_INFINITY; channels];
                        for r in local_tile.row0..local_tile.row0 + local_tile.rows {
                            for c in local_tile.col0..local_tile.col0 + local_tile.cols {
                                let ch = channel_of(r, c);
                                let v = t[(r, c)];
                                lo[ch] = lo[ch].min(v);
                                hi[ch] = hi[ch].max(v);
                            }
                        }
                        let params: Vec<QuantParams> = (0..channels)
                            .map(|ch| {
                                if lo[ch] > hi[ch] {
                                    QuantParams::from_range(0.0, 1.0)
                                } else {
                                    let mid = 0.5 * (lo[ch] + hi[ch]);
                                    let half = 0.5 * (hi[ch] - lo[ch]) * fidelity;
                                    QuantParams::from_range(mid - half, mid + half)
                                }
                            })
                            .collect();
                        for r in local_tile.row0..local_tile.row0 + local_tile.rows {
                            for c in local_tile.col0..local_tile.col0 + local_tile.cols {
                                let ch = channel_of(r, c);
                                t[(r, c)] = params[ch].snap(t[(r, c)]);
                            }
                        }
                    };
                match quant {
                    OutputQuant::PerTile => {
                        let view = local_out.view(
                            local_tile.row0,
                            local_tile.col0,
                            local_tile.rows,
                            local_tile.cols,
                        );
                        let (lo, hi) = view.min_max();
                        let mid = 0.5 * (lo + hi);
                        let half = 0.5 * (hi - lo) * fidelity;
                        let params = QuantParams::from_range(mid - half, mid + half);
                        for r in local_tile.row0..local_tile.row0 + local_tile.rows {
                            let start = local_tile.col0;
                            params.snap_slice(
                                &mut local_out.row_mut(r)[start..start + local_tile.cols],
                            );
                        }
                    }
                    OutputQuant::BlockChannels { edge } => snap_channels(
                        &mut local_out,
                        &|r, c| (r % edge) * edge + c % edge,
                        edge * edge,
                    ),
                    OutputQuant::Subbands { edge } => snap_channels(
                        &mut local_out,
                        &|r, c| {
                            let half = edge / 2;
                            usize::from(r % edge >= half) * 2 + usize::from(c % edge >= half)
                        },
                        4,
                    ),
                }
                for r in 0..tile.rows {
                    let src = local_out.view(local_tile.row0 + r, local_tile.col0, 1, tile.cols);
                    out.try_view_mut(tile.row0 + r, tile.col0, 1, tile.cols)
                        .unwrap()
                        .copy_from(&src)
                        .unwrap();
                }
            }
            Aggregation::Reduce {
                rows: srows,
                cols: scols,
                op,
            } => {
                let mut local_out = kernel.shape().allocate_output(srows, scols);
                kernel.run_exact(&snapped_refs, local_tile, &mut local_out);
                for r in 0..srows {
                    let dst = out.row_mut(r);
                    for (d, s) in dst.iter_mut().zip(local_out.row(r)) {
                        *d = op.combine(*d, *s);
                    }
                }
            }
        }
    }

    #[test]
    fn fused_path_bit_identical_to_two_pass_reference() {
        // An off-origin tile (halo + block alignment in play) on every
        // output-grid organization, plus a reduction kernel for the
        // input-side fusion alone. Exact equality, not tolerance.
        let cases = [
            (Benchmark::Sobel, OutputQuant::PerTile, 1.8),
            (
                Benchmark::Dct8x8,
                OutputQuant::BlockChannels { edge: 8 },
                1.0,
            ),
            (Benchmark::Dwt, OutputQuant::Subbands { edge: 32 }, 2.5),
            (Benchmark::Histogram, OutputQuant::PerTile, 1.0),
        ];
        for (bench, quant, fidelity) in cases {
            let kernel = bench.kernel();
            let inputs = bench.generate_inputs(96, 96, 11);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let shape = kernel.shape();
            let tile = Tile {
                index: 0,
                row0: 32,
                col0: 0,
                rows: 33,
                cols: 96,
            };
            let (or, oc) = match shape.aggregation {
                Aggregation::Tile => (96, 96),
                Aggregation::Reduce { rows, cols, .. } => (rows, cols),
            };
            let mut fused = shape.allocate_output(or, oc);
            run_via_npu_quant(kernel.as_ref(), &refs, tile, &mut fused, fidelity, quant);
            let mut reference = shape.allocate_output(or, oc);
            two_pass_reference(
                kernel.as_ref(),
                &refs,
                tile,
                &mut reference,
                fidelity,
                quant,
            );
            assert_eq!(
                fused.as_slice(),
                reference.as_slice(),
                "{bench:?} fused output must be bit-identical"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fidelity")]
    fn rejects_sub_unit_fidelity() {
        let bench = Benchmark::Sobel;
        let kernel = bench.kernel();
        let inputs = bench.generate_inputs(16, 16, 1);
        let refs: Vec<_> = inputs.iter().collect();
        let mut out = Tensor::zeros(16, 16);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 16,
            cols: 16,
        };
        run_via_npu(kernel.as_ref(), &refs, tile, &mut out, 0.5);
    }
}
