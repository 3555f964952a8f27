//! Golden bit-exactness suite.
//!
//! The optimized kernels (interior/halo stencil split, blocked GEMM,
//! hoisted constants, table-driven DCT, scratch-reusing DWT/FFT) promise
//! **bit-identical** outputs to the original naive loops preserved in
//! `shmt_kernels::reference`. This suite enforces that promise with exact
//! `as_slice()` equality — no epsilon — for every benchmark on both the
//! exact and NPU paths, over a full-dataset tile and a multi-tile split
//! that exercises the interior fast path and the clamped halo separately.
//!
//! The dataset shape is deliberately awkward: non-square and not a
//! multiple of the 8/32 block edges, so block kernels hit their clamped
//! partial blocks and stencil tiles end mid-row.

use shmt_kernels::reference::naive_kernel;
use shmt_kernels::{Benchmark, Kernel, KernelShape, ALL_BENCHMARKS};
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

/// Awkward default shape: non-square, not a multiple of 8 or 32.
const ROWS: usize = 67;
const COLS: usize = 101;

fn tile(index: usize, row0: usize, col0: usize, rows: usize, cols: usize) -> Tile {
    Tile {
        index,
        row0,
        col0,
        rows,
        cols,
    }
}

/// The dataset shape each benchmark is checked on. The FFT's radix-2 fast
/// path needs power-of-two row length (its fallback is covered by
/// `fft_non_power_of_two_matches_reference`).
fn dims(b: Benchmark) -> (usize, usize) {
    match b {
        Benchmark::Fft => (ROWS, 128),
        _ => (ROWS, COLS),
    }
}

/// A single tile spanning the whole dataset.
fn full_plan(rows: usize, cols: usize) -> Vec<Tile> {
    vec![tile(0, 0, 0, rows, cols)]
}

/// A split plan honoring the kernel's partitioning constraints, chosen so
/// some tiles sit strictly inside the dataset (pure interior path) while
/// others touch every dataset edge (clamped halo path).
fn split_plan(shape: KernelShape, rows: usize, cols: usize) -> Vec<Tile> {
    if shape.full_rows {
        let r1 = rows / 3;
        let r2 = 2 * rows / 3;
        return vec![
            tile(0, 0, 0, r1, cols),
            tile(1, r1, 0, r2 - r1, cols),
            tile(2, r2, 0, rows - r2, cols),
        ];
    }
    let a = shape.block_align;
    let r1 = (rows / 2 / a) * a;
    let c1 = (cols / 2 / a) * a;
    assert!(r1 > 0 && c1 > 0, "split points degenerate for align {a}");
    vec![
        tile(0, 0, 0, r1, c1),
        tile(1, 0, c1, r1, cols - c1),
        tile(2, r1, 0, rows - r1, c1),
        tile(3, r1, c1, rows - r1, cols - c1),
    ]
}

/// Runs `kernel` over `plan` on a fresh output, via the exact or NPU path.
fn run_plan(kernel: &dyn Kernel, inputs: &[&Tensor], plan: &[Tile], npu: bool) -> Tensor {
    let (rows, cols) = inputs[0].shape();
    let mut out = kernel.shape().allocate_output(rows, cols);
    for t in plan {
        if npu {
            kernel.run_npu(inputs, *t, &mut out);
        } else {
            kernel.run_exact(inputs, *t, &mut out);
        }
    }
    kernel.finalize(&mut out);
    out
}

fn check_benchmark(b: Benchmark) {
    let (rows, cols) = dims(b);
    let inputs = b.generate_inputs(rows, cols, 7);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let optimized = b.kernel();
    let naive = naive_kernel(b);
    let shape = optimized.shape();
    for (label, plan) in [
        ("full", full_plan(rows, cols)),
        ("split", split_plan(shape, rows, cols)),
    ] {
        for npu in [false, true] {
            let got = run_plan(optimized.as_ref(), &refs, &plan, npu);
            let want = run_plan(naive.as_ref(), &refs, &plan, npu);
            let path = if npu { "npu" } else { "exact" };
            assert!(
                got.as_slice() == want.as_slice(),
                "{b:?} {path} {label}: optimized output diverges from naive reference"
            );
        }
    }
}

#[test]
fn all_benchmarks_match_reference_bit_for_bit() {
    for b in ALL_BENCHMARKS {
        check_benchmark(b);
    }
}

#[test]
fn fft_non_power_of_two_matches_reference() {
    let b = Benchmark::Fft;
    let inputs = b.generate_inputs(33, 60, 11);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let optimized = b.kernel();
    let naive = naive_kernel(b);
    for plan in [full_plan(33, 60), split_plan(optimized.shape(), 33, 60)] {
        let got = run_plan(optimized.as_ref(), &refs, &plan, false);
        let want = run_plan(naive.as_ref(), &refs, &plan, false);
        assert!(got.as_slice() == want.as_slice(), "fft fallback diverges");
    }
}

#[test]
fn conv_matches_reference_bit_for_bit() {
    use shmt_kernels::conv::Conv2d;
    let input = Tensor::from_fn(ROWS, COLS, |r, c| ((r * 31 + c * 17) % 255) as f32);
    let refs = [&input];
    for filter in [Conv2d::gaussian3x3().filter().clone(), {
        // A 5x3 filter exercises asymmetric halos.
        Tensor::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 - 7.0) * 0.125)
    }] {
        let optimized = Conv2d::new(filter.clone());
        let naive = shmt_kernels::reference::conv2d(Conv2d::new(filter));
        for plan in [
            full_plan(ROWS, COLS),
            split_plan(optimized.shape(), ROWS, COLS),
        ] {
            for npu in [false, true] {
                let got = run_plan(&optimized, &refs, &plan, npu);
                let want = run_plan(&naive, &refs, &plan, npu);
                assert!(got.as_slice() == want.as_slice(), "conv diverges");
            }
        }
    }
}

#[test]
fn gemm_matches_reference_bit_for_bit() {
    use shmt_kernels::gemm::Gemm;
    // GEMM is the programming-model VOP (paper Fig 4) rather than a Table 2
    // benchmark, but the blocked k-panel rewrite carries the same
    // bit-exactness contract. Square, non-multiple-of-8 shape.
    let n = ROWS;
    let a = Tensor::from_fn(n, n, |r, c| (((r * 13 + c * 7) % 9) as f32 - 4.0) * 0.25);
    let b = Tensor::from_fn(n, n, |r, c| (((r * 5 + c * 11) % 13) as f32 - 6.0) * 0.5);
    let refs = [&a, &b];
    let optimized = Gemm;
    let naive = shmt_kernels::reference::gemm();
    for plan in [full_plan(n, n), split_plan(optimized.shape(), n, n)] {
        for npu in [false, true] {
            let got = run_plan(&optimized, &refs, &plan, npu);
            let want = run_plan(&naive, &refs, &plan, npu);
            assert!(got.as_slice() == want.as_slice(), "gemm diverges");
        }
    }
}

#[test]
fn interior_only_tile_matches_reference() {
    // A tile strictly inside the dataset: the optimized stencils take the
    // pure interior path for every element except the tile's rim, which
    // still reads neighbors (not clamps). The naive path clamps nothing
    // here either, so equality proves the window arithmetic itself.
    for b in [
        Benchmark::MeanFilter,
        Benchmark::Sobel,
        Benchmark::Laplacian,
        Benchmark::Hotspot,
        Benchmark::Srad,
    ] {
        let inputs = b.generate_inputs(ROWS, COLS, 3);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let optimized = b.kernel();
        let naive = naive_kernel(b);
        let plan = vec![tile(0, 5, 9, 40, 60)];
        let got = run_plan(optimized.as_ref(), &refs, &plan, false);
        let want = run_plan(naive.as_ref(), &refs, &plan, false);
        assert!(got.as_slice() == want.as_slice(), "{b:?} interior tile");
    }
}

/// Bit patterns of a tensor, so NaN outputs compare equal to themselves
/// and `±0` do not.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Spots whose `q = s / k` take more distinct bit patterns than a small
/// direct-mapped memo has slots, all sharing their low 8 bits, repeated
/// in a cycle so every lookup evicts the previous entry. A strike ratio
/// below the smallest normal f32 makes `k = s · ratio` subnormal, which
/// is what spreads `q` over many patterns.
fn evicting_spots(strike_ratio: f32, len: usize) -> Vec<f32> {
    let mut picked: Vec<(u32, f32)> = Vec::new();
    let mut s = 1e-6_f32;
    while picked.len() < 24 && s < 1.0 {
        let q = (s / (s * strike_ratio)).to_bits();
        let fresh = picked.iter().all(|&(seen, _)| seen != q);
        if fresh
            && picked
                .first()
                .map_or(true, |&(q0, _)| q & 0xff == q0 & 0xff)
        {
            picked.push((q, s));
        }
        s *= 1.000_37;
    }
    assert!(
        picked.len() > 8,
        "only {} colliding q patterns",
        picked.len()
    );
    (0..len).map(|i| picked[i % picked.len()].1).collect()
}

#[test]
fn blackscholes_adversarial_inputs_match_reference_bit_for_bit() {
    use shmt_kernels::blackscholes::Blackscholes;
    use shmt_kernels::reference::blackscholes_with;
    // Every 4093rd f32 bit pattern: NaNs, ±inf, ±0, subnormals and
    // negatives. The index wraps past u32::MAX to fill the last row.
    let (rows, cols) = (1025, 1024);
    let sweep = Tensor::from_fn(rows, cols, |r, c| {
        f32::from_bits(((r * cols + c) as u32).wrapping_mul(4093))
    });
    // The eviction rows need a ratio that makes `k` subnormal, which puts
    // `ln q` near 87. A rate of -87 cancels that, so neither leg
    // saturates and `k · discount` stays comparable to the spot: the
    // price then depends on both memoized legs.
    let evictor = Blackscholes {
        strike_ratio: 1e-38,
        rate: -87.0,
        volatility: 1.0,
        expiry: 1.0,
    };
    let evict = Tensor::from_vec(4, 96, evicting_spots(evictor.strike_ratio, 4 * 96)).unwrap();
    let mut kernels = vec![Blackscholes::default(), evictor];
    for strike_ratio in [0.5, 1.0, 1.05, 3.7] {
        kernels.push(Blackscholes {
            strike_ratio,
            expiry: 0.25,
            volatility: 0.8,
            ..Blackscholes::default()
        });
    }
    for k in kernels {
        let naive = blackscholes_with(k);
        // The million-element sweep runs as one tile; the short eviction
        // rows also run split, so each tile gets its own NPU grid.
        let evict_plans = vec![full_plan(4, 96), split_plan(k.shape(), 4, 96)];
        for (input, plans) in [(&sweep, vec![full_plan(rows, cols)]), (&evict, evict_plans)] {
            let refs = [input];
            for (i, plan) in plans.iter().enumerate() {
                for npu in [false, true] {
                    let got = run_plan(&k, &refs, plan, npu);
                    let want = run_plan(&naive, &refs, plan, npu);
                    assert!(bits(&got) == bits(&want), "{k:?} npu={npu} diverges");
                    if !npu && i == 0 {
                        for (&s, &p) in input.as_slice().iter().zip(got.as_slice()) {
                            assert_eq!(
                                k.price(s).to_bits(),
                                p.to_bits(),
                                "{k:?} price({s:e}) differs from run_exact"
                            );
                        }
                    }
                }
            }
        }
    }
}
