//! `npu::scratch_pages` must equal the tensor-arena pages the NPU path
//! takes: executors pre-size the arena with it, and an undercount makes
//! warm NPU claims allocate again.
//!
//! The arena's counters are process-wide, so this binary holds a single
//! test and nothing else takes pages while it counts.

use shmt_kernels::{npu, Aggregation, ALL_BENCHMARKS};
use shmt_tensor::arena;
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

/// Pages taken from the arena (hits and misses) while `f` runs.
fn pages_taken(f: impl FnOnce()) -> u64 {
    let before = arena::stats();
    f();
    let after = arena::stats();
    (after.hits + after.misses) - (before.hits + before.misses)
}

#[test]
fn scratch_pages_counts_what_the_npu_path_takes() {
    let n = 64;
    // Full rows on a 32-row boundary: valid for row-wise and blocked
    // kernels alike.
    let tile = Tile {
        index: 0,
        row0: 32,
        col0: 0,
        rows: 32,
        cols: n,
    };
    let mut checked = 0;
    for bench in ALL_BENCHMARKS {
        let kernel = bench.kernel();
        let shape = kernel.shape();
        // The executor's reservation covers localized, tile-aggregated
        // kernels; global-input and reduction kernels size their own
        // temporaries.
        if shape.global_inputs || !matches!(shape.aggregation, Aggregation::Tile) {
            continue;
        }
        let inputs = bench.generate_inputs(n, n, 5);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut out = Tensor::zeros(n, n);
        // Warm up, so the count does not depend on what the pool held.
        kernel.run_npu(&refs, tile, &mut out);
        let exact = pages_taken(|| kernel.run_exact(&refs, tile, &mut out));
        let npu = pages_taken(|| kernel.run_npu(&refs, tile, &mut out));
        assert_eq!(
            npu - exact,
            npu::scratch_pages(refs.len()) as u64,
            "{} takes {npu} pages on the NPU path, {exact} exact",
            bench.name()
        );
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} benchmarks checked");
}
