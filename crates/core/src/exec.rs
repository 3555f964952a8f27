//! Parallel execution of HLOP computations on the host.
//!
//! The SHMT runtime's virtual-time scheduler decides *where* each HLOP
//! runs and *when* it completes on the modeled platform; the actual
//! numerical work (exact fp32 for CPU/GPU HLOPs, the int8 NPU path for
//! Edge TPU HLOPs) is host computation. This module fans that computation
//! out over worker threads — the software analogue of the paper's
//! per-device monitor threads (§3.3.1) — while keeping results bit-exact
//! and deterministic:
//!
//! * Tile-aggregated kernels write disjoint output tiles, so workers
//!   compute each task into a tile-sized scratch buffer (inputs localized
//!   to the tile's halo-extended footprint) that is stitched in one pass.
//! * Reduction kernels (Histogram, reduce_*) produce per-HLOP partial
//!   buffers that are folded in task order, so float accumulation order
//!   never changes regardless of which worker ran which task.

use std::sync::atomic::{AtomicUsize, Ordering};

use shmt_kernels::{Aggregation, Kernel};
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;

use crate::pool::ComputePool;

/// Maximum kernel arity the executor supports — lets per-task input
/// reference lists live in fixed stack arrays instead of heap vectors.
/// Every benchmark kernel takes 1 or 2 inputs; 4 leaves headroom.
pub const MAX_KERNEL_ARITY: usize = 4;

/// Pre-sized per-slot result collection: each claimed task index is
/// written by exactly one worker, so the slots need no lock.
///
/// Safety contract: index `i` is written at most once (claimants obtain
/// indices from a shared `fetch_add` cursor, so claims are unique), the
/// backing `Vec` is pre-sized and never reallocated while workers hold
/// this pointer, and the pool's batch barrier orders every write before
/// the submitting thread reads the slots back.
struct SlotWriter {
    ptr: *mut Option<Tensor>,
    len: usize,
}

// SAFETY: concurrent `write` calls touch disjoint slots per the
// contract above; the raw pointer itself is freely sendable.
unsafe impl Sync for SlotWriter {}

impl SlotWriter {
    /// Deposits `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be a unique claim below `len` (see the struct contract).
    unsafe fn write(&self, i: usize, value: Tensor) {
        debug_assert!(i < self.len);
        // The pre-sized slot holds `None` (trivial drop), so a plain
        // store through the pointer is enough.
        unsafe { *self.ptr.add(i) = Some(value) };
    }
}

/// One unit of host compute: which partition, and through which path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeTask {
    /// The partition to compute.
    pub tile: Tile,
    /// `true` for the Edge TPU's int8 NPU path.
    pub npu: bool,
}

/// Number of worker threads to use by default.
///
/// The `SHMT_THREADS` environment variable overrides the detected
/// parallelism (clamped to at least 1); unset or unparsable values fall
/// back to `available_parallelism`, capped at 16.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("SHMT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(16)
}

/// Computes every task and assembles the results into `output`.
///
/// With `threads <= 1` the tasks run inline; otherwise up to `threads`
/// claimant jobs are submitted to the shared [`ComputePool`] — concurrent
/// runs interleave on the same persistent workers. The assembled output
/// is identical either way, at any pool size.
///
/// # Panics
///
/// Panics if a worker panics (kernel contract violations).
pub fn compute_tasks(
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    tasks: &[ComputeTask],
    output: &mut Tensor,
    threads: usize,
) {
    compute_tasks_on(
        ComputePool::global(),
        kernel,
        inputs,
        tasks,
        output,
        threads,
    );
}

/// [`compute_tasks`] on an explicit pool (dedicated pools are useful in
/// tests and for callers that want isolated capacity).
pub fn compute_tasks_on(
    pool: &ComputePool,
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    tasks: &[ComputeTask],
    output: &mut Tensor,
    threads: usize,
) {
    if tasks.is_empty() {
        return;
    }
    let aggregation = kernel.shape().aggregation;
    if threads <= 1 || tasks.len() == 1 {
        for task in tasks {
            run_one(kernel, inputs, *task, output);
        }
        return;
    }

    assert!(
        inputs.len() <= MAX_KERNEL_ARITY,
        "kernel arity {} exceeds executor maximum {MAX_KERNEL_ARITY}",
        inputs.len()
    );

    let (out_rows, out_cols) = output.shape();
    // Claimant jobs pull task indices through a shared atomic cursor —
    // the software analogue of pulling from a shared incoming queue — and
    // deposit each result into its task's pre-sized slot, so assembly
    // order is independent of which worker ran what and collection needs
    // no lock (the seed's `Mutex<Vec<(usize, Tensor)>>` serialized every
    // deposit). Slot spines and all scratch tensors come from the arena,
    // so a warm call allocates nothing.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Tensor>> = crate::arena::SLOTS.take();
    slots.resize_with(tasks.len(), || None);
    let writer = SlotWriter {
        ptr: slots.as_mut_ptr(),
        len: slots.len(),
    };

    let n_claims = threads.min(tasks.len());
    match aggregation {
        Aggregation::Tile => {
            // Each task is computed into a tile-sized result: inputs are
            // localized to the tile's halo-extended footprint and the
            // kernel runs in local coordinates, so scratch memory scales
            // with the tile (plus halo), not the dataset. Kernels that
            // read far outside that footprint (`global_inputs`, e.g.
            // GEMM) keep the full inputs and a per-claimant full-shape
            // buffer. Tiles are disjoint, so stitching is order-
            // independent and exact.
            let shape = kernel.shape();
            let localize = !shape.global_inputs;
            let (in_rows, in_cols) = inputs[0].shape();
            let footprint = |tile: Tile| {
                shmt_kernels::npu::extended_region(
                    tile,
                    shape.halo,
                    shape.block_align,
                    shape.full_rows,
                    in_rows,
                    in_cols,
                )
            };
            // How many claimants run at once depends on interleaving, and
            // so would the tensor arena's high-water mark. Pre-size it for
            // all `n_claims` at once, and keep every result until
            // stitching. A warm call then never misses the pool.
            let arity = inputs.len();
            let per_claim = match (localize, tasks.iter().any(|t| t.npu)) {
                // The full-shape scratch.
                (false, _) => 1,
                // Localized inputs and the kernel scratch.
                (true, false) => arity + 1,
                // Plus what the NPU path takes for itself.
                (true, true) => arity + 1 + shmt_kernels::npu::scratch_pages(arity),
            };
            shmt_tensor::arena::reserve_f32(
                tasks.iter().map(|t| t.tile.rows * t.tile.cols),
                tasks.iter().map(|t| {
                    if localize {
                        let ext = footprint(t.tile);
                        ext.rows * ext.cols
                    } else {
                        out_rows * out_cols
                    }
                }),
                n_claims * per_claim,
            );
            pool.scope_fn(n_claims, &|| {
                let mut full_scratch: Option<Tensor> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let tile = task.tile;
                    let result = if localize {
                        let ext = footprint(tile);
                        let locals: [Option<Tensor>; MAX_KERNEL_ARITY] = std::array::from_fn(|k| {
                            inputs
                                .get(k)
                                .map(|t| t.view(ext.row0, ext.col0, ext.rows, ext.cols).to_tensor())
                        });
                        let mut local_refs: [&Tensor; MAX_KERNEL_ARITY] =
                            [inputs[0]; MAX_KERNEL_ARITY];
                        for (slot, t) in local_refs.iter_mut().zip(locals.iter().flatten()) {
                            *slot = t;
                        }
                        let local_tile = Tile {
                            index: tile.index,
                            row0: tile.row0 - ext.row0,
                            col0: tile.col0 - ext.col0,
                            rows: tile.rows,
                            cols: tile.cols,
                        };
                        let mut scratch = Tensor::zeros(ext.rows, ext.cols);
                        run_one(
                            kernel,
                            &local_refs[..arity],
                            ComputeTask {
                                tile: local_tile,
                                npu: task.npu,
                            },
                            &mut scratch,
                        );
                        scratch
                            .view(local_tile.row0, local_tile.col0, tile.rows, tile.cols)
                            .to_tensor()
                    } else {
                        let scratch =
                            full_scratch.get_or_insert_with(|| Tensor::zeros(out_rows, out_cols));
                        run_one(kernel, inputs, *task, scratch);
                        scratch
                            .view(tile.row0, tile.col0, tile.rows, tile.cols)
                            .to_tensor()
                    };
                    // SAFETY: `i` came from the shared cursor, so this
                    // claim is unique and in bounds (`tasks.get` checked).
                    unsafe { writer.write(i, result) };
                }
            });
            for (i, slot) in slots.iter_mut().enumerate() {
                let result = slot.take().expect("claimed task deposited no result");
                let tile = tasks[i].tile;
                for r in 0..tile.rows {
                    let src = result.row(r);
                    output.row_mut(tile.row0 + r)[tile.col0..tile.col0 + tile.cols]
                        .copy_from_slice(src);
                }
            }
        }
        Aggregation::Reduce { op, .. } => {
            // Reduction buffers are tiny: claimants deposit one buffer per
            // *task*, and the fold walks the slots in ascending task order
            // — float accumulation order is then independent of which
            // worker ran which task.
            let shape = kernel.shape();
            pool.scope_fn(n_claims, &|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let mut buf = shape.allocate_output(out_rows, out_cols);
                run_one(kernel, inputs, *task, &mut buf);
                // SAFETY: unique in-bounds claim, as above.
                unsafe { writer.write(i, buf) };
            });
            for slot in slots.iter_mut() {
                let buf = slot.take().expect("claimed task deposited no result");
                for r in 0..output.rows() {
                    let dst = output.row_mut(r);
                    for (d, s) in dst.iter_mut().zip(buf.row(r)) {
                        *d = op.combine(*d, *s);
                    }
                }
            }
        }
    }
    crate::arena::SLOTS.put(slots);
}

fn run_one(kernel: &dyn Kernel, inputs: &[&Tensor], task: ComputeTask, out: &mut Tensor) {
    if task.npu {
        kernel.run_npu(inputs, task.tile, out);
    } else {
        kernel.run_exact(inputs, task.tile, out);
    }
}

/// Computes the exact whole-dataset output in parallel row bands — the
/// fast path for reference outputs and the GPU baseline's real compute.
pub fn compute_exact_parallel(
    kernel: &dyn Kernel,
    inputs: &[&Tensor],
    rows: usize,
    cols: usize,
    threads: usize,
) -> Tensor {
    let shape = kernel.shape();
    let mut output = shape.allocate_output(rows, cols);
    let bands = crate::partition::partition_tiles(rows, cols, threads.max(1) * 2, &shape);
    let mut tasks: Vec<ComputeTask> = crate::arena::COMPUTE.take();
    tasks.extend(bands.iter().map(|t| ComputeTask {
        tile: *t,
        npu: false,
    }));
    compute_tasks(kernel, inputs, &tasks, &mut output, threads);
    crate::arena::COMPUTE.put(tasks);
    kernel.finalize(&mut output);
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmt_kernels::Benchmark;

    fn tasks_for(b: Benchmark, n: usize, npu_every: usize) -> (Vec<ComputeTask>, Vec<Tensor>) {
        let shape = b.kernel().shape();
        let tiles = crate::partition::partition_tiles(n, n, 8, &shape);
        let tasks = tiles
            .iter()
            .map(|t| ComputeTask {
                tile: *t,
                npu: npu_every != 0 && t.index % npu_every == 0,
            })
            .collect();
        (tasks, b.generate_inputs(n, n, 3))
    }

    #[test]
    fn parallel_matches_serial_for_tiles() {
        for b in [Benchmark::Sobel, Benchmark::Dct8x8, Benchmark::Fft] {
            let kernel = b.kernel();
            let (tasks, inputs) = tasks_for(b, 128, 3);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let mut serial = kernel.shape().allocate_output(128, 128);
            compute_tasks(kernel.as_ref(), &refs, &tasks, &mut serial, 1);
            let mut parallel = kernel.shape().allocate_output(128, 128);
            compute_tasks(kernel.as_ref(), &refs, &tasks, &mut parallel, 4);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "{b}");
        }
    }

    #[test]
    fn parallel_matches_serial_for_sum() {
        let b = Benchmark::Histogram;
        let kernel = b.kernel();
        let (tasks, inputs) = tasks_for(b, 128, 2);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut serial = kernel.shape().allocate_output(128, 128);
        compute_tasks(kernel.as_ref(), &refs, &tasks, &mut serial, 1);
        let mut parallel = kernel.shape().allocate_output(128, 128);
        compute_tasks(kernel.as_ref(), &refs, &tasks, &mut parallel, 4);
        // Counts are integral here, so even float folds agree exactly.
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn compute_exact_parallel_matches_single_tile() {
        let b = Benchmark::MeanFilter;
        let kernel = b.kernel();
        let inputs = b.generate_inputs(96, 96, 5);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let fast = compute_exact_parallel(kernel.as_ref(), &refs, 96, 96, 4);
        let mut slow = kernel.shape().allocate_output(96, 96);
        let tile = Tile {
            index: 0,
            row0: 0,
            col0: 0,
            rows: 96,
            cols: 96,
        };
        kernel.run_exact(&refs, tile, &mut slow);
        assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn parallel_matches_serial_for_stencils_with_halo() {
        // Multi-input (Hotspot) and halo-2 (SRAD) kernels exercise the
        // localized input extraction; the NPU mix checks that quantization
        // parameters derived from the localized extract match the ones the
        // serial path derives from the full tensors.
        for b in [Benchmark::Hotspot, Benchmark::Srad, Benchmark::MeanFilter] {
            let kernel = b.kernel();
            let (tasks, inputs) = tasks_for(b, 96, 2);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let mut serial = kernel.shape().allocate_output(96, 96);
            compute_tasks(kernel.as_ref(), &refs, &tasks, &mut serial, 1);
            let mut parallel = kernel.shape().allocate_output(96, 96);
            compute_tasks(kernel.as_ref(), &refs, &tasks, &mut parallel, 4);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "{b}");
        }
    }

    #[test]
    fn parallel_matches_serial_for_global_inputs_gemm() {
        // GEMM reads all of `A`'s row band and all of `B`: `global_inputs`
        // routes it around the localized-extract path onto per-worker
        // full-shape scratch.
        use shmt_kernels::gemm::Gemm;
        let n = 64;
        let a = Tensor::from_fn(n, n, |r, c| (((r * 7 + c * 3) % 11) as f32 - 5.0) * 0.5);
        let b = Tensor::from_fn(n, n, |r, c| (((r * 5 + c * 13) % 9) as f32 - 4.0) * 0.25);
        let refs = [&a, &b];
        let tiles = crate::partition::partition_tiles(n, n, 6, &Gemm.shape());
        let tasks: Vec<ComputeTask> = tiles
            .iter()
            .map(|t| ComputeTask {
                tile: *t,
                npu: t.index % 2 == 0,
            })
            .collect();
        let mut serial = Gemm.shape().allocate_output(n, n);
        compute_tasks(&Gemm, &refs, &tasks, &mut serial, 1);
        let mut parallel = Gemm.shape().allocate_output(n, n);
        compute_tasks(&Gemm, &refs, &tasks, &mut parallel, 4);
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn shmt_threads_env_overrides_default() {
        std::env::set_var("SHMT_THREADS", "3");
        assert_eq!(default_threads(), 3);
        // Zero clamps to one worker rather than deadlocking.
        std::env::set_var("SHMT_THREADS", "0");
        assert_eq!(default_threads(), 1);
        // Garbage falls back to detection.
        std::env::set_var("SHMT_THREADS", "not-a-number");
        assert!(default_threads() >= 1);
        std::env::remove_var("SHMT_THREADS");
    }

    #[test]
    fn empty_task_list_is_noop() {
        let b = Benchmark::Sobel;
        let kernel = b.kernel();
        let inputs = b.generate_inputs(32, 32, 1);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut out = Tensor::filled(32, 32, 7.0);
        compute_tasks(kernel.as_ref(), &refs, &[], &mut out, 4);
        assert!(out.as_slice().iter().all(|&v| v == 7.0));
    }
}
