//! Runtime-side buffer arenas (ROADMAP item 3).
//!
//! The data-plane page pool lives in [`shmt_tensor::arena`] (re-exported
//! here); this module adds the *control-plane* pools — the per-run
//! bookkeeping vectors the runtime fills and the report hands back —
//! plus [`recycle_report`], which returns a consumed [`RunReport`]'s
//! spines (and its output tensor's page) to those pools so a warm serve
//! loop performs no heap allocation per request.
//!
//! Recycling is an optimization, not an obligation: a report that is
//! simply dropped frees its memory normally (the output tensor's page
//! still recycles through the tensor arena's `Drop` integration).

pub use shmt_tensor::arena::{clear, put_f32, stats, take_f32, ArenaStats, ObjPool, VecPool};

use hetsim::QueuePair;
use shmt_tensor::Tensor;

use crate::exec::ComputeTask;
use crate::guard::RepairRecord;
use crate::hlop::{Hlop, HlopRecord};
use crate::report::{DeviceStats, RunReport};

/// Per-run HLOP completion-record spines ([`RunReport::records`]).
pub(crate) static RECORDS: VecPool<HlopRecord> = VecPool::new();

/// Per-run device-stats spines ([`RunReport::devices`]).
pub(crate) static DEVICES: VecPool<DeviceStats> = VecPool::new();

/// HLOP list spines: the partitioner's output and the plan's per-device
/// queues share one pool (they hold the same element type and sizes).
pub(crate) static HLOPS: VecPool<Hlop> = VecPool::new();

/// Per-run compute-task spines.
pub(crate) static COMPUTE: VecPool<ComputeTask> = VecPool::new();

/// Per-run stolen-id flag spines.
pub(crate) static STOLEN: VecPool<bool> = VecPool::new();

/// Guard repair-record spines.
pub(crate) static REPAIRS: VecPool<RepairRecord> = VecPool::new();

/// Whole device queue-pair triples, deque capacity preserved across
/// runs ([`hetsim::QueuePair::reset`] clears state, not storage).
pub(crate) static QUEUE_PAIRS: ObjPool<[QueuePair<Hlop>; 3]> = ObjPool::new();

/// Output-slot arrays for the parallel executor's per-slot result
/// collection.
pub(crate) static SLOTS: VecPool<Option<Tensor>> = VecPool::new();

/// QAWS sampling scratch: one reused value buffer per planning pass.
pub(crate) static SAMPLES: VecPool<f32> = VecPool::new();

/// QAWS per-partition criticality-score spines.
pub(crate) static SCORES: VecPool<f32> = VecPool::new();

/// QAWS per-partition queue-class spines.
pub(crate) static CLASSES: VecPool<usize> = VecPool::new();

/// Rank-ordering scratch for the windowed Top-K assignment.
pub(crate) static ORDER: VecPool<usize> = VecPool::new();

/// Returns a consumed report's heap spines to the runtime pools: the
/// record and device vectors, any guard repair records, and (via the
/// tensor arena) the output tensor's backing page. Call this from a
/// serve loop once a response's output has been consumed; the next
/// request's run then takes the same spines back instead of allocating.
pub fn recycle_report(report: RunReport) {
    let RunReport {
        output,
        devices,
        records,
        quality,
        ..
    } = report;
    drop(output); // page recycles through the tensor arena
    DEVICES.put(devices);
    RECORDS.put(records);
    REPAIRS.put(quality.repairs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Platform, Policy, RuntimeConfig, ShmtRuntime, Vop};
    use shmt_kernels::Benchmark;

    #[test]
    fn recycle_report_round_trips_spines() {
        let b = Benchmark::Sobel;
        let vop = Vop::from_benchmark(b, b.generate_inputs(64, 64, 7)).unwrap();
        let rt = ShmtRuntime::new(
            Platform::jetson(b),
            RuntimeConfig::new(Policy::WorkStealing),
        );
        let report = rt.execute(&vop).unwrap();
        let n_records = report.records.len();
        assert!(n_records > 0);
        recycle_report(report);
        let recs = RECORDS.take();
        assert!(recs.is_empty());
        assert!(recs.capacity() >= n_records);
        RECORDS.put(recs);
    }
}
