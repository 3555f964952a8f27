//! Layer attribution by replay: a sampled request is re-run on the idle
//! fleet's host through each layer's public functions in turn —
//! `ShmtRuntime::execute_with_faults`, `partition::partition_vop`,
//! `sched::plan`, and `exec::compute_tasks` over exactly the tiles each
//! device computed (rebuilt from `HlopRecord.device`/`id`) — or, for a
//! DAG program, `VopDag::run`.

use std::hint::black_box;
use std::time::Instant;

use hetsim::DeviceKind;
use shmt::dag::DagConfig;
use shmt::exec::{compute_tasks, ComputeTask};
use shmt::partition::partition_vop;
use shmt::sched::{plan, PlanContext, GPU};
use shmt::{Platform, ShmtRuntime, Vop};

use crate::spans::SpanLog;
use crate::stats::{digest, median};
use crate::workload::{served_config, Payload, Template};

/// Host seconds of one replayed single-VOP request, per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct VopReplay {
    /// `execute_with_faults` as served (with the request's guard).
    pub execute_s: f64,
    /// `partition_vop`.
    pub partition_s: f64,
    /// `sched::plan` (QAWS sampling and planning).
    pub plan_s: f64,
    /// `compute_tasks` over the exact-device tiles.
    pub exact_s: f64,
    /// `compute_tasks` over the TPU tiles on the NPU path.
    pub npu_s: f64,
    /// The same TPU tiles computed exactly (`npu: false`).
    pub npu_as_exact_s: f64,
    /// Execute with the guard minus execute without it.
    pub guard_s: f64,
    /// Elements on exact devices.
    pub exact_elems: usize,
    /// Elements on the TPU.
    pub npu_elems: usize,
    /// Whether the request carries a guard.
    pub guarded: bool,
}

/// One replayed request.
#[derive(Debug, Clone, Copy)]
pub enum Replay {
    /// A single VOP, broken down by layer.
    Vop(VopReplay),
    /// A DAG program: `VopDag::run` seconds.
    Dag(f64),
}

/// Median seconds of `reps` calls of `f`, and the last value (earlier
/// values drop outside the timed region).
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = black_box(f());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    let secs = median(&times).expect("at least one repetition");
    (secs, last.expect("at least one repetition"))
}

/// [`timed`] for a compute pass: an empty task list is no work and
/// reads exactly 0.
fn timed_compute(reps: usize, tasks: &[ComputeTask], mut f: impl FnMut(&[ComputeTask])) -> f64 {
    if tasks.is_empty() {
        return 0.0;
    }
    timed(reps, || f(tasks)).0
}

/// Repetitions per measurement: small requests are repeated more so
/// microsecond layers are not single timer reads.
fn reps(elements: usize) -> usize {
    if elements <= 64 * 64 {
        15
    } else {
        3
    }
}

/// Replays request `request` of template `t`, appending its spans to
/// `log` (at the host time the replay started, relative to `epoch`):
/// `core.execute` with children `core.partition`, `core.plan`,
/// `kernels.exact`, `kernels.npu` and `core.guard` laid back to back, so
/// the execute span's self time is the runtime's remaining work
/// (virtual-time play, aggregation, bookkeeping); or `core.dag_run`.
///
/// Fails when the replayed tiles do not rebuild the served output of a
/// fault-free unguarded request bit for bit.
pub fn replay(
    t: &Template,
    request: u64,
    log: &mut SpanLog,
    epoch: Instant,
) -> Result<Replay, String> {
    let start_s = epoch.elapsed().as_secs_f64();
    let (benchmark, inputs, config, max_mape, faults) = match &t.payload {
        Payload::Dag { dag, input, config } => {
            let n = input.len();
            let cfg = DagConfig::new(*config);
            let (secs, run) = timed(reps(n), || dag.run(input, &cfg));
            run.map_err(|e| e.to_string())?;
            log.push("core.dag_run", start_s, start_s + secs, None, request);
            return Ok(Replay::Dag(secs));
        }
        Payload::Vop {
            benchmark,
            inputs,
            config,
            max_mape,
            faults,
        } => (*benchmark, inputs, *config, *max_mape, faults),
    };
    let vop = Vop::from_benchmark(benchmark, inputs.to_vec()).map_err(|e| e.to_string())?;
    let platform = Platform::jetson(benchmark);
    let (rows, cols) = vop.partition_space();
    let n = reps(rows * cols);
    let guarded = max_mape.is_some();
    let plain_rt = ShmtRuntime::new(platform.clone(), config);
    let (plain_s, plain) = timed(n, || plain_rt.execute_with_faults(&vop, faults));
    let plain = plain.map_err(|e| e.to_string())?;
    let execute_s = if guarded {
        let served_rt = ShmtRuntime::new(platform.clone(), served_config(config, max_mape));
        let (secs, r) = timed(n, || served_rt.execute_with_faults(&vop, faults));
        r.map_err(|e| e.to_string())?;
        secs
    } else {
        plain_s
    };

    let (partition_s, hlops) = timed(n, || partition_vop(&vop, config.partitions));
    let hlops = hlops.map_err(|e| e.to_string())?;
    let ctx = PlanContext::new(platform.device_profiles()[GPU].throughput);
    let (plan_s, last_plan) = timed(n, || {
        plan(config.policy, &vop, &hlops, &config.quality, ctx)
    });
    last_plan.recycle();

    let (mut exact, mut npu) = (Vec::new(), Vec::new());
    for r in &plain.records {
        let tile = hlops
            .get(r.id)
            .ok_or_else(|| format!("record for HLOP {} outside the partition", r.id))?
            .tile;
        if r.device == DeviceKind::EdgeTpu {
            npu.push(ComputeTask { tile, npu: true });
        } else {
            exact.push(ComputeTask { tile, npu: false });
        }
    }
    let elems = |tasks: &[ComputeTask]| tasks.iter().map(|t| t.tile.len()).sum::<usize>();
    let (exact_elems, npu_elems) = (elems(&exact), elems(&npu));
    if exact_elems + npu_elems != rows * cols {
        return Err("HLOP records do not cover the partition space once".into());
    }
    let kernel = vop.kernel();
    let ins: Vec<&shmt::Tensor> = vop.inputs().iter().collect();
    let threads = config.compute_threads;
    let mut out = kernel.shape().allocate_output(rows, cols);
    let exact_s = timed_compute(n, &exact, |t| {
        compute_tasks(kernel, &ins, t, &mut out, threads)
    });
    let npu_s = timed_compute(n, &npu, |t| {
        compute_tasks(kernel, &ins, t, &mut out, threads)
    });
    kernel.finalize(&mut out);
    if faults.is_empty() && !guarded && digest(&out) != digest(&plain.output) {
        return Err("replayed device tiles do not rebuild the served output".into());
    }
    let as_exact: Vec<ComputeTask> = npu
        .iter()
        .map(|t| ComputeTask { npu: false, ..*t })
        .collect();
    let mut scratch = kernel.shape().allocate_output(rows, cols);
    let npu_as_exact_s = timed_compute(n, &as_exact, |t| {
        compute_tasks(kernel, &ins, t, &mut scratch, threads)
    });

    let guard_s = if guarded { execute_s - plain_s } else { 0.0 };
    let span = log.push("core.execute", start_s, start_s + execute_s, None, request);
    log.push_children(
        span,
        &[
            ("core.partition", partition_s),
            ("core.plan", plan_s),
            ("kernels.exact", exact_s),
            ("kernels.npu", npu_s),
            ("core.guard", guard_s),
        ],
    );
    Ok(Replay::Vop(VopReplay {
        execute_s,
        partition_s,
        plan_s,
        exact_s,
        npu_s,
        npu_as_exact_s,
        guard_s,
        exact_elems,
        npu_elems,
        guarded,
    }))
}
