//! The three workloads: the shared fleet, request templates with their
//! set-up references, the per-response output check, and the open- and
//! closed-loop drivers that send every request through
//! `ClusterRouter::route`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shmt::baseline::{exact_reference, gpu_baseline};
use shmt::dag::{DagConfig, DagNode, VopDag};
use shmt::quality::mape;
use shmt::{FaultPlan, GuardConfig, Platform, Policy, RunReport, RuntimeConfig, ShmtRuntime, Vop};
use shmt_cluster::{ClusterConfig, ClusterError, ClusterRouter, NodeConfig, RouteOptions};
use shmt_kernels::primitives::UnaryOp;
use shmt_kernels::Benchmark;
use shmt_serve::{Priority, Request, Response, ServerConfig};
use shmt_tensor::rng::Pcg32;
use shmt_tensor::{gen, Tensor};

use crate::spans::SpanLog;
use crate::stats::{digest, Tally};

/// Nodes in the fleet; each is a `Server` with one executor.
const NODES: usize = 2;
/// Open-loop sender threads and closed-loop callers (`nproc` = 2).
pub const CLIENTS: usize = 2;
/// `fleet_small`'s offered rate. Fixed in absolute terms: a rate derived
/// from the host's speed would offer a faster program more load and
/// hide its gain.
pub const FLEET_RATE_RPS: f64 = 1000.0;
/// Quality budget of `pipeline_guarded`'s single-VOP requests.
const GUARD_MAPE: f64 = 0.05;

/// One of the benchmark's fixed traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop Poisson Sobel 32² traffic: router, breakers, admission
    /// queue and ticket hand-off do almost all the work.
    FleetSmall,
    /// Closed-loop 1024² kernels: exact kernels and NPU emulation
    /// dominate, inputs stream from memory.
    BatchLarge,
    /// Closed-loop 512² DAG programs and guarded VOPs under a
    /// miscalibrated TPU: fusion, residency, guard and health breaker.
    PipelineGuarded,
}

impl Kind {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "fleet_small" => Some(Kind::FleetSmall),
            "batch_large" => Some(Kind::BatchLarge),
            "pipeline_guarded" => Some(Kind::PipelineGuarded),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetSmall => "fleet_small",
            Kind::BatchLarge => "batch_large",
            Kind::PipelineGuarded => "pipeline_guarded",
        }
    }

    /// Whether the served virtual-time statistics are a pure function
    /// of the seed. `pipeline_guarded`'s health breaker masks the TPU
    /// depending on how concurrent requests interleave in wall time.
    pub fn deterministic(self) -> bool {
        self != Kind::PipelineGuarded
    }

    /// Whether the workload is open loop.
    pub fn open_loop(self) -> bool {
        self == Kind::FleetSmall
    }
}

/// The virtual-time statistics of one run report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimSample {
    /// Modeled makespan, seconds.
    pub makespan_s: f64,
    /// Share of elements the Edge TPU computed.
    pub tpu_fraction: f64,
    /// HLOPs stolen.
    pub steals: f64,
    /// Modeled bus traffic, bytes.
    pub bus_bytes: f64,
    /// Modeled scheduling overhead, seconds.
    pub sched_overhead_s: f64,
    /// HLOPs the guard repaired.
    pub repairs: f64,
    /// Pages the guard sampled.
    pub pages: f64,
    /// Output MAPE against the exact reference.
    pub mape: f64,
}

impl SimSample {
    fn of(report: &RunReport, mape: f64) -> SimSample {
        SimSample {
            makespan_s: report.makespan_s,
            tpu_fraction: report.tpu_fraction,
            steals: report.steals as f64,
            bus_bytes: report.bus_bytes as f64,
            sched_overhead_s: report.scheduling_overhead_s,
            repairs: report.quality.repairs.len() as f64,
            pages: report.quality.sampled_pages as f64,
            mape,
        }
    }

    /// Field-wise mean.
    pub fn mean(samples: &[SimSample]) -> Option<SimSample> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let sum = |f: fn(&SimSample) -> f64| samples.iter().map(f).sum::<f64>() / n;
        Some(SimSample {
            makespan_s: sum(|s| s.makespan_s),
            tpu_fraction: sum(|s| s.tpu_fraction),
            steals: sum(|s| s.steals),
            bus_bytes: sum(|s| s.bus_bytes),
            sched_overhead_s: sum(|s| s.sched_overhead_s),
            repairs: sum(|s| s.repairs),
            pages: sum(|s| s.pages),
            mape: sum(|s| s.mape),
        })
    }
}

/// What a template executes.
pub enum Payload {
    /// One VOP.
    Vop {
        /// The kernel.
        benchmark: Benchmark,
        /// Its inputs, shared by templates that differ only in policy.
        inputs: Arc<Vec<Tensor>>,
        /// Runtime configuration as sent.
        config: RuntimeConfig,
        /// Quality budget stamped on the request.
        max_mape: Option<f64>,
        /// Device faults the request runs under.
        faults: FaultPlan,
    },
    /// A DAG program over one input.
    Dag {
        /// The program.
        dag: VopDag,
        /// Its external input.
        input: Arc<Tensor>,
        /// Per-stage runtime configuration.
        config: RuntimeConfig,
    },
}

/// Set-up results a response is checked against.
pub struct Reference {
    /// Digest of the sequential reference output.
    pub digest: u64,
    /// DAG only: digest of the run with the TPU masked off, which a
    /// response degraded by TPU quarantine must equal.
    pub degraded_digest: Option<u64>,
    /// Guarded VOPs only: the exact output MAPE is measured against.
    pub exact: Option<Tensor>,
    /// Virtual-time statistics of the sequential reference run.
    pub sim: SimSample,
    /// VOPs only: `baseline::gpu_baseline` makespan, seconds.
    pub baseline_s: Option<f64>,
}

/// One distinct request of a workload's mix.
pub struct Template {
    /// What it executes.
    pub payload: Payload,
    /// What a response must match.
    pub reference: Reference,
}

impl Template {
    /// Builds a fresh request (inputs cloned from the template).
    pub fn build(&self) -> Request {
        match &self.payload {
            Payload::Vop {
                benchmark,
                inputs,
                config,
                max_mape,
                faults,
            } => {
                let vop = Vop::from_benchmark(*benchmark, inputs.to_vec())
                    .expect("template inputs were validated at set-up");
                let request = Request::new(vop, Platform::jetson(*benchmark), *config)
                    .with_faults(faults.clone());
                match max_mape {
                    Some(m) => request.with_max_mape(*m),
                    None => request,
                }
            }
            Payload::Dag { dag, input, config } => {
                Request::with_program(dag.clone(), (**input).clone(), *config)
            }
        }
    }

    /// Routing options for one instance.
    pub fn options(&self, priority: Priority) -> RouteOptions {
        let opts = RouteOptions::new().with_priority(priority);
        match &self.payload {
            Payload::Vop {
                max_mape: Some(m), ..
            } => opts.with_max_mape(*m),
            _ => opts,
        }
    }

    /// Checks one response and returns its virtual-time statistics:
    /// guarded VOPs must ship a MAPE within budget; any other response
    /// must be bit-identical to the sequential reference with identical
    /// statistics, or — for a DAG degraded by TPU quarantine — to the
    /// TPU-masked reference.
    pub fn check(&self, response: &Response) -> Result<SimSample, String> {
        let report = &response.report;
        if let Payload::Vop {
            max_mape: Some(budget),
            ..
        } = self.payload
        {
            let exact = self
                .reference
                .exact
                .as_ref()
                .expect("guarded templates keep their exact output");
            let shipped = mape(exact, &report.output);
            return if shipped <= budget {
                Ok(SimSample::of(report, shipped))
            } else {
                Err(format!("shipped MAPE {shipped:.4} over budget {budget}"))
            };
        }
        let got = digest(&report.output);
        if response.degraded {
            return match self.reference.degraded_digest {
                Some(d) if d == got => Ok(SimSample::of(report, 0.0)),
                Some(_) => Err("degraded DAG output differs from the TPU-masked run".into()),
                None => Err("degraded response to a request with no device fault".into()),
            };
        }
        if got != self.reference.digest {
            return Err("output differs from the sequential reference".into());
        }
        let sim = SimSample::of(report, self.reference.sim.mape);
        if sim != self.reference.sim {
            return Err("virtual-time statistics differ from the sequential reference".into());
        }
        Ok(sim)
    }
}

/// A workload's templates and the stream that picks from them.
pub struct Workload {
    /// Which mix.
    pub kind: Kind,
    /// The distinct requests.
    pub templates: Vec<Template>,
    /// The seed every input and stream derives from.
    pub seed: u64,
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn qaws_ts() -> Policy {
    Policy::qaws_variants()[0]
}

fn config(policy: Policy, partitions: usize) -> RuntimeConfig {
    let mut c = RuntimeConfig::new(policy);
    c.partitions = partitions;
    c
}

/// The configuration a node's executor runs a VOP request under: a
/// quality budget switches on the enforcing guard.
pub fn served_config(config: RuntimeConfig, max_mape: Option<f64>) -> RuntimeConfig {
    let mut served = config;
    if let Some(m) = max_mape {
        served.guard = GuardConfig::enforcing(m);
    }
    served
}

fn vop_template(
    benchmark: Benchmark,
    inputs: &Arc<Vec<Tensor>>,
    config: RuntimeConfig,
    max_mape: Option<f64>,
    faults: FaultPlan,
    exact: &Tensor,
    baseline_s: f64,
) -> Result<Template, String> {
    let vop = Vop::from_benchmark(benchmark, inputs.to_vec()).map_err(|e| e.to_string())?;
    let report = ShmtRuntime::new(Platform::jetson(benchmark), served_config(config, max_mape))
        .execute_with_faults(&vop, &faults)
        .map_err(|e| e.to_string())?;
    let sim = SimSample::of(&report, mape(exact, &report.output));
    Ok(Template {
        payload: Payload::Vop {
            benchmark,
            inputs: Arc::clone(inputs),
            config,
            max_mape,
            faults,
        },
        reference: Reference {
            digest: digest(&report.output),
            degraded_digest: None,
            exact: max_mape.map(|_| exact.clone()),
            sim,
            baseline_s: Some(baseline_s),
        },
    })
}

/// The exact output and GPU-baseline makespan of one input set.
fn exact_and_baseline(
    benchmark: Benchmark,
    inputs: &[Tensor],
    partitions: usize,
) -> Result<(Tensor, f64), String> {
    let vop = Vop::from_benchmark(benchmark, inputs.to_vec()).map_err(|e| e.to_string())?;
    let baseline =
        gpu_baseline(&Platform::jetson(benchmark), &vop, partitions).map_err(|e| e.to_string())?;
    Ok((exact_reference(&vop), baseline.makespan_s))
}

fn dag_template(dag: VopDag, input: Tensor, config: RuntimeConfig) -> Result<Template, String> {
    let normal = dag
        .run(&input, &DagConfig::new(config))
        .map_err(|e| e.to_string())?;
    let mut masked = config;
    masked.device_mask = [true, true, false];
    let exact = dag
        .run(&input, &DagConfig::new(masked))
        .map_err(|e| e.to_string())?;
    let dag_mape = mape(&exact.output, &normal.output);
    let degraded_digest = Some(digest(&exact.output));
    let digest = digest(&normal.output);
    let sim = SimSample::of(&normal.into_run_report(), dag_mape);
    Ok(Template {
        payload: Payload::Dag {
            dag,
            input: Arc::new(input),
            config,
        },
        reference: Reference {
            digest,
            degraded_digest,
            exact: None,
            sim,
            baseline_s: None,
        },
    })
}

impl Workload {
    /// Generates the workload's inputs from `seed` and computes every
    /// template's sequential reference.
    pub fn new(kind: Kind, seed: u64) -> Result<Workload, String> {
        let mut templates = Vec::new();
        match kind {
            Kind::FleetSmall => {
                let (b, n, parts) = (Benchmark::Sobel, 32, 2);
                for i in 0..16 {
                    let inputs = Arc::new(b.generate_inputs(n, n, mix(seed, i)));
                    let (exact, base) = exact_and_baseline(b, &inputs, parts)?;
                    let cfg = config(Policy::WorkStealing, parts);
                    templates.push(vop_template(
                        b,
                        &inputs,
                        cfg,
                        None,
                        FaultPlan::none(),
                        &exact,
                        base,
                    )?);
                }
            }
            Kind::BatchLarge => {
                let (n, parts) = (1024, 64);
                let kernels = [
                    Benchmark::Sobel,
                    Benchmark::MeanFilter,
                    Benchmark::Laplacian,
                    Benchmark::Blackscholes,
                ];
                for (k, b) in kernels.into_iter().enumerate() {
                    for s in 0..8u64 {
                        let inputs =
                            Arc::new(b.generate_inputs(n, n, mix(seed, 100 + 8 * k as u64 + s)));
                        let (exact, base) = exact_and_baseline(b, &inputs, parts)?;
                        // Template 2g is QAWS-TS, 2g+1 even distribution.
                        for policy in [qaws_ts(), Policy::EvenDistribution] {
                            templates.push(vop_template(
                                b,
                                &inputs,
                                config(policy, parts),
                                None,
                                FaultPlan::none(),
                                &exact,
                                base,
                            )?);
                        }
                    }
                }
            }
            Kind::PipelineGuarded => {
                let (n, parts) = (512, 16);
                let cfg = config(qaws_ts(), parts);
                // Eight DAG programs and eight guarded VOPs.
                for s in 0..4u64 {
                    let sobel_mf = VopDag::new(vec![
                        DagNode::benchmark(Benchmark::Sobel, mix(seed, 200 + s), vec![]),
                        DagNode::benchmark(Benchmark::MeanFilter, mix(seed, 210 + s), vec![0]),
                    ])
                    .map_err(|e| e.to_string())?;
                    let input = gen::image8(n, n, mix(seed, 220 + s));
                    templates.push(dag_template(sobel_mf, input, cfg)?);
                    let dwt_chain = VopDag::new(vec![
                        DagNode::benchmark(Benchmark::Dwt, mix(seed, 230 + s), vec![]),
                        DagNode::unary(UnaryOp::Relu, 0),
                        DagNode::unary(UnaryOp::Sqrt, 1),
                    ])
                    .map_err(|e| e.to_string())?;
                    let input = gen::image8(n, n, mix(seed, 240 + s));
                    templates.push(dag_template(dwt_chain, input, cfg)?);
                }
                let faults = FaultPlan::none().with_tpu_miscalibration(2.0, 0.5);
                for b in [Benchmark::Sobel, Benchmark::MeanFilter] {
                    for s in 0..4u64 {
                        let inputs = Arc::new(b.generate_inputs(n, n, mix(seed, 250 + s)));
                        let (exact, base) = exact_and_baseline(b, &inputs, parts)?;
                        templates.push(vop_template(
                            b,
                            &inputs,
                            cfg,
                            Some(GUARD_MAPE),
                            faults.clone(),
                            &exact,
                            base,
                        )?);
                    }
                }
            }
        }
        Ok(Workload {
            kind,
            templates,
            seed,
        })
    }

    /// The template and class of request `j` of a stream.
    pub fn pick(&self, rng: &mut Pcg32, j: usize) -> (usize, Priority) {
        match self.kind {
            Kind::FleetSmall => {
                let t = rng.gen_range(0..self.templates.len());
                // Interactive : Batch : BestEffort = 1 : 2 : 1.
                let class = match rng.gen_range(0..4usize) {
                    0 => Priority::Interactive,
                    3 => Priority::BestEffort,
                    _ => Priority::Batch,
                };
                (t, class)
            }
            // Alternating QAWS-TS and even distribution.
            Kind::BatchLarge => (
                2 * rng.gen_range(0..self.templates.len() / 2) + j % 2,
                Priority::Batch,
            ),
            // Half DAG programs, half guarded VOPs, drawn independently:
            // runs of guarded VOPs on one node are what trip its TPU
            // breaker, so the draw must not alternate.
            Kind::PipelineGuarded => (rng.gen_range(0..self.templates.len()), Priority::Batch),
        }
    }

    /// A stream of picks for one client.
    pub fn stream(&self, salt: u64) -> Pcg32 {
        Pcg32::seed_from_u64(mix(self.seed, 1_000 + salt))
    }

    /// Every template's reference statistics and digest, bit for bit —
    /// equal across independent set-ups of the same seed.
    pub fn signature(&self) -> Vec<(u64, Option<u64>, [u64; 8])> {
        self.templates
            .iter()
            .map(|t| {
                let s = t.reference.sim;
                let bits = [
                    s.makespan_s,
                    s.tpu_fraction,
                    s.steals,
                    s.bus_bytes,
                    s.sched_overhead_s,
                    s.repairs,
                    s.pages,
                    s.mape,
                ]
                .map(f64::to_bits);
                (t.reference.digest, t.reference.degraded_digest, bits)
            })
            .collect()
    }
}

/// The fleet every workload uses: two nodes of one executor each, with
/// hedging and shedding on and the default retry budget.
pub fn fleet() -> ClusterRouter {
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.nodes = (0..NODES)
        .map(|_| {
            NodeConfig::new(ServerConfig {
                executors: 1,
                ..ServerConfig::default()
            })
        })
        .collect();
    cfg.hedge.enabled = true;
    cfg.shed.enabled = true;
    ClusterRouter::new(cfg)
}

/// How one routed request resolved.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A response whose output passed its check.
    Ok(Served),
    /// A response whose output failed its check.
    Wrong(String),
    /// Shed by the router's admission control.
    Shed,
    /// Any other typed error.
    Failed(String),
}

/// A checked response.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Winning node's admission-queue wait, seconds.
    pub queue_wait_s: f64,
    /// Winning node's service time, seconds.
    pub service_s: f64,
    /// Dispatch tries.
    pub tries: usize,
    /// Whether a hedge was launched.
    pub hedged: bool,
    /// Whether the hedge won.
    pub hedge_won: bool,
    /// Whether the response came from fewer devices than asked.
    pub degraded: bool,
    /// Its virtual-time statistics.
    pub sim: SimSample,
}

/// One offered request (times in seconds since the phase epoch).
#[derive(Debug, Clone)]
pub struct Record {
    /// Request id within the phase.
    pub id: u64,
    /// Template index.
    pub template: usize,
    /// When it was due (open loop) or sent (closed loop).
    pub due_s: f64,
    /// When the sender called `route`.
    pub sent_s: f64,
    /// When `route` returned.
    pub done_s: f64,
    /// How it resolved.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the scheduled send (open loop) or the call.
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.due_s
    }
}

/// Arena page counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArenaDelta {
    /// Pages served from the pool.
    pub hits: u64,
    /// Pages freshly allocated.
    pub misses: u64,
    /// Pages freed because the pool was full.
    pub dropped: u64,
}

/// Everything one measured phase observed.
pub struct Phase {
    /// The phase's time origin.
    pub epoch: Instant,
    /// Every resolved request, in completion order.
    pub records: Vec<Record>,
    /// Requests offered.
    pub offered: usize,
    /// Wall seconds from the first scheduled send to the last return.
    pub wall_s: f64,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    /// Arena counters over the phase.
    pub arena: ArenaDelta,
    /// Route and serve spans, when traced.
    pub spans: SpanLog,
}

impl Phase {
    /// Outcome counts.
    pub fn tally(&self) -> Tally {
        let mut t = Tally {
            offered: self.offered,
            ..Tally::default()
        };
        for r in &self.records {
            match r.outcome {
                Outcome::Ok(_) => t.ok += 1,
                Outcome::Wrong(_) => t.wrong += 1,
                Outcome::Shed => t.shed += 1,
                Outcome::Failed(_) => t.failed += 1,
            }
        }
        t
    }

    /// Checked responses.
    pub fn served(&self) -> impl Iterator<Item = (&Record, &Served)> {
        self.records.iter().filter_map(|r| match &r.outcome {
            Outcome::Ok(s) => Some((r, s)),
            _ => None,
        })
    }
}

/// Routes one prebuilt request. The closure hands the prebuilt request
/// over on the first dispatch; only a retry or hedge builds another.
fn route(
    router: &ClusterRouter,
    template: &Template,
    priority: Priority,
    prebuilt: Request,
) -> Result<shmt_cluster::ClusterResponse, ClusterError> {
    let slot = Cell::new(Some(prebuilt));
    let make = || slot.take().unwrap_or_else(|| template.build());
    router.route(template.options(priority), &make)
}

/// Checks a routed result; runs after the latency is taken.
fn judge(
    template: &Template,
    result: Result<shmt_cluster::ClusterResponse, ClusterError>,
) -> Outcome {
    match result {
        Ok(cr) => {
            let outcome = match template.check(&cr.response) {
                Ok(sim) => Outcome::Ok(Served {
                    queue_wait_s: cr.response.queue_wait.as_secs_f64(),
                    service_s: cr.response.service_time.as_secs_f64(),
                    tries: cr.tries,
                    hedged: cr.hedged,
                    hedge_won: cr.hedge_won,
                    degraded: cr.response.degraded,
                    sim,
                }),
                Err(e) => Outcome::Wrong(e),
            };
            shmt::arena::recycle_report(cr.response.report);
            outcome
        }
        Err(ClusterError::Shed { .. }) => Outcome::Shed,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Appends a request's route span and its serve children.
fn trace_route(log: &mut SpanLog, r: &Record) {
    let route = log.push("route", r.sent_s, r.done_s, None, r.id);
    if let Outcome::Ok(s) = &r.outcome {
        log.push_children(
            route,
            &[
                ("serve.queue_wait", s.queue_wait_s),
                ("serve.service", s.service_s),
            ],
        );
    }
}

/// Per-client results joined into one phase; a client that died leaves
/// its requests unresolved, which the tally counts as lost.
fn gather(
    parts: Vec<std::thread::Result<(Vec<Record>, SpanLog)>>,
    offered: usize,
    start: (Instant, f64, shmt::arena::ArenaStats),
) -> Result<Phase, String> {
    let (epoch, cpu0, arena0) = start;
    let wall_s = epoch.elapsed().as_secs_f64();
    let cpu_s = crate::stats::process_cpu_seconds()? - cpu0;
    let arena1 = shmt::arena::stats();
    let mut records = Vec::new();
    let mut spans = SpanLog::default();
    for (r, s) in parts.into_iter().flatten() {
        records.extend(r);
        spans.append(s);
    }
    records.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    Ok(Phase {
        epoch,
        records,
        offered,
        wall_s,
        cpu_s,
        arena: ArenaDelta {
            hits: arena1.hits - arena0.hits,
            misses: arena1.misses - arena0.misses,
            dropped: arena1.dropped - arena0.dropped,
        },
        spans,
    })
}

fn phase_start() -> Result<(Instant, f64, shmt::arena::ArenaStats), String> {
    let cpu0 = crate::stats::process_cpu_seconds()?;
    let arena0 = shmt::arena::stats();
    Ok((Instant::now(), cpu0, arena0))
}

/// Open loop: Poisson arrivals at [`FLEET_RATE_RPS`] over `seconds`,
/// alternately assigned to [`CLIENTS`] sender threads. Each request is
/// built before its scheduled send; latency runs from the schedule.
pub fn open_loop(
    router: &ClusterRouter,
    wl: &Workload,
    seconds: f64,
    salt: u64,
    traced: bool,
) -> Result<Phase, String> {
    let cap = (FLEET_RATE_RPS * seconds * 2.0) as usize + 64;
    let arrivals: Vec<f64> = shmt_cluster::loadgen::arrival_times(
        shmt_cluster::loadgen::ArrivalProcess::Poisson {
            rate: FLEET_RATE_RPS,
        },
        cap,
        mix(wl.seed, 2_000 + salt),
    )
    .into_iter()
    .take_while(|&t| t < seconds)
    .collect();
    let mut rng = wl.stream(salt);
    let picks: Vec<(usize, Priority)> = (0..arrivals.len()).map(|j| wl.pick(&mut rng, j)).collect();
    let start = phase_start()?;
    let epoch = start.0;
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let (arrivals, picks) = (&arrivals, &picks);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut log = SpanLog::default();
                    for i in (k..arrivals.len()).step_by(CLIENTS) {
                        let (ti, priority) = picks[i];
                        let template = &wl.templates[ti];
                        let request = template.build();
                        let due = epoch + Duration::from_secs_f64(arrivals[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent_s = epoch.elapsed().as_secs_f64();
                        let result = route(router, template, priority, request);
                        let done_s = epoch.elapsed().as_secs_f64();
                        let record = Record {
                            id: i as u64,
                            template: ti,
                            due_s: arrivals[i],
                            sent_s,
                            done_s,
                            outcome: judge(template, result),
                        };
                        if traced {
                            trace_route(&mut log, &record);
                        }
                        records.push(record);
                    }
                    (records, log)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    gather(parts, arrivals.len(), start)
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Callers send no new request after this many seconds.
    After(f64),
    /// Callers send this many requests between them.
    Count(usize),
}

/// Closed loop: [`CLIENTS`] callers, each sending its next request when
/// the previous one returns. Latency runs from the call.
pub fn closed_loop(
    router: &ClusterRouter,
    wl: &Workload,
    stop: Stop,
    salt: u64,
    traced: bool,
) -> Result<Phase, String> {
    let offered = AtomicUsize::new(0);
    let start = phase_start()?;
    let epoch = start.0;
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let offered = &offered;
                scope.spawn(move || {
                    let mut rng = wl.stream(salt * CLIENTS as u64 + c as u64);
                    let mut records = Vec::new();
                    let mut log = SpanLog::default();
                    for j in 0.. {
                        let more = match stop {
                            Stop::After(s) => epoch.elapsed().as_secs_f64() < s,
                            Stop::Count(n) => offered.fetch_add(1, Ordering::Relaxed) < n,
                        };
                        if !more {
                            break;
                        }
                        let (ti, priority) = wl.pick(&mut rng, j);
                        let template = &wl.templates[ti];
                        let request = template.build();
                        if matches!(stop, Stop::After(_)) {
                            offered.fetch_add(1, Ordering::Relaxed);
                        }
                        let sent_s = epoch.elapsed().as_secs_f64();
                        let result = route(router, template, priority, request);
                        let done_s = epoch.elapsed().as_secs_f64();
                        let record = Record {
                            id: ((c as u64) << 32) | j as u64,
                            template: ti,
                            due_s: sent_s,
                            sent_s,
                            done_s,
                            outcome: judge(template, result),
                        };
                        if traced {
                            trace_route(&mut log, &record);
                        }
                        records.push(record);
                    }
                    (records, log)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let offered = match stop {
        Stop::After(_) => offered.load(Ordering::Relaxed),
        Stop::Count(n) => n,
    };
    gather(parts, offered, start)
}

/// Runs the workload's own driver for `seconds`.
pub fn measure(
    router: &ClusterRouter,
    wl: &Workload,
    seconds: f64,
    salt: u64,
    traced: bool,
) -> Result<Phase, String> {
    if wl.kind.open_loop() {
        open_loop(router, wl, seconds, salt, traced)
    } else {
        closed_loop(router, wl, Stop::After(seconds), salt, traced)
    }
}

/// Requests routed to warm the fleet before timing: enough for the
/// router's hedge delay to leave its cold-start ceiling (64 samples)
/// and for the arena's page and spine pools to fill.
pub fn warm_up(router: &ClusterRouter, wl: &Workload) -> Result<Phase, String> {
    closed_loop(router, wl, Stop::Count(96), 0, false)
}
