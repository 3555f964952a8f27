//! Routed end-to-end benchmark of the SHMT fleet, one command per
//! workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_small|batch_large|pipeline_guarded> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every request goes through `ClusterRouter::route` (router → node
//! `Server` → `ShmtRuntime` / `VopDag` → guard) and every response is
//! checked. `--trace 0` measures the end-to-end metrics untraced;
//! `--trace 1` is a separate pass that attributes host time to layers
//! by timing the benchmark's own calls into each layer's public
//! functions, and writes its spans to `perfbench/out/`. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod replay;
mod spans;
mod stats;
mod workload;

use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::Instant;

use shmt_cluster::ClusterRouter;
use shmt_trace::json::{JsonValue, ObjectBuilder};

use replay::Replay;
use stats::{median, percentile_of, windowed_p99, Tally};
use workload::{fleet, measure, warm_up, Kind, Phase, SimSample, Workload};

/// Independent set-ups per untraced run, `setup_s` being their median:
/// at least [`MIN_SETUPS`], and more while their total is under
/// [`SETUP_BUDGET_S`], so a millisecond set-up is not one timer read.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Requests replayed layer by layer in the traced run.
const REPLAYS: usize = 24;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| {
                    format!("unknown workload {value}; expected fleet_small, batch_large or pipeline_guarded")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => {
                return Err(format!(
                    "unknown flag {flag}; accepted: --workload --seed --seconds --trace"
                ))
            }
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run prints.
struct Output {
    notes: Vec<String>,
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(out) => {
            for note in &out.notes {
                println!("{note}");
            }
            let metrics =
                out.metrics
                    .iter()
                    .fold(ObjectBuilder::new(), |o, &(name, value, unit)| {
                        o.field(
                            name,
                            ObjectBuilder::new()
                                .field("value", JsonValue::Number(value))
                                .field("unit", JsonValue::String(unit.to_owned()))
                                .build(),
                        )
                    });
            let result = ObjectBuilder::new()
                .field("correct", JsonValue::Bool(out.correct))
                .field("attempted", JsonValue::Number(out.tally.offered as f64))
                .field("failed", JsonValue::Number(out.tally.not_ok() as f64))
                .field("metrics", metrics.build())
                .build();
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, process_start: Instant) -> Result<Output, String> {
    let mut notes = vec![format!(
        "perfbench {} seed {} seconds {} trace {} (available_parallelism {})",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )];
    let mut problems = Vec::new();

    // Set-up (fleet, inputs, references, warm-up), repeated so setup_s is
    // a median; the last one is measured. Every set-up of one seed must
    // reproduce the same references bit for bit.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut signature = None;
    let mut kept: Option<(Workload, ClusterRouter)> = None;
    while setup_s.is_empty()
        || (!args.trace
            && setup_s.len() < MAX_SETUPS
            && (setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S))
    {
        let t0 = if setup_s.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        drop(kept.take());
        let wl = Workload::new(args.kind, args.seed)?;
        let router = fleet();
        let warm = warm_up(&router, &wl)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let t = warm.tally();
        if t.wrong > 0 {
            problems.push(format!("{} wrong outputs during warm-up", t.wrong));
        }
        let sig = wl.signature();
        match &signature {
            None => signature = Some(sig),
            Some(s) if *s != sig => {
                problems.push("references differ between set-ups of one seed".to_owned())
            }
            Some(_) => {}
        }
        kept = Some((wl, router));
    }
    let (wl, router) = kept.ok_or("no set-up ran")?;

    let (tally, metrics) = if args.trace {
        traced_run(args, &wl, &router, &mut notes, &mut problems)?
    } else {
        let phase = measure(&router, &wl, args.seconds, 1, false)?;
        let measured = end_to_end(&phase, &setup_s, &mut notes)?;
        report_checks(&wl, &[&phase], measured.0, &mut notes, &mut problems);
        measured
    };
    for p in &problems {
        notes.push(format!("CHECK FAILED: {p}"));
    }
    Ok(Output {
        notes,
        correct: problems.is_empty(),
        tally,
        metrics,
    })
}

/// Latencies of checked responses, in completion order, milliseconds.
fn latencies_ms(phase: &Phase) -> Vec<f64> {
    phase.served().map(|(r, _)| r.latency_s() * 1e3).collect()
}

fn end_to_end(
    phase: &Phase,
    setup_s: &[f64],
    notes: &mut Vec<String>,
) -> Result<(Tally, Vec<Metric>), String> {
    let tally = phase.tally();
    let lat = latencies_ms(phase);
    let p50 = percentile_of(&lat, 50.0).ok_or("no request completed")?;
    let completed = (tally.ok + tally.wrong).max(1) as f64;
    notes.push(format!(
        "latency: {} samples; p50 {:.4} ms; {}",
        lat.len(),
        p50.value,
        tail_note(&lat)
    ));
    let setup = median(setup_s).ok_or("no set-up")?;
    notes.push(format!(
        "outcomes: offered {} ok {} wrong {} shed {} failed {} lost {} over {:.3} s wall; \
         {} set-ups, median {setup:.4} s",
        tally.offered,
        tally.ok,
        tally.wrong,
        tally.shed,
        tally.failed,
        tally.lost(),
        phase.wall_s,
        setup_s.len(),
    ));
    let metrics = vec![
        ("setup_s", setup, "s"),
        ("latency_p50_ms", p50.value, "ms"),
        ("throughput_rps", completed / phase.wall_s, "1/s"),
        ("cpu_ms_per_req", phase.cpu_s * 1e3 / completed, "ms"),
        ("peak_rss_mb", stats::peak_rss_mb()?, "MiB"),
    ];
    Ok((tally, metrics))
}

/// The tail latency: the windowed p99 when the sample supports one with
/// ten samples beyond it, else the plain p99 flagged as unsupported.
fn tail_ms(lat: &[f64]) -> f64 {
    windowed_p99(lat).map_or_else(|| p_ms(lat, 99.0), |t| t.value)
}

fn tail_note(lat: &[f64]) -> String {
    match windowed_p99(lat) {
        Some(t) => format!(
            "p99 {:.4} ms = median of {} window p99s (>= {} samples each, >= {} beyond each p99)",
            t.value,
            t.windows,
            stats::TAIL_WINDOW,
            t.min_beyond
        ),
        None => format!(
            "p99 {:.4} ms has fewer than {} samples beyond it",
            p_ms(lat, 99.0),
            stats::MIN_BEYOND
        ),
    }
}

/// The paper's result in virtual time plus the simulator's statistics,
/// aggregated over the workload's templates (each template weighs as
/// much as the mix draws it). Deterministic workloads use the set-up
/// references, which every served response was checked to equal; the
/// breaker-driven workload averages what was actually served.
struct Virtual {
    sim: SimSample,
    speedup: f64,
}

fn virtual_summary(wl: &Workload, phases: &[&Phase]) -> Virtual {
    let per_template: Vec<SimSample> = wl
        .templates
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if wl.kind.deterministic() {
                return t.reference.sim;
            }
            let served: Vec<SimSample> = phases
                .iter()
                .flat_map(|p| p.served())
                .filter(|(r, _)| r.template == i)
                .map(|(_, s)| s.sim)
                .collect();
            SimSample::mean(&served).unwrap_or(t.reference.sim)
        })
        .collect();
    let logs: Vec<f64> = wl
        .templates
        .iter()
        .zip(&per_template)
        .filter_map(|(t, s)| t.reference.baseline_s.map(|b| (b / s.makespan_s).ln()))
        .collect();
    Virtual {
        sim: SimSample::mean(&per_template).unwrap_or_default(),
        speedup: (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp(),
    }
}

fn report_checks(
    wl: &Workload,
    phases: &[&Phase],
    tally: Tally,
    notes: &mut Vec<String>,
    problems: &mut Vec<String>,
) {
    let wrong: Vec<&str> = phases
        .iter()
        .flat_map(|p| &p.records)
        .filter_map(|r| match &r.outcome {
            workload::Outcome::Wrong(e) => Some(e.as_str()),
            _ => None,
        })
        .collect();
    if let Some(first) = wrong.first() {
        problems.push(format!("{} wrong outputs; first: {first}", wrong.len()));
    }
    let v = virtual_summary(wl, phases);
    notes.push(format!(
        "virtual: makespan {:.6} ms, speedup {:.4}x over the GPU baseline, mape {:.6}, \
         tpu fraction {:.4}",
        v.sim.makespan_s * 1e3,
        v.speedup,
        v.sim.mape,
        v.sim.tpu_fraction,
    ));
    let served: usize = phases.iter().map(|p| p.served().count()).sum();
    notes.push(if wl.kind.deterministic() {
        // Equal fingerprints across runs of one seed show the reported
        // virtual and sim.* values repeat exactly.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (wl.signature(), v.speedup.to_bits(), v.sim.mape.to_bits()).hash(&mut h);
        format!(
            "determinism: virtual-time and sim.* values identical across every set-up of seed {} \
             and all {served} checked responses; fingerprint {:016x}",
            wl.seed,
            h.finish()
        )
    } else {
        "determinism: not asserted for pipeline_guarded; its serve health breaker masks the \
         TPU depending on wall-clock interleaving, so virtual metrics average served responses"
            .to_owned()
    });
    if tally.not_ok() > 0 {
        let first = phases
            .iter()
            .flat_map(|p| &p.records)
            .find_map(|r| match &r.outcome {
                workload::Outcome::Failed(e) => Some(e.as_str()),
                _ => None,
            });
        notes.push(format!(
            "failures: {} of {} offered did not return a correct output; first error: {}",
            tally.not_ok(),
            tally.offered,
            first.unwrap_or("none"),
        ));
    }
}

/// Node counters the traced phase reads, summed over the fleet.
#[derive(Debug, Clone, Copy, Default)]
struct NodeCounts {
    quarantines: f64,
    dag_requests: f64,
    fused: f64,
    resident_edges: f64,
    resident_bus_bytes: f64,
    naive_bus_bytes: f64,
}

impl NodeCounts {
    fn read(router: &ClusterRouter) -> NodeCounts {
        let sum = |name: &str| -> f64 {
            (0..router.node_count())
                .map(|id| router.node_metrics(id).counter(name))
                .sum()
        };
        NodeCounts {
            quarantines: sum("health.quarantine"),
            dag_requests: sum("dag.requests"),
            fused: sum("dag.fused"),
            resident_edges: sum("dag.resident_edges"),
            resident_bus_bytes: sum("dag.resident_bus_bytes"),
            naive_bus_bytes: sum("dag.naive_bus_bytes"),
        }
    }

    fn since(self, before: NodeCounts) -> NodeCounts {
        NodeCounts {
            quarantines: self.quarantines - before.quarantines,
            dag_requests: self.dag_requests - before.dag_requests,
            fused: self.fused - before.fused,
            resident_edges: self.resident_edges - before.resident_edges,
            resident_bus_bytes: self.resident_bus_bytes - before.resident_bus_bytes,
            naive_bus_bytes: self.naive_bus_bytes - before.naive_bus_bytes,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn p_ms(samples: &[f64], p: f64) -> f64 {
    percentile_of(samples, p).map_or(0.0, |q| q.value)
}

fn traced_run(
    args: &Args,
    wl: &Workload,
    router: &ClusterRouter,
    notes: &mut Vec<String>,
    problems: &mut Vec<String>,
) -> Result<(Tally, Vec<Metric>), String> {
    // A third untraced, two thirds traced: the difference in p50 is the
    // tracing cost, and the traced part keeps enough responses for a
    // supported p99.
    let plain = measure(router, wl, args.seconds / 3.0, 1, false)?;
    let before = NodeCounts::read(router);
    let mut traced = measure(router, wl, args.seconds * 2.0 / 3.0, 2, true)?;
    let nodes = NodeCounts::read(router).since(before);
    let tally = traced.tally();
    report_checks(wl, &[&plain, &traced], tally, notes, problems);
    let served: Vec<_> = traced
        .served()
        .map(|(r, s)| (r.id, r.template, *s))
        .collect();
    let n_ok = served.len() as f64;

    // Replay a spread of served requests on the now idle fleet.
    let step = (served.len() / REPLAYS).max(1);
    let mut vops = Vec::new();
    let mut dags = Vec::new();
    for &(id, template, _) in served.iter().step_by(step).take(REPLAYS) {
        match replay::replay(&wl.templates[template], id, &mut traced.spans, traced.epoch) {
            Ok(Replay::Vop(v)) => vops.push(v),
            Ok(Replay::Dag(s)) => dags.push(s),
            Err(e) => problems.push(format!("replay of request {id}: {e}")),
        }
    }
    let exec_spans = traced.spans.named("core.execute");
    let other_ms: Vec<f64> = exec_spans.iter().map(|&(_, own)| own * 1e3).collect();
    let sum_err: Vec<f64> = vops
        .iter()
        .zip(&exec_spans)
        .map(|(v, &(dur, own))| {
            let parts = v.partition_s + v.plan_s + v.exact_s + v.npu_s + v.guard_s + own;
            ratio((parts - dur).abs(), dur)
        })
        .collect();
    let field =
        |f: fn(&replay::VopReplay) -> f64| mean(&vops.iter().map(f).collect::<Vec<_>>()) * 1e3;
    let guard_ms: Vec<f64> = vops
        .iter()
        .filter(|v| v.guarded)
        .map(|v| v.guard_s * 1e3)
        .collect();
    let exact_elems: usize = vops.iter().map(|v| v.exact_elems).sum();
    let npu_elems: usize = vops.iter().map(|v| v.npu_elems).sum();
    let exact_s: f64 = vops.iter().map(|v| v.exact_s).sum();
    let npu_s: f64 = vops.iter().map(|v| v.npu_s).sum();
    notes.push(format!(
        "layer-sum check: partition + plan + exact + npu + guard + runtime_other reconstructs \
         core.execute within {:.2}% on average over {} VOP replays ({} DAG replays)",
        mean(&sum_err) * 100.0,
        vops.len(),
        dags.len(),
    ));

    let route_self: Vec<f64> = traced
        .spans
        .named("route")
        .iter()
        .map(|&(_, own)| own * 1e3)
        .collect();
    let queue: Vec<f64> = served
        .iter()
        .map(|(_, _, s)| s.queue_wait_s * 1e3)
        .collect();
    let service: Vec<f64> = served.iter().map(|(_, _, s)| s.service_s * 1e3).collect();
    let lag: Vec<f64> = traced
        .records
        .iter()
        .map(|r| (r.sent_s - r.due_s) * 1e3)
        .collect();
    let hedged = served.iter().filter(|(_, _, s)| s.hedged).count() as f64;
    let hedge_wins = served.iter().filter(|(_, _, s)| s.hedge_won).count() as f64;
    let retried = served.iter().filter(|(_, _, s)| s.tries > 1).count() as f64;
    let degraded = served.iter().filter(|(_, _, s)| s.degraded).count() as f64;
    let offered = tally.offered as f64;
    let overhead = ratio(
        p_ms(&latencies_ms(&traced), 50.0),
        p_ms(&latencies_ms(&plain), 50.0),
    ) - 1.0;
    let v = virtual_summary(wl, &[&plain, &traced]);
    let arena = traced.arena;

    let path = format!(
        "{}/out/trace_{}_{}.json",
        env!("CARGO_MANIFEST_DIR"),
        wl.kind.name(),
        args.seed
    );
    std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&path, traced.spans.to_chrome_json()))
        .map_err(|e| format!("write {path}: {e}"))?;
    notes.push(format!(
        "trace: {} spans written to {path}",
        traced.spans.len()
    ));
    let lat = latencies_ms(&traced);
    notes.push(format!(
        "traced latency: {} samples; {}",
        lat.len(),
        tail_note(&lat)
    ));

    let metrics = vec![
        ("failed_frac", tally.failed_frac(), "frac"),
        ("latency_p99_ms", tail_ms(&lat), "ms"),
        ("latency_samples", lat.len() as f64, "count"),
        ("virtual_makespan_ms", v.sim.makespan_s * 1e3, "ms"),
        ("virtual_speedup", v.speedup, "x"),
        ("mape", v.sim.mape, "frac"),
        ("cluster.route_self_ms_p50", p_ms(&route_self, 50.0), "ms"),
        ("cluster.route_self_ms_p99", p_ms(&route_self, 99.0), "ms"),
        ("cluster.hedge_frac", ratio(hedged, n_ok), "frac"),
        ("cluster.hedge_win_frac", ratio(hedge_wins, hedged), "frac"),
        ("cluster.retry_frac", ratio(retried, offered), "frac"),
        (
            "cluster.shed_frac",
            ratio(tally.shed as f64, offered),
            "frac",
        ),
        ("serve.queue_wait_ms_p50", p_ms(&queue, 50.0), "ms"),
        ("serve.queue_wait_ms_p99", p_ms(&queue, 99.0), "ms"),
        ("serve.service_ms_p50", p_ms(&service, 50.0), "ms"),
        ("serve.quarantines", nodes.quarantines, "count"),
        ("serve.degraded_frac", ratio(degraded, n_ok), "frac"),
        ("core.execute_ms", field(|r| r.execute_s), "ms"),
        ("core.partition_ms", field(|r| r.partition_s), "ms"),
        ("core.plan_ms", field(|r| r.plan_s), "ms"),
        ("core.runtime_other_ms", mean(&other_ms), "ms"),
        ("core.guard_ms", mean(&guard_ms), "ms"),
        ("core.dag_run_ms", mean(&dags) * 1e3, "ms"),
        (
            "dag.fused_stages",
            ratio(nodes.fused, nodes.dag_requests),
            "count",
        ),
        (
            "dag.resident_edges",
            ratio(nodes.resident_edges, nodes.dag_requests),
            "count",
        ),
        (
            "dag.bus_saved_frac",
            ratio(
                nodes.naive_bus_bytes - nodes.resident_bus_bytes,
                nodes.naive_bus_bytes,
            ),
            "frac",
        ),
        ("kernels.exact_ms", field(|r| r.exact_s), "ms"),
        (
            "kernels.exact_ns_per_elem",
            ratio(exact_s, exact_elems as f64) * 1e9,
            "ns",
        ),
        ("kernels.npu_ms", field(|r| r.npu_s), "ms"),
        (
            "kernels.npu_ns_per_elem",
            ratio(npu_s, npu_elems as f64) * 1e9,
            "ns",
        ),
        (
            "kernels.npu_overhead_ms",
            field(|r| r.npu_s - r.npu_as_exact_s),
            "ms",
        ),
        (
            "tensor.arena_hit_frac",
            ratio(arena.hits as f64, (arena.hits + arena.misses) as f64),
            "frac",
        ),
        ("tensor.arena_dropped", arena.dropped as f64, "count"),
        ("sim.tpu_fraction", v.sim.tpu_fraction, "frac"),
        ("sim.steals_per_req", v.sim.steals, "count"),
        (
            "sim.bus_mb_per_req",
            v.sim.bus_bytes / (1024.0 * 1024.0),
            "MiB",
        ),
        ("sim.sched_overhead_ms", v.sim.sched_overhead_s * 1e3, "ms"),
        ("sim.guard_repairs_per_req", v.sim.repairs, "count"),
        ("sim.guard_pages_per_req", v.sim.pages, "count"),
        ("loadgen.lag_p99_ms", p_ms(&lag, 99.0), "ms"),
        ("trace.overhead_frac", overhead, "frac"),
        ("trace.layer_sum_error_frac", mean(&sum_err), "frac"),
    ];
    Ok((tally, metrics))
}
