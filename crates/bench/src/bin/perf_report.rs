//! Machine-readable kernel performance report.
//!
//! ```text
//! cargo run --release -p shmt-bench --bin perf_report
//! cargo run --release -p shmt-bench --bin perf_report -- --smoke
//! ```
//!
//! Benches every benchmark kernel's exact and NPU paths at two dataset
//! sizes, the naive reference implementations of Mean Filter and Sobel
//! (to quantify the interior/halo fast-path speedup), and one end-to-end
//! `ShmtRuntime::execute`, then writes the results as JSON:
//!
//! ```text
//! { "<bench>": { "best_ns": N, "mean_ns": N, "iters": N }, ... }
//! ```
//!
//! Two non-timing sections ride along: a `kernel/<b>/npu_differs` flag
//! per benchmark (the exact and NPU paths may legitimately converge in
//! *time* — Histogram's NPU path is a full exact accumulation plus a
//! 256-bin snap — so the report proves the paths are really different by
//! comparing their *outputs*), and a `serve/rps` section measuring warm
//! `shmt_serve::Server` throughput over mixed requests, self-validated
//! against [`RPS_FLOOR_SMOKE`] or [`RPS_FLOOR_FULL`] via the
//! `rps_above_floor` field that CI greps.
//!
//! The default output is `BENCH_kernels.json` at the repository root —
//! commit it alongside performance PRs so reports can be diffed across
//! commits. `--smoke` runs a small, fast configuration and writes to
//! `results/BENCH_kernels_smoke.json` instead (the CI gate); `--out PATH`
//! overrides either default. Every file is re-read and validated with the
//! workspace's own JSON parser before the run reports success.

use std::time::{Duration, Instant};

use shmt::sampling::SamplingMethod;
use shmt::{Platform, Policy, QawsAssignment, RuntimeConfig, ShmtRuntime, Vop};
use shmt_bench::harness::{Group, Measurement};
use shmt_kernels::reference::naive_kernel;
use shmt_kernels::{Benchmark, ALL_BENCHMARKS};
use shmt_serve::{Request, Server, ServerConfig};
use shmt_tensor::tile::Tile;
use shmt_tensor::Tensor;
use shmt_trace::json::{JsonValue, ObjectBuilder};

/// Minimum warm-server throughput (mixed Sobel / Mean Filter / FFT
/// requests) the `--smoke` report will certify: half the slowest of 12
/// smoke runs on a 2-vCPU x86-64 host (3187–6175 req/s, portable
/// build), so a serve path that gets twice as slow fails the gate.
const RPS_FLOOR_SMOKE: f64 = 1590.0;
/// The same floor for the full-size report, whose requests are 256²
/// instead of 128²: half the slowest of 10 full runs on the same host
/// (1203–2365 req/s).
const RPS_FLOOR_FULL: f64 = 600.0;

struct Opts {
    smoke: bool,
    out: Option<String>,
}

fn parse_opts(args: impl Iterator<Item = String>) -> Opts {
    let mut opts = Opts {
        smoke: false,
        out: None,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => {
                opts.out = Some(args.next().unwrap_or_else(|| panic!("--out needs a path")));
            }
            other => panic!("unknown flag {other}; accepted: --smoke --out"),
        }
    }
    opts
}

fn full_tile(n: usize) -> Tile {
    Tile {
        index: 0,
        row0: 0,
        col0: 0,
        rows: n,
        cols: n,
    }
}

/// Warm-server requests-per-second over a mixed workload.
struct ServeRps {
    requests: usize,
    wall_s: f64,
    requests_per_s: f64,
    floor: f64,
}

fn to_json(
    measurements: &[Measurement],
    npu_flags: &[(Benchmark, bool)],
    rps: &ServeRps,
) -> JsonValue {
    let mut root = ObjectBuilder::new();
    for m in measurements {
        root = root.field(
            &m.name,
            ObjectBuilder::new()
                .field("best_ns", JsonValue::Number(m.best_ns as f64))
                .field("mean_ns", JsonValue::Number(m.mean_ns as f64))
                .field("iters", JsonValue::Number(f64::from(m.iters)))
                .build(),
        );
    }
    for (b, differs) in npu_flags {
        root = root.field(
            &format!("kernel/{b}/npu_differs"),
            JsonValue::Bool(*differs),
        );
    }
    root.field(
        "serve/rps",
        ObjectBuilder::new()
            .field("requests", JsonValue::Number(rps.requests as f64))
            .field("wall_s", JsonValue::Number(rps.wall_s))
            .field("requests_per_s", JsonValue::Number(rps.requests_per_s))
            .field("floor", JsonValue::Number(rps.floor))
            .field(
                "rps_above_floor",
                JsonValue::Bool(rps.requests_per_s > rps.floor),
            )
            .build(),
    )
    .build()
}

/// Times the serve path end to end: a warm [`Server`] handling mixed
/// Sobel / Mean Filter / FFT requests sequentially through the public
/// `submit_blocking` API. Warm-up requests (which grow the arenas and
/// spin up executors) run before the clock starts; timed requests are
/// pre-built so construction cost stays outside the window.
fn serve_rps(smoke: bool) -> ServeRps {
    let (requests, warmup, n, partitions, floor) = if smoke {
        (6, 3, 128, 8, RPS_FLOOR_SMOKE)
    } else {
        (24, 6, 256, 16, RPS_FLOOR_FULL)
    };
    let server = Server::new(ServerConfig {
        executors: 4,
        queue_capacity: requests,
        ..ServerConfig::default()
    });
    let benches = [Benchmark::Sobel, Benchmark::MeanFilter, Benchmark::Fft];
    let make = |i: usize| {
        let b = benches[i % benches.len()];
        let vop =
            Vop::from_benchmark(b, b.generate_inputs(n, n, 40 + i as u64)).expect("valid VOP");
        let mut config = RuntimeConfig::new(Policy::WorkStealing);
        config.partitions = partitions;
        Request::new(vop, Platform::jetson(b), config)
    };
    for i in 0..warmup {
        server
            .submit_blocking(make(i))
            .expect("server running")
            .wait()
            .expect("warm-up request succeeds");
    }
    let timed: Vec<Request> = (0..requests).map(make).collect();
    let started = Instant::now();
    for req in timed {
        server
            .submit_blocking(req)
            .expect("server running")
            .wait()
            .expect("timed request succeeds");
    }
    let wall_s = started.elapsed().as_secs_f64();
    ServeRps {
        requests,
        wall_s,
        requests_per_s: requests as f64 / wall_s,
        floor,
    }
}

/// Best-time lookup in the serialized report.
fn best_ns(report: &JsonValue, key: &str) -> Option<f64> {
    report.get(key)?.get("best_ns")?.as_f64()
}

fn main() {
    let opts = parse_opts(std::env::args().skip(1));
    let (sizes, batch, samples, default_out): (&[usize], _, _, _) = if opts.smoke {
        (
            &[128],
            Duration::from_millis(5),
            2,
            "results/BENCH_kernels_smoke.json",
        )
    } else {
        (
            &[1024, 2048],
            Duration::from_millis(200),
            5,
            "BENCH_kernels.json",
        )
    };
    let out_path = opts.out.as_deref().unwrap_or(default_out);
    let big = *sizes.last().expect("at least one size");

    let group = Group::with_budget("kernel", batch, samples);
    for &n in sizes {
        let tile = full_tile(n);
        for b in ALL_BENCHMARKS {
            let kernel = b.kernel();
            let inputs = b.generate_inputs(n, n, 1);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let shape = kernel.shape();
            group.bench(&format!("{b}/exact/{n}"), || {
                let mut out = shape.allocate_output(n, n);
                kernel.run_exact(std::hint::black_box(&refs), tile, &mut out);
                out
            });
            group.bench(&format!("{b}/npu/{n}"), || {
                let mut out = shape.allocate_output(n, n);
                kernel.run_npu(std::hint::black_box(&refs), tile, &mut out);
                out
            });
        }
    }

    // The seed-era naive loops, preserved in shmt_kernels::reference:
    // best(reference) / best(exact) is the interior/halo speedup.
    for b in [Benchmark::MeanFilter, Benchmark::Sobel] {
        let kernel = naive_kernel(b);
        let inputs = b.generate_inputs(big, big, 1);
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let shape = kernel.shape();
        let tile = full_tile(big);
        group.bench(&format!("{b}/reference/{big}"), || {
            let mut out = shape.allocate_output(big, big);
            kernel.run_exact(std::hint::black_box(&refs), tile, &mut out);
            out
        });
    }

    // One end-to-end runtime execution: partitioning, QAWS scheduling,
    // all device paths, and aggregation.
    {
        let benchmark = Benchmark::Sobel;
        let inputs = benchmark.generate_inputs(big, big, 1);
        let vop = Vop::from_benchmark(benchmark, inputs).expect("valid VOP");
        let mut cfg = RuntimeConfig::new(Policy::Qaws {
            assignment: QawsAssignment::TopK,
            sampling: SamplingMethod::Striding,
        });
        cfg.partitions = if opts.smoke { 8 } else { 64 };
        let runtime = ShmtRuntime::new(Platform::jetson(benchmark), cfg);
        group.bench(&format!("e2e/{benchmark}/{big}"), || {
            runtime
                .execute(std::hint::black_box(&vop))
                .expect("run succeeds")
        });
    }

    // Output-difference audit (not a timing): run both paths once at the
    // small size and record whether the NPU output actually diverges.
    // Timings alone can't tell the paths apart — Histogram's converge.
    let small = sizes[0];
    let npu_flags: Vec<(Benchmark, bool)> = ALL_BENCHMARKS
        .iter()
        .map(|&b| {
            let kernel = b.kernel();
            let inputs = b.generate_inputs(small, small, 1);
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let shape = kernel.shape();
            let tile = full_tile(small);
            let mut exact = shape.allocate_output(small, small);
            kernel.run_exact(&refs, tile, &mut exact);
            let mut npu = shape.allocate_output(small, small);
            kernel.run_npu(&refs, tile, &mut npu);
            (b, exact.as_slice() != npu.as_slice())
        })
        .collect();

    let rps = serve_rps(opts.smoke);

    let measurements = group.take_measurements();
    let json = to_json(&measurements, &npu_flags, &rps).to_string();
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(out_path, &json).expect("write perf report");

    // Validate the artifact with the workspace's own parser: it must
    // parse, and it must cover every benchmark on both paths.
    let written = std::fs::read_to_string(out_path).expect("re-read perf report");
    let report = JsonValue::parse(&written).expect("perf report is valid JSON");
    for b in ALL_BENCHMARKS {
        for path in ["exact", "npu"] {
            for &n in sizes {
                let key = format!("kernel/{b}/{path}/{n}");
                let best =
                    best_ns(&report, &key).unwrap_or_else(|| panic!("report is missing {key}"));
                assert!(best > 0.0, "{key} has non-positive best time");
            }
        }
        // The NPU path must really be a different computation, whatever
        // its timing row says.
        let differs = report
            .get(&format!("kernel/{b}/npu_differs"))
            .and_then(|v| match v {
                JsonValue::Bool(x) => Some(*x),
                _ => None,
            })
            .unwrap_or_else(|| panic!("report is missing kernel/{b}/npu_differs"));
        assert!(differs, "{b}: npu output is identical to exact output");
    }

    // Serve-path throughput: the section must exist, be positive, and
    // clear the recorded floor — `rps_above_floor` is what CI greps.
    let serve = report.get("serve/rps").expect("serve/rps section present");
    let rps_value = serve
        .get("requests_per_s")
        .and_then(JsonValue::as_f64)
        .expect("requests_per_s present");
    assert!(
        rps_value > rps.floor,
        "serve path ran at {rps_value:.2} req/s, below the {} floor",
        rps.floor
    );
    assert_eq!(
        serve.get("rps_above_floor"),
        Some(&JsonValue::Bool(true)),
        "rps_above_floor must self-validate"
    );
    println!(
        "serve path: {rps_value:.2} req/s over {} warm mixed requests",
        rps.requests
    );

    for b in [Benchmark::MeanFilter, Benchmark::Sobel] {
        let naive = best_ns(&report, &format!("kernel/{b}/reference/{big}"))
            .expect("reference entry present");
        let fast =
            best_ns(&report, &format!("kernel/{b}/exact/{big}")).expect("exact entry present");
        println!(
            "{b}: naive/optimized best-time ratio at {big}x{big}: {:.2}x",
            naive / fast
        );
    }
    println!(
        "perf report written and validated: {out_path} ({} entries)",
        measurements.len()
    );
}
