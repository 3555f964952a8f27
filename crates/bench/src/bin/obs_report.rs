//! Telemetry self-validation for the serving layer (`shmt-serve`).
//!
//! ```text
//! cargo run --release -p shmt-bench --bin obs_report
//! cargo run --release -p shmt-bench --bin obs_report -- --smoke
//! ```
//!
//! Four checks, each of which aborts the bin on failure:
//!
//! 1. **Overhead budget** — the serve workload (mixed Sobel / Mean
//!    Filter / FFT across two policies, closed-loop clients) runs with
//!    telemetry fully off (the `NullSink` path: no observatory, no
//!    flight recorder) and fully on, interleaved, min-of-N wall clock
//!    per mode. Telemetry-on must finish within **5%** of telemetry-off.
//! 2. **Exporter round-trip** — the telemetry-on server's OpenMetrics
//!    exposition must parse with the workspace's own parser and
//!    re-render byte-identically, and its counters must agree with the
//!    served request count.
//! 3. **Flight dumps under faults** — a server with a dump directory
//!    serves seeded dropout and miscalibration requests; at least one
//!    `results/flight_obs_*.json` anomaly dump must appear and parse.
//! 4. **Profile convergence** — per-device EWMA throughput from
//!    [`shmt_serve::Server::observatory`] must visibly track an
//!    injected 4× GPU slowdown (served-throughput ratio well below 1).
//!
//! The default artifact is `BENCH_obs.json` at the repository root;
//! `--smoke` writes `results/BENCH_obs_smoke.json` (the CI gate).
//! Either file is re-read and validated with the workspace's own JSON
//! parser before the run reports success.

use std::sync::Arc;
use std::time::Instant;

use shmt::calibration::{bench_profile, Calibration};
use shmt::sampling::SamplingMethod;
use shmt::sched::{GPU, TPU};
use shmt::{FaultPlan, Platform, Policy, QawsAssignment, RuntimeConfig, Vop};
use shmt_kernels::Benchmark;
use shmt_serve::{BreakerConfig, FlightConfig, Request, Server, ServerConfig, TelemetryConfig};
use shmt_trace::json::{JsonValue, ObjectBuilder};
use shmt_trace::openmetrics::Exposition;

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

/// One request of the mixed workload (same shape as `serve_bench`).
#[derive(Clone, Copy)]
struct Case {
    benchmark: Benchmark,
    seed: u64,
    policy: Policy,
}

fn workload(requests: usize) -> Vec<Case> {
    let benches = [Benchmark::Sobel, Benchmark::MeanFilter, Benchmark::Fft];
    let policies = [
        Policy::WorkStealing,
        Policy::Qaws {
            assignment: QawsAssignment::TopK,
            sampling: SamplingMethod::Striding,
        },
    ];
    (0..requests)
        .map(|i| Case {
            benchmark: benches[i % benches.len()],
            seed: 500 + i as u64,
            policy: policies[i % policies.len()],
        })
        .collect()
}

fn make_request(case: Case, n: usize, partitions: usize) -> Request {
    let vop = Vop::from_benchmark(
        case.benchmark,
        case.benchmark.generate_inputs(n, n, case.seed),
    )
    .expect("valid VOP");
    let mut config = RuntimeConfig::new(case.policy);
    config.partitions = partitions;
    Request::new(vop, Platform::jetson(case.benchmark), config)
}

fn telemetry_off() -> TelemetryConfig {
    TelemetryConfig {
        observatory: false,
        flight: FlightConfig {
            enabled: false,
            ..FlightConfig::default()
        },
        gauge_cap: None,
    }
}

/// Serves the whole workload with closed-loop clients; returns the wall
/// time and the server (for telemetry inspection).
fn serve_workload(
    cases: &[Case],
    n: usize,
    partitions: usize,
    clients: usize,
    telemetry: TelemetryConfig,
) -> (f64, Server) {
    let server = Arc::new(Server::new(ServerConfig {
        executors: 4,
        queue_capacity: cases.len().max(1),
        telemetry,
        ..ServerConfig::default()
    }));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                for (_, case) in cases
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % clients == client)
                {
                    let ticket = server
                        .submit_blocking(make_request(*case, n, partitions))
                        .expect("server running");
                    ticket.wait().expect("request succeeds");
                }
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let server = Arc::into_inner(server).expect("all clients joined");
    (wall_s, server)
}

/// Serves `count` copies of one case on a fresh server under `faults`
/// and returns the GPU's EWMA throughput for that opcode.
///
/// The platform is recalibrated to a deliberately slow GPU (1M work
/// units/s) so per-partition compute dwarfs the fixed launch overhead —
/// otherwise a slowdown window barely moves elements-per-busy-second and
/// the convergence check would be testing launch costs, not profiles.
fn gpu_ewma_under(case: Case, n: usize, partitions: usize, count: usize, faults: FaultPlan) -> f64 {
    let platform = Platform::with_profiles(
        Calibration {
            gpu_throughput: 1.0e6,
            ..Calibration::default()
        },
        bench_profile(case.benchmark),
    );
    let server = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 4,
        // Slowdowns are not strikes, but keep the breaker out of the
        // measurement entirely: this phase profiles throughput only.
        health: BreakerConfig {
            enabled: false,
            ..BreakerConfig::devices()
        },
        ..ServerConfig::default()
    });
    for _ in 0..count {
        let vop = Vop::from_benchmark(
            case.benchmark,
            case.benchmark.generate_inputs(n, n, case.seed),
        )
        .expect("valid VOP");
        let mut config = RuntimeConfig::new(case.policy);
        config.partitions = partitions;
        let req = Request::new(vop, platform.clone(), config).with_faults(faults.clone());
        server
            .submit_blocking(req)
            .expect("server running")
            .wait()
            .expect("request succeeds");
    }
    let obs = server.observatory();
    let profile = obs.profile(GPU).expect("GPU profile exists");
    *profile
        .ewma_throughput
        .get("Sobel")
        .unwrap_or_else(|| panic!("GPU profile has no Sobel EWMA: {profile:?}"))
}

fn remove_stale_dumps(dir: &str, prefix: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().starts_with(prefix) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

fn main() {
    let opts = parse_opts(std::env::args().skip(1));
    let (n, partitions, requests, trials, converge_runs, default_out) = if opts.smoke {
        (128, 8, 16, 3, 6, "results/BENCH_obs_smoke.json")
    } else {
        (256, 16, 24, 5, 12, "BENCH_obs.json")
    };
    let out_path = opts.out.as_deref().unwrap_or(default_out);
    let clients = 4;
    let cases = workload(requests);

    // ---- 1. Overhead budget: telemetry on vs the NullSink path -------
    // Interleaved trials, min wall per mode: additive system noise can
    // only inflate a trial, so the min is the honest per-mode estimate.
    let mut off_wall = f64::INFINITY;
    let mut on_wall = f64::INFINITY;
    for trial in 0..trials {
        let (off, _) = serve_workload(&cases, n, partitions, clients, telemetry_off());
        let (on, _) = serve_workload(&cases, n, partitions, clients, TelemetryConfig::default());
        off_wall = off_wall.min(off);
        on_wall = on_wall.min(on);
        println!(
            "overhead trial {trial}: off {:.1}ms on {:.1}ms",
            off * 1e3,
            on * 1e3
        );
    }
    let budget = 1.05;
    let ratio = on_wall / off_wall;
    let within_budget = ratio <= budget;
    assert!(
        within_budget,
        "telemetry overhead {:.2}% exceeds the {:.0}% budget (off {:.2}ms, on {:.2}ms)",
        (ratio - 1.0) * 100.0,
        (budget - 1.0) * 100.0,
        off_wall * 1e3,
        on_wall * 1e3
    );
    println!(
        "telemetry overhead: {:+.2}% (budget {:.0}%)",
        (ratio - 1.0) * 100.0,
        (budget - 1.0) * 100.0
    );

    // ---- 2. Exporter round-trip --------------------------------------
    let (_, server) = serve_workload(&cases, n, partitions, clients, TelemetryConfig::default());
    let text = server.export_openmetrics();
    let parsed = Exposition::parse(&text).expect("own exporter output must parse");
    let round_trip = parsed.render() == text;
    assert!(round_trip, "OpenMetrics re-render must be byte-identical");
    let completed = parsed
        .sample_value("serve_completed_total", &[])
        .expect("exporter must carry serve.completed");
    assert_eq!(completed as usize, cases.len(), "exporter counter agrees");
    assert!(
        parsed
            .sample_value("serve_service_seconds_count", &[])
            .is_some(),
        "service-latency histogram must be exported"
    );
    let obs = server.observatory();
    assert!(
        obs.profiles().iter().any(|p| p.spans > 0),
        "observatory must hold live device profiles"
    );
    println!(
        "exporter: {} bytes, {} families, round-trips byte-identical",
        text.len(),
        parsed.families.len()
    );

    // ---- 3. Flight dumps under injected faults -----------------------
    let dump_dir = "results";
    let dump_prefix = "flight_obs";
    remove_stale_dumps(dump_dir, dump_prefix);
    let faulted = Server::new(ServerConfig {
        executors: 1,
        queue_capacity: 4,
        telemetry: TelemetryConfig {
            flight: FlightConfig {
                dump_dir: Some(dump_dir.into()),
                file_prefix: dump_prefix.to_owned(),
                ..FlightConfig::default()
            },
            ..TelemetryConfig::default()
        },
        ..ServerConfig::default()
    });
    let sobel = Case {
        benchmark: Benchmark::Sobel,
        seed: 900,
        policy: Policy::WorkStealing,
    };
    // A TPU dropout (re-dispatch anomaly) and a miscalibration under a
    // quality SLO (repair anomaly).
    let scenarios: [FaultPlan; 2] = [
        FaultPlan::none().with_dropout(TPU, 1e-9),
        FaultPlan::none().with_tpu_miscalibration(1.5, 0.1),
    ];
    for (i, faults) in scenarios.iter().enumerate() {
        let mut req = make_request(sobel, n, partitions).with_faults(faults.clone());
        if i == 1 {
            req = req.with_max_mape(0.05);
        }
        faulted
            .submit_blocking(req)
            .expect("server running")
            .wait()
            .expect("faulted requests still complete");
    }
    let flight_dumps = faulted.flight_dumps();
    assert!(
        flight_dumps >= 1,
        "injected faults must produce at least one flight dump"
    );
    let mut dump_files: Vec<String> = std::fs::read_dir(dump_dir)
        .expect("results dir exists")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(dump_prefix))
        .map(|e| e.path().to_string_lossy().into_owned())
        .collect();
    dump_files.sort();
    assert!(!dump_files.is_empty(), "dump files must exist on disk");
    for f in &dump_files {
        let doc = std::fs::read_to_string(f).expect("read flight dump");
        let parsed = JsonValue::parse(&doc).expect("flight dump is valid JSON");
        assert!(
            parsed
                .get("trigger")
                .and_then(|t| t.get("anomalies"))
                .and_then(JsonValue::as_array)
                .is_some_and(|a| !a.is_empty()),
            "every dump names its triggering anomaly: {f}"
        );
    }
    assert_eq!(
        faulted.metrics().counter("serve.flight_dumps"),
        flight_dumps as f64,
        "dump counter agrees with the recorder"
    );
    println!("flight dumps: {flight_dumps} ({})", dump_files.join(", "));

    // ---- 4. EWMA profiles track an injected slowdown -----------------
    let healthy = gpu_ewma_under(sobel, n, partitions, converge_runs, FaultPlan::none());
    let slowed = gpu_ewma_under(
        sobel,
        n,
        partitions,
        converge_runs,
        FaultPlan::none().with_slowdown(GPU, 0.0, 1e9, 4.0),
    );
    let slowdown_ratio = slowed / healthy;
    assert!(
        slowdown_ratio < 0.6,
        "a 4x GPU slowdown must be visible in the EWMA profile \
         (healthy {healthy:.0} vs slowed {slowed:.0} elem/s, ratio {slowdown_ratio:.3})"
    );
    println!(
        "EWMA profile: healthy {healthy:.0} elem/s, 4x-slowed {slowed:.0} elem/s \
         (ratio {slowdown_ratio:.3})"
    );

    // ---- Artifact ----------------------------------------------------
    let json = ObjectBuilder::new()
        .field(
            "workload",
            ObjectBuilder::new()
                .field("requests", JsonValue::Number(requests as f64))
                .field("dataset", JsonValue::Number(n as f64))
                .field("partitions", JsonValue::Number(partitions as f64))
                .field("clients", JsonValue::Number(clients as f64))
                .field("trials", JsonValue::Number(trials as f64))
                .build(),
        )
        .field(
            "overhead",
            ObjectBuilder::new()
                .field("off_wall_s", JsonValue::Number(off_wall))
                .field("on_wall_s", JsonValue::Number(on_wall))
                .field("ratio", JsonValue::Number(ratio))
                .field("budget", JsonValue::Number(budget))
                .field("within_budget", JsonValue::Bool(within_budget))
                .build(),
        )
        .field(
            "exporter",
            ObjectBuilder::new()
                .field("bytes", JsonValue::Number(text.len() as f64))
                .field("families", JsonValue::Number(parsed.families.len() as f64))
                .field("round_trip", JsonValue::Bool(round_trip))
                .build(),
        )
        .field(
            "flight",
            ObjectBuilder::new()
                .field("flight_dumps", JsonValue::Number(flight_dumps as f64))
                .field(
                    "files",
                    JsonValue::Array(
                        dump_files
                            .iter()
                            .map(|f| JsonValue::String(f.clone()))
                            .collect(),
                    ),
                )
                .build(),
        )
        .field(
            "profiles",
            ObjectBuilder::new()
                .field("healthy_gpu_ewma", JsonValue::Number(healthy))
                .field("slowed_gpu_ewma", JsonValue::Number(slowed))
                .field("slowdown_ratio", JsonValue::Number(slowdown_ratio))
                .field("injected_factor", JsonValue::Number(4.0))
                .build(),
        )
        .build()
        .to_string();

    if let Some(dir) = std::path::Path::new(out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(out_path, &json).expect("write obs report");

    // Validate the artifact with the workspace's own parser.
    let written = std::fs::read_to_string(out_path).expect("re-read obs report");
    let report = JsonValue::parse(&written).expect("obs report is valid JSON");
    let flag = |path: [&str; 2]| {
        matches!(
            report.get(path[0]).and_then(|o| o.get(path[1])),
            Some(JsonValue::Bool(true))
        )
    };
    assert!(flag(["overhead", "within_budget"]), "budget flag missing");
    assert!(flag(["exporter", "round_trip"]), "round-trip flag missing");
    let dumps = report
        .get("flight")
        .and_then(|f| f.get("flight_dumps"))
        .and_then(JsonValue::as_f64)
        .expect("flight_dumps field present");
    assert!(dumps >= 1.0, "artifact must record at least one dump");
    let recorded_ratio = report
        .get("profiles")
        .and_then(|p| p.get("slowdown_ratio"))
        .and_then(JsonValue::as_f64)
        .expect("slowdown_ratio field present");
    assert!(recorded_ratio > 0.0 && recorded_ratio < 0.6);

    println!(
        "obs report written and validated: {out_path} \
         (overhead {:+.2}%, {flight_dumps} flight dumps, slowdown ratio {slowdown_ratio:.3})",
        (ratio - 1.0) * 100.0
    );
}
