//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Spawns a `tc-service` server in process, brings it to the workload's
//! steady state, drives it over TCP in a closed loop for `--seconds`,
//! checks every reply, and prints one JSON report line followed by the
//! result line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` adds traced
//! windows and an in-process replay through each layer and reports the
//! per-layer metrics. Exits 1 if any output check fails, 2 on bad
//! arguments.

use perfbench::stats::{self, Summary};
use perfbench::trace;
use perfbench::workload::{self, Class, ClientLog, RunDir, Windows, Workload};
use perfbench::{fingerprint, script};
use std::process::ExitCode;
use tc_service::json::{obj, s, u, Json};
use tc_service::ServiceClient;

const USAGE: &str = "usage: perfbench --workload <cold-count|simulate-hu|stream-rw> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fresh-process set-ups per untraced run besides the run's own; the
/// reported `setup_s` is the median of all of them.
const SETUP_PROBES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(v > 0.0 && v <= 600.0) {
                    return Err(format!("--seconds {v} out of range (0, 600]"));
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: Json,
    unit: &'static str,
    /// Samples behind the value (1 for a single count or measurement).
    n: usize,
}

fn float(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value: Json::Float(value),
        unit,
        n,
    }
}

fn count(name: &'static str, value: u64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: u(value),
        unit,
        n: 1,
    }
}

fn timed(name: &'static str, t: Summary, unit: &'static str) -> Metric {
    float(name, t.p50, unit, t.n)
}

/// Metrics with their units and sample counts, for the report line.
fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Arr(
        metrics
            .iter()
            .map(|m| {
                obj(vec![
                    ("name", s(m.name)),
                    ("value", m.value.clone()),
                    ("unit", s(m.unit)),
                    ("samples", u(m.n as u64)),
                ])
            })
            .collect(),
    )
}

struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<Metric>,
    report: Vec<(&'static str, Json)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.setup_probe {
        setup_probe(&args).map(|setup_s| {
            println!(
                "{}",
                obj(vec![("setup_s", Json::Float(setup_s))]).to_string_compact()
            );
            None
        })
    } else {
        run(&args).map(Some)
    };
    match outcome {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(o)) => {
            let mut report = vec![
                ("workload", s(args.workload.name())),
                ("seed", u(args.seed)),
                ("seconds", Json::Float(args.seconds)),
                ("trace", Json::Bool(args.trace)),
            ];
            report.extend(o.report);
            report.push(("metrics", metrics_json(&o.metrics)));
            println!("{}", obj(vec![("report", obj(report))]).to_string_compact());
            let metrics = o
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        obj(vec![("value", m.value.clone()), ("unit", s(m.unit))]),
                    )
                })
                .collect();
            let result = obj(vec![
                ("correct", Json::Bool(o.correct)),
                ("attempted", u(o.attempted)),
                ("failed", u(o.failed)),
                ("metrics", Json::Obj(metrics)),
            ]);
            println!("{}", result.to_string_compact());
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One set-up in this (fresh) process: the body of a setup probe.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let inputs = workload::prepare(args.workload, args.seed);
    let config = workload::server_config(args.workload);
    let running = workload::setup(args.workload, &inputs, config)?;
    let setup_s = running.setup_s;
    drop(running.clients);
    running.handle.shutdown();
    Ok(setup_s)
}

/// Runs [`SETUP_PROBES`] set-ups, each in a fresh child process (the
/// calibration memo is process-wide, so only a fresh process pays what a
/// server start pays).
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("setup probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().unwrap_or_default();
            tc_service::json::parse(line)
                .ok()
                .filter(|_| out.status.success())
                .and_then(|j| j.get("setup_s").and_then(Json::as_f64))
                .ok_or_else(|| format!("setup probe failed: {}", out.status))
        })
        .collect()
}

fn stats_of(client: &mut ServiceClient) -> Result<Json, String> {
    client
        .request_ok(r#"{"op":"stats"}"#)
        .map_err(|e| format!("stats: {e}"))
}

/// A counter inside a `stats` reply, by path.
fn stat(stats: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |j, k| j.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn latencies(logs: &[ClientLog], class: Class, traced: bool) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.class == class && s.traced == traced)
        .map(|s| s.latency_ms)
        .collect()
}

/// The latencies `latency_p50_ms` and `latency_tail_ms` are taken over:
/// untraced requests of the workload's class, or for `stream-rw` its
/// update-then-read cycles (an update's latency plus the next read's).
/// A ~1 ms update alone is too short for a steady tail on a shared
/// 2-vCPU host: its p95 spread by 0.66 of its median over eight runs.
fn measured(w: Workload, logs: &[ClientLog]) -> Vec<f64> {
    if !w.is_stream() {
        return latencies(logs, w.primary(), false);
    }
    logs.iter()
        .flat_map(|l| l.samples.windows(2))
        .filter(|p| p[0].class == Class::Update && p[1].class == Class::Read)
        .filter(|p| !p[0].traced && !p[1].traced)
        .map(|p| p[0].latency_ms + p[1].latency_ms)
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut inputs = workload::prepare(w, args.seed);
    let config = workload::server_config(w);
    let mut running = workload::setup(w, &inputs, config.clone())?;
    let fingerprint = fingerprint::collect(&config);

    let mut traffic = workload::traffic(w, &mut inputs);
    let before = if args.trace {
        Some(stats_of(&mut running.clients[0])?)
    } else {
        None
    };
    let windows = Windows {
        seconds: args.seconds,
        alternate: args.trace,
    };
    let logs = workload::run_clients(&mut running.clients, &mut traffic, w.warmup(), windows);
    let after = match before {
        Some(_) => Some(stats_of(&mut running.clients[0])?),
        None => None,
    };
    let notifications = if w.is_stream() {
        workload::drain_notifications(&mut running.clients[0])
    } else {
        0
    };
    let mut errors: Vec<String> = logs.iter().flat_map(|l| l.errors.clone()).collect();
    for t in &traffic {
        if let Err(e) = t.finish() {
            errors.push(e);
        }
    }
    drop(running.clients);
    running.handle.shutdown();

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let primary = measured(w, &logs);
    if primary.is_empty() {
        return Err(format!(
            "no successful {:?} request; errors: {errors:?}",
            w.primary()
        ));
    }
    let client = stats::summarize_capped(&primary, w.tail_cap());
    let elapsed = logs.iter().map(|l| l.finished_s).fold(0.0, f64::max);
    let correct = failed == 0 && errors.is_empty();
    let mut report = vec![
        ("fingerprint", fingerprint),
        ("errors", Json::Arr(errors.into_iter().map(s).collect())),
        ("latency_tail", s(stats::label(client.tail_per_mille))),
    ];
    let reads = latencies(&logs, Class::Read, false);
    if !reads.is_empty() {
        // `stream-rw` per class: the cycles are the gated latency
        // metrics; the updates and reads on their own ride along ungated
        // (their tails move with the host by more than any bound the
        // benchmark may set).
        let update = stats::summarize(&latencies(&logs, Class::Update, false));
        let read = stats::summarize(&reads);
        report.push(("update_tail", s(stats::label(update.tail_per_mille))));
        report.push(("read_tail", s(stats::label(read.tail_per_mille))));
        report.push((
            "class_metrics",
            metrics_json(&[
                float("update_p50_ms", update.p50, "ms", update.n),
                float("update_tail_ms", update.tail, "ms", update.n),
                float("read_p50_ms", read.p50, "ms", read.n),
                float("read_tail_ms", read.tail, "ms", read.n),
            ]),
        ));
    }

    let metrics = if args.trace {
        let b = before.expect("traced runs poll stats");
        let a = after.expect("traced runs poll stats");
        let delta = |path: &[&str]| stat(&a, path).saturating_sub(stat(&b, path));
        let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
        let traced_metrics = traced(args, &inputs, &client, &logs, elapsed)?;
        report.push(("replay", traced_metrics.1));
        let mut m = traced_metrics.0;
        m.push(float(
            "tc-service.registry_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            (hits + misses) as usize,
        ));
        m.push(count("tc-service.notifications", notifications, "count"));
        m
    } else {
        let mut setups = vec![running.setup_s];
        setups.extend(probe_setups(args)?);
        report.push((
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&x| Json::Float(x)).collect()),
        ));
        end_to_end(w, &inputs, &client, &logs, elapsed, &setups)
    };
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics,
        report,
    })
}

fn end_to_end(
    w: Workload,
    inputs: &workload::Inputs,
    client: &Summary,
    logs: &[ClientLog],
    elapsed: f64,
    setups: &[f64],
) -> Vec<Metric> {
    let completed: usize = logs.iter().map(|l| l.samples.len()).sum();
    let edges_per_s = if w.is_stream() {
        let updates = latencies(logs, Class::Update, false).len();
        (updates * script::BATCH_OPS) as f64 / elapsed
    } else {
        (inputs.edges * client.n) as f64 / elapsed
    };
    vec![
        float("setup_s", stats::median(setups), "s", setups.len()),
        float(
            "throughput_rps",
            completed as f64 / elapsed,
            "1/s",
            completed,
        ),
        float("edges_per_s", edges_per_s, "edges/s", completed),
        float("latency_p50_ms", client.p50, "ms", client.n),
        float("latency_tail_ms", client.tail, "ms", client.n),
    ]
}

/// The per-layer metrics of a traced run (all but the two that come from
/// the `stats` deltas), plus replay details for the report.
fn traced(
    args: &Args,
    inputs: &workload::Inputs,
    client: &Summary,
    logs: &[ClientLog],
    elapsed: f64,
) -> Result<(Vec<Metric>, Json), String> {
    let w = args.workload;
    // Throughput in untraced vs traced quarters (odd quarters are traced;
    // the last one runs on until the last reply).
    let quarter = args.seconds / 4.0;
    let done = |traced: bool| -> usize {
        logs.iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.traced == traced)
            .count()
    };
    let overhead_ratio =
        (done(true) as f64 / (elapsed - 2.0 * quarter)) / (done(false) as f64 / (2.0 * quarter));

    let dir = RunDir::create(w.name()).map_err(|e| format!("run directory: {e}"))?;
    let config = workload::server_config(w);
    let gpu = config.gpu.clone();
    let setup = trace::setup_layers(&gpu, w.dataset());
    let gowalla = tc_datasets::load(tc_datasets::Dataset::Gowalla);
    let enron = tc_datasets::load(tc_datasets::Dataset::EmailEnron);
    let cold = trace::cold_layers(
        &gowalla,
        &setup.params,
        &inputs.buckets,
        tc_algos::cpu::forward(&gowalla),
    )?;
    let sim = trace::sim_layers(&enron, &setup.params, &gpu, tc_algos::cpu::forward(&enron))?;
    let stream = trace::stream_layers(&gowalla, args.seed, &dir.path().join("replay-persist"))?;
    let exec = trace::exec_layers(w, args.seed, inputs, &gowalla, config)?;

    let parse_ms = exec.parse_us.p50 / 1e3;
    let attributed = parse_ms
        + match w {
            Workload::ColdCount => {
                cold.direction_ms.p50
                    + cold.ordering_ms.p50
                    + cold.rebuild_ms.p50
                    + cold.count_ms.p50
            }
            Workload::SimulateHu => sim.sim_ms.p50,
            Workload::StreamRw => {
                stream.apply_ms.p50
                    + stream.maintain_ms.p50
                    + stream.materialize_ms.p50
                    + stream.clustering_ms.p50
            }
        };
    let metrics = vec![
        float("tc-core.calibrate_s", setup.calibrate_s, "s", 1),
        timed("tc-datasets.load_ms", setup.load_ms, "ms"),
        timed("tc-core.direction_ms", cold.direction_ms, "ms"),
        timed("tc-core.ordering_ms", cold.ordering_ms, "ms"),
        timed("tc-core.rebuild_ms", cold.rebuild_ms, "ms"),
        timed("tc-algos.count_ms", cold.count_ms, "ms"),
        count("tc-algos.wedges", cold.wedges, "count"),
        timed("tc-gpusim.sim_ms", sim.sim_ms, "ms"),
        float(
            "tc-gpusim.blocks_per_s",
            sim.blocks_per_s,
            "1/s",
            sim.sim_ms.n,
        ),
        count("tc-gpusim.kernel_cycles", sim.kernel_cycles, "cycles"),
        count("tc-gpusim.blocks", sim.blocks, "count"),
        count("tc-gpusim.global_segments", sim.global_segments, "count"),
        count(
            "tc-gpusim.shared_transactions",
            sim.shared_transactions,
            "count",
        ),
        timed("tc-stream.apply_ms", stream.apply_ms, "ms"),
        timed("tc-analytics.maintain_ms", stream.maintain_ms, "ms"),
        count("tc-analytics.changes", stream.changes, "count"),
        timed("tc-persist.wal_append_ms", stream.wal_append_ms, "ms"),
        count("tc-persist.wal_bytes", stream.wal_bytes, "bytes"),
        timed("tc-service.parse_us", exec.parse_us, "us"),
        timed("tc-persist.snapshot_ms", stream.snapshot_ms, "ms"),
        count("tc-stream.compactions", stream.compactions, "count"),
        timed("tc-stream.materialize_ms", stream.materialize_ms, "ms"),
        timed("tc-apps.clustering_ms", stream.clustering_ms, "ms"),
        timed("tc-service.exec_ms", exec.exec_ms, "ms"),
        float(
            "tc-service.overhead_ms",
            client.p50 - exec.exec_ms.p50,
            "ms",
            client.n,
        ),
        float(
            "trace.unattributed_ms",
            client.p50 - attributed,
            "ms",
            client.n,
        ),
        float(
            "trace.overhead_ratio",
            overhead_ratio,
            "ratio",
            done(true) + done(false),
        ),
    ];
    let mut detail = vec![
        ("client_p50_ms", Json::Float(client.p50)),
        ("attributed_ms", Json::Float(attributed)),
        (
            "unattributed_share",
            Json::Float((client.p50 - attributed) / client.p50),
        ),
    ];
    if w.is_stream() {
        // The cycle's halves: the update path (parse, apply, maintenance)
        // and the read path (materialise, clustering).
        let update = latencies(logs, Class::Update, false);
        let read = latencies(logs, Class::Read, false);
        detail.push(("update_client_p50_ms", Json::Float(stats::median(&update))));
        detail.push((
            "update_attributed_ms",
            Json::Float(parse_ms + stream.apply_ms.p50 + stream.maintain_ms.p50),
        ));
        detail.push(("read_client_p50_ms", Json::Float(stats::median(&read))));
        detail.push((
            "read_attributed_ms",
            Json::Float(stream.materialize_ms.p50 + stream.clustering_ms.p50),
        ));
    }
    let detail = obj(detail);
    Ok((metrics, detail))
}
