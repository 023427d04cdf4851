//! The traced run's in-process replay: the same seeded inputs the TCP
//! clients send, pushed through each layer's public functions, with the
//! benchmark timing every call. Nothing inside the program is traced;
//! counts the layers do not return come from the `stats` op.
//!
//! Each replay has a fixed length, so its exact counts repeat run to run.

use crate::script::{self, StreamScript};
use crate::stats::{summarize, Summary};
use crate::workload::{Inputs, Workload};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tc_algos::engine::with_thread_scratch;
use tc_algos::{hu::HuFineGrained, GpuTriangleCounter};
use tc_analytics::AnalyticsState;
use tc_core::model::ModelParams;
use tc_core::Preprocessor;
use tc_datasets::Dataset;
use tc_gpusim::GpuConfig;
use tc_graph::CsrGraph;
use tc_persist::{PersistConfig, Store, StreamRecord};
use tc_service::json::Json;
use tc_service::protocol::parse_request;
use tc_stream::DynamicGraph;

/// `cold-count` preprocessing + count replays (alternating the clients'
/// bucket sizes).
const COLD_REPLAY: usize = 8;
/// `simulate-hu` kernel replays.
const SIM_REPLAY: usize = 5;
/// `stream-rw` batches (each followed by a read) in the layer replay:
/// five snapshot periods at the default cadence of 32.
const STREAM_REPLAY: usize = 160;
/// `stream-rw` update + read cycles in the executor replay.
const STREAM_EXEC_REPLAY: usize = 64;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-up layers: calibration and dataset generation.
pub struct SetupLayers {
    /// One calibration sweep, seconds.
    pub calibrate_s: f64,
    /// Generating the workload's dataset stand-in.
    pub load_ms: Summary,
    /// The calibrated parameters (the server preprocesses with these).
    pub params: ModelParams,
}

/// Times calibration once and dataset generation three times.
pub fn setup_layers(gpu: &GpuConfig, dataset: Dataset) -> SetupLayers {
    let t = Instant::now();
    let params = tc_core::model::calibrate(gpu).params;
    let calibrate_s = t.elapsed().as_secs_f64();
    let loads: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(tc_datasets::load(dataset));
            ms_since(t)
        })
        .collect();
    SetupLayers {
        calibrate_s,
        load_ms: summarize(&loads),
        params,
    }
}

/// `tc-core` preprocessing stages and the `tc-algos` count on gowalla.
pub struct ColdLayers {
    /// A-direction rank.
    pub direction_ms: Summary,
    /// A-order permutation.
    pub ordering_ms: Summary,
    /// Relabel + orient.
    pub rebuild_ms: Summary,
    /// `directed_count` on the oriented graph.
    pub count_ms: Summary,
    /// Σ d⁺(d⁺−1)/2 over the oriented graph of the first replay.
    pub wedges: u64,
}

/// Replays the `cold-count` requests' work: preprocessing with the
/// server's parameters, then the exact count, checked against
/// `reference`.
pub fn cold_layers(
    g: &CsrGraph,
    params: &ModelParams,
    buckets: &[usize],
    reference: u64,
) -> Result<ColdLayers, String> {
    let (mut dir, mut ord, mut reb, mut cnt) = (vec![], vec![], vec![], vec![]);
    let mut wedges = 0;
    for i in 0..COLD_REPLAY {
        let prep = Preprocessor::new()
            .bucket_size(buckets[i % buckets.len()])
            .params(params.clone())
            .run(g);
        dir.push(prep.timings.direction.as_secs_f64() * 1e3);
        ord.push(prep.timings.ordering.as_secs_f64() * 1e3);
        reb.push(prep.timings.rebuild.as_secs_f64() * 1e3);
        let t = Instant::now();
        let triangles = tc_algos::cpu::directed_count(prep.directed());
        cnt.push(ms_since(t));
        if triangles != reference {
            return Err(format!(
                "replayed count {triangles} != reference {reference}"
            ));
        }
        if i == 0 {
            let d = prep.directed();
            wedges = d
                .vertices()
                .map(|v| {
                    let k = d.out_degree(v) as u64;
                    k * k.saturating_sub(1) / 2
                })
                .sum();
        }
    }
    Ok(ColdLayers {
        direction_ms: summarize(&dir),
        ordering_ms: summarize(&ord),
        rebuild_ms: summarize(&reb),
        count_ms: summarize(&cnt),
        wedges,
    })
}

/// `tc-gpusim` (with the `tc-algos` trace generator) on email-Enron.
pub struct SimLayers {
    /// `HuFineGrained::count` wall time.
    pub sim_ms: Summary,
    /// Simulated blocks per wall-clock second, at the median.
    pub blocks_per_s: f64,
    /// Exact simulated figures (identical on every replay).
    pub kernel_cycles: u64,
    /// Blocks simulated.
    pub blocks: u64,
    /// Global-memory segments.
    pub global_segments: u64,
    /// Shared-memory transactions.
    pub shared_transactions: u64,
}

/// Replays the `simulate-hu` requests' work on the default variant.
pub fn sim_layers(
    g: &CsrGraph,
    params: &ModelParams,
    gpu: &GpuConfig,
    reference: u64,
) -> Result<SimLayers, String> {
    let prep = Preprocessor::new().params(params.clone()).run(g);
    let mut times = Vec::new();
    let mut first = None;
    for _ in 0..SIM_REPLAY {
        let t = Instant::now();
        let run = HuFineGrained::default().count(prep.directed(), gpu);
        times.push(ms_since(t));
        if run.triangles != reference {
            return Err(format!(
                "simulated count {} != reference {reference}",
                run.triangles
            ));
        }
        match &first {
            None => first = Some(run.metrics),
            Some(m) if *m != run.metrics => {
                return Err("kernel metrics differ between replays".into())
            }
            Some(_) => {}
        }
    }
    let m = first.expect("at least one replay");
    let sim_ms = summarize(&times);
    Ok(SimLayers {
        sim_ms,
        blocks_per_s: m.blocks as f64 / (sim_ms.p50 / 1e3),
        kernel_cycles: m.kernel_cycles,
        blocks: m.blocks as u64,
        global_segments: m.global_segments,
        shared_transactions: m.shared_transactions,
    })
}

/// The write and read layers under `stream-rw`.
pub struct StreamLayers {
    /// `DynamicGraph::apply_batch_recorded`.
    pub apply_ms: Summary,
    /// `AnalyticsState::apply_changes`.
    pub maintain_ms: Summary,
    /// Committed edge changes over the replay.
    pub changes: u64,
    /// `Store::log_batch` (append + fdatasync).
    pub wal_append_ms: Summary,
    /// WAL bytes appended over the replay.
    pub wal_bytes: u64,
    /// Stream snapshot (image + background write + flush).
    pub snapshot_ms: Summary,
    /// Compactions completed during the replay.
    pub compactions: u64,
    /// `DynamicGraph::materialize`.
    pub materialize_ms: Summary,
    /// Clustering arithmetic over maintained counts.
    pub clustering_ms: Summary,
}

/// Replays the `stream-rw` script through the layers the server's update
/// and read paths call, in the same order: WAL append, recorded apply,
/// analytics maintenance, snapshot on the store's cadence; then
/// materialise and the clustering arithmetic.
pub fn stream_layers(g: &CsrGraph, seed: u64, dir: &Path) -> Result<StreamLayers, String> {
    let mut script = StreamScript::new(g, seed);
    let mut dg = DynamicGraph::new(g.clone()).background_compaction();
    dg.apply_batch(&script.setup_ops());
    let mut analytics = with_thread_scratch(|s| AnalyticsState::build(&dg.materialize(), s));
    let (store, _) =
        Store::open(PersistConfig::new(dir)).map_err(|e| format!("open replay store: {e}"))?;
    let wal_len = |store: &Store| -> Result<u64, String> {
        store
            .stats()
            .map(|s| s.wal.bytes)
            .map_err(|e| e.to_string())
    };
    let compactions_before = dg.counters().compactions;
    let every = store.snapshot_every_batches();
    let (mut wal, mut apply, mut maintain, mut snap, mut mat, mut clu) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut changes, mut wal_bytes) = (0u64, 0u64);
    for i in 1..=STREAM_REPLAY as u64 {
        let ops = script.next_batch();
        let before = wal_len(&store)?;
        let t = Instant::now();
        let seq = store
            .log_batch(Dataset::Gowalla, &ops)
            .map_err(|e| format!("WAL append: {e}"))?;
        wal.push(ms_since(t));
        wal_bytes += wal_len(&store)?.saturating_sub(before);

        let t = Instant::now();
        let (_, batch_changes) = dg.apply_batch_recorded(&ops);
        apply.push(ms_since(t));
        changes += batch_changes.len() as u64;

        let t = Instant::now();
        analytics.apply_changes(&batch_changes);
        maintain.push(ms_since(t));

        if i % every == 0 {
            let t = Instant::now();
            store.save_stream(StreamRecord {
                dataset: Dataset::Gowalla,
                last_seq: seq,
                snapshot: dg.snapshot(),
            });
            store.flush();
            snap.push(ms_since(t));
        }

        let t = Instant::now();
        let m = dg.materialize();
        mat.push(ms_since(t));

        let t = Instant::now();
        let counts = analytics.local_counts();
        black_box(tc_apps::coefficients_from_counts(&m, counts));
        black_box(tc_apps::global_from_counts(&m, counts));
        clu.push(ms_since(t));
    }
    if analytics.triangles() != dg.triangles() {
        return Err("maintained analytics disagree with the stream's count".into());
    }
    Ok(StreamLayers {
        apply_ms: summarize(&apply),
        maintain_ms: summarize(&maintain),
        changes,
        wal_append_ms: summarize(&wal),
        wal_bytes,
        snapshot_ms: summarize(&snap),
        compactions: dg.counters().compactions - compactions_before,
        materialize_ms: summarize(&mat),
        clustering_ms: summarize(&clu),
    })
}

/// The service layer on the workload's own request class (for
/// `stream-rw`, update-then-read cycles).
pub struct ExecLayers {
    /// `protocol::parse_request` on the class's request lines (the
    /// updates' for `stream-rw`), µs.
    pub parse_us: Summary,
    /// `Engine::execute` of the parsed request (of both requests of a
    /// `stream-rw` cycle), in process.
    pub exec_ms: Summary,
}

/// Replays the workload's requests through `parse_request` and
/// `Engine::execute` on a fresh in-process server built with the
/// workload's configuration. `stream-rw` runs its set-up batch first and
/// holds no subscription (in-process execution has no connection).
pub fn exec_layers(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    gowalla: &CsrGraph,
    config: tc_service::ServerConfig,
) -> Result<ExecLayers, String> {
    let handle = tc_service::spawn(config).map_err(|e| format!("spawn replay server: {e}"))?;
    let engine = handle.engine();
    let (mut parse, mut exec) = (vec![], vec![]);
    // A request's payload, its parse time (µs) and its execute time (ms).
    type Timed = (Vec<(String, Json)>, f64, f64);
    let run = |line: &str| -> Result<Timed, String> {
        let t = Instant::now();
        let env = parse_request(line).map_err(|e| e.message)?;
        let parsed_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let payload = engine.execute(&env.request).map_err(|e| e.message)?;
        Ok((payload, parsed_us, ms_since(t)))
    };
    let triangles = |payload: &[(String, Json)]| {
        payload
            .iter()
            .find(|(k, _)| k == "triangles")
            .and_then(|(_, v)| v.as_u64())
    };
    match workload {
        Workload::ColdCount => {
            for i in 0..COLD_REPLAY {
                let bucket = inputs.buckets[i % inputs.buckets.len()];
                let (payload, p, e) = run(&script::count_line(bucket, i as u64))?;
                parse.push(p);
                exec.push(e);
                if triangles(&payload) != Some(inputs.reference) {
                    return Err("in-process count disagrees with the reference".into());
                }
            }
        }
        Workload::SimulateHu => {
            run(&script::simulate_load_line())?;
            for i in 0..SIM_REPLAY {
                let (payload, p, e) = run(&script::simulate_line(i as u64))?;
                parse.push(p);
                exec.push(e);
                if triangles(&payload) != Some(inputs.reference) {
                    return Err("in-process simulate disagrees with the reference".into());
                }
            }
        }
        Workload::StreamRw => {
            let mut s = StreamScript::new(gowalla, seed);
            run(&script::update_line(&s.setup_ops(), 0))?;
            run(&script::clustering_line(0))?;
            for i in 0..STREAM_EXEC_REPLAY as u64 {
                let (_, p, update) = run(&script::update_line(&s.next_batch(), i))?;
                let (_, _, read) = run(&script::clustering_line(i))?;
                parse.push(p);
                exec.push(update + read);
            }
        }
    }
    handle.shutdown();
    Ok(ExecLayers {
        parse_us: summarize(&parse),
        exec_ms: summarize(&exec),
    })
}
