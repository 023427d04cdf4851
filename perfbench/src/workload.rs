//! The workloads: inputs, server set-up, and the closed-loop TCP drivers.
//!
//! Every caller waits for its reply before it sends again (closed loop).
//! A latency percentile is only ever taken over one cost class.

use crate::script::{self, StreamScript, BATCH_OPS, COLD_CLIENTS};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tc_graph::VertexId;
use tc_service::json::{self, Json};
use tc_service::{ServerConfig, ServerHandle, ServiceClient};
use tc_stream::EdgeOp;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 2 clients, `count` on gowalla with a zero-byte registry: every
    /// request re-runs A-direction, A-order, rebuild and the count.
    ColdCount,
    /// 1 client, `simulate` with Hu's kernel on a preprocessed
    /// email-Enron variant.
    SimulateHu,
    /// 1 client alternating 256-op `update`s and `clustering` reads on
    /// gowalla, with a subscription; latency metrics are the cycles'
    /// (an update plus the read after it).
    StreamRw,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ColdCount,
        Workload::SimulateHu,
        Workload::StreamRw,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCount => "cold-count",
            Workload::SimulateHu => "simulate-hu",
            Workload::StreamRw => "stream-rw",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this is the `stream-rw` workload.
    pub fn is_stream(self) -> bool {
        self == Workload::StreamRw
    }

    /// The request class the latency metrics are taken over (`stream-rw`
    /// pairs each of its updates with the read after it).
    pub fn primary(self) -> Class {
        match self {
            Workload::ColdCount => Class::Count,
            Workload::SimulateHu => Class::Simulate,
            Workload::StreamRw => Class::Update,
        }
    }

    /// The highest quantile (per-mille) `latency_tail_ms` may be. The
    /// cap keeps the tail at one quantile from run to run, where sample
    /// counts straddle a threshold: `cold-count` collects ~1000–1200
    /// samples in 30 s, around the 1000 that p99 needs. It also keeps the
    /// tail below host stalls. On a shared 2-vCPU host, some runs see
    /// stalls of a few ms on 10–20% of requests, which moved the
    /// `simulate-hu` p90 by 0.12–0.21 of its median and the `stream-rw`
    /// cycle p90 by 0.24–0.30. `cold-count`'s 60 ms requests absorb them.
    pub fn tail_cap(self) -> usize {
        match self {
            Workload::ColdCount => 950,
            Workload::SimulateHu => 800,
            Workload::StreamRw => 750,
        }
    }

    /// Checked but unmeasured requests each client sends before the
    /// measured window: enough for the allocator and caches to reach
    /// steady state (the first seconds of `stream-rw` reads run ~15%
    /// slower without it).
    pub fn warmup(self) -> usize {
        match self {
            Workload::ColdCount => 4,
            Workload::SimulateHu => 3,
            Workload::StreamRw => 400,
        }
    }

    /// The dataset the workload's requests name.
    pub fn dataset(self) -> tc_datasets::Dataset {
        match self {
            Workload::SimulateHu => tc_datasets::Dataset::EmailEnron,
            _ => tc_datasets::Dataset::Gowalla,
        }
    }
}

/// A request's cost class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `count`.
    Count,
    /// `simulate`.
    Simulate,
    /// `update`.
    Update,
    /// `clustering`.
    Read,
}

/// Benchmark-side inputs, made from the seed before the server starts
/// (not part of `setup_s`).
pub struct Inputs {
    /// Undirected edges of the workload's dataset.
    pub edges: usize,
    /// Vertices of the workload's dataset.
    pub vertices: usize,
    /// Exact triangle count of the dataset, by `tc_algos::cpu::forward`.
    pub reference: u64,
    /// Per-client A-order bucket sizes (`cold-count`).
    pub buckets: [usize; COLD_CLIENTS],
    /// The edge script (`stream-rw`), positioned after its set-up batch.
    pub stream: Option<StreamScript>,
    /// The set-up batch that deletes the script's pool (`stream-rw`).
    pub setup_ops: Vec<EdgeOp>,
    /// The vertex the `stream-rw` subscription watches.
    pub hub: VertexId,
}

/// Makes the inputs for `workload` from `seed`.
pub fn prepare(workload: Workload, seed: u64) -> Inputs {
    let g = tc_datasets::load(workload.dataset());
    let reference = tc_algos::cpu::forward(&g);
    let (stream, setup_ops) = if workload.is_stream() {
        let mut s = StreamScript::new(&g, seed);
        let ops = s.setup_ops();
        (Some(s), ops)
    } else {
        (None, Vec::new())
    };
    Inputs {
        edges: g.num_edges(),
        vertices: g.num_vertices(),
        reference,
        buckets: script::cold_count_buckets(seed),
        stream,
        setup_ops,
        hub: script::hub_vertex(&g),
    }
}

/// The server configuration a workload runs against: the defaults, with
/// a zero-byte registry for `cold-count`. No workload persists: with a
/// WAL, every `stream-rw` update waits on an fdatasync, and on a shared
/// VM disk its stalls moved the update p95 by half its median from run
/// to run. The traced replay times the persistence layer on its own.
pub fn server_config(workload: Workload) -> ServerConfig {
    let mut config = ServerConfig::default();
    if workload == Workload::ColdCount {
        config.registry_budget = 0;
    }
    config
}

/// A server after set-up, with the connections the workload drives.
pub struct Running {
    /// The server.
    pub handle: ServerHandle,
    /// One connection per closed-loop client.
    pub clients: Vec<ServiceClient>,
    /// Server spawn to the last set-up reply, in seconds.
    pub setup_s: f64,
}

fn request_ok(client: &mut ServiceClient, line: &str) -> Result<Json, String> {
    client
        .request_ok(line)
        .map_err(|e| format!("set-up request failed: {e}"))
}

fn field(reply: &Json, key: &str) -> Result<u64, String> {
    reply
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reply lacks integer {key:?}"))
}

/// Spawns the server and brings it to the workload's steady state:
/// `cold-count` has loaded the raw graph (through one checked count),
/// `simulate-hu` has its variant preprocessed, and `stream-rw` has
/// applied the pool-deleting batch, built analytics, and holds one
/// subscription.
pub fn setup(workload: Workload, inputs: &Inputs, config: ServerConfig) -> Result<Running, String> {
    let start = Instant::now();
    let handle = tc_service::spawn(config).map_err(|e| format!("spawn failed: {e}"))?;
    let connect = || ServiceClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"));
    let mut clients = Vec::new();
    match workload {
        Workload::ColdCount => {
            for _ in 0..COLD_CLIENTS {
                clients.push(connect()?);
            }
            let reply = request_ok(&mut clients[0], &script::count_line(inputs.buckets[0], 0))?;
            if field(&reply, "triangles")? != inputs.reference {
                return Err("set-up count disagrees with the reference".into());
            }
        }
        Workload::SimulateHu => {
            clients.push(connect()?);
            request_ok(&mut clients[0], &script::simulate_load_line())?;
        }
        Workload::StreamRw => {
            let mut client = connect()?;
            let reply = request_ok(&mut client, &script::update_line(&inputs.setup_ops, 0))?;
            if field(&reply, "deleted")? != inputs.setup_ops.len() as u64 {
                return Err("set-up batch did not delete every pooled edge".into());
            }
            request_ok(&mut client, &script::subscribe_line(inputs.hub))?;
            clients.push(client);
        }
    }
    Ok(Running {
        handle,
        clients,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// One completed workload request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Cost class.
    pub class: Class,
    /// Client-side latency, send to reply.
    pub latency_ms: f64,
    /// Whether it ran in a traced window.
    pub traced: bool,
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Successful, checked requests.
    pub samples: Vec<Sample>,
    /// Workload requests sent.
    pub attempted: u64,
    /// Requests that errored, were refused, or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Seconds from loop start to this client's last reply.
    pub finished_s: f64,
}

/// Request source plus reply check for one client.
pub trait Traffic: Send {
    /// The next request line and its class.
    fn next(&mut self) -> (Class, String);
    /// Checks a reply to a request of `class`.
    fn check(&mut self, class: Class, reply: &Json) -> Result<(), String>;
    /// Checks made once, after the last reply.
    fn finish(&self) -> Result<(), String> {
        Ok(())
    }
}

/// One `cold-count` client: the same key every time, checked against
/// the reference count.
struct ColdTraffic {
    bucket: usize,
    reference: u64,
    id: u64,
}

impl Traffic for ColdTraffic {
    fn next(&mut self) -> (Class, String) {
        self.id += 1;
        (Class::Count, script::count_line(self.bucket, self.id))
    }

    fn check(&mut self, _: Class, reply: &Json) -> Result<(), String> {
        let t = field(reply, "triangles")?;
        (t == self.reference)
            .then_some(())
            .ok_or_else(|| format!("count {t} != reference {}", self.reference))
    }
}

/// The `simulate` reply fields that must repeat exactly.
const KERNEL_FIELDS: [&str; 6] = [
    "kernel_cycles",
    "blocks",
    "warps",
    "global_segments",
    "shared_transactions",
    "barrier_wait_cycles",
];

/// The `simulate-hu` client: exact count, and kernel metrics identical
/// on every reply.
struct SimTraffic {
    reference: u64,
    first: Option<Vec<u64>>,
    id: u64,
}

impl Traffic for SimTraffic {
    fn next(&mut self) -> (Class, String) {
        self.id += 1;
        (Class::Simulate, script::simulate_line(self.id))
    }

    fn check(&mut self, _: Class, reply: &Json) -> Result<(), String> {
        let t = field(reply, "triangles")?;
        if t != self.reference {
            return Err(format!(
                "simulated count {t} != reference {}",
                self.reference
            ));
        }
        let metrics = KERNEL_FIELDS
            .iter()
            .map(|k| field(reply, k))
            .collect::<Result<Vec<_>, _>>()?;
        match &self.first {
            None => self.first = Some(metrics),
            Some(first) if *first != metrics => {
                return Err(format!(
                    "kernel metrics {metrics:?} != first reply's {first:?}"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// The `stream-rw` client: strictly alternates update and read.
struct StreamTraffic {
    script: StreamScript,
    vertices: u64,
    id: u64,
    /// The triangle count the last update reported.
    last_triangles: Option<u64>,
}

impl Traffic for StreamTraffic {
    fn next(&mut self) -> (Class, String) {
        self.id += 1;
        if self.id % 2 == 1 {
            (
                Class::Update,
                script::update_line(&self.script.next_batch(), self.id),
            )
        } else {
            (Class::Read, script::clustering_line(self.id))
        }
    }

    fn check(&mut self, class: Class, reply: &Json) -> Result<(), String> {
        match class {
            Class::Update => {
                let half = (BATCH_OPS / 2) as u64;
                for (key, want) in [
                    ("inserted", half),
                    ("deleted", half),
                    ("noops", 0),
                    ("rejected", 0),
                    ("superseded", 0),
                ] {
                    let got = field(reply, key)?;
                    if got != want {
                        return Err(format!("update {key} = {got}, script expects {want}"));
                    }
                }
                self.last_triangles = Some(field(reply, "triangles")?);
            }
            _ => {
                if field(reply, "nodes")? != self.vertices {
                    return Err("clustering reply has the wrong vertex count".into());
                }
                let c = reply.get("global_coefficient").and_then(Json::as_f64);
                if !c.is_some_and(|c| c.is_finite() && (0.0..=1.0).contains(&c)) {
                    return Err("clustering reply lacks a coefficient in [0, 1]".into());
                }
            }
        }
        Ok(())
    }

    /// The server's last count must equal a fresh count of a replica
    /// driven by the same script.
    fn finish(&self) -> Result<(), String> {
        let replica = tc_algos::cpu::forward(&self.script.replica());
        match self.last_triangles {
            Some(t) if t == replica => Ok(()),
            Some(t) => Err(format!("final count {t} != replica recount {replica}")),
            None => Err("no update completed".into()),
        }
    }
}

/// The traffic sources for `workload`, one per client.
pub fn traffic(workload: Workload, inputs: &mut Inputs) -> Vec<Box<dyn Traffic>> {
    match workload {
        Workload::ColdCount => inputs
            .buckets
            .iter()
            .map(|&bucket| {
                Box::new(ColdTraffic {
                    bucket,
                    reference: inputs.reference,
                    id: 0,
                }) as Box<dyn Traffic>
            })
            .collect(),
        Workload::SimulateHu => vec![Box::new(SimTraffic {
            reference: inputs.reference,
            first: None,
            id: 0,
        })],
        Workload::StreamRw => vec![Box::new(StreamTraffic {
            script: inputs.stream.take().expect("stream inputs"),
            vertices: inputs.vertices as u64,
            id: 0,
            last_triangles: None,
        })],
    }
}

/// How the measured seconds are split. Untraced runs use one untraced
/// window; traced runs alternate untraced and traced quarters, where a
/// traced request is followed by a `stats` poll.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    /// Total measured seconds.
    pub seconds: f64,
    /// Whether odd quarters are traced.
    pub alternate: bool,
}

impl Windows {
    fn traced_at(&self, t: f64) -> bool {
        self.alternate && ((t / (self.seconds / 4.0)) as usize) % 2 == 1
    }
}

const STATS_LINE: &str = r#"{"op":"stats"}"#;

/// Sends one request, checks its reply, and returns its class and
/// latency if it succeeded; failures are counted in `log`.
fn exchange(
    client: &mut ServiceClient,
    traffic: &mut dyn Traffic,
    log: &mut ClientLog,
) -> Option<(Class, f64)> {
    let (class, line) = traffic.next();
    let sent = Instant::now();
    let reply = client.request_raw(&line);
    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
    log.attempted += 1;
    let checked = reply
        .map_err(|e| format!("transport: {e}"))
        .and_then(|raw| json::parse(&raw).map_err(|e| format!("unparseable reply: {e}")))
        .and_then(|reply| {
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("error reply: {}", reply.to_string_compact()));
            }
            traffic.check(class, &reply)
        });
    match checked {
        Ok(()) => Some((class, latency_ms)),
        Err(e) => {
            log.failed += 1;
            if log.errors.len() < 5 {
                log.errors.push(e);
            }
            None
        }
    }
}

/// Runs one closed-loop client: `warmup` checked but unmeasured
/// requests, then (once every client has warmed up) requests until the
/// measured time is up.
pub fn drive(
    client: &mut ServiceClient,
    traffic: &mut dyn Traffic,
    warmup: usize,
    ready: &Barrier,
    windows: Windows,
) -> ClientLog {
    let mut log = ClientLog::default();
    for _ in 0..warmup {
        exchange(client, traffic, &mut log);
    }
    ready.wait();
    let start = Instant::now();
    loop {
        let at = start.elapsed().as_secs_f64();
        if at >= windows.seconds {
            break;
        }
        let traced = windows.traced_at(at);
        if let Some((class, latency_ms)) = exchange(client, traffic, &mut log) {
            log.samples.push(Sample {
                class,
                latency_ms,
                traced,
            });
        }
        if traced && client.request_raw(STATS_LINE).is_err() {
            log.failed += 1;
        }
    }
    log.finished_s = start.elapsed().as_secs_f64();
    log
}

/// Runs every client of a workload concurrently: each warms up with
/// `warmup` requests, then all measure for the same window.
pub fn run_clients(
    clients: &mut [ServiceClient],
    traffic: &mut [Box<dyn Traffic>],
    warmup: usize,
    windows: Windows,
) -> Vec<ClientLog> {
    let ready = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(traffic.iter_mut())
            .map(|(client, traffic)| {
                let ready = &ready;
                scope.spawn(move || drive(client, traffic.as_mut(), warmup, ready, windows))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Counts push frames already delivered to `client`.
pub fn drain_notifications(client: &mut ServiceClient) -> u64 {
    let mut n = 0;
    while let Ok(Some(_)) = client.try_next_notification(Duration::from_millis(1)) {
        n += 1;
    }
    n
}

/// A per-run scratch directory under the working directory, removed by
/// [`RunDir::drop`].
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.perfbench_run/<tag>-<pid>` fresh.
    pub fn create(tag: &str) -> std::io::Result<RunDir> {
        let dir = Path::new(".perfbench_run").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only if no concurrent run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
