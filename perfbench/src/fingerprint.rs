//! The runner fingerprint printed with every run, so two results can be
//! compared only when they came from comparable machines and builds.

use std::path::Path;
use tc_service::json::{obj, s, u, Json};
use tc_service::ServerConfig;

/// The git revision of the source tree the benchmark runs from, read
/// from `.git` without running git; `"unknown"` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|t| t.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of `dir` as `stat -f` reports it.
fn filesystem_type(dir: &Path) -> String {
    std::process::Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The fingerprint: cores, SIMD tier, source revision, trace-generation
/// threads, the server configuration, and the filesystem of the working
/// directory, where the traced replay keeps its WAL.
pub fn collect(config: &ServerConfig) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("nproc", u(nproc as u64)),
        ("simd_tier", s(tc_algos::simd::active_tier())),
        ("git_rev", s(git_revision())),
        (
            "pipeline_threads",
            u(tc_gpusim::pipeline::configured_threads() as u64),
        ),
        (
            "server",
            obj(vec![
                ("shards", u(config.shards as u64)),
                ("workers", u(config.workers as u64)),
                ("queue_capacity", u(config.queue_capacity as u64)),
                ("registry_budget", u(config.registry_budget as u64)),
                (
                    "background_compaction",
                    Json::Bool(config.background_compaction),
                ),
                ("snapshot_every_batches", u(config.snapshot_every_batches)),
            ]),
        ),
        ("wal_fs", s(filesystem_type(Path::new(".")))),
    ])
}
