//! Seeded request scripts. The same seed gives byte-identical request
//! lines, so every run of a workload replays the same sequence, and the
//! traced replay can regenerate exactly what the TCP clients sent.

use std::fmt::Write as _;
use tc_graph::{CsrGraph, GraphBuilder, VertexId};
use tc_stream::EdgeOp;

/// The dataset `cold-count` counts and `stream-rw` mutates.
pub const GOWALLA: &str = "gowalla";
/// The dataset `simulate-hu` simulates (a paper Table 5 dataset).
pub const ENRON: &str = "email-Enron";
/// Closed-loop clients of `cold-count` (one per core of the 2-core
/// runner the workloads were sized on).
pub const COLD_CLIENTS: usize = 2;
/// Edge operations per `stream-rw` update: half deletes, half inserts.
pub const BATCH_OPS: usize = 256;
/// Edges the `stream-rw` set-up batch deletes into the re-insert pool.
pub const POOL_OPS: usize = 4 * BATCH_OPS;

/// SplitMix64: a small, fast, seedable generator (the benchmark needs
/// reproducibility, not cryptographic quality).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }
}

/// The A-order bucket size each `cold-count` client uses. They are
/// distinct, so no two requests in flight share a registry key and the
/// registry's same-key dedup never merges two clients' work.
pub fn cold_count_buckets(seed: u64) -> [usize; COLD_CLIENTS] {
    let base = 56 + SplitMix64::new(seed).below(16);
    std::array::from_fn(|client| base + client)
}

/// One `cold-count` request.
pub fn count_line(bucket: usize, id: u64) -> String {
    format!(r#"{{"op":"count","dataset":"{GOWALLA}","bucket_size":{bucket},"id":{id}}}"#)
}

/// The `simulate-hu` set-up request: preprocess the default variant.
pub fn simulate_load_line() -> String {
    format!(r#"{{"op":"load","dataset":"{ENRON}"}}"#)
}

/// One `simulate-hu` request (default A-direction, A-order, bucket 64).
pub fn simulate_line(id: u64) -> String {
    format!(r#"{{"op":"simulate","dataset":"{ENRON}","algo":"hu","id":{id}}}"#)
}

/// One `stream-rw` read.
pub fn clustering_line(id: u64) -> String {
    format!(r#"{{"op":"clustering","dataset":"{GOWALLA}","id":{id}}}"#)
}

/// The `stream-rw` subscription: any change of `vertex`'s clustering
/// coefficient pushes a frame.
pub fn subscribe_line(vertex: VertexId) -> String {
    format!(
        r#"{{"op":"subscribe","dataset":"{GOWALLA}","predicate":{{"kind":"clustering-delta","vertex":{vertex},"epsilon":0.0}}}}"#
    )
}

/// One `stream-rw` update carrying `ops`.
pub fn update_line(ops: &[EdgeOp], id: u64) -> String {
    let mut line = String::with_capacity(48 + ops.len() * 20);
    let _ = write!(line, r#"{{"op":"update","dataset":"{GOWALLA}","edges":["#);
    for (i, op) in ops.iter().enumerate() {
        let (u, v) = op.endpoints();
        let action = if op.is_insert() { '+' } else { '-' };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(line, r#"{sep}[{u},{v},"{action}"]"#);
    }
    let _ = write!(line, r#"],"id":{id}}}"#);
    line
}

/// The `stream-rw` edge script over a graph's edge set.
///
/// Set-up deletes a pool of [`POOL_OPS`] edges. Every later batch
/// deletes [`BATCH_OPS`]`/2` edges present at that point and re-inserts
/// as many edges from the pool of edges deleted earlier, so `|E|`, the
/// delta overlay (the pool's size) and the per-batch work stay
/// stationary. The overlay stays under the default compaction budget
/// `max(256, |E|/8)` of any graph with more than `8 ×` [`POOL_OPS`]
/// edges, so no compaction runs: every run of a seed does the same work.
#[derive(Clone, Debug)]
pub struct StreamScript {
    rng: SplitMix64,
    vertices: usize,
    present: Vec<(VertexId, VertexId)>,
    pool: Vec<(VertexId, VertexId)>,
}

impl StreamScript {
    /// A script over `g`'s edges, driven by `seed`.
    pub fn new(g: &CsrGraph, seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            vertices: g.num_vertices(),
            present: g.edges().filter(|&(u, v)| u < v).collect(),
            pool: Vec::new(),
        }
    }

    fn take_present(&mut self) -> (VertexId, VertexId) {
        let i = self.rng.below(self.present.len());
        self.present.swap_remove(i)
    }

    /// The set-up batch: deletes the pool. Call once, before any
    /// [`next_batch`](Self::next_batch).
    pub fn setup_ops(&mut self) -> Vec<EdgeOp> {
        let dels: Vec<_> = (0..POOL_OPS).map(|_| self.take_present()).collect();
        self.pool.extend_from_slice(&dels);
        dels.iter().map(|&(u, v)| EdgeOp::Delete(u, v)).collect()
    }

    /// The next measured batch: deletes of present edges, then inserts of
    /// pooled edges. Edges deleted by this batch join the pool only
    /// after it, so no edge appears twice in one batch.
    pub fn next_batch(&mut self) -> Vec<EdgeOp> {
        let half = BATCH_OPS / 2;
        let dels: Vec<_> = (0..half).map(|_| self.take_present()).collect();
        let mut ops: Vec<EdgeOp> = dels.iter().map(|&(u, v)| EdgeOp::Delete(u, v)).collect();
        for _ in 0..half {
            let i = self.rng.below(self.pool.len());
            let (u, v) = self.pool.swap_remove(i);
            self.present.push((u, v));
            ops.push(EdgeOp::Insert(u, v));
        }
        self.pool.extend_from_slice(&dels);
        ops
    }

    /// Edges present after every batch handed out so far (`u < v`).
    pub fn present(&self) -> &[(VertexId, VertexId)] {
        &self.present
    }

    /// The graph every batch handed out so far produces: the replica the
    /// server's final count is checked against.
    pub fn replica(&self) -> CsrGraph {
        GraphBuilder::from_edges(self.vertices, &self.present).build()
    }
}

/// Highest-degree vertex (lowest id on ties): the `stream-rw`
/// subscription watches it, since its clustering changes often.
pub fn hub_vertex(g: &CsrGraph) -> VertexId {
    g.vertices()
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .expect("non-empty graph")
}
