//! Generator tests: the request scripts are reproducible, `cold-count`
//! clients never share a registry key, and `stream-rw` only deletes
//! edges that are present and only inserts edges that are absent.

use perfbench::script::{self, StreamScript, BATCH_OPS, COLD_CLIENTS, POOL_OPS};
use std::collections::HashSet;
use tc_datasets::Dataset;
use tc_service::protocol::parse_request;
use tc_service::Request;
use tc_stream::EdgeOp;

/// Every request line a workload would send for `seed`, in order (the
/// stream script's set-up batch, then `batches` update/read pairs).
fn stream_lines(seed: u64, batches: usize) -> Vec<String> {
    let g = tc_datasets::load(Dataset::EmailEucore);
    let mut s = StreamScript::new(&g, seed);
    let mut lines = vec![script::update_line(&s.setup_ops(), 0)];
    for i in 1..=batches as u64 {
        lines.push(script::update_line(&s.next_batch(), 2 * i - 1));
        lines.push(script::clustering_line(2 * i));
    }
    lines
}

fn cold_lines(seed: u64, per_client: u64) -> Vec<String> {
    script::cold_count_buckets(seed)
        .iter()
        .flat_map(|&b| (1..=per_client).map(move |id| script::count_line(b, id)))
        .collect()
}

#[test]
fn same_seed_gives_a_byte_identical_script() {
    for seed in [0, 1, 42, u64::MAX] {
        assert_eq!(stream_lines(seed, 50), stream_lines(seed, 50));
        assert_eq!(cold_lines(seed, 20), cold_lines(seed, 20));
    }
    assert_eq!(script::simulate_line(7), script::simulate_line(7));
    assert_ne!(stream_lines(1, 5), stream_lines(2, 5), "seed must matter");
}

#[test]
fn every_line_parses_as_its_op() {
    for line in stream_lines(3, 10).iter().skip(1) {
        match parse_request(line).expect("valid request").request {
            Request::Update { ops, .. } => assert_eq!(ops.len(), BATCH_OPS),
            Request::Clustering(d) => assert_eq!(d, Dataset::Gowalla),
            other => panic!("unexpected {other:?}"),
        }
    }
    for line in [
        script::simulate_line(1),
        script::simulate_load_line(),
        script::subscribe_line(5),
    ] {
        parse_request(&line).expect("valid request");
    }
}

#[test]
fn concurrent_cold_count_requests_never_share_a_registry_key() {
    for seed in 0..500 {
        let keys: HashSet<_> = script::cold_count_buckets(seed)
            .iter()
            .map(
                |&b| match parse_request(&script::count_line(b, 1)).unwrap().request {
                    Request::Count(target) => target,
                    other => panic!("unexpected {other:?}"),
                },
            )
            .collect();
        assert_eq!(keys.len(), COLD_CLIENTS, "seed {seed}");
    }
}

/// Applies one batch to the model, asserting the script's promises.
fn apply(present: &mut HashSet<(u32, u32)>, ops: &[EdgeOp]) {
    let mut touched = HashSet::new();
    for op in ops {
        let (u, v) = op.endpoints();
        assert!(u < v, "canonical order");
        assert!(touched.insert((u, v)), "edge twice in one batch");
        if op.is_insert() {
            assert!(present.insert((u, v)), "insert of a present edge");
        } else {
            assert!(present.remove(&(u, v)), "delete of an absent edge");
        }
    }
}

#[test]
fn stream_deletes_only_present_edges_and_inserts_only_absent_ones() {
    let g = tc_datasets::load(Dataset::EmailEucore);
    let mut present: HashSet<(u32, u32)> = g.edges().filter(|&(u, v)| u < v).collect();
    let edges = present.len();
    let mut s = StreamScript::new(&g, 9);
    let setup = s.setup_ops();
    assert_eq!(setup.len(), POOL_OPS);
    assert!(
        setup.len() < edges / 8,
        "pool stays under the compaction budget"
    );
    apply(&mut present, &setup);
    let steady = present.len();
    for _ in 0..200 {
        let ops = s.next_batch();
        assert_eq!(ops.len(), BATCH_OPS);
        apply(&mut present, &ops);
        assert_eq!(present.len(), steady, "|E| stays stationary");
    }
    let replica: HashSet<_> = s.present().iter().copied().collect();
    assert_eq!(replica, present);
    assert_eq!(s.replica().num_edges(), steady);
}
