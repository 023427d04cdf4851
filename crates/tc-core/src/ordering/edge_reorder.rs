//! A-order for *edges*: the Fox experiment (Figure 15).
//!
//! Fox's algorithm dispatches edges (not vertices) to blocks, so its
//! reordering unit is the edge. The analytic treatment is identical to
//! Algorithm 2 with the edge's intersection size `d̃(u) + d̃(v)` playing
//! the role of the degree: long combined lists are memory-dominated, short
//! ones compute-dominated, and blocks should receive a balanced mix.

use crate::model::ModelParams;
use crate::ordering::buckets::balanced_buckets;
use tc_graph::DirectedGraph;

/// Computes a balanced edge processing order for `g`.
///
/// `edges_per_block` is the number of consecutive work items one block
/// consumes (warps per block × edges per warp in the kernel). Returns a
/// permutation of edge ids (positions into the CSR edge array).
pub fn a_order_edges(g: &DirectedGraph, params: &ModelParams, edges_per_block: usize) -> Vec<u32> {
    let m = g.num_edges();
    if m == 0 {
        return Vec::new();
    }
    let edges_per_block = edges_per_block.max(1);
    // An edge's work is at most twice the largest out-degree.
    let max_out = g.vertices().map(|u| g.out_degree(u)).max().unwrap_or(0);
    let superiority = params.memory_superiority_table(2 * max_out);
    let mut items = Vec::with_capacity(m);
    let mut e = 0u32;
    for u in g.vertices() {
        for &v in g.out_neighbors(u) {
            let work = g.out_degree(u) + g.out_degree(v);
            items.push((e, superiority[work]));
            e += 1;
        }
    }
    let num_buckets = m.div_ceil(edges_per_block);
    balanced_buckets(&items, num_buckets, edges_per_block)
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::generators::power_law_configuration;
    use tc_graph::orient_by_rank;

    fn directed(seed: u64) -> DirectedGraph {
        let g = power_law_configuration(300, 2.1, 8.0, seed);
        let rank: Vec<u64> = g.vertices().map(u64::from).collect();
        orient_by_rank(&g, &rank)
    }

    #[test]
    fn order_is_a_permutation_of_edges() {
        let d = directed(1);
        let order = a_order_edges(&d, &ModelParams::default_analytic(), 32);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..d.num_edges() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_graph_gives_empty_order() {
        let d = DirectedGraph::from_parts(vec![0, 0], vec![]);
        assert!(a_order_edges(&d, &ModelParams::default_analytic(), 8).is_empty());
    }

    #[test]
    fn blocks_mix_heavy_and_light_edges() {
        let d = directed(2);
        let params = ModelParams::default_analytic();
        let epb = 32;
        let order = a_order_edges(&d, &params, epb);

        // Work estimate per edge id.
        let mut work = Vec::with_capacity(d.num_edges());
        for u in d.vertices() {
            for &v in d.out_neighbors(u) {
                work.push(d.out_degree(u) + d.out_degree(v));
            }
        }
        // Compare the per-block work spread against the sorted-by-work
        // (radix-binned) order: balanced buckets must be flatter.
        let spread = |order: &[u32]| -> f64 {
            let sums: Vec<u64> = order
                .chunks(epb)
                .map(|c| c.iter().map(|&e| work[e as usize] as u64).sum())
                .collect();
            let mean = sums.iter().sum::<u64>() as f64 / sums.len() as f64;
            sums.iter().map(|&s| (s as f64 - mean).abs()).sum::<f64>() / sums.len() as f64
        };
        let mut binned: Vec<u32> = (0..d.num_edges() as u32).collect();
        binned.sort_by_key(|&e| work[e as usize]);
        assert!(
            spread(&order) < spread(&binned),
            "balanced {} vs binned {}",
            spread(&order),
            spread(&binned)
        );
    }
}
