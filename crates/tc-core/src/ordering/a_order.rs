//! A-order: the paper's Algorithm 2 for vertices.

use crate::model::ModelParams;
use crate::ordering::buckets::balanced_buckets;
use tc_graph::Permutation;

/// Computes the A-order permutation from the directed out-degrees.
///
/// Each vertex's *memory superiority* `F_m(d̃) − λ·F_c(d̃)` classifies it
/// as memory- or compute-dominated; the two-heap filler balances bucket
/// sums; vertices of one bucket then receive consecutive new ids (in
/// bucket order), so each GPU block's work set mixes resource demands.
///
/// Complexity `O(|V| log b)` with `b = ⌈|V| / bucket_size⌉` buckets.
pub fn a_order_permutation(
    out_degrees: &[usize],
    params: &ModelParams,
    bucket_size: usize,
) -> Permutation {
    let n = out_degrees.len();
    if n == 0 {
        return Permutation::identity(0);
    }
    let bucket_size = bucket_size.max(1);
    let num_buckets = n.div_ceil(bucket_size);
    let superiority =
        params.memory_superiority_table(out_degrees.iter().copied().max().unwrap_or(0));
    let items: Vec<(u32, f64)> = out_degrees
        .iter()
        .enumerate()
        .map(|(v, &d)| (v as u32, superiority[d]))
        .collect();
    let buckets = balanced_buckets(&items, num_buckets, bucket_size);
    let order: Vec<u32> = buckets.into_iter().flatten().collect();
    Permutation::from_order(&order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ordering_cost;
    use crate::ordering::{OrderingContext, OrderingScheme};
    use tc_graph::generators::power_law_configuration;

    fn reorder_degrees(perm: &Permutation, degrees: &[usize]) -> Vec<usize> {
        let mut out = vec![0usize; degrees.len()];
        for (old, &d) in degrees.iter().enumerate() {
            out[perm.map(old as u32) as usize] = d;
        }
        out
    }

    #[test]
    fn identity_on_empty_input() {
        let p = a_order_permutation(&[], &ModelParams::default_analytic(), 8);
        assert!(p.is_empty());
    }

    #[test]
    fn produces_valid_permutation() {
        let degrees: Vec<usize> = (0..137).map(|i| (i * 7) % 100).collect();
        let p = a_order_permutation(&degrees, &ModelParams::default_analytic(), 16);
        assert_eq!(p.len(), 137);
    }

    #[test]
    fn table_lookup_matches_per_vertex_evaluation() {
        // Every degree 0..=20 000 once, scrambled (7919 is coprime to
        // 20 001), against the per-vertex evaluation the table replaces.
        let degrees: Vec<usize> = (0..=20_000).map(|i| (i * 7919) % 20_001).collect();
        let params = ModelParams::default_analytic();
        let k = 64;
        let items: Vec<(u32, f64)> = degrees
            .iter()
            .enumerate()
            .map(|(v, &d)| (v as u32, params.memory_superiority(d)))
            .collect();
        let order: Vec<u32> = balanced_buckets(&items, degrees.len().div_ceil(k), k)
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(
            a_order_permutation(&degrees, &params, k),
            Permutation::from_order(&order)
        );
    }

    #[test]
    fn a_order_lowers_equation_3_cost_vs_degree_order() {
        // The model-level claim behind Table 5: the reordering minimizes
        // Σ |λC_i − M_i| against the worst case (similar degrees grouped).
        let g = power_law_configuration(1000, 2.1, 8.0, 9);
        let params = ModelParams::default_analytic();
        let out_degrees: Vec<usize> = g
            .vertices()
            .map(|u| {
                g.neighbors(u)
                    .iter()
                    .filter(|&&v| (g.degree(v), v) > (g.degree(u), u))
                    .count()
            })
            .collect();
        let k = 32;
        let ctx = OrderingContext {
            out_degrees: &out_degrees,
            params: &params,
            bucket_size: k,
        };

        let cost_of = |scheme: OrderingScheme| {
            let p = scheme.permutation(&g, &ctx);
            ordering_cost(&reorder_degrees(&p, &out_degrees), &params, k)
        };

        let original = cost_of(OrderingScheme::Original);
        let d_order = cost_of(OrderingScheme::DegreeOrder);
        let a_order = cost_of(OrderingScheme::AOrder);
        assert!(
            a_order <= original,
            "A-order {a_order} must not exceed original {original}"
        );
        assert!(
            a_order < d_order,
            "A-order {a_order} must beat D-order {d_order}"
        );
    }

    #[test]
    fn buckets_have_bounded_spread() {
        // After A-order, consecutive-k groups should have near-equal
        // mem_sup; verify the max |sum| shrinks versus degree order.
        let degrees: Vec<usize> = (0..256)
            .map(|i| if i % 2 == 0 { 1 } else { 4096 })
            .collect();
        let params = ModelParams::default_analytic();
        let p = a_order_permutation(&degrees, &params, 8);
        let reordered = reorder_degrees(&p, &degrees);
        for bucket in reordered.chunks(8) {
            let heavy = bucket.iter().filter(|&&d| d > 100).count();
            assert_eq!(heavy, 4, "each bucket must get half the heavy items");
        }
    }
}
