//! Turning undirected graphs into oriented ones via a strict total rank.

use crate::{CsrGraph, DirectedGraph, Permutation, VertexId};

/// Orients every undirected edge from the endpoint with the **smaller rank**
/// to the one with the larger rank.
///
/// Because `rank` induces a strict total order on vertices, the resulting
/// directed graph is acyclic — in particular it contains no directed
/// 3-cycle, so every triangle of the source graph survives as exactly one
/// directed wedge-closing pattern `u -> v, u -> w, v -> w`. All edge-directing
/// schemes in `tc-core` reduce to computing a rank array and calling this.
///
/// # Panics
/// Panics if `rank.len() != g.num_vertices()` or if two adjacent vertices
/// share a rank (which would leave an edge undirectable).
pub fn orient_by_rank(g: &CsrGraph, rank: &[u64]) -> DirectedGraph {
    let n = g.num_vertices();
    assert_eq!(rank.len(), n, "rank array must cover every vertex");
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    // Every edge keeps exactly one direction.
    let mut out_neighbors = Vec::with_capacity(g.num_edges());
    for u in g.vertices() {
        let ru = rank[u as usize];
        // Source lists are sorted and filtering keeps their order.
        for &v in g.neighbors(u) {
            let rv = rank[v as usize];
            assert_ne!(ru, rv, "adjacent vertices {u} and {v} share rank {ru}");
            if ru < rv {
                out_neighbors.push(v);
            }
        }
        offsets.push(out_neighbors.len());
    }
    DirectedGraph::from_parts(offsets, out_neighbors)
}

/// [`orient_by_rank`] of `perm.apply(g)` under the relabelled rank
/// (`rank` moved to new ids), together with `perm.apply(g)` itself, in
/// one `O(|V| + |E|)` scatter: no row is sorted and no edge is read twice.
///
/// For each new id `w` in ascending order and each old neighbour `x` of
/// its old vertex `u`, `w` joins the relabelled row of `x` and, if
/// `rank[x] < rank[u]`, `x`'s out-row, so every row fills sorted.
/// `rank` and `out_degrees` are indexed by old id; `out_degrees[u]` counts
/// the neighbours of `u` with a larger rank and sizes the out-rows.
///
/// # Panics
/// Panics on a size mismatch, if adjacent vertices share a rank, or if
/// `out_degrees` disagrees with `rank`.
pub fn relabel_and_orient(
    g: &CsrGraph,
    perm: &Permutation,
    rank: &[u64],
    out_degrees: &[usize],
) -> (CsrGraph, DirectedGraph) {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation size mismatch");
    assert_eq!(rank.len(), n, "rank array must cover every vertex");
    assert_eq!(out_degrees.len(), n, "out-degree array size mismatch");
    let inv = perm.inverse();
    let offsets = inv.prefix_sums(|u| g.degree(u));
    let out_offsets = inv.prefix_sums(|u| out_degrees[u as usize]);
    // Both cursors of a row share a cache line: each entry moves both.
    let mut cursor: Vec<[usize; 2]> = (0..n).map(|r| [offsets[r], out_offsets[r]]).collect();
    let mut neighbors = vec![0 as VertexId; offsets[n]];
    let mut out_neighbors = vec![0 as VertexId; out_offsets[n]];
    for (w, &u) in inv.as_slice().iter().enumerate() {
        let (w, ru) = (w as VertexId, rank[u as usize]);
        for &x in g.neighbors(u) {
            let (row, rx) = (perm.map(x) as usize, rank[x as usize]);
            assert_ne!(ru, rx, "adjacent vertices {w} and {row} share rank {ru}");
            let c = &mut cursor[row];
            neighbors[c[0]] = w;
            c[0] += 1;
            if rx < ru {
                out_neighbors[c[1]] = w;
                c[1] += 1;
            }
        }
    }
    assert!(
        cursor
            .iter()
            .zip(&out_offsets[1..])
            .all(|(c, &end)| c[1] == end),
        "out-degrees disagree with the rank"
    );
    (
        CsrGraph::from_parts(offsets, neighbors),
        DirectedGraph::from_parts(out_offsets, out_neighbors),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn k4() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build()
    }

    #[test]
    fn identity_rank_orients_small_to_large_id() {
        let g = k4();
        let d = orient_by_rank(&g, &[0, 1, 2, 3]);
        assert_eq!(d.out_neighbors(0), &[1, 2, 3]);
        assert_eq!(d.out_degree(3), 0);
        assert_eq!(d.num_edges(), 6);
        assert!(d.validate().is_ok());
        assert_eq!(d.find_directed_triangle_cycle(), None);
    }

    #[test]
    fn reversed_rank_flips_orientation() {
        let g = k4();
        let d = orient_by_rank(&g, &[3, 2, 1, 0]);
        assert_eq!(d.out_degree(0), 0);
        assert_eq!(d.out_neighbors(3), &[0, 1, 2]);
    }

    #[test]
    fn every_edge_directed_exactly_once() {
        let g = k4();
        let d = orient_by_rank(&g, &[7, 3, 11, 5]);
        assert_eq!(d.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(d.has_edge(u, v) ^ d.has_edge(v, u));
        }
    }

    #[test]
    #[should_panic(expected = "share rank")]
    fn equal_ranks_on_adjacent_vertices_panic() {
        let g = k4();
        let _ = orient_by_rank(&g, &[1, 1, 2, 3]);
    }

    /// Out-degrees `rank` induces, by old id.
    fn out_degrees(g: &CsrGraph, rank: &[u64]) -> Vec<usize> {
        g.vertices()
            .map(|u| {
                let ru = rank[u as usize];
                g.neighbors(u)
                    .iter()
                    .filter(|&&v| ru < rank[v as usize])
                    .count()
            })
            .collect()
    }

    #[test]
    fn relabel_and_orient_matches_apply_then_orient() {
        let g = k4();
        let perm = Permutation::new(vec![2, 0, 3, 1]).expect("bijection");
        let rank = [7, 3, 11, 5];
        let mut new_rank = [0u64; 4];
        for (u, &r) in rank.iter().enumerate() {
            new_rank[perm.map(u as VertexId) as usize] = r;
        }
        let (h, d) = relabel_and_orient(&g, &perm, &rank, &out_degrees(&g, &rank));
        assert_eq!(h, perm.apply(&g));
        assert_eq!(d, orient_by_rank(&h, &new_rank));
    }

    #[test]
    #[should_panic(expected = "share rank")]
    fn relabel_and_orient_panics_on_shared_rank() {
        let g = k4();
        let rank = [1, 1, 2, 3];
        let _ = relabel_and_orient(
            &g,
            &Permutation::new(vec![3, 1, 0, 2]).expect("bijection"),
            &rank,
            &out_degrees(&g, &rank),
        );
    }

    #[test]
    #[should_panic(expected = "disagree with the rank")]
    fn relabel_and_orient_rejects_wrong_out_degrees() {
        let g = k4();
        let _ = relabel_and_orient(&g, &Permutation::identity(4), &[0, 1, 2, 3], &[2, 2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "must cover every vertex")]
    fn short_rank_array_panics() {
        let g = k4();
        let _ = orient_by_rank(&g, &[0, 1]);
    }
}
