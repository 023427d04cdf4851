//! Differential suite for the adaptive intersection engine: every
//! kernel (merge, galloping, bitmap, word-bitmap, simd-merge, adaptive —
//! plus the seed-era `hashed_count` baseline) must agree with the naive
//! `node_iterator` ground truth on random, skewed, and star-shaped
//! graphs; the packed-word and SIMD paths are additionally pinned to the
//! scalar merge on adversarial list shapes; and a scratch reused across
//! calls must change nothing.

use proptest::prelude::*;
use tc_algos::cpu;
use tc_algos::engine::{self, Kernel, Scratch, ScratchPool};
use tc_algos::intersect::merge_count;
use tc_algos::simd;
use tc_graph::generators::{erdos_renyi, power_law_configuration};
use tc_graph::{orient_by_rank, CsrGraph, GraphBuilder};

/// The adversarial list lengths: zero, singleton, and every off-by-one
/// around the 64-bit word and the 128-element double-word boundaries the
/// packed bitmap and the SIMD blocks care about.
const ADVERSARIAL_LENS: [usize; 7] = [0, 1, 63, 64, 65, 127, 128];

/// Strategy: a strictly-increasing `u32` list of one of the adversarial
/// lengths, with the inter-element gap pattern chosen by the cases —
/// dense runs (gap 1, maximal word sharing), sparse strides (every probe
/// in its own word), and mixed random gaps.
fn adversarial_list() -> impl Strategy<Value = Vec<u32>> {
    (
        0usize..ADVERSARIAL_LENS.len(),
        0u32..128,
        prop::collection::vec(1u32..70, 128..129),
    )
        .prop_map(|(len_idx, start, gaps)| {
            let len = ADVERSARIAL_LENS[len_idx];
            let mut v = Vec::with_capacity(len);
            let mut x = start;
            for &g in gaps.iter().take(len) {
                v.push(x);
                x = x.saturating_add(g);
            }
            v
        })
}

/// Asserts every kernel (through one shared scratch) plus the hashed
/// baseline against the node-iterator ground truth.
fn check_all_kernels(g: &CsrGraph, scratch: &mut Scratch) {
    let expect = cpu::node_iterator(g);
    for kernel in Kernel::ALL {
        assert_eq!(
            cpu::forward_with(g, kernel, scratch),
            expect,
            "kernel {} diverged",
            kernel.name()
        );
    }
    let rank: Vec<u64> = g.vertices().map(u64::from).collect();
    let oriented = orient_by_rank(g, &rank);
    assert_eq!(cpu::hashed_count(&oriented), expect, "hashed diverged");
}

/// A star graph (hub 0 → every other vertex) with extra random edges
/// among the leaves — the extreme long-vs-short list shape that drives
/// the galloping/pinning paths.
fn star_with_leaf_edges(n: u32, leaf_edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for v in 1..n {
        b.add_edge(0, v);
    }
    for &(a, bb) in leaf_edges {
        // Leaves live in 1..n; collisions and self-loops are the
        // builder's job to drop.
        let u = 1 + a % (n - 1);
        let v = 1 + bb % (n - 1);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random sparse graphs: all kernels == node_iterator, one scratch
    /// shared across every kernel and case.
    #[test]
    fn kernels_agree_on_random_graphs(
        (n, m_factor, seed) in (8usize..120, 1usize..6, 0u64..1 << 40),
    ) {
        let g = erdos_renyi(n, n * m_factor, seed);
        let mut scratch = Scratch::new();
        check_all_kernels(&g, &mut scratch);
    }

    /// Skewed (power-law) graphs: the degree spread exercises both
    /// sides of the gallop/merge crossover and the pin threshold.
    #[test]
    fn kernels_agree_on_skewed_graphs(
        (n, seed) in (50usize..400, 0u64..1 << 40),
    ) {
        let g = power_law_configuration(n, 2.1, 6.0, seed);
        let mut scratch = Scratch::new();
        check_all_kernels(&g, &mut scratch);
    }

    /// Star graphs with random chords: a single huge hub list
    /// intersected with tiny leaf lists.
    #[test]
    fn kernels_agree_on_star_graphs(
        (n, edges) in (8u32..200, prop::collection::vec((0u32..1000, 0u32..1000), 0..60)),
    ) {
        let g = star_with_leaf_edges(n, &edges);
        let mut scratch = Scratch::new();
        check_all_kernels(&g, &mut scratch);
    }

    /// Word-bitmap and SIMD merge pinned to the scalar merge on
    /// adversarial list shapes (lengths straddling the word and block
    /// boundaries, dense/sparse/mixed gaps), through both a fresh and a
    /// warm scratch.
    #[test]
    fn word_and_simd_paths_match_scalar_merge(
        (a, b) in (adversarial_list(), adversarial_list()),
    ) {
        let expect = merge_count(&a, &b);
        let mut warm = Scratch::new();
        // Dirty the scratch so stale epochs/words are in play.
        let noise: Vec<u32> = (0..97).collect();
        engine::intersect_words(&noise, &noise, &mut warm);
        for scratch in [&mut Scratch::new(), &mut warm] {
            prop_assert_eq!(
                engine::intersect_count(Kernel::WordBitmap, &a, &b, scratch),
                expect,
                "word-bitmap diverged on {} vs {}",
                a.len(),
                b.len()
            );
            prop_assert_eq!(
                engine::intersect_count(Kernel::SimdMerge, &a, &b, scratch),
                expect
            );
        }
        prop_assert_eq!(simd::simd_merge_count(&a, &b), expect);
        prop_assert_eq!(simd::block_merge_count(&a, &b), expect);
        // Symmetry: the kernels must not care which operand is pinned.
        let mut scratch = Scratch::new();
        prop_assert_eq!(
            engine::intersect_count(Kernel::WordBitmap, &b, &a, &mut scratch),
            expect
        );
        prop_assert_eq!(simd::simd_merge_count(&b, &a), expect);
        // The pinned probe path (gather-accelerated on AVX2) and
        // its scalar reference, probing each side against the other.
        for (pinned, probed) in [(&a, &b), (&b, &a)] {
            scratch.mark(pinned);
            prop_assert_eq!(scratch.count_marked_fast(probed), expect);
            prop_assert_eq!(scratch.count_marked_scalar(probed), expect);
        }
    }

    /// All-overlap and no-overlap at every adversarial length pair —
    /// enumerated exhaustively rather than sampled.
    #[test]
    fn word_and_simd_paths_cover_overlap_extremes(offset in 0u32..200) {
        let mut scratch = Scratch::new();
        for &la in &ADVERSARIAL_LENS {
            for &lb in &ADVERSARIAL_LENS {
                let a: Vec<u32> = (offset..offset + la as u32).collect();
                let same: Vec<u32> = (offset..offset + lb as u32).collect();
                let disjoint: Vec<u32> = (1000 + offset..1000 + offset + lb as u32).collect();
                for b in [&same, &disjoint] {
                    let expect = merge_count(&a, b);
                    prop_assert_eq!(
                        engine::intersect_count(Kernel::WordBitmap, &a, b, &mut scratch),
                        expect
                    );
                    prop_assert_eq!(simd::simd_merge_count(&a, b), expect);
                }
            }
        }
    }

    /// A scratch carried across many different graphs (stale stamps,
    /// grown buffers) must count exactly like a fresh one each time.
    #[test]
    fn scratch_reuse_across_calls_is_transparent(
        seeds in prop::collection::vec(0u64..1 << 40, 2..6),
    ) {
        let mut warm = Scratch::new();
        for (i, &seed) in seeds.iter().enumerate() {
            // Alternate shapes so the reused scratch sees shrinking and
            // growing vertex ranges.
            let g = if i % 2 == 0 {
                power_law_configuration(200, 2.2, 7.0, seed)
            } else {
                erdos_renyi(40, 120, seed)
            };
            for kernel in Kernel::ALL {
                let mut fresh = Scratch::new();
                prop_assert_eq!(
                    cpu::forward_with(&g, kernel, &mut warm),
                    cpu::forward_with(&g, kernel, &mut fresh),
                    "warm scratch diverged from fresh on kernel {}",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn pooled_scratch_counts_like_fresh() {
    let pool = ScratchPool::new();
    let g = power_law_configuration(300, 2.1, 8.0, 7);
    let expect = cpu::node_iterator(&g);
    // Two checkouts in sequence: the second reuses the warm scratch.
    for _ in 0..2 {
        let mut scratch = pool.checkout();
        assert_eq!(
            cpu::forward_with(&g, Kernel::Adaptive, &mut scratch),
            expect
        );
    }
    assert_eq!(pool.idle(), 1);
}

#[test]
fn kernels_agree_on_pure_star() {
    // Degenerate: no triangles at all, hub degree n-1.
    let g = star_with_leaf_edges(64, &[]);
    let mut scratch = Scratch::new();
    for kernel in Kernel::ALL {
        assert_eq!(cpu::forward_with(&g, kernel, &mut scratch), 0);
    }
}

#[test]
fn kernels_agree_on_two_hub_overlap() {
    // Two hubs sharing all leaves: every leaf closes a triangle with
    // the hub edge — long-list ∩ long-list with a short bridge.
    let n: u32 = 40;
    let mut b = GraphBuilder::new(n as usize);
    b.add_edge(0, 1);
    for v in 2..n {
        b.add_edge(0, v);
        b.add_edge(1, v);
    }
    let g = b.build();
    let expect = u64::from(n) - 2;
    assert_eq!(cpu::node_iterator(&g), expect);
    let mut scratch = Scratch::new();
    for kernel in Kernel::ALL {
        assert_eq!(
            cpu::forward_with(&g, kernel, &mut scratch),
            expect,
            "kernel {}",
            kernel.name()
        );
    }
}
