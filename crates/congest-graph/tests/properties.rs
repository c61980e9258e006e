//! Property-based tests of the graph substrate.

#![allow(clippy::needless_range_loop)] // index loops mirror the paper's matrix notation
use congest_graph::overlay::{sample_skeleton, BoundedHopTable, Overlay, SkeletonDistances};
use congest_graph::rounding::{approx_hop_bounded, RoundingScheme};
use congest_graph::{
    generators, metrics, shortest_path, Dist, GraphBuilder, SsspWorkspace, WeightedGraph,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..20, any::<u64>(), 1u64..16).prop_map(|(n, seed, w)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::erdos_renyi_connected(n, 0.25, w, &mut rng)
    })
}

/// `SkeletonDistances` for one skeleton computed from scratch, row by row,
/// without a [`BoundedHopTable`]: `w'` is the symmetric min of the two
/// `d̃^ℓ` rows of each pair.
fn fresh_skeleton_distances(
    g: &WeightedGraph,
    skeleton: &[usize],
    scheme: RoundingScheme,
    k: usize,
) -> (Overlay, SkeletonDistances) {
    let mut nodes = skeleton.to_vec();
    nodes.sort_unstable();
    let rows: Vec<Vec<f64>> = nodes
        .iter()
        .map(|&u| approx_hop_bounded(g, u, scheme))
        .collect();
    let s = nodes.len();
    let mut w = vec![0.0; s * s];
    for i in 0..s {
        for j in 0..s {
            if i != j {
                w[i * s + j] = rows[i][nodes[j]].min(rows[j][nodes[i]]);
            }
        }
    }
    let overlay = Overlay::from_matrix(nodes.clone(), w);
    let sd = SkeletonDistances {
        skeleton: nodes,
        bounded_hop: rows,
        shortcut: overlay.shortcut(k),
        overlay_ell: ((4 * s) as f64 / k as f64).ceil().max(1.0) as usize,
        eps: scheme.eps,
    };
    (overlay, sd)
}

fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

fn weight_bits(ov: &Overlay) -> Vec<u64> {
    bits((0..ov.len()).flat_map(|i| (0..ov.len()).map(move |j| ov.weight(i, j))))
}

fn skeleton_distance_bits(sd: &SkeletonDistances) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    (
        weight_bits(&sd.shortcut),
        bits(sd.bounded_hop.iter().flatten().copied()),
        bits(sd.skeleton.iter().map(|&s| sd.approx_eccentricity(s))),
    )
}

/// Building the table runs `imax + 1` mapped-weight searches per distinct
/// source of `∪S_i`, however often the sets repeat a node; building every
/// set's `SkeletonDistances` from it runs none.
#[test]
fn table_runs_one_row_per_distinct_source() {
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    for n in [8usize, 13, 20] {
        let g = generators::erdos_renyi_connected(n, 0.3, 12, &mut rng);
        // The corpus calibration: ℓ = n, r = 0.35·n, so each node joins
        // about a third of the n sets.
        let scheme = RoundingScheme::new(n, 0.25);
        let sets: Vec<Vec<usize>> = (0..n).map(|_| sample_skeleton(n, 0.35, &mut rng)).collect();
        let mut union: Vec<usize> = sets.iter().flatten().copied().collect();
        let memberships = union.len();
        union.sort_unstable();
        union.dedup();
        assert!(memberships > 2 * union.len(), "the sets overlap");
        let imax = scheme.max_scale(n, g.max_weight()) as u64;
        let mut ws = SsspWorkspace::new();
        let table = BoundedHopTable::build_in(&g, sets.iter().flatten().copied(), scheme, &mut ws);
        let built = ws.counters();
        assert_eq!(table.sources(), &union[..]);
        assert_eq!(built.heap_runs, union.len() as u64 * (imax + 1));
        assert_eq!(built.total_runs(), built.heap_runs);
        for set in sets.iter().filter(|s| !s.is_empty()) {
            let sd = SkeletonDistances::from_table(&table, set, 3);
            assert_eq!(sd.skeleton.len(), set.len());
        }
        assert_eq!(ws.counters(), built, "reading the table runs no search");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reading `w'`, `w''`, the bounded-hop rows and the eccentricities of
    /// several overlapping skeletons from one shared table gives the same
    /// bits as computing each skeleton from scratch.
    #[test]
    fn from_table_is_bit_identical_to_fresh_sets(
        g in arb_graph(),
        seed in any::<u64>(),
        rate in 0.1f64..0.9,
        ell in 1usize..24,
        eps in 0.1f64..1.0,
        k in 1usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sets: Vec<Vec<usize>> = (0..4)
            .map(|_| sample_skeleton(g.n(), rate, &mut rng))
            .filter(|s| !s.is_empty())
            .collect();
        prop_assume!(!sets.is_empty());
        let scheme = RoundingScheme::new(ell, eps);
        let table = BoundedHopTable::build(&g, sets.iter().flatten().copied(), scheme);
        for set in &sets {
            let (fresh_overlay, fresh) = fresh_skeleton_distances(&g, set, scheme, k);
            let overlay = Overlay::from_table(&table, set);
            prop_assert_eq!(overlay.nodes(), fresh_overlay.nodes());
            prop_assert_eq!(weight_bits(&overlay), weight_bits(&fresh_overlay));
            prop_assert_eq!(
                weight_bits(&Overlay::from_skeleton(&g, set, scheme)),
                weight_bits(&fresh_overlay)
            );
            let want = skeleton_distance_bits(&fresh);
            let shared = SkeletonDistances::from_table(&table, set, k);
            prop_assert_eq!(&shared.skeleton, &fresh.skeleton);
            prop_assert_eq!(shared.overlay_ell, fresh.overlay_ell);
            prop_assert_eq!(skeleton_distance_bits(&shared), want.clone());
            let own = SkeletonDistances::compute(&g, set, scheme, k);
            prop_assert_eq!(skeleton_distance_bits(&own), want);
        }
    }

    /// Builder canonicalization: edge count, symmetry, weight positivity.
    #[test]
    fn builder_invariants(edges in proptest::collection::vec((0usize..10, 0usize..10, 1u64..100), 1..40)) {
        let valid: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
        prop_assume!(!valid.is_empty());
        let mut b = GraphBuilder::new(10);
        for &(u, v, w) in &valid {
            b.add_edge(u, v, w);
        }
        let g = b.build().unwrap();
        for e in g.edges() {
            prop_assert!(e.u < e.v, "canonical orientation");
            prop_assert!(e.w >= 1);
            prop_assert_eq!(g.edge_weight(e.u, e.v), Some(e.w));
            prop_assert_eq!(g.edge_weight(e.v, e.u), Some(e.w));
            // Minimum over parallel edges.
            let min_w = valid.iter()
                .filter(|&&(a, b2, _)| (a.min(b2), a.max(b2)) == (e.u, e.v))
                .map(|&(_, _, w)| w)
                .min()
                .unwrap();
            prop_assert_eq!(e.w, min_w);
        }
    }

    /// Distances are symmetric on undirected graphs.
    #[test]
    fn distance_symmetry(g in arb_graph()) {
        let apsp = shortest_path::apsp(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(apsp[u][v], apsp[v][u]);
            }
        }
    }

    /// Eccentricity bounds: R ≤ e(v) ≤ D = max ecc, D ≤ 2R.
    #[test]
    fn eccentricity_bounds(g in arb_graph()) {
        let d = metrics::diameter(&g);
        let r = metrics::radius(&g);
        prop_assert!(r <= d);
        prop_assert!(d <= r.saturating_mul(2));
        for v in g.nodes() {
            let e = metrics::eccentricity(&g, v);
            prop_assert!(e >= r && e <= d);
        }
    }

    /// Unweighted diameter never exceeds weighted diameter (weights ≥ 1),
    /// and hop diameter ≥ unweighted diameter.
    #[test]
    fn diameter_orderings(g in arb_graph()) {
        let du = metrics::unweighted_diameter(&g) as u64;
        let dw = metrics::diameter(&g).expect_finite();
        prop_assert!(du <= dw);
        let h = metrics::hop_diameter(&g);
        prop_assert!(h >= du as usize);
    }

    /// The k-shortcut graph never increases weights and keeps them above
    /// true overlay distances; its hop diameter obeys Theorem 3.10's bound.
    #[test]
    fn shortcut_invariants(g in arb_graph(), k in 1usize..5) {
        prop_assume!(g.n() >= 8);
        let skeleton: Vec<_> = (0..g.n()).step_by(2).collect();
        let scheme = RoundingScheme::new(g.n(), 0.5);
        let ov = Overlay::from_skeleton(&g, &skeleton, scheme);
        let sc = ov.shortcut(k);
        for i in 0..ov.len() {
            let d = ov.dijkstra(i);
            for j in 0..ov.len() {
                if i != j {
                    prop_assert!(sc.weight(i, j) <= ov.weight(i, j) + 1e-9);
                    prop_assert!(sc.weight(i, j) >= d[j] - 1e-9);
                }
            }
        }
        let bound = (4 * ov.len()) as f64 / k as f64;
        prop_assert!((sc.hop_diameter() as f64) < bound);
    }

    /// The full Lemma 3.3 sandwich for the composed approximate distance.
    #[test]
    fn skeleton_distance_sandwich(g in arb_graph(), k in 1usize..4) {
        prop_assume!(g.n() >= 6);
        let skeleton: Vec<_> = (0..g.n()).step_by(3).collect();
        prop_assume!(skeleton.len() >= 2);
        let eps = 0.5;
        let scheme = RoundingScheme::new(g.n(), eps);
        let sd = SkeletonDistances::compute(&g, &skeleton, scheme, k);
        for &s in &sd.skeleton {
            let exact = shortest_path::dijkstra(&g, s);
            let approx = sd.approx_distances_from(s);
            for v in g.nodes() {
                prop_assert!(approx[v] >= exact[v].as_f64() - 1e-6);
                prop_assert!(approx[v] <= (1.0 + eps) * (1.0 + eps) * exact[v].as_f64() + 1e-6);
            }
        }
    }

    /// Digest stability: any insertion order of the same edge multiset —
    /// including flipped endpoints and duplicated edges — builds a graph
    /// with the identical content digest, while dropping an edge or
    /// changing one weight changes it.
    #[test]
    fn digest_is_insertion_order_invariant(
        edges in proptest::collection::vec((0usize..12, 0usize..12, 1u64..50), 1..40),
        perm_seed in any::<u64>(),
    ) {
        let valid: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
        prop_assume!(!valid.is_empty());
        let n = 12;
        let base = WeightedGraph::from_edges(n, valid.iter().copied()).unwrap();

        // Deterministic Fisher–Yates shuffle + endpoint flips + a duplicate.
        let mut shuffled = valid.clone();
        let mut state = perm_seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..shuffled.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &shuffled {
            if next() % 2 == 0 {
                b.add_edge(v, u, w);
            } else {
                b.add_edge(u, v, w);
            }
        }
        let &(du, dv, dw) = &shuffled[0];
        b.add_edge(du, dv, dw); // a parallel duplicate must not change the hash
        let reordered = b.build().unwrap();
        prop_assert_eq!(base.digest(), reordered.digest());

        // Sensitivity: a different multiset hashes differently.
        if base.m() > 1 {
            let dropped =
                WeightedGraph::from_edges(n, base.edges().skip(1).map(|e| (e.u, e.v, e.w)))
                    .unwrap();
            prop_assert_ne!(base.digest(), dropped.digest());
        }
        let bumped = WeightedGraph::from_edges(
            n,
            base.edges()
                .enumerate()
                .map(|(i, e)| (e.u, e.v, if i == 0 { e.w + 1 } else { e.w })),
        )
        .unwrap();
        prop_assert_ne!(base.digest(), bumped.digest());
    }

    /// Bounded-distance truncation: values ≤ L are exact, others infinite.
    #[test]
    fn bounded_distance_truncation(g in arb_graph(), limit in 1u64..60) {
        let d = shortest_path::dijkstra(&g, 0);
        let t = shortest_path::bounded_distance(&g, 0, Dist::from(limit));
        for v in g.nodes() {
            if d[v] <= Dist::from(limit) {
                prop_assert_eq!(t[v], d[v]);
            } else {
                prop_assert_eq!(t[v], Dist::INFINITY);
            }
        }
    }
}
