//! Cross-crate integration for Algorithm 5 (overlay SSSP), whose overlay
//! rounds all run through one re-armed `TreeRelay`: on every graph family
//! the distributed distances equal the centralized reference
//! `approx_hop_bounded` on the k-shortcut overlay, and neither the leader
//! nor repeating a run changes them. Driven along such a schedule, the
//! relay answers every call exactly as fresh primitives would.

use congest_algos::overlay_net::{embed_overlay, overlay_sssp, EmbeddedOverlay};
use congest_graph::overlay::sample_skeleton;
use congest_graph::rounding::RoundingScheme;
use congest_graph::{generators, NodeId, WeightedGraph};
use congest_sim::{primitives, Bandwidth, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn cfg(g: &WeightedGraph) -> SimConfig {
    SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(50_000_000)
}

fn close(a: f64, b: f64) -> bool {
    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9
}

fn embed(g: &WeightedGraph, skeleton: &[NodeId], k: usize, seed: u64) -> EmbeddedOverlay {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let scheme = RoundingScheme::new(g.n().div_ceil(2), 0.5);
    embed_overlay(g, 0, skeleton, scheme, k, &cfg(g), &mut rng).unwrap()
}

/// Runs overlay SSSP from every skeleton node and checks each result
/// against the centralized reference on the shortcut overlay.
fn assert_matches_reference(g: &WeightedGraph, skeleton: &[NodeId], k: usize, seed: u64) {
    let emb = embed(g, skeleton, k, seed);
    for &src in &emb.skeleton {
        let (got, stats) = overlay_sssp(g, 0, &emb, src, &cfg(g)).unwrap();
        assert!(stats.rounds > 0, "src={src}: no rounds charged");
        let si = emb.shortcut.index_of(src).unwrap();
        let want = emb
            .shortcut
            .approx_hop_bounded(si, emb.overlay_ell, emb.scheme.eps);
        assert_eq!(got.len(), want.len());
        for u in 0..want.len() {
            assert!(
                close(got[u], want[u]),
                "src={src} u={u}: distributed {} vs reference {}",
                got[u],
                want[u]
            );
        }
    }
}

#[test]
fn erdos_renyi_instances_agree() {
    let mut rng = ChaCha8Rng::seed_from_u64(40);
    for trial in 0..3 {
        let g = generators::erdos_renyi_connected(10 + 2 * trial, 0.3, 6, &mut rng);
        let mut skeleton = sample_skeleton(g.n(), 0.4, &mut rng);
        if skeleton.len() < 2 {
            skeleton = vec![0, g.n() - 1];
        }
        assert_matches_reference(&g, &skeleton, 2, 100 + trial as u64);
    }
}

#[test]
fn cluster_ring_agrees() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let g = generators::cluster_ring(16, 4, 5, &mut rng);
    assert_matches_reference(&g, &[0, 4, 8, 12, 15], 2, 41);
}

#[test]
fn weighted_grid_agrees() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = generators::randomize_weights(&generators::grid(3, 4, 1), 7, &mut rng);
    assert_matches_reference(&g, &[0, 3, 5, 8, 11], 2, 42);
}

#[test]
fn weighted_path_agrees() {
    // Depth n − 1 from leader 0: the longest relay pipelines.
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let g = generators::randomize_weights(&generators::path(12, 1), 9, &mut rng);
    assert_matches_reference(&g, &[0, 3, 7, 11], 1, 43);
}

#[test]
fn star_agrees() {
    // Depth 1: every leaf is a child of the leader.
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let g = generators::randomize_weights(&generators::star(10, 1), 5, &mut rng);
    assert_matches_reference(&g, &[1, 2, 5, 9], 3, 44);
}

#[test]
fn barbell_agrees() {
    let g = generators::barbell(4, 3, 2);
    assert_matches_reference(&g, &[0, 3, 5, 7, 9], 2, 45);
}

#[test]
fn random_tree_agrees() {
    let mut rng = ChaCha8Rng::seed_from_u64(46);
    let g = generators::random_tree(14, 8, &mut rng);
    assert_matches_reference(&g, &[0, 2, 6, 9, 13], 2, 46);
}

#[test]
fn singleton_skeleton_is_trivial() {
    let g = generators::cycle(8, 3);
    let emb = embed(&g, &[5], 1, 47);
    let (got, stats) = overlay_sssp(&g, 0, &emb, 5, &cfg(&g)).unwrap();
    assert_eq!(got, vec![0.0]);
    assert!(stats.rounds > 0, "the BFS tree and empty rounds still cost");
}

#[test]
fn distances_do_not_depend_on_the_leader() {
    let mut rng = ChaCha8Rng::seed_from_u64(48);
    let g = generators::erdos_renyi_connected(12, 0.3, 6, &mut rng);
    let emb = embed(&g, &[1, 4, 7, 10], 2, 48);
    for &src in &emb.skeleton {
        let (from_0, _) = overlay_sssp(&g, 0, &emb, src, &cfg(&g)).unwrap();
        let (from_last, _) = overlay_sssp(&g, g.n() - 1, &emb, src, &cfg(&g)).unwrap();
        assert_eq!(from_0, from_last, "src={src}");
    }
}

#[test]
fn overlay_distances_are_symmetric() {
    // The shortcut overlay is undirected and every scale rounds w''(u, x)
    // and w''(x, u) alike, so d̃(s, t) = d̃(t, s).
    let mut rng = ChaCha8Rng::seed_from_u64(49);
    let g = generators::erdos_renyi_connected(12, 0.3, 6, &mut rng);
    let emb = embed(&g, &[0, 3, 6, 9, 11], 2, 49);
    let rows: Vec<Vec<f64>> = emb
        .skeleton
        .iter()
        .map(|&src| overlay_sssp(&g, 0, &emb, src, &cfg(&g)).unwrap().0)
        .collect();
    for (i, row) in rows.iter().enumerate() {
        for (j, &d) in row.iter().enumerate() {
            assert!(close(d, rows[j][i]), "d̃({i},{j}) ≠ d̃({j},{i})");
        }
    }
}

#[test]
fn repeated_runs_are_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(50);
    let g = generators::cluster_ring(12, 3, 6, &mut rng);
    let emb = embed(&g, &[0, 4, 8, 11], 2, 50);
    let first = overlay_sssp(&g, 0, &emb, 4, &cfg(&g)).unwrap();
    let second = overlay_sssp(&g, 0, &emb, 4, &cfg(&g)).unwrap();
    assert_eq!(first.0, second.0);
    assert_eq!(first.1, second.1, "RoundStats differ between runs");
}

#[test]
fn relay_follows_an_overlay_schedule_like_fresh_calls() {
    // Skeleton nodes announce in order of their reference distance from
    // the source, ties together, each group after an empty overlay round —
    // the shape of Algorithm 5's collect/rebroadcast sequence.
    let mut rng = ChaCha8Rng::seed_from_u64(51);
    let g = generators::erdos_renyi_connected(14, 0.25, 6, &mut rng);
    let emb = embed(&g, &[0, 2, 5, 7, 9, 12, 13], 2, 51);
    let want = emb
        .shortcut
        .approx_hop_bounded(0, emb.overlay_ell, emb.scheme.eps);
    let mut order: Vec<usize> = (0..emb.skeleton.len()).collect();
    order.sort_by(|&a, &b| want[a].total_cmp(&want[b]));
    let mut schedule: Vec<Vec<usize>> = Vec::new();
    for (i, &u) in order.iter().enumerate() {
        if i > 0 && want[order[i - 1]] == want[u] {
            schedule.last_mut().unwrap().push(u);
        } else {
            schedule.push(Vec::new());
            schedule.push(vec![u]);
        }
    }
    assert!(
        schedule.len() >= 4,
        "schedule too short to exercise re-arming"
    );

    let wide = SimConfig {
        bandwidth: Bandwidth::bits(160),
        ..cfg(&g)
    };
    let (tree, _) = primitives::bfs_tree(&g, 0, &wide).unwrap();
    let mut relay = primitives::TreeRelay::new(&g, 0, &wide, &tree);
    for (round, announcers) in schedule.iter().enumerate() {
        let mut items: Vec<Vec<(u64, u128)>> = vec![Vec::new(); g.n()];
        for &u in announcers {
            items[emb.skeleton[u]].push((u as u64, ((u as u128) << 64) | round as u128));
        }
        let (fresh, fresh_up) = primitives::collect_at_leader(&g, 0, &wide, &tree, &items).unwrap();
        let (gathered, up) = relay.collect(&items).unwrap();
        assert_eq!(gathered, fresh.as_slice(), "round {round}: gathered items");
        assert_eq!(up, fresh_up, "round {round}: collect stats");
        let payload: Vec<u128> = fresh.iter().map(|&(_, v)| v).collect();
        let (_, fresh_down) =
            primitives::pipelined_broadcast(&g, 0, &wide, &tree, &payload).unwrap();
        let down = relay.broadcast(&payload).unwrap();
        assert_eq!(down, fresh_down, "round {round}: broadcast stats");
    }
}
