//! [`TreeRelay`]'s zero-allocation claim, measured: after one warm-up
//! collect/broadcast pair has grown every buffer of the relay's two
//! networks, later pairs carrying at most the warm-up's items at each node
//! must not touch the heap at all — re-arming keeps every capacity.
//!
//! The counting global allocator comes from `wdr_metrics::heap`. This file
//! holds exactly one `#[test]` so no sibling test can allocate concurrently
//! and pollute the counters.

use std::alloc::System;

use congest_graph::generators;
use congest_sim::primitives::{self, TreeRelay};
use congest_sim::{Bandwidth, SimConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wdr_metrics::heap::{heap_ops, track_current_thread, CountingAlloc};

type Items = Vec<Vec<(u64, u128)>>;

#[global_allocator]
static GLOBAL: CountingAlloc<System> = CountingAlloc::new(System);

#[test]
fn warm_relay_pairs_do_not_allocate() {
    track_current_thread();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let g = generators::erdos_renyi_connected(30, 0.15, 4, &mut rng);
    let config = SimConfig {
        bandwidth: Bandwidth::bits(160),
        ..SimConfig::standard(g.n(), g.max_weight())
    };
    let (tree, _) = primitives::bfs_tree(&g, 0, &config).expect("connected graph");
    let mut relay = TreeRelay::new(&g, 0, &config, &tree);

    // Warm-up: two items at every node, so every node forwards for several
    // consecutive rounds and both halves of every inbox arena fill up.
    let warm: Items = (0..g.n())
        .map(|v| vec![(2 * v as u64, 1), (2 * v as u64 + 1, 2)])
        .collect();
    // Every later call: a prefix of each node's warm-up items (often none).
    let calls: Vec<(Items, Vec<u128>)> = (0..100)
        .map(|_| {
            let items: Items = warm
                .iter()
                .map(|own| own[..rng.gen_range(0..=own.len())].to_vec())
                .collect();
            let payload = items.iter().flatten().map(|&(_, v)| v).collect();
            (items, payload)
        })
        .collect();
    let (gathered, _) = relay.collect(&warm).expect("warm-up collect");
    let warm_payload: Vec<u128> = gathered.iter().map(|&(_, v)| v).collect();
    relay.broadcast(&warm_payload).expect("warm-up broadcast");

    let before = heap_ops();
    let mut rounds = 0;
    for (items, payload) in &calls {
        let (gathered, up) = relay.collect(items).expect("collect");
        assert_eq!(gathered.len(), payload.len());
        let down = relay.broadcast(payload).expect("broadcast");
        rounds += up.rounds + down.rounds;
    }
    let delta = heap_ops() - before;
    assert_eq!(
        delta, 0,
        "warm relay pairs must be allocation-free, saw {delta} heap ops over 100 pairs"
    );
    assert!(rounds > 200, "every pair ran: {rounds} rounds");
}
