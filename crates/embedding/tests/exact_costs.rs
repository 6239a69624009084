//! Exact-counter pin for the hierarchy's measured emulation costs.
//!
//! Every number here is a round count produced by the store-and-forward
//! scheduler (directly or through recursive expansion), on one fixed
//! n = 128 expander hierarchy. They were recorded from the original
//! hash-map scheduler; any change to FIFO order, tie-breaking or per-round
//! key order moves at least one of them.

use amt_embedding::{Hierarchy, HierarchyConfig, VirtualId};
use amt_graphs::{generators, EdgeId, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOTAL_BASE_ROUNDS: u64 = 195_595_504;
const FULL_ROUND_COST: [u64; 4] = [231, 5_313, 100_947, 1_211_364];
/// `emulate_batch`, `emulate_batch_exact`, `emulate_paths`,
/// `emulate_paths_exact` on the fixed level-1 batch and paths below.
const EMULATED: [u64; 4] = [2_079, 155, 6_468, 372];

/// Level of the fixed batch and paths.
const LEVEL: u32 = 1;

/// The n = 128 random 6-regular expander (seed 1).
fn expander() -> Graph {
    let mut rng = StdRng::seed_from_u64(1);
    generators::random_regular(128, 6, &mut rng).expect("valid regular parameters")
}

/// β = 4, depth 3, seed 1.
fn hierarchy(g: &Graph) -> Hierarchy<'_> {
    let mut cfg = HierarchyConfig::auto(g, 25, 1);
    cfg.beta = 4;
    cfg.levels = 3;
    Hierarchy::build(g, cfg).expect("hierarchy builds")
}

#[test]
fn emulation_costs_are_pinned() {
    let g = expander();
    let h = hierarchy(&g);
    let full: Vec<u64> = (0..=h.depth()).map(|l| h.full_round_cost(l)).collect();

    // The first 24 level-1 edges, each crossed in both directions.
    let batch: Vec<(EdgeId, bool)> = h
        .overlay(LEVEL)
        .graph()
        .edges()
        .take(24)
        .flat_map(|(e, _, _)| [(e, true), (e, false)])
        .collect();
    // Multi-hop level-1 paths between fixed virtual-node pairs.
    let vnodes = h.vnodes() as u32;
    let paths: Vec<Vec<(EdgeId, bool)>> = (0..12u32)
        .filter_map(|i| {
            let from = VirtualId(i * 37 % vnodes);
            let to = VirtualId((i * 91 + 5) % vnodes);
            h.bfs_overlay_path(LEVEL, from, to)
        })
        .collect();
    assert!(paths.iter().any(|p| p.len() > 1), "some path is multi-hop");
    let emulated = [
        h.emulate_batch(LEVEL, &batch),
        h.emulate_batch_exact(LEVEL, &batch),
        h.emulate_paths(LEVEL, &paths),
        h.emulate_paths_exact(LEVEL, &paths),
    ];
    assert_eq!(h.stats.total_base_rounds, TOTAL_BASE_ROUNDS);
    assert_eq!(full, FULL_ROUND_COST);
    assert_eq!(emulated, EMULATED);
}
