//! Differential oracle for the store-and-forward scheduler.
//!
//! `reference_schedule` is the original hash-map scheduler: per-key
//! `VecDeque` FIFOs, a linear membership scan per arrival and a
//! materialised `Vec<Vec<u64>>` schedule. It is slow but obviously FIFO.
//! The flat scheduler in `amt_walks::schedule` must agree with it exactly:
//! every statistic and the full ordered key sequence of every round.

use amt_congest::PhaseTimings;
use amt_walks::{route_paths, route_paths_each, route_paths_schedule, PathRouteStats};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// The original scheduler, kept verbatim as the oracle.
fn reference_schedule(paths: &[Vec<u64>], capacity: u32) -> (PathRouteStats, Vec<Vec<u64>>) {
    assert!(capacity > 0, "capacity must be positive");
    let started = Instant::now();
    let mut queues: HashMap<u64, VecDeque<u32>> = HashMap::new();
    let mut congestion: HashMap<u64, u64> = HashMap::new();
    let mut pos: Vec<u32> = vec![0; paths.len()];
    let mut remaining = 0usize;
    let mut dilation = 0u64;
    for (i, p) in paths.iter().enumerate() {
        dilation += p.len() as u64;
        if !p.is_empty() {
            queues.entry(p[0]).or_default().push_back(i as u32);
            remaining += 1;
        }
        for &k in p {
            *congestion.entry(k).or_insert(0) += 1;
        }
    }
    let mut active: Vec<u64> = queues.keys().copied().collect();
    active.sort_unstable(); // determinism
    let mut rounds = 0u64;
    let mut traversals = 0u64;
    let mut arrivals: Vec<(u64, u32)> = Vec::new();
    let mut schedule: Vec<Vec<u64>> = Vec::new();
    while remaining > 0 {
        rounds += 1;
        arrivals.clear();
        let mut crossed: Vec<u64> = Vec::new();
        let mut next_active: Vec<u64> = Vec::with_capacity(active.len());
        for &key in &active {
            let q = queues.get_mut(&key).expect("active key has a queue");
            for _ in 0..capacity {
                let Some(tok) = q.pop_front() else { break };
                traversals += 1;
                crossed.push(key);
                let p = &paths[tok as usize];
                pos[tok as usize] += 1;
                let at = pos[tok as usize] as usize;
                if at >= p.len() {
                    remaining -= 1;
                } else {
                    arrivals.push((p[at], tok));
                }
            }
            if !q.is_empty() {
                next_active.push(key);
            }
        }
        // Tokens that crossed a key this round join their next key's queue
        // for the following round (store-and-forward).
        for &(key, tok) in &arrivals {
            let q = queues.entry(key).or_default();
            if q.is_empty() && !next_active.contains(&key) {
                next_active.push(key);
            }
            q.push_back(tok);
        }
        next_active.sort_unstable();
        next_active.dedup();
        active = next_active;
        schedule.push(crossed);
    }
    let mut wall = PhaseTimings::new();
    wall.record("schedule", started.elapsed());
    (
        PathRouteStats {
            rounds,
            traversals,
            max_key_congestion: congestion.values().copied().max().unwrap_or(0),
            dilation,
            wall,
        },
        schedule,
    )
}

/// Asserts that the flat scheduler, through all three entry points, matches
/// the reference exactly.
fn assert_matches_reference(paths: &[Vec<u64>], capacity: u32) {
    let (want, want_rounds) = reference_schedule(paths, capacity);
    let (got, got_rounds) = route_paths_schedule(paths, capacity);
    assert_eq!(got.rounds, want.rounds, "rounds");
    assert_eq!(got.traversals, want.traversals, "traversals");
    assert_eq!(
        got.max_key_congestion, want.max_key_congestion,
        "congestion"
    );
    assert_eq!(got.dilation, want.dilation, "dilation");
    assert_eq!(got_rounds, want_rounds, "per-round key sequence");
    assert_eq!(route_paths(paths, capacity), want);
    let mut streamed: Vec<Vec<u64>> = Vec::new();
    let stats = route_paths_each(paths, capacity, |keys| streamed.push(keys.to_vec()));
    assert_eq!(stats, want);
    assert_eq!(streamed, got_rounds, "streamed rounds");
}

/// Keys from three regimes: small dense ids, sparse values just below
/// `u64::MAX` (where a dense-id bug would overflow or collide), and
/// arbitrary 64-bit values.
fn arb_key() -> impl Strategy<Value = u64> {
    (0u8..3, any::<u64>()).prop_map(|(regime, raw)| match regime {
        0 => raw % 16,
        1 => u64::MAX - raw % 16,
        _ => raw,
    })
}

/// Path systems over a pool of at most `max_keys` keys, so keys repeat
/// across and within paths; `max_len`/`max_tokens` bound the shape, and
/// empty paths occur.
fn arb_paths(
    max_keys: usize,
    max_len: usize,
    max_tokens: usize,
) -> impl Strategy<Value = Vec<Vec<u64>>> {
    collection::vec(arb_key(), 1..max_keys).prop_flat_map(move |pool| {
        let n = pool.len();
        collection::vec(collection::vec(0..n, 0..max_len), 0..max_tokens).prop_map(move |paths| {
            paths
                .into_iter()
                .map(|p| p.into_iter().map(|i| pool[i]).collect())
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_scheduler_matches_reference(paths in arb_paths(10, 8, 30), cap in 1u32..5) {
        assert_matches_reference(&paths, cap);
    }

    #[test]
    fn flat_scheduler_matches_reference_under_heavy_contention(
        paths in arb_paths(64, 24, 120),
        cap in 1u32..5,
    ) {
        assert_matches_reference(&paths, cap);
    }
}

#[test]
fn empty_systems_match() {
    for cap in 1..=4 {
        assert_matches_reference(&[], cap);
        assert_matches_reference(&[vec![], vec![]], cap);
        assert_matches_reference(&[vec![], vec![3], vec![]], cap);
    }
}

#[test]
fn repeated_keys_within_one_path_match() {
    for cap in 1..=4 {
        assert_matches_reference(&[vec![7, 7, 7], vec![7, 1, 7], vec![1, 7, 7, 1]], cap);
    }
}

#[test]
fn sparse_huge_keys_match() {
    let top = u64::MAX;
    let paths = vec![
        vec![top, 0, top - 1],
        vec![top - 1, top, 0],
        vec![0, top - 1, top, top],
        vec![1 << 63, top, 0],
    ];
    for cap in 1..=4 {
        assert_matches_reference(&paths, cap);
    }
}
