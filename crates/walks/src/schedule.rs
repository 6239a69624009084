//! Store-and-forward path routing: the single primitive behind all honest
//! round accounting for overlay emulation.
//!
//! A *token* is a message with a fixed path, given as a sequence of
//! **capacity keys**. A key abstracts "one directed edge of some graph":
//! per round, at most `capacity` tokens may cross each key, and a token
//! crosses at most one key per round (store-and-forward). Keys are opaque
//! `u64`s, so the same router prices base-graph edges, overlay edges of any
//! hierarchy level, or virtual-tree edges.
//!
//! The computed schedule is FIFO per key (ties broken by token id), which is
//! within a constant factor of the optimal makespan for store-and-forward
//! routing and is exactly what a distributed execution with per-edge queues
//! would do. Within a round, keys are served in ascending key order, so the
//! per-round key sequence is deterministic.
//!
//! Each call works on flat arenas: the keys are renumbered to dense `u32`
//! ids in ascending key order, the paths are stored once as CSR
//! (`offs`/`flat` over ids), each key's FIFO is an intrusive
//! `head`/`tail`/`next[token]` list, and one reused buffer holds the keys
//! crossed in the current round, which [`route_paths_each`] streams to the
//! caller instead of materialising the schedule.

use amt_congest::PhaseTimings;
use std::collections::HashMap;
use std::time::Instant;

/// Measured statistics of one [`route_paths`] schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathRouteStats {
    /// Makespan in rounds (0 when every path is empty).
    pub rounds: u64,
    /// Total key crossings performed.
    pub traversals: u64,
    /// Maximum number of tokens that crossed any single key in total
    /// (the congestion of the path system).
    pub max_key_congestion: u64,
    /// Sum over tokens of path length (equals `traversals`; kept separate
    /// for interface clarity when capacities drop tokens — they never do).
    pub dilation: u64,
    /// Host wall-clock time of the schedule computation (`"schedule"`
    /// entry, including the time spent in a [`route_paths_each`]
    /// callback); excluded from equality like all [`PhaseTimings`].
    pub wall: PhaseTimings,
}

/// Routes every token along its fixed path under per-key capacity, returning
/// the measured makespan.
///
/// `paths[i]` is token `i`'s key sequence; empty paths finish at round 0.
/// `capacity` is the number of tokens that may cross one key per round
/// (1 for CONGEST edges).
///
/// # Panics
///
/// Panics if `capacity == 0`.
///
/// # Examples
///
/// ```
/// use amt_walks::route_paths;
/// // Three tokens contending for key 7, then fanning out.
/// let paths = vec![vec![7, 1], vec![7, 2], vec![7, 3]];
/// let stats = route_paths(&paths, 1);
/// // Key 7 serializes the three tokens: 3 rounds, plus 1 for the last hop.
/// assert_eq!(stats.rounds, 4);
/// assert_eq!(stats.max_key_congestion, 3);
/// ```
pub fn route_paths(paths: &[Vec<u64>], capacity: u32) -> PathRouteStats {
    route_paths_each(paths, capacity, |_| {})
}

/// Like [`route_paths`], but also returns the schedule itself: for each
/// round, the multiset of keys crossed in that round (in the order of
/// [`route_paths_each`]).
pub fn route_paths_schedule(paths: &[Vec<u64>], capacity: u32) -> (PathRouteStats, Vec<Vec<u64>>) {
    let mut schedule = Vec::new();
    let stats = route_paths_each(paths, capacity, |keys| schedule.push(keys.to_vec()));
    (stats, schedule)
}

/// Like [`route_paths`], but hands each round's crossed keys to `on_round`
/// as soon as the round is scheduled, without materialising the schedule.
///
/// `on_round` is called once per round, in round order. Its slice lists the
/// keys in ascending key order, each key once per token that crossed it,
/// and the tokens of one key leave in FIFO order with ties broken by token
/// id. The slice is only valid for the call.
///
/// The hierarchical embedding uses this to *recursively* price overlay
/// emulation: a round of level-`p` crossings becomes a batch of level-`(p−1)`
/// messages, routed (and priced) by the same machinery one level down.
///
/// # Panics
///
/// Panics if `capacity == 0`.
///
/// # Examples
///
/// ```
/// use amt_walks::route_paths_each;
/// let paths = vec![vec![7, 1], vec![7, 2]];
/// let mut rounds = Vec::new();
/// let stats = route_paths_each(&paths, 1, |keys| rounds.push(keys.to_vec()));
/// assert_eq!(rounds, vec![vec![7], vec![1, 7], vec![2]]);
/// assert_eq!(stats.rounds, 3);
/// ```
pub fn route_paths_each(
    paths: &[Vec<u64>],
    capacity: u32,
    mut on_round: impl FnMut(&[u64]),
) -> PathRouteStats {
    assert!(capacity > 0, "capacity must be positive");
    let started = Instant::now();
    let arena = PathArena::new(paths);
    let PathArena { keys, offs, flat } = &arena;
    let tokens = paths.len();
    let mut head = vec![NIL; keys.len()];
    let mut tail = vec![NIL; keys.len()];
    let mut next = vec![NIL; tokens];
    // `cursor[t]` indexes (in `flat`) the next key token `t` will cross.
    let mut cursor: Vec<u32> = offs[..tokens].to_vec();
    // Tokens about to join their next key's FIFO: at first every token
    // with a non-empty path, then those that crossed a key in the previous
    // round (store-and-forward), in crossing order.
    let mut arrivals: Vec<u32> = (0..tokens as u32)
        .filter(|&t| offs[t as usize] < offs[t as usize + 1])
        .collect();
    let mut remaining = arrivals.len();
    // The keys with a non-empty FIFO; `queued[k]` iff `k` is listed.
    let mut active: Vec<u32> = Vec::new();
    let mut queued = vec![false; keys.len()];
    let mut kept: Vec<u32> = Vec::new();
    let mut crossed: Vec<u64> = Vec::new();
    let mut rounds = 0u64;
    let mut traversals = 0u64;
    while remaining > 0 {
        for &tok in &arrivals {
            let k = flat[cursor[tok as usize] as usize];
            push_back(&mut head, &mut tail, &mut next, k, tok);
            if !queued[k as usize] {
                queued[k as usize] = true;
                active.push(k);
            }
        }
        active.sort_unstable(); // id order is key order: determinism
        rounds += 1;
        arrivals.clear();
        crossed.clear();
        kept.clear();
        for &k in &active {
            let ku = k as usize;
            for _ in 0..capacity {
                let tok = head[ku];
                if tok == NIL {
                    break;
                }
                head[ku] = next[tok as usize];
                crossed.push(keys[ku]);
                let at = cursor[tok as usize] + 1;
                cursor[tok as usize] = at;
                if at == offs[tok as usize + 1] {
                    remaining -= 1;
                } else {
                    arrivals.push(tok);
                }
            }
            if head[ku] == NIL {
                queued[ku] = false;
            } else {
                kept.push(k);
            }
        }
        std::mem::swap(&mut active, &mut kept);
        traversals += crossed.len() as u64;
        on_round(&crossed);
    }
    let mut wall = PhaseTimings::new();
    wall.record("schedule", started.elapsed());
    PathRouteStats {
        rounds,
        traversals,
        max_key_congestion: arena.max_key_congestion(),
        dilation: flat.len() as u64,
        wall,
    }
}

/// End of an intrusive FIFO.
const NIL: u32 = u32::MAX;

/// Appends token `tok` to key `k`'s intrusive FIFO.
fn push_back(head: &mut [u32], tail: &mut [u32], next: &mut [u32], k: u32, tok: u32) {
    let k = k as usize;
    next[tok as usize] = NIL;
    if head[k] == NIL {
        head[k] = tok;
    } else {
        next[tail[k] as usize] = tok;
    }
    tail[k] = tok;
}

/// One call's path system over dense key ids.
struct PathArena {
    /// `keys[id]`: the key of dense id `id`, strictly ascending.
    keys: Vec<u64>,
    /// Token `t`'s path is `flat[offs[t] .. offs[t + 1]]`.
    offs: Vec<u32>,
    /// Every path's key ids, concatenated.
    flat: Vec<u32>,
}

impl PathArena {
    fn new(paths: &[Vec<u64>]) -> Self {
        assert!(paths.len() < NIL as usize, "too many tokens");
        let total: usize = paths.iter().map(Vec::len).sum();
        assert!(total <= u32::MAX as usize, "too many key crossings");
        // First-seen ids over the unique keys only, then renumbered in
        // ascending key order.
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut flat: Vec<u32> = Vec::with_capacity(total);
        let mut offs: Vec<u32> = Vec::with_capacity(paths.len() + 1);
        offs.push(0);
        for p in paths {
            for &key in p {
                let id = *ids.entry(key).or_insert_with(|| {
                    keys.push(key);
                    (keys.len() - 1) as u32
                });
                flat.push(id);
            }
            offs.push(flat.len() as u32);
        }
        drop(ids);
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_unstable_by_key(|&id| keys[id as usize]);
        let mut rank = vec![0u32; keys.len()];
        for (r, &id) in order.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        for id in &mut flat {
            *id = rank[*id as usize];
        }
        keys.sort_unstable();
        PathArena { keys, offs, flat }
    }

    /// Largest number of crossings of one key over all paths.
    fn max_key_congestion(&self) -> u64 {
        let mut load = vec![0u32; self.keys.len()];
        for &k in &self.flat {
            load[k as usize] += 1;
        }
        load.into_iter().max().map_or(0, u64::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_free() {
        let stats = route_paths(&[], 1);
        assert_eq!(stats.rounds, 0);
        let stats = route_paths(&[vec![], vec![]], 1);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.traversals, 0);
    }

    #[test]
    fn single_token_takes_path_length() {
        let stats = route_paths(&[vec![1, 2, 3, 4]], 1);
        assert_eq!(stats.rounds, 4);
        assert_eq!(stats.traversals, 4);
        assert_eq!(stats.dilation, 4);
    }

    #[test]
    fn contention_serializes() {
        // k tokens all needing the same single key: k rounds at capacity 1.
        let paths: Vec<Vec<u64>> = (0..5).map(|_| vec![42]).collect();
        assert_eq!(route_paths(&paths, 1).rounds, 5);
        assert_eq!(route_paths(&paths, 5).rounds, 1);
        assert_eq!(route_paths(&paths, 2).rounds, 3);
    }

    #[test]
    fn disjoint_paths_parallelize() {
        let paths: Vec<Vec<u64>> = (0..10).map(|i| vec![i * 3, i * 3 + 1, i * 3 + 2]).collect();
        let stats = route_paths(&paths, 1);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.max_key_congestion, 1);
    }

    #[test]
    fn makespan_at_least_congestion_and_dilation() {
        // Classic lower bound: rounds ≥ max(max congestion / capacity, max path len).
        let paths = vec![vec![9, 1, 2], vec![9, 3], vec![9, 4], vec![5, 9, 6]];
        let stats = route_paths(&paths, 1);
        assert!(stats.rounds >= 4); // congestion on key 9 is 4
        assert!(stats.rounds >= 3); // dilation is 3
        assert!(stats.rounds <= 4 + 3);
    }

    #[test]
    fn pipeline_through_shared_path() {
        // k tokens through the same length-L path: L + k − 1 rounds.
        let k = 6;
        let l = 4;
        let paths: Vec<Vec<u64>> = (0..k).map(|_| (0..l).collect()).collect();
        let stats = route_paths(&paths, 1);
        assert_eq!(stats.rounds, l + k - 1);
    }

    #[test]
    fn repeated_key_within_one_path() {
        let stats = route_paths(&[vec![7, 7, 7]], 1);
        assert_eq!(stats.rounds, 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = route_paths(&[vec![1]], 0);
    }

    #[test]
    fn schedule_batches_match_stats() {
        let paths = vec![vec![9, 1, 2], vec![9, 3], vec![5, 9, 6]];
        let (stats, sched) = route_paths_schedule(&paths, 1);
        assert_eq!(sched.len() as u64, stats.rounds);
        let total: usize = sched.iter().map(Vec::len).sum();
        assert_eq!(total as u64, stats.traversals);
        // No key crossed more than capacity times per round.
        for round in &sched {
            let mut sorted = round.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), round.len(), "capacity violated in {round:?}");
        }
    }

    #[test]
    fn fifo_is_deterministic() {
        let paths: Vec<Vec<u64>> = (0..50).map(|i| vec![i % 7, (i + 1) % 7, 100 + i]).collect();
        assert_eq!(route_paths(&paths, 1), route_paths(&paths, 1));
    }
}
