//! Host-speed reference: a fixed computation in the benchmark's own code,
//! timed right after every set-up repetition and every timed call, on as
//! many threads as the timed work uses.
//!
//! Other tenants of a shared host slow a small VM by up to 1.7× for
//! seconds to minutes at a time, and CPU time slows with the wall, so
//! neither reading is steady from one run to the next. The probe is a
//! breadth-first search over a fixed random graph of 2^17 nodes (about
//! 4 MiB of adjacency: the irregular memory access of the library's graph
//! code, with none of its code) and slows with them. A wall divided by the
//! mean of the probe walls just before and just after it, times
//! [`REF_PROBE_S`], is the wall the work would have taken at the reference
//! host speed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Probe wall at the reference host speed: the median probe wall on the
/// 2-core Xeon VM of README.md while no other tenant slowed it.
pub const REF_PROBE_S: f64 = 0.0068;

/// Nodes of the probe graph.
const PROBE_NODES: usize = 1 << 17;
/// Out-degree of the probe graph: a ring edge plus random edges.
const PROBE_DEGREE: usize = 6;

/// The reference computation: a random graph in compressed adjacency
/// form, searched breadth-first from a rotating source.
pub struct Probe {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
    source: u32,
}

impl Probe {
    /// The probe graph on `n` nodes; the ring edges make every node
    /// reachable from every source, so every search visits all `n`.
    pub fn new(n: usize, degree: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(7);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(n * degree);
        offsets.push(0);
        for v in 0..n {
            targets.push(((v + 1) % n) as u32);
            for _ in 1..degree {
                targets.push(rng.random_range(0..n as u32));
            }
            offsets.push(targets.len() as u32);
        }
        Probe {
            offsets,
            targets,
            dist: vec![u32::MAX; n],
            queue: Vec::with_capacity(n),
            source: 0,
        }
    }

    /// One breadth-first search from `src`: the number of nodes reached
    /// and the sum of their distances.
    pub fn bfs(&mut self, src: u32) -> (usize, u64) {
        self.dist.fill(u32::MAX);
        self.queue.clear();
        self.dist[src as usize] = 0;
        self.queue.push(src);
        let mut head = 0;
        let mut sum = 0u64;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let v = v as usize;
            let d = self.dist[v];
            sum += u64::from(d);
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            for &w in &self.targets[lo..hi] {
                if self.dist[w as usize] == u32::MAX {
                    self.dist[w as usize] = d + 1;
                    self.queue.push(w);
                }
            }
        }
        (self.queue.len(), sum)
    }

    /// Wall of one search, in seconds; each call starts from another
    /// source.
    pub fn time(&mut self) -> f64 {
        let n = self.dist.len() as u32;
        self.source = (self.source + 7919) % n;
        let t0 = Instant::now();
        std::hint::black_box(self.bfs(self.source));
        t0.elapsed().as_secs_f64()
    }
}

/// One piece of timed work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Wall, in seconds.
    pub wall: f64,
    /// Wall at the reference host speed, in seconds.
    pub norm: f64,
}

/// `wall` at the reference host speed, given the probe walls just before
/// and just after it.
pub fn normalize(wall: f64, before: f64, after: f64) -> f64 {
    wall * REF_PROBE_S / ((before + after) / 2.0)
}

/// Times work between two probe runs.
pub struct Clock {
    /// One probe per thread of the timed work.
    probes_by_thread: Vec<Probe>,
    last: f64,
    probes: Vec<f64>,
}

impl Clock {
    /// Builds one probe graph per thread (at least one), runs the probes
    /// once to warm them, and times them once more as the reference for
    /// the first piece of work.
    pub fn new(threads: usize) -> Self {
        let mut clock = Clock {
            probes_by_thread: (0..threads.max(1))
                .map(|_| Probe::new(PROBE_NODES, PROBE_DEGREE))
                .collect(),
            last: 0.0,
            probes: Vec::new(),
        };
        clock.probe();
        clock.last = clock.probe();
        clock.probes.push(clock.last);
        clock
    }

    /// Wall of one search on every probe at once, each on its own thread:
    /// a slowdown of any core the timed work runs on shows.
    fn probe(&mut self) -> f64 {
        let (first, rest) = self
            .probes_by_thread
            .split_first_mut()
            .expect("at least one probe");
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for p in rest {
                s.spawn(|| p.time());
            }
            first.time();
        });
        t0.elapsed().as_secs_f64()
    }

    /// Runs `f`, then the probe; returns what `f` returned and its wall,
    /// raw and at the reference host speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        let before = self.last;
        self.last = self.probe();
        self.probes.push(self.last);
        let norm = normalize(wall, before, self.last);
        (out, Timed { wall, norm })
    }

    /// Every probe wall so far, in seconds.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_search_reaches_every_node() {
        let mut p = Probe::new(1000, PROBE_DEGREE);
        for src in [0, 1, 999] {
            assert_eq!(p.bfs(src).0, 1000);
        }
        assert_eq!(p.bfs(5), p.bfs(5));
    }

    #[test]
    fn normalizing_scales_by_the_reference_over_the_probe() {
        assert_eq!(normalize(1.0, REF_PROBE_S, REF_PROBE_S), 1.0);
        // A host twice as slow as the reference halves the wall.
        let slow = 2.0 * REF_PROBE_S;
        assert!((normalize(3.0, slow, slow) - 1.5).abs() < 1e-12);
        // The reference is the mean of the probes on both sides.
        assert!((normalize(3.0, REF_PROBE_S, 2.0 * slow - REF_PROBE_S) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_clock_probes_after_every_piece_of_work() {
        for threads in [0, 1, 2] {
            let mut clock = Clock::new(threads);
            let (x, t) = clock.time(|| 41 + 1);
            assert_eq!(x, 42);
            assert!(t.wall >= 0.0 && t.norm >= 0.0);
            assert_eq!(clock.probes().len(), 2);
            assert!(clock.probes().iter().all(|&p| p > 0.0));
        }
    }
}
