//! The three workloads, timed from outside the library.
//!
//! Each workload sets up once per repetition, then runs its timed call in
//! a closed loop: one caller, each call sent after the previous one
//! returned, while another call of the mean length so far still ends
//! within the run's seconds, and until at least a minimum number of calls
//! completed. Every set-up repetition and every timed call is followed by
//! a run of the host-speed probe (see `calib`), and the gated times are
//! read at the reference host speed. The graph family and the hierarchy
//! seed are fixed, so set-up does the same work on every seed; the seed
//! draws what the calls receive (permutations, weights, algorithm seeds). Exact
//! simulated counters are summed over the first `min_calls` calls only, so
//! they do not depend on how many calls fit in the time.

use crate::calib::{Clock, Timed, REF_PROBE_S};
use crate::host::Fingerprint;
use crate::spans::Tracer;
use crate::stats;
use amt_bench::{expander, scaled_levels};
use amt_core::embedding::Hierarchy;
use amt_core::graphs::{generators, Graph, NodeId, WeightedGraph};
use amt_core::mst::{congest_boruvka, reference, AlmostMixingMst};
use amt_core::routing::{EmulationMode, RouterConfig};
use amt_core::walks::route_paths_schedule;
use amt_core::System;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["amt_route", "amt_mst", "sim_boruvka"];

/// End-to-end metrics every workload reports, as `(name, unit)`. The two
/// times are read at the reference host speed. Tail latencies are
/// printed, not gated: see README.md.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of the traced run, as `(name, unit)`. A layer the
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("setup_wall_s", "s"),
    ("run_wall_s", "s"),
    ("host.probe_ms", "ms"),
    ("embedding.level0_s", "s"),
    ("embedding.walk_levels_s", "s"),
    ("embedding.bottom_s", "s"),
    ("embedding.portals_s", "s"),
    ("embedding.other_s", "s"),
    (FULL_ROUND_LEVEL[0], "s"),
    (FULL_ROUND_LEVEL[1], "s"),
    (FULL_ROUND_LEVEL[2], "s"),
    (FULL_ROUND_LEVEL[3], "s"),
    (FULL_ROUND_LEVEL[4], "s"),
    ("walks.schedule.full_round_s", "s"),
    ("walks.schedule.full_round_share", "ratio"),
    ("walks.schedule.traversals", "count"),
    ("walks.schedule.traversals_per_s", "1/s"),
    ("routing.prep_ms", "ms"),
    ("routing.hops_ms", "ms"),
    ("routing.bottom_ms", "ms"),
    ("routing.hop_crossings", "count"),
    ("routing.bottom_crossings", "count"),
    ("routing.portal_misses", "count"),
    ("routing.phases", "count"),
    ("mst.iterations", "count"),
    ("mst.routing_instances", "count"),
    ("mst.ms_per_instance", "ms"),
    ("mst.factored_s", "s"),
    ("mst.exact_emulation_s", "s"),
    ("congest.sim.ns_per_msg", "ns"),
    ("congest.sim.ns_per_round", "ns"),
    ("congest.sim.threads", "count"),
    ("graphs.generate_s", "s"),
    ("trace.run_s", "s"),
];

/// Full-round pricing time per overlay level; `scaled_levels` caps the
/// depth at 4, so levels 0 ..= 4 exist at most.
const FULL_ROUND_LEVEL: [&str; 5] = [
    "walks.schedule.full_round_l0_s",
    "walks.schedule.full_round_l1_s",
    "walks.schedule.full_round_l2_s",
    "walks.schedule.full_round_l3_s",
    "walks.schedule.full_round_l4_s",
];

/// Degree of the random regular expander family.
const DEGREE: usize = 6;
/// Branching factor of the hierarchy.
const BETA: u32 = 4;
/// Seed of the expander and of the hierarchy build; fixed so that set-up
/// is the same work on every benchmark seed.
const GRAPH_SEED: u64 = 1;
/// Edge weights are drawn uniformly from `1..=MAX_WEIGHT`.
const MAX_WEIGHT: u64 = 1_000_000;

/// Problem sizes and repetition counts.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Nodes of the `amt_route` expander.
    pub route_n: usize,
    /// Nodes of the `amt_mst` expander.
    pub mst_n: usize,
    /// Dimension of the `sim_boruvka` hypercube.
    pub cube_dim: u32,
    /// Set-up repeats at least `setup_reps` times and while another
    /// repetition ends within `setup_seconds`; `setup_s` is the median.
    pub setup_reps: usize,
    /// See `setup_reps`.
    pub setup_seconds: f64,
    /// Minimum timed calls per workload, in [`NAMES`] order; the exact
    /// counters cover exactly these calls. 200 route calls leave 10
    /// samples above the nearest-rank p95.
    pub min_calls: [usize; 3],
}

impl Sizes {
    /// The sizes the benchmark runs.
    pub const BENCH: Sizes = Sizes {
        route_n: 512,
        mst_n: 64,
        cube_dim: 14,
        setup_reps: 3,
        setup_seconds: 2.0,
        min_calls: [200, 24, 10],
    };
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (builds, timed calls, traced extra calls).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// End-to-end and per-layer values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific end-to-end figures, printed for people:
    /// `(name, value, unit)`.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Exact simulated counters; equal for equal seeds.
    pub counters: Vec<(&'static str, u64)>,
}

impl Run {
    /// Counts one operation, recording its failure.
    fn op<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|e| self.failures.push(format!("{what}: {e}")))
            .ok()
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    /// Sets `setup_s` and `setup_wall_s` to the median set-up repetition,
    /// at the reference host speed and as measured.
    fn setups(&mut self, reps: &[Timed]) {
        if reps.is_empty() {
            return;
        }
        let (walls, norms) = split(reps);
        self.set("setup_s", stats::median(&norms));
        self.set("setup_wall_s", stats::median(&walls));
    }

    /// Sets `run_s` and `run_wall_s` to `center` of the timed calls, at
    /// the reference host speed and as measured. Notes, from the measured
    /// walls, the call count, the median, the quartiles and the highest
    /// percentile with 10 calls above it.
    fn calls(&mut self, calls: &[Timed], center: fn(&[f64]) -> f64) {
        if calls.is_empty() {
            return;
        }
        let (walls, norms) = split(calls);
        self.set("run_s", center(&norms));
        self.set("run_wall_s", center(&walls));
        self.note("calls", walls.len() as f64, "count");
        self.note("run_wall_median_s", stats::median(&walls), "s");
        if let Some(p) = stats::highest_tail(walls.len(), 10) {
            let name = format!("run_wall_p{}_s", f64::from(p) / 10.0);
            self.note(&name, stats::percentile(&walls, p), "s");
            let above = stats::samples_above(walls.len(), p);
            self.note("calls_above_tail", above as f64, "count");
        }
        if walls.len() >= 2 {
            let [q1, _, q3] = stats::quartiles(&walls);
            self.note("run_wall_q1_s", q1, "s");
            self.note("run_wall_q3_s", q3, "s");
        }
    }
}

/// The measured walls and the walls at the reference host speed.
fn split(timed: &[Timed]) -> (Vec<f64>, Vec<f64>) {
    timed.iter().map(|t| (t.wall, t.norm)).unzip()
}

/// Runs workload `name`.
///
/// # Panics
///
/// Panics on a name outside [`NAMES`].
pub fn run(
    name: &str,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    host: &Fingerprint,
    tracer: &mut Tracer,
) -> Run {
    let mut run = Run::default();
    // The probe runs on as many threads as the timed calls: only the
    // simulator is threaded.
    let threads = if name == "sim_boruvka" {
        host.sim_threads(1 << sizes.cube_dim)
    } else {
        1
    };
    let mut clock = Clock::new(threads);
    let c = &mut clock;
    match name {
        "amt_route" => amt_route(sizes, seed, seconds, trace, c, tracer, &mut run),
        "amt_mst" => amt_mst(sizes, seed, seconds, trace, c, tracer, &mut run),
        "sim_boruvka" => sim_boruvka(sizes, seed, seconds, host, c, tracer, &mut run),
        other => panic!("unknown workload {other:?}"),
    }
    let probe_s = stats::median(clock.probes());
    run.set("host.probe_ms", probe_s * 1e3);
    run.note("host_speed", REF_PROBE_S / probe_s, "ratio");
    if let Some(mb) = crate::host::peak_rss_mb() {
        run.set("peak_rss_mb", mb);
    }
    run
}

/// A uniformly random permutation instance: node `i` sends to `π(i)`.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
    let mut dst: Vec<u32> = (0..n as u32).collect();
    dst.shuffle(rng);
    dst.into_iter()
        .enumerate()
        .map(|(i, d)| (NodeId(i as u32), NodeId(d)))
        .collect()
}

/// `g` with weights drawn uniformly from `1..=MAX_WEIGHT`.
pub fn weighted(g: &Graph, rng: &mut StdRng) -> WeightedGraph {
    WeightedGraph::with_random_weights(g.clone(), MAX_WEIGHT, rng)
}

/// Whether a loop that started at `start` and finished `done` iterations
/// runs another: while fewer than `min` ran, or while one more iteration
/// of the mean length so far still ends within `seconds`. A run therefore
/// does not overshoot its seconds by up to one long call.
fn more(start: Instant, seconds: f64, done: usize, min: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    if done < min {
        return true;
    }
    if done == 0 {
        return elapsed < seconds;
    }
    elapsed * (done + 1) as f64 / done as f64 <= seconds
}

/// Builds the system on `g` repeatedly (see [`Sizes::setup_reps`]) and
/// keeps the last one. Records `setup_s`, the median of each build phase,
/// and `build_rounds`, which must be the same on every repetition.
fn build_pipeline<'g>(
    g: &'g Graph,
    sz: &Sizes,
    clock: &mut Clock,
    tracer: &mut Tracer,
    run: &mut Run,
) -> Option<System<'g>> {
    let levels = scaled_levels(g.volume(), BETA);
    let mut reps = Vec::new();
    let mut phases: [Vec<f64>; 4] = Default::default();
    const PHASES: [(&str, &str); 4] = [
        ("level0", "embedding.level0_s"),
        ("walk_levels", "embedding.walk_levels_s"),
        ("bottom", "embedding.bottom_s"),
        ("portals", "embedding.portals_s"),
    ];
    let mut first_rounds = None;
    let mut kept = None;
    tracer.scope("setup", |tracer| {
        let start = Instant::now();
        while more(start, sz.setup_seconds, reps.len(), sz.setup_reps) {
            drop(kept.take()); // free the previous build before the next one
            let (built, t) = clock.time(|| {
                tracer.scope("embedding.build", |_| {
                    System::builder(g)
                        .seed(GRAPH_SEED)
                        .beta(BETA)
                        .levels(levels)
                        .build()
                })
            });
            reps.push(t);
            let built = built.map_err(|e| e.to_string()).and_then(|sys| {
                let rounds = sys.build_rounds();
                match *first_rounds.get_or_insert(rounds) {
                    r if r == rounds => Ok(sys),
                    r => Err(format!(
                        "build_rounds {rounds} differs from the first build's {r}"
                    )),
                }
            });
            if let Some(sys) = run.op("build", built) {
                let wall = &sys.hierarchy().stats.wall;
                for (samples, (label, _)) in phases.iter_mut().zip(PHASES) {
                    samples.push(wall.nanos(label) as f64 / 1e9);
                }
                kept = Some(sys);
            }
        }
    });
    run.setups(&reps);
    for (samples, (_, metric)) in phases.iter().zip(PHASES) {
        if !samples.is_empty() {
            run.set(metric, stats::median(samples));
        }
    }
    if let Some(rounds) = first_rounds {
        run.note("build_rounds", rounds as f64, "rounds");
        run.counters.push(("build_rounds", rounds));
    }
    kept
}

/// Re-runs the scheduler on every level's full-round instance (each
/// overlay edge in both directions, exactly what the build prices) and
/// checks the priced cost against the hierarchy's.
fn reprice_full_rounds(h: &Hierarchy<'_>, tracer: &mut Tracer, run: &mut Run) {
    let mut total_s = 0.0;
    let mut traversals = 0u64;
    tracer.scope("walks.schedule.full_round", |tracer| {
        for level in 0..=h.depth() {
            let ov = h.overlay(level);
            let paths: Vec<Vec<u64>> = ov
                .graph()
                .edges()
                .flat_map(|(e, _, _)| [ov.key_path(e, true), ov.key_path(e, false)])
                .collect();
            let Some(&name) = FULL_ROUND_LEVEL.get(level as usize) else {
                run.op::<()>(
                    "full_round",
                    Err(format!("level {level} has no metric name")),
                );
                continue;
            };
            let t0 = Instant::now();
            let span = name.trim_end_matches("_s");
            let (st, _) = tracer.scope(span, |_| route_paths_schedule(&paths, 1));
            let wall = t0.elapsed().as_secs_f64();
            total_s += wall;
            traversals += st.traversals;
            run.set(name, wall);
            let below = if level == 0 {
                1
            } else {
                h.full_round_cost(level - 1)
            };
            let priced = st.rounds.max(1) * below;
            let expected = h.full_round_cost(level);
            run.op(
                "full_round",
                if priced == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "level {level} repriced at {priced} rounds, built at {expected}"
                    ))
                },
            );
        }
    });
    // Against the measured set-up wall: the re-run is measured too.
    let setup_s = run.metrics["setup_wall_s"];
    run.set("walks.schedule.full_round_s", total_s);
    run.set("walks.schedule.full_round_share", total_s / setup_s);
    run.set("walks.schedule.traversals", traversals as f64);
    run.set(
        "walks.schedule.traversals_per_s",
        traversals as f64 / total_s,
    );
    run.set("embedding.other_s", setup_s - total_s);
}

fn amt_route(
    sz: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    clock: &mut Clock,
    tracer: &mut Tracer,
    run: &mut Run,
) {
    let g = expander(sz.route_n, DEGREE, GRAPH_SEED);
    let Some(sys) = build_pipeline(&g, sz, clock, tracer, run) else {
        return;
    };
    if trace {
        reprice_full_rounds(sys.hierarchy(), tracer, run);
    }
    let n = g.len();
    let k = sz.min_calls[0];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walls = Vec::new();
    let mut stage_ms: [Vec<f64>; 3] = Default::default();
    // Over the first `k` calls: rounds, hop crossings, bottom crossings,
    // portal misses, phases.
    let mut first_k = [0u64; 5];
    let loop_span = tracer.begin("loop");
    let start = Instant::now();
    while more(start, seconds, walls.len(), k) {
        let reqs = permutation(n, &mut rng);
        let route_seed = rng.random::<u64>();
        let (out, t) =
            clock.time(|| tracer.scope("routing.route", |_| sys.route(&reqs, route_seed)));
        walls.push(t);
        let out = out.map_err(|e| e.to_string()).and_then(|o| {
            if o.delivered == n && o.undelivered == 0 {
                Ok(o)
            } else {
                Err(format!(
                    "delivered {} of {n}, undelivered {}",
                    o.delivered, o.undelivered
                ))
            }
        });
        let Some(out) = run.op("route", out) else {
            continue;
        };
        for (ms, label) in stage_ms.iter_mut().zip(["prep", "hops", "bottom"]) {
            ms.push(out.wall.nanos(label) as f64 / 1e6);
        }
        if walls.len() <= k {
            let this = [
                out.total_base_rounds,
                out.hop_crossings,
                out.bottom_crossings,
                out.portal_misses,
                u64::from(out.phases),
            ];
            for (sum, x) in first_k.iter_mut().zip(this) {
                *sum += x;
            }
        }
    }
    tracer.end(loop_span);

    run.calls(&walls, stats::median);
    if walls.len() >= k && k > 0 {
        let per_call = |x: u64| x as f64 / k as f64;
        run.note("route_rounds_mean", per_call(first_k[0]), "rounds");
        for (name, x) in [
            "routing.hop_crossings",
            "routing.bottom_crossings",
            "routing.portal_misses",
            "routing.phases",
        ]
        .into_iter()
        .zip(&first_k[1..])
        {
            run.set(name, per_call(*x));
        }
    }
    run.counters.extend([
        ("route_rounds_first_k", first_k[0]),
        ("route_hop_crossings_first_k", first_k[1]),
        ("route_bottom_crossings_first_k", first_k[2]),
        ("route_portal_misses_first_k", first_k[3]),
        ("route_phases_first_k", first_k[4]),
    ]);
    if !walls.is_empty() {
        let (walls, _) = split(&walls);
        run.note("route_p50_ms", stats::percentile(&walls, 500) * 1e3, "ms");
        run.note("route_p95_ms", stats::percentile(&walls, 950) * 1e3, "ms");
        let above = stats::samples_above(walls.len(), 950);
        run.note("route_calls_above_p95", above as f64, "count");
    }
    for (ms, name) in
        stage_ms
            .iter()
            .zip(["routing.prep_ms", "routing.hops_ms", "routing.bottom_ms"])
    {
        if !ms.is_empty() {
            run.set(name, stats::median(ms));
        }
    }
}

fn amt_mst(
    sz: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    clock: &mut Clock,
    tracer: &mut Tracer,
    run: &mut Run,
) {
    let g = expander(sz.mst_n, DEGREE, GRAPH_SEED);
    let Some(sys) = build_pipeline(&g, sz, clock, tracer, run) else {
        return;
    };
    if trace {
        reprice_full_rounds(sys.hierarchy(), tracer, run);
    }
    let factored = AlmostMixingMst::with_router_config(
        sys.hierarchy(),
        RouterConfig {
            emulation: EmulationMode::Factored,
            ..RouterConfig::for_n(g.len())
        },
    );
    let check = |wg: &WeightedGraph, tree: &[_]| {
        if reference::verify_mst(wg, tree) {
            Ok(())
        } else {
            Err("tree is not a minimum spanning tree".to_string())
        }
    };
    let k = sz.min_calls[1];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walls = Vec::new();
    let mut factored_walls = Vec::new();
    let (mut instances_all, mut rounds_k, mut iterations_k, mut instances_k) = (0u64, 0, 0, 0);
    let loop_span = tracer.begin("loop");
    let start = Instant::now();
    while more(start, seconds, walls.len(), k) {
        let wg = weighted(&g, &mut rng);
        let mst_seed = rng.random::<u64>();
        let (out, t) = clock.time(|| tracer.scope("mst.run", |_| sys.mst(&wg, mst_seed)));
        walls.push(t);
        let out = out
            .map_err(|e| e.to_string())
            .and_then(|o| check(&wg, &o.tree_edges).map(|()| o));
        if let Some(out) = run.op("mst", out) {
            instances_all += u64::from(out.routing_instances);
            if walls.len() <= k {
                rounds_k += out.rounds;
                iterations_k += u64::from(out.iterations);
                instances_k += u64::from(out.routing_instances);
            }
        }
        if trace {
            let span = tracer.begin("mst.factored");
            let t0 = Instant::now();
            let out = factored.run(&wg, mst_seed);
            factored_walls.push(t0.elapsed().as_secs_f64());
            tracer.end(span);
            let out = out
                .map_err(|e| e.to_string())
                .and_then(|o| check(&wg, &o.tree_edges));
            run.op("mst_factored", out);
        }
    }
    tracer.end(loop_span);

    // The mean, not the median: a call's wall moves in steps with its
    // Borůvka iteration count, so the median of a few dozen calls jumps
    // between steps from seed to seed. The trimmed mean also drops the
    // calls a preemption stretched.
    run.calls(&walls, stats::trimmed_mean);
    if walls.len() >= k && k > 0 {
        let per_call = |x: u64| x as f64 / k as f64;
        run.note("mst_rounds", per_call(rounds_k), "rounds");
        run.set("mst.iterations", per_call(iterations_k));
        run.set("mst.routing_instances", per_call(instances_k));
    }
    run.counters.extend([
        ("mst_rounds_first_k", rounds_k),
        ("mst_iterations_first_k", iterations_k),
        ("mst_routing_instances_first_k", instances_k),
    ]);
    let (walls, _) = split(&walls);
    if instances_all > 0 {
        let total: f64 = walls.iter().sum();
        run.set("mst.ms_per_instance", total * 1e3 / instances_all as f64);
    }
    if !factored_walls.is_empty() {
        let factored_s = stats::trimmed_mean(&factored_walls);
        run.set("mst.factored_s", factored_s);
        run.set(
            "mst.exact_emulation_s",
            stats::trimmed_mean(&walls) - factored_s,
        );
    }
}

fn sim_boruvka(
    sz: &Sizes,
    seed: u64,
    seconds: f64,
    host: &Fingerprint,
    clock: &mut Clock,
    tracer: &mut Tracer,
    run: &mut Run,
) {
    let mut setup = Vec::new();
    let mut g = None;
    tracer.scope("setup", |tracer| {
        let start = Instant::now();
        while more(start, sz.setup_seconds, setup.len(), sz.setup_reps) {
            drop(g.take()); // free the previous graph before the next one
            let (cube, t) = clock
                .time(|| tracer.scope("graphs.generate", |_| generators::hypercube(sz.cube_dim)));
            g = Some(cube);
            setup.push(t);
        }
    });
    let Some(g) = g else { return };
    run.setups(&setup);
    run.set("graphs.generate_s", run.metrics["setup_wall_s"]);
    run.set("congest.sim.threads", host.sim_threads(g.len()) as f64);

    let k = sz.min_calls[2];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walls = Vec::new();
    let (mut rounds_all, mut msgs_all) = (0u64, 0u64);
    let (mut rounds_k, mut msgs_k, mut iterations_k) = (0u64, 0u64, 0u64);
    let loop_span = tracer.begin("loop");
    let start = Instant::now();
    while more(start, seconds, walls.len(), k) {
        let wg = weighted(&g, &mut rng);
        let sim_seed = rng.random::<u64>();
        let (out, t) = clock.time(|| {
            tracer.scope("mst.congest_boruvka", |_| {
                congest_boruvka::run(&wg, sim_seed)
            })
        });
        walls.push(t);
        let expected = tracer.scope("check.kruskal", |_| reference::kruskal(&wg));
        let out = out.map_err(|e| e.to_string()).and_then(|o| {
            if Some(&o.tree_edges) == expected.as_ref() {
                Ok(o)
            } else {
                Err("tree differs from Kruskal's".to_string())
            }
        });
        let Some(out) = run.op("boruvka", out) else {
            continue;
        };
        rounds_all += out.rounds;
        msgs_all += out.messages;
        if walls.len() <= k {
            rounds_k += out.rounds;
            msgs_k += out.messages;
            iterations_k += u64::from(out.iterations);
        }
    }
    tracer.end(loop_span);

    // The trimmed mean, as on `amt_mst`: single calls spread widely.
    run.calls(&walls, stats::trimmed_mean);
    if walls.len() >= k && k > 0 {
        run.note("sim_rounds", rounds_k as f64 / k as f64, "rounds");
        run.note("sim_messages", msgs_k as f64 / k as f64, "messages");
    }
    run.counters.extend([
        ("sim_rounds_first_k", rounds_k),
        ("sim_messages_first_k", msgs_k),
        ("sim_iterations_first_k", iterations_k),
    ]);
    let total_ns: f64 = walls.iter().map(|t| t.wall).sum::<f64>() * 1e9;
    if msgs_all > 0 && rounds_all > 0 {
        run.note("sim_msgs_per_s", msgs_all as f64 / (total_ns / 1e9), "1/s");
        run.set("congest.sim.ns_per_msg", total_ns / msgs_all as f64);
        run.set("congest.sim.ns_per_round", total_ns / rounds_all as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug build; same code paths as the benchmark.
    const TINY: Sizes = Sizes {
        route_n: 64,
        mst_n: 32,
        cube_dim: 6,
        setup_reps: 2,
        setup_seconds: 0.0,
        min_calls: [3, 2, 2],
    };

    fn tiny(name: &str, seed: u64, trace: bool) -> Run {
        let host = Fingerprint::read();
        let mut tracer = Tracer::new(trace);
        let run = run(name, &TINY, seed, 0.0, trace, &host, &mut tracer);
        assert!(run.failures.is_empty(), "{name}: {:?}", run.failures);
        run
    }

    #[test]
    fn same_seed_gives_identical_counters() {
        for name in NAMES {
            let a = tiny(name, 11, false);
            let b = tiny(name, 11, true);
            assert!(!a.counters.is_empty());
            assert_eq!(a.counters, b.counters, "{name}");
        }
    }

    #[test]
    fn loop_stops_before_a_call_would_overrun() {
        let ten_s_ago = Instant::now() - std::time::Duration::from_secs(10);
        // Four calls of 2.5 s: a fifth ends at 12.5 s.
        assert!(!more(ten_s_ago, 12.0, 4, 0));
        assert!(more(ten_s_ago, 13.0, 4, 0));
        // The minimum count runs whatever the time.
        assert!(more(ten_s_ago, 1.0, 4, 5));
        assert!(!more(ten_s_ago, 1.0, 0, 0));
        assert!(more(Instant::now(), 1.0, 0, 0));
    }

    #[test]
    fn seed_changes_permutations_and_weights() {
        let g = expander(64, DEGREE, GRAPH_SEED);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (
                permutation(64, &mut rng),
                weighted(&g, &mut rng).weights().to_vec(),
            )
        };
        assert_eq!(draw(3), draw(3));
        let (p3, w3) = draw(3);
        let (p4, w4) = draw(4);
        assert_ne!(p3, p4);
        assert_ne!(w3, w4);
        let mut dst: Vec<u32> = p3.iter().map(|&(_, d)| d.0).collect();
        dst.sort_unstable();
        assert_eq!(dst, (0..64).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn every_metric_is_reported() {
        for name in NAMES {
            let run = tiny(name, 5, true);
            for (metric, _) in END_TO_END {
                let v = run.metrics.get(metric).copied();
                assert!(v.is_some_and(|v| v > 0.0), "{name}: {metric} = {v:?}");
            }
        }
    }
}
