//! Cross-validation: parallel walks executed as an actual CONGEST
//! protocol.
//!
//! The scheduler in [`crate::parallel`] *accounts* rounds from token loads;
//! this module *executes* the same workload as a message-passing protocol
//! in the `amt-congest` simulator, with per-edge queues and one token per
//! directed edge per round. Tokens sample their next transition from the
//! correct kernel when they are ready; a token whose chosen edge is busy
//! waits in FIFO order (its sampled choice stands, so the walk law is
//! unchanged — only the timing skews, which store-and-forward allows).
//!
//! The experiment suite and tests compare the two round counts: the
//! queue-based execution pipelines across steps, so it is never slower than
//! a small constant times the phase-based accounting, and both scale the
//! same way — evidence that the scheduler's measured costs are the costs a
//! real network would pay.

use crate::{WalkKind, WalkSpec};
use amt_congest::{
    bits_for_count, class, CongestError, Ctx, Metrics, Protocol, RunConfig, Simulator,
    StopCondition, TrafficClass,
};
use amt_graphs::{Graph, NodeId};
use rand::RngExt;
use std::collections::VecDeque;

/// A walk token in flight: `(walk id, steps remaining)`.
#[derive(Clone, Copy, Debug)]
struct Token {
    walk: u32,
    left: u32,
}

impl amt_congest::CongestMessage for Token {
    fn bit_width(&self) -> usize {
        bits_for_count(self.walk as usize + 2) + bits_for_count(self.left as usize + 2)
    }
}

/// Per-node walk executor: samples transitions for resident tokens and
/// queues movers FIFO per port.
struct WalkNode {
    /// Tokens ready to take their next step.
    ready: VecDeque<Token>,
    /// Tokens whose sampled move waits for a free port, per port.
    port_queue: Vec<VecDeque<Token>>,
    /// Tokens that finished here.
    finished: Vec<Token>,
    degree: usize,
    delta: usize,
    kind: WalkKind,
}

impl WalkNode {
    /// Samples one transition for every ready token: stays go to `stayed`
    /// (they consume this round and become ready again next round, as in
    /// the phase model); movers join their sampled port's FIFO queue.
    fn drain_ready(&mut self, ctx: &mut Ctx<'_, Token>, stayed: &mut Vec<Token>) {
        while let Some(mut tok) = self.ready.pop_front() {
            debug_assert!(tok.left > 0);
            let stay = match self.kind {
                WalkKind::Lazy => ctx.rng().random_bool(0.5),
                WalkKind::DeltaRegular => {
                    let p = self.degree as f64 / (2.0 * self.delta.max(1) as f64);
                    !ctx.rng().random_bool(p)
                }
            };
            if stay || self.degree == 0 {
                tok.left -= 1;
                if tok.left == 0 {
                    self.finished.push(tok);
                } else {
                    stayed.push(tok);
                }
            } else {
                let port = ctx.rng().random_range(0..self.degree);
                self.port_queue[port].push_back(tok);
            }
        }
    }
}

/// Wrapper protocol separating "stayed this round" tokens from port queues.
struct WalkProtocol {
    node: WalkNode,
    stayed: Vec<Token>,
}

impl Protocol for WalkProtocol {
    type Message = Token;

    const TRAFFIC_CLASS: TrafficClass = class::WALK_TOKEN;

    // A node with no resident tokens and no mail does nothing in `tick`
    // (no RNG draws, no sends), so skipping it is a no-op; while tokens
    // are resident (`stayed`/queued) the node re-arms a 1-round timer in
    // `tick`, so walk epochs cost O(active tokens), not O(n), per round.
    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, Token>) {
        self.tick(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, Token>, inbox: &[(usize, Token)]) {
        for &(_, tok) in inbox {
            let mut tok = tok;
            tok.left -= 1; // the traversal that delivered it was one step
            if tok.left == 0 {
                self.node.finished.push(tok);
            } else {
                self.node.ready.push_back(tok);
            }
        }
        self.tick(ctx);
    }

    fn is_done(&self) -> bool {
        self.node.ready.is_empty()
            && self.stayed.is_empty()
            && self.node.port_queue.iter().all(VecDeque::is_empty)
    }
}

impl WalkProtocol {
    fn tick(&mut self, ctx: &mut Ctx<'_, Token>) {
        // Tokens that stayed last round become ready again.
        let stayed_before: Vec<Token> = self.stayed.drain(..).collect();
        for tok in stayed_before {
            self.node.ready.push_back(tok);
        }
        self.node.drain_ready(ctx, &mut self.stayed);
        // Send at most one queued token per port (the CONGEST constraint).
        for port in 0..self.node.degree {
            if let Some(tok) = self.node.port_queue[port].pop_front() {
                ctx.send(port, tok);
            }
        }
        // Tokens still resident here (stayed this round, or waiting for a
        // busy port) need another step even if no mail arrives.
        if !self.is_done() {
            ctx.wake_in(1);
        }
    }
}

/// Outcome of a CONGEST walk execution.
#[derive(Clone, Debug)]
pub struct CongestWalkRun {
    /// Final node of each walk, indexed by walk id.
    pub endpoints: Vec<NodeId>,
    /// Simulator metrics (rounds, messages, bits).
    pub metrics: Metrics,
}

/// Executes `specs` as a real CONGEST protocol and returns endpoints plus
/// measured metrics.
///
/// # Errors
///
/// Propagates simulator violations (all walk tokens fit the default
/// `O(log n)` budget for polynomially many walks).
pub fn run_walks_in_congest(
    g: &Graph,
    kind: WalkKind,
    specs: &[WalkSpec],
    seed: u64,
) -> Result<CongestWalkRun, CongestError> {
    let delta = g.max_degree();
    let mut initial: Vec<VecDeque<Token>> = vec![VecDeque::new(); g.len()];
    for (i, spec) in specs.iter().enumerate() {
        if spec.steps == 0 {
            continue;
        }
        initial[spec.start.index()].push_back(Token {
            walk: i as u32,
            left: spec.steps,
        });
    }
    let nodes: Vec<WalkProtocol> = g
        .nodes()
        .map(|v| WalkProtocol {
            node: WalkNode {
                ready: std::mem::take(&mut initial[v.index()]),
                port_queue: vec![VecDeque::new(); g.degree(v)],
                finished: Vec::new(),
                degree: g.degree(v),
                delta,
                kind,
            },
            stayed: Vec::new(),
        })
        .collect();
    let mut sim = Simulator::new(g, nodes, seed)?;
    let cfg = RunConfig {
        stop: StopCondition::AllDone,
        ..RunConfig::default()
    };
    let metrics = sim.run(&cfg)?;
    let mut endpoints = vec![NodeId(0); specs.len()];
    for (v, p) in sim.nodes().iter().enumerate() {
        for tok in &p.node.finished {
            endpoints[tok.walk as usize] = NodeId(v as u32);
        }
    }
    // Walks with zero steps end at their start.
    for (i, spec) in specs.iter().enumerate() {
        if spec.steps == 0 {
            endpoints[i] = spec.start;
        }
    }
    Ok(CongestWalkRun { endpoints, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{degree_proportional_specs, run_parallel_walks};
    use amt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn congest_walks_terminate_and_cover_all_tokens() {
        let g = generators::hypercube(4);
        let specs = degree_proportional_specs(&g, 2, 8);
        let run = run_walks_in_congest(&g, WalkKind::Lazy, &specs, 3).unwrap();
        assert_eq!(run.endpoints.len(), specs.len());
        assert!(run.metrics.rounds >= 8, "every token takes ≥ steps rounds");
        for e in &run.endpoints {
            assert!(e.index() < g.len());
        }
    }

    #[test]
    fn rounds_agree_with_the_token_scheduler_within_constants() {
        let g = generators::random_regular(128, 6, &mut StdRng::seed_from_u64(1)).unwrap();
        let specs = degree_proportional_specs(&g, 2, 20);
        let congest = run_walks_in_congest(&g, WalkKind::Lazy, &specs, 5).unwrap();
        let sched = run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut StdRng::seed_from_u64(5));
        let (a, b) = (congest.metrics.rounds as f64, sched.stats.rounds as f64);
        let ratio = a.max(b) / a.min(b);
        assert!(
            ratio < 4.0,
            "protocol rounds {a} vs scheduler rounds {b}: ratio {ratio:.2}"
        );
    }

    #[test]
    fn endpoint_distribution_is_stationary() {
        let g = generators::random_regular(32, 4, &mut StdRng::seed_from_u64(2)).unwrap();
        let specs = degree_proportional_specs(&g, 16, 60);
        let run = run_walks_in_congest(&g, WalkKind::Lazy, &specs, 7).unwrap();
        let mut counts = vec![0usize; g.len()];
        for e in &run.endpoints {
            counts[e.index()] += 1;
        }
        let expect = specs.len() as f64 / g.len() as f64;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.4 * expect && (c as f64) < 2.2 * expect,
                "node {v}: {c} endpoints vs ≈{expect}"
            );
        }
    }

    #[test]
    fn zero_step_specs_stay_home() {
        let g = generators::ring(6);
        let specs = vec![WalkSpec {
            start: NodeId(3),
            steps: 0,
        }];
        let run = run_walks_in_congest(&g, WalkKind::Lazy, &specs, 1).unwrap();
        assert_eq!(run.endpoints[0], NodeId(3));
    }

    #[test]
    fn delta_regular_protocol_works() {
        let g = generators::lollipop(6, 4).unwrap();
        let specs = degree_proportional_specs(&g, 2, 10);
        let run = run_walks_in_congest(&g, WalkKind::DeltaRegular, &specs, 9).unwrap();
        assert_eq!(run.endpoints.len(), specs.len());
    }
}
