//! The observer spine: one set of hooks through which every recording layer
//! watches the round engine.
//!
//! [`crate::Simulator::run_observed`] drives an [`Observer`] from the
//! engine's existing event points — run start, the protocol step's
//! [`TraceEvent`]s, every delivery, once per executed round, and run end.
//! The sinks are plain values the caller owns: [`RunTrace`] (one run's
//! timeline), `Vec<RunTrace>` (one timeline per observed run),
//! [`TrafficProfile`] (per-class attribution, accumulated across runs), and
//! [`TelemetryRecorder`] (runtime health and the flight recorder). Sinks
//! compose as tuples: `(trace, profile, recorder)` is itself an observer.
//!
//! # Contract
//!
//! * **Unobserved runs pay nothing.** The observer is a type parameter, not
//!   a trait object: [`crate::Simulator::run`] is `run_observed` with the
//!   zero-sized [`NoObserver`], whose hooks inline away and whose
//!   [`Observer::ROUNDS`] / [`Observer::EVENTS`] flags switch off the
//!   per-round records at compile time.
//! * **Observation never changes a run.** The engine hands observers
//!   copies and shared views; `Metrics`, protocol state, RNG streams and
//!   fault/churn logs are byte-identical whatever observes them.
//! * **Exact.** [`Observer::on_delivery`] fires at exactly the events that
//!   drive `Metrics.messages`/`bits` and the per-edge loads.
//!
//! [`RunTrace`]: crate::RunTrace
//! [`TrafficProfile`]: crate::TrafficProfile
//! [`TelemetryRecorder`]: crate::TelemetryRecorder

use crate::profile::TrafficClass;
use crate::telemetry::RoundHealth;
use crate::trace::{RoundSample, TraceEvent};
use crate::{ChurnEvent, FaultEvent, Metrics, Result};

/// One executed round, as handed to [`Observer::on_round`].
#[derive(Clone, Debug)]
pub struct RoundRecord<'a> {
    /// The round's deliveries, faults, and availability gauges.
    pub sample: RoundSample,
    /// The round's engine gauges, step work and step wall-time.
    pub health: RoundHealth,
    /// Cumulative messages delivered per (undirected) edge so far.
    pub edge_load: &'a [u64],
}

/// How a run ended, as handed to [`Observer::end_run`].
#[derive(Clone, Copy, Debug)]
pub struct RunEnd<'a> {
    /// The run's result.
    pub result: &'a Result<Metrics>,
    /// Final cumulative per-edge loads.
    pub edge_load: &'a [u64],
    /// The run's fault log (empty without a non-trivial fault plan).
    pub fault_events: &'a [FaultEvent],
    /// The run's churn log (empty without a non-trivial churn plan).
    pub churn_events: &'a [ChurnEvent],
}

/// A recording sink driven by the round engine. Every hook defaults to a
/// no-op, so a sink implements only what it records.
pub trait Observer {
    /// Whether the engine builds a [`RoundRecord`] each round for
    /// [`Observer::on_round`] (and times the protocol step for it).
    const ROUNDS: bool = false;
    /// Whether the engine collects the protocol's [`TraceEvent`]s for
    /// [`Observer::on_events`]; otherwise `Ctx::trace_event` is a no-op.
    const EVENTS: bool = false;

    /// Places the next observed run's round 0 at round `offset` of the
    /// caller's global clock, until that run ends — how multi-stage drivers
    /// (per-phase or per-epoch simulator runs) keep one accumulated
    /// profile on their own round count. Runs start at 0 otherwise.
    fn set_round_offset(&mut self, _offset: u64) {}

    /// A run over a graph with `edge_count` edges starts.
    fn begin_run(&mut self, _edge_count: usize) {}

    /// The events one round's protocol step emitted, in visit order. Also
    /// delivered for a round that aborts the run with a model violation.
    fn on_events(&mut self, _events: &[TraceEvent]) {}

    /// One delivered message of `bits` bits over `edge` in `round` (the
    /// run's own clock), attributed to `class`.
    fn on_delivery(&mut self, _class: TrafficClass, _round: u64, _edge: usize, _bits: u64) {}

    /// One executed round (only called when [`Observer::ROUNDS`] is set).
    fn on_round(&mut self, _record: &RoundRecord<'_>) {}

    /// The run ended, successfully or not.
    fn end_run(&mut self, _end: &RunEnd<'_>) {}
}

/// The observer of an unobserved run: records nothing and compiles away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoObserver;

impl Observer for NoObserver {}

/// Tuples of observers observe together, each sink seeing every hook in
/// tuple order.
macro_rules! tuple_observer {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Observer),+> Observer for ($($t,)+) {
            const ROUNDS: bool = $($t::ROUNDS)||+;
            const EVENTS: bool = $($t::EVENTS)||+;

            fn set_round_offset(&mut self, offset: u64) {
                $(self.$i.set_round_offset(offset);)+
            }

            fn begin_run(&mut self, edge_count: usize) {
                $(self.$i.begin_run(edge_count);)+
            }

            fn on_events(&mut self, events: &[TraceEvent]) {
                $(self.$i.on_events(events);)+
            }

            fn on_delivery(&mut self, class: TrafficClass, round: u64, edge: usize, bits: u64) {
                $(self.$i.on_delivery(class, round, edge, bits);)+
            }

            fn on_round(&mut self, record: &RoundRecord<'_>) {
                $(self.$i.on_round(record);)+
            }

            fn end_run(&mut self, end: &RunEnd<'_>) {
                $(self.$i.end_run(end);)+
            }
        }
    };
}

tuple_observer!(A.0, B.1);
tuple_observer!(A.0, B.1, C.2);
