//! What a protocol step reports — the outcome vocabulary shared by every
//! algorithm class.
//!
//! The paper's comparison (§IV) drives three *structurally different*
//! algorithm classes through identical static and dynamic scenarios: the
//! random-walk and probabilistic-polling classes produce one estimate per
//! invocation, while the epidemic class advances in synchronous gossip
//! rounds and only yields an estimate at each epoch boundary. All three run
//! as [`NodeProtocol`](crate::NodeProtocol)s — the one contract every
//! driver executes — and close reporting periods with a [`StepOutcome`]:
//! an [`StepOutcome::Estimate`], or [`StepOutcome::Failed`] for a period
//! that ended without one.
//!
//! * the one-shot estimators ([`SizeEstimator`](crate::SizeEstimator)s)
//!   run through [`SyncStep`](crate::SyncStep): one step = one full
//!   estimation, reported at once;
//! * [`EpochedAggregation`](crate::aggregation::EpochedAggregation) is a
//!   protocol itself — one step = one gossip round, reporting at each epoch
//!   boundary (§IV-D(k));
//! * the event-driven classes ([`net_protocol`](crate::net_protocol))
//!   report whenever their messages complete a period.
//!
//! ```
//! use p2p_estimation::aggregation::{AggregationConfig, EpochedAggregation};
//! use p2p_estimation::{Heuristic, SampleCollide, SizeMonitor, SyncStep};
//! use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let graph = HeterogeneousRandom::paper(2_000).build(&mut rng);
//!
//! // A one-shot estimator: every step reports.
//! let mut sc = SizeMonitor::new(SyncStep(SampleCollide::cheap()), Heuristic::OneShot, 8);
//! assert!(sc.tick(&graph, &mut rng).is_some());
//!
//! // The epidemic class: 50 pending rounds per reported estimate.
//! let agg = EpochedAggregation::new(AggregationConfig::paper());
//! let mut agg = SizeMonitor::new(agg, Heuristic::OneShot, 8);
//! for _ in 0..49 {
//!     assert!(agg.tick(&graph, &mut rng).is_none());
//! }
//! assert!(agg.tick(&graph, &mut rng).is_some());
//! ```

/// What one protocol step produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StepOutcome {
    /// The step completed a reporting period with this raw estimate.
    Estimate(f64),
    /// The protocol is mid-computation; nothing to report yet.
    Pending,
    /// A reporting period ended without a usable estimate (e.g. the
    /// initiator landed in a dead fragment, or the epidemic never reached a
    /// surviving reader).
    Failed,
}

impl StepOutcome {
    /// Whether this step closed a reporting period (successfully or not) —
    /// the instants at which scenario drivers record the ground truth.
    pub fn is_report(&self) -> bool {
        !matches!(self, StepOutcome::Pending)
    }

    /// The estimate, if the step produced one.
    pub fn estimate(&self) -> Option<f64> {
        match *self {
            StepOutcome::Estimate(e) => Some(e),
            _ => None,
        }
    }
}

/// Runs one `on_step` of a message-free protocol on `graph`, charging its
/// traffic to `msgs`; `Pending` when the step closed no period.
#[cfg(test)]
pub(crate) fn step_once<P: crate::NodeProtocol<Msg = ()> + ?Sized>(
    protocol: &mut P,
    step: u64,
    graph: &p2p_overlay::Graph,
    rng: &mut rand::rngs::SmallRng,
    msgs: &mut p2p_sim::MessageCounter,
) -> StepOutcome {
    let mut net = p2p_sim::Network::new(p2p_sim::NetworkModel::ideal(), 0);
    let mut reports = Vec::new();
    protocol.on_step(
        step,
        &mut crate::net_protocol::Cx::new(graph, &mut net, rng, &mut reports),
    );
    msgs.merge(net.counter());
    assert!(
        reports.len() <= 1,
        "a synchronous step closes at most one period"
    );
    reports.pop().unwrap_or(StepOutcome::Pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Aggregation, AggregationConfig, EpochedAggregation};
    use crate::{Heuristic, HopsSampling, SampleCollide, SizeEstimator, SizeMonitor, SyncStep};
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_overlay::Graph;
    use p2p_sim::rng::small_rng;
    use p2p_sim::MessageCounter;

    fn overlay(n: usize, seed: u64) -> Graph {
        let mut rng = small_rng(seed);
        HeterogeneousRandom::paper(n).build(&mut rng)
    }

    #[test]
    fn one_shot_adapters_report_every_step() {
        let graph = overlay(2_000, 700);
        let mut rng = small_rng(701);
        let mut msgs = MessageCounter::new();
        let mut sc = SyncStep(SampleCollide::cheap());
        let mut hs = SyncStep(HopsSampling::paper());
        for step in 1..=3 {
            assert!(step_once(&mut sc, step, &graph, &mut rng, &mut msgs).is_report());
            assert!(step_once(&mut hs, step, &graph, &mut rng, &mut msgs).is_report());
        }
    }

    #[test]
    fn adapter_step_matches_direct_estimate() {
        // The adapter must not perturb the RNG stream: a step and a direct
        // estimate from the same seed agree bit for bit.
        let graph = overlay(1_500, 702);
        let mut rng_a = small_rng(703);
        let mut rng_b = small_rng(703);
        let mut msgs_a = MessageCounter::new();
        let mut msgs_b = MessageCounter::new();
        let direct = SampleCollide::paper().estimate(&graph, &mut rng_a, &mut msgs_a);
        let mut adapter = SyncStep(SampleCollide::paper());
        let stepped = step_once(&mut adapter, 1, &graph, &mut rng_b, &mut msgs_b).estimate();
        assert_eq!(direct, stepped);
        assert_eq!(msgs_a, msgs_b);
    }

    #[test]
    fn epoched_aggregation_reports_at_epoch_boundaries() {
        let graph = overlay(1_000, 704);
        let mut rng = small_rng(705);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig {
            rounds_per_estimate: 10,
        });
        let mut reports = Vec::new();
        for step in 1..=30u64 {
            if step_once(&mut agg, step, &graph, &mut rng, &mut msgs).is_report() {
                reports.push(step);
            }
        }
        assert_eq!(reports, vec![10, 20, 30]);
    }

    #[test]
    fn epoched_protocol_step_sequence_matches_manual_loop() {
        // Stepping the protocol must consume the RNG exactly like the manual
        // start_epoch/run_round/current_estimate loop the runner used to
        // hand-roll — the foundation of the golden-trace equivalence.
        let graph = overlay(800, 706);
        let config = AggregationConfig {
            rounds_per_estimate: 25,
        };

        let mut rng_a = small_rng(707);
        let mut msgs_a = MessageCounter::new();
        let mut manual = EpochedAggregation::new(config);
        let mut manual_estimates = Vec::new();
        for round in 0..75u32 {
            if round % 25 == 0 {
                manual.start_epoch(&graph, &mut rng_a);
            }
            manual.run_round(&graph, &mut rng_a, &mut msgs_a);
            if round % 25 == 24 {
                manual_estimates.push(manual.current_estimate(&graph, &mut rng_a));
            }
        }

        let mut rng_b = small_rng(707);
        let mut msgs_b = MessageCounter::new();
        let mut protocol = EpochedAggregation::new(config);
        let mut protocol_estimates = Vec::new();
        for step in 1..=75u64 {
            if let outcome @ (StepOutcome::Estimate(_) | StepOutcome::Failed) =
                step_once(&mut protocol, step, &graph, &mut rng_b, &mut msgs_b)
            {
                protocol_estimates.push(outcome.estimate());
            }
        }

        assert_eq!(manual_estimates, protocol_estimates);
        assert_eq!(msgs_a, msgs_b);
    }

    #[test]
    fn a_monitor_reading_spans_pending_steps() {
        let graph = overlay(1_000, 708);
        let mut rng = small_rng(709);
        let agg = EpochedAggregation::new(AggregationConfig::paper());
        let mut mon = SizeMonitor::new(agg, Heuristic::OneShot, 4);
        let est = (0..1_000)
            .find_map(|_| mon.tick(&graph, &mut rng))
            .expect("an epoch closes")
            .raw;
        let quality = est / 1_000.0;
        assert!((0.9..1.1).contains(&quality), "quality {quality}");

        // One-shot path: a single tick suffices.
        let mut sc = SizeMonitor::new(SyncStep(SampleCollide::cheap()), Heuristic::OneShot, 4);
        assert!(sc.tick(&graph, &mut rng).is_some());
    }

    #[test]
    fn epoched_step_fails_on_an_overlay_that_never_had_an_epoch() {
        // With no epoch ever started and none startable, each step is a
        // failed reporting period — like the one-shot classes — rather than
        // an eternal `Pending` that would starve monitors and drivers.
        let graph = Graph::with_capacity(0);
        let mut rng = small_rng(714);
        let mut msgs = MessageCounter::new();
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        for step in 1..=3 {
            let outcome = step_once(&mut agg, step, &graph, &mut rng, &mut msgs);
            assert_eq!(outcome, StepOutcome::Failed);
        }
        assert_eq!(msgs.total(), 0);
    }

    #[test]
    fn a_fifty_round_epoch_yields_no_reading_in_ten_ticks() {
        let graph = overlay(500, 710);
        let mut rng = small_rng(711);
        let agg = EpochedAggregation::new(AggregationConfig::paper());
        let mut mon = SizeMonitor::new(agg, Heuristic::OneShot, 4);
        for _ in 0..10 {
            assert!(mon.tick(&graph, &mut rng).is_none());
        }
        assert_eq!((mon.reports(), mon.failures()), (0, 0));
    }

    #[test]
    fn one_shot_aggregation_still_works_through_the_adapter() {
        // `Aggregation` (the one-shot wrapper) and `EpochedAggregation` (the
        // round-driven protocol) coexist: Table I uses the former, dynamic
        // scenarios the latter.
        let graph = overlay(1_200, 712);
        let mut rng = small_rng(713);
        let mut msgs = MessageCounter::new();
        let mut agg = SyncStep(Aggregation::paper());
        let outcome = step_once(&mut agg, 1, &graph, &mut rng, &mut msgs);
        let est = outcome.estimate().expect("static overlay");
        assert!((est / 1_200.0 - 1.0).abs() < 0.05, "estimate {est}");
        assert_eq!(msgs.total(), 1_200 * 50 * 2);
    }

    #[test]
    fn outcome_helpers() {
        assert!(StepOutcome::Estimate(5.0).is_report());
        assert!(StepOutcome::Failed.is_report());
        assert!(!StepOutcome::Pending.is_report());
        assert_eq!(StepOutcome::Estimate(5.0).estimate(), Some(5.0));
        assert_eq!(StepOutcome::Failed.estimate(), None);
        assert_eq!(StepOutcome::Pending.estimate(), None);
    }
}
