//! Continuous size monitoring.
//!
//! The paper's dynamic evaluation (§IV-D) drives each algorithm as a
//! *monitoring process*: "the algorithm has to be executed perpetually in
//! order to track size variations; the monitoring process should sample
//! continuously the system in order to provide periodical estimations."
//!
//! [`SizeMonitor`] packages that loop for library users around any
//! [`NodeProtocol`]: each tick drives one step window of the protocol on
//! its own event core — the one-shot estimators (through
//! [`SyncStep`](crate::SyncStep)) finish an estimation per tick, epoched
//! Aggregation runs one gossip round, and the event-driven classes send
//! their messages through a network under any [`NetworkModel`] — then
//! applies a reporting [`Heuristic`], keeps a bounded history, and tracks
//! the cumulative message bill: everything an application needs to expose
//! a "current network size" gauge. A reading appears whenever a tick
//! closes a reporting period.

use crate::heuristics::{Heuristic, Smoother};
use crate::net_protocol::{NodeProtocol, ShardCore, SimHost};
use crate::protocol::StepOutcome;
use p2p_overlay::Graph;
use p2p_sim::rng::small_rng;
use p2p_sim::{MessageCounter, NetStats, Network, NetworkModel, SimTime};
use rand::rngs::SmallRng;
use std::collections::VecDeque;

/// One entry of the monitor's history.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// Monotone tick index of the step that reported this estimate.
    pub tick: u64,
    /// Raw estimate of the reporting period.
    pub raw: f64,
    /// Heuristic-smoothed value actually reported.
    pub reported: f64,
    /// Messages the reporting period cost — for one-shot estimators that is
    /// one tick's traffic; for protocols whose periods span several ticks
    /// it covers every tick since the previous report.
    pub cost: u64,
}

/// A perpetual estimation loop around any [`NodeProtocol`].
pub struct SizeMonitor<P: NodeProtocol> {
    /// The protocol on its own event core. The core's RNG slot holds the
    /// caller's stream for the duration of each tick.
    core: ShardCore<P>,
    smoother: Smoother,
    history: VecDeque<Reading>,
    history_cap: usize,
    tick: u64,
    reports: u64,
    failures: u64,
    started: bool,
    /// Traffic accumulated since the last report, attributed to the next one.
    pending_cost: u64,
    total_messages: MessageCounter,
}

impl<P: NodeProtocol> SizeMonitor<P> {
    /// Wraps `protocol` with the given reporting heuristic, keeping up to
    /// `history_cap` readings (must be ≥ 1), over the ideal network.
    pub fn new(protocol: P, heuristic: Heuristic, history_cap: usize) -> Self {
        Self::with_network(protocol, heuristic, history_cap, NetworkModel::ideal(), 0)
    }

    /// [`new`](Self::new) over a network under `model`: one tick is one
    /// `model.step_ticks` window, and the latency/loss stream is seeded by
    /// `net_seed`, so runs stay deterministic per `(caller RNG, net_seed)`.
    pub fn with_network(
        protocol: P,
        heuristic: Heuristic,
        history_cap: usize,
        model: NetworkModel,
        net_seed: u64,
    ) -> Self {
        assert!(history_cap >= 1, "history capacity must be positive");
        SizeMonitor {
            core: ShardCore::new(protocol, Network::new(model, net_seed), small_rng(0)),
            smoother: Smoother::new(heuristic),
            history: VecDeque::with_capacity(history_cap),
            history_cap,
            tick: 0,
            reports: 0,
            failures: 0,
            started: false,
            pending_cost: 0,
            total_messages: MessageCounter::new(),
        }
    }

    /// Drives one step window on the current overlay snapshot: the
    /// protocol's `on_step`, then every event up to the window's end.
    ///
    /// Returns the new reading when the window closed a reporting period
    /// with an estimate. `None` means no period closed (a round-driven
    /// protocol mid-epoch, an estimation still in flight) *or* the period
    /// failed — failures are counted in [`failures`](Self::failures); the
    /// history and smoothing state are untouched either way, so one
    /// shattered period does not poison the report.
    pub fn tick(&mut self, graph: &Graph, rng: &mut SmallRng) -> Option<Reading> {
        self.tick += 1;
        std::mem::swap(&mut self.core.rng, rng);
        if !self.started {
            self.core.init(graph);
            self.started = true;
        }
        self.core.step(self.tick, graph);
        let horizon = SimTime(self.tick * self.core.net.model().step_ticks);
        self.core.run_until(horizon, &mut SimHost(graph));
        std::mem::swap(&mut self.core.rng, rng);
        let msgs = self.core.net.take_counter();
        self.pending_cost += msgs.total();
        self.total_messages.merge(&msgs);
        let mut reading = None;
        for outcome in self.core.drain_reports() {
            match outcome {
                StepOutcome::Pending => {}
                StepOutcome::Failed => {
                    self.failures += 1;
                    // The failed period's traffic is spent; do not bill it
                    // to the next successful reading.
                    self.pending_cost = 0;
                }
                StepOutcome::Estimate(raw) => {
                    let r = Reading {
                        tick: self.tick,
                        raw,
                        reported: self.smoother.apply(raw),
                        cost: std::mem::take(&mut self.pending_cost),
                    };
                    self.reports += 1;
                    if self.history.len() == self.history_cap {
                        self.history.pop_front();
                    }
                    self.history.push_back(r);
                    reading = Some(r);
                }
            }
        }
        reading
    }

    /// The most recent reported value, if any period has succeeded.
    pub fn current(&self) -> Option<f64> {
        self.history.back().map(|r| r.reported)
    }

    /// Readings, oldest first.
    pub fn history(&self) -> impl Iterator<Item = &Reading> {
        self.history.iter()
    }

    /// Total ticks (step windows) driven.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Reporting periods that produced an estimate.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Reporting periods that failed (e.g. initiator isolated by churn).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Cumulative message bill across all ticks, per kind.
    pub fn total_messages(&self) -> &MessageCounter {
        &self.total_messages
    }

    /// Network accounting so far (sent/delivered/dropped/churn-lost); all
    /// zero for protocols that route no messages.
    pub fn net_stats(&self) -> &NetStats {
        self.core.net.stats()
    }

    /// Mean cost (messages) per successful estimation so far.
    pub fn mean_cost(&self) -> Option<f64> {
        (self.reports > 0).then(|| {
            // Failures may still have charged partial traffic; include it —
            // that traffic was really spent to obtain the current report.
            self.total_messages.total() as f64 / self.reports as f64
        })
    }

    /// The underlying protocol's name.
    pub fn name(&self) -> &'static str {
        self.core.protocol.name()
    }

    /// Drops smoothing state, history, any pending-period cost *and* the
    /// protocol's own accumulated state — call after a known network reset
    /// (e.g. the application rejoined a different overlay). The protocol's
    /// `on_init` hook runs again on the next tick.
    pub fn reset(&mut self) {
        self.smoother.reset();
        self.history.clear();
        self.pending_cost = 0;
        self.core.protocol.reset();
        self.started = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{AggregationConfig, EpochedAggregation};
    use crate::{AsyncAggregation, SampleCollide, SyncStep};
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_overlay::churn;
    use p2p_sim::rng::small_rng;
    use p2p_sim::{MessageKind, NetworkModel};

    /// The paper's most reactive monitoring setup — Sample&Collide oneShot
    /// (§IV-D(l): "Sample&Collide provides really reactive results; this
    /// could be explained by the oneShot heuristic as the algorithm does
    /// not keep any memory").
    fn reactive_gauge() -> SizeMonitor<SyncStep<SampleCollide>> {
        SizeMonitor::new(SyncStep(SampleCollide::paper()), Heuristic::OneShot, 64)
    }

    #[test]
    fn monitor_tracks_a_static_overlay() {
        let mut rng = small_rng(600);
        let graph = HeterogeneousRandom::paper(3_000).build(&mut rng);
        let mut mon = reactive_gauge();
        for _ in 0..10 {
            mon.tick(&graph, &mut rng).expect("static overlay");
        }
        assert_eq!(mon.ticks(), 10);
        assert_eq!(mon.reports(), 10);
        assert_eq!(mon.failures(), 0);
        let current = mon.current().unwrap();
        assert!((current / 3_000.0 - 1.0).abs() < 0.25, "estimate {current}");
        assert!(mon.mean_cost().unwrap() > 0.0);
        assert!(mon.total_messages().get(MessageKind::WalkStep) > 0);
    }

    #[test]
    fn history_is_bounded_and_ordered() {
        let mut rng = small_rng(601);
        let graph = HeterogeneousRandom::paper(500).build(&mut rng);
        let mut mon = SizeMonitor::new(SyncStep(SampleCollide::cheap()), Heuristic::OneShot, 4);
        for _ in 0..10 {
            mon.tick(&graph, &mut rng);
        }
        let ticks: Vec<u64> = mon.history().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![7, 8, 9, 10]);
    }

    #[test]
    fn smoothing_is_applied_to_reported_values() {
        let mut rng = small_rng(602);
        let graph = HeterogeneousRandom::paper(2_000).build(&mut rng);
        let mut mon = SizeMonitor::new(
            SyncStep(SampleCollide::cheap()),
            Heuristic::LastKRuns(5),
            16,
        );
        for _ in 0..12 {
            mon.tick(&graph, &mut rng);
        }
        // The reported stream must have lower dispersion than the raw one.
        let (mut raw_dev, mut rep_dev) = (0.0, 0.0);
        for r in mon.history() {
            raw_dev += (r.raw - 2_000.0).abs();
            rep_dev += (r.reported - 2_000.0).abs();
        }
        assert!(rep_dev < raw_dev, "reported {rep_dev} vs raw {raw_dev}");
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let mut rng = small_rng(603);
        let mut graph = HeterogeneousRandom::paper(50).build(&mut rng);
        let mut mon = reactive_gauge();
        mon.tick(&graph, &mut rng).unwrap();
        // Shatter the overlay completely: every estimation now fails.
        churn::remove_random_nodes(&mut graph, 50, &mut rng);
        assert!(mon.tick(&graph, &mut rng).is_none());
        assert_eq!(mon.failures(), 1);
        assert_eq!(
            mon.current().map(|c| c > 0.0),
            Some(true),
            "last good reading kept"
        );
    }

    #[test]
    fn monitor_follows_churn() {
        let mut rng = small_rng(604);
        let mut graph = HeterogeneousRandom::paper(3_000).build(&mut rng);
        let mut mon = reactive_gauge();
        for _ in 0..3 {
            mon.tick(&graph, &mut rng);
        }
        let before = mon.current().unwrap();
        churn::catastrophic_failure(&mut graph, 0.5, &mut rng);
        for _ in 0..3 {
            mon.tick(&graph, &mut rng);
        }
        let after = mon.current().unwrap();
        assert!(
            after < 0.75 * before,
            "monitor must see the halving: {before} → {after}"
        );
    }

    #[test]
    fn reset_clears_history_but_keeps_counters() {
        let mut rng = small_rng(605);
        let graph = HeterogeneousRandom::paper(500).build(&mut rng);
        let mut mon = SizeMonitor::new(SyncStep(SampleCollide::cheap()), Heuristic::last10(), 64);
        for _ in 0..5 {
            mon.tick(&graph, &mut rng);
        }
        let spent = mon.total_messages().total();
        mon.reset();
        assert!(mon.current().is_none());
        assert_eq!(mon.ticks(), 5, "tick counter is cumulative");
        assert_eq!(mon.total_messages().total(), spent, "bill is cumulative");
    }

    #[test]
    fn monitor_drives_epoched_aggregation() {
        // The capability the historic monitor lacked: perpetual monitoring
        // of the epidemic class. 3 epochs of 20 rounds → 3 readings.
        let mut rng = small_rng(606);
        let graph = HeterogeneousRandom::paper(1_000).build(&mut rng);
        let mut mon = SizeMonitor::new(
            EpochedAggregation::new(AggregationConfig {
                rounds_per_estimate: 20,
            }),
            Heuristic::OneShot,
            8,
        );
        let mut reading_ticks = Vec::new();
        for _ in 0..60 {
            if let Some(r) = mon.tick(&graph, &mut rng) {
                reading_ticks.push(r.tick);
                let q = r.raw / 1_000.0;
                // 20-round epochs at N=1000 spend ~half the epoch on the
                // participation ramp-up, so readings are loose (the paper's
                // 50-round epochs converge; this test is about plumbing).
                assert!((0.5..1.6).contains(&q), "epoch estimate quality {q}");
                assert!(r.cost > 0, "epoch cost must cover its rounds");
            }
        }
        assert_eq!(reading_ticks, vec![20, 40, 60]);
        assert_eq!(mon.ticks(), 60);
        assert_eq!(mon.reports(), 3);
        assert_eq!(mon.failures(), 0);
        assert_eq!(mon.name(), "Aggregation");
    }

    #[test]
    fn epoch_reading_cost_spans_pending_ticks() {
        // The reading's cost must equal all traffic since the last report —
        // i.e. the whole epoch's messages, not the final round's.
        let mut rng = small_rng(607);
        let graph = HeterogeneousRandom::paper(300).build(&mut rng);
        let mut mon = SizeMonitor::new(
            EpochedAggregation::new(AggregationConfig {
                rounds_per_estimate: 10,
            }),
            Heuristic::OneShot,
            8,
        );
        let mut first = None;
        for _ in 0..10 {
            if let Some(r) = mon.tick(&graph, &mut rng) {
                first = Some(r);
            }
        }
        let first = first.expect("one epoch completed");
        assert_eq!(first.cost, mon.total_messages().total());
    }

    #[test]
    fn reset_discards_protocol_state_for_a_new_overlay() {
        let mut rng = small_rng(609);
        let graph_a = HeterogeneousRandom::paper(2_000).build(&mut rng);
        let graph_b = HeterogeneousRandom::paper(400).build(&mut rng);
        let mut mon = SizeMonitor::new(
            EpochedAggregation::new(AggregationConfig {
                rounds_per_estimate: 20,
            }),
            Heuristic::OneShot,
            8,
        );
        // Half an epoch on overlay A...
        for _ in 0..10 {
            assert!(mon.tick(&graph_a, &mut rng).is_none());
        }
        // ...then the application rejoins a different overlay: reset must
        // drop the protocol's per-slot state too, or overlay A's values
        // would alias onto overlay B's slot indices.
        mon.reset();
        let mut readings = Vec::new();
        for _ in 0..40 {
            if let Some(r) = mon.tick(&graph_b, &mut rng) {
                readings.push(r);
            }
        }
        // A fresh epoch started on B: readings land on B's epoch grid and
        // estimate B's size, not a blend with A's stale mass.
        assert_eq!(readings.len(), 2);
        for r in &readings {
            let q = r.raw / 400.0;
            assert!((0.5..1.6).contains(&q), "post-reset quality {q}");
        }
    }

    #[test]
    fn epoched_gauge_follows_growth_across_epochs() {
        let mut rng = small_rng(608);
        let mut graph = HeterogeneousRandom::paper(1_000).build(&mut rng);
        // The epidemic class as a perpetual gauge: a reading at each
        // 50-round epoch boundary (§IV-D(k)).
        let agg = EpochedAggregation::new(AggregationConfig::paper());
        let mut mon = SizeMonitor::new(agg, Heuristic::OneShot, 64);
        for _ in 0..50 {
            mon.tick(&graph, &mut rng);
        }
        let before = mon.current().expect("first epoch reported");
        churn::join_nodes(&mut graph, 1_000, 10, &mut rng);
        for _ in 0..100 {
            mon.tick(&graph, &mut rng);
        }
        let after = mon.current().unwrap();
        assert!(
            after > 1.5 * before,
            "gauge must see the doubling: {before} → {after}"
        );
    }

    #[test]
    fn lossy_network_readings_land_on_the_epoch_grid() {
        // The event-driven epidemic class through a lossy WAN: lost pushes
        // and pulls drift the mass but every epoch is still read one window
        // after its final round; an epoch whose overlay empties under it
        // closes as a failure.
        let mut rng = small_rng(610);
        let mut graph = HeterogeneousRandom::paper(1_000).build(&mut rng);
        let model = NetworkModel::wan().with_drop_rate(0.2);
        let agg = AsyncAggregation::new(AggregationConfig {
            rounds_per_estimate: 10,
        });
        let mut mon = SizeMonitor::with_network(agg, Heuristic::OneShot, 8, model, 611);
        let mut reading_ticks = Vec::new();
        for tick in 1..=40 {
            if tick == 36 {
                let alive = graph.alive_count();
                churn::remove_random_nodes(&mut graph, alive, &mut rng);
            }
            if let Some(r) = mon.tick(&graph, &mut rng) {
                reading_ticks.push(r.tick);
                assert!(r.raw > 0.0 && r.cost > 0, "reading {r:?}");
            }
        }
        assert_eq!(reading_ticks, vec![10, 20, 30]);
        assert_eq!((mon.reports(), mon.failures()), (3, 1));
        assert!(mon.net_stats().dropped > 0);
        assert_eq!(mon.name(), "Aggregation");
    }
}
