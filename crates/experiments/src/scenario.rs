//! Dynamic-network scenarios (§IV-D).
//!
//! The paper applies "constant nodes arrivals and departures (+/−50%) as
//! well as catastrophic failures (−25%)" to the 100k heterogeneous overlay.
//! A [`Scenario`] is an initial size plus a churn schedule over an abstract
//! timeline of *steps* — estimation indices for the polling algorithms,
//! gossip rounds for Aggregation.

use p2p_overlay::builder::{BarabasiAlbert, GraphBuilder, HeterogeneousRandom};
use p2p_overlay::churn::ChurnOp;
use p2p_overlay::Graph;
use p2p_sim::NetworkModel;
use p2p_workload::WorkloadSource;
use rand::rngs::SmallRng;

/// The degree cap used throughout the evaluation (paper: 10 → avg ≈ 7.2).
pub const MAX_DEGREE: usize = 10;

/// Which overlay family the scenario starts from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Topology {
    /// The paper's heterogeneous random graph (degree cap
    /// [`MAX_DEGREE`]) — the evaluation's default substrate.
    #[default]
    Heterogeneous,
    /// The Barabási–Albert scale-free overlay of Figs 7/8 (`m = 3`).
    ScaleFree,
}

impl Topology {
    /// Canonical spec name (`heterogeneous` | `scale-free`).
    pub fn key(&self) -> &'static str {
        match self {
            Topology::Heterogeneous => "heterogeneous",
            Topology::ScaleFree => "scale-free",
        }
    }
}

/// A named timeline of churn over an overlay.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name for figure titles; swept/derived scenarios carry
    /// descriptive names like `"growing drop=0.01"`.
    pub name: String,
    /// Nodes at step 0.
    pub initial_size: usize,
    /// Total steps (estimations or rounds).
    pub steps: u64,
    /// `(step, op)` pairs, **sorted by step** (every constructor produces a
    /// sorted schedule; keep it sorted when pushing ops by hand — the
    /// [`ops_at`](Self::ops_at) range lookup relies on it). Multiple ops may
    /// share a step.
    pub schedule: Vec<(u64, ChurnOp)>,
    /// The overlay family built at step 0.
    pub topology: Topology,
    /// The network the protocols run over. [`NetworkModel::ideal`] (the
    /// default of every constructor) reproduces the paper's instantaneous
    /// lossless simulator; anything else only takes effect for protocols
    /// routed message-by-message (`run_scenario_des` with a native
    /// event-driven protocol) — the synchronous adapter executes steps
    /// atomically and cannot feel latency or loss.
    pub network: NetworkModel,
    /// Streamed churn source (a workload model, a model being recorded, or
    /// a trace replay), applied per step *in addition to* the materialized
    /// `schedule`. `None` — every paper scenario — keeps the schedule as
    /// the sole churn source, and the run consumes no workload stream.
    pub workload: Option<WorkloadSource>,
    /// Run the overlay with slot reuse
    /// ([`Graph::enable_slot_reuse`](p2p_overlay::Graph::enable_slot_reuse)):
    /// departures re-let their slots to later arrivals under bumped
    /// generations, bounding memory by the peak population instead of the
    /// cumulative arrival count. Off by default — the historic append-only
    /// ids, which every golden figure pins; the million-node scales turn it
    /// on.
    pub reuse_slots: bool,
}

impl Scenario {
    /// The shared constructor: a named, sorted churn schedule over the
    /// default topology and the ideal network.
    fn from_schedule(
        name: &str,
        initial_size: usize,
        steps: u64,
        schedule: Vec<(u64, ChurnOp)>,
    ) -> Self {
        debug_assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "constructors must hand over sorted schedules"
        );
        Scenario {
            name: name.to_string(),
            initial_size,
            steps,
            schedule,
            topology: Topology::default(),
            network: NetworkModel::ideal(),
            workload: None,
            reuse_slots: false,
        }
    }

    /// A static overlay: no churn at all.
    pub fn static_network(initial_size: usize, steps: u64) -> Self {
        Self::from_schedule("static", initial_size, steps, Vec::new())
    }

    /// Gradual growth by `fraction` of the initial size, spread evenly over
    /// the timeline (paper: +50%, Figs 10/13/16).
    pub fn growing(initial_size: usize, steps: u64, fraction: f64) -> Self {
        let schedule = spread_evenly(initial_size, steps, fraction, true);
        Self::from_schedule("growing", initial_size, steps, schedule)
    }

    /// Gradual shrinkage by `fraction` of the initial size (paper: −50%,
    /// Figs 11/14/17).
    pub fn shrinking(initial_size: usize, steps: u64, fraction: f64) -> Self {
        let schedule = spread_evenly(initial_size, steps, fraction, false);
        Self::from_schedule("shrinking", initial_size, steps, schedule)
    }

    /// Catastrophic failures for the polling algorithms (Figs 9/12): −25% of
    /// the current size at 25% and 50% of the timeline, then a +25%-of-
    /// initial mass arrival at 75% (mirroring Fig 15's recover phase).
    pub fn catastrophic(initial_size: usize, steps: u64) -> Self {
        Self::catastrophe_recover_schedule(
            "catastrophic",
            initial_size,
            steps,
            [steps / 4, steps / 2, 3 * steps / 4],
        )
    }

    /// Fig 15's exact schedule, scaled to the timeline: "100,000 nodes at
    /// beginning, −25% of nodes at round 100 and 500, +25000 nodes at
    /// 700" — event rounds scale with `steps / 10_000`.
    pub fn catastrophic_fig15(initial_size: usize, steps: u64) -> Self {
        let at = |paper_round: u64| paper_round * steps / 10_000;
        Self::catastrophe_recover_schedule(
            "catastrophic-fig15",
            initial_size,
            steps,
            [at(100), at(500), at(700)],
        )
    }

    /// The shared −25% / −25% / +25%-of-initial shape both catastrophic
    /// constructors use, at the given event steps.
    fn catastrophe_recover_schedule(
        name: &str,
        initial_size: usize,
        steps: u64,
        at: [u64; 3],
    ) -> Self {
        let schedule = vec![
            (at[0], ChurnOp::Catastrophe { fraction: 0.25 }),
            (at[1], ChurnOp::Catastrophe { fraction: 0.25 }),
            (
                at[2],
                ChurnOp::Join {
                    count: initial_size / 4,
                    max_degree: MAX_DEGREE,
                },
            ),
        ];
        Self::from_schedule(name, initial_size, steps, schedule)
    }

    /// Same scenario over a different network (latency distribution, drop
    /// probability, per-link heterogeneity, step cadence).
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Same scenario with a streamed churn source (in addition to any
    /// scheduled ops): each step, its ops apply right after the step's
    /// scheduled ops and before the protocol steps.
    pub fn with_workload(mut self, workload: WorkloadSource) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Same scenario under a descriptive name (e.g. a sweep point's
    /// `"catastrophic drop=0.01"`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Same scenario starting from a different overlay family.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Same scenario with bounded-memory slot reuse on the overlay (see
    /// the [`reuse_slots`](Self::reuse_slots) field).
    pub fn with_slot_reuse(mut self) -> Self {
        self.reuse_slots = true;
        self
    }

    /// Builds the initial overlay of the scenario's [`Topology`].
    pub fn build_overlay(&self, rng: &mut SmallRng) -> Graph {
        let mut graph = match self.topology {
            Topology::Heterogeneous => {
                HeterogeneousRandom::new(self.initial_size, MAX_DEGREE).build(rng)
            }
            Topology::ScaleFree => BarabasiAlbert::paper(self.initial_size).build(rng),
        };
        if self.reuse_slots {
            graph.enable_slot_reuse();
        }
        graph
    }

    /// The churn ops due at `step`, in schedule order.
    ///
    /// The schedule is sorted by step (a constructor invariant), so this is
    /// a `partition_point` range lookup rather than a scan of the whole
    /// schedule — a growing/shrinking scenario's schedule has one entry per
    /// timeline step, which made the historic linear filter O(steps) *per
    /// step* (`tests::ops_at_range_lookup_matches_a_linear_scan` keeps that
    /// filter as the oracle).
    pub fn ops_at(&self, step: u64) -> impl Iterator<Item = ChurnOp> + '_ {
        debug_assert!(
            self.schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "schedule must stay sorted by step"
        );
        let lo = self.schedule.partition_point(|&(s, _)| s < step);
        let hi = lo + self.schedule[lo..].partition_point(|&(s, _)| s == step);
        self.schedule[lo..hi].iter().map(|&(_, op)| op)
    }

    /// Expected final size if every *scheduled* op executes (approximate
    /// for catastrophes, which are fractions of the then-current size).
    /// Streamed workload churn is random and not accounted for here.
    pub fn nominal_final_size(&self) -> f64 {
        let mut n = self.initial_size as f64;
        for &(_, op) in &self.schedule {
            match op {
                ChurnOp::Join { count, .. } => n += count as f64,
                ChurnOp::Leave { count } => n -= count as f64,
                ChurnOp::Catastrophe { fraction } => n *= 1.0 - fraction,
            }
        }
        n
    }
}

/// Distributes `fraction · initial` joins or leaves over `steps` steps using
/// cumulative rounding, so the total is exact regardless of divisibility.
fn spread_evenly(initial: usize, steps: u64, fraction: f64, join: bool) -> Vec<(u64, ChurnOp)> {
    assert!(steps > 0, "need at least one step");
    let total = (initial as f64 * fraction).round() as u64;
    let mut out = Vec::new();
    let mut emitted = 0u64;
    for step in 1..=steps {
        let target = total * step / steps;
        let count = (target - emitted) as usize;
        if count > 0 {
            let op = if join {
                ChurnOp::Join {
                    count,
                    max_degree: MAX_DEGREE,
                }
            } else {
                ChurnOp::Leave { count }
            };
            out.push((step, op));
            emitted = target;
        }
    }
    debug_assert_eq!(emitted, total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_sim::rng::small_rng;

    #[test]
    fn static_scenario_has_no_ops() {
        let s = Scenario::static_network(1_000, 100);
        assert!(s.schedule.is_empty());
        assert_eq!(s.nominal_final_size(), 1_000.0);
    }

    #[test]
    fn growing_adds_exactly_the_fraction() {
        let s = Scenario::growing(1_000, 100, 0.5);
        let total: usize = s
            .schedule
            .iter()
            .map(|&(_, op)| match op {
                ChurnOp::Join { count, .. } => count,
                _ => panic!("growing scenario must only join"),
            })
            .sum();
        assert_eq!(total, 500);
        assert_eq!(s.nominal_final_size(), 1_500.0);
    }

    #[test]
    fn shrinking_removes_exactly_the_fraction() {
        let s = Scenario::shrinking(1_000, 77, 0.5);
        let total: usize = s
            .schedule
            .iter()
            .map(|&(_, op)| match op {
                ChurnOp::Leave { count } => count,
                _ => panic!("shrinking scenario must only leave"),
            })
            .sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn catastrophic_timeline_shape() {
        let s = Scenario::catastrophic(10_000, 100);
        assert_eq!(s.schedule.len(), 3);
        assert_eq!(s.schedule[0].0, 25);
        assert_eq!(s.schedule[1].0, 50);
        assert_eq!(s.schedule[2].0, 75);
        // 10000 → 7500 → 5625 → +2500 = 8125
        assert_eq!(s.nominal_final_size(), 8_125.0);
    }

    #[test]
    fn fig15_schedule_scales_with_steps() {
        let s = Scenario::catastrophic_fig15(100_000, 10_000);
        assert_eq!(s.schedule[0].0, 100);
        assert_eq!(s.schedule[1].0, 500);
        assert_eq!(s.schedule[2].0, 700);
        let half = Scenario::catastrophic_fig15(100_000, 5_000);
        assert_eq!(half.schedule[0].0, 50);
        assert_eq!(half.schedule[2].0, 350);
    }

    #[test]
    fn scenario_executes_to_expected_size() {
        let mut rng = small_rng(500);
        let s = Scenario::growing(2_000, 50, 0.5);
        let mut g = s.build_overlay(&mut rng);
        for step in 0..=s.steps {
            for op in s.ops_at(step) {
                op.apply(&mut g, &mut rng);
            }
        }
        assert_eq!(g.alive_count(), 3_000);
        g.check_invariants().unwrap();
    }

    #[test]
    fn ops_at_returns_only_due_ops() {
        let s = Scenario::catastrophic(1_000, 100);
        assert_eq!(s.ops_at(25).count(), 1);
        assert_eq!(s.ops_at(26).count(), 0);
    }

    #[test]
    fn ops_at_range_lookup_matches_a_linear_scan() {
        // Multiple ops on one step, ops at the boundaries, gaps — the
        // partition_point lookup must agree with the historic filter
        // everywhere on the timeline.
        let mut s = Scenario::static_network(1_000, 10);
        s.schedule = vec![
            (0, ChurnOp::Leave { count: 1 }),
            (3, ChurnOp::Leave { count: 2 }),
            (
                3,
                ChurnOp::Join {
                    count: 5,
                    max_degree: MAX_DEGREE,
                },
            ),
            (3, ChurnOp::Leave { count: 3 }),
            (10, ChurnOp::Catastrophe { fraction: 0.5 }),
        ];
        for step in 0..=11 {
            let fast: Vec<ChurnOp> = s.ops_at(step).collect();
            let slow: Vec<ChurnOp> = s
                .schedule
                .iter()
                .filter(|&&(at, _)| at == step)
                .map(|&(_, op)| op)
                .collect();
            assert_eq!(fast, slow, "step {step}");
        }
    }

    #[test]
    fn derived_scenarios_carry_descriptive_names() {
        let s = Scenario::catastrophic(1_000, 100);
        let swept = s.clone().with_name(format!("{} drop=0.01", s.name));
        assert_eq!(swept.name, "catastrophic drop=0.01");
        assert_eq!(swept.schedule, s.schedule);
    }

    #[test]
    fn paper_constructors_carry_no_workload() {
        for s in [
            Scenario::static_network(100, 10),
            Scenario::growing(100, 10, 0.5),
            Scenario::shrinking(100, 10, 0.5),
            Scenario::catastrophic(100, 10),
            Scenario::catastrophic_fig15(100, 10),
        ] {
            assert!(s.workload.is_none(), "{}", s.name);
        }
        let spec = p2p_workload::WorkloadSpec::parse("pareto:mean=20").unwrap();
        let s = Scenario::static_network(100, 10)
            .with_workload(p2p_workload::WorkloadSource::Model(spec.clone()));
        assert_eq!(s.workload.unwrap().spec(), Some(&spec));
    }

    #[test]
    fn scale_free_topology_builds_a_ba_overlay() {
        let mut rng = small_rng(501);
        let s = Scenario::static_network(2_000, 10).with_topology(Topology::ScaleFree);
        let g = s.build_overlay(&mut rng);
        assert_eq!(g.alive_count(), 2_000);
        // BA m=3: minimum degree 3, and a hub far above the heterogeneous
        // overlay's cap of MAX_DEGREE.
        let stats = p2p_overlay::metrics::degree_stats(&g);
        assert!(stats.max > 3 * MAX_DEGREE, "BA hub degree {}", stats.max);
    }
}
