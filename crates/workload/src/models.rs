//! The concrete churn models.
//!
//! * [`SteadyModel`] — Poisson arrivals/departures per step, the paper's
//!   "constant nodes arrivals and departures".
//! * [`SessionModel`] — heavy-tailed per-node session lengths
//!   (Pareto/Weibull), the IPFS-measurement-style workload: every node gets
//!   a lifetime at join, and a calendar of per-step expiry buckets streams
//!   the expiries out as targeted departures.
//! * [`DiurnalModel`] — sine-modulated Poisson rates (day/night cycles).
//! * [`FlashCrowd`] — a mass arrival at one step, optionally leaving again
//!   as a cohort after a hold period.
//! * [`RegionalFailure`] — a correlated failure: one region (nodes sharing
//!   `id mod regions`) fails together at a scheduled step.

use crate::dist::{poisson, LifetimeDist};
use crate::{ChurnModel, WorkloadOp};
use p2p_overlay::churn::{ChurnDelta, ChurnOp};
use p2p_overlay::{Graph, NodeId};
use p2p_sim::time::ceil_to_u64;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::f64::consts::TAU;

/// Poisson join/leave at constant expected rates.
#[derive(Clone, Copy, Debug)]
pub struct SteadyModel {
    /// Expected joins per step.
    pub arrival_rate: f64,
    /// Expected departures per step.
    pub departure_rate: f64,
    /// Degree cap for newly wired nodes.
    pub max_degree: usize,
}

/// Emits the step's Poisson joins/leaves (joins drawn first — the draw
/// order is part of the workload stream contract).
fn poisson_step(
    arrival: f64,
    departure: f64,
    max_degree: usize,
    rng: &mut SmallRng,
    out: &mut Vec<WorkloadOp>,
) {
    let joins = poisson(rng, arrival);
    let leaves = poisson(rng, departure);
    if joins > 0 {
        out.push(WorkloadOp::Churn(ChurnOp::Join {
            count: joins,
            max_degree,
        }));
    }
    if leaves > 0 {
        out.push(WorkloadOp::Churn(ChurnOp::Leave { count: leaves }));
    }
}

impl ChurnModel for SteadyModel {
    fn ops_at(
        &mut self,
        _step: u64,
        _graph: &Graph,
        rng: &mut SmallRng,
        out: &mut Vec<WorkloadOp>,
    ) {
        poisson_step(
            self.arrival_rate,
            self.departure_rate,
            self.max_degree,
            rng,
            out,
        );
    }
}

/// Sine-modulated Poisson churn: rates swing around their base by
/// `amplitude` over a `period`-step cycle, modelling diurnal activity.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalModel {
    /// Base expected joins per step.
    pub arrival_rate: f64,
    /// Base expected departures per step.
    pub departure_rate: f64,
    /// Steps per full day/night cycle.
    pub period: u64,
    /// Swing fraction in `[0, 1]`: rate × (1 + amplitude·sin).
    pub amplitude: f64,
    /// Phase offset in radians.
    pub phase: f64,
    /// Degree cap for newly wired nodes.
    pub max_degree: usize,
}

impl DiurnalModel {
    /// The rate multiplier at `step` (always ≥ 0 for amplitude ≤ 1).
    pub fn modulation(&self, step: u64) -> f64 {
        1.0 + self.amplitude * (TAU * step as f64 / self.period as f64 + self.phase).sin()
    }
}

impl ChurnModel for DiurnalModel {
    fn ops_at(&mut self, step: u64, _graph: &Graph, rng: &mut SmallRng, out: &mut Vec<WorkloadOp>) {
        let m = self.modulation(step);
        poisson_step(
            self.arrival_rate * m,
            self.departure_rate * m,
            self.max_degree,
            rng,
            out,
        );
    }
}

/// Heavy-tailed per-node sessions: every node draws a lifetime from
/// [`LifetimeDist`] when it appears (initial population included) and
/// departs — as a *targeted* op — when it expires. Arrivals are Poisson at
/// `arrival_rate`, defaulting to `initial population / mean lifetime` so
/// the expected size stays balanced.
///
/// State is one calendar entry per alive session — O(alive), never
/// O(steps): sessions are bucketed by the step they end, so a step's
/// departures are one bucket taken whole.
#[derive(Clone, Debug)]
pub struct SessionModel {
    /// The session-length distribution.
    pub dist: LifetimeDist,
    /// Expected joins per step; `None` balances departures at `on_init`.
    pub arrival_rate: Option<f64>,
    /// Degree cap for newly wired nodes.
    pub max_degree: usize,
    /// Resolved arrival rate (set at `on_init`).
    rate: f64,
    /// Expiry calendar: expiry step → the raw ids of the sessions that end
    /// then, in admission order.
    expiries: BTreeMap<u64, Vec<u32>>,
}

impl SessionModel {
    /// A model with the given distribution and arrival policy.
    pub fn new(dist: LifetimeDist, arrival_rate: Option<f64>, max_degree: usize) -> Self {
        SessionModel {
            dist,
            arrival_rate,
            max_degree,
            rate: 0.0,
            expiries: BTreeMap::new(),
        }
    }

    /// Sessions currently tracked (alive nodes plus not-yet-expired entries
    /// for nodes something else removed).
    pub fn tracked(&self) -> usize {
        self.expiries.values().map(Vec::len).sum()
    }

    fn admit(&mut self, node: NodeId, now: u64, rng: &mut SmallRng) {
        // Lifetimes round up to at least one full step.
        let life = ceil_to_u64(self.dist.sample(rng)).max(1);
        self.expiries.entry(now + life).or_default().push(node.0);
    }
}

impl ChurnModel for SessionModel {
    fn on_init(&mut self, graph: &Graph, rng: &mut SmallRng) {
        self.rate = self
            .arrival_rate
            .unwrap_or(graph.alive_count() as f64 / self.dist.mean());
        for node in graph.alive_nodes() {
            self.admit(node, 0, rng);
        }
    }

    fn ops_at(&mut self, step: u64, graph: &Graph, rng: &mut SmallRng, out: &mut Vec<WorkloadOp>) {
        let joins = poisson(rng, self.rate);
        if joins > 0 {
            out.push(WorkloadOp::Churn(ChurnOp::Join {
                count: joins,
                max_degree: self.max_degree,
            }));
        }
        let mut expired = Vec::new();
        while let Some(bucket) = self.expiries.first_entry() {
            if *bucket.key() > step {
                break;
            }
            let mut ids = bucket.remove();
            // Departures leave in `(expiry step, raw id)` order — buckets by
            // key, then ids ascending with their generation bits. Nodes
            // another workload (or a scheduled catastrophe) already removed
            // just fall out of the calendar.
            ids.sort_unstable();
            expired.extend(
                ids.into_iter()
                    .map(NodeId)
                    .filter(|&node| graph.is_alive(node)),
            );
        }
        if !expired.is_empty() {
            out.push(WorkloadOp::LeaveNodes(expired));
        }
    }

    fn observe(&mut self, step: u64, delta: &ChurnDelta, rng: &mut SmallRng) {
        // Our own arrivals begin their sessions.
        for &node in &delta.joined {
            self.admit(node, step, rng);
        }
    }

    fn observe_external(&mut self, step: u64, delta: &ChurnDelta, rng: &mut SmallRng) {
        // Scheduled arrivals (a `growing` schedule under this workload)
        // live sessions too — otherwise they would be immortal and the
        // population would ratchet past any equilibrium.
        for &node in &delta.joined {
            self.admit(node, step, rng);
        }
    }
}

/// A flash crowd: `fraction` of the then-current population joins at step
/// `at`; with a `hold`, the same cohort departs together `hold` steps later
/// (the "event audience leaves when the stream ends" shape).
#[derive(Clone, Debug)]
pub struct FlashCrowd {
    /// Arrival step.
    pub at: u64,
    /// Crowd size as a fraction of the population at `at`.
    pub fraction: f64,
    /// Steps until the cohort departs (`None`: it stays).
    pub hold: Option<u64>,
    /// Degree cap for newly wired nodes.
    pub max_degree: usize,
    /// Crowd size decided at `at`.
    join_count: usize,
    /// The cohort's identities (captured from the applied delta).
    cohort: Vec<NodeId>,
}

impl FlashCrowd {
    /// A crowd arriving at `at`. `hold`, when given, must be ≥ 1: the
    /// cohort's identities are only known after the join applies
    /// (`observe`), so a same-step departure could never fire.
    pub fn new(at: u64, fraction: f64, hold: Option<u64>, max_degree: usize) -> Self {
        assert_ne!(hold, Some(0), "flash crowd hold must be ≥ 1");
        FlashCrowd {
            at,
            fraction,
            hold,
            max_degree,
            join_count: 0,
            cohort: Vec::new(),
        }
    }
}

impl ChurnModel for FlashCrowd {
    fn ops_at(&mut self, step: u64, graph: &Graph, _rng: &mut SmallRng, out: &mut Vec<WorkloadOp>) {
        if step == self.at {
            self.join_count = (graph.alive_count() as f64 * self.fraction).round() as usize;
            if self.join_count > 0 {
                out.push(WorkloadOp::Churn(ChurnOp::Join {
                    count: self.join_count,
                    max_degree: self.max_degree,
                }));
            }
        }
        if let Some(hold) = self.hold {
            if step == self.at + hold && !self.cohort.is_empty() {
                let alive: Vec<NodeId> = self
                    .cohort
                    .drain(..)
                    .filter(|&n| graph.is_alive(n))
                    .collect();
                if !alive.is_empty() {
                    out.push(WorkloadOp::LeaveNodes(alive));
                }
            }
        }
    }

    fn observe(&mut self, step: u64, delta: &ChurnDelta, _rng: &mut SmallRng) {
        if step == self.at && self.hold.is_some() {
            // `delta.joined` is exactly this model's arrivals (the
            // composite segments joiners per sub-model), i.e. the crowd.
            debug_assert_eq!(delta.joined.len(), self.join_count);
            self.cohort = delta.joined.to_vec();
        }
    }
}

/// A correlated regional failure: the overlay is striped into `regions` by
/// `node id mod regions` (stable under growth), and at step `at` one
/// region — drawn from the workload stream — loses `fraction` of its alive
/// members simultaneously.
#[derive(Clone, Copy, Debug)]
pub struct RegionalFailure {
    /// Failure step.
    pub at: u64,
    /// Number of id-striped regions.
    pub regions: u32,
    /// Fraction of the failing region's members that die.
    pub fraction: f64,
}

impl ChurnModel for RegionalFailure {
    fn ops_at(&mut self, step: u64, graph: &Graph, rng: &mut SmallRng, out: &mut Vec<WorkloadOp>) {
        if step != self.at {
            return;
        }
        let region = rng.gen_range(0..self.regions);
        let mut members: Vec<NodeId> = graph
            .alive_nodes()
            .filter(|n| n.0 % self.regions == region)
            .collect();
        let k = (members.len() as f64 * self.fraction).round() as usize;
        if k < members.len() {
            // A *uniform* k-subset of the region (partial Fisher–Yates),
            // not the lowest-id prefix — otherwise a partial failure would
            // deterministically spare every recent joiner. Full-region
            // failures (k == len) draw nothing beyond the region choice.
            for i in 0..k {
                let j = rng.gen_range(i..members.len());
                members.swap(i, j);
            }
            members.truncate(k);
        }
        if !members.is_empty() {
            out.push(WorkloadOp::LeaveNodes(members));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_sim::rng::small_rng;

    /// Drives `model` for `steps`, applying everything, and returns the
    /// final graph.
    fn drive(model: &mut dyn ChurnModel, n: usize, steps: u64, seed: u64) -> Graph {
        let mut apply_rng = small_rng(seed);
        let mut wl_rng = small_rng(seed ^ 0x5eed);
        let mut g = HeterogeneousRandom::paper(n).build(&mut apply_rng);
        model.on_init(&g, &mut wl_rng);
        let mut ops = Vec::new();
        let mut delta = ChurnDelta::default();
        for step in 1..=steps {
            ops.clear();
            model.ops_at(step, &g, &mut wl_rng, &mut ops);
            delta.clear();
            for op in &ops {
                op.apply(&mut g, &mut apply_rng, &mut delta);
            }
            model.observe(step, &delta, &mut wl_rng);
        }
        g.check_invariants().unwrap();
        g
    }

    #[test]
    fn steady_model_drifts_with_rate_gap() {
        let mut m = SteadyModel {
            arrival_rate: 3.0,
            departure_rate: 1.0,
            max_degree: 10,
        };
        let g = drive(&mut m, 1_000, 300, 21);
        let n = g.alive_count() as i64;
        // Expected +2/step over 300 steps; allow Poisson slack.
        assert!((1_400..=1_800).contains(&n), "population {n}");
    }

    #[test]
    fn session_model_balances_population_and_targets_departures() {
        let mut m = SessionModel::new(
            LifetimeDist::Pareto {
                alpha: 2.0,
                mean: 30.0,
            },
            None,
            10,
        );
        let g = drive(&mut m, 2_000, 200, 22);
        let n = g.alive_count();
        // Balanced arrivals keep the expected size near the start (full
        // lifetimes for the initial population give a mild early dip).
        assert!((1_400..=2_600).contains(&n), "population {n}");
        assert!(m.tracked() >= n, "every alive node holds a session entry");
    }

    /// `SessionModel` as it stood on a binary heap of `(expiry, raw id)`,
    /// kept as the oracle for the calendar: departures in heap order, the
    /// same draws from the workload stream.
    struct HeapSessions {
        dist: LifetimeDist,
        rate: f64,
        expiries: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
    }

    impl HeapSessions {
        fn admit(&mut self, node: NodeId, now: u64, rng: &mut SmallRng) {
            let life = self.dist.sample(rng).ceil().max(1.0) as u64;
            self.expiries.push(std::cmp::Reverse((now + life, node.0)));
        }

        fn ops_at(&mut self, step: u64, graph: &Graph, rng: &mut SmallRng) -> Vec<WorkloadOp> {
            let mut out = Vec::new();
            let joins = poisson(rng, self.rate);
            if joins > 0 {
                out.push(WorkloadOp::Churn(ChurnOp::Join {
                    count: joins,
                    max_degree: 10,
                }));
            }
            let mut expired = Vec::new();
            while let Some(&std::cmp::Reverse((at, id))) = self.expiries.peek() {
                if at > step {
                    break;
                }
                self.expiries.pop();
                if graph.is_alive(NodeId(id)) {
                    expired.push(NodeId(id));
                }
            }
            if !expired.is_empty() {
                out.push(WorkloadOp::LeaveNodes(expired));
            }
            out
        }
    }

    #[test]
    fn session_calendar_matches_the_heap_oracle() {
        use rand::seq::SliceRandom;
        use rand::RngCore;

        for seed in 0..8u64 {
            // Short sessions over a small population: many expiries share a
            // step, and re-let slots soon carry generation bits.
            let dist = LifetimeDist::Pareto {
                alpha: 1.5,
                mean: 4.0,
            };
            let mut calendar = SessionModel::new(dist, Some(3.0), 10);
            let mut heap = HeapSessions {
                dist,
                rate: 3.0,
                expiries: Default::default(),
            };
            let mut g = Graph::with_nodes(64);
            g.enable_slot_reuse();
            let mut driver = small_rng(seed);
            let (mut cal_rng, mut heap_rng) = (small_rng(seed ^ 0x5eed), small_rng(seed ^ 0x5eed));
            calendar.on_init(&g, &mut cal_rng);
            for node in g.alive_nodes() {
                heap.admit(node, 0, &mut heap_rng);
            }
            let mut step = 0;
            let mut generations = 0;
            for _ in 0..400 {
                // Skipped steps: every bucket at or before `step` is due.
                step += driver.gen_range(1..=3u64);
                let mut ops = Vec::new();
                calendar.ops_at(step, &g, &mut cal_rng, &mut ops);
                assert_eq!(
                    ops,
                    heap.ops_at(step, &g, &mut heap_rng),
                    "seed {seed}, step {step}"
                );
                assert_eq!(
                    cal_rng.clone().next_u64(),
                    heap_rng.clone().next_u64(),
                    "seed {seed}, step {step}: workload streams diverged"
                );
                for op in &ops {
                    if let WorkloadOp::LeaveNodes(nodes) = op {
                        for &n in nodes {
                            g.remove_node(n);
                        }
                    }
                }
                // Removed behind the model's back: still tracked, never
                // emitted.
                for _ in 0..driver.gen_range(0..3usize) {
                    if let Some(v) = g.random_alive(&mut driver) {
                        g.remove_node(v);
                    }
                }
                // Arrivals re-let freed slots; admitted out of id order.
                let mut delta = ChurnDelta::default();
                for _ in 0..driver.gen_range(0..8usize) {
                    delta.joined.push(g.add_node());
                }
                delta.joined.shuffle(&mut driver);
                generations += delta.joined.iter().filter(|n| n.generation() > 0).count();
                calendar.observe(step, &delta, &mut cal_rng);
                for &n in &delta.joined {
                    heap.admit(n, step, &mut heap_rng);
                }
                assert_eq!(calendar.tracked(), heap.expiries.len());
            }
            assert!(generations > 0, "seed {seed}: no id carried a generation");
        }
    }

    #[test]
    fn session_model_turns_over_the_population() {
        // Heavy churn: with mean lifetime ≪ timeline most of the original
        // population must be gone by the end.
        let mut m = SessionModel::new(
            LifetimeDist::Weibull {
                shape: 0.7,
                mean: 10.0,
            },
            None,
            10,
        );
        let g = drive(&mut m, 500, 100, 23);
        let survivors = (0..500u32).filter(|&i| g.is_alive(NodeId(i))).count();
        assert!(survivors < 100, "original survivors {survivors}");
        assert!(g.alive_count() > 150, "population collapsed");
    }

    #[test]
    fn diurnal_modulation_cycles() {
        let m = DiurnalModel {
            arrival_rate: 2.0,
            departure_rate: 2.0,
            period: 24,
            amplitude: 0.8,
            phase: 0.0,
            max_degree: 10,
        };
        assert!((m.modulation(0) - 1.0).abs() < 1e-9);
        assert!((m.modulation(6) - 1.8).abs() < 1e-9); // quarter period: peak
        assert!((m.modulation(18) - 0.2).abs() < 1e-9); // trough stays ≥ 0
        assert!((m.modulation(24) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flash_crowd_joins_then_leaves_as_a_cohort() {
        let mut m = FlashCrowd::new(5, 0.5, Some(10), 10);
        let mut apply_rng = small_rng(24);
        let mut wl_rng = small_rng(25);
        let mut g = HeterogeneousRandom::paper(400).build(&mut apply_rng);
        let mut ops = Vec::new();
        let mut delta = ChurnDelta::default();
        let mut sizes = Vec::new();
        for step in 1..=20 {
            ops.clear();
            m.ops_at(step, &g, &mut wl_rng, &mut ops);
            delta.clear();
            for op in &ops {
                op.apply(&mut g, &mut apply_rng, &mut delta);
            }
            m.observe(step, &delta, &mut wl_rng);
            sizes.push(g.alive_count());
        }
        assert_eq!(sizes[3], 400); // before the crowd
        assert_eq!(sizes[4], 600); // +50% at step 5
        assert_eq!(sizes[13], 600); // held through step 14
        assert_eq!(sizes[14], 400); // cohort gone at step 15
        g.check_invariants().unwrap();
    }

    #[test]
    fn flash_cohort_is_its_own_joiners_in_any_composition_order() {
        use crate::model::CompositeModel;

        // Composed with a join-producing model on either side, the crowd
        // that departs at `at + hold` must be exactly the nodes the flash
        // op wired — never the co-model's arrivals.
        for flash_first in [true, false] {
            let flash = FlashCrowd::new(5, 0.5, Some(10), 10);
            let steady = SteadyModel {
                arrival_rate: 3.0,
                departure_rate: 0.0,
                max_degree: 10,
            };
            let mut composite = if flash_first {
                CompositeModel::new(vec![Box::new(flash), Box::new(steady)])
            } else {
                CompositeModel::new(vec![Box::new(steady), Box::new(flash)])
            };
            let mut apply_rng = small_rng(27);
            let mut wl_rng = small_rng(28);
            let mut g = HeterogeneousRandom::paper(400).build(&mut apply_rng);
            composite.on_init(&g, &mut wl_rng);
            let mut ops = Vec::new();
            let mut delta = ChurnDelta::default();
            let mut crowd_slots: Vec<NodeId> = Vec::new();
            for step in 1..=20u64 {
                ops.clear();
                composite.ops_at(step, &g, &mut wl_rng, &mut ops);
                if step == 5 {
                    // Reconstruct which slots the flash join will occupy:
                    // slots are handed out in op order from num_slots().
                    let mut next = g.num_slots() as u32;
                    for op in &ops {
                        if let WorkloadOp::Churn(ChurnOp::Join { count, .. }) = op {
                            let slots: Vec<NodeId> =
                                (next..next + *count as u32).map(NodeId).collect();
                            // The flash join is the big one (~200 vs ~3).
                            if *count >= 100 {
                                crowd_slots = slots;
                            }
                            next += *count as u32;
                        }
                    }
                    assert!(!crowd_slots.is_empty(), "flash join emitted");
                }
                if step == 15 {
                    let evicted = ops
                        .iter()
                        .find_map(|op| match op {
                            WorkloadOp::LeaveNodes(nodes) => Some(nodes.clone()),
                            _ => None,
                        })
                        .expect("cohort departure emitted");
                    assert_eq!(
                        evicted, crowd_slots,
                        "flash_first={flash_first}: cohort must be the flash joiners"
                    );
                }
                delta.clear();
                for op in &ops {
                    op.apply(&mut g, &mut apply_rng, &mut delta);
                }
                composite.observe(step, &delta, &mut wl_rng);
            }
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn regional_partial_failure_is_not_the_id_prefix() {
        let mut m = RegionalFailure {
            at: 1,
            regions: 4,
            fraction: 0.5,
        };
        let g = drive(&mut m, 400, 2, 29);
        let dead: Vec<u32> = (0..400u32).filter(|&i| !g.is_alive(NodeId(i))).collect();
        assert_eq!(dead.len(), 50, "half of one 100-node stripe");
        let region = dead[0] % 4;
        assert!(dead.iter().all(|d| d % 4 == region), "one stripe only");
        // A uniform 50-subset of the stripe is (astronomically) unlikely to
        // be its lowest-id prefix — the old deterministic truncation.
        let prefix: Vec<u32> = (0..400u32).filter(|i| i % 4 == region).take(50).collect();
        assert_ne!(dead, prefix, "subset must be sampled, not truncated");
    }

    #[test]
    fn regional_failure_kills_one_stripe() {
        let mut m = RegionalFailure {
            at: 3,
            regions: 8,
            fraction: 1.0,
        };
        let g = drive(&mut m, 800, 5, 26);
        // Exactly one of the 8 stripes is empty; the others are intact.
        let mut empty = 0;
        for r in 0..8u32 {
            let alive = (0..800u32)
                .filter(|i| i % 8 == r && g.is_alive(NodeId(*i)))
                .count();
            if alive == 0 {
                empty += 1;
            } else {
                assert_eq!(alive, 100, "region {r} partially dead");
            }
        }
        assert_eq!(empty, 1);
        assert_eq!(g.alive_count(), 700);
    }
}
