//! The benchmark's own copy of the sequential scenario loop, driven over
//! the public API with spans around each layer it calls.
//!
//! `run_scenario_des` is one opaque call from outside its crate, so to see
//! *inside* it the traced pass replays the same scenario through
//! [`Network::pop_batch`] → [`dispatch`] → [`Cx::new`] itself. A replay is
//! only evidence if it is the same run: [`Outcome::matches`] compares its
//! event-core stats, network stats and estimate series with
//! `run_scenario_des` for the same seed, and every number derived from an
//! unfaithful replay is withheld.

use crate::spec::{Kind, Workload, AGG_STEPS, CHURN_SPEC, CHURN_STEPS, SIZE};
use crate::trace::Tracer;
use p2p_estimation::net_protocol::{dispatch, Cx};
use p2p_estimation::{AsyncProtocol, NodeProtocol, ProtocolSpec, StepOutcome};
use p2p_experiments::runner::{Trace, WORKLOAD_SEED_STREAM};
use p2p_experiments::scenario::MAX_DEGREE;
use p2p_experiments::spec::{NetworkSpec, ScenarioSpec};
use p2p_experiments::Scenario;
use p2p_overlay::churn::ChurnDelta;
use p2p_overlay::{Graph, NodeId};
use p2p_sim::network::NetEvent;
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::{EngineStats, NetStats, Network, SimTime};
use p2p_workload::{ChurnModel, WorkloadOp, WorkloadSource, WorkloadSpec};
use rand::rngs::SmallRng;

/// `runner.rs`'s step-control tag bit and network seed stream. Both are
/// private there; if either drifts the replay stops matching and says so.
const STEP_TAG: u64 = 1 << 63;
const NET_SEED_STREAM: u64 = 0x006E_6574_776F_726B;

/// The scenario a DES workload's `repro` command resolves to, at `steps`
/// steps (the traced pass replays shorter horizons than the gated runs).
pub fn des_scenario(kind: Kind, size: usize, steps: u64) -> Scenario {
    let network = NetworkSpec::parse("wan").expect("wan parses").0;
    let scenario = ScenarioSpec::parse("static")
        .expect("static parses")
        .resolve(size, steps)
        .with_network(network);
    match kind {
        Kind::DesAgg { .. } => scenario,
        Kind::DesChurn => {
            let churn = WorkloadSpec::parse(CHURN_SPEC).expect("churn spec parses");
            scenario
                .with_slot_reuse()
                .with_workload(WorkloadSource::Model(churn))
        }
        Kind::Figures => panic!("figures-small is not a single scenario"),
    }
}

pub fn aggregation() -> p2p_estimation::net_protocol::AsyncAggregation {
    match ProtocolSpec::parse("aggregation:rounds=50")
        .expect("spec parses")
        .build_async()
    {
        AsyncProtocol::Aggregation(p) => p,
        _ => unreachable!("aggregation spec builds the aggregation protocol"),
    }
}

pub fn sample_collide(spec: &str) -> p2p_estimation::net_protocol::AsyncSampleCollide {
    match ProtocolSpec::parse(spec)
        .expect("spec parses")
        .build_async()
    {
        AsyncProtocol::SampleCollide(p) => p,
        _ => unreachable!("sample-collide spec builds the sample-collide protocol"),
    }
}

pub fn hops_sampling() -> p2p_estimation::net_protocol::AsyncHopsSampling {
    match ProtocolSpec::hops_sampling_paper().build_async() {
        AsyncProtocol::HopsSampling(p) => p,
        _ => unreachable!("hops-sampling spec builds the hops-sampling protocol"),
    }
}

/// The streamed-churn half of the loop (`runner.rs`'s private
/// `WorkloadRuntime`, for a model source).
struct ChurnRuntime {
    model: Box<dyn ChurnModel>,
    rng: SmallRng,
    ops: Vec<WorkloadOp>,
    delta: ChurnDelta,
    scratch: Vec<NodeId>,
}

impl ChurnRuntime {
    fn new(source: &WorkloadSource, seed: u64) -> Self {
        let spec = source
            .spec()
            .expect("the benchmark replays model workloads only");
        ChurnRuntime {
            model: spec.build(MAX_DEGREE),
            rng: small_rng(derive_seed(seed, WORKLOAD_SEED_STREAM)),
            ops: Vec::new(),
            delta: ChurnDelta::default(),
            scratch: Vec::new(),
        }
    }

    /// One step of churn: generate → apply → observe. Returns the node
    /// events (joins + departures) applied.
    fn step(
        &mut self,
        step: u64,
        graph: &mut Graph,
        apply_rng: &mut SmallRng,
        tracer: &mut Tracer,
        workload: &'static str,
    ) -> u64 {
        self.ops.clear();
        tracer.span("workload.models.ops_at", workload, || {
            self.model.ops_at(step, graph, &mut self.rng, &mut self.ops)
        });
        self.delta.clear();
        tracer.span("workload.op.apply_with", workload, || {
            for op in &self.ops {
                op.apply_with(graph, apply_rng, &mut self.delta, &mut self.scratch);
            }
        });
        tracer.span("workload.models.observe", workload, || {
            self.model.observe(step, &self.delta, &mut self.rng)
        });
        (self.delta.joined.len() + self.delta.left.len()) as u64
    }
}

/// What a replay produced, in the shape `run_scenario_des`'s [`Trace`] can
/// be compared with.
pub struct Outcome {
    pub estimates: Vec<(f64, f64)>,
    pub real_size: Vec<(f64, f64)>,
    pub net: NetStats,
    pub engine: EngineStats,
    /// Node events (joins + departures) the streamed churn applied.
    pub churn_events: u64,
    pub compactions: u64,
    /// The replay's root span.
    pub span: usize,
}

impl Outcome {
    /// Whether this replay is the run `reference` is: same event-core
    /// stats, same network stats, same estimate and ground-truth series.
    pub fn matches(&self, reference: &Trace) -> bool {
        self.engine == reference.engine
            && self.net == reference.net
            && self.estimates == reference.estimates.points
            && self.real_size == reference.real_size.points
    }
}

/// Time accumulated over the many short calls of one step, laid down as
/// one span per kind when the step ends.
#[derive(Default)]
struct StepAccumulator {
    pop_ns: u64,
    dispatch_ns: u64,
}

impl StepAccumulator {
    fn flush(&mut self, tracer: &mut Tracer, workload: &'static str, step_span: usize) {
        let start = tracer.spans()[step_span].start_ns;
        tracer.add_aggregate("sim.network.pop_batch", workload, start, self.pop_ns);
        tracer.add_aggregate(
            "core.net_protocol.dispatch",
            workload,
            start + self.pop_ns,
            self.dispatch_ns,
        );
        *self = StepAccumulator::default();
    }
}

/// Replays `scenario` under `protocol` exactly as `run_scenario_des` runs
/// it (one-shot heuristic, no telemetry, no scheduled ops), recording one
/// `experiments.runner.step` span per step with its `pop_batch`,
/// `dispatch`, `on_step` and churn children.
pub fn replay<P: NodeProtocol>(
    protocol: &mut P,
    scenario: &Scenario,
    seed: u64,
    tracer: &mut Tracer,
    workload: &'static str,
) -> Outcome {
    assert!(
        scenario.schedule.is_empty(),
        "the replay covers streamed churn only; both DES workloads are static scenarios"
    );
    let root = tracer.begin("experiments.runner.replay", workload);
    let mut rng = small_rng(seed);
    let mut graph = tracer.span("overlay.builder.build", workload, || {
        scenario.build_overlay(&mut rng)
    });
    let step_ticks = scenario.network.step_ticks;
    let mut net: Network<P::Msg> =
        Network::new(scenario.network, derive_seed(seed, NET_SEED_STREAM));
    let mut churn = scenario
        .workload
        .as_ref()
        .map(|source| ChurnRuntime::new(source, seed));
    if let Some(c) = churn.as_mut() {
        tracer.span("workload.models.on_init", workload, || {
            c.model.on_init(&graph, &mut c.rng)
        });
    }
    for step in 1..=scenario.steps {
        net.schedule_control_at(SimTime(step * step_ticks), STEP_TAG | step);
    }
    let mut reports: Vec<StepOutcome> = Vec::new();
    {
        let mut cx = Cx::new(&graph, &mut net, &mut rng, &mut reports);
        protocol.on_init(&mut cx);
    }

    let mut estimates = Vec::new();
    let mut real_size = Vec::new();
    let mut churn_events = 0u64;
    let mut current_step = 0u64;
    let mut acc = StepAccumulator::default();
    let mut step_span = tracer.begin("experiments.runner.step", workload);
    let mut batch: Vec<NetEvent<P::Msg>> = Vec::new();
    loop {
        let t0 = tracer.now_ns();
        let popped = net.pop_batch(&mut batch);
        acc.pop_ns += tracer.now_ns() - t0;
        if popped.is_none() {
            break;
        }
        // Handler time is taken over each contiguous run of message events,
        // not per event: two clock reads per event would cost as much as
        // the handler they time.
        let mut run_start = tracer.now_ns();
        for event in batch.drain(..) {
            match event {
                NetEvent::Control { tag } => {
                    assert!(tag & STEP_TAG != 0, "no scheduled ops in a replay");
                    acc.dispatch_ns += tracer.now_ns() - run_start;
                    acc.flush(tracer, workload, step_span);
                    tracer.end(step_span);
                    step_span = tracer.begin("experiments.runner.step", workload);
                    current_step = tag & !STEP_TAG;
                    if let Some(c) = churn.as_mut() {
                        churn_events +=
                            c.step(current_step, &mut graph, &mut rng, tracer, workload);
                    }
                    tracer.span("core.net_protocol.on_step", workload, || {
                        let mut cx = Cx::new(&graph, &mut net, &mut rng, &mut reports);
                        protocol.on_step(current_step, &mut cx);
                    });
                    run_start = tracer.now_ns();
                }
                other => dispatch(protocol, other, &graph, &mut net, &mut rng, &mut reports),
            }
            for outcome in reports.drain(..) {
                let x = current_step.max(1) as f64;
                if let Some(raw) = outcome.estimate() {
                    estimates.push((x, raw));
                }
                if outcome.is_report() {
                    real_size.push((x, graph.alive_count() as f64));
                }
            }
        }
        acc.dispatch_ns += tracer.now_ns() - run_start;
    }
    acc.flush(tracer, workload, step_span);
    tracer.end(step_span);
    tracer.end(root);
    Outcome {
        estimates,
        real_size,
        net: *net.stats(),
        engine: net.engine_stats(),
        churn_events,
        compactions: graph.compactions(),
        span: root,
    }
}

/// One call of a workload's set-up path, as `setup_s` times it. For the
/// DES workloads: overlay build, network, protocol and (under churn) the
/// session model's initial lifetimes, at the workload's size. For
/// `figures-small`: one build of every distinct (topology, size) overlay
/// the small scale's figures and Table I start from.
pub fn setup_once(workload: &Workload, seed: u64) {
    let mut rng = small_rng(seed);
    match workload.kind {
        Kind::DesAgg { .. } => {
            let scenario = des_scenario(workload.kind, SIZE, AGG_STEPS);
            setup_des(&mut aggregation(), &scenario, seed, &mut rng);
        }
        Kind::DesChurn => {
            let scenario = des_scenario(workload.kind, SIZE, CHURN_STEPS);
            setup_des(
                &mut sample_collide("sample-collide:l=10"),
                &scenario,
                seed,
                &mut rng,
            );
        }
        Kind::Figures => {
            for scenario in figure_overlays() {
                std::hint::black_box(scenario.build_overlay(&mut rng));
            }
        }
    }
}

fn setup_des<P: NodeProtocol>(
    protocol: &mut P,
    scenario: &Scenario,
    seed: u64,
    rng: &mut SmallRng,
) {
    let graph = scenario.build_overlay(rng);
    let mut net: Network<P::Msg> =
        Network::new(scenario.network, derive_seed(seed, NET_SEED_STREAM));
    if let Some(source) = scenario.workload.as_ref() {
        let mut churn = ChurnRuntime::new(source, seed);
        churn.model.on_init(&graph, &mut churn.rng);
        std::hint::black_box(&churn.model);
    }
    let mut reports = Vec::new();
    protocol.on_init(&mut Cx::new(&graph, &mut net, rng, &mut reports));
    std::hint::black_box((&graph, &net, &reports));
}

/// One static scenario per distinct (topology, size) among the small
/// scale's registered figures, plus Table I's overlay.
fn figure_overlays() -> Vec<Scenario> {
    use p2p_experiments::figures::{spec_for, ALL_FIGURES};
    let scale = p2p_experiments::ExperimentScale::small();
    let mut seen = vec![(p2p_experiments::Topology::Heterogeneous, scale.large)];
    for n in ALL_FIGURES {
        let spec = spec_for(n, &scale).expect("registered figure");
        let overrides = spec
            .protocols
            .iter()
            .filter_map(|p| p.scenario_override.as_ref());
        for s in std::iter::once(&spec.scenario).chain(overrides) {
            if !seen.contains(&(s.topology, s.initial_size)) {
                seen.push((s.topology, s.initial_size));
            }
        }
    }
    seen.into_iter()
        .map(|(topology, size)| Scenario::static_network(size, 1).with_topology(topology))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_estimation::Heuristic;
    use p2p_experiments::runner::run_scenario_des;

    #[test]
    fn aggregation_replay_is_the_run_run_scenario_des_makes() {
        let scenario = des_scenario(Kind::DesAgg { shards: 1 }, 2_000, 110);
        let mut tracer = Tracer::new();
        let got = replay(
            &mut aggregation(),
            &scenario,
            41,
            &mut tracer,
            "des-agg-100k",
        );
        let want = run_scenario_des(&mut aggregation(), &scenario, Heuristic::OneShot, 41, "ref");
        assert_eq!(got.estimates.len(), 2, "epochs close at steps 51 and 101");
        assert!(got.engine.dispatched > 100_000);
        assert!(got.matches(&want));
        // A different seed is a different run: the comparison can fail.
        let other = run_scenario_des(&mut aggregation(), &scenario, Heuristic::OneShot, 42, "ref");
        assert!(!got.matches(&other));
    }

    #[test]
    fn churn_replay_is_the_run_run_scenario_des_makes() {
        let scenario = des_scenario(Kind::DesChurn, 2_000, 120);
        let mut tracer = Tracer::new();
        let mut p = sample_collide("sample-collide:l=10");
        let got = replay(&mut p, &scenario, 43, &mut tracer, "des-churn-100k");
        let mut q = sample_collide("sample-collide:l=10");
        let want = run_scenario_des(&mut q, &scenario, Heuristic::OneShot, 43, "ref");
        assert!(
            got.churn_events > 2_000,
            "≈2 % of 2000 nodes replaced per step"
        );
        assert!(!got.real_size.is_empty());
        assert!(got.matches(&want));
    }

    #[test]
    fn polling_replays_are_the_runs_run_scenario_des_makes() {
        fn faithful<P: NodeProtocol>(make: impl Fn() -> P, steps: u64) -> bool {
            let scenario = Scenario::static_network(2_000, steps);
            let got = replay(
                &mut make(),
                &scenario,
                45,
                &mut Tracer::new(),
                "figures-small",
            );
            let want = run_scenario_des(&mut make(), &scenario, Heuristic::OneShot, 45, "ref");
            !got.estimates.is_empty() && got.matches(&want)
        }
        assert!(faithful(|| sample_collide("sample-collide"), 4));
        assert!(faithful(hops_sampling, 10));
    }

    #[test]
    fn replay_spans_nest_under_steps_and_cover_the_loop() {
        let scenario = des_scenario(Kind::DesChurn, 1_000, 20);
        let mut tracer = Tracer::new();
        let mut p = sample_collide("sample-collide:l=10");
        let got = replay(&mut p, &scenario, 44, &mut tracer, "des-churn-100k");
        let spans = tracer.spans();
        let steps: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "experiments.runner.step")
            .collect();
        // One span before the first step control, then one per step.
        assert_eq!(steps.len(), 21);
        assert!(steps.iter().all(|&i| spans[i].parent == Some(got.span)));
        for name in ["workload.models.ops_at", "core.net_protocol.on_step"] {
            let n = spans.iter().filter(|s| s.name == name).count();
            assert_eq!(n, 20, "{name}");
        }
        assert!(spans
            .iter()
            .filter(|s| s.name == "sim.network.pop_batch")
            .all(|s| s.parent.is_some_and(|p| steps.contains(&p))));
        // Children never cover more than their step.
        assert!(steps
            .iter()
            .all(|&i| tracer.self_ns(i) <= spans[i].dur_ns()));
    }

    #[test]
    fn figure_overlays_are_distinct_and_include_table1s() {
        let overlays = figure_overlays();
        let keys: Vec<_> = overlays
            .iter()
            .map(|s| (s.topology, s.initial_size))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(key), "{key:?} built twice");
        }
        assert!(keys.contains(&(p2p_experiments::Topology::Heterogeneous, 10_000)));
        assert!(keys.contains(&(p2p_experiments::Topology::ScaleFree, 10_000)));
        assert!(keys.len() >= 4);
    }
}
