//! The traced pass: one number (at least) for every layer an event, a
//! churn op, a figure or a frame crosses, measured from this crate's own
//! code around public calls.
//!
//! Probes are fixed work, not fixed time, so every count marked *exact* in
//! [`crate::spec::PER_LAYER`] repeats bit-for-bit at a fixed seed. Timings
//! are medians over chunks of that work.

use crate::replay::{self, des_scenario, Outcome};
use crate::spec::{self, Kind, PerLayer, Probe, SIZE};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, ChildRun};
use crate::{host, sys, Paths};
use p2p_estimation::aggregation::AveragingRun;
use p2p_estimation::net_protocol::{AggMsg, ScMsg};
use p2p_estimation::{
    Heuristic, HopsSampling, NodeProtocol, ProtocolSpec, SampleCollide, SizeEstimator,
};
use p2p_experiments::engine::{run_experiment, EngineOptions};
use p2p_experiments::figures::{spec_for, ALL_FIGURES};
use p2p_experiments::runner::{run_scenario_des, run_scenario_des_telemetry, TelemetryOpts};
use p2p_experiments::scenario::MAX_DEGREE;
use p2p_experiments::sink::{CsvSink, ExperimentMeta, FigureSink, JsonLinesSink, ResultSink, Row};
use p2p_experiments::table::table1;
use p2p_experiments::{ExperimentScale, Scenario};
use p2p_node::cluster::{run_cluster, ClusterConfig, Launch};
use p2p_node::wire::{decode_data, encode_data, WirePayload};
use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_overlay::churn::{ChurnDelta, ChurnOp};
use p2p_overlay::{Graph, NodeId};
use p2p_sim::rng::small_rng;
use p2p_sim::shard::{ExchangeGrid, Inbox, Outbox};
use p2p_sim::{
    Engine, MessageCounter, MessageKind, Network, NetworkModel, PayloadPool, RemoteMsg, SimTime,
};
use p2p_telemetry::Registry;
use p2p_workload::{ChurnModel, WorkloadOp, WorkloadSpec};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Steps of the traced replays: shorter than the gated runs, long enough
/// to cross two epoch boundaries (aggregation) or ~50 reporting periods
/// (churn).
const AGG_REPLAY_STEPS: u64 = 100;
const CHURN_REPLAY_STEPS: u64 = 400;
/// The un-gated million-node point: `des-agg-100k`'s command at this size
/// and horizon (the epidemic saturates around round 20, so 30 steps give
/// ten rounds of full-population traffic).
const BIG_SIZE: usize = 1_000_000;
const BIG_STEPS: u64 = 30;

/// State shared by the probes of one traced pass.
pub struct Pass<'a> {
    pub seed: u64,
    pub paths: &'a Paths,
    pub tracer: Tracer,
    /// The probe now running; `put` accepts only its metrics.
    pub running: Probe,
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations (replay comparisons, child runs, output checks, the
    /// cluster run) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Pass<'_> {
    /// Records a metric under its declared name; a name that is undeclared,
    /// or declared under another probe, is a bug in the probe.
    fn put(&mut self, name: &str, value: f64) {
        let declared = spec::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        assert_eq!(
            declared.probe, self.running,
            "{name} is declared under another probe"
        );
        self.metrics.push((declared.name, value));
    }

    fn operation(&mut self, what: &str, ok: bool, detail: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {what}: {detail}");
        }
    }
}

type ProbeFn = fn(&mut Pass<'_>);

/// Every probe of the pass, in the order it runs them. The `repro` children
/// come first, while this process is still a few MB: a child's `ru_maxrss`
/// starts from the high-water mark of the process that spawned it.
pub const PROBES: [(Probe, ProbeFn); 14] = [
    (Probe::Children, children),
    (Probe::Host, |p| {
        let ms = host::calibrate();
        p.put("host.calib_ms", ms);
    }),
    (Probe::Engine, engine),
    (Probe::Pool, pool),
    (Probe::Network, network),
    (Probe::ShardExchange, shard_exchange),
    (Probe::Overlay, overlay_and_sync_estimators),
    (Probe::AggReplay, aggregation_replay),
    (Probe::ChurnReplay, churn_replay),
    (Probe::Polling, polling_dispatch),
    (Probe::Figures, figures),
    (Probe::Sinks, sinks),
    (Probe::Telemetry, telemetry),
    (Probe::Node, node),
];

/// The declared metrics whose names start with `prefix` (all of them
/// without one): what `--layer PREFIX` reports, and through their `probe`
/// fields what it runs.
pub fn metrics_under(prefix: Option<&str>) -> Vec<&'static PerLayer> {
    spec::PER_LAYER
        .iter()
        .filter(|m| prefix.is_none_or(|p| m.name.starts_with(p)))
        .collect()
}

/// Median nanoseconds per operation over `chunks` calls of `f`, each of
/// which performs `ops` operations.
fn median_ns_per_op(chunks: usize, ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..chunks)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples).expect("at least one chunk")
}

const CHUNKS: usize = 15;
const CHUNK_OPS: usize = 100_000;

/// `schedule_in` / `pop_bucket` at a 100k standing queue, delays uniform
/// 20–200 ticks (the WAN profile's range).
fn engine(p: &mut Pass<'_>) {
    let mut rng = small_rng(p.seed);
    let delays: Vec<u64> = (0..1 << 16).map(|_| rng.gen_range(20..=200)).collect();
    let mut next_delay = 0usize;
    let mut delay = || {
        next_delay = (next_delay + 1) & (delays.len() - 1);
        delays[next_delay]
    };
    let mut engine: Engine<u64> = Engine::new();
    for i in 0..CHUNK_OPS as u64 {
        engine.schedule_in(delay(), i);
    }
    let mut out = Vec::new();
    let (mut pop, mut schedule) = (Vec::new(), Vec::new());
    for _ in 0..CHUNKS {
        let (mut popped, mut pop_ns, mut schedule_ns) = (0usize, 0u128, 0u128);
        while popped < CHUNK_OPS {
            let t0 = Instant::now();
            engine.pop_bucket(&mut out, 4096);
            let t1 = Instant::now();
            for &payload in &out {
                engine.schedule_in(delay(), payload);
            }
            schedule_ns += t1.elapsed().as_nanos();
            pop_ns += (t1 - t0).as_nanos();
            popped += out.len();
        }
        pop.push(pop_ns as f64 / popped as f64);
        schedule.push(schedule_ns as f64 / popped as f64);
    }
    black_box(engine.len());
    p.put("sim.engine.schedule_ns", median(&schedule).expect("chunks"));
    p.put("sim.engine.pop_ns", median(&pop).expect("chunks"));
}

/// `insert` + `take` at a 100k-payload plateau (every insert a hit).
fn pool(p: &mut Pass<'_>) {
    let mut pool: PayloadPool<AggMsg> = PayloadPool::new();
    let msg = |i: usize| AggMsg::Push {
        epoch: 1,
        value: i as f64,
    };
    let mut handles: Vec<u32> = (0..CHUNK_OPS).map(|i| pool.insert(msg(i))).collect();
    let ns = median_ns_per_op(CHUNKS, CHUNK_OPS, || {
        for (i, h) in handles.iter_mut().enumerate() {
            black_box(pool.take(*h));
            *h = pool.insert(msg(i));
        }
    });
    p.put("sim.pool.cycle_ns", ns);
}

fn endpoints(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = small_rng(seed);
    (0..CHUNK_OPS)
        .map(|_| (rng.gen_range(0..SIZE as u32), rng.gen_range(0..SIZE as u32)))
        .collect()
}

const PUSH: AggMsg = AggMsg::Push {
    epoch: 1,
    value: 0.5,
};

/// `Network::send` under the ideal and WAN models (latency and link-spread
/// draws, pool insert, wheel insert), `pop_batch` draining WAN traffic, and
/// `route_remote` (the same draws without the local enqueue).
fn network(p: &mut Pass<'_>) {
    let pairs = endpoints(p.seed);
    let mut batch = Vec::new();

    let mut ideal: Network<AggMsg> = Network::new(NetworkModel::ideal(), p.seed);
    let send_ideal = median_ns_per_op(CHUNKS, CHUNK_OPS, || {
        for &(src, dst) in &pairs {
            ideal.send(src, dst, MessageKind::AggregationPush, PUSH);
        }
        // Drained inside the chunk so the queue does not grow; a zero-
        // latency drain is one bucket walk, small beside 100k sends.
        while ideal.pop_batch(&mut batch).is_some() {}
    });
    p.put("sim.network.send_ns.ideal", send_ideal);

    let mut wan: Network<AggMsg> = Network::new(NetworkModel::wan(), p.seed);
    let (mut send, mut pop) = (Vec::new(), Vec::new());
    for _ in 0..CHUNKS {
        let t0 = Instant::now();
        for &(src, dst) in &pairs {
            wan.send(src, dst, MessageKind::AggregationPush, PUSH);
        }
        let t1 = Instant::now();
        while wan.pop_batch(&mut batch).is_some() {
            black_box(batch.len());
        }
        pop.push(t1.elapsed().as_nanos() as f64 / CHUNK_OPS as f64);
        send.push((t1 - t0).as_nanos() as f64 / CHUNK_OPS as f64);
    }
    p.put("sim.network.send_ns.wan", median(&send).expect("chunks"));
    p.put("sim.network.pop_batch_ns", median(&pop).expect("chunks"));

    let route = median_ns_per_op(CHUNKS, CHUNK_OPS, || {
        for &(src, dst) in &pairs {
            black_box(wan.route_remote(src, dst, MessageKind::AggregationPush, PUSH));
        }
    });
    p.put("sim.network.route_remote_ns", route);
}

/// One barrier exchange at K = 2: `Outbox::push` → `ExchangeGrid::collect`
/// → `deliver` → `Inbox::drain`, 100k messages per round.
fn shard_exchange(p: &mut Pass<'_>) {
    const K: usize = 2;
    let mut outboxes: Vec<Outbox<AggMsg>> = (0..K).map(|_| Outbox::new(K)).collect();
    let mut inboxes: Vec<Inbox<AggMsg>> = (0..K).map(|_| Inbox::new(K)).collect();
    let mut grid: ExchangeGrid<AggMsg> = ExchangeGrid::new(K);
    let ns = median_ns_per_op(CHUNKS, CHUNK_OPS, || {
        for i in 0..CHUNK_OPS {
            let src_shard = i % K;
            outboxes[src_shard].push(
                (src_shard + 1) % K,
                RemoteMsg {
                    src: i as u32,
                    dst: i as u32 + 1,
                    at: SimTime(1 + (i % 200) as u64),
                    kind: MessageKind::AggregationPush,
                    msg: PUSH,
                },
            );
        }
        for (s, outbox) in outboxes.iter_mut().enumerate() {
            grid.collect(s, outbox);
        }
        for (d, inbox) in inboxes.iter_mut().enumerate() {
            grid.deliver(d, inbox);
            inbox.drain(|m| {
                black_box(m);
            });
        }
    });
    p.put("sim.shard.exchange_ns", ns);
}

fn build_overlay(n: usize, seed: u64) -> Graph {
    HeterogeneousRandom::new(n, MAX_DEGREE).build(&mut small_rng(seed))
}

/// A random walk of `hops` hops, restarting from a uniform node when it
/// strands on an isolated one (no-repair churn leaves a few).
fn walk_ns(graph: &Graph, hops: usize, seed: u64) -> f64 {
    let mut rng = small_rng(seed);
    let mut at = graph.random_alive(&mut rng).expect("non-empty overlay");
    let start = Instant::now();
    for _ in 0..hops {
        at = match graph.random_neighbor(at, &mut rng) {
            Some(next) => next,
            None => graph.random_alive(&mut rng).expect("non-empty overlay"),
        };
    }
    black_box(at);
    start.elapsed().as_nanos() as f64 / hops as f64
}

/// Overlay construction, CSR reads before and after writes, CSR writes,
/// and the three synchronous estimators on the fresh 100k overlay.
fn overlay_and_sync_estimators(p: &mut Pass<'_>) {
    const WALK_HOPS: usize = 1_000_000;
    const CHURN_ROUNDS: usize = 500;
    const CHURN_BLOCK: usize = 1_000;

    let mut builds = Vec::new();
    let mut graph = build_overlay(SIZE, p.seed);
    for i in 0..3u64 {
        let start = Instant::now();
        graph = build_overlay(SIZE, p.seed + i);
        builds.push(start.elapsed().as_nanos() as f64 / SIZE as f64);
    }
    p.put(
        "overlay.builder.build_ns_per_node.100k",
        median(&builds).expect("three builds"),
    );
    let start = Instant::now();
    black_box(build_overlay(BIG_SIZE, p.seed));
    p.put(
        "overlay.builder.build_ns_per_node.1m",
        start.elapsed().as_nanos() as f64 / BIG_SIZE as f64,
    );
    p.put(
        "overlay.graph.adjacency_bytes_per_node",
        graph.adjacency_bytes() as f64 / graph.alive_count() as f64,
    );
    p.put(
        "overlay.graph.random_neighbor_ns.fresh",
        walk_ns(&graph, WALK_HOPS, p.seed),
    );

    sync_estimators(p, &graph);

    // Writes beside reads: a million node events through the op path the
    // churn workload uses, slot reuse on, then the same walk again.
    graph.enable_slot_reuse();
    let mut rng = small_rng(p.seed ^ 0x0063_6875_726e);
    let mut delta = ChurnDelta::default();
    let mut scratch = Vec::new();
    let leave = WorkloadOp::Churn(ChurnOp::Leave { count: CHURN_BLOCK });
    let join = WorkloadOp::Churn(ChurnOp::Join {
        count: CHURN_BLOCK,
        max_degree: MAX_DEGREE,
    });
    let (mut leaves, mut joins) = (Vec::new(), Vec::new());
    for _ in 0..CHURN_ROUNDS {
        delta.clear();
        let t0 = Instant::now();
        leave.apply_with(&mut graph, &mut rng, &mut delta, &mut scratch);
        let t1 = Instant::now();
        join.apply_with(&mut graph, &mut rng, &mut delta, &mut scratch);
        joins.push(t1.elapsed().as_nanos() as f64 / CHURN_BLOCK as f64);
        leaves.push((t1 - t0).as_nanos() as f64 / CHURN_BLOCK as f64);
    }
    p.put("overlay.graph.join_ns", median(&joins).expect("rounds"));
    p.put("overlay.graph.leave_ns", median(&leaves).expect("rounds"));
    p.put(
        "overlay.graph.random_neighbor_ns.churned",
        walk_ns(&graph, WALK_HOPS, p.seed),
    );
}

fn sync_estimators(p: &mut Pass<'_>, graph: &Graph) {
    fn estimate_ms<E: SizeEstimator>(
        est: &mut E,
        graph: &Graph,
        runs: usize,
        seed: u64,
    ) -> (f64, f64) {
        let mut rng = small_rng(seed);
        let mut msgs = MessageCounter::new();
        let times: Vec<f64> = (0..runs)
            .map(|_| {
                let start = Instant::now();
                black_box(est.estimate(graph, &mut rng, &mut msgs));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        (
            median(&times).expect("runs"),
            msgs.total() as f64 / runs as f64,
        )
    }
    let (ms, msgs) = estimate_ms(&mut SampleCollide::paper(), graph, 7, p.seed);
    p.put("core.sample_collide.estimate_ms", ms);
    p.put("core.sample_collide.msgs_per_estimate", msgs);
    let (ms, msgs) = estimate_ms(&mut HopsSampling::paper(), graph, 15, p.seed);
    p.put("core.hops_sampling.estimate_ms", ms);
    p.put("core.hops_sampling.msgs_per_estimate", msgs);

    let mut rng = small_rng(p.seed);
    let mut msgs = MessageCounter::new();
    let initiator = graph.random_alive(&mut rng).expect("non-empty overlay");
    let mut run = AveragingRun::new(graph, initiator);
    let round = median_ns_per_op(50, graph.alive_count(), || {
        run.run_round(graph, &mut rng, &mut msgs)
    });
    p.put("core.aggregation.round_ns_per_node", round);
}

/// Runs `reference` (an untraced `run_scenario_des`) and the traced replay
/// of the same scenario and seed, and counts the comparison as one
/// operation. Returns the replay (with the reference's wall time in ns)
/// only if it is faithful.
fn faithful_replay<P: NodeProtocol>(
    p: &mut Pass<'_>,
    make: impl Fn() -> P,
    scenario: &Scenario,
    workload: &'static str,
) -> Option<(Outcome, f64)> {
    let start = Instant::now();
    let reference = run_scenario_des(&mut make(), scenario, Heuristic::OneShot, p.seed, "ref");
    let reference_ns = start.elapsed().as_nanos() as f64;
    let outcome = replay::replay(&mut make(), scenario, p.seed, &mut p.tracer, workload);
    let faithful = outcome.matches(&reference);
    p.operation(
        &format!("replay of {workload} under {}", std::any::type_name::<P>()),
        faithful,
        &format!(
            "replay {:?} / {:?} / {} estimates, run_scenario_des {:?} / {:?} / {} estimates; \
             every number derived from this replay is withheld",
            outcome.engine,
            outcome.net,
            outcome.estimates.len(),
            reference.engine,
            reference.net,
            reference.estimates.points.len()
        ),
    );
    faithful.then_some((outcome, reference_ns))
}

fn child_ns(tracer: &Tracer, parent: usize, name: &str) -> u64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .map(|s| s.dur_ns())
        .sum()
}

/// The direct children of `root` called `experiments.runner.step`.
fn step_spans(tracer: &Tracer, root: usize) -> Vec<usize> {
    (0..tracer.spans().len())
        .filter(|&i| {
            tracer.spans()[i].parent == Some(root)
                && tracer.spans()[i].name == "experiments.runner.step"
        })
        .collect()
}

/// The centre of the pass: `des-agg-100k`'s scenario at 100 steps through
/// the benchmark's own loop. The event-core and network counts, the
/// handler and loop timings and the tracing overhead all come from it.
fn aggregation_replay(p: &mut Pass<'_>) {
    const WL: &str = "des-agg-100k";
    let scenario = des_scenario(Kind::DesAgg { shards: 1 }, SIZE, AGG_REPLAY_STEPS);
    let Some((outcome, reference_ns)) = faithful_replay(p, replay::aggregation, &scenario, WL)
    else {
        return;
    };
    let events = outcome.engine.dispatched as f64;
    p.put("sim.engine.events", events);
    p.put("sim.engine.peak_queue", outcome.engine.peak_depth as f64);
    p.put("sim.pool.hit_rate", outcome.engine.pool_hit_rate());
    p.put("sim.network.sent", outcome.net.sent as f64);
    p.put("sim.network.delivered", outcome.net.delivered as f64);
    p.put(
        "core.net_protocol.agg.msgs_per_node_step",
        outcome.net.sent as f64 / (SIZE as f64 * AGG_REPLAY_STEPS as f64),
    );

    let tracer = &p.tracer;
    let steps = step_spans(tracer, outcome.span);
    let sum = |name: &str| -> f64 {
        steps
            .iter()
            .map(|&s| child_ns(tracer, s, name) as f64)
            .sum()
    };
    let dispatch = sum("core.net_protocol.dispatch");
    let on_step = sum("core.net_protocol.on_step");
    let loop_self: f64 = steps.iter().map(|&s| tracer.self_ns(s) as f64).sum();
    let build = child_ns(tracer, outcome.span, "overlay.builder.build") as f64;
    let replay_ns = tracer.spans()[outcome.span].dur_ns() as f64;

    p.put("core.net_protocol.agg.dispatch_ns", dispatch / events);
    p.put(
        "core.net_protocol.agg.on_step_ns_per_node",
        on_step / (SIZE as f64 * AGG_REPLAY_STEPS as f64),
    );
    p.put("experiments.runner.loop_self_ns", loop_self / events);
    // `run_scenario_des` builds its overlay inside the call; the replay
    // timed the identical build as its own span, which is taken out here.
    p.put(
        "experiments.runner.ns_per_event",
        (reference_ns - build) / events,
    );
    p.put(
        "trace.overhead_pct",
        100.0 * (replay_ns - reference_ns) / reference_ns,
    );
}

/// `des-churn-100k`'s scenario at 400 steps: the session model's op
/// generation, the ops applied, and what churn cost the in-flight traffic.
fn churn_replay(p: &mut Pass<'_>) {
    const WL: &str = "des-churn-100k";
    let scenario = des_scenario(Kind::DesChurn, SIZE, CHURN_REPLAY_STEPS);
    let make = || replay::sample_collide("sample-collide:l=10");
    if let Some((outcome, _)) = faithful_replay(p, make, &scenario, WL) {
        let steps = step_spans(&p.tracer, outcome.span);
        let gen: f64 = steps
            .iter()
            .map(|&s| child_ns(&p.tracer, s, "workload.models.ops_at") as f64)
            .sum();
        p.put(
            "workload.models.pareto_gen_ns",
            gen / outcome.churn_events as f64,
        );
        p.put("workload.ops_applied", outcome.churn_events as f64);
        p.put("sim.network.churn_lost", outcome.net.churn_lost as f64);
        p.put("overlay.graph.compactions", outcome.compactions as f64);
    }

    // The rate-based model beside the session model: 1 % of the population
    // joining and leaving per step, op generation timed alone.
    let mut graph = build_overlay(SIZE, p.seed);
    graph.enable_slot_reuse();
    let mut model = WorkloadSpec::parse("steady:join=1000,leave=1000")
        .expect("spec parses")
        .build(MAX_DEGREE);
    let (mut model_rng, mut apply_rng) = (small_rng(p.seed), small_rng(p.seed + 1));
    model.on_init(&graph, &mut model_rng);
    let (mut ops, mut delta, mut scratch) = (Vec::new(), ChurnDelta::default(), Vec::new());
    let (mut gen_ns, mut events) = (0u128, 0usize);
    for step in 1..=100 {
        ops.clear();
        let start = Instant::now();
        model.ops_at(step, &graph, &mut model_rng, &mut ops);
        gen_ns += start.elapsed().as_nanos();
        delta.clear();
        for op in &ops {
            op.apply_with(&mut graph, &mut apply_rng, &mut delta, &mut scratch);
        }
        model.observe(step, &delta, &mut model_rng);
        events += delta.joined.len() + delta.left.len();
    }
    p.put(
        "workload.models.steady_gen_ns",
        gen_ns as f64 / events as f64,
    );
}

/// The two polling classes' handlers: paper-default Sample&Collide and
/// HopsSampling on a static 100k overlay over the ideal network, where
/// every estimation completes inside its step.
fn polling_dispatch(p: &mut Pass<'_>) {
    fn dispatch_ns<P: NodeProtocol>(
        p: &mut Pass<'_>,
        make: impl Fn() -> P,
        steps: u64,
    ) -> Option<f64> {
        let scenario = Scenario::static_network(SIZE, steps);
        let (outcome, _) = faithful_replay(p, make, &scenario, "figures-small")?;
        let tracer = &p.tracer;
        let ns: u64 = step_spans(tracer, outcome.span)
            .iter()
            .map(|&s| child_ns(tracer, s, "core.net_protocol.dispatch"))
            .sum();
        Some(ns as f64 / outcome.engine.dispatched as f64)
    }
    if let Some(ns) = dispatch_ns(p, || replay::sample_collide("sample-collide"), 4) {
        p.put("core.net_protocol.sc.dispatch_ns", ns);
    }
    if let Some(ns) = dispatch_ns(p, replay::hops_sampling, 10) {
        p.put("core.net_protocol.hs.dispatch_ns", ns);
    }
}

/// `figures-small` in-process: one span per figure and one for Table I,
/// each run the way `repro run --all --scale small --jobs 2` runs it.
fn figures(p: &mut Pass<'_>) {
    const WL: &str = "figures-small";
    let scale = ExperimentScale::small();
    let opts = EngineOptions {
        jobs: Some(2),
        ..EngineOptions::default()
    };
    let cpu0 = sys::self_cpu_seconds();
    let root = p.tracer.begin("experiments.engine.all", WL);
    for n in ALL_FIGURES {
        let spec = spec_for(n, &scale).expect("registered figure");
        let id = p.tracer.begin("experiments.engine.figure", WL);
        let mut sink = FigureSink::new();
        run_experiment(&spec, p.seed, &opts, &mut sink);
        black_box(sink.into_figure());
        let ns = p.tracer.end(id);
        p.put(&format!("experiments.engine.fig{n:02}_s"), ns as f64 / 1e9);
    }
    let id = p.tracer.begin("experiments.table.table1", WL);
    black_box(table1(scale.large, 20, p.seed));
    let ns = p.tracer.end(id);
    p.put("experiments.engine.table1_s", ns as f64 / 1e9);
    let wall = p.tracer.end(root) as f64 / 1e9;
    let cpu = sys::self_cpu_seconds() - cpu0;
    p.put("sim.parallel.efficiency", cpu / (wall * 2.0));
}

/// One row through each streaming sink, written to a discarding writer.
fn sinks(p: &mut Pass<'_>) {
    fn row_ns(sink: &mut dyn ResultSink) -> f64 {
        sink.begin(&ExperimentMeta {
            id: "custom".to_string(),
            title: "sink probe".to_string(),
            x_label: "Step".to_string(),
            y_label: "Estimated size".to_string(),
        });
        const ROWS: usize = 20_000;
        median_ns_per_op(CHUNKS, ROWS, || {
            for i in 0..ROWS {
                sink.row(&Row {
                    series: "Estimation #1",
                    x: i as f64,
                    y: 99_637.473_651_680_95 + i as f64,
                });
            }
        })
    }
    let csv = row_ns(&mut CsvSink::new(std::io::sink()));
    p.put("experiments.sink.csv_row_ns", csv);
    let jsonl = row_ns(&mut JsonLinesSink::new(std::io::sink()));
    p.put("experiments.sink.jsonl_row_ns", jsonl);
}

/// The metric layer's own cost, and what capturing it every step costs a
/// DES run (the BENCH_7 number: CPU time with capture on vs off, three
/// order-alternating pairs).
fn telemetry(p: &mut Pass<'_>) {
    // The runner's registry: 33 counters, 14 gauges, one histogram.
    let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
    let mut reg = Registry::new();
    let counters: Vec<_> = (0..33)
        .map(|i| reg.counter(leak(format!("probe.c{i}"))))
        .collect();
    for i in 0..14 {
        let g = reg.gauge(leak(format!("probe.g{i}")));
        reg.gauge_set(g, i);
    }
    let hist = reg.histogram("probe.h");
    let record = median_ns_per_op(CHUNKS, CHUNK_OPS, || {
        for i in 0..CHUNK_OPS {
            reg.counter_add(counters[i % counters.len()], 1);
            reg.hist_observe(hist, i as u64);
        }
    });
    p.put("telemetry.record_ns", record);
    let snapshot = median_ns_per_op(CHUNKS, 1_000, || {
        for tick in 0..1_000 {
            black_box(reg.snapshot(tick).to_jsonl());
        }
    });
    p.put("telemetry.snapshot_us", snapshot / 1e3);

    let scenario = des_scenario(Kind::DesAgg { shards: 1 }, SIZE / 5, 60);
    let cpu = |capture: bool| {
        let opts = capture.then_some(TelemetryOpts { every: 1, eps: 0.1 });
        let start = sys::self_cpu_seconds();
        black_box(run_scenario_des_telemetry(
            &mut replay::aggregation(),
            &scenario,
            Heuristic::OneShot,
            p.seed,
            "probe",
            opts,
        ));
        sys::self_cpu_seconds() - start
    };
    let overheads: Vec<f64> = [false, true, false]
        .into_iter()
        .map(|capture_first| {
            let first = cpu(capture_first);
            let second = cpu(!capture_first);
            let (on, off) = if capture_first {
                (first, second)
            } else {
                (second, first)
            };
            100.0 * (on - off) / off
        })
        .collect();
    p.put(
        "telemetry.overhead_pct",
        median(&overheads).expect("three pairs"),
    );
}

struct NullSink;

impl ResultSink for NullSink {
    fn row(&mut self, _row: &Row<'_>) {}
}

/// The wire format's encode/decode, and the first measurement of the real
/// socket path: one in-process loopback cluster, 2 shards, 2 000 nodes.
fn node(p: &mut Pass<'_>) {
    fn codec<M: WirePayload>(msg: &M) -> (f64, f64, usize) {
        let mut frame = Vec::new();
        let encode = median_ns_per_op(CHUNKS, CHUNK_OPS, || {
            for i in 0..CHUNK_OPS as u32 {
                encode_data(NodeId(i), NodeId(i + 1), msg, &mut frame);
            }
        });
        let decode = median_ns_per_op(CHUNKS, CHUNK_OPS, || {
            for _ in 0..CHUNK_OPS {
                black_box(decode_data::<M>(&frame).expect("own frame decodes"));
            }
        });
        (encode, decode, frame.len())
    }
    let (encode, decode, bytes) = codec(&PUSH);
    p.put("node.wire.encode_ns.agg", encode);
    p.put("node.wire.decode_ns.agg", decode);
    p.put("node.wire.frame_bytes.agg", bytes as f64);
    let (encode, decode, _) = codec(&ScMsg::Walk {
        run: 7,
        home: NodeId(11),
        t: 6.5,
    });
    p.put("node.wire.encode_ns.sc", encode);
    p.put("node.wire.decode_ns.sc", decode);

    let mut cfg = ClusterConfig::new(
        2_000,
        2,
        ProtocolSpec::parse("aggregation:rounds=30").expect("spec parses"),
    );
    cfg.steps = 40;
    cfg.seed = p.seed;
    let step_ms = cfg.network.step_ticks;
    let cpu0 = sys::self_cpu_seconds();
    let start = Instant::now();
    let report = p
        .tracer
        .span("node.cluster.run_cluster", "node-cluster", || {
            run_cluster(&cfg, &Launch::InProcess, &mut NullSink)
        });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let cpu_us = (sys::self_cpu_seconds() - cpu0) * 1e6;
    let (sent, received) = match &report {
        Ok(r) => (
            r.node_stats.iter().map(|s| s.sent).sum::<u64>(),
            r.node_stats.iter().map(|s| s.received).sum::<u64>(),
        ),
        Err(_) => (0, 0),
    };
    p.operation(
        "loopback cluster run",
        matches!(&report, Ok(r) if r.unclean_exits == 0) && sent > 0,
        &format!("{report:?}"),
    );
    if sent > 0 {
        p.put("node.cluster.cpu_us_per_frame", cpu_us / sent as f64);
        p.put("node.cluster.frames_sent", sent as f64);
        p.put(
            "node.cluster.frame_loss_ratio",
            1.0 - received as f64 / sent as f64,
        );
        p.put(
            "node.cluster.pace_lag_ms",
            wall_ms - (cfg.steps * step_ms) as f64,
        );
    }
}

/// Fresh `repro` children: the sharded decision-gate ratios (the two
/// aggregation workloads' own commands, once each) and the un-gated
/// million-node point.
fn children(p: &mut Pass<'_>) {
    let run = |p: &mut Pass<'_>, name: &'static str, args: &[String]| -> Option<ChildRun> {
        let id = p.tracer.begin("repro.child", name);
        let run =
            workloads::run_child(&p.paths.repro, args, &p.paths.root, &p.paths.child_stderr());
        p.tracer.end(id);
        let ok = matches!(&run, Ok(r) if r.exit_ok);
        p.operation(
            &format!("child run for {name}"),
            ok,
            &format!("{:?}", run.as_ref().err()),
        );
        run.ok().filter(|r| r.exit_ok)
    };
    let events = |r: &ChildRun| -> Option<f64> {
        let rows = workloads::jsonl_rows(&r.stdout).ok()?;
        workloads::event(&rows, "run_stats")?
            .get("events")?
            .as_f64()
    };
    let figs = p.paths.out.join("figs");
    let mut pair = Vec::new();
    for name in ["des-agg-100k", "sharded-agg-100k-k2"] {
        let w = spec::workload(name).expect("declared workload");
        let Some(r) = run(p, w.name, &w.repro_args(p.seed, &figs)) else {
            continue;
        };
        for c in w.check_output(&r, &figs) {
            p.operation(&format!("{name}: {}", c.name), c.ok, &c.detail);
        }
        pair.push(r);
    }
    if let [k1, k2] = pair.as_slice() {
        // Base: the sequential run. 2.0 would be a perfect two-shard split.
        p.put("experiments.sharded.speedup_k2", k1.wall_s / k2.wall_s);
        p.put("experiments.sharded.cpu_ratio_k2", k2.cpu_s / k1.cpu_s);
        if let (Some(e1), Some(e2)) = (events(k1), events(k2)) {
            p.put("experiments.sharded.event_ratio_k2", e2 / e1);
        }
    }

    let agg = spec::workload("des-agg-100k").expect("declared workload");
    let mut args = agg.repro_args(p.seed, &figs);
    for (flag, value) in [
        ("--size", BIG_SIZE.to_string()),
        ("--steps", BIG_STEPS.to_string()),
    ] {
        let at = args.iter().position(|a| a == flag).expect("flag present");
        args[at + 1] = value;
    }
    if let Some(r) = run(p, "des-agg-1m", &args) {
        p.put(
            "experiments.runner.ns_per_node_step.1m",
            r.wall_s * 1e9 / (BIG_SIZE as f64 * BIG_STEPS as f64),
        );
        p.put("experiments.runner.rss_mb.1m", r.peak_rss_mb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_prefixes_select_metrics_and_through_them_probes() {
        let probes = |prefix: &str| {
            let mut probes: Vec<Probe> = metrics_under(Some(prefix))
                .iter()
                .map(|m| m.probe)
                .collect();
            probes.dedup();
            probes
        };
        // A whole layer: the probe and the replay that carries its counts.
        assert_eq!(probes("sim.engine"), [Probe::Engine, Probe::AggReplay]);
        // One metric.
        assert_eq!(probes("sim.engine.pop_ns"), [Probe::Engine]);
        assert_eq!(probes("node.wire.encode_ns.agg"), [Probe::Node]);
        assert!(probes("no.such.layer").is_empty());
        assert_eq!(metrics_under(None).len(), spec::PER_LAYER.len());
        // Every probe a metric names is one the pass runs.
        for m in spec::PER_LAYER {
            assert!(PROBES.iter().any(|(probe, _)| *probe == m.probe));
        }
    }

    #[test]
    fn median_ns_per_op_divides_by_the_op_count() {
        let ns = median_ns_per_op(3, 1_000, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!((2_000.0..20_000.0).contains(&ns), "{ns}");
    }
}
