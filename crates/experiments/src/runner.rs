//! Scenario execution: interleaving churn with estimation on the DES.
//!
//! One generic message-level driver, [`run_scenario_des`], runs *any*
//! [`NodeProtocol`] over a [`Scenario`]: the protocol's step grid is the
//! only kind of control event on the scenario's [`p2p_sim::Network`], whose
//! model injects latency, per-link heterogeneity and loss between the
//! protocol's messages; churn lands at the step boundaries. The events are
//! popped and dispatched by the one drive loop ([`ShardCore::run_until`]);
//! this module is its sequential [`Host`] plus the run-level half
//! (`ScenarioRun`) it shares with the sharded driver. The round-driven
//! forms — one-shot estimators wrapped in [`SyncStep`](p2p_estimation::SyncStep),
//! epoched Aggregation as itself — run through the same entry point: they
//! execute each step atomically and send nothing, so their traces are
//! bit-for-bit those of the historic round-driven loop (the golden-trace
//! tests pin this).
//!
//! Timeline contract, identical for every class:
//!
//! * protocol steps execute at ticks `step × step_ticks` for steps
//!   `1..=scenario.steps`;
//! * a churn op scheduled at step `s` executes at the start of step `s`,
//!   *before* that step's `on_step` (ops at step 0 at the start of step 1),
//!   and **every** scheduled op executes — a schedule entry past the final
//!   step fails the run at its start;
//! * a streamed [`WorkloadSource`] (model, recording, or trace replay) is
//!   asked for its ops at each step and applies them right after the
//!   step's scheduled ops, still before `on_step`; model draws consume a
//!   dedicated stream derived from the run seed, op application the main
//!   stream — so a recorded trace replays the run bit for bit without the
//!   model;
//! * a message delivered to a node that departed while it was in flight is
//!   counted as a churn loss and reaches no handler; a dropped message is
//!   counted at send time and never queued — protocols notice either by
//!   timeout;
//! * after the final step the queue drains: in-flight estimations may still
//!   complete, recorded at the final step's x position;
//! * estimates and the ground-truth size are recorded at the steps where
//!   the protocol closes a reporting period.
//!
//! [`run_replications_des`] fans independent replications out over worker
//! threads with per-replication derived seeds, so figure/table sweeps use
//! every core while staying bit-reproducible.

use crate::scenario::{Scenario, MAX_DEGREE};
use p2p_estimation::aggregation::AveragingRun;
use p2p_estimation::{Heuristic, Host, NodeProtocol, ShardCore, Smoother, StepOutcome};
use p2p_overlay::churn::ChurnDelta;
use p2p_overlay::Graph;
use p2p_sim::parallel::{default_threads, map_replications};
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::{EngineStats, MessageCounter, MessageKind, NetStats, Network, SimTime};
use p2p_stats::{Series, SlidingWindow};
use p2p_telemetry::{CounterId, GaugeId, HistId, Log2Histogram, Registry, Snapshot};
use p2p_workload::trace::{schedule_digest, TraceHeader, TraceWriter};
use p2p_workload::{ChurnModel, TraceModel, WorkloadOp, WorkloadSource};
use rand::rngs::SmallRng;
use std::fs::File;
use std::io::BufWriter;

/// What one scenario run produced.
#[derive(Clone, Debug)]
pub struct Trace {
    /// `(step, reported estimate)` after the heuristic.
    pub estimates: Series,
    /// `(step, true alive count)` at the same reporting instants.
    pub real_size: Series,
    /// All traffic charged during the run.
    pub messages: MessageCounter,
    /// Reporting periods that produced an estimate (≤ scheduled reporting
    /// instants; a protocol can fail on a shattered overlay, time out under
    /// latency, or lose its state to a dropped message).
    pub completed: usize,
    /// Network accounting: sent/delivered/dropped/churn-lost messages. All
    /// zero for the round-driven forms, which do not route their traffic
    /// message-by-message.
    pub net: NetStats,
    /// Event-core accounting for the run: events dispatched, peak queue
    /// depth, and the wheel's chunk-pool hit/alloc counters (hit
    /// rate ≈ 1 ⇔ zero steady-state allocations per send).
    pub engine: EngineStats,
}

/// Telemetry capture options for one DES run (`repro run --metrics`).
#[derive(Clone, Copy, Debug)]
pub struct TelemetryOpts {
    /// Steps between interval snapshots (≥ 1).
    pub every: u64,
    /// Convergence band half-width: time-to-ε is the first step whose
    /// windowed median estimate lies within `truth × (1 ± eps)`.
    pub eps: f64,
}

impl Default for TelemetryOpts {
    fn default() -> Self {
        TelemetryOpts { every: 1, eps: 0.1 }
    }
}

/// Online time-to-ε: the first instant the windowed median of reported
/// estimates lies within `truth × (1 ± eps)`. The DES latches the step, the
/// loopback cluster's coordinator the wall millisecond.
#[derive(Clone, Debug)]
pub struct ConvergenceLatch {
    eps: f64,
    window: SlidingWindow,
    reached_at: Option<u64>,
}

impl ConvergenceLatch {
    /// Estimates the median runs over — the paper's last-10-runs smoothing
    /// horizon.
    const WINDOW: usize = 10;

    /// A latch for the ±`eps` band, not yet reached.
    pub fn new(eps: f64) -> Self {
        ConvergenceLatch {
            eps,
            window: SlidingWindow::new(Self::WINDOW),
            reached_at: None,
        }
    }

    /// An estimate reported at `at` while the true size was `truth`: feed
    /// the window and latch `at` (at least 1) the first time the windowed
    /// median enters the band.
    pub fn observe(&mut self, estimate: f64, truth: f64, at: u64) {
        self.window.push(estimate);
        if self.reached_at.is_none() && truth > 0.0 {
            let median = self.window.median();
            if (median - truth).abs() <= self.eps * truth {
                self.reached_at = Some(at.max(1));
            }
        }
    }

    /// Estimates currently in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The latched instant, once the band was reached.
    pub fn reached_at(&self) -> Option<u64> {
        self.reached_at
    }
}

/// Per-kind metric keys under one prefix, indexed like
/// [`MessageKind::ALL`] (suffixes are the kinds' `Display` names). Static
/// so the registry interns without allocating.
macro_rules! by_kind {
    ($prefix:literal) => {
        [
            concat!($prefix, ".walk-step"),
            concat!($prefix, ".sample-reply"),
            concat!($prefix, ".gossip-forward"),
            concat!($prefix, ".poll-reply"),
            concat!($prefix, ".aggregation-push"),
            concat!($prefix, ".aggregation-pull"),
            concat!($prefix, ".control"),
        ]
    };
}

/// Per-kind send counters. Public (with [`IN_FLIGHT_BY_KIND`]) because the
/// cluster runtime (`p2p-node`) samples its shards under the same keys,
/// which is what makes DES-side and cluster-side metrics files directly
/// comparable.
pub const SENT_BY_KIND: [&str; 7] = by_kind!("net.sent");
const DELIVERED_BY_KIND: [&str; 7] = by_kind!("net.delivered");
const DROPPED_BY_KIND: [&str; 7] = by_kind!("net.dropped");
/// Per-kind in-flight gauges ([`in_flight_by_kind`]).
pub const IN_FLIGHT_BY_KIND: [&str; 7] = by_kind!("net.in_flight");

/// Messages of each kind still in flight on `net`, indexed like
/// [`MessageKind::ALL`]: `sent − (delivered + dropped)`. Churn losses
/// reclassify an already-counted delivery, so this is exactly the
/// population in flight (per core: a cross-shard message is sent on one
/// core and delivered on another).
pub fn in_flight_by_kind<M>(net: &Network<M>) -> [u64; 7] {
    let (sent, delivered, dropped) = (
        net.counter(),
        net.delivered_by_kind(),
        net.dropped_by_kind(),
    );
    MessageKind::ALL.map(|k| {
        sent.get(k)
            .saturating_sub(delivered.get(k) + dropped.get(k))
    })
}

/// One run's telemetry capture: the registry, the convergence latch, and
/// the collected interval snapshots. Metrics are *sampled* at snapshot
/// boundaries from accounting the engine/network/overlay already keep —
/// the only per-event-path observation is the batch-size histogram each
/// driver's [`Host::batch`] keeps per core — which is what keeps golden
/// figure outputs byte-identical and the overhead within the ruler's
/// `telemetry.overhead_pct` budget. One session serves any number of event
/// cores: their accounting is summed in shard-index order at sampling time.
struct TelemetrySession {
    opts: TelemetryOpts,
    reg: Registry,
    c_dispatched: CounterId,
    c_pool_hits: CounterId,
    c_pool_allocs: CounterId,
    c_sent: CounterId,
    c_delivered: CounterId,
    c_dropped: CounterId,
    c_churn_lost: CounterId,
    c_sent_kind: [CounterId; 7],
    c_delivered_kind: [CounterId; 7],
    c_dropped_kind: [CounterId; 7],
    c_arrivals: CounterId,
    c_departures: CounterId,
    c_slots_reused: CounterId,
    c_compactions: CounterId,
    c_reports: CounterId,
    g_peak_depth: GaugeId,
    g_pending: GaugeId,
    g_in_flight_kind: [GaugeId; 7],
    g_alive: GaugeId,
    g_arena_bytes: GaugeId,
    g_window_len: GaugeId,
    g_eps_reached: GaugeId,
    g_time_to_eps: GaugeId,
    h_batch_len: HistId,
    conv: ConvergenceLatch,
    reports_seen: u64,
    series: String,
    snapshots: Vec<Snapshot>,
}

impl TelemetrySession {
    fn new(opts: TelemetryOpts, series: String) -> Self {
        assert!(opts.every >= 1, "snapshot interval must be ≥ 1 step");
        let mut reg = Registry::new();
        TelemetrySession {
            c_dispatched: reg.counter("engine.dispatched"),
            c_pool_hits: reg.counter("engine.pool_hits"),
            c_pool_allocs: reg.counter("engine.pool_allocs"),
            c_sent: reg.counter("net.sent"),
            c_delivered: reg.counter("net.delivered"),
            c_dropped: reg.counter("net.dropped"),
            c_churn_lost: reg.counter("net.churn_lost"),
            c_sent_kind: SENT_BY_KIND.map(|n| reg.counter(n)),
            c_delivered_kind: DELIVERED_BY_KIND.map(|n| reg.counter(n)),
            c_dropped_kind: DROPPED_BY_KIND.map(|n| reg.counter(n)),
            c_arrivals: reg.counter("overlay.arrivals"),
            c_departures: reg.counter("overlay.departures"),
            c_slots_reused: reg.counter("overlay.slots_reused"),
            c_compactions: reg.counter("overlay.compactions"),
            c_reports: reg.counter("proto.reports"),
            g_peak_depth: reg.gauge("engine.peak_depth"),
            g_pending: reg.gauge("net.pending"),
            g_in_flight_kind: IN_FLIGHT_BY_KIND.map(|n| reg.gauge(n)),
            g_alive: reg.gauge("overlay.alive"),
            g_arena_bytes: reg.gauge("overlay.arena_bytes"),
            g_window_len: reg.gauge("conv.window_len"),
            g_eps_reached: reg.gauge("conv.eps_reached"),
            g_time_to_eps: reg.gauge("conv.time_to_eps_step"),
            h_batch_len: reg.histogram("engine.batch_len"),
            reg,
            opts,
            conv: ConvergenceLatch::new(opts.eps),
            reports_seen: 0,
            series,
            snapshots: Vec::new(),
        }
    }

    /// A reporting period closed with raw estimate `raw` while the true
    /// size was `truth`: feed the convergence latch.
    fn on_report(&mut self, raw: f64, truth: f64, step: u64) {
        self.reports_seen += 1;
        self.conv.observe(raw, truth, step);
        let reg = &mut self.reg;
        reg.gauge_set(self.g_window_len, self.conv.window_len() as u64);
        if let Some(at) = self.conv.reached_at() {
            reg.gauge_set(self.g_eps_reached, 1);
            reg.gauge_set(self.g_time_to_eps, at);
        }
    }

    /// Takes one snapshot at step `tick`, sampling every metric source the
    /// run already maintains: the overlay, and every event core's
    /// engine/network accounting and batch-size histogram, summed in the
    /// given (shard-index) order.
    fn sample<'a, M: 'a>(
        &mut self,
        tick: u64,
        graph: &Graph,
        cores: impl IntoIterator<Item = (&'a Network<M>, &'a Log2Histogram)>,
    ) {
        let mut es = EngineStats::default();
        let mut ns = NetStats::default();
        let mut sent = MessageCounter::new();
        let mut delivered = MessageCounter::new();
        let mut dropped = MessageCounter::new();
        let mut in_flight = [0u64; 7];
        let mut pending = 0;
        let mut batch_lens = Log2Histogram::default();
        for (net, lens) in cores {
            es.merge_from(&net.engine_stats());
            ns.merge_from(net.stats());
            sent.merge(net.counter());
            delivered.merge(net.delivered_by_kind());
            dropped.merge(net.dropped_by_kind());
            for (gauge, n) in in_flight.iter_mut().zip(in_flight_by_kind(net)) {
                *gauge += n;
            }
            pending += net.pending() as u64;
            batch_lens.merge(lens);
        }
        let reg = &mut self.reg;
        reg.counter_set_total(self.c_dispatched, es.dispatched);
        reg.counter_set_total(self.c_pool_hits, es.pool_hits);
        reg.counter_set_total(self.c_pool_allocs, es.pool_allocs);
        reg.counter_set_total(self.c_sent, ns.sent);
        reg.counter_set_total(self.c_delivered, ns.delivered);
        reg.counter_set_total(self.c_dropped, ns.dropped);
        reg.counter_set_total(self.c_churn_lost, ns.churn_lost);
        for (slot, kind) in MessageKind::ALL.into_iter().enumerate() {
            reg.counter_set_total(self.c_sent_kind[slot], sent.get(kind));
            reg.counter_set_total(self.c_delivered_kind[slot], delivered.get(kind));
            reg.counter_set_total(self.c_dropped_kind[slot], dropped.get(kind));
            reg.gauge_set(self.g_in_flight_kind[slot], in_flight[slot]);
        }
        reg.gauge_set(self.g_peak_depth, es.peak_depth as u64);
        reg.gauge_set(self.g_pending, pending);
        reg.hist_set(self.h_batch_len, batch_lens);

        let arrivals = graph.num_slots() as u64 + graph.slots_reused();
        let alive = graph.alive_count() as u64;
        reg.counter_set_total(self.c_arrivals, arrivals);
        reg.counter_set_total(self.c_departures, arrivals.saturating_sub(alive));
        reg.counter_set_total(self.c_slots_reused, graph.slots_reused());
        reg.counter_set_total(self.c_compactions, graph.compactions());
        reg.counter_set_total(self.c_reports, self.reports_seen);
        reg.gauge_set(self.g_alive, alive);
        reg.gauge_set(self.g_arena_bytes, graph.adjacency_bytes() as u64);

        let mut snap = reg.snapshot(tick);
        snap.series = self.series.clone();
        self.snapshots.push(snap);
    }
}

/// The stream id the per-run network seed derives from (the protocol
/// stream is the run seed itself; the two must never collide). The sharded
/// driver derives each shard's network seed from this same stream
/// (`derive_seed(derive_seed(seed, NET_SEED_STREAM), shard)`).
pub(crate) const NET_SEED_STREAM: u64 = 0x006E_6574_776F_726B; // "network"

/// The stream id the per-run *workload* seed derives from. Model draws
/// (lifetimes, Poisson counts, region choices) live on this stream, fully
/// separate from the protocol and network streams — which is what lets a
/// trace replay skip the model without disturbing the run. Public because
/// it is part of the reproducibility contract: a run's churn can be
/// re-derived in isolation from `derive_seed(run_seed, this)`.
pub const WORKLOAD_SEED_STREAM: u64 = 0x776F_726B_6C6F_6164; // "workload"

/// The per-run execution state of a scenario's streamed churn source: the
/// one generate → apply → observe loop in the workspace. Both DES drivers
/// step it from `ScenarioRun::begin_step`; the loopback cluster's
/// coordinator steps it on the wall clock and broadcasts [`ops`](Self::ops).
pub struct WorkloadRuntime {
    model: Box<dyn ChurnModel>,
    rng: SmallRng,
    recorder: Option<TraceWriter<BufWriter<File>>>,
    ops: Vec<WorkloadOp>,
    delta: ChurnDelta,
    /// Neighbor-list scratch reused across every op application
    /// ([`WorkloadOp::apply_with`]): zero allocations per removal.
    scratch: Vec<p2p_overlay::NodeId>,
}

impl WorkloadRuntime {
    /// Resolves the scenario's source: builds the model (or opens the
    /// replay trace), derives the dedicated workload stream and shows the
    /// model the initial overlay.
    pub fn new(source: &WorkloadSource, scenario: &Scenario, seed: u64, graph: &Graph) -> Self {
        let (mut model, recorder): (Box<dyn ChurnModel>, _) = match source {
            WorkloadSource::Model(spec) => (spec.build(MAX_DEGREE), None),
            WorkloadSource::Record { spec, path } => {
                let header = TraceHeader {
                    initial_size: scenario.initial_size,
                    steps: scenario.steps,
                    schedule_hash: schedule_digest(&scenario.schedule),
                    churn: spec.to_string(),
                };
                let writer = TraceWriter::create(path, &header).unwrap_or_else(|e| {
                    panic!("cannot record workload trace {}: {e}", path.display())
                });
                (spec.build(MAX_DEGREE), Some(writer))
            }
            WorkloadSource::Replay(path) => {
                let (header, model) = TraceModel::open(path)
                    .unwrap_or_else(|e| panic!("cannot replay workload trace: {e}"));
                // Size/steps/scheduled-timeline must match the recording or
                // the replay silently diverges from the recorded run.
                header
                    .validate(
                        scenario.initial_size,
                        scenario.steps,
                        schedule_digest(&scenario.schedule),
                    )
                    .unwrap_or_else(|e| {
                        panic!("cannot replay into scenario `{}`: {e}", scenario.name)
                    });
                (Box::new(model) as Box<dyn ChurnModel + 'static>, None)
            }
        };
        let mut rng = small_rng(derive_seed(seed, WORKLOAD_SEED_STREAM));
        model.on_init(graph, &mut rng);
        WorkloadRuntime {
            model,
            rng,
            recorder,
            ops: Vec::new(),
            delta: ChurnDelta::default(),
            scratch: Vec::new(),
        }
    }

    /// One step of streamed churn: generate → record → apply → observe.
    /// Op application draws from `apply_rng` (the run's main stream),
    /// exactly like scheduled ops do.
    pub fn step(&mut self, step: u64, graph: &mut Graph, apply_rng: &mut SmallRng) {
        self.ops.clear();
        self.model.ops_at(step, graph, &mut self.rng, &mut self.ops);
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(step, &self.ops)
                .expect("workload trace write failed");
        }
        self.delta.clear();
        for op in &self.ops {
            op.apply_with(graph, apply_rng, &mut self.delta, &mut self.scratch);
        }
        self.model.observe(step, &self.delta, &mut self.rng);
    }

    /// A *scheduled* op fired while this workload is active: apply it with
    /// identity tracking and let the model observe the external churn —
    /// a session model must give scheduled arrivals lifetimes too, or a
    /// `growing` schedule under a session workload would mint immortal
    /// nodes. Consumes the same `apply_rng` draws as a plain `apply`.
    fn observe_scheduled(
        &mut self,
        step: u64,
        op: &p2p_overlay::churn::ChurnOp,
        graph: &mut Graph,
        apply_rng: &mut SmallRng,
    ) {
        self.delta.clear();
        op.apply_into(graph, apply_rng, &mut self.delta);
        self.model
            .observe_external(step, &self.delta, &mut self.rng);
    }

    /// The ops the last [`step`](Self::step) generated, in application
    /// order.
    pub fn ops(&self) -> &[WorkloadOp] {
        &self.ops
    }

    fn finish(&mut self) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.flush().expect("workload trace flush failed");
        }
    }
}

/// The run-level half of a scenario execution — everything that is not an
/// event core: the scheduled and streamed churn, the report → [`Smoother`] →
/// series recording, the telemetry session and the final [`Trace`]
/// assembly. The sequential driver below wraps one [`ShardCore`] in it;
/// the sharded driver ([`crate::sharded`]) wraps `K`.
pub(crate) struct ScenarioRun<'s> {
    scenario: &'s Scenario,
    /// The first entry of `scenario.schedule` not yet applied.
    next_op: usize,
    workload: Option<WorkloadRuntime>,
    smoother: Smoother,
    estimates: Series,
    real_size: Series,
    completed: usize,
    current_step: u64,
    tel: Option<TelemetrySession>,
}

impl<'s> ScenarioRun<'s> {
    /// Builds the scenario's overlay off `rng` — the run's main stream,
    /// which afterwards applies every churn op — and starts the workload.
    ///
    /// # Panics
    /// Panics if the schedule is not sorted by step, or holds an op past
    /// the final step (it would never be applied).
    pub(crate) fn new(
        scenario: &'s Scenario,
        heuristic: Heuristic,
        seed: u64,
        series_name: String,
        telemetry: Option<TelemetryOpts>,
        rng: &mut SmallRng,
    ) -> (Self, Graph) {
        let (name, steps) = (&scenario.name, scenario.steps);
        assert!(
            scenario.schedule.is_sorted_by_key(|&(at, _)| at),
            "scenario `{name}`: the churn schedule is not sorted by step"
        );
        let last = scenario.schedule.last().map_or(0, |&(at, _)| at);
        assert!(
            last <= steps,
            "scenario `{name}`: churn scheduled at step {last}, outside the run's steps 0..={steps}"
        );
        let graph = scenario.build_overlay(rng);
        let workload = (scenario.workload.as_ref())
            .map(|source| WorkloadRuntime::new(source, scenario, seed, &graph));
        let run = ScenarioRun {
            scenario,
            next_op: 0,
            workload,
            smoother: Smoother::new(heuristic),
            tel: telemetry.map(|o| TelemetrySession::new(o, series_name.clone())),
            estimates: Series::new(series_name),
            real_size: Series::new("real size"),
            completed: 0,
            current_step: 0,
        };
        (run, graph)
    }

    /// Step `step` begins, before its protocol step: every scheduled op due
    /// by now (at `step`, or at step 0 when `step` is 1) applies in schedule
    /// order, then the streamed workload's ops for `step`. This is the only
    /// place a run applies churn.
    pub(crate) fn begin_step(&mut self, step: u64, graph: &mut Graph, rng: &mut SmallRng) {
        self.current_step = step;
        let due = &self.scenario.schedule[self.next_op..];
        let due = &due[..due.partition_point(|&(at, _)| at <= step)];
        self.next_op += due.len();
        for &(at, op) in due {
            match self.workload.as_mut() {
                Some(w) => w.observe_scheduled(at, &op, graph, rng),
                None => {
                    op.apply(graph, rng);
                }
            }
        }
        if let Some(w) = self.workload.as_mut() {
            w.step(step, graph, rng);
        }
    }

    /// Records closed reporting periods against the current step and
    /// `graph`'s size. Both only change in [`begin_step`](Self::begin_step),
    /// so harvesting a core's buffer right before that call is equivalent
    /// to harvesting after every event.
    /// Post-timeline completions (the queue drains after the last step)
    /// land at the final step's x position.
    pub(crate) fn record(&mut self, reports: impl Iterator<Item = StepOutcome>, graph: &Graph) {
        let x = self.current_step.max(1) as f64;
        let truth = graph.alive_count() as f64;
        for outcome in reports {
            if let Some(raw) = outcome.estimate() {
                self.estimates.push(x, self.smoother.apply(raw));
                self.completed += 1;
                if let Some(t) = self.tel.as_mut() {
                    t.on_report(raw, truth, self.current_step);
                }
            }
            if outcome.is_report() {
                self.real_size.push(x, truth);
            }
        }
    }

    /// Takes the interval snapshot at `step`'s boundary if one is due; the
    /// final step is covered by [`finish`](Self::finish)'s complete
    /// post-drain snapshot instead.
    pub(crate) fn interval_snapshot<'a, M: 'a>(
        &mut self,
        step: u64,
        graph: &Graph,
        cores: impl IntoIterator<Item = (&'a Network<M>, &'a Log2Histogram)>,
    ) {
        if let Some(t) = self.tel.as_mut() {
            if step.is_multiple_of(t.opts.every) && step != self.scenario.steps {
                t.sample(step, graph, cores);
            }
        }
    }

    /// Closes the run: the complete post-drain snapshot, then every core's
    /// accounting summed into the [`Trace`] in the given (shard-index)
    /// order.
    pub(crate) fn finish<M>(
        mut self,
        graph: &Graph,
        cores: Vec<(&mut Network<M>, &Log2Histogram)>,
    ) -> (Trace, Vec<Snapshot>) {
        if let Some(w) = self.workload.as_mut() {
            w.finish();
        }
        debug_assert!(graph.check_invariants().is_ok());
        // Sampled before `take_counter` zeroes the traffic counters.
        if let Some(t) = self.tel.as_mut() {
            let cores = cores.iter().map(|(net, lens)| (&**net, *lens));
            t.sample(self.scenario.steps, graph, cores);
        }
        let mut trace = Trace {
            estimates: self.estimates,
            real_size: self.real_size,
            messages: MessageCounter::new(),
            completed: self.completed,
            net: NetStats::default(),
            engine: EngineStats::default(),
        };
        for (net, _) in cores {
            trace.messages.merge(&net.take_counter());
            trace.net.merge_from(net.stats());
            trace.engine.merge_from(&net.engine_stats());
        }
        (trace, self.tel.map(|t| t.snapshots).unwrap_or_default())
    }
}

/// The sequential driver's [`Host`]: the overlay and the run-level state.
/// The core's only control events are the step grid, tagged with the bare
/// step number; each one lands the step's churn, then steps the protocol.
struct SequentialHost<'s> {
    run: ScenarioRun<'s>,
    graph: Graph,
    batch_lens: Log2Histogram,
}

impl<P: NodeProtocol> Host<P> for SequentialHost<'_> {
    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn control(&mut self, step: u64, core: &mut ShardCore<P>) {
        self.run.record(core.drain_reports(), &self.graph);
        self.run.begin_step(step, &mut self.graph, &mut core.rng);
        core.step(step, &self.graph);
        // Interval snapshots land at step boundaries, after the step's own
        // sends and reports.
        self.run.record(core.drain_reports(), &self.graph);
        let cores = [(&core.net, &self.batch_lens)];
        self.run.interval_snapshot(step, &self.graph, cores);
    }

    fn batch(&mut self, len: usize) {
        self.batch_lens.observe(len as u64);
    }
}

/// Runs any event-driven [`NodeProtocol`] over a scenario, message by
/// message, under the scenario's [`NetworkModel`](p2p_sim::NetworkModel).
///
/// Determinism: the protocol draws from a stream seeded by `seed`, the
/// network's latency/loss draws from a stream derived from it — one seed
/// reproduces the run bit for bit.
///
/// The round-driven forms run here too (a boxed
/// [`ProtocolSpec::build_sync`](p2p_estimation::ProtocolSpec::build_sync)
/// included): each step executes atomically between ticks, so the
/// scenario's network model cannot touch it. For one-shot estimators every
/// step reports; for epoched Aggregation each step is one gossip round and
/// estimates appear at epoch boundaries — pass [`Heuristic::OneShot`] to
/// record the raw epoch estimates as the paper does.
pub fn run_scenario_des<P: NodeProtocol + ?Sized>(
    protocol: &mut P,
    scenario: &Scenario,
    heuristic: Heuristic,
    seed: u64,
    series_name: impl Into<String>,
) -> Trace {
    run_scenario_des_telemetry(protocol, scenario, heuristic, seed, series_name, None).0
}

/// [`run_scenario_des`] with optional telemetry capture: when `telemetry`
/// is set, the run takes one [`Snapshot`] every `every` steps plus a final
/// post-drain snapshot, and latches online time-to-ε from the windowed
/// median of raw reported estimates. Telemetry never touches an RNG stream
/// or event ordering (the mutators return `()`, so no value of theirs can
/// feed a draw or a branch), so a run's trace is bit-identical with capture
/// on or off.
pub fn run_scenario_des_telemetry<P: NodeProtocol + ?Sized>(
    protocol: &mut P,
    scenario: &Scenario,
    heuristic: Heuristic,
    seed: u64,
    series_name: impl Into<String>,
    telemetry: Option<TelemetryOpts>,
) -> (Trace, Vec<Snapshot>) {
    // One stream builds the overlay, applies churn and feeds the protocol.
    let mut rng = small_rng(seed);
    let name = series_name.into();
    let (run, graph) = ScenarioRun::new(scenario, heuristic, seed, name, telemetry, &mut rng);
    let step_ticks = scenario.network.step_ticks;
    let mut net: Network<P::Msg> =
        Network::new(scenario.network, derive_seed(seed, NET_SEED_STREAM));
    for step in 1..=scenario.steps {
        net.schedule_control_at(SimTime(step * step_ticks), step);
    }

    let mut core = ShardCore::new(protocol, net, rng);
    core.init(&graph);
    let mut host = SequentialHost {
        run,
        graph,
        batch_lens: Log2Histogram::default(),
    };
    // No horizon: after the final step the queue drains.
    core.run_until(SimTime(u64::MAX), &mut host);
    host.run.record(core.drain_reports(), &host.graph);
    host.run
        .finish(&host.graph, vec![(&mut core.net, &host.batch_lens)])
}

/// Worker-thread count for a replication sweep: all available cores, but at
/// least two workers whenever there are two or more replications, so the
/// parallel path is exercised even on single-core CI runners.
pub fn replication_threads(replications: usize) -> usize {
    let floor = 2.min(replications.max(1));
    default_threads(replications).max(floor)
}

/// Runs `replications` independent [`run_scenario_des`] runs of
/// `scenario` in parallel, one protocol instance per replication
/// (`make(replication_index)`), with seeds derived from `master_seed` per
/// replication index.
///
/// Results come back in replication order and are bit-identical regardless
/// of thread count or scheduling: each replication's RNG stream depends only
/// on `(master_seed, index)`. Series are named `Estimation #1..#n` as in the
/// paper's dynamic figures.
pub fn run_replications_des<P, F>(
    make: F,
    scenario: &Scenario,
    heuristic: Heuristic,
    master_seed: u64,
    replications: usize,
) -> Vec<Trace>
where
    P: NodeProtocol,
    F: Fn(usize) -> P + Sync,
{
    let mut traces = Vec::with_capacity(replications);
    map_replications(
        replication_threads(replications),
        master_seed,
        replications,
        |i, seed| {
            let mut protocol = make(i);
            run_scenario_des(
                &mut protocol,
                scenario,
                heuristic,
                seed,
                format!("Estimation #{}", i + 1),
            )
        },
        |_, trace| traces.push(trace),
    );
    traces
}

/// Records one static-overlay [`AveragingRun`] round by round, as plotted in
/// Figs 5/6: `(round, quality %)` at the initiator.
pub fn record_aggregation_convergence(
    n: usize,
    rounds: u32,
    seed: u64,
    series_name: impl Into<String>,
) -> (Series, MessageCounter) {
    let mut rng = small_rng(seed);
    let scenario = Scenario::static_network(n, rounds as u64);
    let graph = scenario.build_overlay(&mut rng);
    let mut msgs = MessageCounter::new();
    let initiator = graph.random_alive(&mut rng).expect("non-empty overlay");
    let mut run = AveragingRun::new(&graph, initiator);
    let mut series = Series::new(series_name);
    let truth = graph.alive_count() as f64;
    for round in 1..=rounds {
        run.run_round(&graph, &mut rng, &mut msgs);
        let quality = match run.estimate_at(initiator) {
            Some(est) => 100.0 * est / truth,
            // 1/value is +∞-ish early on; the paper plots these rounds as
            // "no estimate yet" — clamp to 0 so the curve starts at the
            // bottom like Figs 5/6.
            None => 0.0,
        };
        // Early over-estimates (value ≪ 1/N) plot off-scale; Figs 5/6 rise
        // from below, so clip the display value to [0, 200].
        let display = if quality.is_finite() {
            quality.min(200.0)
        } else {
            0.0
        };
        series.push(round as f64, display);
    }
    (series, msgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_estimation::aggregation::{AggregationConfig, EpochedAggregation};
    use p2p_estimation::net_protocol::AsyncSampleCollide;
    use p2p_estimation::{SampleCollide, SyncStep};
    use p2p_overlay::churn::ChurnOp;

    #[test]
    fn one_shot_trace_covers_every_step_on_static_overlay() {
        let scenario = Scenario::static_network(2_000, 20);
        let mut sc = SyncStep(SampleCollide::cheap());
        let t = run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, 7, "one shot");
        assert_eq!(t.completed, 20);
        assert_eq!(t.estimates.len(), 20);
        assert_eq!(t.real_size.len(), 20);
        assert!(t.messages.total() > 0);
        for &(_, size) in &t.real_size.points {
            assert_eq!(size, 2_000.0);
        }
    }

    #[test]
    fn churn_executes_before_same_step_estimation() {
        // A -50% catastrophe at step 5 must be visible in step 5's truth.
        let mut scenario = Scenario::static_network(1_000, 10);
        scenario
            .schedule
            .push((5, ChurnOp::Catastrophe { fraction: 0.5 }));
        let mut sc = SyncStep(SampleCollide::cheap());
        let t = run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, 8, "x");
        let at = |step: f64| {
            t.real_size
                .points
                .iter()
                .find(|&&(s, _)| s == step)
                .map(|&(_, y)| y)
                .unwrap()
        };
        assert_eq!(at(4.0), 1_000.0);
        assert_eq!(at(5.0), 500.0);
    }

    #[test]
    fn growing_scenario_truth_tracks_up() {
        let scenario = Scenario::growing(1_000, 20, 0.5);
        let mut sc = SyncStep(SampleCollide::cheap());
        let t = run_scenario_des(&mut sc, &scenario, Heuristic::last10(), 9, "x");
        let first = t.real_size.points.first().unwrap().1;
        let last = t.real_size.points.last().unwrap().1;
        assert_eq!(first, 1_025.0); // one step of joins (500/20) already applied
        assert_eq!(last, 1_500.0);
    }

    #[test]
    fn aggregation_scenario_records_epoch_estimates() {
        let scenario = Scenario::static_network(1_000, 200);
        let mut agg = EpochedAggregation::new(AggregationConfig::paper());
        let t = run_scenario_des(&mut agg, &scenario, Heuristic::OneShot, 10, "agg");
        assert_eq!(t.completed, 4); // 200 rounds / 50-round epochs
        let steps: Vec<f64> = t.estimates.points.iter().map(|&(x, _)| x).collect();
        assert_eq!(steps, vec![50.0, 100.0, 150.0, 200.0]);
        for &(_, est) in &t.estimates.points {
            let q = est / 1_000.0;
            assert!((0.9..1.1).contains(&q), "epoch estimate quality {q}");
        }
        // §IV-E prices Aggregation at N × rounds × 2; the epoched variant
        // charges less during each epoch's participation ramp-up (the first
        // ~log₂N rounds), so the measured total sits somewhat below that.
        let expected = 1_000.0 * 200.0 * 2.0;
        let ratio = t.messages.total() as f64 / expected;
        assert!((0.6..1.01).contains(&ratio), "overhead ratio {ratio}");
    }

    #[test]
    fn final_step_churn_applies_to_both_classes() {
        // Regression for the churn-scheduling asymmetry: the historic
        // aggregation loop iterated `0..steps` and silently dropped ops
        // scheduled at (or beyond) the final round, while the engine-based
        // polling runner executed every scheduled op. The unified driver
        // must give both classes identical semantics: an op at the final
        // step executes *before* that step and is visible in the final
        // ground truth.
        let mut scenario = Scenario::static_network(1_000, 10);
        scenario
            .schedule
            .push((10, ChurnOp::Catastrophe { fraction: 0.5 }));

        let mut sc = SyncStep(SampleCollide::cheap());
        let polling = run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, 11, "sc");
        assert_eq!(polling.real_size.points.last().unwrap(), &(10.0, 500.0));

        // Epoch length 5 → reports at steps 5 and 10; the op at step 10
        // lands before the final round of the second epoch.
        let mut agg = EpochedAggregation::new(AggregationConfig {
            rounds_per_estimate: 5,
        });
        let epidemic = run_scenario_des(&mut agg, &scenario, Heuristic::OneShot, 11, "agg");
        assert_eq!(epidemic.real_size.points.last().unwrap(), &(10.0, 500.0));
        assert_eq!(epidemic.real_size.points.first().unwrap(), &(5.0, 1_000.0));
    }

    #[test]
    #[should_panic(expected = "churn scheduled at step 11, outside the run's steps 0..=10")]
    fn churn_scheduled_past_the_final_step_fails_the_run() {
        // No step 11 exists to land the op at; the run refuses to start
        // rather than silently dropping it.
        let mut scenario = Scenario::static_network(100, 10);
        scenario
            .schedule
            .push((11, ChurnOp::Catastrophe { fraction: 0.5 }));
        let mut sc = SyncStep(SampleCollide::cheap());
        run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, 11, "sc");
    }

    #[test]
    fn convergence_recording_reaches_100_percent() {
        let (series, msgs) = record_aggregation_convergence(2_000, 60, 11, "est");
        assert_eq!(series.len(), 60);
        let last = series.points.last().unwrap().1;
        assert!((99.0..101.0).contains(&last), "final quality {last}");
        // The curve must start far from 100 (otherwise it shows nothing).
        let first = series.points[0].1;
        assert!(
            !(95.0..105.0).contains(&first),
            "first-round quality {first}"
        );
        assert_eq!(msgs.total(), 2 * 2_000 * 60);
    }

    #[test]
    fn deterministic_traces_per_seed() {
        let scenario = Scenario::catastrophic(1_500, 12);
        let mut a = SyncStep(SampleCollide::cheap());
        let mut b = SyncStep(SampleCollide::cheap());
        let ta = run_scenario_des(&mut a, &scenario, Heuristic::OneShot, 42, "x");
        let tb = run_scenario_des(&mut b, &scenario, Heuristic::OneShot, 42, "x");
        assert_eq!(ta.estimates.points, tb.estimates.points);
        assert_eq!(ta.messages, tb.messages);
    }

    #[test]
    fn replications_are_ordered_named_and_seed_stable() {
        let scenario = Scenario::static_network(500, 4);
        let make = |_: usize| SyncStep(SampleCollide::cheap());
        let a = run_replications_des(make, &scenario, Heuristic::OneShot, 99, 4);
        let b = run_replications_des(make, &scenario, Heuristic::OneShot, 99, 4);
        assert_eq!(a.len(), 4);
        for (i, t) in a.iter().enumerate() {
            assert_eq!(t.estimates.name, format!("Estimation #{}", i + 1));
            assert_eq!(t.completed, 4);
        }
        // Bit-identical across invocations (thread scheduling must not leak).
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.estimates.points, tb.estimates.points);
            assert_eq!(ta.messages, tb.messages);
        }
        // Replications use distinct derived seeds → distinct streams.
        assert_ne!(a[0].estimates.points, a[1].estimates.points);
    }

    #[test]
    fn telemetry_capture_leaves_the_trace_bit_identical() {
        let scenario = Scenario::catastrophic(1_500, 12);
        let opts = TelemetryOpts { every: 3, eps: 0.5 };
        let mut a = AsyncSampleCollide::cheap();
        let plain = run_scenario_des(&mut a, &scenario, Heuristic::OneShot, 42, "x");
        let mut b = AsyncSampleCollide::cheap();
        let (with_tel, snaps) =
            run_scenario_des_telemetry(&mut b, &scenario, Heuristic::OneShot, 42, "x", Some(opts));
        assert_eq!(plain.estimates.points, with_tel.estimates.points);
        assert_eq!(plain.messages, with_tel.messages);
        assert_eq!(plain.net, with_tel.net);
        // Interval snapshots at steps 3, 6, 9 plus the final one at 12.
        let ticks: Vec<u64> = snaps.iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![3, 6, 9, 12]);
        assert!(snaps.iter().all(|s| s.series == "x"));
    }

    #[test]
    fn telemetry_snapshots_are_consistent_and_deterministic() {
        let scenario = Scenario::static_network(2_000, 20);
        let opts = TelemetryOpts { every: 5, eps: 0.5 };
        let run = || {
            let mut sc = AsyncSampleCollide::cheap();
            run_scenario_des_telemetry(&mut sc, &scenario, Heuristic::OneShot, 7, "sc", Some(opts))
                .1
        };
        let snaps = run();
        let lines: Vec<String> = snaps.iter().map(|s| s.to_jsonl()).collect();
        let again: Vec<String> = run().iter().map(|s| s.to_jsonl()).collect();
        assert_eq!(lines, again, "identical runs must emit identical bytes");

        let last = snaps.last().unwrap();
        let get = |map: &[(String, u64)], name: &str| {
            map.iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .1
        };
        let sent = get(&last.counters, "net.sent");
        assert!(sent > 0);
        let by_kind: u64 = SENT_BY_KIND.iter().map(|n| get(&last.counters, n)).sum();
        assert_eq!(by_kind, sent, "per-kind sends must partition the total");
        assert_eq!(get(&last.gauges, "overlay.alive"), 2_000);
        // Everything resolved by the end of the run: nothing in flight.
        for n in IN_FLIGHT_BY_KIND {
            assert_eq!(get(&last.gauges, n), 0, "{n} at end of run");
        }
        // A static overlay with a generous band converges.
        assert_eq!(get(&last.gauges, "conv.eps_reached"), 1);
        let t = get(&last.gauges, "conv.time_to_eps_step");
        assert!((1..=20).contains(&t), "time-to-ε step {t}");
        assert_eq!(get(&last.counters, "proto.reports"), 20);
        // The batch-size histogram saw every dispatched batch.
        let (_, hist) = last
            .hists
            .iter()
            .find(|(n, _)| n == "engine.batch_len")
            .unwrap();
        assert!(hist.count > 0);
    }

    #[test]
    fn replication_thread_floor_is_two() {
        assert_eq!(replication_threads(1), 1);
        assert!(replication_threads(2) >= 2);
        assert!(replication_threads(8) >= 2);
    }
}
