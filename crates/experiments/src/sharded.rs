//! Sharded parallel DES: multi-core execution of *one* run.
//!
//! [`run_scenario_des`](crate::runner::run_scenario_des) executes a whole
//! scenario on one core. This module splits the node population across `K`
//! shards — the same `index % K` partition rule the real cluster runtime
//! uses (`crates/node`) — and runs the shards on worker threads that
//! synchronize at **lookahead-window barriers**:
//!
//! * every shard owns a full event core ([`Network`]: timing wheel holding
//!   its in-flight messages, private latency/loss stream) plus its own protocol
//!   instance and derived RNG stream;
//! * a message between co-hosted nodes stays entirely inside its shard;
//! * a cross-shard send is routed through [`Network::route_remote`] and
//!   never resolves in fewer than `L` =
//!   [`NetworkModel::min_hop_ticks`](p2p_sim::NetworkModel::min_hop_ticks)
//!   ticks — that lookahead is what makes the synchronization
//!   *conservative*: nothing a shard does during the window
//!   `[T, T + L − 1]` can affect another shard before tick `T + L`, so all
//!   shards may execute the whole window in parallel;
//! * at the barrier, each buffered cross-shard lane swaps places with its
//!   destination's drained inbox lane ([`Outbox::hand_over`]) and is
//!   enqueued at the destination in
//!   **(source-shard-index, FIFO)** order — a fixed merge order, so the
//!   destination wheel's structural FIFO makes same-tick remote arrivals
//!   deterministic.
//!
//! ## The window
//!
//! Each round the coordinator picks `T` = the earliest pending tick over
//! every wheel, every inbox and the next control tick — the next step
//! boundary, where `ScenarioRun::begin_step` lands that step's scheduled
//! and streamed churn — and lets the shards run `[T, T + L − 1]`, clipped
//! by two rules that keep every observable where a tick-by-tick run puts
//! it: a window **never reaches the next control tick** (churn is applied
//! and reports are stamped only between rounds), and **a round that
//! carries a control tick is that one tick** (an interval snapshot for
//! step `s` still means "state after tick `s · step_ticks`"). `L` is
//! derived from the model, never set: `wan` gives 15; `ideal` and
//! `Exponential` latencies give 1 and run through the same loop as
//! one-tick windows. At every exchange the coordinator asserts that
//! nothing buffered is due inside the window just run, so an over-stated
//! bound fails the run instead of scheduling an event into a shard's past.
//!
//! ## Determinism boundary
//!
//! A `K`-shard run is byte-identical across reruns **and across worker
//! thread counts** — window boundaries are a pure function of simulation
//! state, and each shard's execution of a window depends only on its own
//! state, the published round plan and the (read-locked) overlay, never on
//! scheduling. `K` itself, however, is part of the result identity: a
//! `K`-shard run partitions the RNG streams differently than a single
//! queue (exactly like the node-count of a real cluster, whose estimates
//! are validated against the DES *envelope*, not bit-for-bit). `K = 1`
//! never reaches this module: the engine falls back to the sequential
//! driver, keeping every golden figure and trace byte-identical.
//!
//! A remote arrival enters its destination bucket at the start of the
//! window after the one it was sent in, so it queues behind local events
//! already scheduled for the same tick. Handlers that commute (Aggregation's
//! pulls) produce the same estimates at any `L`; handlers that draw
//! randomness in handling order (walks) produce a different, equally valid
//! realization.
//!
//! Sharding pays only under latency-realistic models (e.g.
//! [`NetworkModel::wan`](p2p_sim::NetworkModel::wan)): the paper's ideal
//! instantaneous model derives a one-tick window — two barrier waits per
//! occupied tick — and its zero-latency cross-shard hops are clamped to one
//! tick, so a chain of them stretches across ticks (still a valid
//! execution, but far from the historic round semantics). A run reports
//! its `lookahead_ticks` and `barrier_rounds` ([`ShardSync`]).

#![expect(
    clippy::disallowed_types,
    reason = "shard-local-state: the window-barrier coordinator is one of the two \
              designated parallel drivers; shard state crosses threads only at its barriers"
)]

use crate::runner::{ScenarioRun, TelemetryOpts, Trace, NET_SEED_STREAM};
use crate::scenario::Scenario;
use p2p_estimation::{Heuristic, Host, NodeProtocol, ShardCore, ShardView};
use p2p_overlay::Graph;
use p2p_sim::parallel::default_threads;
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::shard::{Inbox, Outbox};
use p2p_sim::{Network, SimTime};
use p2p_telemetry::{Log2Histogram, Snapshot};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError, RwLock};

/// How a sharded run was synchronised: deterministic counts, a pure
/// function of the scenario, the seed and `K`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSync {
    /// Shard count `K`.
    pub shards: u32,
    /// The model-derived window length `L`
    /// ([`NetworkModel::min_hop_ticks`](p2p_sim::NetworkModel::min_hop_ticks)).
    pub lookahead_ticks: u64,
    /// Windows executed, each one start/end barrier pair.
    pub barrier_rounds: u64,
}

/// The per-round execution order published to the workers at the barrier.
#[derive(Clone, Copy)]
struct Plan {
    /// The first tick of the window every shard executes this round.
    tick: u64,
    /// Its last tick (`tick ..= until`).
    until: u64,
    /// `Some(s)` when `tick` is protocol step `s`'s boundary.
    step: Option<u64>,
    /// Termination signal: workers exit instead of executing a window.
    done: bool,
}

/// One shard's complete run state. Each lives behind its own `Mutex`: a
/// worker locks it for the duration of the shard's window, the coordinator
/// between barriers — never both at once, so every lock is uncontended.
struct Shard<P: NodeProtocol> {
    core: ShardCore<P>,
    inbox: Inbox<P::Msg>,
    batch_lens: Log2Histogram,
}

/// A shard core's [`Host`] for one window: the read-locked overlay, plus the
/// [`Host`] defaults — the coordinator owns the step grid and churn, and
/// cross-shard sends divert into the core's outbox at send time.
struct ShardHost<'a> {
    graph: &'a Graph,
    batch_lens: &'a mut Log2Histogram,
}

impl<P: NodeProtocol> Host<P> for ShardHost<'_> {
    fn graph(&self) -> &Graph {
        self.graph
    }

    fn batch(&mut self, len: usize) {
        self.batch_lens.observe(len as u64);
    }
}

impl<P: NodeProtocol> Shard<P> {
    /// Executes this shard's slice of the window `plan.tick ..= plan.until`:
    /// enqueue the remote arrivals exchanged at the previous barrier, park
    /// the clock on the first tick, run the protocol step if this round
    /// carries one, then drain every event up to (and including) the last.
    fn run_window(&mut self, plan: Plan, graph: &Graph) {
        let net = &mut self.core.net;
        self.inbox.drain(|m| net.enqueue_remote(m));
        net.advance_to(SimTime(plan.tick));
        if let Some(step) = plan.step {
            self.core.step(step, graph);
        }
        let mut host = ShardHost {
            graph,
            batch_lens: &mut self.batch_lens,
        };
        self.core.run_until(SimTime(plan.until), &mut host);
    }
}

/// The window barrier's second half: moves every shard's buffered
/// cross-shard traffic to its destination's inbox in (source-shard-index,
/// FIFO) order. The coordinator holds every shard here, so each outbox lane
/// swaps places with its destination's drained inbox lane
/// ([`Outbox::hand_over`]): two buffers per direction.
///
/// # Panics
/// Panics if a buffered delivery is due at or before `until`, the last tick
/// of the window just executed: the lookahead over-stated what the model
/// guarantees, and delivering it would schedule into a shard's past.
fn exchange<P: NodeProtocol>(shards: &mut [MutexGuard<'_, Shard<P>>], until: u64) {
    for s in 0..shards.len() {
        let (before, rest) = shards.split_at_mut(s);
        let (this, after) = rest.split_first_mut().expect("s < K");
        let this: &mut Shard<P> = this;
        let outbox = this.core.outbox();
        if let Some(due) = outbox.min_at() {
            assert!(
                due.0 > until,
                "lookahead violated: shard {s} sent a cross-shard message due at tick {} \
                 inside the window ending at tick {until}",
                due.0
            );
        }
        let inboxes = before
            .iter_mut()
            .map(|st| &mut st.inbox)
            .chain([&mut this.inbox])
            .chain(after.iter_mut().map(|st| &mut st.inbox));
        outbox.hand_over(s, inboxes);
    }
}

/// Runs one scenario on `shards ≥ 2` parallel event cores (`K` is part of
/// the result identity), on `min(K, cores)` threads: the caller's, which
/// coordinates the rounds and executes a share of the shards itself, plus
/// one per further worker — never more runnable threads than cores.
///
/// `make(shard)` builds shard `shard`'s protocol instance; its
/// [`ShardCore`] installs the shard's deployment, so the instance paces
/// only hosted slots. Reports are collected in (shard-index, FIFO) order
/// at each barrier; per-shard engine/network accounting is folded into the
/// returned [`Trace`] in the same fixed order, so `[stats]` totals cover
/// the whole run; the [`ShardSync`] says how it was synchronised. A panic
/// on a worker thread or the coordinator ends the run and resumes on the
/// caller's thread.
pub fn run_scenario_des_sharded<P, F>(
    make: F,
    scenario: &Scenario,
    heuristic: Heuristic,
    seed: u64,
    series_name: impl Into<String>,
    shards: u32,
    telemetry: Option<TelemetryOpts>,
) -> (Trace, Vec<Snapshot>, ShardSync)
where
    P: NodeProtocol + Send,
    P::Msg: Send,
    F: Fn(u32) -> P,
{
    let workers = default_threads(shards as usize);
    run_sharded_on(
        workers,
        scenario.network.min_hop_ticks(),
        make,
        scenario,
        heuristic,
        seed,
        series_name.into(),
        shards,
        telemetry,
    )
}

/// [`run_scenario_des_sharded`] on an explicit worker-thread count, which
/// never affects the produced bytes — only wall-clock — and an explicit
/// window length, which production always derives from the model (tests
/// pass 1 for the tick-by-tick reference and an over-stated value to trip
/// the exchange guard).
#[expect(
    clippy::too_many_arguments,
    reason = "private; the public entry plus `workers`, `lookahead`"
)]
fn run_sharded_on<P, F>(
    workers: usize,
    lookahead: u64,
    make: F,
    scenario: &Scenario,
    heuristic: Heuristic,
    seed: u64,
    series_name: String,
    k: u32,
    telemetry: Option<TelemetryOpts>,
) -> (Trace, Vec<Snapshot>, ShardSync)
where
    P: NodeProtocol + Send,
    P::Msg: Send,
    F: Fn(u32) -> P,
{
    assert!(
        k >= 2,
        "sharded execution needs K ≥ 2 (K = 1 is the sequential driver)"
    );
    assert!(lookahead >= 1, "a window is at least one tick");
    let workers = workers.clamp(1, k as usize);
    let step_ticks = scenario.network.step_ticks;

    let mut rng = small_rng(seed);
    let (mut run, graph) =
        ScenarioRun::new(scenario, heuristic, seed, series_name, telemetry, &mut rng);

    let net_base = derive_seed(seed, NET_SEED_STREAM);
    let states: Vec<Mutex<Shard<P>>> = (0..k)
        .map(|s| {
            let (view, proto_rng) = ShardView::elect(seed, &graph, s, k);
            let net = Network::new(scenario.network, derive_seed(net_base, s as u64));
            let outbox = Some(Outbox::new(k as usize));
            Mutex::new(Shard {
                core: ShardCore::shard(make(s), net, proto_rng, view, outbox),
                inbox: Inbox::new(k as usize),
                batch_lens: Log2Histogram::default(),
            })
        })
        .collect();
    let lock_all = || -> Vec<MutexGuard<'_, Shard<P>>> {
        states
            .iter()
            .map(|st| st.lock().expect("a failed worker ends the run first"))
            .collect()
    };
    // Per-shard protocol init, then one exchange so init-time cross-shard
    // sends are visible to the first round's horizon computation.
    let mut shards = lock_all();
    for st in &mut shards {
        st.core.init(&graph);
    }
    exchange(&mut shards, 0);

    // Control ticks are the step grid: step `next_step` begins at tick
    // `next_step · step_ticks`, and the step's churn lands with it.
    let mut next_step = 1u64;

    let graph_lock = RwLock::new(graph);
    let plan = Mutex::new(Plan {
        tick: 0,
        until: 0,
        step: None,
        done: false,
    });
    let mut barrier_rounds = 0u64;
    let start = Barrier::new(workers);
    let end = Barrier::new(workers);
    // The first panic of the run, worker's or coordinator's; the barriers
    // are still met, so nobody parks forever on a failed peer.
    let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // Worker `w`'s share of a window: shards `w, w + workers, …`.
    let run_share = |w: usize, p: Plan| {
        let window = catch_unwind(AssertUnwindSafe(|| {
            let graph = graph_lock.read().expect("churn panics end the run");
            for st in states.iter().skip(w).step_by(workers) {
                let mut st = st.lock().expect("one worker per shard");
                st.run_window(p, &graph);
            }
        }));
        if let Err(payload) = window {
            failure
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    };

    std::thread::scope(|scope| {
        // The coordinator is worker 0: a run is `workers` threads, all of
        // them busy while a window executes.
        for w in 1..workers {
            let (plan, start, end, run_share) = (&plan, &start, &end, &run_share);
            scope.spawn(move || loop {
                start.wait();
                let p = *plan.lock().expect("the plan is only ever assigned");
                if p.done {
                    return;
                }
                run_share(w, p);
                end.wait();
            });
        }

        // Coordinator: picks each round's window, applies churn, releases
        // the workers, then harvests reports and runs the cross-shard
        // exchange.
        let rounds = catch_unwind(AssertUnwindSafe(|| loop {
            let ctrl_tick = (next_step <= scenario.steps).then(|| next_step * step_ticks);
            let next = shards
                .iter()
                .flat_map(|st| [st.core.net.next_event_time(), st.inbox.min_at()])
                .flatten()
                .map(|t| t.0)
                .chain(ctrl_tick)
                .min();
            let Some(tick) = next else { break };
            drop(shards);

            // A control round is its one tick; any other window stops short
            // of the next control tick (`tick < c` there, so `c - 1 ≥ tick`).
            let until = match ctrl_tick {
                Some(c) if c == tick => tick,
                Some(c) => (c - 1).min(tick + lookahead - 1),
                None => tick + lookahead - 1,
            };
            let mut step_of_round = None;
            if ctrl_tick == Some(tick) {
                let mut graph = graph_lock.write().expect("workers only read");
                run.begin_step(next_step, &mut graph, &mut rng);
                step_of_round = Some(next_step);
                next_step += 1;
            }

            let p = Plan {
                tick,
                until,
                step: step_of_round,
                done: false,
            };
            *plan.lock().expect("the plan is only ever assigned") = p;
            barrier_rounds += 1;
            start.wait();
            // Every worker, this thread among them, executes the window on
            // its shards.
            run_share(0, p);
            end.wait();
            if failure
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some()
            {
                break;
            }

            shards = lock_all();
            let graph = graph_lock.read().expect("workers only read");
            for st in &mut shards {
                run.record(st.core.drain_reports(), &graph);
            }
            if let Some(s) = step_of_round {
                let cores = shards.iter().map(|st| (&st.core.net, &st.batch_lens));
                run.interval_snapshot(s, &graph, cores);
            }
            exchange(&mut shards, until);
        }));
        plan.lock().expect("the plan is only ever assigned").done = true;
        start.wait();
        if let Err(payload) = rounds {
            failure
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    });

    if let Some(payload) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    let graph = graph_lock.into_inner().expect("no writer panicked");
    let mut shards: Vec<Shard<P>> = states
        .into_iter()
        .map(|m| m.into_inner().expect("no worker panicked"))
        .collect();
    let cores = shards.iter_mut().map(|st| {
        debug_assert!(st.core.outbox().is_empty() && st.inbox.is_empty());
        (&mut st.core.net, &st.batch_lens)
    });
    let (trace, snaps) = run.finish(&graph, cores.collect());
    let sync = ShardSync {
        shards: k,
        lookahead_ticks: lookahead,
        barrier_rounds,
    };
    (trace, snaps, sync)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_estimation::net_protocol::{AsyncAggregation, Cx};
    use p2p_estimation::ProtocolSpec;
    use p2p_overlay::NodeId;
    use p2p_sim::NetworkModel;
    use std::time::Duration;

    /// Runs `f` on a thread of its own and returns how it ended; a run still
    /// going after ten seconds fails the test as hung.
    #[expect(
        clippy::disallowed_methods,
        reason = "a watchdog channel bounds how long a test waits on a hung run"
    )]
    fn bounded(what: &str, f: impl FnOnce() + Send + 'static) -> Box<dyn Any + Send> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{what}: the run hung"))
            .expect_err(what)
    }

    /// A small WAN scenario: realistic latencies, so the ≥ 1 tick
    /// cross-shard clamp changes nothing about hop timing and the model
    /// derives a 15-tick window.
    fn wan_scenario(n: usize, steps: u64) -> Scenario {
        Scenario::static_network(n, steps).with_network(NetworkModel::wan())
    }

    /// Aggregation over `scenario` on `k` shards with `lookahead`-tick
    /// windows (`None`: the model-derived length production uses).
    fn run_agg_on(
        scenario: &Scenario,
        k: u32,
        workers: Option<usize>,
        lookahead: Option<u64>,
        seed: u64,
    ) -> (Trace, Vec<Snapshot>, ShardSync) {
        run_sharded_on(
            workers.unwrap_or_else(|| default_threads(k as usize)),
            lookahead.unwrap_or_else(|| scenario.network.min_hop_ticks()),
            |_| AsyncAggregation::paper(),
            scenario,
            Heuristic::OneShot,
            seed,
            "agg".to_string(),
            k,
            Some(TelemetryOpts {
                every: 20,
                eps: 0.5,
            }),
        )
    }

    fn run_agg(k: u32, workers: Option<usize>, seed: u64) -> (Trace, Vec<Snapshot>) {
        let (trace, snaps, _) = run_agg_on(&wan_scenario(2_000, 60), k, workers, None, seed);
        (trace, snaps)
    }

    /// The spec-built walk protocol on 3 shards (walks hop across shards
    /// constantly).
    fn run_sc() -> (Trace, Vec<Snapshot>) {
        let spec = ProtocolSpec::parse("sample-collide:l=40,t=4").unwrap();
        let scenario = wan_scenario(600, 8);
        let (trace, snaps, _) = p2p_estimation::with_async_protocol!(spec.build_async(), p => {
            run_scenario_des_sharded(
                |_| p.clone(), &scenario, Heuristic::OneShot, 5, "sc", 3, None,
            )
        });
        (trace, snaps)
    }

    /// Metrics that describe how a run is stored, not what it computed:
    /// the event store's chunk pool and the overlay's edge-arena layout.
    const STORAGE_METRICS: [&str; 4] = [
        "engine.pool_hits",
        "engine.pool_allocs",
        "overlay.compactions",
        "overlay.arena_bytes",
    ];

    /// The Debug form of the whole trace plus every snapshot's JSONL, with
    /// the [`STORAGE_METRICS`] zeroed (`pool_hits` / `pool_allocs` in the
    /// trace too), so a storage change must not move the stored constants
    /// — everything else must.
    fn fingerprint(trace: &Trace, snaps: &[Snapshot]) -> String {
        let mut trace = trace.clone();
        (trace.engine.pool_hits, trace.engine.pool_allocs) = (0, 0);
        let mut s = format!("{trace:?}");
        for snap in snaps {
            let mut snap = snap.clone();
            for (name, value) in snap.counters.iter_mut().chain(&mut snap.gauges) {
                if STORAGE_METRICS.contains(&name.as_str()) {
                    *value = 0;
                }
            }
            s.push('\n');
            s.push_str(&snap.to_jsonl());
        }
        s
    }

    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn sharded_realizations_match_the_stored_goldens() {
        // FNV-1a of `fingerprint`. Rerun/worker-count equality only pins the
        // sharded path against itself; this pins it against history. The
        // one-tick column was recorded at the commit before the drivers
        // moved onto `ShardCore` (PR 13), when every round was one tick: a
        // one-tick window is still that run, bit for bit. The derived
        // column (15-tick WAN windows) was recorded when windows landed and
        // differs from it only in `engine.peak_depth` (remote arrivals wait
        // in the inbox, not the wheel). All seven were re-recorded on the
        // engine they had always pinned when `fingerprint` began masking the
        // pool counters, and the six aggregation columns again, on an
        // unchanged overlay, when it began masking the arena's layout.
        let scenario = wan_scenario(2_000, 60);
        let golden = [
            (2, 0x8ba1_1213_ae22_ee58_u64, 0x8060_3076_dea1_2c04_u64),
            (3, 0xa594_917b_bc84_648b, 0x24ac_1f15_a57b_452b),
            (4, 0x6593_3a9b_3182_51dc, 0xa935_0c13_ebea_0344),
        ];
        for (k, one_tick, derived) in golden {
            for (lookahead, want) in [(Some(1), one_tick), (None, derived)] {
                let (t, s, _) = run_agg_on(&scenario, k, None, lookahead, 77);
                let got = fnv1a(&fingerprint(&t, &s));
                assert_eq!(got, want, "aggregation, K={k}, window {lookahead:?}");
            }
        }
        // One walk token in flight: nothing for a window to reorder, so the
        // per-tick constant survived the move to windows.
        let (t, s) = run_sc();
        assert_eq!(
            fnv1a(&fingerprint(&t, &s)),
            0x4177_aeb2_5679_28df,
            "sample-collide, K=3: {t:?}"
        );
    }

    #[test]
    fn scheduled_churn_realization_matches_the_stored_golden() {
        // The seven constants above all run the static `wan_scenario`; this
        // one pins where scheduled churn lands in a sharded run. Recorded
        // while the coordinator still scheduled churn as control ticks of
        // their own; re-recorded on an unchanged overlay when `fingerprint`
        // began masking the arena's layout.
        let scenario = Scenario::catastrophic(2_000, 60).with_network(NetworkModel::wan());
        let (t, s, _) = run_agg_on(&scenario, 2, None, None, 77);
        assert_eq!(
            fnv1a(&fingerprint(&t, &s)),
            0x2eff_181d_688b_9bf8,
            "aggregation, K=2, catastrophic"
        );
    }

    #[test]
    fn sharded_runs_are_byte_identical_across_reruns_and_worker_counts() {
        let (t1, s1) = run_agg(4, Some(1), 77);
        let (t2, s2) = run_agg(4, Some(2), 77);
        let (t3, s3) = run_agg(4, Some(3), 77);
        let (t4, s4) = run_agg(4, None, 77);
        let base = fingerprint(&t1, &s1);
        assert_eq!(base, fingerprint(&t2, &s2), "1 vs 2 workers");
        assert_eq!(base, fingerprint(&t3, &s3), "1 vs 3 workers");
        assert_eq!(base, fingerprint(&t4, &s4), "1 vs default workers");
        // And across reruns at the same worker count.
        let (t5, s5) = run_agg(4, Some(2), 77);
        assert_eq!(base, fingerprint(&t5, &s5), "rerun");
    }

    #[test]
    fn shard_count_is_part_of_the_result_identity() {
        let (t2, _) = run_agg(2, None, 77);
        let (t4, _) = run_agg(4, None, 77);
        // Different K ⇒ different (valid) realization — pinning the
        // opposite would quietly forbid the partitioned RNG streams.
        assert_ne!(
            format!("{:?}", t2.estimates.points),
            format!("{:?}", t4.estimates.points)
        );
    }

    #[test]
    fn sharded_aggregation_tracks_the_truth() {
        for k in [2, 3] {
            let (trace, _) = run_agg(k, None, 909);
            assert!(trace.completed >= 1, "K={k}: no epoch completed");
            let (_, last) = *trace.estimates.points.last().unwrap();
            let q = last / 2_000.0;
            assert!((0.8..1.2).contains(&q), "K={k}: estimate quality {q}");
        }
    }

    #[test]
    fn merged_stats_cover_the_whole_run() {
        let (trace, snaps) = run_agg(2, None, 31);
        // Whole-run totals, not shard 0's view: the per-kind counter and
        // the merged NetStats must agree, and everything sent was resolved
        // (delivered, dropped, or lost to churn — here: delivered).
        assert_eq!(trace.messages.total(), trace.net.sent);
        assert_eq!(
            trace.net.sent,
            trace.net.delivered + trace.net.dropped + trace.net.churn_lost
        );
        assert!(trace.engine.dispatched > 0);
        // The folded final snapshot agrees with the merged trace.
        let last = snaps.last().unwrap();
        let get = |name: &str| {
            last.counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .1
        };
        assert_eq!(get("net.sent"), trace.net.sent);
        assert_eq!(get("net.delivered"), trace.net.delivered);
        assert_eq!(get("engine.dispatched"), trace.engine.dispatched);
        assert_eq!(get("proto.reports"), trace.completed as u64);
    }

    #[test]
    fn spec_built_protocols_run_sharded() {
        // The engine's generic entry is exercised end to end in
        // `engine::tests`; here pin that a spec-built walk protocol
        // survives partitioning.
        let (trace, _) = run_sc();
        assert!(trace.net.sent > 0);
        assert_eq!(trace.messages.total(), trace.net.sent);
    }

    /// A protocol that does nothing until an armed instance reaches step 2.
    struct Bomb {
        armed: bool,
    }

    impl NodeProtocol for Bomb {
        type Msg = ();

        fn name(&self) -> &'static str {
            "bomb"
        }

        fn on_step(&mut self, step: u64, _cx: &mut Cx<'_, ()>) {
            assert!(!(self.armed && step == 2), "shard worker blew up");
        }

        fn on_message(&mut self, _src: NodeId, _dst: NodeId, _msg: (), _cx: &mut Cx<'_, ()>) {}
    }

    #[test]
    fn a_panicking_shard_worker_fails_the_run_instead_of_hanging_it() {
        for workers in [1, 2] {
            let what = format!("{workers} worker(s): shard 1 panics at step 2");
            let payload = bounded(&what, move || {
                run_sharded_on(
                    workers,
                    NetworkModel::wan().min_hop_ticks(),
                    |shard| Bomb { armed: shard == 1 },
                    &wan_scenario(50, 5),
                    Heuristic::OneShot,
                    1,
                    "bomb".to_string(),
                    2,
                    None,
                );
            });
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("shard worker blew up"), "payload {msg:?}");
        }
    }

    #[test]
    fn derived_windows_match_tick_by_tick_execution_for_aggregation() {
        // Lossless static WAN: the window only reorders commuting pulls, so
        // the whole run — event and message counts, report positions,
        // estimates — is the tick-by-tick run's, in a fraction of the rounds.
        let scenario = wan_scenario(2_000, 60);
        for k in [2, 3, 4] {
            let (tick, _, by_tick) = run_agg_on(&scenario, k, None, Some(1), 77);
            let (win, _, by_window) = run_agg_on(&scenario, k, None, None, 77);
            assert_eq!(win.net, tick.net, "K={k}");
            assert_eq!(win.messages, tick.messages, "K={k}");
            assert_eq!(win.engine.dispatched, tick.engine.dispatched, "K={k}");
            assert_eq!(win.completed, tick.completed, "K={k}");
            assert_eq!(win.real_size.points, tick.real_size.points, "K={k}");
            assert_eq!(win.estimates.points.len(), tick.estimates.points.len());
            for (&(xw, yw), &(xt, yt)) in win.estimates.points.iter().zip(&tick.estimates.points) {
                assert_eq!(xw, xt, "K={k}: a report moved");
                assert!((yw - yt).abs() <= 1e-9 * yt.abs(), "K={k}: {yw} vs {yt}");
            }
            assert_eq!((by_tick.shards, by_tick.lookahead_ticks), (k, 1));
            assert_eq!((by_window.shards, by_window.lookahead_ticks), (k, 15));
            // At most 60 steps × (1 step round + ⌈399 / 15⌉ = 27 windows)
            // plus the drain after the last step; fewer where a step's
            // traffic has landed before the next step begins.
            assert!(
                by_window.barrier_rounds <= 60 * 28 + 40,
                "K={k}: {} rounds",
                by_window.barrier_rounds
            );
            assert!(by_tick.barrier_rounds > 10 * by_window.barrier_rounds);
        }
    }

    #[test]
    fn windows_never_cross_a_control_tick() {
        // Scheduled churn at steps, and a streamed heavy-tailed workload on
        // every step: the overlay changes only between rounds, so the truth
        // curve (stamped when a report is recorded) is the tick-by-tick one.
        let pareto = crate::spec::ScenarioSpec::parse("static:churn=pareto:alpha=1.5,mean=50")
            .unwrap()
            .resolve(1_000, 120);
        for scenario in [Scenario::catastrophic(1_000, 120), pareto] {
            let scenario = scenario.with_network(NetworkModel::wan());
            let (tick, _, _) = run_agg_on(&scenario, 2, None, Some(1), 13);
            let (win, _, sync) = run_agg_on(&scenario, 2, None, None, 13);
            assert_eq!(sync.lookahead_ticks, 15);
            assert!(!win.real_size.points.is_empty(), "{}", scenario.name);
            assert_eq!(
                win.real_size.points, tick.real_size.points,
                "{}",
                scenario.name
            );
        }
    }

    #[test]
    fn an_overstated_lookahead_fails_the_run_at_the_exchange() {
        // WAN hops can land 15 ticks out; a 50-tick window lets a shard run
        // past a delivery still buffered for it. The exchange guard must
        // turn that into a panic (through the same bounded-time path as a
        // worker failure), never into an event scheduled in the past.
        let payload = bounded("a 50-tick window over-states the WAN bound", || {
            run_agg_on(&wan_scenario(500, 5), 2, Some(2), Some(50), 3);
        });
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lookahead violated"), "payload {msg:?}");
    }
}
