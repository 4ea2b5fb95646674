//! Message-level DES integration tests: the golden zero-latency contract,
//! determinism under latency + loss, the loss-monotonicity property, graph
//! invariants under delivery/churn interleavings, and how far each class's
//! round-driven (sync) form agrees with its event-driven (async) form over
//! an ideal network.
//!
//! (The companion file `golden_trace.rs` pins the deeper half of the
//! contract: the network-routed `run_scenario_des` reproduces the *historic*
//! pre-network round-driven loops bit for bit.)

use p2p_size_estimation::estimation::aggregation::AggregationConfig;
use p2p_size_estimation::estimation::{
    with_async_protocol, AsyncAggregation, AsyncHopsSampling, AsyncSampleCollide, Heuristic,
    ProtocolSpec, SampleCollide, SizeMonitor, SyncStep,
};
use p2p_size_estimation::experiments::runner::{run_scenario_des, Trace};
use p2p_size_estimation::experiments::Scenario;
use p2p_size_estimation::overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_size_estimation::overlay::churn;
use p2p_size_estimation::sim::network::NetworkModel;
use p2p_size_estimation::sim::rng::small_rng;
use p2p_size_estimation::sim::{HopLatency, MessageCounter, MessageKind};
use p2p_size_estimation::stats::summary::summarize;
use proptest::prelude::*;

/// What a run reported and what it was charged: the part of a [`Trace`] the
/// sync and async forms of a protocol can share. (`net` and `engine` differ
/// between the forms by design — the sync adapter routes nothing.)
fn assert_reports_identical(a: &Trace, b: &Trace, what: &str) {
    assert_eq!(a.completed, b.completed, "{what}: completed");
    assert_eq!(a.messages, b.messages, "{what}: messages");
    assert_eq!(a.estimates.points.len(), b.estimates.points.len(), "{what}");
    for (&(xa, ya), &(xb, yb)) in a.estimates.points.iter().zip(&b.estimates.points) {
        assert_eq!(xa.to_bits(), xb.to_bits(), "{what}: x");
        assert_eq!(ya.to_bits(), yb.to_bits(), "{what}: y at x={xa}");
    }
    assert_eq!(a.real_size.points, b.real_size.points, "{what}: truth");
}

fn assert_traces_identical(a: &Trace, b: &Trace, what: &str) {
    assert_reports_identical(a, b, what);
    assert_eq!(a.net, b.net, "{what}: net stats");
}

/// One spec, one scenario, one seed, in either execution form — what `repro
/// run --mode sync` / `--mode async` build.
fn run_form(spec: ProtocolSpec, scenario: &Scenario, seed: u64, sync: bool) -> Trace {
    if sync {
        let mut p = spec.build_sync();
        run_scenario_des(&mut *p, scenario, Heuristic::OneShot, seed, "x")
    } else {
        with_async_protocol!(spec.build_async(), mut p => {
            run_scenario_des(&mut p, scenario, Heuristic::OneShot, seed, "x")
        })
    }
}

#[test]
fn sync_protocols_cannot_feel_the_network_model() {
    // The zero-latency/zero-loss golden contract, stated the other way
    // round: a round-driven protocol runs through the synchronous adapter,
    // which executes each step atomically — so its trace over *any*
    // network model is bit-for-bit the ideal-network (historic) trace.
    let ideal = Scenario::catastrophic(1_200, 12);
    let hostile = ideal
        .clone()
        .with_network(NetworkModel::wan().with_drop_rate(0.5));
    for seed in [1u64, 99] {
        let mut a = SyncStep(SampleCollide::cheap());
        let mut b = SyncStep(SampleCollide::cheap());
        let ta = run_scenario_des(&mut a, &ideal, Heuristic::OneShot, seed, "x");
        let tb = run_scenario_des(&mut b, &hostile, Heuristic::OneShot, seed, "x");
        assert_traces_identical(&ta, &tb, "sync over hostile network");
        assert_eq!(tb.net.sent, 0, "the adapter routes no messages");
    }
}

#[test]
fn step_cadence_does_not_change_ideal_traces() {
    // The step grid stretches with step_ticks but x positions are step
    // indices: an ideal-network trace is cadence-invariant.
    let base = Scenario::growing(1_000, 10, 0.5);
    let stretched = base
        .clone()
        .with_network(NetworkModel::ideal().with_step_ticks(250));
    let mut a = SyncStep(SampleCollide::cheap());
    let mut b = SyncStep(SampleCollide::cheap());
    let ta = run_scenario_des(&mut a, &base, Heuristic::OneShot, 7, "x");
    let tb = run_scenario_des(&mut b, &stretched, Heuristic::OneShot, 7, "x");
    assert_traces_identical(&ta, &tb, "cadence invariance");
}

#[test]
fn all_three_classes_run_under_latency_and_loss_deterministically() {
    // The acceptance criterion: a NetworkModel with nonzero latency and
    // drop rate runs all three algorithm classes end-to-end, and the run is
    // reproducible bit for bit from its seed.
    let model = NetworkModel::ideal()
        .with_latency(HopLatency::Uniform { lo: 5.0, hi: 60.0 })
        .with_link_spread(0.3)
        .with_drop_rate(0.02)
        .with_step_ticks(1_500);
    let poll = Scenario::growing(800, 10, 0.5).with_network(model);
    let rounds = Scenario::growing(800, 60, 0.5).with_network(model);

    let run_twice = |mut make: Box<dyn FnMut() -> Trace>, what: &str| -> Trace {
        let a = make();
        let b = make();
        assert_traces_identical(&a, &b, what);
        a
    };

    let sc = run_twice(
        Box::new(|| {
            let mut p = AsyncSampleCollide::cheap().with_timeout(100);
            run_scenario_des(&mut p, &poll, Heuristic::OneShot, 42, "sc")
        }),
        "Sample&Collide",
    );
    let hs = run_twice(
        Box::new(|| {
            let mut p = AsyncHopsSampling::paper();
            run_scenario_des(&mut p, &poll, Heuristic::last10(), 42, "hs")
        }),
        "HopsSampling",
    );
    let agg = run_twice(
        Box::new(|| {
            let mut p = AsyncAggregation::new(AggregationConfig {
                rounds_per_estimate: 20,
            });
            run_scenario_des(&mut p, &rounds, Heuristic::OneShot, 42, "agg")
        }),
        "Aggregation",
    );

    for (t, what) in [(&sc, "sc"), (&hs, "hs"), (&agg, "agg")] {
        assert!(t.net.sent > 0, "{what}: messages flowed");
        assert!(t.net.dropped > 0, "{what}: the model dropped some");
        assert_eq!(t.messages.total(), t.net.sent, "{what}: all traffic routed");
    }
    // The gossip classes keep reporting under 2% loss; a multi-thousand-hop
    // walk chain rarely survives it, so Sample&Collide merely must not
    // out-report its scheduled slots.
    assert!(hs.completed >= 8, "hs completed {}", hs.completed);
    assert!(agg.completed >= 2, "agg completed {}", agg.completed);
    assert!(sc.completed <= 10);
    // Sample&Collide sets no timers, so every event the wheel dispatched is
    // a step or a delivered message: a dropped message never enters it.
    assert_eq!(
        sc.engine.dispatched,
        poll.steps + sc.net.sent - sc.net.dropped,
        "sc: drops are counted at send time, never queued"
    );
}

#[test]
fn sample_collide_sync_and_async_on_ideal_are_the_same_run() {
    // Over the ideal network (zero latency, zero loss) a walk token is the
    // only thing in flight, so the event-driven form draws from the RNG in
    // exactly the round-driven form's order: same estimates, same truth,
    // same per-kind message bill, churn or not. The async form pays for
    // that with an event per hop — measured 2.4–4.5× the sync wall time on
    // `repro run` (0.18 → 0.81 s at n = 2 000 / l = 50, 0.50 → 1.20 s at
    // n = 100 000 / l = 200) — which is why both forms still exist: the
    // figures run the sync one. A unification must keep this identity.
    let scenarios = [
        Scenario::static_network(2_000, 8),
        Scenario::catastrophic(2_000, 8),
        Scenario::growing(2_000, 8, 0.5),
        Scenario::shrinking(2_000, 8, 0.5),
    ];
    for scenario in &scenarios {
        for l in [10u32, 50] {
            let spec = ProtocolSpec::parse(&format!("sample-collide:l={l}")).unwrap();
            for seed in [3u64, 4101] {
                let sync = run_form(spec, scenario, seed, true);
                let des = run_form(spec, scenario, seed, false);
                let what = format!("{} l={l} seed={seed}", scenario.name);
                assert_reports_identical(&sync, &des, &what);
                assert_eq!(sync.completed, 8, "{what}: every step reports");
            }
        }
    }
}

#[test]
fn gossip_classes_agree_between_sync_and_async_in_distribution() {
    // HopsSampling and epoched Aggregation interleave many messages per
    // step, so their async forms consume the RNG in a different order:
    // the two forms agree in distribution, not bit for bit. Pooled over
    // nine replications each, quality (estimate / truth) and the cost of
    // one reported estimate, kind by kind, must match.
    let rounds30 = ProtocolSpec::parse("aggregation:rounds=30").unwrap();
    let cases = [
        (
            ProtocolSpec::hops_sampling_paper(),
            Scenario::static_network(3_000, 24),
        ),
        (rounds30, Scenario::static_network(2_000, 60)),
    ];
    for (spec, scenario) in &cases {
        let pooled = |sync: bool| {
            let mut quality = Vec::new();
            let mut messages = MessageCounter::new();
            let mut reports = 0;
            for seed in 5_200..5_209u64 {
                let t = run_form(*spec, scenario, seed, sync);
                let truth = t.real_size.points.iter();
                quality.extend(t.estimates.points.iter().zip(truth).map(|(e, r)| e.1 / r.1));
                messages.merge(&t.messages);
                reports += t.completed;
            }
            (summarize(&quality), messages, reports)
        };
        let (q_sync, m_sync, r_sync) = pooled(true);
        let (q_des, m_des, r_des) = pooled(false);
        let what = spec.key();
        assert_eq!(r_sync, r_des, "{what}: both forms report every slot");
        assert!(
            (q_sync.mean - q_des.mean).abs() < 0.03,
            "{what}: mean quality {} vs {}",
            q_sync.mean,
            q_des.mean
        );
        assert!(
            (q_sync.median - q_des.median).abs() < 0.03,
            "{what}: median quality {} vs {}",
            q_sync.median,
            q_des.median
        );
        for kind in MessageKind::ALL {
            let s = m_sync.get(kind) as f64 / r_sync as f64;
            let d = m_des.get(kind) as f64 / r_des as f64;
            assert!(
                (s - d).abs() <= 0.10 * s.max(d),
                "{what}: {kind:?} per estimate {s} vs {d}"
            );
        }
    }
}

#[test]
fn enabling_loss_never_increases_completed_reports() {
    // Over an instantaneous network every Sample&Collide estimation
    // completes within its step; each dropped message fails the estimation
    // whose token it carried, so per seed: completed(loss) ≤ completed(0).
    let steps = 12;
    let base = Scenario::static_network(400, steps);
    let lossy = base
        .clone()
        .with_network(NetworkModel::ideal().with_drop_rate(0.25));
    let mut lost_something = false;
    for seed in 0..6u64 {
        let mut a = AsyncSampleCollide::cheap();
        let ideal = run_scenario_des(&mut a, &base, Heuristic::OneShot, seed, "x");
        assert_eq!(
            ideal.completed as u64, steps,
            "seed {seed}: lossless runs all"
        );

        let mut b = AsyncSampleCollide::cheap();
        let dropped = run_scenario_des(&mut b, &lossy, Heuristic::OneShot, seed, "x");
        assert!(
            dropped.completed <= ideal.completed,
            "seed {seed}: loss must not add reports ({} > {})",
            dropped.completed,
            ideal.completed
        );
        lost_something |= dropped.completed < ideal.completed;
    }
    assert!(lost_something, "25% loss should visibly cost reports");
}

/// One churn action in a generated interleaving.
#[derive(Clone, Debug)]
enum Op {
    Join(u8),
    Leave(u8),
    Catastrophe(u8), // percent 0..=40
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..20).prop_map(Op::Join),
        (1u8..20).prop_map(Op::Leave),
        (0u8..=40).prop_map(Op::Catastrophe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn graph_invariants_hold_under_delivery_churn_interleavings(
        seed in any::<u64>(),
        ops in prop::collection::vec(op_strategy(), 1..10),
    ) {
        // A latency-laden network keeps exchanges in flight across churn
        // ops: every delivery then races departures, and the overlay must
        // stay consistent through any interleaving of the two.
        let mut rng = small_rng(seed);
        let mut graph = HeterogeneousRandom::new(300, 6).build(&mut rng);
        let mut mon = SizeMonitor::with_network(
            AsyncAggregation::new(AggregationConfig { rounds_per_estimate: 4 }),
            Heuristic::OneShot,
            1,
            NetworkModel::ideal()
                .with_latency(HopLatency::Uniform { lo: 10.0, hi: 250.0 })
                .with_drop_rate(0.05)
                .with_step_ticks(120),
            seed ^ 0xA5A5,
        );
        for op in ops {
            match op {
                Op::Join(k) => churn::join_nodes(&mut graph, k as usize, 6, &mut rng),
                Op::Leave(k) => {
                    churn::remove_random_nodes(&mut graph, k as usize, &mut rng);
                }
                Op::Catastrophe(pct) => {
                    churn::catastrophic_failure(&mut graph, pct as f64 / 100.0, &mut rng);
                }
            }
            graph.check_invariants().map_err(TestCaseError::fail)?;
            // One estimation's worth of deliveries against the churned
            // overlay (drives a 4-round epoch plus stragglers).
            let closed = mon.reports() + mon.failures();
            while mon.reports() + mon.failures() == closed {
                prop_assert!(mon.ticks() < 100_000, "no reporting period closed");
                mon.tick(&graph, &mut rng);
            }
            graph.check_invariants().map_err(TestCaseError::fail)?;
        }
        // Deliveries to departed nodes were reclassified, not handled.
        prop_assert!(mon.net_stats().in_flight() <= mon.net_stats().sent);
    }
}
