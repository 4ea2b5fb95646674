//! Cross-crate integration: dynamic scenarios (§IV-D) end to end.

use p2p_size_estimation::estimation::aggregation::{AggregationConfig, EpochedAggregation};
use p2p_size_estimation::estimation::{Heuristic, HopsSampling, SampleCollide, SyncStep};
use p2p_size_estimation::experiments::runner::run_scenario_des;
use p2p_size_estimation::experiments::Scenario;
use p2p_size_estimation::overlay::{churn::ChurnDelta, connectivity};
use p2p_size_estimation::sim::rng::small_rng;
use p2p_size_estimation::workload::{ChurnModel, SteadyModel};

const N: usize = 4_000;

/// Mean |estimate − truth|/truth over the matched points of a trace.
fn tracking_error(trace: &p2p_size_estimation::experiments::runner::Trace) -> f64 {
    let mut err = 0.0;
    let mut count = 0;
    for &(x, est) in &trace.estimates.points {
        if let Some(&(_, truth)) = trace.real_size.points.iter().find(|&&(rx, _)| rx == x) {
            err += (est - truth).abs() / truth;
            count += 1;
        }
    }
    assert!(count > 0, "no matched points");
    err / count as f64
}

#[test]
fn sample_collide_tracks_catastrophic_failures() {
    let scenario = Scenario::catastrophic(N, 60);
    let mut sc = SyncStep(SampleCollide::paper());
    let trace = run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, 1, "est");
    // §IV-D(i): "the algorithm reacts very well to changes, even brutal".
    assert!(trace.completed >= 58);
    let err = tracking_error(&trace);
    assert!(err < 0.15, "tracking error {err}");
}

#[test]
fn sample_collide_tracks_growth_and_shrink() {
    for scenario in [
        Scenario::growing(N, 50, 0.5),
        Scenario::shrinking(N, 50, 0.5),
    ] {
        let mut sc = SyncStep(SampleCollide::paper());
        let trace = run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, 2, "est");
        let err = tracking_error(&trace);
        assert!(err < 0.15, "{}: tracking error {err}", scenario.name);
    }
}

#[test]
fn hops_sampling_lags_but_follows() {
    let scenario = Scenario::catastrophic(N, 60);
    let mut hs = SyncStep(HopsSampling::paper());
    let trace = run_scenario_des(&mut hs, &scenario, Heuristic::last10(), 3, "est");
    // §IV-D(j): results remain slightly underestimated with higher variation
    // than Sample&Collide, but no breakdown.
    let err = tracking_error(&trace);
    assert!(err < 0.45, "tracking error {err}");
}

#[test]
fn aggregation_follows_growth_but_breaks_under_heavy_shrink() {
    let grow = Scenario::growing(N, 1_000, 0.5);
    let shrink = Scenario::shrinking(N, 1_000, 0.5);
    let mut g_agg = EpochedAggregation::new(AggregationConfig::paper());
    let mut s_agg = EpochedAggregation::new(AggregationConfig::paper());
    let g_trace = run_scenario_des(&mut g_agg, &grow, Heuristic::OneShot, 4, "est");
    let s_trace = run_scenario_des(&mut s_agg, &shrink, Heuristic::OneShot, 4, "est");
    let g_err = tracking_error(&g_trace);
    let s_err = tracking_error(&s_trace);
    // §IV-D(k): "fairly good adaptation to a growing network" vs "does not
    // cope well with the decrease of the network size".
    assert!(g_err < 0.15, "growing error {g_err}");
    assert!(
        s_err > g_err,
        "shrinking error {s_err} should exceed growing error {g_err}"
    );
}

#[test]
fn shrink_breakdown_coincides_with_connectivity_loss() {
    // The paper attributes the Aggregation breakdown to overlay
    // fragmentation ("we believe that this is due to the loss of
    // connectivity of the overlay"): verify the substrate produces exactly
    // that — no-repair departures fragment the graph past heavy loss.
    let mut rng = small_rng(5);
    let scenario = Scenario::shrinking(N, 100, 0.5);
    let mut graph = scenario.build_overlay(&mut rng);
    let mut fractions = Vec::new();
    for step in 0..=scenario.steps {
        for op in scenario.ops_at(step) {
            op.apply(&mut graph, &mut rng);
        }
        if step % 20 == 0 {
            fractions.push(connectivity::largest_component_fraction(&graph));
        }
    }
    assert!(fractions[0] > 0.999, "initially connected");
    let last = *fractions.last().unwrap();
    assert!(
        last < fractions[0],
        "connectivity should degrade: {fractions:?}"
    );
}

#[test]
fn catastrophe_then_rejoin_recovers_population() {
    let mut rng = small_rng(6);
    let scenario = Scenario::catastrophic(N, 100);
    let mut graph = scenario.build_overlay(&mut rng);
    for step in 0..=scenario.steps {
        for op in scenario.ops_at(step) {
            op.apply(&mut graph, &mut rng);
        }
    }
    // 4000 → 3000 → 2250 → +1000 = 3250.
    assert_eq!(graph.alive_count(), 3_250);
    graph.check_invariants().unwrap();
}

#[test]
fn steady_churn_preserves_graph_invariants() {
    let mut rng = small_rng(7);
    let mut graph = Scenario::static_network(1_000, 1).build_overlay(&mut rng);
    let mut churn = SteadyModel {
        arrival_rate: 3.0,
        departure_rate: 3.0,
        max_degree: 10,
    };
    let (mut ops, mut delta) = (Vec::new(), ChurnDelta::default());
    for step in 1..=300 {
        ops.clear();
        churn.ops_at(step, &graph, &mut rng, &mut ops);
        for op in &ops {
            op.apply(&mut graph, &mut rng, &mut delta);
        }
    }
    graph.check_invariants().unwrap();
    // Population stays near 1000 under balanced churn.
    let n = graph.alive_count();
    assert!((700..1_300).contains(&n), "population {n}");
}
