//! Golden-trace equivalence: the unified protocol-generic `run_scenario_des`
//! reproduces the historic dual-path runners (`run_polling_scenario` /
//! `run_aggregation_scenario`) bit for bit at fixed seeds.
//!
//! The two historic loops are preserved *here*, verbatim, as executable
//! golden specifications:
//!
//! * the polling runner shares the unified driver's timeline convention
//!   (steps `1..=steps`, churn at step `s` before that step), so its traces
//!   must match the unified driver's exactly — every bit of every series,
//!   message counter and completion count;
//! * the aggregation runner indexed rounds `0..steps` with churn at round
//!   `r` applied before round `r`. The same physical timeline expressed in
//!   the unified 1-based convention (op at `r` → step `r+1`) must produce
//!   bit-identical estimates, truth values, message counters and completion
//!   counts, with the x axis shifted by exactly the +1 re-indexing.
//!
//! The one *intended* semantic difference — the historic aggregation loop
//! silently dropped churn ops scheduled at or beyond the final round — is
//! pinned by `final_step_churn_applies_to_both_classes` in the runner's unit
//! tests; the comparisons here use schedules both paths execute.

use p2p_size_estimation::estimation::aggregation::{AggregationConfig, EpochedAggregation};
use p2p_size_estimation::estimation::{
    Heuristic, HopsSampling, SampleCollide, SizeEstimator, Smoother, SyncStep,
};
use p2p_size_estimation::experiments::runner::{run_scenario_des, Trace};
use p2p_size_estimation::experiments::Scenario;
use p2p_size_estimation::overlay::churn::ChurnOp;
use p2p_size_estimation::sim::engine::Engine;
use p2p_size_estimation::sim::network::NetworkModel;
use p2p_size_estimation::sim::rng::small_rng;
use p2p_size_estimation::sim::{MessageCounter, NetStats, SimTime};
use p2p_size_estimation::stats::Series;

enum Event {
    Churn(ChurnOp),
    Estimate { step: u64 },
}

/// The pre-unification polling runner, copied verbatim from the seed.
fn reference_polling_scenario<E: SizeEstimator>(
    estimator: &mut E,
    scenario: &Scenario,
    heuristic: Heuristic,
    seed: u64,
    series_name: &str,
) -> Trace {
    let mut rng = small_rng(seed);
    let mut graph = scenario.build_overlay(&mut rng);
    let mut msgs = MessageCounter::new();
    let mut smoother = Smoother::new(heuristic);

    let mut engine: Engine<Event> = Engine::new();
    for &(step, op) in &scenario.schedule {
        engine.schedule_at(SimTime(step), Event::Churn(op));
    }
    for step in 1..=scenario.steps {
        engine.schedule_at(SimTime(step), Event::Estimate { step });
    }

    let mut estimates = Series::new(series_name);
    let mut real_size = Series::new("real size");
    let mut completed = 0usize;
    engine.run(|_, _, event| match event {
        Event::Churn(op) => {
            op.apply(&mut graph, &mut rng);
        }
        Event::Estimate { step } => {
            if let Some(raw) = estimator.estimate(&graph, &mut rng, &mut msgs) {
                estimates.push(step as f64, smoother.apply(raw));
                completed += 1;
            }
            real_size.push(step as f64, graph.alive_count() as f64);
        }
    });

    Trace {
        estimates,
        real_size,
        messages: msgs,
        completed,
        net: NetStats::default(),
        engine: p2p_size_estimation::sim::EngineStats::default(),
    }
}

/// The pre-unification aggregation runner, copied verbatim from the seed.
fn reference_aggregation_scenario(
    config: AggregationConfig,
    scenario: &Scenario,
    seed: u64,
    series_name: &str,
) -> Trace {
    let mut rng = small_rng(seed);
    let mut graph = scenario.build_overlay(&mut rng);
    let mut msgs = MessageCounter::new();
    let mut agg = EpochedAggregation::new(config);

    let mut estimates = Series::new(series_name);
    let mut real_size = Series::new("real size");
    let mut completed = 0usize;
    let epoch_len = config.rounds_per_estimate as u64;

    for round in 0..scenario.steps {
        for op in scenario.ops_at(round) {
            op.apply(&mut graph, &mut rng);
        }
        if round % epoch_len == 0 {
            agg.start_epoch(&graph, &mut rng);
        }
        agg.run_round(&graph, &mut rng, &mut msgs);
        if round % epoch_len == epoch_len - 1 {
            if let Some(est) = agg.current_estimate(&graph, &mut rng) {
                estimates.push(round as f64, est);
                completed += 1;
            }
            real_size.push(round as f64, graph.alive_count() as f64);
        }
    }

    Trace {
        estimates,
        real_size,
        messages: msgs,
        completed,
        net: NetStats::default(),
        engine: p2p_size_estimation::sim::EngineStats::default(),
    }
}

fn assert_series_identical(unified: &Series, reference: &Series, what: &str) {
    assert_eq!(
        unified.points.len(),
        reference.points.len(),
        "{what}: point counts differ"
    );
    for (&(xu, yu), &(xr, yr)) in unified.points.iter().zip(&reference.points) {
        assert_eq!(xu.to_bits(), xr.to_bits(), "{what}: x mismatch");
        assert_eq!(yu.to_bits(), yr.to_bits(), "{what}: y mismatch at x={xu}");
    }
}

fn assert_series_identical_shifted(unified: &Series, reference: &Series, what: &str) {
    assert_eq!(
        unified.points.len(),
        reference.points.len(),
        "{what}: point counts differ"
    );
    for (&(xu, yu), &(xr, yr)) in unified.points.iter().zip(&reference.points) {
        assert_eq!(xu, xr + 1.0, "{what}: x must shift by the +1 re-indexing");
        assert_eq!(yu.to_bits(), yr.to_bits(), "{what}: y mismatch at x={xu}");
    }
}

#[test]
fn sample_collide_golden_traces_match_reference() {
    let scenarios = [
        Scenario::static_network(800, 10),
        Scenario::catastrophic(1_500, 15),
        // Ops at steps 0, 1 and 2: the reference applies step-0 ops at
        // tick 0, ahead of step 1's estimate.
        Scenario::catastrophic(1_500, 3),
        Scenario::growing(1_000, 12, 0.4),
        Scenario::shrinking(1_000, 12, 0.3),
    ];
    for scenario in &scenarios {
        for seed in [1u64, 42] {
            let mut reference_est = SampleCollide::cheap();
            let reference = reference_polling_scenario(
                &mut reference_est,
                scenario,
                Heuristic::OneShot,
                seed,
                "x",
            );
            let mut unified_est = SyncStep(SampleCollide::cheap());
            let unified =
                run_scenario_des(&mut unified_est, scenario, Heuristic::OneShot, seed, "x");
            assert_eq!(unified.completed, reference.completed, "{}", scenario.name);
            assert_eq!(unified.messages, reference.messages, "{}", scenario.name);
            assert_series_identical(&unified.estimates, &reference.estimates, &scenario.name);
            assert_series_identical(&unified.real_size, &reference.real_size, &scenario.name);
        }
    }
}

#[test]
fn hops_sampling_golden_trace_matches_reference_with_smoothing() {
    // The smoothed heuristic path must agree too: the smoother state
    // advances identically on both sides.
    let scenario = Scenario::catastrophic(1_200, 12);
    let mut reference_est = HopsSampling::paper();
    let reference =
        reference_polling_scenario(&mut reference_est, &scenario, Heuristic::last10(), 9, "hs");
    let mut unified_est = SyncStep(HopsSampling::paper());
    let unified = run_scenario_des(&mut unified_est, &scenario, Heuristic::last10(), 9, "hs");
    assert_eq!(unified.completed, reference.completed);
    assert_eq!(unified.messages, reference.messages);
    assert_series_identical(&unified.estimates, &reference.estimates, "hops sampling");
    assert_series_identical(&unified.real_size, &reference.real_size, "hops sampling");
}

#[test]
fn aggregation_golden_traces_match_reference() {
    let config = AggregationConfig {
        rounds_per_estimate: 25,
    };
    let reference_scenario = Scenario {
        name: "golden-agg".to_string(),
        initial_size: 1_200,
        steps: 150,
        schedule: vec![
            (40, ChurnOp::Catastrophe { fraction: 0.25 }),
            (
                90,
                ChurnOp::Join {
                    count: 150,
                    max_degree: 10,
                },
            ),
        ],
        topology: p2p_size_estimation::experiments::Topology::Heterogeneous,
        network: NetworkModel::ideal(),
        workload: None,
        reuse_slots: false,
    };
    // The same physical timeline in the unified convention: the historic
    // loop applied an op scheduled at `r` before 0-based round `r`; the
    // unified driver applies an op at `s` before 1-based step `s`, and round
    // `r` is step `r + 1`.
    let mut unified_scenario = reference_scenario.clone();
    for (step, _) in &mut unified_scenario.schedule {
        *step += 1;
    }

    for seed in [3u64, 77, 2024] {
        let reference = reference_aggregation_scenario(config, &reference_scenario, seed, "agg");
        let mut agg = EpochedAggregation::new(config);
        let unified =
            run_scenario_des(&mut agg, &unified_scenario, Heuristic::OneShot, seed, "agg");
        assert_eq!(unified.completed, reference.completed, "seed {seed}");
        assert_eq!(unified.messages, reference.messages, "seed {seed}");
        assert_series_identical_shifted(&unified.estimates, &reference.estimates, "estimates");
        assert_series_identical_shifted(&unified.real_size, &reference.real_size, "real size");
        // Sanity on the comparison itself: churn must actually have fired.
        let first_truth = reference.real_size.points.first().unwrap().1;
        let last_truth = reference.real_size.points.last().unwrap().1;
        assert_ne!(first_truth, last_truth, "schedule visibly moved the truth");
    }
}

#[test]
fn aggregation_golden_trace_matches_on_churn_free_timeline() {
    // With no churn at all the two conventions coincide except for the
    // x re-indexing; completion counts and totals must agree on a timeline
    // that is not a multiple of the epoch length (trailing partial epoch).
    let config = AggregationConfig {
        rounds_per_estimate: 20,
    };
    let scenario = Scenario::static_network(900, 70);
    let reference = reference_aggregation_scenario(config, &scenario, 5, "agg");
    let mut agg = EpochedAggregation::new(config);
    let unified = run_scenario_des(&mut agg, &scenario, Heuristic::OneShot, 5, "agg");
    assert_eq!(reference.completed, 3, "70 rounds / 20-round epochs");
    assert_eq!(unified.completed, reference.completed);
    assert_eq!(unified.messages, reference.messages);
    assert_series_identical_shifted(&unified.estimates, &reference.estimates, "estimates");
}
