//! The workload subsystem's end-to-end guarantees:
//!
//! * **Replay is exact** — a run whose churn was recorded to a JSONL trace
//!   is reproduced bit for bit by replaying that trace at the same seed
//!   (the model, and its whole randomness stream, absent).
//! * **Streaming ≡ materialization** — a count-op model's streamed output
//!   run through the workload path equals the same ops materialized into a
//!   plain `Scenario::schedule` and run through the scheduled path.
//! * **Workload churn composes with everything** — scheduled ops, every
//!   protocol class, and replications stay deterministic per seed.

use p2p_size_estimation::estimation::aggregation::{AggregationConfig, EpochedAggregation};
use p2p_size_estimation::estimation::{
    AsyncSampleCollide, Heuristic, HopsSampling, SampleCollide, SyncStep,
};
use p2p_size_estimation::experiments::runner::{run_scenario_des, Trace, WORKLOAD_SEED_STREAM};
use p2p_size_estimation::experiments::Scenario;
use p2p_size_estimation::overlay::churn::ChurnOp;
use p2p_size_estimation::overlay::Graph;
use p2p_size_estimation::sim::rng::{derive_seed, small_rng};
use p2p_size_estimation::workload::{WorkloadOp, WorkloadSource, WorkloadSpec};
use std::path::PathBuf;

const SEED: u64 = 20060619;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn assert_traces_identical(a: &Trace, b: &Trace, what: &str) {
    assert_eq!(a.completed, b.completed, "{what}: completions");
    assert_eq!(a.messages, b.messages, "{what}: message counters");
    assert_eq!(
        a.estimates.points.len(),
        b.estimates.points.len(),
        "{what}: estimate counts"
    );
    for (&(xa, ya), &(xb, yb)) in a.estimates.points.iter().zip(&b.estimates.points) {
        assert_eq!(xa.to_bits(), xb.to_bits(), "{what}: x mismatch");
        assert_eq!(ya.to_bits(), yb.to_bits(), "{what}: y mismatch at x={xa}");
    }
    for (&(xa, ya), &(xb, yb)) in a.real_size.points.iter().zip(&b.real_size.points) {
        assert_eq!(xa.to_bits(), xb.to_bits(), "{what}: truth x mismatch");
        assert_eq!(ya.to_bits(), yb.to_bits(), "{what}: truth y at x={xa}");
    }
}

/// The acceptance pin: record a heavy-tailed run, replay the trace, and
/// require the estimate series to match bit for bit — for every protocol
/// class.
#[test]
fn replaying_a_recorded_trace_reproduces_the_run_bit_for_bit() {
    let spec = WorkloadSpec::parse("pareto:alpha=1.5,mean=20").unwrap();
    let path = tmp("replay-pin.jsonl");
    let scenario =
        |workload: WorkloadSource| Scenario::static_network(1_200, 40).with_workload(workload);

    // Record with Sample&Collide driving the run.
    let recorded = {
        let mut sc = SyncStep(SampleCollide::cheap());
        run_scenario_des(
            &mut sc,
            &scenario(WorkloadSource::Record {
                spec: spec.clone(),
                path: path.clone(),
            }),
            Heuristic::OneShot,
            SEED,
            "rec",
        )
    };
    assert!(recorded.completed > 0, "the recorded run must estimate");
    assert!(path.exists(), "trace file written");

    // Replay: same seed, no model → identical run.
    let replayed = {
        let mut sc = SyncStep(SampleCollide::cheap());
        run_scenario_des(
            &mut sc,
            &scenario(WorkloadSource::Replay(path.clone())),
            Heuristic::OneShot,
            SEED,
            "rec",
        )
    };
    assert_traces_identical(&recorded, &replayed, "sample-collide replay");

    // The same trace drives the *other* classes too (same churn, their own
    // protocol draws) — and does so deterministically.
    for round in 0..2 {
        let mut hs = SyncStep(HopsSampling::paper());
        let a = run_scenario_des(
            &mut hs,
            &scenario(WorkloadSource::Replay(path.clone())),
            Heuristic::last10(),
            SEED + 1,
            "hs",
        );
        let mut agg = EpochedAggregation::new(AggregationConfig {
            rounds_per_estimate: 10,
        });
        let b = run_scenario_des(
            &mut agg,
            &scenario(WorkloadSource::Replay(path.clone())),
            Heuristic::OneShot,
            SEED + 2,
            "agg",
        );
        assert!(a.completed > 0 && b.completed > 0, "round {round}");
        // Identical truth series: the churn is the trace's, not the
        // protocol's.
        let truth_sc: Vec<f64> = recorded.real_size.points.iter().map(|&(_, y)| y).collect();
        let truth_hs: Vec<f64> = a.real_size.points.iter().map(|&(_, y)| y).collect();
        // HS reports every step like S&C, so the grids coincide.
        assert_eq!(truth_sc, truth_hs, "round {round}: churn differs");
    }
}

/// The trace pins the *scheduled* timeline too: scheduled ops are not
/// recorded (they re-execute from the replaying scenario), so replaying
/// under a scenario with a different schedule must be rejected instead of
/// silently diverging.
#[test]
#[should_panic(expected = "different scheduled-churn timeline")]
fn replaying_under_a_different_schedule_is_rejected() {
    let spec = WorkloadSpec::parse("pareto:alpha=2,mean=15").unwrap();
    let path = tmp("schedule-mismatch.jsonl");
    let mut sc = SyncStep(SampleCollide::cheap());
    run_scenario_des(
        &mut sc,
        &Scenario::growing(800, 20, 0.5).with_workload(WorkloadSource::Record {
            spec,
            path: path.clone(),
        }),
        Heuristic::OneShot,
        3,
        "x",
    );
    // Same size and steps, but a churn-free schedule: must not replay.
    let mut sc = SyncStep(SampleCollide::cheap());
    run_scenario_des(
        &mut sc,
        &Scenario::static_network(800, 20).with_workload(WorkloadSource::Replay(path)),
        Heuristic::OneShot,
        3,
        "x",
    );
}

/// Generating and recording must not change a run: the recorder only tees
/// ops out.
#[test]
fn recording_is_an_observer_generation_and_record_runs_match() {
    let spec = WorkloadSpec::parse("weibull:shape=0.6,mean=15").unwrap();
    let path = tmp("observer.jsonl");
    let mut sc = SyncStep(SampleCollide::cheap());
    let plain = run_scenario_des(
        &mut sc,
        &Scenario::static_network(900, 25).with_workload(WorkloadSource::Model(spec.clone())),
        Heuristic::OneShot,
        7,
        "x",
    );
    let mut sc = SyncStep(SampleCollide::cheap());
    let recorded = run_scenario_des(
        &mut sc,
        &Scenario::static_network(900, 25).with_workload(WorkloadSource::Record {
            spec,
            path: path.clone(),
        }),
        Heuristic::OneShot,
        7,
        "x",
    );
    assert_traces_identical(&plain, &recorded, "record-as-observer");
}

/// Satellite (b): a streamed count-op model equals the same ops
/// materialized into a plain schedule, for the same seed — the workload
/// path and the scheduled path are the same timeline.
#[test]
fn streamed_model_equals_materialized_schedule() {
    let spec = WorkloadSpec::parse("steady:join=3.5,leave=2.5").unwrap();
    let (n, steps) = (1_000usize, 30u64);

    // Materialize the model's op stream exactly as the runner would draw
    // it: the dedicated workload stream of this (seed, stream) pair.
    // SteadyModel ignores the graph, so a placeholder suffices.
    let mut model = spec.build(p2p_size_estimation::experiments::scenario::MAX_DEGREE);
    let mut wl_rng = small_rng(derive_seed(SEED, WORKLOAD_SEED_STREAM));
    let placeholder = Graph::with_nodes(0);
    model.on_init(&placeholder, &mut wl_rng);
    let mut schedule: Vec<(u64, ChurnOp)> = Vec::new();
    let mut out = Vec::new();
    for step in 1..=steps {
        out.clear();
        model.ops_at(step, &placeholder, &mut wl_rng, &mut out);
        for op in &out {
            match op {
                WorkloadOp::Churn(c) => schedule.push((step, *c)),
                WorkloadOp::LeaveNodes(_) => unreachable!("steady emits count ops only"),
            }
        }
    }
    assert!(!schedule.is_empty(), "the model must have produced churn");

    // Path 1: the streamed model.
    let mut sc = SyncStep(SampleCollide::cheap());
    let streamed = run_scenario_des(
        &mut sc,
        &Scenario::static_network(n, steps).with_workload(WorkloadSource::Model(spec)),
        Heuristic::OneShot,
        SEED,
        "x",
    );
    // Path 2: the materialized schedule through the historic scheduled path.
    let mut scheduled_scenario = Scenario::static_network(n, steps);
    scheduled_scenario.schedule = schedule;
    let mut sc = SyncStep(SampleCollide::cheap());
    let materialized =
        run_scenario_des(&mut sc, &scheduled_scenario, Heuristic::OneShot, SEED, "x");

    assert_traces_identical(&streamed, &materialized, "streamed vs materialized");
}

/// Scheduled arrivals under a session workload get lifetimes too
/// (`observe_external`): a +100% growing schedule composed with short
/// Pareto sessions must settle near the session equilibrium instead of
/// ratcheting up by an immortal +100%.
#[test]
fn scheduled_joiners_live_sessions_under_a_session_workload() {
    let spec = WorkloadSpec::parse("pareto:alpha=2,mean=10").unwrap();
    let scenario = Scenario::growing(1_000, 200, 1.0).with_workload(WorkloadSource::Model(spec));
    let mut sc = SyncStep(SampleCollide::cheap());
    let t = run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, 19, "x");
    let final_truth = t.real_size.points.last().unwrap().1;
    // Equilibrium ≈ (balanced arrivals 100/step + scheduled 5/step) × mean
    // lifetime 10 ≈ 1050. Immortal scheduled joiners would push ≥ 2000.
    assert!(
        final_truth < 1_600.0,
        "scheduled joiners must expire: final truth {final_truth}"
    );
    assert!(final_truth > 700.0, "population must not collapse either");
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Session churn under slot reuse, pinned against history. The golden
/// figures all run append-only overlays, so this is the run where departed
/// slots are re-let and every id the session model tracks can carry a
/// nonzero generation. The constant is FNV-1a over the Debug form of what
/// the run reports; a change to how sessions expire or how joiners are
/// stored must leave it where it is.
#[test]
fn slot_reusing_session_churn_matches_the_stored_golden() {
    let spec = WorkloadSpec::parse("pareto:alpha=1.5,mean=20").unwrap();
    let scenario = Scenario::static_network(3_000, 200)
        .with_slot_reuse()
        .with_workload(WorkloadSource::Model(spec));
    let mut sc = AsyncSampleCollide::cheap();
    let t = run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, SEED, "sc");
    assert!(t.completed > 0, "the run must estimate");
    let fingerprint = format!(
        "{:?}\n{:?}\n{:?}\n{}\n{:?}",
        t.estimates, t.real_size, t.messages, t.completed, t.net
    );
    assert_eq!(
        fnv1a(&fingerprint),
        0xae35_19c9_1c9a_0b11,
        "completed {}, net {:?}",
        t.completed,
        t.net
    );
}

/// Workload churn layers on top of scheduled ops (both fire), and stays
/// deterministic per seed.
#[test]
fn workload_composes_with_scheduled_ops_and_is_deterministic() {
    let spec = WorkloadSpec::parse("flash:at=10,frac=0.5,hold=5").unwrap();
    let mut scenario = Scenario::static_network(800, 20).with_workload(WorkloadSource::Model(spec));
    scenario
        .schedule
        .push((4, ChurnOp::Catastrophe { fraction: 0.25 }));

    let run = |seed: u64| {
        let mut sc = SyncStep(SampleCollide::cheap());
        run_scenario_des(&mut sc, &scenario, Heuristic::OneShot, seed, "x")
    };
    let a = run(11);
    let b = run(11);
    assert_traces_identical(&a, &b, "same seed");
    let at = |t: &Trace, step: f64| {
        t.real_size
            .points
            .iter()
            .find(|&&(x, _)| x == step)
            .map(|&(_, y)| y)
            .unwrap()
    };
    assert_eq!(at(&a, 4.0), 600.0, "scheduled catastrophe fired");
    assert_eq!(at(&a, 10.0), 900.0, "flash crowd fired on the churned size");
    assert_eq!(at(&a, 15.0), 600.0, "cohort left together");
    // Different seed → different churn draws → different truth somewhere.
    let c = run(12);
    assert_ne!(
        a.estimates.points, c.estimates.points,
        "distinct seeds must differ"
    );
}
