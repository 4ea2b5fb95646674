//! Reproducibility: identical seeds must give identical experiments —
//! including across the parallel replication runner, whose results must not
//! depend on thread scheduling.

use p2p_size_estimation::estimation::{HopsSampling, SampleCollide, SizeEstimator};
use p2p_size_estimation::experiments::figures;
use p2p_size_estimation::experiments::table::table1;
use p2p_size_estimation::experiments::ExperimentScale;
use p2p_size_estimation::overlay::builder::{BarabasiAlbert, GraphBuilder, HeterogeneousRandom};
use p2p_size_estimation::sim::parallel::map_replications;
use p2p_size_estimation::sim::rng::small_rng;
use p2p_size_estimation::sim::MessageCounter;

#[test]
fn graph_construction_is_deterministic() {
    for seed in [0u64, 1, 99] {
        let mut a = small_rng(seed);
        let mut b = small_rng(seed);
        let ga = HeterogeneousRandom::paper(2_000).build(&mut a);
        let gb = HeterogeneousRandom::paper(2_000).build(&mut b);
        assert_eq!(ga.edge_count(), gb.edge_count());
        for n in ga.alive_nodes() {
            assert_eq!(ga.neighbors(n), gb.neighbors(n));
        }
        let sa = BarabasiAlbert::paper(2_000).build(&mut a);
        let sb = BarabasiAlbert::paper(2_000).build(&mut b);
        assert_eq!(sa.edge_count(), sb.edge_count());
    }
}

#[test]
fn estimations_are_deterministic() {
    let run = |seed: u64| {
        let mut rng = small_rng(seed);
        let g = HeterogeneousRandom::paper(3_000).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let sc = SampleCollide::paper().estimate(&g, &mut rng, &mut msgs);
        let hs = HopsSampling::paper().estimate(&g, &mut rng, &mut msgs);
        (sc, hs, msgs)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7).2, run(8).2, "different seeds should differ");
}

#[test]
fn figures_are_deterministic() {
    let scale = ExperimentScale::tiny();
    for fig_no in [1u32, 7, 9, 15] {
        let a = figures::by_number(fig_no, &scale, 3).unwrap();
        let b = figures::by_number(fig_no, &scale, 3).unwrap();
        assert_eq!(a.series.len(), b.series.len(), "fig{fig_no}");
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.points, sb.points, "fig{fig_no}/{}", sa.name);
        }
    }
}

#[test]
fn table1_is_deterministic() {
    let a = table1(1_500, 4, 5);
    let b = table1(1_500, 4, 5);
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.mean_error_pct, rb.mean_error_pct);
        assert_eq!(ra.overhead_messages, rb.overhead_messages);
    }
}

/// The sim-path crates' `clippy.toml` forbids `HashMap`/`HashSet`, so no
/// order-unstable iteration can feed output; this pins the same property
/// dynamically — two identical runs streamed through the JSONL sink emit
/// byte-identical output.
#[test]
fn streamed_output_bytes_are_identical_across_runs() {
    use p2p_size_estimation::experiments::engine::{run_experiment, EngineOptions};
    use p2p_size_estimation::experiments::figures::spec_for;
    use p2p_size_estimation::experiments::sink::JsonLinesSink;

    let scale = ExperimentScale::tiny();
    let spec = spec_for(1, &scale).expect("fig 1 registered");
    let run = || {
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = JsonLinesSink::new(&mut buf);
            run_experiment(
                &spec,
                20060619,
                &EngineOptions {
                    jobs: Some(2),
                    ..EngineOptions::default()
                },
                &mut sink,
            );
        }
        buf
    };
    let a = run();
    assert!(!a.is_empty(), "the run should stream rows");
    assert_eq!(
        a,
        run(),
        "two identical runs must emit identical output bytes"
    );
}

#[test]
fn run_replications_sweeps_seeds_across_threads() {
    use p2p_size_estimation::estimation::{Heuristic, SampleCollide, SyncStep};
    use p2p_size_estimation::experiments::runner::run_replications_des;
    use p2p_size_estimation::experiments::Scenario;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    // Rendezvous: the first replication blocks until a second worker thread
    // checks in, proving the ≥8-replication sweep really fans out over
    // multiple OS threads (run_replications_des guarantees at least two workers
    // whenever there are at least two replications, even on one core).
    let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
    let both_seen = Condvar::new();

    let scenario = Scenario::static_network(300, 2);
    let traces = run_replications_des(
        |_| {
            let mut seen = ids.lock().unwrap();
            seen.insert(std::thread::current().id());
            both_seen.notify_all();
            while seen.len() < 2 {
                let (guard, timeout) = both_seen
                    .wait_timeout(seen, Duration::from_secs(10))
                    .unwrap();
                seen = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            SyncStep(SampleCollide::cheap())
        },
        &scenario,
        Heuristic::OneShot,
        7,
        8,
    );
    assert_eq!(traces.len(), 8);
    let distinct = ids.lock().unwrap().len();
    assert!(
        distinct >= 2,
        "an 8-replication sweep must spread over ≥2 threads, saw {distinct}"
    );

    // ... while staying bit-reproducible regardless of thread scheduling.
    let again = run_replications_des(
        |_| SyncStep(SampleCollide::cheap()),
        &scenario,
        Heuristic::OneShot,
        7,
        8,
    );
    for (a, b) in traces.iter().zip(&again) {
        assert_eq!(a.estimates.points, b.estimates.points);
        assert_eq!(a.messages, b.messages);
    }
}

#[test]
fn parallel_replications_independent_of_thread_count() {
    // The same work mapped over 1 thread and over 8 threads must agree:
    // seeds derive from the replication index, never from scheduling.
    let work = |i: usize, seed: u64| {
        let mut rng = small_rng(seed);
        let g = HeterogeneousRandom::paper(500 + i * 10).build(&mut rng);
        let mut msgs = MessageCounter::new();
        let est = SampleCollide::cheap().estimate(&g, &mut rng, &mut msgs);
        (est.map(|e| e.to_bits()), msgs.total())
    };
    let run = |threads: usize| {
        let mut out = Vec::new();
        map_replications(threads, 9, 12, work, |_, r| out.push(r));
        out
    };
    assert_eq!(run(1), run(8));
}
