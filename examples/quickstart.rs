//! Quickstart: estimate the size of an unstructured overlay three ways —
//! through the one `NodeProtocol` contract.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's heterogeneous random overlay (10,000 nodes, max
//! degree 10) and runs each candidate algorithm class once, printing the
//! estimate and what it cost in messages. All three classes — including the
//! round-driven epidemic Aggregation — go through the same contract: a
//! protocol is *stepped* (here by a `SizeMonitor`), and each step reports
//! an estimate, closes nothing yet, or fails. The same protocols then run
//! through the scenario driver `run_scenario_des` on a dynamic (growing)
//! overlay.

use p2p_size_estimation::estimation::aggregation::{AggregationConfig, EpochedAggregation};
use p2p_size_estimation::estimation::{Heuristic, NodeProtocol, SizeMonitor, SyncStep};
use p2p_size_estimation::estimation::{HopsSampling, SampleCollide};
use p2p_size_estimation::experiments::runner::run_scenario_des;
use p2p_size_estimation::experiments::Scenario;
use p2p_size_estimation::overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_size_estimation::overlay::metrics::degree_stats;
use p2p_size_estimation::sim::rng::small_rng;

fn main() {
    let n = 10_000;
    let mut rng = small_rng(42);

    // 1. Build the overlay: every node links to 1..=10 uniform random
    //    partners; links are bidirectional (paper §IV-A).
    let graph = HeterogeneousRandom::paper(n).build(&mut rng);
    let stats = degree_stats(&graph);
    println!(
        "overlay: {} nodes, avg degree {:.2} (min {}, max {})",
        n, stats.mean, stats.min, stats.max
    );
    println!(
        "true size (hidden from the algorithms): {}\n",
        graph.alive_count()
    );

    // 2. One estimation per class, all through `NodeProtocol`: a monitor
    //    ticks a protocol until it closes one reporting period — a single
    //    tick for the one-shot classes (wrapped in `SyncStep`), one 50-round
    //    epoch for the epidemic class.
    let protocols: Vec<Box<dyn NodeProtocol<Msg = ()>>> = vec![
        Box::new(SyncStep(SampleCollide::paper())), // random walks, l = 200
        Box::new(SyncStep(HopsSampling::paper())),  // probabilistic polling
        Box::new(EpochedAggregation::new(AggregationConfig::paper())), // push-pull averaging
    ];

    println!(
        "{:<16} {:>12} {:>10} {:>14}",
        "algorithm", "estimate", "quality%", "messages"
    );
    for mut protocol in protocols {
        let mut gauge = SizeMonitor::new(&mut *protocol, Heuristic::OneShot, 1);
        match (0..1_000).find_map(|_| gauge.tick(&graph, &mut rng)) {
            Some(reading) => println!(
                "{:<16} {:>12.0} {:>10.1} {:>14}",
                gauge.name(),
                reading.raw,
                100.0 * reading.raw / n as f64,
                gauge.total_messages().total()
            ),
            None => println!("{:<16} {:>12}", gauge.name(), "failed"),
        }
    }

    // 3. The same protocols over a *dynamic* scenario, through the single
    //    generic driver the figures use. The overlay grows by 50% while
    //    each protocol keeps estimating; the trace records estimates and
    //    ground truth at every reporting instant.
    println!("\n--- growing overlay (+50% over the timeline), unified driver ---");
    let polling_scenario = Scenario::growing(5_000, 30, 0.5);
    let mut sc = SyncStep(SampleCollide::paper());
    let sc_trace = run_scenario_des(&mut sc, &polling_scenario, Heuristic::OneShot, 7, "S&C");

    let epidemic_scenario = Scenario::growing(5_000, 150, 0.5); // steps = gossip rounds
    let mut agg = EpochedAggregation::new(AggregationConfig::paper());
    let agg_trace = run_scenario_des(&mut agg, &epidemic_scenario, Heuristic::OneShot, 7, "Agg");

    for (label, trace) in [("Sample&Collide", &sc_trace), ("Aggregation", &agg_trace)] {
        let (step, last) = *trace
            .estimates
            .points
            .last()
            .expect("completed estimations");
        let (_, truth) = *trace.real_size.points.last().unwrap();
        println!(
            "{label:<16} {:>3} reports, final estimate {last:>7.0} vs true {truth:>5.0} \
             ({:>6} messages)",
            trace.completed,
            trace.messages.total(),
        );
        let _ = step;
    }

    println!(
        "\nTrade-off (paper Table I): Sample&Collide is cheap and decent, HopsSampling\n\
         underestimates, Aggregation is near-exact but costs 2 messages per node per round."
    );
}
