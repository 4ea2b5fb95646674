//! A live size gauge over a churning overlay, the way an application would
//! actually deploy it: a [`SizeMonitor`] estimation loop on top of a
//! gossip membership service, with churn running underneath.
//!
//! ```text
//! cargo run --release --example live_monitor
//! ```
//!
//! Combines three pieces of the workspace:
//! * `PeerSamplingService` — the membership substrate (§II's peer-sampling
//!   references) keeping per-node partial views fresh under churn;
//! * `SteadyModel` — the paper's "constant nodes arrivals and departures"
//!   as Poisson joins and leaves per tick;
//! * `SizeMonitor` — the perpetual estimation loop of §IV-D, generic over
//!   any `NodeProtocol`. Two gauges run side by side: reactive
//!   Sample&Collide (one reading per tick, through the `SyncStep` adapter)
//!   and the round-driven epidemic Aggregation (one tick = one gossip round;
//!   one reading per epoch).

use p2p_size_estimation::estimation::aggregation::{AggregationConfig, EpochedAggregation};
use p2p_size_estimation::estimation::monitor::SizeMonitor;
use p2p_size_estimation::estimation::{Heuristic, SampleCollide, SyncStep};
use p2p_size_estimation::overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_size_estimation::overlay::churn::ChurnDelta;
use p2p_size_estimation::overlay::membership::PeerSamplingService;
use p2p_size_estimation::sim::rng::small_rng;
use p2p_size_estimation::workload::{ChurnModel, SteadyModel};

fn main() {
    let mut rng = small_rng(77);
    let mut graph = HeterogeneousRandom::paper(8_000).build(&mut rng);
    let mut membership = PeerSamplingService::bootstrap(&graph, 16, 8, &mut rng);
    let mut walk_gauge = SizeMonitor::new(
        SyncStep(SampleCollide::cheap()),
        Heuristic::LastKRuns(5),
        32,
    );
    // The epidemic gauge needs the paper's full 50-round epochs: shorter
    // epochs cannot even reach all ~8000 nodes (participation alone takes
    // ~log₂ N ≈ 13 rounds), let alone converge. One reading per 50 ticks.
    let mut epidemic_gauge = SizeMonitor::new(
        EpochedAggregation::new(AggregationConfig::paper()),
        Heuristic::OneShot,
        32,
    );

    // Net drift: +8/tick for the first half (growth), then -16/tick (decline).
    let mut growth = SteadyModel {
        arrival_rate: 12.0,
        departure_rate: 4.0,
        max_degree: 10,
    };
    let mut decline = SteadyModel {
        arrival_rate: 4.0,
        departure_rate: 20.0,
        max_degree: 10,
    };
    let (mut ops, mut delta) = (Vec::new(), ChurnDelta::default());

    println!(
        "{:>5} {:>10} {:>10} {:>8} {:>10} {:>10} {:>9}",
        "tick", "true size", "walk gauge", "err %", "msgs/est", "epidemic", "views ok"
    );
    for tick in 0..150u32 {
        let churn = if tick < 75 { &mut growth } else { &mut decline };
        ops.clear();
        delta.clear();
        churn.ops_at(u64::from(tick) + 1, &graph, &mut rng, &mut ops);
        for op in &ops {
            op.apply(&mut graph, &mut rng, &mut delta);
        }
        // The membership service shuffles continuously (a few rounds per
        // monitoring tick), healing views around departed nodes.
        for _ in 0..3 {
            membership.shuffle_round(&graph, &mut rng);
        }

        // One tick each: a full estimation for the walk gauge, one gossip
        // round for the epidemic gauge (its reading lands at epoch ends).
        let walk_reading = walk_gauge.tick(&graph, &mut rng);
        epidemic_gauge.tick(&graph, &mut rng);

        if let Some(reading) = walk_reading {
            if tick % 10 == 9 {
                let truth = graph.alive_count() as f64;
                let err = 100.0 * (reading.reported - truth) / truth;
                // Fraction of membership-view entries pointing at live peers.
                let (mut live, mut total) = (0usize, 0usize);
                for node in graph.alive_nodes().take(500) {
                    for &p in membership.view(node) {
                        total += 1;
                        live += usize::from(graph.is_alive(p));
                    }
                }
                println!(
                    "{tick:>5} {truth:>10.0} {:>10.0} {err:>8.1} {:>10.0} {:>10.0} {:>8.1}%",
                    reading.reported,
                    walk_gauge.mean_cost().unwrap_or(0.0),
                    epidemic_gauge.current().unwrap_or(0.0),
                    100.0 * live as f64 / total.max(1) as f64
                );
            }
        }
    }

    for (label, gauge_ticks, reports, failures, messages) in [
        (
            "walk gauge",
            walk_gauge.ticks(),
            walk_gauge.reports(),
            walk_gauge.failures(),
            walk_gauge.total_messages().total(),
        ),
        (
            "epidemic gauge",
            epidemic_gauge.ticks(),
            epidemic_gauge.reports(),
            epidemic_gauge.failures(),
            epidemic_gauge.total_messages().total(),
        ),
    ] {
        println!(
            "\n{label}: {gauge_ticks} ticks, {reports} readings, {failures} failed periods, \
             {messages} total messages."
        );
    }
    println!(
        "\nThe walk gauge lags the truth by its smoothing window during the decline —\n\
         trade Heuristic::LastKRuns(5) for OneShot to follow §IV-D's reactivity result.\n\
         The epidemic gauge updates only at epoch ends and keeps estimating the epoch's\n\
         *starting* size — the conservative effect of §IV-D(k)."
    );
}
