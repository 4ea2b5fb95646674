//! Tier-1 cross-validation: a real loopback cluster (sockets, threads,
//! wall-clock pacing) must land inside the acceptance envelope derived
//! from matched DES replications — and must get there with clean
//! lifecycle behavior (every shard says `Bye`, no unclean exits).
//!
//! Kept deliberately small (8 nodes, 4 shards, ~2 s of wall time plus a
//! handful of fast DES runs) so it runs un-ignored in tier 1.

use p2p_estimation::ProtocolSpec;
use p2p_experiments::runner::WorkloadRuntime;
use p2p_experiments::sink::{ResultSink, Row};
use p2p_node::cluster::{des_envelope, run_cluster, ClusterConfig, Launch};
use p2p_node::runtime::bind_with_retry;
use p2p_sim::rng::small_rng;
use p2p_workload::{WorkloadSource, WorkloadSpec};

/// Collects rows in memory; the tests only need counts and series names.
#[derive(Default)]
struct CollectSink {
    rows: Vec<(String, f64, f64)>,
}

impl ResultSink for CollectSink {
    fn row(&mut self, row: &Row<'_>) {
        self.rows.push((row.series.to_string(), row.x, row.y));
    }
}

#[test]
fn loopback_cluster_converges_within_des_envelope() {
    let protocol = ProtocolSpec::parse("aggregation:rounds=30").expect("spec parses");
    let cfg = ClusterConfig::new(8, 4, protocol);

    let mut sink = CollectSink::default();
    let report = run_cluster(&cfg, &Launch::InProcess, &mut sink).expect("cluster runs");

    // Lifecycle first: a run that can't shut down cleanly invalidates the
    // estimate comparison.
    assert_eq!(report.unclean_exits, 0, "all shards must exit cleanly");
    assert_eq!(report.final_size, 8, "static scenario keeps its 8 nodes");
    let exchanged: u64 = report.node_stats.iter().map(|s| s.sent).sum();
    assert!(exchanged > 0, "shards must actually talk over UDP");
    assert_eq!(
        report.node_stats.iter().map(|s| s.malformed).sum::<u64>(),
        0,
        "no malformed frames on a healthy cluster"
    );

    let estimate = report
        .summary_estimate()
        .expect("aggregation produces an estimate");

    // The envelope from matched DES replications: same scenario, same
    // network model, same protocol parameters.
    let envelope = des_envelope(&cfg, 5);
    assert!(
        !envelope.des_finals.is_empty(),
        "the DES oracle must produce estimates for the matched scenario"
    );
    assert!(
        envelope.contains(estimate),
        "cluster estimate {estimate:.2} outside DES envelope [{:.2}, {:.2}] (truth {})",
        envelope.lo,
        envelope.hi,
        envelope.truth,
    );

    // The streamed trajectories carried per-node series.
    assert!(
        sink.rows.iter().any(|(s, _, _)| s.starts_with('n')),
        "per-node estimate trajectories must stream to the sink"
    );
}

#[test]
fn loopback_cluster_streams_merged_telemetry() {
    let protocol = ProtocolSpec::parse("aggregation:rounds=30").expect("spec parses");
    let mut cfg = ClusterConfig::new(8, 2, protocol);
    cfg.metrics_every = 5;

    let mut sink = CollectSink::default();
    let report = run_cluster(&cfg, &Launch::InProcess, &mut sink).expect("cluster runs");
    assert_eq!(report.unclean_exits, 0, "all shards must exit cleanly");

    assert!(
        !report.merged_metrics.is_empty(),
        "metrics_every > 0 must yield merged per-interval snapshots"
    );
    let mut last_tick = 0;
    for snap in &report.merged_metrics {
        assert_eq!(
            snap.series, "cluster",
            "merged snapshots carry the cluster series"
        );
        assert!(
            snap.tick == 0 || snap.tick > last_tick,
            "merged ticks arrive in order"
        );
        last_tick = snap.tick;
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("gauge {name} present in merged snapshot"))
                .1
        };
        assert_eq!(gauge("cluster.truth"), 8, "truth gauge mirrors the overlay");
        assert!(
            gauge("conv.eps_reached.aggregation") <= 1,
            "eps flag is boolean"
        );
        assert!(
            snap.counters.iter().any(|(n, _)| n == "net.sent"),
            "shard outbox counters survive the merge"
        );
    }
    // The epsilon flag must eventually latch on: aggregation on a static
    // 8-node overlay converges well inside the default step budget.
    let final_snap = report.merged_metrics.last().expect("at least one snapshot");
    let eps = final_snap
        .gauges
        .iter()
        .find(|(n, _)| n == "conv.eps_reached.aggregation")
        .expect("eps gauge")
        .1;
    assert_eq!(
        eps, 1,
        "windowed median enters ±ε of truth by the final interval"
    );
}

#[test]
fn cluster_churn_matches_the_des_churn_stream() {
    // Session churn: joiners get lifetimes only if the model observes
    // them, so a step whose ops are `[Join, LeaveNodes]` must be observed
    // as one delta, exactly as the DES does.
    let protocol = ProtocolSpec::parse("aggregation:rounds=30").expect("spec parses");
    let mut cfg = ClusterConfig::new(300, 2, protocol);
    cfg.steps = 40;
    let spec = WorkloadSpec::parse("pareto:alpha=1.5,mean=12").expect("spec parses");
    cfg.churn = Some(spec.clone());

    // The `--shards K` DES coordinator's churn, with no cluster at all:
    // the overlay built off `small_rng(seed)`, whose remainder applies the
    // ops, and the streamed workload stepped over exactly `1..=steps`.
    let scenario = cfg.scenario();
    let source = WorkloadSource::Model(spec);
    let mut apply_rng = small_rng(cfg.seed);
    let mut graph = scenario.build_overlay(&mut apply_rng);
    let mut workload = WorkloadRuntime::new(&source, &scenario, cfg.seed, &graph);
    for step in 1..=cfg.steps {
        workload.step(step, &mut graph, &mut apply_rng);
    }

    let mut sink = CollectSink::default();
    let report = run_cluster(&cfg, &Launch::InProcess, &mut sink).expect("cluster runs");
    assert_eq!(report.unclean_exits, 0, "all shards must exit cleanly");
    assert_eq!(
        report.final_size,
        graph.alive_count(),
        "the cluster's overlay must follow the DES's churn stream step for step"
    );
    assert_ne!(graph.alive_count(), cfg.nodes, "the workload must churn");
    // The matched DES run of `--des-check` churns the same way.
    assert_eq!(scenario.workload, Some(source));
}

#[test]
fn bind_with_retry_survives_port_collisions() {
    // Occupy a fixed port, then ask for it: the helper must back off and
    // come back with *some* bound socket (the ephemeral fallback) instead
    // of erroring out.
    let holder = bind_with_retry(0).expect("ephemeral bind");
    let taken = holder.local_addr().expect("addr").port();
    let sock = bind_with_retry(taken).expect("fallback bind succeeds");
    let got = sock.local_addr().expect("addr").port();
    assert_ne!(got, taken, "collision resolved to a different port");

    // And an uncontended preferred port is honored.
    drop(holder);
    let direct = bind_with_retry(taken).expect("freed port binds");
    assert_eq!(direct.local_addr().expect("addr").port(), taken);
}
