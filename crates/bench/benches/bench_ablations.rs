//! Ablation benches for the design choices the paper calls out (§V).
//!
//! Each group prints a small measurement table (the ablation result) and
//! times a representative operation so regressions surface in criterion.

use criterion::{criterion_group, criterion_main, Criterion};
use p2p_bench::{criterion_config, BENCH_SEED};
use p2p_estimation::hops_sampling::{gossip_spread, HopsSamplingConfig};
use p2p_estimation::sample_collide::{CollisionEstimator, SampleCollideConfig};
use p2p_estimation::sampling::{OracleSampler, PeerSampler, RandomWalkSampler};
use p2p_estimation::{HopsSampling, SampleCollide, SizeEstimator};
use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom, HomogeneousRandom};
use p2p_overlay::Graph;
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::MessageCounter;
use std::hint::black_box;

fn mean_abs_err_and_cost<E: SizeEstimator>(
    est: &mut E,
    graph: &Graph,
    runs: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = small_rng(seed);
    let mut msgs = MessageCounter::new();
    let truth = graph.alive_count() as f64;
    let mut err = 0.0;
    for _ in 0..runs {
        let e = est
            .estimate(graph, &mut rng, &mut msgs)
            .expect("static overlay");
        err += (e - truth).abs() / truth;
    }
    (100.0 * err / runs as f64, msgs.total() as f64 / runs as f64)
}

/// §IV-E / §V(m): the accuracy-vs-cost knob `l`. The paper reports cost
/// ratios l=100 / l=10 ≈ 3.27 and l=200 / l=100 ≈ 1.40 (theory: √l scaling).
fn l_sweep(c: &mut Criterion) {
    let mut rng = small_rng(BENCH_SEED);
    let graph = HeterogeneousRandom::paper(20_000).build(&mut rng);
    println!("\n[ablation] Sample&Collide l sweep on 20k nodes (15 runs each)");
    println!(
        "{:>6} {:>10} {:>14} {:>12}",
        "l", "|err| %", "msgs/est", "ratio"
    );
    let mut prev_cost = None;
    for l in [10u32, 50, 100, 200] {
        let mut sc = SampleCollide::with_config(SampleCollideConfig::paper().with_l(l));
        let (err, cost) =
            mean_abs_err_and_cost(&mut sc, &graph, 15, derive_seed(BENCH_SEED, l as u64));
        let ratio = prev_cost.map(|p: f64| cost / p).unwrap_or(f64::NAN);
        println!("{l:>6} {err:>10.2} {cost:>14.0} {ratio:>12.2}");
        prev_cost = Some(cost);
    }
    let mut group = c.benchmark_group("ablation_l_sweep");
    for l in [10u32, 200] {
        group.bench_function(format!("l{l}_20k"), |b| {
            let mut sc = SampleCollide::with_config(SampleCollideConfig::paper().with_l(l));
            let mut msgs = MessageCounter::new();
            b.iter(|| black_box(sc.estimate(&graph, &mut rng, &mut msgs)));
        });
    }
    group.finish();
}

/// §III-A: sampling bias versus the walk budget `T` — total-variation
/// distance of the sampled distribution from uniform, against the oracle's
/// sampling-noise floor.
fn t_bias(c: &mut Criterion) {
    let mut rng = small_rng(derive_seed(BENCH_SEED, 2));
    let graph = HeterogeneousRandom::paper(500).build(&mut rng);
    let draws = 100_000usize;
    let tv = |sampler: &dyn PeerSampler, rng: &mut rand::rngs::SmallRng| -> f64 {
        let mut msgs = MessageCounter::new();
        let init = graph.random_alive(rng).unwrap();
        let mut counts = vec![0u32; graph.num_slots()];
        for _ in 0..draws {
            let s = sampler.sample(&graph, init, rng, &mut msgs).unwrap();
            counts[s.index()] += 1;
        }
        let unif = draws as f64 / graph.alive_count() as f64;
        0.5 * counts.iter().map(|&c| (c as f64 - unif).abs()).sum::<f64>() / draws as f64
    };
    println!("\n[ablation] CTRW sampling bias vs walk budget T (500 nodes, 100k draws)");
    println!("{:>8} {:>10}", "T", "TV dist");
    for t in [0.5f64, 1.0, 2.0, 5.0, 10.0] {
        let d = tv(&RandomWalkSampler::new(t), &mut rng);
        println!("{t:>8.1} {d:>10.4}");
    }
    let floor = tv(&OracleSampler, &mut rng);
    println!("{:>8} {floor:>10.4}", "oracle");

    c.bench_function("ablation_t_bias/ctrw_sample_t10_500", |b| {
        let s = RandomWalkSampler::paper();
        let mut msgs = MessageCounter::new();
        let init = graph.random_alive(&mut rng).unwrap();
        b.iter(|| black_box(s.sample(&graph, init, &mut rng, &mut msgs)));
    });
}

/// §IV-A: homogeneous vs heterogeneous degree — "This parameter consistently
/// improved all algorithms. Therefore, we chose the worst case setting."
///
/// Degree structure only reaches the algorithms through the overlay, so
/// HopsSampling runs in neighbor-target mode here (membership-mode gossip
/// never looks at overlay degrees). Sample&Collide's CTRW sampler is
/// degree-corrected by design, so its rows should be statistically equal —
/// that insensitivity *is* the result.
fn topology(c: &mut Criterion) {
    let mut rng = small_rng(derive_seed(BENCH_SEED, 3));
    let hetero = HeterogeneousRandom::paper(10_000).build(&mut rng);
    let homo = HomogeneousRandom::new(10_000, 7).build(&mut rng);
    println!("\n[ablation] topology: heterogeneous (max 10) vs homogeneous (k=7), 10k nodes");
    println!(
        "{:<24} {:>14} {:>12}",
        "algorithm", "hetero |err|%", "homo |err|%"
    );
    let mut sc = SampleCollide::paper();
    let (e_het, _) = mean_abs_err_and_cost(&mut sc, &hetero, 12, derive_seed(BENCH_SEED, 31));
    let (e_hom, _) = mean_abs_err_and_cost(&mut sc, &homo, 12, derive_seed(BENCH_SEED, 32));
    println!("{:<24} {e_het:>14.2} {e_hom:>12.2}", "Sample&Collide");
    let mut hs = HopsSampling {
        config: HopsSamplingConfig::paper().with_neighbor_targets(),
    };
    let (e_het, _) = mean_abs_err_and_cost(&mut hs, &hetero, 12, derive_seed(BENCH_SEED, 33));
    let (e_hom, _) = mean_abs_err_and_cost(&mut hs, &homo, 12, derive_seed(BENCH_SEED, 34));
    println!(
        "{:<24} {e_het:>14.2} {e_hom:>12.2}",
        "HopsSampling (neighbor)"
    );

    c.bench_function("ablation_topology/sc_estimate_homogeneous_10k", |b| {
        let mut sc = SampleCollide::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(sc.estimate(&homo, &mut rng, &mut msgs)));
    });
}

/// Moment (`C(C−1)/2l`) vs likelihood-inversion estimator: the moment form's
/// +C/2N bias explodes as the overlay shrinks relative to `l`.
fn estimator(c: &mut Criterion) {
    println!("\n[ablation] collision estimator bias (l=200, 12 runs, signed mean err %)");
    println!("{:>8} {:>10} {:>10}", "N", "moment", "mle");
    for n in [1_000usize, 5_000, 20_000] {
        let mut rng = small_rng(derive_seed(BENCH_SEED, 4 + n as u64));
        let graph = HeterogeneousRandom::paper(n).build(&mut rng);
        let signed = |kind: CollisionEstimator, rng: &mut rand::rngs::SmallRng| -> f64 {
            let mut cfg = SampleCollideConfig::paper();
            cfg.estimator = kind;
            let sc = SampleCollide::with_config(cfg);
            let mut msgs = MessageCounter::new();
            let mut sum = 0.0;
            for _ in 0..12 {
                let init = graph.random_alive(rng).unwrap();
                sum += sc.estimate_from(&graph, init, rng, &mut msgs).unwrap();
            }
            100.0 * (sum / 12.0 - n as f64) / n as f64
        };
        let m = signed(CollisionEstimator::Moment, &mut rng);
        let mle = signed(CollisionEstimator::MaximumLikelihood, &mut rng);
        println!("{n:>8} {m:>10.2} {mle:>10.2}");
    }

    let mut rng = small_rng(derive_seed(BENCH_SEED, 5));
    let graph = HeterogeneousRandom::paper(5_000).build(&mut rng);
    c.bench_function("ablation_estimator/mle_estimate_5k", |b| {
        let mut sc = SampleCollide::paper();
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(sc.estimate(&graph, &mut rng, &mut msgs)));
    });
}

/// §V(m): lowering `minHopsReporting` "does not significantly reduce the
/// overhead, while degrading accuracy".
fn min_hops(c: &mut Criterion) {
    let mut rng = small_rng(derive_seed(BENCH_SEED, 6));
    let graph = HeterogeneousRandom::paper(20_000).build(&mut rng);
    println!("\n[ablation] HopsSampling minHopsReporting sweep (20k nodes, 12 runs)");
    println!("{:>6} {:>10} {:>14}", "m", "|err| %", "msgs/est");
    for m in [2u32, 5, 8] {
        let mut hs = HopsSampling {
            config: HopsSamplingConfig::paper().with_min_hops(m),
        };
        let (err, cost) =
            mean_abs_err_and_cost(&mut hs, &graph, 12, derive_seed(BENCH_SEED, 60 + m as u64));
        println!("{m:>6} {err:>10.2} {cost:>14.0}");
    }
    c.bench_function("ablation_min_hops/hs_estimate_m2_20k", |b| {
        let mut hs = HopsSampling {
            config: HopsSamplingConfig::paper().with_min_hops(2),
        };
        let mut msgs = MessageCounter::new();
        b.iter(|| black_box(hs.estimate(&graph, &mut rng, &mut msgs)));
    });
}

/// Membership-substrate vs overlay-neighbor gossip targets: coverage and
/// worst believed distance (our resolution of the \[17\] gossip semantics).
fn hs_target_mode(c: &mut Criterion) {
    let mut rng = small_rng(derive_seed(BENCH_SEED, 7));
    let graph = HeterogeneousRandom::paper(20_000).build(&mut rng);
    println!("\n[ablation] HopsSampling gossip target mode (20k nodes, 10 spreads)");
    println!("{:<12} {:>10} {:>12}", "mode", "reach", "max dist");
    for (name, cfg) in [
        ("membership", HopsSamplingConfig::paper()),
        (
            "neighbors",
            HopsSamplingConfig::paper().with_neighbor_targets(),
        ),
    ] {
        let mut msgs = MessageCounter::new();
        let (mut reach, mut maxd) = (0.0, 0u32);
        for _ in 0..10 {
            let init = graph.random_alive(&mut rng).unwrap();
            let out = gossip_spread(&graph, init, &cfg, &mut rng, &mut msgs);
            reach += out.reach_fraction(&graph) / 10.0;
            maxd = maxd.max(
                out.min_hops
                    .iter()
                    .copied()
                    .filter(|&d| d != u32::MAX)
                    .max()
                    .unwrap_or(0),
            );
        }
        println!("{name:<12} {reach:>10.3} {maxd:>12}");
    }
    c.bench_function("ablation_target_mode/neighbor_spread_20k", |b| {
        let cfg = HopsSamplingConfig::paper().with_neighbor_targets();
        let mut msgs = MessageCounter::new();
        b.iter(|| {
            let init = graph.random_alive(&mut rng).unwrap();
            black_box(gossip_spread(&graph, init, &cfg, &mut rng, &mut msgs))
        });
    });
}

/// §V(o): with oracle BFS distances the poll is unbiased — the paper's
/// control experiment isolating where HopsSampling's bias comes from.
fn oracle_distances(c: &mut Criterion) {
    let mut rng = small_rng(derive_seed(BENCH_SEED, 8));
    let graph = HeterogeneousRandom::paper(20_000).build(&mut rng);
    let hs = HopsSampling::paper();
    let mut msgs = MessageCounter::new();
    let (mut gossip_sum, mut oracle_sum) = (0.0, 0.0);
    let runs = 10;
    for _ in 0..runs {
        let init = graph.random_alive(&mut rng).unwrap();
        gossip_sum += hs.estimate_from(&graph, init, &mut rng, &mut msgs).unwrap();
        oracle_sum += hs
            .estimate_with_oracle_distances(&graph, init, &mut rng, &mut msgs)
            .unwrap();
    }
    println!("\n[ablation] HopsSampling distance source (20k nodes, {runs} runs)");
    println!(
        "  gossip distances: mean quality {:.1}%",
        100.0 * gossip_sum / runs as f64 / 20_000.0
    );
    println!(
        "  oracle distances: mean quality {:.1}%",
        100.0 * oracle_sum / runs as f64 / 20_000.0
    );

    c.bench_function("ablation_oracle_distances/bfs_poll_20k", |b| {
        b.iter(|| {
            let init = graph.random_alive(&mut rng).unwrap();
            black_box(hs.estimate_with_oracle_distances(&graph, init, &mut rng, &mut msgs))
        });
    });
}

/// §V(p)/§VI extension: end-to-end estimation delay under a per-hop latency
/// model — the comparison the paper conjectures but could not measure.
fn delay(c: &mut Criterion) {
    use p2p_experiments::delay::compare_delays;
    use p2p_sim::latency::HopLatency;

    let mut rng = small_rng(derive_seed(BENCH_SEED, 9));
    let graph = HeterogeneousRandom::paper(20_000).build(&mut rng);
    let reports = compare_delays(&graph, HopLatency::wan(), 3, derive_seed(BENCH_SEED, 91));
    println!("\n[extension] estimation delay, uniform 20-200ms hops, 20k nodes");
    println!("{:<28} {:>12} {:>12}", "algorithm", "mean ms", "max ms");
    for r in &reports {
        println!("{:<28} {:>12.0} {:>12.0}", r.algorithm, r.mean_ms, r.max_ms);
    }

    c.bench_function("extension_delay/hops_sampling_delay_20k", |b| {
        let cfg = p2p_estimation::hops_sampling::HopsSamplingConfig::paper();
        b.iter(|| {
            black_box(p2p_experiments::delay::hops_sampling_delay(
                &graph,
                &cfg,
                HopLatency::wan(),
                &mut rng,
            ))
        });
    });
}

/// Churn hot path: per-removal allocation (`remove_node` returning a fresh
/// `Vec`) vs one reused scratch buffer (`remove_node_with`). The scratch
/// variant is what `churn::remove_random_nodes` — and therefore every
/// catastrophe and shrinking scenario — runs on.
fn churn_removal(c: &mut Criterion) {
    use p2p_overlay::churn;
    use std::time::Instant;

    let n = 50_000;
    let victims = 40_000;
    let mut rng = small_rng(derive_seed(BENCH_SEED, 10));
    println!("\n[ablation] node removal on a {n}-node overlay ({victims} removals)");
    println!("{:<28} {:>14}", "variant", "ns/removal");
    let mut per_removal = [0.0f64; 2];
    for (slot, (name, use_scratch)) in [
        ("alloc (remove_node)", false),
        ("scratch (remove_node_with)", true),
    ]
    .into_iter()
    .enumerate()
    {
        let mut g = HeterogeneousRandom::paper(n).build(&mut rng);
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        for _ in 0..victims {
            let v = g.random_alive(&mut rng).expect("victims < n");
            if use_scratch {
                black_box(g.remove_node_with(v, &mut scratch));
            } else {
                black_box(g.remove_node(v));
            }
        }
        per_removal[slot] = t0.elapsed().as_nanos() as f64 / victims as f64;
        println!("{name:<28} {:>14.1}", per_removal[slot]);
    }
    println!(
        "  scratch/alloc ratio: {:.2}",
        per_removal[1] / per_removal[0]
    );

    c.bench_function("ablation_churn/steady_churn_500_of_20k", |b| {
        let mut g = HeterogeneousRandom::paper(20_000).build(&mut rng);
        b.iter(|| {
            // Stable-size churn cycle on a persistent overlay: the removal
            // half runs the scratch-buffer hot path.
            churn::remove_random_nodes(&mut g, 500, &mut rng);
            churn::join_nodes(&mut g, 500, 10, &mut rng);
            black_box(g.alive_count())
        });
    });
}

/// Schedule lookup: the historic `ops_at` filtered the whole churn
/// schedule per query, so a growing/shrinking scenario (one entry per
/// timeline step) paid O(steps) per step — O(steps²) per run. The sorted
/// `partition_point` range lookup is what `Scenario::ops_at` ships now.
fn ops_at_lookup(c: &mut Criterion) {
    use p2p_experiments::Scenario;
    use std::time::Instant;

    let steps = 10_000u64;
    let scenario = Scenario::growing(100_000, steps, 0.5);
    println!(
        "\n[ablation] ops_at over a {}-entry growing schedule, {steps} queries",
        scenario.schedule.len()
    );
    println!("{:<28} {:>14}", "variant", "ns/query");
    let mut per_query = [0.0f64; 2];
    for (slot, name) in ["linear filter scan", "partition_point range"]
        .into_iter()
        .enumerate()
    {
        let t0 = Instant::now();
        let mut hits = 0usize;
        for step in 0..=steps {
            if slot == 0 {
                hits += scenario
                    .schedule
                    .iter()
                    .filter(|&&(s, _)| s == step)
                    .count();
            } else {
                hits += scenario.ops_at(step).count();
            }
        }
        per_query[slot] = t0.elapsed().as_nanos() as f64 / (steps + 1) as f64;
        println!("{name:<28} {:>14.1}   ({hits} ops seen)", per_query[slot]);
    }
    println!("  range/linear ratio: {:.4}", per_query[1] / per_query[0]);

    c.bench_function("ablation_ops_at/range_lookup_10k_steps", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for step in 0..=steps {
                hits += scenario.ops_at(black_box(step)).count();
            }
            black_box(hits)
        });
    });
}

/// Workload subsystem: churn-op *generation* throughput at 100k nodes —
/// the cost of streaming heavy-tailed session churn (heap-fed targeted
/// departures + Poisson arrivals) per timeline step, measured both
/// generation-only and with application to the live overlay.
fn workload_generation(c: &mut Criterion) {
    use p2p_overlay::churn::ChurnDelta;
    use p2p_workload::WorkloadSpec;
    use std::time::Instant;

    let n = 100_000;
    let warm_steps = 100u64;
    let timed_steps = 200u64;
    let mut apply_rng = small_rng(derive_seed(BENCH_SEED, 11));
    let mut wl_rng = small_rng(derive_seed(BENCH_SEED, 12));
    let mut g = HeterogeneousRandom::paper(n).build(&mut apply_rng);
    // Mean session of 500 steps on 100k nodes → ~200 joins + ~200 targeted
    // departures per step at equilibrium.
    let spec = WorkloadSpec::parse("pareto:alpha=1.5,mean=500").unwrap();
    let mut model = spec.build(10);
    model.on_init(&g, &mut wl_rng);

    let mut ops = Vec::new();
    let mut delta = ChurnDelta::default();
    let mut scratch = Vec::new();
    let mut step = 0u64;
    let mut drive = |steps: u64,
                     g: &mut p2p_overlay::Graph,
                     apply_rng: &mut rand::rngs::SmallRng,
                     wl_rng: &mut rand::rngs::SmallRng|
     -> usize {
        let mut events = 0usize;
        for _ in 0..steps {
            step += 1;
            ops.clear();
            model.ops_at(step, g, wl_rng, &mut ops);
            delta.clear();
            for op in &ops {
                op.apply_with(g, apply_rng, &mut delta, &mut scratch);
            }
            events += delta.joined.len() + delta.left.len();
            model.observe(step, &delta, wl_rng);
        }
        events
    };

    drive(warm_steps, &mut g, &mut apply_rng, &mut wl_rng);
    let t0 = Instant::now();
    let events = drive(timed_steps, &mut g, &mut apply_rng, &mut wl_rng);
    let elapsed = t0.elapsed();
    println!("\n[ablation] workload generation: pareto sessions on a {n}-node overlay");
    println!(
        "  {timed_steps} steps, {events} node events in {elapsed:.1?} \
         ({:.1} µs/step, {:.2} Mevents/s)",
        elapsed.as_micros() as f64 / timed_steps as f64,
        events as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!("  population after churn: {}", g.alive_count());

    c.bench_function("ablation_workload/session_churn_step_100k", |b| {
        b.iter(|| {
            black_box(drive(1, &mut g, &mut apply_rng, &mut wl_rng));
        });
    });
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = l_sweep, t_bias, topology, estimator, min_hops, hs_target_mode, oracle_distances,
        delay, churn_removal, ops_at_lookup, workload_generation
}
criterion_main!(benches);
