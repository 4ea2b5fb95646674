//! Property-based tests (proptest) on the core invariants:
//!
//! * graph bookkeeping survives arbitrary churn interleavings;
//! * push-pull averaging conserves value mass on static overlays;
//! * the collision estimators are monotone and self-consistent;
//! * the sliding window matches a naive reference implementation;
//! * the bit set behaves like `HashSet<usize>`.

use p2p_size_estimation::estimation::aggregation::AveragingRun;
use p2p_size_estimation::estimation::sample_collide::{
    mle_size_estimate, moment_size_estimate, CollisionCounter,
};
use p2p_size_estimation::overlay::builder::{ErdosRenyi, GraphBuilder, HeterogeneousRandom};
use p2p_size_estimation::overlay::{churn, BitSet, Graph, NodeId};
use p2p_size_estimation::sim::rng::small_rng;
use p2p_size_estimation::sim::MessageCounter;
use p2p_size_estimation::stats::SlidingWindow;
use proptest::prelude::*;
use std::collections::HashSet;

/// One churn action in a generated interleaving.
#[derive(Clone, Debug)]
enum Op {
    Join(u8),
    Leave(u8),
    Catastrophe(u8), // percent 0..=50
    AddEdge(u16, u16),
    RemoveEdge(u16, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..10).prop_map(Op::Join),
        (1u8..10).prop_map(Op::Leave),
        (0u8..=50).prop_map(Op::Catastrophe),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::AddEdge(a, b)),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::RemoveEdge(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graph_invariants_survive_arbitrary_churn(
        seed in any::<u64>(),
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let mut rng = small_rng(seed);
        let mut g = HeterogeneousRandom::new(60, 6).build(&mut rng);
        for op in ops {
            match op {
                Op::Join(k) => churn::join_nodes(&mut g, k as usize, 6, &mut rng),
                Op::Leave(k) => { churn::remove_random_nodes(&mut g, k as usize, &mut rng); }
                Op::Catastrophe(pct) => {
                    churn::catastrophic_failure(&mut g, pct as f64 / 100.0, &mut rng);
                }
                Op::AddEdge(a, b) => {
                    let slots = g.num_slots() as u16;
                    if slots > 0 {
                        g.add_edge(NodeId((a % slots) as u32), NodeId((b % slots) as u32));
                    }
                }
                Op::RemoveEdge(a, b) => {
                    let slots = g.num_slots() as u16;
                    if slots > 0 {
                        g.remove_edge(NodeId((a % slots) as u32), NodeId((b % slots) as u32));
                    }
                }
            }
            g.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn push_pull_mass_conservation(
        seed in any::<u64>(),
        n in 2usize..200,
        rounds in 1u32..30,
    ) {
        let mut rng = small_rng(seed);
        let edges = (n * 3).min(n * (n - 1) / 2);
        let g = ErdosRenyi::new(n, edges).build(&mut rng);
        let init = g.random_alive(&mut rng).unwrap();
        let mut run = AveragingRun::new(&g, init);
        let mut msgs = MessageCounter::new();
        for _ in 0..rounds {
            run.run_round(&g, &mut rng, &mut msgs);
        }
        let mass = run.mass(&g);
        prop_assert!((mass - 1.0).abs() < 1e-6, "mass {mass}");
        // Every value stays within [0, 1]: averaging is a convex combination.
        for node in g.alive_nodes() {
            let v = run.value_at(node);
            prop_assert!((0.0..=1.0).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    fn moment_estimator_monotonicity(c in 3u64..10_000, l in 1u64..100) {
        prop_assume!(l < c / 2);
        let base = moment_size_estimate(c, l);
        // More samples for the same collisions → larger estimate.
        prop_assert!(moment_size_estimate(c + 1, l) > base);
        // More collisions for the same samples → smaller estimate.
        prop_assert!(moment_size_estimate(c, l + 1) < base);
        prop_assert!(base > 0.0);
    }

    #[test]
    fn mle_estimator_brackets_truth(n_true in 50u64..50_000) {
        // Feed the MLE the *expected* collision count for a known N and
        // check it inverts back to ≈ N.
        let n = n_true as f64;
        let c = (2.0 * 64.0 * n).sqrt().round();
        let expected_coll = c - n * (1.0 - (1.0 - 1.0 / n).powf(c));
        let l = expected_coll.round().max(1.0);
        let est = mle_size_estimate(c as u64, l as u64);
        let rel = (est - n).abs() / n;
        prop_assert!(rel < 0.25, "N={n}: estimate {est} (rel {rel:.3})");
    }

    #[test]
    fn collision_counter_matches_hashset_model(
        samples in prop::collection::vec(0u32..64, 1..200),
    ) {
        let mut counter = CollisionCounter::new(64);
        let mut model: HashSet<u32> = HashSet::new();
        let mut model_collisions = 0u64;
        for &s in &samples {
            let collided = counter.observe(NodeId(s));
            if !model.insert(s) {
                model_collisions += 1;
                prop_assert!(collided);
            } else {
                prop_assert!(!collided);
            }
        }
        prop_assert_eq!(counter.samples(), samples.len() as u64);
        prop_assert_eq!(counter.collisions(), model_collisions);
        prop_assert_eq!(counter.distinct(), model.len() as u64);
    }

    #[test]
    fn sliding_window_matches_naive_mean(
        values in prop::collection::vec(-1e6f64..1e6, 1..100),
        k in 1usize..20,
    ) {
        let mut w = SlidingWindow::new(k);
        for (i, &v) in values.iter().enumerate() {
            let got = w.push(v);
            let lo = (i + 1).saturating_sub(k);
            let window = &values[lo..=i];
            let want = window.iter().sum::<f64>() / window.len() as f64;
            prop_assert!((got - want).abs() <= 1e-6 * want.abs().max(1.0),
                "at {i}: got {got}, want {want}");
        }
    }

    #[test]
    fn bitset_matches_hashset_model(
        ops in prop::collection::vec((any::<bool>(), 0usize..500), 1..300),
    ) {
        let mut bs = BitSet::with_capacity(64);
        let mut model: HashSet<usize> = HashSet::new();
        for (insert, i) in ops {
            if insert {
                prop_assert_eq!(bs.insert(i), model.insert(i));
            } else {
                prop_assert_eq!(bs.remove(i), model.remove(&i));
            }
            prop_assert_eq!(bs.count_ones(), model.len());
        }
        let mut from_iter: Vec<usize> = bs.iter().collect();
        let mut expected: Vec<usize> = model.into_iter().collect();
        from_iter.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(from_iter, expected);
    }

    #[test]
    fn removal_never_leaves_dangling_links(
        seed in any::<u64>(),
        kills in prop::collection::vec(0u32..80, 1..80),
    ) {
        let mut rng = small_rng(seed);
        let mut g = HeterogeneousRandom::new(80, 8).build(&mut rng);
        for k in kills {
            g.remove_node(NodeId(k % 80));
            for node in g.alive_nodes() {
                for &nb in g.neighbors(node) {
                    prop_assert!(g.is_alive(nb), "dangling link {node:?}→{nb:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gossip_spread_structural_properties(
        seed in any::<u64>(),
        n in 10usize..400,
        fanout in 1u32..5,
        neighbor_mode in any::<bool>(),
    ) {
        use p2p_size_estimation::estimation::hops_sampling::{gossip_spread, HopsSamplingConfig};
        let mut rng = small_rng(seed);
        let g = HeterogeneousRandom::new(n, 8).build(&mut rng);
        let mut cfg = HopsSamplingConfig::paper();
        cfg.gossip_to = fanout;
        if neighbor_mode {
            cfg = cfg.with_neighbor_targets();
        }
        let init = g.random_alive(&mut rng).unwrap();
        let mut msgs = MessageCounter::new();
        let out = gossip_spread(&g, init, &cfg, &mut rng, &mut msgs);
        // Reached count equals the number of finite believed distances.
        let finite = out.min_hops.iter().filter(|&&d| d != u32::MAX).count();
        prop_assert_eq!(finite, out.reached);
        prop_assert!(out.reached >= 1 && out.reached <= g.alive_count());
        prop_assert_eq!(out.min_hops[init.index()], 0);
        // Each reached node forwards at most gossipFor turns of gossipTo.
        let forwards = msgs.total();
        prop_assert!(
            forwards <= (out.reached as u64) * (fanout as u64) * (cfg.gossip_for as u64),
            "forwards {forwards} exceed bound"
        );
        // Distances are wave-consistent: some node at every level 1..max.
        let max_d = out.min_hops.iter().copied().filter(|&d| d != u32::MAX).max().unwrap();
        for level in 0..=max_d {
            prop_assert!(
                out.min_hops.contains(&level),
                "no node at distance {level} (max {max_d})"
            );
        }
    }

    #[test]
    fn sample_collide_estimates_are_positive_and_seedwise_stable(
        seed in any::<u64>(),
        n in 20usize..400,
        l in 1u32..32,
    ) {
        use p2p_size_estimation::estimation::sample_collide::{SampleCollide, SampleCollideConfig};
        let mut rng_a = small_rng(seed);
        let mut rng_b = small_rng(seed);
        let ga = HeterogeneousRandom::new(n, 8).build(&mut rng_a);
        let gb = HeterogeneousRandom::new(n, 8).build(&mut rng_b);
        let sc = SampleCollide::with_config(SampleCollideConfig::paper().with_l(l));
        let mut ma = MessageCounter::new();
        let mut mb = MessageCounter::new();
        let ia = ga.random_alive(&mut rng_a).unwrap();
        let ib = gb.random_alive(&mut rng_b).unwrap();
        let ea = sc.estimate_from(&ga, ia, &mut rng_a, &mut ma);
        let eb = sc.estimate_from(&gb, ib, &mut rng_b, &mut mb);
        prop_assert_eq!(ea, eb, "same seed must reproduce");
        if let Some(e) = ea {
            prop_assert!(e >= 1.0, "estimate {e} below 1");
            prop_assert!(e.is_finite());
        }
    }

    #[test]
    fn membership_views_stay_valid_under_churn(
        seed in any::<u64>(),
        rounds in 1usize..20,
        kill in 0usize..60,
        join in 0usize..40,
    ) {
        use p2p_size_estimation::overlay::membership::PeerSamplingService;
        let mut rng = small_rng(seed);
        let mut g = HeterogeneousRandom::new(120, 8).build(&mut rng);
        let mut svc = PeerSamplingService::bootstrap(&g, 10, 5, &mut rng);
        for r in 0..rounds {
            if r == rounds / 2 {
                churn::remove_random_nodes(&mut g, kill, &mut rng);
                churn::join_nodes(&mut g, join, 8, &mut rng);
            }
            svc.shuffle_round(&g, &mut rng);
            svc.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn epoched_aggregation_estimates_bounded_by_population(
        seed in any::<u64>(),
        n in 10usize..300,
        rounds in 10u32..80,
    ) {
        use p2p_size_estimation::estimation::aggregation::{AggregationConfig, EpochedAggregation};
        let mut rng = small_rng(seed);
        let g = HeterogeneousRandom::new(n, 8).build(&mut rng);
        let mut agg = EpochedAggregation::new(AggregationConfig { rounds_per_estimate: rounds });
        agg.start_epoch(&g, &mut rng).unwrap();
        let mut msgs = MessageCounter::new();
        for _ in 0..rounds {
            agg.run_round(&g, &mut rng, &mut msgs);
        }
        if let Some(est) = agg.current_estimate(&g, &mut rng) {
            // 1/value with value ∈ (0,1] mass split over ≤ n participants:
            // the estimate can overshoot population mid-convergence but must
            // stay positive and finite; after convergence it approaches n.
            prop_assert!(est >= 1.0 && est.is_finite(), "estimate {est}");
        }
        // Participants never exceed the population.
        prop_assert!(agg.participants(&g) <= g.alive_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn trace_invariants_hold_for_every_protocol_and_scenario(
        seed in any::<u64>(),
        scenario_kind in 0usize..4,
        protocol_kind in 0usize..3,
    ) {
        use p2p_size_estimation::estimation::aggregation::{AggregationConfig, EpochedAggregation};
        use p2p_size_estimation::estimation::{Heuristic, HopsSampling, SampleCollide, SyncStep};
        use p2p_size_estimation::experiments::runner::run_scenario_des;
        use p2p_size_estimation::experiments::Scenario;

        let steps = 20u64;
        let scenario = match scenario_kind {
            0 => Scenario::static_network(300, steps),
            1 => Scenario::growing(300, steps, 0.5),
            2 => Scenario::shrinking(300, steps, 0.4),
            _ => Scenario::catastrophic(300, steps),
        };
        let trace = match protocol_kind {
            0 => run_scenario_des(
                &mut SyncStep(SampleCollide::cheap()), &scenario, Heuristic::OneShot, seed, "t"),
            1 => run_scenario_des(
                &mut SyncStep(HopsSampling::paper()), &scenario, Heuristic::last10(), seed, "t"),
            _ => run_scenario_des(
                &mut EpochedAggregation::new(AggregationConfig { rounds_per_estimate: 5 }),
                &scenario, Heuristic::OneShot, seed, "t"),
        };

        // Every recorded estimate counts as completed, and vice versa.
        prop_assert_eq!(trace.completed, trace.estimates.len());
        // Reporting instants advance strictly monotonically in the step axis.
        for w in trace.real_size.points.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "real_size steps not monotone: {:?}", w);
        }
        for w in trace.estimates.points.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "estimate steps not monotone: {:?}", w);
        }
        // Estimates only appear at reporting instants (where truth is recorded).
        for &(x, _) in &trace.estimates.points {
            prop_assert!(
                trace.real_size.points.iter().any(|&(rx, _)| rx == x),
                "estimate at step {x} lacks a matching truth sample"
            );
        }
        // All reporting instants lie on the scenario timeline.
        for &(x, y) in &trace.real_size.points {
            prop_assert!(x >= 1.0 && x <= steps as f64, "step {x} outside timeline");
            prop_assert!(y >= 0.0, "negative population {y}");
        }
        // Someone paid for all this.
        prop_assert!(trace.messages.total() > 0);
    }
}

// ── Event core: the timing wheel vs the heap oracle ─────────────────────
//
// The calendar-queue engine must reproduce the historic binary-heap
// dispatch order bit for bit: (time asc, schedule order) — the FIFO
// tie-break the determinism contract pins. The model here is a plain
// `BinaryHeap` over `Reverse<(time, seq)>`, i.e. the pre-wheel engine.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calendar_queue_matches_heap_dispatch_order(
        ops in prop::collection::vec(
            // (do_pop, delay_class, raw_delay): delay class 0 pins delays
            // to {0,1,2} so timestamp ties dominate; class 1 is near
            // future; class 2 crosses several wheel levels; class 3 lands
            // one tick either side of the next window edge of a random
            // level (4 095 / 4 096 / 4 097, 2^18 ± 1, …); class 4 puts
            // more than two of the wheel's 64-entry chunks on one tick.
            (any::<bool>(), 0u8..5, any::<u64>()),
            1..300,
        ),
    ) {
        use p2p_size_estimation::sim::engine::Engine;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut wheel: Engine<u64> = Engine::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (do_pop, class, raw) in ops {
            if do_pop && !wheel.is_empty() {
                let got = wheel.pop().map(|(t, p)| (t.ticks(), p));
                let want = heap.pop().map(|Reverse(pair)| pair);
                prop_assert_eq!(got, want, "pop order diverged from the heap oracle");
            } else {
                let now = wheel.now().ticks();
                let delay = match class {
                    0 | 4 => raw % 3,
                    1 => raw % 1_000,
                    2 => raw % (1 << 45),
                    _ => {
                        let shift = 12 + 6 * (raw % 6);
                        (((now >> shift) + 1) << shift) - 1 + (raw >> 8) % 3 - now
                    }
                };
                let burst = if class == 4 { 129 + (raw >> 8) % 64 } else { 1 };
                for _ in 0..burst {
                    wheel.schedule_in(delay, seq);
                    heap.push(Reverse((now + delay, seq)));
                    seq += 1;
                }
            }
        }
        // Drain both completely: the tail must agree too.
        loop {
            let got = wheel.pop().map(|(t, p)| (t.ticks(), p));
            let want = heap.pop().map(|Reverse(pair)| pair);
            prop_assert_eq!(got, want, "drain order diverged from the heap oracle");
            if got.is_none() {
                break;
            }
        }
    }

    // ── Slab id reuse under churn ───────────────────────────────────────
    //
    // With slot reuse enabled, join/leave/rejoin storms must never let a
    // departed id alias its slot's next tenant: every ghost id stays dead
    // (the generation check), every alive id is generation-consistent, and
    // the graph invariants hold throughout.
    #[test]
    fn slot_reuse_never_aliases_stale_ids(
        seed in any::<u64>(),
        storms in prop::collection::vec((1u8..25, 1u8..25), 1..30),
    ) {
        let mut rng = small_rng(seed);
        let mut g = HeterogeneousRandom::new(40, 6).build(&mut rng);
        g.enable_slot_reuse();
        let mut ghosts: Vec<NodeId> = Vec::new();
        for (leaves, joins) in storms {
            ghosts.extend(churn::remove_random_nodes(&mut g, leaves as usize, &mut rng));
            churn::join_nodes(&mut g, joins as usize, 6, &mut rng);
            g.check_invariants().map_err(TestCaseError::fail)?;
            // No departed id may read as alive, ever — even though its
            // slot may well be occupied again.
            for &ghost in &ghosts {
                prop_assert!(!g.is_alive(ghost), "{ghost:?} aliased a re-let slot");
            }
            // Alive ids are exactly the current tenants: re-minting the id
            // from (slot, current generation) round-trips.
            for id in g.alive_nodes() {
                prop_assert!(g.is_alive(id));
            }
        }
        // Memory boundedness: a join claims a fresh slot only while no
        // freed slot exists, so the slot table is bounded by the peak
        // population (initial 40 + at most 24 net joins per storm).
        prop_assert!(
            g.num_slots() <= 40 + 30 * 24,
            "slot table grew past the population bound"
        );
    }
}

#[test]
fn empty_graph_edge_cases_do_not_panic() {
    // Deterministic companion to the generated cases.
    let mut g = Graph::with_capacity(0);
    let mut rng = small_rng(0);
    assert!(churn::remove_random_nodes(&mut g, 10, &mut rng).is_empty());
    assert!(churn::catastrophic_failure(&mut g, 0.5, &mut rng).is_empty());
    g.check_invariants().unwrap();
}

// ── Spec round-trips ────────────────────────────────────────────────────
//
// The declarative experiment layer rests on `parse(display(spec)) == spec`:
// a spec printed into a DESIGN.md table, a CLI invocation or a log line
// must reconstruct the identical experiment.

use p2p_size_estimation::estimation::ProtocolSpec;
use p2p_size_estimation::experiments::spec::ScenarioKind;
use p2p_size_estimation::experiments::{NetworkSpec, ScenarioSpec, Topology};
use p2p_size_estimation::sim::{HopLatency, NetworkModel};

fn protocol_spec_strategy() -> impl Strategy<Value = ProtocolSpec> {
    prop_oneof![
        (1u32..100_000, 1u32..1_000, 1u64..1_000).prop_map(|(l, t, timeout)| {
            ProtocolSpec::SampleCollide {
                l,
                timer: t as f64, // integral: f64 Display/parse round-trips exactly
                timeout,
            }
        }),
        (1u32..64, 1u32..8, 1u32..8, 0u32..40).prop_map(
            |(gossip_to, gossip_for, gossip_until, min_hops)| ProtocolSpec::HopsSampling {
                gossip_to,
                gossip_for,
                gossip_until,
                min_hops,
            }
        ),
        (1u32..10_000, any::<bool>())
            .prop_map(|(rounds, epoched)| ProtocolSpec::Aggregation { rounds, epoched }),
    ]
}

fn scenario_spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (0u8..5, 1u32..100, any::<bool>()).prop_map(|(kind, frac_pct, scale_free)| ScenarioSpec {
        kind: match kind {
            0 => ScenarioKind::Static,
            1 => ScenarioKind::Growing,
            2 => ScenarioKind::Shrinking,
            3 => ScenarioKind::Catastrophic,
            _ => ScenarioKind::CatastrophicFig15,
        },
        fraction: frac_pct as f64 / 100.0,
        topology: if scale_free {
            Topology::ScaleFree
        } else {
            Topology::Heterogeneous
        },
        // The workload grammar's own round-trip is property-tested in
        // `prop_workload`; composing it here would only re-test it.
        churn: None,
    })
}

fn network_spec_strategy() -> impl Strategy<Value = NetworkSpec> {
    (0u32..=100, 0u32..500, any::<bool>(), 0u32..=4, 1u64..5_000).prop_map(
        |(drop_pct, mean, jittered, spread_q, ticks)| {
            let mut m = NetworkModel::ideal()
                .with_drop_rate(drop_pct as f64 / 100.0)
                .with_link_spread(spread_q as f64 / 4.0)
                .with_step_ticks(ticks);
            if mean > 0 {
                let mean = mean as f64;
                m = m.with_latency(if jittered {
                    HopLatency::Uniform {
                        lo: mean / 2.0,
                        hi: 1.5 * mean,
                    }
                } else {
                    HopLatency::Constant(mean)
                });
            }
            NetworkSpec(m)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn protocol_spec_round_trips(spec in protocol_spec_strategy()) {
        let text = spec.to_string();
        let parsed = ProtocolSpec::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("`{text}` failed to parse: {e}")))?;
        prop_assert_eq!(parsed, spec, "display was `{}`", text);
    }

    #[test]
    fn scenario_spec_round_trips(spec in scenario_spec_strategy()) {
        // `fraction` only prints for the kinds that use it; compare the
        // resolved scenarios, which is the equality that matters.
        let text = spec.to_string();
        let parsed = ScenarioSpec::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("`{text}` failed to parse: {e}")))?;
        prop_assert_eq!(parsed.kind, spec.kind, "display was `{}`", &text);
        prop_assert_eq!(parsed.topology, spec.topology, "display was `{}`", &text);
        let a = parsed.resolve(500, 20);
        let b = spec.resolve(500, 20);
        prop_assert_eq!(a.schedule, b.schedule, "display was `{}`", &text);
        prop_assert_eq!(a.name, b.name);
    }

    #[test]
    fn network_spec_round_trips(spec in network_spec_strategy()) {
        let text = spec.to_string();
        let parsed = NetworkSpec::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("`{text}` failed to parse: {e}")))?;
        prop_assert_eq!(parsed, spec, "display was `{}`", text);
    }

    #[test]
    fn parsed_protocol_specs_build_runnable_protocols(spec in protocol_spec_strategy()) {
        // Every parseable spec must build both execution forms without
        // panicking (modulo the async single-turn gossip restriction).
        let sync = spec.build_sync();
        prop_assert_eq!(sync.name(), spec.label());
        let single_turn = !matches!(spec, ProtocolSpec::HopsSampling { gossip_for, .. } if gossip_for != 1);
        if single_turn {
            prop_assert_eq!(spec.build_async().name(), spec.label());
        }
    }
}

// ── CSR adjacency & batched dispatch (PR 7) ─────────────────────────────
//
// The CSR arena accumulates garbage under churn (relocated regions, dead
// nodes' half-edges) that compaction rebuilds away. Compaction must be
// *invisible*: the incrementally-churned graph and its compacted clone
// must agree on every observable — alive set, edge count, and each slot's
// neighbor slice in iteration order — while the clone's arena holds
// exactly the live half-edges.
//
// The timing wheel's batched drain (`pop_bucket`) must dispatch in the
// identical order as single pops, which the heap oracle pins on schedules
// built to maximize timestamp ties.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_churn_storm_matches_from_scratch_rebuild(
        seed in any::<u64>(),
        storms in prop::collection::vec((1u8..20, 1u8..20, 0u8..6), 1..25),
    ) {
        let mut rng = small_rng(seed);
        let mut g = HeterogeneousRandom::new(50, 6).build(&mut rng);
        g.enable_slot_reuse();
        for (leaves, joins, plain_joins) in storms {
            churn::remove_random_nodes(&mut g, leaves as usize, &mut rng);
            // `join_nodes` reserves each arrival's region before wiring it;
            // a plain join grows its region link by link. Mixed, the arena
            // holds reserved slack, relocated regions and abandoned ones.
            churn::join_nodes(&mut g, joins as usize, 6, &mut rng);
            for _ in 0..plain_joins {
                let node = g.add_node();
                for _ in 0..3 {
                    let peer = g.random_alive(&mut rng).expect("the joiner is alive");
                    g.add_edge(node, peer);
                }
            }

            // From-scratch rebuild: compaction rewrites the whole arena
            // slot by slot, dropping every relocated / dead region.
            let mut rebuilt = g.clone();
            rebuilt.compact_adjacency();
            rebuilt.check_invariants().map_err(TestCaseError::fail)?;

            prop_assert_eq!(rebuilt.alive_count(), g.alive_count());
            prop_assert_eq!(rebuilt.edge_count(), g.edge_count());
            prop_assert_eq!(rebuilt.alive_slice(), g.alive_slice());
            for slot in 0..g.num_slots() {
                let id = NodeId::from_index(slot);
                prop_assert_eq!(
                    rebuilt.neighbors(id),
                    g.neighbors(id),
                    "slot {} neighbor order changed under compaction",
                    slot
                );
            }
            // The rebuilt arena is exactly the live half-edges: spans plus
            // 2·edges u32 entries, nothing else.
            prop_assert_eq!(
                rebuilt.adjacency_bytes(),
                g.num_slots() * std::mem::size_of::<u32>() * 3
                    + 2 * rebuilt.edge_count() * std::mem::size_of::<u32>()
            );
        }
    }

    #[test]
    fn batched_wheel_drain_matches_heap_on_tie_heavy_schedules(
        cap in 1usize..9,
        ops in prop::collection::vec(
            // (do_drain, delay_class, raw_delay): class 0 pins delays to
            // {0,1,2} so most entries share a timestamp — the regime where
            // a FIFO bug in the batched drain would show.
            (any::<bool>(), 0u8..3, any::<u64>()),
            1..250,
        ),
    ) {
        use p2p_size_estimation::sim::engine::Engine;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut wheel: Engine<u64> = Engine::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut batch = Vec::new();
        for (do_drain, class, raw) in ops {
            if do_drain && !wheel.is_empty() {
                let t = wheel
                    .pop_bucket(&mut batch, cap)
                    .expect("non-empty wheel yields a batch");
                for &payload in &batch {
                    let Some(Reverse((ht, hp))) = heap.pop() else {
                        return Err(TestCaseError::fail("wheel yielded more than the heap"));
                    };
                    prop_assert_eq!((t.ticks(), payload), (ht, hp),
                        "batched drain diverged from the heap oracle");
                }
            } else {
                let delay = match class {
                    0 => raw % 3,
                    1 => raw % 1_000,
                    _ => raw % (1 << 45),
                };
                let t = wheel.now().ticks() + delay;
                wheel.schedule_in(delay, seq);
                heap.push(Reverse((t, seq)));
                seq += 1;
            }
        }
        // Drain the tail batched too.
        while let Some(t) = wheel.pop_bucket(&mut batch, cap) {
            for &payload in &batch {
                let Some(Reverse((ht, hp))) = heap.pop() else {
                    return Err(TestCaseError::fail("wheel yielded more than the heap"));
                };
                prop_assert_eq!((t.ticks(), payload), (ht, hp),
                    "tail drain diverged from the heap oracle");
            }
        }
        prop_assert!(heap.is_empty(), "heap retained entries the wheel lost");
    }
}
