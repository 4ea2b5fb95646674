//! The generic experiment engine: one executor for every
//! [`ExperimentSpec`].
//!
//! This subsumes the drive loops the 20 `figNN` generators used to
//! hand-roll. The engine resolves the spec's seed-derivation streams (the
//! historic figures' conventions, pinned bit-for-bit by
//! `tests/golden_figures.rs`), fans replications out over worker threads
//! through one ordered queue ([`map_ordered`]), and streams every finished
//! curve point through a [`ResultSink`] — so CSV/JSON output materializes
//! while a long sweep is still running, and a `--jobs` override changes
//! wall-clock time but never results.
//!
//! Seed-derivation contract (all streams split off with
//! [`derive_seed`]):
//!
//! * experiment seed = `derive_seed(master, spec.seed_stream)` (or the
//!   master itself when `None`);
//! * whole-experiment protocol entries derive from the *master* when they
//!   set a stream (Fig 8's 81/82/83), else use the experiment seed;
//! * sweep point `i` uses `derive_seed(master, seed_base + i)`, and each
//!   protocol entry inside it derives its stream from that point seed
//!   (Figs 19/20's per-class 1/2/3);
//! * replication `r` of any batch uses the shared
//!   [`replication_seeds`] convention (through [`map_replications`]).

use crate::figures::{smooth_last_k, to_quality};
use crate::runner::record_aggregation_convergence;
use crate::runner::{replication_threads, run_scenario_des_telemetry, TelemetryOpts, Trace};
use crate::scenario::Scenario;
use crate::sharded::{run_scenario_des_sharded, ShardSync};
use crate::sink::{ExperimentMeta, ResultSink, Row, RunStats};
use crate::spec::{ExecMode, ExperimentSpec, Presentation, SweepMetric};
use p2p_estimation::{with_async_protocol, Heuristic, ProtocolSpec, SizeMonitor};
use p2p_sim::parallel::{default_threads, map_ordered, map_replications};
use p2p_sim::rng::{derive_seed, replication_seeds, small_rng};
use p2p_stats::series::Figure;
use p2p_stats::Series;
use p2p_telemetry::{Snapshot, TelemetrySink};
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

/// `--metrics` capture: where interval telemetry snapshots go and how
/// often they are taken. Capture is restricted to replication 0 of each
/// protocol entry (and each sweep point), so the metrics file is
/// byte-identical across reruns at any `--jobs` setting.
#[derive(Clone, Debug)]
pub struct MetricsConfig {
    /// JSONL output path (created/truncated per experiment).
    pub path: PathBuf,
    /// Steps between interval snapshots.
    pub every: u64,
}

impl MetricsConfig {
    fn telemetry_opts(&self) -> TelemetryOpts {
        TelemetryOpts {
            every: self.every,
            ..TelemetryOpts::default()
        }
    }
}

/// Execution knobs. `jobs` and `metrics` change wall-clock behavior but
/// never results; `shards` is different — see its doc.
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    /// Concurrent simulations for the whole invocation (figures first,
    /// then replications; `--shards K` divides it) — here, this
    /// experiment's share of that budget (see [`split_budget`]): its
    /// replication workers. `None` keeps each presentation's historic
    /// policy ([`replication_threads`] / [`default_threads`]).
    pub jobs: Option<usize>,
    /// Telemetry capture (`repro run --metrics`); `None` disables it.
    /// Captured runs and uncaptured runs produce bit-identical results.
    pub metrics: Option<MetricsConfig>,
    /// `K ≥ 2` runs each event-driven (Async) replication on `K` parallel
    /// shards ([`run_scenario_des_sharded`]); `0`/`1` keeps the sequential
    /// engine, bit-identical to every golden figure and trace. Unlike
    /// `jobs`, `K` is part of the **result identity**: a `K`-shard run
    /// partitions the RNG streams like a `K`-node cluster and produces a
    /// different (equally valid) realization — byte-stable across reruns
    /// and worker-thread counts at fixed `K`. Sync-mode entries reject
    /// `K ≥ 2`.
    pub shards: u32,
}

/// The open `--metrics` output file.
type MetricsFile = TelemetrySink<BufWriter<File>>;

/// Runs a spec and assembles the result as an in-memory [`Figure`] — the
/// path behind `figures::by_number`.
pub fn run_figure_spec(spec: &ExperimentSpec, master_seed: u64) -> Figure {
    let mut sink = crate::sink::FigureSink::new();
    run_experiment(spec, master_seed, &EngineOptions::default(), &mut sink);
    sink.into_figure()
}

/// Executes `spec`, streaming rows and progress into `sink`.
pub fn run_experiment(
    spec: &ExperimentSpec,
    master_seed: u64,
    opts: &EngineOptions,
    sink: &mut dyn ResultSink,
) {
    let exp_seed = spec
        .seed_stream
        .map_or(master_seed, |s| derive_seed(master_seed, s));
    // The metrics file opens per experiment; snapshots stream into it in
    // entry/sweep-point order as replication-0 runs finish.
    let mut metrics_file: Option<MetricsFile> = opts.metrics.as_ref().map(|m| {
        let f = File::create(&m.path)
            .unwrap_or_else(|e| panic!("cannot create metrics file {}: {e}", m.path.display()));
        TelemetrySink::new(BufWriter::new(f))
    });
    match &spec.presentation {
        Presentation::StaticQuality { smooth, raw_label } => {
            begin(sink, spec, None);
            static_quality(spec, exp_seed, *smooth, raw_label, sink);
        }
        Presentation::Tracking => {
            begin(sink, spec, None);
            tracking(spec, exp_seed, opts, sink, &mut metrics_file);
        }
        Presentation::Convergence => {
            begin(sink, spec, None);
            convergence(spec, exp_seed, opts, sink);
        }
        Presentation::DegreeHistogram => degree_histogram(spec, exp_seed, sink),
        Presentation::SharedOverlay { estimations } => {
            begin(sink, spec, None);
            shared_overlay(spec, master_seed, exp_seed, *estimations, sink);
        }
        Presentation::SweepSummary { metric } => {
            begin(sink, spec, None);
            sweep_summary(
                spec,
                master_seed,
                exp_seed,
                *metric,
                opts,
                sink,
                &mut metrics_file,
            );
        }
    }
    sink.finish();
    if let Some(mf) = metrics_file {
        let path = &opts.metrics.as_ref().expect("file implies config").path;
        mf.finish()
            .unwrap_or_else(|e| panic!("metrics file {} write failed: {e}", path.display()));
    }
}

fn begin(sink: &mut dyn ResultSink, spec: &ExperimentSpec, title_override: Option<String>) {
    sink.begin(&ExperimentMeta {
        id: spec.id.clone(),
        title: title_override.unwrap_or_else(|| spec.title.clone()),
        x_label: spec.x_label.clone(),
        y_label: spec.y_label.clone(),
    });
}

fn emit_series(sink: &mut dyn ResultSink, series: &Series) {
    for &(x, y) in &series.points {
        sink.row(&Row {
            series: &series.name,
            x,
            y,
        });
    }
}

/// One replication of a protocol entry over a scenario, in the entry's
/// execution mode. Protocols are built fresh per replication from the
/// spec; `telemetry` (replication 0 under `--metrics`) additionally
/// captures interval snapshots without perturbing the trace. `shards ≥ 2`
/// runs event-driven entries on the sharded parallel engine — one fresh
/// protocol instance *per shard*, each deployed as its slice of the
/// partition — and says how the run was synchronised (`None` for the
/// sequential engine).
#[expect(
    clippy::too_many_arguments,
    reason = "private; mirrors the engine options"
)]
fn run_one(
    entry_protocol: &ProtocolSpec,
    mode: ExecMode,
    scenario: &Scenario,
    heuristic: Heuristic,
    seed: u64,
    series_name: String,
    telemetry: Option<TelemetryOpts>,
    shards: u32,
) -> (Trace, Vec<Snapshot>, Option<ShardSync>) {
    let mut sync = None;
    let (trace, snaps) = match mode {
        ExecMode::Sync => {
            assert!(
                shards < 2,
                "--shards needs an event-driven protocol entry (sync steps are atomic)"
            );
            // Sync steps send nothing, so a capture's network counters stay
            // zero; overlay, batch and convergence metrics are live.
            let mut p = entry_protocol.build_sync();
            run_scenario_des_telemetry(&mut *p, scenario, heuristic, seed, series_name, telemetry)
        }
        // `with_async_protocol!` is the only per-class match; each shard runs
        // a clone of the fresh build, deployed by its `ShardCore`.
        ExecMode::Async if shards >= 2 => {
            let (trace, snaps, how) = with_async_protocol!(entry_protocol.build_async(), p => {
                run_scenario_des_sharded(
                    |_| p.clone(), scenario, heuristic, seed, series_name, shards, telemetry,
                )
            });
            sync = Some(how);
            (trace, snaps)
        }
        ExecMode::Async => with_async_protocol!(entry_protocol.build_async(), mut p => {
            run_scenario_des_telemetry(&mut p, scenario, heuristic, seed, series_name, telemetry)
        }),
    };
    (trace, snaps, sync)
}

/// Worker threads for a replication batch: `--jobs` or the presentation's
/// historic policy, except that every sharded replication brings its own
/// `min(K, cores)` workers — and a descheduled worker stalls its whole
/// barrier round — so concurrent replications are capped at `cores / K`.
/// Scheduling only: thread counts never affect results.
fn batch_threads(opts: &EngineOptions, reps: usize) -> usize {
    let threads = opts.jobs.unwrap_or_else(|| replication_threads(reps));
    if opts.shards < 2 {
        return threads;
    }
    let cores = default_threads(usize::MAX);
    threads.min((cores / opts.shards as usize).max(1))
}

/// Splits an invocation's worker budget `jobs` over `tasks` independent
/// experiments: `outer` of them run concurrently, each with `inner`
/// replication workers, so `outer × inner ≤ jobs` simulations are ever
/// live. Tasks come first because they have no barrier between them; a
/// single task keeps the whole budget for its replications.
pub fn split_budget(jobs: usize, tasks: usize) -> (usize, usize) {
    let outer = jobs.min(tasks).max(1);
    (outer, (jobs / outer).max(1))
}

/// Figs 1–4/18: one sync trace on the quality axis, smoothed curve first.
fn static_quality(
    spec: &ExperimentSpec,
    exp_seed: u64,
    smooth: Option<usize>,
    raw_label: &str,
    sink: &mut dyn ResultSink,
) {
    let entry = spec
        .protocols
        .first()
        .expect("StaticQuality needs one protocol entry");
    let (trace, ..) = run_one(
        &entry.protocol,
        entry.mode,
        &spec.scenario,
        entry.heuristic,
        entry
            .seed_stream
            .map_or(exp_seed, |s| derive_seed(exp_seed, s)),
        "raw".to_string(),
        None,
        0,
    );
    let truth = spec.scenario.initial_size as f64;
    let raw = to_quality(&trace.estimates, truth, raw_label);
    if let Some(k) = smooth {
        emit_series(sink, &smooth_last_k(&raw, k, &format!("last {k} runs")));
    }
    emit_series(sink, &raw);
    sink.progress(1, 1, &spec.id);
}

/// Figs 9–17: truth curve plus one estimate curve per replication.
///
/// With several protocol entries (a free-form comparison) each runs in
/// turn: entry `i > 0` defaults to seed stream `i` off the experiment seed
/// (so same-class entries don't replay one stream), and its curves are
/// labelled by protocol; the single-entry form keeps the historic
/// `Estimation #r` names the golden figures pin.
fn tracking(
    spec: &ExperimentSpec,
    exp_seed: u64,
    opts: &EngineOptions,
    sink: &mut dyn ResultSink,
    metrics: &mut Option<MetricsFile>,
) {
    assert!(
        !spec.protocols.is_empty(),
        "Tracking needs at least one protocol entry"
    );
    let tel = opts.metrics.as_ref().map(|m| m.telemetry_opts());
    let reps = spec.replications.max(1);
    let threads = batch_threads(opts, reps);
    let total = reps * spec.protocols.len();
    let mut done = 0usize;
    for (ci, entry) in spec.protocols.iter().enumerate() {
        let entry_seed = match (entry.seed_stream, ci) {
            (Some(s), _) => derive_seed(exp_seed, s),
            (None, 0) => exp_seed,
            (None, ci) => derive_seed(exp_seed, ci as u64),
        };
        let scenario = entry.scenario_override.as_ref().unwrap_or(&spec.scenario);
        // Two entries of the same protocol (e.g. different seeds only) would
        // alias in the figure legend; qualify repeats by entry position.
        let mut label = entry.series_label().to_string();
        if spec
            .protocols
            .iter()
            .enumerate()
            .any(|(cj, other)| cj != ci && other.series_label() == label)
        {
            label = format!("{label} ({})", ci + 1);
        }
        let series_name = |i: usize| {
            if spec.protocols.len() == 1 {
                format!("Estimation #{}", i + 1)
            } else if reps == 1 {
                label.clone()
            } else {
                format!("{label} #{}", i + 1)
            }
        };
        map_replications(
            threads,
            entry_seed,
            reps,
            |i, seed| {
                run_one(
                    &entry.protocol,
                    entry.mode,
                    scenario,
                    entry.heuristic,
                    seed,
                    series_name(i),
                    if i == 0 { tel } else { None },
                    opts.shards,
                )
            },
            |gi, (trace, snaps, sync)| {
                if ci == 0 && gi == 0 {
                    let mut real = trace.real_size.clone();
                    real.name = "Real network size".to_string();
                    emit_series(sink, &real);
                }
                if let Some(mf) = metrics.as_mut() {
                    for s in &snaps {
                        mf.write(s);
                    }
                }
                emit_series(sink, &trace.estimates);
                // Surface the event-core accounting of message-level runs
                // (diagnostic only; sync-adapter runs dispatch no payloads
                // worth reporting beyond their control grid).
                if trace.net.sent > 0 {
                    sink.run_stats(&RunStats {
                        series: &trace.estimates.name,
                        events: trace.engine.dispatched,
                        peak_queue: trace.engine.peak_depth,
                        pool_hit_rate: trace.engine.pool_hit_rate(),
                        sent: trace.net.sent,
                        peak_rss_kb: crate::sink::peak_rss_kb(),
                        sync,
                    });
                }
                done += 1;
                sink.progress(done, total, &trace.estimates.name);
            },
        );
    }
}

/// Figs 5/6: round-by-round convergence of independent averaging runs.
fn convergence(
    spec: &ExperimentSpec,
    exp_seed: u64,
    opts: &EngineOptions,
    sink: &mut dyn ResultSink,
) {
    let reps = spec.replications.max(3);
    let threads = opts.jobs.unwrap_or_else(|| default_threads(reps));
    let n = spec.scenario.initial_size;
    let rounds = spec.scenario.steps as u32;
    let mut done = 0usize;
    map_replications(
        threads,
        exp_seed,
        reps,
        |i, seed| {
            record_aggregation_convergence(n, rounds, seed, format!("Estimation #{}", i + 1)).0
        },
        |_, series| {
            emit_series(sink, &series);
            done += 1;
            sink.progress(done, reps, &series.name);
        },
    );
}

/// Fig 7: the overlay's degree histogram; `{max}`/`{mean}` title
/// placeholders are filled from the built graph.
fn degree_histogram(spec: &ExperimentSpec, exp_seed: u64, sink: &mut dyn ResultSink) {
    let mut rng = small_rng(exp_seed);
    let graph = spec.scenario.build_overlay(&mut rng);
    let stats = p2p_overlay::metrics::degree_stats(&graph);
    let title = spec
        .title
        .replace("{max}", &stats.max.to_string())
        .replace("{mean}", &format!("{:.1}", stats.mean));
    begin(sink, spec, Some(title));
    let mut s = Series::new("Scale Free Distribution");
    for (degree, count) in p2p_overlay::metrics::degree_histogram(&graph) {
        s.push(degree as f64, count as f64);
    }
    emit_series(sink, &s);
    sink.progress(1, 1, &spec.id);
}

/// Fig 8: every protocol estimates repeatedly on one shared overlay
/// snapshot (protocol entry streams derive from the master seed).
fn shared_overlay(
    spec: &ExperimentSpec,
    master_seed: u64,
    exp_seed: u64,
    estimations: u64,
    sink: &mut dyn ResultSink,
) {
    let mut rng = small_rng(exp_seed);
    let graph = spec.scenario.build_overlay(&mut rng);
    let truth = graph.alive_count() as f64;
    for (done, entry) in spec.protocols.iter().enumerate() {
        let seed = entry
            .seed_stream
            .map_or(exp_seed, |s| derive_seed(master_seed, s));
        let mut protocol = entry.protocol.build_sync();
        let mut monitor = SizeMonitor::new(&mut *protocol, entry.heuristic, 1);
        let mut rng = small_rng(seed);
        let mut raw = Series::new("raw");
        for _ in 0..estimations {
            if let Some(r) = monitor.tick(&graph, &mut rng) {
                raw.push(r.tick as f64, r.reported);
            }
        }
        emit_series(sink, &to_quality(&raw, truth, entry.series_label()));
        sink.progress(done + 1, spec.protocols.len(), entry.series_label());
    }
}

/// Mean `|estimate − truth| / truth` over every completed reporting period
/// of every trace, in percent. `None` when nothing completed.
fn mean_abs_err_pct(traces: &[Trace]) -> Option<f64> {
    let mut err = 0.0;
    let mut n = 0usize;
    for t in traces {
        for &(x, est) in &t.estimates.points {
            let truth = t
                .real_size
                .points
                .iter()
                .find(|&&(rx, _)| rx == x)
                .map(|&(_, y)| y)?;
            err += (est - truth).abs() / truth;
            n += 1;
        }
    }
    (n > 0).then(|| 100.0 * err / n as f64)
}

/// Total completed reporting periods as a percentage of those scheduled.
fn completed_pct(traces: &[Trace], scheduled_per_trace: u64) -> f64 {
    let done: usize = traces.iter().map(|t| t.completed).sum();
    100.0 * done as f64 / (scheduled_per_trace * traces.len() as u64) as f64
}

/// Figs 19/20 and CLI sweeps: one series per protocol entry, one metric
/// point per sweep value.
fn sweep_summary(
    spec: &ExperimentSpec,
    master_seed: u64,
    exp_seed: u64,
    metric: SweepMetric,
    opts: &EngineOptions,
    sink: &mut dyn ResultSink,
    metrics: &mut Option<MetricsFile>,
) {
    let sweep = spec.sweep.as_ref().expect("SweepSummary needs a sweep");
    let tel = opts.metrics.as_ref().map(|m| m.telemetry_opts());
    let reps = spec.replications.max(1);
    // One group per (sweep point, protocol entry) in row order, `reps`
    // replication seeds each. Every replication of every group goes to the
    // workers as one queue — no barrier between groups — and the ordered
    // emit side closes a group when its last replication arrives.
    let mut groups = Vec::new();
    let mut seeds = Vec::new();
    for (li, &v) in sweep.values.iter().enumerate() {
        let point_seed = derive_seed(master_seed, sweep.seed_base + li as u64);
        for entry in &spec.protocols {
            let base = entry.scenario_override.as_ref().unwrap_or(&spec.scenario);
            let scenario = base
                .clone()
                .with_network(sweep.axis.apply(base.network, v))
                .with_name(format!("{} {}", base.name, sweep.axis.label(v)));
            let seed = entry.seed_stream.map_or_else(
                || derive_seed(exp_seed, li as u64),
                |s| derive_seed(point_seed, s),
            );
            seeds.extend(replication_seeds(seed, reps));
            groups.push((entry, scenario, v));
        }
    }
    let threads = batch_threads(opts, seeds.len());
    let total = groups.len();
    let mut traces: Vec<Trace> = Vec::with_capacity(reps);
    map_ordered(
        seeds,
        threads,
        |t, seed| {
            let (entry, scenario, _) = &groups[t / reps];
            let i = t % reps;
            run_one(
                &entry.protocol,
                entry.mode,
                scenario,
                entry.heuristic,
                seed,
                format!("Estimation #{}", i + 1),
                if i == 0 { tel } else { None },
                opts.shards,
            )
        },
        |t, (trace, snaps, _)| {
            let group = t / reps;
            let (entry, scenario, v) = &groups[group];
            traces.push(trace);
            if let Some(mf) = metrics.as_mut() {
                // Sweep-point snapshots are qualified by axis value,
                // so one metrics file covers the whole sweep.
                for mut s in snaps {
                    s.series = format!("{} {}", entry.series_label(), sweep.axis.label(*v));
                    mf.write(&s);
                }
            }
            if traces.len() < reps {
                return;
            }
            let y = match metric {
                SweepMetric::MeanAbsErrPct => mean_abs_err_pct(&traces),
                // A timeline too short for one reporting period (epoched
                // Aggregation with steps < rounds) schedules nothing — no
                // point to plot, rather than a 0/0 NaN row. The CLI rejects
                // such specs up front.
                SweepMetric::CompletedPct => {
                    match entry.protocol.scheduled_reports(scenario.steps) {
                        0 => None,
                        scheduled => Some(completed_pct(&traces, scheduled)),
                    }
                }
            };
            if let Some(y) = y {
                sink.row(&Row {
                    series: entry.series_label(),
                    x: sweep.axis.x(*v),
                    y,
                });
            }
            traces.clear();
            sink.progress(
                group + 1,
                total,
                &format!("{} {}", entry.series_label(), sweep.axis.label(*v)),
            );
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ProtocolRun, Sweep, SweepAxis};
    use crate::ExperimentScale;

    fn tracking_spec(reps: usize) -> ExperimentSpec {
        ExperimentSpec {
            id: "t".to_string(),
            title: "t".to_string(),
            x_label: "step".to_string(),
            y_label: "size".to_string(),
            scenario: Scenario::growing(1_000, 10, 0.5),
            protocols: vec![ProtocolRun::sync(ProtocolSpec::sample_collide_cheap())],
            replications: reps,
            seed_stream: Some(9),
            sweep: None,
            presentation: Presentation::Tracking,
        }
    }

    #[test]
    fn streamed_replications_match_the_batch_helper() {
        // Streaming must use the exact seed convention of
        // replication_seeds, in replication order, at any thread count.
        let batch: Vec<(usize, u64)> = replication_seeds(42, 7).enumerate().collect();
        for threads in [1, 2, 3, 7, 16] {
            let mut streamed = Vec::new();
            map_replications(
                threads,
                42,
                7,
                |i, seed| (i, seed),
                |i, r| {
                    assert_eq!(i, streamed.len(), "threads={threads}");
                    streamed.push(r);
                },
            );
            assert_eq!(batch, streamed, "threads={threads}");
        }
    }

    #[test]
    fn budget_goes_to_tasks_first_and_is_never_overspent() {
        for (jobs, tasks, want) in [
            (1, 1, (1, 1)),
            (1, 24, (1, 1)),
            (2, 24, (2, 1)),
            (2, 1, (1, 2)),
            (8, 1, (1, 8)),
            (8, 3, (3, 2)),
            (7, 2, (2, 3)),
            (64, 24, (24, 2)),
            (5, 24, (5, 1)),
        ] {
            assert_eq!(split_budget(jobs, tasks), want, "J={jobs}, tasks={tasks}");
        }
        for jobs in 1..=20 {
            for tasks in 1..=30 {
                let (outer, inner) = split_budget(jobs, tasks);
                assert!(outer >= 1 && inner >= 1);
                assert!(outer <= tasks && outer * inner <= jobs);
            }
        }
    }

    #[test]
    fn tracking_emits_truth_then_replications() {
        let fig = run_figure_spec(&tracking_spec(3), 7);
        assert_eq!(fig.series.len(), 4);
        assert_eq!(fig.series[0].name, "Real network size");
        assert_eq!(fig.series[1].name, "Estimation #1");
        assert_eq!(fig.series[3].name, "Estimation #3");
    }

    #[test]
    fn jobs_override_changes_nothing_but_wall_clock() {
        let a = run_figure_spec(&tracking_spec(4), 11);
        let mut sink = crate::sink::FigureSink::new();
        run_experiment(
            &tracking_spec(4),
            11,
            &EngineOptions {
                jobs: Some(1),
                ..EngineOptions::default()
            },
            &mut sink,
        );
        let b = sink.into_figure();
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.points, sb.points, "{}", sa.name);
        }
    }

    #[test]
    fn sharded_option_runs_async_entries_deterministically() {
        // A WAN aggregation entry on 2 shards: same bytes across reruns
        // and across --jobs settings (which `batch_threads` caps at
        // cores / K concurrent replications — scheduling only); a different
        // (valid) realization than the sequential engine, which stays the
        // `shards: 0` default.
        let spec = ExperimentSpec {
            id: "t".to_string(),
            title: "t".to_string(),
            x_label: "step".to_string(),
            y_label: "size".to_string(),
            scenario: Scenario::static_network(1_200, 40)
                .with_network(p2p_sim::NetworkModel::wan()),
            protocols: vec![ProtocolRun::async_(
                ProtocolSpec::parse("aggregation:rounds=20").unwrap(),
            )],
            replications: 3,
            seed_stream: Some(9),
            sweep: None,
            presentation: Presentation::Tracking,
        };
        let run = |opts: &EngineOptions| {
            let mut sink = crate::sink::FigureSink::new();
            run_experiment(&spec, 7, opts, &mut sink);
            sink.into_figure()
        };
        let sharded = EngineOptions {
            shards: 2,
            ..EngineOptions::default()
        };
        let a = run(&sharded);
        let b = run(&sharded);
        let with_jobs = |jobs| {
            run(&EngineOptions {
                jobs: Some(jobs),
                shards: 2,
                ..EngineOptions::default()
            })
        };
        let sequential = run(&EngineOptions::default());
        assert_eq!(a.series.len(), sequential.series.len());
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.points, sb.points, "rerun: {}", sa.name);
        }
        for jobs in [1, 3] {
            for (sa, sc) in a.series.iter().zip(&with_jobs(jobs).series) {
                assert_eq!(sa.points, sc.points, "--jobs {jobs}: {}", sa.name);
            }
        }
        let cores = default_threads(usize::MAX);
        for (jobs, shards, want) in [(3, 2, (cores / 2).max(1)), (3, 64, 1), (3, 0, 3)] {
            let opts = EngineOptions {
                jobs: Some(jobs),
                shards,
                ..EngineOptions::default()
            };
            assert_eq!(batch_threads(&opts, 3), want.min(jobs), "K={shards}");
        }
        // Replications still land on distinct derived seeds.
        assert_ne!(a.series[1].points, a.series[2].points);
    }

    #[test]
    fn tracking_runs_every_protocol_entry() {
        // A free-form comparison: two protocols, no sweep — both must run,
        // on distinct seed streams, with protocol-labelled curves.
        let mut spec = tracking_spec(2);
        spec.protocols = vec![
            ProtocolRun::sync(ProtocolSpec::sample_collide_cheap()),
            ProtocolRun::sync(ProtocolSpec::hops_sampling_paper()),
        ];
        let fig = run_figure_spec(&spec, 7);
        assert_eq!(fig.series.len(), 5);
        assert_eq!(fig.series[0].name, "Real network size");
        assert_eq!(fig.series[1].name, "Sample&Collide #1");
        assert_eq!(fig.series[2].name, "Sample&Collide #2");
        assert_eq!(fig.series[3].name, "HopsSampling #1");
        assert_eq!(fig.series[4].name, "HopsSampling #2");
        // Distinct default streams and disambiguated labels: the same
        // protocol twice is neither replayed nor merged into one series.
        let mut twin = tracking_spec(2);
        twin.protocols = vec![
            ProtocolRun::sync(ProtocolSpec::sample_collide_cheap()),
            ProtocolRun::sync(ProtocolSpec::sample_collide_cheap()),
        ];
        let fig = run_figure_spec(&twin, 7);
        assert_eq!(fig.series.len(), 5);
        assert_eq!(fig.series[1].name, "Sample&Collide (1) #1");
        assert_eq!(fig.series[3].name, "Sample&Collide (2) #1");
        assert_ne!(fig.series[1].points, fig.series[3].points);
    }

    #[test]
    fn completed_metric_skips_unschedulable_timelines() {
        // Epoched aggregation on a 10-step timeline schedules zero epochs:
        // no NaN row, just no point.
        let spec = ExperimentSpec {
            id: "x".to_string(),
            title: "t".to_string(),
            x_label: "x".to_string(),
            y_label: "y".to_string(),
            scenario: Scenario::static_network(300, 10),
            protocols: vec![ProtocolRun::sync(ProtocolSpec::aggregation_paper())],
            replications: 1,
            seed_stream: None,
            sweep: Some(Sweep {
                axis: SweepAxis::Drop,
                values: vec![0.0],
                seed_base: 0,
            }),
            presentation: Presentation::SweepSummary {
                metric: SweepMetric::CompletedPct,
            },
        };
        let fig = run_figure_spec(&spec, 5);
        assert!(
            fig.series.is_empty(),
            "expected no rows, got {:?}",
            fig.series
        );
    }

    #[test]
    fn progress_reaches_the_sink_in_order() {
        struct Counting {
            rows: usize,
            progress: Vec<(usize, usize)>,
        }
        impl ResultSink for Counting {
            fn row(&mut self, _row: &Row<'_>) {
                self.rows += 1;
            }
            fn progress(&mut self, done: usize, total: usize, _label: &str) {
                self.progress.push((done, total));
            }
        }
        let mut sink = Counting {
            rows: 0,
            progress: Vec::new(),
        };
        run_experiment(&tracking_spec(3), 7, &EngineOptions::default(), &mut sink);
        assert!(sink.rows > 0);
        assert_eq!(sink.progress, vec![(1, 3), (2, 3), (3, 3)]);
    }

    #[test]
    fn free_form_sweep_runs_a_combination_without_a_figure_number() {
        // The acceptance-criteria combination: an async protocol × a
        // catastrophic scenario × a lossy network — no paper figure plots
        // this.
        let scale = ExperimentScale::tiny();
        let spec = ExperimentSpec {
            id: "custom".to_string(),
            title: "S&C availability under loss, catastrophic churn".to_string(),
            x_label: "drop %".to_string(),
            y_label: "completed %".to_string(),
            scenario: Scenario::catastrophic(scale.net_nodes, 12),
            protocols: vec![ProtocolRun::async_(
                ProtocolSpec::parse("sc:l=10,timeout=12").unwrap(),
            )],
            replications: 2,
            seed_stream: None,
            sweep: Some(Sweep {
                axis: SweepAxis::Drop,
                values: vec![0.0, 0.1],
                seed_base: 0,
            }),
            presentation: Presentation::SweepSummary {
                metric: SweepMetric::CompletedPct,
            },
        };
        let fig = run_figure_spec(&spec, 33);
        assert_eq!(fig.series.len(), 1);
        let s = &fig.series[0];
        assert_eq!(s.name, "Sample&Collide");
        assert_eq!(s.points.len(), 2);
        let (lossless, lossy) = (s.points[0].1, s.points[1].1);
        assert!(lossless > 90.0, "lossless completion {lossless}%");
        assert!(
            lossy < lossless,
            "10% drop must cost completions: {lossy} vs {lossless}"
        );
    }
}
