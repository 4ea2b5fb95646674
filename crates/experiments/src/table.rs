//! Table I — per-estimation overhead vs accuracy on the 100k-class overlay.

use crate::scenario::Scenario;
use p2p_estimation::aggregation::Aggregation;
use p2p_estimation::{Heuristic, HopsSampling, SampleCollide, SizeEstimator};
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::MessageCounter;
use std::fmt;

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Parameterization, as printed in the paper's header row.
    pub parameters: String,
    /// Signed mean error in percent (negative = underestimation) — the
    /// paper prints e.g. "−20%" for HopsSampling.
    pub mean_error_pct: f64,
    /// Mean absolute error in percent — the paper's "+/−" entries.
    pub mean_abs_error_pct: f64,
    /// Messages per reported estimation (heuristic-adjusted: a last10runs
    /// estimate costs 10 underlying runs, §IV-E).
    pub overhead_messages: f64,
}

/// The reproduced Table I.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Overlay size the rows were measured on.
    pub network_size: usize,
    /// The four configurations, in the paper's column order.
    pub rows: Vec<Table1Row>,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table I. Algorithm overhead for an estimation on a {} node overlay",
            self.network_size
        )?;
        writeln!(
            f,
            "{:<24} {:<12} {:>12} {:>12} {:>14}",
            "Algorithm", "Parameters", "MeanErr %", "|Err| %", "Overhead msgs"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<24} {:<12} {:>12.1} {:>12.1} {:>14.0}",
                r.algorithm,
                r.parameters,
                r.mean_error_pct,
                r.mean_abs_error_pct,
                r.overhead_messages
            )?;
        }
        Ok(())
    }
}

impl Table1 {
    /// Renders CSV (one row per configuration).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "algorithm,parameters,mean_error_pct,mean_abs_error_pct,overhead_messages\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.1}\n",
                r.algorithm,
                r.parameters,
                r.mean_error_pct,
                r.mean_abs_error_pct,
                r.overhead_messages
            ));
        }
        out
    }
}

/// Measures one configuration: `runs` estimations on a static overlay,
/// returning (signed mean error %, mean |error| %, messages per run). All
/// four rows are one-shot, so one estimation is one
/// [`SizeEstimator::estimate`] call.
fn measure<E: SizeEstimator>(
    est: &mut E,
    graph: &p2p_overlay::Graph,
    runs: usize,
    heuristic: Heuristic,
    seed: u64,
) -> (f64, f64, f64) {
    let mut rng = small_rng(seed);
    let mut msgs = MessageCounter::new();
    let truth = graph.alive_count() as f64;
    let mut smoother = p2p_estimation::Smoother::new(heuristic);
    let mut signed = 0.0;
    let mut abs = 0.0;
    let mut reported = 0usize;
    // Warm the smoothing window so lastK rows measure steady-state accuracy.
    let warmup = match heuristic {
        Heuristic::OneShot => 0,
        Heuristic::LastKRuns(k) => k,
    };
    let mut per_run_messages = 0.0;
    for i in 0..(runs + warmup) {
        let raw = est
            .estimate(graph, &mut rng, &mut msgs)
            .expect("static overlay estimation cannot fail");
        let value = smoother.apply(raw);
        let run_msgs = msgs.take().total() as f64;
        per_run_messages += run_msgs;
        if i >= warmup {
            let err = 100.0 * (value - truth) / truth;
            signed += err;
            abs += err.abs();
            reported += 1;
        }
    }
    per_run_messages /= (runs + warmup) as f64;
    (
        signed / reported as f64,
        abs / reported as f64,
        per_run_messages * heuristic.overhead_factor() as f64,
    )
}

/// Reproduces Table I on an overlay of `n` nodes with `runs` estimations per
/// configuration.
pub fn table1(n: usize, runs: usize, seed: u64) -> Table1 {
    let mut rng = small_rng(derive_seed(seed, 1000));
    let scenario = Scenario::static_network(n, 1);
    let graph = scenario.build_overlay(&mut rng);

    let mut rows = Vec::new();

    let mut sc = SampleCollide::paper();
    let (se, ae, ov) = measure(
        &mut sc,
        &graph,
        runs,
        Heuristic::OneShot,
        derive_seed(seed, 1001),
    );
    rows.push(Table1Row {
        algorithm: "Sample&Collide (l=200)",
        parameters: "oneShot".into(),
        mean_error_pct: se,
        mean_abs_error_pct: ae,
        overhead_messages: ov,
    });

    let mut hs = HopsSampling::paper();
    let (se, ae, ov) = measure(
        &mut hs,
        &graph,
        runs,
        Heuristic::last10(),
        derive_seed(seed, 1002),
    );
    rows.push(Table1Row {
        algorithm: "HopsSampling",
        parameters: "last10runs".into(),
        mean_error_pct: se,
        mean_abs_error_pct: ae,
        overhead_messages: ov,
    });

    let mut sc = SampleCollide::paper();
    let (se, ae, ov) = measure(
        &mut sc,
        &graph,
        runs,
        Heuristic::last10(),
        derive_seed(seed, 1003),
    );
    rows.push(Table1Row {
        algorithm: "Sample&Collide (l=200)",
        parameters: "last10runs".into(),
        mean_error_pct: se,
        mean_abs_error_pct: ae,
        overhead_messages: ov,
    });

    let mut agg = Aggregation::paper();
    // Aggregation is ~40x costlier per run; a few runs suffice (its noise
    // is tiny, which is the point of the row).
    let agg_runs = runs.clamp(1, 5);
    let (se, ae, ov) = measure(
        &mut agg,
        &graph,
        agg_runs,
        Heuristic::OneShot,
        derive_seed(seed, 1004),
    );
    rows.push(Table1Row {
        algorithm: "Aggregation",
        parameters: "50 rounds".into(),
        mean_error_pct: se,
        mean_abs_error_pct: ae,
        overhead_messages: ov,
    });

    Table1 {
        network_size: n,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reproduces_paper_ordering() {
        // Paper, 100k overlay: S&C oneShot 0.5M ±10% | HS last10 2.5M −20%
        // | S&C last10 5M ±4% | Agg 10M −1%. The "S&C oneShot cheapest"
        // ordering is a large-N property: S&C costs Θ(√(lN)·d̄) vs
        // HopsSampling's Θ(N) per run, crossing over near N ≈ l·d̄²/(2·10)²
        // ≈ 26k for l=200, d̄=7.2 — so measure above the crossover.
        let t = table1(30_000, 8, 99);
        assert_eq!(t.rows.len(), 4);
        let ov: Vec<f64> = t.rows.iter().map(|r| r.overhead_messages).collect();
        // Overhead ordering: S&C oneShot < HS last10 < S&C last10 < Agg.
        assert!(ov[0] < ov[1], "S&C oneShot {} < HS last10 {}", ov[0], ov[1]);
        assert!(ov[1] < ov[2], "HS last10 {} < S&C last10 {}", ov[1], ov[2]);
        assert!(ov[2] < ov[3], "S&C last10 {} < Agg {}", ov[2], ov[3]);
        // Accuracy ordering: Agg ≈ exact; S&C last10 < S&C oneShot; HS worst.
        let abs: Vec<f64> = t.rows.iter().map(|r| r.mean_abs_error_pct).collect();
        assert!(abs[3] < 2.0, "Aggregation |err| {}", abs[3]);
        assert!(
            abs[2] < abs[0],
            "smoothing must help S&C: {} vs {}",
            abs[2],
            abs[0]
        );
        assert!(
            abs[1] > abs[2],
            "HS |err| {} should exceed S&C last10 {}",
            abs[1],
            abs[2]
        );
        // HS underestimates (signed error clearly negative).
        assert!(
            t.rows[1].mean_error_pct < -3.0,
            "HS signed error {}",
            t.rows[1].mean_error_pct
        );
    }

    #[test]
    fn aggregation_overhead_formula() {
        // Overhead = N × rounds × 2 exactly.
        let t = table1(1_000, 2, 7);
        let agg = &t.rows[3];
        assert_eq!(agg.overhead_messages, (1_000 * 50 * 2) as f64);
    }

    #[test]
    fn display_and_csv_render() {
        let t = table1(500, 2, 3);
        let text = format!("{t}");
        assert!(text.contains("Sample&Collide"));
        assert!(text.contains("Aggregation"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("algorithm,"));
    }
}
