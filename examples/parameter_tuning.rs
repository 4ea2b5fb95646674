//! Picking `l`: the accuracy/overhead dial of Sample&Collide.
//!
//! ```text
//! cargo run --release --example parameter_tuning
//! ```
//!
//! §V(m): "A strength of this algorithm is thus to adapt to the application
//! performance needs by simply modifying one parameter." This example sweeps
//! `l`, measures accuracy and message cost, and picks the cheapest `l`
//! meeting a target precision — the workflow an application developer would
//! actually follow.

use p2p_size_estimation::estimation::{Heuristic, ProtocolSpec, SizeMonitor};
use p2p_size_estimation::overlay::builder::{GraphBuilder, HeterogeneousRandom};
use p2p_size_estimation::sim::rng::small_rng;

struct SweepPoint {
    l: u32,
    mean_abs_err_pct: f64,
    msgs_per_estimate: f64,
}

fn main() {
    let n = 10_000;
    let target_err_pct = 5.0;
    let runs = 20;
    let mut rng = small_rng(1234);
    let graph = HeterogeneousRandom::paper(n).build(&mut rng);

    println!("sweeping l on a {n}-node overlay ({runs} estimations per point)\n");
    println!("{:>6} {:>10} {:>14}", "l", "|err| %", "msgs/est");

    let mut sweep = Vec::new();
    for l in [5u32, 10, 25, 50, 100, 200, 400] {
        // Each sweep point is a protocol *spec* — the same strings work in
        // `repro run --protocol ...` and in experiment definitions.
        let mut sc = ProtocolSpec::parse(&format!("sample-collide:l={l}"))
            .expect("valid spec")
            .build_sync();
        let mut gauge = SizeMonitor::new(&mut *sc, Heuristic::OneShot, 1);
        let mut err = 0.0;
        for _ in 0..runs {
            let est = gauge.tick(&graph, &mut rng).expect("static overlay").raw;
            err += (est - n as f64).abs() / n as f64;
        }
        let point = SweepPoint {
            l,
            mean_abs_err_pct: 100.0 * err / runs as f64,
            msgs_per_estimate: gauge.total_messages().total() as f64 / runs as f64,
        };
        println!(
            "{:>6} {:>10.2} {:>14.0}",
            point.l, point.mean_abs_err_pct, point.msgs_per_estimate
        );
        sweep.push(point);
    }

    // Pick the cheapest configuration meeting the target. Costs grow ~√l,
    // error falls ~1/√l, so the frontier is monotone and this is just a scan.
    match sweep
        .iter()
        .filter(|p| p.mean_abs_err_pct <= target_err_pct)
        .min_by(|a, b| a.msgs_per_estimate.total_cmp(&b.msgs_per_estimate))
    {
        Some(best) => println!(
            "\ncheapest l meeting |err| <= {target_err_pct}%: l = {} at {:.0} msgs/estimate",
            best.l, best.msgs_per_estimate
        ),
        None => println!("\nno swept l met |err| <= {target_err_pct}% — increase l beyond 400"),
    }

    println!(
        "compare: Aggregation would cost {} msgs for an exact answer (N*50*2),\n\
         HopsSampling about {} with a -20% bias (2.2*N*10 for last10runs).",
        n * 50 * 2,
        (2.2 * n as f64 * 10.0) as u64
    );
}
