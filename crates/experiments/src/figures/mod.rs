//! The figure registry: every paper figure is a registered
//! [`ExperimentSpec`](crate::spec::ExperimentSpec) executed by the generic
//! [engine](crate::engine).
//!
//! [`spec_for`] returns the declarative description of a figure at a given
//! scale; [`by_number`] (and the `figNN` convenience wrappers) run it and
//! return a plot-ready [`Figure`]. The mapping spec → paper figure is
//! tabulated in `DESIGN.md`; `tests/golden_figures.rs` pins every
//! registry-generated figure bit-for-bit against the pre-registry
//! generators.

mod defs;

pub use defs::spec_for;

use crate::engine::run_figure_spec;
use crate::ExperimentScale;
use p2p_stats::series::Figure;
use p2p_stats::{Series, SlidingWindow};

/// All figure ids: the paper's 1–18, the message-level network extensions
/// 19 (delay variance) and 20 (loss), and the realistic-churn workload
/// extensions 21 (heavy-tailed sessions), 22 (diurnal) and 23 (flash crowd
/// + regional failure).
pub const ALL_FIGURES: [u32; 23] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
];

/// Runs a figure by paper number.
pub fn by_number(n: u32, scale: &ExperimentScale, seed: u64) -> Option<Figure> {
    spec_for(n, scale).map(|spec| run_figure_spec(&spec, seed))
}

macro_rules! fig_fn {
    ($($name:ident => $n:literal),* $(,)?) => {
        $(
            #[doc = concat!("Figure ", stringify!($n), " — runs the spec registered under this number (see [`spec_for`]).")]
            pub fn $name(scale: &ExperimentScale, seed: u64) -> Figure {
                by_number($n, scale, seed).expect("registered figure")
            }
        )*
    };
}

fig_fn! {
    fig01 => 1, fig02 => 2, fig03 => 3, fig04 => 4, fig05 => 5,
    fig06 => 6, fig07 => 7, fig08 => 8, fig09 => 9, fig10 => 10,
    fig11 => 11, fig12 => 12, fig13 => 13, fig14 => 14, fig15 => 15,
    fig16 => 16, fig17 => 17, fig18 => 18, fig19 => 19, fig20 => 20,
    fig21 => 21, fig22 => 22, fig23 => 23,
}

/// Rescales a raw-estimate series to the paper's quality-% axis.
pub(crate) fn to_quality(series: &Series, truth: f64, name: &str) -> Series {
    let mut out = Series::new(name);
    for &(x, y) in &series.points {
        out.push(x, 100.0 * y / truth);
    }
    out
}

/// Derives the `last10runs` curve from a raw one-shot series.
pub(crate) fn smooth_last_k(series: &Series, k: usize, name: &str) -> Series {
    let mut w = SlidingWindow::new(k);
    let mut out = Series::new(name);
    for &(x, y) in &series.points {
        out.push(x, w.push(y));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_stats::summary::within_band;

    fn tiny() -> ExperimentScale {
        ExperimentScale::tiny()
    }

    #[test]
    fn quality_rescaling() {
        let mut s = Series::new("raw");
        s.push(0.0, 900.0);
        s.push(1.0, 1_100.0);
        let q = to_quality(&s, 1_000.0, "q");
        assert_eq!(q.points, vec![(0.0, 90.0), (1.0, 110.0)]);
    }

    #[test]
    fn smoothing_matches_window_semantics() {
        let mut s = Series::new("raw");
        for i in 0..5 {
            s.push(i as f64, (i + 1) as f64);
        }
        let sm = smooth_last_k(&s, 2, "sm");
        assert_eq!(
            sm.points,
            vec![(0.0, 1.0), (1.0, 1.5), (2.0, 2.5), (3.0, 3.5), (4.0, 4.5)]
        );
    }

    #[test]
    fn unknown_figure_number_is_none() {
        let scale = ExperimentScale::tiny();
        assert!(by_number(0, &scale, 1).is_none());
        assert!(by_number(24, &scale, 1).is_none());
        assert!(spec_for(0, &scale).is_none());
    }

    #[test]
    fn every_registered_figure_has_a_spec() {
        let scale = tiny();
        for n in ALL_FIGURES {
            let spec = spec_for(n, &scale).expect("registered");
            assert_eq!(spec.id, format!("fig{n:02}"));
            assert!(!spec.summary().is_empty());
        }
    }

    // ── Static figures (1–6, 18) ────────────────────────────────────────

    #[test]
    fn fig01_shape() {
        let fig = fig01(&tiny(), 1);
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].name, "last 10 runs");
        assert_eq!(fig.series[1].name, "one shot");
        assert_eq!(fig.series[1].len(), 100);
        // last10runs must be tighter than oneShot, and both near 100.
        let one = within_band(&fig.series[1].ys(), 25.0);
        let smooth = within_band(&fig.series[0].ys()[10..], 10.0);
        assert!(one > 0.8, "one-shot within 25%: {one}");
        assert!(smooth > 0.9, "last10 (warmed up) within 10%: {smooth}");
    }

    #[test]
    fn fig05_converges_to_100() {
        let fig = fig05(&tiny(), 2);
        assert!(fig.series.len() >= 3);
        for s in &fig.series {
            let last = s.points.last().unwrap().1;
            assert!((99.0..101.0).contains(&last), "{}: final {last}", s.name);
        }
    }

    #[test]
    fn fig18_is_noisier_than_fig01() {
        let f18 = fig18(&tiny(), 3);
        let f1 = fig01(&tiny(), 3);
        assert_eq!(f18.series.len(), 1);
        assert_eq!(f18.series[0].name, "One Shot");
        let spread = |ys: &[f64]| {
            let m = ys.iter().sum::<f64>() / ys.len() as f64;
            (ys.iter().map(|y| (y - m) * (y - m)).sum::<f64>() / ys.len() as f64).sqrt()
        };
        let s18 = spread(&f18.series[0].ys());
        let s1 = spread(&f1.series[1].ys());
        assert!(
            s18 > s1,
            "l=10 std {s18:.1} should exceed l=200 std {s1:.1}"
        );
    }

    #[test]
    fn figure_ids_match_functions() {
        assert_eq!(fig02(&tiny(), 4).id, "fig02");
        assert_eq!(fig03(&tiny(), 4).id, "fig03");
        assert_eq!(fig04(&tiny(), 4).id, "fig04");
        assert_eq!(fig06(&tiny(), 4).id, "fig06");
    }

    // ── Scale-free figures (7/8) ────────────────────────────────────────

    #[test]
    fn fig07_distribution_is_heavy_tailed() {
        let scale = tiny();
        let fig = fig07(&scale, 5);
        let s = &fig.series[0];
        assert!(!s.is_empty());
        assert!(fig.title.contains("max node degree"));
        assert!(
            !fig.title.contains("{max}"),
            "placeholder left: {}",
            fig.title
        );
        // Convert back to points and check the log-log slope is power-law-ish.
        let points: Vec<(usize, u64)> = s
            .points
            .iter()
            .map(|&(d, c)| (d as usize, c as u64))
            .collect();
        let slope = p2p_stats::histogram::log_log_slope(&points, 3).unwrap();
        assert!(
            (-4.0..-1.0).contains(&slope),
            "log-log slope {slope}, expected power law"
        );
        // Minimum degree is m = 3 by construction.
        assert!(s.points[0].0 >= 3.0);
    }

    #[test]
    fn fig08_sc_and_agg_stay_accurate_hops_underestimates_more() {
        // §IV-C(g): "the degree distribution does not bias Sample&Collide";
        // "Aggregation also still provides accurate results"; "In the
        // HopsSampling case … the under estimation factor … is increased".
        let scale = tiny();
        let fig = fig08(&scale, 6);
        let mean = |name: &str| {
            let s = fig.series.iter().find(|s| s.name == name).unwrap();
            let ys = s.ys();
            ys.iter().sum::<f64>() / ys.len() as f64
        };
        let agg = mean("Aggregation");
        let sc = mean("Sample&collide");
        let hs = mean("HopsSampling");
        assert!((97.0..103.0).contains(&agg), "Aggregation mean {agg}");
        assert!((88.0..112.0).contains(&sc), "Sample&Collide mean {sc}");
        assert!(
            hs < sc,
            "HopsSampling ({hs}) should underestimate vs S&C ({sc})"
        );
        assert!(hs < 95.0, "HopsSampling mean {hs} should sit below 95%");
    }

    // ── Dynamic figures (9–17) ──────────────────────────────────────────

    /// Mean relative deviation between an estimate curve and the truth curve
    /// at matching steps.
    fn tracking_error(fig: &Figure, series_idx: usize) -> f64 {
        let real = &fig.series[0];
        let est = &fig.series[series_idx];
        let mut err = 0.0;
        let mut n = 0usize;
        for &(x, y) in &est.points {
            if let Some(&(_, truth)) = real.points.iter().find(|&&(rx, _)| rx == x) {
                err += (y - truth).abs() / truth;
                n += 1;
            }
        }
        err / n as f64
    }

    #[test]
    fn fig09_sc_tracks_catastrophic_changes() {
        let fig = fig09(&tiny(), 21);
        assert_eq!(fig.series[0].name, "Real network size");
        assert!(fig.series.len() >= 3);
        let err = tracking_error(&fig, 1);
        // §IV-D(i): "the algorithm reacts very well to changes, even brutal".
        assert!(err < 0.25, "mean tracking error {err}");
    }

    #[test]
    fn fig10_truth_grows_and_estimates_follow() {
        let fig = fig10(&tiny(), 22);
        let real = &fig.series[0];
        let first = real.points.first().unwrap().1;
        let last = real.points.last().unwrap().1;
        assert!(
            last > 1.4 * first,
            "truth should grow 50%: {first} → {last}"
        );
        assert!(tracking_error(&fig, 1) < 0.25);
    }

    #[test]
    fn fig14_hs_underestimates_but_follows_shape() {
        let fig = fig14(&tiny(), 23);
        let err = tracking_error(&fig, 1);
        // HS estimates lag (last10runs) and sit below truth, but stay in a
        // broad band (§IV-D(j)).
        assert!(err < 0.45, "mean tracking error {err}");
    }

    #[test]
    fn fig16_aggregation_adapts_to_growth() {
        let fig = fig16(&tiny(), 24);
        // §IV-D(k): "fairly good adaptation to a growing network" — the last
        // epoch estimate should be within ~20% of the final size.
        let real_last = fig.series[0].points.last().unwrap().1;
        let est_last = fig.series[1].points.last().unwrap().1;
        let rel = (est_last - real_last).abs() / real_last;
        assert!(
            rel < 0.2,
            "final epoch error {rel} ({est_last} vs {real_last})"
        );
    }

    #[test]
    fn fig17_aggregation_struggles_when_shrinking() {
        // The estimates should visibly deviate from the shrinking truth more
        // than they do from the growing one (the paper's headline asymmetry).
        let grow = fig16(&tiny(), 25);
        let shrink = fig17(&tiny(), 25);
        let e_grow = tracking_error(&grow, 1);
        let e_shrink = tracking_error(&shrink, 1);
        assert!(
            e_shrink > e_grow,
            "shrinking error {e_shrink} should exceed growing error {e_grow}"
        );
    }

    #[test]
    fn aggregation_figures_report_on_epoch_grid() {
        // Epoch boundaries land at multiples of 50 rounds on the unified
        // 1-based step axis.
        let fig = fig16(&tiny(), 26);
        for series in &fig.series {
            for &(x, _) in &series.points {
                assert_eq!(x as u64 % 50, 0, "{}: x = {x}", series.name);
            }
        }
    }

    // ── Realistic-churn figures (21–23) ─────────────────────────────────

    #[test]
    fn fig21_heavy_tailed_churn_tracks_for_the_polling_classes() {
        let fig = fig21(&tiny(), 41);
        assert_eq!(fig.series.len(), 4);
        assert_eq!(fig.series[0].name, "Real network size");
        assert_eq!(fig.series[1].name, "Sample&Collide");
        assert_eq!(fig.series[2].name, "HopsSampling");
        assert_eq!(fig.series[3].name, "Aggregation");
        // Balanced Pareto sessions keep the truth in a band around the
        // start, and S&C keeps tracking it.
        let truth = &fig.series[0];
        for &(_, y) in &truth.points {
            assert!((0.4..=1.8).contains(&(y / 2_000.0)), "truth {y}");
        }
        assert!(
            tracking_error(&fig, 1) < 0.3,
            "S&C under heavy-tailed churn"
        );
        // The epidemic class reports on its epoch grid.
        for &(x, _) in &fig.series[3].points {
            assert_eq!(x as u64 % 50, 0, "agg x = {x}");
        }
    }

    #[test]
    fn fig22_diurnal_truth_oscillates() {
        let fig = fig22(&tiny(), 42);
        let truth = &fig.series[0];
        let (lo, hi) = truth
            .points
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| {
                (lo.min(y), hi.max(y))
            });
        // ±90% swing around a balanced rate must visibly move the
        // population both ways.
        assert!(hi > 1.02 * 2_000.0, "peak {hi}");
        assert!(lo < 0.98 * 2_000.0, "trough {lo}");
    }

    #[test]
    fn fig23_flash_crowd_and_regional_failure_shape() {
        let fig = fig23(&tiny(), 43);
        let truth = &fig.series[0];
        let at = |step: f64| {
            truth
                .points
                .iter()
                .find(|&&(x, _)| x == step)
                .map(|&(_, y)| y)
                .unwrap()
        };
        assert_eq!(at(24.0), 2_000.0); // quiet before the crowd
        assert_eq!(at(25.0), 3_000.0); // +50% flash crowd
        assert_eq!(at(54.0), 3_000.0); // crowd holds
        assert_eq!(at(55.0), 2_000.0); // cohort departs together
                                       // Regional failure at 75: one of 8 regions of the then-current
                                       // population dies (survivors of the original stripe plus any of the
                                       // crowd that wired into it are gone — the crowd already left, so
                                       // this is ~1/8 of 2000).
        let after = at(75.0);
        assert!(
            (2_000.0 * 0.85..2_000.0 * 0.9).contains(&after),
            "post-failure truth {after}"
        );
    }

    // ── Network figures (19/20) ─────────────────────────────────────────

    #[test]
    fn fig19_reports_all_classes_at_every_spread() {
        let fig = fig19(&tiny(), 31);
        assert_eq!(fig.series.len(), 3);
        let hs = &fig.series[1];
        assert_eq!(hs.name, "HopsSampling");
        assert_eq!(hs.points.len(), 4);
        for series in &fig.series {
            assert!(
                !series.points.is_empty(),
                "{} produced nothing",
                series.name
            );
            for &(_, err) in &series.points {
                assert!(err.is_finite() && err >= 0.0, "{}: err {err}", series.name);
            }
        }
        // The epidemic class's cadence absorbs jitter: it stays accurate.
        let agg = &fig.series[2];
        for &(spread, err) in &agg.points {
            assert!(err < 25.0, "Aggregation at spread {spread}: {err}%");
        }
    }

    #[test]
    fn fig20_shows_sample_collide_availability_collapse() {
        let fig = fig20(&tiny(), 32);
        assert_eq!(fig.series.len(), 3);
        let sc = &fig.series[0];
        assert_eq!(sc.name, "Sample&Collide");
        let at = |series: &Series, x: f64| {
            series
                .points
                .iter()
                .find(|&&(px, _)| px == x)
                .map(|&(_, y)| y)
                .unwrap()
        };
        // Lossless: everything completes.
        assert_eq!(at(sc, 0.0), 100.0);
        // At 10% loss a multi-thousand-message walk chain cannot survive.
        assert!(at(sc, 10.0) < 20.0, "S&C at 10% loss: {}", at(sc, 10.0));
        // Loss can only reduce availability.
        assert!(at(sc, 10.0) <= at(sc, 0.01));
        // The gossip classes keep reporting (damage lands in the estimate).
        assert!(at(&fig.series[1], 10.0) > 80.0);
        assert!(at(&fig.series[2], 10.0) > 80.0);
    }
}
