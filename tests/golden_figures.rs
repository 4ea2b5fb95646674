//! Golden-figure equivalence: every registry-generated figure reproduces
//! the pre-redesign `figNN` generators bit for bit.
//!
//! The CSVs under `tests/golden_figures/` were produced by the hard-coded
//! figure generators (one bespoke drive loop per figure) immediately before
//! the `ExperimentSpec` registry replaced them:
//!
//! ```text
//! repro --all --scale tiny --seed 20060619 --out tests/golden_figures
//! ```
//!
//! Each figure's new path — `spec_for(n)` → generic engine → streaming
//! `FigureSink` → `Figure::to_csv` — must produce the identical byte
//! sequence: same series, same order, same x grid, same f64 values (f64
//! `Display` is shortest-round-trip, so string equality is bit equality).

use p2p_size_estimation::experiments::figures::{by_number, ALL_FIGURES};
use p2p_size_estimation::experiments::table::table1;
use p2p_size_estimation::experiments::ExperimentScale;

/// The seed the goldens were generated with (the `repro` default).
const GOLDEN_SEED: u64 = 20060619;

fn golden_path(n: u32) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_figures")
        .join(format!("fig{n:02}.csv"))
}

fn check(n: u32) {
    let golden = std::fs::read_to_string(golden_path(n))
        .unwrap_or_else(|e| panic!("missing golden for fig{n:02}: {e}"));
    let fig = by_number(n, &ExperimentScale::tiny(), GOLDEN_SEED).expect("registered figure");
    let produced = fig.to_csv();
    if produced != golden {
        // Locate the first diverging line for a readable failure.
        let mut line = 0usize;
        for (a, b) in produced.lines().zip(golden.lines()) {
            line += 1;
            assert_eq!(a, b, "fig{n:02} diverges at line {line}");
        }
        panic!(
            "fig{n:02}: line counts differ (produced {}, golden {})",
            produced.lines().count(),
            golden.lines().count()
        );
    }
}

// One test per figure so a regression names its figure directly and the
// suite parallelizes across the slower figures.
macro_rules! golden {
    ($($name:ident => $n:literal),* $(,)?) => {
        $(#[test]
        fn $name() {
            check($n);
        })*
    };
}

golden! {
    golden_fig01 => 1, golden_fig02 => 2, golden_fig03 => 3, golden_fig04 => 4,
    golden_fig05 => 5, golden_fig06 => 6, golden_fig07 => 7, golden_fig08 => 8,
    golden_fig09 => 9, golden_fig10 => 10, golden_fig11 => 11, golden_fig12 => 12,
    golden_fig13 => 13, golden_fig14 => 14, golden_fig15 => 15, golden_fig16 => 16,
    golden_fig17 => 17, golden_fig18 => 18, golden_fig19 => 19, golden_fig20 => 20,
    // The realistic-churn workload extensions; their goldens were produced
    // by the same `repro` invocation when the figures were introduced.
    golden_fig21 => 21, golden_fig22 => 22, golden_fig23 => 23,
}

/// Table I as `repro table --scale tiny --seed 20060619` writes it: the
/// tiny scale's large overlay, 20 estimations per row.
#[test]
fn golden_table1() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_figures/table1.csv");
    let golden = std::fs::read_to_string(path).expect("golden table1.csv");
    let produced = table1(ExperimentScale::tiny().large, 20, GOLDEN_SEED).to_csv();
    assert_eq!(produced, golden);
}

#[test]
fn golden_set_is_complete() {
    for n in ALL_FIGURES {
        assert!(golden_path(n).exists(), "golden CSV for fig{n:02} missing");
    }
}
