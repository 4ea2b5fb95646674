//! The determinism contract's configuration is in place. Clippy enforces
//! the contract (DESIGN.md § "Determinism contract, enforced") but runs
//! only in CI; these checks keep tier-1 failing when its configuration is
//! deleted or unlinked, or when an exception bypasses `#[expect]`.

use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `file:line` of every line under `dir`'s `.rs` files containing `needle`.
fn rust_lines_containing(dir: &Path, needle: &str, hits: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_lines_containing(&path, needle, hits);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let text = fs::read_to_string(&path).expect("readable source");
            for (i, _) in text.lines().enumerate().filter(|(_, l)| l.contains(needle)) {
                hits.push(format!("{}:{}", path.display(), i + 1));
            }
        }
    }
}

#[test]
fn every_sim_path_crate_links_the_one_contract() {
    let resolve = |path: &str| {
        fs::canonicalize(Path::new(ROOT).join(path))
            .unwrap_or_else(|e| panic!("{path} is missing: {e}"))
    };
    let contract = resolve("crates/sim/clippy.toml");
    let text = fs::read_to_string(&contract).expect("readable contract");
    assert!(text.contains("disallowed-methods") && text.contains("disallowed-types"));
    for link in [
        "crates/core/clippy.toml",
        "crates/overlay/clippy.toml",
        "crates/experiments/clippy.toml",
        "crates/workload/clippy.toml",
        "crates/stats/clippy.toml",
        "ci/lint-fixture/clippy.toml",
    ] {
        assert_eq!(
            resolve(link),
            contract,
            "{link} must be a link to crates/sim/clippy.toml"
        );
    }
}

#[test]
fn exceptions_are_reasoned_expectations() {
    // Split so this file does not match its own needles; starting at the
    // bracket catches both the outer and the inner (`#!`) attribute form.
    for needle in [["audit", ":allow"].concat(), ["[", "allow("].concat()] {
        let mut hits = Vec::new();
        for dir in ["crates", "src", "tests", "examples"] {
            rust_lines_containing(&Path::new(ROOT).join(dir), &needle, &mut hits);
        }
        assert!(
            hits.is_empty(),
            "use #[expect(lint, reason = \"…\")], not {needle}: {hits:?}"
        );
    }
}
