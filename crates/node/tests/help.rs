//! `node --help` advertises only what the binary's own parsers accept: the
//! protocol grammar is `ProtocolSpec::grammar()` itself, and the printed
//! `--network` default parses back to the cluster's default model.

use p2p_estimation::ProtocolSpec;
use p2p_experiments::NetworkSpec;
use p2p_node::cluster::default_cluster_network;
use std::process::Command;

#[test]
fn help_prints_the_protocol_grammar_and_a_parseable_network_default() {
    let out = Command::new(env!("CARGO_BIN_EXE_node"))
        .arg("--help")
        .output()
        .expect("node runs");
    assert!(out.status.success(), "node --help exits 0");
    let help = String::from_utf8(out.stderr).expect("usage is UTF-8");

    assert!(
        help.lines().any(|l| l.trim() == ProtocolSpec::grammar()),
        "the grammar line is missing:\n{help}"
    );

    let default = help
        .lines()
        .find(|l| l.trim_start().starts_with("--network"))
        .and_then(|l| l.split("[default: ").nth(1))
        .and_then(|d| d.strip_suffix(']'))
        .unwrap_or_else(|| panic!("no --network default:\n{help}"));
    let parsed = NetworkSpec::parse(default)
        .unwrap_or_else(|e| panic!("--network default `{default}` does not parse: {e}"));
    assert_eq!(parsed.0, default_cluster_network(), "`{default}`");
}
