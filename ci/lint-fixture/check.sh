#!/usr/bin/env bash
# Runs clippy on the lint fixture and fails unless every lint of the
# determinism contract fires on its seeded violation, and unless the
# aliased `Clock::now()` and both `UNIX_EPOCH.elapsed()` reads are among
# the flagged calls.
#
#   ci/lint-fixture/check.sh        (from anywhere; needs cargo + clippy)
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../../target/lint-fixture}"
mkdir -p "$CARGO_TARGET_DIR"
json="$CARGO_TARGET_DIR/clippy.json"
log="$CARGO_TARGET_DIR/clippy.log"

if cargo clippy --offline --locked --all-targets --keep-going --message-format=json \
    --manifest-path "$here/Cargo.toml" > "$json" 2> "$log"; then
    echo "clippy passed on the fixture: the contract does not bite" >&2
    exit 1
fi

if ! python3 - "$json" <<'PY'
import json, sys

expected = [
    "clippy::disallowed_methods",
    "clippy::disallowed_types",
    "unsafe_code",
    "clippy::print_stdout",
    "clippy::print_stderr",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::cast_possible_truncation",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
    "unfulfilled_lint_expectations",
    "dead_code",
]
fired = {}
for line in open(sys.argv[1]):
    msg = json.loads(line)
    diag = msg.get("message") if msg.get("reason") == "compiler-message" else None
    if not diag or not diag.get("code"):
        continue
    for span in diag["spans"]:
        if span["is_primary"]:
            text = span["text"][0]["text"] if span["text"] else ""
            fired.setdefault(diag["code"]["code"], set()).add(
                (span["file_name"], span["line_start"], span["column_start"], text.strip()))
for code in expected:
    sites = sorted(fired.get(code, ()))
    print(f"{code}: {len(sites)} site(s)")
    for file, line, col, text in sites:
        print(f"    {file}:{line}:{col}: {text}")
missing = [code for code in expected if code not in fired]
if missing:
    sys.exit(f"lints that never fired: {', '.join(missing)}")
if not any("Clock::now()" in text for *_, text in fired["clippy::disallowed_methods"]):
    sys.exit("the aliased Clock::now() was not flagged")
for call in ["std::time::UNIX_EPOCH.elapsed()", "SystemTime::UNIX_EPOCH.elapsed()"]:
    if not any(call in text for *_, text in fired["clippy::disallowed_methods"]):
        sys.exit(f"{call} was not flagged")
print(f"all {len(expected)} lints fired")
PY
then
    echo "--- clippy's stderr ($log):" >&2
    cat "$log" >&2
    exit 1
fi
