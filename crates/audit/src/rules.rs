//! The rule set: what the reproducibility contract forbids, where.
//!
//! Every rule matches short identifier/punctuation sequences on the
//! [lexer](crate::lexer)'s token stream — never raw text — so nothing
//! fires on comments or string literals. Scoping is by crate and path
//! (see [`FileMeta`]); most rules skip `#[cfg(test)]` spans and files
//! under `tests/`, because the contract governs what runs inside
//! simulations and deployments, not what checks them.
//!
//! The escape hatch for a deliberate exception is a
//! `// audit:allow(rule-name): reason` line comment on the offending line
//! or the line above it; the engine records the reason next to the
//! violation and CI accepts it.

use crate::lexer::{fn_spans, Lexed, Token, TokenKind};

/// Where a source file sits in the workspace, for rule scoping.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// `"sim"`, `"core"`, … for `crates/<name>/…`; `"root"` for the
    /// umbrella crate's `src/`/`tests/`; `"examples"` for `examples/`.
    pub crate_name: String,
    /// Under a `src/bin/` directory or `examples/` (a CLI front-end).
    pub is_bin: bool,
    /// Under a `tests/` directory (integration tests).
    pub is_test_file: bool,
    /// Under a `benches/` directory.
    pub is_bench: bool,
}

/// A rule match before the engine attaches snippets and allow status.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule name.
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// A lexed file plus its location, as rules see it.
pub struct FileCtx<'a> {
    /// Path/crate scoping facts.
    pub meta: &'a FileMeta,
    /// The token stream and annotations.
    pub lex: &'a Lexed,
}

/// How a rule runs.
pub enum RuleKind {
    /// Per-file: `applies` gates by path, `check` pushes violating lines.
    PerFile {
        /// Path predicate.
        applies: fn(&FileMeta) -> bool,
        /// Matcher; pushes 1-based lines.
        check: fn(&FileCtx<'_>, &mut Vec<u32>),
    },
    /// Whole-workspace: sees every file at once (cross-file rules).
    Workspace(fn(&[FileCtx<'_>], &mut Vec<Finding>)),
}

/// One auditable invariant.
pub struct Rule {
    /// Stable kebab-case name, referenced by `audit:allow(name)`.
    pub name: &'static str,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Human-readable scope for `--list-rules`.
    pub scope: &'static str,
    /// Skip `#[cfg(test)]` spans and files under `tests/`.
    pub skip_test_code: bool,
    /// The matcher.
    pub kind: RuleKind,
}

/// The crates whose code runs inside simulations: everything here must be
/// a pure function of the seed.
const SIM_PATH: &[&str] = &["sim", "core", "overlay", "experiments", "workload", "stats"];

fn in_sim_path(meta: &FileMeta) -> bool {
    SIM_PATH.contains(&meta.crate_name.as_str())
}

/// The two files allowed to own cross-thread machinery: the replication
/// fan-out ([`sim::parallel`]) and the sharded tick-barrier coordinator
/// (`experiments::sharded`). Everything else in the sim path must keep its
/// state shard-local — cross-shard data flows through the barrier exchange,
/// never through a shared lock a worker could race on.
fn is_parallel_driver(meta: &FileMeta) -> bool {
    meta.path == "crates/sim/src/parallel.rs" || meta.path == "crates/experiments/src/sharded.rs"
}

/// Files that render figure/sink output: row order is observable bytes.
fn in_output_path(meta: &FileMeta) -> bool {
    meta.path == "crates/experiments/src/sink.rs"
        || meta.path == "crates/experiments/src/table.rs"
        || meta.path.starts_with("crates/experiments/src/figures/")
        || (meta.crate_name == "stats" && !meta.is_test_file)
}

/// The full rule set, in reporting order.
pub fn rules() -> &'static [Rule] {
    &RULES
}

static RULES: [Rule; 14] = [
    Rule {
        name: "wall-clock",
        summary: "no Instant::now / SystemTime in sim-path crates (results must be a function of the seed, not the host clock)",
        scope: "crates/{sim,core,overlay,experiments,workload,stats}",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: in_sim_path,
            check: check_wall_clock,
        },
    },
    Rule {
        name: "wall-sleep",
        summary: "no thread::sleep in sim-path crates (wall pacing belongs to the deployment boundary)",
        scope: "crates/{sim,core,overlay,experiments,workload,stats}",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: in_sim_path,
            check: check_sleep,
        },
    },
    Rule {
        name: "shard-local-state",
        summary: "no shared-mutable sync primitives (Mutex/RwLock/Barrier/Condvar/Atomic*/channels) in sim-path crates outside the designated parallel drivers (cross-shard state moves through the tick-barrier exchange only)",
        scope: "crates/{sim,core,overlay,experiments,workload,stats} except sim/src/parallel.rs and experiments/src/sharded.rs",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: |m| in_sim_path(m) && !is_parallel_driver(m),
            check: check_shared_mutable,
        },
    },
    Rule {
        name: "hashmap-iter",
        summary: "no iteration over HashMap/HashSet in sim-path crates (iteration order leaks into traces; keyed lookup is fine)",
        scope: "crates/{sim,core,overlay,experiments,workload,stats}",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: in_sim_path,
            check: check_hashmap_iter,
        },
    },
    Rule {
        name: "sink-unordered",
        summary: "no HashMap/HashSet at all in figure/sink output paths (output bytes are golden-pinned)",
        scope: "experiments/src/{sink.rs,table.rs,figures/}, crates/stats",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: in_output_path,
            check: check_unordered_ident,
        },
    },
    Rule {
        name: "unseeded-rng",
        summary: "no thread_rng / from_entropy / OsRng outside crates/node (every stream derives from the master seed)",
        scope: "workspace except crates/node",
        skip_test_code: false,
        kind: RuleKind::PerFile {
            applies: |m| m.crate_name != "node",
            check: check_unseeded_rng,
        },
    },
    Rule {
        name: "panic-in-io",
        summary: "no unwrap()/expect() in the node runtime/cluster I-O and teardown paths (a shard reports failure, never panics mid-cluster)",
        scope: "crates/node/src/{runtime.rs,cluster.rs}",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: |m| {
                m.path == "crates/node/src/runtime.rs" || m.path == "crates/node/src/cluster.rs"
            },
            check: check_panic_in_io,
        },
    },
    Rule {
        name: "static-mut",
        summary: "no static mut anywhere (shared mutable globals break replay and thread determinism)",
        scope: "workspace",
        skip_test_code: false,
        kind: RuleKind::PerFile {
            applies: |_| true,
            check: check_static_mut,
        },
    },
    Rule {
        name: "env-read",
        summary: "no std::env reads outside CLI front-ends (hidden run inputs defeat seed-only reproduction)",
        scope: "crates/{sim,core,overlay,experiments,workload,stats} except src/bin",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: |m| in_sim_path(m) && !m.is_bin,
            check: check_env_read,
        },
    },
    Rule {
        name: "wire-cast",
        summary: "no `as u8/u16/u32` narrowing in wire decode bodies (hostile frames must error, not wrap)",
        scope: "crates/node/src/wire.rs decode*/read*/check_* fns",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: |m| m.path == "crates/node/src/wire.rs",
            check: check_wire_cast,
        },
    },
    Rule {
        name: "wire-capacity",
        summary: "with_capacity in wire decode bodies only from counts validated against remaining bytes",
        scope: "crates/node/src/wire.rs decode*/read*/check_* fns",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: |m| m.path == "crates/node/src/wire.rs",
            check: check_wire_capacity,
        },
    },
    Rule {
        name: "print-in-lib",
        summary: "no print!/println!/eprintln!/dbg! in sim-path library crates (output flows through ResultSink)",
        scope: "crates/{sim,core,overlay,workload,stats}",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: |m| {
                matches!(
                    m.crate_name.as_str(),
                    "sim" | "core" | "overlay" | "workload" | "stats"
                ) && !m.is_bin
            },
            check: check_print,
        },
    },
    Rule {
        name: "telemetry-side-effect",
        summary: "telemetry mutators (counter_add/counter_set_total/gauge_set/hist_observe/hist_set) in statement position only (instrumentation must never feed values back into control flow)",
        scope: "workspace",
        skip_test_code: true,
        kind: RuleKind::PerFile {
            applies: |_| true,
            check: check_telemetry_side_effect,
        },
    },
    Rule {
        name: "orphan-oracle",
        summary: "every #[cfg(test)] oracle module must be referenced by at least one test",
        scope: "workspace",
        skip_test_code: false,
        kind: RuleKind::Workspace(check_orphan_oracle),
    },
];

// ---------------------------------------------------------------------------
// token-sequence helpers

/// Indexes where `Ident(ty) :: Ident(method)` occurs.
fn path_calls(tokens: &[Token], ty: &str, method: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..tokens.len().saturating_sub(3) {
        if tokens[i].is_ident(ty)
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].is_ident(method)
        {
            out.push(i);
        }
    }
    out
}

/// Indexes where `. Ident(name) (` occurs (a method call).
fn method_calls(tokens: &[Token], name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..tokens.len().saturating_sub(2) {
        if tokens[i].is_punct('.') && tokens[i + 1].is_ident(name) && tokens[i + 2].is_punct('(') {
            out.push(i + 1);
        }
    }
    out
}

fn push_line(lines: &mut Vec<u32>, line: u32) {
    if lines.last() != Some(&line) {
        lines.push(line);
    }
}

// ---------------------------------------------------------------------------
// per-file checks

fn check_wall_clock(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    for i in path_calls(t, "Instant", "now") {
        push_line(lines, t[i].line);
    }
    for (i, tok) in t.iter().enumerate() {
        // SystemTime has no deterministic use at all, so the bare name is
        // enough — imports included. (Instant by contrast may appear as a
        // stored type at the pacing boundary; only `::now` calls fire.)
        if tok.is_ident("SystemTime") {
            push_line(lines, t[i].line);
        }
    }
}

fn check_sleep(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    for tok in &cx.lex.tokens {
        if tok.is_ident("sleep") || tok.is_ident("sleep_ms") {
            push_line(lines, tok.line);
        }
    }
}

/// Heuristic iteration detector: find names bound to HashMap/HashSet in
/// this file (`let x = HashMap::new()`, `x: HashMap<..>`), then flag
/// order-sensitive method calls on those names and `for … in` loops over
/// them. Keyed lookups (`get`, `insert`, `contains_key`) never fire.
fn check_hashmap_iter(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    let mut names: Vec<&str> = Vec::new();
    for i in 0..t.len() {
        if !(t[i].is_ident("HashMap") || t[i].is_ident("HashSet")) {
            continue;
        }
        // `name : HashMap` (binding/field/param type) or `name = HashMap`.
        if i >= 2
            && (t[i - 1].is_punct(':') || t[i - 1].is_punct('='))
            && t[i - 2].kind == TokenKind::Ident
            && !t[i - 2].is_ident("let")
            && !t[i - 2].is_ident("mut")
        {
            names.push(t[i - 2].text.as_str());
        }
        // `let [mut] name = HashMap…` — the `=` form above misses the
        // `mut` spelling (`t[i-2]` is `mut`), so look one further back.
        if i >= 3
            && t[i - 1].is_punct('=')
            && t[i - 2].is_ident("mut")
            && t[i - 3].kind == TokenKind::Ident
        {
            names.push(t[i - 3].text.as_str());
        }
    }
    if names.is_empty() {
        return;
    }
    const ORDERED: &[&str] = &[
        "iter",
        "iter_mut",
        "into_iter",
        "keys",
        "values",
        "values_mut",
        "drain",
        "retain",
    ];
    for i in 0..t.len() {
        if t[i].kind != TokenKind::Ident || !names.contains(&t[i].text.as_str()) {
            continue;
        }
        // `name.iter()` and friends.
        if i + 2 < t.len() && t[i + 1].is_punct('.') && ORDERED.iter().any(|m| t[i + 2].is_ident(m))
        {
            push_line(lines, t[i].line);
        }
        // `for … in [&[mut]] name` — scan a few tokens back for `in`.
        let back = i.saturating_sub(3);
        if t[back..i].iter().any(|tok| tok.is_ident("in")) {
            push_line(lines, t[i].line);
        }
    }
}

/// Any naming of a shared-mutable sync primitive fires — imports included.
/// Unlike `Instant` (which may appear as a stored type at the pacing
/// boundary), a `Mutex` or `Barrier` in a sim-path file has no
/// deterministic use: either state is shard-local, or it crosses shards
/// through the exchange grid. `crossbeam` is on the list because its only
/// workspace use is channels.
fn check_shared_mutable(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    const SHARED: &[&str] = &[
        "Mutex",
        "RwLock",
        "Barrier",
        "Condvar",
        "mpsc",
        "crossbeam",
        "AtomicBool",
        "AtomicUsize",
        "AtomicIsize",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
    ];
    for tok in &cx.lex.tokens {
        if SHARED.iter().any(|n| tok.is_ident(n)) {
            push_line(lines, tok.line);
        }
    }
}

fn check_unordered_ident(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    for tok in &cx.lex.tokens {
        if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
            push_line(lines, tok.line);
        }
    }
}

fn check_unseeded_rng(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    for tok in &cx.lex.tokens {
        if tok.is_ident("thread_rng") || tok.is_ident("from_entropy") || tok.is_ident("OsRng") {
            push_line(lines, tok.line);
        }
    }
}

fn check_panic_in_io(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    for name in ["unwrap", "expect"] {
        for i in method_calls(t, name) {
            push_line(lines, t[i].line);
        }
    }
    lines.sort_unstable();
    lines.dedup();
}

fn check_static_mut(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    for i in 0..t.len().saturating_sub(1) {
        if t[i].is_ident("static") && t[i + 1].is_ident("mut") {
            push_line(lines, t[i].line);
        }
    }
}

fn check_env_read(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    const READS: &[&str] = &["var", "var_os", "vars", "args", "args_os"];
    for i in 0..t.len().saturating_sub(3) {
        if t[i].is_ident("env")
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && READS.iter().any(|m| t[i + 3].is_ident(m))
        {
            push_line(lines, t[i].line);
        }
    }
}

/// The wire fns the decode rules govern: strict-decode bodies and the
/// frame/stream readers feeding them.
fn is_decode_fn(name: &str) -> bool {
    name.starts_with("decode") || name.starts_with("read") || name.starts_with("check_")
}

fn check_wire_cast(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    for (name, _, body) in fn_spans(t) {
        if !is_decode_fn(&name) {
            continue;
        }
        for i in body.start..body.end.min(t.len()).saturating_sub(1) {
            if t[i].is_ident("as")
                && (t[i + 1].is_ident("u8") || t[i + 1].is_ident("u16") || t[i + 1].is_ident("u32"))
            {
                push_line(lines, t[i].line);
            }
        }
    }
}

fn check_wire_capacity(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    for (name, _, body) in fn_spans(t) {
        if !is_decode_fn(&name) {
            continue;
        }
        // Names bound via the validating `count(…)` reader inside this fn:
        // scan for `count (`, then back to the nearest `let` for the bound
        // name.
        let mut validated: Vec<&str> = Vec::new();
        for i in body.clone() {
            if i + 1 < t.len() && t[i].is_ident("count") && t[i + 1].is_punct('(') {
                for j in (body.start..i).rev() {
                    if t[j].is_ident("let") {
                        let k = if t[j + 1].is_ident("mut") {
                            j + 2
                        } else {
                            j + 1
                        };
                        if t[k].kind == TokenKind::Ident {
                            validated.push(t[k].text.as_str());
                        }
                        break;
                    }
                }
            }
        }
        // Every `with_capacity(arg)`: all identifiers in `arg` must be a
        // validated count or a remaining-bytes bound; literal capacities
        // are fine.
        const BOUNDED: &[&str] = &["min", "remaining", "r", "self", "len"];
        for i in body.clone() {
            if !(t[i].is_ident("with_capacity") && i + 1 < t.len() && t[i + 1].is_punct('(')) {
                continue;
            }
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut bad = false;
            while j < t.len() && depth > 0 {
                match t[j].kind {
                    TokenKind::Punct('(') => depth += 1,
                    TokenKind::Punct(')') => depth -= 1,
                    TokenKind::Ident => {
                        let id = t[j].text.as_str();
                        if !validated.contains(&id) && !BOUNDED.contains(&id) {
                            bad = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if bad {
                push_line(lines, t[i].line);
            }
        }
    }
}

fn check_print(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    const MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];
    for i in 0..t.len().saturating_sub(1) {
        if MACROS.iter().any(|m| t[i].is_ident(m)) && t[i + 1].is_punct('!') {
            push_line(lines, t[i].line);
        }
    }
}

/// Statement-position check for the telemetry mutators: walk back over the
/// receiver chain (`self.reg`, `tel.as_mut().…`, indexing, `::` paths) to
/// the first token of the expression; the token before it must end a
/// statement. Anything else — `let x = …`, an argument position, a bare
/// match arm — means the call sits inside a larger expression, which is
/// how instrumentation starts steering control flow.
fn check_telemetry_side_effect(cx: &FileCtx<'_>, lines: &mut Vec<u32>) {
    let t = &cx.lex.tokens;
    const KEYWORDS: &[&str] = &[
        "return", "in", "if", "while", "match", "else", "break", "move",
    ];
    for name in [
        "counter_add",
        "counter_set_total",
        "gauge_set",
        "hist_observe",
        "hist_set",
    ] {
        for i in method_calls(t, name) {
            let mut j = i - 1; // the `.` before the method name
            while j > 0 {
                let prev = &t[j - 1];
                match prev.kind {
                    TokenKind::Ident if !KEYWORDS.contains(&prev.text.as_str()) => j -= 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') => {
                        // Skip the balanced group backwards to its opener.
                        let (open, close) = if prev.is_punct(')') {
                            ('(', ')')
                        } else {
                            ('[', ']')
                        };
                        let mut depth = 1usize;
                        let mut k = j - 1;
                        while k > 0 && depth > 0 {
                            k -= 1;
                            if t[k].is_punct(close) {
                                depth += 1;
                            } else if t[k].is_punct(open) {
                                depth -= 1;
                            }
                        }
                        j = k;
                    }
                    TokenKind::Punct('.')
                    | TokenKind::Punct(':')
                    | TokenKind::Punct('?')
                    | TokenKind::Punct('&') => j -= 1,
                    _ => break,
                }
            }
            let statement = j > 0 && {
                let p = &t[j - 1];
                p.is_punct(';') || p.is_punct('{') || p.is_punct('}')
            };
            if !statement {
                push_line(lines, t[i].line);
            }
        }
    }
    lines.sort_unstable();
    lines.dedup();
}

// ---------------------------------------------------------------------------
// workspace checks

/// `#[cfg(test)] mod *oracle*` declarations must be exercised: some token
/// elsewhere in the workspace (outside the declaring span) must name the
/// module. An unreferenced oracle silently stops guarding its refactor.
fn check_orphan_oracle(files: &[FileCtx<'_>], findings: &mut Vec<Finding>) {
    struct Def {
        file: String,
        name: String,
        line: u32,
        span: (u32, u32),
    }
    let mut defs: Vec<Def> = Vec::new();
    for cx in files {
        let t = &cx.lex.tokens;
        for i in 0..t.len().saturating_sub(1) {
            if t[i].is_ident("mod")
                && t[i + 1].kind == TokenKind::Ident
                && t[i + 1].text.contains("oracle")
                && cx.lex.in_test_span(t[i].line)
            {
                let span = cx
                    .lex
                    .test_spans
                    .iter()
                    .find(|&&(a, b)| a <= t[i].line && t[i].line <= b)
                    .copied()
                    .unwrap_or((t[i].line, t[i].line));
                defs.push(Def {
                    file: cx.meta.path.clone(),
                    name: t[i + 1].text.clone(),
                    line: t[i].line,
                    span,
                });
            }
        }
    }
    for def in &defs {
        let referenced = files.iter().any(|cx| {
            cx.lex.tokens.iter().any(|tok| {
                tok.is_ident(&def.name)
                    && !(cx.meta.path == def.file
                        && def.span.0 <= tok.line
                        && tok.line <= def.span.1)
            })
        });
        if !referenced {
            findings.push(Finding {
                rule: "orphan-oracle",
                file: def.file.clone(),
                line: def.line,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn meta(path: &str) -> FileMeta {
        crate::engine::file_meta(path)
    }

    fn run_rule(rule_name: &str, path: &str, src: &str) -> Vec<u32> {
        let lexed = lex(src);
        let m = meta(path);
        let cx = FileCtx {
            meta: &m,
            lex: &lexed,
        };
        let rule = rules().iter().find(|r| r.name == rule_name).unwrap();
        let mut lines = Vec::new();
        match rule.kind {
            RuleKind::PerFile { applies, check } => {
                if applies(&m) {
                    check(&cx, &mut lines);
                }
            }
            RuleKind::Workspace(check) => {
                let mut findings = Vec::new();
                check(std::slice::from_ref(&cx), &mut findings);
                lines = findings.iter().map(|f| f.line).collect();
            }
        }
        lines
    }

    #[test]
    fn wall_clock_fires_on_now_not_type() {
        let src = "struct P { start: Instant }\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(run_rule("wall-clock", "crates/sim/src/x.rs", src), vec![2]);
        // Out of scope: crates/node owns the wall clock.
        assert!(run_rule("wall-clock", "crates/node/src/x.rs", src).is_empty());
    }

    #[test]
    fn system_time_fires_on_bare_name() {
        let src = "use std::time::SystemTime;\n";
        assert_eq!(run_rule("wall-clock", "crates/core/src/x.rs", src), vec![1]);
    }

    #[test]
    fn hashmap_keyed_lookup_is_fine_iteration_is_not() {
        let src = "\
fn f() {\n\
    let mut m: HashMap<u32, u32> = HashMap::new();\n\
    m.insert(1, 2);\n\
    let _ = m.get(&1);\n\
    for (k, v) in &m { use_it(k, v); }\n\
    let _ = m.keys();\n\
}\n";
        assert_eq!(
            run_rule("hashmap-iter", "crates/overlay/src/x.rs", src),
            vec![5, 6]
        );
    }

    #[test]
    fn shard_local_state_spares_only_the_parallel_drivers() {
        let src = "use std::sync::{Mutex, RwLock};\n\
                   fn f() { let b = Barrier::new(2); }\n\
                   fn g(tx: crossbeam::channel::Sender<u8>) {}\n";
        assert_eq!(
            run_rule("shard-local-state", "crates/sim/src/engine.rs", src),
            vec![1, 2, 3]
        );
        assert_eq!(
            run_rule("shard-local-state", "crates/core/src/x.rs", src),
            vec![1, 2, 3]
        );
        // The designated drivers own the machinery…
        assert!(run_rule("shard-local-state", "crates/sim/src/parallel.rs", src).is_empty());
        assert!(run_rule(
            "shard-local-state",
            "crates/experiments/src/sharded.rs",
            src
        )
        .is_empty());
        // …and the deployment side (crates/node) is out of scope entirely.
        assert!(run_rule("shard-local-state", "crates/node/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn sink_paths_reject_the_bare_type() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            run_rule("sink-unordered", "crates/experiments/src/sink.rs", src),
            vec![1]
        );
        assert!(run_rule("sink-unordered", "crates/experiments/src/engine.rs", src).is_empty());
    }

    #[test]
    fn env_reads_fire_outside_bins_only() {
        let src = "fn f() { let v = std::env::var(\"X\"); }\n";
        assert_eq!(
            run_rule("env-read", "crates/experiments/src/scale.rs", src),
            vec![1]
        );
        assert!(run_rule("env-read", "crates/experiments/src/bin/repro.rs", src).is_empty());
    }

    #[test]
    fn wire_capacity_accepts_validated_counts_rejects_raw_reads() {
        let good = "\
fn decode(r: &mut Reader) -> R<()> {\n\
    let n = r.count(4)?;\n\
    let mut v = Vec::with_capacity(n);\n\
    let mut w = Vec::with_capacity(n.min(r.remaining()));\n\
    Ok(())\n\
}\n";
        assert!(run_rule("wire-capacity", "crates/node/src/wire.rs", good).is_empty());
        let bad = "\
fn decode(r: &mut Reader) -> R<()> {\n\
    let raw = r.u32()? as usize;\n\
    let mut v = Vec::with_capacity(raw);\n\
    Ok(())\n\
}\n";
        assert_eq!(
            run_rule("wire-capacity", "crates/node/src/wire.rs", bad),
            vec![3]
        );
    }

    #[test]
    fn wire_cast_flags_narrowing_in_decode_fns_only() {
        let src = "\
fn decode_body(r: &mut Reader) { let x = y as u16; }\n\
fn encode_body(out: &mut Vec<u8>) { let x = y as u16; }\n";
        assert_eq!(
            run_rule("wire-cast", "crates/node/src/wire.rs", src),
            vec![1]
        );
    }

    #[test]
    fn static_mut_fires_everywhere_but_not_on_lifetimes() {
        assert_eq!(
            run_rule("static-mut", "crates/sim/src/x.rs", "static mut X: u8 = 0;"),
            vec![1]
        );
        assert!(run_rule(
            "static-mut",
            "crates/sim/src/x.rs",
            "fn f(x: &'static mut u8) {}"
        )
        .is_empty());
    }

    #[test]
    fn orphan_oracle_requires_an_external_reference() {
        let orphan = "#[cfg(test)]\npub mod oracle { pub struct X; }\n";
        assert_eq!(
            run_rule("orphan-oracle", "crates/sim/src/e.rs", orphan),
            vec![2]
        );
        let used = "#[cfg(test)]\npub mod oracle { pub struct X; }\n\
                    #[cfg(test)]\nmod tests { use super::oracle; }\n";
        assert!(run_rule("orphan-oracle", "crates/sim/src/e.rs", used).is_empty());
    }

    #[test]
    fn telemetry_mutators_must_be_statements() {
        let good = "\
fn f(reg: &mut Registry) {\n\
    reg.counter_add(id, 1);\n\
    self.tel.as_mut().reg.gauge_set(g, 7);\n\
    if armed { regs[0].hist_observe(h, n); }\n\
}\n";
        assert!(run_rule(
            "telemetry-side-effect",
            "crates/experiments/src/runner.rs",
            good
        )
        .is_empty());
        let bad = "\
fn f() {\n\
    let x = reg.counter_add(id, 1);\n\
    take(reg.hist_observe(h, 2));\n\
    return reg.gauge_set(g, 3);\n\
}\n";
        assert_eq!(
            run_rule(
                "telemetry-side-effect",
                "crates/experiments/src/runner.rs",
                bad
            ),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn panic_in_io_scopes_to_runtime_and_cluster() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); }\n";
        assert_eq!(
            run_rule("panic-in-io", "crates/node/src/runtime.rs", src),
            vec![1]
        );
        assert!(run_rule("panic-in-io", "crates/node/src/wire.rs", src).is_empty());
    }
}
