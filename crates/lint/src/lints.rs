//! The lint rules and the per-file engine that runs them.
//!
//! Each lint has a stable id (used in pragmas and JSON output), a scope
//! (which files it applies to — see [`Scope`]), and a lexical rule over
//! the token stream produced by [`crate::lexer`]. Test code is exempt:
//! items under `#[cfg(test)]` / `#[test]`, and whole files under
//! `tests/`, `benches/`, or `examples/` directories.

use crate::lexer::{lex, Tok, Token};

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable lint id (`panic-unwrap`, `nondet-clock`, …).
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation of the invariant at stake.
    pub message: String,
}

/// Every lint id the tool knows, with a one-line description.
/// Pragmas naming an id outside this list are rejected as `bad-pragma`.
pub const LINTS: &[(&str, &str)] = &[
    (
        "panic-unwrap",
        "`.unwrap()` in non-test daemon/solver code; return a typed error instead",
    ),
    (
        "panic-expect",
        "`.expect()` in non-test daemon/solver code; return a typed error instead",
    ),
    (
        "panic-macro",
        "`panic!`/`todo!`/`unimplemented!`/`unreachable!` in non-test daemon/solver code",
    ),
    (
        "index-slice",
        "slice/array indexing in daemon code; prefer `.get()` so malformed input cannot panic",
    ),
    (
        "nondet-clock",
        "wall-clock (`Instant::now`/`SystemTime`) in a determinism-critical path; \
         seeded chaos replays must be time-independent",
    ),
    (
        "nondet-rng",
        "ambient randomness in a determinism-critical path; use seeded `crh_core::rng`",
    ),
    (
        "nondet-hash-iter",
        "`HashMap`/`HashSet` in a determinism-critical path; iteration order is unstable, \
         use `BTreeMap`/`BTreeSet`",
    ),
    (
        "ack-before-sync",
        "an ack/reply is reachable before any `sync_*`/fsync call in a durability path; \
         acking before fsync can lose acknowledged writes on crash",
    ),
    (
        "missing-forbid-unsafe",
        "crate root lacks `#![forbid(unsafe_code)]`",
    ),
    (
        "missing-deny-docs",
        "crate root lacks `#![deny(missing_docs)]`",
    ),
    (
        "print-stdout",
        "`println!`/`print!`/`dbg!` in library code; return data or use a logger hook",
    ),
    (
        "raw-fs-in-serve",
        "direct `std::fs`/`File::`/`OpenOptions` in `crates/serve` outside `vfs.rs`; \
         route durable I/O through the `Vfs` seam so disk-fault injection reaches it",
    ),
    (
        "unbounded-wait-in-serve",
        "no-timeout `recv()`/`join()`/`lock()`/`wait()` in serve lib code; a gray (slow, \
         not dead) peer pins the caller forever — use the `_timeout` variant or justify",
    ),
    ("bad-pragma", "malformed `crh-lint: allow(...)` pragma"),
];

/// Is `id` a known lint id?
pub fn known_lint(id: &str) -> bool {
    LINTS.iter().any(|(l, _)| *l == id)
}

/// The `--explain` text for a lint id: its one-line description.
pub fn explain(id: &str) -> Option<&'static str> {
    LINTS.iter().find(|(l, _)| *l == id).map(|(_, d)| *d)
}

/// Which rule families apply to a given file. Derived from the
/// workspace-relative path by [`Scope::for_path`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// `panic-unwrap`, `panic-expect`, `panic-macro`.
    pub panic: bool,
    /// `index-slice`.
    pub index: bool,
    /// `nondet-clock`, `nondet-rng`.
    pub clock: bool,
    /// `nondet-hash-iter`, `nondet-rng`.
    pub hash: bool,
    /// `ack-before-sync`.
    pub durability: bool,
    /// `missing-forbid-unsafe`, `missing-deny-docs` (crate roots only).
    pub headers: bool,
    /// `print-stdout`.
    pub print: bool,
    /// `raw-fs-in-serve`.
    pub rawfs: bool,
    /// `unbounded-wait-in-serve`.
    pub wait: bool,
    /// Whole file is test/bench/example code — only `bad-pragma` fires.
    pub exempt_file: bool,
}

/// Files where a stray wall-clock read would break seeded replay:
/// chaos plans, the failover simulator, the deterministic scheduler
/// core, digest/checkpoint construction, cancellation deadlines
/// threaded through chaos tests, the solver's deterministic thread
/// pool (whose scheduling must depend on nothing but the input size),
/// and the columnar kernels (whose fold orders must depend on nothing
/// but the claim set).
const CLOCK_SCOPE: &[&str] = &[
    "crates/serve/src/faults.rs",
    "crates/serve/src/failover.rs",
    "crates/serve/src/core.rs",
    "crates/serve/src/replicate.rs",
    "crates/serve/src/shard.rs",
    "crates/serve/src/wal.rs",
    "crates/mapreduce/src/faults.rs",
    "crates/mapreduce/src/driver.rs",
    "crates/mapreduce/src/engine.rs",
    "crates/core/src/cancel.rs",
    "crates/core/src/columnar.rs",
    "crates/core/src/kernels.rs",
    "crates/core/src/par.rs",
    "crates/core/src/persist.rs",
    "crates/core/src/rng.rs",
];

/// Files whose in-memory maps feed digests, checkpoints, or simulated
/// cluster state: unstable iteration order there shows up as
/// replica-digest divergence. Includes the solver's thread pool and the
/// columnar layer, where a map-ordered merge (or map-ordered dictionary
/// build) would silently break the bit-identical-reduction contract.
const HASH_SCOPE: &[&str] = &[
    "crates/serve/src/faults.rs",
    "crates/serve/src/failover.rs",
    "crates/serve/src/core.rs",
    "crates/serve/src/replicate.rs",
    "crates/serve/src/shard.rs",
    "crates/mapreduce/src/faults.rs",
    "crates/core/src/columnar.rs",
    "crates/core/src/kernels.rs",
    "crates/core/src/par.rs",
    "crates/core/src/persist.rs",
    "crates/core/src/rng.rs",
];

/// Files implementing the fsync-before-ack contract.
const DURABILITY_SCOPE: &[&str] = &["crates/serve/src/wal.rs", "crates/serve/src/replicate.rs"];

impl Scope {
    /// Decide the rule set for a workspace-relative path
    /// (forward-slash separated).
    pub fn for_path(rel: &str) -> Scope {
        let rel = rel.trim_start_matches("./");
        let mut s = Scope::default();

        // Fixture files contain deliberate violations; never lint them.
        if rel.contains("tests/fixtures/") {
            return s;
        }
        // Integration tests, benches, and examples may panic freely;
        // only pragma hygiene is checked there.
        if rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.starts_with("tests/")
            || rel.starts_with("benches/")
            || rel.contains("/examples/")
            || rel.starts_with("examples/")
        {
            s.exempt_file = true;
            return s;
        }

        let in_lib_code =
            rel.contains("/src/") && !rel.contains("/src/bin/") && !rel.ends_with("/src/main.rs");

        // Panic-freedom: the daemon and the solver crates must degrade
        // to typed errors, never abort. Binaries (CLI frontends) and
        // pure tooling keep the ordinary panic discipline.
        s.panic = (rel.starts_with("crates/serve/src/")
            || rel.starts_with("crates/core/src/")
            || rel.starts_with("crates/stream/src/"))
            && in_lib_code;

        // Indexing: the daemon parses untrusted bytes off the wire, so
        // a stray `buf[i]` is a remote panic. Solver code indexes dense
        // matrices pervasively and is bounds-audited, so the lint stays
        // scoped to `crates/serve`.
        s.index = rel.starts_with("crates/serve/src/") && in_lib_code;

        s.clock = CLOCK_SCOPE.contains(&rel);
        s.hash = HASH_SCOPE.contains(&rel);
        s.durability = DURABILITY_SCOPE.contains(&rel);

        // Crate roots must carry the hygiene headers.
        s.headers =
            rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));

        // Library code must not write to stdout; binaries and the CLI
        // frontend in the root crate's `src/` are allowed to.
        s.print = rel.starts_with("crates/") && in_lib_code;

        // The daemon's durable I/O must flow through the Vfs seam —
        // a raw `std::fs` call is a hole the disk-fault plan cannot
        // reach, i.e. a path chaos testing silently never covers.
        // `vfs.rs` itself is the one legitimate home of raw fs calls.
        s.rawfs = rel.starts_with("crates/serve/src/") && in_lib_code && !rel.ends_with("/vfs.rs");

        // Gray-failure discipline: in the daemon, every blocking wait
        // must carry a deadline, or a peer that is merely *slow* (not
        // dead, so no error ever fires) pins the waiting thread forever.
        s.wait = rel.starts_with("crates/serve/src/") && in_lib_code;

        s
    }
}

/// Token-index ranges covered by `#[test]` / `#[cfg(test)]` items.
fn test_exempt_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind != Tok::Punct('#')
            || toks.get(i + 1).map(|t| &t.kind) != Some(&Tok::Punct('['))
        {
            i += 1;
            continue;
        }
        // collect the attribute's tokens up to the matching `]`
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut words: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(w) => words.push(w),
                _ => {}
            }
            j += 1;
        }
        let exempting = match words.first().copied() {
            Some("test") => true,
            Some("cfg") => words.contains(&"test") && !words.contains(&"not"),
            _ => false,
        };
        if !exempting {
            i = j;
            continue;
        }
        // The attribute covers the next item: skip any further
        // attributes, then either a `{ … }` body or a `;`-terminated
        // item, whichever comes first.
        let mut k = j;
        while k < toks.len() {
            if toks[k].kind == Tok::Punct('#')
                && toks.get(k + 1).map(|t| &t.kind) == Some(&Tok::Punct('['))
            {
                let mut d = 1usize;
                k += 2;
                while k < toks.len() && d > 0 {
                    match toks[k].kind {
                        Tok::Punct('[') => d += 1,
                        Tok::Punct(']') => d -= 1,
                        _ => {}
                    }
                    k += 1;
                }
            } else {
                break;
            }
        }
        let mut end = k;
        let mut brace = 0usize;
        let mut entered = false;
        while end < toks.len() {
            match toks[end].kind {
                Tok::Punct('{') => {
                    brace += 1;
                    entered = true;
                }
                Tok::Punct('}') => {
                    brace = brace.saturating_sub(1);
                    if entered && brace == 0 {
                        end += 1;
                        break;
                    }
                }
                Tok::Punct(';') if !entered => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        out.push((i, end));
        i = end;
    }
    out
}

fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges.iter().any(|&(a, b)| idx >= a && idx < b)
}

/// Keywords that may legitimately precede a `[` without it being an
/// index expression (slice patterns, `for x in [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "break", "continue", "if", "while", "match", "else",
    "move", "as", "const", "static", "where", "for", "loop", "dyn", "impl", "fn", "use", "pub",
    "enum", "struct", "trait", "mod", "unsafe", "await", "box", "yield",
];

struct FileCx<'a> {
    rel: &'a str,
    toks: &'a [Token],
    exempt: Vec<(usize, usize)>,
    pragmas: crate::lexer::Pragmas,
    findings: Vec<Finding>,
}

impl FileCx<'_> {
    fn push(&mut self, lint: &'static str, line: u32, message: String) {
        if self.pragmas.allows(lint, line) {
            return;
        }
        self.findings.push(Finding {
            lint,
            file: self.rel.to_string(),
            line,
            message,
        });
    }

    fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, i: usize) -> Option<char> {
        match self.toks.get(i).map(|t| &t.kind) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }
}

/// Lint one file's source under the scope derived from its path.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let scope = Scope::for_path(rel);
    let (toks, pragmas) = lex(src);
    let exempt = test_exempt_ranges(&toks);
    let mut cx = FileCx {
        rel,
        toks: &toks,
        exempt,
        pragmas,
        findings: Vec::new(),
    };

    // bad pragmas always fire, even in otherwise exempt files: an
    // unparsable suppression silently suppresses nothing.
    let bad: Vec<_> = cx.pragmas.bad.clone();
    for b in bad {
        cx.findings.push(Finding {
            lint: "bad-pragma",
            file: rel.to_string(),
            line: b.line,
            message: b.reason,
        });
    }

    if scope.headers {
        check_headers(&mut cx);
    }

    let any_token_lints = scope.panic
        || scope.index
        || scope.clock
        || scope.hash
        || scope.print
        || scope.rawfs
        || scope.wait;
    if any_token_lints {
        token_lints(&mut cx, scope);
    }
    if scope.durability {
        durability_lint(&mut cx);
    }

    cx.findings
}

/// Crate-root header checks: `#![forbid(unsafe_code)]` and
/// `#![deny(missing_docs)]` must both be present somewhere in the file.
fn check_headers(cx: &mut FileCx) {
    let mut has_forbid_unsafe = false;
    let mut has_deny_docs = false;
    for i in 0..cx.toks.len() {
        if cx.punct(i) == Some('#') && cx.punct(i + 1) == Some('!') {
            // inner attribute: gather idents to the closing `]`
            let mut j = i + 2;
            let mut words: Vec<&str> = Vec::new();
            let mut depth = 0usize;
            while j < cx.toks.len() {
                match &cx.toks[j].kind {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(w) => words.push(w),
                    _ => {}
                }
                j += 1;
            }
            if words.contains(&"forbid") && words.contains(&"unsafe_code") {
                has_forbid_unsafe = true;
            }
            if words.contains(&"deny") && words.contains(&"missing_docs") {
                has_deny_docs = true;
            }
        }
    }
    if !has_forbid_unsafe {
        cx.push(
            "missing-forbid-unsafe",
            1,
            format!(
                "`{}` is a crate root without `#![forbid(unsafe_code)]`",
                cx.rel
            ),
        );
    }
    if !has_deny_docs {
        cx.push(
            "missing-deny-docs",
            1,
            format!(
                "`{}` is a crate root without `#![deny(missing_docs)]`",
                cx.rel
            ),
        );
    }
}

fn token_lints(cx: &mut FileCx, scope: Scope) {
    for i in 0..cx.toks.len() {
        if in_ranges(&cx.exempt, i) {
            continue;
        }
        let line = cx.toks[i].line;
        let Some(word) = cx.ident(i) else {
            // index-slice is a punct-anchored rule
            if scope.index && cx.punct(i) == Some('[') && i > 0 {
                let prev = &cx.toks[i - 1].kind;
                let indexes = match prev {
                    Tok::Ident(w) => !NON_INDEX_KEYWORDS.contains(&w.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
                if indexes {
                    cx.push(
                        "index-slice",
                        line,
                        "indexing can panic on out-of-range input; use `.get(..)` and return \
                         a typed error"
                            .to_string(),
                    );
                }
            }
            continue;
        };
        let word = word.to_string();
        match word.as_str() {
            "unwrap"
                if scope.panic
                    && cx.punct(i.wrapping_sub(1)) == Some('.')
                    && cx.punct(i + 1) == Some('(') =>
            {
                cx.push(
                    "panic-unwrap",
                    line,
                    "`.unwrap()` panics on the error path; convert to a typed error \
                     (`ServeError`/`CrhError`) or handle the `None`/`Err` case"
                        .to_string(),
                );
            }
            "expect"
                if scope.panic
                    && cx.punct(i.wrapping_sub(1)) == Some('.')
                    && cx.punct(i + 1) == Some('(') =>
            {
                cx.push(
                    "panic-expect",
                    line,
                    "`.expect()` panics on the error path; convert to a typed error or \
                     handle the `None`/`Err` case"
                        .to_string(),
                );
            }
            "panic" | "todo" | "unimplemented" | "unreachable"
                if scope.panic
                    && cx.punct(i + 1) == Some('!')
                    && cx.punct(i.wrapping_sub(1)) != Some('.') =>
            {
                cx.push(
                    "panic-macro",
                    line,
                    format!(
                        "`{word}!` aborts the daemon; restructure so the case is \
                         impossible or return a protocol error"
                    ),
                );
            }
            "Instant"
                if scope.clock
                    && cx.punct(i + 1) == Some(':')
                    && cx.punct(i + 2) == Some(':')
                    && cx.ident(i + 3) == Some("now") =>
            {
                cx.push(
                    "nondet-clock",
                    line,
                    "`Instant::now()` in a determinism-critical path; seeded replays \
                     must not branch on wall-clock time"
                        .to_string(),
                );
            }
            "SystemTime" | "UNIX_EPOCH" if scope.clock => {
                cx.push(
                    "nondet-clock",
                    line,
                    format!(
                        "`{word}` in a determinism-critical path; derive timestamps from \
                         the seeded plan instead"
                    ),
                );
            }
            "thread_rng" | "OsRng" | "from_entropy" | "getrandom" if scope.clock || scope.hash => {
                cx.push(
                    "nondet-rng",
                    line,
                    format!("`{word}` is ambient randomness; use seeded `crh_core::rng::hash_rng`"),
                );
            }
            "HashMap" | "HashSet" if scope.hash => {
                cx.push(
                    "nondet-hash-iter",
                    line,
                    format!(
                        "`{word}` iteration order varies per process; this file feeds \
                         digests/simulation state — use `BTreeMap`/`BTreeSet`"
                    ),
                );
            }
            "println" | "print" | "dbg" if scope.print && cx.punct(i + 1) == Some('!') => {
                cx.push(
                    "print-stdout",
                    line,
                    format!(
                        "`{word}!` in library code writes to the process's stdout; \
                         return the data or take an output sink"
                    ),
                );
            }
            // `std::fs` paths (calls *and* imports — an import is how the
            // raw calls get in), `File::` associated calls, and
            // `OpenOptions` builders all bypass the Vfs seam.
            "fs" if scope.rawfs
                && cx.punct(i.wrapping_sub(1)) == Some(':')
                && cx.punct(i.wrapping_sub(2)) == Some(':')
                && cx.ident(i.wrapping_sub(3)) == Some("std") =>
            {
                cx.push(
                    "raw-fs-in-serve",
                    line,
                    "`std::fs` bypasses the `Vfs` seam; the disk-fault plan cannot \
                     inject here — use `Vfs`/`DiskFile` (crates/serve/src/vfs.rs)"
                        .to_string(),
                );
            }
            "File"
                if scope.rawfs && cx.punct(i + 1) == Some(':') && cx.punct(i + 2) == Some(':') =>
            {
                cx.push(
                    "raw-fs-in-serve",
                    line,
                    "`File::…` bypasses the `Vfs` seam; open files through \
                     `Vfs::open_log`/`DiskFile` so fault injection reaches them"
                        .to_string(),
                );
            }
            // A no-argument blocking method (`.recv()`, `.join()`,
            // `.lock()`, `.wait()`) is the unbounded-wait shape; the
            // argument-taking `Path::join(x)` / `recv_timeout(d)` forms
            // don't match the `()` suffix and are fine.
            "recv" | "join" | "lock" | "wait"
                if scope.wait
                    && cx.punct(i.wrapping_sub(1)) == Some('.')
                    && cx.punct(i + 1) == Some('(')
                    && cx.punct(i + 2) == Some(')') =>
            {
                cx.push(
                    "unbounded-wait-in-serve",
                    line,
                    format!(
                        "`.{word}()` blocks with no deadline; a slow (not dead) peer pins \
                         this thread forever — use `{word}_timeout(..)`/a bounded variant, \
                         or justify why the wait is bounded"
                    ),
                );
            }
            "OpenOptions" if scope.rawfs => {
                cx.push(
                    "raw-fs-in-serve",
                    line,
                    "`OpenOptions` bypasses the `Vfs` seam; open files through \
                     `Vfs::open_log`/`DiskFile` so fault injection reaches them"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
}

/// The durability lint: inside `wal.rs`/`replicate.rs`, no function may
/// reach an ack/reply construction before a syncing call.
///
/// This is a lexical approximation of a call-ordering proof: per
/// function we record the ordered sequence of call-like events, compute
/// the set of in-file functions that (transitively) fsync, and flag any
/// ack event not preceded — anywhere earlier in the same function body —
/// by a syncing event. Branch-insensitive by design: it over-approximates
/// "some path acks un-synced", and genuine pure helpers carry a pragma.
fn durability_lint(cx: &mut FileCx) {
    // `write_atomic` is the Vfs seam's durable write (tmp + fsync +
    // rename + dir-fsync by contract), so it counts as a sync.
    const SYNC_PRIMITIVES: &[&str] = &[
        "sync_all",
        "sync_data",
        "sync_parent_dir",
        "fsync",
        "write_atomic",
    ];
    const ACK_NAMES: &[&str] = &["ack", "reply_ok", "send_ack"];
    const ACK_CONSTRUCTORS: &[&str] = &["ReplAck"];

    #[derive(Debug)]
    enum Ev {
        Call(String),
        Ack(String, u32),
    }

    // Pass A: function extents.
    let mut fns: Vec<(String, usize, usize)> = Vec::new(); // (name, body_start, body_end)
    let mut i = 0usize;
    while i < cx.toks.len() {
        if cx.ident(i) == Some("fn") {
            if let Some(name) = cx.ident(i + 1) {
                let name = name.to_string();
                // find the body's opening brace; a `;` first means a
                // trait-method declaration with no body
                let mut j = i + 2;
                let mut open = None;
                while j < cx.toks.len() {
                    match cx.toks[j].kind {
                        Tok::Punct('{') => {
                            open = Some(j);
                            break;
                        }
                        Tok::Punct(';') => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(start) = open {
                    let mut depth = 0usize;
                    let mut end = start;
                    while end < cx.toks.len() {
                        match cx.toks[end].kind {
                            Tok::Punct('{') => depth += 1,
                            Tok::Punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        end += 1;
                    }
                    fns.push((name, start, end));
                    i += 2;
                    continue;
                }
            }
        }
        i += 1;
    }

    // Pass B: per-function ordered events.
    let events: Vec<(usize, Vec<Ev>)> = fns
        .iter()
        .enumerate()
        .map(|(fi, (_, start, end))| {
            let mut evs = Vec::new();
            for k in *start..*end {
                if in_ranges(&cx.exempt, k) {
                    continue;
                }
                let line = cx.toks[k].line;
                let Some(w) = cx.ident(k) else { continue };
                if ACK_CONSTRUCTORS.contains(&w) {
                    evs.push(Ev::Ack(w.to_string(), line));
                } else if cx.punct(k + 1) == Some('(') {
                    if ACK_NAMES.contains(&w) {
                        evs.push(Ev::Ack(w.to_string(), line));
                    } else {
                        evs.push(Ev::Call(w.to_string()));
                    }
                }
            }
            (fi, evs)
        })
        .collect();

    // Fixpoint: which functions sync (directly or via an in-file call)?
    let names: Vec<&str> = fns.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut syncs: Vec<bool> = events
        .iter()
        .map(|(_, evs)| {
            evs.iter()
                .any(|e| matches!(e, Ev::Call(n) if SYNC_PRIMITIVES.contains(&n.as_str())))
        })
        .collect();
    loop {
        let mut changed = false;
        for (fi, evs) in &events {
            if syncs[*fi] {
                continue;
            }
            let now_syncs = evs.iter().any(|e| {
                matches!(e, Ev::Call(n)
                    if names.iter().position(|m| m == n).is_some_and(|p| syncs[p]))
            });
            if now_syncs {
                syncs[*fi] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass C: flag acks with no earlier sync in the same body.
    for (fi, evs) in &events {
        let fname = fns[*fi].0.clone();
        let mut synced = false;
        for e in evs {
            match e {
                Ev::Call(n) => {
                    if SYNC_PRIMITIVES.contains(&n.as_str())
                        || names.iter().position(|m| m == n).is_some_and(|p| syncs[p])
                    {
                        synced = true;
                    }
                }
                Ev::Ack(what, line) => {
                    if !synced {
                        cx.push(
                            "ack-before-sync",
                            *line,
                            format!(
                                "`{fname}` reaches `{what}` before any sync call; an ack \
                                 must only follow a durable fsync (WAL contract, PR 2/3)"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_mapping_matches_the_layout() {
        let s = Scope::for_path("crates/serve/src/server.rs");
        assert!(s.panic && s.index && s.wait && !s.clock && !s.durability);
        let s = Scope::for_path("crates/core/src/cancel.rs");
        assert!(!s.wait, "unbounded-wait is scoped to crates/serve");
        let s = Scope::for_path("crates/serve/src/faults.rs");
        assert!(s.panic && s.clock && s.hash);
        let s = Scope::for_path("crates/serve/src/wal.rs");
        assert!(s.durability && s.rawfs);
        let s = Scope::for_path("crates/serve/src/vfs.rs");
        assert!(!s.rawfs, "the seam itself may touch the real filesystem");
        let s = Scope::for_path("crates/core/src/persist.rs");
        assert!(!s.rawfs, "raw-fs is scoped to crates/serve");
        let s = Scope::for_path("crates/serve/tests/chaos.rs");
        assert!(s.exempt_file);
        let s = Scope::for_path("crates/lint/tests/fixtures/panic_positive.rs");
        assert!(!s.exempt_file && !s.panic); // fixtures: no lints at all
        let s = Scope::for_path("crates/core/src/lib.rs");
        assert!(s.headers && s.panic);
        let s = Scope::for_path("crates/core/src/par.rs");
        assert!(
            s.panic && s.clock && s.hash,
            "the deterministic pool carries panic + determinism rules"
        );
        for f in ["crates/core/src/columnar.rs", "crates/core/src/kernels.rs"] {
            let s = Scope::for_path(f);
            assert!(
                s.panic && s.clock && s.hash,
                "{f}: the columnar layer carries panic + determinism rules"
            );
        }
        let s = Scope::for_path("src/bin/crh.rs");
        assert!(!s.panic && !s.print);
    }

    #[test]
    fn unwrap_in_scope_fires_and_test_mod_is_exempt() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn g(x: Option<u8>) -> u8 { x.unwrap() } }\n";
        let f = lint_source("crates/serve/src/server.rs", src);
        assert_eq!(f.iter().filter(|d| d.lint == "panic-unwrap").count(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let f = lint_source("crates/serve/src/server.rs", src);
        assert_eq!(f.iter().filter(|d| d.lint == "panic-unwrap").count(), 1);
    }

    #[test]
    fn durability_ordering_flags_unsynced_ack() {
        let src = "\
fn bad(&mut self) { self.net.ack(seq); }\n\
fn good(&mut self) { self.file.sync_data().ok(); self.net.ack(seq); }\n\
fn via_helper(&mut self) { self.persist(); self.net.ack(seq); }\n\
fn persist(&self) { self.file.sync_all().ok(); }\n";
        let f = lint_source("crates/serve/src/wal.rs", src);
        let acks: Vec<u32> = f
            .iter()
            .filter(|d| d.lint == "ack-before-sync")
            .map(|d| d.line)
            .collect();
        assert_eq!(acks, vec![1]);
    }

    #[test]
    fn headers_required_on_crate_roots() {
        let f = lint_source("crates/serve/src/lib.rs", "//! docs\npub mod x;\n");
        assert!(f.iter().any(|d| d.lint == "missing-forbid-unsafe"));
        assert!(f.iter().any(|d| d.lint == "missing-deny-docs"));
        let f = lint_source(
            "crates/serve/src/lib.rs",
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub mod x;\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn pragma_suppresses_with_justification() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // crh-lint: allow(panic-unwrap) — input validated by caller\n    x.unwrap()\n}\n";
        let f = lint_source("crates/serve/src/server.rs", src);
        assert!(f.is_empty());
    }

    #[test]
    fn index_heuristic_skips_literals_and_patterns() {
        let src = "fn f(v: &[u8]) -> u8 {\n\
                   let a = [0u8; 4];\n\
                   let [x, y] = [1, 2];\n\
                   v[0]\n}\n";
        let f = lint_source("crates/serve/src/server.rs", src);
        let idx: Vec<u32> = f
            .iter()
            .filter(|d| d.lint == "index-slice")
            .map(|d| d.line)
            .collect();
        assert_eq!(idx, vec![4]);
    }
}
