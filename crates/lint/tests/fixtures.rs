//! Fixture-driven end-to-end tests for every lint id.
//!
//! Each fixture under `tests/fixtures/` is a standalone `.rs` source that
//! is **never compiled** (the directory is not a direct child of `tests/`
//! and the workspace walker skips it). We feed each one to
//! [`crh_lint::lint_source`] under a simulated workspace-relative path so
//! the scope rules see it as real daemon code, then assert on the exact
//! lint ids and line numbers that come back.

use crh_lint::{lint_source, Finding};

/// Sorted `(lint-id, line)` pairs — order-insensitive comparison.
fn hits(findings: &[Finding]) -> Vec<(&str, u32)> {
    let mut v: Vec<(&str, u32)> = findings.iter().map(|f| (f.lint, f.line)).collect();
    v.sort_unstable();
    v
}

#[test]
fn panic_lints_each_fire_once() {
    let src = include_str!("fixtures/panic_hits.rs");
    let found = lint_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits(&found),
        vec![
            ("index-slice", 11),
            ("panic-expect", 7),
            ("panic-macro", 9),
            ("panic-macro", 13),
            ("panic-unwrap", 6),
        ],
        "full diagnostics: {found:#?}"
    );
}

#[test]
fn justified_pragma_suppresses_but_malformed_ones_do_not() {
    let src = include_str!("fixtures/pragma_suppressed.rs");
    let found = lint_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits(&found),
        vec![
            // line 9: pragma with no justification; line 14: unknown lint id
            ("bad-pragma", 9),
            ("bad-pragma", 14),
            // the unwraps those broken pragmas sat near still fire
            ("panic-unwrap", 11),
            ("panic-unwrap", 16),
        ],
        "full diagnostics: {found:#?}"
    );
    let no_justification = found.iter().find(|f| f.line == 9).expect("line 9 finding");
    assert!(
        no_justification.message.contains("justification"),
        "message should demand a justification: {no_justification:?}"
    );
    let unknown_id = found
        .iter()
        .find(|f| f.line == 14)
        .expect("line 14 finding");
    assert!(
        unknown_id.message.contains("no-such-lint"),
        "message should name the bogus id: {unknown_id:?}"
    );
}

#[test]
fn test_code_is_exempt_but_cfg_not_test_is_not() {
    let src = include_str!("fixtures/test_exempt.rs");
    let found = lint_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits(&found),
        vec![("panic-unwrap", 19)],
        "only the `#[cfg(not(test))]` unwrap may fire: {found:#?}"
    );
}

#[test]
fn strings_raw_strings_comments_and_char_literals_never_fire() {
    let src = include_str!("fixtures/tricky_tokens.rs");
    let found = lint_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits(&found),
        vec![("panic-unwrap", 17)],
        "only the genuine unwrap outside literals may fire: {found:#?}"
    );
}

#[test]
fn determinism_lints_fire_in_clock_and_hash_scope() {
    let src = include_str!("fixtures/clock_hash.rs");
    let found = lint_source("crates/serve/src/faults.rs", src);
    assert_eq!(
        hits(&found),
        vec![
            ("nondet-clock", 8),
            // HashMap is flagged per occurrence: the import and both
            // mentions on the construction line
            ("nondet-hash-iter", 4),
            ("nondet-hash-iter", 9),
            ("nondet-hash-iter", 9),
            ("nondet-rng", 10),
        ],
        "full diagnostics: {found:#?}"
    );
}

#[test]
fn columnar_kernel_files_are_in_the_determinism_and_panic_scopes() {
    // The columnar mirror and its loss sweeps joined CLOCK_SCOPE and
    // HASH_SCOPE: a clock read, ambient RNG, or map-ordered iteration
    // there would break the columnar-vs-row bit-identity contract just
    // as surely as in the thread pool. Pin the scope extension with the
    // same violation corpus the other determinism files use.
    let src = include_str!("fixtures/clock_hash.rs");
    for path in ["crates/core/src/columnar.rs", "crates/core/src/kernels.rs"] {
        let found = lint_source(path, src);
        assert_eq!(
            hits(&found),
            vec![
                ("nondet-clock", 8),
                ("nondet-hash-iter", 4),
                ("nondet-hash-iter", 9),
                ("nondet-hash-iter", 9),
                ("nondet-rng", 10),
            ],
            "{path}: full diagnostics: {found:#?}"
        );
        // They are core lib code, so panic-freedom applies too.
        let found = lint_source(path, "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(
            hits(&found),
            vec![("panic-unwrap", 1)],
            "{path}: full diagnostics: {found:#?}"
        );
    }
}

#[test]
fn determinism_lints_stay_quiet_outside_their_scope() {
    let src = include_str!("fixtures/clock_hash.rs");
    // stream code is panic-scoped but not determinism-scoped
    let found = lint_source("crates/stream/src/fixture.rs", src);
    assert!(
        found.is_empty(),
        "no determinism findings outside CLOCK/HASH scope: {found:#?}"
    );
}

#[test]
fn completion_order_reduction_in_the_pool_is_flagged() {
    // The deterministic pool's contract is chunk-ordered merging; a
    // completion-order reduction funnelled through a HashMap is the
    // canonical violation, and par.rs sits in HASH_SCOPE so the linter
    // catches it.
    let src = include_str!("fixtures/par_completion_order.rs");
    let found = lint_source("crates/core/src/par.rs", src);
    assert_eq!(
        hits(&found),
        vec![("nondet-hash-iter", 9), ("nondet-hash-iter", 25)],
        "full diagnostics: {found:#?}"
    );
    // The same source outside the determinism scope stays quiet.
    let found = lint_source("crates/stream/src/fixture.rs", src);
    assert!(
        found.is_empty(),
        "no determinism findings outside HASH scope: {found:#?}"
    );
}

#[test]
fn ack_before_sync_flags_only_the_unsynced_path() {
    let src = include_str!("fixtures/durability.rs");
    let found = lint_source("crates/serve/src/wal.rs", src);
    assert_eq!(
        hits(&found),
        vec![("ack-before-sync", 24)],
        "direct and transitive sync-then-ack are clean; the bare ack is not: {found:#?}"
    );
    let f = &found[0];
    assert!(
        f.message.contains("ack_without_sync"),
        "diagnostic should name the offending function: {f:?}"
    );
}

#[test]
fn crate_roots_must_carry_hygiene_headers() {
    let src = include_str!("fixtures/no_headers.rs");
    let found = lint_source("crates/serve/src/lib.rs", src);
    assert_eq!(
        hits(&found),
        vec![("missing-deny-docs", 1), ("missing-forbid-unsafe", 1)],
        "full diagnostics: {found:#?}"
    );
    // the same source as a non-root module is not a header violation
    let found = lint_source("crates/serve/src/other.rs", src);
    assert!(
        found.is_empty(),
        "non-root files need no headers: {found:#?}"
    );
}

#[test]
fn stdout_writes_fire_in_library_code_only() {
    let src = include_str!("fixtures/print.rs");
    let found = lint_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits(&found),
        vec![("print-stdout", 6), ("print-stdout", 7)],
        "full diagnostics: {found:#?}"
    );
    for path in ["crates/serve/src/main.rs", "crates/serve/src/bin/tool.rs"] {
        let found = lint_source(path, src);
        assert!(found.is_empty(), "binaries may print ({path}): {found:#?}");
    }
}

#[test]
fn raw_fs_fires_in_serve_outside_vfs_and_test_code() {
    let src = include_str!("fixtures/raw_fs.rs");
    let found = lint_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits(&found),
        vec![
            // line 2: the import; line 5: std::fs::read; line 9: File::create;
            // line 10: both the std::fs path and the OpenOptions builder
            ("raw-fs-in-serve", 2),
            ("raw-fs-in-serve", 5),
            ("raw-fs-in-serve", 9),
            ("raw-fs-in-serve", 10),
            ("raw-fs-in-serve", 10),
        ],
        "full diagnostics: {found:#?}"
    );
    // vfs.rs is the seam's one legitimate home; nothing fires there
    let found = lint_source("crates/serve/src/vfs.rs", src);
    assert!(
        !found.iter().any(|f| f.lint == "raw-fs-in-serve"),
        "vfs.rs is exempt: {found:#?}"
    );
    // and other crates' raw fs is out of scope entirely
    let found = lint_source("crates/core/src/persist.rs", src);
    assert!(
        !found.iter().any(|f| f.lint == "raw-fs-in-serve"),
        "non-serve code is out of scope: {found:#?}"
    );
}

#[test]
fn unbounded_waits_fire_in_serve_but_bounded_and_arg_forms_do_not() {
    let src = include_str!("fixtures/unbounded_wait.rs");
    let found = lint_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits(&found),
        vec![
            // line 8: rx.recv(); line 12: t.join(); line 13: m.lock()
            ("unbounded-wait-in-serve", 8),
            ("unbounded-wait-in-serve", 12),
            ("unbounded-wait-in-serve", 13),
        ],
        "full diagnostics: {found:#?}"
    );
    // the rule is scoped to the daemon: solver code may block
    let found = lint_source("crates/core/src/fixture.rs", src);
    assert!(
        !found.iter().any(|f| f.lint == "unbounded-wait-in-serve"),
        "non-serve code is out of scope: {found:#?}"
    );
}

#[test]
fn fixture_corpus_itself_is_never_linted() {
    // The walker skips `fixtures/` directories, and Scope::for_path
    // additionally maps the path to an empty scope — belt and braces.
    let src = include_str!("fixtures/panic_hits.rs");
    let found = lint_source("crates/lint/tests/fixtures/panic_hits.rs", src);
    assert!(
        found.is_empty(),
        "fixtures must never self-flag: {found:#?}"
    );
}

#[test]
fn pragmas_naming_the_deleted_lock_rules_are_bad() {
    // `blocking-under-lock` and `lock-order-cycle` no longer exist: the
    // daemon's single-owner design made them vacuous. A pragma still
    // naming either is stale and must not linger silently.
    let src = include_str!("fixtures/removed_rules.rs");
    let found = lint_source("crates/serve/src/fixture.rs", src);
    assert_eq!(
        hits(&found),
        vec![("bad-pragma", 5), ("bad-pragma", 9)],
        "full diagnostics: {found:#?}"
    );
    for (line, id) in [(5, "blocking-under-lock"), (9, "lock-order-cycle")] {
        let f = found.iter().find(|f| f.line == line).expect("finding");
        assert!(f.message.contains(id), "message should name `{id}`: {f:?}");
    }
}
