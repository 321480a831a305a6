//! Fixture-driven end-to-end tests for the syntax-aware rules
//! (`lock-order-cycle`, `blocking-under-lock`).
//!
//! Unlike the unit tests inside each analysis, these go through
//! [`crh_lint::lint_files`] — the same engine the CLI uses — so path
//! scoping, model building, and pragma suppression are all exercised.
//! Fixtures live under `tests/fixtures/` and are fed in under synthetic
//! `crates/serve/...` paths; assertions filter to the rule under test
//! because the lexical lints (e.g. `unbounded-wait-in-serve` on every
//! `.lock()`) fire on the same sources.

use crh_lint::{lint_files, Finding, SourceFile};

fn sf(rel: &str, src: &str) -> SourceFile {
    SourceFile {
        rel: rel.into(),
        src: src.into(),
    }
}

/// Sorted `(line, message)` pairs for one lint id.
fn hits(findings: &[Finding], lint: &str) -> Vec<(u32, String)> {
    let mut v: Vec<(u32, String)> = findings
        .iter()
        .filter(|f| f.lint == lint)
        .map(|f| (f.line, f.message.clone()))
        .collect();
    v.sort();
    v
}

#[test]
fn two_fn_lock_cycle_reported_both_ways_suppression_and_tricky_tokens_hold() {
    let found = lint_files(&[sf(
        "crates/serve/src/lock_cycle.rs",
        include_str!("fixtures/lock_cycle.rs"),
    )]);
    let cycle = hits(&found, "lock-order-cycle");
    // One finding per direction: the `a→b` witness in `ab` and the
    // `b→a` witness in `ba`. The pragma'd `c`/`d` pair and the
    // string/comment lookalikes stay silent.
    assert_eq!(cycle.len(), 2, "{cycle:#?}");
    assert_eq!(cycle[0].0, 8);
    assert_eq!(cycle[1].0, 13);
    assert!(cycle[0].1.contains("`a` is held while `b`"), "{cycle:#?}");
    assert!(cycle[1].1.contains("`b` is held while `a`"), "{cycle:#?}");
    assert!(
        !cycle
            .iter()
            .any(|(_, m)| m.contains("`c`") || m.contains("`d`")),
        "suppressed pair leaked: {cycle:#?}"
    );
}

#[test]
fn interprocedural_cycle_through_guard_helper_is_found() {
    let found = lint_files(&[sf(
        "crates/serve/src/lock_cycle_helper.rs",
        include_str!("fixtures/lock_cycle_helper.rs"),
    )]);
    let cycle = hits(&found, "lock-order-cycle");
    // `forward` holds `alock` (via the helper) at the `take_b()` call
    // site; `backward` holds `block` when the helper acquires `alock`.
    assert_eq!(cycle.len(), 2, "{cycle:#?}");
    assert_eq!(cycle[0].0, 16);
    assert!(cycle[0].1.contains("take_b"), "{cycle:#?}");
    assert_eq!(cycle[1].0, 21);
}

#[test]
fn fsync_under_guard_direct_and_transitive_fire_but_suppressed_and_dropped_do_not() {
    let found = lint_files(&[sf(
        "crates/serve/src/blocking_fsync.rs",
        include_str!("fixtures/blocking_fsync.rs"),
    )]);
    let blocking = hits(&found, "blocking-under-lock");
    assert_eq!(blocking.len(), 2, "{blocking:#?}");
    assert_eq!(blocking[0].0, 14);
    assert!(blocking[0].1.contains("sync_all"), "{blocking:#?}");
    assert_eq!(blocking[1].0, 19);
    assert!(
        blocking[1].1.contains("append") && blocking[1].1.contains("sync_data"),
        "transitive finding should name the call and its root: {blocking:#?}"
    );
}
