//! Linter throughput: the cost of gating CI on `crh-lint`.
//!
//! Run with `CRH_BENCH_JSON=BENCH_lint.json` to capture the results as
//! a machine-readable artifact (CI does this in the lint job). The
//! workspace sources are read once up front; each benchmark then
//! measures one phase of the in-memory pipeline:
//!
//! - `lexical` — the per-file token-stream lints,
//! - `full` — the lints plus sorting, i.e. what one `crh-lint`
//!   invocation costs after I/O.
//!
//! The budget assertion at the bottom is deliberately loose (shared CI
//! runners) but tight enough to catch an accidental quadratic blowup in
//! a rule: the full pipeline must stay under two seconds per run at the
//! median.

use std::time::Duration;

use crh_bench::microbench::{Harness, Throughput};
use crh_lint::{find_workspace_root, lint_files, lint_lexical, read_workspace};

fn main() {
    let quick = std::env::var("CRH_BENCH_QUICK").is_ok_and(|v| v != "0");
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    let files = read_workspace(&root).expect("read workspace sources");
    let total_bytes: usize = files.iter().map(|f| f.src.len()).sum();
    // crh-lint: allow(print-stdout) — a bench harness's job is printing its report; stdout is the deliverable
    println!(
        "  corpus: {} files, {} KiB",
        files.len(),
        total_bytes / 1024
    );

    let mut h = Harness::from_env();
    let mut g = h.benchmark_group("lint_workspace");
    g.sample_size(if quick { 3 } else { 20 });
    g.throughput(Throughput::Elements(files.len() as u64));

    g.bench_function("lexical", |b| {
        b.iter(|| lint_lexical(&files).len());
    });
    g.bench_function("full", |b| {
        b.iter(|| lint_files(&files).len());
    });
    g.finish();

    let full_median = h
        .records()
        .iter()
        .find(|r| r.id == "full")
        .map(|r| Duration::from_nanos(r.median_ns as u64))
        .expect("the full benchmark just ran");

    // The gate must stay cheap enough to run on every push.
    assert!(
        full_median < Duration::from_secs(2),
        "full lint pass took {full_median:?} at the median; \
         the CI gate budget is 2s — something went quadratic"
    );

    // The workspace itself must be clean: CI fails the lint job on any
    // finding, so catch drift here too rather than publishing a bench
    // artifact for a red gate.
    let findings = lint_files(&files);
    assert!(
        findings.is_empty(),
        "workspace has {} unsuppressed finding(s); run `cargo run -p crh-lint`",
        findings.len()
    );
}
