//! The syntax-aware analyses: rules that need the parser and call
//! graph rather than a single token stream.
//!
//! Two rules live here, both scoped to `crates/serve`:
//!
//! - [`lock_order`] — `lock-order-cycle`: inconsistent mutex/RwLock
//!   acquisition order anywhere in the (transitive) call graph,
//! - [`blocking`] — `blocking-under-lock`: fsync/socket/sleep calls
//!   made while a lock guard is live.
//!
//! Findings carry the same suppression contract as the lexical lints:
//! a justified `// crh-lint: allow(<id>) — why` pragma on (or above)
//! the reported line silences them; suppression is applied by the
//! caller ([`crate::lint_files`]) which owns the per-file pragma
//! tables.

pub mod blocking;
pub mod lock_order;

use crate::callgraph::Model;
use crate::lints::Finding;
use crate::parse::Ast;

/// Whether a path is `crh-serve` library code, the scope of the
/// syntax-aware rules.
pub fn in_scope(rel: &str) -> bool {
    rel.contains("crates/serve/src/")
}

/// Run every syntax-aware analysis over the parsed in-scope files and
/// return unsuppressed findings (the caller applies pragma filtering).
pub fn run(files: &[(&str, &Ast)]) -> Vec<Finding> {
    let model = Model::build(files);
    let mut findings = lock_order::run(&model);
    findings.extend(blocking::run(&model));
    findings
}
