// Fixture: pragmas naming the deleted lock rules are stale.
// Linted as `crates/serve/src/fixture.rs`.

pub fn fold(core: &mut Core) {
    // crh-lint: allow(blocking-under-lock) — the WAL fsync runs under the core lock
    core.ingest();
}

// crh-lint: allow(lock-order-cycle) — both orders are serialized elsewhere
pub fn relock(a: &Core, b: &Core) {
    a.merge(b);
}
