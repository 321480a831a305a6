//! Function models and the intra-workspace call graph.
//!
//! Each parsed function is flattened into an ordered **event stream**:
//! lock acquisitions, calls (by bare name), scope boundaries, statement
//! boundaries, and explicit `drop(...)`s. The analyses replay these
//! events through [`simulate`] to know which lock guards are live at
//! any call site, and propagate per-function facts (locks acquired,
//! blocking calls reachable) transitively with [`Model::fixpoint`].
//!
//! Resolution is **name-based**: a call `x.ingest(…)` resolves to every
//! workspace function named `ingest`, with no type information. That
//! over-approximates (two unrelated methods sharing a name are merged)
//! and under-approximates (trait-object dispatch and
//! closures-passed-as-callbacks are invisible) — both limits are
//! documented in DESIGN.md §14 and in the `--explain` text.
//!
//! Lock identity is the last field segment of the receiver path:
//! `self.core.lock()` and `st.core.lock()` are both lock `core`. Guard
//! lifetimes follow Rust's rules closely enough for linting: a
//! `let`-bound guard lives to the end of its enclosing block (or an
//! explicit `drop(g)`), an unbound temporary dies at the end of its
//! statement.

use crate::parse::{Ast, Base, Block, Chain, Expr, FnItem, Item, Post, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// What a call's receiver looked like syntactically — the cheap type
/// evidence resolution can exploit without a real type system.
#[derive(Debug, Clone)]
pub enum Recv {
    /// `self.f(…)`: the receiver is the enclosing impl type.
    SelfDot,
    /// `x.f(…)` on a bare local binding: if `x` holds a guard from a
    /// typed helper (`let core = shared.core()`), the payload type is
    /// known.
    Binding(String),
    /// `g().f(…)`: the receiver is the result of the previous call in
    /// the chain — typed when that call is a guard helper.
    FromCall(String),
    /// `x.y.f(…)`: the receiver is a field place; `y` is its last
    /// segment. Typed when a guard helper guards a lock field of the
    /// same name (`self.core.snapshot_now()` inside `ReplicaNode`,
    /// where helper `core()` guards payload `ServeCore` — the naming
    /// discipline ties field and payload together).
    Place(String),
}

/// One abstract event inside a function body, in source order.
#[derive(Debug)]
pub enum Event {
    /// A direct lock acquisition (`.lock()` / argless `.read()` /
    /// `.write()`).
    Acquire {
        /// Lock identity (last receiver field segment).
        lock: String,
        /// 1-based line of the acquisition.
        line: u32,
        /// `let` binding holding the guard, if any.
        bind: Option<String>,
    },
    /// A call, to be resolved by bare name.
    Call {
        /// Callee bare name (last path segment or method name).
        name: String,
        /// Last field segment of the first argument, when it is a
        /// simple place expression — how passthrough lock helpers like
        /// `relock(&s.durable)` recover their lock identity.
        first_arg_field: Option<String>,
        /// Number of call-site arguments (receiver excluded). Guard
        /// getters like `Shared::core()` are argless, so an arity
        /// mismatch distinguishes them from same-named ordinary
        /// methods (`SimCluster::node(i)`).
        argc: usize,
        /// Syntactic receiver shape, for type-aware resolution.
        recv: Option<Recv>,
        /// 1-based line of the call.
        line: u32,
        /// `let` binding receiving the result, if any.
        bind: Option<String>,
    },
    /// A block opened.
    ScopeOpen,
    /// A block closed: guards bound in it die.
    ScopeClose,
    /// A statement ended: unbound temporary guards die.
    StmtEnd,
    /// `drop(x)` / `mem::drop(x)`: the guard bound to `x` dies.
    Drop {
        /// The dropped binding.
        name: String,
    },
}

/// A function flattened for analysis.
#[derive(Debug)]
pub struct FnModel {
    /// File the function lives in (workspace-relative path).
    pub file: String,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type, if any.
    pub qual: Option<String>,
    /// 1-based line of the `fn`.
    pub line: u32,
    /// Test-only code (`#[test]`, `#[cfg(test)]` fn or module).
    pub is_test: bool,
    /// Signature mentions a guard type (`MutexGuard`, `RwLock*Guard`).
    pub returns_guard: bool,
    /// Signature mentions a lock type (`Mutex`/`RwLock`) — combined
    /// with `returns_guard` this marks a passthrough helper.
    pub has_lock_param: bool,
    /// Declared parameter count excluding `self` — call sites with a
    /// different arity cannot target this fn (Rust has no overloading).
    pub params: usize,
    /// For guard-returning helpers, the payload type named right after
    /// the guard type in the signature (`MutexGuard<'_, ServeCore>` →
    /// `ServeCore`).
    pub guard_payload: Option<String>,
    /// Ordered event stream of the body.
    pub events: Vec<Event>,
}

impl FnModel {
    /// Display name for messages: `Type::name` or bare `name`.
    pub fn display(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a guard-returning helper acquires its lock.
#[derive(Debug)]
pub struct Helper {
    /// Locks the helper acquires itself (`Shared::core` → `{core}`).
    pub locks: BTreeSet<String>,
    /// Lock comes from the caller's first argument (`relock(&m)`).
    pub passthrough: bool,
    /// The guarded payload type (`MutexGuard<'_, ServeCore>` →
    /// `ServeCore`), when every same-named helper agrees on it. Gives
    /// method calls on the returned guard a known receiver type.
    pub ty: Option<String>,
}

/// The analysis model: every function plus name-based resolution.
#[derive(Debug, Default)]
pub struct Model {
    /// All functions, test code included (excluded at report time).
    pub fns: Vec<FnModel>,
    /// bare name → indices into `fns`.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Guard-returning helper functions by bare name.
    pub helpers: BTreeMap<String, Helper>,
    /// Per function, per event: the callee indices each `Call` resolves
    /// to (empty for non-call events), computed once with name + arity
    /// + receiver-type evidence.
    pub calls: Vec<Vec<Vec<usize>>>,
}

/// Methods whose return value passes a guard through unchanged, so a
/// `let` binding on the chain still names the guard.
const GUARD_TRANSPARENT: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock"];

impl Model {
    /// Build the model from parsed files (path, AST).
    pub fn build(files: &[(&str, &Ast)]) -> Model {
        let mut m = Model::default();
        for (rel, ast) in files {
            collect_items(&ast.items, rel, None, false, &mut m.fns);
        }
        for (i, f) in m.fns.iter().enumerate() {
            m.by_name.entry(f.name.clone()).or_default().push(i);
        }
        // Helper classification needs the events, so it runs second.
        for f in &m.fns {
            if !f.returns_guard || f.is_test {
                continue;
            }
            let first = !m.helpers.contains_key(&f.name);
            let entry = m.helpers.entry(f.name.clone()).or_insert(Helper {
                locks: BTreeSet::new(),
                passthrough: false,
                ty: None,
            });
            if f.has_lock_param {
                entry.passthrough = true;
            } else {
                // The helper's own first acquisition names its lock.
                for ev in &f.events {
                    if let Event::Acquire { lock, .. } = ev {
                        entry.locks.insert(lock.clone());
                        break;
                    }
                }
            }
            // Payload type only survives if every same-named helper
            // agrees on it.
            if first {
                entry.ty = f.guard_payload.clone();
            } else if entry.ty != f.guard_payload {
                entry.ty = None;
            }
        }
        // Lock field name → guarded payload type, from the helpers
        // (None on disagreement). Lets a field-place receiver like
        // `self.core.…` borrow the helper's type evidence.
        let mut field_ty: BTreeMap<&str, Option<&str>> = BTreeMap::new();
        for h in m.helpers.values() {
            if h.passthrough {
                continue;
            }
            for lock in &h.locks {
                field_ty
                    .entry(lock.as_str())
                    .and_modify(|t| {
                        if *t != h.ty.as_deref() {
                            *t = None;
                        }
                    })
                    .or_insert(h.ty.as_deref());
            }
        }
        // Resolve every call once, replaying each fn's events to learn
        // guard-binding types along the way.
        let mut calls = Vec::with_capacity(m.fns.len());
        for f in &m.fns {
            let mut tys: BTreeMap<&str, &str> = BTreeMap::new();
            let mut per_ev = Vec::with_capacity(f.events.len());
            for ev in &f.events {
                let mut resolved = Vec::new();
                if let Event::Call {
                    name,
                    argc,
                    recv,
                    bind,
                    ..
                } = ev
                {
                    let helper_ty = |h: &str| {
                        m.helpers
                            .get(h)
                            .filter(|h| !h.passthrough)
                            .and_then(|h| h.ty.as_deref())
                    };
                    let recv_ty = match recv {
                        Some(Recv::SelfDot) => f.qual.as_deref(),
                        Some(Recv::FromCall(h)) => helper_ty(h),
                        Some(Recv::Binding(b)) => tys.get(b.as_str()).copied(),
                        Some(Recv::Place(p)) => field_ty.get(p.as_str()).copied().flatten(),
                        None => None,
                    };
                    resolved = m.typed_resolve(name, *argc, recv_ty);
                    if let (Some(b), Some(t)) = (bind.as_deref(), helper_ty(name)) {
                        tys.insert(b, t);
                    }
                }
                per_ev.push(resolved);
            }
            calls.push(per_ev);
        }
        m.calls = calls;
        m
    }

    /// All functions with the given bare name.
    pub fn resolve(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Functions with the given bare name AND a matching declared
    /// arity. This is the first resolution filter: it keeps ubiquitous
    /// std method names from aliasing workspace functions —
    /// `.load(Ordering::Acquire)` (one argument) no longer resolves to
    /// `fn load(&self)` on a store type. Strict on purpose: no
    /// arity-matching candidate means the call resolves to nothing,
    /// trading a little recall for a lot of precision.
    pub fn resolve_arity(&self, name: &str, argc: usize) -> Vec<usize> {
        self.resolve(name)
            .iter()
            .copied()
            .filter(|&j| self.fns[j].params == argc)
            .collect()
    }

    /// Arity-filtered resolution further narrowed by receiver type.
    /// With a known receiver type only methods of that impl match;
    /// with no type evidence, candidates spanning several distinct
    /// impl types are *ambiguous* and resolve to nothing — an unknown
    /// `x.weights()` must not union a server getter with a TCP
    /// client's fetch just because they share a name.
    pub fn typed_resolve(&self, name: &str, argc: usize, recv_ty: Option<&str>) -> Vec<usize> {
        let cands = self.resolve_arity(name, argc);
        if let Some(ty) = recv_ty {
            return cands
                .into_iter()
                .filter(|&j| self.fns[j].qual.as_deref() == Some(ty))
                .collect();
        }
        let quals: BTreeSet<Option<&str>> =
            cands.iter().map(|&j| self.fns[j].qual.as_deref()).collect();
        if quals.len() <= 1 {
            cands
        } else {
            Vec::new()
        }
    }

    /// Propagate per-function string facts through the call graph to a
    /// fixed point. `seed(i)` gives fn `i`'s own facts; every resolved
    /// call merges the callee's set into the caller's. Guard-returning
    /// helpers still propagate naturally (their body holds the
    /// `Acquire`), except passthrough helpers, whose lock identity only
    /// exists at the call site — their seed must be empty.
    pub fn fixpoint(&self, seed: impl Fn(usize) -> BTreeSet<String>) -> Vec<BTreeSet<String>> {
        let mut sets: Vec<BTreeSet<String>> = (0..self.fns.len()).map(&seed).collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add = BTreeSet::new();
                for resolved in &self.calls[i] {
                    for &j in resolved {
                        if j != i {
                            add.extend(sets[j].iter().cloned());
                        }
                    }
                }
                for x in add {
                    changed |= sets[i].insert(x);
                }
            }
            if !changed {
                return sets;
            }
        }
    }
}

/// A lock guard live at some point of the simulation.
#[derive(Debug, Clone)]
pub struct HeldGuard {
    /// Lock identity.
    pub lock: String,
    /// Line it was acquired on.
    pub line: u32,
    /// `let` binding, if the guard is named.
    pub bound: Option<String>,
    /// Block depth it was created at.
    pub depth: u32,
}

/// What [`simulate`] reports to its visitor.
#[derive(Debug)]
pub enum Sim<'a> {
    /// A lock is being acquired (guards in `held` exclude it).
    Acquire {
        /// Lock identity.
        lock: &'a str,
        /// 1-based line.
        line: u32,
    },
    /// A non-helper call is happening under the current guard set.
    Call {
        /// Callee bare name.
        name: &'a str,
        /// Callee fn indices this call resolves to (name + arity +
        /// receiver-type evidence; empty when unknown or ambiguous).
        resolved: &'a [usize],
        /// 1-based line.
        line: u32,
    },
}

/// Replay a function's events, tracking live guards, and call `visit`
/// with the held set at every acquisition and call. Helper calls are
/// interpreted as acquisitions here so callers never see them as plain
/// calls. `idx` selects the function (its precomputed call resolution
/// rides along in `Sim::Call`).
pub fn simulate(model: &Model, idx: usize, mut visit: impl FnMut(&[HeldGuard], Sim<'_>)) {
    let f = &model.fns[idx];
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut depth = 0u32;
    for (ev_idx, ev) in f.events.iter().enumerate() {
        match ev {
            Event::ScopeOpen => depth += 1,
            Event::ScopeClose => {
                held.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
            }
            Event::StmtEnd => held.retain(|g| g.bound.is_some() || g.depth < depth),
            Event::Drop { name } => held.retain(|g| g.bound.as_deref() != Some(name.as_str())),
            Event::Acquire { lock, line, bind } => {
                visit(&held, Sim::Acquire { lock, line: *line });
                held.push(HeldGuard {
                    lock: lock.clone(),
                    line: *line,
                    bound: bind.clone(),
                    depth,
                });
            }
            Event::Call {
                name,
                first_arg_field,
                argc,
                line,
                bind,
                ..
            } => {
                // A helper call only counts as an acquisition when the
                // call-site arity matches the helper's shape: guard
                // getters are argless, passthrough helpers take the
                // lock as an argument. Same-named ordinary methods
                // (e.g. `SimCluster::node(i)` vs `HaShared::node()`)
                // fall through to a plain call.
                let helper = model.helpers.get(name);
                match helper {
                    Some(h) if h.passthrough && *argc >= 1 => {
                        let lock = first_arg_field.clone().unwrap_or_else(|| "mutex".into());
                        visit(
                            &held,
                            Sim::Acquire {
                                lock: &lock,
                                line: *line,
                            },
                        );
                        held.push(HeldGuard {
                            lock,
                            line: *line,
                            bound: bind.clone(),
                            depth,
                        });
                    }
                    Some(h) if !h.locks.is_empty() && *argc == 0 => {
                        for lock in &h.locks {
                            visit(&held, Sim::Acquire { lock, line: *line });
                            held.push(HeldGuard {
                                lock: lock.clone(),
                                line: *line,
                                bound: bind.clone(),
                                depth,
                            });
                        }
                    }
                    _ => visit(
                        &held,
                        Sim::Call {
                            name,
                            resolved: &model.calls[idx][ev_idx],
                            line: *line,
                        },
                    ),
                }
            }
        }
    }
}

// ---- extraction ----

fn collect_items(
    items: &[Item],
    file: &str,
    qual: Option<&str>,
    cfg_test: bool,
    out: &mut Vec<FnModel>,
) {
    for item in items {
        match item {
            Item::Fn(f) => collect_fn(f, file, qual, cfg_test, out),
            Item::Impl(i) => collect_items(&i.items, file, Some(&i.ty), cfg_test, out),
            Item::Mod(m) => collect_items(&m.items, file, qual, cfg_test || m.cfg_test, out),
            Item::Trait(t) => collect_items(&t.items, file, Some(&t.name), cfg_test, out),
        }
    }
}

fn collect_fn(f: &FnItem, file: &str, qual: Option<&str>, cfg_test: bool, out: &mut Vec<FnModel>) {
    let mut events = Vec::new();
    if let Some(body) = &f.body {
        walk_block(body, &mut events, out, file, cfg_test || f.is_test);
    }
    out.push(FnModel {
        file: file.to_string(),
        name: f.name.clone(),
        qual: qual.map(str::to_string),
        line: f.line,
        is_test: cfg_test || f.is_test,
        returns_guard: f
            .sig_idents
            .iter()
            .any(|w| GUARD_TYPES.contains(&w.as_str())),
        has_lock_param: f
            .sig_idents
            .iter()
            .any(|w| LOCK_TYPES.contains(&w.as_str())),
        params: f.params,
        // `MutexGuard<'_, ServeCore>` — the ident following the guard
        // type is the payload.
        guard_payload: f
            .sig_idents
            .iter()
            .position(|w| GUARD_TYPES.contains(&w.as_str()))
            .and_then(|i| f.sig_idents.get(i + 1))
            .cloned(),
        events,
    });
}

fn walk_block(b: &Block, ev: &mut Vec<Event>, out: &mut Vec<FnModel>, file: &str, in_test: bool) {
    ev.push(Event::ScopeOpen);
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    walk_expr(init, ev, out, file, in_test, l.name.as_deref());
                }
                if let Some(els) = &l.else_block {
                    walk_block(els, ev, out, file, in_test);
                }
                ev.push(Event::StmtEnd);
            }
            Stmt::Expr { expr, .. } => {
                walk_expr(expr, ev, out, file, in_test, None);
                ev.push(Event::StmtEnd);
            }
            Stmt::Item(item) => {
                collect_items(std::slice::from_ref(item), file, None, in_test, out);
            }
        }
    }
    ev.push(Event::ScopeClose);
}

fn walk_expr(
    e: &Expr,
    ev: &mut Vec<Event>,
    out: &mut Vec<FnModel>,
    file: &str,
    in_test: bool,
    bind: Option<&str>,
) {
    match e {
        Expr::Lit => {}
        Expr::Block(b) => walk_block(b, ev, out, file, in_test),
        Expr::Seq(parts) => {
            for p in parts {
                walk_expr(p, ev, out, file, in_test, None);
            }
        }
        Expr::Match(m) => {
            walk_expr(&m.scrutinee, ev, out, file, in_test, None);
            for arm in &m.arms {
                // Each arm is its own scope so its temporaries cannot
                // outlive the arm, while scrutinee temporaries stay
                // live across the whole match (as in Rust).
                ev.push(Event::ScopeOpen);
                if let Some(g) = &arm.guard {
                    walk_expr(g, ev, out, file, in_test, None);
                }
                walk_expr(&arm.body, ev, out, file, in_test, None);
                ev.push(Event::ScopeClose);
            }
        }
        Expr::Chain(c) => {
            walk_chain(c, ev, out, file, in_test, bind);
        }
    }
}

/// Last meaningful field segment of a receiver path (skipping `self`).
fn last_field(segs: &[String]) -> Option<String> {
    segs.iter().rev().find(|s| *s != "self").cloned()
}

/// The receiver-place field of an expression, for passthrough-helper
/// arguments: `&s.durable` → `durable`.
fn place_field(e: &Expr) -> Option<String> {
    let Expr::Chain(c) = e else { return None };
    let mut segs: Vec<String> = match &c.base {
        Base::Path { segs } => segs.clone(),
        _ => return None,
    };
    for p in &c.post {
        match p {
            Post::Field { name } => segs.push(name.clone()),
            _ => break,
        }
    }
    last_field(&segs)
}

fn walk_chain(
    c: &Chain,
    ev: &mut Vec<Event>,
    out: &mut Vec<FnModel>,
    file: &str,
    in_test: bool,
    bind: Option<&str>,
) {
    // Index (into `ev`) of the event producing the chain's value, so a
    // `let` binding can be attached to it afterwards.
    let mut result_ev: Option<usize> = None;

    // Receiver shape for the next method call in the chain; killed by
    // field projections, indexing and `?`, which lose the type.
    let mut recv: Option<Recv> = None;

    // Base.
    let mut fields: Vec<String> = Vec::new();
    match &c.base {
        Base::Path { segs } => {
            fields = segs.clone();
            recv = match segs.as_slice() {
                [s] if s == "self" => Some(Recv::SelfDot),
                [x] => Some(Recv::Binding(x.clone())),
                _ => None,
            };
        }
        Base::Call { segs, args } => {
            // `drop(g)` ends a named guard.
            if segs.last().is_some_and(|s| s == "drop") && args.len() == 1 {
                if let Some(name) = simple_path_name(&args[0]) {
                    ev.push(Event::Drop { name });
                    return;
                }
            }
            for a in args {
                walk_expr(a, ev, out, file, in_test, None);
            }
            if let Some(name) = segs.last() {
                ev.push(Event::Call {
                    name: name.clone(),
                    first_arg_field: args.first().and_then(place_field),
                    argc: args.len(),
                    recv: None,
                    line: c.line,
                    bind: None,
                });
                result_ev = Some(ev.len() - 1);
                recv = Some(Recv::FromCall(name.clone()));
            }
        }
        Base::StructLit { fields: fs, .. } | Base::Group(fs) | Base::Macro { args: fs, .. } => {
            for f in fs {
                walk_expr(f, ev, out, file, in_test, None);
            }
        }
        Base::Closure(body) => walk_expr(body, ev, out, file, in_test, None),
        Base::Lit => {}
    }

    // Postfix.
    for p in &c.post {
        match p {
            Post::Field { name } => {
                fields.push(name.clone());
                recv = Some(Recv::Place(name.clone()));
            }
            Post::Try => recv = None,
            Post::Index(idx) => {
                walk_expr(idx, ev, out, file, in_test, None);
                recv = None;
            }
            Post::Method { name, args, line } => {
                let is_acquire =
                    name == "lock" || ((name == "read" || name == "write") && args.is_empty());
                if is_acquire {
                    let lock = last_field(&fields).unwrap_or_else(|| "lock".into());
                    ev.push(Event::Acquire {
                        lock,
                        line: *line,
                        bind: None,
                    });
                    result_ev = Some(ev.len() - 1);
                    recv = None; // guard of a direct lock: payload unknown
                } else if !name.is_empty() {
                    for a in args {
                        walk_expr(a, ev, out, file, in_test, None);
                    }
                    ev.push(Event::Call {
                        name: name.clone(),
                        first_arg_field: args.first().and_then(place_field),
                        argc: args.len(),
                        recv: recv.take(),
                        line: *line,
                        bind: None,
                    });
                    if !GUARD_TRANSPARENT.contains(&name.as_str()) {
                        result_ev = Some(ev.len() - 1);
                    }
                    recv = Some(Recv::FromCall(name.clone()));
                } else {
                    for a in args {
                        walk_expr(a, ev, out, file, in_test, None);
                    }
                    recv = None;
                }
                fields.clear();
            }
        }
    }

    // Attach the binding to the value-producing event.
    if let (Some(bound), Some(idx)) = (bind, result_ev) {
        match &mut ev[idx] {
            Event::Acquire { bind, .. } | Event::Call { bind, .. } => {
                *bind = Some(bound.to_string());
            }
            _ => {}
        }
    }
}

/// `x` or `self.x` → its bare name (for `drop(x)`).
fn simple_path_name(e: &Expr) -> Option<String> {
    let Expr::Chain(c) = e else { return None };
    if !c.post.is_empty() {
        return None;
    }
    match &c.base {
        Base::Path { segs } if segs.len() == 1 => segs.first().cloned(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn model(srcs: &[(&str, &str)]) -> Model {
        let asts: Vec<(String, Ast)> = srcs
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse_source(src).0))
            .collect();
        let refs: Vec<(&str, &Ast)> = asts.iter().map(|(r, a)| (r.as_str(), a)).collect();
        Model::build(&refs)
    }

    fn fn_named<'m>(m: &'m Model, name: &str) -> &'m FnModel {
        m.fns.iter().find(|f| f.name == name).unwrap()
    }

    fn fn_idx(m: &Model, name: &str) -> usize {
        m.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn direct_acquire_and_binding() {
        let m = model(&[(
            "crates/serve/src/x.rs",
            "impl S { fn f(&self) { let g = self.core.lock().unwrap(); g.tick(); } }",
        )]);
        let f = fn_named(&m, "f");
        let acq: Vec<(&str, Option<&str>)> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { lock, bind, .. } => Some((lock.as_str(), bind.as_deref())),
                _ => None,
            })
            .collect();
        assert_eq!(acq, vec![("core", Some("g"))]);
    }

    #[test]
    fn helper_detection_fixed_and_passthrough() {
        let m = model(&[(
            "crates/serve/src/x.rs",
            "impl Shared { fn core(&self) -> MutexGuard<'_, Core> { self.core.lock().unwrap() } }\n\
             fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }",
        )]);
        let core = m.helpers.get("core").unwrap();
        assert!(!core.passthrough);
        assert!(core.locks.contains("core"));
        let relock = m.helpers.get("relock").unwrap();
        assert!(relock.passthrough);
    }

    #[test]
    fn simulate_sees_guard_across_statements_and_drop() {
        let m = model(&[(
            "crates/serve/src/x.rs",
            "impl S {\n\
             fn f(&self) { let g = self.a.lock(); self.save(); drop(g); self.save(); }\n\
             fn temp(&self) { self.a.lock(); self.save(); }\n\
             }",
        )]);
        // Under `f`, the first save() runs with `a` held, the second
        // (after drop) does not.
        let mut held_at_save = Vec::new();
        simulate(&m, fn_idx(&m, "f"), |held, sim| {
            if let Sim::Call { name: "save", .. } = sim {
                held_at_save.push(held.iter().map(|g| g.lock.clone()).collect::<Vec<_>>());
            }
        });
        assert_eq!(held_at_save, vec![vec!["a".to_string()], vec![]]);
        // In `temp`, the unbound guard dies at the end of its statement.
        let mut held_at_save = Vec::new();
        simulate(&m, fn_idx(&m, "temp"), |held, sim| {
            if let Sim::Call { name: "save", .. } = sim {
                held_at_save.push(held.len());
            }
        });
        assert_eq!(held_at_save, vec![0]);
    }

    #[test]
    fn helper_call_counts_as_acquisition_at_call_site() {
        let m = model(&[(
            "crates/serve/src/x.rs",
            "impl Shared { fn core(&self) -> MutexGuard<'_, C> { self.core.lock() } }\n\
             impl S { fn f(&self, sh: &Shared) { sh.core().ingest(); } }\n\
             fn g(s: &S) { let d = relock(&s.durable); d.push(1); }\n\
             fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock() }",
        )]);
        let mut calls_under = Vec::new();
        simulate(&m, fn_idx(&m, "f"), |held, sim| {
            if let Sim::Call { name, .. } = sim {
                calls_under.push((
                    name.to_string(),
                    held.iter().map(|g| g.lock.clone()).collect::<Vec<_>>(),
                ));
            }
        });
        assert_eq!(
            calls_under,
            vec![("ingest".into(), vec!["core".to_string()])]
        );
        // passthrough helper takes its lock name from the argument
        let mut acquired = Vec::new();
        simulate(&m, fn_idx(&m, "g"), |_, sim| {
            if let Sim::Acquire { lock, .. } = sim {
                acquired.push(lock.to_string());
            }
        });
        assert_eq!(acquired, vec!["durable"]);
    }

    #[test]
    fn helper_with_mismatched_arity_is_a_plain_call() {
        // `SimCluster::node(i)` shares a name with the guard getter
        // `HaShared::node()`; the indexed call must not count as an
        // acquisition of the `node` lock.
        let m = model(&[(
            "crates/serve/src/x.rs",
            "impl HaShared { fn node(&self) -> MutexGuard<'_, N> { self.node.lock() } }\n\
             impl SimCluster { fn f(&self, i: usize) { self.node(i).tick(); } }",
        )]);
        let mut events = Vec::new();
        simulate(&m, fn_idx(&m, "f"), |held, sim| {
            events.push(match sim {
                Sim::Acquire { lock, .. } => format!("acq:{lock}"),
                Sim::Call { name, .. } => format!("call:{name}:{}", held.len()),
            });
        });
        assert_eq!(events, vec!["call:node:0", "call:tick:0"]);
    }

    #[test]
    fn field_place_receiver_borrows_helper_payload_type() {
        // `ReplicaNode::snapshot_now` calls `self.core.snapshot_now()`.
        // The field receiver has no local type evidence and the name
        // exists on two impls, but the guard helper `core()` guards the
        // `core` lock with payload `ServeCore` — so the field place
        // `core` resolves to `ServeCore::snapshot_now`, not both.
        let m = model(&[(
            "crates/serve/src/x.rs",
            "impl Shared { fn core(&self) -> MutexGuard<'_, ServeCore> { self.core.lock() } }\n\
             impl ServeCore { fn snapshot_now(&self) { self.file.sync_all(); } }\n\
             impl ReplicaNode { fn snapshot_now(&self) { self.core.snapshot_now(); } }",
        )]);
        let replica = m
            .fns
            .iter()
            .position(|f| f.qual.as_deref() == Some("ReplicaNode"))
            .unwrap();
        let serve = m
            .fns
            .iter()
            .position(|f| f.qual.as_deref() == Some("ServeCore"))
            .unwrap();
        let resolved: Vec<usize> = m.calls[replica].iter().flatten().copied().collect();
        assert_eq!(resolved, vec![serve], "{:?}", m.calls);
    }

    #[test]
    fn fixpoint_propagates_through_calls() {
        let m = model(&[(
            "crates/serve/src/x.rs",
            "impl W { fn append(&self) { self.file.sync_data(); } }\n\
             impl C { fn ingest(&self, w: &W) { w.append(); } }\n\
             fn outer(c: &C, w: &W) { c.ingest(w); }",
        )]);
        let blocks = m.fixpoint(|i| {
            let mut s = BTreeSet::new();
            for ev in &m.fns[i].events {
                if let Event::Call { name, .. } = ev {
                    if name == "sync_data" {
                        s.insert("sync_data".to_string());
                    }
                }
            }
            s
        });
        let outer = m.fns.iter().position(|f| f.name == "outer").unwrap();
        assert!(blocks[outer].contains("sync_data"));
    }

    #[test]
    fn match_scrutinee_guard_lives_across_arms() {
        let m = model(&[(
            "crates/serve/src/x.rs",
            "impl S { fn f(&self) { match self.a.lock().len() { 0 => self.save(), _ => {} } } }",
        )]);
        let mut held = Vec::new();
        simulate(&m, fn_idx(&m, "f"), |h, sim| {
            if let Sim::Call { name: "save", .. } = sim {
                held.push(h.len());
            }
        });
        assert_eq!(held, vec![1]);
    }
}
