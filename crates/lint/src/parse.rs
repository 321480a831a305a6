//! A tolerant recursive-descent parser over the [`crate::lexer`] token
//! stream.
//!
//! This is not a Rust front end. It recovers just enough structure for
//! the syntax-aware analyses: the item tree (fns, impls, mods, traits;
//! structs, enums, consts and statics are skipped), statement lists
//! with `let` bindings, postfix call chains
//! (`self.core.lock().unwrap()`), `match` arms with their guards and
//! bodies, and closures/macros with their argument expressions scanned
//! for nested calls. Everything it cannot understand degrades
//! to an opaque literal instead of failing: the parser is **total** —
//! it never panics, always terminates (every loop is forced to make
//! progress), and bounds its recursion depth.
//!
//! Known approximations, by design:
//! - control flow (`if`/`else`, `loop`, `match`) is flattened into
//!   sequential sub-expressions; the analyses are branch-insensitive,
//! - types are skipped except for the identifier words in a `fn`
//!   signature (used to spot guard-returning helpers),
//! - struct-literal vs. block ambiguity is resolved with the same
//!   `no_struct` rule rustc uses in `if`/`while`/`match` heads, plus a
//!   leading-uppercase heuristic on the path.

use crate::lexer::{self, Pragmas, Tok, Token};

/// A parsed file: its top-level items.
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A function or method.
    Fn(FnItem),
    /// An `impl` block (trait impls keep the *type* name).
    Impl(ImplItem),
    /// An inline module.
    Mod(ModItem),
    /// A trait definition (default method bodies are parsed).
    Trait(TraitItem),
}

/// A function or method definition.
#[derive(Debug)]
pub struct FnItem {
    /// The function's bare name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn is test-only (`#[test]` / `#[cfg(test)]`).
    pub is_test: bool,
    /// Identifier words appearing in the signature (params + return
    /// type), e.g. `MutexGuard` — used to spot lock helpers.
    pub sig_idents: Vec<String>,
    /// Number of parameters excluding any leading `self` receiver.
    /// Rust has no overloading, so call-site arity is a cheap,
    /// type-free resolution filter: `.load(Ordering::Acquire)` cannot
    /// target a 0-parameter `fn load(&self)`.
    pub params: usize,
    /// The body, if the fn has one (trait method decls do not).
    pub body: Option<Block>,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplItem {
    /// The implemented *type*'s last path segment (`Request`,
    /// `Shared`); for `impl Trait for Type` this is `Type`.
    pub ty: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Items inside the impl (fns).
    pub items: Vec<Item>,
}

/// An inline `mod name { … }`.
#[derive(Debug)]
pub struct ModItem {
    /// Module name.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Whether the module is `#[cfg(test)]`-gated.
    pub cfg_test: bool,
    /// Items inside the module.
    pub items: Vec<Item>,
}

/// A trait definition.
#[derive(Debug)]
pub struct TraitItem {
    /// Trait name.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// Items inside the trait (method decls and defaults).
    pub items: Vec<Item>,
}

/// A `{ … }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// 1-based line of the opening brace.
    pub line: u32,
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let` binding.
    Let(LetStmt),
    /// Expression statement; `semi` records whether a `;` terminated it
    /// (temporary guards die at the semicolon).
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a trailing `;` was present.
        semi: bool,
    },
    /// A nested item (fn, const, use, …) in statement position.
    Item(Item),
}

/// A `let` statement.
#[derive(Debug)]
pub struct LetStmt {
    /// The bound name for simple patterns (`let g = …`, `let mut g: T
    /// = …`); `None` for destructuring patterns and `_`.
    pub name: Option<String>,
    /// The initializer.
    pub init: Option<Expr>,
    /// The `else { … }` diverging block of a `let … else`.
    pub else_block: Option<Block>,
    /// 1-based line of the `let`.
    pub line: u32,
}

/// An expression, flattened to what the analyses need.
#[derive(Debug)]
pub enum Expr {
    /// A postfix chain: base plus `.method()`, `.field`, `?`, `[…]`.
    Chain(Chain),
    /// A block expression.
    Block(Block),
    /// A `match`.
    Match(MatchExpr),
    /// An operator/flow sequence: operands of binary chains, the parts
    /// of `if`/`while`/`for` (condition then blocks), tuples, arrays.
    Seq(Vec<Expr>),
    /// A literal or anything the parser degraded.
    Lit,
}

/// A postfix chain.
#[derive(Debug)]
pub struct Chain {
    /// What the chain starts from.
    pub base: Base,
    /// Postfix operations in order.
    pub post: Vec<Post>,
    /// 1-based line of the base.
    pub line: u32,
}

/// The base of a postfix chain.
#[derive(Debug)]
pub enum Base {
    /// A plain path (`self`, `st`, `REQ_INGEST`, `Self::Ingest`).
    Path {
        /// Path segments.
        segs: Vec<String>,
    },
    /// A free or associated call `path(args)`.
    Call {
        /// Path segments of the callee.
        segs: Vec<String>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// A struct literal `Path { fields }`.
    StructLit {
        /// Path segments.
        segs: Vec<String>,
        /// Field initializer expressions.
        fields: Vec<Expr>,
    },
    /// A macro invocation `path!(args)`.
    Macro {
        /// Path segments (without the `!`).
        segs: Vec<String>,
        /// Best-effort parsed argument expressions.
        args: Vec<Expr>,
    },
    /// A parenthesized group, tuple, or array literal.
    Group(Vec<Expr>),
    /// A closure; the body is inlined (treated as executing at the
    /// definition site — an over-approximation the docs call out).
    Closure(Box<Expr>),
    /// A literal or degraded base.
    Lit,
}

/// One postfix operation.
#[derive(Debug)]
pub enum Post {
    /// `.name` (also `.await` and tuple indices like `.0`).
    Field {
        /// Field name.
        name: String,
    },
    /// `.name(args)` — `line` anchors findings at the call.
    Method {
        /// Method name (empty for expression calls `(f)(x)`).
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// 1-based line of the call.
        line: u32,
    },
    /// `[index]`.
    Index(Box<Expr>),
    /// `?`.
    Try,
}

/// A `match` expression.
#[derive(Debug)]
pub struct MatchExpr {
    /// The scrutinee.
    pub scrutinee: Box<Expr>,
    /// The arms.
    pub arms: Vec<Arm>,
    /// 1-based line of the `match` keyword.
    pub line: u32,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// The `if` guard, when present.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Expr,
    /// 1-based line of the pattern.
    pub line: u32,
}

/// Parse a source string: lex, then build the item tree.
pub fn parse_source(src: &str) -> (Ast, Pragmas) {
    let (toks, pragmas) = lexer::lex(src);
    (parse_tokens(&toks), pragmas)
}

/// Parse a pre-lexed token stream.
pub fn parse_tokens(toks: &[Token]) -> Ast {
    let mut p = Parser {
        t: toks,
        i: 0,
        depth: 0,
    };
    Ast {
        items: p.items(true),
    }
}

/// Item-start keywords recognized in statement position.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "impl",
    "trait",
    "mod",
    "use",
    "type",
    "static",
    "macro_rules",
];

const MAX_DEPTH: u32 = 128;

/// Attribute words gathered ahead of an item.
#[derive(Default)]
struct Attrs {
    words: Vec<String>,
}

impl Attrs {
    /// `#[test]` / `#[cfg(test)]` — but not `#[cfg(not(test))]`.
    fn is_test(&self) -> bool {
        self.words.iter().any(|w| w == "test") && !self.words.iter().any(|w| w == "not")
    }
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    depth: u32,
}

impl Parser<'_> {
    fn kind(&self) -> Option<&Tok> {
        self.t.get(self.i).map(|t| &t.kind)
    }

    fn kind_at(&self, off: usize) -> Option<&Tok> {
        self.t.get(self.i + off).map(|t| &t.kind)
    }

    fn line(&self) -> u32 {
        self.t
            .get(self.i)
            .or_else(|| self.t.last())
            .map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn ident(&self) -> Option<&str> {
        match self.kind() {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn ident_at(&self, off: usize) -> Option<&str> {
        match self.kind_at(off) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, c: char) -> bool {
        self.punct_at(0, c)
    }

    fn punct_at(&self, off: usize, c: char) -> bool {
        matches!(self.kind_at(off), Some(Tok::Punct(p)) if *p == c)
    }

    /// `::` at the current position.
    fn path_sep(&self) -> bool {
        self.punct(':') && self.punct_at(1, ':')
    }

    /// `=>` at the current position.
    fn fat_arrow(&self) -> bool {
        self.punct('=') && self.punct_at(1, '>')
    }

    fn eof(&self) -> bool {
        self.i >= self.t.len()
    }

    /// Take an identifier, if present.
    fn take_ident(&mut self) -> Option<String> {
        if let Some(Tok::Ident(s)) = self.kind() {
            let s = s.clone();
            self.bump();
            Some(s)
        } else {
            None
        }
    }

    /// Skip one `#[…]` / `#![…]` attribute, collecting its words.
    fn attr(&mut self, into: &mut Attrs) {
        self.bump(); // `#`
        if self.punct('!') {
            self.bump();
        }
        if !self.punct('[') {
            return;
        }
        self.bump();
        let mut depth = 1usize;
        while !self.eof() && depth > 0 {
            match self.kind() {
                Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct(']')) => depth -= 1,
                Some(Tok::Ident(w)) => into.words.push(w.clone()),
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip a balanced `<…>` generics group starting at `<`. Bails out
    /// (resetting to just past the `<`) if no close is found nearby, so
    /// a stray comparison can never swallow the file.
    fn skip_angles(&mut self) {
        let start = self.i;
        self.bump(); // `<`
        let mut depth = 1i32;
        let mut scanned = 0usize;
        while !self.eof() && depth > 0 && scanned < 512 {
            match self.kind() {
                Some(Tok::Punct('<')) => depth += 1,
                Some(Tok::Punct('>')) => depth -= 1,
                Some(Tok::Punct('-')) if self.punct_at(1, '>') => self.bump(),
                Some(Tok::Punct(';' | '{')) => break,
                _ => {}
            }
            self.bump();
            scanned += 1;
        }
        if depth > 0 {
            self.i = start + 1;
        }
    }

    /// Skip tokens until `;` at depth 0 (balancing `()[]{}`), consuming
    /// the `;`.
    fn skip_to_semi(&mut self) {
        let mut depth = 0i32;
        while !self.eof() {
            match self.kind() {
                Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                Some(Tok::Punct(')' | ']' | '}')) => {
                    if depth == 0 {
                        return; // unbalanced close belongs to our caller
                    }
                    depth -= 1;
                }
                Some(Tok::Punct(';')) if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip a balanced delimiter group starting at `(`, `[`, or `{`.
    fn skip_group(&mut self) {
        let open = match self.kind() {
            Some(Tok::Punct(c @ ('(' | '[' | '{'))) => *c,
            _ => return,
        };
        let close = match open {
            '(' => ')',
            '[' => ']',
            _ => '}',
        };
        self.bump();
        let mut depth = 1usize;
        while !self.eof() && depth > 0 {
            match self.kind() {
                Some(Tok::Punct(c)) if *c == open => depth += 1,
                Some(Tok::Punct(c)) if *c == close => depth -= 1,
                _ => {}
            }
            self.bump();
        }
    }

    // ---- items ----

    /// Parse items until `}` (or EOF when `top`).
    fn items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        let mut attrs = Attrs::default();
        while !self.eof() {
            let start = self.i;
            if self.punct('}') {
                if !top {
                    break;
                }
                self.bump();
                continue;
            }
            if self.punct('#') {
                self.attr(&mut attrs);
            } else if let Some(item) = self.item(&mut attrs) {
                items.push(item);
            }
            if self.i == start {
                self.bump(); // forced progress
            }
        }
        items
    }

    /// Parse one item (or skip one uninteresting construct). `attrs`
    /// is consumed when an item is produced; modifiers leave it alone.
    fn item(&mut self, attrs: &mut Attrs) -> Option<Item> {
        match self.ident() {
            Some("pub") => {
                self.bump();
                if self.punct('(') {
                    self.skip_group(); // pub(crate)
                }
                None
            }
            Some("unsafe" | "async" | "default") => {
                self.bump();
                None
            }
            Some("extern") => {
                self.bump();
                if matches!(self.kind(), Some(Tok::Str)) {
                    self.bump();
                }
                if self.ident() == Some("crate") {
                    self.skip_to_semi();
                }
                None
            }
            Some("const") if self.ident_at(1) == Some("fn") => {
                self.bump(); // `const fn` — modifier
                None
            }
            Some("fn") => {
                let is_test = std::mem::take(attrs).is_test();
                Some(Item::Fn(self.fn_item(is_test)))
            }
            Some("impl") => {
                std::mem::take(attrs);
                Some(self.impl_item())
            }
            Some("mod") => {
                let cfg_test = std::mem::take(attrs).is_test();
                self.mod_item(cfg_test)
            }
            Some("trait") => {
                std::mem::take(attrs);
                Some(self.trait_item())
            }
            Some("struct" | "union" | "enum") => {
                std::mem::take(attrs);
                self.bump();
                // name, generics and where-clause up to the body
                while !self.eof() && !self.punct('(') && !self.punct('{') && !self.punct(';') {
                    if self.punct('<') {
                        self.skip_angles();
                    } else {
                        self.bump();
                    }
                }
                // tuple struct `(…);`, unit `;`, or braced body
                if self.punct('(') {
                    self.skip_group();
                }
                if self.punct('{') {
                    self.skip_group();
                } else {
                    self.skip_to_semi();
                }
                None
            }
            Some("use" | "type" | "const" | "static") => {
                std::mem::take(attrs);
                self.bump();
                self.skip_to_semi();
                None
            }
            Some("macro_rules") => {
                std::mem::take(attrs);
                self.bump();
                if self.punct('!') {
                    self.bump();
                }
                self.take_ident();
                self.skip_group();
                None
            }
            _ => {
                self.bump();
                None
            }
        }
    }

    fn fn_item(&mut self, is_test: bool) -> FnItem {
        let line = self.line();
        self.bump(); // `fn`
        let name = self.take_ident().unwrap_or_default();
        if self.punct('<') {
            self.skip_angles();
        }
        // Signature: collect identifier words until the body `{` or a
        // bodiless `;`, balancing parens/brackets. While inside the
        // first paren group (the parameter list), count top-level
        // comma-separated slots — commas nested in parens/brackets or
        // generics (`Vec<Map<K, V>>`) don't separate parameters — and
        // note a leading `self` receiver, to derive `params`.
        let mut sig_idents = Vec::new();
        let mut depth = 0i32;
        let mut body = None;
        let mut in_params = false;
        let mut params_done = false;
        let mut angle = 0i32;
        let mut slot_has_tokens = false;
        let mut slots = 0usize;
        let mut has_self = false;
        while !self.eof() {
            match self.kind() {
                Some(Tok::Punct('(')) => {
                    if depth == 0 && !params_done {
                        in_params = true;
                    }
                    depth += 1;
                }
                Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct(')')) => {
                    depth -= 1;
                    if depth == 0 && in_params {
                        if slot_has_tokens {
                            slots += 1;
                        }
                        in_params = false;
                        params_done = true;
                    }
                }
                Some(Tok::Punct(']')) => depth -= 1,
                Some(Tok::Punct('{')) if depth <= 0 => {
                    body = Some(self.block());
                    break;
                }
                Some(Tok::Punct(';')) if depth <= 0 => {
                    self.bump();
                    break;
                }
                Some(Tok::Punct('}')) if depth <= 0 => break, // malformed; recover
                Some(Tok::Punct('<')) if in_params && depth == 1 => angle += 1,
                Some(Tok::Punct('>')) if in_params && depth == 1 => {
                    angle = (angle - 1).max(0); // `->` in fn-pointer types
                }
                Some(Tok::Punct(',')) if in_params && depth == 1 && angle == 0 => {
                    if slot_has_tokens {
                        slots += 1;
                    }
                    slot_has_tokens = false;
                }
                Some(Tok::Ident(w)) => {
                    if in_params && depth == 1 {
                        if w == "self" && slots == 0 && angle == 0 {
                            has_self = true;
                        }
                        slot_has_tokens = true;
                    }
                    sig_idents.push(w.clone());
                }
                _ => {
                    if in_params && depth >= 1 {
                        slot_has_tokens = true;
                    }
                }
            }
            if body.is_none() {
                self.bump();
            }
        }
        FnItem {
            name,
            line,
            is_test,
            sig_idents,
            params: slots.saturating_sub(has_self as usize),
            body,
        }
    }

    fn impl_item(&mut self) -> Item {
        let line = self.line();
        self.bump(); // `impl`
        if self.punct('<') {
            self.skip_angles();
        }
        // Collect the path up to `{`; `for` resets it so `impl Trait
        // for Type` keeps the type.
        let mut ty = String::new();
        while !self.eof() {
            match self.kind() {
                Some(Tok::Punct('{')) => break,
                Some(Tok::Punct(';')) => {
                    self.bump();
                    return Item::Impl(ImplItem {
                        ty,
                        line,
                        items: Vec::new(),
                    });
                }
                Some(Tok::Punct('<')) => {
                    self.skip_angles();
                    continue;
                }
                Some(Tok::Ident(w)) if w == "for" => ty.clear(),
                Some(Tok::Ident(w)) if w == "where" => {}
                Some(Tok::Ident(w)) => ty = w.clone(),
                _ => {}
            }
            self.bump();
        }
        self.bump(); // `{`
        let items = self.items(false);
        if self.punct('}') {
            self.bump();
        }
        Item::Impl(ImplItem { ty, line, items })
    }

    fn mod_item(&mut self, cfg_test: bool) -> Option<Item> {
        let line = self.line();
        self.bump(); // `mod`
        let name = self.take_ident().unwrap_or_default();
        if self.punct(';') {
            self.bump();
            return None; // out-of-line module
        }
        if !self.punct('{') {
            return None;
        }
        self.bump();
        let items = self.items(false);
        if self.punct('}') {
            self.bump();
        }
        Some(Item::Mod(ModItem {
            name,
            line,
            cfg_test,
            items,
        }))
    }

    fn trait_item(&mut self) -> Item {
        let line = self.line();
        self.bump(); // `trait`
        let name = self.take_ident().unwrap_or_default();
        while !self.eof() && !self.punct('{') && !self.punct(';') {
            if self.punct('<') {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        let mut items = Vec::new();
        if self.punct('{') {
            self.bump();
            items = self.items(false);
            if self.punct('}') {
                self.bump();
            }
        } else if self.punct(';') {
            self.bump();
        }
        Item::Trait(TraitItem { name, line, items })
    }

    // ---- statements ----

    fn block(&mut self) -> Block {
        let line = self.line();
        let mut stmts = Vec::new();
        if !self.punct('{') {
            return Block { line, stmts };
        }
        self.bump();
        let mut attrs = Attrs::default();
        while !self.eof() && !self.punct('}') {
            let start = self.i;
            if self.punct('#') {
                self.attr(&mut attrs);
            } else if self.punct(';') {
                self.bump();
            } else if self.ident() == Some("let") {
                stmts.push(Stmt::Let(self.let_stmt()));
                attrs = Attrs::default();
            } else if self.stmt_is_item() {
                let is_test = std::mem::take(&mut attrs).is_test();
                let mut a = Attrs {
                    words: if is_test {
                        vec!["test".into()]
                    } else {
                        Vec::new()
                    },
                };
                if let Some(item) = self.item(&mut a) {
                    stmts.push(Stmt::Item(item));
                }
            } else {
                let expr = self.expr(true);
                let semi = self.punct(';');
                if semi {
                    self.bump();
                }
                stmts.push(Stmt::Expr { expr, semi });
                attrs = Attrs::default();
            }
            if self.i == start {
                self.bump();
            }
        }
        if self.punct('}') {
            self.bump();
        }
        Block { line, stmts }
    }

    /// Whether the current token begins a nested item rather than an
    /// expression. `unsafe {` and `const` expressions stay expressions.
    fn stmt_is_item(&self) -> bool {
        match self.ident() {
            Some("unsafe") => self.ident_at(1) == Some("fn"),
            Some("const") => self.ident_at(1) != Some("fn") && self.ident_at(1).is_some(),
            Some(w) => ITEM_KEYWORDS.contains(&w) || w == "pub",
            None => false,
        }
    }

    fn let_stmt(&mut self) -> LetStmt {
        let line = self.line();
        self.bump(); // `let`
        if self.ident() == Some("mut") {
            self.bump();
        }
        // Simple binding (`x =`, `x :`, `x;`) keeps the name; anything
        // else is a destructuring pattern we skip.
        let mut name = None;
        if let Some(id) = self.ident() {
            let simple = self.punct_at(1, '=') && !self.punct_at(2, '=')
                || self.punct_at(1, ':') && !self.punct_at(2, ':')
                || self.punct_at(1, ';');
            if simple && id != "_" {
                name = Some(id.to_string());
            }
            if simple {
                self.bump();
            }
        }
        if name.is_none() && !self.punct('=') && !self.punct(':') && !self.punct(';') {
            // skip the pattern to `=` / `;` at depth 0
            let mut depth = 0i32;
            while !self.eof() {
                match self.kind() {
                    Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                    Some(Tok::Punct(')' | ']' | '}')) => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Some(Tok::Punct('=' | ';')) if depth == 0 => break,
                    Some(Tok::Punct('<')) if depth == 0 => {
                        self.skip_angles();
                        continue;
                    }
                    _ => {}
                }
                self.bump();
            }
        }
        if self.punct(':') {
            // type ascription: skip to `=` / `;` at depth 0
            self.bump();
            let mut depth = 0i32;
            while !self.eof() {
                match self.kind() {
                    Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                    Some(Tok::Punct(')' | ']' | '}')) => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Some(Tok::Punct('=' | ';')) if depth == 0 => break,
                    Some(Tok::Punct('<')) if depth == 0 => {
                        self.skip_angles();
                        continue;
                    }
                    Some(Tok::Punct('-')) if self.punct_at(1, '>') => {
                        self.bump();
                    }
                    _ => {}
                }
                self.bump();
            }
        }
        let mut init = None;
        if self.punct('=') {
            self.bump();
            init = Some(self.expr(true));
        }
        let mut else_block = None;
        if self.ident() == Some("else") {
            self.bump();
            else_block = Some(self.block());
        }
        if self.punct(';') {
            self.bump();
        }
        LetStmt {
            name,
            init,
            else_block,
            line,
        }
    }

    // ---- expressions ----

    /// Binary-operator chars that continue an expression.
    fn binop_here(&self) -> bool {
        match self.kind() {
            Some(Tok::Punct('=')) => !self.punct_at(1, '>'), // not `=>`
            Some(Tok::Punct('+' | '-' | '*' | '/' | '%' | '^' | '&' | '|' | '<' | '>' | '!')) => {
                true
            }
            _ => false,
        }
    }

    fn expr(&mut self, allow_struct: bool) -> Expr {
        let mut parts = vec![self.operand(allow_struct)];
        loop {
            let start = self.i;
            if self.punct('.') && self.punct_at(1, '.') {
                // range operator
                self.bump();
                self.bump();
                if self.punct('=') {
                    self.bump();
                }
                if self.operand_starts() {
                    parts.push(self.operand(allow_struct));
                }
            } else if self.binop_here() {
                // consume the operator run, then the next operand
                while self.binop_here() || self.punct('=') {
                    self.bump();
                }
                parts.push(self.operand(allow_struct));
            } else if self.ident() == Some("as") {
                self.bump();
                // skip the cast type: idents, `::`, angle groups
                loop {
                    match self.kind() {
                        Some(Tok::Ident(_)) => self.bump(),
                        Some(Tok::Punct(':')) if self.punct_at(1, ':') => {
                            self.bump();
                            self.bump();
                        }
                        Some(Tok::Punct('<')) => self.skip_angles(),
                        Some(Tok::Punct('&' | '*')) => self.bump(),
                        _ => break,
                    }
                }
            } else {
                break;
            }
            if self.i == start {
                break;
            }
        }
        if parts.len() == 1 {
            parts.pop().unwrap_or(Expr::Lit)
        } else {
            Expr::Seq(parts)
        }
    }

    /// Whether the current token could begin an operand.
    fn operand_starts(&self) -> bool {
        match self.kind() {
            Some(Tok::Ident(w)) => w != "else",
            Some(Tok::Str | Tok::Char | Tok::Num(_) | Tok::Lifetime) => true,
            Some(Tok::Punct('(' | '[' | '{' | '&' | '*' | '!' | '-' | '|')) => true,
            _ => false,
        }
    }

    fn operand(&mut self, allow_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            self.bump();
            return Expr::Lit;
        }
        self.depth += 1;
        let e = self.operand_inner(allow_struct);
        self.depth -= 1;
        e
    }

    fn operand_inner(&mut self, allow_struct: bool) -> Expr {
        match self.kind() {
            None => Expr::Lit,
            Some(Tok::Punct('&' | '*' | '!' | '-')) => {
                self.bump();
                while self.ident() == Some("mut") || self.punct('&') {
                    self.bump();
                }
                self.operand(allow_struct)
            }
            Some(Tok::Punct('|')) => self.closure(),
            Some(Tok::Punct('(')) => {
                let line = self.line();
                self.bump();
                let items = self.expr_list(')');
                self.chain(Base::Group(items), line)
            }
            Some(Tok::Punct('[')) => {
                let line = self.line();
                self.bump();
                let items = self.expr_list(']');
                self.chain(Base::Group(items), line)
            }
            Some(Tok::Punct('{')) => Expr::Block(self.block()),
            Some(Tok::Punct('.')) if self.punct_at(1, '.') => {
                self.bump();
                self.bump();
                if self.punct('=') {
                    self.bump();
                }
                if self.operand_starts() {
                    self.operand(allow_struct)
                } else {
                    Expr::Lit
                }
            }
            Some(Tok::Str | Tok::Char | Tok::Num(_) | Tok::Lifetime) => {
                let line = self.line();
                self.bump();
                self.chain(Base::Lit, line)
            }
            Some(Tok::Punct(_)) => {
                self.bump();
                Expr::Lit
            }
            Some(Tok::Ident(w)) => match w.as_str() {
                "if" => self.if_expr(allow_struct),
                "while" => {
                    self.bump();
                    let mut parts = Vec::new();
                    if self.ident() == Some("let") {
                        self.skip_let_pattern();
                    }
                    parts.push(self.expr(false));
                    parts.push(Expr::Block(self.block()));
                    Expr::Seq(parts)
                }
                "loop" => {
                    self.bump();
                    Expr::Seq(vec![Expr::Block(self.block())])
                }
                "for" => {
                    self.bump();
                    // skip the loop pattern up to `in`
                    let mut depth = 0i32;
                    while !self.eof() {
                        match self.kind() {
                            Some(Tok::Ident(k)) if k == "in" && depth == 0 => break,
                            Some(Tok::Punct('(' | '[')) => depth += 1,
                            Some(Tok::Punct(')' | ']')) => depth -= 1,
                            Some(Tok::Punct('{')) => break,
                            _ => {}
                        }
                        self.bump();
                    }
                    if self.ident() == Some("in") {
                        self.bump();
                    }
                    let iter = self.expr(false);
                    let body = Expr::Block(self.block());
                    Expr::Seq(vec![iter, body])
                }
                "match" => self.match_expr(),
                "return" | "break" => {
                    self.bump();
                    if self.operand_starts() {
                        Expr::Seq(vec![self.expr(allow_struct)])
                    } else {
                        Expr::Lit
                    }
                }
                "continue" => {
                    self.bump();
                    Expr::Lit
                }
                "unsafe" => {
                    self.bump();
                    if self.punct('{') {
                        Expr::Block(self.block())
                    } else {
                        Expr::Lit
                    }
                }
                "async" => {
                    self.bump();
                    while self.ident() == Some("move") {
                        self.bump();
                    }
                    if self.punct('{') {
                        Expr::Block(self.block())
                    } else {
                        self.operand(allow_struct)
                    }
                }
                "move" => self.closure(),
                "let" => {
                    // `if let`-style let-chain fragment
                    self.skip_let_pattern();
                    self.expr(false)
                }
                _ => self.path_operand(allow_struct),
            },
        }
    }

    /// After `if`: condition (struct literals disallowed) then blocks.
    fn if_expr(&mut self, _allow_struct: bool) -> Expr {
        self.bump(); // `if`
        let mut parts = Vec::new();
        if self.ident() == Some("let") {
            self.skip_let_pattern();
        }
        parts.push(self.expr(false));
        parts.push(Expr::Block(self.block()));
        while self.ident() == Some("else") {
            self.bump();
            if self.ident() == Some("if") {
                self.bump();
                if self.ident() == Some("let") {
                    self.skip_let_pattern();
                }
                parts.push(self.expr(false));
                parts.push(Expr::Block(self.block()));
            } else {
                parts.push(Expr::Block(self.block()));
                break;
            }
        }
        Expr::Seq(parts)
    }

    /// Skip `let PAT =` inside `if let` / `while let` heads.
    fn skip_let_pattern(&mut self) {
        self.bump(); // `let`
        let mut depth = 0i32;
        while !self.eof() {
            match self.kind() {
                Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                Some(Tok::Punct(')' | ']' | '}')) => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                Some(Tok::Punct('=')) if depth == 0 && !self.punct_at(1, '=') => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    fn closure(&mut self) -> Expr {
        let line = self.line();
        if self.ident() == Some("move") {
            self.bump();
        }
        if !self.punct('|') {
            return self.operand(true);
        }
        self.bump();
        // parameter list up to the closing `|` (params can contain
        // `(a, b): (A, B)` and generic types)
        let mut depth = 0i32;
        while !self.eof() {
            match self.kind() {
                Some(Tok::Punct('(' | '[')) => depth += 1,
                Some(Tok::Punct(')' | ']')) => depth -= 1,
                Some(Tok::Punct('<')) if depth == 0 => {
                    self.skip_angles();
                    continue;
                }
                Some(Tok::Punct('|')) if depth == 0 => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            self.bump();
        }
        // optional return type `-> T` before a block body
        if self.punct('-') && self.punct_at(1, '>') {
            self.bump();
            self.bump();
            while !self.eof() && !self.punct('{') {
                if self.punct('<') {
                    self.skip_angles();
                } else {
                    self.bump();
                }
            }
        }
        let body = self.expr(true);
        Expr::Chain(Chain {
            base: Base::Closure(Box::new(body)),
            post: Vec::new(),
            line,
        })
    }

    /// Comma/semicolon-separated expressions up to `close` (consumed).
    fn expr_list(&mut self, close: char) -> Vec<Expr> {
        let mut out = Vec::new();
        while !self.eof() {
            let start = self.i;
            if self.punct(close) {
                self.bump();
                break;
            }
            if self.punct(',') || self.punct(';') {
                self.bump();
                continue;
            }
            out.push(self.expr(true));
            if self.i == start {
                self.bump();
            }
        }
        out
    }

    fn path_operand(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let mut segs = Vec::new();
        if let Some(id) = self.take_ident() {
            segs.push(id);
        }
        loop {
            if self.path_sep() {
                if self.punct_at(2, '<') {
                    self.bump();
                    self.bump();
                    self.skip_angles(); // turbofish
                    continue;
                }
                if self.ident_at(2).is_some() {
                    self.bump();
                    self.bump();
                    if let Some(id) = self.take_ident() {
                        segs.push(id);
                    }
                    continue;
                }
            }
            break;
        }
        // macro invocation?
        if self.punct('!') && matches!(self.kind_at(1), Some(Tok::Punct('(' | '[' | '{'))) {
            self.bump(); // `!`
            let close = match self.kind() {
                Some(Tok::Punct('(')) => ')',
                Some(Tok::Punct('[')) => ']',
                _ => '}',
            };
            self.bump();
            let args = self.expr_list(close);
            return self.chain(Base::Macro { segs, args }, line);
        }
        if self.punct('(') {
            self.bump();
            let args = self.expr_list(')');
            return self.chain(Base::Call { segs, args }, line);
        }
        if self.punct('{') && allow_struct && Self::struct_like(&segs) {
            self.bump();
            let mut fields = Vec::new();
            while !self.eof() {
                let start = self.i;
                if self.punct('}') {
                    self.bump();
                    break;
                }
                if self.punct(',') {
                    self.bump();
                    continue;
                }
                if self.ident().is_some() && self.punct_at(1, ':') && !self.punct_at(2, ':') {
                    self.bump();
                    self.bump();
                }
                fields.push(self.expr(true));
                if self.i == start {
                    self.bump();
                }
            }
            return self.chain(Base::StructLit { segs, fields }, line);
        }
        self.chain(Base::Path { segs }, line)
    }

    /// Heuristic: a `{` after this path opens a struct literal.
    fn struct_like(segs: &[String]) -> bool {
        segs.last()
            .and_then(|s| s.chars().next())
            .is_some_and(|c| c.is_uppercase())
    }

    /// Parse the postfix chain onto `base`.
    fn chain(&mut self, base: Base, line: u32) -> Expr {
        let mut post = Vec::new();
        loop {
            if self.punct('.') && !self.punct_at(1, '.') {
                let mline = self.line();
                match self.kind_at(1) {
                    Some(Tok::Ident(_)) => {
                        self.bump(); // `.`
                        let name = self.take_ident().unwrap_or_default();
                        // optional turbofish before call parens
                        if self.path_sep() && self.punct_at(2, '<') {
                            self.bump();
                            self.bump();
                            self.skip_angles();
                        }
                        if self.punct('(') {
                            self.bump();
                            let args = self.expr_list(')');
                            post.push(Post::Method {
                                name,
                                args,
                                line: mline,
                            });
                        } else {
                            post.push(Post::Field { name });
                        }
                    }
                    Some(Tok::Num(n)) => {
                        let name = n.clone();
                        self.bump();
                        self.bump();
                        post.push(Post::Field { name });
                    }
                    _ => break,
                }
            } else if self.punct('?') {
                self.bump();
                post.push(Post::Try);
            } else if self.punct('[') {
                self.bump();
                let idx = self.expr(true);
                if self.punct(']') {
                    self.bump();
                }
                post.push(Post::Index(Box::new(idx)));
            } else if self.punct('(') {
                let mline = self.line();
                self.bump();
                let args = self.expr_list(')');
                post.push(Post::Method {
                    name: String::new(),
                    args,
                    line: mline,
                });
            } else {
                break;
            }
        }
        Expr::Chain(Chain { base, post, line })
    }

    fn match_expr(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // `match`
        let scrutinee = Box::new(self.expr(false));
        if !self.punct('{') {
            return Expr::Seq(vec![*scrutinee]);
        }
        self.bump();
        let mut arms = Vec::new();
        let mut attrs = Attrs::default();
        while !self.eof() && !self.punct('}') {
            let start = self.i;
            if self.punct('#') {
                self.attr(&mut attrs);
                continue;
            }
            if self.punct(',') {
                self.bump();
                continue;
            }
            arms.push(self.arm());
            if self.i == start {
                self.bump();
            }
        }
        if self.punct('}') {
            self.bump();
        }
        Expr::Match(MatchExpr {
            scrutinee,
            arms,
            line,
        })
    }

    fn arm(&mut self) -> Arm {
        let line = self.line();
        // Skip the pattern up to `=>`, stopping for an `if` guard.
        let mut guard = None;
        let mut depth = 0i32;
        while !self.eof() {
            if depth == 0 {
                if self.fat_arrow() {
                    break;
                }
                if self.ident() == Some("if") {
                    self.bump();
                    guard = Some(self.expr(false));
                    continue;
                }
                if self.punct('}') {
                    break; // malformed arm; recover at match close
                }
            }
            match self.kind() {
                Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                Some(Tok::Punct(')' | ']' | '}')) => depth -= 1,
                _ => {}
            }
            self.bump();
        }
        if self.fat_arrow() {
            self.bump();
            self.bump();
        }
        let body = self.expr(true);
        Arm { guard, body, line }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Ast {
        parse_source(src).0
    }

    fn fns(ast: &Ast) -> Vec<&FnItem> {
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a FnItem>) {
            for it in items {
                match it {
                    Item::Fn(f) => out.push(f),
                    Item::Impl(i) => walk(&i.items, out),
                    Item::Mod(m) => walk(&m.items, out),
                    Item::Trait(t) => walk(&t.items, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&ast.items, &mut out);
        out
    }

    #[test]
    fn fn_with_chain_body() {
        let ast = parse("fn f(&self) { self.core.lock().unwrap(); }");
        let f = &fns(&ast)[0];
        assert_eq!(f.name, "f");
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 1);
        let Stmt::Expr {
            expr: Expr::Chain(c),
            semi: true,
        } = &body.stmts[0]
        else {
            panic!("expected chain stmt, got {:?}", body.stmts[0]);
        };
        let Base::Path { segs } = &c.base else {
            panic!("expected path base");
        };
        assert_eq!(segs, &["self"]);
        let names: Vec<&str> = c
            .post
            .iter()
            .map(|p| match p {
                Post::Field { name } => name.as_str(),
                Post::Method { name, .. } => name.as_str(),
                _ => "?",
            })
            .collect();
        assert_eq!(names, vec!["core", "lock", "unwrap"]);
    }

    #[test]
    fn impl_and_trait_items_nest() {
        let ast = parse(
            "impl Display for ServeError { fn fmt(&self) {} }\n\
             trait T { fn decl(&self); fn dflt(&self) { self.decl(); } }",
        );
        let all = fns(&ast);
        let names: Vec<&str> = all.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["fmt", "decl", "dflt"]);
        let Item::Impl(i) = &ast.items[0] else {
            panic!()
        };
        assert_eq!(i.ty, "ServeError");
        assert!(all[1].body.is_none());
        assert!(all[2].body.is_some());
    }

    #[test]
    fn type_and_const_items_are_skipped_without_desync() {
        // bodies, discriminants, where-clauses and braced initializers
        // are skipped whole, so the fn after them is still found
        let ast = parse(
            "pub enum Request { Ingest(Vec<Claim>), Status = 3, Deadline { budget_ms: u64 } }\n\
             enum Wrap<T> where T: Clone { A(T) }\n\
             struct Pair<T> where T: Copy { a: T }\n\
             pub const TAG: u8 = 0xC1;\n\
             static TABLE: [u8; 2] = { let x = [1, 2]; x };\n\
             fn after() { g(); }",
        );
        let names: Vec<&str> = fns(&ast).iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["after"]);
        assert_eq!(ast.items.len(), 1);
    }

    #[test]
    fn match_arms_skip_patterns_up_to_the_arrow() {
        let src = "fn f(&self) { match self { Self::Ingest(c) => e.u8(REQ_INGEST), \
                   Self::A | Self::B => x(), tag => fallback(tag), } }";
        let ast = parse(src);
        let f = &fns(&ast)[0];
        let Stmt::Expr {
            expr: Expr::Match(m),
            ..
        } = &f.body.as_ref().unwrap().stmts[0]
        else {
            panic!()
        };
        assert_eq!(m.arms.len(), 3);
        assert!(m.arms.iter().all(|a| a.guard.is_none()));
        assert!(matches!(&m.arms[1].body, Expr::Chain(c)
            if matches!(&c.base, Base::Call { segs, .. } if segs == &["x"])));
    }

    #[test]
    fn match_guard_is_parsed() {
        let ast = parse("fn f() { match x { Some(n) if n.check() => use_it(n), _ => {} } }");
        let f = &fns(&ast)[0];
        let Stmt::Expr {
            expr: Expr::Match(m),
            ..
        } = &f.body.as_ref().unwrap().stmts[0]
        else {
            panic!()
        };
        assert!(m.arms[0].guard.is_some());
    }

    #[test]
    fn let_binding_shapes() {
        let ast = parse(
            "fn f() { let g = self.core(); let mut n: u64 = 0; let (a, b) = pair(); \
             let _ = drop_now(); let Some(x) = opt else { return; }; }",
        );
        let f = &fns(&ast)[0];
        let names: Vec<Option<&str>> = f
            .body
            .as_ref()
            .unwrap()
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::Let(l) => l.name.as_deref(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(names, vec![Some("g"), Some("n"), None, None, None]);
        let Stmt::Let(last) = &f.body.as_ref().unwrap().stmts[4] else {
            panic!()
        };
        assert!(last.else_block.is_some());
    }

    #[test]
    fn struct_literal_vs_block() {
        // In a match scrutinee `Foo {` must NOT be a struct literal.
        let ast = parse("fn f() { match foo { _ => {} } let s = Shape { w: 1, h: 2 }; }");
        let f = &fns(&ast)[0];
        assert_eq!(f.body.as_ref().unwrap().stmts.len(), 2);
        let Stmt::Let(l) = &f.body.as_ref().unwrap().stmts[1] else {
            panic!("expected let, got {:?}", f.body.as_ref().unwrap().stmts[1])
        };
        let Some(Expr::Chain(c)) = &l.init else {
            panic!()
        };
        assert!(matches!(&c.base, Base::StructLit { segs, .. } if segs == &["Shape"]));
    }

    #[test]
    fn closures_and_macros_keep_inner_calls() {
        let ast = parse("fn f() { spawn(move || worker(&sh)); assert_eq!(x.lock().len(), 0); }");
        let f = &fns(&ast)[0];
        let body = f.body.as_ref().unwrap();
        // spawn(...) call with closure arg whose body calls worker
        let Stmt::Expr {
            expr: Expr::Chain(c),
            ..
        } = &body.stmts[0]
        else {
            panic!()
        };
        let Base::Call { segs, args } = &c.base else {
            panic!()
        };
        assert_eq!(segs, &["spawn"]);
        let Expr::Chain(cl) = &args[0] else { panic!() };
        assert!(matches!(&cl.base, Base::Closure(_)));
        // macro args are parsed as expressions
        let Stmt::Expr {
            expr: Expr::Chain(m),
            ..
        } = &body.stmts[1]
        else {
            panic!()
        };
        assert!(
            matches!(&m.base, Base::Macro { segs, args } if segs == &["assert_eq"] && args.len() == 2)
        );
    }

    #[test]
    fn byte_strings_and_raw_idents_in_bodies() {
        // must not desync the parser
        let ast = parse(
            "fn f() { let x = b\"lock()\"; let y = br#\"sync_all()\"#; let r#match = 1; g(); }",
        );
        let f = &fns(&ast)[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.body.as_ref().unwrap().stmts.len(), 4);
    }

    #[test]
    fn sig_idents_capture_guard_types() {
        let ast = parse("fn core(&self) -> MutexGuard<'_, ServeCore> { self.core.lock() }");
        let f = &fns(&ast)[0];
        assert!(f.sig_idents.iter().any(|w| w == "MutexGuard"));
    }

    #[test]
    fn param_counts_exclude_self_and_nested_commas() {
        let ast = parse(
            "fn free(a: u32, b: Vec<Map<K, V>>) {}\n\
             impl S {\n\
             fn getter(&self) -> u32 { 0 }\n\
             fn method(&mut self, x: u32) {}\n\
             fn assoc(vfs: &Vfs, path: &Path) {}\n\
             fn trailing(&self, a: u32, b: u32,) {}\n\
             fn fnptr(&self, f: fn(u32, u32) -> u32) {}\n\
             }",
        );
        let counts: Vec<(String, usize)> = fns(&ast)
            .iter()
            .map(|f| (f.name.clone(), f.params))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("free".into(), 2),
                ("getter".into(), 0),
                ("method".into(), 1),
                ("assoc".into(), 2),
                ("trailing".into(), 2),
                ("fnptr".into(), 1),
            ]
        );
    }

    #[test]
    fn cfg_test_fn_and_mod_are_marked() {
        let ast = parse(
            "#[cfg(test)] mod tests { fn helper() {} }\n#[test] fn t() {}\n\
             #[cfg(not(test))] fn real() {}",
        );
        let Item::Mod(m) = &ast.items[0] else {
            panic!()
        };
        assert!(m.cfg_test);
        let all = fns(&ast);
        let t = all.iter().find(|f| f.name == "t").unwrap();
        let real = all.iter().find(|f| f.name == "real").unwrap();
        assert!(t.is_test);
        assert!(!real.is_test);
    }

    #[test]
    fn control_flow_flattens_but_keeps_calls() {
        let ast = parse(
            "fn f() { if x.check() { a(); } else { b(); } while let Some(v) = it.next() { c(v); } \
             for p in list.iter() { d(p); } }",
        );
        let f = &fns(&ast)[0];
        assert_eq!(f.body.as_ref().unwrap().stmts.len(), 3);
    }

    #[test]
    fn parser_is_total_on_garbage() {
        // Unbalanced and nonsense input must terminate without panic.
        for src in [
            "fn f( { ) } ] =>",
            "impl { fn }",
            "match { | | => ",
            "<<<<<<<",
            "fn f() { a.b.(",
            "enum E { , , }",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn index_and_try_postfix() {
        let ast = parse("fn f() { d.u8()?; buf[i + 1].encode(); }");
        let f = &fns(&ast)[0];
        let body = f.body.as_ref().unwrap();
        let Stmt::Expr {
            expr: Expr::Chain(c),
            ..
        } = &body.stmts[0]
        else {
            panic!()
        };
        assert!(matches!(c.post.last(), Some(Post::Try)));
        let Stmt::Expr {
            expr: Expr::Chain(c2),
            ..
        } = &body.stmts[1]
        else {
            panic!()
        };
        assert!(matches!(&c2.post[0], Post::Index(_)));
        assert!(matches!(&c2.post[1], Post::Method { name, .. } if name == "encode"));
    }
}
