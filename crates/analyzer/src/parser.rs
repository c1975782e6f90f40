//! A tolerant recursive-descent parser over the [`crate::lexer`] token
//! stream.
//!
//! The build environment vendors no `syn`, so the semantic rules parse
//! Rust themselves. This parser produces exactly the item tree those
//! rules need — functions (with parameter/return types and a statement
//! tree), impl/trait context, and every call expression — and
//! deliberately nothing more. It is a
//! *scanner-grade* parser: tolerant of anything it does not model
//! (it skips unknown constructs token by token), never panics on
//! arbitrary input, and prefers under-reporting structure to
//! mis-reporting it, because every lint built on top is deny-by-default.
//!
//! What the rules get:
//!
//! * [`ParsedFile::fns`] — a flat list of every `fn` in the file, each
//!   carrying its enclosing impl/trait type, parameter names and type
//!   idents, return-type idents, and a [`Block`] statement tree.
//! * [`Call`] — every `callee(...)` / `recv.method(...)` /
//!   `Path::to::func(...)` in a body, with its argument ranges and the
//!   index of the matching `)` so rules can see what the result flows
//!   into.
//!
//! Expressions are *ranges with extracted calls*, not trees: control
//! flow that appears in expression position (`let x = if … {…} else
//! {…}`) is analyzed linearly. The statement tree does model `if` /
//! `else`, `match` arms, loops, `let`/`let…else`, and `return`, which is
//! what the path-sensitive rules (PRB03, CLK01) branch on.

use crate::lexer::{Tok, TokKind};

/// Everything the parser extracted from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function in the file, at any nesting depth, in source order.
    pub fns: Vec<FnDef>,
}

/// One function definition (or trait-method declaration).
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub self_ty: Option<String>,
    /// Token index of the `fn` keyword (for test-mask lookups).
    pub fn_tok: usize,
    /// Named parameters (receiver excluded).
    pub params: Vec<Param>,
    /// Identifiers appearing in the return type, in order (empty = unit).
    pub ret: Vec<String>,
    /// Body statement tree (`None` for trait declarations).
    pub body: Option<Block>,
}

/// One named parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (empty for pattern parameters).
    pub name: String,
    /// Identifiers appearing in the parameter type, in order.
    pub ty: Vec<String>,
}

/// A `{ … }` block as a statement tree.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order; a trailing expression arrives as an
    /// [`ExprStmt`] with `semi == false`.
    pub stmts: Vec<Stmt>,
    /// Token index of the matching `}`.
    pub close: usize,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let pat [: ty] [= expr] [else { … }];`
    Let(LetStmt),
    /// An expression statement (with or without `;`).
    Expr(ExprStmt),
    /// `return [expr];`
    Return(ReturnStmt),
    /// `if cond { … } [else …]` in statement position.
    If(IfStmt),
    /// `match expr { arms }` in statement position.
    Match(MatchStmt),
    /// `loop` / `while [let]` / `for … in …` with a body.
    Loop(LoopStmt),
    /// A bare `{ … }` block statement.
    Block(Block),
    /// `break [label/expr];`
    Break(u32),
    /// `continue [label];`
    Continue(u32),
    /// A nested item (functions are also flattened into
    /// [`ParsedFile::fns`]).
    Item,
}

/// `let` statement.
#[derive(Debug)]
pub struct LetStmt {
    /// Names the pattern binds (lowercase idents; constructors excluded).
    pub names: Vec<String>,
    /// True when the pattern is exactly `_`.
    pub wild: bool,
    /// True when the pattern discards a component: a `_` or
    /// `_`-prefixed binding inside it, or a `..` rest pattern.
    pub discards: bool,
    /// Identifiers in the ascribed type, if any.
    pub ty: Vec<String>,
    /// Initializer expression.
    pub init: Option<ExprInfo>,
    /// `let … else { … }` diverging block.
    pub els: Option<Block>,
    /// Source line.
    pub line: u32,
}

/// Expression statement.
#[derive(Debug)]
pub struct ExprStmt {
    /// The expression.
    pub expr: ExprInfo,
    /// True when terminated by `;` (false for a tail expression).
    pub semi: bool,
}

/// `return` statement.
#[derive(Debug)]
pub struct ReturnStmt {
    /// Returned expression, if any.
    pub expr: Option<ExprInfo>,
    /// Source line.
    pub line: u32,
}

/// `if` statement (conditions of `if let` include the `let pat =` part).
#[derive(Debug)]
pub struct IfStmt {
    /// Condition expression.
    pub cond: ExprInfo,
    /// Then-block.
    pub then: Block,
    /// `else` branch: a nested [`Stmt::If`] or [`Stmt::Block`].
    pub els: Option<Box<Stmt>>,
}

/// `match` statement.
#[derive(Debug)]
pub struct MatchStmt {
    /// Scrutinee expression.
    pub scrutinee: ExprInfo,
    /// Arms in order.
    pub arms: Vec<Arm>,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Names the pattern binds (lowercase idents; constructors excluded).
    pub names: Vec<String>,
    /// Arm body.
    pub body: ArmBody,
}

/// A match-arm body.
#[derive(Debug)]
pub enum ArmBody {
    /// `pat => { … }`
    Block(Block),
    /// `pat => expr`
    Expr(ExprInfo),
}

/// `loop` / `while` / `for` statement.
#[derive(Debug)]
pub struct LoopStmt {
    /// Loop header expression (`while` condition / `for` iterator), if
    /// any.
    pub header: Option<ExprInfo>,
    /// Loop body.
    pub body: Block,
}

/// An expression as a token range with its extracted calls.
#[derive(Debug)]
pub struct ExprInfo {
    /// Start token index (inclusive).
    pub lo: usize,
    /// End token index (exclusive).
    pub hi: usize,
    /// Source line of the first token.
    pub line: u32,
    /// Calls found anywhere in `[lo, hi)`, in source order.
    pub calls: Vec<Call>,
}

/// One call expression.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee path segments: `["a","b","f"]` for `a::b::f(…)`, `["m"]`
    /// for `.m(…)` or `m(…)`.
    pub path: Vec<String>,
    /// True for a `.method(…)` call.
    pub method: bool,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// Token index of the matching `)`.
    pub rparen: usize,
    /// Source line of the callee.
    pub line: u32,
    /// Top-level argument token ranges `[lo, hi)`.
    pub args: Vec<(usize, usize)>,
}

impl Call {
    /// The callee rendered as `a::b::f`.
    pub fn path_str(&self) -> String {
        self.path.join("::")
    }

    /// Last path segment — the function/method name itself.
    pub fn name(&self) -> &str {
        self.path.last().map(|s| s.as_str()).unwrap_or("")
    }
}

/// Keywords that may directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "fn",
    "impl", "dyn", "where", "break",
];

/// Parse a lexed file.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut p = Parser { toks, pos: 0 };
    p.items(&mut out, None, toks.len());
    out
}

struct Parser<'t> {
    toks: &'t [Tok],
    pos: usize,
}

impl<'t> Parser<'t> {
    fn at(&self, i: usize) -> Option<&'t Tok> {
        self.toks.get(i)
    }

    fn cur(&self) -> Option<&'t Tok> {
        self.at(self.pos)
    }

    fn is(&self, i: usize, c: char) -> bool {
        self.at(i).map(|t| t.is_punct(c)).unwrap_or(false)
    }

    fn is_kw(&self, i: usize, s: &str) -> bool {
        self.at(i).map(|t| t.is_ident(s)).unwrap_or(false)
    }

    fn line(&self, i: usize) -> u32 {
        self.at(i).map(|t| t.line).unwrap_or(0)
    }

    /// Skip one `#[…]` / `#![…]` attribute if present.
    fn skip_attr(&mut self) -> bool {
        if !self.is(self.pos, '#') {
            return false;
        }
        let mut j = self.pos + 1;
        if self.is(j, '!') {
            j += 1;
        }
        if !self.is(j, '[') {
            self.pos += 1; // stray `#`: consume to guarantee progress
            return true;
        }
        let mut depth = 0i32;
        while j < self.toks.len() {
            if self.is(j, '[') {
                depth += 1;
            } else if self.is(j, ']') {
                depth -= 1;
                if depth == 0 {
                    self.pos = j + 1;
                    return true;
                }
            }
            j += 1;
        }
        self.pos = self.toks.len();
        true
    }

    /// Skip a balanced `<…>` generic list starting at `pos` (which must
    /// be `<`). `->` and comparison-free contexts are assumed — this is
    /// only called in declaration positions.
    fn skip_generics(&mut self) {
        if !self.is(self.pos, '<') {
            return;
        }
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            if self.is(self.pos, '<') {
                depth += 1;
            } else if self.is(self.pos, '>') {
                // `->` inside `Fn(…) -> T` bounds does not close a level
                if !(self.pos > 0 && self.is(self.pos - 1, '-')) {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
            }
            self.pos += 1;
        }
    }

    /// Skip to just past the next `;` or matching `}` at depth 0 —
    /// items we do not model (const/static/type/extern/macro defs).
    fn skip_item(&mut self) {
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if depth == 0 && t.is_punct('}') {
                    self.pos += 1;
                    return;
                }
                if depth < 0 {
                    return; // enclosing close: let the caller see it
                }
            } else if t.is_punct(';') && depth == 0 {
                self.pos += 1;
                return;
            }
            self.pos += 1;
        }
    }

    /// Parse items until `end` (token index) or an unmatched `}`.
    fn items(&mut self, out: &mut ParsedFile, self_ty: Option<&str>, end: usize) {
        while self.pos < end {
            if self.skip_attr() {
                continue;
            }
            let Some(t) = self.cur() else { break };
            if t.is_punct('}') {
                return; // caller consumes
            }
            if t.kind != TokKind::Ident {
                self.pos += 1;
                continue;
            }
            match t.text.as_str() {
                "pub" => {
                    self.pos += 1;
                    // pub(crate) / pub(in …)
                    if self.is(self.pos, '(') {
                        let mut depth = 0i32;
                        while self.pos < self.toks.len() {
                            if self.is(self.pos, '(') {
                                depth += 1;
                            } else if self.is(self.pos, ')') {
                                depth -= 1;
                                if depth == 0 {
                                    self.pos += 1;
                                    break;
                                }
                            }
                            self.pos += 1;
                        }
                    }
                }
                "fn" => self.fn_item(out, self_ty),
                "impl" => self.impl_item(out),
                "trait" => self.trait_item(out),
                "mod" => self.mod_item(out, self_ty),
                "use" | "struct" | "enum" | "union" => {
                    self.pos += 1;
                    self.skip_item();
                }
                "unsafe" | "const" | "static" | "extern" | "async" => {
                    // `const fn` / `unsafe fn` / `extern "C" fn` keep the
                    // fn; `const X: …;` et al are skipped wholesale.
                    if self.is_kw(self.pos + 1, "fn")
                        || (self.at(self.pos + 1).map(|n| n.kind) == Some(TokKind::Literal)
                            && self.is_kw(self.pos + 2, "fn"))
                    {
                        self.pos += 1;
                    } else {
                        self.pos += 1;
                        self.skip_item();
                    }
                }
                _ => {
                    // macro invocation / unknown construct: make progress
                    self.pos += 1;
                    if self.is(self.pos, '!') {
                        self.pos += 1;
                        if self.at(self.pos).map(|t| t.kind) == Some(TokKind::Ident) {
                            self.pos += 1; // macro_rules! name
                        }
                        self.skip_delims();
                    }
                }
            }
        }
    }

    /// Skip one balanced delimiter group (or a lone `;`).
    fn skip_delims(&mut self) {
        let Some(t) = self.cur() else { return };
        if t.is_punct(';') {
            self.pos += 1;
            return;
        }
        if !(t.is_punct('{') || t.is_punct('(') || t.is_punct('[')) {
            return;
        }
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// `impl<…> [Trait for] Type { items }`
    fn impl_item(&mut self, out: &mut ParsedFile) {
        self.pos += 1; // `impl`
        if self.is(self.pos, '<') {
            self.skip_generics();
        }
        // first path: trait (when `for` follows) or the self type
        let first = self.type_head();
        let self_ty = if self.is_kw(self.pos, "for") {
            self.pos += 1;
            self.type_head()
        } else {
            first
        };
        // skip to the body `{`
        while self.pos < self.toks.len() && !self.is(self.pos, '{') {
            if self.is(self.pos, ';') {
                self.pos += 1;
                return;
            }
            self.pos += 1;
        }
        if self.is(self.pos, '{') {
            self.pos += 1;
            self.items(out, self_ty.as_deref(), self.toks.len());
            if self.is(self.pos, '}') {
                self.pos += 1;
            }
        }
    }

    /// Read a type path head (`a::b::Type<G>` → `Type`), leaving `pos`
    /// after it.
    fn type_head(&mut self) -> Option<String> {
        // leading `&`, lifetimes, `mut`, `dyn`
        loop {
            let t = self.cur()?;
            if t.is_punct('&')
                || t.kind == TokKind::Lifetime
                || t.is_ident("mut")
                || t.is_ident("dyn")
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        let mut last = None;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Ident {
                last = Some(t.text.clone());
                self.pos += 1;
                if self.is(self.pos, ':') && self.is(self.pos + 1, ':') {
                    self.pos += 2;
                    continue;
                }
                if self.is(self.pos, '<') {
                    self.skip_generics();
                }
                break;
            }
            break;
        }
        last
    }

    /// `trait Name { fn decls/defaults }`
    fn trait_item(&mut self, out: &mut ParsedFile) {
        self.pos += 1; // `trait`
        let name = self
            .cur()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        if name.is_some() {
            self.pos += 1;
        }
        if self.is(self.pos, '<') {
            self.skip_generics();
        }
        while self.pos < self.toks.len() && !self.is(self.pos, '{') {
            if self.is(self.pos, ';') {
                self.pos += 1;
                return;
            }
            self.pos += 1;
        }
        if self.is(self.pos, '{') {
            self.pos += 1;
            self.items(out, name.as_deref(), self.toks.len());
            if self.is(self.pos, '}') {
                self.pos += 1;
            }
        }
    }

    /// `mod name { items }` / `mod name;`
    fn mod_item(&mut self, out: &mut ParsedFile, self_ty: Option<&str>) {
        self.pos += 1; // `mod`
        if self.cur().map(|t| t.kind) == Some(TokKind::Ident) {
            self.pos += 1;
        }
        if self.is(self.pos, ';') {
            self.pos += 1;
            return;
        }
        if self.is(self.pos, '{') {
            self.pos += 1;
            self.items(out, self_ty, self.toks.len());
            if self.is(self.pos, '}') {
                self.pos += 1;
            }
        }
    }

    /// `fn name<…>(params) [-> Ret] [where …] { body }`
    fn fn_item(&mut self, out: &mut ParsedFile, self_ty: Option<&str>) {
        let fn_tok = self.pos;
        self.pos += 1; // `fn`
        let Some(name_tok) = self.cur().filter(|t| t.kind == TokKind::Ident) else {
            return;
        };
        let name = name_tok.text.clone();
        self.pos += 1;
        if self.is(self.pos, '<') {
            self.skip_generics();
        }
        let params = self.fn_params();
        // return type
        let mut ret = Vec::new();
        if self.is(self.pos, '-') && self.is(self.pos + 1, '>') {
            self.pos += 2;
            let mut depth = 0i32;
            while self.pos < self.toks.len() {
                let t = &self.toks[self.pos];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where"))
                {
                    break;
                } else if t.kind == TokKind::Ident {
                    ret.push(t.text.clone());
                }
                self.pos += 1;
            }
        }
        // where clause
        if self.is_kw(self.pos, "where") {
            while self.pos < self.toks.len() && !self.is(self.pos, '{') && !self.is(self.pos, ';') {
                self.pos += 1;
            }
        }
        let body = if self.is(self.pos, '{') {
            Some(self.block(out, self_ty))
        } else {
            if self.is(self.pos, ';') {
                self.pos += 1;
            }
            None
        };
        out.fns.push(FnDef {
            name,
            self_ty: self_ty.map(|s| s.to_string()),
            fn_tok,
            params,
            ret,
            body,
        });
    }

    /// Parse `(params)`; returns the named params (a `self` receiver
    /// is not one).
    fn fn_params(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        if !self.is(self.pos, '(') {
            return params;
        }
        // find the matching `)`
        let open = self.pos;
        let mut depth = 0i32;
        let mut close = open;
        while close < self.toks.len() {
            if self.is(close, '(') || self.is(close, '[') || self.is(close, '{') {
                depth += 1;
            } else if self.is(close, ')') || self.is(close, ']') || self.is(close, '}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        // split on top-level commas (angle-aware for generic types)
        let mut i = open + 1;
        let mut start = i;
        let mut d = 0i32;
        let mut angle = 0i32;
        let mut flush = |lo: usize, hi: usize, parser: &Parser<'t>| {
            if lo >= hi {
                return;
            }
            // receiver?
            let mut j = lo;
            while j < hi
                && (parser.is(j, '&')
                    || parser.at(j).map(|t| t.kind) == Some(TokKind::Lifetime)
                    || parser.is_kw(j, "mut"))
            {
                j += 1;
            }
            if parser.is_kw(j, "self") {
                return;
            }
            // `[mut] name : ty`
            let mut k = lo;
            if parser.is_kw(k, "mut") {
                k += 1;
            }
            let name = parser
                .at(k)
                .filter(|t| {
                    t.kind == TokKind::Ident && parser.is(k + 1, ':') && !parser.is(k + 2, ':')
                })
                .map(|t| t.text.clone())
                .unwrap_or_default();
            let ty_lo = if name.is_empty() { lo } else { k + 2 };
            let ty: Vec<String> = (ty_lo..hi)
                .filter_map(|x| parser.at(x))
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .collect();
            params.push(Param { name, ty });
        };
        while i < close {
            let t = &self.toks[i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                d -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !self.is(i - 1, '-') {
                angle -= 1;
            } else if t.is_punct(',') && d == 0 && angle <= 0 {
                flush(start, i, self);
                start = i + 1;
            }
            i += 1;
        }
        flush(start, close, self);
        self.pos = (close + 1).min(self.toks.len());
        params
    }

    /// Parse a `{ … }` block (pos must be at `{`).
    fn block(&mut self, out: &mut ParsedFile, self_ty: Option<&str>) -> Block {
        self.pos += 1;
        let mut stmts = Vec::new();
        loop {
            while self.skip_attr() {}
            let Some(t) = self.cur() else { break };
            if t.is_punct('}') {
                let close = self.pos;
                self.pos += 1;
                return Block { stmts, close };
            }
            if t.is_punct(';') {
                self.pos += 1;
                continue;
            }
            stmts.push(self.stmt(out, self_ty));
        }
        Block {
            stmts,
            close: self.toks.len().saturating_sub(1),
        }
    }

    /// Parse one statement inside a block.
    fn stmt(&mut self, out: &mut ParsedFile, self_ty: Option<&str>) -> Stmt {
        let t = &self.toks[self.pos];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "let" => return self.let_stmt(out, self_ty),
                "return" => return self.return_stmt(),
                "if" => return self.if_stmt(out, self_ty),
                "match" => return self.match_stmt(out, self_ty),
                "while" | "for" => {
                    let is_for = t.text == "for";
                    self.pos += 1;
                    let lo = self.pos;
                    // `for PAT in EXPR {` — the pattern may contain
                    // depth-0 `{ … }` (struct patterns), so locate the
                    // body brace only after the `in`.
                    let brace = if is_for {
                        self.find_block_open_at(self.skip_pattern_to(self.pos, false))
                    } else {
                        self.find_block_open()
                    };
                    let header = self.expr_range(lo, brace);
                    self.pos = brace;
                    let body = if self.is(self.pos, '{') {
                        self.block(out, self_ty)
                    } else {
                        Block::default()
                    };
                    return Stmt::Loop(LoopStmt {
                        header: Some(header),
                        body,
                    });
                }
                "loop" => {
                    self.pos += 1;
                    let body = if self.is(self.pos, '{') {
                        self.block(out, self_ty)
                    } else {
                        Block::default()
                    };
                    return Stmt::Loop(LoopStmt { header: None, body });
                }
                "break" => {
                    let line = t.line;
                    self.consume_to_semi();
                    return Stmt::Break(line);
                }
                "continue" => {
                    let line = t.line;
                    self.consume_to_semi();
                    return Stmt::Continue(line);
                }
                "fn" => {
                    self.fn_item(out, self_ty);
                    return Stmt::Item;
                }
                "use" | "struct" | "enum" | "union" | "impl" | "trait" | "mod" | "const"
                | "static" | "type" | "extern" => {
                    // nested items: route through the item parser for
                    // fn/impl/etc so their fns are still collected
                    match t.text.as_str() {
                        "impl" => self.impl_item(out),
                        "trait" => self.trait_item(out),
                        "mod" => self.mod_item(out, self_ty),
                        _ => {
                            self.pos += 1;
                            self.skip_item();
                        }
                    }
                    return Stmt::Item;
                }
                _ => {}
            }
        }
        if t.is_punct('{') {
            return Stmt::Block(self.block(out, self_ty));
        }
        // expression statement
        self.expr_stmt()
    }

    /// From the current position, find the `{` that opens the next block —
    /// stepping over an `if let` / `while let` pattern first, since a
    /// struct pattern (`if let E::V { a, b } = x {`) contains a depth-0
    /// `{` that is *not* the body.
    fn find_block_open(&self) -> usize {
        let start = if self.toks.get(self.pos).is_some_and(|t| t.is_ident("let")) {
            self.skip_pattern_to(self.pos + 1, true)
        } else {
            self.pos
        };
        self.find_block_open_at(start)
    }

    /// From `start`, find the index of the `{` that opens the next block at
    /// delimiter depth 0 (statement-position headers: Rust forbids bare
    /// struct literals here, so the first depth-0 `{` is the block).
    fn find_block_open_at(&self, start: usize) -> usize {
        let mut j = start;
        let mut depth = 0i32;
        while j < self.toks.len() {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('{') && depth <= 0 {
                return j;
            } else if t.is_punct(';') && depth <= 0 {
                return j; // malformed header: stop at the `;`
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Step over a binding pattern starting at `start`, returning the
    /// index just past its depth-0 terminator: `=` when `eq` (the
    /// pattern/scrutinee separator of `if let` / `while let`), else the
    /// `in` of a `for` loop. All three delimiter kinds nest here because
    /// struct patterns carry `{ … }` groups. Returns `start` unchanged
    /// if no terminator appears before a depth-0 `;` or an enclosing
    /// close delimiter.
    fn skip_pattern_to(&self, start: usize, eq: bool) -> usize {
        let mut j = start;
        let mut depth = 0i32;
        while j < self.toks.len() {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if depth == 0 && t.is_punct(';') {
                break;
            } else if depth == 0 {
                if eq {
                    // the separator `=`: not `==`, not `=>`, and not the
                    // tail of a `..=` range pattern
                    if t.is_punct('=')
                        && !self
                            .toks
                            .get(j + 1)
                            .is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
                        && !(j > start && self.toks[j - 1].is_punct('.'))
                    {
                        return j + 1;
                    }
                } else if t.is_ident("in") {
                    return j + 1;
                }
            }
            j += 1;
        }
        start
    }

    /// Consume tokens through the next depth-0 `;` (or before an
    /// enclosing `}`).
    fn consume_to_semi(&mut self) {
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                if depth == 0 {
                    return; // enclosing close
                }
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                self.pos += 1;
                return;
            }
            self.pos += 1;
        }
    }

    /// `let pat [: ty] [= init] [else { … }];`
    fn let_stmt(&mut self, out: &mut ParsedFile, self_ty: Option<&str>) -> Stmt {
        let line = self.line(self.pos);
        self.pos += 1; // `let`
                       // pattern: until depth-0 `:` `=` or `;`
        let pat_lo = self.pos;
        let mut depth = 0i32;
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0
                && (t.is_punct('=')
                    || t.is_punct(';')
                    || (t.is_punct(':')
                        && !self.is(self.pos + 1, ':')
                        && !(self.pos > pat_lo && self.is(self.pos - 1, ':'))))
            {
                break;
            }
            self.pos += 1;
        }
        let pat_hi = self.pos;
        let (names, wild) = pattern_names(&self.toks[pat_lo..pat_hi]);
        let discards = !wild && pattern_discards(&self.toks[pat_lo..pat_hi]);
        // ascription
        let mut ty = Vec::new();
        if self.is(self.pos, ':') {
            self.pos += 1;
            let mut angle = 0i32;
            let mut d = 0i32;
            while self.pos < self.toks.len() {
                let t = &self.toks[self.pos];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') && !self.is(self.pos - 1, '-') {
                    angle -= 1;
                } else if t.is_punct('(') || t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                } else if d == 0
                    && (t.is_punct('}') || (angle <= 0 && (t.is_punct('=') || t.is_punct(';'))))
                {
                    break;
                } else if t.kind == TokKind::Ident {
                    ty.push(t.text.clone());
                }
                self.pos += 1;
            }
        }
        // initializer
        let mut init = None;
        let mut els = None;
        if self.is(self.pos, '=') {
            self.pos += 1;
            let lo = self.pos;
            let mut d = 0i32;
            while self.pos < self.toks.len() {
                let t = &self.toks[self.pos];
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    d += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    if d == 0 {
                        break; // enclosing close (missing `;`)
                    }
                    d -= 1;
                } else if d == 0 && t.is_punct(';') {
                    break;
                } else if d == 0 && t.is_ident("else") && self.is(self.pos + 1, '{') {
                    break; // let-else
                }
                self.pos += 1;
            }
            init = Some(self.expr_range(lo, self.pos));
            if self.is_kw(self.pos, "else") {
                self.pos += 1;
                if self.is(self.pos, '{') {
                    els = Some(self.block(out, self_ty));
                }
            }
        }
        if self.is(self.pos, ';') {
            self.pos += 1;
        }
        Stmt::Let(LetStmt {
            names,
            wild,
            discards,
            ty,
            init,
            els,
            line,
        })
    }

    fn return_stmt(&mut self) -> Stmt {
        let line = self.line(self.pos);
        self.pos += 1; // `return`
        let lo = self.pos;
        let mut d = 0i32;
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                d += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                if d == 0 {
                    break;
                }
                d -= 1;
            } else if d == 0 && t.is_punct(';') {
                break;
            }
            self.pos += 1;
        }
        let expr = if self.pos > lo {
            Some(self.expr_range(lo, self.pos))
        } else {
            None
        };
        if self.is(self.pos, ';') {
            self.pos += 1;
        }
        Stmt::Return(ReturnStmt { expr, line })
    }

    fn if_stmt(&mut self, out: &mut ParsedFile, self_ty: Option<&str>) -> Stmt {
        self.pos += 1; // `if`
        let lo = self.pos;
        let brace = self.find_block_open();
        let cond = self.expr_range(lo, brace);
        self.pos = brace;
        let then = if self.is(self.pos, '{') {
            self.block(out, self_ty)
        } else {
            Block::default()
        };
        let mut els = None;
        if self.is_kw(self.pos, "else") {
            self.pos += 1;
            if self.is_kw(self.pos, "if") {
                els = Some(Box::new(self.if_stmt(out, self_ty)));
            } else if self.is(self.pos, '{') {
                els = Some(Box::new(Stmt::Block(self.block(out, self_ty))));
            }
        }
        Stmt::If(IfStmt { cond, then, els })
    }

    fn match_stmt(&mut self, out: &mut ParsedFile, self_ty: Option<&str>) -> Stmt {
        self.pos += 1; // `match`
        let lo = self.pos;
        let brace = self.find_block_open();
        let scrutinee = self.expr_range(lo, brace);
        self.pos = brace;
        let mut arms = Vec::new();
        if self.is(self.pos, '{') {
            self.pos += 1;
            loop {
                while self.skip_attr() {}
                let Some(t) = self.cur() else { break };
                if t.is_punct('}') {
                    self.pos += 1;
                    break;
                }
                if t.is_punct(',') {
                    self.pos += 1;
                    continue;
                }
                // pattern (plus guard) until `=>` at depth 0
                let pat_lo = self.pos;
                let mut d = 0i32;
                while self.pos < self.toks.len() {
                    let t = &self.toks[self.pos];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        d += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                    } else if d == 0
                        && t.is_punct('=')
                        && self.is(self.pos + 1, '>')
                        && !(self.pos > 0
                            && (self.is(self.pos - 1, '>')
                                || self.is(self.pos - 1, '<')
                                || self.is(self.pos - 1, '=')
                                || self.is(self.pos - 1, '!')))
                    {
                        break;
                    }
                    self.pos += 1;
                }
                let pat_hi = self.pos;
                let (names, _) = pattern_names(&self.toks[pat_lo..pat_hi]);
                if !(self.is(self.pos, '=') && self.is(self.pos + 1, '>')) {
                    break; // malformed arm
                }
                self.pos += 2; // `=>`
                let body = if self.is(self.pos, '{') {
                    ArmBody::Block(self.block(out, self_ty))
                } else {
                    let blo = self.pos;
                    let mut d = 0i32;
                    while self.pos < self.toks.len() {
                        let t = &self.toks[self.pos];
                        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                            d += 1;
                        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                            if d == 0 {
                                break;
                            }
                            d -= 1;
                        } else if d == 0 && t.is_punct(',') {
                            break;
                        }
                        self.pos += 1;
                    }
                    ArmBody::Expr(self.expr_range(blo, self.pos))
                };
                arms.push(Arm { names, body });
            }
        }
        Stmt::Match(MatchStmt { scrutinee, arms })
    }

    fn expr_stmt(&mut self) -> Stmt {
        let lo = self.pos;
        let mut d = 0i32;
        let mut semi = false;
        while self.pos < self.toks.len() {
            let t = &self.toks[self.pos];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                d += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                if d == 0 {
                    break; // tail expression: enclosing `}` follows
                }
                d -= 1;
                // `… }` at depth 0 can end a statement (macro with brace
                // delimiter); continue scanning for `;` or `}`.
            } else if d == 0 && t.is_punct(';') {
                semi = true;
                self.pos += 1;
                break;
            }
            self.pos += 1;
        }
        let hi = if semi { self.pos - 1 } else { self.pos };
        Stmt::Expr(ExprStmt {
            expr: self.expr_range(lo, hi),
            semi,
        })
    }

    /// Build an [`ExprInfo`] for `[lo, hi)`, extracting calls.
    fn expr_range(&self, lo: usize, hi: usize) -> ExprInfo {
        ExprInfo {
            lo,
            hi,
            line: self.line(lo),
            calls: extract_calls(self.toks, lo, hi),
        }
    }
}

impl Block {
    /// Visit every [`ExprInfo`] in this block, depth first, in source
    /// order. Nested items ([`Stmt::Item`]) are not entered — their fns
    /// appear in [`ParsedFile::fns`] with their own bodies.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a ExprInfo)) {
        for s in &self.stmts {
            s.for_each_expr(f);
        }
    }
}

impl Stmt {
    /// Visit every [`ExprInfo`] in this statement, depth first.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a ExprInfo)) {
        match self {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    f(init);
                }
                if let Some(b) = &l.els {
                    b.for_each_expr(f);
                }
            }
            Stmt::Expr(e) => f(&e.expr),
            Stmt::Return(r) => {
                if let Some(e) = &r.expr {
                    f(e);
                }
            }
            Stmt::If(i) => {
                f(&i.cond);
                i.then.for_each_expr(f);
                if let Some(e) = &i.els {
                    e.for_each_expr(f);
                }
            }
            Stmt::Match(m) => {
                f(&m.scrutinee);
                for arm in &m.arms {
                    match &arm.body {
                        ArmBody::Block(b) => b.for_each_expr(f),
                        ArmBody::Expr(e) => f(e),
                    }
                }
            }
            Stmt::Loop(l) => {
                if let Some(h) = &l.header {
                    f(h);
                }
                l.body.for_each_expr(f);
            }
            Stmt::Block(b) => b.for_each_expr(f),
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Item => {}
        }
    }
}

/// Names a pattern binds: snake-case identifiers that are not path
/// segments (`Enum::Variant`), constructors (capitalized), keywords, or
/// field names in `field: binding` struct patterns (the binding side is
/// collected).
fn pattern_names(toks: &[Tok]) -> (Vec<String>, bool) {
    if toks.len() == 1 && toks[0].is_ident("_") {
        return (Vec::new(), true);
    }
    let mut names = Vec::new();
    let mut guard = false;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("if") {
            guard = true; // match-arm guard: uses, not bindings
        }
        if guard || t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text.as_str();
        if text == "_"
            || text == "mut"
            || text == "ref"
            || text == "if"
            || matches!(text.chars().next(), Some(c) if c.is_ascii_uppercase())
        {
            continue;
        }
        // path segment? (`a::b` — either side of `::`)
        let before = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        let after = i + 2 <= toks.len().saturating_sub(1)
            && toks[i + 1].is_punct(':')
            && toks.get(i + 2).map(|t| t.is_punct(':')).unwrap_or(false);
        if before || after {
            continue;
        }
        // struct-pattern `field: binding` — skip the field side
        if toks.get(i + 1).map(|t| t.is_punct(':')).unwrap_or(false)
            && !toks.get(i + 2).map(|t| t.is_punct(':')).unwrap_or(false)
        {
            continue;
        }
        if !names.iter().any(|n| n == text) {
            names.push(text.to_string());
        }
    }
    (names, false)
}

/// True when a pattern throws a component away: a `_` / `_x` binding or
/// a `..` rest pattern anywhere inside it.
fn pattern_discards(toks: &[Tok]) -> bool {
    let mut guard = false;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("if") {
            guard = true; // match-arm guard: expression territory
        }
        if guard {
            continue;
        }
        if t.kind == TokKind::Ident && t.text.starts_with('_') {
            return true;
        }
        // `..` rest pattern (but not `..=` ranges)
        if t.is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('.')).unwrap_or(false)
            && !toks.get(i + 2).map(|n| n.is_punct('=')).unwrap_or(false)
            && !(i > 0 && toks[i - 1].is_punct('.'))
        {
            return true;
        }
    }
    false
}

/// Extract every call expression in `toks[lo..hi]`.
pub fn extract_calls(toks: &[Tok], lo: usize, hi: usize) -> Vec<Call> {
    let mut out = Vec::new();
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            // walk the path backwards: `a::b::f(`
            let mut path = vec![t.text.clone()];
            let mut j = i;
            while j >= 2
                && toks[j - 1].is_punct(':')
                && toks[j - 2].is_punct(':')
                && j >= 3
                && toks[j - 3].kind == TokKind::Ident
            {
                path.insert(0, toks[j - 3].text.clone());
                j -= 3;
            }
            let method = j >= 1 && toks[j - 1].is_punct('.');
            // find the matching `)` and split top-level args
            let open = i + 1;
            let mut depth = 0i32;
            let mut k = open;
            let mut args = Vec::new();
            let mut arg_lo = open + 1;
            while k < toks.len() {
                let x = &toks[k];
                if x.is_punct('(') || x.is_punct('[') || x.is_punct('{') {
                    depth += 1;
                } else if x.is_punct(')') || x.is_punct(']') || x.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if x.is_punct(',') && depth == 1 {
                    args.push((arg_lo, k));
                    arg_lo = k + 1;
                }
                k += 1;
            }
            if k > open + 1 {
                args.push((arg_lo, k));
            }
            out.push(Call {
                path,
                method,
                tok: i,
                rparen: k.min(toks.len().saturating_sub(1)),
                line: t.line,
                args,
            });
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn fn_signature_is_extracted() {
        let f = parse_src(
            "impl FlashWal { pub fn force(&mut self, now: SimTime, to: Lsn) -> WalForce { WalForce { done: now, status: IoStatus::Ok } } }",
        );
        assert_eq!(f.fns.len(), 1);
        let fd = &f.fns[0];
        assert_eq!(fd.name, "force");
        assert_eq!(fd.self_ty.as_deref(), Some("FlashWal"));
        assert_eq!(fd.params.len(), 2);
        assert_eq!(fd.params[0].name, "now");
        assert_eq!(fd.params[0].ty, vec!["SimTime"]);
        assert_eq!(fd.ret, vec!["WalForce"]);
        assert!(fd.body.is_some());
    }

    #[test]
    fn trait_decl_methods_carry_the_trait_type() {
        let f = parse_src(
            "pub trait WalBackend { fn force(&mut self, now: SimTime, to: Lsn) -> WalForce; fn stats(&self) -> WalStats { WalStats::default() } }",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("WalBackend"));
        assert!(f.fns[0].body.is_none());
        assert!(f.fns[1].body.is_some());
    }

    #[test]
    fn impl_trait_for_type_attributes_methods_to_the_type() {
        let f = parse_src("impl WalBackend for PcmWal { fn id(&self) -> u32 { 7 } }");
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("PcmWal"));
    }

    #[test]
    fn use_trees_are_skipped() {
        // a `}` closing a use tree must not end the item list: the fns
        // around it still parse, at top level and inside a body
        let f = parse_src(
            "use requiem_sim::{time::SimTime, IoStatus as St, probe::*};\nfn after() { use a::{b, c as d}; inner(); }\nfn last() {}",
        );
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["after", "last"]);
        let mut calls = Vec::new();
        f.fns[0]
            .body
            .as_ref()
            .unwrap()
            .for_each_expr(&mut |e| calls.extend(e.calls.iter().map(|c| c.name().to_string())));
        assert_eq!(calls, vec!["inner"]);
    }

    #[test]
    fn struct_enum_bodies_are_skipped() {
        // a `}` closing a struct/enum body must not end the item list
        let f = parse_src(
            "pub struct WalForce { pub done: SimTime }\nenum IoStatus { Ok }\nfn after() {}",
        );
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["after"]);
    }

    #[test]
    fn statements_and_calls_are_modeled() {
        let f = parse_src(
            "fn f(&mut self) { let x = self.dev.force(now, to); if x.done > t { return; } match y { Some(v) => v.close(t), None => {} } x.status; }",
        );
        let body = f.fns[0].body.as_ref().unwrap();
        assert!(matches!(body.stmts[0], Stmt::Let(_)));
        assert!(matches!(body.stmts[1], Stmt::If(_)));
        assert!(matches!(body.stmts[2], Stmt::Match(_)));
        let Stmt::Let(l) = &body.stmts[0] else {
            unreachable!("first stmt is let");
        };
        assert_eq!(l.names, vec!["x"]);
        let init = l.init.as_ref().unwrap();
        assert_eq!(init.calls.len(), 1);
        assert_eq!(init.calls[0].path, vec!["force"]);
        assert!(init.calls[0].method);
        assert_eq!(init.calls[0].args.len(), 2);
    }

    #[test]
    fn let_else_and_returns_parse() {
        let f = parse_src(
            "fn f() -> u32 { let Some(v) = g() else { return 0; }; if v > 1 { return v; } v }",
        );
        let body = f.fns[0].body.as_ref().unwrap();
        let Stmt::Let(l) = &body.stmts[0] else {
            unreachable!("let-else first");
        };
        assert_eq!(l.names, vec!["v"]);
        assert!(l.els.is_some());
        // tail expression arrives with semi == false
        let Stmt::Expr(e) = body.stmts.last().unwrap() else {
            unreachable!("tail expr last");
        };
        assert!(!e.semi);
    }

    #[test]
    fn match_arms_split_and_bind_names() {
        let f = parse_src(
            "fn f(x: Option<u32>) -> u32 { match x { Some(n) if n > 2 => n, Some(other) => { other + 1 } _ => 0, } }",
        );
        let body = f.fns[0].body.as_ref().unwrap();
        let Stmt::Expr(_) = &body.stmts[0] else {
            // match in tail position parses as a Match statement
            let Stmt::Match(m) = &body.stmts[0] else {
                unreachable!("match stmt");
            };
            assert_eq!(m.arms.len(), 3);
            assert_eq!(m.arms[0].names, vec!["n"]);
            assert_eq!(m.arms[1].names, vec!["other"]);
            assert!(m.arms[2].names.is_empty());
            return;
        };
        unreachable!("match should parse as a structured statement");
    }

    #[test]
    fn nested_fns_and_closures_do_not_lose_calls() {
        let f = parse_src(
            "fn outer() { let c = items.iter().map(|x| helper(x)).count(); fn inner() { leaf(); } }",
        );
        assert_eq!(f.fns.len(), 2);
        let outer = f.fns.iter().find(|f| f.name == "outer").unwrap();
        let body = outer.body.as_ref().unwrap();
        let Stmt::Let(l) = &body.stmts[0] else {
            unreachable!("let stmt");
        };
        let names: Vec<&str> = l
            .init
            .as_ref()
            .unwrap()
            .calls
            .iter()
            .map(|c| c.name())
            .collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"map"));
    }

    #[test]
    fn qualified_call_paths_resolve() {
        let f = parse_src("fn f() { requiem_ssd::qpair::QueuePair::new(cfg); }");
        let body = f.fns[0].body.as_ref().unwrap();
        let Stmt::Expr(e) = &body.stmts[0] else {
            unreachable!("expr stmt");
        };
        assert_eq!(
            e.expr.calls[0].path,
            vec!["requiem_ssd", "qpair", "QueuePair", "new"]
        );
        assert!(!e.expr.calls[0].method);
    }

    #[test]
    fn generic_fn_and_where_clause_parse() {
        let f = parse_src(
            "fn f<B: WalBackend>(dev: &mut B, map: BTreeMap<u64, u64>) -> Vec<IoCompletion> where B: Sized { Vec::new() }",
        );
        let fd = &f.fns[0];
        assert_eq!(fd.params.len(), 2);
        assert_eq!(fd.params[1].name, "map");
        assert_eq!(fd.ret, vec!["Vec", "IoCompletion"]);
    }

    #[test]
    fn discard_patterns_are_detected() {
        let f = parse_src(
            "fn f() { let (done, _) = g(); let (a, _status) = g(); let WalForce { done, .. } = g(); let (x, y) = g(); let _ = g(); }",
        );
        let body = f.fns[0].body.as_ref().unwrap();
        let flags: Vec<(bool, bool)> = body
            .stmts
            .iter()
            .map(|s| {
                let Stmt::Let(l) = s else {
                    unreachable!("all stmts are lets");
                };
                (l.wild, l.discards)
            })
            .collect();
        assert_eq!(
            flags,
            vec![
                (false, true),
                (false, true),
                (false, true),
                (false, false),
                (true, false),
            ]
        );
    }

    #[test]
    fn expr_visitor_reaches_nested_branches() {
        let f = parse_src(
            "fn f() { if a() { b(); } else { match c() { Some(x) => d(x), None => {} } } while e() { g(); } }",
        );
        let body = f.fns[0].body.as_ref().unwrap();
        let mut names = Vec::new();
        body.for_each_expr(&mut |e| {
            for c in &e.calls {
                names.push(c.name().to_string());
            }
        });
        assert_eq!(names, vec!["a", "b", "c", "d", "e", "g"]);
    }

    #[test]
    fn tolerant_on_unterminated_input() {
        // must not panic or loop forever
        let _ = parse_src("fn broken(x: { let ");
        let _ = parse_src("impl { fn }");
        let _ = parse_src("match { => }");
    }
}
