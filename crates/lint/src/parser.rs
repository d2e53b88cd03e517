//! Tolerant recursive-descent parser: token stream → [`crate::ast`].
//!
//! The parser never fails: unknown constructs are skipped token by
//! token or folded into [`Expr::Other`], and every loop is guaranteed
//! to advance. The goal is not fidelity to the grammar but a faithful
//! skeleton of items, calls, matches, and lock/loop structure for the
//! AST rules (R2, R7, R9–R12).

use crate::ast::*;
use crate::lexer::{Marker, MarkerKind, Tok, TokKind};

/// Parses one file's token stream into items. `markers` are the
/// `lint:` markers harvested by the lexer, used to attach
/// `lint:mutator(..)` / `lint:root(..)` declarations to functions.
pub fn parse(toks: &[Tok], markers: &[Marker]) -> Vec<Item> {
    let mut p = Parser { toks, pos: 0, markers, in_test_fn: false };
    p.items_until(None)
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    markers: &'a [Marker],
    /// True while parsing the body of a `#[test]` fn — nested items
    /// inherit test-ness.
    in_test_fn: bool,
}

struct Attrs {
    is_test: bool,
    is_cfg_test: bool,
    start_line: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + n)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(p))
    }

    fn at_ident(&self, id: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(id))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, id: &str) -> bool {
        if self.at_ident(id) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn line(&self) -> usize {
        self.peek().map_or(0, |t| t.line)
    }

    /// Skips a balanced `(..)` / `[..]` / `{..}` group; the opener is
    /// the current token.
    fn skip_group(&mut self) {
        let Some(open) = self.peek().map(|t| t.text.clone()) else { return };
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => {
                self.pos += 1;
                return;
            }
        };
        let mut depth = 0;
        while let Some(t) = self.bump() {
            if t.is_punct(&open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips `<..>` generics; current token is `<`. Handles `>>`.
    fn skip_generics(&mut self) {
        let mut depth: i32 = 0;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "<" | "<<" if t.kind == TokKind::Punct => {
                    depth += if t.text == "<<" { 2 } else { 1 };
                    self.pos += 1;
                }
                ">" | ">>" if t.kind == TokKind::Punct => {
                    depth -= if t.text == ">>" { 2 } else { 1 };
                    self.pos += 1;
                    if depth <= 0 {
                        return;
                    }
                }
                "(" | "[" => self.skip_group(),
                ";" | "{" => return, // bail out — not generics after all
                _ => self.pos += 1,
            }
            if depth == 0 {
                return;
            }
        }
    }

    /// Consumes attributes; returns what the rules need from them.
    fn attrs(&mut self) -> Attrs {
        let mut a = Attrs { is_test: false, is_cfg_test: false, start_line: self.line() };
        while self.at_punct("#") {
            if a.start_line == 0 {
                a.start_line = self.line();
            }
            self.pos += 1;
            self.eat_punct("!");
            if !self.at_punct("[") {
                continue;
            }
            // Collect the attribute's tokens to classify it.
            let start = self.pos;
            self.skip_group();
            let body: Vec<&str> =
                self.toks[start..self.pos].iter().map(|t| t.text.as_str()).collect();
            let has = |id: &str| body.iter().any(|&t| t == id);
            if body.get(1) == Some(&"test") && body.len() == 3 {
                a.is_test = true;
            }
            if body.get(1) == Some(&"cfg") && has("test") {
                a.is_cfg_test = true;
            }
        }
        a
    }

    /// Consumes a visibility qualifier, returning true if present.
    /// Parses a visibility qualifier: `(is_pub, restricted)`, where
    /// `restricted` marks `pub(crate)` / `pub(super)` / `pub(in ..)`.
    fn vis(&mut self) -> (bool, bool) {
        if self.eat_ident("pub") {
            if self.at_punct("(") {
                self.skip_group();
                (true, true)
            } else {
                (true, false)
            }
        } else {
            (false, false)
        }
    }

    /// Parses items until `}` (inside a block) or EOF (`until` None).
    fn items_until(&mut self, until: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if let Some(close) = until {
                if self.at_punct(close) {
                    self.pos += 1;
                    break;
                }
            }
            if self.peek().is_none() {
                break;
            }
            let before = self.pos;
            if let Some(item) = self.item() {
                items.push(item);
            }
            if self.pos == before {
                self.pos += 1; // always advance
            }
        }
        items
    }

    /// Parses one item, or skips tokens it does not recognize.
    fn item(&mut self) -> Option<Item> {
        let attrs = self.attrs();
        let (is_pub, vis_restricted) = self.vis();
        // `unsafe fn` / `const fn` / `async fn` / `extern "C" fn`.
        while self.at_ident("unsafe") || self.at_ident("async") || self.at_ident("extern") {
            self.pos += 1;
            if self.peek().is_some_and(|t| t.kind == TokKind::Literal) {
                self.pos += 1; // extern ABI string
            }
        }
        if self.at_ident("const") && self.peek_at(1).is_some_and(|t| t.is_ident("fn")) {
            self.pos += 1;
        }
        let t = self.peek()?;
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fn") => Some(Item::Fn(self.fn_item(&attrs, is_pub, vis_restricted))),
            (TokKind::Ident, "struct") => Some(self.struct_item()),
            (TokKind::Ident, "enum") => Some(self.enum_item()),
            (TokKind::Ident, "impl") | (TokKind::Ident, "trait") => Some(self.impl_item()),
            (TokKind::Ident, "mod") => self.mod_item(&attrs),
            (TokKind::Ident, "use") => Some(self.use_item()),
            (TokKind::Ident, "const") | (TokKind::Ident, "static") => Some(self.const_item()),
            (TokKind::Ident, "type") | (TokKind::Ident, "macro_rules") => {
                self.skip_to_semi_or_block();
                None
            }
            _ => {
                self.pos += 1;
                None
            }
        }
    }

    /// Skips to past the next `;` or balanced `{..}` at depth 0.
    fn skip_to_semi_or_block(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct(";") {
                self.pos += 1;
                return;
            }
            if t.is_punct("{") {
                self.skip_group();
                return;
            }
            if t.is_punct("(") || t.is_punct("[") {
                self.skip_group();
            } else {
                self.pos += 1;
            }
        }
    }

    /// Joins raw tokens into readable type text (`&mut TripleStore`,
    /// `Option<Arc<KnowledgeNetwork>>`).
    fn join_type(toks: &[Tok]) -> String {
        let mut out = String::new();
        let mut prev_word = false;
        for t in toks {
            let word = t.kind == TokKind::Ident || t.kind == TokKind::Lifetime;
            if word && prev_word {
                out.push(' ');
            }
            out.push_str(&t.text);
            prev_word = word;
        }
        out
    }

    /// Consumes type tokens until a `,` / `)` / `;` / `=` / `{` at
    /// depth 0, returning the joined text.
    fn type_text(&mut self, extra_stops: &[&str]) -> String {
        let start = self.pos;
        let mut angle: i32 = 0;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        if angle == 0 {
                            break;
                        }
                        angle -= 1;
                    }
                    ">>" => angle -= 2,
                    "(" | "[" => {
                        self.skip_group();
                        continue;
                    }
                    s if angle == 0
                        && (s == "," || s == ")" || s == ";" || s == "{" || s == "}"
                            || s == "=" || extra_stops.contains(&s)) =>
                    {
                        break;
                    }
                    _ => {}
                }
            } else if angle == 0 && extra_stops.contains(&t.text.as_str()) {
                break;
            }
            self.pos += 1;
        }
        Self::join_type(&self.toks[start..self.pos])
    }

    fn fn_item(&mut self, attrs: &Attrs, is_pub: bool, vis_restricted: bool) -> FnItem {
        let (line, col) = self.peek().map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.pos += 1; // fn
        let name = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => self.bump().map(|t| t.text.clone()),
            _ => None,
        }
        .unwrap_or_default();
        if self.at_punct("<") {
            self.skip_generics();
        }
        let (self_kind, params) = self.fn_params();
        let ret = if self.eat_punct("->") {
            let text = self.type_text(&["where"]);
            Some(text)
        } else {
            None
        };
        // Skip a where-clause up to the body or `;`.
        if self.at_ident("where") {
            while let Some(t) = self.peek() {
                if t.is_punct("{") || t.is_punct(";") {
                    break;
                }
                if t.is_punct("(") || t.is_punct("[") {
                    self.skip_group();
                } else {
                    self.pos += 1;
                }
            }
        }
        let body_open_line = self.line();
        let was_test = self.in_test_fn;
        let is_test = attrs.is_test || was_test;
        self.in_test_fn = is_test;
        let body = if self.at_punct("{") { Some(self.block()) } else { self.eat_punct(";").then(Vec::new) };
        self.in_test_fn = was_test;
        // Attach lint:mutator / lint:root markers declared on or just
        // above the signature (doc comments included via the window).
        let lo = attrs.start_line.max(3).saturating_sub(2).min(line.saturating_sub(2).max(1));
        let hi = body_open_line.max(line);
        let mut mutator_of = Vec::new();
        let mut root_of = Vec::new();
        for m in self.markers {
            if m.line >= lo && m.line <= hi {
                match m.kind {
                    MarkerKind::Mutator => mutator_of.extend(m.args.iter().cloned()),
                    MarkerKind::Root => root_of.extend(m.args.iter().cloned()),
                    MarkerKind::Allow => {}
                }
            }
        }
        FnItem {
            name,
            is_pub,
            vis_restricted,
            line,
            col,
            self_kind,
            params,
            ret,
            body,
            is_test,
            mutator_of,
            root_of,
        }
    }

    fn fn_params(&mut self) -> (SelfKind, Vec<Param>) {
        let mut self_kind = SelfKind::None;
        let mut params = Vec::new();
        if !self.eat_punct("(") {
            return (self_kind, params);
        }
        loop {
            if self.eat_punct(")") || self.peek().is_none() {
                break;
            }
            // Receiver forms.
            if self.at_punct("&") {
                let mut k = 1;
                if self.peek_at(1).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    k += 1;
                }
                let is_mut = self.peek_at(k).is_some_and(|t| t.is_ident("mut"));
                let at_self = self.peek_at(k + usize::from(is_mut)).is_some_and(|t| t.is_ident("self"));
                if at_self {
                    self.pos += k + usize::from(is_mut) + 1;
                    self_kind = if is_mut { SelfKind::RefMut } else { SelfKind::Ref };
                    self.eat_punct(",");
                    continue;
                }
            }
            if self.at_ident("self")
                || (self.at_ident("mut") && self.peek_at(1).is_some_and(|t| t.is_ident("self")))
            {
                self.eat_ident("mut");
                self.pos += 1;
                self_kind = SelfKind::Owned;
                self.eat_punct(",");
                continue;
            }
            // Ordinary param: pattern `:` type.
            self.eat_ident("mut");
            let name = match self.peek() {
                Some(t) if t.kind == TokKind::Ident => {
                    let n = t.text.clone();
                    self.pos += 1;
                    n
                }
                Some(t) if t.is_punct("(") || t.is_punct("[") => {
                    self.skip_group();
                    "_".to_string()
                }
                _ => {
                    self.pos += 1;
                    "_".to_string()
                }
            };
            let ty = if self.eat_punct(":") { self.type_text(&[]) } else { String::new() };
            params.push(Param { name, ty });
            if !self.eat_punct(",") && self.eat_punct(")") {
                break;
            }
        }
        (self_kind, params)
    }

    fn struct_item(&mut self) -> Item {
        self.pos += 1; // struct
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        if self.at_punct("<") {
            self.skip_generics();
        }
        let mut fields = Vec::new();
        if self.at_punct("(") {
            // Tuple struct: fields named by index.
            self.pos += 1;
            let mut idx = 0;
            while !self.eat_punct(")") && self.peek().is_some() {
                self.vis();
                let ty = self.type_text(&[]);
                if !ty.is_empty() {
                    fields.push((idx.to_string(), ty));
                }
                idx += 1;
                if !self.eat_punct(",") && self.at_punct(")") {
                    continue;
                }
            }
            self.eat_punct(";");
        } else if self.at_ident("where") {
            self.skip_to_semi_or_block();
        } else if self.at_punct("{") {
            self.pos += 1;
            while !self.eat_punct("}") && self.peek().is_some() {
                self.attrs();
                self.vis();
                let Some(t) = self.peek() else { break };
                if t.kind == TokKind::Ident {
                    let fname = t.text.clone();
                    self.pos += 1;
                    if self.eat_punct(":") {
                        let ty = self.type_text(&[]);
                        fields.push((fname, ty));
                    }
                }
                if !self.eat_punct(",") && !self.at_punct("}") {
                    self.pos += 1;
                }
            }
        } else {
            self.eat_punct(";");
        }
        Item::Struct(StructItem { name, fields })
    }

    fn enum_item(&mut self) -> Item {
        let line = self.line();
        self.pos += 1; // enum
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        if self.at_punct("<") {
            self.skip_generics();
        }
        let mut variants = Vec::new();
        if self.at_punct("{") {
            self.pos += 1;
            while !self.eat_punct("}") && self.peek().is_some() {
                self.attrs();
                let Some(t) = self.peek() else { break };
                if t.kind == TokKind::Ident {
                    variants.push(t.text.clone());
                    self.pos += 1;
                    if self.at_punct("(") || self.at_punct("{") {
                        self.skip_group();
                    }
                    if self.eat_punct("=") {
                        // Discriminant: skip to `,` / `}`.
                        while let Some(t) = self.peek() {
                            if t.is_punct(",") || t.is_punct("}") {
                                break;
                            }
                            self.pos += 1;
                        }
                    }
                }
                if !self.eat_punct(",") && !self.at_punct("}") {
                    self.pos += 1;
                }
            }
        }
        Item::Enum(EnumItem { name, variants, line })
    }

    /// `impl` blocks and `trait` definitions (default method bodies are
    /// analyzed like inherent methods).
    fn impl_item(&mut self) -> Item {
        let is_trait = self.at_ident("trait");
        self.pos += 1;
        if self.at_punct("<") {
            self.skip_generics();
        }
        // Self-type: last path-ish ident before the `{` (handles
        // `impl Trait for Type`, `impl Type`, generics stripped).
        let mut self_ty = String::new();
        while let Some(t) = self.peek() {
            if t.is_punct("{") {
                break;
            }
            if t.is_punct(";") {
                self.pos += 1;
                return Item::Impl(ImplBlock { self_ty, fns: Vec::new() });
            }
            if t.kind == TokKind::Ident && t.text != "for" && t.text != "where" && t.text != "dyn" {
                self_ty = t.text.clone();
            }
            if t.is_punct("<") {
                self.skip_generics();
            } else if t.is_punct("(") {
                self.skip_group();
            } else {
                self.pos += 1;
            }
        }
        if is_trait {
            // Keep trait name as the nominal self type.
        }
        let mut fns = Vec::new();
        if self.eat_punct("{") {
            loop {
                if self.eat_punct("}") || self.peek().is_none() {
                    break;
                }
                let before = self.pos;
                let attrs = self.attrs();
                let (is_pub, vis_restricted) = self.vis();
                while self.at_ident("unsafe") || self.at_ident("async") || self.at_ident("default")
                {
                    self.pos += 1;
                }
                if self.at_ident("const") && self.peek_at(1).is_some_and(|t| t.is_ident("fn")) {
                    self.pos += 1;
                }
                if self.at_ident("fn") {
                    fns.push(self.fn_item(&attrs, is_pub, vis_restricted));
                } else if self.at_ident("const") || self.at_ident("type") {
                    self.skip_to_semi_or_block();
                }
                if self.pos == before {
                    self.pos += 1;
                }
            }
        }
        Item::Impl(ImplBlock { self_ty, fns })
    }

    fn mod_item(&mut self, attrs: &Attrs) -> Option<Item> {
        self.pos += 1; // mod
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        if self.eat_punct(";") {
            return None; // out-of-line module — scanned as its own file
        }
        if !self.eat_punct("{") {
            return None;
        }
        let items = self.items_until(Some("}"));
        Some(Item::Mod(ModItem { name, is_test: attrs.is_cfg_test, items }))
    }

    fn use_item(&mut self) -> Item {
        self.pos += 1; // use
        let mut imports = Vec::new();
        self.use_tree(Vec::new(), &mut imports);
        self.eat_punct(";");
        Item::Use(UseItem { imports })
    }

    fn use_tree(&mut self, prefix: Vec<String>, out: &mut Vec<(String, Vec<String>)>) {
        let mut path = prefix;
        loop {
            let Some(t) = self.peek() else { return };
            if t.kind == TokKind::Ident {
                path.push(t.text.clone());
                self.pos += 1;
                if self.at_ident("as") {
                    self.pos += 1;
                    if let Some(alias) = self.peek().map(|t| t.text.clone()) {
                        self.pos += 1;
                        out.push((alias, path));
                    }
                    return;
                }
                if !self.eat_punct("::") {
                    let leaf = path.last().cloned().unwrap_or_default();
                    out.push((leaf, path));
                    return;
                }
            } else if t.is_punct("{") {
                self.pos += 1;
                loop {
                    if self.eat_punct("}") || self.peek().is_none() {
                        return;
                    }
                    let before = self.pos;
                    self.use_tree(path.clone(), out);
                    self.eat_punct(",");
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
            } else if t.is_punct("*") {
                self.pos += 1;
                return; // glob — unresolvable, ignored
            } else {
                return;
            }
        }
    }

    fn const_item(&mut self) -> Item {
        self.pos += 1; // const | static
        self.eat_ident("mut");
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        if self.eat_punct(":") {
            self.type_text(&[]);
        }
        let init = if self.eat_punct("=") { Some(self.expr(true)) } else { None };
        self.eat_punct(";");
        Item::Const(ConstItem { name, init })
    }

    // -- statements & expressions ---------------------------------------

    /// Parses a `{ .. }` block into its statements; current token is `{`.
    fn block(&mut self) -> Vec<Expr> {
        let mut stmts = Vec::new();
        if !self.eat_punct("{") {
            return stmts;
        }
        loop {
            if self.eat_punct("}") || self.peek().is_none() {
                break;
            }
            let before = self.pos;
            if self.eat_punct(";") {
                continue;
            }
            if self.at_punct("#") {
                self.attrs();
                continue;
            }
            let t = self.peek().map(|t| t.text.clone()).unwrap_or_default();
            let is_item_kw = matches!(
                t.as_str(),
                "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "use" | "macro_rules"
            ) || (t == "pub")
                || ((t == "const" || t == "static" || t == "type")
                    && self.peek_at(1).is_some_and(|n| n.kind == TokKind::Ident)
                    && self.peek_at(2).is_some_and(|n| n.is_punct(":") || n.is_ident("fn")));
            if is_item_kw && self.peek().is_some_and(|x| x.kind == TokKind::Ident) {
                // Nested item inside a body: keep its fns for R2 by
                // folding their statements into this block.
                if let Some(item) = self.item() {
                    match item {
                        Item::Fn(f) => {
                            if let Some(b) = f.body {
                                stmts.push(Expr::Block(b));
                            }
                        }
                        Item::Const(c) => {
                            if let Some(e) = c.init {
                                stmts.push(e);
                            }
                        }
                        _ => {}
                    }
                }
                if self.pos == before {
                    self.pos += 1;
                }
                continue;
            }
            if self.at_ident("let") {
                stmts.push(self.let_stmt());
            } else {
                stmts.push(self.expr(true));
                self.eat_punct(";");
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
        stmts
    }

    fn let_stmt(&mut self) -> Expr {
        let (line, col) = self.peek().map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.pos += 1; // let
        let pats = self.pattern_alts(&["=", ":", ";"]);
        let ty = if self.eat_punct(":") { Some(self.type_text(&[])) } else { None };
        let init = if self.eat_punct("=") { Some(Box::new(self.expr(true))) } else { None };
        let els = if self.at_ident("else") {
            self.pos += 1;
            Some(self.block())
        } else {
            None
        };
        self.eat_punct(";");
        Expr::Let { pats, ty, init, els, line, col }
    }

    /// `|`-separated pattern alternatives, stopping at any of `stops`
    /// (punct or ident text) at depth 0.
    fn pattern_alts(&mut self, stops: &[&str]) -> Vec<Pat> {
        let mut pats = vec![self.pattern(stops)];
        while self.at_punct("|") {
            self.pos += 1;
            pats.push(self.pattern(stops));
        }
        pats
    }

    fn pattern(&mut self, stops: &[&str]) -> Pat {
        let Some(t) = self.peek() else { return Pat::Other };
        if stops.contains(&t.text.as_str()) {
            return Pat::Other;
        }
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "_") | (TokKind::Ident, "_") => {
                self.pos += 1;
                Pat::Wild
            }
            (TokKind::Punct, "..") | (TokKind::Punct, "..=") => {
                self.pos += 1;
                // Open range pattern `..=N`: consume the bound.
                if self.peek().is_some_and(|t| t.kind == TokKind::Literal) {
                    self.pos += 1;
                    return Pat::Other;
                }
                Pat::Rest
            }
            (TokKind::Punct, "&") | (TokKind::Punct, "&&") => {
                self.pos += 1;
                self.eat_ident("mut");
                Pat::Ref(Box::new(self.pattern(stops)))
            }
            (TokKind::Punct, "(") => {
                self.pos += 1;
                let mut inner = Vec::new();
                while !self.eat_punct(")") && self.peek().is_some() {
                    let before = self.pos;
                    inner.push(self.pattern(&[",", ")"]));
                    self.eat_punct(",");
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
                Pat::Tuple(inner)
            }
            (TokKind::Punct, "[") => {
                self.skip_group();
                Pat::Other
            }
            (TokKind::Literal, _) | (TokKind::Punct, "-") => {
                self.pos += 1;
                if self.at_punct("..") || self.at_punct("..=") {
                    self.pos += 1;
                    if self.peek().is_some_and(|t| t.kind == TokKind::Literal) {
                        self.pos += 1;
                    }
                }
                Pat::Other
            }
            (TokKind::Ident, "ref") | (TokKind::Ident, "mut") => {
                self.pos += 1;
                self.eat_ident("mut");
                match self.peek() {
                    Some(t) if t.kind == TokKind::Ident => {
                        let name = t.text.clone();
                        self.pos += 1;
                        Pat::Binding(name)
                    }
                    _ => Pat::Other,
                }
            }
            (TokKind::Ident, "true") | (TokKind::Ident, "false") => {
                self.pos += 1;
                Pat::Other
            }
            (TokKind::Ident, _) => {
                let mut segs = vec![t.text.clone()];
                self.pos += 1;
                while self.at_punct("::") {
                    self.pos += 1;
                    match self.peek() {
                        Some(n) if n.kind == TokKind::Ident => {
                            segs.push(n.text.clone());
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                let mut args = Vec::new();
                if self.at_punct("(") {
                    self.pos += 1;
                    while !self.eat_punct(")") && self.peek().is_some() {
                        let before = self.pos;
                        args.push(self.pattern(&[",", ")"]));
                        self.eat_punct(",");
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                } else if self.at_punct("{") {
                    self.pos += 1;
                    while !self.eat_punct("}") && self.peek().is_some() {
                        let before = self.pos;
                        if self.eat_punct("..") {
                            args.push(Pat::Rest);
                        } else if self.peek().is_some_and(|t| t.kind == TokKind::Ident) {
                            let fname = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                            if self.eat_punct(":") {
                                args.push(self.pattern(&[",", "}"]));
                            } else {
                                args.push(Pat::Binding(fname)); // shorthand
                            }
                        }
                        self.eat_punct(",");
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                } else if segs.len() == 1
                    && segs[0].chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    // Lone lowercase ident with no payload: a binding
                    // (possibly `x @ pat`).
                    let name = segs.pop().unwrap_or_default();
                    if self.eat_punct("@") {
                        self.pattern(stops);
                    }
                    return Pat::Binding(name);
                }
                Pat::Path { segs, args }
            }
            _ => {
                self.pos += 1;
                Pat::Other
            }
        }
    }

    /// Parses one expression. `allow_struct` gates `Path { .. }` struct
    /// literals (off in `if`/`while`/`for`/`match` headers).
    fn expr(&mut self, allow_struct: bool) -> Expr {
        let mut lhs = self.unary(allow_struct);
        loop {
            let Some(t) = self.peek() else { break };
            if t.kind != TokKind::Punct && !t.is_ident("as") {
                break;
            }
            match t.text.as_str() {
                "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => {
                    let (line, col) = (t.line, t.col);
                    self.pos += 1;
                    let value = self.expr(allow_struct);
                    lhs = Expr::Assign {
                        target: Box::new(lhs),
                        value: Box::new(value),
                        line,
                        col,
                    };
                }
                "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|" | "&&" | "||" | "==" | "!=" | "<"
                | ">" | "<=" | ">=" | "<<" | ">>" => {
                    self.pos += 1;
                    let rhs = self.unary(allow_struct);
                    lhs = Expr::Other(vec![lhs, rhs]);
                }
                ".." | "..=" => {
                    self.pos += 1;
                    // Right side optional (`&v[1..]`).
                    if self.peek().is_some_and(|n| {
                        !matches!(n.text.as_str(), ")" | "]" | "}" | "," | ";" | "{")
                    }) {
                        let rhs = self.unary(allow_struct);
                        lhs = Expr::Other(vec![lhs, rhs]);
                    } else {
                        lhs = Expr::Other(vec![lhs]);
                    }
                }
                "as" => {
                    self.pos += 1;
                    self.type_text(&[
                        "+", "-", "*", "/", "%", "as", ">", "]", "}", "==", "!=", ">=", "<=",
                    ]);
                    // keep lhs
                }
                _ => break,
            }
        }
        lhs
    }

    /// Prefix operators + a primary + postfix chain.
    fn unary(&mut self, allow_struct: bool) -> Expr {
        let Some(t) = self.peek() else { return Expr::Other(Vec::new()) };
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "&") | (TokKind::Punct, "&&") => {
                let double = t.text == "&&";
                self.pos += 1;
                let is_mut = self.eat_ident("mut");
                let inner = self.unary(allow_struct);
                let once = Expr::Ref { is_mut, inner: Box::new(inner) };
                if double {
                    Expr::Ref { is_mut: false, inner: Box::new(once) }
                } else {
                    once
                }
            }
            (TokKind::Punct, "*") | (TokKind::Punct, "-") | (TokKind::Punct, "!") => {
                self.pos += 1;
                let inner = self.unary(allow_struct);
                self.postfix(Expr::Other(vec![inner]), allow_struct)
            }
            _ => {
                let prim = self.primary(allow_struct);
                self.postfix(prim, allow_struct)
            }
        }
    }

    fn primary(&mut self, allow_struct: bool) -> Expr {
        let Some(t) = self.peek() else { return Expr::Other(Vec::new()) };
        let (line, col) = (t.line, t.col);
        match (t.kind, t.text.as_str()) {
            (TokKind::Literal, _) => {
                self.pos += 1;
                Expr::Lit
            }
            (TokKind::Lifetime, _) => {
                // Loop label: `'outer: loop { .. }`.
                self.pos += 1;
                self.eat_punct(":");
                self.primary(allow_struct)
            }
            (TokKind::Punct, "|") | (TokKind::Punct, "||") => self.closure(),
            (TokKind::Punct, "(") => {
                self.pos += 1;
                let mut inner = Vec::new();
                while !self.eat_punct(")") && self.peek().is_some() {
                    let before = self.pos;
                    inner.push(self.expr(true));
                    self.eat_punct(",");
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
                if inner.len() == 1 {
                    inner.pop().unwrap_or(Expr::Other(Vec::new()))
                } else {
                    Expr::Other(inner)
                }
            }
            (TokKind::Punct, "[") => {
                self.pos += 1;
                let mut inner = Vec::new();
                while !self.eat_punct("]") && self.peek().is_some() {
                    let before = self.pos;
                    inner.push(self.expr(true));
                    if !self.eat_punct(",") {
                        self.eat_punct(";");
                    }
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
                Expr::Other(inner)
            }
            (TokKind::Punct, "{") => Expr::Block(self.block()),
            (TokKind::Ident, "if") => self.if_expr(),
            (TokKind::Ident, "match") => self.match_expr(),
            (TokKind::Ident, "for") => {
                let line = t.line;
                self.pos += 1;
                let pat = self.pattern_alts(&["in"]);
                self.eat_ident("in");
                let iter = self.expr(false);
                let body = self.block();
                Expr::ForLoop { pat, iter: Box::new(iter), body, line }
            }
            (TokKind::Ident, "while") => {
                self.pos += 1;
                let cond = if self.at_ident("let") {
                    self.let_cond()
                } else {
                    self.expr(false)
                };
                let body = self.block();
                Expr::While { cond: Some(Box::new(cond)), body }
            }
            (TokKind::Ident, "loop") => {
                self.pos += 1;
                Expr::While { cond: None, body: self.block() }
            }
            (TokKind::Ident, "unsafe") | (TokKind::Ident, "async") => {
                self.pos += 1;
                self.eat_ident("move");
                if self.at_punct("{") {
                    Expr::Block(self.block())
                } else {
                    self.primary(allow_struct)
                }
            }
            (TokKind::Ident, "move") => {
                self.pos += 1;
                self.closure()
            }
            (TokKind::Ident, "return") | (TokKind::Ident, "break") | (TokKind::Ident, "continue") => {
                self.pos += 1;
                if self.peek().is_some_and(|n| n.kind == TokKind::Lifetime) {
                    self.pos += 1; // labeled break
                }
                if self.peek().is_some_and(|n| {
                    !matches!(n.text.as_str(), ";" | ")" | "]" | "}" | ",")
                }) {
                    Expr::Other(vec![self.expr(allow_struct)])
                } else {
                    Expr::Other(Vec::new())
                }
            }
            (TokKind::Ident, _) => {
                // Path, macro call, or struct literal.
                let mut segs = vec![t.text.clone()];
                self.pos += 1;
                loop {
                    if self.at_punct("::") {
                        match self.peek_at(1) {
                            Some(n) if n.kind == TokKind::Ident => {
                                self.pos += 1;
                                segs.push(self.bump().map(|t| t.text.clone()).unwrap_or_default());
                            }
                            Some(n) if n.is_punct("<") => {
                                self.pos += 1;
                                self.skip_generics(); // turbofish
                            }
                            _ => break,
                        }
                    } else {
                        break;
                    }
                }
                if self.at_punct("!") {
                    // Macro invocation.
                    self.pos += 1;
                    let name = segs.pop().unwrap_or_default();
                    let args = self.macro_args();
                    return Expr::Macro { name, args, line, col };
                }
                if allow_struct && self.at_punct("{") && self.struct_lit_ahead() {
                    let path = Expr::Path { segs, line, col };
                    let mut children = vec![path];
                    self.pos += 1; // {
                    while !self.eat_punct("}") && self.peek().is_some() {
                        let before = self.pos;
                        if self.eat_punct("..") {
                            // `Foo { .. }` in a pattern (say, inside
                            // `matches!`) has no base to parse.
                            if !self.at_punct("}") {
                                children.push(self.expr(true)); // base
                            }
                        } else if self.peek().is_some_and(|t| t.kind == TokKind::Ident) {
                            let fseg = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                            if self.eat_punct(":") {
                                children.push(self.expr(true));
                            } else {
                                // Shorthand `Foo { x }` — the field
                                // value is the local `x`.
                                children.push(Expr::Path {
                                    segs: vec![fseg],
                                    line: self.line(),
                                    col: 0,
                                });
                            }
                        }
                        self.eat_punct(",");
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                    return Expr::Other(children);
                }
                Expr::Path { segs, line, col }
            }
            _ => {
                self.pos += 1;
                Expr::Other(Vec::new())
            }
        }
    }

    /// After `Path {`: does this look like a struct literal (field
    /// syntax) rather than a stray block? Checks the first tokens.
    fn struct_lit_ahead(&self) -> bool {
        // `{ }`, `{ ident :`, `{ ident ,`, `{ ident }`, `{ .. }`.
        let Some(n1) = self.peek_at(1) else { return false };
        if n1.is_punct("}") || n1.is_punct("..") {
            return true;
        }
        if n1.kind != TokKind::Ident {
            return false;
        }
        match self.peek_at(2) {
            Some(n2) => n2.is_punct(":") || n2.is_punct(",") || n2.is_punct("}"),
            None => false,
        }
    }

    fn macro_args(&mut self) -> Vec<Expr> {
        let Some(open) = self.peek().map(|t| t.text.clone()) else { return Vec::new() };
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return Vec::new(),
        };
        self.pos += 1;
        let mut args = Vec::new();
        while self.peek().is_some() && !self.at_punct(close) {
            let before = self.pos;
            args.push(self.expr(true));
            if !self.eat_punct(",") {
                self.eat_punct(";");
            }
            if self.pos == before {
                self.pos += 1;
            }
        }
        self.eat_punct(close);
        args
    }

    fn closure(&mut self) -> Expr {
        // `|params| expr` or `|| expr`; params skipped.
        if self.eat_punct("||") {
            // no params
        } else if self.eat_punct("|") {
            let mut depth = 0;
            while let Some(t) = self.peek() {
                if depth == 0 && t.is_punct("|") {
                    self.pos += 1;
                    break;
                }
                match t.text.as_str() {
                    "(" | "[" | "{" => self.skip_group(),
                    "<" => self.skip_generics(),
                    _ => {
                        if t.is_punct("(") {
                            depth += 1;
                        }
                        self.pos += 1;
                    }
                }
            }
        }
        if self.eat_punct("->") {
            self.type_text(&[]);
        }
        let body = if self.at_punct("{") { Expr::Block(self.block()) } else { self.expr(true) };
        Expr::Closure { body: Box::new(body) }
    }

    fn let_cond(&mut self) -> Expr {
        let (line, col) = self.peek().map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.pos += 1; // let
        let pats = self.pattern_alts(&["="]);
        let init = if self.eat_punct("=") { Some(Box::new(self.expr(false))) } else { None };
        Expr::Let { pats, ty: None, init, els: None, line, col }
    }

    fn if_expr(&mut self) -> Expr {
        self.pos += 1; // if
        let cond = if self.at_ident("let") { self.let_cond() } else { self.expr(false) };
        let then = self.block();
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.if_expr()))
            } else {
                Some(Box::new(Expr::Block(self.block())))
            }
        } else {
            None
        };
        Expr::If { cond: Box::new(cond), then, els }
    }

    fn match_expr(&mut self) -> Expr {
        let (line, col) = self.peek().map(|t| (t.line, t.col)).unwrap_or((0, 0));
        self.pos += 1; // match
        let scrutinee = self.expr(false);
        let mut arms = Vec::new();
        if self.eat_punct("{") {
            loop {
                if self.eat_punct("}") || self.peek().is_none() {
                    break;
                }
                let before = self.pos;
                if self.at_punct("#") {
                    self.attrs();
                }
                let arm_line = self.line();
                let pats = self.pattern_alts(&["=>", "if"]);
                let guard = if self.eat_ident("if") {
                    Some(self.expr(false))
                } else {
                    None
                };
                self.eat_punct("=>");
                let body = self.expr(true);
                self.eat_punct(",");
                arms.push(Arm { pats, guard, body, line: arm_line });
                if self.pos == before {
                    self.pos += 1;
                }
            }
        }
        Expr::Match { scrutinee: Box::new(scrutinee), arms, line, col }
    }

    fn postfix(&mut self, mut e: Expr, allow_struct: bool) -> Expr {
        loop {
            let Some(t) = self.peek() else { break };
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, ".") => {
                    let Some(n) = self.peek_at(1) else { break };
                    if n.kind == TokKind::Ident {
                        let method = n.text.clone();
                        let (line, col) = (n.line, n.col);
                        self.pos += 2;
                        // Turbofish between name and args.
                        if self.at_punct("::") && self.peek_at(1).is_some_and(|x| x.is_punct("<"))
                        {
                            self.pos += 1;
                            self.skip_generics();
                        }
                        if self.at_punct("(") {
                            let args = self.call_args();
                            e = Expr::MethodCall { recv: Box::new(e), method, args, line, col };
                        } else {
                            e = Expr::Field { base: Box::new(e), name: method, line, col };
                        }
                    } else if n.kind == TokKind::Literal {
                        // Tuple field access `t.0` (also `t.0.1` lexed
                        // as the float `0.1` — take the text as-is).
                        let (line, col) = (n.line, n.col);
                        let name = n.text.clone();
                        self.pos += 2;
                        e = Expr::Field { base: Box::new(e), name, line, col };
                    } else {
                        break;
                    }
                }
                (TokKind::Punct, "(") => {
                    let (line, col) = (t.line, t.col);
                    let args = self.call_args();
                    e = Expr::Call { callee: Box::new(e), args, line, col };
                }
                (TokKind::Punct, "[") => {
                    self.pos += 1;
                    let mut idx = Vec::new();
                    while !self.eat_punct("]") && self.peek().is_some() {
                        let before = self.pos;
                        idx.push(self.expr(true));
                        if self.pos == before {
                            self.pos += 1;
                        }
                    }
                    let mut children = vec![e];
                    children.extend(idx);
                    e = Expr::Other(children);
                }
                (TokKind::Punct, "?") => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let _ = allow_struct;
        e
    }

    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct("(") {
            return args;
        }
        while !self.eat_punct(")") && self.peek().is_some() {
            let before = self.pos;
            args.push(self.expr(true));
            self.eat_punct(",");
            if self.pos == before {
                self.pos += 1;
            }
        }
        args
    }
}
