//! Item/expression-level AST for the workspace analyzer.
//!
//! Deliberately smaller than the language: the parser is tolerant and
//! folds everything the rules don't inspect (operator soup, generics,
//! trait bounds) into [`Expr::Other`] nodes that still carry their
//! sub-expressions, so call/match/lock structure survives even where
//! the grammar is approximated.

/// One parsed source file.
#[derive(Debug, Default)]
pub struct File {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Directory name of the owning crate under `crates/` (e.g. `core`).
    pub crate_name: String,
    /// Top-level (and recursively, module-level) items.
    pub items: Vec<Item>,
}

/// A top-level or module-level item.
#[derive(Debug)]
pub enum Item {
    /// Free function or method (when inside [`Item::Impl`]).
    Fn(FnItem),
    /// Struct definition with named-field types.
    Struct(StructItem),
    /// Enum definition with variant names.
    Enum(EnumItem),
    /// `impl Type { .. }` / `impl Trait for Type { .. }` block.
    Impl(ImplBlock),
    /// Inline `mod name { .. }`.
    Mod(ModItem),
    /// `use path::to::Thing as Alias;`
    Use(UseItem),
    /// `const` / `static` with a parsed initializer (R2 coverage).
    Const(ConstItem),
}

/// How a method takes `self`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelfKind {
    /// Free function, no receiver.
    None,
    /// `&self`
    Ref,
    /// `&mut self`
    RefMut,
    /// `self` / `mut self`
    Owned,
}

/// One function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name (pattern params are flattened to `_`).
    pub name: String,
    /// Raw type text, tokens joined (e.g. `&mut TripleStore`).
    pub ty: String,
}

/// A function item (free or method).
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// `pub` (any visibility restriction counts as pub for the rules).
    pub is_pub: bool,
    /// Restricted visibility: `pub(crate)` / `pub(super)` / `pub(in ..)`.
    /// R7 skips these — a crate-internal helper is not part of the
    /// externally callable service surface.
    pub vis_restricted: bool,
    /// 1-based position of the `fn` keyword.
    pub line: usize,
    /// 1-based column of the `fn` keyword.
    pub col: usize,
    /// Receiver kind.
    pub self_kind: SelfKind,
    /// Non-self parameters.
    pub params: Vec<Param>,
    /// Raw return-type text, if any.
    pub ret: Option<String>,
    /// Body statements; `None` for body-less trait methods.
    pub body: Option<Vec<Expr>>,
    /// True when carrying `#[test]` or nested under `#[cfg(test)]`.
    pub is_test: bool,
    /// Types named in a `lint:mutator(..)` marker on this function.
    pub mutator_of: Vec<String>,
    /// Taint families from a `lint:root(..)` marker on this function.
    pub root_of: Vec<String>,
}

/// A struct definition (named fields only; tuple structs keep indices
/// as field names `"0"`, `"1"`, …).
#[derive(Debug)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// `(field name, raw type text)` pairs.
    pub fields: Vec<(String, String)>,
}

/// An enum definition.
#[derive(Debug)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
    /// Source line of the `enum` keyword.
    pub line: usize,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplBlock {
    /// Base name of the self type (`Hive` from `impl Hive`, also from
    /// `impl Trait for Hive`).
    pub self_ty: String,
    /// Methods and associated functions.
    pub fns: Vec<FnItem>,
}

/// An inline module.
#[derive(Debug)]
pub struct ModItem {
    /// Module name.
    pub name: String,
    /// True for `#[cfg(test)]` modules — their fns are test code.
    pub is_test: bool,
    /// Items inside the module.
    pub items: Vec<Item>,
}

/// A `use` declaration, flattened: one entry per imported leaf.
#[derive(Debug)]
pub struct UseItem {
    /// `(alias-or-leaf-name, full path segments)` pairs.
    pub imports: Vec<(String, Vec<String>)>,
}

/// A `const` / `static` item.
#[derive(Debug)]
pub struct ConstItem {
    /// Item name.
    pub name: String,
    /// Parsed initializer, when present.
    pub init: Option<Expr>,
}

/// An expression (statements are expressions too — `let` included).
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` path (single idents included).
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Source line.
        line: usize,
        /// Source column.
        col: usize,
    },
    /// `callee(args)` where callee is usually a path.
    Call {
        /// Called expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: usize,
        /// Source column.
        col: usize,
    },
    /// `recv.method(args)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line of the method name.
        line: usize,
        /// Source column of the method name.
        col: usize,
    },
    /// `base.field` / `base.0`.
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name (tuple indices as digits).
        name: String,
        /// Source line.
        line: usize,
        /// Source column.
        col: usize,
    },
    /// `name!(args)` macro invocation (args parsed best-effort).
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Best-effort parsed argument expressions.
        args: Vec<Expr>,
        /// Source line.
        line: usize,
        /// Source column.
        col: usize,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
        /// Source line of `match`.
        line: usize,
        /// Source column of `match`.
        col: usize,
    },
    /// `&expr` / `&mut expr`.
    Ref {
        /// True for `&mut`.
        is_mut: bool,
        /// Referenced expression.
        inner: Box<Expr>,
    },
    /// `let pat(:ty)? = init;` statement or `if let` condition.
    Let {
        /// Top-level pattern alternatives.
        pats: Vec<Pat>,
        /// Explicit type annotation text.
        ty: Option<String>,
        /// Initializer.
        init: Option<Box<Expr>>,
        /// `let .. else { }` — diverging fallback block.
        els: Option<Vec<Expr>>,
        /// Source line of `let`.
        line: usize,
        /// Source column of `let`.
        col: usize,
    },
    /// `{ stmts }`.
    Block(Vec<Expr>),
    /// `if cond { then } else { els }` (cond may be a `Let`).
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then-block statements.
        then: Vec<Expr>,
        /// Else branch (a `Block` or nested `If`).
        els: Option<Box<Expr>>,
    },
    /// `for pat in iter { body }`.
    ForLoop {
        /// Loop pattern (flattened).
        pat: Vec<Pat>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body statements.
        body: Vec<Expr>,
        /// Source line of `for`.
        line: usize,
    },
    /// `while cond { body }` / `loop { body }` (cond None for `loop`).
    While {
        /// Condition, if any.
        cond: Option<Box<Expr>>,
        /// Body statements.
        body: Vec<Expr>,
    },
    /// `|args| body` closure (body attributed to the enclosing fn).
    Closure {
        /// Closure body.
        body: Box<Expr>,
    },
    /// `lhs = rhs` or compound (`+=`, …) assignment.
    Assign {
        /// Assignment target.
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
        /// Source line of the operator.
        line: usize,
        /// Source column of the operator.
        col: usize,
    },
    /// Literal (contents opaque).
    Lit,
    /// Anything else, with child expressions preserved for traversal.
    Other(Vec<Expr>),
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// `|`-separated top-level pattern alternatives.
    pub pats: Vec<Pat>,
    /// Guard expression after `if`, when present.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
    /// Source line of the arm's first pattern token.
    pub line: usize,
}

/// A (top-level) pattern, structure kept only as deep as the rules need.
#[derive(Debug)]
pub enum Pat {
    /// `_`
    Wild,
    /// `..`
    Rest,
    /// Plain binding (`x`, `mut x`, `ref x`).
    Binding(String),
    /// Path pattern, optionally with payload sub-patterns
    /// (`Ok(g)`, `DbDelta::Follow { .. }`).
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Payload sub-patterns (tuple/struct fields, flattened).
        args: Vec<Pat>,
    },
    /// `(a, b)` tuple pattern.
    Tuple(Vec<Pat>),
    /// `&pat` / `&mut pat`.
    Ref(Box<Pat>),
    /// Literal or anything unmodeled.
    Other,
}

impl Expr {
    /// Source position of this node, when it carries one.
    pub fn pos(&self) -> Option<(usize, usize)> {
        match self {
            Expr::Path { line, col, .. }
            | Expr::Call { line, col, .. }
            | Expr::MethodCall { line, col, .. }
            | Expr::Field { line, col, .. }
            | Expr::Macro { line, col, .. }
            | Expr::Match { line, col, .. }
            | Expr::Let { line, col, .. }
            | Expr::Assign { line, col, .. } => Some((*line, *col)),
            Expr::ForLoop { line, .. } => Some((*line, 1)),
            _ => None,
        }
    }

    /// Visits this expression and all descendants, pre-order.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        let mut kids: Vec<&Expr> = Vec::new();
        match self {
            Expr::Path { .. } | Expr::Lit => {}
            Expr::Call { callee, args, .. } => {
                kids.push(callee);
                kids.extend(args.iter());
            }
            Expr::MethodCall { recv, args, .. } => {
                kids.push(recv);
                kids.extend(args.iter());
            }
            Expr::Field { base, .. } => kids.push(base),
            Expr::Macro { args, .. } => kids.extend(args.iter()),
            Expr::Match { scrutinee, arms, .. } => {
                kids.push(scrutinee);
                for a in arms {
                    if let Some(g) = &a.guard {
                        kids.push(g);
                    }
                    kids.push(&a.body);
                }
            }
            Expr::Ref { inner, .. } => kids.push(inner),
            Expr::Let { init, els, .. } => {
                if let Some(i) = init {
                    kids.push(i);
                }
                if let Some(e) = els {
                    kids.extend(e.iter());
                }
            }
            Expr::Block(stmts) => kids.extend(stmts.iter()),
            Expr::If { cond, then, els } => {
                kids.push(cond);
                kids.extend(then.iter());
                if let Some(e) = els {
                    kids.push(e);
                }
            }
            Expr::ForLoop { iter, body, .. } => {
                kids.push(iter);
                kids.extend(body.iter());
            }
            Expr::While { cond, body } => {
                if let Some(c) = cond {
                    kids.push(c);
                }
                kids.extend(body.iter());
            }
            Expr::Closure { body } => kids.push(body),
            Expr::Assign { target, value, .. } => {
                kids.push(target);
                kids.push(value);
            }
            Expr::Other(children) => kids.extend(children.iter()),
        }
        for k in kids {
            k.walk(f);
        }
    }
}

impl File {
    /// Visits every function in the file (free, impl, and nested in
    /// modules), with the impl self-type (if any) and an is-test flag
    /// that accounts for `#[cfg(test)]` module nesting.
    pub fn for_each_fn<'a>(&'a self, f: &mut dyn FnMut(Option<&'a str>, &'a FnItem, bool)) {
        fn items<'a>(
            list: &'a [Item],
            in_test: bool,
            f: &mut dyn FnMut(Option<&'a str>, &'a FnItem, bool),
        ) {
            for item in list {
                match item {
                    Item::Fn(func) => f(None, func, in_test || func.is_test),
                    Item::Impl(imp) => {
                        for func in &imp.fns {
                            f(Some(&imp.self_ty), func, in_test || func.is_test);
                        }
                    }
                    Item::Mod(m) => items(&m.items, in_test || m.is_test, f),
                    _ => {}
                }
            }
        }
        items(&self.items, false, f)
    }
}
