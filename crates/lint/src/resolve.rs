//! Symbol table, receiver-type inference, and call graph over the
//! parsed workspace.
//!
//! [`Workspace::build`] digests every parsed file into per-function
//! [`FnRecord`]s: resolved call edges, match shapes, lock-guard scopes,
//! panic sites, and taint sinks. The rule pass ([`crate::rules`])
//! then works purely on these records plus the symbol
//! tables — it never re-walks the AST.
//!
//! Resolution is heuristic by design: a method call resolves through
//! the inferred receiver type when possible, then through a
//! workspace-unique method name; everything else stays an unresolved
//! [`Callee::Method`] / [`Callee::Path`], which the rules treat
//! leniently (no false positives from unresolved code).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::*;
use crate::rules::is_delta_enum;

/// Stable function identifier: `crate/Type::name` for methods,
/// `crate/file.rs/name` for free functions.
pub type FnKey = String;

/// What a call site resolved to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// A workspace function.
    Fn(FnKey),
    /// An unresolved method call (receiver type, when inferred).
    Method {
        /// Method name.
        name: String,
        /// Inferred receiver base type, if any.
        recv_ty: Option<String>,
    },
    /// An unresolved path call (normalized segments).
    Path(Vec<String>),
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Resolution result.
    pub to: Callee,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// For method calls: whether the receiver is an owned local
    /// (`Some(true)`), a borrow — field, `self`, `&` param —
    /// (`Some(false)`), or not a method call (`None`). Unknown
    /// receivers default to owned (lenient).
    pub recv_owned: Option<bool>,
}

/// Shape of one `match` over a workspace enum.
#[derive(Clone, Debug)]
pub struct MatchRecord {
    /// Source position of the `match` keyword.
    pub line: usize,
    /// Column of the `match` keyword.
    pub col: usize,
    /// Inferred base type of the scrutinee, if any.
    pub scrutinee_ty: Option<String>,
    /// Qualified variant paths referenced by the arms (raw segments).
    pub arm_paths: Vec<Vec<String>>,
    /// True if any top-level arm pattern is `_`.
    pub has_wild: bool,
    /// True if any top-level arm pattern is a bare binding.
    pub has_binding: bool,
}

/// A `matches!(..)` invocation naming a workspace enum variant.
#[derive(Clone, Debug)]
pub struct MatchesMacroSite {
    /// Source line.
    pub line: usize,
    /// Source column.
    pub col: usize,
    /// The enum named in the pattern.
    pub enum_name: String,
}

/// Call edges made while a `Mutex` guard from `.lock()` is live.
#[derive(Clone, Debug)]
pub struct GuardScope {
    /// Line of the lock acquisition.
    pub line: usize,
    /// Calls made with the guard live.
    pub calls: Vec<Edge>,
}

/// A site relevant to a specific rule: (line, col, description).
pub type Site = (usize, usize, String);

/// Everything the rules need to know about one function.
#[derive(Debug)]
pub struct FnRecord {
    /// Stable identifier.
    pub key: FnKey,
    /// Workspace-relative file path.
    pub file: String,
    /// Owning crate directory name.
    pub crate_name: String,
    /// Impl self-type, when a method.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Column of the `fn` keyword.
    pub col: usize,
    /// Declared `pub` (with or without a restriction).
    pub is_pub: bool,
    /// Restricted visibility (`pub(crate)` / `pub(super)` / `pub(in ..)`).
    pub vis_restricted: bool,
    /// Receiver kind.
    pub self_kind: SelfKind,
    /// `&mut` params: `(param name, base type)`.
    pub mut_ref_params: Vec<(String, String)>,
    /// Test code (attribute or `#[cfg(test)]` nesting).
    pub is_test: bool,
    /// Types this fn is a declared mutation choke point for.
    pub mutator_of: Vec<String>,
    /// Taint families this fn roots (`lint:root(..)`).
    pub root_of: Vec<String>,
    /// All resolved call sites.
    pub calls: Vec<Edge>,
    /// Matches over workspace enums.
    pub matches: Vec<MatchRecord>,
    /// `matches!` sites naming delta enums.
    pub matches_macros: Vec<MatchesMacroSite>,
    /// Lock-guard scopes with the calls made inside them.
    pub guard_scopes: Vec<GuardScope>,
    /// `.unwrap()` / `.expect(..)` / panic-macro sites.
    pub panic_sites: Vec<Site>,
    /// HashMap/HashSet iteration and clock/RNG sites (R12 sinks).
    pub taint_sinks: Vec<Site>,
    /// True if the body calls `self.service(..)` / `self.service_mut(..)`.
    pub routes_service: bool,
}

/// Per-function metadata the reachability rules look up by key.
#[derive(Clone, Debug)]
pub struct FnMeta {
    /// Receiver kind.
    pub self_kind: SelfKind,
    /// Declared mutation choke point types.
    pub mutator_of: Vec<String>,
    /// File for diagnostics.
    pub file: String,
    /// Line for diagnostics.
    pub line: usize,
    /// Owning crate.
    pub crate_name: String,
    /// Function display name (`Type::name` or `name`).
    pub display: String,
}

/// The resolved workspace: symbol tables + one record per function.
#[derive(Default)]
pub struct Workspace {
    /// Enum name → declared variants.
    pub enums: BTreeMap<String, Vec<String>>,
    /// Struct name → field name → raw type text.
    pub structs: BTreeMap<String, BTreeMap<String, String>>,
    /// Type name → crate that defines it.
    pub type_crate: BTreeMap<String, String>,
    /// All function records, in scan order.
    pub records: Vec<FnRecord>,
    /// Key → metadata for reachability rules.
    pub meta: BTreeMap<FnKey, FnMeta>,
    /// (type, method) → key.
    method_index: BTreeMap<(String, String), FnKey>,
    /// method name → keys (for unique-name fallback).
    method_by_name: BTreeMap<String, Vec<FnKey>>,
    /// (crate, fn name) → keys.
    free_index: BTreeMap<(String, String), Vec<FnKey>>,
    /// fn name → keys (for unique-name fallback).
    free_by_name: BTreeMap<String, Vec<FnKey>>,
    /// (type, method) → return type text.
    method_ret: BTreeMap<(String, String), String>,
    /// (crate, fn name) → return type text (first wins).
    free_ret: BTreeMap<(String, String), String>,
}

/// Methods whose result is "the same value" for inference purposes.
const PASS_THROUGH: &[&str] = &["clone", "as_ref", "as_mut", "borrow", "borrow_mut"];

/// Ubiquitous std method names excluded from the unique-name fallback:
/// even with one workspace definition, an unknown receiver is far more
/// likely to be a std container than the workspace type.
const COMMON_STD_METHODS: &[&str] = &[
    "new", "default", "insert", "get", "get_mut", "remove", "len", "is_empty", "push", "pop",
    "iter", "iter_mut", "into_iter", "clone", "contains", "contains_key", "clear", "sort",
    "sort_by", "sort_by_key", "join", "next", "lock", "unwrap", "expect", "map", "and_then",
    "entry", "extend", "drain", "retain", "keys", "values", "split", "trim", "to_string",
    "as_str", "as_ref", "take", "replace", "push_str", "starts_with", "ends_with", "write",
    "read", "flush", "send", "recv", "first", "last", "min", "max", "sum", "count", "collect",
    "filter", "chain", "rev", "zip", "fold", "any", "all", "find", "position", "binary_search",
];
/// Methods that unwrap one `Option`/`Result` layer.
const UNWRAPPING: &[&str] = &["unwrap", "expect", "unwrap_or_else", "unwrap_or_default", "into_inner"];
/// Constructor-shaped associated functions: `T::new(..) : T`.
const CONSTRUCTORS: &[&str] = &["new", "default", "build", "empty", "load", "open"];
/// Iteration methods that expose storage order (R12 sinks on
/// `HashMap`/`HashSet` receivers). The set operations return iterators
/// in the receiver's storage order too.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "into_keys",
    "into_values", "retain", "intersection", "union", "difference", "symmetric_difference",
];

/// Strips references and transparent wrappers (`Arc`/`Rc`/`Box`, bare
/// or path-qualified) from a type text, returning the remaining text
/// (`Option<..>`, `HashMap<..>` and the like stay intact — their name is
/// the interesting part).
pub fn peel_type(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        t = t.trim_start_matches('&').trim_start();
        for kw in ["mut ", "dyn ", "'"] {
            if let Some(rest) = t.strip_prefix(kw) {
                // Lifetimes: drop the whole `'a ` token.
                t = if kw == "'" {
                    rest.split_once(' ').map(|(_, r)| r).unwrap_or("")
                } else {
                    rest
                };
            }
        }
        // The wrapper may be path-qualified (`std::sync::Arc<..>`).
        let wrapper = t.split_once('<').filter(|(head, _)| {
            let path_only = head.chars().all(|c| c.is_alphanumeric() || c == '_' || c == ':');
            path_only && matches!(head.rsplit("::").next(), Some("Arc" | "Rc" | "Box"))
        });
        match wrapper {
            Some((_, inner)) => t = inner.strip_suffix('>').unwrap_or(inner),
            None => return t.trim().to_string(),
        }
    }
}

/// The head name of a peeled type (`HashMap<K,V>` → `HashMap`).
pub fn type_head(ty: &str) -> String {
    let t = peel_type(ty);
    let end = t
        .char_indices()
        .find(|&(_, c)| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .map_or(t.len(), |(i, _)| i);
    t[..end].rsplit("::").next().unwrap_or("").to_string()
}

/// First generic argument of a type text (`Option<Arc<T>>` → `Arc<T>`).
fn generic_inner(ty: &str) -> Option<String> {
    let t = peel_type(ty);
    let open = t.find('<')?;
    let inner = t.get(open + 1..t.len().checked_sub(1)?)?;
    // First top-level comma-separated argument.
    let mut depth = 0;
    for (i, c) in inner.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => return Some(inner[..i].trim().to_string()),
            _ => {}
        }
    }
    Some(inner.trim().to_string())
}

/// Unwraps one `Option`/`Result` layer if present.
fn unwrap_once(ty: &str) -> String {
    let head = type_head(ty);
    if head == "Option" || head == "Result" {
        generic_inner(ty).unwrap_or_default()
    } else {
        ty.to_string()
    }
}

/// Maps a `hive_foo_bar` path segment to the crate directory `foo-bar`.
fn crate_of_seg(seg: &str) -> Option<String> {
    seg.strip_prefix("hive_").map(|rest| rest.replace('_', "-"))
}

impl Workspace {
    /// Builds the full workspace model from parsed files.
    pub fn build(files: &[File]) -> Workspace {
        let mut ws = Workspace::default();
        // Pass 1: symbol tables.
        for file in files {
            collect_symbols(&mut ws, file, &file.items);
        }
        // Pass 2: function records with resolution.
        for file in files {
            let imports = collect_imports(&file.items);
            let mut ctx = FileCtx { ws: &ws, file, imports };
            let mut records = Vec::new();
            file.for_each_fn(&mut |self_ty, f, is_test| {
                records.push(ctx.digest_fn(self_ty, f, is_test));
            });
            // Const/static initializers: panic sites count for R2.
            collect_const_panics(&file.path, &file.items, &mut records, file);
            ws.records.extend(records);
        }
        for r in &ws.records {
            let display = match &r.self_ty {
                Some(t) => format!("{t}::{}", r.name),
                None => r.name.clone(),
            };
            ws.meta.insert(
                r.key.clone(),
                FnMeta {
                    self_kind: r.self_kind,
                    mutator_of: r.mutator_of.clone(),
                    file: r.file.clone(),
                    line: r.line,
                    crate_name: r.crate_name.clone(),
                    display,
                },
            );
        }
        ws
    }

    /// Key for a function in `file` (methods by type, free fns by file).
    pub fn key_for(file: &File, self_ty: Option<&str>, name: &str) -> FnKey {
        match self_ty {
            Some(t) => format!("{}/{}::{}", file.crate_name, t, name),
            None => format!("{}/{}/{}", file.crate_name, file.path, name),
        }
    }

    /// Functions from which any `targets` member is reachable
    /// (reverse closure; includes the targets).
    pub fn reach_reverse(&self, targets: &BTreeSet<FnKey>) -> BTreeSet<FnKey> {
        // callee → callers
        let mut callers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for r in &self.records {
            for e in &r.calls {
                if let Callee::Fn(k) = &e.to {
                    callers.entry(k.as_str()).or_default().push(r.key.as_str());
                }
            }
        }
        let mut seen: BTreeSet<FnKey> = targets.clone();
        let mut work: Vec<&str> = targets.iter().map(String::as_str).collect();
        while let Some(k) = work.pop() {
            if let Some(cs) = callers.get(k) {
                for &c in cs {
                    if seen.insert(c.to_string()) {
                        work.push(c);
                    }
                }
            }
        }
        seen
    }

    /// Functions reachable from `roots` (forward closure, including the
    /// roots), with a parent map for path reconstruction.
    pub fn reach_forward(
        &self,
        roots: &BTreeSet<FnKey>,
    ) -> (BTreeSet<FnKey>, BTreeMap<FnKey, FnKey>) {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for r in &self.records {
            let slot = adj.entry(r.key.as_str()).or_default();
            for e in &r.calls {
                if let Callee::Fn(k) = &e.to {
                    slot.push(k.as_str());
                }
            }
        }
        let mut seen: BTreeSet<FnKey> = roots.clone();
        let mut parent: BTreeMap<FnKey, FnKey> = BTreeMap::new();
        let mut queue: Vec<&str> = roots.iter().map(String::as_str).collect();
        let mut qi = 0;
        while qi < queue.len() {
            let k = queue[qi];
            qi += 1;
            if let Some(outs) = adj.get(k) {
                for &n in outs {
                    if seen.insert(n.to_string()) {
                        parent.insert(n.to_string(), k.to_string());
                        queue.push(n);
                    }
                }
            }
        }
        (seen, parent)
    }

    /// Human-readable call chain from a root down to `key`.
    pub fn chain_to(&self, parent: &BTreeMap<FnKey, FnKey>, key: &str) -> String {
        let mut chain = vec![key.to_string()];
        let mut cur = key.to_string();
        while let Some(p) = parent.get(&cur) {
            chain.push(p.clone());
            cur = p.clone();
            if chain.len() > 24 {
                break;
            }
        }
        chain.reverse();
        let names: Vec<String> = chain
            .iter()
            .map(|k| self.meta.get(k).map_or_else(|| k.clone(), |m| m.display.clone()))
            .collect();
        names.join(" -> ")
    }
}

fn collect_symbols(ws: &mut Workspace, file: &File, items: &[Item]) {
    for item in items {
        match item {
            Item::Struct(s) => {
                ws.structs
                    .entry(s.name.clone())
                    .or_default()
                    .extend(s.fields.iter().cloned());
                ws.type_crate.insert(s.name.clone(), file.crate_name.clone());
            }
            Item::Enum(e) => {
                ws.enums.insert(e.name.clone(), e.variants.clone());
                ws.type_crate.insert(e.name.clone(), file.crate_name.clone());
            }
            Item::Impl(imp) => {
                ws.type_crate.entry(imp.self_ty.clone()).or_insert_with(|| file.crate_name.clone());
                for f in &imp.fns {
                    let key = Workspace::key_for(file, Some(&imp.self_ty), &f.name);
                    ws.method_index.insert((imp.self_ty.clone(), f.name.clone()), key.clone());
                    ws.method_by_name.entry(f.name.clone()).or_default().push(key);
                    if let Some(ret) = &f.ret {
                        ws.method_ret.insert((imp.self_ty.clone(), f.name.clone()), ret.clone());
                    }
                }
            }
            Item::Fn(f) => {
                let key = Workspace::key_for(file, None, &f.name);
                ws.free_index
                    .entry((file.crate_name.clone(), f.name.clone()))
                    .or_default()
                    .push(key.clone());
                ws.free_by_name.entry(f.name.clone()).or_default().push(key);
                if let Some(ret) = &f.ret {
                    ws.free_ret
                        .entry((file.crate_name.clone(), f.name.clone()))
                        .or_insert_with(|| ret.clone());
                }
            }
            Item::Mod(m) => collect_symbols(ws, file, &m.items),
            _ => {}
        }
    }
}

/// `alias → full path` from every `use` in the file (modules included).
fn collect_imports(items: &[Item]) -> BTreeMap<String, Vec<String>> {
    let mut map = BTreeMap::new();
    fn rec(items: &[Item], map: &mut BTreeMap<String, Vec<String>>) {
        for item in items {
            match item {
                Item::Use(u) => {
                    for (alias, path) in &u.imports {
                        map.insert(alias.clone(), path.clone());
                    }
                }
                Item::Mod(m) => rec(&m.items, map),
                _ => {}
            }
        }
    }
    rec(items, &mut map);
    map
}

/// R2 must also cover const/static initializers, which live outside any
/// fn: collect their panic sites into a synthetic record per item.
fn collect_const_panics(path: &str, items: &[Item], out: &mut Vec<FnRecord>, file: &File) {
    for item in items {
        match item {
            Item::Const(c) => {
                if let Some(init) = &c.init {
                    let mut sites = Vec::new();
                    init.walk(&mut |e| record_panic_site(e, &mut sites));
                    if !sites.is_empty() {
                        out.push(FnRecord {
                            key: format!("{}/{}/const {}", file.crate_name, path, c.name),
                            file: path.to_string(),
                            crate_name: file.crate_name.clone(),
                            self_ty: None,
                            name: c.name.clone(),
                            line: sites[0].0,
                            col: sites[0].1,
                            is_pub: false,
                            vis_restricted: false,
                            self_kind: SelfKind::None,
                            mut_ref_params: Vec::new(),
                            is_test: false,
                            mutator_of: Vec::new(),
                            root_of: Vec::new(),
                            calls: Vec::new(),
                            matches: Vec::new(),
                            matches_macros: Vec::new(),
                            guard_scopes: Vec::new(),
                            panic_sites: sites,
                            taint_sinks: Vec::new(),
                            routes_service: false,
                        });
                    }
                }
            }
            Item::Mod(m) if !m.is_test => collect_const_panics(path, &m.items, out, file),
            _ => {}
        }
    }
}

fn record_panic_site(e: &Expr, out: &mut Vec<Site>) {
    match e {
        Expr::MethodCall { method, line, col, .. } if method == "unwrap" || method == "expect" => {
            out.push((*line, *col, format!(".{method}(..)")));
        }
        Expr::Macro { name, line, col, .. }
            if name == "panic" || name == "unreachable" || name == "todo" =>
        {
            out.push((*line, *col, format!("{name}!(..)")));
        }
        _ => {}
    }
}

/// Per-file digestion context.
struct FileCtx<'a> {
    ws: &'a Workspace,
    file: &'a File,
    imports: BTreeMap<String, Vec<String>>,
}

/// Local name → type text, seeded from params and grown across `let`s.
type TypeEnv = BTreeMap<String, String>;

impl<'a> FileCtx<'a> {
    fn digest_fn(&mut self, self_ty: Option<&str>, f: &FnItem, is_test: bool) -> FnRecord {
        let mut rec = FnRecord {
            key: Workspace::key_for(self.file, self_ty, &f.name),
            file: self.file.path.clone(),
            crate_name: self.file.crate_name.clone(),
            self_ty: self_ty.map(str::to_string),
            name: f.name.clone(),
            line: f.line,
            col: f.col,
            is_pub: f.is_pub,
            vis_restricted: f.vis_restricted,
            self_kind: f.self_kind,
            mut_ref_params: f
                .params
                .iter()
                .filter(|p| p.ty.trim_start().starts_with("&mut"))
                .map(|p| (p.name.clone(), type_head(&p.ty)))
                .collect(),
            is_test,
            mutator_of: f.mutator_of.clone(),
            root_of: f.root_of.clone(),
            calls: Vec::new(),
            matches: Vec::new(),
            matches_macros: Vec::new(),
            guard_scopes: Vec::new(),
            panic_sites: Vec::new(),
            taint_sinks: Vec::new(),
            routes_service: false,
        };
        let mut env: TypeEnv = BTreeMap::new();
        if let Some(t) = self_ty {
            env.insert("self".to_string(), t.to_string());
        }
        for p in &f.params {
            if !p.ty.is_empty() {
                env.insert(p.name.clone(), p.ty.clone());
            }
        }
        if let Some(body) = &f.body {
            let mut guards: Vec<GuardScope> = Vec::new();
            self.stmts(body, &mut env, &mut rec, &mut guards, 0);
            rec.guard_scopes.extend(guards.into_iter().filter(|g| !g.calls.is_empty()));
        }
        rec
    }

    /// Walks a top-level statement list (fn body) with a fresh
    /// live-guard stack.
    fn stmts(
        &self,
        list: &[Expr],
        env: &mut TypeEnv,
        rec: &mut FnRecord,
        guards: &mut Vec<GuardScope>,
        _live_from: usize,
    ) {
        let mut live: Vec<usize> = Vec::new();
        self.stmts_with_live(list, env, rec, guards, &mut live);
    }

    /// Digests one statement/expression with guard tracking. `live`
    /// indexes the guards currently held in this scope.
    fn expr_in_scope(
        &self,
        e: &Expr,
        env: &mut TypeEnv,
        rec: &mut FnRecord,
        guards: &mut Vec<GuardScope>,
        live: &mut Vec<usize>,
    ) {
        match e {
            Expr::Let { pats, ty, init, els, line, .. } => {
                if let Some(init) = init {
                    self.expr_in_scope(init, env, rec, guards, live);
                    // Guard acquisition?
                    if lock_guard_init(init) {
                        let gi = guards.len();
                        guards.push(GuardScope { line: *line, calls: Vec::new() });
                        live.push(gi);
                        for p in pats {
                            for name in pat_bindings(p) {
                                env.insert(name, "#guard".to_string());
                            }
                        }
                        if let Some(els) = els {
                            self.stmts(els, env, rec, guards, 0);
                        }
                        return;
                    }
                    // Bind inferred types.
                    let it = ty.clone().or_else(|| self.infer(env, init));
                    if let Some(t) = it {
                        bind_pats(pats, &t, env);
                    }
                } else if let Some(t) = ty {
                    bind_pats(pats, t, env);
                }
                if let Some(els) = els {
                    self.stmts(els, env, rec, guards, 0);
                }
            }
            Expr::Block(stmts) => {
                let depth = live.len();
                let mut inner_env = env.clone();
                self.stmts_with_live(stmts, &mut inner_env, rec, guards, live);
                live.truncate(depth);
            }
            Expr::If { cond, then, els } => {
                let depth = live.len();
                let mut then_env = env.clone();
                self.let_cond_scope(cond, env, &mut then_env, rec, guards, live);
                self.stmts_with_live(then, &mut then_env, rec, guards, live);
                live.truncate(depth);
                if let Some(els) = els {
                    self.expr_in_scope(els, env, rec, guards, live);
                }
            }
            Expr::ForLoop { pat, iter, body, line } => {
                self.expr_in_scope(iter, env, rec, guards, live);
                // R12 sink: iterating a HashMap/HashSet directly.
                if let Some(t) = self.infer(env, deref(iter)) {
                    let head = type_head(&t);
                    if head == "HashMap" || head == "HashSet" {
                        rec.taint_sinks.push((
                            *line,
                            1,
                            format!("for-loop over {head} (storage order)"),
                        ));
                    }
                }
                let _ = pat;
                let depth = live.len();
                let mut benv = env.clone();
                self.stmts_with_live(body, &mut benv, rec, guards, live);
                live.truncate(depth);
            }
            Expr::While { cond, body } => {
                let depth = live.len();
                let mut benv = env.clone();
                if let Some(c) = cond {
                    self.let_cond_scope(c, env, &mut benv, rec, guards, live);
                }
                self.stmts_with_live(body, &mut benv, rec, guards, live);
                live.truncate(depth);
            }
            Expr::Match { scrutinee, arms, line, col } => {
                self.expr_in_scope(scrutinee, env, rec, guards, live);
                self.record_match(scrutinee, arms, *line, *col, env, rec);
                // Guard-yielding match (the poisoned-lock pattern) is
                // handled at the Let level; arms here are just walked.
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.expr_in_scope(g, env, rec, guards, live);
                    }
                    let depth = live.len();
                    let mut aenv = env.clone();
                    if let Some(t) = self.infer(env, deref(scrutinee)) {
                        let unwrapped = unwrap_once(&t);
                        for p in &arm.pats {
                            bind_pats(std::slice::from_ref(p), &unwrapped, &mut aenv);
                        }
                    }
                    self.expr_in_scope(&arm.body, &mut aenv, rec, guards, live);
                    live.truncate(depth);
                }
            }
            Expr::Closure { body } => {
                let mut cenv = env.clone();
                self.expr_in_scope(body, &mut cenv, rec, guards, live);
            }
            Expr::Call { callee, args, line, col } => {
                record_panic_site(e, &mut rec.panic_sites);
                let edge = Edge {
                    to: self.resolve_path_call(callee, env),
                    line: *line,
                    col: *col,
                    recv_owned: None,
                };
                self.note_taint_for_edge(&edge, rec);
                for gi in live.iter() {
                    if let Some(g) = guards.get_mut(*gi) {
                        g.calls.push(edge.clone());
                    }
                }
                rec.calls.push(edge);
                self.expr_in_scope(callee, env, rec, guards, live);
                for a in args {
                    self.expr_in_scope(a, env, rec, guards, live);
                }
            }
            Expr::MethodCall { recv, method, args, line, col } => {
                let recv_ty = self.infer(env, deref(recv));
                let head = recv_ty.as_deref().map(type_head);
                // R7: facade routing.
                if (method == "service" || method == "service_mut") && is_self(recv) {
                    rec.routes_service = true;
                }
                // R12 sinks: storage-order iteration.
                if ITER_METHODS.contains(&method.as_str()) {
                    if let Some(h) = &head {
                        if h == "HashMap" || h == "HashSet" {
                            rec.taint_sinks.push((
                                *line,
                                *col,
                                format!(".{method}() on {h} (storage order)"),
                            ));
                        }
                    }
                }
                // Unique-name fallback only when the receiver type is
                // unknown: a *known* external type (HashMap, Vec, ...)
                // must not hijack a workspace method of the same name.
                let to = match head
                    .as_ref()
                    .and_then(|h| self.ws.method_index.get(&(h.clone(), method.clone())))
                {
                    Some(k) => Callee::Fn(k.clone()),
                    None if head.is_none() && !COMMON_STD_METHODS.contains(&method.as_str()) => {
                        match self.ws.method_by_name.get(method.as_str()) {
                            Some(ks) if ks.len() == 1 => Callee::Fn(ks[0].clone()),
                            _ => Callee::Method { name: method.clone(), recv_ty: None },
                        }
                    }
                    None => Callee::Method { name: method.clone(), recv_ty: head.clone() },
                };
                // `.unwrap()` / `.expect(..)` are panic sites only when
                // they do NOT resolve to a workspace method of that
                // name (e.g. a parser's own `expect`).
                if (method == "unwrap" || method == "expect") && !matches!(to, Callee::Fn(_)) {
                    rec.panic_sites.push((*line, *col, format!(".{method}(..)")));
                }
                let edge =
                    Edge { to, line: *line, col: *col, recv_owned: Some(self.recv_owned(recv, env)) };
                self.note_taint_for_edge(&edge, rec);
                for gi in live.iter() {
                    if let Some(g) = guards.get_mut(*gi) {
                        g.calls.push(edge.clone());
                    }
                }
                rec.calls.push(edge);
                // Calls inside args of a locked chain run under the
                // temporary guard: treat `x.lock().map(|g| ..)` args as
                // guarded.
                let chain_locked = chain_has_lock(recv);
                if chain_locked {
                    let gi = guards.len();
                    guards.push(GuardScope { line: *line, calls: Vec::new() });
                    live.push(gi);
                }
                self.expr_in_scope(recv, env, rec, guards, live);
                for a in args {
                    self.expr_in_scope(a, env, rec, guards, live);
                }
                if chain_locked {
                    live.pop();
                }
            }
            Expr::Macro { name, args, line, col } => {
                record_panic_site(e, &mut rec.panic_sites);
                if name == "matches" {
                    // Any pattern path naming a *declared* delta enum
                    // (`*Delta`, resolved against the workspace enum
                    // table — not a hardcoded list).
                    let mut named: Option<String> = None;
                    for a in args {
                        a.walk(&mut |x| {
                            if let Expr::Path { segs, .. } = x {
                                for s in segs {
                                    if named.is_none()
                                        && is_delta_enum(s)
                                        && self.ws.enums.contains_key(s.as_str())
                                    {
                                        named = Some(s.clone());
                                    }
                                }
                            }
                        });
                    }
                    if let Some(enum_name) = named {
                        rec.matches_macros.push(MatchesMacroSite {
                            line: *line,
                            col: *col,
                            enum_name,
                        });
                    }
                }
                for a in args {
                    self.expr_in_scope(a, env, rec, guards, live);
                }
            }
            Expr::Assign { target, value, .. } => {
                self.expr_in_scope(target, env, rec, guards, live);
                self.expr_in_scope(value, env, rec, guards, live);
            }
            Expr::Path { segs, line, col } => {
                // Bare path taint sinks (unseeded RNG constructors).
                if segs.last().is_some_and(|s| s == "thread_rng" || s == "from_entropy") {
                    rec.taint_sinks.push((*line, *col, format!("{}", segs.join("::"))));
                }
            }
            Expr::Ref { inner, .. } => self.expr_in_scope(inner, env, rec, guards, live),
            Expr::Field { base, .. } => self.expr_in_scope(base, env, rec, guards, live),
            Expr::Other(children) => {
                for c in children {
                    self.expr_in_scope(c, env, rec, guards, live);
                }
            }
            Expr::Lit => {}
        }
    }

    /// Walks a statement list sharing the caller's live-guard stack.
    /// A `drop(g)` statement on a guard binding releases the most
    /// recently acquired live guard.
    fn stmts_with_live(
        &self,
        list: &[Expr],
        env: &mut TypeEnv,
        rec: &mut FnRecord,
        guards: &mut Vec<GuardScope>,
        live: &mut Vec<usize>,
    ) {
        for stmt in list {
            if let Expr::Call { callee, args, .. } = stmt {
                let is_drop = matches!(
                    &**callee,
                    Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "drop"
                );
                if is_drop {
                    if let Some(Expr::Path { segs, .. }) = args.first() {
                        if segs.len() == 1
                            && env.get(segs[0].as_str()).is_some_and(|t| t == "#guard")
                            && !live.is_empty()
                        {
                            live.pop();
                            env.remove(segs[0].as_str());
                            continue;
                        }
                    }
                }
            }
            self.expr_in_scope(stmt, env, rec, guards, live);
        }
    }

    /// Handles an `if`/`while` condition: a `let` condition binds its
    /// pattern (and any lock guard) into the branch env only; a plain
    /// condition is walked normally.
    fn let_cond_scope(
        &self,
        cond: &Expr,
        env: &mut TypeEnv,
        branch_env: &mut TypeEnv,
        rec: &mut FnRecord,
        guards: &mut Vec<GuardScope>,
        live: &mut Vec<usize>,
    ) {
        if let Expr::Let { pats, init: Some(init), line, .. } = cond {
            self.expr_in_scope(init, env, rec, guards, live);
            if lock_guard_init(init) {
                let gi = guards.len();
                guards.push(GuardScope { line: *line, calls: Vec::new() });
                live.push(gi);
                for p in pats {
                    for name in pat_bindings(p) {
                        branch_env.insert(name, "#guard".to_string());
                    }
                }
            } else if let Some(t) = self.infer(env, init) {
                let unwrapped = unwrap_once(&t);
                bind_pats(pats, &peel_type(&unwrapped), branch_env);
            }
        } else {
            self.expr_in_scope(cond, env, rec, guards, live);
        }
    }

    fn record_match(
        &self,
        scrutinee: &Expr,
        arms: &[Arm],
        line: usize,
        col: usize,
        env: &TypeEnv,
        rec: &mut FnRecord,
    ) {
        let scrutinee_ty = self.infer(env, deref(scrutinee)).map(|t| type_head(&t));
        let mut arm_paths = Vec::new();
        let mut has_wild = false;
        let mut has_binding = false;
        for arm in arms {
            for p in &arm.pats {
                classify_pat(p, &mut arm_paths, &mut has_wild, &mut has_binding);
            }
        }
        // Only record matches that plausibly concern a workspace enum.
        let concerns_enum = scrutinee_ty.as_ref().is_some_and(|t| self.ws.enums.contains_key(t))
            || arm_paths
                .iter()
                .any(|p| p.iter().any(|s| self.ws.enums.contains_key(s)));
        if concerns_enum {
            rec.matches.push(MatchRecord { line, col, scrutinee_ty, arm_paths, has_wild, has_binding });
        }
    }

    /// Is the receiver an owned local (true) or a borrow (false)?
    /// Unknown names default to owned (lenient).
    fn recv_owned(&self, recv: &Expr, env: &TypeEnv) -> bool {
        match recv {
            Expr::Field { .. } => false,
            Expr::Ref { inner, .. } => self.recv_owned(inner, env),
            Expr::Path { segs, .. } if segs.len() == 1 => {
                if segs[0] == "self" {
                    return false;
                }
                match env.get(segs[0].as_str()) {
                    Some(t) => !t.trim_start().starts_with('&') && t != "#guard",
                    None => true,
                }
            }
            Expr::MethodCall { method, recv, .. } => {
                // A `&mut`-returning accessor chain is still a borrow.
                if let Some(t) = self.infer(env, deref(recv)) {
                    let head = type_head(&t);
                    if let Some(ret) = self.ws.method_ret.get(&(head, method.clone())) {
                        return !ret.trim_start().starts_with('&');
                    }
                }
                true
            }
            _ => true,
        }
    }

    /// Resolves a `Call` callee path to a workspace fn where possible.
    fn resolve_path_call(&self, callee: &Expr, _env: &TypeEnv) -> Callee {
        let Expr::Path { segs, .. } = callee else {
            return Callee::Path(Vec::new());
        };
        let mut segs: Vec<String> = segs.clone();
        // Normalize leading `crate`/`self`/`super` and import aliases.
        while segs
            .first()
            .is_some_and(|s| s == "crate" || s == "self" || s == "super")
        {
            segs.remove(0);
        }
        if let Some(first) = segs.first().cloned() {
            if let Some(full) = self.imports.get(&first) {
                let mut merged = full.clone();
                merged.extend(segs.into_iter().skip(1));
                segs = merged;
            }
        }
        while segs
            .first()
            .is_some_and(|s| s == "crate" || s == "self" || s == "super")
        {
            segs.remove(0);
        }
        if segs.is_empty() {
            return Callee::Path(segs);
        }
        // `Type::method(..)`.
        if segs.len() >= 2 {
            let ty = &segs[segs.len() - 2];
            let name = &segs[segs.len() - 1];
            if let Some(k) = self.ws.method_index.get(&(ty.clone(), name.clone())) {
                return Callee::Fn(k.clone());
            }
        }
        // `hive_other::path::f(..)` → free fn in that crate.
        let target_crate = segs
            .first()
            .and_then(|s| crate_of_seg(s))
            .unwrap_or_else(|| self.file.crate_name.clone());
        if let Some(name) = segs.last() {
            if let Some(ks) = self.ws.free_index.get(&(target_crate.clone(), name.clone())) {
                if ks.len() == 1 {
                    return Callee::Fn(ks[0].clone());
                }
                // Prefer the caller's own file on ambiguity.
                if let Some(k) = ks.iter().find(|k| k.contains(&self.file.path)) {
                    return Callee::Fn(k.clone());
                }
            }
            if segs.len() == 1 {
                if let Some(ks) = self.ws.free_by_name.get(name.as_str()) {
                    if ks.len() == 1 {
                        return Callee::Fn(ks[0].clone());
                    }
                }
            }
        }
        Callee::Path(segs)
    }

    /// Wall-clock and entropy sinks that live in unresolved call paths.
    fn note_taint_for_edge(&self, edge: &Edge, rec: &mut FnRecord) {
        if let Callee::Path(segs) = &edge.to {
            let flat = segs.join("::");
            for bad in ["Instant::now", "SystemTime::now", "RandomState::new", "thread_rng"] {
                if flat.ends_with(bad) || flat == *bad {
                    rec.taint_sinks.push((edge.line, edge.col, flat.clone()));
                    break;
                }
            }
        }
    }

    /// Infers the (peeled) type text of an expression, best-effort.
    fn infer(&self, env: &TypeEnv, e: &Expr) -> Option<String> {
        match e {
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    if let Some(t) = env.get(segs[0].as_str()) {
                        return Some(peel_type(t));
                    }
                }
                // Unit struct / enum constant path.
                let last = segs.last()?;
                if self.ws.structs.contains_key(last.as_str()) {
                    return Some(last.clone());
                }
                if segs.len() >= 2 {
                    let ty = &segs[segs.len() - 2];
                    if self.ws.enums.contains_key(ty.as_str()) {
                        return Some(ty.clone());
                    }
                }
                None
            }
            Expr::Ref { inner, .. } => self.infer(env, inner),
            Expr::Field { base, name, .. } => {
                let bt = self.infer(env, base)?;
                let head = type_head(&bt);
                let field_ty = self.ws.structs.get(&head)?.get(name.as_str())?;
                Some(peel_type(field_ty))
            }
            Expr::Call { callee, .. } => {
                let Expr::Path { segs, .. } = &**callee else { return None };
                if segs.len() >= 2 {
                    let ty = &segs[segs.len() - 2];
                    let name = &segs[segs.len() - 1];
                    if let Some(ret) = self.ws.method_ret.get(&(ty.clone(), name.clone())) {
                        return Some(peel_type(ret));
                    }
                    if (self.ws.structs.contains_key(ty.as_str())
                        || self.ws.type_crate.contains_key(ty.as_str()))
                        && (CONSTRUCTORS.contains(&name.as_str())
                            || name.starts_with("from_")
                            || name.starts_with("with_"))
                    {
                        return Some(ty.clone());
                    }
                    if self.ws.enums.contains_key(ty.as_str()) {
                        return Some(ty.clone()); // tuple-variant constructor
                    }
                }
                if segs.len() == 1 {
                    if let Some(ret) =
                        self.ws.free_ret.get(&(self.file.crate_name.clone(), segs[0].clone()))
                    {
                        return Some(peel_type(ret));
                    }
                }
                None
            }
            Expr::MethodCall { recv, method, .. } => {
                let rt = self.infer(env, deref(recv))?;
                if PASS_THROUGH.contains(&method.as_str()) {
                    return Some(rt);
                }
                if UNWRAPPING.contains(&method.as_str()) {
                    return Some(peel_type(&unwrap_once(&rt)));
                }
                let head = type_head(&rt);
                let ret = self.ws.method_ret.get(&(head, method.clone()))?;
                Some(peel_type(ret))
            }
            Expr::Other(children) => {
                // Struct literal: first child is the type path.
                if let Some(Expr::Path { segs, .. }) = children.first() {
                    let last = segs.last()?;
                    if self.ws.structs.contains_key(last.as_str()) {
                        return Some(last.clone());
                    }
                }
                None
            }
            Expr::If { then, .. } => then.last().and_then(|t| self.infer(env, t)),
            Expr::Block(stmts) => stmts.last().and_then(|t| self.infer(env, t)),
            _ => None,
        }
    }
}

/// Strips `&`/`*` layers to the underlying place expression.
fn deref(e: &Expr) -> &Expr {
    match e {
        Expr::Ref { inner, .. } => deref(inner),
        _ => e,
    }
}

fn is_self(e: &Expr) -> bool {
    matches!(deref(e), Expr::Path { segs, .. } if segs.len() == 1 && segs[0] == "self")
}

/// Does this initializer yield a live lock guard? Covers
/// `x.lock().unwrap()`-style chains (pass-through methods only) and
/// `match x.lock() { .. }` (the poisoned-guard recovery pattern).
fn lock_guard_init(e: &Expr) -> bool {
    fn chain_yields_guard(e: &Expr) -> bool {
        match e {
            Expr::MethodCall { method, recv, .. } => {
                if method == "lock" {
                    return true;
                }
                if UNWRAPPING.contains(&method.as_str()) {
                    return chain_yields_guard(recv);
                }
                false
            }
            _ => false,
        }
    }
    match e {
        Expr::Match { scrutinee, .. } => chain_yields_guard(scrutinee),
        _ => chain_yields_guard(e),
    }
}

/// Does any receiver link of this chain call `.lock()`?
fn chain_has_lock(e: &Expr) -> bool {
    match e {
        Expr::MethodCall { method, recv, .. } => method == "lock" || chain_has_lock(recv),
        _ => false,
    }
}

/// All binding names introduced by a pattern.
fn pat_bindings(p: &Pat) -> Vec<String> {
    let mut out = Vec::new();
    fn rec(p: &Pat, out: &mut Vec<String>) {
        match p {
            Pat::Binding(n) => out.push(n.clone()),
            Pat::Path { args, .. } => {
                for a in args {
                    rec(a, out);
                }
            }
            Pat::Tuple(ps) => {
                for a in ps {
                    rec(a, out);
                }
            }
            Pat::Ref(inner) => rec(inner, out),
            _ => {}
        }
    }
    rec(p, &mut out);
    out
}

/// Binds pattern names against an inferred initializer type: plain
/// bindings get the type; `Some(x)` / `Ok(x)` bindings get the type
/// with one `Option`/`Result` layer removed.
fn bind_pats(pats: &[Pat], ty: &str, env: &mut TypeEnv) {
    for p in pats {
        match p {
            Pat::Binding(n) => {
                env.insert(n.clone(), ty.to_string());
            }
            Pat::Ref(inner) => bind_pats(std::slice::from_ref(&**inner), ty, env),
            Pat::Path { segs, args } => {
                let unwraps = segs
                    .last()
                    .is_some_and(|s| s == "Some" || s == "Ok");
                if unwraps && args.len() == 1 {
                    if let Pat::Binding(n) = &args[0] {
                        env.insert(n.clone(), peel_type(&unwrap_once(ty)));
                    }
                }
            }
            _ => {}
        }
    }
}

fn classify_pat(
    p: &Pat,
    arm_paths: &mut Vec<Vec<String>>,
    has_wild: &mut bool,
    has_binding: &mut bool,
) {
    match p {
        Pat::Wild => *has_wild = true,
        Pat::Binding(_) => *has_binding = true,
        Pat::Path { segs, .. } => arm_paths.push(segs.clone()),
        Pat::Ref(inner) => classify_pat(inner, arm_paths, has_wild, has_binding),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_peel_bare_or_path_qualified() {
        assert_eq!(peel_type("Arc<HashMap<K, V>>"), "HashMap<K, V>");
        assert_eq!(peel_type("std::sync::Arc<HashMap<K, V>>"), "HashMap<K, V>");
        assert_eq!(type_head("std::sync::Arc<HashMap<K, V>>"), "HashMap");
        assert_eq!(type_head("std::rc::Rc<HashSet<u32>>"), "HashSet");
        assert_eq!(type_head("&std::boxed::Box<HashMap<K, V>>"), "HashMap");
        assert_eq!(type_head("&mut ::std::sync::Arc<Box<HashMap<K, V>>>"), "HashMap");
        // Only a wrapper at the head peels.
        assert_eq!(type_head("HashMap<u32, std::sync::Arc<T>>"), "HashMap");
        assert_eq!(type_head("my::Boxed<HashMap<K, V>>"), "Boxed");
    }
}
