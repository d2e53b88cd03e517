//! AST-engine fixture tests: pass/fail source pairs for the
//! resolution-based rules (R2, R7, R9-R12).
//!
//! Each test builds a tiny synthetic workspace in memory — tokenize,
//! parse, resolve, check — so the fixtures exercise the exact pipeline
//! `scan_workspace` runs, without touching the filesystem.

use hive_lint::config::WorkspaceConfig;
use hive_lint::rules::{self, AllowIndex};
use hive_lint::{ast, parser, resolve, tokenize, Diagnostic};

/// Parses `(path, crate, source)` triples into a resolved workspace and
/// runs the AST rules under `cfg`.
fn analyze(cfg: &WorkspaceConfig, files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
    let mut parsed = Vec::new();
    let mut allows = AllowIndex::default();
    for (path, krate, src) in files {
        let (toks, markers) = tokenize(src);
        allows.add_markers(path, &markers);
        let items = parser::parse(&toks, &markers);
        parsed.push(ast::File {
            path: path.to_string(),
            crate_name: krate.to_string(),
            items,
        });
    }
    let ws = resolve::Workspace::build(&parsed);
    rules::check_ast(&ws, cfg, &allows)
}

fn only(diags: &[Diagnostic], rule: &str) -> Vec<Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).cloned().collect()
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_ast_fires_on_unwrap_but_not_on_workspace_expect_methods() {
    let mut cfg = WorkspaceConfig::default();
    cfg.panic_free.insert("a".to_string());
    let src = "\
pub struct Parser;
impl Parser {
    pub fn expect(&self, b: u8) -> u8 { b }
}
pub fn fine(p: &Parser) -> u8 { p.expect(1) }
pub fn broken(x: Option<u8>) -> u8 { x.unwrap() }
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    let panics = only(&diags, rules::NO_PANIC_PATHS);
    assert_eq!(panics.len(), 1, "{diags:?}");
    assert_eq!(panics[0].line, 6, "only the Option::unwrap, not Parser::expect");
}

#[test]
fn r2_ast_ignores_crates_outside_the_panic_free_set_and_tests() {
    let cfg = WorkspaceConfig::default(); // empty panic_free set
    let src = "\
pub fn broken(x: Option<u8>) -> u8 { x.unwrap() }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1u8).unwrap(); }
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    assert!(only(&diags, rules::NO_PANIC_PATHS).is_empty(), "{diags:?}");
}

/// A rest pattern `Foo { .. }` inside `matches!` once made the parser
/// read past its closing brace, so a later `#[cfg(test)]` module's
/// items lost their test flag and their panics were reported.
#[test]
fn r2_ast_keeps_test_modules_after_a_rest_pattern_in_a_macro() {
    let mut cfg = WorkspaceConfig::default();
    cfg.panic_free.insert("a".to_string());
    let src = "\
pub enum S { A { r: u8 }, B }
pub fn is_a(s: &S) -> bool { matches!(s, S::A { .. }) }
pub fn broken(x: Option<u8>) -> u8 { x.unwrap() }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1u8).unwrap(); }
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    let panics = only(&diags, rules::NO_PANIC_PATHS);
    assert_eq!(panics.len(), 1, "{diags:?}");
    assert_eq!(panics[0].line, 3, "only the library unwrap");
}

// ---------------------------------------------------------------- R7

#[test]
fn r7_ast_facade_requires_service_routing() {
    let mut cfg = WorkspaceConfig::default();
    cfg.facade_files.push("a/api.rs".to_string());
    let src = "\
pub struct Hive;
impl Hive {
    pub fn service(&self, name: &str) -> u32 { name.len() as u32 }
    pub fn good(&self) -> u32 { self.service(\"good\") }
    pub fn bad(&self) -> u32 { 7 }
}
";
    let diags = analyze(&cfg, &[("a/api.rs", "a", src)]);
    let facade = only(&diags, rules::INSTRUMENTED_FACADE);
    assert_eq!(facade.len(), 1, "{diags:?}");
    assert_eq!(facade[0].line, 5, "only `bad` skips the choke point");
    assert!(facade[0].message.contains("bad"));
}

#[test]
fn r7_ast_facade_skips_restricted_visibility_helpers() {
    // `pub(crate)` plumbing in a facade file is not part of the service
    // surface, so R7 may not flag it.
    let mut cfg = WorkspaceConfig::default();
    cfg.facade_files.push("a/api.rs".to_string());
    let src = "\
pub struct Hive;
impl Hive {
    pub fn service(&self, name: &str) -> u32 { name.len() as u32 }
    pub(crate) fn helper(&self) -> u32 { 7 }
    pub fn good(&self) -> u32 { self.service(\"good\") + self.helper() }
}
";
    let diags = analyze(&cfg, &[("a/api.rs", "a", src)]);
    assert!(only(&diags, rules::INSTRUMENTED_FACADE).is_empty(), "{diags:?}");
}

#[test]
fn r7_ast_facade_only_applies_to_configured_files() {
    let cfg = WorkspaceConfig::default(); // no facade files
    let src = "\
pub struct Hive;
impl Hive {
    pub fn bad(&self) -> u32 { 7 }
}
";
    let diags = analyze(&cfg, &[("a/api.rs", "a", src)]);
    assert!(only(&diags, rules::INSTRUMENTED_FACADE).is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- R9

/// Declaring a mutator for `Snap` protects the type workspace-wide: a
/// foreign crate taking `&mut Snap` without the marker is flagged.
#[test]
fn r9_fires_on_undeclared_mut_access_to_protected_types() {
    let cfg = WorkspaceConfig::default();
    let home = "\
pub struct Snap { v: u64 }
impl Snap {
    pub fn set(&mut self, v: u64) { self.v = v; }
}
// lint:mutator(Snap)
pub fn patch(s: &mut Snap, v: u64) { s.set(v); }
";
    let rogue = "pub fn rogue(s: &mut Snap, v: u64) { s.set(v); }\n";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", home), ("b/lib.rs", "b", rogue)]);
    let snaps = only(&diags, rules::SNAPSHOT_DISCIPLINE);
    assert!(!snaps.is_empty(), "{diags:?}");
    assert!(snaps.iter().all(|d| d.file == "b/lib.rs"), "home crate is exempt: {snaps:?}");
}

#[test]
fn r9_passes_declared_mutators_home_crate_and_owned_locals() {
    let cfg = WorkspaceConfig::default();
    let home = "\
pub struct Snap { v: u64 }
impl Snap {
    pub fn new() -> Snap { Snap { v: 0 } }
    pub fn set(&mut self, v: u64) { self.v = v; }
}
// lint:mutator(Snap)
pub fn patch(s: &mut Snap, v: u64) { s.set(v); }
";
    let foreign = "\
// lint:mutator(Snap)
pub fn sanctioned(s: &mut Snap, v: u64) { s.set(v); }
pub fn scratch(v: u64) -> u64 {
    let mut s = Snap::new();
    s.set(v);
    v
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", home), ("b/lib.rs", "b", foreign)]);
    assert!(only(&diags, rules::SNAPSHOT_DISCIPLINE).is_empty(), "{diags:?}");
}

// --------------------------------------------------------------- R10

#[test]
fn r10_fires_on_wildcard_and_missing_variants_of_delta_enums() {
    let cfg = WorkspaceConfig::default();
    let src = "\
pub enum FooDelta { Add, Del }
pub fn wild(d: &FooDelta) -> u32 {
    match d {
        FooDelta::Add => 1,
        _ => 0,
    }
}
pub fn partial(d: &FooDelta) -> u32 {
    match d {
        FooDelta::Add => 1,
    }
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    let deltas = only(&diags, rules::EXHAUSTIVE_DELTA);
    assert_eq!(deltas.len(), 2, "{diags:?}");
    assert_eq!(deltas[0].line, 3, "the wildcard match");
    assert_eq!(deltas[1].line, 9, "the missing-variant match");
    assert!(deltas[1].message.contains("Del"), "names the missing variant: {deltas:?}");
}

#[test]
fn r10_fires_on_matches_macro_over_delta_enums() {
    let cfg = WorkspaceConfig::default();
    let src = "\
pub enum FooDelta { Add, Del }
pub fn probe(d: &FooDelta) -> bool { matches!(d, FooDelta::Add) }
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    let deltas = only(&diags, rules::EXHAUSTIVE_DELTA);
    assert_eq!(deltas.len(), 1, "{diags:?}");
    assert_eq!(deltas[0].line, 2);
}

#[test]
fn r10_passes_exhaustive_matches_and_ignores_non_delta_enums() {
    let cfg = WorkspaceConfig::default();
    let src = "\
pub enum FooDelta { Add, Del }
pub enum Color { Red, Green }
pub fn full(d: &FooDelta) -> u32 {
    match d {
        FooDelta::Add => 1,
        FooDelta::Del => 0,
    }
}
pub fn hue(c: &Color) -> u32 {
    match c {
        Color::Red => 1,
        _ => 0,
    }
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    assert!(only(&diags, rules::EXHAUSTIVE_DELTA).is_empty(), "{diags:?}");
}

// --------------------------------------------------------------- R11

#[test]
fn r11_fires_on_rebuild_calls_under_a_live_guard() {
    let cfg = WorkspaceConfig::default();
    let src = "\
pub struct View { n: usize }
impl View {
    pub fn build(n: usize) -> View { View { n } }
}
pub struct Cache { m: Mutex<u32> }
pub fn bad(c: &Cache) -> View {
    let g = c.m.lock();
    let v = View::build(1);
    drop(g);
    v
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    let locks = only(&diags, rules::LOCK_SCOPE);
    assert_eq!(locks.len(), 1, "{diags:?}");
    assert_eq!(locks[0].line, 8, "the rebuild while `g` is live");
    assert!(locks[0].message.contains("build"), "{locks:?}");
}

#[test]
fn r11_fires_on_pool_entry_under_a_live_guard() {
    let mut cfg = WorkspaceConfig::default();
    cfg.thread_crates.insert("par".to_string());
    let pool = "pub fn install(n: usize) -> usize { n }\n";
    let src = "\
pub struct Cache { m: Mutex<u32> }
pub fn bad(c: &Cache) -> usize {
    let g = c.m.lock();
    install(4)
}
";
    let diags = analyze(&cfg, &[("par/lib.rs", "par", pool), ("a/lib.rs", "a", src)]);
    let locks = only(&diags, rules::LOCK_SCOPE);
    assert_eq!(locks.len(), 1, "{diags:?}");
    assert_eq!(locks[0].file, "a/lib.rs");
    assert_eq!(locks[0].line, 4);
}

#[test]
fn r11_passes_when_the_guard_is_dropped_first() {
    let cfg = WorkspaceConfig::default();
    let src = "\
pub struct View { n: usize }
impl View {
    pub fn build(n: usize) -> View { View { n } }
}
pub struct Cache { m: Mutex<u32> }
pub fn good(c: &Cache) -> View {
    let g = c.m.lock();
    drop(g);
    View::build(1)
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    assert!(only(&diags, rules::LOCK_SCOPE).is_empty(), "{diags:?}");
}

// --------------------------------------------------------------- R12

#[test]
fn r12_fires_on_hashmap_iteration_reachable_from_a_root() {
    let cfg = WorkspaceConfig::default();
    let src = "\
// lint:root(determinism)
pub fn fingerprint(m: &HashMap<String, u64>) -> u64 {
    tally(m)
}

pub fn tally(m: &HashMap<String, u64>) -> u64 {
    let mut t = 0;
    for v in m.values() {
        t += v;
    }
    t
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    let taints = only(&diags, rules::DETERMINISM_TAINT);
    assert_eq!(taints.len(), 1, "{diags:?}");
    assert_eq!(taints[0].line, 8, "the .values() iteration");
    assert!(
        taints[0].message.contains("fingerprint"),
        "the chain names the root: {taints:?}"
    );
}

#[test]
fn r12_sees_a_hashmap_behind_a_path_qualified_arc() {
    let cfg = WorkspaceConfig::default();
    let src = "\
pub struct Tally {
    counts: std::sync::Arc<HashMap<String, u64>>,
}

impl Tally {
    // lint:root(determinism)
    pub fn fingerprint(&self) -> u64 {
        let mut t = 0;
        for v in self.counts.values() {
            t += v;
        }
        t
    }
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    let taints = only(&diags, rules::DETERMINISM_TAINT);
    assert_eq!(taints.len(), 1, "{diags:?}");
    assert_eq!(taints[0].line, 9, "the .values() iteration");
}

#[test]
fn r12_fires_on_hashset_set_operation_reachable_from_a_root() {
    let cfg = WorkspaceConfig::default();
    // The first element of an intersection is an arbitrary member of a
    // randomly seeded set, so naming it is a determinism bug.
    let src = "\
// lint:root(determinism)
pub fn fingerprint(a: &HashSet<String>, b: &HashSet<String>) -> String {
    shared(a, b)
}

pub fn shared(a: &HashSet<String>, b: &HashSet<String>) -> String {
    a.intersection(&b).next().cloned().unwrap_or_default()
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", src)]);
    let taints = only(&diags, rules::DETERMINISM_TAINT);
    assert_eq!(taints.len(), 1, "{diags:?}");
    assert_eq!(taints[0].line, 7, "the .intersection() iteration");
    assert!(
        taints[0].message.contains("fingerprint"),
        "the chain names the root: {taints:?}"
    );
}

#[test]
fn r12_is_silent_without_roots_and_honors_allows() {
    let cfg = WorkspaceConfig::default();
    // Same sink, no root: unreachable from any determinism fingerprint.
    let unrooted = "\
pub fn tally(m: &HashMap<String, u64>) -> u64 {
    let mut t = 0;
    for v in m.values() {
        t += v;
    }
    t
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", unrooted)]);
    assert!(only(&diags, rules::DETERMINISM_TAINT).is_empty(), "{diags:?}");
    // Rooted, but the sink carries a justification waiver.
    let waived = "\
// lint:root(determinism)
pub fn fingerprint(m: &HashMap<String, u64>) -> u64 {
    let mut t = 0;
    // lint:allow(determinism-taint) -- commutative integer sum
    for v in m.values() {
        t += v;
    }
    t
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", waived)]);
    assert!(only(&diags, rules::DETERMINISM_TAINT).is_empty(), "{diags:?}");
}

/// A clean multi-crate workspace produces zero diagnostics across every
/// AST rule at once (the no-false-positive floor for the engine).
#[test]
fn clean_synthetic_workspace_has_no_findings() {
    let mut cfg = WorkspaceConfig::default();
    cfg.panic_free.insert("a".to_string());
    cfg.panic_free.insert("b".to_string());
    let a = "\
pub enum FooDelta { Add, Del }
pub struct Snap { v: u64 }
impl Snap {
    pub fn apply(&mut self, d: &FooDelta) {
        match d {
            FooDelta::Add => self.v += 1,
            FooDelta::Del => self.v -= 1,
        }
    }
}
";
    let b = "\
pub fn run(d: &FooDelta) -> u64 {
    let mut s = Snap { v: 1 };
    s.apply(d);
    s.v
}
";
    let diags = analyze(&cfg, &[("a/lib.rs", "a", a), ("b/lib.rs", "b", b)]);
    assert!(diags.is_empty(), "{diags:?}");
}
