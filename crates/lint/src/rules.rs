//! AST rule engine: R2 and R7 and the structural rules R9–R12 over the
//! resolved [`Workspace`], plus the rule names and the one waiver index
//! every rule consults.
//!
//! Every rule here works on [`FnRecord`]s and the call graph — no text
//! matching. Waivers use the same `lint:allow(<rule>)` comment markers
//! as the token rules, and one [`AllowIndex`] decides them all.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::SelfKind;
use crate::config::WorkspaceConfig;
use crate::lexer::{Marker, MarkerKind};
use crate::resolve::{Callee, FnKey, FnRecord, Workspace};
use crate::Diagnostic;

/// R1: registry dependencies are forbidden.
pub const HERMETIC_DEPS: &str = "hermetic-deps";
/// R2: panicking calls are forbidden in library code.
pub const NO_PANIC_PATHS: &str = "no-panic-paths";
/// R3: wall-clock reads are forbidden outside the clock module.
pub const DETERMINISTIC_TIME: &str = "deterministic-time";
/// R4: stray stdout/stderr output is forbidden in library code.
pub const NO_STRAY_IO: &str = "no-stray-io";
/// R5: library roots must forbid unsafe code.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
/// R6: raw thread primitives are forbidden outside the thread crates.
pub const NO_RAW_THREADS: &str = "no-raw-threads";
/// R7: facade services must route through `Hive::service(..)`.
pub const INSTRUMENTED_FACADE: &str = "instrumented-facade";
/// R8: generation counters may only be bumped via the delta-log API.
pub const DELTA_LOG: &str = "delta-log";
/// R9: `&mut` access to snapshot types only through declared mutators.
pub const SNAPSHOT_DISCIPLINE: &str = "snapshot-discipline";
/// R10: matches on delta enums must stay exhaustive.
pub const EXHAUSTIVE_DELTA: &str = "exhaustive-delta";
/// R11: no service/rebuild/pool call while a Mutex guard is live.
pub const LOCK_SCOPE: &str = "lock-scope";
/// R12: determinism roots may not reach storage-order or clock sources.
pub const DETERMINISM_TAINT: &str = "determinism-taint";
/// R13: full activity-log scans are forbidden in service code.
pub const NO_FULL_SCAN: &str = "no-full-scan";

/// Stable rule number (the `R<n>` in diagnostics) for a rule name.
pub fn num(rule: &str) -> u8 {
    match rule {
        HERMETIC_DEPS => 1,
        NO_PANIC_PATHS => 2,
        DETERMINISTIC_TIME => 3,
        NO_STRAY_IO => 4,
        FORBID_UNSAFE => 5,
        NO_RAW_THREADS => 6,
        INSTRUMENTED_FACADE => 7,
        DELTA_LOG => 8,
        SNAPSHOT_DISCIPLINE => 9,
        EXHAUSTIVE_DELTA => 10,
        LOCK_SCOPE => 11,
        DETERMINISM_TAINT => 12,
        NO_FULL_SCAN => 13,
        _ => 0,
    }
}

/// `lint:allow` markers for the whole workspace: file → `(line, rule)`.
#[derive(Default)]
pub struct AllowIndex {
    map: BTreeMap<String, Vec<(usize, String)>>,
}

impl AllowIndex {
    /// Records every `lint:allow` marker of `file`.
    pub fn add_markers(&mut self, file: &str, markers: &[Marker]) {
        for m in markers.iter().filter(|m| m.kind == MarkerKind::Allow) {
            let sites = self.map.entry(file.to_string()).or_default();
            sites.extend(m.args.iter().map(|rule| (m.line, rule.clone())));
        }
    }

    /// True if `rule` is waived at `file:line` (marker on the same line
    /// or the line directly above).
    pub fn allows(&self, file: &str, rule: &str, line: usize) -> bool {
        self.map.get(file).is_some_and(|v| {
            v.iter().any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
        })
    }
}

/// Facade functions exempt from R7: construction and cache plumbing
/// that runs no Table-1 service, plus the choke points themselves.
pub const FACADE_EXEMPT: &[&str] =
    &["new", "db", "db_mut", "indexes", "knowledge", "ppr", "service", "service_mut"];

/// Enum names whose matches R10 forces to stay exhaustive: the delta
/// vocabularies (`*Delta`) that grow as cache maintenance learns new
/// operations.
pub(crate) fn is_delta_enum(name: &str) -> bool {
    name.ends_with("Delta")
}

/// Method names that rebuild a derived snapshot from base state (R11).
const REBUILD_NAMES: &[&str] = &["build", "rebuild", "to_store"];

/// Runs all AST rules over the workspace.
pub fn check_ast(ws: &Workspace, cfg: &WorkspaceConfig, allows: &AllowIndex) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_panic_paths(ws, cfg, allows, &mut out);
    check_service_routing(ws, cfg, allows, &mut out);
    check_snapshot_discipline(ws, cfg, allows, &mut out);
    check_exhaustive_delta(ws, allows, &mut out);
    check_lock_scope(ws, cfg, allows, &mut out);
    check_determinism_taint(ws, allows, &mut out);
    out
}

/// R2 `no-panic-paths` (AST): panic sites in the non-test code of
/// panic-free crates.
fn check_panic_paths(
    ws: &Workspace,
    cfg: &WorkspaceConfig,
    allows: &AllowIndex,
    out: &mut Vec<Diagnostic>,
) {
    for r in &ws.records {
        if r.is_test || !cfg.panic_free.contains(&r.crate_name) {
            continue;
        }
        for (line, col, what) in &r.panic_sites {
            if !allows.allows(&r.file, NO_PANIC_PATHS, *line) {
                out.push(Diagnostic::new(
                    NO_PANIC_PATHS,
                    &r.file,
                    *line,
                    *col,
                    format!("panicking call in library code: `{what}`"),
                ));
            }
        }
    }
}

/// R7 `instrumented-facade` (AST): every unrestricted `pub fn` of a
/// facade file must call `self.service(..)` / `self.service_mut(..)`
/// somewhere in its body, unless exempt by name. `pub(crate)` helpers
/// are crate-internal plumbing, not services, and are skipped.
fn check_service_routing(
    ws: &Workspace,
    cfg: &WorkspaceConfig,
    allows: &AllowIndex,
    out: &mut Vec<Diagnostic>,
) {
    for r in &ws.records {
        if r.is_test
            || !r.is_pub
            || r.vis_restricted
            || !cfg.facade_files.iter().any(|f| f == &r.file)
            || FACADE_EXEMPT.contains(&r.name.as_str())
            || r.routes_service
            || allows.allows(&r.file, INSTRUMENTED_FACADE, r.line)
        {
            continue;
        }
        out.push(Diagnostic::new(
            INSTRUMENTED_FACADE,
            &r.file,
            r.line,
            r.col,
            format!(
                "`pub fn {}` does not route through `Hive::service(..)` / `Hive::service_mut(..)`",
                r.name
            ),
        ));
    }
}

/// Every type some function declares itself a mutation choke point for
/// via `lint:mutator(T)`.
fn marked_types(ws: &Workspace) -> BTreeSet<String> {
    ws.records.iter().flat_map(|r| r.mutator_of.iter().cloned()).collect()
}

/// True if `r` may legitimately mutate protected type `ty`: it lives in
/// the type's home crate, is a declared choke point for it, or belongs
/// to a type that owns a `ty` field (a wrapper mutating its own state).
fn may_mutate(ws: &Workspace, r: &FnRecord, ty: &str) -> bool {
    if r.mutator_of.iter().any(|t| t == ty) {
        return true;
    }
    if ws.type_crate.get(ty).is_some_and(|home| home == &r.crate_name) {
        return true;
    }
    if let Some(self_ty) = &r.self_ty {
        if let Some(fields) = ws.structs.get(self_ty) {
            if fields.values().any(|ft| crate::resolve::type_head(ft) == ty) {
                return true;
            }
        }
    }
    false
}

/// R9 `snapshot-discipline`: `&mut` access to a protected type only
/// through its home crate, owners, or declared `lint:mutator(T)` choke
/// points. The protected types are those the config declares and those
/// a marker names. Three shapes:
///
/// * a declared type that no `lint:mutator(T)` marker names (its
///   sanctioned mutation path is gone, or its marker was dropped),
/// * a function takes `&mut T` as a parameter without being a declared
///   mutator (handing out raw mutable access), and
/// * a call to a `&mut self` method of `T` on a *borrowed* receiver
///   (owned locals are scratch state and exempt).
fn check_snapshot_discipline(
    ws: &Workspace,
    cfg: &WorkspaceConfig,
    allows: &AllowIndex,
    out: &mut Vec<Diagnostic>,
) {
    let marked = marked_types(ws);
    for declared in cfg.protected.iter().filter(|t| !marked.contains(&t.name)) {
        out.push(Diagnostic::new(
            SNAPSHOT_DISCIPLINE,
            &declared.manifest,
            declared.line,
            1,
            format!(
                "`{ty}` is declared protected but no `lint:mutator({ty})` marker names it; mark \
                 its mutation choke point, or drop the declaration with the type",
                ty = declared.name
            ),
        ));
    }
    let mut protected = marked;
    protected.extend(cfg.protected.iter().map(|t| t.name.clone()));
    if protected.is_empty() {
        return;
    }
    for r in &ws.records {
        if r.is_test {
            continue;
        }
        // Shape 1: undeclared `&mut T` parameters.
        for (param, ty) in &r.mut_ref_params {
            if protected.contains(ty)
                && !may_mutate(ws, r, ty)
                && !allows.allows(&r.file, SNAPSHOT_DISCIPLINE, r.line)
            {
                out.push(Diagnostic::new(
                    SNAPSHOT_DISCIPLINE,
                    &r.file,
                    r.line,
                    r.col,
                    format!(
                        "`{}` takes `{param}: &mut {ty}` outside `{ty}`'s home crate; route the \
                         mutation through a `lint:mutator({ty})` choke point or return deltas",
                        r.name
                    ),
                ));
            }
        }
        // Shape 2: `&mut self` method calls on borrowed protected state.
        for e in &r.calls {
            let Callee::Fn(key) = &e.to else { continue };
            let Some(meta) = ws.meta.get(key) else { continue };
            if meta.self_kind != SelfKind::RefMut {
                continue;
            }
            let Some((ty, _)) = meta.display.split_once("::") else { continue };
            if !protected.contains(ty)
                || e.recv_owned != Some(false)
                || may_mutate(ws, r, ty)
                || allows.allows(&r.file, SNAPSHOT_DISCIPLINE, e.line)
            {
                continue;
            }
            out.push(Diagnostic::new(
                SNAPSHOT_DISCIPLINE,
                &r.file,
                e.line,
                e.col,
                format!(
                    "`{}` mutates a borrowed `{ty}` via `{}` outside a declared \
                     `lint:mutator({ty})` choke point",
                    r.name, meta.display
                ),
            ));
        }
    }
}

/// R10 `exhaustive-delta`: every `match` on a delta enum names all
/// variants explicitly — no `_`, no catch-all binding, no `matches!`.
/// A wildcard compiles fine when a variant is added, which is exactly
/// how a cache-patch path silently drops a new delta kind.
fn check_exhaustive_delta(ws: &Workspace, allows: &AllowIndex, out: &mut Vec<Diagnostic>) {
    for r in &ws.records {
        if r.is_test {
            continue;
        }
        for m in &r.matches {
            let enum_name = match &m.scrutinee_ty {
                Some(t) if is_delta_enum(t) && ws.enums.contains_key(t) => t.clone(),
                _ => {
                    let Some(n) = m
                        .arm_paths
                        .iter()
                        .flat_map(|p| p.iter())
                        .find(|s| is_delta_enum(s) && ws.enums.contains_key(s.as_str()))
                    else {
                        continue;
                    };
                    n.clone()
                }
            };
            if allows.allows(&r.file, EXHAUSTIVE_DELTA, m.line) {
                continue;
            }
            if m.has_wild || m.has_binding {
                let what = if m.has_wild { "wildcard `_`" } else { "catch-all binding" };
                out.push(Diagnostic::new(
                    EXHAUSTIVE_DELTA,
                    &r.file,
                    m.line,
                    m.col,
                    format!(
                        "match on `{enum_name}` has a {what} arm; name every variant so new \
                         delta kinds fail to compile instead of being silently dropped"
                    ),
                ));
                continue;
            }
            let declared: BTreeSet<&str> =
                ws.enums[&enum_name].iter().map(String::as_str).collect();
            let mut covered: BTreeSet<&str> = BTreeSet::new();
            for path in &m.arm_paths {
                if let Some(i) = path.iter().position(|s| s == &enum_name) {
                    if let Some(v) = path.get(i + 1) {
                        covered.insert(v.as_str());
                    }
                } else if path.len() == 1 && declared.contains(path[0].as_str()) {
                    // `use DbDelta::*` style bare variant.
                    covered.insert(path[0].as_str());
                }
            }
            let missing: Vec<&str> =
                declared.iter().filter(|v| !covered.contains(**v)).copied().collect();
            if !missing.is_empty() {
                out.push(Diagnostic::new(
                    EXHAUSTIVE_DELTA,
                    &r.file,
                    m.line,
                    m.col,
                    format!(
                        "match on `{enum_name}` misses variant(s) {}",
                        missing.join(", ")
                    ),
                ));
            }
        }
        for mm in &r.matches_macros {
            if is_delta_enum(&mm.enum_name)
                && !allows.allows(&r.file, EXHAUSTIVE_DELTA, mm.line)
            {
                out.push(Diagnostic::new(
                    EXHAUSTIVE_DELTA,
                    &r.file,
                    mm.line,
                    mm.col,
                    format!(
                        "`matches!` on `{}` is not exhaustiveness-checked; use a dedicated \
                         predicate with a full match",
                        mm.enum_name
                    ),
                ));
            }
        }
    }
}

/// What a reachable R11 target does, for the diagnostic message.
struct LockTargets {
    pool: BTreeSet<FnKey>,
    service: BTreeSet<FnKey>,
    rebuild: BTreeSet<FnKey>,
}

fn lock_targets(ws: &Workspace, cfg: &WorkspaceConfig) -> LockTargets {
    let mut t = LockTargets {
        pool: BTreeSet::new(),
        service: BTreeSet::new(),
        rebuild: BTreeSet::new(),
    };
    for r in &ws.records {
        if cfg.thread_crates.contains(&r.crate_name) && r.is_pub {
            t.pool.insert(r.key.clone());
        }
        if r.self_ty.as_deref() == Some("Hive")
            && (r.name == "service" || r.name == "service_mut")
        {
            t.service.insert(r.key.clone());
        }
        if r.self_ty.is_some() && REBUILD_NAMES.contains(&r.name.as_str()) {
            t.rebuild.insert(r.key.clone());
        }
    }
    t
}

/// R11 `lock-scope`: no call that can reach a `hive-par` pool entry, a
/// facade service dispatch, or a snapshot rebuild while a `Mutex` guard
/// from `.lock()` is live. Any of the three under a held facade lock is
/// a latent deadlock or a multi-second stall inside a critical section.
fn check_lock_scope(
    ws: &Workspace,
    cfg: &WorkspaceConfig,
    allows: &AllowIndex,
    out: &mut Vec<Diagnostic>,
) {
    let targets = lock_targets(ws, cfg);
    let pool = ws.reach_reverse(&targets.pool);
    let service = ws.reach_reverse(&targets.service);
    let rebuild = ws.reach_reverse(&targets.rebuild);
    let mut seen = BTreeSet::new();
    for r in &ws.records {
        if r.is_test || cfg.thread_crates.contains(&r.crate_name) {
            continue;
        }
        for scope in &r.guard_scopes {
            for e in &scope.calls {
                let reason = match &e.to {
                    Callee::Fn(k) => {
                        if targets.pool.contains(k) || pool.contains(k) {
                            Some(("hive-par pool entry", display_of(ws, k)))
                        } else if targets.service.contains(k) || service.contains(k) {
                            Some(("service dispatch", display_of(ws, k)))
                        } else if targets.rebuild.contains(k) || rebuild.contains(k) {
                            Some(("snapshot rebuild", display_of(ws, k)))
                        } else {
                            None
                        }
                    }
                    Callee::Path(segs) => segs
                        .first()
                        .is_some_and(|s| s == "hive_par")
                        .then(|| ("hive-par pool entry", segs.join("::"))),
                    Callee::Method { .. } => None,
                };
                let Some((kind, what)) = reason else { continue };
                if allows.allows(&r.file, LOCK_SCOPE, e.line)
                    || !seen.insert((r.file.clone(), e.line, e.col))
                {
                    continue;
                }
                out.push(Diagnostic::new(
                    LOCK_SCOPE,
                    &r.file,
                    e.line,
                    e.col,
                    format!(
                        "`{}` calls `{what}` (reaches a {kind}) while a Mutex guard acquired \
                         at line {} is live; drop the guard first",
                        r.name, scope.line
                    ),
                ));
            }
        }
    }
}

fn display_of(ws: &Workspace, key: &str) -> String {
    ws.meta.get(key).map_or_else(|| key.to_string(), |m| m.display.clone())
}

/// R12 `determinism-taint`: no function reachable from a
/// `lint:root(determinism)` root may iterate a `HashMap`/`HashSet` or
/// touch wall-clock/entropy sources — fingerprints and oracles must be
/// bit-stable across runs.
fn check_determinism_taint(ws: &Workspace, allows: &AllowIndex, out: &mut Vec<Diagnostic>) {
    let roots: BTreeSet<FnKey> = ws
        .records
        .iter()
        .filter(|r| r.root_of.iter().any(|f| f == "determinism"))
        .map(|r| r.key.clone())
        .collect();
    if roots.is_empty() {
        return;
    }
    let (reached, parent) = ws.reach_forward(&roots);
    for r in &ws.records {
        if r.is_test || !reached.contains(&r.key) {
            continue;
        }
        for (line, col, what) in &r.taint_sinks {
            if allows.allows(&r.file, DETERMINISM_TAINT, *line) {
                continue;
            }
            out.push(Diagnostic::new(
                DETERMINISM_TAINT,
                &r.file,
                *line,
                *col,
                format!(
                    "{what} is reachable from a determinism root: {}",
                    ws.chain_to(&parent, &r.key)
                ),
            ));
        }
    }
}
