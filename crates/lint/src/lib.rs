//! # hive-lint — workspace static-analysis pass
//!
//! An in-tree analyzer (its only dependency is the workspace's own
//! `hive-par` pool, which fans the per-file scan out across workers)
//! that turns the workspace's operational conventions into
//! machine-checked invariants (DESIGN.md, "Static analysis
//! architecture"). Thirteen rules run, each on one engine. Every
//! scanned file is read and tokenized once by the one lexer
//! ([`lexer::tokenize`]); the token rules match its token stream, and a
//! crate `src/` file's stream is also parsed for the AST rules.
//!
//! **R1 `hermetic-deps`** reads the manifests line by line: every
//! `[dependencies]` / `[dev-dependencies]` entry in every manifest is a
//! workspace path dep (or `workspace = true` indirection to one); no
//! registry crates, so the build never touches the network.
//!
//! **Token rules** match forbidden token sequences. Comments never
//! reach the stream, literals are single opaque tokens, and
//! `#[cfg(test)]` / `#[test]` items are skipped, so a forbidden token
//! inside a doc comment, a string, or a unit test never fires; spacing
//! never hides one.
//!
//! * **R3 `deterministic-time`** — no `Instant::now` / `SystemTime::now`
//!   outside the declared clock file; simulation time is logical.
//! * **R4 `no-stray-io`** — no `println!` / `eprintln!` / `dbg!` in
//!   library crates (crates with binary targets are exempt — printing
//!   is their job).
//! * **R5 `forbid-unsafe`** — every library `lib.rs` carries
//!   `#![forbid(unsafe_code)]`.
//! * **R6 `no-raw-threads`** — no `thread::spawn` / `thread::scope` /
//!   `thread::Builder` outside the declared thread crate; all
//!   concurrency goes through the deterministic `hive-par` pool so
//!   parallel output stays bit-identical to serial.
//! * **R8 `delta-log`** — no direct `generation +=` bumps anywhere but
//!   the journal's one choke point (`HiveDb::bump`), in `src/`, benches,
//!   tests and examples alike. A bump that skips the journal silently
//!   breaks incremental cache maintenance.
//! * **R13 `no-full-scan`** — no full activity-log iteration
//!   (`activity_log().iter()`, `for .. in db.activity_log()`,
//!   `.activities_between(`) in hive-core service code outside the
//!   `db` arena layer and `db/index.rs`; services plan their event
//!   windows through the typed index queries instead.
//!
//! **AST rules** run over a tolerant in-tree parser ([`parser`]), a
//! workspace symbol table with receiver-type inference, and a call
//! graph ([`resolve`]) — they resolve *calls*, not text:
//!
//! * **R2 `no-panic-paths`** — no `.unwrap()`, `.expect(`, `panic!`,
//!   `unreachable!`, or `todo!` in the non-test code of panic-free
//!   crates; fallibility flows through the existing `Result` types.
//! * **R7 `instrumented-facade`** — every `pub fn` of the service
//!   facade routes through the instrumented `Hive::service(..)` /
//!   `Hive::service_mut(..)` choke point, so no Table-1 service can
//!   silently bypass the hive-obs span/counter layer.
//! * **R9 `snapshot-discipline`** — `&mut` access to a protected
//!   snapshot type (declared by its home crate's manifest, see
//!   [`config`]: `HiveDb`, `TripleStore`; or named by a
//!   `lint:mutator(T)` marker) only through its home crate, owners, or
//!   functions declared `lint:mutator(T)`; a declared type that no
//!   marker names is itself reported.
//! * **R10 `exhaustive-delta`** — every `match` on a delta enum (any
//!   declared `*Delta` enum, e.g. `DbDelta`) names all variants: no `_`,
//!   no catch-all binding, no `matches!`, so a new delta kind fails to
//!   compile instead of being silently dropped by a cache-patch path.
//! * **R11 `lock-scope`** — no call that can reach a `hive-par` pool
//!   entry, a facade service dispatch, or a snapshot rebuild while a
//!   `Mutex` guard from `.lock()` is live (latent deadlock / stall).
//! * **R12 `determinism-taint`** — functions reachable from a
//!   `lint:root(determinism)` root may not iterate `HashMap`/`HashSet`
//!   or touch wall-clock/entropy sources; fingerprints and oracles must
//!   be bit-stable.
//!
//! Any rule can be waived at a single site with a
//! `// lint:allow(<rule>)` comment on the same line or the line above
//! (`# lint:allow(<rule>)` in TOML); one [`AllowIndex`] decides every
//! waiver. Crate coverage (panic-free,
//! io-exempt, thread crates, facade/clock files, protected types) is
//! derived from the workspace manifests — see [`config`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod config;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use lexer::{tokenize, Marker, Tok, TokKind};
pub use rules::AllowIndex;

/// One rule violation at a file/line/column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `no-panic-paths`.
    pub rule: &'static str,
    /// Stable rule number (the `N` in `R<N>`).
    pub num: u8,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token (1 when unknown).
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic, deriving the rule number from the name.
    pub fn new(rule: &'static str, file: &str, line: usize, col: usize, message: String) -> Self {
        Diagnostic { rule, num: rules::num(rule), file: file.to_string(), line, col, message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: R{} {}: {}",
            self.file, self.line, self.col, self.num, self.rule, self.message
        )
    }
}

/// Sorts diagnostics into the stable report order:
/// (file, line, col, rule number, message).
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.col.cmp(&b.col))
            .then(a.num.cmp(&b.num))
            .then(a.message.cmp(&b.message))
    });
}

/// Which flagged token rules apply to a given file. R8 `delta-log`
/// applies to every scanned file and has no flag.
#[derive(Clone, Copy, Debug, Default)]
pub struct SourceRules {
    /// Apply R3 `deterministic-time`.
    pub deterministic_time: bool,
    /// Apply R4 `no-stray-io`.
    pub no_stray_io: bool,
    /// Apply R6 `no-raw-threads`.
    pub no_raw_threads: bool,
    /// Apply R13 `no-full-scan`.
    pub no_full_scan: bool,
}

/// A token rule: the rule it reports, what its message says, and the
/// token sequences it forbids, written as token texts joined by single
/// spaces.
struct TokenRule {
    rule: &'static str,
    what: &'static str,
    needles: &'static [&'static str],
}

const TIME: TokenRule = TokenRule {
    rule: rules::DETERMINISTIC_TIME,
    what: "wall-clock read outside the declared clock file",
    needles: &["Instant :: now", "SystemTime :: now"],
};
const IO: TokenRule = TokenRule {
    rule: rules::NO_STRAY_IO,
    what: "stray console output in library code",
    needles: &["println !", "eprintln !", "dbg !"],
};
const THREADS: TokenRule = TokenRule {
    rule: rules::NO_RAW_THREADS,
    what: "raw thread primitive outside crates/par (use the hive-par pool)",
    needles: &["thread :: spawn", "thread :: scope", "thread :: Builder"],
};
const DELTA: TokenRule = TokenRule {
    rule: rules::DELTA_LOG,
    what: "direct generation bump outside the delta-log API (record a delta instead)",
    needles: &["generation +="],
};
const FULL_SCAN: TokenRule = TokenRule {
    rule: rules::NO_FULL_SCAN,
    what: "full activity-log scan in service code (plan through db::index instead)",
    needles: &[
        "activity_log ( ) . iter ( )",
        "in db . activity_log ( )",
        ". activities_between (",
    ],
};
/// The attribute R5 requires in every library root.
const FORBID_UNSAFE_ATTR: &str = "# ! [ forbid ( unsafe_code ) ]";

/// True when `toks` starts with `needle`'s tokens. Literal and lifetime
/// tokens never match.
fn starts_with(toks: &[Tok], needle: &str) -> bool {
    let mut parts = needle.split(' ');
    let mut toks = toks.iter();
    parts.all(|part| {
        toks.next().is_some_and(|t| {
            matches!(t.kind, TokKind::Ident | TokKind::Punct) && t.text == part
        })
    })
}

/// `needle` as it reads in source: its tokens joined, with a space
/// only between two identifiers.
fn render(needle: &str) -> String {
    let word = |c: Option<char>| c.is_some_and(lexer::is_ident_char);
    let mut out = String::new();
    for part in needle.split(' ') {
        if word(out.chars().next_back()) && word(part.chars().next()) {
            out.push(' ');
        }
        out.push_str(part);
    }
    out
}

/// The runs of `toks` outside `#[cfg(test)]` and `#[test]` items. An
/// item runs from its attribute through the close brace that matches
/// its first `{`, or through a `;` that comes first.
fn live_runs(toks: &[Tok]) -> Vec<&[Tok]> {
    let mut runs = Vec::new();
    let (mut start, mut i) = (0, 0);
    while i < toks.len() {
        let attr = ["# [ cfg ( test ) ]", "# [ test ]"]
            .into_iter()
            .find(|attr| starts_with(&toks[i..], attr));
        let Some(attr) = attr else {
            i += 1;
            continue;
        };
        runs.push(&toks[start..i]);
        i += attr.split(' ').count();
        let mut depth = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            i += 1;
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") && depth > 0 {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(";") && depth == 0 {
                break;
            }
        }
        start = i;
    }
    runs.push(&toks[start..]);
    runs
}

/// Every token-rule hit in one file's live runs, waived or not: the
/// rules `which` switches on, plus R8 on every file.
fn token_hits(file: &str, runs: &[&[Tok]], which: SourceRules) -> Vec<Diagnostic> {
    let table: Vec<&TokenRule> = [
        (which.deterministic_time, &TIME),
        (which.no_stray_io, &IO),
        (which.no_raw_threads, &THREADS),
        (true, &DELTA),
        (which.no_full_scan, &FULL_SCAN),
    ]
    .into_iter()
    .filter_map(|(on, rule)| on.then_some(rule))
    .collect();
    let mut out = Vec::new();
    for run in runs {
        for (i, t) in run.iter().enumerate() {
            for rule in &table {
                for needle in rule.needles {
                    if starts_with(&run[i..], needle) {
                        out.push(Diagnostic::new(
                            rule.rule,
                            file,
                            t.line,
                            t.col,
                            format!("{}: `{}`", rule.what, render(needle)),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// The R5 hit of a library root that lacks `#![forbid(unsafe_code)]`.
fn missing_forbid(file: &str, runs: &[&[Tok]]) -> Option<Diagnostic> {
    let found = runs
        .iter()
        .any(|run| (0..run.len()).any(|i| starts_with(&run[i..], FORBID_UNSAFE_ATTR)));
    (!found).then(|| {
        Diagnostic::new(
            rules::FORBID_UNSAFE,
            file,
            1,
            1,
            format!("library root is missing `{}`", render(FORBID_UNSAFE_ATTR)),
        )
    })
}

/// Drops the hits a `lint:allow` marker of `file` waives.
fn unwaived(file: &str, markers: &[Marker], mut hits: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut allows = AllowIndex::default();
    allows.add_markers(file, markers);
    hits.retain(|d| !allows.allows(file, d.rule, d.line));
    hits
}

/// Runs the token rules (R3, R4, R6, R8, R13) over one file.
pub fn check_source(file: &str, source: &str, which: SourceRules) -> Vec<Diagnostic> {
    let (toks, markers) = tokenize(source);
    unwaived(file, &markers, token_hits(file, &live_runs(&toks), which))
}

/// Runs R5 over a library root: the file must carry
/// `#![forbid(unsafe_code)]`.
pub fn check_lib_root(file: &str, source: &str) -> Vec<Diagnostic> {
    let (toks, markers) = tokenize(source);
    unwaived(file, &markers, missing_forbid(file, &live_runs(&toks)).into_iter().collect())
}

/// Runs R1 over a manifest: every entry of a dependency section must be
/// a workspace path dep (`path = ...` or `workspace = true`).
pub fn check_manifest(file: &str, contents: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    let mut dotted_dep_header: Option<usize> = None;
    let mut dotted_dep_hermetic = false;
    let mut markers = Vec::new();
    for (lineno, raw) in contents.lines().enumerate() {
        if let Some(hash) = raw.find('#') {
            lexer::harvest_markers(&raw[hash..], lineno + 1, &mut markers);
        }
    }
    let mut allows = AllowIndex::default();
    allows.add_markers(file, &markers);
    let flush_dotted = |header: &mut Option<usize>, hermetic: &mut bool,
                            out: &mut Vec<Diagnostic>| {
        if let Some(line) = header.take() {
            if !*hermetic {
                out.push(Diagnostic::new(
                    rules::HERMETIC_DEPS,
                    file,
                    line,
                    1,
                    "dependency is not a workspace path dep".to_string(),
                ));
            }
        }
        *hermetic = false;
    };
    for (lineno, raw) in contents.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_dotted(&mut dotted_dep_header, &mut dotted_dep_hermetic, &mut out);
            let section = line.trim_matches(|c| c == '[' || c == ']');
            let is_dep_table = |s: &str| {
                s == "dependencies"
                    || s == "dev-dependencies"
                    || s == "build-dependencies"
                    || s == "workspace.dependencies"
                    || (s.starts_with("target.") && s.ends_with(".dependencies"))
            };
            if is_dep_table(section) {
                in_dep_section = true;
            } else if let Some(head) = section.rsplit_once('.').map(|(h, _)| h) {
                // `[dependencies.foo]`-style dotted section.
                if is_dep_table(head) {
                    in_dep_section = false;
                    dotted_dep_header = Some(lineno);
                    dotted_dep_hermetic = false;
                } else {
                    in_dep_section = false;
                }
            } else {
                in_dep_section = false;
            }
            continue;
        }
        if dotted_dep_header.is_some() {
            if line.split_once('=').is_some_and(|(k, v)| hermetic_pair(k, v)) {
                dotted_dep_hermetic = true;
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        let value = value.trim();
        let hermetic = (key.ends_with(".workspace") && value == "true")
            || inline_pairs(value).into_iter().any(|(k, v)| hermetic_pair(k, v));
        if !hermetic && !allows.allows(file, rules::HERMETIC_DEPS, lineno) {
            out.push(Diagnostic::new(
                rules::HERMETIC_DEPS,
                file,
                lineno,
                1,
                format!("`{key}` is not a workspace path dep (registry crates are forbidden)"),
            ));
        }
    }
    flush_dotted(&mut dotted_dep_header, &mut dotted_dep_hermetic, &mut out);
    out
}

/// R1's key test for one `key = value` pair of a dependency's table,
/// inline or dotted: a `path` key, or `workspace = true`.
fn hermetic_pair(key: &str, value: &str) -> bool {
    let key = key.trim().trim_matches('"');
    key == "path" || (key == "workspace" && value.trim() == "true")
}

/// The `key = value` pairs of an inline table `{ ... }`, split at the
/// commas that sit outside quotes and brackets; empty for any other
/// value.
fn inline_pairs(value: &str) -> Vec<(&str, &str)> {
    let Some(body) = value.strip_prefix('{').and_then(|v| v.strip_suffix('}')) else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    let (mut quote, mut depth, mut start) = (None, 0usize, 0);
    for (i, c) in body.char_indices() {
        match (quote, c) {
            (Some(q), _) if c == q => quote = None,
            (Some(_), _) => {}
            (None, '"' | '\'') => quote = Some(c),
            (None, '[' | '{') => depth += 1,
            (None, ']' | '}') => depth = depth.saturating_sub(1),
            (None, ',') if depth == 0 => {
                entries.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    entries.push(&body[start..]);
    entries.into_iter().filter_map(|e| e.split_once('=')).collect()
}

/// Scan size counters, reported alongside the diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanStats {
    /// Number of `.rs` files analyzed.
    pub files: usize,
    /// Total source lines across those files.
    pub loc: usize,
}

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One scanned file: where it is, which token rules it gets, and
/// whether it is a crate `src/` file the AST rules parse.
struct Job {
    path: PathBuf,
    file: String,
    which: SourceRules,
    /// The crate of a `src/` file.
    krate: Option<String>,
    /// The crate's `src/lib.rs`, which R5 checks.
    lib_root: bool,
}

/// What one job hands back: its line count, markers, token-rule hits
/// (waived or not) and, for a `src/` file, its parsed items.
struct Scanned {
    loc: usize,
    markers: Vec<Marker>,
    hits: Vec<Diagnostic>,
    parsed: Option<ast::File>,
}

/// Reads and tokenizes one file, runs its token rules, and parses a
/// `src/` file for the AST rules.
fn scan_file(job: &Job) -> io::Result<Scanned> {
    let source = fs::read_to_string(&job.path)?;
    let (toks, markers) = tokenize(&source);
    let runs = live_runs(&toks);
    let mut hits = token_hits(&job.file, &runs, job.which);
    if job.lib_root {
        hits.extend(missing_forbid(&job.file, &runs));
    }
    let parsed = job.krate.as_ref().map(|name| ast::File {
        path: job.file.clone(),
        crate_name: name.clone(),
        items: parser::parse(&toks, &markers),
    });
    Ok(Scanned { loc: source.lines().count(), markers, hits, parsed })
}

/// Scans the whole workspace rooted at `root` and returns every
/// diagnostic in stable report order, plus scan-size counters.
///
/// Each file is read and tokenized once, on the [`hive_par`] pool: its
/// token rules run on the token stream, and a `src/` file's stream is
/// parsed for the AST rules. Results merge in file order and the
/// diagnostics are then sorted, so the report is byte-identical at any
/// worker count.
pub fn scan_workspace_stats(root: &Path) -> io::Result<(Vec<Diagnostic>, ScanStats)> {
    let cfg = config::load(root)?;
    let mut out = Vec::new();
    let rel = |p: &Path| -> String {
        p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/")
    };

    // R1 over the root manifest and every crate manifest.
    let mut manifests = vec![root.join("Cargo.toml")];
    for (_, dir) in &cfg.crates {
        manifests.push(dir.join("Cargo.toml"));
    }
    for manifest in &manifests {
        let contents = fs::read_to_string(manifest)?;
        out.extend(check_manifest(&rel(manifest), &contents));
    }

    // One job per file: R3/R4/R6/R8/R13 and the AST rules over src/
    // (R5 on lib.rs), R3/R6/R8 over benches/, root tests/ and examples/.
    let mut jobs: Vec<Job> = Vec::new();
    for (name, dir) in &cfg.crates {
        let threads_checked = !cfg.thread_crates.contains(name);
        let lib_rs = dir.join("src").join("lib.rs");
        let mut sources = Vec::new();
        rust_files(&dir.join("src"), &mut sources)?;
        for path in sources {
            let file = rel(&path);
            let which = SourceRules {
                deterministic_time: !cfg.clock_files.contains(&file),
                no_stray_io: !cfg.io_exempt.contains(name),
                no_raw_threads: threads_checked,
                // R13 covers the platform's service code only: the
                // index module and the arena layer are the two places
                // allowed to walk the whole log. (Crate names here are
                // directory names — `core`, not `hive-core`.)
                no_full_scan: name == "core"
                    && !file.ends_with("/db.rs")
                    && !file.contains("/db/"),
            };
            let lib_root = path == lib_rs;
            jobs.push(Job { path, file, which, krate: Some(name.clone()), lib_root });
        }
        let mut benches = Vec::new();
        rust_files(&dir.join("benches"), &mut benches)?;
        for path in benches {
            let file = rel(&path);
            let which = SourceRules {
                deterministic_time: true,
                no_raw_threads: threads_checked,
                ..Default::default()
            };
            jobs.push(Job { path, file, which, krate: None, lib_root: false });
        }
    }
    for extra in ["tests", "examples"] {
        let mut files = Vec::new();
        rust_files(&root.join(extra), &mut files)?;
        for path in files {
            let file = rel(&path);
            let which = SourceRules {
                deterministic_time: true,
                no_raw_threads: true,
                ..Default::default()
            };
            jobs.push(Job { path, file, which, krate: None, lib_root: false });
        }
    }

    let mut stats = ScanStats::default();
    let mut allows = AllowIndex::default();
    let mut hits = Vec::new();
    let mut parsed = Vec::new();
    for (job, result) in jobs.iter().zip(hive_par::par_tasks(&jobs, |_, job| scan_file(job))) {
        let scanned = result?;
        stats.files += 1;
        stats.loc += scanned.loc;
        allows.add_markers(&job.file, &scanned.markers);
        hits.extend(scanned.hits);
        parsed.extend(scanned.parsed);
    }
    out.extend(hits.into_iter().filter(|d| !allows.allows(&d.file, d.rule, d.line)));
    let ws = resolve::Workspace::build(&parsed);
    out.extend(rules::check_ast(&ws, &cfg, &allows));

    sort_diagnostics(&mut out);
    Ok((out, stats))
}

/// Scans the whole workspace rooted at `root` and returns every
/// diagnostic in stable report order.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    scan_workspace_stats(root).map(|(d, _)| d)
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(contents) = fs::read_to_string(&manifest) {
                if contents.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_marker_suppresses_same_and_next_line() {
        let src = "let t = Instant::now(); // lint:allow(deterministic-time)\n";
        let d = check_source(
            "f.rs",
            src,
            SourceRules { deterministic_time: true, ..Default::default() },
        );
        assert!(d.is_empty(), "{d:?}");
        let src2 = "// lint:allow(deterministic-time)\nlet t = Instant::now();\n";
        assert!(check_source(
            "f.rs",
            src2,
            SourceRules { deterministic_time: true, ..Default::default() }
        )
        .is_empty());
    }

    /// Columns where `needle` matches in `src`.
    fn match_cols(src: &str, needle: &str) -> Vec<usize> {
        let (toks, _) = tokenize(src);
        (0..toks.len()).filter(|&i| starts_with(&toks[i..], needle)).map(|i| toks[i].col).collect()
    }

    #[test]
    fn boundary_guard_avoids_identifier_suffixes() {
        assert!(match_cols("my_dbg!(x)", "dbg !").is_empty());
        assert_eq!(match_cols("dbg!(x)", "dbg !"), vec![1]);
        assert!(match_cols("x.unwrap_or(1)", ". unwrap ( )").is_empty());
    }

    #[test]
    fn needles_match_tokens_not_spacing_or_literals() {
        assert_eq!(match_cols("a.generation+=1; b.generation  +=  1;", "generation +="), [3, 20]);
        let quoted = "let s = \"Instant::now\"; // Instant::now";
        assert!(match_cols(quoted, "Instant :: now").is_empty());
        assert_eq!(render("in db . activity_log ( )"), "in db.activity_log()");
    }

    #[test]
    fn test_items_are_skipped_through_their_brace_or_semicolon() {
        let src = "\
#[cfg(test)]
const T: fn() -> Instant = Instant::now;
fn f() { let t = Instant::now(); }
#[cfg(test)]
mod tests { fn g() { let t = { Instant::now() }; } }
#[test] fn h() { let t = Instant::now(); }
fn k() { let t = Instant::now(); }
";
        let which = SourceRules { deterministic_time: true, ..Default::default() };
        let d = check_source("f.rs", src, which);
        let lines: Vec<usize> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, [3, 7], "{d:?}");
    }

    #[test]
    fn diagnostics_render_the_stable_format() {
        let d = Diagnostic::new(rules::NO_PANIC_PATHS, "crates/x/src/lib.rs", 7, 13, "boom".into());
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:7:13: R2 no-panic-paths: boom");
    }

    #[test]
    fn sort_is_deterministic() {
        let mut ds = vec![
            Diagnostic::new(rules::DELTA_LOG, "b.rs", 1, 1, "z".into()),
            Diagnostic::new(rules::NO_PANIC_PATHS, "a.rs", 9, 2, "y".into()),
            Diagnostic::new(rules::NO_PANIC_PATHS, "a.rs", 9, 1, "x".into()),
        ];
        sort_diagnostics(&mut ds);
        let order: Vec<_> = ds.iter().map(|d| (d.file.as_str(), d.line, d.col)).collect();
        assert_eq!(order, vec![("a.rs", 9, 1), ("a.rs", 9, 2), ("b.rs", 1, 1)]);
    }

    #[test]
    fn manifest_accepts_path_and_workspace_deps() {
        let toml = "[dependencies]\nhive-rng = { path = \"../rng\" }\nhive-core = { workspace = true }\n";
        assert!(check_manifest("Cargo.toml", toml).is_empty());
    }

    #[test]
    fn manifest_rejects_registry_deps() {
        let toml = "[dependencies]\nserde = \"1.0\"\n";
        let d = check_manifest("Cargo.toml", toml);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::HERMETIC_DEPS);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn dotted_dependency_sections_are_checked() {
        let bad = "[dependencies.serde]\nversion = \"1.0\"\n";
        let d = check_manifest("Cargo.toml", bad);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
        let good = "[dependencies.hive-rng]\npath = \"../rng\"\n";
        assert!(check_manifest("Cargo.toml", good).is_empty());
    }

    #[test]
    fn lib_root_requires_forbid_unsafe() {
        assert!(check_lib_root("lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n").is_empty());
        let d = check_lib_root("lib.rs", "pub fn f() {}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::FORBID_UNSAFE);
    }
}
