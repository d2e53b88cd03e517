//! Fixture tests: one deliberate violation per rule R1-R8 and R13,
//! asserting the exact rule id, file label, and line of each
//! diagnostic, plus a `lint:allow` escape-hatch case that must stay
//! silent. R2 and R7 run on the AST engine, the rest on the token rules.

use hive_lint::config::WorkspaceConfig;
use hive_lint::{
    ast, check_lib_root, check_manifest, check_source, parser, resolve, rules, tokenize,
    AllowIndex, Diagnostic, SourceRules,
};

const ALL_SOURCE_RULES: SourceRules = SourceRules {
    deterministic_time: true,
    no_stray_io: true,
    no_raw_threads: true,
    no_full_scan: true,
};

/// Parses one fixture as the only file of crate `fixtures` and runs the
/// AST rules under `cfg`.
fn analyze(cfg: &WorkspaceConfig, file: &str, src: &str) -> Vec<Diagnostic> {
    let (toks, markers) = tokenize(src);
    let mut allows = AllowIndex::default();
    allows.add_markers(file, &markers);
    let items = parser::parse(&toks, &markers);
    let parsed = [ast::File { path: file.to_string(), crate_name: "fixtures".to_string(), items }];
    rules::check_ast(&resolve::Workspace::build(&parsed), cfg, &allows)
}

/// A workspace whose `fixtures` crate is panic-free (R2).
fn panic_free() -> WorkspaceConfig {
    let mut cfg = WorkspaceConfig::default();
    cfg.panic_free.insert("fixtures".to_string());
    cfg
}

/// A workspace whose service facade is `file` (R7).
fn facade(file: &str) -> WorkspaceConfig {
    WorkspaceConfig { facade_files: vec![file.to_string()], ..WorkspaceConfig::default() }
}

#[test]
fn r1_hermetic_deps_fires_on_registry_dep() {
    let toml = include_str!("fixtures/r1_registry_dep.toml");
    let diags = check_manifest("fixtures/r1_registry_dep.toml", toml);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == rules::HERMETIC_DEPS));
    assert!(diags.iter().all(|d| d.file == "fixtures/r1_registry_dep.toml"));
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("serde"));
    // A registry entry whose text merely contains `path` is still one.
    assert_eq!(diags[1].line, 6);
    assert!(diags[1].message.contains("xregistry"));
}

#[test]
fn r2_no_panic_paths_fires_outside_tests_only() {
    let src = include_str!("fixtures/r2_panic.rs");
    let diags = analyze(&panic_free(), "fixtures/r2_panic.rs", src);
    let panics: Vec<_> = diags.iter().filter(|d| d.rule == rules::NO_PANIC_PATHS).collect();
    assert_eq!(panics.len(), 2, "{diags:?}");
    assert_eq!(panics[0].file, "fixtures/r2_panic.rs");
    assert_eq!(panics[0].line, 6, "the .unwrap() call");
    assert_eq!(panics[1].line, 7, "the panic! call");
    // The commented/string/test-module tokens never fire any rule.
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn r3_deterministic_time_fires_on_wall_clock() {
    let src = include_str!("fixtures/r3_time.rs");
    let diags = check_source("fixtures/r3_time.rs", src, ALL_SOURCE_RULES);
    let time: Vec<_> = diags.iter().filter(|d| d.rule == rules::DETERMINISTIC_TIME).collect();
    assert_eq!(time.len(), 1, "{diags:?}");
    assert_eq!(time[0].file, "fixtures/r3_time.rs");
    assert_eq!(time[0].line, 4);
    assert!(time[0].message.contains("SystemTime::now"));
}

#[test]
fn r4_no_stray_io_fires_on_println() {
    let src = include_str!("fixtures/r4_io.rs");
    let diags = check_source("fixtures/r4_io.rs", src, ALL_SOURCE_RULES);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, rules::NO_STRAY_IO);
    assert_eq!(diags[0].file, "fixtures/r4_io.rs");
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("println!"));
}

#[test]
fn r5_forbid_unsafe_fires_on_bare_lib_root() {
    let src = include_str!("fixtures/r5_missing_forbid.rs");
    let diags = check_lib_root("fixtures/r5_missing_forbid.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, rules::FORBID_UNSAFE);
    assert_eq!(diags[0].file, "fixtures/r5_missing_forbid.rs");
    assert_eq!(diags[0].line, 1);
}

#[test]
fn r6_no_raw_threads_fires_on_spawn_and_scope() {
    let src = include_str!("fixtures/r6_thread.rs");
    let diags = check_source("fixtures/r6_thread.rs", src, ALL_SOURCE_RULES);
    let threads: Vec<_> = diags.iter().filter(|d| d.rule == rules::NO_RAW_THREADS).collect();
    assert_eq!(threads.len(), 2, "{diags:?}");
    assert_eq!(threads[0].file, "fixtures/r6_thread.rs");
    assert_eq!(threads[0].line, 5, "the thread::spawn call");
    assert_eq!(threads[1].line, 10, "the thread::scope call");
    assert!(threads[0].message.contains("hive-par"));
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn r7_instrumented_facade_fires_on_unrouted_services() {
    let src = include_str!("fixtures/r7_facade_fail.rs");
    let diags = analyze(&facade("fixtures/r7_facade_fail.rs"), "fixtures/r7_facade_fail.rs", src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(diags[0].rule, rules::INSTRUMENTED_FACADE);
    assert_eq!(diags[0].file, "fixtures/r7_facade_fail.rs");
    assert_eq!(diags[0].line, 4, "the direct-search entry");
    assert!(diags[0].message.contains("search"));
    assert_eq!(diags[1].line, 8, "the direct-check-in entry");
    assert!(diags[1].message.contains("check_in"));
}

#[test]
fn r7_instrumented_facade_passes_routed_exempt_and_waived_fns() {
    let src = include_str!("fixtures/r7_facade_pass.rs");
    let diags = analyze(&facade("fixtures/r7_facade_pass.rs"), "fixtures/r7_facade_pass.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r8_delta_log_fires_on_direct_generation_bumps() {
    let src = include_str!("fixtures/r8_generation.rs");
    let diags = check_source("fixtures/r8_generation.rs", src, ALL_SOURCE_RULES);
    let bumps: Vec<_> = diags.iter().filter(|d| d.rule == rules::DELTA_LOG).collect();
    assert_eq!(bumps.len(), 2, "{diags:?}");
    assert_eq!(bumps[0].file, "fixtures/r8_generation.rs");
    assert_eq!(bumps[0].line, 9, "the spaced bump");
    assert_eq!(bumps[1].line, 13, "the compact bump");
    assert!(bumps[0].message.contains("delta-log API"));
    // The lint:allow'd bump, the plain assignment, and the
    // `regeneration` identifier stay silent.
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn r8_delta_log_honors_a_waiver_on_the_line_above() {
    let src = "\
pub struct Db { generation: u64 }
impl Db {
    pub fn rogue(&mut self) { self.generation += 1; }
    pub fn journal(&mut self) {
        // lint:allow(delta-log)
        self.generation += 1;
    }
}
";
    let diags = check_source("a/lib.rs", src, SourceRules::default());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, rules::DELTA_LOG);
    assert_eq!(diags[0].line, 3, "only the unwaived bump");
}

#[test]
fn r13_no_full_scan_fires_on_log_iteration_in_service_code() {
    let src = include_str!("fixtures/r13_full_scan.rs");
    let diags = check_source("fixtures/r13_full_scan.rs", src, ALL_SOURCE_RULES);
    let scans: Vec<_> = diags.iter().filter(|d| d.rule == rules::NO_FULL_SCAN).collect();
    assert_eq!(scans.len(), 3, "{diags:?}");
    assert_eq!(scans[0].file, "fixtures/r13_full_scan.rs");
    assert_eq!(scans[0].line, 5, "the .iter() pipeline");
    assert_eq!(scans[1].line, 10, "the for-loop over the log");
    assert_eq!(scans[2].line, 17, "the activities_between call");
    assert!(scans[0].message.contains("db::index"));
    // The waived fold, the string mention, and the test module stay
    // silent.
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn lint_allow_waives_every_rule_at_the_marked_site() {
    let src = include_str!("fixtures/allowed.rs");
    let diags = check_source("fixtures/allowed.rs", src, ALL_SOURCE_RULES);
    assert!(diags.is_empty(), "allow markers must silence all sites: {diags:?}");
    let diags = analyze(&panic_free(), "fixtures/allowed.rs", src);
    assert!(diags.is_empty(), "the R2 waiver holds on the AST engine: {diags:?}");
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = hive_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let diags = hive_lint::scan_workspace(&root).expect("scan succeeds");
    assert!(diags.is_empty(), "workspace must pass its own lint: {diags:#?}");
}
