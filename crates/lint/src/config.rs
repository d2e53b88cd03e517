//! Workspace-derived lint configuration.
//!
//! The crate-coverage sets (which crates are panic-free, print-exempt,
//! allowed to touch raw threads, and where the facade/clock files
//! live) are derived from the workspace manifests instead of being
//! hardcoded, so a newly added crate is covered automatically:
//!
//! * **panic-free (R2)** — every workspace crate by default; a crate
//!   whose job requires panicking opts out with
//!   `[package.metadata.hive-lint] panic-free = false`.
//! * **print-exempt (R4)** — crates with binary targets
//!   (`src/main.rs`, `src/bin/`, or `[[bin]]`): printing is their job.
//!   Library crates may opt out explicitly with `io-exempt = true`.
//! * **thread-crate (R6, R11)** — declared with `thread-crate = true`;
//!   only the deterministic pool implementation qualifies.
//! * **facade / clock (R7, R3)** — declared by the owning crate with
//!   `facade = "src/api.rs"` / `clock = "src/clock.rs"`.
//! * **protected snapshot types (R9)** — declared by each type's home
//!   crate with `protected = "HiveDb"` (several names comma-separated),
//!   so R9 keeps covering a type even when its last `lint:mutator(T)`
//!   marker goes away, and reports that instead.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Derived coverage sets for the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceConfig {
    /// `(crate dir name, crate dir path)`, sorted by name.
    pub crates: Vec<(String, PathBuf)>,
    /// Crates whose non-test code must be panic-free (R2).
    pub panic_free: BTreeSet<String>,
    /// Crates exempt from the stray-io rule (R4).
    pub io_exempt: BTreeSet<String>,
    /// Crates allowed to touch raw thread primitives (R6) — also the
    /// pool implementations exempt from the lock-scope rule (R11).
    pub thread_crates: BTreeSet<String>,
    /// Workspace-relative facade files checked by R7/R9.
    pub facade_files: Vec<String>,
    /// Workspace-relative files allowed to read the wall clock (R3).
    pub clock_files: Vec<String>,
    /// Snapshot types R9 protects, each with where it is declared.
    pub protected: Vec<ProtectedType>,
}

/// A snapshot type declared protected (R9) by its home crate's manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtectedType {
    /// The type name, as `lint:mutator(..)` markers name it.
    pub name: String,
    /// Workspace-relative path of the declaring manifest.
    pub manifest: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// Minimal per-crate manifest facts.
#[derive(Debug, Default)]
struct CrateManifest {
    panic_free: bool,
    io_exempt_meta: bool,
    thread_crate: bool,
    has_bin_section: bool,
    facade: Option<String>,
    clock: Option<String>,
    /// `(type, line)` of each declared protected type.
    protected: Vec<(String, usize)>,
}

/// Parses the few `[package.metadata.hive-lint]` keys and `[[bin]]`
/// presence out of a crate manifest. Line-oriented: good enough for
/// the workspace's hand-written TOML.
fn parse_crate_manifest(contents: &str) -> CrateManifest {
    let mut m = CrateManifest { panic_free: true, ..CrateManifest::default() };
    let mut in_lint_meta = false;
    for (n, raw) in contents.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let section = line.trim_matches(|c| c == '[' || c == ']');
            in_lint_meta = section == "package.metadata.hive-lint";
            if line.starts_with("[[bin]]") {
                m.has_bin_section = true;
            }
            continue;
        }
        if !in_lint_meta {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        let value = value.trim().trim_matches('"');
        match key {
            "panic-free" => m.panic_free = value != "false",
            "io-exempt" => m.io_exempt_meta = value == "true",
            "thread-crate" => m.thread_crate = value == "true",
            "facade" => m.facade = Some(value.to_string()),
            "clock" => m.clock = Some(value.to_string()),
            "protected" => {
                let names = value.split(',').map(str::trim).filter(|t| !t.is_empty());
                m.protected.extend(names.map(|t| (t.to_string(), n + 1)));
            }
            _ => {}
        }
    }
    m
}

/// Loads the derived configuration for the workspace rooted at `root`.
pub fn load(root: &Path) -> io::Result<WorkspaceConfig> {
    let mut cfg = WorkspaceConfig::default();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let dir = entry.path();
            if dir.join("Cargo.toml").is_file() {
                let name = dir.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
                cfg.crates.push((name, dir));
            }
        }
    }
    for (name, dir) in &cfg.crates {
        let contents = fs::read_to_string(dir.join("Cargo.toml"))?;
        let m = parse_crate_manifest(&contents);
        if m.panic_free {
            cfg.panic_free.insert(name.clone());
        }
        let has_bins = dir.join("src/main.rs").is_file()
            || dir.join("src/bin").is_dir()
            || m.has_bin_section;
        if has_bins || m.io_exempt_meta {
            cfg.io_exempt.insert(name.clone());
        }
        if m.thread_crate {
            cfg.thread_crates.insert(name.clone());
        }
        if let Some(f) = m.facade {
            cfg.facade_files.push(format!("crates/{name}/{f}"));
        }
        if let Some(c) = m.clock {
            cfg.clock_files.push(format!("crates/{name}/{c}"));
        }
        for (ty, line) in m.protected {
            let manifest = format!("crates/{name}/Cargo.toml");
            cfg.protected.push(ProtectedType { name: ty, manifest, line });
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_keys_are_parsed() {
        let m = parse_crate_manifest(
            "[package]\nname = \"x\"\n[package.metadata.hive-lint]\npanic-free = false\n\
             thread-crate = true\nfacade = \"src/api.rs\"\nprotected = \"Db, Store\"\n",
        );
        assert!(!m.panic_free);
        assert!(m.thread_crate);
        assert_eq!(m.facade.as_deref(), Some("src/api.rs"));
        assert_eq!(m.protected, [("Db".to_string(), 7), ("Store".to_string(), 7)]);
    }

    #[test]
    fn bin_sections_are_detected() {
        let m = parse_crate_manifest("[package]\nname = \"x\"\n\n[[bin]]\nname = \"tool\"\n");
        assert!(m.has_bin_section);
        assert!(m.panic_free);
    }
}
