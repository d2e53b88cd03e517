//! Snapshot corruption: generate malformed snapshot JSON that a
//! correct loader must reject with a typed error.
//!
//! Every injector verifies its own work: a candidate corruption that
//! still parses as valid JSON (possible in principle for a bit flip)
//! is discarded and the next candidate tried, so a returned corruption
//! is guaranteed malformed at the JSON level — except for
//! [`FaultKind::VersionBump`] and [`FaultKind::FieldDrop`], which stay
//! well-formed JSON and must instead be rejected by the snapshot
//! decoder (version check, missing-field check).

use hive_core::{HiveDb, HiveError};
use hive_json::Json;
use hive_rng::Rng;

/// The four corruption families injected at every crash point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The file was cut short mid-write.
    Truncate,
    /// A structural byte was damaged on disk.
    BitFlip,
    /// The snapshot came from an incompatible (future) format version.
    VersionBump,
    /// A top-level field went missing (e.g. a partial rewrite).
    FieldDrop,
}

impl FaultKind {
    /// All kinds, in injection order.
    pub const ALL: [FaultKind; 4] =
        [FaultKind::Truncate, FaultKind::BitFlip, FaultKind::VersionBump, FaultKind::FieldDrop];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Truncate => "truncate",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::VersionBump => "version-bump",
            FaultKind::FieldDrop => "field-drop",
        }
    }

    /// Whether this corruption must surface specifically as a
    /// snapshot-version error (rather than any typed error).
    pub fn wants_version_error(self) -> bool {
        matches!(self, FaultKind::VersionBump)
    }
}

/// Produces a corrupted variant of `json`, or `None` when the input is
/// too small/oddly shaped for this fault kind to apply.
pub fn corrupt(json: &str, kind: FaultKind, rng: &mut Rng) -> Option<String> {
    match kind {
        FaultKind::Truncate => truncate(json, rng),
        FaultKind::BitFlip => bit_flip(json, rng),
        FaultKind::VersionBump => version_bump(json, rng),
        FaultKind::FieldDrop => field_drop(json, rng),
    }
}

fn truncate(json: &str, rng: &mut Rng) -> Option<String> {
    if json.len() < 2 {
        return None;
    }
    for _ in 0..8 {
        let mut cut = rng.gen_range(1..json.len());
        while cut > 0 && !json.is_char_boundary(cut) {
            cut -= 1;
        }
        if cut == 0 {
            continue;
        }
        let cand = &json[..cut];
        // The parser requires the full input to be consumed, so any
        // proper prefix of an object fails; verify anyway.
        if Json::parse(cand).is_err() {
            return Some(cand.to_string());
        }
    }
    None
}

fn bit_flip(json: &str, rng: &mut Rng) -> Option<String> {
    let bytes = json.as_bytes();
    // Only structural bytes are targeted: flipping a digit or a letter
    // inside a string yields *valid* JSON with different content, which
    // a loader cannot be required to detect without checksums.
    let mut structural = Vec::new();
    let mut in_str = false;
    let mut esc = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            if esc {
                esc = false;
            } else if b == b'\\' {
                esc = true;
            } else if b == b'"' {
                in_str = false;
                structural.push(i);
            }
        } else {
            match b {
                b'"' => {
                    in_str = true;
                    structural.push(i);
                }
                b'{' | b'}' | b'[' | b']' | b':' | b',' => structural.push(i),
                _ => {}
            }
        }
    }
    if structural.is_empty() {
        return None;
    }
    let start = rng.gen_range(0..structural.len());
    for off in 0..structural.len().min(64) {
        let pos = structural[(start + off) % structural.len()];
        let mut cand = bytes.to_vec();
        cand[pos] ^= 0x01; // all targets are ASCII; stays ASCII
        if let Ok(s) = String::from_utf8(cand) {
            if Json::parse(&s).is_err() {
                return Some(s);
            }
        }
    }
    None
}

fn version_bump(json: &str, rng: &mut Rng) -> Option<String> {
    let mut doc = Json::parse(json).ok()?;
    let bump = rng.gen_range(1..997i64);
    {
        let Json::Obj(fields) = &mut doc else { return None };
        let slot = fields.iter_mut().find(|(k, _)| k == "version")?;
        let Json::Int(n) = &mut slot.1 else { return None };
        *n += bump;
    }
    Some(doc.render())
}

fn field_drop(json: &str, rng: &mut Rng) -> Option<String> {
    let mut doc = Json::parse(json).ok()?;
    {
        let Json::Obj(fields) = &mut doc else { return None };
        if fields.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..fields.len());
        fields.remove(idx);
    }
    Some(doc.render())
}

/// What loading a (possibly corrupted) platform snapshot did.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The loader accepted the input.
    Loaded(Box<HiveDb>),
    /// The loader rejected the input with a typed error.
    Rejected(HiveError),
    /// The loader panicked — always a harness violation.
    Panicked(String),
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Loads a platform snapshot, converting panics into an outcome.
pub fn load_platform(json: &str) -> LoadOutcome {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| HiveDb::from_json(json))) {
        Ok(Ok(db)) => LoadOutcome::Loaded(Box::new(db)),
        Ok(Err(e)) => LoadOutcome::Rejected(e),
        Err(p) => LoadOutcome::Panicked(panic_text(p)),
    }
}
