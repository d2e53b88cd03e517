//! A tiny seeded property-test runner.
//!
//! Replaces the retired `proptest` dependency for the workspace's
//! randomized suites (`tests/prop_*.rs`). Properties are closures from a
//! seeded [`hive_rng::Rng`] to `Result<(), String>`; the runner derives
//! one deterministic seed per case from the property *name*, so a failure
//! message pins the exact case and any failure can be replayed with
//! [`check_seed`] as a named regression test. No shrinking — generators
//! here draw from small universes, so failing cases are already small.

use hive_rng::{splitmix64, Rng};

/// Default number of randomized cases per property.
pub const DEFAULT_CASES: usize = 64;

/// Stable FNV-1a hash of a property name; the per-name seed stream root.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `cases` randomized cases of property `f`. Panics (failing the
/// enclosing `#[test]`) with the property name, case index, and case
/// seed on the first counterexample.
pub fn check(name: &str, cases: usize, mut f: impl FnMut(&mut Rng) -> Result<(), String>) {
    let mut state = name_seed(name);
    for case in 0..cases {
        let seed = splitmix64(&mut state);
        let mut rng = Rng::seed_from_u64(seed);
        if let Err(msg) = f(&mut rng) {
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with check_seed(.., {seed:#x}, ..)): {msg}"
            );
        }
    }
}

/// Replays a single pinned seed of property `f` — the runner's analogue
/// of a `proptest-regressions` entry, but committed as a named test.
pub fn check_seed(name: &str, seed: u64, mut f: impl FnMut(&mut Rng) -> Result<(), String>) {
    let mut rng = Rng::seed_from_u64(seed);
    if let Err(msg) = f(&mut rng) {
        panic!("property '{name}' failed for pinned seed {seed:#x}: {msg}");
    }
}

/// `text` with the char at byte offset `at` replaced by `with`.
pub fn replace_char(text: &str, at: usize, with: char) -> String {
    let old = text[at..].chars().next().expect("a char at a boundary");
    let mut out = String::with_capacity(text.len() + 4);
    out.push_str(&text[..at]);
    out.push(with);
    out.push_str(&text[at + old.len_utf8()..]);
    out
}

/// A char of `alphabet` other than `old`.
pub fn other_char(rng: &mut Rng, alphabet: &[char], old: char) -> char {
    loop {
        let c = alphabet[rng.gen_range(0..alphabet.len())];
        if c != old {
            return c;
        }
    }
}

/// One mutation of `text` for decoder fuzzing: a char replaced by one
/// of `alphabet`, a digit changed (JSON text still parses), a span
/// deleted or a span repeated. `text` must hold a digit.
pub fn mutate(rng: &mut Rng, text: &str, alphabet: &[char]) -> String {
    let boundary = |rng: &mut Rng| {
        let mut at = rng.gen_range(0..text.len());
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    match rng.gen_range(0..4u32) {
        0 => {
            let at = boundary(rng);
            let old = text[at..].chars().next().unwrap_or(' ');
            replace_char(text, at, other_char(rng, alphabet, old))
        }
        1 => {
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            let at = digits[rng.gen_range(0..digits.len())];
            let old = text.as_bytes()[at];
            let new = loop {
                let d = b'0' + rng.gen_range(0..10u8);
                if d != old {
                    break d as char;
                }
            };
            replace_char(text, at, new)
        }
        2 => {
            let (a, b) = (boundary(rng), boundary(rng));
            let (a, b) = (a.min(b), a.max(b));
            format!("{}{}", &text[..a], &text[b..])
        }
        _ => {
            let (a, b) = (boundary(rng), boundary(rng));
            let (a, b) = (a.min(b), a.max(b));
            format!("{}{}", &text[..b], &text[a..])
        }
    }
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_ensure {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the current property case unless `a == b`, printing both sides.
#[macro_export]
macro_rules! prop_ensure_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err(format!(
                "{} != {}: {:?} vs {:?}",
                stringify!($a),
                stringify!($b),
                lhs,
                rhs
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err(format!(
                "{}: {:?} vs {:?}",
                format!($($fmt)+),
                lhs,
                rhs
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0;
        check("prop::always_true", 10, |rng| {
            ran += 1;
            let v = rng.gen_range(0..100usize);
            prop_ensure!(v < 100, "out of range: {v}");
            Ok(())
        });
        assert_eq!(ran, 10);
    }

    #[test]
    #[should_panic(expected = "property 'prop::always_false' failed at case 0")]
    fn failing_property_panics_with_context() {
        check("prop::always_false", 5, |_| Err("nope".into()));
    }

    #[test]
    fn seeds_are_deterministic_per_name() {
        let mut a = Vec::new();
        check("prop::stream", 3, |rng| {
            a.push(rng.next_u64());
            Ok(())
        });
        let mut b = Vec::new();
        check("prop::stream", 3, |rng| {
            b.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(a, b);
        let mut c = Vec::new();
        check("prop::other_stream", 3, |rng| {
            c.push(rng.next_u64());
            Ok(())
        });
        assert_ne!(a, c);
    }

    #[test]
    fn check_seed_replays_exactly() {
        let mut seen = Vec::new();
        check_seed("prop::pinned", 0xdead_beef, |rng| {
            seen.push(rng.next_u64());
            Ok(())
        });
        let mut expected = hive_rng::Rng::seed_from_u64(0xdead_beef);
        assert_eq!(seen, vec![expected.next_u64()]);
    }
}
