//! Property tests for the replication wire decoders: frame opening and
//! the checkpoint snapshot decoder a re-syncing follower runs.
//!
//! * Random strings, every char-boundary truncation and every
//!   single-byte mutation of a real ops wire and a real small-world
//!   checkpoint wire decode to `Corrupt`; the unmutated wires
//!   round-trip byte for byte.
//! * `Follower::ingest` never panics on such a wire, and a refused frame
//!   never publishes: the reader's epoch generation stays the same.
//! * Checkpoint payloads mutated and then re-sealed with a valid
//!   checksum reach a re-syncing follower's snapshot decoder, which
//!   answers each with a typed error or a clean install.

use hive_bench::prop::{check, mutate, other_char, replace_char, DEFAULT_CASES};
use hive_bench::{prop_ensure, prop_ensure_eq};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_obs::Level;
use hive_replica::{frame, Follower, Ingest, Leader, ReplicaError};
use hive_rng::Rng;

/// Hex digits of the checksum that opens every wire (see `frame`).
const CHECKSUM_DIGITS: usize = 16;

/// Characters the generators draw from: the wire's own alphabet (hex
/// digits, separators, JSON punctuation) plus multi-byte text.
const ALPHABET: &[char] = &[
    '0', '1', '7', '9', 'a', 'f', 'x', 'O', ' ', '\n', '{', '}', '[', ']', '"', ':', ',', '\\',
    '-', '.', 'é', '研', '🐝',
];

/// The bootstrap checkpoint wire of a leader over a world small enough
/// that every truncation of it is cheap to check, and the leader's
/// first ops wire.
fn wires() -> (String, String) {
    let db = WorldBuilder::new(SimConfig {
        seed: 5,
        users: 4,
        topics: 2,
        conferences: 1,
        sessions_per_conf: 2,
        papers_per_conf: 3,
        ..SimConfig::small()
    })
    .build()
    .db;
    let mut leader = Leader::new(db, 100);
    let checkpoint = leader.seal_frames(true);
    let checkpoint = frame::encode(&checkpoint[0]);
    let mut rng = Rng::seed_from_u64(5);
    let mut step = 0;
    while leader.pending_ops() == 0 {
        for op in hive_replica::synth::step_ops(leader.hive(), step, &mut rng) {
            let _ = leader.apply(op);
        }
        step += 1;
    }
    let ops = leader.seal_frames(false);
    let ops = frame::encode(&ops[0]);
    (checkpoint, ops)
}

/// A follower booted from `checkpoint`, streaming.
fn booted(checkpoint: &str) -> Follower {
    let mut follower = Follower::blank(0);
    assert_eq!(follower.ingest(checkpoint), Ok(Ingest::Checkpoint));
    follower
}

fn random_string(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

/// Re-seals a wire body (everything after the checksum) with a valid
/// checksum.
fn seal(body: &str) -> String {
    format!("{:016x}{body}", frame::fnv1a(body.as_bytes()))
}

#[test]
fn unmutated_wires_roundtrip_byte_for_byte() {
    let (checkpoint, ops) = wires();
    for wire in [&checkpoint, &ops] {
        let back = frame::decode(wire).expect("a clean wire decodes");
        assert_eq!(&frame::encode(&back), wire, "re-encoding a decoded frame");
    }
}

#[test]
fn random_strings_are_corrupt() {
    check("frame-random-strings", 256, |rng| {
        let text = random_string(rng, 160);
        prop_ensure!(
            matches!(frame::decode(&text), Err(ReplicaError::Corrupt(_))),
            "random string {text:?} must be corrupt"
        );
        // The same text behind a well-formed header but no valid
        // checksum.
        let headed = format!("{:016x} 2 0 0 0 ops\n{text}", rng.next_u64());
        prop_ensure!(
            matches!(frame::decode(&headed), Err(ReplicaError::Corrupt(_))),
            "headed random string {headed:?} must be corrupt"
        );
        Ok(())
    });
}

#[test]
fn every_truncation_is_corrupt() {
    let (checkpoint, ops) = wires();
    for wire in [&checkpoint, &ops] {
        for cut in (0..wire.len()).filter(|&c| wire.is_char_boundary(c)) {
            assert!(
                matches!(frame::decode(&wire[..cut]), Err(ReplicaError::Corrupt(_))),
                "cut at {cut} of {} must be corrupt",
                wire.len()
            );
        }
    }
}

#[test]
fn every_single_byte_mutation_is_corrupt() {
    let (checkpoint, ops) = wires();
    let mut rng = Rng::seed_from_u64(11);
    for wire in [&checkpoint, &ops] {
        for (at, old) in wire.char_indices() {
            let mutated = replace_char(wire, at, other_char(&mut rng, ALPHABET, old));
            assert!(
                matches!(frame::decode(&mutated), Err(ReplicaError::Corrupt(_))),
                "mutation at {at} of {} must be corrupt",
                wire.len()
            );
        }
    }
}

#[test]
fn refused_wires_never_publish() {
    let (checkpoint, ops) = wires();
    check("frame-refusals-never-publish", DEFAULT_CASES, |rng| {
        let wire = if rng.gen_bool(0.5) { &checkpoint } else { &ops };
        let damaged = if rng.gen_bool(0.5) {
            let mut cut = rng.gen_range(0..wire.len());
            while !wire.is_char_boundary(cut) {
                cut -= 1;
            }
            wire[..cut].to_string()
        } else {
            let mut at = rng.gen_range(0..wire.len());
            while !wire.is_char_boundary(at) {
                at -= 1;
            }
            let old = wire[at..].chars().next().unwrap_or(' ');
            replace_char(wire, at, other_char(rng, ALPHABET, old))
        };
        // A streaming follower refuses, falls back to re-sync and keeps
        // serving the epoch it had.
        let mut follower = booted(&checkpoint);
        let reader = follower.reader().ok_or("a booted follower serves")?;
        let before = reader.epoch().generation();
        let outcome = follower.ingest(&damaged);
        prop_ensure!(matches!(outcome, Err(ReplicaError::Corrupt(_))), "got {outcome:?}");
        prop_ensure!(follower.needs_resync());
        prop_ensure_eq!(reader.epoch().generation(), before);
        // A blank follower installs nothing from a damaged checkpoint.
        let mut blank = Follower::blank(1);
        let outcome = blank.ingest(&damaged);
        prop_ensure!(matches!(outcome, Err(ReplicaError::Corrupt(_))), "got {outcome:?}");
        prop_ensure!(blank.needs_resync() && blank.reader().is_none());
        Ok(())
    });
}

#[test]
fn resealed_checkpoint_mutations_reach_the_snapshot_decoder() {
    let (checkpoint, _) = wires();
    let (header, payload) =
        checkpoint[CHECKSUM_DIGITS..].split_once('\n').expect("a header line");
    let (mut installed, mut refused_parse, mut refused_restore, mut diverged) = (0, 0, 0, 0);
    hive_obs::with_level(Level::Counts, || {
        check("frame-resealed-checkpoints", 256, |rng| {
            let mutated = mutate(rng, payload, ALPHABET);
            let wire = seal(&format!("{header}\n{mutated}"));
            hive_obs::reset();
            let mut follower = Follower::blank(0);
            let outcome = follower.ingest(&wire);
            prop_ensure_eq!(
                hive_obs::snapshot().counter("replica.follower.payload_decodes"),
                1,
                "the snapshot decoder must be reached"
            );
            match outcome {
                Ok(Ingest::Checkpoint) => {
                    prop_ensure!(follower.is_streaming());
                    installed += 1;
                }
                Err(ReplicaError::Corrupt(_)) => {
                    prop_ensure!(follower.needs_resync() && follower.reader().is_none());
                    refused_parse += 1;
                }
                Err(ReplicaError::Checkpoint(_)) => {
                    prop_ensure!(follower.needs_resync() && follower.reader().is_none());
                    refused_restore += 1;
                }
                Err(ReplicaError::Diverged { .. }) => {
                    prop_ensure!(follower.is_broken() && follower.reader().is_none());
                    diverged += 1;
                }
                other => return Err(format!("unexpected outcome {other:?}")),
            }
            Ok(())
        });
        hive_obs::reset();
    });
    // The mutations reach past the JSON parse, not only into it.
    assert!(refused_parse > 0, "some mutations must break the JSON");
    assert!(
        installed + refused_restore + diverged > 0,
        "some mutations must parse and reach the restore ({installed} installed, \
         {refused_restore} refused on restore, {diverged} diverged)"
    );
    // The leader's own checkpoint still installs, at its generation.
    let follower = booted(&checkpoint);
    let end_gen = frame::decode(&checkpoint).expect("a clean wire decodes").end_gen;
    assert_eq!(follower.generation(), end_gen);
}
