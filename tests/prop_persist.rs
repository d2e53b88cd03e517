//! Property tests for platform snapshot JSON round-tripping: empty
//! collections and unicode text round-trip, and a re-render of a
//! restored snapshot is byte-identical to the original (canonical field
//! order).
//!
//! The decoders that read outside input are fuzzed too: random strings
//! through the JSON parser, and mutated exports through the platform
//! snapshot decoder and the collection import. Each answers with a
//! value or a typed error and never panics, and a refused import leaves
//! no trace in the database.

use hive_bench::prop::{check, mutate};
use hive_bench::{prop_ensure, prop_ensure_eq};
use hive_core::model::{User, WorkpadItem};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::{Hive, HiveDb};
use hive_json::Json;
use hive_rng::Rng;

#[test]
fn platform_snapshot_roundtrips_byte_identically() {
    check("platform-snapshot-roundtrip", 12, |rng| {
        let sim = SimConfig {
            seed: rng.next_u64(),
            users: rng.gen_range(4..9usize),
            topics: rng.gen_range(2..5usize),
            conferences: rng.gen_range(1..3usize),
            sessions_per_conf: rng.gen_range(2..5usize),
            papers_per_conf: rng.gen_range(3..7usize),
            ..SimConfig::small()
        };
        let mut db = WorldBuilder::new(sim).build().db;
        // Unicode survives: names, affiliations, interests.
        db.add_user(
            User::new("Šárka Ångström 研究者 🐝", "Üniversität Zürich")
                .with_interests(vec!["グラフ解析 — tensor žürich".into()]),
        );
        let json = db.to_json().map_err(|e| e.to_string())?;
        let restored = HiveDb::from_json(&json).map_err(|e| e.to_string())?;
        let rejson = restored.to_json().map_err(|e| e.to_string())?;
        prop_ensure_eq!(json, rejson, "restored snapshot must re-render byte-identically");
        prop_ensure_eq!(restored.user_ids(), db.user_ids());
        prop_ensure_eq!(restored.now(), db.now());
        prop_ensure_eq!(restored.activity_log().len(), db.activity_log().len());
        Ok(())
    });
}

#[test]
fn empty_platform_roundtrips() {
    let db = HiveDb::new();
    let json = db.to_json().expect("serializes");
    let restored = HiveDb::from_json(&json).expect("empty collections load");
    assert!(restored.user_ids().is_empty());
    assert_eq!(restored.to_json().expect("re-renders"), json);
}

/// Characters the generators draw from: JSON punctuation, digits, the
/// letters of `true`, `false` and `null`, whitespace and multi-byte
/// text.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '-', '+', '.', '0', '1', '9', 'e', 'E', 't', 'r',
    'u', 'f', 'a', 'l', 's', 'n', ' ', '\n', 'é', '🐝',
];

fn random_char(rng: &mut Rng) -> char {
    ALPHABET[rng.gen_range(0..ALPHABET.len())]
}

/// Random strings, bare and behind an open array or object, parse to a
/// value or a typed error.
#[test]
fn json_parser_survives_random_strings() {
    let (mut parsed, mut refused) = (0, 0);
    check("json-random-strings", 2_000, |rng| {
        let len = rng.gen_range(0..48usize);
        let text: String = (0..len).map(|_| random_char(rng)).collect();
        for doc in [format!("[{text}"), format!("{{\"k\":{text}"), text] {
            match Json::parse(&doc) {
                Ok(_) => parsed += 1,
                Err(_) => refused += 1,
            }
        }
        Ok(())
    });
    assert!(parsed > 0 && refused > 0, "{parsed} parsed, {refused} refused");
}

/// Mutated small-world snapshots load or are refused with a typed
/// error; a loaded one renders again.
#[test]
fn platform_snapshot_decoder_survives_mutations() {
    let json = WorldBuilder::new(SimConfig::small()).build().db.to_json().expect("serializes");
    let (mut loaded, mut refused) = (0, 0);
    check("platform-snapshot-mutations", 128, |rng| {
        match HiveDb::from_json(&mutate(rng, &json, ALPHABET)) {
            Ok(db) => {
                db.to_json().map_err(|e| format!("a loaded snapshot must render: {e}"))?;
                loaded += 1;
            }
            Err(_) => refused += 1,
        }
        Ok(())
    });
    assert!(loaded > 0 && refused > 0, "{loaded} loaded, {refused} refused");
}

/// Mutated collection exports import or are refused with a typed error,
/// and a refused import leaves the database JSON unchanged.
#[test]
fn collection_import_survives_mutations_and_refusals_leave_no_trace() {
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
    let mut hive = Hive::new(db);
    let users = hive.db().user_ids();
    let (owner, importer) = (users[0], users[1]);
    let pad = hive.create_workpad(owner, "reading list").expect("a known owner");
    let items = [
        WorkpadItem::Paper(hive.db().paper_ids()[0]),
        WorkpadItem::Session(hive.db().session_ids()[0]),
        WorkpadItem::UserAvatar(users[2]),
    ];
    for item in items {
        hive.workpad_add(owner, pad, item).expect("a known item");
    }
    hive.workpad_note(owner, pad, "read before the session").expect("a note");
    let col = hive.export_workpad(owner, pad).expect("an owned pad");
    let export = hive.export_collection_json(col).expect("a known collection");
    let mut before = hive.db().to_json().expect("serializes");
    let (mut imported, mut refused) = (0, 0);
    check("collection-import-mutations", 1_000, |rng| {
        match hive.import_collection_json(importer, &mutate(rng, &export, ALPHABET)) {
            Ok(_) => {
                imported += 1;
                before = hive.db().to_json().map_err(|e| e.to_string())?;
            }
            Err(_) => {
                refused += 1;
                let after = hive.db().to_json().map_err(|e| e.to_string())?;
                prop_ensure!(after == before, "a refused import changed the database");
            }
        }
        Ok(())
    });
    assert!(imported > 0 && refused > 0, "{imported} imported, {refused} refused");
}
