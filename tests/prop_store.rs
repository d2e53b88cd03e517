//! Property tests for the weighted triple store (R2DB substrate),
//! driven by the in-tree seeded runner (`hive_bench::prop`).

use hive_bench::prop::{check, DEFAULT_CASES};
use hive_bench::{prop_ensure, prop_ensure_eq};
use hive_core::knowledge::KnowledgeNetwork;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_rng::Rng;
use hive_store::{PathQuery, StoreError, Term, TripleStore};

/// A small universe of terms so collisions (and thus interesting
/// overwrite/remove behaviour) actually happen.
fn gen_entity(rng: &mut Rng) -> Term {
    Term::iri(format!("e{}", rng.gen_range(0..12u32)))
}

fn gen_pred(rng: &mut Rng) -> Term {
    Term::iri(format!("p{}", rng.gen_range(0..4u32)))
}

fn gen_weight(rng: &mut Rng) -> f64 {
    rng.gen_range(1..=100u32) as f64 / 100.0
}

fn gen_triples(rng: &mut Rng) -> Vec<(Term, Term, Term, f64)> {
    let n = rng.gen_range(0..60usize);
    (0..n)
        .map(|_| (gen_entity(rng), gen_pred(rng), gen_entity(rng), gen_weight(rng)))
        .collect()
}

fn fill(st: &mut TripleStore, triples: &[(Term, Term, Term, f64)]) -> Result<(), String> {
    for (s, p, o, w) in triples {
        st.insert(s.clone(), p.clone(), o.clone(), *w)
            .map_err(|e| format!("insert failed: {e}"))?;
    }
    Ok(())
}

/// Inserting then querying: every inserted triple is found with its
/// latest weight, and the indexes stay consistent.
#[test]
fn insert_then_lookup() {
    check("store::insert_then_lookup", DEFAULT_CASES, |rng| {
        let triples = gen_triples(rng);
        let mut st = TripleStore::new();
        let mut expected = std::collections::HashMap::new();
        for (s, p, o, w) in &triples {
            st.insert(s.clone(), p.clone(), o.clone(), *w)
                .map_err(|e| format!("insert failed: {e}"))?;
            expected.insert((s.clone(), p.clone(), o.clone()), *w);
        }
        prop_ensure_eq!(st.len(), expected.len());
        prop_ensure!(st.check_invariants());
        for ((s, p, o), w) in &expected {
            prop_ensure_eq!(st.weight(s, p, o), Some(*w));
        }
        Ok(())
    });
}

/// Every pattern scan returns exactly the matching subset of a full
/// scan, for all eight bound/unbound combinations.
#[test]
fn scans_agree_with_full_scan() {
    check("store::scans_agree_with_full_scan", DEFAULT_CASES, |rng| {
        let triples = gen_triples(rng);
        let s = gen_entity(rng);
        let p = gen_pred(rng);
        let o = gen_entity(rng);
        let mut st = TripleStore::new();
        fill(&mut st, &triples)?;
        let full: Vec<(Term, Term, Term)> = st
            .triples_matching(None, None, None)
            .map(|t| st.resolve_triple(&t))
            .collect();
        for mask in 0u8..8 {
            let bs = (mask & 1 != 0).then_some(&s);
            let bp = (mask & 2 != 0).then_some(&p);
            let bo = (mask & 4 != 0).then_some(&o);
            let got: Vec<(Term, Term, Term)> = st
                .triples_matching(bs, bp, bo)
                .map(|t| st.resolve_triple(&t))
                .collect();
            let want: Vec<(Term, Term, Term)> = full
                .iter()
                .filter(|(fs, fp, fo)| {
                    bs.is_none_or(|x| x == fs)
                        && bp.is_none_or(|x| x == fp)
                        && bo.is_none_or(|x| x == fo)
                })
                .cloned()
                .collect();
            let mut got_sorted = got;
            let mut want_sorted = want;
            got_sorted.sort();
            want_sorted.sort();
            prop_ensure_eq!(got_sorted, want_sorted, "mask {mask}");
        }
        Ok(())
    });
}

/// Remove undoes insert: after removing everything, the store is empty
/// and invariants hold at every step.
#[test]
fn remove_restores_empty() {
    check("store::remove_restores_empty", DEFAULT_CASES, |rng| {
        let triples = gen_triples(rng);
        let mut st = TripleStore::new();
        fill(&mut st, &triples)?;
        for (s, p, o, _) in &triples {
            st.remove(s, p, o);
            prop_ensure!(st.check_invariants());
        }
        prop_ensure!(st.is_empty());
        Ok(())
    });
}

/// Snapshot round trip is the identity on contents.
#[test]
fn snapshot_roundtrip() {
    check("store::snapshot_roundtrip", DEFAULT_CASES, |rng| {
        let triples = gen_triples(rng);
        let mut st = TripleStore::new();
        fill(&mut st, &triples)?;
        let json = st.to_json().map_err(|e| format!("to_json: {e}"))?;
        let restored = TripleStore::from_json(&json).map_err(|e| format!("from_json: {e}"))?;
        prop_ensure_eq!(restored.len(), st.len());
        for t in st.iter() {
            let (s, p, o) = st.resolve_triple(&t);
            prop_ensure_eq!(restored.weight(&s, &p, &o), Some(t.weight));
        }
        Ok(())
    });
}

/// Characters the decoder fuzzing draws from: JSON punctuation, digits,
/// the letters of the snapshot's keys and term tags, and multi-byte text.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '-', '.', '0', '1', '9', 'e', 'E', 'I', 'r', 'v',
    'n', 'u', 'l', ' ', 'é', '🐝',
];

/// The relationship-store export of a world small enough that every
/// truncation of it is cheap to check.
fn store_export() -> String {
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
    let kn = KnowledgeNetwork::build(&db);
    kn.to_store(&db).to_json().expect("a built store exports")
}

/// Decodes `json`, which must give a store whose indexes agree or a
/// typed error; a panic fails the enclosing test. Returns whether it
/// decoded.
fn decodes(json: &str) -> Result<bool, String> {
    match TripleStore::from_json(json) {
        Ok(st) => {
            prop_ensure!(st.check_invariants(), "decoded store breaks its invariants");
            Ok(true)
        }
        Err(
            StoreError::Snapshot(_)
            | StoreError::SnapshotVersion { .. }
            | StoreError::InvalidWeight(_)
            | StoreError::InvalidPosition(_),
        ) => Ok(false),
        Err(e) => Err(format!("unexpected error kind: {e}")),
    }
}

/// The unmutated export decodes and re-exports byte for byte.
#[test]
fn snapshot_export_roundtrips_byte_for_byte() {
    let json = store_export();
    let restored = TripleStore::from_json(&json).expect("a clean export decodes");
    assert_eq!(restored.to_json().expect("re-export"), json);
}

/// Random strings, bare and behind a well-formed snapshot prefix, are
/// refused with a typed error.
#[test]
fn snapshot_decoder_refuses_random_strings() {
    check("store::snapshot_random_strings", 256, |rng| {
        let len = rng.gen_range(0..160usize);
        let text: String = (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect();
        prop_ensure!(!decodes(&text)?, "random string {text:?} decoded");
        let headed = format!("{{\"version\":1,\"triples\":[[{text}");
        prop_ensure!(!decodes(&headed)?, "{headed:?} decoded");
        Ok(())
    });
}

/// Every char-boundary truncation of a real export is refused with a
/// typed error.
#[test]
fn snapshot_decoder_refuses_every_truncation() {
    let json = store_export();
    for cut in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
        assert!(
            matches!(TripleStore::from_json(&json[..cut]), Err(StoreError::Snapshot(_))),
            "truncation at byte {cut} of {} must be refused",
            json.len()
        );
    }
}

/// Single-char mutations of a real export decode to a consistent store
/// or a typed error, never a panic; both outcomes occur.
#[test]
fn snapshot_decoder_survives_single_char_mutations() {
    let json = store_export();
    let boundaries: Vec<usize> = (0..json.len()).filter(|&i| json.is_char_boundary(i)).collect();
    let (mut decoded, mut refused) = (0, 0);
    check("store::snapshot_mutations", 256, |rng| {
        let at = boundaries[rng.gen_range(0..boundaries.len())];
        let old = json[at..].chars().next().expect("a char at a boundary");
        let with = loop {
            let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            if c != old {
                break c;
            }
        };
        let mutated = format!("{}{with}{}", &json[..at], &json[at + old.len_utf8()..]);
        if decodes(&mutated)? {
            decoded += 1;
        } else {
            refused += 1;
        }
        Ok(())
    });
    assert!(decoded > 0 && refused > 0, "{decoded} decoded, {refused} refused");
}

/// Shared body of the ranked-path invariants: scores sorted descending,
/// within (0,1], equal to the product of hop weights, and loop-free.
fn ranked_paths_hold(triples: &[(Term, Term, Term, f64)]) -> Result<(), String> {
    let mut st = TripleStore::new();
    fill(&mut st, triples)?;
    let src = Term::iri("e0");
    let dst = Term::iri("e1");
    if st.dict().get(&src).is_none() || st.dict().get(&dst).is_none() {
        return Ok(());
    }
    let paths = PathQuery::new(src, dst)
        .top_k(4)
        .max_hops(4)
        .run(&st)
        .map_err(|e| format!("path query: {e}"))?;
    for w in paths.windows(2) {
        prop_ensure!(w[0].score >= w[1].score - 1e-12, "scores not sorted");
    }
    for path in &paths {
        prop_ensure!(path.score > 0.0 && path.score <= 1.0 + 1e-12, "score out of range");
        let product: f64 = path.triples.iter().map(|t| t.weight).product();
        prop_ensure!(
            (path.score - product).abs() < 1e-9,
            "score {} != hop product {}",
            path.score,
            product
        );
        let mut nodes = path.nodes.clone();
        nodes.sort();
        nodes.dedup();
        prop_ensure_eq!(nodes.len(), path.nodes.len(), "path has a loop");
    }
    Ok(())
}

/// Ranked paths: randomized invariant sweep.
#[test]
fn ranked_paths_invariants() {
    check("store::ranked_paths_invariants", DEFAULT_CASES, |rng| {
        let triples = gen_triples(rng);
        ranked_paths_hold(&triples)
    });
}

/// Pinned counterexample ported from the retired
/// `prop_store.proptest-regressions` file: a low-weight 2-hop chain
/// `e1 -> e8 -> e0` coexisting with a heavier edge into `e8` once broke
/// the ranked-path score ordering.
#[test]
fn ranked_paths_regression_low_weight_chain() {
    let triples = [
        (Term::iri("e1"), Term::iri("p0"), Term::iri("e8"), 0.01),
        (Term::iri("e8"), Term::iri("p0"), Term::iri("e0"), 0.01),
        (Term::iri("e2"), Term::iri("p0"), Term::iri("e8"), 1.0),
    ];
    ranked_paths_hold(&triples).expect("regression case holds");
}

/// A batch of inserts leaves the store exactly as the same operations
/// applied one by one, and invariants always hold.
#[test]
fn batch_equals_sequential() {
    check("store::batch_equals_sequential", DEFAULT_CASES, |rng| {
        use hive_store::Op;
        let triples = gen_triples(rng);
        let ops: Vec<Op> = triples
            .iter()
            .map(|(s, p, o, w)| Op::Insert {
                s: s.clone(),
                p: p.clone(),
                o: o.clone(),
                weight: *w,
            })
            .collect();
        let mut batched = TripleStore::new();
        batched.apply_batch(&ops).map_err(|e| format!("batch: {e}"))?;
        let mut sequential = TripleStore::new();
        fill(&mut sequential, &triples)?;
        prop_ensure_eq!(batched.len(), sequential.len());
        prop_ensure!(batched.check_invariants());
        for t in sequential.iter() {
            let (s, p, o) = sequential.resolve_triple(&t);
            prop_ensure_eq!(batched.weight(&s, &p, &o), Some(t.weight));
        }
        Ok(())
    });
}
