//! Property tests for the weighted triple store (R2DB substrate),
//! driven by the in-tree seeded runner (`hive_bench::prop`).

use hive_bench::prop::{check, other_char, replace_char, DEFAULT_CASES};
use hive_bench::{prop_ensure, prop_ensure_eq};
use hive_rng::Rng;
use hive_store::{run_query, PathQuery, StoreError, Term, TripleStore};

/// A small universe of terms so collisions (and thus interesting
/// overwrite behaviour) actually happen.
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

/// Characters the query fuzzing draws from: the query grammar's
/// punctuation, digits, `-`, the letters of its keywords, a space and
/// multi-byte text.
const QUERY_ALPHABET: &[char] = &[
    '{', '}', '[', ']', '<', '>', '?', '*', '.', '"', '\\', '0', '1', '2', '3', '4', '5', '6',
    '7', '8', '9', '-', 'S', 'E', 'L', 'C', 'T', 'W', 'H', 'R', 'I', 'M', ' ', 'é', '🐝',
];

/// The queries of the parser's unit tests, answered and refused alike:
/// the seeds the mutations start from.
const SEED_QUERIES: &[&str] = &[
    "SELECT ?who WHERE { <user:1> <rel:coauthor> ?who . }",
    "select ?paper ?who where { <user:1> <rel:coauthor> ?who . ?who <rel:authored> ?paper }",
    "SELECT ?who WHERE { <user:1> <rel:coauthor> ?who [0.5] }",
    "SELECT * WHERE { ?s <rel:coauthor> ?o }",
    "SELECT ?u WHERE { ?u <rel:name> \"Zach\" }",
    "SELECT ?u WHERE { ?u <rel:age> 27 }",
    "SELECT ?who WHERE { <user:1> <rel:coauthor> ?who } LIMIT 1",
    "SELECT ?who WHERE { <user:1> <rel:coauthor> ?who [0.9] . }",
    "SELECT ?x WHERE { ?x <rel:coauthor> ?y . ?y <rel:authored> <paper:8> }",
    "WHERE { ?a <p> ?b }",
    "SELECT ?x WHERE { ?x <p> }",
    "SELECT ?x WHERE { ?x <p> ?y ",
    "SELECT ?zz WHERE { ?x <p> ?y }",
    "SELECT ?x WHERE { ?x <p ?y }",
    "SELECT ?x WHERE { ?x <p> ?y } LIMIT 0",
    "SELECT ?x WHERE { ?x <p> ?y } garbage",
    "SELECT ?x WHERE { ?x <p> ?y [oops] }",
];

/// The parser tests' store: co-authors, papers and two attributes.
fn query_store() -> TripleStore {
    let mut st = TripleStore::new();
    let iri = Term::iri;
    for (s, p, o, w) in [
        ("user:1", "rel:coauthor", iri("user:2"), 0.9),
        ("user:1", "rel:coauthor", iri("user:3"), 0.4),
        ("user:2", "rel:authored", iri("paper:7"), 1.0),
        ("user:3", "rel:authored", iri("paper:8"), 1.0),
        ("user:1", "rel:name", Term::str("Zach"), 1.0),
        ("user:1", "rel:age", Term::int(27), 1.0),
    ] {
        st.insert(iri(s), iri(p), o, w).expect("a valid triple");
    }
    st
}

/// Runs `query`, which must give rows or a typed error (a panic fails
/// the enclosing test). Returns whether it answered.
fn answers(st: &TripleStore, query: &str) -> Result<bool, String> {
    match run_query(st, query) {
        Ok(_) => Ok(true),
        Err(StoreError::BadPathQuery(_) | StoreError::UnknownTerm(_)) => Ok(false),
        Err(e) => Err(format!("{query:?}: unexpected error kind: {e}")),
    }
}

/// Random strings of the query alphabet, bare, in a pattern's object
/// position and after a whole query, give rows or a typed error; both
/// outcomes occur.
#[test]
fn query_parser_survives_random_strings() {
    let st = query_store();
    let (mut answered, mut refused) = (0, 0);
    check("store::query_random_strings", 256, |rng| {
        let len = rng.gen_range(0..24usize);
        let text: String =
            (0..len).map(|_| QUERY_ALPHABET[rng.gen_range(0..QUERY_ALPHABET.len())]).collect();
        for query in [
            format!("SELECT * WHERE {{ ?s ?p {text} }}"),
            format!("SELECT * WHERE {{ ?s <rel:coauthor> ?o }} {text}"),
            text,
        ] {
            if answers(&st, &query)? {
                answered += 1;
            } else {
                refused += 1;
            }
        }
        Ok(())
    });
    assert!(answered > 0 && refused > 0, "{answered} answered, {refused} refused");
}

/// Single-char mutations of the parser tests' queries give rows or a
/// typed error, never a panic; both outcomes occur.
#[test]
fn query_parser_survives_single_char_mutations() {
    let st = query_store();
    let (mut answered, mut refused) = (0, 0);
    check("store::query_mutations", 1_024, |rng| {
        let seed = SEED_QUERIES[rng.gen_range(0..SEED_QUERIES.len())];
        let boundaries: Vec<usize> = (0..seed.len()).filter(|&i| seed.is_char_boundary(i)).collect();
        let at = boundaries[rng.gen_range(0..boundaries.len())];
        let old = seed[at..].chars().next().unwrap_or(' ');
        let mutated = replace_char(seed, at, other_char(rng, QUERY_ALPHABET, old));
        if answers(&st, &mutated)? {
            answered += 1;
        } else {
            refused += 1;
        }
        Ok(())
    });
    assert!(answered > 0 && refused > 0, "{answered} answered, {refused} refused");
}
