//! Property tests for the text substrate: tokenization, TF-IDF, and the
//! AlphaSum summarizer's core invariants. Driven by the in-tree seeded
//! runner (`hive_bench::prop`).

use hive_bench::prop::{check, DEFAULT_CASES};
use hive_bench::{prop_ensure, prop_ensure_eq};
use hive_rng::{Rng, SliceRandom};
use hive_text::summarize::{
    summarize_table, Strategy as SumStrategy, SummaryConfig, Table, ValueLattice,
};
use hive_text::snippet::{extract_snippet, extract_snippet_ids, SnippetConfig, SnippetContext};
use hive_text::tfidf::{cosine_of_dot, dot, Corpus, Gather, SparseVector};
use hive_text::tokenize::{sentences, tokenize, tokenize_filtered, tokenize_sentences};
use std::collections::HashMap;

/// Arbitrary text over a messy character pool (letters, digits,
/// punctuation, whitespace, a few non-ASCII letters).
fn gen_text(rng: &mut Rng) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'c', 'x', 'y', 'z', 'A', 'Q', '0', '7', ' ', ' ', '\t', '\n', '.', ',', '!',
        '-', '_', '(', ')', '"', '\'', 'é', 'ß', 'λ', '中',
    ];
    let n = rng.gen_range(0..200usize);
    (0..n)
        .filter_map(|_| POOL.choose(rng).copied())
        .collect()
}

/// A lowercase word of 3..=8 letters.
fn gen_word(rng: &mut Rng) -> String {
    let n = rng.gen_range(3..=8usize);
    (0..n)
        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
        .collect()
}

/// A sentence of 1..=11 such words.
fn gen_word_text(rng: &mut Rng, max_extra_words: usize) -> String {
    let n = 1 + rng.gen_range(0..=max_extra_words);
    (0..n).map(|_| gen_word(rng)).collect::<Vec<_>>().join(" ")
}

/// Tokenization is deterministic, produces lowercase alphanumeric tokens
/// of length >= 2, and filtered output is a subset-transform of raw.
#[test]
fn tokenize_invariants() {
    check("text::tokenize_invariants", DEFAULT_CASES, |rng| {
        let text = gen_text(rng);
        let a = tokenize(&text);
        let b = tokenize(&text);
        prop_ensure_eq!(a, b);
        for t in &a {
            prop_ensure!(t.chars().count() >= 2, "short token {t:?}");
            prop_ensure!(t.chars().all(|c| c.is_alphanumeric()), "bad token {t:?}");
            prop_ensure_eq!(t.clone(), t.to_lowercase());
        }
        prop_ensure!(tokenize_filtered(&text).len() <= a.len());
        Ok(())
    });
}

/// Cosine is symmetric, bounded, and 1 on self for non-zero vectors.
#[test]
fn cosine_properties() {
    check("text::cosine_properties", DEFAULT_CASES, |rng| {
        let gen_entries = |rng: &mut Rng| -> Vec<(u32, f64)> {
            let n = rng.gen_range(0..20usize);
            (0..n)
                .map(|_| (rng.gen_range(0..40u32), rng.gen_range(1..100u32) as f64))
                .collect()
        };
        let a = SparseVector::from_entries(gen_entries(rng));
        let b = SparseVector::from_entries(gen_entries(rng));
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        prop_ensure!((ab - ba).abs() < 1e-12, "cosine not symmetric");
        prop_ensure!((-1e-12..=1.0 + 1e-12).contains(&ab), "cosine {ab} out of range");
        if !a.is_empty() {
            prop_ensure!((a.cosine(&a) - 1.0).abs() < 1e-9, "self-cosine != 1");
        }
        Ok(())
    });
}

/// `cosine_normed` given the two norms returns the bits of the formula
/// `cosine` always computed, `dot / (norm * norm)` with 0 for a zero
/// denominator, on weights of mixed magnitude, empty vectors and vectors
/// whose every given weight is zero.
#[test]
fn cosine_normed_matches_the_dot_over_norms_formula() {
    check("text::cosine_normed_matches_formula", DEFAULT_CASES, |rng| {
        let gen = |rng: &mut Rng| -> SparseVector {
            let n = rng.gen_range(0..24usize);
            let all_zero = rng.gen_range(0..6u32) == 0;
            SparseVector::from_entries((0..n).map(|_| {
                let w = if all_zero {
                    0.0
                } else {
                    rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-3..4i32))
                };
                (rng.gen_range(0..48u32), w)
            }))
        };
        let (a, b) = (gen(rng), gen(rng));
        let formula = |x: &SparseVector, y: &SparseVector| {
            let denom = x.norm() * y.norm();
            if denom == 0.0 {
                0.0
            } else {
                x.dot(y) / denom
            }
        };
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            let normed = x.cosine_normed(x.norm(), y, y.norm());
            prop_ensure_eq!(normed.to_bits(), formula(x, y).to_bits());
            prop_ensure_eq!(normed.to_bits(), x.cosine(y).to_bits());
        }
        Ok(())
    });
}

/// A random sparse vector: weights of mixed magnitude over a term range
/// that random draws make overlap, nest or miss another's, sometimes
/// empty and sometimes with every given weight zero (so its norm is 0).
fn gen_sparse(rng: &mut Rng) -> SparseVector {
    let n = rng.gen_range(0..24usize);
    let lo = rng.gen_range(0..40u32);
    let span = rng.gen_range(1..48u32);
    let all_zero = rng.gen_range(0..6u32) == 0;
    SparseVector::from_entries((0..n).map(|_| {
        let w = if all_zero {
            0.0
        } else {
            rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-3..4i32))
        };
        (lo + rng.gen_range(0..span), w)
    }))
}

/// Scoring rows by gather against scattered vectors gives the bits of
/// the merge join: `Gather::dots` equals `SparseVector::dot` with the
/// scattered vector first, and the cosine over it equals
/// `cosine_normed`, on empty rows, zero norms and disjoint supports.
#[test]
fn gather_dot_equals_the_merge_join_bit_for_bit() {
    check("text::gather_equals_merge_join", DEFAULT_CASES, |rng| {
        let (q, c) = (gen_sparse(rng), gen_sparse(rng));
        let both = Gather::new([q.entries(), c.entries()]);
        let one = Gather::new([q.entries()]);
        for _ in 0..8 {
            let row = gen_sparse(rng);
            let [dq, dc] = both.dots(row.entries());
            prop_ensure_eq!(dq.to_bits(), q.dot(&row).to_bits());
            prop_ensure_eq!(dc.to_bits(), c.dot(&row).to_bits());
            prop_ensure_eq!(one.dots(row.entries())[0].to_bits(), dq.to_bits());
            prop_ensure_eq!(dq.to_bits(), dot(q.entries(), row.entries()).to_bits());
            let cosine = cosine_of_dot(dq, q.norm(), row.norm());
            let merged = q.cosine_normed(q.norm(), &row, row.norm());
            prop_ensure_eq!(cosine.to_bits(), merged.to_bits());
        }
        // An empty profile scores every row 0.
        let none = Gather::new([SparseVector::new().entries()]);
        prop_ensure_eq!(none.dots(q.entries())[0].to_bits(), 0f64.to_bits());
        Ok(())
    });
}

/// Tokenizing in one pass gives each sentence's tokens in turn, whose
/// concatenation is the whole text's; interning them gives their ids,
/// and a snippet scored over the ids equals the string extraction field
/// for field, on messy text, sentences of words, and contexts with terms
/// the vocabulary lacks.
#[test]
fn sentence_tokens_and_id_snippets_match_the_text_path() {
    check("text::id_snippets_match", DEFAULT_CASES, |rng| {
        let doc = if rng.gen_range(0..2u32) == 0 {
            gen_text(rng)
        } else {
            let n = rng.gen_range(0..8usize);
            (0..n).map(|_| gen_word_text(rng, 6) + ".").collect::<Vec<_>>().join(" ")
        };
        let sents = sentences(&doc);
        let (tokens, ends) = tokenize_sentences(&doc);
        prop_ensure_eq!(tokens, tokenize_filtered(&doc));
        let mut count = 0;
        for (sentence, &end) in sents.iter().zip(&ends) {
            count += tokenize_filtered(sentence).len() as u32;
            prop_ensure_eq!(end, count);
        }
        prop_ensure_eq!(ends.len(), sents.len());
        let mut corpus = Corpus::new();
        let mut seen = HashMap::new();
        corpus.index_document(&gen_word_text(rng, 6));
        let (ids, id_ends) = corpus.intern_sentences(&doc, &mut seen);
        prop_ensure_eq!(&id_ends, &ends);
        let names: Vec<&str> = ids.iter().filter_map(|&id| corpus.term_name(id)).collect();
        prop_ensure_eq!(names, tokens.iter().map(String::as_str).collect::<Vec<_>>());
        // A second pass through the filled `seen` gives the same ids.
        prop_ensure_eq!(corpus.intern_sentences(&doc, &mut seen).0, ids.clone());
        let mut raw: Vec<String> = (0..rng.gen_range(0..4usize)).map(|_| gen_word(rng)).collect();
        if let Some(t) = tokens.choose(rng) {
            raw.push(t.clone());
        }
        let context = SnippetContext::new(raw.iter().map(String::as_str));
        let cfg = SnippetConfig { max_sentences: rng.gen_range(1..4usize), ..Default::default() };
        let context_ids = context.ids(|t| corpus.lookup(t));
        let by_ids = extract_snippet_ids(&doc, &ids, &ends, &context_ids, cfg);
        prop_ensure_eq!(by_ids, extract_snippet(&doc, &context, cfg));
        Ok(())
    });
}

/// TF-IDF vectors are unit length (or empty) and IDF is positive.
#[test]
fn tfidf_normalization() {
    check("text::tfidf_normalization", DEFAULT_CASES, |rng| {
        let n_docs = rng.gen_range(1..10usize);
        let docs: Vec<String> = (0..n_docs).map(|_| gen_word_text(rng, 10)).collect();
        let mut corpus = Corpus::new();
        let tfs: Vec<_> = docs.iter().map(|d| corpus.index_document(d)).collect();
        for tf in &tfs {
            let v = corpus.tfidf(tf);
            if !v.is_empty() {
                prop_ensure!((v.norm() - 1.0).abs() < 1e-9, "tfidf not unit norm");
            }
        }
        for t in 0..corpus.term_count() as u32 {
            prop_ensure!(corpus.idf(t) > 0.0, "non-positive idf for term {t}");
        }
        Ok(())
    });
}

/// Random small activity tables over a fixed 2-level lattice.
fn gen_table(rng: &mut Rng) -> Table {
    let mut place = ValueLattice::new("*");
    for t in 0..2 {
        place.add_child("*", format!("track{t}"));
        for s in 0..2 {
            place.add_child(format!("track{t}"), format!("s{t}_{s}"));
        }
    }
    let mut who = ValueLattice::new("*");
    for u in 0..4 {
        who.add_child("*", format!("u{u}"));
    }
    let mut what = ValueLattice::new("*");
    for a in ["checkin", "view", "ask"] {
        what.add_child("*", a);
    }
    let mut table = Table::new(
        vec!["who".into(), "where".into(), "what".into()],
        vec![who, place, what],
    );
    let rows = 1 + rng.gen_range(0..39usize);
    for _ in 0..rows {
        let u = rng.gen_range(0..4usize);
        let s = rng.gen_range(0..3usize);
        let a = rng.gen_range(0..3usize);
        table.push_row(vec![
            format!("u{u}"),
            format!("s{}_{}", s % 2, s % 2),
            ["checkin", "view", "ask"][a].to_string(),
        ]);
    }
    table
}

/// AlphaSum invariants, any strategy: the budget is respected, every
/// source row is covered exactly once, loss is non-negative and
/// monotonically non-increasing in k, and retained is in [0,1].
#[test]
fn summarizer_invariants() {
    check("text::summarizer_invariants", DEFAULT_CASES, |rng| {
        let table = gen_table(rng);
        let k = rng.gen_range(1..6usize);
        for strategy in [SumStrategy::Greedy, SumStrategy::RandomMerge(7)] {
            let s = summarize_table(&table, SummaryConfig { max_rows: k, strategy });
            prop_ensure!(s.rows.len() <= k, "budget exceeded");
            let covered: usize = s.rows.iter().map(|(_, c)| c).sum();
            prop_ensure_eq!(covered, table.rows.len());
            prop_ensure!(s.loss >= -1e-12, "negative loss");
            prop_ensure!((0.0..=1.0).contains(&s.retained), "retained out of range");
        }
        // Greedy loss is monotone non-increasing in the budget.
        let l1 = summarize_table(
            &table,
            SummaryConfig { max_rows: k, strategy: SumStrategy::Greedy },
        )
        .loss;
        let l2 = summarize_table(
            &table,
            SummaryConfig { max_rows: k + 1, strategy: SumStrategy::Greedy },
        )
        .loss;
        prop_ensure!(l2 <= l1 + 1e-9, "more budget cannot hurt: {l2} vs {l1}");
        Ok(())
    });
}

/// Generalized cells are always ancestors of the cells they cover.
#[test]
fn summary_cells_are_ancestors() {
    check("text::summary_cells_are_ancestors", DEFAULT_CASES, |rng| {
        let table = gen_table(rng);
        let k = rng.gen_range(1..4usize);
        let s = summarize_table(
            &table,
            SummaryConfig { max_rows: k, strategy: SumStrategy::Greedy },
        );
        // Which original rows each summary row covers is not exposed;
        // instead check that every summary cell is a valid lattice value
        // (an ancestor of *some* leaf or the root).
        for (row, _) in &s.rows {
            for (c, val) in row.iter().enumerate() {
                let lat = &table.lattices[c];
                let known = table.rows.iter().any(|r| lat.ancestors(&r[c]).contains(val));
                prop_ensure!(known, "cell {val:?} is not on any leaf's ancestor chain");
            }
        }
        Ok(())
    });
}

/// MinHash similarity is symmetric, in [0,1], and 1 on self.
#[test]
fn minhash_properties() {
    check("text::minhash_properties", DEFAULT_CASES, |rng| {
        use hive_text::MinHashSignature;
        let a = gen_word_text(rng, 15);
        let b = gen_word_text(rng, 15);
        let sa = MinHashSignature::compute(&a, 2, 64);
        let sb = MinHashSignature::compute(&b, 2, 64);
        let ab = sa.similarity(&sb);
        prop_ensure!((0.0..=1.0).contains(&ab), "similarity {ab} out of range");
        prop_ensure!((ab - sb.similarity(&sa)).abs() < 1e-12, "not symmetric");
        prop_ensure_eq!(sa.similarity(&sa), 1.0);
        Ok(())
    });
}
