//! TF-IDF corpus model and sparse-vector cosine similarity.
//!
//! "User-provided content (publication, presentation, other supporting
//! material) similarity" is one of Hive's nine relationship evidences;
//! this module provides the vector-space machinery behind it and behind
//! the activity-context vectors of §2.1.

use std::collections::HashMap;

use crate::tokenize::{normalize, tokenize_filtered, tokenize_sentences_with};

/// A sparse term-weight vector keyed by corpus term ids.
///
/// Entries are kept sorted by term id with no explicit zeros — a
/// *canonical* form, so equal vectors are structurally equal and every
/// reduction (norm, dot, accumulate) sums in term-id order. That makes
/// all derived scores bit-reproducible across instances and thread
/// counts, which the platform's determinism contract (and the
/// simulation harness's recovery/differential oracles) depend on; a
/// hash-keyed representation would sum in per-instance iteration order
/// and drift by an ulp between otherwise identical runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from raw entries, dropping zeros (later duplicates win,
    /// matching map-insert semantics).
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, f64)>) -> Self {
        let mut out = SparseVector::new();
        for (t, v) in entries {
            out.set(t, v);
        }
        out
    }

    /// Weight of term `t` (0 if absent).
    pub fn get(&self, t: u32) -> f64 {
        match self.entries.binary_search_by_key(&t, |e| e.0) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Sets term `t`'s weight (removing it when zero).
    pub fn set(&mut self, t: u32, v: f64) {
        match self.entries.binary_search_by_key(&t, |e| e.0) {
            Ok(i) => {
                if v == 0.0 {
                    self.entries.remove(i);
                } else {
                    self.entries[i].1 = v;
                }
            }
            Err(i) => {
                if v != 0.0 {
                    self.entries.insert(i, (t, v));
                }
            }
        }
    }

    /// Adds `v` to term `t`'s weight.
    pub fn add(&mut self, t: u32, v: f64) {
        let next = self.get(t) + v;
        self.set(t, next);
    }

    /// Number of non-zero terms.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(term, weight)` in ascending term order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The `(term, weight)` entries in ascending term order.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// The vector whose weight of term `t` is `dense[t]`, zeros dropped.
    pub fn from_dense(dense: &[f64]) -> Self {
        let entries = dense.iter().enumerate().filter(|&(_, &v)| v != 0.0);
        SparseVector { entries: entries.map(|(t, &v)| (t as u32, v)).collect() }
    }

    /// Euclidean norm (summed in term order).
    pub fn norm(&self) -> f64 {
        norm(&self.entries)
    }

    /// Dot product with another vector ([`dot`]).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        dot(&self.entries, &other.entries)
    }

    /// Cosine similarity in `[0, 1]` for non-negative vectors.
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        self.cosine_normed(self.norm(), other, other.norm())
    }

    /// [`Self::cosine`] given both vectors' [`Self::norm`]s, for a caller
    /// that compares one vector with many and sums each norm once. The
    /// arithmetic is the same, so are the bits.
    pub fn cosine_normed(&self, norm: f64, other: &SparseVector, other_norm: f64) -> f64 {
        cosine_of_dot(self.dot(other), norm, other_norm)
    }

    /// In-place scaled accumulation: `self += scale * other`, for
    /// `other`'s entries in ascending term order.
    pub fn accumulate(&mut self, other: &[(u32, f64)], scale: f64) {
        for &(t, v) in other {
            self.add(t, v * scale);
        }
    }

    /// Scales all weights in place.
    pub fn scale(&mut self, s: f64) {
        if s == 0.0 {
            self.entries.clear();
        } else {
            for (_, v) in self.entries.iter_mut() {
                *v *= s;
            }
        }
    }

    /// Normalizes to unit length (no-op on the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// The `k` highest-weighted terms, descending.
    pub fn top_k(&self, k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = self.iter().collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Euclidean norm of a vector given as entries in ascending term order
/// (summed in term order).
pub fn norm(entries: &[(u32, f64)]) -> f64 {
    entries.iter().map(|(_, v)| v * v).sum::<f64>().sqrt()
}

/// Dot product of two vectors given as entries in ascending term order: a
/// merge join, accumulated in term order.
pub fn dot(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    let (mut i, mut j, mut acc) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// The cosine of two vectors from their dot product and norms: 0 when
/// either norm is 0, else `dot / (norm * other_norm)`.
pub fn cosine_of_dot(dot: f64, norm: f64, other_norm: f64) -> f64 {
    let denom = norm * other_norm;
    if denom == 0.0 {
        0.0
    } else {
        dot / denom
    }
}

/// `K` sparse vectors scattered into one dense array over the terms they
/// name, so that many rows are scored against all of them in one pass
/// over each row's entries.
///
/// [`Gather::dots`] gives, for each vector, the bits of [`dot`] with the
/// vector first: it takes the same products in the same term order, and
/// a term the vector lacks adds `+0.0`, which leaves every finite sum
/// as it is (the merge join's sum starts at `+0.0` and never becomes
/// `-0.0`).
#[derive(Clone, Debug)]
pub struct Gather<const K: usize> {
    dense: Vec<[f64; K]>,
}

impl<const K: usize> Gather<K> {
    /// Scatters `vectors`, each given as entries in ascending term order.
    pub fn new(vectors: [&[(u32, f64)]; K]) -> Self {
        let terms = vectors.iter().flat_map(|v| v.iter()).map(|&(t, _)| t as usize + 1);
        let mut dense = vec![[0.0; K]; terms.max().unwrap_or(0)];
        for (k, v) in vectors.iter().enumerate() {
            for &(t, w) in v.iter() {
                if let Some(slot) = dense.get_mut(t as usize) {
                    slot[k] = w;
                }
            }
        }
        Gather { dense }
    }

    /// The dot product of each scattered vector with `row`, whose entries
    /// are in ascending term order.
    pub fn dots(&self, row: &[(u32, f64)]) -> [f64; K] {
        let mut acc = [0.0; K];
        for &(t, w) in row {
            let x = self.dense.get(t as usize).copied().unwrap_or([0.0; K]);
            for k in 0..K {
                acc[k] += x[k] * w;
            }
        }
        acc
    }
}

/// The raw term-frequency vector of a document's term ids.
pub fn term_frequencies(ids: &[u32]) -> SparseVector {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let mut entries: Vec<(u32, f64)> = Vec::new();
    for id in sorted {
        match entries.last_mut() {
            Some((t, n)) if *t == id => *n += 1.0,
            _ => entries.push((id, 1.0)),
        }
    }
    SparseVector { entries }
}

/// A TF-IDF corpus: term dictionary, document frequencies, and document
/// vectors, built incrementally.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    terms: HashMap<String, u32>,
    term_names: Vec<String>,
    doc_freq: Vec<u32>,
    docs: usize,
}

impl Corpus {
    /// Empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.docs
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.term_names.len()
    }

    /// Id for `term`, interning it if new.
    pub fn term_id(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.terms.get(term) {
            return id;
        }
        // Capacity invariant: term ids are u32 (same rationale as
        // TermDict::intern).
        let id = u32::try_from(self.term_names.len()).expect("term overflow"); // lint:allow(no-panic-paths)
        self.terms.insert(term.to_string(), id);
        self.term_names.push(term.to_string());
        self.doc_freq.push(0);
        id
    }

    /// Id for `term` without interning.
    pub fn lookup(&self, term: &str) -> Option<u32> {
        self.terms.get(term).copied()
    }

    /// Display name for a term id.
    pub fn term_name(&self, id: u32) -> Option<&str> {
        self.term_names.get(id as usize).map(String::as_str)
    }

    /// [`crate::tokenize::tokenize_sentences`] of `text` as term ids,
    /// interning new terms: the ids of its filtered tokens and the token
    /// count at each sentence end. `seen` keeps each distinct raw token's
    /// id (`None` for a stopword) from call to call, so that a token is
    /// normalized and looked up once per `seen`; any `seen` filled by
    /// this corpus gives the same ids.
    pub fn intern_sentences(
        &mut self,
        text: &str,
        seen: &mut HashMap<String, Option<u32>>,
    ) -> (Vec<u32>, Vec<u32>) {
        tokenize_sentences_with(text, |token| {
            if let Some(&id) = seen.get(token) {
                return id;
            }
            let id = normalize(token).map(|term| self.term_id(&term));
            seen.insert(token.to_string(), id);
            id
        })
    }

    /// Indexes a document (tokenized+filtered internally), updating
    /// document frequencies, and returns its raw term-frequency vector.
    pub fn index_document(&mut self, text: &str) -> SparseVector {
        let ids: Vec<u32> = tokenize_filtered(text).iter().map(|t| self.term_id(t)).collect();
        self.index_ids(&ids)
    }

    /// [`Self::index_document`] for a document given as its term ids
    /// ([`Self::intern_sentences`]).
    pub fn index_ids(&mut self, ids: &[u32]) -> SparseVector {
        let tf = term_frequencies(ids);
        for &(id, _) in tf.entries() {
            self.doc_freq[id as usize] += 1;
        }
        self.docs += 1;
        tf
    }

    /// Smoothed IDF of a term: `ln(1 + N / (1 + df))`.
    pub fn idf(&self, id: u32) -> f64 {
        let df = self.doc_freq.get(id as usize).copied().unwrap_or(0) as f64;
        (1.0 + self.docs as f64 / (1.0 + df)).ln()
    }

    /// Converts a raw TF vector to a unit-length TF-IDF vector using
    /// log-scaled term frequency.
    pub fn tfidf(&self, tf: &SparseVector) -> SparseVector {
        let mut out = tf.clone();
        self.weigh(&mut out.entries);
        out.entries.retain(|&(_, w)| w != 0.0);
        out
    }

    /// [`Self::tfidf`] in place on a raw TF vector's entries, keeping any
    /// zero weight where `tfidf` drops it. A document indexed in this
    /// corpus has none: each count is at least 1 and each of its terms'
    /// IDF is positive. A zero adds `+0.0` to the norm, so the other
    /// weights are `tfidf`'s bits.
    pub fn weigh(&self, entries: &mut [(u32, f64)]) {
        for (id, f) in entries.iter_mut() {
            *f = (1.0 + *f).ln() * self.idf(*id);
        }
        let n = norm(entries);
        if n > 0.0 {
            let s = 1.0 / n;
            for (_, w) in entries.iter_mut() {
                *w *= s;
            }
        }
    }

    /// One-shot: tokenize `text` against the *existing* vocabulary
    /// (unknown words are interned but have max IDF) and return its
    /// normalized TF-IDF vector. Does not update document frequencies.
    pub fn vectorize(&mut self, text: &str) -> SparseVector {
        let ids: Vec<u32> = tokenize_filtered(text).iter().map(|t| self.term_id(t)).collect();
        self.tfidf(&term_frequencies(&ids))
    }

    /// Like [`Self::vectorize`] but read-only: tokens outside the current
    /// vocabulary are silently dropped. Used by query-time services that
    /// hold the corpus immutably.
    pub fn vectorize_known(&self, text: &str) -> SparseVector {
        let tokens = tokenize_filtered(text);
        let ids: Vec<u32> = tokens.iter().filter_map(|t| self.lookup(t)).collect();
        self.tfidf(&term_frequencies(&ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vector_ops() {
        let mut v = SparseVector::new();
        v.set(1, 3.0);
        v.set(2, 4.0);
        assert_eq!(v.nnz(), 2);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        v.add(1, -3.0);
        assert_eq!(v.nnz(), 1, "zeroed entries are removed");
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_bounds_and_identity() {
        let a = SparseVector::from_entries([(0, 1.0), (1, 2.0)]);
        let b = SparseVector::from_entries([(1, 2.0), (2, 5.0)]);
        let zero = SparseVector::new();
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        let c = a.cosine(&b);
        assert!(c > 0.0 && c < 1.0);
        assert_eq!(a.cosine(&zero), 0.0);
    }

    #[test]
    fn dot_is_symmetric() {
        let a = SparseVector::from_entries([(0, 1.0), (1, 2.0), (5, 3.0)]);
        let b = SparseVector::from_entries([(1, 4.0)]);
        assert_eq!(a.dot(&b), b.dot(&a));
        assert_eq!(a.dot(&b), 8.0);
    }

    #[test]
    fn idf_downweights_common_terms() {
        let mut c = Corpus::new();
        c.index_document("graph tensor");
        c.index_document("graph community");
        c.index_document("graph stream");
        let graph = c.lookup("graph").unwrap();
        let tensor = c.lookup("tensor").unwrap();
        assert!(c.idf(graph) < c.idf(tensor));
    }

    #[test]
    fn similar_documents_rank_higher() {
        let mut c = Corpus::new();
        let d1 = c.index_document("spectral analysis of tensor streams for social networks");
        let d2 = c.index_document("tensor stream analysis detects social network change");
        let d3 = c.index_document("relational database query optimization and indexing");
        let v1 = c.tfidf(&d1);
        let v2 = c.tfidf(&d2);
        let v3 = c.tfidf(&d3);
        assert!(v1.cosine(&v2) > v1.cosine(&v3));
    }

    #[test]
    fn vectorize_does_not_count_as_document() {
        let mut c = Corpus::new();
        c.index_document("graph processing");
        let before = c.doc_count();
        let v = c.vectorize("graph query");
        assert_eq!(c.doc_count(), before);
        assert!(v.nnz() > 0);
        assert!((v.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_ordering() {
        let v = SparseVector::from_entries([(0, 0.1), (1, 0.9), (2, 0.5)]);
        let top = v.top_k(2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
    }

    #[test]
    fn accumulate_scales() {
        let mut a = SparseVector::from_entries([(0, 1.0)]);
        let b = SparseVector::from_entries([(0, 1.0), (1, 2.0)]);
        a.accumulate(b.entries(), 0.5);
        assert!((a.get(0) - 1.5).abs() < 1e-12);
        assert!((a.get(1) - 1.0).abs() < 1e-12);
    }
}
