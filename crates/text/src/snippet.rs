//! Context-aware snippet extraction (paper §2.3 item (a), ref \[14\]).
//!
//! Given a document and a *context* (query terms from the active workpad
//! or the user's activity vector), returns the contiguous sentence window
//! that best covers the context: coverage of distinct context terms,
//! term density, and an early-position prior, traded off per \[14\]'s
//! "relevant snippets for web navigation" formulation.

use crate::tokenize::{sentences, tokenize_filtered, tokenize_sentences};
use std::collections::HashSet;

/// An extracted snippet.
#[derive(Clone, Debug, PartialEq)]
pub struct Snippet {
    /// The snippet text (whole sentences, original casing).
    pub text: String,
    /// Index of the first sentence in the document.
    pub start_sentence: usize,
    /// Number of sentences included.
    pub sentence_count: usize,
    /// Relevance score; 0 when no context term occurs in the document.
    pub score: f64,
}

/// Extraction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SnippetConfig {
    /// Maximum sentences per snippet window.
    pub max_sentences: usize,
    /// Weight of distinct-term coverage vs. density.
    pub coverage_weight: f64,
    /// Strength of the early-position prior in `[0, 1)`.
    pub position_weight: f64,
}

impl Default for SnippetConfig {
    fn default() -> Self {
        SnippetConfig { max_sentences: 2, coverage_weight: 0.6, position_weight: 0.1 }
    }
}

/// The context a snippet should cover: raw words (query terms, active
/// context terms) normalized once, so one request can score many
/// documents against them.
#[derive(Clone, Debug, Default)]
pub struct SnippetContext {
    terms: HashSet<String>,
}

impl SnippetContext {
    /// Tokenizes and stopword-filters each raw word or phrase.
    pub fn new<'a>(raw: impl IntoIterator<Item = &'a str>) -> Self {
        SnippetContext { terms: raw.into_iter().flat_map(tokenize_filtered).collect() }
    }

    /// The context over a vocabulary's term ids, for documents held as
    /// ids: `lookup` maps a term to its id. A term the vocabulary lacks
    /// occurs in no such document but still counts toward coverage.
    pub fn ids(&self, lookup: impl Fn(&str) -> Option<u32>) -> ContextIds {
        // lint:allow(determinism-taint) -- the ids are sorted below
        let mut ids: Vec<u32> = self.terms.iter().filter_map(|t| lookup(t)).collect();
        ids.sort_unstable();
        ContextIds { ids, terms: self.terms.len() }
    }
}

/// A [`SnippetContext`] as term ids ([`SnippetContext::ids`]).
#[derive(Clone, Debug, Default)]
pub struct ContextIds {
    /// Ids of the context terms the vocabulary knows, sorted.
    ids: Vec<u32>,
    /// Distinct context terms, known or not.
    terms: usize,
}

/// Extracts the best snippet of up to `cfg.max_sentences` consecutive
/// sentences for the given context. Returns `None` for an empty document.
pub fn extract_snippet(
    document: &str,
    context: &SnippetContext,
    cfg: SnippetConfig,
) -> Option<Snippet> {
    let (tokens, ends) = tokenize_sentences(document);
    let context = &context.terms;
    let best = best_window(&tokens, &ends, |t| context.contains(t), context.len(), cfg)?;
    best.cut(&sentences(document))
}

/// [`extract_snippet`] for a document tokenized once ahead of time:
/// `tokens` and `ends` are [`tokenize_sentences`] of the document, with
/// each token mapped to the id `context` was built with. The
/// windows, their scores and the snippet are the same, field for field;
/// only the sentences are split from `document` again.
pub fn extract_snippet_ids(
    document: &str,
    tokens: &[u32],
    ends: &[u32],
    context: &ContextIds,
    cfg: SnippetConfig,
) -> Option<Snippet> {
    let ids = &context.ids;
    let best = best_window(tokens, ends, |t| ids.binary_search(t).is_ok(), context.terms, cfg)?;
    best.cut(&sentences(document))
}

/// The best window of a document: its score and sentence range.
struct Window {
    score: f64,
    start: usize,
    len: usize,
}

impl Window {
    /// The snippet of this window over the document's `sentences`.
    fn cut(self, sentences: &[&str]) -> Option<Snippet> {
        Some(Snippet {
            text: sentences.get(self.start..self.start + self.len)?.join(" "),
            start_sentence: self.start,
            sentence_count: self.len,
            score: self.score,
        })
    }
}

/// Scores every window of up to `cfg.max_sentences` consecutive sentences
/// of a document given as its filtered tokens and the token count at each
/// sentence end, against a context of `context_terms` distinct terms that
/// `in_context` recognizes: coverage of distinct context terms, term
/// density, and an early-position prior. The one scorer behind both
/// extraction paths. `None` for a document without sentences.
fn best_window<T: Ord>(
    tokens: &[T],
    ends: &[u32],
    in_context: impl Fn(&T) -> bool,
    context_terms: usize,
    cfg: SnippetConfig,
) -> Option<Window> {
    let n = ends.len();
    let win = cfg.max_sentences.max(1);
    let mut best: Option<Window> = None;
    let mut covered: Vec<&T> = Vec::new();
    for start in 0..n {
        let first = if start == 0 { 0 } else { ends[start - 1] as usize };
        for len in 1..=win.min(n - start) {
            let window = tokens.get(first..ends[start + len - 1] as usize).unwrap_or_default();
            if window.is_empty() {
                continue;
            }
            covered.clear();
            covered.extend(window.iter().filter(|t| in_context(t)));
            let hits = covered.len();
            covered.sort_unstable();
            covered.dedup();
            let coverage = if context_terms == 0 {
                0.0
            } else {
                covered.len() as f64 / context_terms as f64
            };
            let density = hits as f64 / window.len() as f64;
            let position = 1.0 - cfg.position_weight * (start as f64 / n as f64);
            let score =
                (cfg.coverage_weight * coverage + (1.0 - cfg.coverage_weight) * density) * position;
            let better = match &best {
                None => true,
                Some(b) => {
                    score > b.score + 1e-12 || ((score - b.score).abs() <= 1e-12 && len < b.len)
                }
            };
            if better {
                best = Some(Window { score, start, len });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "This paper studies query optimization. \
        Tensor streams model evolving social networks efficiently. \
        Our compressed sensing sketch detects structural changes in tensor streams. \
        Experiments use three datasets. \
        Finally we discuss limitations.";

    #[test]
    fn finds_context_bearing_sentences() {
        let ctx = SnippetContext::new(["tensor streams", "change detection"]);
        let s = extract_snippet(DOC, &ctx, SnippetConfig::default()).unwrap();
        assert!(s.text.contains("tensor streams") || s.text.contains("Tensor streams"));
        assert!(s.score > 0.0);
    }

    #[test]
    fn respects_window_limit() {
        let cfg = SnippetConfig { max_sentences: 1, ..Default::default() };
        let s = extract_snippet(DOC, &SnippetContext::new(["tensor"]), cfg).unwrap();
        assert_eq!(s.sentence_count, 1);
    }

    #[test]
    fn no_context_terms_prefers_early_short() {
        let s = extract_snippet(DOC, &SnippetContext::default(), SnippetConfig::default()).unwrap();
        assert_eq!(s.score, 0.0);
        assert_eq!(s.start_sentence, 0);
        assert_eq!(s.sentence_count, 1);
    }

    #[test]
    fn empty_document() {
        let ctx = SnippetContext::new(["x"]);
        assert!(extract_snippet("", &ctx, SnippetConfig::default()).is_none());
    }

    #[test]
    fn coverage_beats_single_term_density() {
        // One sentence repeats a single context term; another pair covers both.
        let doc = "Graphs graphs graphs graphs. Community detection in graphs works well.";
        let ctx = SnippetContext::new(["graphs", "community"]);
        let s = extract_snippet(doc, &ctx, SnippetConfig::default()).unwrap();
        assert!(
            s.text.contains("Community"),
            "coverage should dominate: {}",
            s.text
        );
    }

    #[test]
    fn position_prior_breaks_ties() {
        let doc = "Tensor analysis is hard. Filler sentence here. Tensor analysis is hard.";
        let s = extract_snippet(
            doc,
            &SnippetContext::new(["tensor"]),
            SnippetConfig { max_sentences: 1, ..Default::default() },
        )
        .unwrap();
        assert_eq!(s.start_sentence, 0, "earlier of two equal sentences wins");
    }
}
