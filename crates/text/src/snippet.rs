//! Context-aware snippet extraction (paper §2.3 item (a), ref \[14\]).
//!
//! Given a document and a *context* (query terms from the active workpad
//! or the user's activity vector), returns the contiguous sentence window
//! that best covers the context: coverage of distinct context terms,
//! term density, and an early-position prior, traded off per \[14\]'s
//! "relevant snippets for web navigation" formulation.

use crate::tokenize::{sentences, tokenize_filtered};
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
}

/// Extracts the best snippet of up to `cfg.max_sentences` consecutive
/// sentences for the given context. Returns `None` for an empty document.
pub fn extract_snippet(
    document: &str,
    context: &SnippetContext,
    cfg: SnippetConfig,
) -> Option<Snippet> {
    let sents = sentences(document);
    if sents.is_empty() {
        return None;
    }
    let context = &context.terms;
    let sent_tokens: Vec<Vec<String>> = sents.iter().map(|s| tokenize_filtered(s)).collect();
    let n = sents.len();
    let win = cfg.max_sentences.max(1);
    let mut best: Option<(f64, usize, usize)> = None;
    for start in 0..n {
        for len in 1..=win.min(n - start) {
            let window_tokens: Vec<&String> =
                sent_tokens[start..start + len].iter().flatten().collect();
            if window_tokens.is_empty() {
                continue;
            }
            let covered: HashSet<&String> = window_tokens
                .iter()
                .copied()
                .filter(|t| context.contains(*t))
                .collect();
            let coverage = if context.is_empty() {
                0.0
            } else {
                covered.len() as f64 / context.len() as f64
            };
            let hits = window_tokens.iter().filter(|t| context.contains(**t)).count();
            let density = hits as f64 / window_tokens.len() as f64;
            let position = 1.0 - cfg.position_weight * (start as f64 / n as f64);
            let score =
                (cfg.coverage_weight * coverage + (1.0 - cfg.coverage_weight) * density) * position;
            let better = match best {
                None => true,
                Some((bs, _, blen)) => {
                    score > bs + 1e-12 || ((score - bs).abs() <= 1e-12 && len < blen)
                }
            };
            if better {
                best = Some((score, start, len));
            }
        }
    }
    let (score, start, len) = best?;
    Some(Snippet {
        text: sents[start..start + len].join(" "),
        start_sentence: start,
        sentence_count: len,
        score,
    })
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
