//! Tokenization: lowercase alphanumeric word splitting, optional stopword
//! removal and stemming.

use crate::stem::stem;
use crate::stopwords::is_stopword;

/// Walks `text` once, calling `emit` with `Some` of each lowercase word
/// token: a maximal run of alphanumeric characters, dropped when shorter
/// than 2 characters (they are noise in scientific text). `emit` gets
/// `None` after the last token of each sentence of [`sentences`]: a
/// sentence ends at each `.`, `!` or `?`, and at the end of the text
/// unless only whitespace follows the last one. A terminator is never
/// alphanumeric, so no token spans two sentences.
fn scan(text: &str, mut emit: impl FnMut(Option<&str>)) {
    let mut cur = String::new();
    let mut in_sentence = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            if cur.chars().count() >= 2 {
                emit(Some(&cur));
            }
            cur.clear();
        }
        in_sentence |= !ch.is_whitespace();
        if matches!(ch, '.' | '!' | '?') {
            emit(None);
            in_sentence = false;
        }
    }
    if cur.chars().count() >= 2 {
        emit(Some(&cur));
    }
    if in_sentence {
        emit(None);
    }
}

/// Splits `text` into lowercase word tokens. A token is a maximal run of
/// alphanumeric characters; everything else separates. Tokens shorter
/// than 2 characters are dropped (they are noise in scientific text).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    scan(text, |t| out.extend(t.map(str::to_string)));
    out
}

/// The normalization of one [`tokenize`] token: `None` for a stopword,
/// else its stem.
pub fn normalize(token: &str) -> Option<String> {
    (!is_stopword(token)).then(|| stem(token))
}

/// Tokenizes, removes stopwords, and stems. This is the normalization
/// every indexing/similarity service applies.
pub fn tokenize_filtered(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    scan(text, |t| out.extend(t.and_then(normalize)));
    out
}

/// Splits text into sentences on `.`, `!`, `?` boundaries, trimming
/// whitespace and dropping empties. Used by the snippet extractor.
pub fn sentences(text: &str) -> Vec<&str> {
    text.split_inclusive(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// [`tokenize_filtered`] of `text` in one pass, with the token count at
/// the end of each of its [`sentences`] (a sentence without tokens
/// repeats the previous count): the tokens of each sentence, in turn.
/// One tokenization serves both term counts and snippet windows.
pub fn tokenize_sentences(text: &str) -> (Vec<String>, Vec<u32>) {
    tokenize_sentences_with(text, normalize)
}

/// [`tokenize_sentences`] with each [`tokenize`] token mapped by `term`,
/// which drops it by returning `None`; `normalize` gives
/// [`tokenize_sentences`] itself.
pub fn tokenize_sentences_with<T>(
    text: &str,
    mut term: impl FnMut(&str) -> Option<T>,
) -> (Vec<T>, Vec<u32>) {
    let (mut tokens, mut ends) = (Vec::new(), Vec::new());
    scan(text, |t| match t {
        Some(t) => tokens.extend(term(t)),
        None => ends.push(tokens.len() as u32),
    });
    (tokens, ends)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tokenize("Hello, World! x2"),
            vec!["hello", "world", "x2"]
        );
    }

    #[test]
    fn short_tokens_dropped() {
        assert_eq!(tokenize("a b cd"), vec!["cd"]);
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokenize("Türkçe ÖRNEK"), vec!["türkçe", "örnek"]);
    }

    #[test]
    fn filtered_removes_stopwords_and_stems() {
        let toks = tokenize_filtered("The processing of the graphs");
        assert!(!toks.iter().any(|t| t == "the" || t == "of"));
        assert!(toks.iter().any(|t| t.starts_with("process")));
        assert!(toks.iter().any(|t| t == "graph"));
    }

    #[test]
    fn sentences_split() {
        let s = sentences("First one. Second! Third? ");
        assert_eq!(s, vec!["First one.", "Second!", "Third?"]);
    }

    #[test]
    fn sentence_tokens_concatenate_to_the_texts() {
        let text = "Graphs, streams! Tensor-sketch ok? . Last one";
        let sents = sentences(text);
        let (tokens, ends) = tokenize_sentences(text);
        let per_sentence: Vec<String> = sents.iter().flat_map(|s| tokenize_filtered(s)).collect();
        assert_eq!(tokens, per_sentence);
        assert_eq!(tokens, tokenize_filtered(text));
        assert_eq!(ends.len(), sents.len());
        assert_eq!(ends.last().copied(), Some(tokens.len() as u32));
        assert_eq!(ends[1], ends[2], "the bare `.` sentence has no tokens");
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize_filtered("  .,; ").is_empty());
        assert!(sentences("").is_empty());
    }
}
