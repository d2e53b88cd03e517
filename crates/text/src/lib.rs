//! # hive-text — content analysis substrate
//!
//! Text services behind Hive's "understanding the personal activity
//! context through ... analysis of user supplied content" (paper §2.1) and
//! the context-aware ranking/preview services of §2.3:
//!
//! * tokenization with stopword filtering and a Porter-style stemmer, in
//!   one character pass that also finds sentence ends, so the tokens a
//!   document's term counts use are the ones its snippet windows score,
//! * TF-IDF corpora, sparse vectors, and cosine similarity (content
//!   similarity is one of the nine relationship evidence types): a merge
//!   join for one pair, and a gather ([`Gather`]) that scores many rows
//!   against a few scattered vectors in one pass with the same bits,
//! * **keyphrase extraction** via TextRank over co-occurrence windows —
//!   the "key concept extraction for automated annotations" service,
//! * **context-aware snippet extraction** (paper ref \[14\]), over a
//!   document's text or over its stored term ids, through one window
//!   scorer,
//! * **AlphaSum-style size-constrained table summarization** over value
//!   lattices (paper ref \[13\]) for the scheduled update reports,
//! * w-shingling overlap/content-reuse detection (paper ref \[9\]).
//!
//! ```
//! use hive_text::tokenize::tokenize_filtered;
//! let toks = tokenize_filtered("Scalable graph processing for the Web");
//! assert!(toks.contains(&"graph".to_string())); // stemmed, stopwords gone
//! assert!(!toks.contains(&"the".to_string()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod docsum;
pub mod keyphrase;
pub mod overlap;
pub mod snippet;
pub mod stem;
pub mod stopwords;
pub mod summarize;
pub mod tfidf;
pub mod tokenize;

pub use docsum::{summarize_document, DocSumConfig, DocumentSummary};
pub use keyphrase::{extract_keyphrases, Keyphrase, KeyphraseConfig};
pub use overlap::{containment, shingle_set, shingle_similarity, MinHashSignature};
pub use snippet::{
    extract_snippet, extract_snippet_ids, ContextIds, Snippet, SnippetConfig, SnippetContext,
};
pub use summarize::{summarize_table, SummaryConfig, Table, TableSummary, ValueLattice};
pub use tfidf::{Corpus, Gather, SparseVector};
pub use tokenize::{tokenize, tokenize_filtered, tokenize_sentences};
