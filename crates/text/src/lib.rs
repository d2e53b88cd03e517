//! # hive-text — content analysis substrate
//!
//! Text services behind Hive's "understanding the personal activity
//! context through ... analysis of user supplied content" (paper §2.1) and
//! the context-aware ranking/preview services of §2.3:
//!
//! * tokenization with stopword filtering and a Porter-style stemmer,
//! * TF-IDF corpora, sparse vectors, and cosine similarity (content
//!   similarity is one of the nine relationship evidence types),
//! * **keyphrase extraction** via TextRank over co-occurrence windows —
//!   the "key concept extraction for automated annotations" service,
//! * **context-aware snippet extraction** (paper ref \[14\]),
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
pub use snippet::{extract_snippet, Snippet, SnippetConfig, SnippetContext};
pub use summarize::{summarize_table, SummaryConfig, Table, TableSummary, ValueLattice};
pub use tfidf::{Corpus, SparseVector};
pub use tokenize::{tokenize, tokenize_filtered};
