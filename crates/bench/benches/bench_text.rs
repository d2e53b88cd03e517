//! E7 microbenchmarks (text side): tokenization, TF-IDF vectorization,
//! keyphrase extraction, snippet extraction, and AlphaSum summarization.
//!
//! Run: `cargo bench -p hive-bench --bench bench_text`

use hive_bench::{header, iters, report, report_header, time_n, write_json_fragment};
use hive_rng::Rng;
use hive_text::keyphrase::{extract_keyphrases, KeyphraseConfig};
use hive_text::snippet::{extract_snippet, SnippetConfig, SnippetContext};
use hive_text::summarize::{summarize_table, Strategy, SummaryConfig, Table, ValueLattice};
use hive_text::tfidf::Corpus;
use hive_text::tokenize::tokenize_filtered;

const ABSTRACT: &str = "Compressed sensing of tensor streams enables scalable \
    monitoring of evolving social networks. Tensor streams encode multi-relational \
    social media data compactly. Structural change detection in tensor streams is \
    costly for decomposition methods; randomized tensor ensembles reduce the cost \
    of change detection while keeping accuracy high across realistic workloads. \
    The monitoring system must keep up with the stream rate at all times.";

fn long_document(paragraphs: usize) -> String {
    let mut s = String::new();
    for _ in 0..paragraphs {
        s.push_str(ABSTRACT);
        s.push(' ');
    }
    s
}

fn bench_tokenize() {
    header("text_tokenize");
    report_header();
    let doc = long_document(20);
    let samples = time_n(iters(100, 10), || {
        std::hint::black_box(tokenize_filtered(&doc).len());
    });
    report("tokenize_filtered_20p", &samples);
}

fn bench_tfidf() {
    header("text_tfidf");
    report_header();
    let mut corpus = Corpus::new();
    for i in 0..200 {
        corpus.index_document(&format!("{ABSTRACT} variant {i}"));
    }
    let samples = time_n(iters(200, 20), || {
        std::hint::black_box(corpus.vectorize_known(ABSTRACT));
    });
    report("vectorize_known", &samples);
    // Whole-corpus re-weighting, what the knowledge network build does
    // for each document arena.
    let tfs: Vec<_> = (0..200)
        .map(|i| corpus.vectorize_known(&format!("{ABSTRACT} variant {i}")))
        .collect();
    let samples = time_n(iters(20, 3), || {
        std::hint::black_box(tfs.iter().map(|tf| corpus.tfidf(tf)).collect::<Vec<_>>());
    });
    report("tfidf_200_docs", &samples);
}

fn bench_keyphrases() {
    header("text_keyphrases");
    report_header();
    for (paragraphs, n) in [(1usize, 100), (10, 20)] {
        let doc = long_document(paragraphs);
        let samples = time_n(iters(n, 5), || {
            std::hint::black_box(extract_keyphrases(&doc, KeyphraseConfig::default()));
        });
        report(&format!("{paragraphs}_paragraphs"), &samples);
    }
}

fn bench_snippets() {
    header("text_snippets");
    report_header();
    for (paragraphs, n) in [(5usize, 100), (40, 20)] {
        let doc = long_document(paragraphs);
        let samples = time_n(iters(n, 5), || {
            let context = SnippetContext::new(["tensor streams", "change detection"]);
            std::hint::black_box(extract_snippet(&doc, &context, SnippetConfig::default()));
        });
        report(&format!("{paragraphs}_paragraphs"), &samples);
    }
}

fn random_activity_table(rows: usize, seed: u64) -> Table {
    let mut who = ValueLattice::new("*");
    for org in 0..5 {
        who.add_child("*", format!("org{org}"));
        for u in 0..20 {
            who.add_child(format!("org{org}"), format!("user{org}_{u}"));
        }
    }
    let mut place = ValueLattice::new("*");
    for t in 0..4 {
        place.add_child("*", format!("track{t}"));
        for s in 0..5 {
            place.add_child(format!("track{t}"), format!("session{t}_{s}"));
        }
    }
    let mut what = ValueLattice::new("*");
    for a in ["checkin", "question", "view"] {
        what.add_child("*", a);
    }
    let mut table = Table::new(
        vec!["who".into(), "where".into(), "what".into()],
        vec![who, place, what],
    );
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..rows {
        table.push_row(vec![
            format!("user{}_{}", rng.gen_range(0..5usize), rng.gen_range(0..20usize)),
            format!("session{}_{}", rng.gen_range(0..4usize), rng.gen_range(0..5usize)),
            ["checkin", "question", "view"][rng.gen_range(0..3usize)].to_string(),
        ]);
    }
    table
}

fn bench_alphasum() {
    header("text_alphasum_greedy_k8");
    report_header();
    for (rows, n) in [(100usize, 10), (400, 5)] {
        let table = random_activity_table(rows, 1);
        let samples = time_n(iters(n, 2), || {
            std::hint::black_box(summarize_table(
                &table,
                SummaryConfig { max_rows: 8, strategy: Strategy::Greedy },
            ));
        });
        report(&format!("{rows}_rows"), &samples);
    }
}

fn main() {
    println!("bench_text — text substrate microbenchmarks");
    bench_tokenize();
    bench_tfidf();
    bench_keyphrases();
    bench_snippets();
    bench_alphasum();
    write_json_fragment("bench_text");
}
