//! Experiment E3 — the AlphaSum claim (paper ref \[13\]): size-constrained
//! table summarization "preserves maximal information while minimizing
//! the footprint".
//!
//! Measures information retained vs summary budget k for greedy,
//! exact-DP (on small inputs), and random-merge baselines, plus greedy
//! runtime scaling with table size.
//!
//! Expected shape: exact >= greedy >> random at every k; retained
//! information rises monotonically with k; greedy stays near exact.
//!
//! Run: `cargo run -p hive-bench --release --bin exp_alphasum`

use hive_bench::{fmt_us, header, row, time_once};
use hive_core::clock::Timestamp;
use hive_core::reports::{activity_table, ReportScope};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_rng::Rng;
use hive_text::summarize::{summarize_table, Strategy, SummaryConfig, Table};

/// Subsamples a table's rows to at most `n` (keeps lattices).
fn sample_rows(table: &Table, n: usize, seed: u64) -> Table {
    let mut t = Table::new(table.columns.clone(), table.lattices.clone());
    let mut rng = Rng::seed_from_u64(seed);
    let mut rows = table.rows.clone();
    while rows.len() > n {
        let i = rng.gen_range(0..rows.len());
        rows.swap_remove(i);
    }
    for r in rows {
        t.push_row(r);
    }
    t
}

fn main() {
    println!("E3 — AlphaSum: information retained vs summary size");
    let world = WorldBuilder::new(SimConfig::medium()).build();
    let full = activity_table(
        &world.db,
        &ReportScope::Platform,
        Timestamp(0),
        Timestamp(u64::MAX),
    );
    println!("source: platform activity table with {} rows", full.rows.len());

    header("Retained information vs budget k (greedy vs random; 60-row sample)");
    let table = sample_rows(&full, 60, 1);
    row(&[
        "k".into(),
        "greedy retained".into(),
        "random retained".into(),
        "greedy loss".into(),
        "random loss".into(),
    ]);
    for k in [1usize, 2, 4, 8, 16, 32] {
        let greedy =
            summarize_table(&table, SummaryConfig { max_rows: k, strategy: Strategy::Greedy });
        // Average random over seeds.
        let mut r_loss = 0.0;
        let mut r_ret = 0.0;
        let seeds = 5;
        for s in 0..seeds {
            let r = summarize_table(
                &table,
                SummaryConfig { max_rows: k, strategy: Strategy::RandomMerge(s) },
            );
            r_loss += r.loss;
            r_ret += r.retained;
        }
        row(&[
            k.to_string(),
            format!("{:.1}%", greedy.retained * 100.0),
            format!("{:.1}%", r_ret / seeds as f64 * 100.0),
            format!("{:.2}", greedy.loss),
            format!("{:.2}", r_loss / seeds as f64),
        ]);
    }

    header("Greedy vs exact-DP on a tiny table (exact is exponential)");
    let tiny = sample_rows(&full, 8, 2);
    row(&["k".into(), "exact loss".into(), "greedy loss".into(), "gap".into()]);
    for k in [1usize, 2, 3, 4] {
        let exact = summarize_table(&tiny, SummaryConfig { max_rows: k, strategy: Strategy::Exact });
        let greedy =
            summarize_table(&tiny, SummaryConfig { max_rows: k, strategy: Strategy::Greedy });
        row(&[
            k.to_string(),
            format!("{:.3}", exact.loss),
            format!("{:.3}", greedy.loss),
            format!("{:+.3}", greedy.loss - exact.loss),
        ]);
    }

    header("Greedy runtime vs table size (k = 8)");
    row(&["rows".into(), "time".into()]);
    for n in [50usize, 100, 200, 400] {
        let t = sample_rows(&full, n, 3);
        let (_, us) = time_once(|| {
            summarize_table(&t, SummaryConfig { max_rows: 8, strategy: Strategy::Greedy })
        });
        row(&[t.rows.len().to_string(), fmt_us(us)]);
    }
    println!(
        "\nExpected shape: retained information grows with k; greedy tracks the\n\
         exact optimum closely and beats random merging at every budget."
    );
}
