//! hive-lint benchmark: full-workspace scan wall-time and throughput.
//!
//! Run: `cargo bench -p hive-bench --bench bench_lint`

use std::path::PathBuf;

use hive_bench::{header, iters, mean, metric, report, report_header, time_n, write_json_fragment};

fn workspace_root() -> PathBuf {
    hive_lint::find_workspace_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/bench")
}

fn main() {
    println!("bench_lint — static analyzer wall-time and throughput");
    let root = workspace_root();
    let n = iters(10, 2);

    header("lint");
    report_header();

    // Full scan: every rule, exactly what `cargo run -p hive-lint`
    // executes.
    let mut files = 0usize;
    let mut loc = 0usize;
    let full = time_n(n, || {
        let (diags, stats) = hive_lint::scan_workspace_stats(&root).expect("scan");
        assert!(diags.is_empty(), "bench requires a lint-clean workspace: {diags:?}");
        files = stats.files;
        loc = stats.loc;
    });
    report("full_scan", &full);
    metric("files", files as f64);
    metric("loc", loc as f64);
    metric("loc_per_s", loc as f64 / (mean(&full) / 1e6));

    write_json_fragment("bench_lint");
}
