//! Bench regression gate: fails when any `*_speedup` metric in the
//! merged `BENCH_hive.json` fell below 1.0 — a cache, an index, or a
//! parallel path that now costs more than the baseline it claims to
//! beat.
//!
//! Run: `bench_gate <BENCH_hive.json> [allowlist-file]` (normally
//! invoked by `tools/bench.sh` right after `bench_merge`).
//!
//! Two escape hatches keep the gate honest instead of noisy:
//!
//! * the allowlist file names metrics (one `section/name` — or bare
//!   `name` — per line, `#` comments) that are *expected* to sit below
//!   1.0, e.g. known-serial configurations kept for comparison;
//!   a line of the form `name >= threshold` goes the other way and
//!   *raises* the enforcement floor — the metric fails below the
//!   stated threshold instead of below 1.0 (an index claimed to beat a
//!   scan by 5x must keep beating it by 5x, not merely break even);
//! * multi-reader serving ratios (`*_vs_r1_*`, `*concurrent_read*`)
//!   and multi-follower replication apply ratios (`*_vs_f1_*`) are
//!   auto-exempt when `host_threads` is below 2 — forced workers on a
//!   single core time-slice one CPU, so "concurrent" reads or parallel
//!   follower replays can only tie or lose to the serial baseline.

#![forbid(unsafe_code)]

use hive_json::Json;
use std::process::ExitCode;

/// A speedup metric flattened out of the merged document.
struct SpeedupMetric {
    bench: String,
    name: String, // "section/metric"
    value: f64,
}

/// One allowlist line: a metric expected below 1.0 (`floor: None`) or
/// a raised enforcement floor from a `name >= threshold` line.
struct AllowEntry {
    name: String,
    floor: Option<f64>,
}

fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let entry = match line.split_once(">=") {
            Some((name, floor)) => {
                let floor: f64 = floor.trim().parse().map_err(|_| {
                    format!("allowlist line {}: bad threshold in `{line}`", lineno + 1)
                })?;
                if floor <= 1.0 {
                    return Err(format!(
                        "allowlist line {}: `{line}` does not raise the 1.0 floor",
                        lineno + 1
                    ));
                }
                AllowEntry { name: name.trim().to_string(), floor: Some(floor) }
            }
            None => AllowEntry { name: line.to_string(), floor: None },
        };
        entries.push(entry);
    }
    Ok(entries)
}

fn load_allowlist(path: &str) -> Result<Vec<AllowEntry>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read allowlist {path}: {e}"))?;
    parse_allowlist(&text)
}

/// Resolves a metric against the allowlist: whether a plain entry
/// expects it below 1.0, and the enforcement floor (1.0 unless raised;
/// the highest matching floor wins).
fn disposition(metric: &SpeedupMetric, allowlist: &[AllowEntry]) -> (bool, f64) {
    let bare = metric.name.rsplit('/').next().unwrap_or(&metric.name);
    let mut below = false;
    let mut floor = 1.0f64;
    for e in allowlist.iter().filter(|e| e.name == metric.name || e.name == bare) {
        match e.floor {
            Some(f) => floor = floor.max(f),
            None => below = true,
        }
    }
    (below, floor)
}

/// The gate's decision for one speedup metric.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// At or above 1.0.
    Pass,
    /// Below 1.0 but allowlisted as expected.
    Allowed,
    /// Below 1.0 but the host has fewer than the two threads the
    /// metric needs to carry signal.
    Exempt,
    /// A genuine speedup regression.
    Fail,
}

/// Pure disposition logic, separated from IO so the exemption rule is
/// unit-testable: the concurrency ratios (`*_vs_r1_*` readers,
/// `*_vs_f1_*` follower replays, `*concurrent_read*`) need 2 host
/// threads. `floor` is the enforcement threshold — 1.0 normally,
/// higher for `name >= threshold` entries.
fn judge(name: &str, value: f64, allowlisted: bool, host_threads: f64, floor: f64) -> Verdict {
    if value >= floor {
        return Verdict::Pass;
    }
    if allowlisted {
        return Verdict::Allowed;
    }
    let needs_two = name.contains("_vs_r1_")
        || name.contains("_vs_f1_")
        || name.contains("concurrent_read");
    if needs_two && host_threads < 2.0 {
        return Verdict::Exempt;
    }
    Verdict::Fail
}

/// Collects every `*_speedup` metric and the largest recorded
/// `host_threads` out of the merged document.
fn collect(doc: &Json) -> (Vec<SpeedupMetric>, f64) {
    let mut speedups = Vec::new();
    let mut host_threads: f64 = 0.0;
    let Json::Obj(top) = doc else {
        return (speedups, host_threads);
    };
    let benches = top.iter().find_map(|(k, v)| (k == "benches").then_some(v));
    let Some(Json::Obj(benches)) = benches else {
        return (speedups, host_threads);
    };
    for (bench, metrics) in benches {
        let Json::Obj(metrics) = metrics else { continue };
        for (name, value) in metrics {
            let value = match value {
                Json::Float(f) => *f,
                Json::Int(i) => *i as f64,
                _ => continue,
            };
            if name.ends_with("/host_threads") || name == "host_threads" {
                host_threads = host_threads.max(value);
            }
            if name.contains("_speedup") {
                speedups.push(SpeedupMetric {
                    bench: bench.clone(),
                    name: name.clone(),
                    value,
                });
            }
        }
    }
    (speedups, host_threads)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(bench_json) = args.next() else {
        eprintln!("usage: bench_gate <BENCH_hive.json> [allowlist-file]");
        return ExitCode::FAILURE;
    };
    let allowlist = match args.next().map(|p| load_allowlist(&p)) {
        Some(Ok(a)) => a,
        Some(Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
        None => Vec::new(),
    };
    let text = match std::fs::read_to_string(&bench_json) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {bench_json}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_gate: {bench_json} is not valid JSON: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let (speedups, host_threads) = collect(&doc);
    if speedups.is_empty() {
        eprintln!("bench_gate: no *_speedup metrics found in {bench_json}");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for m in &speedups {
        let label = format!("{}:{}", m.bench, m.name);
        let (below, floor) = disposition(m, &allowlist);
        match judge(&m.name, m.value, below, host_threads, floor) {
            Verdict::Pass => println!("bench_gate: ok      {label} = {:.3}", m.value),
            Verdict::Allowed => {
                println!("bench_gate: allowed {label} = {:.3} (allowlist)", m.value);
            }
            Verdict::Exempt => println!(
                "bench_gate: exempt  {label} = {:.3} (host_threads = {host_threads}, needs >= 2)",
                m.value
            ),
            Verdict::Fail => {
                println!("bench_gate: FAIL    {label} = {:.3} < {floor}", m.value);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        println!("bench_gate: {failures} speedup regression(s)");
        return ExitCode::FAILURE;
    }
    println!("bench_gate: all {} speedup metrics pass", speedups.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{disposition, judge, parse_allowlist, SpeedupMetric, Verdict};

    fn metric(name: &str, value: f64) -> SpeedupMetric {
        SpeedupMetric { bench: "b".into(), name: name.into(), value }
    }

    #[test]
    fn at_or_above_one_always_passes() {
        assert_eq!(judge("apply_par_f2_vs_f1_speedup", 1.0, false, 1.0, 1.0), Verdict::Pass);
        assert_eq!(judge("anything_speedup", 3.7, false, 16.0, 1.0), Verdict::Pass);
    }

    #[test]
    fn allowlist_beats_every_exemption() {
        assert_eq!(judge("known_serial_speedup", 0.4, true, 16.0, 1.0), Verdict::Allowed);
        // Even a metric that would also qualify for a thread exemption
        // reports as allowlisted — the explicit escape hatch wins.
        assert_eq!(judge("reads_r2_vs_r1_speedup", 0.4, true, 1.0, 1.0), Verdict::Allowed);
    }

    #[test]
    fn concurrency_ratios_exempt_only_below_two_threads() {
        for name in
            ["reads_r2_vs_r1_speedup", "apply_par_f2_vs_f1_speedup", "concurrent_read_speedup"]
        {
            assert_eq!(judge(name, 0.8, false, 1.0, 1.0), Verdict::Exempt, "{name} on 1 thread");
            assert_eq!(judge(name, 0.8, false, 2.0, 1.0), Verdict::Fail, "{name} on 2 threads");
        }
    }

    #[test]
    fn plain_regressions_fail_regardless_of_threads() {
        assert_eq!(judge("cache_vs_fresh_speedup", 0.99, false, 1.0, 1.0), Verdict::Fail);
        assert_eq!(judge("cache_vs_fresh_speedup", 0.99, false, 64.0, 1.0), Verdict::Fail);
    }

    #[test]
    fn raised_floor_fails_a_metric_that_merely_breaks_even() {
        assert_eq!(judge("idx_vs_scan_speedup", 4.2, false, 1.0, 5.0), Verdict::Fail);
        assert_eq!(judge("idx_vs_scan_speedup", 5.0, false, 1.0, 5.0), Verdict::Pass);
        assert_eq!(judge("idx_vs_scan_speedup", 17.3, false, 1.0, 5.0), Verdict::Pass);
    }

    #[test]
    fn allowlist_parses_plain_floor_and_comment_lines() {
        let entries = parse_allowlist(
            "# comment\nserve_reads/reads_r2_vs_r1_speedup\nidx_vs_scan_speedup >= 5.0 # floor\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "serve_reads/reads_r2_vs_r1_speedup");
        assert_eq!(entries[0].floor, None);
        assert_eq!(entries[1].name, "idx_vs_scan_speedup");
        assert_eq!(entries[1].floor, Some(5.0));
        assert!(parse_allowlist("x >= not_a_number").is_err());
        assert!(parse_allowlist("x >= 0.5").is_err(), "a floor below 1.0 is a below-entry in disguise");
    }

    #[test]
    fn disposition_matches_full_and_bare_names_and_keeps_highest_floor() {
        let entries = parse_allowlist(
            "serial_speedup\nidx_vs_scan_speedup >= 5.0\nindex/idx_vs_scan_speedup >= 7.0\n",
        )
        .unwrap();
        assert_eq!(disposition(&metric("bench/serial_speedup", 0.4), &entries), (true, 1.0));
        assert_eq!(disposition(&metric("index/idx_vs_scan_speedup", 9.0), &entries), (false, 7.0));
        assert_eq!(disposition(&metric("other/plain_speedup", 0.4), &entries), (false, 1.0));
    }
}
