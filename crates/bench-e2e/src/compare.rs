//! `compare A.json B.json`: per (workload, end-to-end metric), both
//! medians and spreads and a verdict against the metric's bound in
//! `BENCHMARK.json`.

use crate::stats;
use crate::{Bench, MetricSpec};
use hive_json::Json;

/// How B reads against A for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A spread exceeds the bound, and B's runs do not all beat A's.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs against A's for a metric where `lower` is better.
pub fn verdict(a: &[f64], b: &[f64], lower: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if lower {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let spread = stats::iqr_share(a).max(stats::iqr_share(b));
    let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
    if spread > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The per-run values of `metric` on `workload` in a results file.
fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let w = doc
        .field("workloads")
        .ok()?
        .as_arr()
        .ok()?
        .iter()
        .find(|w| w.field("name").and_then(Json::as_str).ok() == Some(workload))?;
    let m = w
        .field("metrics")
        .ok()?
        .as_arr()
        .ok()?
        .iter()
        .find(|m| m.field("name").and_then(Json::as_str).ok() == Some(metric))?;
    let vals: Vec<f64> = m
        .field("values")
        .ok()?
        .as_arr()
        .ok()?
        .iter()
        .filter_map(|v| v.as_f64().ok())
        .collect();
    (!vals.is_empty()).then_some(vals)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn summary(xs: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(xs);
    format!(
        "{:.4} [{:.4}..{:.4}] n={}",
        stats::median(xs),
        q1,
        q3,
        xs.len()
    )
}

/// Runs the subcommand; returns the exit code (1 when any pair is
/// worse or unresolved, 2 on unreadable input).
pub fn main(args: &[String], bench: &Bench) -> i32 {
    let [a_path, b_path] = args else {
        eprintln!("usage: hive-bench-e2e compare A.json B.json");
        return 2;
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<26} {:>44} {:>44} {:>7}  verdict",
        "workload", "metric", "A median [q1..q3]", "B median [q1..q3]", "bound"
    );
    let mut code = 0;
    for workload in &bench.workloads {
        for MetricSpec {
            name, lower, bound, ..
        } in &bench.end_to_end
        {
            let bound = bound.unwrap_or(0.0);
            let (Some(va), Some(vb)) = (values(&a, workload, name), values(&b, workload, name))
            else {
                println!("{workload:<14} {name:<26} missing from one of the files");
                code = 1;
                continue;
            };
            let v = verdict(&va, &vb, *lower, bound);
            if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                code = 1;
            }
            println!(
                "{workload:<14} {name:<26} {:>44} {:>44} {:>7.3}  {}",
                summary(&va),
                summary(&vb),
                bound,
                v.label()
            );
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&a, &[100.5, 101.0, 100.0], true, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], true, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0], false, 0.1),
            Verdict::Better
        );
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0], true, 0.1), Verdict::Better);
        // A spread wider than the bound cannot call a regression.
        let wide = [60.0, 100.0, 140.0];
        assert_eq!(verdict(&a, &wide, true, 0.1), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(verdict(&a, &[10.0, 50.0, 90.0], true, 0.1), Verdict::Better);
    }
}
