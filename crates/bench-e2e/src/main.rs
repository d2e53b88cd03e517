//! # hive-bench-e2e — end-to-end benchmark of the replicated platform
//!
//! Drives seeded traffic through a `hive_replica::Leader`, two
//! `Follower`s fed encoded frames, and the Table-1 read services on all
//! three replicas' read handles, using public APIs only. Three
//! workloads stress different layers; a traced run attributes the wall
//! time to the layer calls. See `README.md` next to this crate.
//!
//! ```text
//! hive-bench-e2e [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out FILE] [--smoke]
//! hive-bench-e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! hive-bench-e2e compare A.json B.json
//! ```
//!
//! With `--workload` one workload runs in this process and the last
//! line of output is the JSON result. Without it every workload runs
//! `--runs` times, interleaved, each in a fresh child process, and the
//! medians and quartiles across runs are printed (and written to
//! `--out` for `compare`).

mod calib;
mod compare;
mod run;
mod stats;
mod workload;

use hive_json::Json;
use run::{Metric, Options, Outcome};
use std::process::{Command, ExitCode};
use workload::Kind;

/// The benchmark definition: workloads, metric names, units, bounds.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// True when lower is better.
    pub lower: bool,
    /// Allowed regression of the median, for end-to-end metrics.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bench {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, reported by untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics, reported by traced runs.
    pub per_layer: Vec<MetricSpec>,
}

impl Bench {
    fn parse(text: &str) -> Result<Bench, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let arr = doc
                .field(key)
                .and_then(Json::as_arr)
                .map_err(|e| e.to_string())?;
            arr.iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.field(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .map_err(|e| e.to_string())
                    };
                    Ok(MetricSpec {
                        name: s("name")?,
                        unit: s("unit")?,
                        lower: s("better")? == "lower",
                        bound: m.field("bound").and_then(Json::as_f64).ok(),
                    })
                })
                .collect()
        };
        let workloads = doc
            .field("workloads")
            .and_then(Json::as_arr)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|w| {
                w.field("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Bench {
            workloads,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    fn embedded() -> Bench {
        Bench::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid")
    }

    /// The metrics a run in this trace mode reports.
    fn section(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

const USAGE: &str = "usage:
  hive-bench-e2e [--seed N] [--seconds S] [--trace 0|1 | --traced] [--runs N] [--out FILE] [--smoke]
  hive-bench-e2e --workload browse|checkin_storm|ingest_large [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
  hive-bench-e2e compare A.json B.json";

/// Command-line settings.
#[derive(Clone, Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 15,
        traced: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let mut num = || {
            let v = value()?;
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--traced" => a.traced = true,
            "--trace" => a.traced = num()? != 0,
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--runs" => a.runs = num()?.max(1) as usize,
            "--out" => a.out = Some(value()?.clone()),
            "--workload" => {
                let v = value()?;
                a.workload = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn fmt_value(m: &Metric) -> String {
    match m.value {
        Some(v) => format!("{v:.4}"),
        None => "unsupported".to_string(),
    }
}

/// The machine-readable last line: exactly the metrics `BENCHMARK.json`
/// declares for this trace mode, each with its unit. A percentile its
/// sample cannot support is `null`.
fn result_json(out: &Outcome, specs: &[MetricSpec]) -> Json {
    let metrics = specs
        .iter()
        .map(|s| {
            let value = out.value(&s.name).map_or(Json::Null, Json::Float);
            (
                s.name.clone(),
                Json::Obj(vec![
                    ("value".into(), value),
                    ("unit".into(), Json::Str(s.unit.clone())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.failed == 0)),
        ("attempted".into(), Json::Int(out.attempted as i64)),
        ("failed".into(), Json::Int(out.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Runs one workload in this process and prints its report.
fn single(kind: Kind, args: &Args, bench: &Bench) -> ExitCode {
    let out = run::execute(Options {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
    });
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.metrics {
        println!(
            "  {:<38} {:>16} {:<8} n={}",
            m.name,
            fmt_value(m),
            m.unit,
            m.samples
        );
    }
    let specs = bench.section(args.traced);
    for s in specs {
        if out.value(&s.name).is_none() && !args.smoke {
            println!(
                "warning: {} has no supported value; lengthen the run",
                s.name
            );
        }
    }
    let samples = specs.iter().map(|s| {
        let n = out
            .metrics
            .iter()
            .find(|m| m.name == s.name)
            .map_or(0, |m| m.samples);
        (s.name.clone(), Json::Int(n as i64))
    });
    println!("samples {}", Json::Obj(samples.collect()).render());
    println!("{}", result_json(&out, specs).render());
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's result: metric values and sample counts.
struct ChildResult {
    kind: Kind,
    values: Vec<(String, Option<f64>)>,
    samples: Vec<(String, i64)>,
}

fn run_child(kind: Kind, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        kind.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{}: cannot start: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{}: exited with {}", kind.name(), output.status));
    }
    let result = Json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{}: last line is not a result: {e}", kind.name()))?;
    let samples = stdout
        .lines()
        .find_map(|l| l.strip_prefix("samples "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Obj(Vec::new()));
    let Ok(Json::Obj(metrics)) = result.field("metrics") else {
        return Err(format!("{}: result has no metrics", kind.name()));
    };
    let values = metrics
        .iter()
        .map(|(k, v)| (k.clone(), v.field("value").and_then(Json::as_f64).ok()))
        .collect();
    let samples = match samples {
        Json::Obj(pairs) => pairs
            .into_iter()
            .map(|(k, v)| (k, v.as_i64().unwrap_or(0)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildResult {
        kind,
        values,
        samples,
    })
}

/// Runs every workload `--runs` times, interleaved, each in a fresh
/// process so caches and peak RSS never leak between workloads.
fn all(args: &Args, bench: &Bench) -> ExitCode {
    let mut results: Vec<ChildResult> = Vec::new();
    let mut ok = true;
    for _ in 0..args.runs {
        for kind in workload::ALL {
            match run_child(kind, args) {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    let host_threads = hive_par::host_parallelism();
    println!(
        "\nsummary: runs={} seed={} seconds={} trace={} smoke={} host_threads={host_threads} par_threads={} obs={}",
        args.runs,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.smoke,
        hive_par::threads(),
        hive_obs::level().label()
    );
    println!(
        "{:<14} {:<40} {:>14} {:>14} {:>14} {:>9}  unit",
        "workload", "metric", "median", "q1", "q3", "iqr/med"
    );
    let mut workloads = Vec::new();
    for kind in workload::ALL {
        let runs: Vec<&ChildResult> = results.iter().filter(|r| r.kind == kind).collect();
        let mut metrics = Vec::new();
        for spec in bench.section(args.traced) {
            let vals: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.values
                        .iter()
                        .find(|(k, _)| *k == spec.name)
                        .and_then(|(_, v)| *v)
                })
                .collect();
            let counts: Vec<Json> = runs
                .iter()
                .map(|r| {
                    Json::Int(
                        r.samples
                            .iter()
                            .find(|(k, _)| *k == spec.name)
                            .map_or(0, |(_, n)| *n),
                    )
                })
                .collect();
            if vals.is_empty() {
                continue;
            }
            let (q1, q3) = stats::quartiles(&vals);
            let med = stats::median(&vals);
            println!(
                "{:<14} {:<40} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>9.4}  {}",
                kind.name(),
                spec.name,
                stats::iqr_share(&vals),
                spec.unit
            );
            metrics.push(Json::Obj(vec![
                ("name".into(), Json::Str(spec.name.clone())),
                ("unit".into(), Json::Str(spec.unit.clone())),
                ("median".into(), Json::Float(med)),
                ("q1".into(), Json::Float(q1)),
                ("q3".into(), Json::Float(q3)),
                (
                    "values".into(),
                    Json::Arr(vals.into_iter().map(Json::Float).collect()),
                ),
                ("samples".into(), Json::Arr(counts)),
            ]));
        }
        workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(kind.name().to_string())),
            ("metrics".into(), Json::Arr(metrics)),
        ]));
    }
    if let Some(path) = &args.out {
        let doc = Json::Obj(vec![
            ("host_threads".into(), Json::Int(host_threads as i64)),
            ("par_threads".into(), Json::Int(hive_par::threads() as i64)),
            ("seed".into(), Json::Int(args.seed as i64)),
            ("seconds".into(), Json::Int(args.seconds as i64)),
            (
                "obs".into(),
                Json::Str(hive_obs::level().label().to_string()),
            ),
            ("runs".into(), Json::Int(args.runs as i64)),
            ("trace".into(), Json::Bool(args.traced)),
            ("smoke".into(), Json::Bool(args.smoke)),
            ("workloads".into(), Json::Arr(workloads)),
        ]);
        let parent = std::path::Path::new(path).parent();
        let written = parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, doc.render() + "\n"));
        if let Err(e) = written {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let bench = Bench::embedded();
    if argv.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&argv[1..], &bench) as u8);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Recording spans would put the observability layer's cost into
    // every timing; the numbers are defined with it off.
    if hive_obs::level() != hive_obs::Level::Off {
        eprintln!(
            "HIVE_OBS={} but the benchmark measures with observability off",
            hive_obs::level().label()
        );
        return ExitCode::from(2);
    }
    if hive_par::threads() > hive_par::host_parallelism() {
        eprintln!("hive-par would run more workers than the host has threads");
        return ExitCode::from(2);
    }
    match args.workload {
        Some(kind) => single(kind, &args, &bench),
        None => all(&args, &bench),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One workload at smoke size, untraced and traced: every metric
    /// `BENCHMARK.json` names is printed, nothing fails, and the traced
    /// shares account for the whole wall time.
    fn smoke(kind: Kind) {
        let bench = Bench::embedded();
        assert!(
            bench.workloads.iter().any(|w| w == kind.name()),
            "BENCHMARK.json lists {}",
            kind.name()
        );
        for traced in [false, true] {
            let out = run::execute(Options {
                kind,
                seed: 42,
                seconds: 30,
                traced,
                smoke: true,
            });
            assert_eq!(
                out.failed,
                0,
                "{} trace={traced}: {:?}",
                kind.name(),
                out.notes
            );
            let Json::Obj(printed) = result_json(&out, bench.section(traced))
                .field("metrics")
                .cloned()
                .unwrap()
            else {
                panic!("metrics object");
            };
            for spec in bench.section(traced) {
                let m = out.metrics.iter().find(|m| m.name == spec.name);
                assert!(
                    m.is_some(),
                    "{} does not compute {}",
                    kind.name(),
                    spec.name
                );
                assert_eq!(m.unwrap().unit, spec.unit, "{}: unit", spec.name);
                assert!(
                    printed.iter().any(|(k, _)| *k == spec.name),
                    "{} not printed",
                    spec.name
                );
            }
            if !traced {
                assert_eq!(out.value("error_rate"), Some(0.0));
                continue;
            }
            let total: f64 = out
                .metrics
                .iter()
                .filter(|m| m.name.ends_with("share") && m.name != "core.ppr.solve_read_share")
                .filter_map(|m| m.value)
                .sum();
            assert!(
                (total - 1.0).abs() <= 0.02,
                "{}: shares sum to {total}",
                kind.name()
            );
            let unattributed = out.value("trace.unattributed_share").unwrap();
            assert!(
                unattributed >= -0.02,
                "{}: layers overlap ({unattributed})",
                kind.name()
            );
        }
    }

    #[test]
    fn smoke_browse() {
        smoke(Kind::Browse);
    }

    #[test]
    fn smoke_checkin_storm() {
        smoke(Kind::CheckinStorm);
    }

    #[test]
    fn smoke_ingest_large() {
        smoke(Kind::IngestLarge);
    }

    #[test]
    fn benchmark_json_lists_the_workloads_in_order() {
        let names: Vec<&str> = workload::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(Bench::embedded().workloads, names);
    }

    #[test]
    fn args_parse_the_run_flags() {
        let argv: Vec<String> = "--workload browse --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload, Some(Kind::Browse));
        assert_eq!((a.seed, a.seconds, a.traced, a.smoke), (7, 12, true, false));
        assert!(parse_args(&["--seed".to_string()]).is_err());
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
