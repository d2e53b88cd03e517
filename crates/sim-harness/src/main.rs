//! Soak-runner binary: `cargo run -p hive-sim-harness -- --seed N --steps M`.
//!
//! Exits 0 when every oracle held, 1 on violations (after printing the
//! failing seed and the exact reproduction command), 2 on usage errors.

use hive_sim_harness::{
    replica_soak, serve_soak, FaultMenu, HarnessConfig, ReplicaSoakConfig, ServeConfig, SimHarness,
};

const USAGE: &str = "usage: hive-sim-harness [--seed N] [--steps M] [--crashes K] \
[--users U] [--diff-every D] [--serve-readers R] [--followers F] \
[--faults none|all|drop|dup|reorder|truncate] [--sweep S]\n\
  --serve-readers R additionally runs the N-reader x 1-writer serving soak with R readers\n\
  --followers F additionally runs the replication soak with F log-shipped followers\n\
  --faults X arms the replication transport fault plan (default all)\n\
  --sweep S runs S consecutive seeds starting at --seed and stops at the first failure";

fn parse_flag(name: &str, value: Option<String>) -> Result<u64, String> {
    let Some(v) = value else {
        return Err(format!("missing value for {name}"));
    };
    v.parse::<u64>().map_err(|_| format!("invalid value for {name}: {v}"))
}

fn parse_config() -> Result<(HarnessConfig, u64, usize, usize, FaultMenu), String> {
    let mut cfg = HarnessConfig::default();
    let mut sweep = 1u64;
    let mut serve_readers = 0usize;
    let mut followers = 0usize;
    let mut faults = FaultMenu::All;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => cfg.seed = parse_flag(&arg, args.next())?,
            "--steps" => cfg.steps = parse_flag(&arg, args.next())? as usize,
            "--crashes" => cfg.crash_points = parse_flag(&arg, args.next())? as usize,
            "--users" => cfg.users = parse_flag(&arg, args.next())? as usize,
            "--diff-every" => cfg.diff_every = parse_flag(&arg, args.next())? as usize,
            "--serve-readers" => serve_readers = parse_flag(&arg, args.next())? as usize,
            "--followers" => followers = parse_flag(&arg, args.next())? as usize,
            "--faults" => {
                let Some(v) = args.next() else {
                    return Err("missing value for --faults".to_string());
                };
                faults = FaultMenu::parse(&v)
                    .ok_or(format!("invalid value for --faults: {v} (want none|all|drop|dup|reorder|truncate)"))?;
            }
            "--sweep" => sweep = parse_flag(&arg, args.next())?.max(1),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok((cfg, sweep, serve_readers, followers, faults))
}

fn main() {
    let (base, sweep, serve_readers, followers, faults) = match parse_config() {
        Ok(parsed) => parsed,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    for seed in base.seed..base.seed.saturating_add(sweep) {
        let cfg = HarnessConfig { seed, ..base };
        let report = SimHarness::new(cfg).run();
        println!("{}", report.render());
        if hive_obs::level() != hive_obs::Level::Off {
            println!("{}", hive_obs::report_text());
        }
        if !report.ok() {
            println!(
                "reproduce with: cargo run -p hive-sim-harness -- --seed {} --steps {} --crashes {} --users {} --diff-every {}",
                seed, cfg.steps, cfg.crash_points, cfg.users, cfg.diff_every
            );
            std::process::exit(1);
        }
        if serve_readers > 0 {
            let serve_cfg = ServeConfig {
                seed,
                steps: cfg.steps,
                readers: serve_readers,
                users: cfg.users,
                ..ServeConfig::default()
            };
            let serve_report = serve_soak(serve_cfg);
            println!("{}", serve_report.render());
            if !serve_report.ok() {
                println!(
                    "reproduce with: cargo run -p hive-sim-harness -- --seed {} --steps {} --serve-readers {}",
                    seed, cfg.steps, serve_readers
                );
                std::process::exit(1);
            }
        }
        if followers > 0 {
            let replica_cfg = ReplicaSoakConfig {
                seed,
                steps: cfg.steps,
                followers,
                faults,
                users: cfg.users,
                crash_at: cfg.steps / 3,
                ..ReplicaSoakConfig::default()
            };
            let replica_report = replica_soak(replica_cfg);
            println!("{}", replica_report.render());
            if !replica_report.ok() {
                println!(
                    "reproduce with: cargo run -p hive-sim-harness -- --seed {} --steps {} --followers {} --faults {}",
                    seed,
                    cfg.steps,
                    followers,
                    faults.label()
                );
                std::process::exit(1);
            }
        }
    }
}
