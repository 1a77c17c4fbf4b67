//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run [--seed N] [--workload W] [--out FILE]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --check
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- selftest
//! ```
//!
//! The driver appends `--workload W --seed N --seconds S --trace 0|1` to
//! `run`; the last line of standard output is then one JSON object.

mod block;
mod compare;
mod layers;
mod metrics;
mod repair;
mod runner;
mod stats;
mod trace;
mod workloads;

use block::BlockSpec;
use runner::RunConfig;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Workload, GOLDEN_SEED};

const USAGE: &str = "usage: mpr_benchmark run [--seed N] [--workload W] [--seconds S] [--trace 0|1] [--out FILE] [--check]
       mpr_benchmark compare A.json B.json
       mpr_benchmark selftest [--seed N] [--seconds S]";

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read `{v}`")))
            .transpose()
    }

    fn run_config(&self) -> Result<RunConfig, String> {
        Ok(RunConfig {
            seed: self.parsed("--seed")?.unwrap_or(GOLDEN_SEED),
            workloads: match self.value("--workload") {
                Some(name) => vec![Workload::parse(name)?],
                None => Workload::ALL.to_vec(),
            },
            seconds: self.parsed("--seconds")?.unwrap_or(runner::DEFAULT_SECONDS),
            trace: self.parsed::<u8>("--trace")?.map(|t| t != 0),
        })
    }
}

fn run(args: &Args) -> Result<bool, String> {
    if args.flag("--check") {
        let failures = block::smoke_check(args.parsed("--seed")?.unwrap_or(GOLDEN_SEED));
        failures.iter().for_each(|f| println!("FAILED {f}"));
        return Ok(failures.is_empty());
    }
    let cfg = args.run_config()?;
    let results = runner::run(&cfg)?;
    runner::print_report(&results);
    if let Some(path) = args.value("--out") {
        let text = serde_json::to_string_pretty(&runner::result_file(&cfg, &results))
            .map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let (Some(traced), [(_, only)]) = (cfg.trace, &results[..]) {
        println!(
            "{}",
            serde_json::to_string(&runner::driver_line(only, traced)).map_err(|e| e.to_string())?
        );
    }
    Ok(results.iter().all(|(_, r)| r.counts().1 == 0))
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = &args.0[..] else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare::compare(&load(a)?, &load(b)?).1)
}

/// Two full runs of this binary, compared: the repeatability evidence.
/// Passes only if every row is `unchanged`.
fn selftest(args: &Args) -> Result<bool, String> {
    let cfg = RunConfig {
        workloads: Workload::ALL.to_vec(),
        trace: None,
        ..args.run_config()?
    };
    let mut files = Vec::new();
    for set in ["A", "B"] {
        eprintln!("[selftest: set {set}]");
        let results = runner::run(&cfg)?;
        files.push(runner::result_file(&cfg, &results));
    }
    let (rows, pass) = compare::compare(&files[0], &files[1]);
    let layer = |f: &serde_json::Value, w: &str, name: &str| {
        f.get("workloads")?
            .get(w)?
            .get("per_layer")?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    let mut counts_agree = true;
    for w in Workload::ALL {
        for name in [
            "runtime.derivations",
            "runtime.tuples",
            "sdn.events",
            "core.candidates",
            "storage.journal_bytes_per_packetin",
        ] {
            let (a, b) = (
                layer(&files[0], w.name(), name),
                layer(&files[1], w.name(), name),
            );
            if a != b {
                println!("count {name} on {} differs: {a:?} vs {b:?}", w.name());
                counts_agree = false;
            }
        }
    }
    let all_unchanged = rows
        .iter()
        .all(|r| r.verdict == compare::Verdict::Unchanged);
    println!(
        "selftest: {} rows, {}; exact counts {}",
        rows.len(),
        if all_unchanged {
            "all unchanged"
        } else {
            "NOT all unchanged"
        },
        if counts_agree { "identical" } else { "DIFFER" }
    );
    Ok(pass && all_unchanged && counts_agree)
}

/// A child block: run it in this process and print the result line.
fn block(args: &Args, started: Instant) -> Result<bool, String> {
    let cfg = args.run_config()?;
    let [workload] = cfg.workloads[..] else {
        return Err("block: --workload is required".to_string());
    };
    let spec = BlockSpec {
        workload,
        seed: cfg.seed,
        seconds: cfg.seconds,
        trace: cfg.trace == Some(true),
        check: false,
    };
    let result = block::run_block(&spec, started);
    println!(
        "{}",
        serde_json::to_string(&result.to_json()).map_err(|e| e.to_string())?
    );
    Ok(true)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let outcome = match command.as_str() {
        "run" => run(&args),
        "block" => block(&args, started),
        "compare" => compare_files(&args),
        "selftest" => selftest(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
