//! # mpr-bench — the evaluation harness
//!
//! One bench target per table and figure of the paper's evaluation (§5 and
//! the appendices). Every target prints the same rows/series the paper
//! reports and writes a JSON artifact under `target/paper-results/` so the
//! README's figure→bench mapping can cite exact numbers.
//!
//! | target     | reproduces |
//! |------------|------------|
//! | `table1`   | Table 1 — queries Q1–Q5, candidates generated/surviving |
//! | `table2`   | Table 2 — Q1 candidate list with KS statistics |
//! | `table3`   | Table 3 — Trema and Pyretic results |
//! | `table6`   | Table 6 — Q2–Q5 candidate lists (Appendix E) |
//! | `fig9a`    | Fig. 9a — repair-generation turnaround breakdown |
//! | `fig9b`    | Fig. 9b — sequential vs MQO backtesting of first k |
//! | `fig9c`    | Fig. 9c — turnaround vs network size |
//! | `fig10`    | Fig. 10 — turnaround vs program size (Appendix A) |
//! | `overhead` | §5.4 — provenance latency/throughput overhead |
//! | `storage`  | §5.4 — log storage rates |
//! | `micro`    | criterion ablations (engine, solver tiers, MQO, tables) |
//! | `durability` | fig10 turnaround with the WAL on vs off (journaling overhead) |

use mpr_core::debugger::RepairReport;
use std::fs;
use std::path::PathBuf;

/// Whether `MPR_BENCH_QUICK` asks for a smoke-test pass. CI sets this to
/// keep the fig9a/fig10 targets to a few seconds: quick mode shrinks the
/// scenario sets and sweep sizes while still exercising the full
/// diagnose → repair → backtest pipeline.
pub fn quick_mode() -> bool {
    std::env::var("MPR_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Repetitions for the turnaround sweeps: each configuration runs this
/// many times and the fastest run is reported, which suppresses scheduler
/// noise on a shared machine (1 in quick mode).
pub fn reps() -> usize {
    if quick_mode() {
        1
    } else {
        3
    }
}

/// Where JSON artifacts land (`target/paper-results/`).
pub fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/paper-results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Write a JSON artifact.
pub fn write_artifact(name: &str, json: &serde_json::Value) {
    let path = artifact_dir().join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(json) {
        let _ = fs::write(&path, s);
        eprintln!("[artifact] {}", path.display());
    }
}

/// Cores, compiler and commit — what a pinned number is only comparable
/// within. Goes into every artifact that is re-pinned as a `BENCH_*.json`.
pub fn host_fingerprint() -> serde_json::Value {
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    serde_json::json!({
        "cores": std::thread::available_parallelism().map_or(0, usize::from),
        "rustc": tool("rustc", &["-V"]),
        "commit": tool("git", &["describe", "--always", "--dirty"]),
    })
}

/// Print a horizontal rule + header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Format a repair report row in Table 1 style (`generated/accepted`).
pub fn table1_row(report: &RepairReport) -> String {
    format!(
        "{:10} {:58} {:>2}/{}",
        report.scenario,
        report.query,
        report.generated(),
        report.accepted_count()
    )
}

/// Render a Table 2/6-style candidate listing.
pub fn candidate_listing(report: &RepairReport) -> String {
    let mut out = String::new();
    for (i, o) in report.outcomes.iter().enumerate() {
        let letter = (b'A' + (i as u8 % 26)) as char;
        let verdict = if o.accepted { "3" } else { "5" }; // the paper's ✓/✗ glyph slots
        out.push_str(&format!(
            "{letter} {:64} ({verdict}) {:.5}\n",
            o.candidate.description, o.ks.d
        ));
    }
    out
}

/// Serialize the interesting bits of a report.
pub fn report_json(report: &RepairReport) -> serde_json::Value {
    serde_json::json!({
        "scenario": report.scenario,
        "query": report.query,
        "generated": report.generated(),
        "accepted": report.accepted_count(),
        "candidates": report.outcomes.iter().map(|o| serde_json::json!({
            "description": o.candidate.description,
            "cost": o.candidate.cost,
            "effective": o.effective,
            "ks_d": o.ks.d,
            "ks_critical": o.ks.critical,
            "accepted": o.accepted,
        })).collect::<Vec<_>>(),
        "timings_ms": {
            "history_lookups": report.timings.history_lookups.as_secs_f64() * 1e3,
            "constraint_solving": report.timings.constraint_solving.as_secs_f64() * 1e3,
            "patch_generation": report.timings.patch_generation.as_secs_f64() * 1e3,
            "replay": report.timings.replay.as_secs_f64() * 1e3,
            "total": report.timings.total().as_secs_f64() * 1e3,
        },
    })
}
