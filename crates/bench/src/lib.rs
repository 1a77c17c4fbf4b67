//! # mpr-bench — the paper's timing sweeps
//!
//! One bench target per figure or measurement of the paper's evaluation
//! (§5) that nothing else in the repo reproduces. Every target prints the
//! series the paper reports and writes a JSON artifact under
//! `target/paper-results/`; the ones pinned as a root `BENCH_*.json` carry
//! a `host` block. The paper's *results* (Tables 1/2/3/6) are a tier-1
//! golden (`crates/core/tests/golden/repairs.txt`), and the numbers a PR is
//! gated on are `benchmark/`'s (Fig. 10 is its `prog-900`, the
//! 10 000-switch sweep its `fabric-10k`).
//!
//! | target       | reproduces |
//! |--------------|------------|
//! | `fig9a`      | Fig. 9a — repair-generation turnaround breakdown |
//! | `fig9b`      | Fig. 9b — sequential vs MQO backtesting of first k |
//! | `fig9c`      | Fig. 9c — turnaround vs network size |
//! | `overhead`   | §5.4 — provenance latency/throughput overhead |
//! | `storage`    | §5.4 — log storage rates |
//! | `chaos`      | recovery rate of the loop by fault class (320 probes) |
//! | `durability` | turnaround with the WAL on vs off; exits 1 above 2× |

use std::fs;
use std::path::PathBuf;

/// Whether `MPR_BENCH_QUICK` asks for a smoke-test pass. CI sets this to
/// keep the targets it runs to a few seconds: quick mode shrinks the
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

/// Write a JSON artifact to `target/paper-results/<name>.json`.
pub fn write_artifact(name: &str, json: &serde_json::Value) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper-results");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.json"));
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
