//! Durability overhead: the padded-Q1 turnaround sweep run twice — engines
//! in memory only (`Durability::Mem`, the zero-cost default) vs every
//! engine writing its inputs to a write-ahead log (`Durability::Wal`, one
//! record per `insert` / `delete`, buffered, never synced) — reporting the
//! WAL's cost on the full diagnose → repair → backtest loop. The acceptance bar is a ratio of
//! this run's two sums on this host, so it needs no pinned file: the
//! target exits 1 when WAL-on exceeds [`MAX_WAL_OVERHEAD`] × in-memory.

use mpr_bench::{header, quick_mode, write_artifact};
use mpr_core::debugger::Debugger;
use mpr_core::scenarios::Scenario;
use mpr_runtime::{Durability, WalOptions};

/// Allowed WAL overhead: logging every input may cost at most this
/// multiple of the in-memory turnaround.
const MAX_WAL_OVERHEAD: f64 = 2.0;

/// Fastest-of-three repair-loop turnaround (ms) under `durability` — in
/// quick mode too: the ratio below is an exit code, and one run of a few
/// milliseconds is one scheduler hiccup away from failing it.
fn turnaround_ms(scenario: &Scenario, durability: &Durability) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut dbg = Debugger::for_scenario(scenario);
        dbg.engine_options.durability = durability.clone();
        let report = dbg.diagnose_and_repair().expect("repair loop failed");
        assert!(report.generated() > 0, "loop degenerated under {durability}");
        best = best.min(report.timings.total().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    header("Durability: padded-Q1 turnaround with the WAL on vs off (milliseconds)");
    println!("{:>7} {:>10} {:>10} {:>7}", "Lines", "Mem", "WAL", "ratio");
    let sizes: &[usize] = if quick_mode() { &[100, 300] } else { &[100, 300, 500] };
    let scratch = std::env::temp_dir().join(format!("mpr-bench-durability-{}", std::process::id()));
    let mut series = Vec::new();
    let (mut mem_sum, mut wal_sum) = (0.0, 0.0);
    for &lines in sizes {
        let scenario = Scenario::q1_padded(lines);
        let mem_ms = turnaround_ms(&scenario, &Durability::Mem);
        let _ = std::fs::remove_dir_all(&scratch);
        let wal = Durability::Wal(WalOptions::new(&scratch));
        let wal_ms = turnaround_ms(&scenario, &wal);
        let _ = std::fs::remove_dir_all(&scratch);
        let ratio = wal_ms / mem_ms;
        mem_sum += mem_ms;
        wal_sum += wal_ms;
        println!("{lines:>7} {mem_ms:>10.2} {wal_ms:>10.2} {ratio:>6.2}x");
        series.push(serde_json::json!({
            "lines": lines,
            "mem_ms": mem_ms,
            "wal_ms": wal_ms,
            "ratio": ratio,
        }));
    }
    write_artifact("durability", &serde_json::json!({ "series": series }));
    let overhead = wal_sum / mem_sum;
    if overhead > MAX_WAL_OVERHEAD {
        eprintln!(
            "DURABILITY OVERHEAD: WAL-on turnaround is {overhead:.2}x the in-memory \
             baseline (bar: {MAX_WAL_OVERHEAD}x)"
        );
        std::process::exit(1);
    }
    println!("\nok: WAL-on is {overhead:.2}x the in-memory baseline (bar: {MAX_WAL_OVERHEAD}x)");
}
