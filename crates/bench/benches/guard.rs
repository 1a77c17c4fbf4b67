//! Perf guard: compare the quick-mode artifacts written by the current
//! build against their pinned baselines and fail (exit 1) on regression:
//!
//! - `fig10.json` vs `BENCH_fig10_quick.json` — >25% aggregate turnaround
//!   regression;
//! - `durability.json` vs `BENCH_durability.json` — WAL-on turnaround
//!   exceeding 2× the in-memory baseline (the durability acceptance bar),
//!   or >25% regression against the pinned WAL numbers;
//! - `fig9c_xl.json` against itself — the 10 000-switch repair taking more
//!   than 3.5× the 169-switch one. A ratio within one run on one host, so
//!   it needs no pinned baseline: it fails when network state stops being
//!   proportional to what a replay touches.
//!
//! Run *after* `cargo bench --bench fig10 --bench fig9c_xl --bench durability` with
//! `MPR_BENCH_QUICK=1`; when an artifact or its pinned baseline is
//! missing (a bare local `cargo bench` in any order), that check skips
//! instead of failing.

use mpr_bench::{artifact_dir, header, quick_mode};
use std::path::PathBuf;

/// Allowed regression: current may be at most 1.25× the pinned baseline.
const MAX_REGRESSION: f64 = 1.25;

/// Allowed WAL overhead: journaling every store mutation may cost at most
/// this multiple of the in-memory turnaround.
const MAX_WAL_OVERHEAD: f64 = 2.0;

/// Allowed growth of the fig9c-XL turnaround from 169 to 10 000 switches.
/// The workload itself doubles (513 → 1 024 background flows); per-switch
/// state measured 4.1×, state proportional to installs 2.3×.
const MAX_FABRIC_GROWTH: f64 = 3.5;

fn total_ms(v: &serde_json::Value) -> Option<f64> {
    let mut sum = 0.0;
    for point in v.get("series")?.as_array()? {
        sum += point.get("total_ms")?.as_f64()?;
    }
    Some(sum)
}

fn load(path: &PathBuf) -> Option<serde_json::Value> {
    let s = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&s).ok()
}

/// Sum a per-point field over the artifact's `series`.
fn series_sum(v: &serde_json::Value, field: &str) -> Option<f64> {
    let mut sum = 0.0;
    for point in v.get("series")?.as_array()? {
        sum += point.get(field)?.as_f64()?;
    }
    Some(sum)
}

/// `true` when the fig10 check passed (or skipped), `false` on regression.
fn guard_fig10() -> bool {
    let current_path = artifact_dir().join("fig10.json");
    let pinned_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fig10_quick.json");
    let (Some(current), Some(pinned)) = (load(&current_path), load(&pinned_path)) else {
        println!(
            "skip fig10: missing {} or {} (run `cargo bench --bench fig10` first)",
            current_path.display(),
            pinned_path.display()
        );
        return true;
    };
    let (Some(cur_ms), Some(base_ms)) = (total_ms(&current), total_ms(&pinned)) else {
        println!("skip fig10: artifact shape unrecognized");
        return true;
    };
    let ratio = cur_ms / base_ms;
    println!("fig10 pinned total:  {base_ms:>10.2} ms");
    println!("fig10 current total: {cur_ms:>10.2} ms  ({ratio:.2}x)");
    if ratio > MAX_REGRESSION {
        eprintln!(
            "PERF REGRESSION: fig10 quick-mode total {cur_ms:.2} ms exceeds \
             {MAX_REGRESSION}x the pinned {base_ms:.2} ms"
        );
        return false;
    }
    println!("ok: fig10 within the {MAX_REGRESSION}x budget");
    true
}

/// `true` when the durability check passed (or skipped).
fn guard_durability() -> bool {
    let current_path = artifact_dir().join("durability.json");
    let pinned_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_durability.json");
    let (Some(current), Some(pinned)) = (load(&current_path), load(&pinned_path)) else {
        println!(
            "skip durability: missing {} or {} (run `cargo bench --bench durability` first)",
            current_path.display(),
            pinned_path.display()
        );
        return true;
    };
    let (Some(cur_mem), Some(cur_wal)) =
        (series_sum(&current, "mem_ms"), series_sum(&current, "wal_ms"))
    else {
        println!("skip durability: artifact shape unrecognized");
        return true;
    };
    let overhead = cur_wal / cur_mem;
    println!("durability current:  mem {cur_mem:>8.2} ms, wal {cur_wal:>8.2} ms  ({overhead:.2}x)");
    let mut ok = true;
    if overhead > MAX_WAL_OVERHEAD {
        eprintln!(
            "DURABILITY OVERHEAD: WAL-on turnaround is {overhead:.2}x the in-memory \
             baseline (bar: {MAX_WAL_OVERHEAD}x)"
        );
        ok = false;
    }
    if let Some(base_wal) = series_sum(&pinned, "wal_ms") {
        let ratio = cur_wal / base_wal;
        println!("durability pinned:   wal {base_wal:>8.2} ms  (current {ratio:.2}x)");
        if ratio > MAX_REGRESSION {
            eprintln!(
                "PERF REGRESSION: WAL-on turnaround {cur_wal:.2} ms exceeds \
                 {MAX_REGRESSION}x the pinned {base_wal:.2} ms"
            );
            ok = false;
        }
    }
    if ok {
        println!("ok: durability within the {MAX_WAL_OVERHEAD}x overhead / {MAX_REGRESSION}x regression budgets");
    }
    ok
}

/// `total_ms` of the fig9c-XL point that asked for `switches`.
fn fabric_point_ms(v: &serde_json::Value, switches: u64) -> Option<f64> {
    v.get("series")?
        .as_array()?
        .iter()
        .find(|p| p.get("requested_switches").and_then(|r| r.as_u64()) == Some(switches))?
        .get("total_ms")?
        .as_f64()
}

/// `true` when the fig9c-XL shape check passed (or skipped).
fn guard_fabric_shape() -> bool {
    let path = artifact_dir().join("fig9c_xl.json");
    let Some(current) = load(&path) else {
        println!(
            "skip fig9c_xl: missing {} (run `cargo bench --bench fig9c_xl` first)",
            path.display()
        );
        return true;
    };
    let (Some(small), Some(large)) =
        (fabric_point_ms(&current, 169), fabric_point_ms(&current, 10_000))
    else {
        println!("skip fig9c_xl: artifact shape unrecognized");
        return true;
    };
    let growth = large / small;
    println!("fig9c_xl current:    169 sw {small:>8.2} ms, 10k sw {large:>8.2} ms  ({growth:.2}x)");
    if growth > MAX_FABRIC_GROWTH {
        eprintln!(
            "PERF REGRESSION: the 10 000-switch repair takes {growth:.2}x the 169-switch one \
             (bar: {MAX_FABRIC_GROWTH}x) — turnaround is growing with the switch count"
        );
        return false;
    }
    println!("ok: fig9c_xl growth within {MAX_FABRIC_GROWTH}x");
    true
}

fn main() {
    header("Perf guard: quick-mode artifacts vs pinned baselines");
    if !quick_mode() {
        println!("skip: only meaningful under MPR_BENCH_QUICK=1 (pinned baselines are quick-mode)");
        return;
    }
    let ok = guard_fig10() & guard_durability() & guard_fabric_shape();
    if !ok {
        std::process::exit(1);
    }
}
