//! Fig. 9a: time to generate the repairs for each scenario, broken into
//! history lookups / constraint solving / patch generation / replay.
//! (Paper: < 25 s per scenario on their testbed; ours is a simulator, so
//! absolute numbers are much smaller — the *composition* is the shape.)

use mpr_bench::{header, host_fingerprint, quick_mode, reps, write_artifact};
use mpr_core::debugger::repair_scenario;
use mpr_core::scenarios::Scenario;

fn main() {
    header("Fig. 9a: repair-generation turnaround per scenario (milliseconds)");
    println!(
        "{:8} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "Scenario", "History", "Constraint", "PatchGen", "Replay", "Total"
    );
    let mut scenarios = Scenario::all();
    if quick_mode() {
        scenarios.truncate(1); // Q1 alone smoke-tests the whole pipeline
    }
    let mut series = Vec::new();
    for scenario in scenarios {
        // Fastest of `reps()` runs — turnaround, not throughput, so the
        // minimum is the least noisy estimator.
        let mut report = repair_scenario(&scenario);
        for _ in 1..reps() {
            let again = repair_scenario(&scenario);
            if again.timings.total() < report.timings.total() {
                report = again;
            }
        }
        let t = &report.timings;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!(
            "{:8} {:>10.2} {:>12.2} {:>10.2} {:>10.2} {:>10.2}",
            report.scenario,
            ms(t.history_lookups),
            ms(t.constraint_solving),
            ms(t.patch_generation),
            ms(t.replay),
            ms(t.total())
        );
        series.push(serde_json::json!({
            "scenario": report.scenario,
            "history_ms": ms(t.history_lookups),
            "constraint_ms": ms(t.constraint_solving),
            "patchgen_ms": ms(t.patch_generation),
            "replay_ms": ms(t.replay),
            "total_ms": ms(t.total()),
            "trees": report.trees,
            "pools_solved": report.pools_solved,
        }));
    }
    write_artifact("fig9a", &serde_json::json!({ "host": host_fingerprint(), "series": series }));
}
