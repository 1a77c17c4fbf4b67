//! Fig. 10 (Appendix A): scalability of the repair-generation phase with
//! program size (100 → 900 lines). (Paper: linear, with a stable number of
//! repairs — the provenance forest only explores relevant rules.)

use mpr_bench::{header, host_fingerprint, quick_mode, reps, write_artifact};
use mpr_core::debugger::repair_scenario;
use mpr_core::scenarios::Scenario;

fn main() {
    header("Fig. 10: turnaround vs program size (milliseconds)");
    println!(
        "{:>7} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "Lines", "History", "Constraint", "PatchGen", "Replay", "Total", "Repairs"
    );
    let sizes: &[usize] =
        if quick_mode() { &[100, 300] } else { &[100, 300, 500, 700, 900] };
    let mut series = Vec::new();
    for &lines in sizes {
        let scenario = Scenario::q1_padded(lines);
        // Fastest of `reps()` runs (see fig9a).
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
            "{:>7} {:>10.2} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>10}",
            lines,
            ms(t.history_lookups),
            ms(t.constraint_solving),
            ms(t.patch_generation),
            ms(t.replay),
            ms(t.total()),
            report.generated()
        );
        series.push(serde_json::json!({
            "lines": lines,
            "total_ms": ms(t.total()),
            "generated": report.generated(),
            "accepted": report.accepted_count(),
        }));
    }
    write_artifact("fig10", &serde_json::json!({ "host": host_fingerprint(), "series": series }));
    println!("\npaper shape: linear in program size; the number of repairs stays stable");
}
