//! Fig. 9c-XL: the scalability sweep continued past the paper's 169
//! switches onto fat-tree/Clos fabrics — 169 → 1k → 4k → 10k switches.
//! This is the headline measurement for the indexed flow tables + memoized
//! routing work: the per-packet simulator path must stay flat enough that
//! the 10k-switch point completes even in quick mode.

use mpr_bench::{header, quick_mode, reps, write_artifact};
use mpr_core::debugger::repair_scenario;
use mpr_core::scenarios::Scenario;

fn main() {
    header("Fig. 9c-XL: turnaround vs fabric size, 169 → 10k switches (milliseconds)");
    println!(
        "{:>9} {:>9} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "Switches", "Hosts", "History", "Constraint", "PatchGen", "Replay", "Total"
    );
    // Quick mode keeps the endpoints: the paper-scale fabric and the 10k
    // target the ISSUE asks to complete under CI.
    let sizes: &[usize] =
        if quick_mode() { &[169, 10_000] } else { &[169, 1_000, 4_096, 10_000] };
    let mut series = Vec::new();
    // Warm up allocators/caches so the first sweep point is not inflated.
    let _ = repair_scenario(&Scenario::q1_on_fabric(169));
    for &switches in sizes {
        let scenario = Scenario::q1_on_fabric(switches);
        let hosts = scenario.topology.hosts.len();
        let mut report = repair_scenario(&scenario);
        // Best of at least three even in quick mode: a repair is
        // milliseconds next to building the fabric, and the guard's
        // 10k/169 ratio must not hang on a single sample.
        for _ in 1..reps().max(3) {
            let again = repair_scenario(&scenario);
            if again.timings.total() < report.timings.total() {
                report = again;
            }
        }
        let t = &report.timings;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!(
            "{:>9} {:>9} {:>10.2} {:>12.2} {:>10.2} {:>10.2} {:>10.2}",
            scenario.topology.switches.len(),
            hosts,
            ms(t.history_lookups),
            ms(t.constraint_solving),
            ms(t.patch_generation),
            ms(t.replay),
            ms(t.total())
        );
        series.push(serde_json::json!({
            "requested_switches": switches,
            "switches": scenario.topology.switches.len(),
            "hosts": hosts,
            "total_ms": ms(t.total()),
            "replay_ms": ms(t.replay),
            "history_ms": ms(t.history_lookups),
            "generated": report.generated(),
            "accepted": report.accepted_count(),
        }));
    }
    write_artifact("fig9c_xl", &serde_json::json!({ "series": series }));
    println!("\ntarget shape: sublinear per-packet cost; the 10k point completes in quick mode");
}
