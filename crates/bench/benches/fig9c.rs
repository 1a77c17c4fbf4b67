//! Fig. 9c: scalability of the repair-generation phase with network size
//! (19 → 169 switches). (Paper: linear growth, ≤ 50 s; ours: linear in the
//! same sweep, milliseconds on the simulator substrate.)

use mpr_bench::{header, host_fingerprint, write_artifact};
use mpr_core::debugger::repair_scenario;
use mpr_core::scenarios::Scenario;

fn main() {
    header("Fig. 9c: turnaround vs number of switches (milliseconds)");
    println!(
        "{:>9} {:>9} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "Switches", "Hosts", "History", "Constraint", "PatchGen", "Replay", "Total"
    );
    let mut series = Vec::new();
    // Warm up allocators/caches so the first sweep point is not inflated.
    let _ = repair_scenario(&Scenario::q1_on_campus(19));
    for switches in [19usize, 49, 79, 109, 139, 169] {
        let scenario = Scenario::q1_on_campus(switches);
        let hosts = scenario.topology.hosts.len();
        let report = repair_scenario(&scenario);
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
            "switches": scenario.topology.switches.len(),
            "hosts": hosts,
            "total_ms": ms(t.total()),
            "replay_ms": ms(t.replay),
            "history_ms": ms(t.history_lookups),
            "generated": report.generated(),
            "accepted": report.accepted_count(),
        }));
    }
    write_artifact("fig9c", &serde_json::json!({ "host": host_fingerprint(), "series": series }));
    println!("\npaper shape: linear in network size, dominated by lookups + replay");
}
