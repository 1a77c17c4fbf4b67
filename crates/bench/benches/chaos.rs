//! Chaos sweep: randomized fault schedules (every [`FaultClass`], fixed
//! seeds) over the §5.3 scenarios, reporting the recovery rate by fault
//! class — the EXPERIMENTS.md chaos table comes from this run. What the
//! *disabled* injection layer costs is one `is_empty()` branch per simulator
//! event, inside what `benchmark/` reports as `sdn.ns_per_event`.

use mpr_bench::{header, quick_mode, write_artifact};
use mpr_core::chaos::{self, FaultClass};
use mpr_core::scenarios::Scenario;

fn main() {
    header("Chaos sweep: repair-loop recovery rate by fault class");
    let seeds: Vec<u64> =
        if quick_mode() { vec![1, 2, 3, 5, 8, 13, 21, 34] } else { (0..16).collect() };
    let scenarios = if quick_mode() {
        vec![Scenario::q1_copy_paste(), Scenario::fig7_harmful_entry()]
    } else {
        Scenario::all()
    };
    let report = chaos::sweep(&scenarios, &FaultClass::ALL, &seeds);
    print!("{}", report.render_table());
    let survivors = report.survivors();
    println!(
        "\n{} probes, {} survivors (schedules the loop could not recover from)",
        report.outcomes.len(),
        survivors.len()
    );
    for s in &survivors {
        println!("  SURVIVOR {} / {} / seed {}: {:?}", s.scenario, s.class.name(), s.seed, s.error);
    }
    let mut classes = Vec::new();
    for class in FaultClass::ALL {
        let (rec, total) = report.recovery_rate(class);
        classes.push(serde_json::json!({
            "class": class.name(),
            "recovered": rec,
            "total": total,
        }));
    }

    write_artifact(
        "chaos",
        &serde_json::json!({
            "seeds": seeds,
            "scenarios": scenarios.iter().map(|s| s.id.clone()).collect::<Vec<_>>(),
            "recovery_by_class": classes,
            "survivors": survivors.len(),
        }),
    );
    println!("\npaper shape: the loop degrades, it does not die — recovery stays at 100%");
}
