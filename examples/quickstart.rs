//! Quickstart: the paper's Fig. 1 scenario end to end.
//!
//! A load balancer offloads HTTP traffic to a backup web server H2, but a
//! copy-and-paste bug in the controller program (Fig. 2, rule r7) means H2
//! never receives anything. We ask the debugger why, inspect the meta
//! provenance, and apply the top-ranked repair.
//!
//! Run with: `cargo run --example quickstart`

use sdn_meta_repair::core::debugger::Debugger;
use sdn_meta_repair::core::scenarios::Scenario;

fn main() {
    let scenario = Scenario::q1_copy_paste();
    println!("== The buggy controller program ==\n{}", scenario.program);
    println!("== Symptom ==\n{}\n", scenario.query);

    let dbg = Debugger::for_scenario(&scenario);
    let report = dbg.diagnose_and_repair().expect("scenario runs");

    println!("== Candidate repairs (cheapest first) ==");
    print!("{}", report.render_table());

    println!("\n== Meta provenance of the top-ranked accepted repair ==");
    let best = report.accepted.first().copied().expect("a repair was accepted");
    let candidate = &report.outcomes[best].candidate;
    print!("{}", candidate.render_trace());

    println!("\n== Applying: {} ==", candidate.description);
    let fixed = candidate.repair.apply(&scenario.program).expect("repair applies");
    for rule in &fixed.rules {
        if Some(rule) != scenario.program.rule(&rule.id) {
            println!("  {rule}");
        }
    }
    println!(
        "\nturnaround: {:.1} ms (history {:.1} / solving {:.1} / patches {:.1} / replay {:.1})",
        report.timings.total().as_secs_f64() * 1e3,
        report.timings.history_lookups.as_secs_f64() * 1e3,
        report.timings.constraint_solving.as_secs_f64() * 1e3,
        report.timings.patch_generation.as_secs_f64() * 1e3,
        report.timings.replay.as_secs_f64() * 1e3,
    );
}
