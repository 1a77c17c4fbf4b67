//! Campus-scale debugging: the Q3 uncoordinated-policy-update scenario —
//! a firewall blocks traffic a load balancer just offloaded — plus the
//! multi-query-optimized backtest that vets every candidate in one pass.
//!
//! Run with: `cargo run --example campus_debug`

use sdn_meta_repair::core::debugger::Debugger;
use sdn_meta_repair::core::scenarios::Scenario;

fn main() {
    let scenario = Scenario::q3_policy_update();
    println!("== Scenario: {} ==\n{}", scenario.id, scenario.query);
    println!("\n== Controller program (firewall + load balancer) ==\n{}", scenario.program);

    // MQO on (the default): all candidates share one joint replay.
    let dbg = Debugger::for_scenario(&scenario);
    let report = dbg.diagnose_and_repair().expect("scenario runs");
    println!("== Candidates ==");
    print!("{}", report.render_table());
    println!(
        "\n{} candidates backtested jointly in {:.1} ms; {} accepted",
        report.generated(),
        report.timings.replay.as_secs_f64() * 1e3,
        report.accepted_count()
    );
    for &i in &report.accepted {
        println!("  -> {}", report.outcomes[i].candidate.description);
    }
    println!("\nThe stale whitelist `Sip > 3` is relaxed just enough to admit the");
    println!("offloaded client while the intentionally-blocked client stays blocked.");
}
