//! The curated controllers join their stored state by primary key, by
//! count: over the repairs of every curated scenario, of the Trema and
//! Pyretic ports and of Q1 padded to 900 rules, the batch engine's join
//! extensions that are not full-key probes scan no stored row
//! (`mpr_runtime::scanned_rows`). The ones the programs have all read
//! `PacketIn`, an event table, which the store never holds. A controller
//! whose join scans stored state fails here first.
//!
//! The counter exists in debug builds only, so `cargo test --release`
//! skips this test.

#![cfg(debug_assertions)]

use mpr_core::debugger::repair_scenario;
use mpr_core::scenarios::Scenario;

#[test]
fn curated_repairs_scan_no_stored_row() {
    let all = Scenario::all();
    let mut scenarios = all.clone();
    scenarios.push(Scenario::fig7_harmful_entry());
    scenarios.extend(all.iter().map(Scenario::trema_variant));
    scenarios.extend(all.iter().filter_map(Scenario::pyretic_variant));
    scenarios.push(Scenario::q1_padded(900));
    assert_eq!(scenarios.len(), 16, "six scenarios, nine ports, Q1@900loc");
    for s in &scenarios {
        let before = mpr_runtime::scanned_rows();
        let report = repair_scenario(s);
        assert!(report.generated() > 0, "{}: a repair ran", s.id);
        assert_eq!(mpr_runtime::scanned_rows() - before, 0, "{}: stored rows scanned", s.id);
    }
}
