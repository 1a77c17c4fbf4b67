//! Two work counts of the repairs of every curated scenario, of the Trema
//! and Pyretic ports and of Q1 padded to 900 rules.
//!
//! The curated controllers join their stored state by primary key: the
//! batch engine's join extensions that are not full-key probes scan no
//! stored row (`mpr_runtime::scanned_rows`). The ones the programs have all
//! read `PacketIn`, an event table, which the store never holds. A
//! controller whose join scans stored state fails here first.
//!
//! A repair checks its base program once (`mpr_ndlog::patch::outlines_built`)
//! and indexes its triggers once (`mpr_runtime::indexes_built`), on Q1 over
//! 10 130 switches too.
//!
//! The counters exist in debug builds only, so `cargo test --release`
//! skips these tests.

#![cfg(debug_assertions)]

use mpr_core::debugger::repair_scenario;
use mpr_core::scenarios::Scenario;

/// Six scenarios, nine ports, Q1@900loc.
fn curated() -> Vec<Scenario> {
    let all = Scenario::all();
    let mut scenarios = all.clone();
    scenarios.push(Scenario::fig7_harmful_entry());
    scenarios.extend(all.iter().map(Scenario::trema_variant));
    scenarios.extend(all.iter().filter_map(Scenario::pyretic_variant));
    scenarios.push(Scenario::q1_padded(900));
    assert_eq!(scenarios.len(), 16, "six scenarios, nine ports, Q1@900loc");
    scenarios
}

#[test]
fn curated_repairs_scan_no_stored_row() {
    for s in &curated() {
        let before = mpr_runtime::scanned_rows();
        let report = repair_scenario(s);
        assert!(report.generated() > 0, "{}: a repair ran", s.id);
        assert_eq!(mpr_runtime::scanned_rows() - before, 0, "{}: stored rows scanned", s.id);
    }
}

/// The observation run's engine outlines the base program, and the
/// explorer, the joint replay's deltas and the fallback replays read that
/// outline; a candidate the joint replay hands back is outlined once more,
/// as the patched program its fallback engine runs (Q5's `Lip := 10`).
#[test]
fn a_repair_outlines_its_base_program_once() {
    let mut scenarios = curated();
    scenarios.push(Scenario::q1_on_fabric(10_000));
    for s in &scenarios {
        let before = mpr_ndlog::patch::outlines_built();
        let report = repair_scenario(s);
        let outlines = mpr_ndlog::patch::outlines_built() - before;
        assert_eq!(outlines, 1 + report.handed_back as u64, "{}: {} handed back", s.id, report.handed_back);
    }
}

/// The observation run's engine indexes the base program's triggers, and
/// the joint replay reads that index for every rule its candidates share
/// with the base; a candidate the joint replay hands back is indexed once
/// more, as the patched program its fallback engine runs.
#[test]
fn a_repair_indexes_its_base_program_once() {
    let mut scenarios = curated();
    scenarios.push(Scenario::q1_on_fabric(10_000));
    for s in &scenarios {
        let before = mpr_runtime::indexes_built();
        let report = repair_scenario(s);
        let indexes = mpr_runtime::indexes_built() - before;
        assert_eq!(indexes, 1 + report.handed_back as u64, "{}: {} handed back", s.id, report.handed_back);
    }
}
