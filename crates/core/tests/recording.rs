//! The debugger reads history, it does not re-make it: a repair made from
//! a recording alone — the log and the baseline counters, the network and
//! the controller that wrote them gone — is the repair the whole loop
//! makes.

use mpr_core::debugger::{Debugger, RepairReport};
use mpr_core::scenarios::Scenario;
use mpr_sdn::SimStats;
use std::collections::BTreeMap;

/// What a report says, the timings left out.
type Answer = (Vec<(String, u32, bool, bool, u64)>, Vec<usize>, usize, bool, SimStats, BTreeMap<i64, u64>);

fn answer(r: &RepairReport) -> Answer {
    let outcomes = r
        .outcomes
        .iter()
        .map(|o| (o.candidate.description.clone(), o.candidate.cost, o.effective, o.accepted, o.ks.d.to_bits()))
        .collect();
    let baseline = r.baseline.clone();
    (outcomes, r.accepted.clone(), r.handed_back, r.backtested_jointly, baseline.stats, baseline.delivered)
}

#[test]
fn a_repair_from_the_recording_alone_is_the_whole_loops() {
    let mut scenarios = Scenario::all();
    scenarios.push(Scenario::fig7_harmful_entry());
    for s in &scenarios {
        let whole = Debugger::for_scenario(s).diagnose_and_repair().unwrap();
        // `record` returns the log and the counters; the simulator and the
        // controller it ran are dropped inside it.
        let recording = Debugger::for_scenario(s).record().unwrap();
        let from_recording = Debugger::for_scenario(s).repair(&recording).unwrap();
        assert!(whole.generated() > 0, "{}", s.id);
        assert_eq!(answer(&from_recording), answer(&whole), "{}", s.id);
        // The recording is read, not consumed: a second repair from it
        // answers the same.
        assert_eq!(answer(&Debugger::for_scenario(s).repair(&recording).unwrap()), answer(&whole), "{}", s.id);
    }
}
