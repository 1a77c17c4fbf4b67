//! End-to-end test of the *positive symptom* path (§4.2, Fig. 7): an
//! existing harmful tuple is removed by deleting or changing base tuples,
//! or by rule-literal changes that break the offending derivation.

mod common;

use common::reference;
use sdn_meta_repair::core::debugger::{repair_scenario, Debugger};
use sdn_meta_repair::core::repair::Repair;
use sdn_meta_repair::core::scenarios::Scenario;

#[test]
fn harmful_entry_is_repaired() {
    let scenario = Scenario::fig7_harmful_entry();
    let report = repair_scenario(&scenario);
    assert!(report.generated() >= 2, "{}", report.render_table());
    assert!(report.accepted_count() >= 1, "{}", report.render_table());
    // The Fig. 7 repairs appear: deleting the base tuple that feeds the
    // derivation, and the "green" constant change on r1's selection.
    assert!(
        report
            .outcomes
            .iter()
            .any(|o| matches!(o.candidate.repair, Repair::DeleteTuple(_))),
        "{}",
        report.render_table()
    );
    assert!(
        report
            .outcomes
            .iter()
            .any(|o| o.candidate.description.contains("Swi == 1 in r1")),
        "{}",
        report.render_table()
    );
    // The accepted repair actually redirects traffic to the primary.
    let best = report.accepted[0];
    assert!(report.outcomes[best].effective);
}

#[test]
fn positive_traces_walk_the_derivation() {
    let scenario = Scenario::fig7_harmful_entry();
    let report = repair_scenario(&scenario);
    let delete = report
        .outcomes
        .iter()
        .find(|o| matches!(o.candidate.repair, Repair::DeleteTuple(_)))
        .expect("deletion candidate exists");
    let trace = delete.candidate.render_trace();
    assert!(trace.contains("EXIST[Tuple"), "{trace}");
    assert!(trace.contains("DERIVE[r1"), "{trace}");
}

/// Fig. 7's candidates include a tuple repair that takes a seed away —
/// once enough to send every candidate through one fallback replay each.
/// They ride the joint replay, the seed tagged, and get the verdicts the
/// debugger gives the reference's outcomes.
#[test]
fn a_seed_perturbing_candidate_rides_the_joint_replay() {
    let scenario = Scenario::fig7_harmful_entry();
    let dbg = Debugger::for_scenario(&scenario);
    let joint = dbg.diagnose_and_repair().unwrap();
    assert!(joint.backtested_jointly);
    assert_eq!(joint.handed_back, 0);
    assert!(joint.outcomes.iter().any(|o| matches!(o.candidate.repair, Repair::DeleteTuple(_))));
    reference::assert_verdicts(&dbg, &scenario.program, &joint);
}

/// Fig. 7 with the cause overwritten before the run ends: once the
/// misrouted HTTP reaches S3, `u1` derives `WebLoadBalancer(80,1)` over the
/// seeded `WebLoadBalancer(80,2)`. The run's log still holds the culprit's
/// one derivation, from the seed as it then was; the state the run ends in
/// derives no culprit any more, so re-deriving from it found nothing to
/// repair.
#[test]
fn an_overwritten_cause_is_still_found_in_the_recording() {
    let mut scenario = Scenario::fig7_harmful_entry();
    let overwrite = sdn_meta_repair::ndlog::parse_program(
        "u1",
        "u1 WebLoadBalancer(@C,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr == 80, Prt := 1.",
    )
    .unwrap();
    std::sync::Arc::make_mut(&mut scenario.program).rules.extend(overwrite.rules);
    let seed = scenario.seeds[0].clone();

    let debugger = Debugger::for_scenario(&scenario);
    let (world, ..) = debugger.observe().unwrap();
    assert!(!world.state.contains(&seed), "the log shows {seed} replaced: {:?}", world.state);
    assert!(world.state.iter().any(|t| t.table == seed.table), "its replacement is alive");
    assert_eq!(world.derivations.len(), 1, "{:?}", world.derivations);
    assert_eq!(world.derivations[0].rule, "r1");
    assert!(world.derivations[0].body.contains(&seed), "derived from the seed as it then was");

    let report = repair_scenario(&scenario);
    assert_eq!(report.generated(), 3, "{}", report.render_table());
    let generated = |what: &str| report.outcomes.iter().any(|o| o.candidate.description.contains(what));
    assert!(generated("Deleting the WebLoadBalancer tuple WebLoadBalancer(@'C',80,2)"), "{}", report.render_table());
    assert!(generated("Swi == 1 in r1"), "{}", report.render_table());
}
