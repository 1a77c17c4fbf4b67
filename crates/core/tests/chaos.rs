//! The CI `chaos` suite: randomized fault schedules swept over the repair
//! loop under fixed seeds, plus the pinned regression schedules. Covers
//! the acceptance bar: ≥ 3 fault classes × ≥ 8 seeds, byte-identical
//! across runs, with both containment paths (worker panic, budget
//! exhaustion) exercised elsewhere in `mpr_runtime`'s fault tests.

use mpr_core::chaos::{self, FaultClass};
use mpr_core::scenarios::Scenario;

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// The loop survives every class × seed schedule on the flagship
/// scenario, and the sweep is deterministic: running it twice yields
/// byte-identical outcomes (plans, counters, errors — everything).
#[test]
fn sweep_recovers_everywhere_and_is_deterministic() {
    let scenarios = [Scenario::q1_copy_paste()];
    let first = chaos::sweep(&scenarios, &FaultClass::ALL, &SEEDS);
    assert_eq!(first.outcomes.len(), FaultClass::ALL.len() * SEEDS.len());
    for o in &first.outcomes {
        assert!(
            o.recovered,
            "{} / {} / seed {} did not recover: {:?}\nplan: {:?}",
            o.scenario,
            o.class.name(),
            o.seed,
            o.error,
            o.plan
        );
    }
    let second = chaos::sweep(&scenarios, &FaultClass::ALL, &SEEDS);
    assert_eq!(first, second, "chaos sweep is not deterministic");
}

/// Every scenario of the paper survives at least a spot-check of each
/// fault class (full grids run in the bench harness, not per-commit CI).
#[test]
fn every_scenario_survives_each_fault_class() {
    for scenario in Scenario::all() {
        for class in FaultClass::ALL {
            let plan = chaos::random_plan(class, 42, &scenario.topology);
            let outcome = chaos::run_under_plan(&scenario, &plan);
            assert!(
                outcome.recovered,
                "{} under {} seed 42 did not recover: {:?}",
                scenario.id,
                class.name(),
                outcome.error
            );
        }
    }
}

/// The pinned schedules of past sweeps, frozen exactly with their
/// classification. Recoverable cases must keep recovering; the genuine
/// survivors (ingress dead for the whole run, heavy control loss on Q2)
/// must keep degrading *cleanly* — the loop completes, no panic, and the
/// non-recovery carries a recorded reason. Every case must also match
/// itself byte for byte across runs.
#[test]
fn pinned_regression_schedules_keep_their_classification() {
    let cases = chaos::regression_cases();
    assert!(cases.iter().filter(|c| c.expect_recovered).count() >= 3);
    assert!(cases.iter().filter(|c| !c.expect_recovered).count() >= 2);
    for case in cases {
        let a = chaos::run_under_plan(&case.scenario, &case.plan);
        assert_eq!(
            a.recovered, case.expect_recovered,
            "pinned case {} changed classification: {:?}\nplan: {:?}",
            case.name, a.error, case.plan
        );
        if !case.expect_recovered {
            // Clean degradation, not a crash: the loop recorded why.
            assert!(a.error.is_some(), "pinned case {} lost its reason", case.name);
            assert!(
                !a.error.as_deref().unwrap_or("").contains("panic"),
                "pinned case {} now panics: {:?}",
                case.name,
                a.error
            );
        }
        let b = chaos::run_under_plan(&case.scenario, &case.plan);
        assert_eq!(a, b, "pinned case {} is not deterministic", case.name);
    }
}

/// Sanity on the harness itself: a deliberately impossible network — the
/// symptom host's only link dead for the whole run *and* every control
/// message dropped — still comes back as a classified outcome, never a
/// crash of the harness. (Whether it recovers depends on the scenario;
/// the assertion is that the loop completes and the classification is
/// coherent.)
#[test]
fn worst_case_schedule_is_classified_not_fatal() {
    use mpr_sdn::{CtrlFaults, FaultPlan, LinkFault, SwitchCrash};
    let scenario = Scenario::q1_copy_paste();
    let plan = FaultPlan {
        seed: 99,
        links: chaos::all_links(&scenario.topology)
            .into_iter()
            .map(|(a, b)| LinkFault::down(a, b, 0, u64::MAX))
            .collect(),
        crashes: scenario
            .topology
            .switches
            .iter()
            .map(|&s| SwitchCrash { switch: s, at: 0, down_for: u64::MAX })
            .collect(),
        ctrl: CtrlFaults { drop_chance: 1.0, ..CtrlFaults::default() },
    };
    let outcome = chaos::run_under_plan(&scenario, &plan);
    // Coherence: recovered implies candidates, not-recovered implies a
    // recorded reason.
    if outcome.recovered {
        assert!(outcome.generated > 0);
    } else {
        assert!(outcome.error.is_some());
    }
}

/// Candidates are backtested on the network the baseline was observed on.
/// With every control message lost no FlowMod ever lands, and with every
/// link traversal lost no packet arrives: no candidate — not even the
/// reference fix — is effective there, whatever a fault-free replay says.
#[test]
fn candidates_meet_the_faults_the_baseline_met() {
    use mpr_sdn::faults::{CtrlFaults, FaultPlan, LinkFault};
    let scenario = Scenario::q1_copy_paste();
    let plan = FaultPlan {
        ctrl: CtrlFaults { drop_chance: 1.0, ..CtrlFaults::default() },
        ..FaultPlan::default()
    };
    let outcome = chaos::run_under_plan(&scenario, &plan);
    assert!(outcome.recovered, "{:?}", outcome.error);
    assert_eq!(outcome.accepted, 0, "accepted a repair no FlowMod of which was delivered");

    let mut lossy = scenario.clone();
    let links = scenario.topology.all_links().map(|((a, _), (b, _))| LinkFault::down(a, b, 0, u64::MAX));
    lossy.sim.faults.links = links.collect();
    let report = mpr_core::debugger::repair_scenario(&lossy);
    assert!(report.generated() > 0);
    assert!(report.outcomes.iter().all(|o| !o.effective), "{}", report.render_table());
}
