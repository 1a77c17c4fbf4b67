//! End-to-end integration tests spanning every crate: the five §5.3
//! scenarios through diagnose → generate → backtest → rank, the §5.8
//! cross-language invariants, and the §4.4 MQO claim against the reference.

mod common;

use common::reference;
use sdn_meta_repair::core::debugger::{repair_scenario, Debugger};
use sdn_meta_repair::core::repair::{Candidate, Repair};
use sdn_meta_repair::core::scenarios::Scenario;
use sdn_meta_repair::sdn::faults::{LinkFault, SwitchCrash};
use sdn_meta_repair::sdn::NodeRef;

#[test]
fn the_reference_fix_is_generated_and_accepted_everywhere() {
    // Table 1's takeaway: for each query, the repair a human operator
    // would pick is in the final accepted set.
    for scenario in Scenario::all() {
        let report = repair_scenario(&scenario);
        let hit = report
            .outcomes
            .iter()
            .find(|o| o.candidate.description.contains(&scenario.reference_fix));
        let hit = hit.unwrap_or_else(|| {
            panic!(
                "{}: reference fix `{}` not generated\n{}",
                scenario.id,
                scenario.reference_fix,
                report.render_table()
            )
        });
        assert!(
            hit.accepted,
            "{}: reference fix rejected\n{}",
            scenario.id,
            report.render_table()
        );
    }
}

#[test]
fn accepted_repairs_actually_heal_the_network() {
    // Each accepted candidate, run on its own network by the reference,
    // heals: patches, and Q1's manual flow entry.
    let scenario = Scenario::q1_copy_paste();
    let dbg = Debugger::for_scenario(&scenario);
    let report = dbg.diagnose_and_repair().unwrap();
    let accepted: Vec<&Candidate> = report.accepted.iter().map(|&i| &report.outcomes[i].candidate).collect();
    assert!(accepted.iter().any(|c| matches!(c.repair, Repair::InsertTuple(_))), "{}", report.render_table());
    for (candidate, out) in accepted.iter().zip(reference::runs(&scenario.program, &dbg.setup(), accepted.iter().copied())) {
        let out = out.unwrap_or_else(|| panic!("`{}` does not replay", candidate.description));
        assert!(scenario.effect.holds(&out.stats), "accepted `{}` does not heal", candidate.description);
    }
}

#[test]
fn mqo_agrees_with_sequential_on_every_scenario() {
    // §4.4 correctness: joint tagged backtesting must accept exactly the
    // candidates the reference's sequential runs accept, and give each the
    // same verdict.
    for scenario in Scenario::all() {
        let dbg = Debugger::for_scenario(&scenario);
        let report = dbg.diagnose_and_repair().unwrap();
        reference::assert_verdicts(&dbg, &scenario.program, &report);
        // And the joint replay answered for every candidate itself — but
        // for Q5's `Lip := 10`, which learns H1 behind whichever port spoke
        // last: `Learned` is keyed on (switch, address), the engine
        // replaces the port, and the candidate is handed back.
        assert!(report.backtested_jointly, "{}", scenario.id);
        assert_eq!(report.handed_back, usize::from(scenario.id == "Q5"), "{}", scenario.id);
    }
}

/// The joint network has no faults: under a fault plan the joint replay
/// names every candidate and forwards nothing, and `mqo_replay` and the
/// debugger answer with their per-candidate fallback, which meets the
/// faults as the reference does. With S1 dark for the whole run, the
/// reference drops packets there and delivers nothing to the DNS server; a
/// fault-free replay drops none and delivers DNS there.
#[test]
fn a_fault_plan_hands_every_candidate_back() {
    use sdn_meta_repair::backtest::mqo::{mqo_replay, mqo_replay_deltas, JointWork};
    let mut scenario = Scenario::q1_copy_paste();
    scenario.sim.faults.crashes.push(SwitchCrash { switch: 1, at: 0, down_for: 1_000_000_000 });
    let dbg = Debugger::for_scenario(&scenario);
    let report = dbg.diagnose_and_repair().unwrap();
    assert!(!report.backtested_jointly);
    assert_eq!(report.handed_back, report.generated());
    reference::assert_verdicts(&dbg, &scenario.program, &report);

    let setup = dbg.setup();
    let base = &scenario.program;
    let outline = sdn_meta_repair::ndlog::ProgramOutline::new(base).unwrap();
    let candidates: Vec<&Candidate> = report.outcomes.iter().map(|o| &o.candidate).collect();
    let inputs: Vec<_> = candidates.iter().map(|c| c.repair.replay_input(base, &outline, &setup)).collect();
    assert!(inputs.iter().all(|i| i.seeds.is_none()), "Q1's candidates keep the seeds");
    let deltas: Vec<_> = inputs.iter().map(|i| i.delta.clone().unwrap()).collect();
    let extra: Vec<_> = inputs.iter().map(|i| i.extra_flows.clone()).collect();
    let joint = mqo_replay_deltas(&setup, base, &deltas, &extra, &[]);
    assert_eq!(joint.diverged, (1 << candidates.len()) - 1);
    assert_eq!(joint.work, JointWork::default());

    let programs: Vec<_> = deltas.iter().map(|d| d.overlay(base)).collect();
    let reference = reference::runs(base, &setup, candidates.iter().copied());
    for (i, (got, want)) in mqo_replay(&setup, base, &programs, &extra).iter().zip(&reference).enumerate() {
        let want = want.as_ref().unwrap();
        let dns = sdn_meta_repair::sdn::topology::fig1_hosts::DNS;
        assert!(want.stats.dropped_switch_down > 0 && want.stats.delivered_to(dns) == 0, "candidate {i}");
        assert_eq!(got.stats, want.stats, "candidate {i}: {}", candidates[i].description);
    }
}

#[test]
fn cross_language_invariants_of_table3() {
    for scenario in Scenario::all() {
        // Trema ports behave like the declarative original.
        let trema = repair_scenario(&scenario.trema_variant());
        assert!(trema.accepted_count() >= 1, "{}-trema accepted nothing", scenario.id);
        // The ports hand back what the original does: Q5's `Lip := 10`.
        assert_eq!(trema.handed_back, usize::from(scenario.id == "Q5"), "{}-trema", scenario.id);
        // Pyretic: Q4 is unexpressible; elsewhere ≥1 repair survives and
        // no operator mutations appear among candidates.
        match scenario.pyretic_variant() {
            None => assert_eq!(scenario.id, "Q4"),
            Some(py) => {
                let r = repair_scenario(&py);
                assert!(r.accepted_count() >= 1, "{}-pyretic accepted nothing", py.id);
                assert_eq!(r.handed_back, usize::from(scenario.id == "Q5"), "{}", py.id);
                for o in &r.outcomes {
                    assert!(
                        !o.candidate.description.contains(" != ")
                            && !o.candidate.description.contains(" >= "),
                        "operator repair leaked into Pyretic: {}",
                        o.candidate.description
                    );
                }
            }
        }
    }
}

#[test]
fn provenance_explains_scenario_symptoms() {
    use sdn_meta_repair::provenance::{explain_absent, Pattern};
    use sdn_meta_repair::runtime::Engine;
    use sdn_meta_repair::ndlog::{Tuple, Value};
    let program = sdn_meta_repair::core::scenarios::q1_program();
    let mut engine = Engine::new(&program).unwrap();
    engine
        .insert(Tuple::new("WebLoadBalancer", Value::str("C"), vec![Value::Int(80), Value::Int(2)]))
        .unwrap();
    engine
        .insert(Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(3), Value::Int(80)]))
        .unwrap();
    let pattern = Pattern {
        table: "FlowTable".into(),
        loc: Some(Value::Int(3)),
        args: vec![Some(Value::Int(80)), Some(Value::Int(2))],
    };
    let tree = explain_absent(engine.log(), &program, &pattern, engine.now());
    let rendered = tree.render();
    // The negative provenance pinpoints r7's failed selection — the same
    // root cause the repair generator patches.
    assert!(rendered.contains("r7"), "{rendered}");
    assert!(rendered.contains("Swi == 2"), "{rendered}");
}

#[test]
fn repair_loop_agrees_under_both_eval_strategies() {
    // The whole diagnose → repair-search → backtest loop must be
    // insensitive to the engine's evaluation strategy: same candidates,
    // same acceptance set, same reference fix. Fig. 7 rides along with
    // Table 1's five because it is the one positive symptom, whose
    // derivation records come from a scratch re-run that must honour the
    // debugger's engine options too.
    use sdn_meta_repair::runtime::Options;
    use sdn_meta_repair::EvalStrategy;
    let scenarios = Scenario::all().into_iter().chain([Scenario::fig7_harmful_entry()]);
    for scenario in scenarios {
        let run = |strategy: EvalStrategy| {
            let mut debugger = Debugger::for_scenario(&scenario);
            debugger.engine_options = Options { strategy, ..Options::default() };
            let report = debugger.diagnose_and_repair().unwrap();
            let descriptions: Vec<String> =
                report.outcomes.iter().map(|o| o.candidate.description.clone()).collect();
            let accepted: Vec<String> = report
                .accepted
                .iter()
                .map(|&i| report.outcomes[i].candidate.description.clone())
                .collect();
            (descriptions, accepted)
        };
        let pipelined = run(EvalStrategy::Pipelined);
        let batch = run(EvalStrategy::Batch);
        assert_eq!(pipelined.0, batch.0, "{}: candidate generation diverges", scenario.id);
        assert_eq!(pipelined.1, batch.1, "{}: acceptance diverges", scenario.id);
        assert!(
            batch.1.iter().any(|d| d.contains(&scenario.reference_fix)),
            "{}: reference fix missing under batch evaluation",
            scenario.id
        );
    }
}

#[test]
fn fault_injection_degrades_gracefully() {
    // A flapping link must not break diagnosis: the debugger still returns
    // a report (possibly with fewer accepted candidates) and never panics.
    let mut scenario = Scenario::q1_copy_paste();
    scenario.sim.faults.seed = 99;
    scenario.sim.faults.links.push(LinkFault::flap(NodeRef::Switch(1), NodeRef::Switch(2), 0, 2_000, 50));
    let report = repair_scenario(&scenario);
    assert!(report.generated() > 0);
}
