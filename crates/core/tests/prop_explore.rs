//! Property tests for the repair search (Appendix D):
//!
//! - **ordering** — candidates are emitted in cost order (the optimality
//!   property: "repair candidates are generated in cost order");
//! - **soundness** — applying any generated patch yields a program under
//!   which the goal tuple is actually derivable from the recorded world
//!   (the tree's constraint pool was satisfiable for a reason);
//! - **completeness** — for any missing, fully-concrete goal with at least
//!   one recorded trigger, at least one candidate is generated (the
//!   Appendix D fallback guarantees this);
//! - **bounded ≡ exhaustive** — the search cut off at `max_candidates = k`
//!   returns exactly the first k candidates of the unbounded search, and
//!   builds a number of candidates that does not grow with the program.

use mpr_core::cost::{CostModel, SearchBudget};
use mpr_core::debugger::Debugger;
use mpr_core::explore::{generate_missing, World};
use mpr_core::repair::{Candidate, Repair};
use mpr_core::scenarios::{Scenario, Symptom};
use mpr_ndlog::{parse_program, Tuple, Value};
use mpr_provenance::Pattern;
use proptest::prelude::*;

fn world(swi_const: i64, hdr_const: i64, prt_const: i64, triggers: Vec<(i64, i64)>) -> World {
    let program = parse_program(
        "prop",
        &format!(
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0,1)).
            r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == {swi_const}, Hdr == {hdr_const}, Prt := {prt_const}.
            "
        ),
    )
    .unwrap();
    World {
        program,
        triggers: triggers
            .into_iter()
            .map(|(s, h)| {
                Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(s), Value::Int(h)])
            })
            .collect(),
        state: vec![],
        cost: CostModel::default(),
        budget: SearchBudget { max_cost: 10, max_candidates: 24, consts_per_site: 3, ..SearchBudget::default() },
    }
}

/// Assert that cutting the search off at k candidates returns the first k
/// of the unbounded search: same descriptions, costs, repairs and traces,
/// in the same order.
fn assert_bounded_is_a_prefix(world: &World, goal: &Pattern) -> Result<(), TestCaseError> {
    let all_of = |c: &Candidate| (c.description.clone(), c.cost, c.repair.clone(), c.trace.clone());
    let mut w = world.clone();
    w.budget.max_candidates = usize::MAX;
    let (exhaustive, _) = generate_missing(&w, goal);
    for k in [1usize, 3, 14, 24] {
        w.budget.max_candidates = k;
        let (bounded, _) = generate_missing(&w, goal);
        prop_assert_eq!(bounded.len(), exhaustive.len().min(k), "k = {}", k);
        for (i, (b, e)) in bounded.iter().zip(&exhaustive).enumerate() {
            prop_assert_eq!(all_of(b), all_of(e), "k = {}, candidate {}", k, i);
        }
    }
    Ok(())
}

#[test]
fn bounded_search_is_a_prefix_of_exhaustive_on_every_missing_scenario() {
    let q1 = Scenario::q1_copy_paste();
    let mut scenarios = Scenario::all();
    scenarios.push(Scenario::q1_padded(300));
    scenarios.push(q1.trema_variant());
    scenarios.push(q1.pyretic_variant().expect("Q1 has a Pyretic port"));
    let mut checked = 0;
    for s in &scenarios {
        let Symptom::Missing(goal) = &s.symptom else { continue };
        let (world, _, _, _) = Debugger::for_scenario(s).observe().expect("scenario runs");
        if let Err(e) = assert_bounded_is_a_prefix(&world, goal) {
            panic!("{}: {e:?}", s.id);
        }
        checked += 1;
    }
    assert_eq!(checked, 8, "Q1–Q5, Q1@300loc, Q1-trema, Q1-pyretic");
}

#[test]
fn candidates_built_do_not_grow_with_program_size() {
    let explore = |lines: usize| {
        let s = Scenario::q1_padded(lines);
        let Symptom::Missing(goal) = &s.symptom else { unreachable!("Q1 is a missing-tuple query") };
        let (world, _, _, _) = Debugger::for_scenario(&s).observe().expect("scenario runs");
        let (cands, stats) = generate_missing(&world, goal);
        (cands.len(), stats, world.budget.max_candidates)
    };
    let (n100, small, _) = explore(100);
    let (n900, large, k) = explore(900);
    assert_eq!((n100, n900), (k, k));
    // The search still visits every tree and solves every pool …
    assert_eq!((small.trees, small.pools_solved), (100, 194));
    assert_eq!((large.trees, large.pools_solved), (900, 1794));
    assert!(large.raw_candidates > 9 * small.raw_candidates);
    // … but what it builds is bounded by the frontier, not by the program.
    assert_eq!(small.materialised, large.materialised);
    assert!(large.materialised <= 4 * k as u64, "built {}", large.materialised);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bounded_search_is_a_prefix_of_exhaustive(
        goal_swi in 1i64..6, goal_prt in 1i64..4,
        padding in prop::collection::vec(
            (1i64..6, prop::sample::select(vec![53i64, 80]), 1i64..4), 1..41),
        order in prop::collection::vec(any::<u32>(), 41),
        trig in prop::collection::vec((1i64..6, prop::sample::select(vec![53i64, 80])), 1..4),
    ) {
        // `r1` plus 1–40 sibling policies, in shuffled order: cheap repairs
        // of different rules tie on cost, so the cut lands inside a tie.
        let mut w = world(2, 80, 2, trig);
        let r1 = w.program.rules[0].to_string();
        let mut rules: Vec<String> = vec![r1];
        for (i, (swi, hdr, prt)) in padding.iter().enumerate() {
            rules.push(format!(
                "p{i} FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == {swi}, Hdr == {hdr}, Prt := {prt}."
            ));
        }
        let mut keyed: Vec<(u32, String)> = order.into_iter().zip(rules).collect();
        keyed.sort();
        let src: Vec<String> = keyed.into_iter().map(|(_, r)| r).collect();
        w.program.rules = parse_program("shuffled", &src.join("\n")).unwrap().rules;
        let goal = Pattern {
            table: "FlowTable".into(),
            loc: Some(Value::Int(goal_swi)),
            args: vec![Some(Value::Int(80)), Some(Value::Int(goal_prt))],
        };
        assert_bounded_is_a_prefix(&w, &goal)?;
    }

    #[test]
    fn candidates_are_in_cost_order(
        swi in 1i64..5, hdr in prop::sample::select(vec![53i64, 80]),
        goal_swi in 1i64..5, goal_prt in 1i64..4,
        trig in prop::collection::vec((1i64..5, prop::sample::select(vec![53i64, 80])), 1..5),
    ) {
        let w = world(swi, hdr, goal_prt, trig);
        let goal = Pattern {
            table: "FlowTable".into(),
            loc: Some(Value::Int(goal_swi)),
            args: vec![Some(Value::Int(hdr)), Some(Value::Int(goal_prt))],
        };
        let (cands, _) = generate_missing(&w, &goal);
        for pair in cands.windows(2) {
            prop_assert!(pair[0].cost <= pair[1].cost, "not cost-ordered");
        }
    }

    #[test]
    fn patches_make_the_goal_derivable(
        goal_swi in 1i64..5,
        trig in prop::collection::vec((1i64..5, prop::sample::select(vec![53i64, 80])), 1..5),
    ) {
        // Program matches Swi==2/Hdr==80; goal asks for some other switch.
        let w = world(2, 80, 2, trig.clone());
        let goal = Pattern {
            table: "FlowTable".into(),
            loc: Some(Value::Int(goal_swi)),
            args: vec![Some(Value::Int(80)), Some(Value::Int(2))],
        };
        let (cands, _) = generate_missing(&w, &goal);
        let goal_tuple =
            Tuple::new("FlowTable", Value::Int(goal_swi), vec![Value::Int(80), Value::Int(2)]);
        for c in &cands {
            match &c.repair {
                Repair::Patch(p) => {
                    let patched = p.apply(&w.program).expect("patch applies");
                    // Re-run the patched program over the recorded world.
                    let mut engine = mpr_runtime::Engine::new(&patched).unwrap();
                    for t in &w.state {
                        engine.insert(t.clone()).unwrap();
                    }
                    for t in &w.triggers {
                        engine.insert(t.clone()).unwrap();
                    }
                    prop_assert!(
                        engine.contains(&goal_tuple),
                        "`{}` does not derive {goal_tuple}",
                        c.description
                    );
                }
                Repair::InsertTuple(t) => prop_assert_eq!(t, &goal_tuple),
                _ => {}
            }
        }
    }

    #[test]
    fn something_is_always_generated(
        goal_swi in 1i64..9, goal_hdr in 1i64..100, goal_prt in 1i64..9,
        trig in prop::collection::vec((1i64..5, 1i64..100), 1..4),
    ) {
        // Completeness (Appendix D): a concrete missing goal with at least
        // one trigger always yields at least the insertion and the
        // synthesized-rule candidates.
        let w = world(2, 80, 2, trig);
        let goal = Pattern {
            table: "FlowTable".into(),
            loc: Some(Value::Int(goal_swi)),
            args: vec![Some(Value::Int(goal_hdr)), Some(Value::Int(goal_prt))],
        };
        let (cands, _) = generate_missing(&w, &goal);
        prop_assert!(!cands.is_empty());
        prop_assert!(cands.iter().any(|c| matches!(c.repair, Repair::InsertTuple(_))
            || c.description.contains("Adding a new rule")));
    }
}
