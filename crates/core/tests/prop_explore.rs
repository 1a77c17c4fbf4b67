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
//!   builds a number of candidates that does not grow with the program;
//! - **priced ≡ built** — the prices the search computes by arithmetic on
//!   fix options are the prices of a reference that patches and evaluates a
//!   clone of every selection, and of the edits the search then builds.

use mpr_core::cost::{self, SearchBudget};
use mpr_core::debugger::Debugger;
use mpr_core::explore::{generate_missing, generate_missing_with_ledger, ExploreStats, World};
use mpr_core::repair::{Candidate, Repair};
use mpr_core::scenarios::{Scenario, Symptom};
use mpr_ndlog::ast::{CmpOp, Expr, ExprSide, Rule};
use mpr_ndlog::{parse_program, Edit, Env, Program, PureFuncs, Tuple, Value};
use mpr_provenance::Pattern;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn world(swi_const: i64, hdr_const: i64, prt_const: i64, triggers: Vec<(i64, i64)>) -> World {
    world_with(false, swi_const, hdr_const, prt_const, triggers)
}

/// [`world`], or with `hdr_assigned` its variant whose head's `Hdr` is
/// bound by a second assignment, ahead of `Prt`'s, and not by the body:
/// `PacketIn(@C,Swi,H0), Swi == s, H0 == h, Hdr := h, Prt := p`.
fn world_with(hdr_assigned: bool, swi_const: i64, hdr_const: i64, prt_const: i64, triggers: Vec<(i64, i64)>) -> World {
    let rule = if hdr_assigned {
        format!(
            "r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,H0), Swi == {swi_const}, H0 == {hdr_const}, Hdr := {hdr_const}, Prt := {prt_const}."
        )
    } else {
        format!("r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == {swi_const}, Hdr == {hdr_const}, Prt := {prt_const}.")
    };
    let program = parse_program(
        "prop",
        &format!(
            r"
            materialize(PacketIn, event, 2, keys()).
            materialize(FlowTable, infinity, 2, keys(0,1)).
            {rule}
            "
        ),
    )
    .unwrap();
    World {
        program: program.into(),
        triggers: triggers
            .into_iter()
            .map(|(s, h)| {
                Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(s), Value::Int(h)])
            })
            .collect(),
        state: vec![],
        derivations: vec![],
        budget: SearchBudget { max_cost: 10, max_candidates: 24, consts_per_site: 3 },
    }
}

/// `r1` plus 1–40 sibling policies, in shuffled order: cheap repairs of
/// different rules tie on cost, so the cut lands inside a tie.
fn shuffled_world(trig: Vec<(i64, i64)>, padding: &[(i64, &str, i64, i64)], order: Vec<u32>) -> World {
    let mut w = world(2, 80, 2, trig);
    let r1 = w.program.rules[0].to_string();
    let mut rules: Vec<String> = vec![r1];
    for (i, (swi, op, hdr, prt)) in padding.iter().enumerate() {
        rules.push(format!(
            "p{i} FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi {op} {swi}, Hdr == {hdr}, Prt := {prt}."
        ));
    }
    let mut keyed: Vec<(u32, String)> = order.into_iter().zip(rules).collect();
    keyed.sort();
    let src: Vec<String> = keyed.into_iter().map(|(_, r)| r).collect();
    Arc::make_mut(&mut w.program).rules = parse_program("shuffled", &src.join("\n")).unwrap().rules;
    w
}

fn flow_goal(swi: i64, prt: i64) -> Pattern {
    Pattern {
        table: "FlowTable".into(),
        loc: Some(Value::Int(swi)),
        args: vec![Some(Value::Int(80)), Some(Value::Int(prt))],
    }
}

/// Every way to pick one cost per slot, summed — at most 64 survive each
/// slot, in order, as in the search.
fn cross_costs(slots: &[Vec<u32>]) -> Vec<u32> {
    slots.iter().fold(vec![0], |sums, slot| {
        sums.iter().flat_map(|sum| slot.iter().map(move |c| sum + c)).take(64).collect()
    })
}

/// The price of every candidate the search should consider in a
/// [`shuffled_world`], found the slow way: each replacement is patched into
/// a clone of the failing selection and the clone is evaluated. Such a
/// world's rules are `FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr),
/// Swi op a, Hdr == b, Prt := c` and its goal is concrete.
fn reference_prices(w: &World, goal: &Pattern) -> Vec<u32> {
    let int = |v: &Option<Value>| v.as_ref().and_then(Value::as_int).expect("a concrete goal");
    let (goal_swi, goal_hdr, goal_prt) = (int(&goal.loc), int(&goal.args[0]), int(&goal.args[1]));
    // The insertion and the synthesised rule.
    let mut prices = vec![cost::INSERT_TUPLE, cost::NEW_RULE];
    // Replacement constants: every integer the program, the triggers and the
    // goal exhibit, and its neighbours, ascending.
    let mut exhibited = vec![goal_swi, goal_hdr, goal_prt];
    exhibited.extend(w.triggers.iter().flat_map(|t| t.args.iter().filter_map(Value::as_int)));
    for rule in &w.program.rules {
        rule.for_each_constant(|v| exhibited.extend(v.as_int()));
    }
    let domain: BTreeSet<i64> = exhibited.iter().flat_map(|&i| [i - 1, i, i + 1]).collect();
    for rule in &w.program.rules {
        for t in &w.triggers {
            // The head pins `Swi` and `Hdr`; the trigger must agree.
            if t.args != [Value::Int(goal_swi), Value::Int(goal_hdr)] {
                continue;
            }
            let joined: Env = [("C", t.loc.clone()), ("Swi", t.args[0].clone()), ("Hdr", t.args[1].clone())]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            let mut post = joined.clone();
            post.insert("Prt".into(), Value::Int(goal_prt));
            let mut assign_slots = Vec::new();
            let Expr::Const(Value::Int(assigned)) = rule.assigns[0].expr else { unreachable!("Prt := c") };
            if assigned != goal_prt {
                let mut slot = vec![cost::const_change(assigned, goal_prt)];
                slot.extend(joined.iter().filter(|(_, v)| **v == Value::Int(goal_prt)).map(|_| cost::VAR_CHANGE));
                assign_slots.push(slot);
            }
            let mut failing = Vec::new();
            let mut sel_slots = Vec::new();
            for (si, sel) in rule.sels.iter().enumerate() {
                let holds = |s: &mpr_ndlog::Selection| s.eval(&post, &mut PureFuncs) == Ok(true);
                if holds(sel) {
                    continue;
                }
                failing.push(si);
                let mut slot = Vec::new();
                let Expr::Const(Value::Int(old)) = sel.rhs else { unreachable!("Var == c") };
                let replacements = domain.iter().filter(|&&v| v != old).filter(|&&v| {
                    let mut patched = sel.clone();
                    patched.rhs = Expr::int(v);
                    holds(&patched)
                });
                slot.extend(replacements.take(w.budget.consts_per_site).map(|&v| cost::const_change(old, v)));
                for op in CmpOp::ALL.into_iter().filter(|op| *op != sel.op) {
                    let mut patched = sel.clone();
                    patched.op = op;
                    slot.extend(holds(&patched).then_some(cost::OP_CHANGE));
                }
                for var in rule.body_vars() {
                    let mut patched = sel.clone();
                    patched.lhs = Expr::var(var);
                    slot.extend((patched.lhs != sel.lhs && holds(&patched)).then_some(cost::VAR_CHANGE));
                }
                sel_slots.push(slot);
            }
            if failing.is_empty() && assign_slots.is_empty() {
                continue;
            }
            let extra = |fixed: usize| (fixed + assign_slots.len()) as u32 - 1;
            let n = rule.sels.len();
            let singles = (0..n).map(|i| vec![i]);
            let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| vec![i, j]));
            let deletions: Vec<Vec<usize>> =
                singles.chain(pairs).filter(|d| failing.iter().all(|f| d.contains(f))).collect();
            for assign in cross_costs(&assign_slots) {
                prices.extend(cross_costs(&sel_slots).iter().map(|fix| fix + assign + extra(failing.len())));
                prices.extend(deletions.iter().map(|d| d.len() as u32 * cost::DELETE_SELECTION + assign + extra(d.len())));
            }
        }
    }
    prices
}

/// What the cost model charges for a built repair, from its edits alone.
fn price_of_edits(w: &World, repair: &Repair) -> u32 {
    let Repair::Patch(patch) = repair else { return cost::INSERT_TUPLE };
    let rule_of = |id: &str| -> &Rule { w.program.rule(id).expect("edits name rules of the program") };
    let edits = patch.edits.iter().map(|e| match e {
        Edit::AddRule { .. } => cost::NEW_RULE,
        Edit::DeleteSelection { .. } => cost::DELETE_SELECTION,
        Edit::SetSelectionOp { .. } => cost::OP_CHANGE,
        Edit::SetSelectionExpr { rule, sel, side, expr } => {
            let s = &rule_of(rule).sels[*sel];
            let old = match side {
                ExprSide::Lhs => &s.lhs,
                ExprSide::Rhs => &s.rhs,
            };
            match (old, expr) {
                (Expr::Const(Value::Int(old)), Expr::Const(Value::Int(new))) => cost::const_change(*old, *new),
                (_, Expr::Var(_)) => cost::VAR_CHANGE,
                other => panic!("no tree of these worlds changes a selection side as {other:?}"),
            }
        }
        Edit::SetAssignExpr { rule, var, expr } => {
            let old = &rule_of(rule).assigns.iter().find(|a| &a.var == var).expect("the assignment exists").expr;
            match (old, expr) {
                (Expr::Const(Value::Int(old)), Expr::Const(Value::Int(new))) => cost::const_change(*old, *new),
                (_, Expr::Var(_)) => cost::VAR_CHANGE,
                _ => cost::ASSIGN_CHANGE,
            }
        }
        other => panic!("no tree of these worlds builds {other:?}"),
    });
    edits.sum::<u32>() + patch.edits.len() as u32 - 1
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

/// Under an exhaustive budget, no candidate of a rule's trees — a patch of
/// it or a tuple its join lacks, either naming the rule in its trace —
/// costs less than the floor the search priced the rule at before opening
/// it, and every tuple it lacks that the search offers makes the rule
/// derive the goal in an engine holding it, the state and the triggers.
/// Returns how many candidates were checked and how many cost exactly
/// their rule's floor.
fn assert_floors_hold(world: &World, goal: &Pattern) -> Result<(usize, usize), TestCaseError> {
    let mut w = world.clone();
    w.budget.max_candidates = usize::MAX;
    let (_, _, ledger) = generate_missing_with_ledger(&w, goal);
    let (mut checked, mut tight) = (0, 0);
    for c in &ledger.built {
        let tree = |line: &String| line.strip_prefix("NDERIVE[")?.strip_suffix(" via meta rule h2]").map(str::to_string);
        let Some(rule) = c.trace.iter().find_map(tree) else { continue };
        let floor = ledger.floors.iter().find(|(id, _)| *id == rule).map(|&(_, floor)| floor);
        prop_assert!(floor.is_some_and(|f| f <= c.cost), "`{}` costs {}, {}'s floor is {:?}", c.description, c.cost, rule, floor);
        checked += 1;
        tight += usize::from(floor == Some(c.cost));
        if let Repair::InsertTuple(inserted) = &c.repair {
            let rules = vec![w.program.rule(&rule).expect("the rule exists").clone()];
            let mut engine = mpr_runtime::Engine::new(&Program { rules, ..(*w.program).clone() }).unwrap();
            for t in w.state.iter().chain([inserted]).chain(&w.triggers) {
                engine.insert(t.clone()).unwrap();
            }
            let args = goal.args.iter().map(|a| a.clone().expect("a concrete goal")).collect();
            let want = Tuple::new(&*goal.table, goal.loc.clone().expect("a concrete goal"), args);
            prop_assert!(engine.contains(&want), "`{}` does not derive {}", c.description, want);
        }
    }
    Ok((checked, tight))
}

#[test]
fn no_candidate_undercuts_its_rules_floor_on_every_missing_scenario() {
    let q1 = Scenario::q1_copy_paste();
    let mut scenarios = Scenario::all();
    scenarios.extend([Scenario::q1_padded(300), q1.trema_variant(), q1.pyretic_variant().expect("Q1 has a Pyretic port")]);
    let (mut checked, mut tight) = (0, 0);
    for s in &scenarios {
        let Symptom::Missing(goal) = &s.symptom else { continue };
        let (world, _, _, _) = Debugger::for_scenario(s).observe().expect("scenario runs");
        match assert_floors_hold(&world, goal) {
            Ok((n, at_floor)) => (checked, tight) = (checked + n, tight + at_floor),
            Err(e) => panic!("{}: {e:?}", s.id),
        }
    }
    eprintln!("{checked} tree candidates checked, {tight} at their rule's floor");
    assert!(checked > 1_000 && tight > 100, "{checked} tree candidates checked, {tight} at their rule's floor");
}

/// A rule whose failing selections read `%` is priced at the 5 its two
/// selections cost to fix, and has no candidate: the search for its
/// missing tuple judges them with the rule's own evaluator, they fail
/// whatever the tuple holds, and so no insertion undercuts them.
#[test]
fn no_candidate_undercuts_its_rules_floor_where_the_solver_reads_no_selection() {
    let program = parse_program(
        "unread",
        r"
        materialize(PacketIn, event, 2, keys()).
        materialize(FlowTable, infinity, 2, keys(0,1)).
        j2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Port(@C,Swi,Prt), Hdr % 1000 == Prt + 50, Swi % 1000 == Prt + 50.
        ",
    )
    .unwrap();
    let w = World {
        program: program.into(),
        triggers: vec![Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(3), Value::Int(80)])],
        state: vec![],
        derivations: vec![],
        budget: SearchBudget::default(),
    };
    let (_, _, ledger) = generate_missing_with_ledger(&w, &flow_goal(3, 2));
    assert_eq!(ledger.floors, [("j2".to_string(), 5)]);
    assert_eq!(assert_floors_hold(&w, &flow_goal(3, 2)).unwrap(), (0, 0), "no insertion of Port(@'C',3,2)");
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
    // Q1's eight rules bring the cut down to 4; each padding rule's two
    // failing selections cost at least 2 + 2 + 1 more edit, so it is priced
    // away before any tree of it opens: the search opens Q1's trees and
    // solves Q1's pools at every size …
    for (lines, stats) in [(100, &small), (900, &large)] {
        assert_eq!((stats.trees, stats.pools_solved, stats.raw_candidates), (8, 10, 67), "{lines} rules");
        // … and every rule of the goal's table has one tree, or is priced away.
        assert_eq!(stats.trees + stats.rules_priced_away, lines, "{lines} rules");
    }
    // What it builds is bounded by the frontier, not by the program.
    assert_eq!(small.materialised, large.materialised);
    assert!(large.materialised <= 4 * k as u64, "built {}", large.materialised);
}

/// A candidate as a caller sees it, all of it.
fn shown(c: &Candidate) -> (u32, String, Repair, Vec<String>) {
    (c.cost, c.description.clone(), c.repair.clone(), c.trace.clone())
}

/// The counters of [`ExploreStats`] (not the solver's clock).
fn counters(s: &ExploreStats) -> [u64; 6] {
    [s.trees, s.rules_priced_away, s.pools_solved, s.raw_candidates, s.materialised, s.refused]
}

/// Every patch candidate's program passes `Engine::new`.
fn every_patch_compiles(w: &World, cands: &[Candidate]) -> Result<(), TestCaseError> {
    for c in cands {
        let Repair::Patch(p) = &c.repair else { continue };
        let patched = p.apply(&w.program).expect("a candidate patch applies");
        if let Err(e) = mpr_runtime::Engine::new(&patched) {
            return Err(TestCaseError::fail(format!("`{}` does not compile: {e}", c.description)));
        }
    }
    Ok(())
}

#[test]
fn an_assignment_is_rewritten_only_to_a_variable_bound_before_it() {
    // `Hdr` is bound by the first assignment alone, so rewriting it to
    // `Prt` — which the head requires to be 2, as it does `Hdr` — reads a
    // variable the second assignment binds only later: `Engine::new`
    // refuses the patched rule. The body's `H0` carries 80, not 2.
    let program = parse_program(
        "assign-order",
        r"
        materialize(PacketIn, event, 2, keys()).
        materialize(FlowTable, infinity, 2, keys(0,1)).
        r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,H0), Hdr := 7, Prt := 1.
        ",
    )
    .unwrap();
    let w = World {
        program: program.into(),
        triggers: vec![Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(1), Value::Int(80)])],
        state: vec![],
        derivations: vec![],
        budget: SearchBudget { max_candidates: usize::MAX, ..SearchBudget::default() },
    };
    let goal = Pattern {
        table: "FlowTable".into(),
        loc: Some(Value::Int(1)),
        args: vec![Some(Value::Int(2)), Some(Value::Int(2))],
    };
    let (cands, _) = generate_missing(&w, &goal);
    let offered: Vec<&str> = cands.iter().map(|c| c.description.as_str()).collect();
    assert!(
        !offered.iter().any(|d| d.contains("Hdr := Prt")),
        "an assignment rewritten to a later one's variable: {offered:#?}"
    );
    // `Prt := Hdr` reads the earlier assignment, which the engine accepts.
    assert!(offered.iter().any(|d| d.contains("Prt := Hdr")), "{offered:#?}");
    every_patch_compiles(&w, &cands).unwrap();
}

#[test]
fn a_rule_with_two_packet_in_atoms_opens_its_trees_trigger_major() {
    // Both triggers unify with both body atoms (the goal pins nothing), so
    // the order the trees open in is the order the (trigger, atom) pairs
    // are visited in: every atom of the first trigger, then of the second.
    // With no state, each tree inserts the atom it did not open with.
    let program = parse_program(
        "two-atoms",
        r"
        materialize(PacketIn, event, 2, keys()).
        materialize(Out, infinity, 1, keys(0)).
        r1 Out(@Swi,Hdr) :- PacketIn(@C,Swi,Hdr), PacketIn(@C,Lo,Hi), Hi > Hdr, Lo == Swi.
        ",
    )
    .unwrap();
    let trigger = |swi: i64, hdr: i64| Tuple::new("PacketIn", Value::str("C"), vec![Value::Int(swi), Value::Int(hdr)]);
    let w = World {
        program: program.into(),
        triggers: vec![trigger(1, 80), trigger(2, 53)],
        state: vec![],
        derivations: vec![],
        budget: SearchBudget { max_candidates: usize::MAX, ..SearchBudget::default() },
    };
    let goal = Pattern { table: "Out".into(), loc: None, args: vec![None] };
    let (_, stats, ledger) = generate_missing_with_ledger(&w, &goal);
    assert_eq!((stats.trees, stats.pools_solved), (4, 4));
    let built: Vec<&str> = ledger.built.iter().map(|c| c.description.as_str()).collect();
    // Atom-major order would put the second trigger's first tree second.
    assert_eq!(
        built,
        [
            "Manually inserting the PacketIn tuple PacketIn(@'C',1,81)",
            "Manually inserting the PacketIn tuple PacketIn(@'C',1,0)",
            "Manually inserting the PacketIn tuple PacketIn(@'C',2,54)",
            "Manually inserting the PacketIn tuple PacketIn(@'C',2,0)",
        ]
    );
}

/// A [`shuffled_world`] with one more rule, `j0`, which also joins the
/// state table `Port` (loc, switch, port), holding `ports`.
fn joined_world(
    trig: Vec<(i64, i64)>,
    padding: &[(i64, &str, i64, i64)],
    order: Vec<u32>,
    ports: &[(i64, i64)],
) -> World {
    let mut w = shuffled_world(trig, padding, order);
    let j0 = "j0 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Port(@C,Swi,Prt), Hdr == 53, Prt := 3.";
    Arc::make_mut(&mut w.program).rules.extend(parse_program("joined", j0).unwrap().rules);
    w.state = ports
        .iter()
        .map(|&(swi, prt)| Tuple::new("Port", Value::str("C"), vec![Value::Int(swi), Value::Int(prt)]))
        .collect();
    w
}

/// `w` with tuples no tree can open or join — triggers of another table,
/// packet-ins whose switch is not the goal's (the head pins it), state of
/// a table no rule reads — spliced in after the first trigger and among
/// the state. Every value is one the world exhibits already, so the
/// solver's domain is what it was.
fn with_strangers(w: &World, goal: &Pattern, picks: &[(usize, usize, usize)]) -> World {
    let mut seen: Vec<i64> = goal.loc.iter().chain(goal.args.iter().flatten()).filter_map(Value::as_int).collect();
    for t in w.triggers.iter().chain(&w.state) {
        seen.extend(t.args.iter().filter_map(Value::as_int));
    }
    for r in &w.program.rules {
        r.for_each_constant(|v| seen.extend(v.as_int()));
    }
    seen.sort_unstable();
    seen.dedup();
    let goal_swi = goal.loc.as_ref().and_then(Value::as_int);
    let other_swi: Vec<i64> = seen.iter().copied().filter(|&v| Some(v) != goal_swi).collect();
    let mut out = w.clone();
    for &(kind, a, b) in picks {
        let (x, y) = (Value::Int(seen[a % seen.len()]), Value::Int(seen[b % seen.len()]));
        let c = Value::str("C");
        match kind % 3 {
            0 => out.triggers.insert(1 + b % out.triggers.len(), Tuple::new("Probe", c, vec![x, y])),
            1 => {
                let swi = Value::Int(other_swi[a % other_swi.len()]);
                out.triggers.insert(1 + b % out.triggers.len(), Tuple::new("PacketIn", c, vec![swi, y]));
            }
            _ => out.state.insert(b % (out.state.len() + 1), Tuple::new("Unread", c, vec![x])),
        }
    }
    out
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
        let padding: Vec<_> = padding.into_iter().map(|(swi, hdr, prt)| (swi, "==", hdr, prt)).collect();
        let w = shuffled_world(trig, &padding, order);
        assert_bounded_is_a_prefix(&w, &flow_goal(goal_swi, goal_prt))?;
    }

    #[test]
    fn what_the_search_prices_is_what_it_builds(
        goal_swi in 1i64..6, goal_prt in 1i64..4,
        // Order comparisons, so that a literal's side matters, and headers
        // that switch numbers can equal, so that variable swaps occur.
        padding in prop::collection::vec(
            (1i64..6, prop::sample::select(vec!["==", "==", "<", ">", "!="]),
             prop::sample::select(vec![2i64, 3, 53, 80]), 1i64..4), 1..41),
        order in prop::collection::vec(any::<u32>(), 41),
        trig in prop::collection::vec((1i64..6, prop::sample::select(vec![53i64, 80])), 1..4),
    ) {
        // Nothing bounded away: every price is built, and only the syntax
        // check can drop a built candidate.
        let mut w = shuffled_world(trig, &padding, order);
        w.budget.max_candidates = usize::MAX;
        w.budget.max_cost = u32::MAX;
        let goal = flow_goal(goal_swi, goal_prt);
        let (_, stats, ledger) = generate_missing_with_ledger(&w, &goal);
        prop_assert_eq!(stats.materialised, ledger.priced.len() as u64);
        prop_assert_eq!(stats.raw_candidates, ledger.built.len() as u64);
        prop_assert_eq!(stats.materialised, stats.raw_candidates + stats.refused);
        let sorted = |mut costs: Vec<u32>| {
            costs.sort_unstable();
            costs
        };
        // The prices are those of the clone-and-evaluate reference …
        prop_assert_eq!(sorted(ledger.priced.clone()), sorted(reference_prices(&w, &goal)));
        // … they are the costs of the candidates built (these worlds refuse
        // none) …
        prop_assert_eq!(stats.refused, 0);
        prop_assert_eq!(sorted(ledger.priced.clone()), sorted(ledger.built.iter().map(|c| c.cost).collect()));
        // … and each is what the cost model charges for the edits built.
        for c in &ledger.built {
            prop_assert_eq!(c.cost, price_of_edits(&w, &c.repair), "{}", &c.description);
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The floor holds on generated programs too: order comparisons, a rule
    /// that joins the state, and `j1`, whose two selections can both fail
    /// while its join of the state fails as well.
    #[test]
    fn no_candidate_undercuts_its_rules_floor(
        goal_swi in 1i64..6, goal_prt in 1i64..4,
        padding in prop::collection::vec(
            (1i64..6, prop::sample::select(vec!["==", "<", ">", "!="]),
             prop::sample::select(vec![53i64, 80]), 1i64..4), 1..12),
        order in prop::collection::vec(any::<u32>(), 12),
        trig in prop::collection::vec((1i64..6, prop::sample::select(vec![53i64, 80])), 1..4),
        ports in prop::collection::vec((1i64..6, 1i64..4), 0..5),
        j1_swi in 1i64..6, j1_hdr in prop::sample::select(vec![53i64, 80]),
    ) {
        let mut w = joined_world(trig, &padding, order, &ports);
        let j1 = format!("j1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Port(@C,Swi,Prt), Swi == {j1_swi}, Hdr == {j1_hdr}.");
        Arc::make_mut(&mut w.program).rules.extend(parse_program("j1", &j1).unwrap().rules);
        assert_floors_hold(&w, &flow_goal(goal_swi, goal_prt))?;
    }

    /// What the search opens by lookup is what it opened by scanning every
    /// trigger and state tuple: tuples no tree can open or join change no
    /// candidate, no trace and no counter.
    #[test]
    fn tuples_no_tree_opens_change_nothing(
        goal_swi in 1i64..6, goal_prt in 1i64..4,
        padding in prop::collection::vec(
            (1i64..6, prop::sample::select(vec!["==", "<", "!="]),
             prop::sample::select(vec![53i64, 80]), 1i64..4), 1..12),
        order in prop::collection::vec(any::<u32>(), 12),
        trig in prop::collection::vec((1i64..6, prop::sample::select(vec![53i64, 80])), 1..4),
        ports in prop::collection::vec((1i64..6, 1i64..4), 0..5),
        picks in prop::collection::vec((0usize..3, 0usize..64, 0usize..64), 1..8),
    ) {
        let mut w = joined_world(trig, &padding, order, &ports);
        w.budget.max_candidates = usize::MAX;
        let goal = flow_goal(goal_swi, goal_prt);
        let (want, want_stats) = generate_missing(&w, &goal);
        let (got, got_stats) = generate_missing(&with_strangers(&w, &goal, &picks), &goal);
        prop_assert_eq!(counters(&got_stats), counters(&want_stats));
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, e)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(shown(g), shown(e), "candidate {}", i);
        }
    }

    /// A rewritten assignment reads only what the body or an earlier
    /// assignment binds, as `Engine::new` requires: every patch the search
    /// returns compiles, with `Hdr` bound by the body or by an assignment,
    /// and goals whose header and port often coincide.
    #[test]
    fn every_patch_candidate_compiles(
        hdr_assigned in any::<bool>(),
        swi in 1i64..4, hdr in 1i64..4, prt in 1i64..4,
        goal_swi in 1i64..4, goal_hdr in 1i64..4, goal_prt in 1i64..4,
        trig in prop::collection::vec((1i64..4, 1i64..4), 1..4),
    ) {
        let mut w = world_with(hdr_assigned, swi, hdr, prt, trig);
        w.budget.max_candidates = usize::MAX;
        let goal = Pattern {
            table: "FlowTable".into(),
            loc: Some(Value::Int(goal_swi)),
            args: vec![Some(Value::Int(goal_hdr)), Some(Value::Int(goal_prt))],
        };
        let (cands, _) = generate_missing(&w, &goal);
        every_patch_compiles(&w, &cands)?;
    }
}
