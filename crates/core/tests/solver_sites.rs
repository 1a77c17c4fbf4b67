//! The explorer's two constraint-pool sites (§3.4), each a search of the
//! world's domain under the rule's own evaluator, reached by a small world
//! and pinned candidate for candidate:
//!
//! - (a) a missing tuple whose rule joins an empty state table under a
//!   selection on that table's columns: the search binds the columns the
//!   join left free, the rule's assignments compute what they assign, and
//!   the explorer offers "Manually inserting the … tuple …" with the values
//!   found, once per distinct tuple;
//! - (b) an existing tuple (Fig. 7 style) whose base-tuple column a
//!   selection constrains: the search looks for a value under which that
//!   selection fails, and the explorer offers a `ChangeTuple` to the first.
//!
//! Every variable searched draws from the world's domain: the program's
//! constants, the values the triggers and state exhibit, and the goal's,
//! each with its ±1 neighbours, ascending. Every state tuple offered is
//! inserted into an engine with the world's state and triggers, and must
//! make its rule derive the goal there.

use mpr_core::cost::SearchBudget;
use mpr_core::explore::{generate_existing, generate_missing, DerivationRecord, World};
use mpr_core::repair::{Candidate, Repair};
use mpr_ndlog::{parse_program, Program, Tuple, Value};
use mpr_provenance::Pattern;
use mpr_runtime::Engine;

fn world(src: &str, triggers: Vec<Tuple>, state: Vec<Tuple>, derivations: Vec<DerivationRecord>) -> World {
    World {
        program: parse_program("solver-sites", src).expect("the program parses").into(),
        triggers,
        state,
        derivations,
        budget: SearchBudget { max_candidates: usize::MAX, ..SearchBudget::default() },
    }
}

fn tuple(table: &str, args: &[i64]) -> Tuple {
    Tuple::new(table, Value::str("C"), args.iter().copied().map(Value::Int).collect())
}

fn flow_goal(swi: i64, hdr: i64, prt: i64) -> Pattern {
    Pattern {
        table: "FlowTable".into(),
        loc: Some(Value::Int(swi)),
        args: vec![Some(Value::Int(hdr)), Some(Value::Int(prt))],
    }
}

fn rendered(candidates: &[Candidate]) -> Vec<String> {
    candidates.iter().map(|c| format!("{} | {} | {:?}", c.cost, c.description, c.repair)).collect()
}

/// Inserted with the world's state and triggers, every state tuple offered
/// makes the rule its trace names derive `goal`: the engine judges the
/// search.
fn assert_insertions_derive(w: &World, goal: &Pattern, candidates: &[Candidate]) {
    let args = goal.args.iter().map(|a| a.clone().expect("a concrete goal")).collect();
    let goal = Tuple::new(&*goal.table, goal.loc.clone().expect("a concrete goal"), args);
    for c in candidates {
        let Repair::InsertTuple(inserted) = &c.repair else { continue };
        if inserted.table == goal.table {
            continue;
        }
        let tree = |line: &String| line.strip_prefix("NDERIVE[")?.strip_suffix(" via meta rule h2]").map(str::to_string);
        let id = c.trace.iter().find_map(tree).expect("an insertion names its rule");
        let rule = w.program.rule(&id).expect("the rule exists").clone();
        let mut engine = Engine::new(&Program { rules: vec![rule], ..(*w.program).clone() }).expect("the rule compiles");
        for t in w.state.iter().chain([inserted]).chain(&w.triggers) {
            engine.insert(t.clone()).expect("the engine runs");
        }
        assert!(engine.contains(&goal), "`{}` does not derive {goal}", c.description);
    }
}

/// The missing `FlowTable(@1,80,2)` of a rule that joins `Allowed`, which
/// holds nothing, under selections on its two free columns.
const SITE_A: &str = r"
    materialize(PacketIn, event, 2, keys()).
    materialize(Allowed, infinity, 3, keys(0,1,2)).
    materialize(FlowTable, infinity, 2, keys(0,1)).
    r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Allowed(@C,Hdr,Lo,Hi), Hi > 2, Lo > Hi, Prt := 2.
";

#[test]
fn an_empty_state_table_is_filled_from_the_pool() {
    let w = world(SITE_A, vec![tuple("PacketIn", &[1, 80])], vec![], vec![]);
    let (candidates, stats) = generate_missing(&w, &flow_goal(1, 80, 2));
    assert_eq!(stats.pools_solved, 1);
    assert_insertions_derive(&w, &flow_goal(1, 80, 2), &candidates);
    // The domain is [0, 1, 2, 3, 79, 80, 81]: `Hi` is named first, so it
    // takes the first value above 2, and `Lo` the first above that.
    assert_eq!(
        rendered(&candidates),
        [
            r#"3 | Manually inserting the Allowed tuple Allowed(@'C',80,79,3) | InsertTuple(Tuple { table: "Allowed", loc: Str("C"), args: [Int(80), Int(79), Int(3)] })"#,
            r#"3 | Manually installing a flow entry | InsertTuple(Tuple { table: "FlowTable", loc: Int(1), args: [Int(80), Int(2)] })"#,
        ]
    );
}

/// Site (a) again, with a selection on `D`, which the rule assigns from the
/// missing column `Lvl`: `D < -3` is satisfiable, and `Lvl` draws from the
/// domain.
const SITE_A_ASSIGNED: &str = r"
    materialize(PacketIn, event, 2, keys()).
    materialize(Allowed, infinity, 2, keys(0,1)).
    materialize(FlowTable, infinity, 2, keys(0,1)).
    r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Allowed(@C,Hdr,Lvl), D := Lvl - 5, D < -3, Prt := 2.
";

#[test]
fn a_selection_on_a_variable_no_atom_binds_draws_from_the_domain() {
    let w = world(SITE_A_ASSIGNED, vec![tuple("PacketIn", &[1, 80])], vec![], vec![]);
    let (candidates, stats) = generate_missing(&w, &flow_goal(1, 80, 2));
    assert_eq!(stats.pools_solved, 1);
    assert_insertions_derive(&w, &flow_goal(1, 80, 2), &candidates);
    // The domain starts -4, -3, -2 (around the program's -3): `Lvl` takes
    // -4, so `D` = -9 < -3.
    assert_eq!(
        rendered(&candidates),
        [
            r#"3 | Manually inserting the Allowed tuple Allowed(@'C',80,-4) | InsertTuple(Tuple { table: "Allowed", loc: Str("C"), args: [Int(80), Int(-4)] })"#,
            r#"3 | Manually installing a flow entry | InsertTuple(Tuple { table: "FlowTable", loc: Int(1), args: [Int(80), Int(2)] })"#,
        ]
    );
}

/// Site (a) where the assignment moves `D` away from what the selection
/// needs: `D := Lvl + 100, D < 0` holds only for `Lvl < -100`, and the
/// domain is [-1, 0, 1, 2, 3, 79, 80, 81, 99, 100, 101], so no `Allowed`
/// tuple is offered. `Allowed(@'C',80,-1)` would make `D` 99, and an engine
/// holding it and the trigger derives nothing.
const SITE_A_ASSIGNED_AWAY: &str = r"
    materialize(PacketIn, event, 2, keys()).
    materialize(Allowed, infinity, 2, keys(0,1)).
    materialize(FlowTable, infinity, 2, keys(0,1)).
    r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Allowed(@C,Hdr,Lvl), D := Lvl + 100, D < 0, Prt := 2.
";

#[test]
fn an_assigned_variable_is_computed_not_searched() {
    let w = world(SITE_A_ASSIGNED_AWAY, vec![tuple("PacketIn", &[1, 80])], vec![], vec![]);
    let (candidates, stats) = generate_missing(&w, &flow_goal(1, 80, 2));
    assert_eq!(stats.pools_solved, 1);
    assert_insertions_derive(&w, &flow_goal(1, 80, 2), &candidates);
    assert_eq!(
        rendered(&candidates),
        [r#"3 | Manually installing a flow entry | InsertTuple(Tuple { table: "FlowTable", loc: Int(1), args: [Int(80), Int(2)] })"#]
    );
}

/// Two rules join the empty `Cfg` with its columns swapped, so the missing
/// `FlowTable(@3,80,2)` needs `Cfg(@'C',80,2)` under one and
/// `Cfg(@'C',2,80)` under the other.
const SITE_A_SWAPPED: &str = r"
    materialize(PacketIn, event, 2, keys()).
    materialize(Cfg, infinity, 2, keys(0,1)).
    materialize(FlowTable, infinity, 2, keys(0,1)).
    r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Cfg(@C,Hdr,Prt).
    r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Cfg(@C,Prt,Hdr).
";

#[test]
fn two_insertions_into_one_table_are_two_candidates() {
    let w = world(SITE_A_SWAPPED, vec![tuple("PacketIn", &[3, 80])], vec![], vec![]);
    let (candidates, _) = generate_missing(&w, &flow_goal(3, 80, 2));
    assert_insertions_derive(&w, &flow_goal(3, 80, 2), &candidates);
    assert_eq!(
        rendered(&candidates),
        [
            r#"3 | Manually inserting the Cfg tuple Cfg(@'C',2,80) | InsertTuple(Tuple { table: "Cfg", loc: Str("C"), args: [Int(2), Int(80)] })"#,
            r#"3 | Manually inserting the Cfg tuple Cfg(@'C',80,2) | InsertTuple(Tuple { table: "Cfg", loc: Str("C"), args: [Int(80), Int(2)] })"#,
            r#"3 | Manually installing a flow entry | InsertTuple(Tuple { table: "FlowTable", loc: Int(3), args: [Int(80), Int(2)] })"#,
        ]
    );
}

/// Fig. 7's shape: `FlowTable(@1,80,2)` exists, derived from the seeded
/// `WebLoadBalancer(@'C',80,2)` through `Prt > 1`.
const SITE_B: &str = r"
    materialize(PacketIn, event, 2, keys()).
    materialize(WebLoadBalancer, infinity, 2, keys(0)).
    materialize(FlowTable, infinity, 2, keys(0,1)).
    r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1, Prt > 1.
";

#[test]
fn a_base_tuple_changes_to_the_first_value_that_breaks_the_derivation() {
    let (trigger, seed) = (tuple("PacketIn", &[1, 80]), tuple("WebLoadBalancer", &[80, 2]));
    let derivation = DerivationRecord {
        rule: "r1".into(),
        body: vec![trigger.clone(), seed.clone()],
        base_mask: vec![false, true],
    };
    let w = world(SITE_B, vec![trigger], vec![seed], vec![derivation]);
    let culprit = Tuple::new("FlowTable", Value::Int(1), vec![Value::Int(80), Value::Int(2)]);
    let (candidates, _) = generate_existing(&w, &culprit);
    // `Prt > 1` fails for the first time at 0, the first value of
    // [0, 1, 2, 3, 79, 80, 81].
    assert_eq!(
        rendered(&candidates),
        [
            r#"1 | Changing Prt > 1 in r1 to Prt > 2 | Patch(Patch { edits: [SetSelectionExpr { rule: "r1", sel: 1, side: Rhs, expr: Const(Int(2)) }] })"#,
            r#"1 | Changing Swi == 1 in r1 to Swi == 0 | Patch(Patch { edits: [SetSelectionExpr { rule: "r1", sel: 0, side: Rhs, expr: Const(Int(0)) }] })"#,
            r#"2 | Changing Prt > 1 in r1 to Prt <= 1 | Patch(Patch { edits: [SetSelectionOp { rule: "r1", sel: 1, op: Le }] })"#,
            r#"2 | Changing Swi == 1 in r1 to Swi != 1 | Patch(Patch { edits: [SetSelectionOp { rule: "r1", sel: 0, op: Ne }] })"#,
            r#"2 | Changing WebLoadBalancer(@'C',80,2) to WebLoadBalancer(@'C',80,0) | ChangeTuple { from: Tuple { table: "WebLoadBalancer", loc: Str("C"), args: [Int(80), Int(2)] }, to: Tuple { table: "WebLoadBalancer", loc: Str("C"), args: [Int(80), Int(0)] } }"#,
            r#"3 | Deleting the WebLoadBalancer tuple WebLoadBalancer(@'C',80,2) | DeleteTuple(Tuple { table: "WebLoadBalancer", loc: Str("C"), args: [Int(80), Int(2)] })"#,
        ]
    );
}

/// `r1` compares with `i64::MAX`, so the domain reaches the top of `i64`;
/// `r2` searches `Lo` from the domain's first values. The neighbour above
/// `i64::MAX` does not exist and is left out: it neither overflows nor
/// wraps to `i64::MIN`, which would be the first value `Lo < Hdr` takes.
const SITE_A_EXTREME: &str = r"
    materialize(PacketIn, event, 2, keys()).
    materialize(Allowed, infinity, 2, keys(0,1)).
    materialize(FlowTable, infinity, 2, keys(0,1)).
    r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 9223372036854775807, Prt := 2.
    r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Allowed(@C,Hdr,Lo), Lo < Hdr, Prt := 2.
";

#[test]
fn an_extreme_constant_has_no_neighbour_past_the_range() {
    let w = world(SITE_A_EXTREME, vec![tuple("PacketIn", &[1, 80])], vec![], vec![]);
    let (candidates, _) = generate_missing(&w, &flow_goal(1, 80, 2));
    assert_insertions_derive(&w, &flow_goal(1, 80, 2), &candidates);
    let rendered = rendered(&candidates);
    assert!(rendered.iter().all(|c| !c.contains(&i64::MIN.to_string())), "{rendered:#?}");
    // The domain is [0, 1, 2, 3, 79, 80, 81, i64::MAX - 1, i64::MAX]: `Lo`
    // takes 0.
    assert_eq!(
        rendered,
        [
            r#"2 | Changing Swi == 9223372036854775807 in r1 to Swi != 9223372036854775807 | Patch(Patch { edits: [SetSelectionOp { rule: "r1", sel: 0, op: Ne }] })"#,
            r#"2 | Changing Swi == 9223372036854775807 in r1 to Swi < 9223372036854775807 | Patch(Patch { edits: [SetSelectionOp { rule: "r1", sel: 0, op: Lt }] })"#,
            r#"2 | Changing Swi == 9223372036854775807 in r1 to Swi <= 9223372036854775807 | Patch(Patch { edits: [SetSelectionOp { rule: "r1", sel: 0, op: Le }] })"#,
            r#"2 | Changing Swi == 9223372036854775807 in r1 to Swi == 1 | Patch(Patch { edits: [SetSelectionExpr { rule: "r1", sel: 0, side: Rhs, expr: Const(Int(1)) }] })"#,
            r#"3 | Deleting Swi == 9223372036854775807 in r1 | Patch(Patch { edits: [DeleteSelection { rule: "r1", sel: 0 }] })"#,
            r#"3 | Manually inserting the Allowed tuple Allowed(@'C',80,0) | InsertTuple(Tuple { table: "Allowed", loc: Str("C"), args: [Int(80), Int(0)] })"#,
            r#"3 | Manually installing a flow entry | InsertTuple(Tuple { table: "FlowTable", loc: Int(1), args: [Int(80), Int(2)] })"#,
        ]
    );
}
