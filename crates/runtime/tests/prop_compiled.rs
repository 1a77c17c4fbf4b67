//! Compiled ≡ interpreted, rule by rule.
//!
//! Firing a rule through its compiled form (`CompiledRule::fire_scan`:
//! slots, column programs, the static selection schedule, the column
//! prefilter) must yield exactly the heads, in exactly the order, that the
//! name-keyed interpreter yields — `match_atom`, then the "every selection
//! whose variables are all bound" pass after the delta atom, after each
//! join extension and after each assignment, then `instantiate` — and must
//! draw the same number of `f_unique()` ids on the way. The prefilter may
//! reject a delta only if the interpreter fires nothing for it.

use mpr_ndlog::ast::*;
use mpr_ndlog::eval::{CountingFuncs, Env};
use mpr_ndlog::{parse_program, parse_rule, Catalog, Tuple, Value};
use mpr_runtime::compiled::{CompiledRule, ScanScratch};
use mpr_runtime::engine::{instantiate, match_atom};
use mpr_runtime::{Engine, EvalStrategy, Options};
use proptest::prelude::*;
use std::collections::HashMap;

type State = HashMap<String, Vec<(Tuple, ())>>;

fn state_of(tuples: &[Tuple]) -> State {
    let mut state = State::new();
    for t in tuples {
        state.entry(t.table.to_string()).or_default().push((t.clone(), ()));
    }
    state
}

fn vars_bound(e: &Expr, env: &Env) -> bool {
    e.vars().iter().all(|v| env.contains_key(v))
}

/// The interpreter's selection pass: every not-yet-done selection whose
/// variables are all bound, in source order; `false` on the first that
/// fails or errors.
fn ready_sels_hold(rule: &Rule, env: &Env, done: &mut [bool], funcs: &mut CountingFuncs) -> bool {
    for (sel, done) in rule.sels.iter().zip(done.iter_mut()) {
        if !*done && vars_bound(&sel.lhs, env) && vars_bound(&sel.rhs, env) {
            match sel.eval(env, funcs) {
                Ok(true) => *done = true,
                _ => return false,
            }
        }
    }
    true
}

/// The reference: `rule` fired with `delta` at body position `d` by the
/// name-keyed interpreter, level by level over `state` in stored order.
fn interpreted(rule: &Rule, d: usize, delta: &Tuple, state: &State, funcs: &mut CountingFuncs) -> Vec<Tuple> {
    let mut heads = Vec::new();
    let Some(env0) = match_atom(&rule.body[d], delta, &Env::new()) else {
        return heads;
    };
    let mut done0 = vec![false; rule.sels.len()];
    if !ready_sels_hold(rule, &env0, &mut done0, funcs) {
        return heads;
    }
    let mut matches = vec![(env0, done0)];
    for (ai, atom) in rule.body.iter().enumerate() {
        if ai == d {
            continue;
        }
        let mut next = Vec::new();
        for (env, done) in &matches {
            for (t, ()) in state.get(&atom.table).map_or(&[][..], Vec::as_slice) {
                let Some(env2) = match_atom(atom, t, env) else { continue };
                let mut done2 = done.clone();
                if ready_sels_hold(rule, &env2, &mut done2, funcs) {
                    next.push((env2, done2));
                }
            }
        }
        matches = next;
    }
    'fire: for (mut env, mut done) in matches {
        for a in &rule.assigns {
            let Ok(v) = a.expr.eval(&env, funcs) else { continue 'fire };
            match env.get(&a.var) {
                Some(existing) if *existing != v => continue 'fire,
                _ => {
                    env.insert(a.var.clone(), v);
                }
            }
            if !ready_sels_hold(rule, &env, &mut done, funcs) {
                continue 'fire;
            }
        }
        if done.iter().all(|&d| d) {
            heads.extend(instantiate(&rule.head, &env));
        }
    }
    heads
}

/// The heads per `(body position, delta index)` that fired anything.
type Fired = Vec<((usize, usize), Vec<Tuple>)>;

/// Fire `rule` both ways from every body position with every tuple of
/// `tuples` as the delta; returns what fired.
fn assert_compiled_equals_interpreted(rule: &Rule, tuples: &[Tuple]) -> Result<Fired, TestCaseError> {
    let compiled = CompiledRule::compile(rule, &Catalog::new());
    let Ok(compiled) = compiled else {
        // Only a variable bound nowhere fails to compile; the interpreter
        // then never finds the selection ready, or the assignment errors.
        let mut funcs = CountingFuncs::starting_at(7);
        for d in 0..rule.body.len() {
            for delta in tuples {
                let heads = interpreted(rule, d, delta, &state_of(tuples), &mut funcs);
                prop_assert!(heads.is_empty(), "{} fired uncompiled", rule);
            }
        }
        return Ok(Vec::new());
    };
    let state = state_of(tuples);
    let (mut f_compiled, mut f_interpreted) = (CountingFuncs::starting_at(7), CountingFuncs::starting_at(7));
    // One scratch for every firing, as a driver keeps it: what a firing
    // leaves in it must not leak into the next.
    let mut scratch = ScanScratch::default();
    let mut fired = Vec::new();
    for d in 0..rule.body.len() {
        for (i, delta) in tuples.iter().enumerate().filter(|(_, t)| *t.table == *rule.body[d].table) {
            let want = interpreted(rule, d, delta, &state, &mut f_interpreted);
            let mut got = Vec::new();
            compiled.fire_scan(
                d,
                delta,
                (),
                |table, _after_delta| state.get(table).map_or(&[][..], Vec::as_slice),
                |(), ()| Some(()),
                &mut f_compiled,
                &mut scratch,
                &mut got,
            );
            let got: Vec<Tuple> = got.into_iter().map(|(head, ())| head).collect();
            prop_assert_eq!(&got, &want, "{} with {} at position {}", rule, delta, d);
            prop_assert_eq!(f_compiled.issued(), f_interpreted.issued(), "f_unique ids drawn by {}", rule);
            if !compiled.accepts(d, delta) {
                prop_assert!(want.is_empty(), "prefilter of {} rejected {} at {}", rule, delta, d);
            }
            if !want.is_empty() {
                fired.push(((d, i), want));
            }
        }
    }
    Ok(fired)
}

// ---------------------------------------------------------------------------
// generated rules

fn value() -> impl Strategy<Value = Value> {
    // Few distinct values, so that joins and repeats do match.
    prop_oneof![
        14 => (0i64..3).prop_map(Value::Int),
        1 => Just(Value::str("s")),
        1 => Just(Value::Wild),
    ]
}

/// A variable, as a pick among the ones a rule binds (resolved once the
/// rule's body and assignment targets are known) — rarely one it does not.
fn var() -> impl Strategy<Value = Expr> {
    prop_oneof![31 => (0usize..8).prop_map(|i| Expr::Var(format!("#{i}"))), 1 => Just(Expr::var("Unbound"))]
}

fn atom() -> impl Strategy<Value = Atom> {
    let term = || {
        prop_oneof![
            6 => prop::sample::select(vec!["L", "A", "B", "C", "D"]).prop_map(|v| Term::Var(v.into())),
            1 => value().prop_map(Term::Const),
        ]
    };
    (0u8..2, term(), term(), term()).prop_map(|(t, loc, a, b)| Atom::new(format!("T{t}"), loc, vec![a, b]))
}

/// Operands a selection or an assignment draws from: variables,
/// constants, arithmetic that can fail (`/ 0`, `Int + Str`), `f_unique()`.
fn operand() -> impl Strategy<Value = Expr> {
    let leaf = || prop_oneof![var(), value().prop_map(Expr::Const)];
    prop_oneof![
        8 => leaf(),
        2 => (prop::sample::select(vec![BinOp::Add, BinOp::Div, BinOp::Mod]), leaf(), leaf())
            .prop_map(|(op, l, r)| Expr::Binary(op, Box::new(l), Box::new(r))),
        1 => Just(Expr::Call("f_unique".into(), vec![])),
    ]
}

/// Mostly `Var op Const` and `Const op Var` — what the prefilter takes —
/// of every operator; sometimes anything.
fn selection() -> impl Strategy<Value = Selection> {
    let op = || prop::sample::select(CmpOp::ALL.to_vec());
    prop_oneof![
        3 => (var(), op(), value()).prop_map(|(v, op, c)| Selection::new(v, op, Expr::Const(c))),
        3 => (value(), op(), var()).prop_map(|(c, op, v)| Selection::new(Expr::Const(c), op, v)),
        2 => (operand(), op(), operand()).prop_map(|(l, op, r)| Selection::new(l, op, r)),
    ]
}

/// An assignment to a fresh variable, or onto one the body binds.
fn assign() -> impl Strategy<Value = Assign> {
    (prop::sample::select(vec!["P", "Q", "A"]), operand()).prop_map(|(v, e)| Assign::new(v, e))
}

/// Resolve the `#i` picks of `e` against `bound`.
fn resolve(e: &mut Expr, bound: &[String]) {
    match e {
        Expr::Var(v) => {
            if let Some(i) = v.strip_prefix('#') {
                *v = bound[i.parse::<usize>().expect("a pick") % bound.len()].clone();
            }
        }
        Expr::Const(_) => {}
        Expr::Binary(_, l, r) => {
            resolve(l, bound);
            resolve(r, bound);
        }
        Expr::Call(_, args) => args.iter_mut().for_each(|a| resolve(a, bound)),
    }
}

fn rule() -> impl Strategy<Value = Rule> {
    (
        prop::collection::vec(atom(), 1..=3),
        prop::collection::vec(selection(), 0..=3),
        prop::collection::vec(assign(), 0..=2),
        prop::collection::vec(var(), 3),
    )
        .prop_map(|(body, mut sels, mut assigns, mut head)| {
            let mut bound: Vec<String> = body.iter().flat_map(|a| a.vars()).collect();
            bound.extend(assigns.iter().map(|a| a.var.clone()));
            if bound.is_empty() {
                bound.push("Unbound".into());
            }
            sels.iter_mut().for_each(|s| {
                resolve(&mut s.lhs, &bound);
                resolve(&mut s.rhs, &bound);
            });
            // An assignment may read the body and the assignments before it.
            let n_body = bound.len() - assigns.len();
            for (j, a) in assigns.iter_mut().enumerate() {
                resolve(&mut a.expr, &bound[..(n_body + j).max(1)]);
            }
            head.iter_mut().for_each(|e| resolve(e, &bound));
            let mut head = head.into_iter().map(|e| match e {
                Expr::Var(v) => Term::Var(v),
                _ => unreachable!("`var()` yields variables"),
            });
            let loc = head.next().expect("three head terms");
            Rule::new("r", Atom::new("H", loc, head.collect()), body, sels, assigns)
        })
}

fn tuple() -> impl Strategy<Value = Tuple> {
    (0u8..2, value(), value(), value()).prop_map(|(t, loc, a, b)| Tuple::new(format!("T{t}"), loc, vec![a, b]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn compiled_firing_equals_interpreted_firing(
        rule in rule(),
        tuples in prop::collection::vec(tuple(), 4..24),
    ) {
        assert_compiled_equals_interpreted(&rule, &tuples)?;
    }
}

// ---------------------------------------------------------------------------
// named cases

fn int(i: i64) -> Value {
    Value::Int(i)
}

fn t0(args: &[i64]) -> Tuple {
    Tuple::new("T0", int(1), args.iter().map(|&a| int(a)).collect())
}

/// Both ways agree on `rule` over `tuples`; the heads, flattened in firing
/// order.
fn heads(rule: &Rule, tuples: &[Tuple]) -> Vec<Tuple> {
    let fired = assert_compiled_equals_interpreted(rule, tuples).unwrap();
    fired.into_iter().flat_map(|(_, heads)| heads).collect()
}

fn h(args: &[i64]) -> Tuple {
    Tuple::new("H", int(1), args.iter().map(|&a| int(a)).collect())
}

#[test]
fn a_variable_twice_in_one_atom_must_agree_with_itself() {
    let rule = parse_rule("r H(@L,X) :- T0(@L,X,X).").unwrap();
    assert_eq!(heads(&rule, &[t0(&[2, 2]), t0(&[2, 3])]), [h(&[2])]);
    // Also when the repeat spans the location, and in a join extension.
    let rule = parse_rule("r H(@L,Y) :- T0(@L,L,Y), T0(@L,Y,Y).").unwrap();
    assert_eq!(heads(&rule, &[t0(&[1, 5]), t0(&[5, 5]), t0(&[2, 5])]), [h(&[5]), h(&[5])]);
}

#[test]
fn an_assign_onto_a_bound_variable_is_a_comparison() {
    let rule = parse_rule("r H(@L,X,Y) :- T0(@L,X,Y), Y := X + 1.").unwrap();
    // (1,2) agrees with the assignment; (1,3) conflicts.
    assert_eq!(heads(&rule, &[t0(&[1, 2]), t0(&[1, 3])]), [h(&[1, 2])]);
}

#[test]
fn a_selection_with_no_variables_decides_for_every_delta() {
    let always = parse_rule("r H(@L,X) :- T0(@L,X,Y), 1 == 1.").unwrap();
    assert_eq!(heads(&always, &[t0(&[4, 0])]), [h(&[4])]);
    let never = parse_rule("r H(@L,X) :- T0(@L,X,Y), 1 == 2.").unwrap();
    assert_eq!(heads(&never, &[t0(&[4, 0])]), []);
}

#[test]
fn a_selection_or_assign_that_errors_means_no_firing() {
    let tuples = [t0(&[4, 0]), t0(&[4, 2]), Tuple::new("T0", int(1), vec![int(4), Value::str("s")])];
    let div = parse_rule("r H(@L,X) :- T0(@L,X,Y), X / Y == 2.").unwrap();
    assert_eq!(heads(&div, &tuples), [h(&[4])], "only 4 / 2 evaluates");
    let add = parse_rule("r H(@L,Z) :- T0(@L,X,Y), Z := X + Y.").unwrap();
    assert_eq!(heads(&add, &tuples), [h(&[4]), h(&[6])], "Int + Str is a type error");
    let modulo = parse_rule("r H(@L,Z) :- T0(@L,X,Y), Z := X % Y, Z == 0.").unwrap();
    assert_eq!(heads(&modulo, &tuples), [h(&[0])]);
}

#[test]
fn a_wild_constant_never_equals_and_always_differs() {
    let wild = |op| {
        let mut rule = parse_rule("r H(@L,X) :- T0(@L,X,Y).").unwrap();
        rule.sels.push(Selection::new(Expr::var("Y"), op, Expr::Const(Value::Wild)));
        rule
    };
    let tuples = [t0(&[4, 0]), Tuple::new("T0", int(1), vec![int(5), Value::Wild])];
    assert_eq!(heads(&wild(CmpOp::Eq), &tuples), [], "not even `*` equals `*` under `==`");
    assert_eq!(heads(&wild(CmpOp::Ne), &tuples), [h(&[4]), h(&[5])]);
    // The prefilter holds both tests (the column is the delta's own).
    let compiled = CompiledRule::compile(&wild(CmpOp::Eq), &Catalog::new()).unwrap();
    assert!(tuples.iter().all(|t| !compiled.accepts(0, t)));
}

#[test]
fn a_self_join_fires_from_both_positions() {
    let rule = parse_rule("r H(@L,X,Z) :- T0(@L,X,Y), T0(@L,Y,Z), X != Z.").unwrap();
    let tuples = [t0(&[1, 2]), t0(&[2, 3])];
    let fired = assert_compiled_equals_interpreted(&rule, &tuples).unwrap();
    // (1,2) as the first atom joins (2,3); (2,3) as the second joins (1,2).
    assert_eq!(fired, [((0, 0), vec![h(&[1, 3])]), ((1, 1), vec![h(&[1, 3])])]);
}

#[test]
fn an_atom_may_bind_forty_variables() {
    let vars: Vec<String> = (0..40).map(|i| format!("V{i}")).collect();
    let rule = parse_rule(&format!(
        "r H(@L,V39,V0) :- Wide(@L,{}), Wide(@L,{}), V0 < V39.",
        vars.join(","),
        vars.iter().rev().cloned().collect::<Vec<_>>().join(","),
    ))
    .unwrap();
    let wide = |args: Vec<i64>| Tuple::new("Wide", int(1), args.into_iter().map(int).collect());
    let tuples = [wide((0..40).collect()), wide((0..40).rev().collect())];
    let fired = assert_compiled_equals_interpreted(&rule, &tuples).unwrap();
    assert_eq!(fired, [((0, 0), vec![h(&[39, 0])]), ((1, 1), vec![h(&[39, 0])])]);
}

/// A selection that fails *before* an `f_unique()` assignment costs no id;
/// one that fails *after* it has already drawn one. Two rules draw from
/// the one counter, so the ids the batch engine hands out equal the
/// pipelined reference's only if both reject at the same point.
#[test]
fn the_id_sequence_equals_the_pipelined_engines() {
    let program = parse_program(
        "ids",
        r"
        materialize(E, event, 2, keys()).
        materialize(Out, infinity, 3, keys(0,1,2)).
        r1 Out(@N,X,Y,Id) :- E(@N,X,Y), X > 0, Id := f_unique(), Id % 2 == Y.
        r2 Out(@N,X,Y,Id) :- E(@N,X,Y), Id := f_unique(), Id % 3 != X, Y < 2.
        ",
    )
    .unwrap();
    let run = |strategy| {
        let mut e = Engine::with_options(&program, Options { strategy, ..Options::default() }).unwrap();
        for i in 0..40 {
            e.insert(Tuple::new("E", int(1), vec![int(i % 4), int(i % 3)])).unwrap();
        }
        (e.tuples("Out"), e.total_derivations())
    };
    let (batch, pipelined) = (run(EvalStrategy::Batch), run(EvalStrategy::Pipelined));
    assert_eq!(batch, pipelined);
    let ids: Vec<i64> = batch.0.iter().filter_map(|t| t.args[2].as_int()).collect();
    assert!(ids.len() > 10 && ids.len() < 60, "some firings fail after drawing an id: {ids:?}");
}
