//! Property tests for §3.4's constraint pools, answered by searching the
//! domain under the rule's own evaluator ([`mpr_core::solve`]): a binding
//! found fires the rule as the engine does, it is the first in name then
//! domain order, one is found whenever one exists, and negating a
//! selection flips its verdict.

use mpr_core::solve::solve;
use mpr_ndlog::{Assign, Atom, BinOp, CmpOp, Env, Expr, PureFuncs, Rule, Selection, Term, Value};

/// A rule whose one body atom binds `L` and `w`–`z`; `d` and `e` are
/// bound only by an assignment, if one names them, and `x := …` must
/// agree with the body.
fn pool_rule(assigns: Vec<Assign>, sels: Vec<Selection>) -> Rule {
    let body = Atom::new("T", Term::Var("L".into()), BODY.map(|v| Term::Var(v.into())).to_vec());
    Rule::new("p", Atom::new("H", Term::Var("L".into()), vec![]), vec![body], sels, assigns)
}

const BODY: [&str; 4] = ["w", "x", "y", "z"];
const READ: [&str; 6] = ["w", "x", "y", "z", "d", "e"];

/// Integer arithmetic over `vars`, `/` and `%` included.
fn expr(vars: &'static [&'static str]) -> impl proptest::strategy::Strategy<Value = Expr> {
    use proptest::prelude::*;
    let leaf = prop_oneof![prop::sample::select(vars.to_vec()).prop_map(Expr::var), (-4i64..5).prop_map(Expr::int)];
    leaf.prop_recursive(2, 8, 2, |inner| {
        let ops = vec![BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
        (prop::sample::select(ops), inner.clone(), inner).prop_map(|(op, l, r)| Expr::Binary(op, Box::new(l), Box::new(r)))
    })
}

fn selection() -> impl proptest::strategy::Strategy<Value = Selection> {
    use proptest::prelude::*;
    (expr(&READ), prop::sample::select(CmpOp::ALL.to_vec()), expr(&READ)).prop_map(|(l, op, r)| Selection::new(l, op, r))
}

/// Assignments read the body only, so every one can be evaluated.
fn assigns() -> impl proptest::strategy::Strategy<Value = Vec<Assign>> {
    use proptest::prelude::*;
    let assign = (prop::sample::select(vec!["d", "e", "x"]), expr(&BODY)).prop_map(|(var, e)| Assign::new(var, e));
    prop::collection::vec(assign, 0..3)
}

/// An assignment as the engine runs it: it binds its variable, or
/// must agree with the value the variable holds.
fn assign(a: &Assign, env: &mut Env) -> bool {
    let Ok(v) = a.expr.eval(&*env, &mut PureFuncs) else { return false };
    match env.get(&a.var) {
        Some(held) => *held == v,
        None => env.insert(a.var.clone(), v).is_none(),
    }
}

/// What an engine firing `rule` under `env` does after the join: every
/// assignment runs, then every selection must hold.
fn fires(rule: &Rule, env: &mut Env) -> bool {
    rule.assigns.iter().all(|a| assign(a, env)) && rule.sels.iter().all(|s| s.eval(&*env, &mut PureFuncs) == Ok(true))
}

/// The variables a search of `rule` binds: those its atom, selections
/// and assignments read that `pinned` leaves open and no assignment
/// binds instead, by name.
fn open_vars(rule: &Rule, pinned: &Env) -> Vec<String> {
    let body = rule.body[0].vars();
    let mut vars = body.clone();
    rule.sels.iter().for_each(|s| vars.extend(s.vars()));
    rule.assigns.iter().for_each(|a| vars.extend(a.expr.vars()));
    let bound_elsewhere = |v: &String| !body.contains(v) && rule.assigns.iter().any(|a| a.var == *v);
    vars.into_iter().filter(|v| pinned.get(v).is_none() && !bound_elsewhere(v)).collect()
}

/// The first binding of the open variables, by brute force: every
/// binding in name, then domain order, fired as the engine would.
fn first_by_enumeration(rule: &Rule, pinned: &Env, domain: &[i64]) -> Option<Vec<(String, i64)>> {
    let vars = open_vars(rule, pinned);
    (0..domain.len().pow(vars.len() as u32))
        .map(|mut k| {
            // `k` in mixed radix, the last variable's digit least significant.
            let mut binding: Vec<(String, i64)> = vars.iter().rev().map(|v| {
                let value = domain[k % domain.len()];
                k /= domain.len();
                (v.clone(), value)
            }).collect();
            binding.reverse();
            binding
        })
        .find(|binding| {
            let mut env = pinned.clone();
            binding.iter().for_each(|(v, value)| drop(env.insert(v.clone(), Value::Int(*value))));
            fires(rule, &mut env)
        })
}

/// `L`, and `y` when it is pinned: what a join or the head leaves bound.
fn pinned(y: Option<i64>) -> Env {
    let mut env = Env::new();
    env.insert("L".into(), Value::str("c"));
    y.map(|y| env.insert("y".into(), Value::Int(y)));
    env
}

/// Ascending and distinct, like `World::domain`.
fn domain(mut values: Vec<i64>) -> Vec<i64> {
    values.sort_unstable();
    values.dedup();
    values
}

/// [`solve`] over `rule` from `pinned`: the binding of the open variables
/// it found.
fn searched(rule: &Rule, pinned: &Env, domain: &[i64]) -> Option<Vec<(String, i64)>> {
    let env = solve(rule, pinned, domain)?;
    let bound = |v: String| {
        let value = env.get(&v).and_then(Value::as_int).expect("an open variable is bound");
        (v, value)
    };
    Some(open_vars(rule, pinned).into_iter().map(bound).collect())
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    /// A binding found takes its values from the domain, and fires the
    /// rule as the engine would: its assignments evaluate and agree,
    /// and every selection holds.
    #[test]
    fn sat_witnesses_satisfy(
        assigns in assigns(),
        sels in proptest::collection::vec(selection(), 1..4),
        values in proptest::collection::vec(-5i64..6, 0..6),
        y in proptest::option::of(-5i64..6),
    ) {
        let (rule, pinned, domain) = (pool_rule(assigns, sels), pinned(y), domain(values));
        if let Some(binding) = searched(&rule, &pinned, &domain) {
            let mut env = pinned.clone();
            for (v, value) in &binding {
                proptest::prop_assert!(domain.contains(value), "{}={} is not in the domain", v, value);
                env.insert(v.clone(), Value::Int(*value));
            }
            proptest::prop_assert!(fires(&rule, &mut env), "{:?} does not fire {}", binding, rule);
        }
    }

    /// The search finds exactly the first binding in name, then domain
    /// order — none when there is none.
    #[test]
    fn solve_is_the_first_assignment_in_lexicographic_order(
        assigns in assigns(),
        sels in proptest::collection::vec(selection(), 0..4),
        values in proptest::collection::vec(-5i64..6, 0..5),
        y in proptest::option::of(-5i64..6),
    ) {
        let (rule, pinned, domain) = (pool_rule(assigns, sels), pinned(y), domain(values));
        proptest::prop_assert_eq!(searched(&rule, &pinned, &domain), first_by_enumeration(&rule, &pinned, &domain), "{}", rule);
    }

    /// Keep only the assignments and selections one binding satisfies:
    /// the search must find a binding (not necessarily that one) over a
    /// domain that holds its values.
    #[test]
    fn solver_is_complete_for_witnessed_pools(
        assigns in assigns(),
        sels in proptest::collection::vec(selection(), 1..6),
        witness in proptest::collection::vec(-4i64..5, 4),
    ) {
        let mut env = pinned(None);
        BODY.iter().zip(&witness).for_each(|(v, value)| drop(env.insert(v.to_string(), Value::Int(*value))));
        let kept: Vec<Assign> = assigns.into_iter().filter(|a| assign(a, &mut env)).collect();
        let sels: Vec<Selection> = sels.into_iter().filter(|s| s.eval(&env, &mut PureFuncs) == Ok(true)).collect();
        let rule = pool_rule(kept, sels);
        proptest::prop_assert!(searched(&rule, &pinned(None), &(-4..5).collect::<Vec<_>>()).is_some(), "{} unsolved, {:?} fires it", rule, witness);
    }

    /// What §4.2's change site relies on: under a full binding, a
    /// selection and its negation (`CmpOp::negate`) evaluate alike, and
    /// never to the same verdict.
    #[test]
    fn negation_flips_ground_truth(sel in selection(), values in proptest::collection::vec(-4i64..5, READ.len())) {
        let mut env = pinned(None);
        READ.iter().zip(&values).for_each(|(v, value)| drop(env.insert(v.to_string(), Value::Int(*value))));
        let negated = Selection::new(sel.lhs.clone(), sel.op.negate(), sel.rhs.clone());
        match (sel.eval(&env, &mut PureFuncs), negated.eval(&env, &mut PureFuncs)) {
            (Ok(a), Ok(b)) => proptest::prop_assert_ne!(a, b, "negation did not flip: {}", sel),
            (a, b) => proptest::prop_assert!(a.is_err() && b.is_err(), "{} decided one way only", sel),
        }
    }
}
