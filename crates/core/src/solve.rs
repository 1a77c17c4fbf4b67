//! §3.4's constraint pools, answered by searching the world's domain under
//! the rule's own evaluator: for the explorer's two pool sites, and [`solve`].

use crate::explore::Scope;
use mpr_ndlog::eval::{Bindings, PureFuncs};
use mpr_ndlog::{Env, Expr, Rule, Selection, Value};
use std::borrow::Cow;

/// The pool of `rule` fired from `pinned`, every selection required to hold: `pinned`, the
/// first binding over `domain` of what it leaves open, and what the assignments compute.
pub fn solve(rule: &Rule, pinned: &Env, domain: &[i64]) -> Option<Env> {
    let mut scope = Scope::default();
    pinned.iter().for_each(|(v, value)| scope.set(v, Cow::Borrowed(value)));
    let holds = |sel: &Selection, scope: &Scope| sel.eval(scope, &mut PureFuncs) == Ok(true);
    let seed = rule.body.iter().flat_map(|a| a.var_names());
    search_domain(rule, seed, |_| true, holds, domain, &mut scope).then(|| scope.iter().map(|(v, x)| (v.into(), x.clone())).collect())
}

/// A constraint pool (§3.4), answered by searching the domain under the
/// rule's own evaluator. The variables `seed` names, and those the judged
/// selections and the rule's assignments read, are bound where `scope`
/// leaves them open and no assignment binds them instead: in name order,
/// each to `domain`'s values ascending. The first binding under which every
/// assignment evaluates — binding its variable, or agreeing with the value
/// the variable holds, as the engine requires — and every selection
/// `judged` names `passes` is left in `scope`; `false` if there is none.
/// Each assignment and selection is judged as soon as what it reads is
/// bound, so a refuted prefix is cut there.
pub(crate) fn search_domain<'a>(
    rule: &'a Rule,
    seed: impl IntoIterator<Item = &'a str>,
    judged: impl Fn(&Selection) -> bool,
    passes: impl Fn(&Selection, &Scope<'a>) -> bool,
    domain: &[i64],
    scope: &mut Scope<'a>,
) -> bool {
    let in_body = |v: &str| rule.body.iter().any(|a| a.var_names().any(|w| w == v));
    let assigned = |v: &str| rule.assigns.iter().any(|a| a.var == v);
    let mut free: Vec<&'a str> = seed.into_iter().collect();
    let exprs = rule.sels.iter().filter(|s| judged(s)).flat_map(|s| [&s.lhs, &s.rhs]);
    exprs.chain(rule.assigns.iter().map(|a| &a.expr)).for_each(|e| e.for_each_var(&mut |v| free.push(v)));
    free.retain(|v| scope.get(v).is_none() && (in_body(v) || !assigned(v)));
    free.sort_unstable();
    free.dedup();
    // When each variable is bound: once `free[..level]` are. What `scope`
    // holds is bound at 0, what nothing binds never (past the last level,
    // where reading it fails the check).
    let mut levels: Vec<(&str, usize)> = free.iter().enumerate().map(|(i, &v)| (v, i + 1)).collect();
    let at = |levels: &[(&str, usize)], v: &str| match scope.get(v) {
        Some(_) => 0,
        None => levels.iter().find(|(w, _)| *w == v).map_or(free.len(), |&(_, level)| level),
    };
    let ready = |levels: &[(&str, usize)], e: &Expr| {
        let mut level = 0;
        e.for_each_var(&mut |v| level = level.max(at(levels, v)));
        level
    };
    // What is judged at each level, in the engine's order: the
    // assignments, then the selections.
    let mut checks: Vec<(usize, Check)> = Vec::new();
    for (ai, a) in rule.assigns.iter().enumerate() {
        let binds = scope.get(&a.var).is_none() && levels.iter().all(|(v, _)| *v != a.var);
        let level = ready(&levels, &a.expr);
        checks.push((if binds { level } else { level.max(at(&levels, &a.var)) }, Check::Assign(ai, binds)));
        if binds {
            levels.push((&a.var, level));
        }
    }
    for (si, sel) in rule.sels.iter().enumerate().filter(|(_, s)| judged(s)) {
        checks.push((ready(&levels, &sel.lhs).max(ready(&levels, &sel.rhs)), Check::Selection(si)));
    }
    let holds = |level: usize, scope: &mut Scope<'a>| {
        checks.iter().filter(|(l, _)| *l == level).all(|&(_, check)| match check {
            Check::Selection(si) => passes(&rule.sels[si], scope),
            Check::Assign(ai, binds) => {
                let a = &rule.assigns[ai];
                match a.expr.eval(&*scope, &mut PureFuncs) {
                    Ok(v) if binds => {
                        scope.set(&a.var, Cow::Owned(v));
                        true
                    }
                    Ok(v) => scope.get(&a.var) == Some(&v),
                    Err(_) => false,
                }
            }
        })
    };
    // Depth first: `tried[i]` counts the values `free[i]` has taken.
    let (mut tried, mut level) = (vec![0; free.len()], 0);
    if !holds(0, scope) {
        return false;
    }
    while let Some(&var) = free.get(level) {
        match domain.get(tried[level]) {
            Some(&v) => {
                tried[level] += 1;
                scope.set(var, Cow::Owned(Value::Int(v)));
                level += usize::from(holds(level + 1, scope));
            }
            None if level == 0 => return false,
            None => {
                tried[level] = 0;
                level -= 1;
            }
        }
    }
    true
}

/// What [`search_domain`] judges: an assignment, which binds its variable
/// (`true`) or must agree with the value it holds, or a selection.
#[derive(Clone, Copy)]
enum Check {
    Assign(usize, bool),
    Selection(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`search_domain`] over the last body atom of the rule `src`, from
    /// `pinned`, with every selection required to `hold` (or, with `hold`
    /// false, every selection reading the atom to fail, as for a changed
    /// base tuple): the scope it leaves, and how many selections it judged.
    fn search_rule(src: &str, pinned: &[(&'static str, Value)], domain: &[i64], hold: bool) -> (Option<String>, usize) {
        let rule = mpr_ndlog::parse_rule(src).expect("the rule parses");
        let atom = rule.body.last().expect("a body");
        let mut scope = Scope::default();
        pinned.iter().for_each(|(v, value)| scope.set(v, Cow::Borrowed(value)));
        let judged = std::cell::Cell::new(0);
        let passes = |sel: &Selection, scope: &Scope| {
            judged.set(judged.get() + 1);
            let side = |e: &Expr| e.eval(scope, &mut PureFuncs).ok();
            matches!((side(&sel.lhs), side(&sel.rhs)), (Some(l), Some(r)) if if hold { sel.op.eval(&l, &r) } else { sel.op.negate().eval(&l, &r) })
        };
        let reads = |sel: &Selection| hold || atom.var_names().any(|v| sel.vars().contains(v));
        let found = search_domain(&rule, atom.var_names(), reads, passes, domain, &mut scope);
        let shown = found.then(|| scope.iter().map(|(v, value)| format!("{v}={value}")).collect::<Vec<_>>().join(", "));
        (shown, judged.get())
    }

    /// A join equality is a shared variable or a selection between two:
    /// `W` and `X` are searched in name order until `X == W` holds with
    /// both in range.
    #[test]
    fn join_equalities_propagate() {
        let src = "r H(@L) :- B(@L,X), C(@L,W), X == W, X > 0, W < 5.";
        let (found, _) = search_rule(src, &[("L", Value::str("c"))], &(-3..=9).collect::<Vec<_>>(), true);
        assert_eq!(found.as_deref(), Some("L=c, W=1, X=1"));
    }

    /// §3.4's example: `A(x,y) :- B(x), C(x,y), x+y>1, x>0` for the goal
    /// `A(_, 2)`. The head pins `Y`; `X` is searched, and 0, the first
    /// value of its domain, fails `X > 0` at once.
    #[test]
    fn paper_3_4_example_requires_search() {
        let src = "r A(@L,X,Y) :- B(@L,X), C(@L,X,Y), X + Y > 1, X > 0.";
        let pinned = [("L", Value::str("c")), ("Y", Value::Int(2))];
        assert_eq!(search_rule(src, &pinned, &[0, 1, 2, 3], true).0.as_deref(), Some("L=c, X=1, Y=2"));
    }

    /// §4.2's negation: to break `1 == Z`, `Z` moves to the first value
    /// under which the selection fails; one that does not read `Z` is not
    /// judged.
    #[test]
    fn negated_conjunction_for_positive_symptoms() {
        let src = "r H(@L) :- S(@L,K), T(@L,Z), 1 == Z, K > 5.";
        let pinned = [("K", Value::Int(1)), ("L", Value::str("c"))];
        assert_eq!(search_rule(src, &pinned, &[1, 2, 3], false), (Some("K=1, L=c, Z=2".into()), 2));
    }

    /// `X == 7 || X == 9` over one variable is the domain [7, 9]: the
    /// search tries the alternatives in order, and a pool no alternative
    /// satisfies has no binding.
    #[test]
    fn disjunction_handled_by_search() {
        let c = [("L", Value::str("c"))];
        assert_eq!(search_rule("r H(@L) :- T(@L,X), X > 8.", &c, &[7, 9], true).0.as_deref(), Some("L=c, X=9"));
        assert_eq!(search_rule("r H(@L) :- T(@L,X), X > 8, X < 8.", &c, &[7, 9], true).0, None);
    }

    /// The domain is integers; a string comes from the join, and the
    /// selections over it are judged under the searched binding.
    #[test]
    fn string_constraints() {
        let src = "r H(@L) :- T(@L,Rul,Sid,X), Rul == 'r7', Sid != 'a', X > 0.";
        let with = |sid: &str| [("L", Value::str("c")), ("Rul", Value::str("r7")), ("Sid", Value::str(sid))];
        assert_eq!(search_rule(src, &with("b"), &[0, 1, 2], true).0.as_deref(), Some("L=c, Rul=r7, Sid=b, X=1"));
        assert_eq!(search_rule(src, &with("a"), &[0, 1, 2], true).0, None);
    }

    #[test]
    fn contradictory_string_equalities() {
        let src = "r H(@L) :- T(@L,Rul), Rul == 'r7', Rul == 'r5'.";
        for rul in ["r5", "r7"] {
            assert_eq!(search_rule(src, &[("L", Value::str("c")), ("Rul", Value::str(rul))], &[0, 1], true).0, None);
        }
    }

    /// With nothing open the checks decide at once, whatever the domain.
    #[test]
    fn ground_pools() {
        let c = [("L", Value::str("c"))];
        assert_eq!(search_rule("r H(@L) :- T(@L), 1 < 2.", &c, &[], true).0.as_deref(), Some("L=c"));
        assert_eq!(search_rule("r H(@L) :- T(@L), 1 < 2, 5 < 2.", &c, &[0], true).0, None);
        let x = [("L", Value::str("c")), ("X", Value::Int(1))];
        assert_eq!(search_rule("r H(@L) :- T(@L,X), X < 2.", &x, &[], true).0.as_deref(), Some("L=c, X=1"));
        assert_eq!(search_rule("r H(@L) :- T(@L,X), X > 2.", &x, &[0, 3], true).0, None);
    }

    /// `D < -3` is satisfiable, but only over a domain that says so; an
    /// open variable no selection reads takes the first value, and with
    /// an empty domain there is no binding.
    #[test]
    fn a_variable_without_a_domain_has_no_candidates() {
        let c = [("L", Value::str("c"))];
        let src = "r H(@L) :- T(@L,D), D < -3.";
        assert_eq!(search_rule(src, &c, &[-3, 0, 5], true).0, None);
        assert_eq!(search_rule(src, &c, &(-5..=5).collect::<Vec<_>>(), true).0.as_deref(), Some("D=-5, L=c"));
        let src = "r H(@L) :- T(@L,D,E), D < -3.";
        assert_eq!(search_rule(src, &c, &[-5, 7], true).0.as_deref(), Some("D=-5, E=-5, L=c"));
        assert_eq!(search_rule(src, &c, &[], true).0, None);
    }

    /// Variables bind in name order: `A` takes the first value under which
    /// `B`, bound after it, can still pass.
    #[test]
    fn var_to_var_ordering() {
        let src = "r H(@L) :- T(@L,B,A), B < A, B == 3.";
        let (found, _) = search_rule(src, &[("L", Value::str("c"))], &[0, 1, 2, 3, 4, 5], true);
        assert_eq!(found.as_deref(), Some("A=4, B=3, L=c"));
    }

    /// A selection is judged once what it reads is bound: `X > 8` refutes
    /// each of `X`'s first nine values alone, and `Y` is searched under
    /// `X = 9` only — 10 + 10 judgements, not one per binding of both.
    #[test]
    fn a_refuted_prefix_is_cut_at_its_level() {
        let src = "r H(@L) :- T(@L,X,Y), X > 8, Y > X.";
        let (found, judged) = search_rule(src, &[("L", Value::str("c"))], &(0..10).collect::<Vec<_>>(), true);
        assert_eq!((found, judged), (None, 20));
    }

    /// An assignment computes its variable as the engine does: one that
    /// fails to evaluate (`/` by zero) refuses the binding, and one whose
    /// variable is already bound must agree with it.
    #[test]
    fn assignments_compute_refuse_and_agree() {
        let src = "r H(@L,P) :- T(@L,X), D := 10 / X, D > 1, P := X + 1.";
        let with_p = |p: i64| [("L", Value::str("c")), ("P", Value::Int(p))];
        assert_eq!(search_rule(src, &with_p(2), &[0, 1, 2, 3], true).0.as_deref(), Some("D=10, L=c, P=2, X=1"));
        assert_eq!(search_rule(src, &with_p(4), &[0, 1, 2, 3], true).0.as_deref(), Some("D=3, L=c, P=4, X=3"));
        assert_eq!(search_rule(src, &with_p(9), &[0, 1, 2, 3], true).0, None);
    }
}
