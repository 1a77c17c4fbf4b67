//! The solver: the first solution of a pool in lexicographic order.
//!
//! The paper's prototype pairs Z3 with "our own mini-solver that can
//! quickly solve the trivial instances on its own" (§5.1). The pools the
//! explorer builds here are all trivial in that sense — a handful of
//! comparisons over the free columns of one tuple, each column ranging
//! over the values the network exhibits — so one backtracking search over
//! the declared domains answers all of them, and answers the same way every
//! time: variables are bound in name order, each to the values of its
//! domain in the order they were declared, and the first assignment that
//! satisfies every comparison is the solution.

use crate::constraint::{Assignment, Constraint};
use mpr_ndlog::Value;
use std::collections::{BTreeMap, BTreeSet};

/// A constraint pool: a conjunction of comparisons plus per-variable
/// domains.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    /// Conjunctively joined constraints.
    pub constraints: Vec<Constraint>,
    /// Declared candidate domains (e.g. "switch ids present in the
    /// network"). A variable without one has no candidates, so a pool that
    /// mentions it has no solution.
    pub domains: BTreeMap<String, Vec<Value>>,
}

impl Pool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a constraint.
    pub fn push(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Declare a candidate domain for a variable.
    pub fn set_domain(&mut self, var: impl Into<String>, candidates: Vec<Value>) {
        self.domains.insert(var.into(), candidates);
    }

    /// All variables mentioned anywhere in the pool, by name.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = self.constraints.iter().flat_map(Constraint::vars).collect();
        out.extend(self.domains.keys().cloned());
        out
    }

    /// Does the assignment satisfy every constraint?
    pub fn satisfied_by(&self, asg: &Assignment) -> bool {
        self.constraints.iter().all(|c| c.eval_partial(asg) == Some(true))
    }

    /// The first assignment of every variable of [`Pool::vars`] to a value
    /// of its domain that satisfies every constraint, in lexicographic
    /// order: variables by name, values in declared order. `None` if there
    /// is none.
    pub fn solve(&self) -> Option<Assignment> {
        let vars: Vec<String> = self.vars().into_iter().collect();
        // A constraint is checked as soon as the last of its variables is
        // bound: `checks[i]` holds those whose last is `vars[i - 1]`.
        let mut checks: Vec<Vec<&Constraint>> = vec![Vec::new(); vars.len() + 1];
        for c in &self.constraints {
            let last = c.vars().iter().map(|v| vars.binary_search(v).map_or(0, |i| i + 1)).max();
            checks[last.unwrap_or(0)].push(c);
        }
        let domains: Vec<&[Value]> =
            vars.iter().map(|v| self.domains.get(v).map_or(&[][..], Vec::as_slice)).collect();
        let mut asg = Assignment::new();
        let holds = |asg: &Assignment, level: usize| checks[level].iter().all(|c| c.eval_partial(asg) == Some(true));
        (holds(&asg, 0) && extend(&vars, &domains, &holds, &mut asg)).then_some(asg)
    }
}

/// Bind `vars[asg.len()..]` depth first. A deeper variable's binding from
/// a failed branch may linger in `asg`, but no check before its own level
/// reads it, and the next branch overwrites it.
fn extend(
    vars: &[String],
    domains: &[&[Value]],
    holds: &impl Fn(&Assignment, usize) -> bool,
    asg: &mut Assignment,
) -> bool {
    let level = vars.len() - domains.len();
    let Some((domain, rest)) = domains.split_first() else {
        return true;
    };
    domain.iter().any(|v| {
        asg.set(vars[level].clone(), v.clone());
        holds(asg, level + 1) && extend(vars, rest, holds, asg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Constraint as C, STerm};
    use mpr_ndlog::CmpOp;

    fn ints(range: std::ops::RangeInclusive<i64>) -> Vec<Value> {
        range.map(Value::Int).collect()
    }

    #[test]
    fn join_equalities_propagate() {
        // B0.x == C0.x, B0.x > 0, C0.x < 5
        let mut p = Pool::new();
        p.push(C::eq_var("B0.x", "C0.x"));
        p.push(C::cmp(STerm::var("B0.x"), CmpOp::Gt, STerm::int(0)));
        p.push(C::cmp(STerm::var("C0.x"), CmpOp::Lt, STerm::int(5)));
        p.set_domain("B0.x", ints(-3..=9));
        p.set_domain("C0.x", ints(-3..=9));
        let asg = p.solve().expect("sat");
        assert_eq!(asg.get("B0.x"), Some(&Value::Int(1)));
        assert_eq!(asg.get("C0.x"), Some(&Value::Int(1)));
    }

    #[test]
    fn paper_3_4_example_requires_search() {
        // A(x,y) :- B(x), C(x,y), x+y>1, x>0 with goal A0.y == 2:
        // B0.x == C0.x, C0.x + C0.y > 1, B0.x > 0, A0.x == C0.x,
        // A0.y == C0.y, A0.y == 2.
        let mut p = Pool::new();
        p.push(C::eq_var("B0.x", "C0.x"));
        p.push(C::cmp(
            STerm::Add(Box::new(STerm::var("C0.x")), Box::new(STerm::var("C0.y"))),
            CmpOp::Gt,
            STerm::int(1),
        ));
        p.push(C::cmp(STerm::var("B0.x"), CmpOp::Gt, STerm::int(0)));
        p.push(C::eq_var("A0.x", "C0.x"));
        p.push(C::eq_var("A0.y", "C0.y"));
        p.push(C::eq_val("A0.y", Value::Int(2)));
        for v in p.vars() {
            p.set_domain(v, ints(0..=3));
        }
        let asg = p.solve().expect("sat");
        assert!(p.satisfied_by(&asg), "{asg}");
        // `A0.x` is named first and 0 is its first value, but `B0.x > 0`
        // refutes it only three variables later.
        assert_eq!(asg.to_string(), "{A0.x=1, A0.y=2, B0.x=1, C0.x=1, C0.y=2}");
    }

    #[test]
    fn negated_conjunction_for_positive_symptoms() {
        // §4.2: to make a derivation disappear, negate the collected
        // constraints (1 == Z) and solve — Z must move off 1.
        let collected = C::eq_val("Z", Value::Int(1));
        let mut p = Pool::new();
        p.push(collected.negate());
        p.set_domain("Z", ints(1..=3));
        assert_eq!(p.solve().unwrap().get("Z"), Some(&Value::Int(2)));
    }

    #[test]
    fn disjunction_handled_by_search() {
        // `x == 7 || x == 9` over one variable is the domain [7, 9]: the
        // search tries the alternatives in declared order.
        let mut p = Pool::new();
        p.push(C::cmp(STerm::var("x"), CmpOp::Gt, STerm::int(8)));
        p.set_domain("x", vec![Value::Int(7), Value::Int(9)]);
        assert_eq!(p.solve().unwrap().get("x"), Some(&Value::Int(9)));
        p.set_domain("x", vec![Value::Int(9), Value::Int(7)]);
        p.push(C::cmp(STerm::var("x"), CmpOp::Lt, STerm::int(8)));
        assert!(p.solve().is_none());
    }

    #[test]
    fn string_constraints() {
        let mut p = Pool::new();
        p.push(C::eq_val("Rul", Value::str("r7")));
        p.push(C::cmp(STerm::var("Sid"), CmpOp::Ne, STerm::Val(Value::str("a"))));
        p.set_domain("Rul", vec![Value::str("r5"), Value::str("r7")]);
        p.set_domain("Sid", vec![Value::str("a"), Value::str("b")]);
        let asg = p.solve().unwrap();
        assert_eq!(asg.get("Rul"), Some(&Value::str("r7")));
        assert_eq!(asg.get("Sid"), Some(&Value::str("b")));
    }

    #[test]
    fn contradictory_string_equalities() {
        let mut p = Pool::new();
        p.push(C::eq_val("Rul", Value::str("r7")));
        p.push(C::eq_val("Rul", Value::str("r5")));
        p.set_domain("Rul", vec![Value::str("r5"), Value::str("r7")]);
        assert!(p.solve().is_none());
    }

    #[test]
    fn ground_pools() {
        let mut p = Pool::new();
        p.push(C::cmp(STerm::int(1), CmpOp::Lt, STerm::int(2)));
        assert_eq!(p.solve(), Some(Assignment::new()));
        p.push(C::cmp(STerm::int(5), CmpOp::Lt, STerm::int(2)));
        assert!(p.solve().is_none());
    }

    #[test]
    fn var_to_var_ordering() {
        let mut p = Pool::new();
        p.push(C::cmp(STerm::var("b"), CmpOp::Lt, STerm::var("a")));
        p.push(C::eq_val("b", Value::Int(3)));
        p.set_domain("a", ints(0..=5));
        p.set_domain("b", ints(0..=5));
        // `a` is bound first, so it takes the first value `b` can stay
        // under.
        assert_eq!(p.solve().unwrap().to_string(), "{a=4, b=3}");
    }

    #[test]
    fn a_variable_without_a_domain_has_no_candidates() {
        // `D < -3` is satisfiable, but only over a domain that says so.
        let mut p = Pool::new();
        p.push(C::cmp(STerm::var("D"), CmpOp::Lt, STerm::int(-3)));
        assert!(p.solve().is_none());
        p.set_domain("D", ints(-5..=5));
        assert_eq!(p.solve().unwrap().get("D"), Some(&Value::Int(-5)));
        // A declared, unconstrained variable takes its first value.
        p.set_domain("E", ints(7..=8));
        assert_eq!(p.solve().unwrap().to_string(), "{D=-5, E=7}");
        p.set_domain("E", Vec::new());
        assert!(p.solve().is_none());
    }
}
