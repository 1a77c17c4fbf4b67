//! Constraint pools (§3.4).
//!
//! While expanding a meta provenance tree, the explorer "encodes the
//! attributes of tuples as variables, and formulates constraints over these
//! variables": join equalities (`B0.x == C0.x`), selection predicates
//! (`C0.x + C0.y > 1`) and head equalities. Each is one comparison between
//! two terms, and a pool is their conjunction; [`crate::solve`] finds its
//! first solution.

use mpr_ndlog::{CmpOp, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A symbolic term: a variable (named like `Const0.Val`), a literal value,
/// or integer arithmetic over sub-terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum STerm {
    /// A solver variable.
    Var(String),
    /// A literal.
    Val(Value),
    /// Integer addition.
    Add(Box<STerm>, Box<STerm>),
    /// Integer subtraction.
    Sub(Box<STerm>, Box<STerm>),
    /// Integer multiplication.
    Mul(Box<STerm>, Box<STerm>),
}

impl STerm {
    /// Variable shorthand.
    pub fn var(name: impl Into<String>) -> Self {
        STerm::Var(name.into())
    }

    /// Integer literal shorthand.
    pub fn int(v: i64) -> Self {
        STerm::Val(Value::Int(v))
    }

    /// All variables in the term.
    pub fn vars(&self, out: &mut BTreeSet<String>) {
        match self {
            STerm::Var(v) => {
                out.insert(v.clone());
            }
            STerm::Val(_) => {}
            STerm::Add(l, r) | STerm::Sub(l, r) | STerm::Mul(l, r) => {
                l.vars(out);
                r.vars(out);
            }
        }
    }

    /// Evaluate under a (partial) assignment. `None` when a variable is
    /// unbound or arithmetic is applied to non-integers.
    pub fn eval(&self, asg: &Assignment) -> Option<Value> {
        match self {
            STerm::Var(v) => asg.get(v).cloned(),
            STerm::Val(v) => Some(v.clone()),
            STerm::Add(l, r) => arith(l, r, asg, |a, b| a.checked_add(b)),
            STerm::Sub(l, r) => arith(l, r, asg, |a, b| a.checked_sub(b)),
            STerm::Mul(l, r) => arith(l, r, asg, |a, b| a.checked_mul(b)),
        }
    }
}

fn arith(l: &STerm, r: &STerm, asg: &Assignment, f: impl Fn(i64, i64) -> Option<i64>) -> Option<Value> {
    let a = l.eval(asg)?.as_int()?;
    let b = r.eval(asg)?.as_int()?;
    f(a, b).map(Value::Int)
}

impl fmt::Display for STerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            STerm::Var(v) => f.write_str(v),
            STerm::Val(v) => write!(f, "{v}"),
            STerm::Add(l, r) => write!(f, "({l} + {r})"),
            STerm::Sub(l, r) => write!(f, "({l} - {r})"),
            STerm::Mul(l, r) => write!(f, "({l} * {r})"),
        }
    }
}

/// A constraint: `lhs op rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Left term.
    pub lhs: STerm,
    /// Operator.
    pub op: CmpOp,
    /// Right term.
    pub rhs: STerm,
}

impl Constraint {
    /// `lhs op rhs` shorthand.
    pub fn cmp(lhs: STerm, op: CmpOp, rhs: STerm) -> Self {
        Constraint { lhs, op, rhs }
    }

    /// `var == value` shorthand.
    pub fn eq_val(var: impl Into<String>, value: Value) -> Self {
        Constraint::cmp(STerm::var(var), CmpOp::Eq, STerm::Val(value))
    }

    /// `var1 == var2` shorthand.
    pub fn eq_var(a: impl Into<String>, b: impl Into<String>) -> Self {
        Constraint::cmp(STerm::var(a), CmpOp::Eq, STerm::var(b))
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.lhs.vars(&mut out);
        self.rhs.vars(&mut out);
        out
    }

    /// Logical negation: the comparison with the opposite operator.
    pub fn negate(&self) -> Constraint {
        Constraint { lhs: self.lhs.clone(), op: self.op.negate(), rhs: self.rhs.clone() }
    }

    /// Evaluation under a partial assignment: `Some(bool)` when both sides
    /// evaluate, `None` when an unbound variable or non-integer arithmetic
    /// leaves it open.
    pub fn eval_partial(&self, asg: &Assignment) -> Option<bool> {
        Some(self.op.eval(&self.lhs.eval(asg)?, &self.rhs.eval(asg)?))
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A (partial) assignment of values to solver variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    map: std::collections::BTreeMap<String, Value>,
}

impl Assignment {
    /// Empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a variable.
    pub fn set(&mut self, var: impl Into<String>, value: Value) {
        self.map.insert(var.into(), value);
    }

    /// Value of a variable.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.map.get(var)
    }

    /// Iterate bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.map.iter()
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negation_pushes_inward() {
        // Negating a comparison flips its operator; nothing wraps it.
        let c = Constraint::cmp(STerm::var("x"), CmpOp::Gt, STerm::int(0));
        let n = c.negate();
        assert_eq!(n, Constraint::cmp(STerm::var("x"), CmpOp::Le, STerm::int(0)));
        assert_eq!(n.negate(), c);
    }

    #[test]
    fn partial_eval_three_valued() {
        let c = Constraint::cmp(STerm::var("x"), CmpOp::Gt, STerm::var("y"));
        let mut asg = Assignment::new();
        assert_eq!(c.eval_partial(&asg), None);
        asg.set("x", Value::Int(5));
        assert_eq!(c.eval_partial(&asg), None); // y unbound
        asg.set("y", Value::Int(2));
        assert_eq!(c.eval_partial(&asg), Some(true));
        asg.set("y", Value::Int(9));
        assert_eq!(c.eval_partial(&asg), Some(false));
    }

    #[test]
    fn arithmetic_terms() {
        // x + y > 1 (the §3.4 example)
        let c = Constraint::cmp(
            STerm::Add(Box::new(STerm::var("x")), Box::new(STerm::var("y"))),
            CmpOp::Gt,
            STerm::int(1),
        );
        let mut asg = Assignment::new();
        asg.set("x", Value::Int(0));
        asg.set("y", Value::Int(2));
        assert_eq!(c.eval_partial(&asg), Some(true));
        asg.set("y", Value::Int(1));
        assert_eq!(c.eval_partial(&asg), Some(false));
        // arithmetic over strings is undecidable → None
        asg.set("x", Value::str("s"));
        assert_eq!(c.eval_partial(&asg), None);
    }

    #[test]
    fn display_forms() {
        let c = Constraint::cmp(
            STerm::Sub(Box::new(STerm::var("x")), Box::new(STerm::int(1))),
            CmpOp::Ne,
            STerm::var("y"),
        );
        assert_eq!(c.to_string(), "(x - 1) != y");
        assert_eq!(c.vars().into_iter().collect::<Vec<_>>(), ["x", "y"]);
        let mut a = Assignment::new();
        a.set("x", Value::Int(3));
        assert_eq!(a.to_string(), "{x=3}");
    }
}
