//! Expression and selection evaluation.
//!
//! Expressions are evaluated against a variable *environment* plus a
//! [`FuncHost`] that interprets built-in functions. The one built-in,
//! `f_unique()`, is stateful: [`CountingFuncs`] answers it, and
//! [`PureFuncs`] — for evaluation that must not draw ids — refuses it.

use crate::ast::{BinOp, Expr, Selection};
use crate::error::EvalError;
use crate::value::Value;
use std::borrow::Cow;

/// A variable environment: name → value.
///
/// Rule bodies bind a handful of variables, so the map is a name-sorted
/// vector: lookups binary-search, iteration is ordered by name (like the
/// `BTreeMap` this replaces), and — the property the join loops lean on —
/// cloning is one allocation instead of one per tree node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Env {
    entries: Vec<(String, Value)>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|i| &self.entries[i].1)
    }

    /// `true` when `name` is bound.
    pub fn contains_key(&self, name: &str) -> bool {
        self.position(name).is_ok()
    }

    /// Bind `name` to `value`, returning the previous binding if present.
    pub fn insert(&mut self, name: String, value: Value) -> Option<Value> {
        match self.position(&name) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (name, value));
                None
            }
        }
    }

    /// Remove the binding of `name`, returning its value if present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.position(name).ok().map(|i| self.entries.remove(i).1)
    }

    /// The bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// What expression evaluation reads an environment through: a variable's
/// value by name. [`Env`] owns its names and values; an evaluator that
/// already holds both elsewhere can answer from borrows instead.
pub trait Bindings {
    /// The value bound to `name`, if any.
    fn get(&self, name: &str) -> Option<&Value>;
}

impl Bindings for Env {
    fn get(&self, name: &str) -> Option<&Value> {
        Env::get(self, name)
    }
}

impl FromIterator<(String, Value)> for Env {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut env = Env::new();
        for (k, v) in iter {
            env.insert(k, v);
        }
        env
    }
}

impl<'a> IntoIterator for &'a Env {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Value)>,
        fn(&'a (String, Value)) -> (&'a String, &'a Value),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// Host for built-in functions referenced by `Expr::Call`.
pub trait FuncHost {
    /// Evaluate built-in `name` on `args`.
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, EvalError>;
}

/// A [`FuncHost`] with no built-ins: every call is
/// [`EvalError::UnknownFunc`]. Evaluation that must not draw `f_unique()`
/// ids uses it; the engine answers that call with [`CountingFuncs`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PureFuncs;

impl FuncHost for PureFuncs {
    fn call(&mut self, name: &str, _args: &[Value]) -> Result<Value, EvalError> {
        Err(EvalError::UnknownFunc(name.into()))
    }
}

/// A [`FuncHost`] that layers a deterministic `f_unique()` counter over
/// [`PureFuncs`]. Each call returns a fresh integer. The engine seeds one
/// per run so executions are reproducible.
#[derive(Debug, Default, Clone)]
pub struct CountingFuncs {
    next: i64,
}

impl CountingFuncs {
    /// Start counting from `start`.
    pub fn starting_at(start: i64) -> Self {
        CountingFuncs { next: start }
    }

    /// How many unique ids have been handed out.
    pub fn issued(&self) -> i64 {
        self.next
    }
}

impl FuncHost for CountingFuncs {
    fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        if name == "f_unique" {
            if !args.is_empty() {
                return Err(EvalError::BadArity { func: name.into(), expected: 0, got: args.len() });
            }
            let v = self.next;
            self.next += 1;
            return Ok(Value::Int(v));
        }
        PureFuncs.call(name, args)
    }
}

impl Expr {
    /// Evaluate the expression under `env`, resolving built-ins via `host`.
    pub fn eval(&self, env: &impl Bindings, host: &mut dyn FuncHost) -> Result<Value, EvalError> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::UnboundVar(name.clone())),
            Expr::Binary(op, l, r) => {
                let lv = l.eval(env, host)?;
                let rv = r.eval(env, host)?;
                eval_binop(*op, &lv, &rv)
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(env, host)?);
                }
                host.call(name, &vals)
            }
        }
    }
}

impl Expr {
    /// [`Expr::eval`], borrowing a constant or a variable's value instead of
    /// cloning it: what a comparison reads.
    fn eval_borrowed<'e>(&'e self, env: &'e impl Bindings, host: &mut dyn FuncHost) -> Result<Cow<'e, Value>, EvalError> {
        match self {
            Expr::Const(v) => Ok(Cow::Borrowed(v)),
            Expr::Var(name) => env.get(name).map(Cow::Borrowed).ok_or_else(|| EvalError::UnboundVar(name.clone())),
            Expr::Binary(..) | Expr::Call(..) => self.eval(env, host).map(Cow::Owned),
        }
    }
}

/// Evaluate one binary arithmetic operation.
pub fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    match (op, l, r) {
        (BinOp::Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
        (BinOp::Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
        (BinOp::Mul, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
        (BinOp::Div, Value::Int(_), Value::Int(0)) => Err(EvalError::DivideByZero),
        (BinOp::Div, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_div(*b))),
        (BinOp::Mod, Value::Int(_), Value::Int(0)) => Err(EvalError::DivideByZero),
        (BinOp::Mod, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_rem(*b))),
        (BinOp::Add, Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}").into())),
        _ => Err(EvalError::TypeError(format!(
            "cannot apply `{op}` to {} and {}",
            l.type_tag(),
            r.type_tag()
        ))),
    }
}

impl Selection {
    /// Evaluate the selection under `env`. Evaluation errors are *not*
    /// silently false — the caller decides (the engine treats them as a
    /// non-match; the repair generator propagates them as constraints).
    pub fn eval(&self, env: &impl Bindings, host: &mut dyn FuncHost) -> Result<bool, EvalError> {
        let l = self.lhs.eval_borrowed(env, host)?;
        let r = self.rhs.eval_borrowed(env, host)?;
        Ok(self.op.eval(&l, &r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;

    fn env(pairs: &[(&str, Value)]) -> Env {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    #[test]
    fn arithmetic() {
        let e = crate::parser::parse_rule("x T(@C,A) :- S(@C,B), A := (B + 1) * 3 - 4 / 2.")
            .unwrap()
            .assigns[0]
            .expr
            .clone();
        let v = e.eval(&env(&[("B", Value::Int(5))]), &mut PureFuncs).unwrap();
        assert_eq!(v, Value::Int(16));
    }

    #[test]
    fn division_by_zero_reported() {
        let e = Expr::Binary(BinOp::Div, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(e.eval(&Env::new(), &mut PureFuncs), Err(EvalError::DivideByZero));
        let e = Expr::Binary(BinOp::Mod, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(e.eval(&Env::new(), &mut PureFuncs), Err(EvalError::DivideByZero));
    }

    #[test]
    fn integer_arithmetic_wraps_instead_of_panicking() {
        let (min, max) = (Value::Int(i64::MIN), Value::Int(i64::MAX));
        assert_eq!(eval_binop(BinOp::Div, &min, &Value::Int(-1)), Ok(min.clone()));
        assert_eq!(eval_binop(BinOp::Mod, &min, &Value::Int(-1)), Ok(Value::Int(0)));
        assert_eq!(eval_binop(BinOp::Add, &max, &Value::Int(1)), Ok(min.clone()));
        assert_eq!(eval_binop(BinOp::Sub, &min, &Value::Int(1)), Ok(max.clone()));
        assert_eq!(eval_binop(BinOp::Mul, &min, &Value::Int(-1)), Ok(min));
        assert_eq!(eval_binop(BinOp::Div, &max, &Value::Int(-1)), Ok(Value::Int(-i64::MAX)));
    }

    #[test]
    fn unbound_variable_reported() {
        let e = Expr::var("Missing");
        assert_eq!(
            e.eval(&Env::new(), &mut PureFuncs),
            Err(EvalError::UnboundVar("Missing".into()))
        );
    }

    #[test]
    fn string_concat_via_add() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Const(Value::str("a"))),
            Box::new(Expr::Const(Value::str("b"))),
        );
        assert_eq!(e.eval(&Env::new(), &mut PureFuncs).unwrap(), Value::str("ab"));
    }

    #[test]
    fn f_unique_counts_deterministically() {
        let mut h = CountingFuncs::default();
        assert_eq!(h.call("f_unique", &[]).unwrap(), Value::Int(0));
        assert_eq!(h.call("f_unique", &[]).unwrap(), Value::Int(1));
        assert_eq!(h.issued(), 2);
        assert!(h.call("f_unique", &[Value::Int(1)]).is_err());
        assert!(h.call("nope", &[]).is_err());
        assert!(PureFuncs.call("f_unique", &[]).is_err());
    }

    #[test]
    fn selection_eval() {
        let s = Selection::new(Expr::var("Swi"), CmpOp::Eq, Expr::int(2));
        assert!(s.eval(&env(&[("Swi", Value::Int(2))]), &mut PureFuncs).unwrap());
        assert!(!s.eval(&env(&[("Swi", Value::Int(3))]), &mut PureFuncs).unwrap());
        assert!(s.eval(&Env::new(), &mut PureFuncs).is_err());
    }
}
