//! Concrete tuples — the facts that flow through the engine.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A concrete NDlog tuple: `Table(@loc, arg1, ..., argN)`.
///
/// The location (`@` column) is kept separate from the payload arguments,
/// mirroring NDlog's semantics where the location specifier determines the
/// node a tuple resides on and is not part of ordinary joins.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    /// Table (relation) name, e.g. `FlowTable`. Shared, so a copy of a
    /// tuple allocates its argument vector and nothing else.
    pub table: Arc<str>,
    /// The node the tuple resides on (the `@` column).
    pub loc: Value,
    /// Payload arguments.
    pub args: Vec<Value>,
}

impl Tuple {
    /// Build a tuple.
    pub fn new(table: impl Into<Arc<str>>, loc: impl Into<Value>, args: Vec<Value>) -> Self {
        Tuple { table: table.into(), loc: loc.into(), args }
    }

    /// Total arity including the location column.
    pub fn arity(&self) -> usize {
        self.args.len() + 1
    }

    /// Column `c`: `0` is the location, `i + 1` argument `i`.
    pub fn column(&self, c: usize) -> Option<&Value> {
        if c == 0 { Some(&self.loc) } else { self.args.get(c - 1) }
    }

    /// Project the key columns (indices into `args`).
    pub fn key(&self, key_cols: &[usize]) -> Vec<Value> {
        key_cols.iter().filter_map(|&i| self.args.get(i).cloned()).collect()
    }

    /// All columns as a flat vector, location first. Useful for hashing and
    /// for the meta model, which treats the location as `Val0`.
    pub fn columns(&self) -> Vec<Value> {
        let mut v = Vec::with_capacity(self.arity());
        v.push(self.loc.clone());
        v.extend(self.args.iter().cloned());
        v
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(@{}", self.table, self.loc)?;
        for a in &self.args {
            write!(f, ",{a}")?;
        }
        write!(f, ")")
    }
}

/// A signed tuple: `+τ` (appearance) or `-τ` (disappearance), as carried by
/// SEND/RECEIVE provenance vertices (§3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignedTuple {
    /// The tuple in question.
    pub tuple: Tuple,
    /// `true` for `+τ`, `false` for `-τ`.
    pub positive: bool,
}

impl fmt::Display for SignedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.positive { "+" } else { "-" }, self.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tuple {
        Tuple::new("FlowTable", 3i64, vec![Value::Int(80), Value::Int(2)])
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(t().to_string(), "FlowTable(@3,80,2)");
    }

    #[test]
    fn key_projection() {
        assert_eq!(t().key(&[1]), vec![Value::Int(2)]);
        assert_eq!(t().key(&[0, 1]), vec![Value::Int(80), Value::Int(2)]);
        // Out-of-range key columns are skipped rather than panicking.
        assert_eq!(t().key(&[7]), Vec::<Value>::new());
    }

    #[test]
    fn columns_put_location_first() {
        assert_eq!(
            t().columns(),
            vec![Value::Int(3), Value::Int(80), Value::Int(2)]
        );
        assert_eq!(t().arity(), 3);
    }

    #[test]
    fn signed_display() {
        let s = SignedTuple { tuple: t(), positive: true };
        assert_eq!(s.to_string(), "+FlowTable(@3,80,2)");
        let s = SignedTuple { tuple: t(), positive: false };
        assert_eq!(s.to_string(), "-FlowTable(@3,80,2)");
    }
}
