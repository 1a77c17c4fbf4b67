//! Provenance graph vertices (§3.1 of the paper).
//!
//! Positive vertices describe events that happened; each has a negative
//! "twin" describing events that *failed* to happen, enabling negative
//! provenance (Wu et al., SIGCOMM'14). One extra vertex kind,
//! [`Vertex::FailedSelection`], names the selection predicate that blocked
//! a rule — the paper's meta model expresses the same information through
//! `Sel` meta tuples.

use mpr_ndlog::{Tuple, Value};
use mpr_runtime::Time;
use std::fmt;

/// A tuple *pattern*: a table plus optionally-constrained columns. Used by
/// negative vertices, which talk about tuples that do not exist.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// Table name.
    pub table: String,
    /// Location constraint (`None` = any node).
    pub loc: Option<Value>,
    /// Per-column constraints (`None` = any value).
    pub args: Vec<Option<Value>>,
}

impl Pattern {
    /// Pattern matching exactly one concrete tuple.
    pub fn exact(t: &Tuple) -> Self {
        Pattern {
            table: t.table.to_string(),
            loc: Some(t.loc.clone()),
            args: t.args.iter().cloned().map(Some).collect(),
        }
    }

    /// Pattern with a table and arity but no constraints.
    pub fn any(table: impl Into<String>, arity: usize) -> Self {
        Pattern { table: table.into(), loc: None, args: vec![None; arity] }
    }

    /// Does `t` satisfy the pattern?
    pub fn matches(&self, t: &Tuple) -> bool {
        if *t.table != *self.table || t.args.len() != self.args.len() {
            return false;
        }
        if let Some(l) = &self.loc {
            if l != &t.loc {
                return false;
            }
        }
        self.args
            .iter()
            .zip(t.args.iter())
            .all(|(p, v)| p.as_ref().map_or(true, |pv| pv == v))
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(@", self.table)?;
        match &self.loc {
            Some(v) => write!(f, "{v}")?,
            None => write!(f, "?")?,
        }
        for a in &self.args {
            match a {
                Some(v) => write!(f, ",{v}")?,
                None => write!(f, ",?")?,
            }
        }
        write!(f, ")")
    }
}

/// One provenance vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vertex {
    /// `EXIST([t1,t2], N, τ)`: τ existed on node N from t1 to t2.
    Exist {
        /// Start of the interval.
        from: Time,
        /// End of the interval (`None` = still alive).
        to: Option<Time>,
        /// Node.
        node: Value,
        /// The tuple.
        tuple: Tuple,
    },
    /// `INSERT(t, N, τ)`: base tuple τ was inserted.
    Insert {
        /// Timestamp.
        at: Time,
        /// Node.
        node: Value,
        /// The tuple.
        tuple: Tuple,
    },
    /// `DERIVE(t, N, τ)` via `rule`.
    Derive {
        /// Timestamp.
        at: Time,
        /// Node.
        node: Value,
        /// Rule id.
        rule: String,
        /// The derived tuple.
        tuple: Tuple,
    },
    /// `APPEAR(t, N, τ)`.
    Appear {
        /// Timestamp.
        at: Time,
        /// Node.
        node: Value,
        /// The tuple.
        tuple: Tuple,
    },
    /// `SEND(t, N→N', ±τ)`.
    Send {
        /// Timestamp.
        at: Time,
        /// Sender.
        from: Value,
        /// Receiver.
        to: Value,
        /// The tuple.
        tuple: Tuple,
        /// `+τ` or `-τ`.
        positive: bool,
    },
    /// `RECEIVE(t, N←N', ±τ)`.
    Receive {
        /// Timestamp.
        at: Time,
        /// Sender.
        from: Value,
        /// Receiver.
        to: Value,
        /// The tuple.
        tuple: Tuple,
        /// `+τ` or `-τ`.
        positive: bool,
    },
    /// `NEXIST([t1,t2], N, τ-pattern)`: no matching tuple existed.
    NExist {
        /// Start of the interval.
        from: Time,
        /// End of the interval.
        to: Time,
        /// The unmatched pattern.
        pattern: Pattern,
    },
    /// `NDERIVE(t, rule, τ-pattern)`: the rule failed to derive a match.
    NDerive {
        /// Time of the (non-)event.
        at: Time,
        /// Rule id.
        rule: String,
        /// The pattern the rule failed to derive.
        pattern: Pattern,
    },
    /// `NINSERT`: the pattern names a base table into which no matching
    /// tuple was ever inserted.
    NInsert {
        /// Time of the (non-)event.
        at: Time,
        /// The missing base pattern.
        pattern: Pattern,
    },
    /// `NAPPEAR`.
    NAppear {
        /// Time of the (non-)event.
        at: Time,
        /// The pattern that failed to appear.
        pattern: Pattern,
    },
    /// A selection predicate evaluated to false under a concrete binding,
    /// blocking an otherwise-complete join.
    FailedSelection {
        /// Time of evaluation.
        at: Time,
        /// Rule id.
        rule: String,
        /// The selection's source text (its SID, e.g. `"Swi == 2"`).
        sid: String,
        /// Rendered bindings, e.g. `"Swi=3"`.
        bindings: String,
    },
}

impl Vertex {
    /// `true` for the negative vertex kinds.
    pub fn is_negative(&self) -> bool {
        matches!(
            self,
            Vertex::NExist { .. }
                | Vertex::NDerive { .. }
                | Vertex::NInsert { .. }
                | Vertex::NAppear { .. }
                | Vertex::FailedSelection { .. }
        )
    }

    /// Short label for graph rendering.
    pub fn label(&self) -> String {
        match self {
            Vertex::Exist { from, to, node, tuple } => match to {
                Some(t2) => format!("EXIST([{from},{t2}], @{node}, {tuple})"),
                None => format!("EXIST([{from},now], @{node}, {tuple})"),
            },
            Vertex::Insert { at, node, tuple } => format!("INSERT({at}, @{node}, {tuple})"),
            Vertex::Derive { at, node, rule, tuple } => {
                format!("DERIVE({at}, @{node}, {rule}, {tuple})")
            }
            Vertex::Appear { at, node, tuple } => format!("APPEAR({at}, @{node}, {tuple})"),
            Vertex::Send { at, from, to, tuple, positive } => {
                format!("SEND({at}, {from}->{to}, {}{tuple})", if *positive { "+" } else { "-" })
            }
            Vertex::Receive { at, from, to, tuple, positive } => {
                format!("RECEIVE({at}, {to}<-{from}, {}{tuple})", if *positive { "+" } else { "-" })
            }
            Vertex::NExist { from, to, pattern } => {
                format!("NEXIST([{from},{to}], {pattern})")
            }
            Vertex::NDerive { at, rule, pattern } => format!("NDERIVE({at}, {rule}, {pattern})"),
            Vertex::NInsert { at, pattern } => format!("NINSERT({at}, {pattern})"),
            Vertex::NAppear { at, pattern } => format!("NAPPEAR({at}, {pattern})"),
            Vertex::FailedSelection { at, rule, sid, bindings } => {
                format!("FAILED-SEL({at}, {rule}, \"{sid}\" with {bindings})")
            }
        }
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tuple {
        Tuple::new("FlowTable", 3i64, vec![Value::Int(80), Value::Int(2)])
    }

    #[test]
    fn pattern_matching() {
        let p = Pattern::exact(&t());
        assert!(p.matches(&t()));
        let mut p2 = Pattern::exact(&t());
        p2.args[1] = None;
        assert!(p2.matches(&t()));
        assert!(p2.matches(&Tuple::new("FlowTable", 3i64, vec![Value::Int(80), Value::Int(9)])));
        assert!(!p2.matches(&Tuple::new("FlowTable", 3i64, vec![Value::Int(81), Value::Int(2)])));
        assert!(!p2.matches(&Tuple::new("Other", 3i64, vec![Value::Int(80), Value::Int(2)])));
        let any = Pattern::any("FlowTable", 2);
        assert!(any.matches(&t()));
        // arity mismatch
        assert!(!any.matches(&Tuple::new("FlowTable", 3i64, vec![Value::Int(80)])));
    }

    #[test]
    fn pattern_display_shows_wildcards() {
        let mut p = Pattern::exact(&t());
        p.args[1] = None;
        assert_eq!(p.to_string(), "FlowTable(@3,80,?)");
        assert_eq!(Pattern::any("T", 1).to_string(), "T(@?,?)");
    }

    #[test]
    fn vertex_labels_and_polarity() {
        let v = Vertex::Exist { from: 1, to: Some(5), node: Value::Int(3), tuple: t() };
        assert_eq!(v.label(), "EXIST([1,5], @3, FlowTable(@3,80,2))");
        assert!(!v.is_negative());
        let v = Vertex::NExist { from: 0, to: 9, pattern: Pattern::exact(&t()) };
        assert!(v.is_negative());
        assert!(v.label().starts_with("NEXIST"));
        let v = Vertex::FailedSelection {
            at: 3,
            rule: "r7".into(),
            sid: "Swi == 2".into(),
            bindings: "Swi=3".into(),
        };
        assert!(v.is_negative());
        assert!(v.label().contains("Swi == 2"));
    }
}
