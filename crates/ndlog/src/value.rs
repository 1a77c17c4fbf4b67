//! Runtime values of the NDlog data model.
//!
//! µDlog (the toy language of §3) only has integers; full NDlog programs in
//! this workspace additionally use strings (table and rule identifiers,
//! action names, MAC addresses), booleans and the wildcard `*`.

use std::fmt;
use std::sync::Arc;

/// A first-class NDlog value.
///
/// `Value` is totally ordered so tuples can live in ordered indices; the
/// ordering across variants is arbitrary but stable (Int < Str < Bool <
/// Wild).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A 64-bit signed integer — the only µDlog type.
    Int(i64),
    /// A string (rule ids, table names, MAC addresses...), shared: a copy
    /// of the value is a reference-count bump.
    Str(Arc<str>),
    /// A boolean.
    Bool(bool),
    /// The wildcard `*`: what the parser reads for `*`. It equals only
    /// itself.
    Wild,
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A short type tag, mirroring the `Typ` columns of the full NDlog meta
    /// model (Appendix B.1).
    pub fn type_tag(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Str(_) => "str",
            Value::Bool(_) => "bool",
            Value::Wild => "wild",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => {
                // What the lexer reads back as this string unquoted — a
                // lowercase-initial identifier that is not a keyword —
                // prints bare; anything else is quoted and escaped, so the
                // pretty-printer round-trips through the parser.
                let ident = s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if ident && !matches!(&**s, "true" | "false") {
                    write!(f, "{s}")
                } else {
                    crate::lexer::write_quoted(f, s)
                }
            }
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Wild => write!(f, "*"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_bare_and_quoted_strings() {
        assert_eq!(Value::str("output_1").to_string(), "output_1");
        assert_eq!(Value::str("FlowTable").to_string(), "'FlowTable'");
        assert_eq!(Value::str("Swi == 2").to_string(), "'Swi == 2'");
    }

    #[test]
    fn a_string_the_lexer_reads_otherwise_prints_quoted() {
        // Bare, `a-b` lexes as a subtraction and `true` / `false` as
        // booleans.
        for s in ["a-b", "output-1", "true", "false"] {
            assert_eq!(Value::str(s).to_string(), format!("'{s}'"));
        }
        assert_eq!(Value::str("truth").to_string(), "truth");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(5).as_str(), None);
        assert_eq!(Value::Int(1).type_tag(), "int");
        assert_eq!(Value::str("s").type_tag(), "str");
        assert_eq!(Value::Bool(false).type_tag(), "bool");
        assert_eq!(Value::Wild.type_tag(), "wild");
    }

    #[test]
    fn ordering_is_stable_across_variants() {
        let mut vs = vec![Value::Wild, Value::Bool(false), Value::str("a"), Value::Int(9)];
        vs.sort();
        assert_eq!(
            vs,
            vec![Value::Int(9), Value::str("a"), Value::Bool(false), Value::Wild]
        );
    }
}
