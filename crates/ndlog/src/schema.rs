//! Table schemas: arity, primary keys, and persistence.
//!
//! NDlog distinguishes *materialized state* (tables that persist, declared
//! with `materialize(...)` in RapidNet) from *event streams* (transient
//! messages). The distinction matters to the meta model: meta rules `h1–h4`
//! of the full model (Appendix B.1) branch on `Timeout == 0` (event) vs
//! `Timeout == 1` (state).

use std::collections::BTreeMap;
use std::fmt;

/// Whether a table's tuples persist (state) or are transient (events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persistence {
    /// Materialized state: persists until deleted; replaced on key conflict.
    State,
    /// Event stream: consumed by rule evaluation, never stored.
    Event,
}

/// Schema of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Table name.
    pub table: String,
    /// Number of payload arguments (the `@` location column excluded).
    pub arity: usize,
    /// Primary-key columns, as indices into the payload arguments. The
    /// location column is always implicitly part of the key. An empty key
    /// means "all columns" (set semantics).
    pub keys: Vec<usize>,
    /// State vs event.
    pub persistence: Persistence,
}

impl Schema {
    /// A state table keyed on all columns (set semantics).
    pub fn state(table: impl Into<String>, arity: usize) -> Self {
        Schema { table: table.into(), arity, keys: Vec::new(), persistence: Persistence::State }
    }

    /// A state table with explicit primary-key columns.
    pub fn state_keyed(table: impl Into<String>, arity: usize, keys: Vec<usize>) -> Self {
        Schema { table: table.into(), arity, keys, persistence: Persistence::State }
    }

    /// An event (transient) table.
    pub fn event(table: impl Into<String>, arity: usize) -> Self {
        Schema { table: table.into(), arity, keys: Vec::new(), persistence: Persistence::Event }
    }

    /// Effective key columns: the declared keys, or all columns when none
    /// were declared.
    pub fn effective_keys(&self) -> Vec<usize> {
        if self.keys.is_empty() {
            (0..self.arity).collect()
        } else {
            self.keys.clone()
        }
    }

    /// `true` when this table persists.
    pub fn is_state(&self) -> bool {
        self.persistence == Persistence::State
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let life = match self.persistence {
            Persistence::State => "infinity",
            Persistence::Event => "event",
        };
        write!(f, "materialize({}, {}, {}, keys(", self.table, life, self.arity)?;
        for (i, k) in self.keys.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, ")).")
    }
}

/// A catalogue of the schemas a program declares. A table it does not
/// declare has no schema here: [`Catalog::get`] answers `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    schemas: BTreeMap<String, Schema>,
}

impl Catalog {
    /// Empty catalogue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a schema.
    pub fn insert(&mut self, schema: Schema) {
        self.schemas.insert(schema.table.clone(), schema);
    }

    /// Declared schema for `table`, if any.
    pub fn get(&self, table: &str) -> Option<&Schema> {
        self.schemas.get(table)
    }

    /// Iterate over declared schemas in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Schema> {
        self.schemas.values()
    }

    /// Number of declared schemas.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// `true` when no schemas are declared.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_keys_default_to_all_columns() {
        let s = Schema::state("T", 3);
        assert_eq!(s.effective_keys(), vec![0, 1, 2]);
        let s = Schema::state_keyed("T", 3, vec![1]);
        assert_eq!(s.effective_keys(), vec![1]);
    }

    #[test]
    fn catalog_fallback() {
        let mut c = Catalog::new();
        c.insert(Schema::state_keyed("FlowTable", 2, vec![0]));
        assert_eq!(c.get("FlowTable").unwrap().keys, vec![0]);
        assert!(c.get("Missing").is_none());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn display_materialize() {
        let s = Schema::state_keyed("FlowTable", 3, vec![0, 1]);
        assert_eq!(s.to_string(), "materialize(FlowTable, infinity, 3, keys(0,1)).");
    }
}
