//! Keyed hash indexes on join columns.
//!
//! The batch engine ([`crate::engine::EvalStrategy::Batch`]) probes these
//! instead of scanning a whole table per join extension: every `(table, bound columns)` shape a
//! compiled rule can ask for is registered up front, and the engine keeps
//! every registered index in sync with the store as tuples appear and
//! disappear. A probe returns the tuple instances whose key columns equal
//! the bound values — O(matches) instead of O(table).
//!
//! Column numbering is uniform across the crate: column `0` is the `@`
//! location, column `i + 1` is payload argument `i`.
//!
//! Buckets are `BTreeSet`s, so every probe yields candidates in ascending
//! tuple-id order: join order — and with it the execution log — never
//! inherits hash-map iteration order.

use crate::log::TupleId;
use mpr_ndlog::{Tuple, Value};
use std::collections::{BTreeSet, HashMap};

/// A column selector: `0` is the location, `i + 1` is payload argument `i`.
pub type Col = usize;

/// The shape of one index: a table plus the ordered key columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexSpec {
    /// Indexed table.
    pub table: String,
    /// Key columns, in probe order.
    pub cols: Vec<Col>,
}

impl IndexSpec {
    /// Extract this index's key from a tuple. `None` when the tuple is too
    /// short for one of the key columns (such a tuple can never match the
    /// atom the index serves, so it is simply not indexed here).
    pub fn key_of(&self, tuple: &Tuple) -> Option<Vec<Value>> {
        self.cols
            .iter()
            .map(|&c| {
                if c == 0 {
                    Some(tuple.loc.clone())
                } else {
                    tuple.args.get(c - 1).cloned()
                }
            })
            .collect()
    }
}

#[derive(Debug)]
struct KeyedIndex {
    spec: IndexSpec,
    /// Key values → live tuple instances, ordered by id so probe order is
    /// deterministic (insertion order).
    buckets: HashMap<Vec<Value>, BTreeSet<TupleId>>,
}

/// All keyed indexes of one engine, updated together.
#[derive(Debug, Default)]
pub struct IndexRegistry {
    indexes: Vec<KeyedIndex>,
    ids: HashMap<IndexSpec, usize>,
    /// table → indexes over it (for update fan-out).
    by_table: HashMap<String, Vec<usize>>,
}

impl IndexRegistry {
    /// Register an index shape, returning its id. Idempotent: the same
    /// spec always maps to the same id.
    pub fn register(&mut self, spec: IndexSpec) -> usize {
        if let Some(&id) = self.ids.get(&spec) {
            return id;
        }
        let id = self.indexes.len();
        self.ids.insert(spec.clone(), id);
        self.by_table.entry(spec.table.clone()).or_default().push(id);
        self.indexes.push(KeyedIndex { spec, buckets: HashMap::new() });
        id
    }

    /// Number of registered indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// `true` when no index is registered.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Add a live tuple instance to every index over its table.
    pub fn insert(&mut self, tid: TupleId, tuple: &Tuple) {
        let Some(ids) = self.by_table.get(&tuple.table) else {
            return;
        };
        for &id in ids {
            let idx = &mut self.indexes[id];
            if let Some(key) = idx.spec.key_of(tuple) {
                idx.buckets.entry(key).or_default().insert(tid);
            }
        }
    }

    /// Remove a tuple instance from every index over its table.
    pub fn remove(&mut self, tid: TupleId, tuple: &Tuple) {
        let Some(ids) = self.by_table.get(&tuple.table) else {
            return;
        };
        for &id in ids {
            let idx = &mut self.indexes[id];
            if let Some(key) = idx.spec.key_of(tuple) {
                if let Some(bucket) = idx.buckets.get_mut(&key) {
                    bucket.remove(&tid);
                    if bucket.is_empty() {
                        idx.buckets.remove(&key);
                    }
                }
            }
        }
    }

    /// The live instances matching `key` under index `id`, in id order.
    pub fn probe(&self, id: usize, key: &[Value]) -> impl Iterator<Item = TupleId> + '_ {
        self.indexes[id]
            .buckets
            .get(key)
            .into_iter()
            .flat_map(|b| b.iter().copied())
    }

    /// Total number of (index, tuple) entries — a size diagnostic.
    pub fn entry_count(&self) -> usize {
        self.indexes
            .iter()
            .map(|i| i.buckets.values().map(BTreeSet::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(loc: i64, args: &[i64]) -> Tuple {
        Tuple::new("T", loc, args.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = IndexRegistry::default();
        let a = r.register(IndexSpec { table: "T".into(), cols: vec![0, 2] });
        let b = r.register(IndexSpec { table: "T".into(), cols: vec![0, 2] });
        let c = r.register(IndexSpec { table: "T".into(), cols: vec![1] });
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn probe_returns_matching_instances_in_id_order() {
        let mut r = IndexRegistry::default();
        let id = r.register(IndexSpec { table: "T".into(), cols: vec![0, 1] });
        r.insert(7, &t(1, &[5, 8]));
        r.insert(3, &t(1, &[5, 9]));
        r.insert(4, &t(2, &[5, 9]));
        let key = vec![Value::Int(1), Value::Int(5)];
        let hits: Vec<TupleId> = r.probe(id, &key).collect();
        assert_eq!(hits, vec![3, 7]);
        r.remove(7, &t(1, &[5, 8]));
        let hits: Vec<TupleId> = r.probe(id, &key).collect();
        assert_eq!(hits, vec![3]);
    }

    #[test]
    fn short_tuples_are_skipped_not_panicking() {
        let mut r = IndexRegistry::default();
        let id = r.register(IndexSpec { table: "T".into(), cols: vec![3] });
        r.insert(0, &t(1, &[5])); // arity 1 < col 3: unindexable
        assert_eq!(r.entry_count(), 0);
        assert_eq!(r.probe(id, &[Value::Int(5)]).count(), 0);
        r.remove(0, &t(1, &[5])); // must not panic either
    }

    #[test]
    fn empty_cols_index_is_a_table_scan() {
        let mut r = IndexRegistry::default();
        let id = r.register(IndexSpec { table: "T".into(), cols: vec![] });
        r.insert(0, &t(1, &[1]));
        r.insert(1, &t(2, &[2]));
        assert_eq!(r.probe(id, &[]).count(), 2);
    }
}
