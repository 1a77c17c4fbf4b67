//! Keyed hash indexes on join columns.
//!
//! The batch engine ([`crate::engine::EvalStrategy::Batch`]) probes these
//! instead of scanning a whole table per join extension: the `(table,
//! bound columns)` shapes a rule's join extensions ask for are registered
//! when the rule is compiled — at the first delta that reaches it — and a
//! new index is filled from the table's live tuples there and then; from
//! then on the engine keeps every registered index in sync with the store
//! as tuples appear and disappear. A probe returns the tuple instances
//! whose key columns equal the bound values — O(matches) instead of
//! O(table).
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

impl KeyedIndex {
    fn add(&mut self, tid: TupleId, tuple: &Tuple) {
        if let Some(key) = self.spec.key_of(tuple) {
            self.buckets.entry(key).or_default().insert(tid);
        }
    }
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
    /// spec always maps to the same id. A new index is filled with `live`,
    /// the live instances of its table, so it is complete from the moment
    /// it exists; an index already registered is complete already, and
    /// `live` is not read.
    pub fn register<'t>(
        &mut self,
        spec: IndexSpec,
        live: impl IntoIterator<Item = (TupleId, &'t Tuple)>,
    ) -> usize {
        if let Some(&id) = self.ids.get(&spec) {
            return id;
        }
        let id = self.indexes.len();
        self.ids.insert(spec.clone(), id);
        self.by_table.entry(spec.table.clone()).or_default().push(id);
        let mut index = KeyedIndex { spec, buckets: HashMap::new() };
        live.into_iter().for_each(|(tid, tuple)| index.add(tid, tuple));
        self.indexes.push(index);
        id
    }

    /// Does every index over `table` hold exactly the keyable instances of
    /// `live` — each once, under its own key, and nothing else? The check
    /// behind every backfill in debug builds.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn holds_exactly<'t, I: Iterator<Item = (TupleId, &'t Tuple)>>(
        &self,
        table: &str,
        live: impl Fn() -> I,
    ) -> bool {
        self.by_table.get(table).map_or(&[][..], Vec::as_slice).iter().all(|&id| {
            let idx = &self.indexes[id];
            let mut keyed = 0;
            let all_in = live().all(|(tid, tuple)| match idx.spec.key_of(tuple) {
                Some(key) => {
                    keyed += 1;
                    idx.buckets.get(&key).is_some_and(|b| b.contains(&tid))
                }
                None => true,
            });
            all_in && idx.buckets.values().map(BTreeSet::len).sum::<usize>() == keyed
        })
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
            self.indexes[id].add(tid, tuple);
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

    fn spec(cols: Vec<Col>) -> IndexSpec {
        IndexSpec { table: "T".into(), cols }
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = IndexRegistry::default();
        let a = r.register(spec(vec![0, 2]), []);
        let b = r.register(spec(vec![0, 2]), []);
        let c = r.register(spec(vec![1]), []);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn a_late_index_is_filled_from_the_live_tuples() {
        let mut r = IndexRegistry::default();
        let (a, b, short) = (t(1, &[5, 8]), t(1, &[5, 9]), t(1, &[]));
        let live = [(3, &a), (7, &b), (9, &short)];
        let id = r.register(spec(vec![0, 1]), live);
        let hits: Vec<TupleId> = r.probe(id, &[Value::Int(1), Value::Int(5)]).collect();
        assert_eq!(hits, vec![3, 7]);
        assert!(r.holds_exactly("T", || live.into_iter()));
        // A registered shape is complete already: what is handed in again
        // is not read.
        assert_eq!(r.register(spec(vec![0, 1]), [(4, &a)]), id);
        assert_eq!(r.entry_count(), 2);
        assert!(!r.holds_exactly("T", || live[..1].iter().copied()), "an entry too many");
    }

    #[test]
    fn probe_returns_matching_instances_in_id_order() {
        let mut r = IndexRegistry::default();
        let id = r.register(spec(vec![0, 1]), []);
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
        let id = r.register(spec(vec![3]), []);
        r.insert(0, &t(1, &[5])); // arity 1 < col 3: unindexable
        assert_eq!(r.entry_count(), 0);
        assert_eq!(r.probe(id, &[Value::Int(5)]).count(), 0);
        r.remove(0, &t(1, &[5])); // must not panic either
    }

    #[test]
    fn empty_cols_index_is_a_table_scan() {
        let mut r = IndexRegistry::default();
        let id = r.register(spec(vec![]), []);
        r.insert(0, &t(1, &[1]));
        r.insert(1, &t(2, &[2]));
        assert_eq!(r.probe(id, &[]).count(), 2);
    }
}
