//! The tuple store: per-table materialized state, keyed on a tuple's
//! location and primary key, with primary-key replacement and support
//! counting. Each table is one map, and it is also what the batch engine's
//! joins read: a full-key probe ([`Store::probe`]) or a scan.

use crate::log::{TupleId, TupleKind};
use mpr_ndlog::{Catalog, Schema, Tuple, Value};
use std::collections::HashMap;

/// A live tuple instance held by the store.
#[derive(Debug, Clone)]
pub struct LiveTuple {
    /// Instance id (stable across the tuple's lifetime).
    pub tid: TupleId,
    /// The tuple.
    pub tuple: Tuple,
    /// Number of base insertions currently supporting it.
    pub base_count: u64,
    /// Number of active derivations currently supporting it. An
    /// event-only derivation adds a unit per event that no deletion ever
    /// takes back, so this grows with the traffic.
    pub deriv_count: u64,
}

impl LiveTuple {
    /// Total support.
    pub fn support(&self) -> u64 {
        self.base_count + self.deriv_count
    }

    /// The kind implied by its support mix (base wins for provenance).
    pub fn kind(&self) -> TupleKind {
        if self.base_count > 0 {
            TupleKind::Base
        } else {
            TupleKind::Derived
        }
    }
}

/// Result of adding support to the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddOutcome {
    /// The tuple is new; it must be announced (APPEAR) and propagated.
    New(TupleId),
    /// An identical tuple already existed; support was incremented.
    SupportOnly(TupleId),
    /// A tuple with the same primary key but different payload existed and
    /// was evicted: the old instance must disappear before the new appears.
    Replaced {
        /// Evicted instance.
        old: TupleId,
        /// Newly inserted instance.
        new: TupleId,
    },
}

/// Result of dropping support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropOutcome {
    /// Support remains; nothing visible happened.
    StillAlive,
    /// Support hit zero; the instance disappeared.
    Gone(TupleId),
    /// The tuple was not present at all.
    Absent,
}

/// The multi-node tuple store.
#[derive(Debug, Default)]
pub struct Store {
    /// Per table: the location followed by the key columns → live tuple.
    tables: HashMap<String, HashMap<Vec<Value>, LiveTuple>>,
    schemas: Catalog,
}

impl Store {
    /// An empty store. A table is declared before a tuple of it is stored.
    pub fn new() -> Self {
        Store::default()
    }

    /// Register the schema used for keying `table`. Panics on a key column
    /// the schema's arity does not have (a validated program has none).
    pub fn declare(&mut self, schema: Schema) {
        assert!(schema.keys.iter().all(|&k| k < schema.arity), "{schema}: a key column out of range");
        self.schemas.insert(schema);
    }

    /// Every declared schema: what the batch engine compiles its rules
    /// against, so each join extension's key plan is the store's key.
    pub fn catalog(&self) -> &Catalog {
        &self.schemas
    }

    /// `tuple`'s location followed by its key — the declared key columns
    /// in declared order, or every column under set semantics — built in
    /// one allocation. `None` for an undeclared table or a tuple of
    /// another arity than its table's: the store holds no such tuple.
    fn key_of(&self, tuple: &Tuple) -> Option<Vec<Value>> {
        let schema = self.schemas.get(&tuple.table).filter(|s| s.arity == tuple.args.len())?;
        let mut key = Vec::with_capacity(1 + tuple.args.len());
        key.push(tuple.loc.clone());
        if schema.keys.is_empty() {
            key.extend_from_slice(&tuple.args);
        } else {
            key.extend(schema.keys.iter().map(|&i| tuple.args[i].clone()));
        }
        Some(key)
    }

    /// Add one unit of support for `tuple`. `base` distinguishes base
    /// insertions from derivations. `next_tid` mints the instance id if the
    /// tuple is new. Panics for an undeclared table or a tuple of another
    /// arity: the engine declares every table, and checks every insert's
    /// arity, before it stores.
    pub fn add(
        &mut self,
        tuple: &Tuple,
        base: bool,
        next_tid: &mut dyn FnMut() -> TupleId,
    ) -> AddOutcome {
        let key = self.key_of(tuple).expect("a declared table, at its arity");
        // `entry` would clone the name of a table that, but once, exists.
        if !self.tables.contains_key(&tuple.table) {
            self.tables.insert(tuple.table.clone(), HashMap::new());
        }
        let table = self.tables.get_mut(&tuple.table).expect("inserted above");
        if let Some(live) = table.get_mut(&key) {
            if &live.tuple == tuple {
                if base {
                    live.base_count += 1;
                } else {
                    live.deriv_count += 1;
                }
                return AddOutcome::SupportOnly(live.tid);
            }
            // Primary-key conflict with different payload: replace.
            let old = live.tid;
            let tid = next_tid();
            *live = LiveTuple {
                tid,
                tuple: tuple.clone(),
                base_count: u64::from(base),
                deriv_count: u64::from(!base),
            };
            return AddOutcome::Replaced { old, new: tid };
        }
        let tid = next_tid();
        table.insert(
            key,
            LiveTuple {
                tid,
                tuple: tuple.clone(),
                base_count: u64::from(base),
                deriv_count: u64::from(!base),
            },
        );
        AddOutcome::New(tid)
    }

    /// Drop one unit of support for `tuple`.
    pub fn drop_support(&mut self, tuple: &Tuple, base: bool) -> DropOutcome {
        let (Some(key), Some(table)) = (self.key_of(tuple), self.tables.get_mut(&tuple.table)) else {
            return DropOutcome::Absent;
        };
        let Some(live) = table.get_mut(&key).filter(|l| &l.tuple == tuple) else {
            return DropOutcome::Absent;
        };
        let count = if base { &mut live.base_count } else { &mut live.deriv_count };
        if *count == 0 {
            return DropOutcome::Absent;
        }
        *count -= 1;
        if live.support() > 0 {
            return DropOutcome::StillAlive;
        }
        let tid = live.tid;
        table.remove(&key);
        DropOutcome::Gone(tid)
    }

    /// Forcibly remove an instance by exact tuple (used for replacement
    /// cascades). Returns its id if present.
    pub fn evict(&mut self, tuple: &Tuple) -> Option<TupleId> {
        let key = self.key_of(tuple)?;
        let table = self.tables.get_mut(&tuple.table)?;
        let tid = table.get(&key).filter(|l| &l.tuple == tuple)?.tid;
        table.remove(&key);
        Some(tid)
    }

    /// Look up the live instance of an exact tuple.
    pub fn get(&self, tuple: &Tuple) -> Option<&LiveTuple> {
        let key = self.key_of(tuple)?;
        self.tables.get(&tuple.table)?.get(&key).filter(|l| &l.tuple == tuple)
    }

    /// The live tuple of `table` whose location and key columns, in key
    /// order, are `key` — the one candidate of a full-key join probe.
    pub fn probe(&self, table: &str, key: &[Value]) -> Option<&LiveTuple> {
        self.tables.get(table)?.get(key)
    }

    /// `true` when the exact tuple is live.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.get(tuple).is_some()
    }

    /// Iterate live tuples of `table`, optionally restricted to one node.
    ///
    /// The iteration walks a hash map, so the order varies between runs
    /// and even between identical stores. Callers whose results depend on
    /// visit order — anything feeding the fixpoint or the provenance log —
    /// must use [`Store::scan_ordered`] instead.
    pub fn scan<'a>(&'a self, table: &str, node: Option<&'a Value>) -> impl Iterator<Item = &'a LiveTuple> + 'a {
        self.tables
            .get(table)
            .into_iter()
            .flat_map(HashMap::values)
            .filter(move |l| node.map_or(true, |n| &l.tuple.loc == n))
    }

    /// Like [`Store::scan`], but in ascending instance-id order — a total,
    /// run-to-run stable order (ids are minted sequentially), the order the
    /// batch engine's partial-key scans visit their matches in. Join loops
    /// visit candidates in it so that order-sensitive effects (primary-key
    /// replacement is last-write-wins) are deterministic.
    pub fn scan_ordered<'a>(&'a self, table: &str, node: Option<&'a Value>) -> Vec<&'a LiveTuple> {
        let mut v: Vec<&'a LiveTuple> = self.scan(table, node).collect();
        v.sort_unstable_by_key(|l| l.tid);
        v
    }

    /// All live tuples of `table`, sorted for deterministic output.
    pub fn tuples(&self, table: &str) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.scan(table, None).map(|l| l.tuple.clone()).collect();
        v.sort();
        v
    }

    /// Total number of live tuples across all tables.
    pub fn len(&self) -> usize {
        self.tables.values().map(HashMap::len).sum()
    }

    /// `true` when the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Full deterministic dump: every live tuple with its
    /// `(base_count, deriv_count)`, sorted by tuple. This is the state the
    /// recovery harness compares for prefix consistency.
    pub fn dump(&self) -> Vec<(Tuple, u64, u64)> {
        let mut v: Vec<(Tuple, u64, u64)> = self
            .tables
            .values()
            .flat_map(HashMap::values)
            .map(|l| (l.tuple.clone(), l.base_count, l.deriv_count))
            .collect();
        v.sort();
        v
    }

    /// Live tuples with base support, sorted — the durable facts a
    /// restarted engine re-seeds from (derived state is recomputed).
    pub fn base_tuples(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self
            .tables
            .values()
            .flat_map(HashMap::values)
            .filter(|l| l.base_count > 0)
            .map(|l| l.tuple.clone())
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(args: &[i64]) -> Tuple {
        Tuple::new("T", 1i64, args.iter().map(|&v| Value::Int(v)).collect())
    }

    fn mk_store_keyed() -> Store {
        let mut s = Store::new();
        s.declare(Schema::state_keyed("T", 2, vec![0]));
        s
    }

    fn mk_store_set(arity: usize) -> Store {
        let mut s = Store::new();
        s.declare(Schema::state("T", arity));
        s
    }

    #[test]
    fn add_and_support_counting() {
        let mut s = mk_store_set(2);
        let mut next = 0;
        let mut tid = || {
            let v = next;
            next += 1;
            v
        };
        assert_eq!(s.add(&t(&[1, 2]), true, &mut tid), AddOutcome::New(0));
        assert_eq!(s.add(&t(&[1, 2]), false, &mut tid), AddOutcome::SupportOnly(0));
        assert!(s.contains(&t(&[1, 2])));
        assert_eq!(s.get(&t(&[1, 2])).unwrap().support(), 2);
        assert_eq!(s.drop_support(&t(&[1, 2]), true), DropOutcome::StillAlive);
        assert_eq!(s.drop_support(&t(&[1, 2]), false), DropOutcome::Gone(0));
        assert!(!s.contains(&t(&[1, 2])));
        assert_eq!(s.drop_support(&t(&[1, 2]), false), DropOutcome::Absent);
    }

    #[test]
    fn primary_key_replacement() {
        let mut s = mk_store_keyed();
        let mut next = 0;
        let mut tid = || {
            let v = next;
            next += 1;
            v
        };
        assert_eq!(s.add(&t(&[1, 2]), true, &mut tid), AddOutcome::New(0));
        // Same key (first col), different payload → replacement.
        assert_eq!(
            s.add(&t(&[1, 9]), true, &mut tid),
            AddOutcome::Replaced { old: 0, new: 1 }
        );
        assert!(!s.contains(&t(&[1, 2])));
        assert!(s.contains(&t(&[1, 9])));
        // Different key → coexists.
        assert_eq!(s.add(&t(&[2, 2]), true, &mut tid), AddOutcome::New(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn per_node_scan() {
        let mut s = mk_store_set(1);
        let mut next = 0;
        let mut tid = || {
            let v = next;
            next += 1;
            v
        };
        let t1 = Tuple::new("T", 1i64, vec![Value::Int(1)]);
        let t2 = Tuple::new("T", 2i64, vec![Value::Int(1)]);
        s.add(&t1, true, &mut tid);
        s.add(&t2, true, &mut tid);
        assert_eq!(s.scan("T", None).count(), 2);
        assert_eq!(s.scan("T", Some(&Value::Int(1))).count(), 1);
        assert_eq!(s.scan("T", Some(&Value::Int(9))).count(), 0);
        assert_eq!(s.scan("Missing", None).count(), 0);
    }

    #[test]
    fn evict_removes_exact_instance() {
        let mut s = mk_store_keyed();
        let mut next = 0;
        let mut tid = || {
            let v = next;
            next += 1;
            v
        };
        s.add(&t(&[1, 2]), true, &mut tid);
        assert_eq!(s.evict(&t(&[1, 3])), None); // payload mismatch
        assert_eq!(s.evict(&t(&[1, 2])), Some(0));
        assert!(s.is_empty());
    }

    #[test]
    fn support_past_u32_max_stays_alive() {
        // An event-only derivation into a live entry at 2 M packet-ins a
        // second reaches 2^32 units in about 36 minutes.
        let mut s = mk_store_set(2);
        let mut tid = || 0;
        s.add(&t(&[1, 2]), false, &mut tid);
        s.tables.get_mut("T").unwrap().values_mut().next().unwrap().deriv_count = u32::MAX.into();
        assert_eq!(s.add(&t(&[1, 2]), false, &mut tid), AddOutcome::SupportOnly(0));
        assert_eq!(s.add(&t(&[1, 2]), true, &mut tid), AddOutcome::SupportOnly(0));
        assert!(s.get(&t(&[1, 2])).unwrap().support() > u32::MAX.into());
        assert_eq!(s.drop_support(&t(&[1, 2]), true), DropOutcome::StillAlive);
        assert!(s.contains(&t(&[1, 2])));
    }

    #[test]
    fn probe_reads_the_key_map() {
        let mut s = mk_store_keyed();
        let mut next = 0;
        let mut tid = || {
            let v = next;
            next += 1;
            v
        };
        s.add(&t(&[1, 2]), true, &mut tid);
        s.add(&t(&[3, 4]), true, &mut tid);
        let key = |k: i64| [Value::Int(1), Value::Int(k)];
        assert_eq!(s.probe("T", &key(3)).map(|l| l.tid), Some(1));
        assert_eq!(s.probe("T", &key(1)).map(|l| &l.tuple), Some(&t(&[1, 2])));
        assert!(s.probe("T", &key(2)).is_none());
        assert!(s.probe("Missing", &key(1)).is_none());
    }

    #[test]
    fn a_tuple_of_another_arity_is_not_there() {
        let mut s = mk_store_set(2);
        s.add(&t(&[1, 2]), true, &mut || 0);
        assert!(!s.contains(&t(&[1])) && !s.contains(&t(&[1, 2, 3])));
        assert_eq!(s.drop_support(&t(&[1]), true), DropOutcome::Absent);
        assert_eq!(s.evict(&t(&[1, 2, 3])), None);
        assert!(s.contains(&t(&[1, 2])));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_key_column_past_the_arity_is_refused() {
        Store::new().declare(Schema::state_keyed("T", 2, vec![5]));
    }
}
