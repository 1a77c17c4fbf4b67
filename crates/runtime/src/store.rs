//! The tuple store: per-table, per-node materialized state with
//! primary-key replacement and support counting.

use crate::log::{TupleId, TupleKind};
use mpr_ndlog::{Schema, Tuple, Value};
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

#[derive(Debug, Default)]
struct TableStore {
    /// node → key columns → live tuple. Nesting by node keeps the common
    /// location-bound scan of the pipelined join O(node bucket) instead of
    /// O(table); empty node buckets are removed eagerly.
    by_node: HashMap<Value, HashMap<Vec<Value>, LiveTuple>>,
}

impl TableStore {
    fn len(&self) -> usize {
        self.by_node.values().map(HashMap::len).sum()
    }
}

/// The multi-node tuple store.
#[derive(Debug, Default)]
pub struct Store {
    tables: HashMap<String, TableStore>,
    schemas: HashMap<String, Schema>,
}

impl Store {
    /// Empty store with a schema per table (tables not declared get
    /// set-semantics state schemas on first touch).
    pub fn new() -> Self {
        Store::default()
    }

    /// Register the schema used for keying `table`.
    pub fn declare(&mut self, schema: Schema) {
        self.schemas.insert(schema.table.clone(), schema);
    }

    /// The declared schema of `table`, if any. An undeclared table is
    /// state keyed on all its columns, at whatever arity it is used with.
    pub fn schema_for(&self, table: &str) -> Option<&Schema> {
        self.schemas.get(table)
    }

    /// `tuple` projected onto its table's key: the declared key columns,
    /// or every column the schema (the tuple, if undeclared) has.
    fn key_of(&self, tuple: &Tuple) -> Vec<Value> {
        match self.schemas.get(&tuple.table) {
            Some(schema) if !schema.keys.is_empty() => tuple.key(&schema.keys),
            schema => {
                let arity = schema.map_or(tuple.args.len(), |s| s.arity);
                tuple.args.iter().take(arity).cloned().collect()
            }
        }
    }

    /// Add one unit of support for `tuple`. `base` distinguishes base
    /// insertions from derivations. `next_tid` mints the instance id if the
    /// tuple is new.
    pub fn add(
        &mut self,
        tuple: &Tuple,
        base: bool,
        next_tid: &mut dyn FnMut() -> TupleId,
    ) -> AddOutcome {
        let key = self.key_of(tuple);
        // `entry` would clone the name of a table that, but once, exists.
        if !self.tables.contains_key(&tuple.table) {
            self.tables.insert(tuple.table.clone(), TableStore::default());
        }
        let ts = self.tables.get_mut(&tuple.table).expect("inserted above");
        let bucket = ts.by_node.entry(tuple.loc.clone()).or_default();
        if let Some(live) = bucket.get_mut(&key) {
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
        bucket.insert(
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
        let key = self.key_of(tuple);
        let Some(ts) = self.tables.get_mut(&tuple.table) else {
            return DropOutcome::Absent;
        };
        let Some(bucket) = ts.by_node.get_mut(&tuple.loc) else {
            return DropOutcome::Absent;
        };
        let Some(live) = bucket.get_mut(&key) else {
            return DropOutcome::Absent;
        };
        if &live.tuple != tuple {
            return DropOutcome::Absent;
        }
        if base {
            if live.base_count == 0 {
                return DropOutcome::Absent;
            }
            live.base_count -= 1;
        } else {
            if live.deriv_count == 0 {
                return DropOutcome::Absent;
            }
            live.deriv_count -= 1;
        }
        if live.support() == 0 {
            let tid = live.tid;
            bucket.remove(&key);
            if bucket.is_empty() {
                ts.by_node.remove(&tuple.loc);
            }
            DropOutcome::Gone(tid)
        } else {
            DropOutcome::StillAlive
        }
    }

    /// Forcibly remove an instance by exact tuple (used for replacement
    /// cascades). Returns its id if present.
    pub fn evict(&mut self, tuple: &Tuple) -> Option<TupleId> {
        let key = self.key_of(tuple);
        let ts = self.tables.get_mut(&tuple.table)?;
        let bucket = ts.by_node.get_mut(&tuple.loc)?;
        match bucket.get(&key) {
            Some(live) if &live.tuple == tuple => {
                let tid = live.tid;
                bucket.remove(&key);
                if bucket.is_empty() {
                    ts.by_node.remove(&tuple.loc);
                }
                Some(tid)
            }
            _ => None,
        }
    }

    /// Look up the live instance of an exact tuple.
    pub fn get(&self, tuple: &Tuple) -> Option<&LiveTuple> {
        let key = self.key_of(tuple);
        self.tables
            .get(&tuple.table)?
            .by_node
            .get(&tuple.loc)?
            .get(&key)
            .filter(|l| &l.tuple == tuple)
    }

    /// `true` when the exact tuple is live.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.get(tuple).is_some()
    }

    /// Iterate live tuples of `table`, optionally restricted to one node.
    ///
    /// The iteration walks hash maps, so the order varies between runs and
    /// even between identical stores. Callers whose results depend on visit
    /// order — anything feeding the fixpoint or the provenance log — must
    /// use [`Store::scan_ordered`] instead.
    pub fn scan<'a>(
        &'a self,
        table: &str,
        node: Option<&'a Value>,
    ) -> Box<dyn Iterator<Item = &'a LiveTuple> + 'a> {
        match self.tables.get(table) {
            None => Box::new(std::iter::empty()),
            Some(ts) => match node {
                None => Box::new(ts.by_node.values().flat_map(HashMap::values)),
                Some(n) => match ts.by_node.get(n) {
                    None => Box::new(std::iter::empty()),
                    Some(bucket) => Box::new(bucket.values()),
                },
            },
        }
    }

    /// Like [`Store::scan`], but in ascending instance-id order — a total,
    /// run-to-run stable order (ids are minted sequentially), matching the
    /// `BTreeSet` bucket order of the batch engine's keyed indexes. Join
    /// loops visit candidates through this so that order-sensitive effects
    /// (primary-key replacement is last-write-wins) are deterministic.
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
        self.tables.values().map(TableStore::len).sum()
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
            .flat_map(|ts| ts.by_node.values())
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
            .flat_map(|ts| ts.by_node.values())
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

    #[test]
    fn add_and_support_counting() {
        let mut s = Store::new();
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
        let mut s = Store::new();
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
        let mut s = Store::new();
        let mut tid = || 0;
        s.add(&t(&[1, 2]), false, &mut tid);
        let live = s.tables.get_mut("T").unwrap().by_node.get_mut(&Value::Int(1)).unwrap();
        live.values_mut().next().unwrap().deriv_count = u32::MAX.into();
        assert_eq!(s.add(&t(&[1, 2]), false, &mut tid), AddOutcome::SupportOnly(0));
        assert_eq!(s.add(&t(&[1, 2]), true, &mut tid), AddOutcome::SupportOnly(0));
        assert!(s.get(&t(&[1, 2])).unwrap().support() > u32::MAX.into());
        assert_eq!(s.drop_support(&t(&[1, 2]), true), DropOutcome::StillAlive);
        assert!(s.contains(&t(&[1, 2])));
    }
}
