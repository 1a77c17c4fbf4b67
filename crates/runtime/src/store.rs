//! The tuple store: per-table, per-node materialized state with
//! primary-key replacement and support counting.

use crate::journal::{
    decode_op, decode_snapshot, encode_snapshot, Journal, StoreOp, StoreRecovery,
};
use crate::log::{TupleId, TupleKind};
use mpr_ndlog::{Schema, Tuple, Value};
use mpr_storage::{StorageBackend, StorageError};
use std::collections::HashMap;

/// A live tuple instance held by the store.
#[derive(Debug, Clone)]
pub struct LiveTuple {
    /// Instance id (stable across the tuple's lifetime).
    pub tid: TupleId,
    /// The tuple.
    pub tuple: Tuple,
    /// Number of base insertions currently supporting it.
    pub base_count: u32,
    /// Number of active derivations currently supporting it.
    pub deriv_count: u32,
}

impl LiveTuple {
    /// Total support.
    pub fn support(&self) -> u32 {
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
    /// Durability journal, when one is attached ([`Store::attach_journal`]).
    /// `None` — the default — is exactly the pre-durability store: zero
    /// cost, zero behavior change.
    journal: Option<Journal>,
}

// The store (and so the engine that owns it) is plain owned data that a
// caller may build on one thread and hand to another; the journal only
// breaks that if a backend smuggles in non-Sync state, so pin it here.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<Store>();
};

impl Store {
    /// Empty store with a schema per table (tables not declared get
    /// set-semantics state schemas on first touch).
    pub fn new() -> Self {
        Store::default()
    }

    /// Register the schema used for keying `table`.
    pub fn declare(&mut self, schema: Schema) {
        self.schemas.insert(schema.table.clone(), schema.clone());
        if self.journal.is_some() {
            self.journal_op(&StoreOp::Declare(schema));
        }
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
        let out = self.add_inner(tuple, base, next_tid);
        // Journal *after* mutating: a compaction triggered by this op must
        // snapshot the post-op state, or the op's effect would be lost.
        if self.journal.is_some() {
            self.journal_op(&StoreOp::Add { tuple: tuple.clone(), base });
        }
        out
    }

    fn add_inner(
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
                base_count: u32::from(base),
                deriv_count: u32::from(!base),
            };
            return AddOutcome::Replaced { old, new: tid };
        }
        let tid = next_tid();
        bucket.insert(
            key,
            LiveTuple {
                tid,
                tuple: tuple.clone(),
                base_count: u32::from(base),
                deriv_count: u32::from(!base),
            },
        );
        AddOutcome::New(tid)
    }

    /// Drop one unit of support for `tuple`.
    pub fn drop_support(&mut self, tuple: &Tuple, base: bool) -> DropOutcome {
        let out = self.drop_inner(tuple, base);
        if self.journal.is_some() && out != DropOutcome::Absent {
            self.journal_op(&StoreOp::Drop { tuple: tuple.clone(), base });
        }
        out
    }

    fn drop_inner(&mut self, tuple: &Tuple, base: bool) -> DropOutcome {
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
        let out = self.evict_inner(tuple);
        if self.journal.is_some() && out.is_some() {
            self.journal_op(&StoreOp::Evict { tuple: tuple.clone() });
        }
        out
    }

    fn evict_inner(&mut self, tuple: &Tuple) -> Option<TupleId> {
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

    // ------------------------------------------------------------------
    // durability

    /// Attach a durability journal. From this point every effectful
    /// mutation is appended as a [`StoreOp`] record; a snapshot compacts
    /// the log every `compact_every` ops (0 = never).
    ///
    /// Existing state is made durable up front: an empty store journals
    /// its schema declarations (cheap), a populated one installs a full
    /// snapshot — so the backend always describes the complete store, and
    /// reattaching after [`Store::recover`] doubles as log compaction.
    pub fn attach_journal(&mut self, backend: Box<dyn StorageBackend>, compact_every: usize) {
        let mut journal = Journal::new(backend, compact_every);
        if self.is_empty() {
            for schema in self.sorted_schemas() {
                journal.append_op(&StoreOp::Declare(schema));
            }
        } else {
            let snap = encode_snapshot(&self.sorted_schemas(), &self.dump());
            journal.install_snapshot(&snap);
        }
        self.journal = Some(journal);
    }

    /// Why durability shut itself off (first backend failure), if it did.
    /// `None` means healthy — or that no journal was ever attached.
    pub fn durability_degraded(&self) -> Option<&str> {
        self.journal.as_ref().and_then(Journal::degraded)
    }

    /// `(records in current WAL segment, WAL bytes)`, when journaling.
    pub fn journal_stats(&self) -> Option<(usize, u64)> {
        self.journal.as_ref().map(Journal::stats)
    }

    /// The attached backend's stable name (`"mem"`, `"wal"`), if any.
    pub fn backend_name(&self) -> Option<&'static str> {
        self.journal.as_ref().map(Journal::backend_name)
    }

    /// Flush journaled writes (called at step and round boundaries).
    pub fn journal_flush(&mut self) {
        if let Some(j) = &mut self.journal {
            j.flush();
        }
    }

    fn journal_op(&mut self, op: &StoreOp) {
        if let Some(j) = &mut self.journal {
            j.append_op(op);
        }
        if self.journal.as_ref().is_some_and(Journal::compaction_due) {
            let snap = encode_snapshot(&self.sorted_schemas(), &self.dump());
            if let Some(j) = &mut self.journal {
                j.install_snapshot(&snap);
            }
        }
    }

    fn sorted_schemas(&self) -> Vec<Schema> {
        let mut v: Vec<Schema> = self.schemas.values().cloned().collect();
        v.sort_by(|a, b| a.table.cmp(&b.table));
        v
    }

    /// Full deterministic dump: every live tuple with its
    /// `(base_count, deriv_count)`, sorted by tuple. This is the state the
    /// recovery harness compares for prefix consistency.
    pub fn dump(&self) -> Vec<(Tuple, u32, u32)> {
        let mut v: Vec<(Tuple, u32, u32)> = self
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

    /// Replay one journaled op (no re-journaling happens unless a journal
    /// is attached to `self`, which recovery does not do).
    pub fn apply_op(&mut self, op: &StoreOp, next_tid: &mut dyn FnMut() -> TupleId) {
        match op {
            StoreOp::Declare(s) => self.declare(s.clone()),
            StoreOp::Add { tuple, base } => {
                self.add(tuple, *base, next_tid);
            }
            StoreOp::Drop { tuple, base } => {
                self.drop_support(tuple, *base);
            }
            StoreOp::Evict { tuple } => {
                self.evict(tuple);
            }
        }
    }

    /// Restore a snapshot entry verbatim (counts are state, not requests).
    fn restore_entry(&mut self, tuple: Tuple, base: u32, deriv: u32, tid: TupleId) {
        let key = self.key_of(&tuple);
        let ts = self.tables.entry(tuple.table.clone()).or_default();
        ts.by_node
            .entry(tuple.loc.clone())
            .or_default()
            .insert(key, LiveTuple { tid, tuple, base_count: base, deriv_count: deriv });
    }

    /// Rebuild a store from a backend's durable state: restore the newest
    /// snapshot, then replay the WAL ops in order. Damage the backend
    /// already survived (torn tail, corrupt records) arrives as the typed
    /// status inside [`StoreRecovery`]; records that fail to *decode*
    /// (format drift past the checksum) stop the replay at the last good
    /// prefix and are counted, never panicked on.
    pub fn recover(
        backend: &mut dyn StorageBackend,
    ) -> Result<(Store, StoreRecovery), StorageError> {
        let recovered = backend.recover()?;
        let mut store = Store::new();
        let mut report = StoreRecovery {
            status: recovered.status,
            snapshot_restored: false,
            ops_applied: 0,
            ops_skipped: 0,
        };
        let mut next: TupleId = 0;
        if let Some(snap) = &recovered.snapshot {
            let (schemas, entries) = decode_snapshot(snap)
                .map_err(|reason| StorageError::Corrupt { offset: 0, reason })?;
            for s in schemas {
                store.declare(s);
            }
            for (tuple, base, deriv) in entries {
                let tid = next;
                next += 1;
                store.restore_entry(tuple, base, deriv, tid);
            }
            report.snapshot_restored = true;
        }
        for rec in &recovered.records {
            match decode_op(rec) {
                Ok(op) => {
                    store.apply_op(&op, &mut || {
                        let t = next;
                        next += 1;
                        t
                    });
                    report.ops_applied += 1;
                }
                Err(_) => break,
            }
        }
        report.ops_skipped = recovered.records.len() - report.ops_applied;
        Ok((store, report))
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
}
