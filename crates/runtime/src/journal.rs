//! Store-mutation journaling: the codec and bookkeeping that sit between
//! [`crate::store::Store`] and an [`mpr_storage::StorageBackend`].
//!
//! Every effectful store mutation — schema declaration, support add/drop,
//! eviction — is journaled as one [`StoreOp`] record *as it happens*, so a
//! crash at any WAL byte offset lands between two ops and recovery replays
//! an exact op prefix (mid-fixpoint granularity, not just step
//! granularity). Snapshots serialize the whole store deterministically
//! (sorted schemas, then sorted tuples with their support counts), so two
//! identical stores always produce byte-identical snapshots.
//!
//! Durability failures never take the engine down: the first backend error
//! flips the journal into a degraded state (recorded, queryable via
//! [`crate::store::Store::durability_degraded`]) and evaluation continues
//! memory-only — mirroring the chaos harness's graceful-degradation ladder.

use crate::codec::{put_schema, put_tuple, put_u32, Reader};
use mpr_ndlog::{Schema, Tuple};
use mpr_storage::{Recovery, StorageBackend, StorageError};
use std::fmt;

/// One journaled store mutation. `Add`/`Drop` carry the *request* (tuple +
/// base flag), not the outcome: outcomes are a deterministic function of
/// the store state, so replaying requests in order reproduces the state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Register a table schema (keying semantics must be in the journal
    /// *before* any tuple op on the table, or replay would key wrongly).
    Declare(Schema),
    /// One unit of support added.
    Add {
        /// The tuple.
        tuple: Tuple,
        /// Base insertion (`true`) vs derivation (`false`).
        base: bool,
    },
    /// One unit of support dropped.
    Drop {
        /// The tuple.
        tuple: Tuple,
        /// Base deletion (`true`) vs underivation (`false`).
        base: bool,
    },
    /// Forced removal of an exact instance (replacement cascades).
    Evict {
        /// The tuple.
        tuple: Tuple,
    },
}

// ---------------------------------------------------------------------------
// op codec (on top of crate::codec)

/// Encode one op as a WAL record payload.
pub fn encode_op(op: &StoreOp) -> Vec<u8> {
    let mut buf = Vec::with_capacity(48);
    match op {
        StoreOp::Declare(s) => {
            buf.push(0);
            put_schema(&mut buf, s);
        }
        StoreOp::Add { tuple, base } => {
            buf.push(1);
            buf.push(u8::from(*base));
            put_tuple(&mut buf, tuple);
        }
        StoreOp::Drop { tuple, base } => {
            buf.push(2);
            buf.push(u8::from(*base));
            put_tuple(&mut buf, tuple);
        }
        StoreOp::Evict { tuple } => {
            buf.push(3);
            put_tuple(&mut buf, tuple);
        }
    }
    buf
}

/// Decode one WAL record payload back into an op.
pub fn decode_op(bytes: &[u8]) -> Result<StoreOp, String> {
    let mut r = Reader::new(bytes);
    let op = match r.u8()? {
        0 => StoreOp::Declare(r.schema()?),
        1 => {
            let base = r.u8()? != 0;
            StoreOp::Add { tuple: r.tuple()?, base }
        }
        2 => {
            let base = r.u8()? != 0;
            StoreOp::Drop { tuple: r.tuple()?, base }
        }
        3 => StoreOp::Evict { tuple: r.tuple()? },
        t => return Err(format!("unknown op tag {t}")),
    };
    r.finish()?;
    Ok(op)
}

// ---------------------------------------------------------------------------
// snapshot codec

/// Version byte of the snapshot payload format.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Encode a full store state (schemas + live tuples with support
/// counts). Both sections are sorted — schemas by table, tuples by their
/// total order — so identical states yield byte-identical snapshots.
pub fn encode_snapshot(schemas: &[Schema], entries: &[(Tuple, u32, u32)]) -> Vec<u8> {
    debug_assert!(schemas.windows(2).all(|w| w[0].table <= w[1].table));
    debug_assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut buf = Vec::with_capacity(64 + entries.len() * 32);
    buf.push(SNAPSHOT_VERSION);
    put_u32(&mut buf, schemas.len() as u32);
    for s in schemas {
        put_schema(&mut buf, s);
    }
    put_u32(&mut buf, entries.len() as u32);
    for (t, base, deriv) in entries {
        put_tuple(&mut buf, t);
        put_u32(&mut buf, *base);
        put_u32(&mut buf, *deriv);
    }
    buf
}

/// Decode a snapshot payload.
#[allow(clippy::type_complexity)]
pub fn decode_snapshot(bytes: &[u8]) -> Result<(Vec<Schema>, Vec<(Tuple, u32, u32)>), String> {
    let mut r = Reader::new(bytes);
    let v = r.u8()?;
    if v != SNAPSHOT_VERSION {
        return Err(format!("unsupported snapshot version {v}"));
    }
    let ns = r.u32()? as usize;
    if ns > 1 << 24 {
        return Err(format!("implausible schema count {ns}"));
    }
    let mut schemas = Vec::with_capacity(ns);
    for _ in 0..ns {
        schemas.push(r.schema()?);
    }
    let nt = r.u32()? as usize;
    if nt > 1 << 28 {
        return Err(format!("implausible tuple count {nt}"));
    }
    let mut entries = Vec::with_capacity(nt);
    for _ in 0..nt {
        let t = r.tuple()?;
        let base = r.u32()?;
        let deriv = r.u32()?;
        entries.push((t, base, deriv));
    }
    r.finish()?;
    Ok((schemas, entries))
}

// ---------------------------------------------------------------------------
// the journal

/// The store's handle on a storage backend: encodes ops, counts records
/// toward the compaction threshold, and degrades gracefully on the first
/// backend failure instead of propagating it into evaluation.
pub struct Journal {
    backend: Box<dyn StorageBackend>,
    compact_every: usize,
    since_compact: usize,
    degraded: Option<String>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("backend", &self.backend.name())
            .field("compact_every", &self.compact_every)
            .field("since_compact", &self.since_compact)
            .field("degraded", &self.degraded)
            .finish()
    }
}

impl Journal {
    /// Wrap `backend`; a snapshot is installed every `compact_every` ops
    /// (0 disables compaction).
    pub fn new(backend: Box<dyn StorageBackend>, compact_every: usize) -> Self {
        Journal { backend, compact_every, since_compact: 0, degraded: None }
    }

    /// Why journaling shut itself off, if it did.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    fn degrade(&mut self, during: &str, e: StorageError) {
        if self.degraded.is_none() {
            self.degraded = Some(format!("{during}: {e}"));
        }
    }

    /// Append one op; errors degrade instead of propagating.
    pub fn append_op(&mut self, op: &StoreOp) {
        if self.degraded.is_some() {
            return;
        }
        let rec = encode_op(op);
        match self.backend.append(&rec) {
            Ok(_) => self.since_compact += 1,
            Err(e) => self.degrade("append", e),
        }
    }

    /// `true` when the op count since the last snapshot crossed the
    /// threshold (and the journal is still healthy).
    pub fn compaction_due(&self) -> bool {
        self.degraded.is_none() && self.compact_every > 0 && self.since_compact >= self.compact_every
    }

    /// Install a compacted snapshot, resetting the op counter.
    pub fn install_snapshot(&mut self, snapshot: &[u8]) {
        if self.degraded.is_some() {
            return;
        }
        match self.backend.install_snapshot(snapshot) {
            Ok(()) => self.since_compact = 0,
            Err(e) => self.degrade("install-snapshot", e),
        }
    }

    /// Flush buffered writes (step/round boundaries).
    pub fn flush(&mut self) {
        if self.degraded.is_some() {
            return;
        }
        if let Err(e) = self.backend.flush() {
            self.degrade("flush", e);
        }
    }

    /// `(records in current WAL segment, WAL bytes)` — diagnostics.
    pub fn stats(&self) -> (usize, u64) {
        (self.backend.record_count(), self.backend.wal_bytes())
    }

    /// The backend's stable name (`"mem"`, `"wal"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }
}

/// What a [`crate::store::Store::recover`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRecovery {
    /// Clean, or recovered with a typed loss report (from the backend).
    pub status: Recovery,
    /// Whether a compacted snapshot was restored under the replayed ops.
    pub snapshot_restored: bool,
    /// Ops decoded and replayed from the WAL.
    pub ops_applied: usize,
    /// WAL records that survived checksumming but failed to decode
    /// (format drift; everything from the first such record on is skipped).
    pub ops_skipped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_ndlog::Value;

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new("FlowTable", 3i64, vec![Value::Int(80), Value::Int(2)]),
            Tuple::new("Link", Value::Str("s1".into()), vec![Value::Bool(true), Value::Wild]),
        ]
    }

    #[test]
    fn op_codec_round_trips() {
        let ops = vec![
            StoreOp::Declare(Schema::state_keyed("FlowTable", 2, vec![0])),
            StoreOp::Declare(Schema::event("PacketIn", 3)),
            StoreOp::Add { tuple: tuples()[0].clone(), base: true },
            StoreOp::Add { tuple: tuples()[1].clone(), base: false },
            StoreOp::Drop { tuple: tuples()[0].clone(), base: false },
            StoreOp::Evict { tuple: tuples()[1].clone() },
        ];
        for op in ops {
            let enc = encode_op(&op);
            assert_eq!(decode_op(&enc).unwrap(), op, "round-trip failed for {op:?}");
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let enc = encode_op(&StoreOp::Add { tuple: tuples()[0].clone(), base: true });
        for cut in 0..enc.len() {
            assert!(decode_op(&enc[..cut]).is_err(), "truncation at {cut} accepted");
        }
        let mut padded = enc.clone();
        padded.push(0);
        assert!(decode_op(&padded).is_err(), "trailing byte accepted");
        assert!(decode_op(&[9]).is_err(), "unknown tag accepted");
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let schemas = vec![
            Schema::state_keyed("A", 2, vec![0]),
            Schema::event("B", 1),
        ];
        let mut entries: Vec<(Tuple, u32, u32)> =
            tuples().into_iter().map(|t| (t, 2, 1)).collect();
        entries.sort();
        let enc = encode_snapshot(&schemas, &entries);
        let (s2, e2) = decode_snapshot(&enc).unwrap();
        assert_eq!(s2, schemas);
        assert_eq!(e2, entries);
        // Determinism: encoding the same state twice is byte-identical.
        assert_eq!(enc, encode_snapshot(&schemas, &entries));
    }

    #[test]
    fn snapshot_decode_never_panics_on_garbage() {
        for len in 0..64usize {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let _ = decode_snapshot(&junk); // must return, not panic
        }
        assert!(decode_snapshot(&[7]).is_err(), "bad version accepted");
    }
}
