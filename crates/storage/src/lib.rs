//! # mpr-storage — pluggable durable storage for tuples and provenance
//!
//! The paper's repair loop assumes the provenance graph and the tuple store
//! survive long enough to diagnose and backtest; until this crate, both
//! lived only in process memory and died with it. [`StorageBackend`] is the
//! `Send + Sync` seam behind `mpr_runtime::store::Store` and
//! `mpr_provenance`'s graph snapshots:
//!
//! - [`MemBackend`] — an in-process record buffer. Today's behavior, the
//!   zero-cost default, and the oracle the recovery tests replay prefixes
//!   through.
//! - [`WalBackend`] — a checksummed (CRC-32 per record), length-prefixed
//!   append-only log with epoch-numbered compacted snapshots. Recovery on
//!   open replays the newest valid snapshot plus its WAL, detects torn or
//!   truncated tails and corrupt records, truncates at the tear, and
//!   reports the damage as a typed [`Recovery::RecoveredWithLoss`] instead
//!   of panicking.
//!
//! The backend stores opaque byte records; what a record *means* (a store
//! mutation, a provenance snapshot) is the caller's codec. This keeps the
//! crate dependency-free and the trait object-safe.

#![warn(missing_docs)]

pub mod crc;
pub mod mem;
pub mod wal;

pub use crc::crc32;
pub use mem::MemBackend;
pub use wal::{WalBackend, WalConfig};

use std::fmt;

/// Typed storage failure. Everything the backends can hit is either an OS
/// I/O error (carrying the failing operation) or detected corruption
/// (carrying where and why).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An OS-level I/O failure.
    Io {
        /// The operation that failed (`"append"`, `"open"`, ...).
        op: &'static str,
        /// The OS error, stringified.
        detail: String,
    },
    /// A structurally invalid or checksum-failing region of the log.
    Corrupt {
        /// Byte offset of the damage within its file.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// A record exceeding [`wal::MAX_RECORD_BYTES`] was offered for append.
    RecordTooLarge {
        /// The offered size.
        len: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, detail } => write!(f, "storage I/O failure during {op}: {detail}"),
            StorageError::Corrupt { offset, reason } => {
                write!(f, "corrupt storage at byte {offset}: {reason}")
            }
            StorageError::RecordTooLarge { len } => {
                write!(f, "record of {len} bytes exceeds the WAL record limit")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// What happened to the durable state between the last write and this open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// Every byte written was read back: snapshot and WAL verified clean.
    Clean,
    /// Damage was found and survived: the state is the longest valid prefix,
    /// with the tail truncated away. Never a panic.
    RecoveredWithLoss(LossReport),
}

impl Recovery {
    /// `true` when nothing was lost.
    pub fn is_clean(&self) -> bool {
        matches!(self, Recovery::Clean)
    }

    /// The loss report, when damage was found.
    pub fn loss(&self) -> Option<&LossReport> {
        match self {
            Recovery::Clean => None,
            Recovery::RecoveredWithLoss(l) => Some(l),
        }
    }
}

/// The damage a lossy recovery survived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LossReport {
    /// Records recovered intact before the tear.
    pub valid_records: usize,
    /// Bytes dropped from the tear to the end of the log.
    pub dropped_bytes: u64,
    /// Human-readable cause of the first damage encountered
    /// (torn tail, checksum mismatch, stale epoch, corrupt snapshot...).
    pub reason: String,
}

/// Everything a backend recovered at open: the newest valid snapshot (if
/// one was ever installed), the WAL records appended after it, and whether
/// any of it had to be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// The compacted snapshot the records apply on top of, if any.
    pub snapshot: Option<Vec<u8>>,
    /// WAL records after the snapshot, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Clean or lossy.
    pub status: Recovery,
}

impl Recovered {
    /// An empty, clean state (fresh open).
    pub fn empty() -> Self {
        Recovered { snapshot: None, records: Vec::new(), status: Recovery::Clean }
    }
}

/// A durable (or deliberately volatile) record log with snapshot
/// compaction. Object-safe and `Send + Sync` so a store that owns one
/// stays movable and shareable across threads.
///
/// Contract:
/// - [`StorageBackend::append`] preserves order; records are opaque bytes.
/// - [`StorageBackend::install_snapshot`] atomically replaces
///   `snapshot + all records so far` with the given snapshot; the WAL
///   restarts empty after it.
/// - [`StorageBackend::recover`] returns exactly what a crash-and-reopen
///   at this instant would see (after [`StorageBackend::flush`]).
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Append one record. Returns the zero-based sequence number of the
    /// record within the current WAL segment.
    fn append(&mut self, record: &[u8]) -> Result<u64, StorageError>;

    /// Push buffered writes to the OS (and to disk, when the backend is
    /// configured to fsync).
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Replace the durable state with `snapshot`, emptying the WAL. The
    /// replacement is atomic: a crash at any point leaves either the old
    /// state or the new one recoverable, never a mix.
    fn install_snapshot(&mut self, snapshot: &[u8]) -> Result<(), StorageError>;

    /// Read back the durable state as of the last [`StorageBackend::flush`].
    fn recover(&mut self) -> Result<Recovered, StorageError>;

    /// Bytes currently in the WAL segment (excluding the snapshot).
    fn wal_bytes(&self) -> u64;

    /// Records appended to the current WAL segment since the last snapshot.
    fn record_count(&self) -> usize;

    /// Stable backend name for reports and artifacts.
    fn name(&self) -> &'static str;
}
