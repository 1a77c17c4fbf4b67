//! # mpr-storage — the write-ahead log under a durable engine
//!
//! The paper's repair loop explains a symptom from the controller's
//! history (§5.4) and backtests by re-running recorded inputs (§4). An
//! engine built with `mpr_runtime::Durability::Wal` writes what it was
//! given to a [`WalBackend`], so a restart can re-run those inputs and get
//! its history back.
//!
//! [`WalBackend`] is a checksummed (CRC-32 per record), length-prefixed
//! append-only log, one `wal.log` per directory. Opening it reads the log
//! back, detects a torn or truncated tail or a corrupt record, truncates at
//! the tear, and reports the damage as a typed
//! [`Recovery::RecoveredWithLoss`] instead of panicking. Writes are
//! buffered by the OS, not synced: the log survives the death of the
//! process, not the loss of power.
//!
//! The backend stores opaque byte records; what a record *means* is the
//! caller's codec. This keeps the crate dependency-free and the trait
//! object-safe.

#![warn(missing_docs)]

pub mod crc;
pub mod wal;

pub use crc::crc32;
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
    /// Every byte written was read back and verified clean.
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
    /// Human-readable cause of the damage (torn tail, checksum
    /// mismatch...).
    pub reason: String,
}

/// Everything a backend recovered at open: the records appended so far
/// and whether any had to be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// The records, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Clean or lossy.
    pub status: Recovery,
}

impl Recovered {
    /// An empty, clean state (fresh open).
    pub fn empty() -> Self {
        Recovered { records: Vec::new(), status: Recovery::Clean }
    }
}

/// A durable record log. Object-safe and `Send + Sync` so an engine that
/// owns one stays movable and shareable across threads.
///
/// Contract:
/// - [`StorageBackend::append`] preserves order; records are opaque bytes.
/// - [`StorageBackend::recover`] returns exactly what a crash-and-reopen
///   at this instant would see (after [`StorageBackend::flush`]).
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Append one record. Returns its zero-based sequence number.
    fn append(&mut self, record: &[u8]) -> Result<u64, StorageError>;

    /// Push buffered writes to the OS.
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Read back the durable state as of the last [`StorageBackend::flush`].
    fn recover(&mut self) -> Result<Recovered, StorageError>;
}
