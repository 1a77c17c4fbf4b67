//! Checksummed append-only write-ahead log.
//!
//! ## On-disk layout
//!
//! A WAL directory holds one file:
//!
//! ```text
//! wal.log      [len u32 LE][crc32 u32 LE][payload] ... repeated
//! ```
//!
//! Writes go to the OS as they are appended and are never synced: a log
//! survives the death of the process that wrote it (the kill sweep's
//! model), not the loss of power.
//!
//! ## Recovery
//!
//! Opening replays `wal.log` record by record. A short header, truncated
//! payload, oversized length, or CRC mismatch is a *tear*: keep everything
//! before it, truncate the file at the tear, and report
//! [`Recovery::RecoveredWithLoss`]. Never panic. The (possibly truncated)
//! log is then reopened for append.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::{crc32, LossReport, Recovered, Recovery, StorageBackend, StorageError};

/// Per-record frame header: `[len u32][crc u32]`.
pub const HEADER_BYTES: u64 = 8;
/// Hard cap on a single record; a length field above this is treated as
/// corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// Configuration for a [`WalBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// Directory holding `wal.log` (created on open).
    pub dir: PathBuf,
}

impl WalConfig {
    /// Config for `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig { dir: dir.into() }
    }
}

/// Durable append-only log backend. See the module docs for the format.
#[derive(Debug)]
pub struct WalBackend {
    cfg: WalConfig,
    writer: Option<File>,
    records: usize,
    recovered: Option<Recovered>,
}

fn io_err(op: &'static str, e: std::io::Error) -> StorageError {
    StorageError::Io { op, detail: e.to_string() }
}

/// Outcome of replaying the log file.
struct WalScan {
    records: Vec<Vec<u8>>,
    /// Byte offset of the first damage, if any — the file is truncated here.
    tear: Option<(u64, String)>,
    valid_bytes: u64,
}

fn scan_wal_bytes(buf: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut off = 0usize;
    let tear = loop {
        let rest = buf.len() - off;
        if rest == 0 {
            break None;
        }
        if rest < HEADER_BYTES as usize {
            break Some(format!("torn record header ({rest} trailing bytes)"));
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            break Some(format!("implausible record length {len}"));
        }
        let body_start = off + HEADER_BYTES as usize;
        if buf.len() - body_start < len {
            break Some(format!("torn record payload ({} of {len} bytes)", buf.len() - body_start));
        }
        let payload = &buf[body_start..body_start + len];
        if crc32(payload) != crc {
            break Some("record checksum mismatch".to_string());
        }
        records.push(payload.to_vec());
        off = body_start + len;
    };
    WalScan { records, tear: tear.map(|reason| (off as u64, reason)), valid_bytes: off as u64 }
}

impl WalBackend {
    /// Open (or create) the WAL directory, read the log back, truncate any
    /// torn tail, and leave the log ready for append. The recovered state
    /// is returned by the first [`StorageBackend::recover`] call without
    /// re-reading disk.
    pub fn open(cfg: WalConfig) -> Result<Self, StorageError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create-dir", e))?;
        let mut backend = WalBackend { cfg, writer: None, records: 0, recovered: None };
        let recovered = backend.scan_and_repair()?;
        backend.recovered = Some(recovered);
        Ok(backend)
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Replay the log, truncate it at any tear, and (re)open the append
    /// handle.
    fn scan_and_repair(&mut self) -> Result<Recovered, StorageError> {
        self.writer = None; // close any previous handle before repair
        let wal = self.cfg.dir.join("wal.log");
        let mut records = Vec::new();
        let mut status = Recovery::Clean;
        if wal.exists() {
            let mut buf = Vec::new();
            File::open(&wal)
                .and_then(|mut f| f.read_to_end(&mut buf))
                .map_err(|e| io_err("read-wal", e))?;
            let scan = scan_wal_bytes(&buf);
            if let Some((tear_off, reason)) = scan.tear {
                status = Recovery::RecoveredWithLoss(LossReport {
                    valid_records: scan.records.len(),
                    dropped_bytes: buf.len() as u64 - tear_off,
                    reason: format!("WAL at byte {tear_off}: {reason}"),
                });
                let f = OpenOptions::new()
                    .write(true)
                    .open(&wal)
                    .map_err(|e| io_err("repair-wal", e))?;
                f.set_len(scan.valid_bytes).map_err(|e| io_err("repair-wal", e))?;
            }
            records = scan.records;
        }
        let writer = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal)
            .map_err(|e| io_err("open-wal", e))?;
        self.writer = Some(writer);
        self.records = records.len();
        Ok(Recovered { records, status })
    }
}

impl StorageBackend for WalBackend {
    fn append(&mut self, record: &[u8]) -> Result<u64, StorageError> {
        if record.len() > MAX_RECORD_BYTES {
            return Err(StorageError::RecordTooLarge { len: record.len() });
        }
        let writer = self.writer.as_mut().ok_or(StorageError::Io {
            op: "append",
            detail: "WAL writer not open".to_string(),
        })?;
        let mut frame = Vec::with_capacity(HEADER_BYTES as usize + record.len());
        frame.extend_from_slice(&(record.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(record).to_le_bytes());
        frame.extend_from_slice(record);
        writer.write_all(&frame).map_err(|e| io_err("append", e))?;
        let seq = self.records as u64;
        self.records += 1;
        Ok(seq)
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        if let Some(w) = self.writer.as_mut() {
            w.flush().map_err(|e| io_err("flush", e))?;
        }
        Ok(())
    }

    fn recover(&mut self) -> Result<Recovered, StorageError> {
        if let Some(recovered) = self.recovered.take() {
            return Ok(recovered);
        }
        self.flush()?;
        self.scan_and_repair()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "mpr-wal-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_open_is_clean_and_empty() {
        let dir = scratch("fresh");
        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        assert_eq!(r, Recovered::empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = scratch("replay");
        {
            let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
            for rec in [b"alpha".as_slice(), b"beta", b""] {
                w.append(rec).unwrap();
            }
            w.flush().unwrap();
        }
        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        assert!(r.status.is_clean());
        assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec(), Vec::new()]);
        assert_eq!(w.append(b"next").unwrap(), 3, "sequence numbers continue");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_with_loss_then_appends_cleanly() {
        let dir = scratch("tear");
        {
            let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
            w.append(b"keep-1").unwrap();
            w.append(b"keep-2").unwrap();
            w.append(b"lost").unwrap();
            w.flush().unwrap();
        }
        // Tear mid-way through the last record's payload.
        let wal = dir.join("wal.log");
        let len = fs::metadata(&wal).unwrap().len();
        OpenOptions::new().write(true).open(&wal).unwrap().set_len(len - 2).unwrap();

        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        let loss = r.status.loss().expect("tear must be reported");
        assert_eq!(loss.valid_records, 2);
        assert!(loss.dropped_bytes > 0);
        assert_eq!(r.records, vec![b"keep-1".to_vec(), b"keep-2".to_vec()]);

        // The repaired log keeps working.
        w.append(b"after").unwrap();
        w.flush().unwrap();
        drop(w);
        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        assert!(r.status.is_clean());
        assert_eq!(
            r.records,
            vec![b"keep-1".to_vec(), b"keep-2".to_vec(), b"after".to_vec()]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_record_is_caught_by_crc() {
        let dir = scratch("flip");
        {
            let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
            w.append(b"good").unwrap();
            w.append(b"evil").unwrap();
            w.flush().unwrap();
        }
        let wal = dir.join("wal.log");
        let mut bytes = fs::read(&wal).unwrap();
        let last = bytes.len() - 1; // inside the second record's payload
        bytes[last] ^= 0x40;
        fs::write(&wal, &bytes).unwrap();

        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        let loss = r.status.loss().expect("bit flip must be reported");
        assert_eq!(loss.valid_records, 1);
        assert!(loss.reason.contains("checksum"));
        assert_eq!(r.records, vec![b"good".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
