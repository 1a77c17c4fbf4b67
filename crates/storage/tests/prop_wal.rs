//! Property tests over WAL damage: truncated tails, bit-flipped bytes,
//! garbage logs, and empty/fresh opens. Every
//! case must come back as a clean open or a typed `RecoveredWithLoss` —
//! never a panic — and what *is* recovered must be a prefix of what was
//! written.

use std::fs::{self, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mpr_storage::wal::{WalBackend, WalConfig};
use mpr_storage::{crc32, Recovery, StorageBackend};
use proptest::prelude::*;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mpr-propwal-{tag}-{}-{n}", std::process::id()))
}

fn records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..12)
}

/// Write `recs` through a fresh backend and return the WAL file path +
/// total WAL size.
fn written_wal(dir: &PathBuf, recs: &[Vec<u8>]) -> (PathBuf, u64) {
    let _ = fs::remove_dir_all(dir);
    let mut w = WalBackend::open(WalConfig::new(dir)).unwrap();
    for r in recs {
        w.append(r).unwrap();
    }
    w.flush().unwrap();
    let path = dir.join("wal.log");
    let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    (path, len)
}

proptest! {
    /// Truncating the WAL at any byte offset recovers a clean prefix of
    /// the written records, with loss reported iff bytes were dropped.
    #[test]
    fn truncation_yields_a_prefix(recs in records(), cut_ppm in 0u64..=1_000_000) {
        let dir = scratch("trunc");
        let (wal, len) = written_wal(&dir, &recs);
        let cut = len * cut_ppm / 1_000_000;
        OpenOptions::new().write(true).open(&wal).unwrap().set_len(cut).unwrap();

        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        // Recovered records must be a prefix of what was written.
        prop_assert!(r.records.len() <= recs.len());
        prop_assert_eq!(&r.records[..], &recs[..r.records.len()]);
        // A cut exactly on a frame boundary is indistinguishable from a
        // shorter log, so it recovers Clean; anywhere else must report loss.
        let mut boundaries = vec![0u64];
        let mut off = 0u64;
        for rec in &recs {
            off += 8 + rec.len() as u64;
            boundaries.push(off);
        }
        match r.status {
            Recovery::Clean => {
                prop_assert!(boundaries.contains(&cut));
                prop_assert_eq!(boundaries[r.records.len()], cut);
            }
            Recovery::RecoveredWithLoss(l) => {
                prop_assert_eq!(l.valid_records, r.records.len());
                prop_assert!(!boundaries.contains(&cut));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit anywhere in the WAL never panics and never
    /// silently corrupts: recovery returns a prefix of the written records
    /// (the flip is either detected and reported, or — when it lands in
    /// the padding-free tail framing of a dropped suffix — truncated away).
    #[test]
    fn single_bit_flip_is_detected_or_truncated(recs in records(), pos_ppm in 0u64..=1_000_000, bit in 0u32..8) {
        prop_assume!(!recs.is_empty());
        let dir = scratch("flip");
        let (wal, len) = written_wal(&dir, &recs);
        prop_assume!(len > 0);
        let pos = (len - 1) * pos_ppm / 1_000_000;
        let mut bytes = fs::read(&wal).unwrap();
        bytes[pos as usize] ^= 1 << bit;
        fs::write(&wal, &bytes).unwrap();

        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        // Every recovered record must be one of the originals, in order,
        // up to the first damaged one.
        prop_assert!(r.records.len() <= recs.len());
        for (i, rec) in r.records.iter().enumerate() {
            if rec != &recs[i] {
                // A flip inside a length field can resync the framing; the
                // CRC makes a bogus resync astronomically unlikely, and the
                // flipped record itself must fail its checksum.
                prop_assert!(false, "record {i} silently corrupted");
            }
        }
        // A flip in a record body or its header must cost us that record.
        match r.status {
            Recovery::Clean => prop_assert_eq!(&r.records[..], &recs[..]),
            Recovery::RecoveredWithLoss(l) => prop_assert_eq!(l.valid_records, r.records.len()),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Opening an empty or absent directory is always a clean, empty open,
    /// and appending afterwards round-trips.
    #[test]
    fn fresh_open_round_trips(recs in records()) {
        let dir = scratch("fresh");
        let _ = fs::remove_dir_all(&dir);
        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        prop_assert!(r.status.is_clean());
        prop_assert!(r.records.is_empty());
        for rec in &recs {
            w.append(rec).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        prop_assert!(r.status.is_clean());
        prop_assert_eq!(&r.records[..], &recs[..]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Other files in the directory are ignored; an all-garbage "WAL" is
    /// fully truncated with loss, never a panic.
    #[test]
    fn garbage_wal_never_panics(noise in prop::collection::vec(any::<u8>(), 1..200)) {
        let dir = scratch("noise");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("wal.log"), &noise).unwrap();
        fs::write(dir.join("unrelated.txt"), b"ignore me").unwrap();

        let mut w = WalBackend::open(WalConfig::new(&dir)).unwrap();
        let r = w.recover().unwrap();
        // Whatever survives must re-serialize to a prefix of the noise.
        let mut reframed = Vec::new();
        for rec in &r.records {
            reframed.extend_from_slice(&(rec.len() as u32).to_le_bytes());
            reframed.extend_from_slice(&crc32(rec).to_le_bytes());
            reframed.extend_from_slice(rec);
        }
        prop_assert_eq!(&reframed[..], &noise[..reframed.len()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
