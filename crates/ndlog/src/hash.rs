//! The hasher for keys a program holds: rule ids, table names, constants.
//!
//! A program's analyses hash every rule id and every atom's table once per
//! program, and the trigger dispatch hashes a delta's value on every
//! packet-in; SipHash's keyed rounds cost more than those short keys do.
//! This is FxHash's rotate-xor-multiply, one word at a time: fast and
//! unkeyed, so it is for keys the program supplies, not the network.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash (module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

/// Builds [`FxHasher`]s: `HashMap<K, V, FxBuild>`.
pub type FxBuild = BuildHasherDefault<FxHasher>;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"))));
            rest = &rest[4..];
        }
        if rest.len() >= 2 {
            self.add(u64::from(u16::from_le_bytes(rest[..2].try_into().expect("2 bytes"))));
            rest = &rest[2..];
        }
        if let Some(&byte) = rest.first() {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
