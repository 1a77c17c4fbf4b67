//! The little-endian binary codec of an engine's WAL
//! ([`crate::Durability::Wal`]): a [`WalRecord::Header`] that fingerprints
//! the program, then one record per [`crate::Engine::insert`] /
//! [`crate::Engine::delete`] call — a tag byte and the tuple.
//!
//! Writers are plain `put_*` helpers appending to a `Vec<u8>`; reads go
//! through [`Reader`], a bounds-checked cursor that returns an error on
//! truncated or malformed input — never a panic — so corrupt bytes surface
//! as typed recovery errors upstream.

use mpr_ndlog::{Program, Tuple, Value};

const HEADER: u8 = 0;
pub(crate) const INSERT: u8 = 1;
pub(crate) const DELETE: u8 = 2;

/// One decoded record of an engine's WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The first record: a fingerprint of the text of the program the
    /// inputs were given to, so that they are never re-run against
    /// another.
    Header(u64),
    /// An [`crate::Engine::insert`] call.
    Insert(Tuple),
    /// An [`crate::Engine::delete`] call.
    Delete(Tuple),
}

impl WalRecord {
    /// Decode one record payload.
    pub fn decode(bytes: &[u8]) -> Result<WalRecord, String> {
        let mut r = Reader::new(bytes);
        let record = match r.u8()? {
            HEADER => WalRecord::Header(r.u64()?),
            INSERT => WalRecord::Insert(r.tuple()?),
            DELETE => WalRecord::Delete(r.tuple()?),
            t => return Err(format!("unknown record tag {t}")),
        };
        r.finish()?;
        Ok(record)
    }
}

/// The header record of a WAL written for `program`.
pub(crate) fn header_record(program: &Program) -> Vec<u8> {
    let mut buf = vec![HEADER];
    buf.extend_from_slice(&fingerprint(program).to_le_bytes());
    buf
}

/// The record of one call: `tag` ([`INSERT`] or [`DELETE`]), then `tuple`.
pub(crate) fn input_record(tag: u8, tuple: &Tuple) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.push(tag);
    put_tuple(&mut buf, tuple);
    buf
}

/// FNV-1a of `program`'s text: what a WAL header holds.
pub(crate) fn fingerprint(program: &Program) -> u64 {
    program.to_string().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Append a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a tagged [`Value`] (0 = Int, 1 = Str, 2 = Bool, 3 = Wild).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            buf.push(2);
            buf.push(u8::from(*b));
        }
        Value::Wild => buf.push(3),
    }
}

/// Append a [`Tuple`] (table, location, arg count, args).
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_str(buf, &t.table);
    put_value(buf, &t.loc);
    put_u32(buf, t.args.len() as u32);
    for a in &t.args {
        put_value(buf, a);
    }
}

/// Cursor over an encoded record; every read is bounds-checked so corrupt
/// input yields an error, never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {} of {}", self.pos, self.buf.len())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.err("truncated u8"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.err("length overflow"))?;
        let s = self.buf.get(self.pos..end).ok_or_else(|| self.err("truncated bytes"))?;
        self.pos = end;
        Ok(s)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid utf-8"))
    }

    /// Read a tagged [`Value`].
    pub fn value(&mut self) -> Result<Value, String> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Str(self.str()?.into())),
            2 => Ok(Value::Bool(self.u8()? != 0)),
            3 => Ok(Value::Wild),
            t => Err(self.err(&format!("unknown value tag {t}"))),
        }
    }

    /// Read a [`Tuple`].
    pub fn tuple(&mut self) -> Result<Tuple, String> {
        let table = self.str()?;
        let loc = self.value()?;
        let n = self.u32()? as usize;
        if n > 1 << 20 {
            return Err(self.err(&format!("implausible arity {n}")));
        }
        let mut args = Vec::with_capacity(n);
        for _ in 0..n {
            args.push(self.value()?);
        }
        Ok(Tuple { table: table.into(), loc, args })
    }

    /// Succeed only if the whole buffer was consumed.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after record", self.buf.len() - self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new("FlowTable", 3i64, vec![Value::Int(80), Value::Int(2)]),
            Tuple::new("Link", Value::Str("s1".into()), vec![Value::Bool(true), Value::Wild]),
        ]
    }

    #[test]
    fn wal_records_round_trip() {
        let program = mpr_ndlog::parse_program("p", "r1 B(@N,X) :- A(@N,X).").unwrap();
        let header = header_record(&program);
        assert_eq!(WalRecord::decode(&header).unwrap(), WalRecord::Header(fingerprint(&program)));
        for t in tuples() {
            let insert = input_record(INSERT, &t);
            assert_eq!(WalRecord::decode(&insert).unwrap(), WalRecord::Insert(t.clone()));
            let delete = input_record(DELETE, &t);
            assert_eq!(WalRecord::decode(&delete).unwrap(), WalRecord::Delete(t));
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let enc = input_record(INSERT, &tuples()[0]);
        for cut in 0..enc.len() {
            assert!(WalRecord::decode(&enc[..cut]).is_err(), "truncation at {cut} accepted");
        }
        let mut padded = enc.clone();
        padded.push(0);
        assert!(WalRecord::decode(&padded).is_err(), "trailing byte accepted");
        assert!(WalRecord::decode(&[9]).is_err(), "unknown tag accepted");
    }
}
