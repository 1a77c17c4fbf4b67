//! The little-endian binary codec under every durable artifact: WAL op
//! records and store snapshots ([`crate::journal`]).
//!
//! Writers are plain `put_*` helpers appending to a `Vec<u8>`; reads go
//! through [`Reader`], a bounds-checked cursor that returns an error on
//! truncated or malformed input — never a panic — so corrupt bytes from a
//! torn log surface as typed recovery losses upstream.
//!
//! The encoding is canonical: a value has exactly one byte representation
//! (length-prefixed strings, tagged values, fixed-width integers), which is
//! what lets snapshot writers promise "identical state ⇒ identical bytes"
//! by just sorting their inputs.

use mpr_ndlog::{Persistence, Schema, Tuple, Value};

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

/// Append a [`Schema`] (table, arity, key columns, persistence).
pub fn put_schema(buf: &mut Vec<u8>, s: &Schema) {
    put_str(buf, &s.table);
    put_u32(buf, s.arity as u32);
    put_u32(buf, s.keys.len() as u32);
    for &k in &s.keys {
        put_u32(buf, k as u32);
    }
    buf.push(match s.persistence {
        Persistence::State => 0,
        Persistence::Event => 1,
    });
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
            1 => Ok(Value::Str(self.str()?)),
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
        Ok(Tuple { table, loc, args })
    }

    /// Read a [`Schema`].
    pub fn schema(&mut self) -> Result<Schema, String> {
        let table = self.str()?;
        let arity = self.u32()? as usize;
        let nkeys = self.u32()? as usize;
        if nkeys > 1 << 20 {
            return Err(self.err(&format!("implausible key count {nkeys}")));
        }
        let mut keys = Vec::with_capacity(nkeys);
        for _ in 0..nkeys {
            keys.push(self.u32()? as usize);
        }
        let persistence = match self.u8()? {
            0 => Persistence::State,
            1 => Persistence::Event,
            t => return Err(self.err(&format!("unknown persistence tag {t}"))),
        };
        Ok(Schema { table, arity, keys, persistence })
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
