//! Little-endian wire primitives for the snapshot format.
//!
//! The writer appends fixed-width little-endian fields to a byte
//! buffer; the reader is its checked inverse. Every read is
//! bounds-checked and returns [`SnapshotError`] on shortfall — the
//! decode path must be panic-free for *arbitrary* input bytes, which
//! the corruption differential tests exercise with random mutations.

use crate::SnapshotError;

/// Appends fixed-width little-endian fields to a growing buffer.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    pub(crate) fn put_u8(&mut self, value: u8) {
        self.bytes.push(value);
    }

    pub(crate) fn put_u16(&mut self, value: u16) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    pub(crate) fn put_u32(&mut self, value: u32) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    pub(crate) fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// A length-prefixed UTF-8 string (`u32` length + bytes).
    pub(crate) fn put_str(&mut self, value: &str) {
        self.put_u32(value.len() as u32);
        self.put_bytes(value.as_bytes());
    }
}

/// A checked cursor over untrusted snapshot bytes.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Section name used in error messages.
    context: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Reader {
            bytes,
            at: 0,
            context,
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// The next `N` raw bytes as an array.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let (head, _) =
            self.bytes[self.at..]
                .split_first_chunk::<N>()
                .ok_or(SnapshotError::Truncated {
                    context: self.context,
                })?;
        self.at += N;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| self.decode_err("count exceeds address space"))
    }

    /// An element count that must plausibly fit in the remaining bytes
    /// (each element occupying at least `elem_size` bytes). Guards the
    /// `Vec::with_capacity` that follows: a corrupted count can at
    /// worst claim the rest of the section, never an absurd allocation.
    pub(crate) fn count(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(elem_size) > self.remaining() {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        Ok(count)
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.decode_err("string is not UTF-8"))
    }

    /// Asserts the section was consumed exactly.
    pub(crate) fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(self.decode_err("trailing bytes after section payload"));
        }
        Ok(())
    }

    /// A decode error annotated with this reader's section context.
    pub(crate) fn decode_err(&self, what: &str) -> SnapshotError {
        SnapshotError::Decode(format!("{}: {what}", self.context))
    }
}
