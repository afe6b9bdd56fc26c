//! Packet-column interning for fast edit-distance comparison.
//!
//! The OSA inner loop compares packet columns (23-feature
//! [`FeatureVector`]s) once per DP cell. Interning maps every distinct
//! column to a compact `u32` symbol id so the O(n·m) loop compares two
//! integers instead of two structs — and the bit-parallel kernel can
//! index its match masks by symbol. Reference fingerprints are interned
//! once at training time; probes are projected against the frozen table
//! at identification time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{FeatureVector, Fingerprint};

/// Word-folding FNV-style hasher for the frozen table: one xor-multiply
/// per field of the derived `FeatureVector` hash instead of SipHash
/// rounds — the lookup runs once per probe column on the identification
/// hot path.
///
/// Unkeyed, so only safe where an adversary cannot choose the *stored*
/// keys: [`SymbolTable::ids`] is inserted into from the training corpus
/// alone ([`SymbolTable::project_into`] never grows it, and stores a
/// probe's unseen columns nowhere), so hostile probe columns can probe
/// a chain but not lengthen one.
#[derive(Debug, Clone, Copy)]
struct FoldHasher(u64);

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl FoldHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x100_0000_01b3);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply only carries upwards; fold the well-mixed high
        // half down so the table's bucket index (low bits) sees it.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.fold(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.fold(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.fold(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.fold(u64::from(value));
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.fold(value as u64);
    }
}

/// A fingerprint whose packet columns have been replaced by `u32`
/// symbol ids from a [`SymbolTable`].
///
/// Two fingerprints interned by the same table have equal symbols at a
/// position iff the original feature vectors are equal, and so do an
/// interned fingerprint and a [`SymbolTable::project`]ion, so any edit
/// distance over those symbol slices equals the distance over the
/// original vector slices. (Two *projections* are not comparable with
/// each other: every column the table has not seen projects to the same
/// id.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedFingerprint {
    symbols: Vec<u32>,
}

impl InternedFingerprint {
    /// The symbol sequence, one id per packet column.
    pub fn symbols(&self) -> &[u32] {
        &self.symbols
    }

    /// The number of packet columns `n`.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Returns `true` if the fingerprint has no packets.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }
}

/// Bijective mapping from distinct [`FeatureVector`]s to dense `u32`
/// symbol ids.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    ids: HashMap<FeatureVector, u32, BuildHasherDefault<FoldHasher>>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// The number of distinct feature vectors interned so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Interns every packet column of `fingerprint`, growing the table
    /// with fresh ids for vectors not seen before.
    pub fn intern(&mut self, fingerprint: &Fingerprint) -> InternedFingerprint {
        let symbols = fingerprint
            .vectors()
            .iter()
            .map(|vector| {
                if let Some(&id) = self.ids.get(vector) {
                    id
                } else {
                    let id = u32::try_from(self.ids.len())
                        .expect("fewer than 2^32 distinct packet columns");
                    self.ids.insert(vector.clone(), id);
                    id
                }
            })
            .collect();
        InternedFingerprint { symbols }
    }

    /// Maps `fingerprint` onto this table *without* growing it: vectors
    /// already interned keep their id, and every unseen vector gets the
    /// one id just past the table, [`SymbolTable::len`].
    ///
    /// One id serves all unseen columns because an edit distance
    /// between a projection and an interned fingerprint only ever asks
    /// whether a probe column equals a *reference* column — never
    /// whether two probe columns equal each other — and an unseen column
    /// equals none. So the projection needs no side table, touches the
    /// heap only for its output, and gives distances equal to those
    /// over the original vectors.
    ///
    /// This is the identification-time path: probes are projected
    /// against the frozen training-time table, keeping `&self` so
    /// concurrent identifications need no locking.
    pub fn project(&self, fingerprint: &Fingerprint) -> InternedFingerprint {
        let mut symbols = Vec::with_capacity(fingerprint.len());
        self.project_into(fingerprint, &mut symbols);
        InternedFingerprint { symbols }
    }

    /// [`SymbolTable::project`] into a caller-owned symbol buffer,
    /// **appended** without clearing (the shared batch-entry contract:
    /// the caller owns and clears `out`, so steady-state projection
    /// reuses one allocation).
    pub fn project_into(&self, fingerprint: &Fingerprint, out: &mut Vec<u32>) {
        let unseen =
            u32::try_from(self.ids.len()).expect("fewer than 2^32 distinct packet columns");
        out.extend(
            fingerprint
                .vectors()
                .iter()
                .map(|vector| self.ids.get(vector).copied().unwrap_or(unseen)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::editdist::osa_distance;
    use sentinel_netproto::{MacAddr, Packet};

    fn vector(counter: u32) -> FeatureVector {
        FeatureVector::from_packet(&Packet::dhcp_discover(MacAddr::ZERO, 1, 0), counter)
    }

    fn fp(counters: &[u32]) -> Fingerprint {
        counters.iter().map(|&c| vector(c)).collect()
    }

    #[test]
    fn interning_preserves_equality_structure() {
        let mut table = SymbolTable::new();
        let a = table.intern(&fp(&[1, 2, 3, 2]));
        let b = table.intern(&fp(&[2, 1, 3]));
        assert_eq!(table.len(), 3, "three distinct columns");
        assert_eq!(a.symbols()[1], b.symbols()[0], "same vector, same id");
        assert_ne!(a.symbols()[0], b.symbols()[0]);
        assert_eq!(
            osa_distance(a.symbols(), b.symbols()),
            osa_distance(fp(&[1, 2, 3, 2]).vectors(), fp(&[2, 1, 3]).vectors())
        );
    }

    #[test]
    fn projection_does_not_grow_the_table() {
        let mut table = SymbolTable::new();
        let _ = table.intern(&fp(&[1, 2]));
        let before = table.len();
        let probe = table.project(&fp(&[2, 9, 8, 9]));
        assert_eq!(table.len(), before);
        // A seen vector keeps its id; every unseen one gets the id
        // just past the table.
        assert!(probe.symbols()[0] < before as u32);
        assert_eq!(probe.symbols()[1..], [before as u32; 3]);
    }

    #[test]
    fn projected_probe_distance_matches_vector_distance() {
        let mut table = SymbolTable::new();
        let reference = fp(&[1, 2, 3, 4, 5]);
        let interned = table.intern(&reference);
        // Unseen columns, distinct (9, 8) and repeated (9, 9), beside
        // seen ones in transposed order (4, 3).
        let probe = fp(&[1, 9, 8, 4, 3, 9, 9]);
        let projected = table.project(&probe);
        assert_eq!(
            osa_distance(projected.symbols(), interned.symbols()),
            osa_distance(probe.vectors(), reference.vectors())
        );
    }

    #[test]
    fn project_into_appends_without_clearing() {
        let mut table = SymbolTable::new();
        let _ = table.intern(&fp(&[1, 2]));
        let mut out = vec![99u32];
        table.project_into(&fp(&[2, 1]), &mut out);
        assert_eq!(out.len(), 3, "appended after the sentinel");
        assert_eq!(out[0], 99);
        assert_eq!(&out[1..], table.project(&fp(&[2, 1])).symbols());
    }

    #[test]
    fn empty_fingerprint_interns_empty() {
        let mut table = SymbolTable::new();
        let empty = table.intern(&Fingerprint::default());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert!(table.is_empty());
    }
}
