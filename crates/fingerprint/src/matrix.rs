//! The variable-length fingerprint `F` (Eq. 1 of the paper).

use serde::{Deserialize, Serialize};

use crate::FeatureVector;

/// A device fingerprint: the ordered sequence of per-packet feature
/// vectors captured during a device's setup phase (the paper's `23 × n`
/// matrix `F`, stored column-major — one [`FeatureVector`] per packet).
///
/// The constructor removes *consecutive* duplicate vectors, as specified
/// in Sect. IV-A ("consecutive identical packets from our feature set
/// perspective are discarded from F").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Fingerprint {
    vectors: Vec<FeatureVector>,
}

impl Fingerprint {
    /// Builds a fingerprint from per-packet feature vectors, discarding
    /// consecutive duplicates.
    pub fn new(vectors: impl IntoIterator<Item = FeatureVector>) -> Self {
        Self::from_vec(vectors.into_iter().collect())
    }

    /// Builds a fingerprint from an owned vector of per-packet features,
    /// deduplicating consecutive duplicates in place without copying the
    /// surviving vectors into a fresh allocation.
    pub fn from_vec(mut vectors: Vec<FeatureVector>) -> Self {
        vectors.dedup();
        Fingerprint { vectors }
    }

    /// The number of packet columns `n`.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns `true` if the fingerprint has no packets.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The packet feature vectors in capture order.
    pub fn vectors(&self) -> &[FeatureVector] {
        &self.vectors
    }

    /// Iterates over the packet feature vectors.
    pub fn iter(&self) -> std::slice::Iter<'_, FeatureVector> {
        self.vectors.iter()
    }

    /// The first-occurrence walk: the vector at `i` is kept iff no
    /// earlier column equals it, stopping after `limit` — the one
    /// definition of "unique packet" that `F'` is built from.
    pub(crate) fn first_occurrences(
        &self,
        limit: usize,
    ) -> impl Iterator<Item = &FeatureVector> + '_ {
        self.vectors
            .iter()
            .enumerate()
            .filter(|&(i, vector)| !self.vectors[..i].contains(vector))
            .map(|(_, vector)| vector)
            .take(limit)
    }

    /// The first `limit` *unique* vectors in first-occurrence order.
    pub fn unique_vectors(&self, limit: usize) -> Vec<&FeatureVector> {
        self.first_occurrences(limit).collect()
    }
}

impl FromIterator<FeatureVector> for Fingerprint {
    fn from_iter<I: IntoIterator<Item = FeatureVector>>(iter: I) -> Self {
        Fingerprint::new(iter)
    }
}

impl<'a> IntoIterator for &'a Fingerprint {
    type Item = &'a FeatureVector;
    type IntoIter = std::slice::Iter<'a, FeatureVector>;

    fn into_iter(self) -> Self::IntoIter {
        self.vectors.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_netproto::{MacAddr, Packet};

    fn vector(counter: u32) -> FeatureVector {
        FeatureVector::from_packet(&Packet::dhcp_discover(MacAddr::ZERO, 1, 0), counter)
    }

    #[test]
    fn consecutive_duplicates_removed() {
        let fp = Fingerprint::new([vector(1), vector(1), vector(2), vector(2), vector(1)]);
        assert_eq!(fp.len(), 3, "AABBА -> ABA");
    }

    #[test]
    fn non_consecutive_duplicates_kept() {
        let fp = Fingerprint::new([vector(1), vector(2), vector(1)]);
        assert_eq!(fp.len(), 3);
    }

    #[test]
    fn unique_vectors_first_occurrence_order() {
        let fp = Fingerprint::new([vector(2), vector(1), vector(2), vector(3)]);
        let unique = fp.unique_vectors(12);
        assert_eq!(unique.len(), 3);
        assert_eq!(unique[0].dst_ip_counter, 2);
        assert_eq!(unique[1].dst_ip_counter, 1);
        assert_eq!(unique[2].dst_ip_counter, 3);
    }

    #[test]
    fn unique_vectors_respects_limit() {
        let fp: Fingerprint = (1..=20).map(vector).collect();
        assert_eq!(fp.unique_vectors(12).len(), 12);
    }

    #[test]
    fn empty_fingerprint() {
        let fp = Fingerprint::default();
        assert!(fp.is_empty());
        assert!(fp.unique_vectors(12).is_empty());
    }
}
