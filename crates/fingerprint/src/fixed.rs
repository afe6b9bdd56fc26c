//! The fixed-size fingerprint `F'` (Sect. IV-A).
//!
//! `F'` concatenates the first 12 unique packet vectors of `F` into a
//! `12 × 23 = 276`-dimensional feature vector, zero-padding if `F` holds
//! fewer than 12 unique packets. The paper's preliminary analysis found
//! 12 packets "long enough to distinguish device-types and short enough
//! to be fully filled with unique packets from F".

use crate::{Fingerprint, FEATURE_COUNT};

/// Number of unique packets concatenated into `F'`.
pub const FIXED_PACKETS: usize = 12;

/// Dimensionality of `F'` (`12 × 23`).
pub const FIXED_DIMENSIONS: usize = FIXED_PACKETS * FEATURE_COUNT;

/// The fixed-size fingerprint `F'` consumed by the per-device-type
/// classifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedFingerprint {
    values: Vec<f64>,
}

impl FixedFingerprint {
    /// Builds the standard 276-dimensional `F'` from a fingerprint.
    pub fn from_fingerprint(fingerprint: &Fingerprint) -> Self {
        Self::with_packets(fingerprint, FIXED_PACKETS)
    }

    /// Builds an `F'` variant truncated at `packets` unique packets
    /// (`packets × 23` dimensions) — used by the truncation-length
    /// ablation experiment. Each unique packet's cells are appended in
    /// order, and the tail is zero-filled once.
    pub fn with_packets(fingerprint: &Fingerprint, packets: usize) -> Self {
        let mut values = Vec::with_capacity(packets * FEATURE_COUNT);
        for vector in fingerprint.first_occurrences(packets) {
            values.extend_from_slice(&vector.to_array());
        }
        values.resize(packets * FEATURE_COUNT, 0.0);
        FixedFingerprint { values }
    }

    /// The feature values (unique packets concatenated, zero-padded).
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// The dimensionality of this vector.
    pub fn dimensions(&self) -> usize {
        self.values.len()
    }
}

impl AsRef<[f64]> for FixedFingerprint {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureVector;
    use proptest::prelude::*;
    use sentinel_netproto::{MacAddr, Packet};

    fn vector(counter: u32) -> FeatureVector {
        FeatureVector::from_packet(&Packet::dhcp_discover(MacAddr::ZERO, 1, 0), counter)
    }

    #[test]
    fn dimensions_are_276() {
        assert_eq!(FIXED_DIMENSIONS, 276);
        let fp: Fingerprint = (1..=3).map(vector).collect();
        let fixed = FixedFingerprint::from_fingerprint(&fp);
        assert_eq!(fixed.dimensions(), 276);
    }

    #[test]
    fn short_fingerprints_zero_padded() {
        let fp: Fingerprint = (1..=2).map(vector).collect();
        let fixed = FixedFingerprint::from_fingerprint(&fp);
        // Two packets fill 46 slots; the rest must be zero.
        assert!(fixed.as_slice()[2 * FEATURE_COUNT..]
            .iter()
            .all(|&v| v == 0.0));
        // The filled part is not all zero (dhcp/udp/ip bits are set).
        assert!(fixed.as_slice()[..FEATURE_COUNT].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn duplicates_do_not_fill_slots() {
        // ABAB -> unique A, B: only 2 slots filled.
        let fp = Fingerprint::new([vector(1), vector(2), vector(1), vector(2)]);
        let fixed = FixedFingerprint::from_fingerprint(&fp);
        assert!(fixed.as_slice()[2 * FEATURE_COUNT..]
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn long_fingerprints_truncated_at_12() {
        let fp: Fingerprint = (1..=30).map(vector).collect();
        let fixed = FixedFingerprint::from_fingerprint(&fp);
        assert_eq!(fixed.dimensions(), 276);
        // 12th unique packet has counter 12 at offset 11*23+20.
        assert_eq!(fixed.as_slice()[11 * FEATURE_COUNT + 20], 12.0);
    }

    #[test]
    fn ablation_lengths() {
        let fp: Fingerprint = (1..=30).map(vector).collect();
        for packets in [6, 9, 12, 15, 18] {
            let fixed = FixedFingerprint::with_packets(&fp, packets);
            assert_eq!(fixed.dimensions(), packets * FEATURE_COUNT);
        }
    }

    fn vectors(max: usize) -> impl Strategy<Value = Vec<FeatureVector>> {
        proptest::collection::vec(0u32..8, 0..max)
            .prop_map(|counters| counters.into_iter().map(vector).collect())
    }

    /// `F'` by its definition: column `i` is kept iff no earlier column
    /// equals it, compared field by field, and the kept columns fill a
    /// zeroed buffer in order.
    fn reference(fingerprint: &Fingerprint, packets: usize) -> Vec<f64> {
        let vectors = fingerprint.vectors();
        let mut values = vec![0.0; packets * FEATURE_COUNT];
        let unique = (vectors.iter().enumerate())
            .filter(|&(i, vector)| !vectors[..i].contains(vector))
            .map(|(_, vector)| vector);
        for (slot, vector) in values.chunks_exact_mut(FEATURE_COUNT).zip(unique) {
            slot.copy_from_slice(&vector.to_array());
        }
        values
    }

    /// Fingerprints over up to 24 distinct vectors (past `F'`'s 12):
    /// runs of one vector (a consecutive repeat is dropped on arrival)
    /// that keep revisiting earlier ones, so unique packets arrive late
    /// among many repeats.
    fn revisiting(max: usize) -> impl Strategy<Value = Fingerprint> {
        (
            1u32..=24,
            proptest::collection::vec((0u32..24, 1usize..6), 0..max),
        )
            .prop_map(|(distinct, runs)| {
                let columns = runs.into_iter().flat_map(|(counter, run)| {
                    std::iter::repeat_n(vector(counter % distinct), run)
                });
                Fingerprint::new(columns)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fixed_fingerprint_equals_its_definition_at_every_length(fingerprint in revisiting(40)) {
            for packets in 1..=20 {
                let fixed = FixedFingerprint::with_packets(&fingerprint, packets);
                prop_assert_eq!(fixed.as_slice(), &reference(&fingerprint, packets)[..], "{} packets", packets);
            }
        }

        #[test]
        fn fixed_fingerprint_always_276_dims_zero_padded(raw in vectors(30)) {
            let fingerprint = Fingerprint::new(raw);
            let fixed = FixedFingerprint::from_fingerprint(&fingerprint);
            prop_assert_eq!(fixed.dimensions(), 276);
            let unique = fingerprint.unique_vectors(12).len();
            // Slots beyond the unique packets are exactly zero.
            for (i, &value) in fixed.as_slice().iter().enumerate() {
                if i >= unique * FEATURE_COUNT {
                    prop_assert_eq!(value, 0.0, "slot {} not padded", i);
                }
            }
        }
    }
}
