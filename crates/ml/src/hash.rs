//! Deterministic, domain-separated content hashing.
//!
//! The verdict cache (`sentinel-core`) and any other content-addressed
//! store need a hash that is a pure function of the hashed words — no
//! `RandomState`, no platform dependence — and that cannot collide
//! *across* uses by accident: hashing a fingerprint's symbols for a
//! model stamp and hashing its `F'` bits for a cache shard must live in
//! different hash families. Both properties come from keyed FNV-1a:
//! the same primitive the testbed and the shard router already use,
//! seeded with a caller-chosen domain tag so every use site gets its
//! own stream.
//!
//! These hashes only ever *route* (pick a shard, stamp a model
//! identity for diagnostics); correctness-critical lookups must still
//! compare full keys for exact equality, so a collision can cost a
//! cache slot, never an answer.

/// FNV-1a over a stream of `u64` words, domain-separated by `domain`.
///
/// Equal `(domain, words)` always hash equal; distinct domains send
/// the same words into unrelated hash streams. The word order matters,
/// which is exactly what set-of-sequences hashing wants: callers hash
/// lengths alongside elements to keep `["ab","c"]` and `["a","bc"]`
/// apart.
pub fn keyed_hash(domain: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in domain.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// Word-at-a-time variant of [`keyed_hash`] for long word streams
/// (e.g. a 276-word `F'` bit pattern): one xor-multiply per word
/// instead of eight. Weaker avalanche than the byte stream, which is
/// fine for its one job — routing exact-equality keys to shards and
/// buckets, where a rare collision costs a chain walk, never an
/// answer.
pub fn keyed_hash_words(domain: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ domain.wrapping_mul(0x100_0000_01b3);
    for word in words {
        hash ^= word;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Hashes a *set* of interned symbol sequences (each a `&[u32]` slice)
/// under `domain`, framing every sequence with its length so sequence
/// boundaries are part of the hash.
///
/// This is how a trained model's reference corpus is stamped: the
/// stamp changes whenever any reference fingerprint's symbols change,
/// a sequence is added or removed, or the grouping shifts.
pub fn symbol_set_hash<'a>(domain: u64, sequences: impl IntoIterator<Item = &'a [u32]>) -> u64 {
    let mut hash = keyed_hash(domain, []);
    for sequence in sequences {
        hash = keyed_hash(
            hash,
            std::iter::once(sequence.len() as u64)
                .chain(sequence.iter().map(|&symbol| u64::from(symbol))),
        );
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_separate_identical_words() {
        let words = [1u64, 2, 3];
        assert_ne!(keyed_hash(7, words), keyed_hash(8, words));
        assert_eq!(keyed_hash(7, words), keyed_hash(7, words));
    }

    #[test]
    fn word_boundaries_are_part_of_the_hash() {
        let ab_c: [&[u32]; 2] = [&[10, 11], &[12]];
        let a_bc: [&[u32]; 2] = [&[10], &[11, 12]];
        assert_ne!(symbol_set_hash(1, ab_c), symbol_set_hash(1, a_bc));
        assert_eq!(symbol_set_hash(1, ab_c), symbol_set_hash(1, ab_c));
    }

    #[test]
    fn empty_input_is_still_domain_keyed() {
        assert_ne!(keyed_hash(1, []), keyed_hash(2, []));
        assert_ne!(keyed_hash_words(1, []), keyed_hash_words(2, []));
    }

    #[test]
    fn word_hash_is_stable_and_word_sensitive() {
        let a = keyed_hash_words(3, [5u64, 6, 7]);
        assert_eq!(a, keyed_hash_words(3, [5u64, 6, 7]));
        assert_ne!(a, keyed_hash_words(3, [5u64, 6, 8]));
        assert_ne!(a, keyed_hash_words(4, [5u64, 6, 7]));
    }
}
