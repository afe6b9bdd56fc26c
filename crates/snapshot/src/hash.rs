//! XXH64 (Collet's xxHash, 64-bit variant), implemented in-tree.
//!
//! Snapshot sections are integrity-checked with a fast non-cryptographic
//! hash: the threat model is bit rot and truncated writes, not an
//! adversary forging models, so a checksum that costs ~1 cycle/byte at
//! load time beats a MAC that would dominate the instant-boot budget.
//! The algorithm is frozen — the golden fixture pins every checksum
//! byte — so this implementation must never change. Reference test
//! vectors are pinned in the tests below.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// The XXH64 digest of `bytes` under `seed`.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let (stripes, rest) = bytes.as_chunks::<32>();
    let mut acc = if stripes.is_empty() {
        seed.wrapping_add(P5)
    } else {
        let mut lanes = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for stripe in stripes {
            for (acc, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *acc = round(*acc, u64::from_le_bytes(*word));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let mut acc = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        acc = merge(acc, v1);
        acc = merge(acc, v2);
        acc = merge(acc, v3);
        merge(acc, v4)
    };
    acc = acc.wrapping_add(bytes.len() as u64);
    let (words, rest) = rest.as_chunks::<8>();
    for word in words {
        acc = (acc ^ round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let rest = match rest.split_first_chunk::<4>() {
        Some((word, tail)) => {
            acc = (acc ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail
        }
        None => rest,
    };
    for &byte in rest {
        acc = (acc ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^ (acc >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the canonical xxHash distribution.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // 43 bytes: exercises the 32-byte stripe loop plus tails.
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog", 0),
            0x0B24_2D36_1FDA_71BC
        );
    }

    /// Exercises every tail path: the 32-byte stripe loop, the 8-byte,
    /// 4-byte and single-byte tails, under both zero and nonzero seeds.
    #[test]
    fn all_length_classes_are_stable() {
        let data: Vec<u8> = (0u16..96).map(|i| (i * 31 % 251) as u8).collect();
        let lengths = [0usize, 1, 3, 4, 7, 8, 15, 31, 32, 33, 63, 64, 95];
        let digests: Vec<u64> = lengths
            .iter()
            .map(|&n| xxh64(&data[..n], 0x9E37_79B9))
            .collect();
        // Distinct inputs must not collide in this tiny sample.
        let unique: std::collections::HashSet<_> = digests.iter().collect();
        assert_eq!(unique.len(), digests.len());
        // And every digest is a pure function of its input.
        for (&n, &digest) in lengths.iter().zip(&digests) {
            assert_eq!(xxh64(&data[..n], 0x9E37_79B9), digest);
        }
    }
}
