//! The v2 pinned RNG contract: cheap, keyed, order-independent draws.
//!
//! The v1 contract (a shared seeded `StdRng` advanced once per use site)
//! makes every consumer's stream depend on *how many* draws happened
//! before it — good enough for batch training, fatal for streaming
//! assessment pooled across gateways, which must not care which worker
//! (or in which order) serves it. [`PinnedRng`] replaces that with a generator
//! constructed *per decision* from a key: the stream is a pure function
//! of `(seed, key)`, so two completions keyed `(seq, mac)` draw the same
//! values no matter how work is scheduled around them.
//!
//! Every output of this module is part of a **pinned contract**: the
//! exact mixing constants, the widening-multiply range reduction and the
//! partial Fisher–Yates sampling order are all frozen by a checked-in
//! reference stream (`tests/data/pinned_rng_v2.txt`) plus property tests
//! (`tests/pinned_rng.rs`). Changing any of them is a contract break and
//! must re-pin the reference file deliberately.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood 2014): one 64-bit
//! add and three xor-multiply rounds per draw — orders of magnitude
//! cheaper than seeding a cryptographic `StdRng` per decision, with
//! well-studied equidistribution for the stream lengths used here (a
//! handful of draws per decision).

/// The SplitMix64 golden-gamma increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective avalanche mix of one word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic generator whose stream is a pure function of its
/// construction key (see the module docs for the pinned contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedRng {
    state: u64,
}

impl PinnedRng {
    /// Derives a generator from a seed and a two-word key.
    ///
    /// Pinned derivation: the seed and each key word are absorbed by one
    /// finalizer round each (`mix(mix(mix(seed ^ GAMMA) ^ hi) ^ lo)`), so
    /// any single-bit change in any input avalanches through the whole
    /// stream. Keys are *independent*, not hierarchical: there is no way
    /// to advance from key `(a, b)` to key `(a, b + 1)`.
    pub fn from_key(seed: u64, key_hi: u64, key_lo: u64) -> Self {
        let mut state = mix(seed ^ GAMMA);
        state = mix(state ^ key_hi);
        state = mix(state ^ key_lo);
        PinnedRng { state }
    }

    /// The next 64-bit draw (SplitMix64: add gamma, finalize).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// A draw in `0..n` via the widening-multiply range reduction
    /// (`(next_u64 × n) >> 64`). The ~2⁻⁶⁴·n selection bias is
    /// irrelevant at the pool sizes used here (tens of references, a
    /// couple of tied candidates) and buying exactness with rejection
    /// sampling would make the number of draws data-dependent — which
    /// the pinned-stream contract forbids.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A draw in `0..n` as an index.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.next_below(n as u64) as usize
    }

    /// Draws `k` distinct elements of `pool` without replacement (all of
    /// `pool`, in draw order, if `k >= pool.len()`).
    ///
    /// Pinned algorithm: a *partial* Fisher–Yates shuffle — slot `i`
    /// swaps with `i + index(len - i)` for `i in 0..k` and the first `k`
    /// slots are returned. Exactly `k` draws are consumed (the cheaper
    /// deterministic draw ROADMAP item 5b asks for), versus the v1
    /// contract's full shuffle of the whole pool.
    pub fn sample_k<T: Copy>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut sample = pool.to_vec();
        let k = k.min(pool.len());
        for i in 0..k {
            self.sample_step(&mut sample, i);
        }
        sample.truncate(k);
        sample
    }

    /// One step of the pinned partial Fisher–Yates, in place: swaps slot
    /// `i` with `i + index(len - i)` and returns the element now at slot
    /// `i`, consuming exactly one draw.
    ///
    /// Iterating `i in 0..k` replays [`PinnedRng::sample_k`] draw for
    /// draw — this is the lazy form for consumers that inspect one
    /// candidate at a time and decide *as they go* how many slots to
    /// fill (training's per-node feature subsampling, where features
    /// found constant must not count against the candidate budget), or
    /// that sample in place, in a buffer they keep warm (stage 2).
    ///
    /// # Panics
    ///
    /// Panics if `i >= items.len()`.
    #[inline]
    pub fn sample_step<T: Copy>(&mut self, items: &mut [T], i: usize) -> T {
        let j = i + self.index(items.len() - i);
        items.swap(i, j);
        items[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = PinnedRng::from_key(7, 1, 2);
        let mut b = PinnedRng::from_key(7, 1, 2);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn any_key_word_changes_the_stream() {
        let base = PinnedRng::from_key(7, 1, 2);
        for other in [
            PinnedRng::from_key(8, 1, 2),
            PinnedRng::from_key(7, 0, 2),
            PinnedRng::from_key(7, 1, 3),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn next_below_is_in_range() {
        let mut rng = PinnedRng::from_key(3, 4, 5);
        for n in 1..200u64 {
            assert!(rng.next_below(n) < n);
        }
    }

    #[test]
    fn sample_k_is_distinct_and_from_the_pool() {
        let pool: Vec<usize> = (0..40).collect();
        let mut rng = PinnedRng::from_key(1, 2, 3);
        let sample = rng.sample_k(&pool, 5);
        assert_eq!(sample.len(), 5);
        let distinct: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(distinct.len(), 5);
        assert!(sample.iter().all(|i| pool.contains(i)));
    }

    #[test]
    fn sample_k_caps_at_pool_size() {
        let pool = [10, 20, 30];
        let mut rng = PinnedRng::from_key(1, 2, 3);
        let mut sample = rng.sample_k(&pool, 9);
        sample.sort_unstable();
        assert_eq!(sample, vec![10, 20, 30]);
    }

    #[test]
    fn sample_k_consumes_exactly_k_draws() {
        let pool: Vec<usize> = (0..32).collect();
        let mut sampled = PinnedRng::from_key(9, 9, 9);
        sampled.sample_k(&pool, 4);
        let mut counted = PinnedRng::from_key(9, 9, 9);
        for _ in 0..4 {
            counted.next_u64();
        }
        assert_eq!(sampled, counted, "k draws, no more");
    }
}
