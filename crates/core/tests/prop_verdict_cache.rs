//! Property tests for the stage-1 verdict cache: for *arbitrary*
//! fingerprint sets — including exact duplicates and near-collisions
//! differing in a single feature — a cache-enabled identifier must
//! produce exactly the candidate sets of the uncached kernel path,
//! while actually serving repeats from the cache.

use std::sync::OnceLock;

use proptest::prelude::*;

use sentinel_core::{
    BankConfig, ClassifyScratch, FingerprintDataset, Identifier, IdentifierConfig,
};
use sentinel_devicesim::catalog;
use sentinel_fingerprint::{FeatureVector, Fingerprint, FixedFingerprint};
use sentinel_ml::ForestConfig;
use sentinel_netproto::{MacAddr, Packet};

fn train() -> Identifier {
    let devices: Vec<_> = catalog().into_iter().take(3).collect();
    let dataset = FingerprintDataset::collect(&devices, 8, 5);
    let config = IdentifierConfig {
        bank: BankConfig {
            forest: ForestConfig::default().with_trees(15),
            ..BankConfig::default()
        },
        ..IdentifierConfig::default()
    };
    Identifier::train(&dataset, &config)
}

/// One trained model per process; training is deterministic, so the
/// cached twin (same dataset, same config) is the identical model with
/// the verdict cache switched on.
fn models() -> &'static (Identifier, Identifier) {
    static MODELS: OnceLock<(Identifier, Identifier)> = OnceLock::new();
    MODELS.get_or_init(|| {
        let plain = train();
        let mut cached = train();
        cached.enable_verdict_cache(true);
        (plain, cached)
    })
}

/// An arbitrary fingerprint: a handful of feature vectors drawn from a
/// small packet pool, distinguished by their destination counters.
fn fingerprint(spec: &[(u8, u32)]) -> Fingerprint {
    spec.iter()
        .map(|&(kind, counter)| {
            let packet = match kind % 3 {
                0 => Packet::dhcp_discover(MacAddr::new([2, 0, 0, 0, 0, kind]), 7, 0),
                1 => Packet::arp_probe(
                    sentinel_netproto::Timestamp::ZERO,
                    MacAddr::new([2, 0, 0, 0, 0, kind]),
                    std::net::Ipv4Addr::new(192, 168, 0, 40),
                ),
                _ => Packet::eapol_key(
                    sentinel_netproto::Timestamp::ZERO,
                    MacAddr::new([2, 0, 0, 0, 0, kind]),
                    MacAddr::ZERO,
                    2,
                ),
            };
            FeatureVector::from_packet(&packet, counter)
        })
        .collect()
}

fn specs() -> impl Strategy<Value = Vec<Vec<(u8, u32)>>> {
    proptest::collection::vec(proptest::collection::vec((0u8..3, 1u32..20), 1..6), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cached stage 1 == fresh stage 1, for arbitrary sets *plus* an
    /// exact duplicate and a one-feature near-collision of every set
    /// member (the bit-pattern key must separate near-collisions and
    /// unify duplicates), across two passes so the second is served
    /// entirely from the cache.
    #[test]
    fn cached_verdicts_equal_fresh_classify(specs in specs()) {
        let (plain, cached) = models();

        let mut fingerprints: Vec<Fingerprint> = specs.iter().map(|s| fingerprint(s)).collect();
        // Exact duplicates: must unify on one cache entry.
        for spec in &specs {
            fingerprints.push(fingerprint(spec));
        }
        // Near-collisions: one feature nudged, so `F'` differs in a
        // single dimension — a distinct key that must NOT unify.
        for spec in &specs {
            let mut near = spec.clone();
            near[0].1 += 23;
            fingerprints.push(fingerprint(&near));
        }
        let fixed: Vec<FixedFingerprint> = fingerprints
            .iter()
            .map(FixedFingerprint::from_fingerprint)
            .collect();
        let refs: Vec<&FixedFingerprint> = fixed.iter().collect();

        let mut scratch = ClassifyScratch::default();
        let fresh = plain.classify_batch_in(&refs, &mut scratch).to_vec();
        let (hits_before, _) = cached.verdict_cache_stats();
        let first = cached.classify_batch_in(&refs, &mut scratch).to_vec();
        prop_assert_eq!(&first, &fresh, "cached pass 1 diverged from fresh classify");

        // Pass 2 over the same rows: every row must be a cache hit and
        // the verdicts must not drift.
        let (hits_mid, lookups_mid) = cached.verdict_cache_stats();
        let second = cached.classify_batch_in(&refs, &mut scratch).to_vec();
        let (hits_after, lookups_after) = cached.verdict_cache_stats();
        prop_assert_eq!(&second, &fresh, "cache replay drifted");
        prop_assert_eq!(lookups_after - lookups_mid, refs.len() as u64);
        prop_assert_eq!(
            hits_after - hits_mid,
            refs.len() as u64,
            "pass 2 must be served entirely from the cache"
        );
        prop_assert!(hits_after > hits_before);
    }
}
