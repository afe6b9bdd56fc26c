//! Property tests: edit-distance metric laws and fingerprint-structure
//! invariants.

use proptest::prelude::*;

use sentinel_fingerprint::editdist::{levenshtein_distance, osa_distance, OsaScratch};
use sentinel_fingerprint::{
    extract, FeatureVector, Fingerprint, FixedFingerprint, PortClass, SymbolTable, FEATURE_COUNT,
};
use sentinel_netproto::{MacAddr, Packet};

fn symbols() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..6, 0..24)
}

/// Symbol sequences that cross the kernel's 64-row word boundaries:
/// lengths 0..=200 — half of them pinned to 63/64/65 and 127/128/129 —
/// over a 2–6-symbol alphabet.
fn long_symbols() -> impl Strategy<Value = Vec<u32>> {
    let length = prop_oneof![
        0usize..=200,
        (0usize..6).prop_map(|i| [63, 64, 65, 127, 128, 129][i]),
    ];
    (2u32..=6, length)
        .prop_flat_map(|(alphabet, length)| proptest::collection::vec(0..alphabet, length))
}

/// A sequence and a copy with some adjacent pairs swapped — transposition
/// sites anywhere, including across a word boundary (rows 63|64, 127|128).
fn swapped_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (
        long_symbols(),
        proptest::collection::vec(any::<usize>(), 0..6),
    )
        .prop_map(|(a, sites)| {
            let mut b = a.clone();
            if b.len() >= 2 {
                for site in sites {
                    let i = site % (b.len() - 1);
                    b.swap(i, i + 1);
                }
            }
            (a, b)
        })
}

/// The kernel against the reference DP for one pair, pattern `a`, at the
/// bounds that matter: 0, just below, exactly at and above the true
/// distance. `Some(d)` iff `d <= bound`, never a false early exit; and
/// the mask table is all-zero again once the pattern is dropped.
fn assert_kernel_contract(scratch: &mut OsaScratch, a: &[u32], b: &[u32]) {
    let exact = osa_distance(a, b);
    let longest = a.len().max(b.len());
    let mut pattern = scratch.load(a, 6);
    for bound in [0, exact.saturating_sub(1), exact, longest, usize::MAX] {
        assert_eq!(
            pattern.distance_bounded(b, bound),
            (exact <= bound).then_some(exact),
            "m = {}, n = {}, bound = {bound}",
            a.len(),
            b.len(),
        );
    }
    drop(pattern);
    assert!(
        scratch.is_clear(),
        "mask bits left behind by a {}-symbol pattern",
        a.len()
    );
}

fn vectors(max: usize) -> impl Strategy<Value = Vec<FeatureVector>> {
    proptest::collection::vec(0u32..8, 0..max).prop_map(|counters| {
        counters
            .into_iter()
            .map(|c| FeatureVector::from_packet(&Packet::dhcp_discover(MacAddr::ZERO, 1, 0), c))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // --- Edit-distance laws ---

    #[test]
    fn osa_identity(a in symbols()) {
        prop_assert_eq!(osa_distance(&a, &a), 0);
    }

    #[test]
    fn osa_symmetry(a in symbols(), b in symbols()) {
        prop_assert_eq!(osa_distance(&a, &b), osa_distance(&b, &a));
    }

    #[test]
    fn osa_bounds(a in symbols(), b in symbols()) {
        let d = osa_distance(&a, &b);
        let longest = a.len().max(b.len());
        let diff = a.len().abs_diff(b.len());
        prop_assert!(d <= longest, "distance {} exceeds longest {}", d, longest);
        prop_assert!(d >= diff, "distance {} below length difference {}", d, diff);
        prop_assert_eq!(d == 0, a == b);
    }

    #[test]
    fn osa_bounded_by_levenshtein(a in symbols(), b in symbols()) {
        prop_assert!(osa_distance(&a, &b) <= levenshtein_distance(&a, &b));
    }

    #[test]
    fn osa_bounded_agrees_with_exact(a in symbols(), b in symbols(), bound in 0usize..30) {
        let (a, b): (Vec<u32>, Vec<u32>) = (
            a.into_iter().map(u32::from).collect(),
            b.into_iter().map(u32::from).collect(),
        );
        let exact = osa_distance(&a, &b);
        let mut scratch = OsaScratch::new();
        match scratch.load(&a, 6).distance_bounded(&b, bound) {
            // Within the bound the kernel must reproduce the exact
            // distance bit-for-bit.
            Some(d) => {
                prop_assert_eq!(d, exact);
                prop_assert!(d <= bound);
            }
            // `None` is only allowed when the true distance genuinely
            // exceeds the bound — never a false early exit.
            None => prop_assert!(
                exact > bound,
                "bounded OSA gave up at bound {} but exact distance is {}",
                bound,
                exact
            ),
        }
        prop_assert!(scratch.is_clear());
    }

    #[test]
    fn kernel_agrees_with_exact_across_word_boundaries(
        a in long_symbols(),
        b in long_symbols(),
        swapped in swapped_pair(),
    ) {
        // One scratch through the whole sequence, both orientations, so
        // the table is re-laid-out between word counts: a stale bit from
        // an earlier pattern would corrupt a later distance.
        let mut scratch = OsaScratch::new();
        assert_kernel_contract(&mut scratch, &a, &b);
        assert_kernel_contract(&mut scratch, &b, &a);
        assert_kernel_contract(&mut scratch, &swapped.0, &swapped.1);
        assert_kernel_contract(&mut scratch, &swapped.1, &swapped.0);
        assert_kernel_contract(&mut scratch, &a, &swapped.1);
    }

    #[test]
    fn interned_distance_equals_vector_distance(a in vectors(20), b in vectors(20)) {
        let fa = Fingerprint::new(a);
        let fb = Fingerprint::new(b);
        // Reference side interned, probe side projected (the identifier's
        // exact usage): integer-symbol OSA must equal the vector OSA.
        let mut table = SymbolTable::new();
        let ia = table.intern(&fa);
        let ib = table.project(&fb);
        let exact = osa_distance(fa.vectors(), fb.vectors());
        prop_assert_eq!(osa_distance(ia.symbols(), ib.symbols()), exact);
        // And the kernel agrees on the interned views, the projected
        // probe (unseen columns on the id past the table) as the pattern: the distance
        // never exceeds the longer length, so that bound always resolves.
        let longest = fa.len().max(fb.len());
        let mut scratch = OsaScratch::new();
        prop_assert_eq!(
            scratch
                .load(ib.symbols(), table.len() + 1)
                .distance_bounded(ia.symbols(), longest),
            Some(exact)
        );
        prop_assert!(scratch.is_clear());
    }

    #[test]
    fn levenshtein_triangle_inequality(a in symbols(), b in symbols(), c in symbols()) {
        let ab = levenshtein_distance(&a, &b);
        let bc = levenshtein_distance(&b, &c);
        let ac = levenshtein_distance(&a, &c);
        prop_assert!(ac <= ab + bc, "triangle violated: {} > {} + {}", ac, ab, bc);
    }

    #[test]
    fn normalized_distance_in_unit_interval(a in vectors(20), b in vectors(20)) {
        let fa = Fingerprint::new(a);
        let fb = Fingerprint::new(b);
        let d = sentinel_fingerprint::editdist::normalized_distance(&fa, &fb);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert_eq!(
            sentinel_fingerprint::editdist::normalized_distance(&fb, &fa),
            d
        );
    }

    // --- Fingerprint structure invariants ---

    #[test]
    fn consecutive_dedup_is_idempotent(raw in vectors(24)) {
        let once = Fingerprint::new(raw);
        let twice = Fingerprint::new(once.vectors().to_vec());
        prop_assert_eq!(&twice, &once);
        // No two adjacent columns are equal after construction.
        for window in once.vectors().windows(2) {
            prop_assert_ne!(&window[0], &window[1]);
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

    #[test]
    fn unique_vectors_are_distinct_and_ordered(raw in vectors(30), limit in 1usize..15) {
        let fingerprint = Fingerprint::new(raw);
        let unique = fingerprint.unique_vectors(limit);
        prop_assert!(unique.len() <= limit);
        for (i, a) in unique.iter().enumerate() {
            for b in &unique[i + 1..] {
                prop_assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn port_class_total_and_stable(port in proptest::option::of(any::<u16>())) {
        let class = PortClass::from_port(port);
        let encoded = class.to_u8();
        prop_assert!(encoded <= 3);
        prop_assert_eq!(encoded == 0, port.is_none());
        // Same port always classifies the same.
        prop_assert_eq!(PortClass::from_port(port), class);
    }

    #[test]
    fn feature_array_matches_count(counter in 0u32..100) {
        let vector = FeatureVector::from_packet(
            &Packet::dhcp_discover(MacAddr::ZERO, 1, 0),
            counter,
        );
        let array = vector.to_array();
        prop_assert_eq!(array.len(), FEATURE_COUNT);
        prop_assert_eq!(array[20], counter as f64);
        // Binary features really are binary.
        for &value in &array[0..18] {
            prop_assert!(value == 0.0 || value == 1.0);
        }
    }

    #[test]
    fn incremental_push_matches_independent_counter_model(dsts in proptest::collection::vec(proptest::option::of(0u8..6), 0..40)) {
        use sentinel_fingerprint::FeatureExtractor;
        use sentinel_netproto::{AppPayload, Timestamp};
        use std::net::Ipv4Addr;

        let mac = MacAddr::new([7, 7, 7, 7, 7, 7]);
        let packets: Vec<Packet> = dsts
            .iter()
            .enumerate()
            .map(|(i, dst)| match dst {
                // `None` steps have no IP destination and must not
                // consume a counter slot.
                None => Packet::arp_probe(
                    Timestamp::from_micros(i as u64 * 1000),
                    mac,
                    Ipv4Addr::new(10, 0, 0, 1),
                ),
                Some(d) => Packet::udp_ipv4(
                    Timestamp::from_micros(i as u64 * 1000),
                    mac,
                    MacAddr::ZERO,
                    Ipv4Addr::new(192, 168, 0, 50),
                    Ipv4Addr::new(10, 0, 0, *d),
                    50000,
                    53,
                    AppPayload::Empty,
                ),
            })
            .collect();

        // Independent model of the Table I destination-IP counter: the
        // k-th distinct destination (1-based, in first-appearance order)
        // maps to k; packets without an IP destination map to 0.
        let mut order: Vec<u8> = Vec::new();
        let expected: Vec<u32> = dsts
            .iter()
            .map(|dst| match dst {
                None => 0,
                Some(d) => match order.iter().position(|seen| seen == d) {
                    Some(k) => k as u32 + 1,
                    None => {
                        order.push(*d);
                        order.len() as u32
                    }
                },
            })
            .collect();

        // Incremental push must reproduce the model counter per packet…
        let mut extractor = FeatureExtractor::new();
        let streamed: Vec<u32> = packets
            .iter()
            .map(|p| extractor.push(p).dst_ip_counter)
            .collect();
        prop_assert_eq!(&streamed, &expected);
        prop_assert_eq!(extractor.packet_count(), packets.len());
        // …and finalize to exactly the batch fingerprint, which is the
        // constructor's dedup over the model's vectors: the reference the
        // extractor's on-arrival duplicate drop is held to (a step equal
        // to the one before it — `None` after `None`, most often — is a
        // consecutive duplicate).
        let modelled = packets
            .iter()
            .zip(&expected)
            .map(|(packet, &counter)| FeatureVector::from_packet(packet, counter));
        prop_assert_eq!(extract(&packets), Fingerprint::new(modelled));
        prop_assert_eq!(extractor.finish(), extract(&packets));
    }

    #[test]
    fn extraction_is_deterministic(seed in any::<u64>()) {
        // Same packets -> same fingerprint, regardless of how often we run.
        let mac = MacAddr::new([1, 2, 3, 4, 5, 6]);
        let packets = vec![
            Packet::dhcp_discover(mac, seed as u32, 0),
            Packet::dhcp_discover(mac, seed as u32 ^ 1, 500_000),
        ];
        prop_assert_eq!(extract(&packets), extract(&packets));
    }
}
