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

/// Texts for the lockstep kernel: [`long_symbols`] with up to three
/// positions overwritten by ids past a 6-symbol mask table (6, 7 and
/// `u32::MAX`), which must match no pattern position.
fn hostile_text() -> impl Strategy<Value = Vec<u32>> {
    let past_table = prop_oneof![Just(6u32), Just(7), Just(u32::MAX)];
    (
        long_symbols(),
        proptest::collection::vec((any::<usize>(), past_table), 0..3),
    )
        .prop_map(|(mut text, overwrites)| {
            if !text.is_empty() {
                let n = text.len();
                for (at, symbol) in overwrites {
                    text[at % n] = symbol;
                }
            }
            text
        })
}

/// The lockstep kernel against the reference DP: pattern `a` against
/// every text in one call, text by text, appended behind what `out`
/// already held; and the mask table is all-zero again once the pattern
/// is dropped.
fn assert_lockstep<T: AsRef<[u32]>>(scratch: &mut OsaScratch, a: &[u32], texts: &[T]) {
    let mut out = vec![usize::MAX];
    scratch
        .load(a, 6)
        .distances_into(texts.len(), |i| texts[i].as_ref(), &mut out);
    let exact: Vec<usize> = (texts.iter())
        .map(|text| osa_distance(a, text.as_ref()))
        .collect();
    assert_eq!(out[0], usize::MAX, "appends, never clears");
    assert_eq!(
        out[1..],
        exact,
        "m = {}, n = {:?}",
        a.len(),
        texts
            .iter()
            .map(|text| text.as_ref().len())
            .collect::<Vec<_>>()
    );
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
    fn lockstep_agrees_with_exact(
        a in symbols(),
        texts in proptest::collection::vec(symbols(), 0..=17),
    ) {
        // Up to two full eight-lane groups and one text more.
        let widen = |s: Vec<u8>| s.into_iter().map(u32::from).collect::<Vec<u32>>();
        let texts: Vec<Vec<u32>> = texts.into_iter().map(widen).collect();
        assert_lockstep(&mut OsaScratch::new(), &widen(a), &texts);
    }

    #[test]
    fn lockstep_distances_equal_osa_distance_text_by_text(
        pattern in long_symbols(),
        texts in proptest::collection::vec(hostile_text(), 0..=9),
    ) {
        // 0 to one-lane-group-plus-one texts of mixed lengths (63/64/65
        // and 127/128/129 included), some symbols past the mask table,
        // against the drawn pattern and the empty one.
        let mut scratch = OsaScratch::new();
        assert_lockstep(&mut scratch, &pattern, &texts);
        assert_lockstep(&mut scratch, &[], &texts);
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
        let (x, y) = swapped;
        assert_lockstep(&mut scratch, &a, &[&b, &x, &y]);
        assert_lockstep(&mut scratch, &b, &[&a]);
        assert_lockstep(&mut scratch, &x, &[&y, &a]);
        assert_lockstep(&mut scratch, &y, &[&x]);
        assert_lockstep(&mut scratch, &a, &[&y]);
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
        // probe (unseen columns on the id past the table) as the pattern.
        let mut scratch = OsaScratch::new();
        let mut distance = Vec::new();
        scratch
            .load(ib.symbols(), table.len() + 1)
            .distances_into(1, |_| ia.symbols(), &mut distance);
        prop_assert_eq!(distance, [exact]);
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
