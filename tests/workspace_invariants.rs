//! One fast, fixed-seed case of each workspace invariant, so the
//! facade's `cargo test` carries them without `--workspace`. Each is a
//! small deterministic slice of the crate-level property test named in
//! its doc; those explore the same contract over random inputs.

use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::fingerprint::editdist::{osa_distance, OsaScratch};
use iot_sentinel::fingerprint::extract;
use iot_sentinel::fingerprint::setup::SetupDetector;
use iot_sentinel::ml::{BankScorer, Dataset, ForestConfig, RandomForest};
use iot_sentinel::netproto::{
    AppPayload, MacAddr, Packet, RawFeatures, ScanOutcome, Timestamp, WireScan,
};
use iot_sentinel::sdn::{EnforcementModule, EnforcementRule, FlowAction, OvsSwitch, Verdict};
use iot_sentinel::snapshot::Snapshot;
use iot_sentinel::stream::{Session, SessionEvent};

/// A deterministic value hash (splitmix64's finalizer).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Scan ≡ decode (`crates/netproto/tests/scan_equivalence.rs`): on every
/// frame of a simulated setup of each catalog device, and on 16 single-bit
/// flips of each, the scan certifies exactly the frames the decoder
/// accepts, with the decoded packet's features, and `from_frame` carries
/// the decoder's own error.
#[test]
fn scan_equals_decode_on_the_simulator_corpus_and_bit_flips() {
    let testbed = Testbed::new(0x5ca1);
    let mut frames = Vec::new();
    for (run, device) in catalog().iter().enumerate() {
        let trace = testbed.setup_run(&device.profile, run as u64);
        frames.extend(trace.packets.iter().map(Packet::encode));
    }
    let mut checked = 0;
    let mut malformed = 0;
    for (i, frame) in frames.iter().enumerate() {
        let bits = frame.len() as u64 * 8;
        let flips = (0..16).map(|k| mix((i as u64) << 8 | k) % bits);
        for flip in std::iter::once(None).chain(flips.map(Some)) {
            let mut frame = frame.clone();
            if let Some(bit) = flip {
                frame[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            let decoded = Packet::parse(&frame, Timestamp::ZERO);
            let expected = decoded.map(|packet| RawFeatures::from_packet(&packet));
            let outcome = match &expected {
                Ok(raw) => ScanOutcome::Features(*raw),
                Err(_) => ScanOutcome::Malformed,
            };
            assert_eq!(WireScan::scan(&frame), outcome, "on {frame:02x?}");
            assert_eq!(RawFeatures::from_frame(&frame), expected, "on {frame:02x?}");
            checked += 1;
            malformed += usize::from(expected.is_err());
        }
    }
    // Not vacuous: the corpus certifies and some flips break a frame.
    assert!(checked > 4_000 && malformed > 0, "{checked} / {malformed}");
}

/// Switch coherence (`crates/sdn/tests/prop_enforcement.rs`,
/// `switch_cache_is_coherent`): along a fixed walk of packets, rule
/// installs and removals, every switched packet gets the decision the
/// controller makes afresh under the rules in force now, and a repeat
/// of it is a flow-table hit.
#[test]
fn every_switch_decision_equals_a_fresh_controller_decision() {
    let subnet = Ipv4Addr::new(192, 168, 0, 0);
    let whitelist = [IpAddr::V4(Ipv4Addr::new(52, 1, 1, 1))];
    let mac = |n: u64| MacAddr::new([2, 0, 0, 0, 0, (n % 8) as u8]);
    let mut module = EnforcementModule::new();
    let mut switch = OvsSwitch::lab();
    let mut actions = [0; 2];
    for step in 0..2_000u64 {
        let r = mix(step);
        match r % 6 {
            0 => {
                let rule = match (r >> 8) % 3 {
                    0 => EnforcementRule::strict(mac(r >> 16)),
                    1 => EnforcementRule::restricted(mac(r >> 16), whitelist),
                    _ => EnforcementRule::trusted(mac(r >> 16)),
                };
                let tls_only = (r >> 24) & 1 == 0;
                module.install_rule(if tls_only {
                    rule.with_port_filter([443])
                } else {
                    rule
                });
            }
            1 => {
                module.remove_rule(mac(r >> 16));
            }
            _ => {
                let src = mac(r >> 8);
                let (dst_mac, dst_ip) = if (r >> 16) & 1 == 0 {
                    let dst = mac(r >> 20);
                    (dst, Ipv4Addr::new(192, 168, 0, 60 + dst.octets()[5]))
                } else {
                    let host = 1 + ((r >> 20) % 3) as u8;
                    (
                        MacAddr::new([2, 9, 9, 9, 9, 9]),
                        Ipv4Addr::new(52, 1, 1, host),
                    )
                };
                let packet = Packet::udp_ipv4(
                    Timestamp::from_micros(step),
                    src,
                    dst_mac,
                    Ipv4Addr::new(192, 168, 0, 50 + src.octets()[5]),
                    dst_ip,
                    50_000,
                    if (r >> 28) & 1 == 0 { 443 } else { 23 },
                    AppPayload::Empty,
                );
                let expected = match module.decide_packet(&packet, subnet, 24) {
                    Verdict::Allow => FlowAction::Forward,
                    Verdict::Deny(_) => FlowAction::Drop,
                };
                let first = switch.process(&packet, &mut module);
                let again = switch.process(&packet, &mut module);
                assert_eq!(first.action, expected, "step {step}");
                assert_eq!(again.action, expected, "step {step}");
                assert!(!again.packet_in, "step {step}: a repeat is a hit");
                actions[usize::from(expected == FlowAction::Forward)] += 1;
            }
        }
    }
    // Not vacuous: the walk switched both ways.
    assert!(
        actions.iter().all(|&n| n > 100),
        "{actions:?} dropped, forwarded"
    );
}

/// The stage-1 kernels (`crates/ml/tests/prop_kernel.rs`): one
/// `BankScorer::candidates_into` pass names exactly the forests whose
/// `RandomForest::accepts` says yes, in label order, on the training
/// rows, rows off the manifold and rows with NaN and ±∞ cells — and
/// `candidates_batch_into` names the same for each row in batches of 1,
/// 16, 64 and 65 rows and in one batch of all of them, so the lane
/// kernel and the per-row kernel both answer.
#[test]
fn bank_scorer_candidates_equal_forest_acceptance() {
    let features = 6;
    let cell = |i: u64, f: u64| (mix(i << 8 | f) % 9) as f64;
    let mut data = Dataset::new(features);
    for i in 0..60u64 {
        let row: Vec<f64> = (0..features as u64).map(|f| cell(i, f)).collect();
        data.push(&row, (mix(i << 8 | 99) % 2) as usize);
    }
    let bank: Vec<RandomForest> = (0..4u64)
        .map(|label| {
            let config = ForestConfig::default().with_trees(7).with_seed(label);
            RandomForest::fit(&data, &config)
        })
        .collect();
    let mut probes: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i).to_vec()).collect();
    let odd = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    for k in 0..40u64 {
        probes.push(
            (0..features as u64)
                .map(|f| cell(k, f) * 0.5 - 1.5)
                .collect(),
        );
        let mut row = data.row(k as usize).to_vec();
        row[(k as usize) % features] = odd[k as usize % odd.len()];
        probes.push(row);
    }
    for value in odd {
        probes.push(vec![value; features]);
    }
    let scorer = BankScorer::new(&bank);
    let (mut words, mut candidates) = (Vec::new(), Vec::new());
    let (mut accepted, mut per_row) = (0, Vec::new());
    for (p, row) in probes.iter().enumerate() {
        candidates.clear();
        scorer.candidates_into(row, &mut words, &mut candidates);
        let expected: Vec<usize> = (0..bank.len()).filter(|&l| bank[l].accepts(row)).collect();
        assert_eq!(candidates, expected, "probe {p}: {row:?}");
        accepted += candidates.len();
        per_row.push(expected);
    }
    assert!(accepted > 0, "some forest accepts something");
    for size in [1, 16, 64, 65, probes.len()] {
        for (at, chunk) in probes.chunks(size).enumerate() {
            let mut out = vec![Vec::new(); chunk.len()];
            scorer.candidates_batch_into(|i| &chunk[i], &mut words, &mut out);
            assert_eq!(
                out,
                per_row[at * size..][..chunk.len()],
                "batches of {size}"
            );
        }
    }
}

/// The snapshot decoder's totality (`crates/snapshot/tests/corruption.rs`):
/// the golden v2 container with any byte of its header and section
/// table replaced by any other value, any payload byte with one bit
/// flipped, or cut at any length, decodes to `Ok` or `Err` — it never
/// panics — and the checksummed payload rejects every flip.
#[test]
fn every_byte_mutation_of_the_golden_snapshot_decodes_without_panicking() {
    let golden: &[u8] = include_bytes!("../crates/snapshot/tests/data/golden_v2.snap");
    assert!(Snapshot::decode(golden).is_ok());
    // A 16-byte header whose last word counts the 28-byte table entries.
    let sections = u32::from_le_bytes([golden[12], golden[13], golden[14], golden[15]]);
    let payload = 16 + sections as usize * 28;
    let mut mutated = golden.to_vec();
    for at in 0..golden.len() {
        let masks: Vec<u8> = if at < payload {
            (1..=u8::MAX).collect()
        } else {
            (0..8).map(|bit| 1 << bit).collect()
        };
        for mask in masks {
            mutated[at] ^= mask;
            let decoded = Snapshot::decode(&mutated);
            assert!(at < payload || decoded.is_err(), "flip {mask:#04x} at {at}");
            mutated[at] ^= mask;
        }
        assert!(Snapshot::decode(&golden[..at]).is_err(), "cut at {at}");
    }
}

/// Stream ≡ batch extract (`crates/stream/tests/prop_stream.rs`,
/// `session_extraction_equals_batch_extract`): a `Session` fed each
/// catalog setup frame by frame through the wire scan, every frame
/// offered twice (the repeat a consecutive duplicate), finishes to the
/// fingerprint batch `extract` builds from the decoded packets.
#[test]
fn a_streamed_session_equals_batch_extraction() {
    let testbed = Testbed::new(0x57e4);
    let open = SetupDetector::new(usize::MAX, Duration::from_secs(1 << 40), usize::MAX);
    for (run, device) in catalog().iter().enumerate() {
        let trace = testbed.setup_run(&device.profile, run as u64);
        let mut session = Session::open(0, Timestamp::ZERO);
        let mut seq = 0;
        let mut doubled = Vec::new();
        for packet in &trace.packets {
            let raw = RawFeatures::from_frame(&packet.encode()).expect("a simulated frame");
            for _ in 0..2 {
                let event = session.offer(&raw, packet.timestamp, seq, &open);
                assert_eq!(event, SessionEvent::Absorbed, "{}", device.info.identifier);
                seq += 1;
                doubled.push(packet.clone());
            }
        }
        assert_eq!(session.packets(), doubled.len());
        assert_eq!(
            session.finish(),
            extract(&doubled),
            "{}",
            device.info.identifier
        );
    }
}

/// Packed lanes ≡ the definition (`crates/fingerprint/tests/
/// prop_fingerprint.rs`, `lockstep_distances_equal_osa_distance_text_by_text`):
/// at every pattern length where the kernel's layout changes — 16-,
/// 32- and 64-bit lanes, then blocked words — one `distances_into` call
/// over a ragged group (texts of unequal length, empty ones, symbols
/// past the mask table, counts that fill no word evenly) gives
/// `osa_distance` text by text, and so does a text too long for a
/// 16-bit lane's counter.
#[test]
fn packed_distances_equal_osa_distance_text_by_text() {
    // Ids 0..6 are in the mask table, 6 and `u32::MAX` past it.
    let symbol = |key: u64| match mix(key) % 8 {
        7 => u32::MAX,
        id => id as u32,
    };
    let sequence =
        |key: u64, n: usize| -> Vec<u32> { (0..n as u64).map(|i| symbol(key << 20 | i)).collect() };
    let boundaries = [0, 1, 15, 16, 31, 32, 63, 64, 65];
    let ragged = [0, 1, 9, 15, 16, 31, 33, 64, 70];
    let mut scratch = OsaScratch::new();
    let mut checked = 0;
    for (p, &m) in boundaries.iter().enumerate() {
        let pattern: Vec<u32> = sequence(p as u64, m).iter().map(|&s| s.min(5)).collect();
        for count in 0..=9 {
            let texts: Vec<Vec<u32>> = (0..count)
                .map(|t| sequence((p * 16 + t + 1) as u64, ragged[(p + t * 5) % ragged.len()]))
                .collect();
            let mut out = Vec::new();
            (scratch.load(&pattern, 6)).distances_into(count, |i| &texts[i], &mut out);
            let exact: Vec<usize> = texts.iter().map(|t| osa_distance(&pattern, t)).collect();
            assert_eq!(out, exact, "m = {m}, {count} texts");
            checked += count;
        }
    }
    // A distance past a 16-bit counter's range, beside short texts.
    let long = sequence(0x10_000, 70_000);
    for m in [1, 15, 16, 31] {
        let pattern: Vec<u32> = sequence(m as u64, m).iter().map(|&s| s.min(5)).collect();
        let texts = [&long[..9], &long[..], &[][..]];
        let mut out = Vec::new();
        (scratch.load(&pattern, 6)).distances_into(3, |i| texts[i], &mut out);
        let exact: Vec<usize> = texts.iter().map(|t| osa_distance(&pattern, t)).collect();
        assert!(exact[1] > usize::from(u16::MAX), "{exact:?}");
        assert_eq!(out, exact, "m = {m} beside a 70 000-symbol text");
    }
    assert!(scratch.is_clear());
    assert!(checked > 300, "{checked}");
}
