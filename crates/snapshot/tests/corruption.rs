//! Corruption differential tests: the decode path must be total — for
//! *any* damaged input it returns a typed [`SnapshotError`], never
//! panics, and never yields a silently different model.
//!
//! The contract, per mutation class:
//!
//! * **zero-length / truncated** input → always `Err`;
//! * **any single bit flip** → `Err`, or `Ok` of a snapshot *equal* to
//!   the original (the only benign flips live in the header's section
//!   count, where growing the count makes the decoder read phantom
//!   table entries whose ids are unknown and skipped);
//! * **bit flips inside section payloads** → always `Err` (every
//!   payload byte is covered by its section's XXH64 checksum);
//! * **arbitrary garbage** → `Err` without panicking.

mod common;

use proptest::prelude::*;

use sentinel_snapshot::hash::xxh64;
use sentinel_snapshot::{Snapshot, SnapshotError};

fn golden_bytes() -> Vec<u8> {
    common::golden_snapshot().encode()
}

/// Where the section payloads start: header (16 bytes) plus the
/// four-entry section table (28 bytes each).
fn payload_start(bytes: &[u8]) -> usize {
    let n_sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    16 + n_sections * 28
}

/// Re-frames `bytes` with `edit` applied to the payload of section `id`,
/// recomputing every offset and checksum: the result is a structurally
/// sound container, so only the model's own validation can refuse it.
fn with_section(bytes: &[u8], id: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let word = |at: usize, width: usize| {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(&bytes[at..at + width]);
        u64::from_le_bytes(le) as usize
    };
    let n_sections = word(12, 4);
    let mut sections: Vec<(u32, Vec<u8>)> = (0..n_sections)
        .map(|i| {
            let entry = 16 + i * 28;
            let (offset, length) = (word(entry + 4, 8), word(entry + 12, 8));
            (
                word(entry, 4) as u32,
                bytes[offset..offset + length].to_vec(),
            )
        })
        .collect();
    let (_, payload) = (sections.iter_mut())
        .find(|(section, _)| *section == id)
        .expect("the section exists");
    edit(payload);
    let mut out = bytes[..16].to_vec();
    let mut offset = payload_start(bytes);
    for (section, payload) in &sections {
        out.extend_from_slice(&section.to_le_bytes());
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&xxh64(payload, 0).to_le_bytes());
        offset += payload.len();
    }
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    out
}

#[test]
fn a_type_without_reference_fingerprints_is_refused() {
    const REFERENCES: u32 = 3;
    let bytes = golden_bytes();
    assert_eq!(with_section(&bytes, REFERENCES, |_| {}), bytes);
    // The last type (SensorB) ends the references section with its one
    // three-column reference: count 1, length 3, three ids. Emptying its
    // set leaves a well-formed section whose model would let SensorB
    // score 0 in stage 2 and win on no evidence.
    let emptied = with_section(&bytes, REFERENCES, |payload| {
        let tail = payload.len() - 20;
        assert_eq!(payload[tail..tail + 8], [1, 0, 0, 0, 3, 0, 0, 0]);
        payload.truncate(tail);
        payload.extend_from_slice(&0u32.to_le_bytes());
    });
    match Snapshot::decode(&emptied) {
        Err(SnapshotError::Decode(what)) => {
            assert!(what.contains("no reference fingerprints"), "{what}")
        }
        other => panic!("an empty reference set must not load: {other:?}"),
    }
}

#[test]
fn zero_length_input_is_rejected() {
    assert!(Snapshot::decode(&[]).is_err());
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = golden_bytes();
    // Every strict prefix: the fixture is small enough to sweep fully.
    for len in 0..bytes.len() {
        assert!(
            Snapshot::decode(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes decoded",
            bytes.len()
        );
    }
}

#[test]
fn every_single_byte_corruption_in_a_payload_is_rejected() {
    let bytes = golden_bytes();
    let start = payload_start(&bytes);
    // Every payload byte, one bit flipped: the checksum must catch it.
    for at in start..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[at] ^= 1;
        assert!(
            Snapshot::decode(&mutated).is_err(),
            "flip at payload byte {at} decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A single bit flip anywhere — header, section table or payload —
    /// either fails loudly or changes nothing.
    #[test]
    fn any_bit_flip_fails_or_is_byte_transparent(at in any::<usize>(), bit in 0u8..8) {
        let bytes = golden_bytes();
        let at = at % bytes.len();
        let mut mutated = bytes.clone();
        mutated[at] ^= 1 << bit;
        match Snapshot::decode(&mutated) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(
                decoded,
                common::golden_snapshot(),
                "flip of bit {} at byte {} produced a *different* model",
                bit,
                at
            ),
        }
    }

    /// Several random flips at once: same contract.
    #[test]
    fn bursts_of_bit_flips_fail_or_are_byte_transparent(
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..16),
    ) {
        let bytes = golden_bytes();
        let mut mutated = bytes.clone();
        for (at, bit) in &flips {
            mutated[at % bytes.len()] ^= 1 << bit;
        }
        match Snapshot::decode(&mutated) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, common::golden_snapshot()),
        }
    }

    /// Random truncation points (the exhaustive sweep above covers the
    /// golden fixture; this also shaves random *suffixes* after flips).
    #[test]
    fn flip_then_truncate_never_panics(
        at in any::<usize>(),
        bit in 0u8..8,
        keep in any::<usize>(),
    ) {
        let bytes = golden_bytes();
        let mut mutated = bytes.clone();
        mutated[at % bytes.len()] ^= 1 << bit;
        mutated.truncate(keep % bytes.len());
        prop_assert!(Snapshot::decode(&mutated).is_err());
    }

    /// Arbitrary bytes are never a snapshot (and never a panic).
    #[test]
    fn garbage_is_rejected(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(Snapshot::decode(&bytes).is_err());
    }

    /// Garbage behind a valid-looking header is still rejected at the
    /// table or checksum layer.
    #[test]
    fn garbage_with_a_valid_magic_is_rejected(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SENTSNAP");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&tail);
        prop_assert!(Snapshot::decode(&bytes).is_err());
    }
}
