//! Golden-fixture pins of the container format.
//!
//! The fixtures are encodings of a fully hand-crafted model
//! (`common::golden_snapshot`): `data/golden_v2.snap` is what the
//! current format writes, `data/golden_v1.snap` what version 1 wrote.
//! If `encoding_matches_the_checked_in_fixture` fails, the byte format
//! changed: that is a contract break for every snapshot already on
//! disk, and requires either backward-compatible decoding of the old
//! layout or a `FORMAT_VERSION` bump — never a silent re-pin. To
//! re-bless the current version's fixture deliberately, run with
//! `SNAPSHOT_BLESS=1` and say so in the changelog. The version-1
//! fixture is never re-blessed: it is what old files look like.

mod common;

use sentinel_snapshot::{Snapshot, FORMAT_VERSION, MAGIC};

fn fixture_path(version: u32) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/data/golden_v{version}.snap"))
}

fn fixture(version: u32) -> Vec<u8> {
    std::fs::read(fixture_path(version))
        .expect("fixture missing: generate the current one with SNAPSHOT_BLESS=1")
}

#[test]
fn encoding_matches_the_checked_in_fixture() {
    let actual = common::golden_snapshot().encode();
    if std::env::var_os("SNAPSHOT_BLESS").is_some() {
        let path = fixture_path(FORMAT_VERSION);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, &actual).unwrap();
    }
    assert_eq!(
        actual,
        fixture(FORMAT_VERSION),
        "the snapshot byte format changed; see the module docs before re-pinning"
    );
}

#[test]
fn every_fixture_decodes_to_the_golden_model() {
    for version in 1..=FORMAT_VERSION {
        let decoded = Snapshot::decode(&fixture(version))
            .unwrap_or_else(|err| panic!("the version-{version} fixture must decode: {err}"));
        assert_eq!(decoded, common::golden_snapshot(), "version {version}");
    }
}

#[test]
fn a_version_1_file_reencodes_to_its_version_2_form() {
    let decoded = Snapshot::decode(&fixture(1)).expect("the version-1 fixture must decode");
    assert_eq!(decoded.encode(), fixture(2));
}

#[test]
fn fixture_headers_are_the_documented_layout() {
    for version in 1..=FORMAT_VERSION {
        let bytes = fixture(version);
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            version
        );
        // Four sections: config, bank, references, vulndb.
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 4);
    }
}

#[test]
fn encoding_is_deterministic() {
    assert_eq!(
        common::golden_snapshot().encode(),
        common::golden_snapshot().encode()
    );
}
