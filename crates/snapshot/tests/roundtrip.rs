//! Train → save → load → bit-identical: the whole point of the
//! snapshot subsystem. A genuinely trained model is served and
//! snapshotted, round-tripped through the binary format (in memory and
//! through a file), and the restored service must answer every keyed
//! assessment with byte-for-byte the same response as the original
//! instance.

use std::sync::OnceLock;

use proptest::prelude::*;

use sentinel_core::vulndb::StaticVulnDb;
use sentinel_core::{
    AssessKey, BankConfig, FingerprintDataset, Identifier, IdentifierConfig, IoTSecurityService,
    SecurityService, ServiceResponse, TrainedModel,
};
use sentinel_devicesim::{catalog, Testbed};
use sentinel_fingerprint::{extract, Fingerprint, FixedFingerprint};
use sentinel_ml::{ForestConfig, PinnedRng};
use sentinel_snapshot::Snapshot;

/// Trained fixture: a real (if small) model over a third of the
/// catalog, the service serving it, the snapshot taken of both, the
/// restored service, and per-key baseline responses from the *original*
/// instance.
struct Fixture {
    model: TrainedModel,
    snapshot: Snapshot,
    original: IoTSecurityService,
    restored: IoTSecurityService,
    probes: Vec<(Fingerprint, FixedFingerprint, AssessKey)>,
    baseline: Vec<ServiceResponse>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let devices: Vec<_> = catalog().into_iter().step_by(3).collect();
        let dataset = FingerprintDataset::collect(&devices, 3, 42);
        let config = IdentifierConfig {
            bank: BankConfig {
                forest: ForestConfig::default().with_trees(15),
                ..BankConfig::default()
            },
            references_per_type: 3,
            ..IdentifierConfig::default()
        };
        let model = TrainedModel::train(&dataset, &config);
        let vulndb = StaticVulnDb::with_known_iot_advisories();
        let original = IoTSecurityService::from_parts(Identifier::from(&model), vulndb.clone());
        let snapshot = Snapshot::new(model.clone(), vulndb);
        let restored = snapshot.clone().into_service();
        let testbed = Testbed::new(0x5eed);
        let probes: Vec<(Fingerprint, FixedFingerprint, AssessKey)> = devices
            .iter()
            .enumerate()
            .map(|(i, device)| {
                let trace = testbed.setup_run(&device.profile, 900 + i as u64);
                let full = extract(&trace.packets);
                let fixed = FixedFingerprint::from_fingerprint(&full);
                (full, fixed, AssessKey::new(31 * i as u64, trace.mac))
            })
            .collect();
        let baseline = probes
            .iter()
            .map(|(full, fixed, key)| original.assess_keyed(full, fixed, *key))
            .collect();
        Fixture {
            model,
            snapshot,
            original,
            restored,
            probes,
            baseline,
        }
    })
}

#[test]
fn snapshot_roundtrips_through_the_binary_format() {
    let fixture = fixture();
    let bytes = fixture.snapshot.encode();
    let decoded = Snapshot::decode(&bytes).expect("a just-encoded snapshot must decode");
    assert_eq!(decoded, fixture.snapshot, "decode(encode(s)) != s");
    // And the canonical encoding is a fixed point.
    assert_eq!(decoded.encode(), bytes, "encode(decode(b)) != b");
}

#[test]
fn restored_model_is_bit_identical() {
    let fixture = fixture();
    let bytes = fixture.snapshot.encode();
    let decoded = Snapshot::decode(&bytes).unwrap();
    // Every tree, threshold, leaf distribution, reference fingerprint
    // and advisory — `PartialEq` on the model is structural equality.
    assert_eq!(decoded.model, fixture.model);
    assert_eq!(&decoded.vulndb, fixture.original.vulndb());
}

#[test]
fn restored_service_assesses_bit_identically() {
    let fixture = fixture();
    for ((full, fixed, key), expected) in fixture.probes.iter().zip(&fixture.baseline) {
        let response = fixture.restored.assess_keyed(full, fixed, *key);
        assert_eq!(&response, expected, "loaded gateway diverged on {key:?}");
    }
}

#[test]
fn save_load_through_a_file_is_lossless() {
    let fixture = fixture();
    let path = std::env::temp_dir().join(format!("sentinel-roundtrip-{}.snap", std::process::id()));
    fixture.snapshot.save(&path).expect("save");
    let loaded = Snapshot::load(&path).expect("load").into_service();
    std::fs::remove_file(&path).ok();
    for ((full, fixed, key), expected) in fixture.probes.iter().zip(&fixture.baseline) {
        assert_eq!(&loaded.assess_keyed(full, fixed, *key), expected);
    }
}

#[test]
#[should_panic(expected = "a booted service holds only its serving form")]
fn a_booted_service_cannot_be_snapshotted_again() {
    Snapshot::of_service(&fixture().restored);
}

#[test]
fn loading_a_missing_file_is_an_io_error() {
    let missing = std::env::temp_dir().join("sentinel-definitely-missing.snap");
    match Snapshot::load(&missing) {
        Err(sentinel_snapshot::SnapshotError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The keyed contract survives the round trip: for arbitrary keys
    /// (not just the ones the baseline happened to use), the restored
    /// service and the original answer identically, in any order.
    #[test]
    fn restored_service_matches_the_original_on_arbitrary_keys(
        seq in any::<u64>(),
        pick_seed in any::<u64>(),
    ) {
        let fixture = fixture();
        let pick = PinnedRng::from_key(pick_seed, 0, 0).index(fixture.probes.len());
        let (full, fixed, base) = &fixture.probes[pick];
        let key = AssessKey::new(seq, base.mac);
        prop_assert_eq!(
            fixture.restored.assess_keyed(full, fixed, key),
            fixture.original.assess_keyed(full, fixed, key)
        );
    }
}
