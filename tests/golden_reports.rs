//! Golden-byte pins of the keyed identification path's output.
//!
//! The fixtures under `tests/data/` were generated when the per-item
//! scalar path, the shared-RNG stream and the alternative stage-1/2
//! kernels still existed beside the keyed batch path and were asserted
//! equal to it; those oracles are gone, so these bytes carry their
//! guarantee forward. A mismatch means the reports a gateway or a fleet
//! produces for a fixed model, stream and seed changed — model training,
//! fingerprint extraction, stage 1, stage 2's keyed draws, the
//! vulnerability lookup or report serialization moved. That is a
//! behaviour change to justify, never a silent re-pin: re-bless
//! deliberately with `GOLDEN_BLESS=1` and say why in CHANGES.md.

use std::path::PathBuf;
use std::time::Duration;

use iot_sentinel::core::{
    BankConfig, FingerprintDataset, IdentifierConfig, IoTSecurityService, ServiceConfig,
};
use iot_sentinel::devicesim::{catalog, interleave, SetupTrace, Testbed};
use iot_sentinel::fleet::{run_fleet, FleetConfig};
use iot_sentinel::ml::ForestConfig;
use iot_sentinel::netproto::stream::MemoryFrameSource;
use iot_sentinel::snapshot::Snapshot;
use iot_sentinel::stream::{StreamConfig, StreamRuntime};

/// Compares `actual` with the checked-in fixture `name`, rewriting the
/// fixture first when `GOLDEN_BLESS` is set.
fn assert_matches_fixture(name: &str, actual: &[u8]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture has a parent")).unwrap();
        std::fs::write(&path, actual).unwrap();
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|_| panic!("{name} missing: generate once with GOLDEN_BLESS=1"));
    assert!(
        actual == expected.as_slice(),
        "{name}: report bytes changed; see the module docs before re-pinning"
    );
}

/// The `streaming_equivalence` scenario: the whole catalog trained on 8
/// runs with 25-tree forests and every run a stage-2 reference, 24
/// setups interleaved 9 ms apart.
#[test]
fn onboarding_reports_match_the_checked_in_bytes() {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 8, 42);
    let config = ServiceConfig {
        identifier: IdentifierConfig {
            bank: BankConfig {
                forest: ForestConfig::default().with_trees(25),
                ..BankConfig::default()
            },
            references_per_type: 8,
            ..IdentifierConfig::default()
        },
    };
    let service = IoTSecurityService::train(&dataset, &config);
    let testbed = Testbed::new(0x0e9);
    let traces: Vec<SetupTrace> = (0..24)
        .map(|i| {
            let device = &devices[i % devices.len()];
            testbed.setup_run(&device.profile, 300 + (i / devices.len()) as u64)
        })
        .collect();
    let stream = interleave(&traces, Duration::from_millis(9));
    let mut runtime = StreamRuntime::with_config(
        &service,
        StreamConfig {
            threads: 1,
            ..StreamConfig::default()
        },
    );
    let mut reports = Vec::new();
    runtime
        .run_frames(MemoryFrameSource::from_packets(&stream), &mut reports)
        .expect("in-memory source cannot fail");
    assert_eq!(reports.len(), traces.len(), "every device must onboard");
    assert_matches_fixture(
        "golden_onboarding_reports.json",
        &serde_json::to_vec(&reports).unwrap(),
    );
}

/// The `fleet_determinism` scenario: six types, default 100-tree
/// forests and 5 sampled references, 9 homes of 3 devices with joins,
/// leaves and a roamer.
#[test]
fn fleet_report_matches_the_checked_in_bytes() {
    let devices: Vec<_> = catalog().into_iter().take(6).collect();
    let dataset = FingerprintDataset::collect(&devices, 8, 42);
    let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());
    let report = run_fleet(
        &service,
        &FleetConfig {
            homes: 9,
            devices_per_home: 3,
            threads: 1,
            ..FleetConfig::default()
        },
    );
    assert_matches_fixture(
        "golden_fleet_report.json",
        &serde_json::to_vec(&report).unwrap(),
    );
}

/// A fresh fit, pinned: the first 8 catalog types trained on 6 runs
/// with 15-tree forests at fixed seeds, encoded as a snapshot. The
/// fixture was blessed while the sorted-scan split search was still a
/// public forest fit asserted equal to the binned one on fingerprint
/// data, so it carries "exact == binned" forward for the bank's real
/// corpus; `golden_v1.snap` is built from hand-made stumps and pins no
/// training. The snapshot is 28 KiB, so the bytes themselves are
/// checked in.
#[test]
fn trained_model_matches_the_checked_in_bytes() {
    let devices: Vec<_> = catalog().into_iter().take(8).collect();
    let dataset = FingerprintDataset::collect(&devices, 6, 42);
    let config = ServiceConfig {
        identifier: IdentifierConfig {
            bank: BankConfig {
                forest: ForestConfig::default().with_trees(15).with_seed(7),
                seed: 11,
                threads: 1,
                ..BankConfig::default()
            },
            seed: 5,
            ..IdentifierConfig::default()
        },
    };
    let service = IoTSecurityService::train(&dataset, &config);
    assert_matches_fixture(
        "golden_trained_model.snap",
        &Snapshot::of_service(&service).encode(),
    );
}
