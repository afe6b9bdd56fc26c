//! The "one classifier per device-type" scalability story (Sect. IV-B.1):
//! new types are added without relearning, and unknown types are
//! surfaced rather than force-assigned.

use iot_sentinel::devicesim::{catalog, DeviceProfile, Phase, RawDest, Testbed};
use iot_sentinel::fingerprint::{extract, FixedFingerprint};
use iot_sentinel::ml::ForestConfig;
use iot_sentinel::netproto::MacAddr;
use iot_sentinel::prelude::*;

fn fast_bank_config() -> BankConfig {
    BankConfig {
        forest: ForestConfig::default().with_trees(40),
        ..BankConfig::default()
    }
}

#[test]
fn adding_a_type_never_changes_existing_classifiers() {
    let devices = catalog();
    let first10 = FingerprintDataset::collect(&devices[..10], 8, 5);
    let first11 = FingerprintDataset::collect(&devices[..11], 8, 5);
    let mut bank = ClassifierBank::train(&first10, &fast_bank_config());

    // Record every existing classifier's confidence on a probe set.
    let probes: Vec<usize> = (0..first11.len()).step_by(7).collect();
    let before: Vec<f64> = probes
        .iter()
        .flat_map(|&i| (0..10).map(move |l| (i, l)))
        .map(|(i, l)| bank.confidence(l, first11.fixed(i)))
        .collect();

    bank.add_type(devices[10].info.identifier, &first11);

    let after: Vec<f64> = probes
        .iter()
        .flat_map(|&i| (0..10).map(move |l| (i, l)))
        .map(|(i, l)| bank.confidence(l, first11.fixed(i)))
        .collect();
    assert_eq!(before, after, "existing classifiers must be untouched");
    assert_eq!(bank.n_types(), 11);
}

#[test]
fn grown_bank_identifies_the_new_type() {
    let devices = catalog();
    let without = FingerprintDataset::collect(&devices[..8], 10, 6);
    let with = FingerprintDataset::collect(&devices[..9], 10, 6);
    let mut bank = ClassifierBank::train(&without, &fast_bank_config());
    let label = bank.add_type(devices[8].info.identifier, &with);

    // Held-out runs of the new type (EdimaxCam) must be accepted by its
    // fresh classifier.
    let holdout = Testbed::new(1234);
    let mut accepted = 0;
    for run in 0..6 {
        let trace = holdout.setup_run(&devices[8].profile, run);
        let fixed = FixedFingerprint::from_fingerprint(&extract(&trace.packets));
        if bank.accepts(label, &fixed) {
            accepted += 1;
        }
    }
    assert!(accepted >= 5, "only {accepted}/6 held-out runs accepted");
}

#[test]
fn truly_novel_traffic_is_flagged_unknown() {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 8, 7);
    let identifier = Identifier::train(
        &dataset,
        &IdentifierConfig {
            bank: fast_bank_config(),
            ..IdentifierConfig::default()
        },
    );

    // Industrial-looking traffic unlike any consumer IoT profile.
    let mut plc = DeviceProfile::new("FactoryPLC", [0xac, 0xde, 0x48]);
    plc.extend_phases([
        Phase::Stp { count: 4 },
        Phase::UdpRaw {
            dest: RawDest::Gateway,
            port: 34964,
            sizes: vec![1400, 1400, 1400],
        },
        Phase::TcpRaw {
            dest: RawDest::Gateway,
            port: 102,
            sizes: vec![1200, 60, 1200],
        },
        Phase::Ping { count: 5 },
    ]);
    let testbed = Testbed::new(55);
    let mut unknown = 0;
    for run in 0..5 {
        let trace = testbed.setup_run(&plc, run);
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        let key = AssessKey::new(run, MacAddr::ZERO);
        if identifier
            .identify_keyed(&full, &fixed, key)
            .label()
            .is_none()
        {
            unknown += 1;
        }
    }
    assert!(unknown >= 4, "only {unknown}/5 runs flagged unknown");
}
