//! End-to-end legacy migration (Sect. VIII-A): a whole legacy fleet is
//! identified from standby traffic by a real trained service, and the
//! overlay placement comes out right.

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::ml::ForestConfig;
use iot_sentinel::prelude::*;
use iot_sentinel::sdn::overlay::Overlay;
use iot_sentinel::sdn::EnforcementModule;

fn standby_service() -> IoTSecurityService {
    let devices = catalog();
    let dataset = FingerprintDataset::collect_standby(&devices, 10, 3, 42);
    let mut config = ServiceConfig::default();
    config.identifier.bank.forest = ForestConfig::default().with_trees(40);
    IoTSecurityService::train(&dataset, &config)
}

#[test]
fn legacy_fleet_lands_in_correct_overlays() {
    let devices = catalog();
    let service = standby_service();
    let testbed = Testbed::new(4242);

    // (catalog index, rekey support, expected outcome class)
    let fleet = [
        (4usize, RekeySupport::Wps), // HueBridge: clean + WPS -> trusted
        (0, RekeySupport::None),     // Aria: clean, no WPS -> untrusted
        (8, RekeySupport::Wps),      // EdimaxCam: CVE -> untrusted
    ];
    let legacy: Vec<LegacyDevice> = fleet
        .iter()
        .map(|&(index, rekey)| {
            let trace = testbed.standby_run(&devices[index].profile, 1, 3);
            LegacyDevice {
                mac: trace.mac,
                packets: trace.packets,
                rekey,
            }
        })
        .collect();

    let mut module = EnforcementModule::new();
    let records = migrate(&service, PskPolicy::Retain, &legacy, &mut module);

    assert_eq!(
        records[0].outcome,
        MigrationOutcome::MovedToTrusted,
        "{:?}",
        records[0]
    );
    assert_eq!(module.overlay_of(legacy[0].mac), Overlay::Trusted);

    assert!(
        matches!(records[1].outcome, MigrationOutcome::RemainsUntrusted(_)),
        "{:?}",
        records[1]
    );
    assert_eq!(module.overlay_of(legacy[1].mac), Overlay::Untrusted);

    assert!(
        matches!(records[2].outcome, MigrationOutcome::RemainsUntrusted(_)),
        "{:?}",
        records[2]
    );
    assert_eq!(module.overlay_of(legacy[2].mac), Overlay::Untrusted);
}

#[test]
fn standby_identification_matches_device_types() {
    // The Sect. VIII-A hypothesis, tested end-to-end: a service trained
    // on standby fingerprints identifies held-out standby captures.
    let devices = catalog();
    let service = standby_service();
    let testbed = Testbed::new(9999);
    let mut correct = 0;
    // The behaviourally distinct devices; families are expected to
    // confuse in standby too.
    let easy = [0usize, 2, 3, 4, 7, 8, 10, 13, 16];
    for &index in &easy {
        let trace = testbed.standby_run(&devices[index].profile, 5, 3);
        let full = iot_sentinel::fingerprint::extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        let response = service.assess(&full, &fixed);
        if response.identification.label() == Some(index) {
            correct += 1;
        }
    }
    assert!(
        correct >= easy.len() - 2,
        "only {correct}/{} standby identifications correct",
        easy.len()
    );
}

#[test]
fn uncontrollable_vulnerable_device_triggers_user_notification() {
    // EdnetGateway (index 6) has both an advisory and a sub-GHz radio
    // the gateway cannot see: the service must tell the user to remove
    // it (Sect. III-C.3).
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 10, 42);
    let mut config = ServiceConfig::default();
    config.identifier.bank.forest = ForestConfig::default().with_trees(40);
    let service = IoTSecurityService::train(&dataset, &config);

    let trace = Testbed::new(31).setup_run(&devices[6].profile, 0);
    let mut gateway = StreamRuntime::new(service);
    let mut reports = Vec::new();
    gateway
        .run_frames(
            iot_sentinel::stream::MemoryFrameSource::from_packets(&trace.packets),
            &mut reports,
        )
        .expect("an in-memory source cannot fail");
    let report = &reports[0];
    assert_eq!(
        report.response.identification.label(),
        Some(6),
        "{:?}",
        report.response.identification
    );
    let notice = report
        .response
        .verdict
        .user_notification
        .as_ref()
        .expect("removal notice for EdnetGateway");
    assert!(notice.contains("remove the device"));
    assert!(report.to_string().contains("USER ACTION REQUIRED"));
}
