//! Fleet onboarding: an ISP-scale deployment of Sentinel gateways. A
//! hundred home networks — each with its own SDN switch and its own
//! gateway — share one trained model. Devices join in staggered storms,
//! some leave again (their enforcement rule is withdrawn), and some
//! roam to the neighbouring home mid-setup, finishing their device
//! setup there. The whole fleet is deterministic: the same seed gives a
//! bit-identical report at any thread count.
//!
//! ```text
//! cargo run --release --example fleet_onboarding
//! ```

use iot_sentinel::devicesim::catalog;
use iot_sentinel::fleet::{run_fleet, FleetConfig};
use iot_sentinel::prelude::*;

fn main() {
    // Train the shared IoTSSP once — every gateway in the fleet
    // classifies against this one model, by reference.
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 10, 42);
    let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());

    // 100 homes x 4 devices: joins arrive in two waves per home, every
    // third home sends one device roaming to its neighbour mid-setup,
    // and every fourth device leaves one tick after onboarding.
    let config = FleetConfig {
        homes: 100,
        ..FleetConfig::default()
    };
    let report = run_fleet(&service, &config);

    println!("{}\n", report.stats);
    println!(
        "identified {}/{} onboardings ({:.1}%), fleet cache hit ratio {:.3}",
        report.stats.identified,
        report.stats.onboarded,
        100.0 * report.stats.identified as f64 / report.stats.onboarded.max(1) as f64,
        report.stats.hit_ratio()
    );

    // Follow one roaming device across the fleet: it is assessed once
    // at its origin gateway and once more where it finished its setup.
    if let Some(origin) = report.homes.iter().find(|h| h.roam_out.is_some()) {
        let mac = origin.roam_out.unwrap();
        let destination = report
            .homes
            .iter()
            .find(|h| h.roam_in == Some(mac))
            .expect("roamer arrived somewhere");
        let verdict = |home: &iot_sentinel::fleet::HomeOutcome| {
            home.reports
                .iter()
                .find(|r| r.mac == mac)
                .map(|r| r.response.verdict.isolation.to_string())
                .unwrap_or_else(|| "not assessed".into())
        };
        println!(
            "\nroamer {mac}: home {} assessed it as {}, then home {} assessed it as {}",
            origin.home,
            verdict(origin),
            destination.home,
            verdict(destination)
        );
    }

    // The fleet report is a plain serializable value — ship it to your
    // monitoring plane as-is.
    let json = serde_json::to_string(&report.stats).expect("stats serialize");
    println!("\nmonitoring export: {json}");
}
