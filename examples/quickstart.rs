//! Quickstart: train the IoT Security Service on the device catalog,
//! onboard one new device through the Security Gateway, and print the
//! verdict.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::prelude::*;
use iot_sentinel::stream::MemoryFrameSource;

fn main() {
    // 1. Collect the training corpus: 27 device-types x 20 setup runs,
    //    exactly the paper's 540-fingerprint dataset (Sect. VI-A).
    let devices = catalog();
    println!(
        "collecting 20 setup runs for each of {} device-types…",
        devices.len()
    );
    let dataset = FingerprintDataset::collect(&devices, 20, 42);

    // 2. Train the IoTSSP: one Random Forest per device-type plus the
    //    edit-distance discrimination references (Sect. IV-B).
    println!("training {} per-type classifiers…", dataset.n_types());
    let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());

    // 3. A user buys a Philips Hue Bridge and plugs it in. The Security
    //    Gateway watches its setup traffic.
    let mut gateway = StreamRuntime::new(service);
    let new_device = Testbed::new(2026).setup_run(&devices[4].profile, 0);
    println!(
        "new device {} started its setup procedure ({} packets)…",
        new_device.mac,
        new_device.packets.len()
    );

    // 4. The gateway scans every frame of the setup; when the capture
    //    ends it fingerprints, identifies, assesses and enforces.
    let mut reports = Vec::new();
    gateway
        .run_frames(
            MemoryFrameSource::from_packets(&new_device.packets),
            &mut reports,
        )
        .expect("an in-memory stream cannot fail");
    println!("\n{}", reports[0]);
    println!(
        "enforced isolation level: {}",
        gateway.enforcement().level_of(new_device.mac)
    );
}
