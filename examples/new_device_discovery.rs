//! Incremental learning: a brand-new device-type appears on the market.
//! The classifier bank first rejects it (every classifier says "not my
//! type" ⇒ unknown ⇒ strict isolation), then the IoTSSP trains one
//! additional classifier from lab fingerprints — without touching the
//! existing 26 — and the device identifies cleanly (Sect. IV-B.1).
//!
//! ```text
//! cargo run --release --example new_device_discovery
//! ```

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::fingerprint::{extract_frames, FixedFingerprint};
use iot_sentinel::netproto::Packet;
use iot_sentinel::prelude::*;

fn main() {
    let devices = catalog();

    // Train on 26 types; pretend the iKettle 2.0 has not launched yet.
    let known: Vec<_> = devices[..26].to_vec();
    let dataset26 = FingerprintDataset::collect(&known, 20, 42);
    let mut bank = ClassifierBank::train(&dataset26, &BankConfig::default());
    println!(
        "classifier bank trained for {} device-types",
        bank.n_types()
    );

    // The kettle ships. A gateway sees its setup traffic's frames.
    let kettle = &devices[26];
    let trace = Testbed::new(99).setup_run(&kettle.profile, 0);
    let frames: Vec<_> = trace.packets.iter().map(Packet::encode).collect();
    let full = extract_frames(&frames).expect("simulated frames are well-formed");
    let fixed = FixedFingerprint::from_fingerprint(&full);
    let matches = bank.matches(&fixed);
    println!(
        "before learning: {} classifier(s) accept the kettle's fingerprint -> {}",
        matches.len(),
        if matches.is_empty() {
            "unknown device-type, strict isolation".to_string()
        } else {
            format!("candidates {matches:?}")
        }
    );

    // The IoTSSP's lab collects fingerprints of the new type and adds ONE
    // classifier. No existing model is retrained.
    let dataset27 = FingerprintDataset::collect(&devices, 20, 42);
    let label = bank.add_type(kettle.info.identifier, &dataset27);
    println!(
        "added classifier #{label} for {:?}; bank now covers {} types",
        kettle.info.identifier,
        bank.n_types()
    );

    // A fresh setup run of the kettle now matches.
    let trace = Testbed::new(100).setup_run(&kettle.profile, 1);
    let frames: Vec<_> = trace.packets.iter().map(Packet::encode).collect();
    let full = extract_frames(&frames).expect("simulated frames are well-formed");
    let fixed = FixedFingerprint::from_fingerprint(&full);
    let matches = bank.matches(&fixed);
    println!(
        "after learning: accepted by classifier(s) {:?}{}",
        matches,
        if matches.contains(&label) {
            " — including the new type's"
        } else {
            ""
        }
    );
    // Note: the kettle's firmware twin (SmarterCoffee) may accept too —
    // that is exactly the Table III confusion the edit-distance stage
    // arbitrates.
}
