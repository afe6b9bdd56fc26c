//! Pcap interoperability: export a simulated setup capture to a pcap
//! file (what the paper's tcpdump produced), read it back, and run the
//! identification pipeline on the parsed packets — demonstrating the
//! pipeline also works on real captures.
//!
//! ```text
//! cargo run --release --example pcap_pipeline
//! ```

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::fingerprint::{extract, FixedFingerprint};
use iot_sentinel::netproto::pcap::{PcapReader, PcapWriter};
use iot_sentinel::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let devices = catalog();
    let testbed = Testbed::new(5);

    // Record a Withings scale setup into a pcap file on disk.
    let trace = testbed.setup_run(&devices[2].profile, 0);
    let path = std::env::temp_dir().join("iot-sentinel-withings-setup.pcap");
    let file = std::fs::File::create(&path)?;
    let mut writer = PcapWriter::new(file)?;
    for packet in &trace.packets {
        writer.write_packet(packet)?;
    }
    writer.finish()?;
    println!(
        "wrote {} packets of {} setup traffic to {}",
        trace.packets.len(),
        devices[2].info.identifier,
        path.display()
    );

    // Re-read the capture exactly as the gateway would ingest tcpdump
    // output, and fingerprint it.
    let mut reader = PcapReader::new(std::fs::File::open(&path)?)?;
    let packets = reader.read_all()?;
    assert_eq!(packets, trace.packets, "lossless pcap roundtrip");
    let full = extract(&packets);
    let fixed = FixedFingerprint::from_fingerprint(&full);
    println!(
        "extracted fingerprint: {} packet columns, F' = {} dimensions",
        full.len(),
        fixed.dimensions()
    );

    // Identify against a service trained on the whole catalog.
    let dataset = FingerprintDataset::collect(&devices, 20, 42);
    let identifier = Identifier::train(&dataset, &IdentifierConfig::default());
    let id = identifier.identify_keyed(&full, &fixed, AssessKey::new(0, trace.mac));
    println!("identification from pcap: {id}");

    std::fs::remove_file(&path)?;
    Ok(())
}
