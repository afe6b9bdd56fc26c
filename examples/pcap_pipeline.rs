//! Pcap interoperability: export a simulated setup capture to a pcap
//! file (what the paper's tcpdump produced), scan its frames back as the
//! gateway does, and run the identification pipeline on them —
//! demonstrating the pipeline also works on real captures.
//!
//! ```text
//! cargo run --release --example pcap_pipeline
//! ```

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::fingerprint::{FeatureExtractor, FixedFingerprint};
use iot_sentinel::netproto::pcap::{PcapReader, PcapWriter};
use iot_sentinel::netproto::{stream::FrameSource, RawFeatures};
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
    // output (frame by frame, scanned in place), and fingerprint it.
    let mut reader = PcapReader::new(std::fs::File::open(&path)?)?;
    let (mut extractor, mut frame) = (FeatureExtractor::new(), Vec::new());
    while reader.next_frame_into(&mut frame)?.is_some() {
        extractor.push_raw(&RawFeatures::from_frame(&frame)?);
    }
    assert_eq!(extractor.packet_count(), trace.packets.len());
    let full = extractor.finish();
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
