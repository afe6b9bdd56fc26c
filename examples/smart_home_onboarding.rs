//! A smart-home scenario: several devices join the network — a clean
//! bridge, a camera with known CVEs, and a gadget the IoTSSP has never
//! seen. Each lands in the right isolation level, and the SDN data
//! plane enforces it (Sect. III, V).
//!
//! ```text
//! cargo run --release --example smart_home_onboarding
//! ```

use std::net::Ipv4Addr;

use iot_sentinel::devicesim::{catalog, DeviceProfile, Phase, RawDest, Testbed};
use iot_sentinel::netproto::{AppPayload, MacAddr, Packet, Timestamp};
use iot_sentinel::prelude::*;
use iot_sentinel::sdn::FlowAction;
use iot_sentinel::stream::MemoryFrameSource;

fn main() {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 20, 42);
    let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());
    let mut gateway = StreamRuntime::new(service);
    let testbed = Testbed::new(7);

    // --- Device 1: Philips Hue Bridge (no known vulnerabilities). ---
    let hue = testbed.setup_run(&devices[4].profile, 1);
    onboard(&mut gateway, &hue.packets, "Hue Bridge");

    // --- Device 2: Edimax camera (synthetic advisory on file). ---
    let cam = testbed.setup_run(&devices[8].profile, 1);
    onboard(&mut gateway, &cam.packets, "Edimax camera");

    // --- Device 3: a no-name gadget the service has never seen. ---
    let mut gadget = DeviceProfile::new("MysteryGadget", [0xde, 0xad, 0x01]);
    gadget.extend_phases([
        Phase::Stp { count: 3 },
        Phase::Ipv6Bringup {
            mld_records: 4,
            router_solicit: true,
        },
        Phase::UdpRaw {
            dest: RawDest::Broadcast,
            port: 31337,
            sizes: vec![512, 64, 512],
        },
        Phase::Ping { count: 4 },
        Phase::UdpRaw {
            dest: RawDest::Gateway,
            port: 31338,
            sizes: vec![900, 900],
        },
    ]);
    let mystery = testbed.setup_run(&gadget, 0);
    onboard(&mut gateway, &mystery.packets, "mystery gadget");

    // --- Enforcement in action. ---
    println!("\n--- data-plane checks ---");
    let try_internet =
        |gateway: &mut StreamRuntime<IoTSecurityService>, mac: MacAddr, who: &str| {
            let packet = outbound(mac, Ipv4Addr::new(93, 184, 216, 34), 443);
            let decision = gateway.enforce(&packet);
            println!(
                "{who:<16} -> internet: {}",
                match decision.action {
                    FlowAction::Forward => "forwarded",
                    FlowAction::Drop => "BLOCKED",
                }
            );
        };
    try_internet(&mut gateway, hue.mac, "Hue Bridge");
    try_internet(&mut gateway, cam.mac, "Edimax camera");
    try_internet(&mut gateway, mystery.mac, "mystery gadget");

    // The restricted camera can still reach its vendor cloud: the
    // whitelist lives in its rule.
    let whitelist = gateway
        .enforcement()
        .cache()
        .get(cam.mac)
        .expect("onboarded")
        .permitted_endpoints()
        .to_vec();
    if let Some(std::net::IpAddr::V4(cloud)) = whitelist.first() {
        let decision = gateway.enforce(&outbound(cam.mac, *cloud, 443));
        println!(
            "Edimax camera    -> vendor cloud {cloud}: {}",
            match decision.action {
                FlowAction::Forward => "forwarded (whitelisted)",
                FlowAction::Drop => "BLOCKED",
            }
        );
    }

    // Cross-overlay isolation: the quarantined camera cannot probe the
    // trusted bridge.
    let probe = Packet::udp_ipv4(
        Timestamp::from_secs(400),
        cam.mac,
        hue.mac,
        cam.device_ip,
        hue.device_ip,
        50001,
        80,
        AppPayload::Empty,
    );
    let decision = gateway.enforce(&probe);
    println!(
        "Edimax camera    -> Hue Bridge: {}",
        match decision.action {
            FlowAction::Forward => "forwarded",
            FlowAction::Drop => "BLOCKED (cross-overlay)",
        }
    );
}

fn onboard(gateway: &mut StreamRuntime<IoTSecurityService>, packets: &[Packet], who: &str) {
    let mut reports = Vec::new();
    gateway
        .run_frames(MemoryFrameSource::from_packets(packets), &mut reports)
        .expect("an in-memory stream cannot fail");
    println!("[{who}] {}", reports[0]);
}

fn outbound(mac: MacAddr, dst: Ipv4Addr, port: u16) -> Packet {
    Packet::udp_ipv4(
        Timestamp::from_secs(300),
        mac,
        MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]),
        Ipv4Addr::new(192, 168, 0, 99),
        dst,
        50000,
        port,
        AppPayload::Empty,
    )
}
