//! Streaming onboarding: eight devices join the network *at the same
//! time*, their setup traffic arriving as one interleaved stream of raw
//! frames. The bounded streaming runtime scans each frame in place,
//! demultiplexes per device, detects each setup phase's end on the fly,
//! and drives every device through assess → enforce — with the decisions
//! each device would get onboarding alone.
//!
//! ```text
//! cargo run --release --example streaming_onboarding
//! ```

use std::net::Ipv4Addr;
use std::time::Duration;

use iot_sentinel::devicesim::{catalog, interleave, Testbed};
use iot_sentinel::netproto::stream::MemoryFrameSource;
use iot_sentinel::netproto::{AppPayload, MacAddr, Packet, Timestamp};
use iot_sentinel::prelude::*;
use iot_sentinel::sdn::FlowAction;
use iot_sentinel::stream::{StreamConfig, StreamRuntime};

fn main() {
    // Train the IoTSSP on the 27-type catalog (as in `quickstart`).
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 20, 42);
    let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());

    // Eight different devices are unboxed within two seconds of each
    // other; `interleave` merges their setup traces into the single
    // packet sequence the gateway's mirror port would actually see, and
    // `MemoryFrameSource::from_packets` encodes it to wire frames — the
    // runtime's only ingest unit.
    let testbed = Testbed::new(7);
    let traces: Vec<_> = (0..8)
        .map(|i| testbed.setup_run(&devices[i * 3].profile, 1))
        .collect();
    let stream = interleave(&traces, Duration::from_millis(250));
    println!(
        "streaming {} interleaved packets from {} concurrent setups\n",
        stream.len(),
        traces.len()
    );

    // The runtime holds at most `max_sessions` concurrent sessions in one
    // table (beyond that it sheds the least recently active) and keeps
    // only feature state per device — never raw packets.
    let mut runtime = StreamRuntime::with_config(
        service,
        StreamConfig {
            max_sessions: 256,
            ..StreamConfig::default()
        },
    );
    let mut reports = Vec::new();
    runtime
        .run_frames(MemoryFrameSource::from_packets(&stream), &mut reports)
        .expect("in-memory stream");
    for report in &reports {
        println!("{report}");
    }
    println!("\n{}\n", runtime.stats());

    // Enforcement is live the moment a device onboards: a restricted
    // camera reaches only its vendor cloud, everything else is dropped.
    if let Some(restricted) = reports
        .iter()
        .find(|r| !r.response.verdict.permitted_endpoints.is_empty())
    {
        let mac = restricted.mac;
        let internet = runtime.enforce(&outbound(mac, Ipv4Addr::new(93, 184, 216, 34), 443));
        println!(
            "restricted {mac} -> internet: {}",
            match internet.action {
                FlowAction::Forward => "forwarded",
                FlowAction::Drop => "BLOCKED",
            }
        );
        if let std::net::IpAddr::V4(cloud) = restricted.response.verdict.permitted_endpoints[0] {
            let vendor = runtime.enforce(&outbound(mac, cloud, 443));
            println!(
                "restricted {mac} -> vendor cloud {cloud}: {}",
                match vendor.action {
                    FlowAction::Forward => "forwarded (whitelisted)",
                    FlowAction::Drop => "BLOCKED",
                }
            );
        }
    }
}

fn outbound(mac: MacAddr, dst: Ipv4Addr, port: u16) -> Packet {
    Packet::udp_ipv4(
        Timestamp::from_secs(600),
        mac,
        MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]),
        Ipv4Addr::new(192, 168, 0, 99),
        dst,
        50000,
        port,
        AppPayload::Empty,
    )
}
