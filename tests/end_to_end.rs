//! End-to-end integration: lab collection → IoTSSP training → gateway
//! onboarding → enforcement, across crate boundaries.

use iot_sentinel::devicesim::{catalog, SetupTrace, Testbed};
use iot_sentinel::netproto::{AppPayload, MacAddr, Packet, Timestamp};
use iot_sentinel::prelude::*;
use iot_sentinel::sdn::FlowAction;
use iot_sentinel::stream::MemoryFrameSource;
use std::net::Ipv4Addr;

fn trained_service() -> IoTSecurityService {
    let devices = catalog();
    // Smaller-than-paper corpus keeps CI fast; behaviour is identical.
    let dataset = FingerprintDataset::collect(&devices, 10, 42);
    let mut config = ServiceConfig::default();
    config.identifier.bank.forest = iot_sentinel::ml::ForestConfig::default().with_trees(40);
    IoTSecurityService::train(&dataset, &config)
}

/// Onboards one device from its whole setup capture: every frame is
/// observed, the end of the capture closes the window.
fn onboard(
    gateway: &mut StreamRuntime<IoTSecurityService>,
    trace: &SetupTrace,
) -> OnboardingReport {
    let mut reports = Vec::new();
    gateway
        .run_frames(
            MemoryFrameSource::from_packets(&trace.packets),
            &mut reports,
        )
        .expect("an in-memory source cannot fail");
    assert_eq!(reports.len(), 1, "one device, one report");
    assert_eq!(reports[0].mac, trace.mac);
    reports.remove(0)
}

fn outbound(mac: MacAddr, src_ip: Ipv4Addr, dst: Ipv4Addr) -> Packet {
    Packet::udp_ipv4(
        Timestamp::from_secs(500),
        mac,
        MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]),
        src_ip,
        dst,
        50000,
        443,
        AppPayload::Empty,
    )
}

#[test]
fn onboarding_identifies_most_device_types() {
    let service = trained_service();
    let devices = catalog();
    let holdout = Testbed::new(777);
    let mut gateway = StreamRuntime::new(service);
    let mut correct = 0;
    for (label, device) in devices.iter().enumerate() {
        let trace = holdout.setup_run(&device.profile, 3);
        let report = onboard(&mut gateway, &trace);
        if report.response.identification.label() == Some(label) {
            correct += 1;
        }
    }
    // The paper's global accuracy is 0.815; with the confusable families a
    // single pass over 27 devices should land well above 0.6.
    assert!(
        correct >= 18,
        "only {correct}/27 devices identified correctly"
    );
}

#[test]
fn vulnerable_device_is_quarantined_but_reaches_vendor_cloud() {
    let service = trained_service();
    let devices = catalog();
    let holdout = Testbed::new(778);
    let mut gateway = StreamRuntime::new(service);

    // EdimaxCam has a synthetic advisory -> restricted.
    let cam = holdout.setup_run(&devices[8].profile, 0);
    let report = onboard(&mut gateway, &cam);
    assert_eq!(
        report.response.verdict.isolation,
        IsolationLevel::Restricted
    );
    let whitelist = report.response.verdict.permitted_endpoints.clone();
    assert!(!whitelist.is_empty());

    // Arbitrary internet: blocked.
    let blocked = gateway.enforce(&outbound(cam.mac, cam.device_ip, Ipv4Addr::new(8, 8, 8, 8)));
    assert_eq!(blocked.action, FlowAction::Drop);

    // Whitelisted vendor cloud: allowed.
    let std::net::IpAddr::V4(cloud) = whitelist[0] else {
        panic!("expected v4 endpoint");
    };
    let allowed = gateway.enforce(&outbound(cam.mac, cam.device_ip, cloud));
    assert_eq!(allowed.action, FlowAction::Forward);
}

#[test]
fn overlays_separate_trusted_from_untrusted_devices() {
    let service = trained_service();
    let devices = catalog();
    let holdout = Testbed::new(779);
    let mut gateway = StreamRuntime::new(service);

    let hue = holdout.setup_run(&devices[4].profile, 0); // trusted
    let cam = holdout.setup_run(&devices[8].profile, 0); // restricted
    for trace in [&hue, &cam] {
        onboard(&mut gateway, trace);
    }
    assert_eq!(
        gateway.enforcement().level_of(hue.mac),
        IsolationLevel::Trusted
    );
    assert_eq!(
        gateway.enforcement().level_of(cam.mac),
        IsolationLevel::Restricted
    );

    // Device-to-device traffic across overlays is dropped both ways.
    let probe = Packet::udp_ipv4(
        Timestamp::from_secs(600),
        cam.mac,
        hue.mac,
        cam.device_ip,
        hue.device_ip,
        50002,
        80,
        AppPayload::Empty,
    );
    assert_eq!(gateway.enforce(&probe).action, FlowAction::Drop);
    let reverse = Packet::udp_ipv4(
        Timestamp::from_secs(601),
        hue.mac,
        cam.mac,
        hue.device_ip,
        cam.device_ip,
        50003,
        80,
        AppPayload::Empty,
    );
    assert_eq!(gateway.enforce(&reverse).action, FlowAction::Drop);
}

#[test]
fn flow_cache_makes_repeat_packets_cheap() {
    let service = trained_service();
    let devices = catalog();
    let holdout = Testbed::new(780);
    let mut gateway = StreamRuntime::new(service);
    let hue = holdout.setup_run(&devices[4].profile, 1);
    onboard(&mut gateway, &hue);

    let packet = outbound(hue.mac, hue.device_ip, Ipv4Addr::new(52, 10, 10, 10));
    let first = gateway.enforce(&packet);
    let second = gateway.enforce(&packet);
    assert!(first.packet_in, "first packet escalates to the controller");
    assert!(!second.packet_in, "second packet hits the flow cache");
    assert_eq!(gateway.switch().packet_ins(), 1);
}

#[test]
fn idle_flows_expire_and_rule_cache_can_evict() {
    let service = trained_service();
    let devices = catalog();
    let holdout = Testbed::new(782);
    let mut gateway = StreamRuntime::new(service);
    let hue = holdout.setup_run(&devices[4].profile, 2);
    onboard(&mut gateway, &hue);

    // Install a few flows, then expire them after idleness.
    for port_offset in 0..4u8 {
        let packet = outbound(
            hue.mac,
            hue.device_ip,
            Ipv4Addr::new(52, 10, 10, 10 + port_offset),
        );
        gateway.enforce(&packet);
    }
    assert_eq!(gateway.switch().table().len(), 4);
    let expired = gateway.switch_mut().table_mut().expire_idle(
        Timestamp::from_secs(4000),
        std::time::Duration::from_secs(60),
    );
    assert_eq!(expired, 4);
    assert_eq!(gateway.switch().table().len(), 0);

    // Rules of departed devices leave the cache (the Sect. VI-C
    // "removing unused enforcement rules" strategy).
    assert!(gateway.remove_device(hue.mac).is_some());
    assert!(gateway.enforcement().cache().is_empty());
    // With its rule gone the device falls back to the strict default.
    let blocked = gateway.enforce(&outbound(
        hue.mac,
        hue.device_ip,
        Ipv4Addr::new(52, 99, 0, 1),
    ));
    assert_eq!(blocked.action, FlowAction::Drop);
}

#[test]
fn rule_changes_reach_flows_the_gateway_already_cached() {
    let mut gateway = StreamRuntime::new(trained_service());
    let hue = Testbed::new(784).setup_run(&catalog()[4].profile, 0); // trusted
    let packet = outbound(hue.mac, hue.device_ip, Ipv4Addr::new(52, 10, 10, 10));

    // The device talks before it is identified: strict default, cached.
    assert_eq!(gateway.enforce(&packet).action, FlowAction::Drop);
    assert_eq!(gateway.enforce(&packet).action, FlowAction::Drop);

    let report = onboard(&mut gateway, &hue);
    assert_eq!(report.response.verdict.isolation, IsolationLevel::Trusted);
    assert_eq!(gateway.enforce(&packet).action, FlowAction::Forward);
    assert!(!gateway.enforce(&packet).packet_in, "decided once, cached");

    // It leaves; its MAC must not keep its Internet access.
    gateway.remove_device(hue.mac);
    assert_eq!(gateway.enforce(&packet).action, FlowAction::Drop);
}

#[test]
fn rule_changes_reach_flows_the_stream_runtime_already_cached() {
    let service = trained_service();
    let mut runtime = iot_sentinel::stream::StreamRuntime::new(&service);
    let hue = Testbed::new(784).setup_run(&catalog()[4].profile, 0); // trusted
    let packet = outbound(hue.mac, hue.device_ip, Ipv4Addr::new(52, 10, 10, 10));

    assert_eq!(runtime.enforce(&packet).action, FlowAction::Drop);
    assert_eq!(runtime.enforce(&packet).action, FlowAction::Drop);

    let mut reports = runtime.ingest_frames(&hue.frames());
    reports.extend(runtime.flush());
    assert_eq!(reports.len(), 1, "onboarded");
    assert_eq!(reports[0].mac, hue.mac);
    assert_eq!(
        reports[0].response.verdict.isolation,
        IsolationLevel::Trusted
    );
    assert_eq!(runtime.enforce(&packet).action, FlowAction::Forward);
    assert!(!runtime.enforce(&packet).packet_in, "decided once, cached");

    runtime.enforcement_mut().remove_rule(hue.mac);
    assert_eq!(runtime.enforce(&packet).action, FlowAction::Drop);
}

#[test]
fn port_filter_restricts_protocols_to_vendor_cloud() {
    // Tighten a restricted device's rule to TLS-only and verify the data
    // plane honours it (Sect. III-C.2 flow-granular filtering).
    let service = trained_service();
    let devices = catalog();
    let holdout = Testbed::new(783);
    let mut gateway = StreamRuntime::new(service);
    let cam = holdout.setup_run(&devices[8].profile, 1);
    let report = onboard(&mut gateway, &cam);
    assert_eq!(
        report.response.verdict.isolation,
        IsolationLevel::Restricted
    );
    let whitelist = report.response.verdict.permitted_endpoints.clone();
    let std::net::IpAddr::V4(cloud) = whitelist[0] else {
        panic!("expected v4");
    };
    // Refine the installed rule with a port filter.
    let tightened =
        iot_sentinel::sdn::EnforcementRule::restricted(cam.mac, whitelist.iter().copied())
            .with_port_filter([443]);
    gateway.enforcement_mut().install_rule(tightened);

    let tls = Packet::udp_ipv4(
        Timestamp::from_secs(700),
        cam.mac,
        MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]),
        cam.device_ip,
        cloud,
        50000,
        443,
        AppPayload::Empty,
    );
    let telnet = Packet::udp_ipv4(
        Timestamp::from_secs(701),
        cam.mac,
        MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]),
        cam.device_ip,
        cloud,
        50001,
        23,
        AppPayload::Empty,
    );
    assert_eq!(gateway.enforce(&tls).action, FlowAction::Forward);
    assert_eq!(gateway.enforce(&telnet).action, FlowAction::Drop);
}

#[test]
fn setup_end_detection_closes_monitoring_window() {
    let service = trained_service();
    let devices = catalog();
    let holdout = Testbed::new(781);
    let mut gateway = StreamRuntime::new(service);
    let trace = holdout.setup_run(&devices[0].profile, 2);
    let during_setup = gateway.ingest_frames(&trace.frames());
    assert!(during_setup.is_empty(), "no setup frame closes the window");
    // A keep-alive a minute later ends the setup phase automatically.
    let mut keepalive = trace.packets[0].clone();
    keepalive.timestamp =
        trace.packets.last().unwrap().timestamp + std::time::Duration::from_secs(90);
    let reports = gateway.ingest_frames(&[(keepalive.timestamp, keepalive.encode())]);
    assert_eq!(reports.len(), 1, "the keep-alive closed the window");
    assert_eq!(reports[0].mac, trace.mac);
    assert_eq!(reports[0].setup_packets, trace.packets.len());
}
