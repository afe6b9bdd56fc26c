//! The 27 device-types of the paper's Table II, as behaviour profiles.
//!
//! Profiles are synthetic but preserve the two properties the evaluation
//! depends on:
//!
//! 1. **Between-type diversity** — each type has a distinctive setup
//!    script (protocol mix, endpoint order, packet sizes), so the 17
//!    "easy" devices of Fig. 5 classify at ≥ 0.95.
//! 2. **Within-family similarity** — the D-Link sensor family
//!    (DSP-W215 / DCH-S160 / DCH-S220 / DCH-S150), the TP-Link plug pair,
//!    the Edimax plug pair and the two Smarter appliances run
//!    (near-)identical firmware and emit statistically identical setup
//!    traffic, reproducing the ≈0.5-accuracy block of Table III.

use crate::{DeviceProfile, Phase, RawDest};

/// Connectivity technologies of a device (Table II columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Connectivity {
    /// WiFi.
    pub wifi: bool,
    /// ZigBee.
    pub zigbee: bool,
    /// Ethernet.
    pub ethernet: bool,
    /// Z-Wave.
    pub zwave: bool,
    /// Other (proprietary sub-GHz, etc.).
    pub other: bool,
}

impl Connectivity {
    const fn new(wifi: bool, zigbee: bool, ethernet: bool, zwave: bool, other: bool) -> Self {
        Connectivity {
            wifi,
            zigbee,
            ethernet,
            zwave,
            other,
        }
    }
}

/// Catalog metadata for one device-type (Table II row).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceInfo {
    /// Short identifier (Fig. 5 axis label).
    pub identifier: &'static str,
    /// Full device model description.
    pub model: &'static str,
    /// Supported connectivity technologies.
    pub connectivity: Connectivity,
}

/// A catalog entry: Table II metadata plus the behaviour profile.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Table II metadata.
    pub info: DeviceInfo,
    /// Setup behaviour profile.
    pub profile: DeviceProfile,
}

const OUI_FITBIT: [u8; 3] = [0x20, 0x4c, 0x03];
const OUI_EQ3: [u8; 3] = [0x00, 0x1a, 0x22];
const OUI_WITHINGS: [u8; 3] = [0x00, 0x24, 0xe4];
const OUI_PHILIPS: [u8; 3] = [0x00, 0x17, 0x88];
const OUI_EDNET: [u8; 3] = [0x84, 0xc9, 0xb2];
const OUI_EDIMAX: [u8; 3] = [0x74, 0xda, 0x38];
const OUI_OSRAM: [u8; 3] = [0x84, 0x18, 0x26];
const OUI_BELKIN: [u8; 3] = [0x94, 0x10, 0x3e];
const OUI_DLINK: [u8; 3] = [0xb0, 0xc5, 0x54];
const OUI_TPLINK: [u8; 3] = [0x50, 0xc7, 0xbf];
const OUI_SMARTER: [u8; 3] = [0x5c, 0xcf, 0x7f];

/// Builds the full 27-device catalog in Fig. 5 order.
pub fn catalog() -> Vec<DeviceModel> {
    vec![
        aria(),
        homematic_plug(),
        withings(),
        max_gateway(),
        hue_bridge(),
        hue_switch(),
        ednet_gateway(),
        ednet_cam(),
        edimax_cam(),
        lightify(),
        wemo_insight_switch(),
        wemo_link(),
        wemo_switch(),
        dlink_home_hub(),
        dlink_door_sensor(),
        dlink_day_cam(),
        dlink_cam(),
        dlink_family(
            "D-LinkSwitch",
            "D-Link Smart plug DSP-W215",
            "DSP-W215",
            true,
            0.30,
            0,
        ),
        dlink_family(
            "D-LinkWaterSensor",
            "D-Link Water sensor DCH-S160",
            "DCH-S160",
            false,
            0.80,
            3,
        ),
        dlink_family(
            "D-LinkSiren",
            "D-Link Siren DCH-S220",
            "DCH-S220",
            false,
            0.45,
            6,
        ),
        dlink_family(
            "D-LinkSensor",
            "D-Link WiFi Motion sensor DCH-S150",
            "DCH-S150",
            false,
            0.10,
            9,
        ),
        tplink_plug(
            "TP-LinkPlugHS110",
            "TP-Link WiFi Smart plug HS110",
            "HS110(EU)",
            4,
        ),
        tplink_plug(
            "TP-LinkPlugHS100",
            "TP-Link WiFi Smart plug HS100",
            "HS100(EU)",
            0,
        ),
        edimax_plug(
            "EdimaxPlug1101W",
            "Edimax SP-1101W Smart Plug Switch",
            "SP1101W",
        ),
        edimax_plug(
            "EdimaxPlug2101W",
            "Edimax SP-2101W Smart Plug Switch",
            "SP2101W",
        ),
        smarter_appliance(
            "SmarterCoffee",
            "Smarter SmarterCoffee coffee machine SMC10-EU",
            0,
        ),
        smarter_appliance("iKettle2", "Smarter iKettle 2.0 water kettle SMK20-EU", 3),
    ]
}

/// The vendor-family groups the paper's Table III shows as mutually
/// confusable, by Fig. 5 identifier. Index 0 of the first group
/// (`D-LinkSwitch`) is the partially-separable member (device 1 in
/// Table III).
pub fn confusable_groups() -> Vec<Vec<&'static str>> {
    vec![
        vec![
            "D-LinkSwitch",
            "D-LinkWaterSensor",
            "D-LinkSiren",
            "D-LinkSensor",
        ],
        vec!["TP-LinkPlugHS110", "TP-LinkPlugHS100"],
        vec!["EdimaxPlug1101W", "EdimaxPlug2101W"],
        vec!["SmarterCoffee", "iKettle2"],
    ]
}

fn model(
    identifier: &'static str,
    model: &'static str,
    connectivity: Connectivity,
    mut profile: DeviceProfile,
) -> DeviceModel {
    derive_standby(&mut profile);
    DeviceModel {
        info: DeviceInfo {
            identifier,
            model,
            connectivity,
        },
        profile,
    }
}

/// Derives a device's standby/operation cycle from its setup behaviour:
/// the heartbeat traffic mirrors the device's character (cloud pollers
/// poll, announcers re-announce, local-protocol devices chirp), which is
/// the paper's Sect. VIII-A working hypothesis — "message exchanges
/// during standby and operation cycles are likely to be characteristic
/// for particular device-types".
fn derive_standby(profile: &mut DeviceProfile) {
    let mut standby = vec![Phase::ArpProbe {
        count: 1,
        announce: true,
    }];
    for phase in &profile.phases {
        if standby.len() >= 5 {
            break;
        }
        match phase {
            Phase::Ntp { endpoint, .. } => {
                standby.push(Phase::Ntp {
                    endpoint: *endpoint,
                    count: 1,
                });
            }
            Phase::Tls {
                endpoint,
                port,
                hello_size,
                ..
            } => {
                // Periodic cloud check-in: reconnect + one status record.
                standby.push(Phase::Tls {
                    endpoint: *endpoint,
                    port: *port,
                    hello_size: *hello_size,
                    records: vec![64],
                });
            }
            Phase::HttpGet { endpoint, path } => {
                standby.push(Phase::HttpGet {
                    endpoint: *endpoint,
                    path: path.clone(),
                });
            }
            Phase::MdnsAnnounce { services } => {
                standby.push(Phase::MdnsAnnounce {
                    services: services.clone(),
                });
            }
            Phase::SsdpNotify { device_type, .. } => {
                standby.push(Phase::SsdpNotify {
                    device_type: device_type.clone(),
                    count: 1,
                });
            }
            Phase::UdpRaw { dest, port, sizes } => {
                standby.push(Phase::UdpRaw {
                    dest: *dest,
                    port: *port,
                    sizes: sizes[..1].to_vec(),
                });
            }
            _ => {}
        }
    }
    profile.standby_phases = standby;
}

fn aria() -> DeviceModel {
    let mut p = DeviceProfile::new("Aria", OUI_FITBIT);
    let cloud = p.endpoint("api.fitbit.com");
    let ntp = p.endpoint("fitbit.pool.ntp.org");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("Aria"),
        Phase::ArpProbe {
            count: 2,
            announce: true,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: false,
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
        Phase::Tls {
            endpoint: cloud,
            port: 443,
            hello_size: 198,
            records: vec![415, 167],
        },
        Phase::optional(
            0.3,
            Phase::Tls {
                endpoint: cloud,
                port: 443,
                hello_size: 198,
                records: vec![415],
            },
        ),
    ]);
    model(
        "Aria",
        "Fitbit Aria WiFi-enabled scale",
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

fn homematic_plug() -> DeviceModel {
    let mut p = DeviceProfile::new("HomeMaticPlug", OUI_EQ3);
    let ccu = p.endpoint("lookup.homematic.com");
    p.extend_phases([
        Phase::Dhcp {
            hostname: Some("HM-CCU".into()),
            vendor_class: None,
            param_list: vec![1, 3, 6],
        },
        Phase::ArpProbe {
            count: 1,
            announce: false,
        },
        Phase::Dns {
            endpoint: ccu,
            aaaa: false,
        },
        Phase::UdpRaw {
            dest: RawDest::Endpoint(ccu),
            port: 43439,
            sizes: vec![45, 45, 77],
        },
        Phase::optional(
            0.4,
            Phase::UdpRaw {
                dest: RawDest::Endpoint(ccu),
                port: 43439,
                sizes: vec![45],
            },
        ),
    ]);
    model(
        "HomeMaticPlug",
        "Homematic pluggable switch HMIP-PS",
        Connectivity::new(false, false, false, false, true),
        p,
    )
}

fn withings() -> DeviceModel {
    let mut p = DeviceProfile::new("Withings", OUI_WITHINGS);
    let cloud = p.endpoint("scale.withings.com");
    let ntp = p.endpoint("time.withings.net");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("WS30"),
        Phase::ArpProbe {
            count: 3,
            announce: true,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: true,
        },
        Phase::HttpGet {
            endpoint: cloud,
            path: "/cgi-bin/session".into(),
        },
        Phase::HttpPost {
            endpoint: cloud,
            path: "/cgi-bin/measure".into(),
            body_size: 240,
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
    ]);
    model(
        "Withings",
        "Withings Wireless Scale WS-30",
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

fn max_gateway() -> DeviceModel {
    let mut p = DeviceProfile::new("MAXGateway", OUI_EQ3);
    let cloud = p.endpoint("max.eq-3.de");
    let ntp = p.endpoint("ntp.homematic.com");
    p.extend_phases([
        Phase::Stp { count: 2 },
        Phase::Dhcp {
            hostname: Some("MAX!Cube".into()),
            vendor_class: Some("eQ-3 MAX!".into()),
            param_list: vec![1, 3, 6, 15],
        },
        Phase::ArpProbe {
            count: 1,
            announce: true,
        },
        Phase::Ipv6Bringup {
            mld_records: 1,
            router_solicit: false,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: false,
        },
        Phase::TcpRaw {
            dest: RawDest::Endpoint(cloud),
            port: 62910,
            sizes: vec![26, 180, 64],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 2,
        },
    ]);
    model(
        "MAXGateway",
        "MAX! Cube LAN Gateway for MAX! Home automation sensors",
        Connectivity::new(false, false, true, false, true),
        p,
    )
}

fn hue_bridge() -> DeviceModel {
    let mut p = DeviceProfile::new("HueBridge", OUI_PHILIPS);
    let portal = p.endpoint("www.ecdinterface.philips.com");
    let cdn = p.endpoint("dcp.cpp.philips.com");
    let ntp = p.endpoint("ntp.philips.com");
    p.extend_phases([
        Phase::Stp { count: 1 },
        Phase::dhcp("Philips-hue"),
        Phase::ArpProbe {
            count: 2,
            announce: true,
        },
        Phase::Ipv6Bringup {
            mld_records: 2,
            router_solicit: true,
        },
        Phase::Dns {
            endpoint: portal,
            aaaa: false,
        },
        Phase::Dns {
            endpoint: cdn,
            aaaa: false,
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
        Phase::Tls {
            endpoint: portal,
            port: 443,
            hello_size: 215,
            records: vec![600, 300, 150],
        },
        Phase::SsdpNotify {
            device_type: "urn:schemas-upnp-org:device:Basic:1".into(),
            count: 3,
        },
        Phase::MdnsAnnounce {
            services: vec!["_hue._tcp.local".into()],
        },
    ]);
    model(
        "HueBridge",
        "Philips Hue Bridge model 3241312018",
        Connectivity::new(false, true, true, false, false),
        p,
    )
}

fn hue_switch() -> DeviceModel {
    let mut p = DeviceProfile::new("HueSwitch", OUI_PHILIPS);
    p.extend_phases([
        Phase::ArpProbe {
            count: 1,
            announce: false,
        },
        Phase::UdpRaw {
            dest: RawDest::Gateway,
            port: 5607,
            sizes: vec![20, 20],
        },
        Phase::MdnsQuery {
            service: "_hue._tcp.local".into(),
        },
        Phase::optional(
            0.5,
            Phase::UdpRaw {
                dest: RawDest::Gateway,
                port: 5607,
                sizes: vec![20],
            },
        ),
    ]);
    model(
        "HueSwitch",
        "Philips Hue Light Switch PTM 215Z",
        Connectivity::new(false, true, false, false, false),
        p,
    )
}

fn ednet_gateway() -> DeviceModel {
    let mut p = DeviceProfile::new("EdnetGateway", OUI_EDNET);
    let cloud = p.endpoint("cloud.ednet-living.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::Dhcp {
            hostname: None,
            vendor_class: None,
            param_list: vec![1, 3, 6, 15, 28, 42],
        },
        Phase::ArpProbe {
            count: 1,
            announce: false,
        },
        Phase::SsdpSearch {
            target: "upnp:rootdevice".into(),
            count: 3,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: false,
        },
        Phase::UdpRaw {
            dest: RawDest::Endpoint(cloud),
            port: 10240,
            sizes: vec![32, 64],
        },
    ]);
    model(
        "EdnetGateway",
        "Ednet.living Starter kit power Gateway",
        Connectivity::new(true, false, false, false, true),
        p,
    )
}

fn ednet_cam() -> DeviceModel {
    let mut p = DeviceProfile::new("EdnetCam", OUI_EDNET);
    let cloud = p.endpoint("ipcam.ednet-living.com");
    let ntp = p.endpoint("pool.ntp.org");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("ednet-cam"),
        Phase::ArpProbe {
            count: 2,
            announce: false,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: false,
        },
        Phase::HttpGet {
            endpoint: cloud,
            path: "/check_user.cgi".into(),
        },
        Phase::TcpRaw {
            dest: RawDest::Endpoint(cloud),
            port: 554,
            sizes: vec![460],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
    ]);
    model(
        "EdnetCam",
        "Ednet Wireless indoor IP camera Cube",
        Connectivity::new(true, false, true, false, false),
        p,
    )
}

fn edimax_cam() -> DeviceModel {
    let mut p = DeviceProfile::new("EdimaxCam", OUI_EDIMAX);
    let portal = p.endpoint("www.myedimax.com");
    let relay = p.endpoint("relay.myedimax.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("EDIMAX-IC3115"),
        Phase::ArpProbe {
            count: 2,
            announce: true,
        },
        Phase::Dns {
            endpoint: portal,
            aaaa: false,
        },
        Phase::HttpGet {
            endpoint: portal,
            path: "/camera-cgi/public/getSystemInfo.cgi".into(),
        },
        Phase::SsdpNotify {
            device_type: "urn:schemas-upnp-org:device:MediaServer:1".into(),
            count: 2,
        },
        Phase::UdpRaw {
            dest: RawDest::Endpoint(relay),
            port: 8765,
            sizes: vec![120],
        },
    ]);
    model(
        "EdimaxCam",
        "Edimax IC-3115W Smart HD WiFi Network Camera",
        Connectivity::new(true, false, true, false, false),
        p,
    )
}

fn lightify() -> DeviceModel {
    let mut p = DeviceProfile::new("Lightify", OUI_OSRAM);
    let cloud = p.endpoint("lightify-gw.osram.de");
    let ntp = p.endpoint("0.openwrt.pool.ntp.org");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("Lightify-Gateway"),
        Phase::ArpProbe {
            count: 1,
            announce: true,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: false,
        },
        Phase::Tls {
            endpoint: cloud,
            port: 4000,
            hello_size: 160,
            records: vec![96, 96, 240],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
        Phase::Ping { count: 2 },
    ]);
    model(
        "Lightify",
        "Osram Lightify Gateway",
        Connectivity::new(true, true, false, false, false),
        p,
    )
}

fn wemo_insight_switch() -> DeviceModel {
    let mut p = DeviceProfile::new("WeMoInsightSwitch", OUI_BELKIN);
    let cloud = p.endpoint("api.xbcs.net");
    let ntp = p.endpoint("time.belkin.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("WeMo.Insight"),
        Phase::ArpProbe {
            count: 1,
            announce: true,
        },
        Phase::SsdpNotify {
            device_type: "urn:Belkin:device:insight:1".into(),
            count: 4,
        },
        Phase::MdnsAnnounce {
            services: vec!["_upnp._tcp.local".into()],
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: true,
        },
        Phase::Tls {
            endpoint: cloud,
            port: 8443,
            hello_size: 230,
            records: vec![512],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
    ]);
    model(
        "WeMoInsightSwitch",
        "WeMo Insight Switch model F7C029de",
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

fn wemo_link() -> DeviceModel {
    let mut p = DeviceProfile::new("WeMoLink", OUI_BELKIN);
    let cloud = p.endpoint("api.xbcs.net");
    let ntp = p.endpoint("time.belkin.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("WeMo.Link"),
        Phase::ArpProbe {
            count: 1,
            announce: true,
        },
        Phase::SsdpNotify {
            device_type: "urn:Belkin:device:bridge:1".into(),
            count: 3,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: true,
        },
        Phase::Tls {
            endpoint: cloud,
            port: 8443,
            hello_size: 230,
            records: vec![512, 256],
        },
        Phase::UdpRaw {
            dest: RawDest::Broadcast,
            port: 3475,
            sizes: vec![40, 40],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
    ]);
    model(
        "WeMoLink",
        "WeMo Link Lighting Bridge model F7C031vf",
        Connectivity::new(true, true, false, false, false),
        p,
    )
}

fn wemo_switch() -> DeviceModel {
    let mut p = DeviceProfile::new("WeMoSwitch", OUI_BELKIN);
    let cloud = p.endpoint("api.xbcs.net");
    let ntp = p.endpoint("time.belkin.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("WeMo.Switch"),
        Phase::ArpProbe {
            count: 1,
            announce: true,
        },
        Phase::SsdpNotify {
            device_type: "urn:Belkin:device:controllee:1".into(),
            count: 4,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: false,
        },
        Phase::HttpGet {
            endpoint: cloud,
            path: "/setup.xml".into(),
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
    ]);
    model(
        "WeMoSwitch",
        "WeMo Switch model F7C027de",
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

fn dlink_home_hub() -> DeviceModel {
    let mut p = DeviceProfile::new("D-LinkHomeHub", OUI_DLINK);
    let dcd = p.endpoint("mp-eu-dcdda.dcdsvc.com");
    let time = p.endpoint("time.dlink.com.tw");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("DCH-G020"),
        Phase::ArpProbe {
            count: 2,
            announce: true,
        },
        Phase::Ipv6Bringup {
            mld_records: 2,
            router_solicit: true,
        },
        Phase::Dns {
            endpoint: dcd,
            aaaa: true,
        },
        Phase::Dns {
            endpoint: time,
            aaaa: false,
        },
        Phase::Ntp {
            endpoint: time,
            count: 2,
        },
        Phase::Tls {
            endpoint: dcd,
            port: 443,
            hello_size: 208,
            records: vec![350, 350, 120],
        },
        Phase::MdnsAnnounce {
            services: vec!["_dcp._tcp.local".into(), "_http._tcp.local".into()],
        },
        Phase::SsdpNotify {
            device_type: "urn:schemas-upnp-org:device:Basic:1".into(),
            count: 2,
        },
    ]);
    model(
        "D-LinkHomeHub",
        "D-Link Connected Home Hub DCH-G020",
        Connectivity::new(true, false, true, true, false),
        p,
    )
}

fn dlink_door_sensor() -> DeviceModel {
    let mut p = DeviceProfile::new("D-LinkDoorSensor", OUI_DLINK);
    p.extend_phases([
        Phase::ArpProbe {
            count: 1,
            announce: false,
        },
        Phase::UdpRaw {
            dest: RawDest::Gateway,
            port: 9123,
            sizes: vec![28, 28, 52],
        },
        Phase::MdnsQuery {
            service: "_dcp._tcp.local".into(),
        },
    ]);
    model(
        "D-LinkDoorSensor",
        "D-Link Door & Window sensor",
        Connectivity::new(false, false, false, true, false),
        p,
    )
}

fn dlink_day_cam() -> DeviceModel {
    let mut p = DeviceProfile::new("D-LinkDayCam", OUI_DLINK);
    let signal = p.endpoint("signal.mydlink.com");
    let ntp = p.endpoint("ntp1.dlink.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("DCS-930L"),
        Phase::ArpProbe {
            count: 2,
            announce: false,
        },
        Phase::Dns {
            endpoint: signal,
            aaaa: false,
        },
        Phase::HttpGet {
            endpoint: signal,
            path: "/common/info.cgi".into(),
        },
        Phase::TcpRaw {
            dest: RawDest::Endpoint(signal),
            port: 554,
            sizes: vec![380, 380],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
    ]);
    model(
        "D-LinkDayCam",
        "D-Link WiFi Day Camera DCS-930L",
        Connectivity::new(true, false, true, false, false),
        p,
    )
}

fn dlink_cam() -> DeviceModel {
    let mut p = DeviceProfile::new("D-LinkCam", OUI_DLINK);
    let dcd = p.endpoint("mp-eu-dcdda.dcdsvc.com");
    let relay = p.endpoint("relay-eu.dcdsvc.com");
    let ntp = p.endpoint("ntp1.dlink.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp("DCH-935L"),
        Phase::ArpProbe {
            count: 2,
            announce: true,
        },
        Phase::Dns {
            endpoint: dcd,
            aaaa: true,
        },
        Phase::Tls {
            endpoint: dcd,
            port: 443,
            hello_size: 208,
            records: vec![350, 520],
        },
        Phase::MdnsAnnounce {
            services: vec!["_dcp._tcp.local".into()],
        },
        Phase::UdpRaw {
            dest: RawDest::Endpoint(relay),
            port: 5150,
            sizes: vec![620, 620],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
    ]);
    model(
        "D-LinkCam",
        "D-Link HD IP Camera DCH-935L",
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

/// The mutually-confusable D-Link family (devices 1–4 of Table III).
///
/// All four run the same firmware stack and differ only in the plastic
/// around it; `separable` adds the DSP-W215's extra power-metering cloud
/// check-in, which fires often enough to make the switch *partially*
/// separable from the three sensors. `announce_retry_prob` is each
/// member's probability of re-announcing its mDNS service — a weak,
/// sensor-polling-rate-like signal that keeps the family's accuracies in
/// the paper's 0.4–0.6 band instead of collapsing to 3-way chance.
fn dlink_family(
    identifier: &'static str,
    description: &'static str,
    hostname: &str,
    separable: bool,
    announce_retry_prob: f64,
    hello_shift: u32,
) -> DeviceModel {
    let mut p = DeviceProfile::new(identifier, OUI_DLINK);
    let dcd = p.endpoint("mp-eu-dcdda.dcdsvc.com");
    let ntp = p.endpoint("ntp1.dlink.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp(hostname),
        Phase::ArpProbe {
            count: 2,
            announce: true,
        },
        Phase::Ipv6Bringup {
            mld_records: 1,
            router_solicit: false,
        },
        Phase::Dns {
            endpoint: dcd,
            aaaa: true,
        },
        Phase::Tls {
            endpoint: dcd,
            port: 443,
            // Same firmware, but each unit's TLS stack pads its hello by a
            // few bytes (certificate serial length, etc.) — a weak signal
            // overlapping the ±6-byte jitter band.
            hello_size: 205 + hello_shift,
            records: vec![340, 180],
        },
        Phase::MdnsAnnounce {
            services: vec!["_dcp._tcp.local".into()],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
        Phase::optional(
            0.35,
            Phase::Ntp {
                endpoint: ntp,
                count: 1,
            },
        ),
        Phase::optional(
            announce_retry_prob,
            Phase::MdnsAnnounce {
                services: vec!["_dcp._tcp.local".into()],
            },
        ),
    ]);
    p.size_jitter = 14;
    if separable {
        // The smart plug reports an initial power-meter calibration blob.
        p.phases.push(Phase::optional(
            0.75,
            Phase::Tls {
                endpoint: dcd,
                port: 443,
                hello_size: 205,
                records: vec![96],
            },
        ));
    }
    model(
        identifier,
        description,
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

/// The two TP-Link plugs (devices 5–6 of Table III): identical firmware,
/// identical traffic — only the model string (same length) differs.
fn tplink_plug(
    identifier: &'static str,
    description: &'static str,
    hostname: &str,
    hello_shift: u32,
) -> DeviceModel {
    let mut p = DeviceProfile::new(identifier, OUI_TPLINK);
    let cloud = p.endpoint("use.tplinkcloud.com");
    let ntp = p.endpoint("time.tp-link.com");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp(hostname),
        Phase::ArpProbe {
            count: 1,
            announce: true,
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: false,
        },
        Phase::UdpRaw {
            dest: RawDest::Broadcast,
            port: 9999,
            sizes: vec![46],
        },
        Phase::Tls {
            endpoint: cloud,
            port: 50443,
            hello_size: 150 + hello_shift,
            records: vec![260],
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
        Phase::optional(
            0.5,
            Phase::UdpRaw {
                dest: RawDest::Broadcast,
                port: 9999,
                sizes: vec![46],
            },
        ),
    ]);
    p.size_jitter = 12;
    model(
        identifier,
        description,
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

/// The two Edimax plugs (devices 7–8 of Table III): identical firmware.
fn edimax_plug(identifier: &'static str, description: &'static str, hostname: &str) -> DeviceModel {
    let mut p = DeviceProfile::new(identifier, OUI_EDIMAX);
    let cloud = p.endpoint("cloudservice.myedimax.com");
    let ntp = p.endpoint("pool.ntp.org");
    p.extend_phases([
        Phase::Eapol,
        Phase::dhcp(hostname),
        Phase::ArpProbe {
            count: 1,
            announce: false,
        },
        Phase::UdpRaw {
            dest: RawDest::Broadcast,
            port: 20560,
            sizes: vec![38, 38],
        },
        Phase::Dns {
            endpoint: cloud,
            aaaa: false,
        },
        Phase::HttpPost {
            endpoint: cloud,
            path: "/registration".into(),
            body_size: 180,
        },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
    ]);
    model(
        identifier,
        description,
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

/// The two Smarter kitchen appliances (devices 9–10 of Table III):
/// identical WiFi module and local-only protocol.
fn smarter_appliance(
    identifier: &'static str,
    description: &'static str,
    probe_shift: u32,
) -> DeviceModel {
    let mut p = DeviceProfile::new(identifier, OUI_SMARTER);
    let ntp = p.endpoint("pool.ntp.org");
    p.extend_phases([
        Phase::Eapol,
        Phase::Dhcp {
            hostname: None,
            vendor_class: None,
            param_list: vec![1, 3, 6, 15],
        },
        Phase::ArpProbe {
            count: 1,
            announce: false,
        },
        Phase::UdpRaw {
            dest: RawDest::Broadcast,
            port: 2081,
            sizes: vec![20 + probe_shift, 20 + probe_shift],
        },
        Phase::Ping { count: 1 },
        Phase::Ntp {
            endpoint: ntp,
            count: 1,
        },
        Phase::optional(
            0.5,
            Phase::UdpRaw {
                dest: RawDest::Broadcast,
                port: 2081,
                sizes: vec![20 + probe_shift],
            },
        ),
    ]);
    p.size_jitter = 10;
    model(
        identifier,
        description,
        Connectivity::new(true, false, false, false, false),
        p,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_27_types_in_fig5_order() {
        let devices = catalog();
        assert_eq!(devices.len(), 27);
        assert_eq!(devices[0].info.identifier, "Aria");
        assert_eq!(devices[26].info.identifier, "iKettle2");
        // Fig. 5 numbers the last ten devices 1..10.
        assert_eq!(devices[17].info.identifier, "D-LinkSwitch");
        assert_eq!(devices[21].info.identifier, "TP-LinkPlugHS110");
    }

    #[test]
    fn identifiers_are_unique() {
        let devices = catalog();
        let names: std::collections::HashSet<_> =
            devices.iter().map(|d| d.info.identifier).collect();
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn connectivity_matches_table_two_spot_checks() {
        let devices = catalog();
        let by_name = |name: &str| {
            devices
                .iter()
                .find(|d| d.info.identifier == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert!(by_name("Aria").info.connectivity.wifi);
        assert!(!by_name("Aria").info.connectivity.ethernet);
        let hub = &by_name("D-LinkHomeHub").info.connectivity;
        assert!(hub.wifi && hub.ethernet && hub.zwave);
        let hue = &by_name("HueBridge").info.connectivity;
        assert!(hue.zigbee && hue.ethernet && !hue.wifi);
        assert!(by_name("HomeMaticPlug").info.connectivity.other);
        assert!(by_name("D-LinkDoorSensor").info.connectivity.zwave);
    }

    #[test]
    fn confusable_family_members_share_traffic_shape() {
        let devices = catalog();
        let profile = |name: &str| {
            &devices
                .iter()
                .find(|d| d.info.identifier == name)
                .unwrap()
                .profile
        };
        // The three D-Link sensors are phase-for-phase identical up to
        // the (same-length) DHCP hostname and the weak mDNS re-announce
        // probability.
        let water = profile("D-LinkWaterSensor");
        let siren = profile("D-LinkSiren");
        let sensor = profile("D-LinkSensor");
        assert_eq!(water.phases.len(), siren.phases.len());
        assert_eq!(siren.phases.len(), sensor.phases.len());
        for (a, b) in water.phases.iter().zip(siren.phases.iter()) {
            match (a, b) {
                (Phase::Dhcp { hostname: ha, .. }, Phase::Dhcp { hostname: hb, .. }) => {
                    assert_eq!(
                        ha.as_ref().map(String::len),
                        hb.as_ref().map(String::len),
                        "hostnames must have equal length to keep sizes equal"
                    );
                }
                (Phase::Optional { phase: pa, .. }, Phase::Optional { phase: pb, .. }) => {
                    assert_eq!(pa, pb, "optional phases identical up to probability");
                }
                (
                    Phase::Tls {
                        endpoint: ea,
                        port: pa,
                        hello_size: ha,
                        records: ra,
                    },
                    Phase::Tls {
                        endpoint: eb,
                        port: pb,
                        hello_size: hb,
                        records: rb,
                    },
                ) => {
                    // Same session shape; the hello differs by a few
                    // bytes inside the jitter band (the weak per-unit
                    // signal).
                    assert_eq!((ea, pa, ra), (eb, pb, rb));
                    assert!(ha.abs_diff(*hb) <= 9, "hello shift stays weak");
                }
                (a, b) => assert_eq!(a, b),
            }
        }
        // The plug (device 1) has one extra optional phase.
        let switch = profile("D-LinkSwitch");
        assert_eq!(switch.phases.len(), water.phases.len() + 1);
    }

    #[test]
    fn confusable_groups_reference_catalog_names() {
        let devices = catalog();
        let names: std::collections::HashSet<_> =
            devices.iter().map(|d| d.info.identifier).collect();
        for group in confusable_groups() {
            assert!(group.len() >= 2);
            for member in group {
                assert!(names.contains(member), "unknown device {member}");
            }
        }
    }

    #[test]
    fn every_phase_endpoint_index_is_valid() {
        for device in catalog() {
            let n = device.profile.endpoints.len();
            for phase in &device.profile.phases {
                check_phase(phase, n, device.info.identifier);
            }
        }
    }

    fn check_phase(phase: &Phase, n: usize, name: &str) {
        let check = |i: &usize| assert!(*i < n, "{name}: endpoint {i} out of range {n}");
        match phase {
            Phase::Dns { endpoint, .. }
            | Phase::Ntp { endpoint, .. }
            | Phase::Tls { endpoint, .. }
            | Phase::HttpGet { endpoint, .. }
            | Phase::HttpPost { endpoint, .. } => check(endpoint),
            Phase::TcpRaw { dest, .. } | Phase::UdpRaw { dest, .. } => {
                if let RawDest::Endpoint(i) = dest {
                    check(i);
                }
            }
            Phase::Optional { phase, .. } => check_phase(phase, n, name),
            _ => {}
        }
    }
}
