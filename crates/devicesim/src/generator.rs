//! Expands a [`DeviceProfile`] into the packet sequence one setup run
//! produces.

use std::net::Ipv4Addr;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sentinel_netproto::dns::{DnsMessage, Question, RecordData, RecordType, ResourceRecord};
use sentinel_netproto::http::HttpMessage;
use sentinel_netproto::icmp::IcmpMessage;
use sentinel_netproto::icmpv6::Icmpv6Message;
use sentinel_netproto::ipv4::IpProtocol;
use sentinel_netproto::ipv6::{HopByHopOption, Ipv6Header};
use sentinel_netproto::ntp::NtpPacket;
use sentinel_netproto::tcp::{TcpFlags, TcpHeader};
use sentinel_netproto::tls::TlsRecord;
use sentinel_netproto::{
    dhcp, ports, ssdp, AppPayload, MacAddr, Packet, PacketBody, Timestamp, Transport,
};

use crate::{DeviceProfile, Phase, RawDest};

/// The packets captured from one device setup run, plus the identity the
/// run used.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupTrace {
    /// The device's MAC address for this run.
    pub mac: MacAddr,
    /// The DHCP-assigned device address.
    pub device_ip: Ipv4Addr,
    /// Device-sent packets in transmission order.
    pub packets: Vec<Packet>,
}

impl SetupTrace {
    /// Re-encodes the trace to timestamped wire frames, the form the
    /// zero-copy scan path (`sentinel_netproto::scan`) ingests.
    pub fn frames(&self) -> Vec<(Timestamp, Vec<u8>)> {
        self.packets
            .iter()
            .map(|p| (p.timestamp, p.encode()))
            .collect()
    }
}

/// Expands device profiles into setup-run packet traces.
///
/// The generator models the gateway side of the lab network (Fig. 4):
/// a fixed gateway MAC/IP, a /24 subnet, and a local DNS resolver on the
/// gateway. Only *device-sent* packets are produced, because the
/// fingerprint records "n packets received from it during its setup
/// phase" (Sect. IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceGenerator {
    /// Gateway MAC address.
    pub gateway_mac: MacAddr,
    /// Gateway (and resolver) IPv4 address.
    pub gateway_ip: Ipv4Addr,
}

impl Default for TraceGenerator {
    fn default() -> Self {
        TraceGenerator {
            gateway_mac: MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]),
            gateway_ip: Ipv4Addr::new(192, 168, 0, 1),
        }
    }
}

struct RunState {
    rng: StdRng,
    cursor: Timestamp,
    mac: MacAddr,
    device_ip: Ipv4Addr,
    packets: Vec<Packet>,
}

impl RunState {
    /// Advances time by a typical inter-packet gap.
    fn step(&mut self) -> Timestamp {
        let gap = self.rng.gen_range(15..180u64);
        self.cursor += Duration::from_millis(gap);
        self.cursor
    }

    fn ephemeral_port(&mut self) -> u16 {
        self.rng.gen_range(49160..65000)
    }
}

impl TraceGenerator {
    /// Creates a generator with the default lab-network identities.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Runs one setup of `profile`, seeded by `seed` (a different seed is
    /// a different factory-reset run: new MAC suffix, new DHCP lease, new
    /// jitter).
    pub(crate) fn generate(&self, profile: &DeviceProfile, seed: u64) -> SetupTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mac = MacAddr::new([
            profile.oui[0],
            profile.oui[1],
            profile.oui[2],
            rng.gen(),
            rng.gen(),
            rng.gen(),
        ]);
        let device_ip = Ipv4Addr::new(192, 168, 0, rng.gen_range(20..220));
        let mut state = RunState {
            rng,
            cursor: Timestamp::ZERO,
            mac,
            device_ip,
            packets: Vec::with_capacity(48),
        };
        for phase in &profile.phases {
            self.run_phase(profile, phase, &mut state);
        }
        SetupTrace {
            mac,
            device_ip,
            packets: state.packets,
        }
    }

    /// Generates `cycles` standby/operation cycles of `profile` (the
    /// Sect. VIII-A legacy-installation scenario: the device is already
    /// on the network and only heartbeat/keep-alive traffic is visible).
    /// Cycles are separated by long idle gaps, as real standby traffic is.
    pub(crate) fn generate_standby(
        &self,
        profile: &DeviceProfile,
        seed: u64,
        cycles: u32,
    ) -> SetupTrace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5742_5942); // "STBY"
        let mac = MacAddr::new([
            profile.oui[0],
            profile.oui[1],
            profile.oui[2],
            rng.gen(),
            rng.gen(),
            rng.gen(),
        ]);
        let device_ip = Ipv4Addr::new(192, 168, 0, rng.gen_range(20..220));
        let mut state = RunState {
            rng,
            cursor: Timestamp::ZERO,
            mac,
            device_ip,
            packets: Vec::with_capacity(16 * cycles as usize),
        };
        for _ in 0..cycles {
            for phase in &profile.standby_phases {
                self.run_phase(profile, phase, &mut state);
            }
            // Inter-cycle idle period (heartbeat interval with drift).
            let idle = state.rng.gen_range(25_000..35_000u64);
            state.cursor += Duration::from_millis(idle);
        }
        SetupTrace {
            mac,
            device_ip,
            packets: state.packets,
        }
    }

    fn run_phase(&self, profile: &DeviceProfile, phase: &Phase, state: &mut RunState) {
        match phase {
            Phase::Optional { prob, phase } => {
                if state.rng.gen_bool(*prob) {
                    self.run_phase(profile, phase, state);
                }
            }
            Phase::Pause { millis } => {
                state.cursor += Duration::from_millis(*millis);
            }
            Phase::Eapol => {
                for n in [2u8, 4] {
                    let t = state.step();
                    state
                        .packets
                        .push(Packet::eapol_key(t, state.mac, self.gateway_mac, n));
                }
            }
            Phase::Dhcp {
                hostname,
                vendor_class,
                param_list,
            } => self.dhcp_phase(hostname, vendor_class, param_list, state),
            Phase::ArpProbe { count, announce } => {
                for _ in 0..*count {
                    let t = state.step();
                    state
                        .packets
                        .push(Packet::arp_probe(t, state.mac, state.device_ip));
                }
                if *announce {
                    let t = state.step();
                    state.packets.push(Packet::new(
                        t,
                        state.mac,
                        MacAddr::BROADCAST,
                        PacketBody::Arp(sentinel_netproto::arp::ArpPacket::announcement(
                            state.mac,
                            state.device_ip,
                        )),
                    ));
                }
            }
            Phase::Ipv6Bringup {
                mld_records,
                router_solicit,
            } => self.ipv6_phase(*mld_records, *router_solicit, state),
            Phase::Dns { endpoint, aaaa } => {
                let domain = profile.endpoints[*endpoint].domain.clone();
                let src_port = state.ephemeral_port();
                let t = state.step();
                let id = state.rng.gen();
                state.packets.push(self.udp_to_gateway(
                    t,
                    state,
                    src_port,
                    ports::DNS,
                    AppPayload::Dns(DnsMessage::query(id, [Question::a(domain.clone())])),
                ));
                if *aaaa {
                    let t = state.step();
                    let id = state.rng.gen();
                    state.packets.push(self.udp_to_gateway(
                        t,
                        state,
                        src_port,
                        ports::DNS,
                        AppPayload::Dns(DnsMessage::query(
                            id,
                            [Question {
                                name: domain,
                                qtype: RecordType::Aaaa,
                                unicast_response: false,
                            }],
                        )),
                    ));
                }
            }
            Phase::Ntp { endpoint, count } => {
                let dst_ip = profile.endpoints[*endpoint].ip;
                for _ in 0..*count {
                    let t = state.step();
                    let stamp = state.rng.gen();
                    state.packets.push(Packet::udp_ipv4(
                        t,
                        state.mac,
                        self.gateway_mac,
                        state.device_ip,
                        dst_ip,
                        ports::NTP,
                        ports::NTP,
                        AppPayload::Ntp(NtpPacket::client_request(stamp)),
                    ));
                }
            }
            Phase::Tls {
                endpoint,
                port,
                hello_size,
                records,
            } => {
                let dst_ip = profile.endpoints[*endpoint].ip;
                let src_port = state.ephemeral_port();
                let t = state.step();
                state.packets.push(Packet::tcp_syn(
                    t,
                    state.mac,
                    self.gateway_mac,
                    state.device_ip,
                    dst_ip,
                    src_port,
                    *port,
                ));
                let hello = self.jitter_size(profile, *hello_size, state);
                let t = state.step();
                state.packets.push(self.tcp_segment(
                    t,
                    state,
                    dst_ip,
                    src_port,
                    *port,
                    AppPayload::Tls(TlsRecord::client_hello(hello as usize)),
                ));
                for &record in records {
                    let size = self.jitter_size(profile, record, state);
                    let t = state.step();
                    state.packets.push(self.tcp_segment(
                        t,
                        state,
                        dst_ip,
                        src_port,
                        *port,
                        AppPayload::Tls(TlsRecord::application_data(size as usize)),
                    ));
                }
            }
            Phase::HttpGet { endpoint, path } => {
                let ep = &profile.endpoints[*endpoint];
                let dst_ip = ep.ip;
                let src_port = state.ephemeral_port();
                let t = state.step();
                state.packets.push(Packet::tcp_syn(
                    t,
                    state.mac,
                    self.gateway_mac,
                    state.device_ip,
                    dst_ip,
                    src_port,
                    ports::HTTP,
                ));
                let t = state.step();
                state.packets.push(self.tcp_segment(
                    t,
                    state,
                    dst_ip,
                    src_port,
                    ports::HTTP,
                    AppPayload::Http(HttpMessage::get(ep.domain.clone(), path.clone())),
                ));
            }
            Phase::HttpPost {
                endpoint,
                path,
                body_size,
            } => {
                let ep = &profile.endpoints[*endpoint];
                let dst_ip = ep.ip;
                let src_port = state.ephemeral_port();
                let t = state.step();
                state.packets.push(Packet::tcp_syn(
                    t,
                    state.mac,
                    self.gateway_mac,
                    state.device_ip,
                    dst_ip,
                    src_port,
                    ports::HTTP,
                ));
                let size = self.jitter_size(profile, *body_size, state) as usize;
                let t = state.step();
                state.packets.push(self.tcp_segment(
                    t,
                    state,
                    dst_ip,
                    src_port,
                    ports::HTTP,
                    AppPayload::Http(HttpMessage::post(
                        ep.domain.clone(),
                        path.clone(),
                        vec![0x78; size],
                    )),
                ));
            }
            Phase::SsdpSearch { target, count } => {
                let src_port = state.ephemeral_port();
                for _ in 0..*count {
                    let t = state.step();
                    state.packets.push(Packet::udp_ipv4(
                        t,
                        state.mac,
                        MacAddr::new([0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa]),
                        state.device_ip,
                        ssdp::MULTICAST_ADDR,
                        src_port,
                        ports::SSDP,
                        AppPayload::Http(ssdp::m_search(target)),
                    ));
                }
            }
            Phase::SsdpNotify { device_type, count } => {
                let location = format!("http://{}:49153/setup.xml", state.device_ip);
                for _ in 0..*count {
                    let t = state.step();
                    state.packets.push(Packet::udp_ipv4(
                        t,
                        state.mac,
                        MacAddr::new([0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa]),
                        state.device_ip,
                        ssdp::MULTICAST_ADDR,
                        ports::SSDP,
                        ports::SSDP,
                        AppPayload::Http(ssdp::notify_alive(device_type, &location)),
                    ));
                }
            }
            Phase::MdnsAnnounce { services } => {
                let records: Vec<ResourceRecord> = services
                    .iter()
                    .flat_map(|service| {
                        let instance = format!("device.{service}");
                        [
                            ResourceRecord {
                                name: service.clone(),
                                ttl: 4500,
                                cache_flush: false,
                                data: RecordData::Ptr(instance.clone()),
                            },
                            ResourceRecord {
                                name: instance,
                                ttl: 4500,
                                cache_flush: true,
                                data: RecordData::A(state.device_ip),
                            },
                        ]
                    })
                    .collect();
                let t = state.step();
                state.packets.push(Packet::udp_ipv4(
                    t,
                    state.mac,
                    MacAddr::new([0x01, 0x00, 0x5e, 0x00, 0x00, 0xfb]),
                    state.device_ip,
                    Ipv4Addr::new(224, 0, 0, 251),
                    ports::MDNS,
                    ports::MDNS,
                    AppPayload::Dns(DnsMessage::mdns_announcement(records)),
                ));
            }
            Phase::MdnsQuery { service } => {
                let t = state.step();
                state.packets.push(Packet::udp_ipv4(
                    t,
                    state.mac,
                    MacAddr::new([0x01, 0x00, 0x5e, 0x00, 0x00, 0xfb]),
                    state.device_ip,
                    Ipv4Addr::new(224, 0, 0, 251),
                    ports::MDNS,
                    ports::MDNS,
                    AppPayload::Dns(DnsMessage::mdns_query([Question::ptr(service.clone())])),
                ));
            }
            Phase::TcpRaw { dest, port, sizes } => {
                let dst_ip = self.resolve_dest(profile, *dest);
                let src_port = state.ephemeral_port();
                let t = state.step();
                state.packets.push(Packet::tcp_syn(
                    t,
                    state.mac,
                    self.gateway_mac,
                    state.device_ip,
                    dst_ip,
                    src_port,
                    *port,
                ));
                for &size in sizes {
                    let size = self.jitter_size(profile, size, state) as usize;
                    let t = state.step();
                    state.packets.push(self.tcp_segment(
                        t,
                        state,
                        dst_ip,
                        src_port,
                        *port,
                        AppPayload::Raw(vec![0xd5; size].into()),
                    ));
                }
            }
            Phase::UdpRaw { dest, port, sizes } => {
                let dst_ip = self.resolve_dest(profile, *dest);
                let src_port = state.ephemeral_port();
                for &size in sizes {
                    let size = self.jitter_size(profile, size, state) as usize;
                    let t = state.step();
                    let dst_mac = if dst_ip.is_broadcast() {
                        MacAddr::BROADCAST
                    } else {
                        self.gateway_mac
                    };
                    state.packets.push(Packet::udp_ipv4(
                        t,
                        state.mac,
                        dst_mac,
                        state.device_ip,
                        dst_ip,
                        src_port,
                        *port,
                        AppPayload::Raw(vec![0xd5; size].into()),
                    ));
                }
            }
            Phase::Stp { count } => {
                for _ in 0..*count {
                    let t = state.step();
                    let mut bpdu = vec![0u8; 35];
                    bpdu[3] = 0x02; // BPDU type: config
                    state.packets.push(Packet::new(
                        t,
                        state.mac,
                        MacAddr::new([0x01, 0x80, 0xc2, 0, 0, 0]),
                        PacketBody::Llc {
                            header: sentinel_netproto::llc::LlcHeader::unnumbered(
                                sentinel_netproto::llc::sap::STP,
                            ),
                            payload: bpdu.into(),
                        },
                    ));
                }
            }
            Phase::Ping { count } => {
                for seq in 0..*count {
                    let t = state.step();
                    let id = state.rng.gen();
                    state.packets.push(Packet::new(
                        t,
                        state.mac,
                        self.gateway_mac,
                        PacketBody::Ipv4 {
                            header: sentinel_netproto::ipv4::Ipv4Header::new(
                                state.device_ip,
                                self.gateway_ip,
                                IpProtocol::Icmp,
                            ),
                            transport: Transport::Icmp(IcmpMessage::echo_request(
                                id,
                                seq as u16,
                                vec![0u8; 32],
                            )),
                        },
                    ));
                }
            }
        }
    }

    fn dhcp_phase(
        &self,
        hostname: &Option<String>,
        vendor_class: &Option<String>,
        param_list: &[u8],
        state: &mut RunState,
    ) {
        let xid: u32 = state.rng.gen();
        let mut discover = dhcp::DhcpMessage::discover(state.mac, xid);
        discover.options.truncate(2); // MessageType + ClientId
        discover
            .options
            .push(dhcp::DhcpOption::ParameterRequestList(param_list.to_vec()));
        if let Some(name) = hostname {
            discover
                .options
                .push(dhcp::DhcpOption::HostName(name.clone()));
        }
        if let Some(class) = vendor_class {
            discover
                .options
                .push(dhcp::DhcpOption::VendorClassId(class.clone()));
        }
        let mut request =
            dhcp::DhcpMessage::request(state.mac, xid, state.device_ip, self.gateway_ip);
        if let Some(name) = hostname {
            request
                .options
                .push(dhcp::DhcpOption::HostName(name.clone()));
        }
        for message in [discover, request] {
            let t = state.step();
            state.packets.push(Packet::udp_ipv4(
                t,
                state.mac,
                MacAddr::BROADCAST,
                Ipv4Addr::UNSPECIFIED,
                Ipv4Addr::BROADCAST,
                ports::DHCP_CLIENT,
                ports::DHCP_SERVER,
                AppPayload::Dhcp(message),
            ));
        }
    }

    fn ipv6_phase(&self, mld_records: u16, router_solicit: bool, state: &mut RunState) {
        let octets = state.mac.octets();
        let link_local: std::net::Ipv6Addr = format!(
            "fe80::{:02x}{:02x}:{:02x}ff:fe{:02x}:{:02x}{:02x}",
            octets[0] ^ 0x02,
            octets[1],
            octets[2],
            octets[3],
            octets[4],
            octets[5]
        )
        .parse()
        .expect("well-formed link-local address");
        let t = state.step();
        state.packets.push(Packet::new(
            t,
            state.mac,
            MacAddr::new([0x33, 0x33, 0, 0, 0, 0x16]),
            PacketBody::Ipv6 {
                header: Ipv6Header::new(
                    link_local,
                    "ff02::16".parse().expect("mld group"),
                    IpProtocol::Icmpv6,
                )
                .with_hop_by_hop(HopByHopOption::RouterAlert(0))
                .with_hop_by_hop(HopByHopOption::PadN(0)),
                transport: Transport::Icmpv6(Icmpv6Message::mld2_report(mld_records)),
            },
        ));
        if router_solicit {
            let t = state.step();
            state.packets.push(Packet::new(
                t,
                state.mac,
                MacAddr::new([0x33, 0x33, 0, 0, 0, 0x02]),
                PacketBody::Ipv6 {
                    header: Ipv6Header::new(
                        link_local,
                        "ff02::2".parse().expect("router group"),
                        IpProtocol::Icmpv6,
                    ),
                    transport: Transport::Icmpv6(Icmpv6Message::router_solicitation()),
                },
            ));
        }
    }

    fn udp_to_gateway(
        &self,
        t: Timestamp,
        state: &RunState,
        src_port: u16,
        dst_port: u16,
        payload: AppPayload,
    ) -> Packet {
        Packet::udp_ipv4(
            t,
            state.mac,
            self.gateway_mac,
            state.device_ip,
            self.gateway_ip,
            src_port,
            dst_port,
            payload,
        )
    }

    fn tcp_segment(
        &self,
        t: Timestamp,
        state: &RunState,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: AppPayload,
    ) -> Packet {
        Packet::tcp_ipv4(
            t,
            state.mac,
            self.gateway_mac,
            state.device_ip,
            dst_ip,
            TcpHeader::new(src_port, dst_port, TcpFlags::PSH | TcpFlags::ACK),
            payload,
        )
    }

    fn resolve_dest(&self, profile: &DeviceProfile, dest: RawDest) -> Ipv4Addr {
        match dest {
            RawDest::Gateway => self.gateway_ip,
            RawDest::Broadcast => Ipv4Addr::BROADCAST,
            RawDest::Endpoint(i) => profile.endpoints[i].ip,
            RawDest::Multicast(addr) => addr,
        }
    }

    /// Applies the profile's size jitter and firmware shift to a nominal
    /// payload size.
    fn jitter_size(&self, profile: &DeviceProfile, size: u32, state: &mut RunState) -> u32 {
        let jitter = if profile.size_jitter > 0 {
            state.rng.gen_range(0..=profile.size_jitter)
        } else {
            0
        };
        size + jitter + (profile.firmware - 1) * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    fn profile() -> DeviceProfile {
        let mut p = DeviceProfile::new("TestCam", [0xb0, 0xc5, 0x54]);
        let cloud = p.endpoint("cloud.testcam.example");
        let ntp = p.endpoint("pool.ntp.example");
        p.extend_phases([
            Phase::Eapol,
            Phase::dhcp("TestCam"),
            Phase::ArpProbe {
                count: 2,
                announce: true,
            },
            Phase::Dns {
                endpoint: cloud,
                aaaa: true,
            },
            Phase::Ntp {
                endpoint: ntp,
                count: 1,
            },
            Phase::Tls {
                endpoint: cloud,
                port: 443,
                hello_size: 180,
                records: vec![300, 120],
            },
        ]);
        p
    }

    #[test]
    fn generates_expected_packet_count() {
        let trace = TraceGenerator::new().generate(&profile(), 1);
        // 2 eapol + 2 dhcp + 3 arp + 2 dns + 1 ntp + (1 syn + 1 hello + 2 records)
        assert_eq!(trace.packets.len(), 14);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let trace = TraceGenerator::new().generate(&profile(), 2);
        for window in trace.packets.windows(2) {
            assert!(window[0].timestamp < window[1].timestamp);
        }
    }

    #[test]
    fn mac_uses_profile_oui() {
        let trace = TraceGenerator::new().generate(&profile(), 3);
        assert_eq!(trace.mac.oui(), [0xb0, 0xc5, 0x54]);
        for packet in &trace.packets {
            assert_eq!(packet.src_mac(), trace.mac, "only device-sent packets");
        }
    }

    #[test]
    fn different_seeds_differ_but_same_seed_reproduces() {
        let generator = TraceGenerator::new();
        let a = generator.generate(&profile(), 10);
        let b = generator.generate(&profile(), 10);
        let c = generator.generate(&profile(), 11);
        assert_eq!(a, b);
        assert_ne!(a.mac, c.mac);
    }

    #[test]
    fn optional_phase_sometimes_skipped() {
        let mut p = DeviceProfile::new("Opt", [1, 2, 3]);
        p.extend_phases([Phase::Eapol, Phase::optional(0.5, Phase::Ping { count: 1 })]);
        let generator = TraceGenerator::new();
        let lengths: std::collections::HashSet<usize> = (0..64)
            .map(|seed| generator.generate(&p, seed).packets.len())
            .collect();
        assert_eq!(lengths, [2usize, 3].into_iter().collect());
    }

    #[test]
    fn firmware_update_shifts_sizes() {
        let v1 = TraceGenerator::new().generate(&profile(), 5);
        let v2 = TraceGenerator::new().generate(&profile().with_firmware(2), 5);
        let tls_size = |trace: &SetupTrace| {
            trace
                .packets
                .iter()
                .filter(|p| p.protocols().contains(sentinel_netproto::Protocol::Https))
                .map(|p| p.wire_len())
                .max()
                .unwrap()
        };
        assert!(tls_size(&v2) > tls_size(&v1));
    }

    #[test]
    fn all_packets_roundtrip_on_the_wire() {
        let trace = TraceGenerator::new().generate(&profile(), 7);
        for packet in &trace.packets {
            let bytes = packet.encode();
            let parsed = Packet::parse(&bytes, packet.timestamp).expect("parse");
            assert_eq!(&parsed, packet);
        }
    }

    #[test]
    fn ipv6_bringup_sets_ip_option_features() {
        let mut p = DeviceProfile::new("V6", [1, 2, 3]);
        p.extend_phases([Phase::Ipv6Bringup {
            mld_records: 2,
            router_solicit: true,
        }]);
        let trace = TraceGenerator::new().generate(&p, 1);
        assert_eq!(trace.packets.len(), 2);
        let mld = &trace.packets[0];
        match &mld.body {
            PacketBody::Ipv6 { header, .. } => {
                let options = &header.hop_by_hop;
                assert!(options
                    .iter()
                    .any(|o| matches!(o, HopByHopOption::RouterAlert(_))));
                assert!(options
                    .iter()
                    .any(|o| matches!(o, HopByHopOption::Pad1 | HopByHopOption::PadN(_))));
            }
            other => panic!("expected ipv6, got {other:?}"),
        }
    }
}
