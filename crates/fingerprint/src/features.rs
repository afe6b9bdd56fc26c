//! The 23 per-packet features of the paper's Table I.

use serde::{Deserialize, Serialize};

use sentinel_netproto::{Packet, Protocol, ProtocolSet, RawFeatures};

/// Number of features extracted per packet (Table I).
pub const FEATURE_COUNT: usize = 23;

/// Feature names in Table I order, matching [`FeatureVector::to_array`].
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "arp",
    "llc",
    "ip",
    "icmp",
    "icmpv6",
    "eapol",
    "tcp",
    "udp",
    "http",
    "https",
    "dhcp",
    "bootp",
    "ssdp",
    "dns",
    "mdns",
    "ntp",
    "ip_option_padding",
    "ip_option_router_alert",
    "packet_size",
    "raw_data",
    "dst_ip_counter",
    "src_port_class",
    "dst_port_class",
];

/// IANA port class, the encoding used by the two port features.
///
/// * no port ⇒ 0
/// * well-known `[0, 1023]` ⇒ 1
/// * registered `[1024, 49151]` ⇒ 2
/// * dynamic `[49152, 65535]` ⇒ 3
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum PortClass {
    /// The packet has no transport port (ARP, ICMP, EAPoL, …).
    #[default]
    NoPort,
    /// Well-known range `[0, 1023]`.
    WellKnown,
    /// Registered range `[1024, 49151]`.
    Registered,
    /// Dynamic/ephemeral range `[49152, 65535]`.
    Dynamic,
}

impl PortClass {
    /// Classifies an optional port number.
    pub fn from_port(port: Option<u16>) -> Self {
        match port {
            None => PortClass::NoPort,
            Some(p) if sentinel_netproto::ports::is_well_known(p) => PortClass::WellKnown,
            Some(p) if sentinel_netproto::ports::is_registered(p) => PortClass::Registered,
            Some(_) => PortClass::Dynamic,
        }
    }

    /// The feature encoding (0–3).
    pub const fn to_u8(self) -> u8 {
        match self {
            PortClass::NoPort => 0,
            PortClass::WellKnown => 1,
            PortClass::Registered => 2,
            PortClass::Dynamic => 3,
        }
    }
}

/// The 23-feature representation of one packet (one column of the paper's
/// fingerprint matrix `F`).
///
/// Equality is exact equality of all 23 features — the paper's criterion
/// both for discarding consecutive duplicates and for character equality
/// in the edit-distance comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureVector {
    /// The 16 binary protocol indicators.
    pub protocols: ProtocolSet,
    /// IP header option: padding present.
    pub ip_option_padding: bool,
    /// IP header option: Router Alert present.
    pub ip_option_router_alert: bool,
    /// Frame size in bytes.
    pub packet_size: u32,
    /// Uninterpreted payload data present.
    pub raw_data: bool,
    /// Destination-IP counter: `k` if the destination address was the
    /// `k`-th distinct address this device contacted (1-based), 0 if the
    /// packet has no IP destination.
    pub dst_ip_counter: u32,
    /// Source port class.
    pub src_port_class: PortClass,
    /// Destination port class.
    pub dst_port_class: PortClass,
}

impl FeatureVector {
    /// Extracts the features of one packet, through the same
    /// [`RawFeatures`] record the wire scan emits.
    ///
    /// `dst_ip_counter` carries per-fingerprint state and is therefore
    /// supplied by the caller (see [`crate::FeatureExtractor`]).
    pub fn from_packet(packet: &Packet, dst_ip_counter: u32) -> Self {
        Self::from_raw(&RawFeatures::from_packet(packet), dst_ip_counter)
    }

    /// Builds the features from a wire-scan record (the zero-copy fast
    /// path). Equivalent to [`FeatureVector::from_packet`] on the decoded
    /// frame — the contract `sentinel_netproto::scan` certifies.
    pub fn from_raw(raw: &RawFeatures, dst_ip_counter: u32) -> Self {
        FeatureVector {
            protocols: raw.protocols,
            ip_option_padding: raw.ip_option_padding,
            ip_option_router_alert: raw.ip_option_router_alert,
            packet_size: raw.packet_size,
            raw_data: raw.raw_data,
            dst_ip_counter,
            src_port_class: PortClass::from_port(raw.src_port),
            dst_port_class: PortClass::from_port(raw.dst_port),
        }
    }

    /// The vector in Table I order, for consumption by numeric classifiers.
    pub fn to_array(&self) -> [f64; FEATURE_COUNT] {
        let mut out = [0.0; FEATURE_COUNT];
        for (i, protocol) in Protocol::ALL.into_iter().enumerate() {
            out[i] = if self.protocols.contains(protocol) {
                1.0
            } else {
                0.0
            };
        }
        out[16] = self.ip_option_padding as u8 as f64;
        out[17] = self.ip_option_router_alert as u8 as f64;
        out[18] = self.packet_size as f64;
        out[19] = self.raw_data as u8 as f64;
        out[20] = self.dst_ip_counter as f64;
        out[21] = self.src_port_class.to_u8() as f64;
        out[22] = self.dst_port_class.to_u8() as f64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_netproto::ipv4::{IpProtocol, Ipv4Header, Ipv4Option};
    use sentinel_netproto::udp::UdpHeader;
    use sentinel_netproto::{AppPayload, MacAddr, PacketBody, Timestamp, Transport};
    use std::net::Ipv4Addr;

    fn mac() -> MacAddr {
        MacAddr::new([1, 1, 1, 1, 1, 1])
    }

    #[test]
    fn feature_names_match_count() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
        assert_eq!(FEATURE_COUNT, 23, "Table I defines exactly 23 features");
    }

    #[test]
    fn table_one_layout() {
        // First 16 entries are the protocol indicators, then the 2 IP
        // options, 2 content features, 1 address feature, 2 port features.
        assert_eq!(&FEATURE_NAMES[0..2], &["arp", "llc"]);
        assert_eq!(&FEATURE_NAMES[2..6], &["ip", "icmp", "icmpv6", "eapol"]);
        assert_eq!(&FEATURE_NAMES[6..8], &["tcp", "udp"]);
        assert_eq!(
            &FEATURE_NAMES[8..16],
            &["http", "https", "dhcp", "bootp", "ssdp", "dns", "mdns", "ntp"]
        );
        assert_eq!(FEATURE_NAMES[18], "packet_size");
        assert_eq!(FEATURE_NAMES[20], "dst_ip_counter");
    }

    #[test]
    fn dhcp_packet_features() {
        let packet = Packet::dhcp_discover(mac(), 1, 0);
        let features = FeatureVector::from_packet(&packet, 1);
        let array = features.to_array();
        assert_eq!(array[2], 1.0, "ip");
        assert_eq!(array[7], 1.0, "udp");
        assert_eq!(array[10], 1.0, "dhcp");
        assert_eq!(array[11], 1.0, "bootp");
        assert_eq!(array[6], 0.0, "tcp");
        assert_eq!(array[18], packet.wire_len() as f64);
        assert_eq!(array[20], 1.0, "first destination ip");
        // Ports 68 -> 67: both well-known.
        assert_eq!(array[21], 1.0);
        assert_eq!(array[22], 1.0);
    }

    #[test]
    fn arp_packet_has_no_ports_or_ip() {
        let packet = Packet::arp_probe(Timestamp::ZERO, mac(), Ipv4Addr::new(10, 0, 0, 1));
        let features = FeatureVector::from_packet(&packet, 0);
        let array = features.to_array();
        assert_eq!(array[0], 1.0, "arp");
        assert_eq!(array[2], 0.0, "no ip layer");
        assert_eq!(array[20], 0.0, "no dst ip counter");
        assert_eq!(features.src_port_class, PortClass::NoPort);
    }

    #[test]
    fn router_alert_and_padding_flags() {
        let header = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(224, 0, 0, 22),
            IpProtocol::Udp,
        )
        .with_option(Ipv4Option::RouterAlert(0))
        .with_option(Ipv4Option::Nop);
        let packet = Packet::new(
            Timestamp::ZERO,
            mac(),
            MacAddr::ZERO,
            PacketBody::Ipv4 {
                header,
                transport: Transport::Udp {
                    header: UdpHeader::new(5000, 5000),
                    payload: AppPayload::Empty,
                },
            },
        );
        let features = FeatureVector::from_packet(&packet, 1);
        assert!(features.ip_option_router_alert);
        assert!(features.ip_option_padding);
    }

    #[test]
    fn port_class_mapping() {
        assert_eq!(PortClass::from_port(None), PortClass::NoPort);
        assert_eq!(PortClass::from_port(Some(0)), PortClass::WellKnown);
        assert_eq!(PortClass::from_port(Some(1023)), PortClass::WellKnown);
        assert_eq!(PortClass::from_port(Some(1024)), PortClass::Registered);
        assert_eq!(PortClass::from_port(Some(49151)), PortClass::Registered);
        assert_eq!(PortClass::from_port(Some(49152)), PortClass::Dynamic);
        assert_eq!(PortClass::from_port(Some(65535)), PortClass::Dynamic);
    }

    #[test]
    fn equality_is_feature_exact() {
        let a = FeatureVector::from_packet(&Packet::dhcp_discover(mac(), 1, 0), 1);
        let b = FeatureVector::from_packet(&Packet::dhcp_discover(mac(), 1, 999_999), 1);
        assert_eq!(a, b, "timestamps and xid do not affect features");
        let c = FeatureVector::from_packet(&Packet::dhcp_discover(mac(), 1, 0), 2);
        assert_ne!(a, c, "dst ip counter is a feature");
    }
}
