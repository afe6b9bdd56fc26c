//! The 23 per-packet features of the paper's Table I.

use std::fmt;

use sentinel_netproto::{Packet, Protocol, ProtocolSet, RawFeatures};

/// Number of features extracted per packet (Table I).
pub const FEATURE_COUNT: usize = 23;

/// Feature names in Table I order, the order of a packet's 23 cells in a
/// [`FixedFingerprint`](crate::FixedFingerprint).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
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
    pub(crate) fn from_port(port: Option<u16>) -> Self {
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

    /// The class whose encoding is the low two bits of `bits`.
    const fn from_bits(bits: u8) -> Self {
        const CLASSES: [PortClass; 4] = [
            PortClass::NoPort,
            PortClass::WellKnown,
            PortClass::Registered,
            PortClass::Dynamic,
        ];
        CLASSES[(bits & 0b11) as usize]
    }
}

/// The 23-feature representation of one packet (one column of the paper's
/// fingerprint matrix `F`), 12 bytes.
///
/// The three flags and two port classes of Table I share one byte, so
/// read them through their accessors; the packing is a bijection, so
/// the derived equality is still exact equality of all 23 features — the
/// paper's criterion both for discarding consecutive duplicates and for
/// character equality in the edit-distance comparison.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FeatureVector {
    /// The 16 binary protocol indicators.
    pub protocols: ProtocolSet,
    /// Bits 0–2: `ip_option_padding`, `ip_option_router_alert`,
    /// `raw_data`; bits 3–4: the source port class; bits 5–6: the
    /// destination port class.
    packed: u8,
    /// Frame size in bytes.
    pub packet_size: u32,
    /// Destination-IP counter: `k` if the destination address was the
    /// `k`-th distinct address this device contacted (1-based), 0 if the
    /// packet has no IP destination.
    pub dst_ip_counter: u32,
}

// Bit positions in `FeatureVector::packed`.
const PADDING_BIT: u32 = 0;
const ROUTER_ALERT_BIT: u32 = 1;
const RAW_DATA_BIT: u32 = 2;
const SRC_PORT_SHIFT: u32 = 3;
const DST_PORT_SHIFT: u32 = 5;

impl FeatureVector {
    /// Builds a vector from its features in Table I order.
    #[allow(clippy::too_many_arguments)]
    pub const fn new(
        protocols: ProtocolSet,
        ip_option_padding: bool,
        ip_option_router_alert: bool,
        packet_size: u32,
        raw_data: bool,
        dst_ip_counter: u32,
        src_port_class: PortClass,
        dst_port_class: PortClass,
    ) -> Self {
        let packed = (ip_option_padding as u8) << PADDING_BIT
            | (ip_option_router_alert as u8) << ROUTER_ALERT_BIT
            | (raw_data as u8) << RAW_DATA_BIT
            | src_port_class.to_u8() << SRC_PORT_SHIFT
            | dst_port_class.to_u8() << DST_PORT_SHIFT;
        FeatureVector {
            protocols,
            packed,
            packet_size,
            dst_ip_counter,
        }
    }

    /// Extracts the features of one decoded packet, through
    /// [`RawFeatures::from_packet`]: a reference for tests, as
    /// [`crate::extract`] is.
    ///
    /// `dst_ip_counter` carries per-fingerprint state and is therefore
    /// supplied by the caller (see [`crate::FeatureExtractor`]).
    pub fn from_packet(packet: &Packet, dst_ip_counter: u32) -> Self {
        Self::from_raw(&RawFeatures::from_packet(packet), dst_ip_counter)
    }

    /// Builds the features from a wire-scan record. Equivalent to [`FeatureVector::from_packet`] on the decoded
    /// frame — the contract `sentinel_netproto::scan` certifies.
    pub(crate) fn from_raw(raw: &RawFeatures, dst_ip_counter: u32) -> Self {
        Self::new(
            raw.protocols,
            raw.ip_option_padding,
            raw.ip_option_router_alert,
            raw.packet_size,
            raw.raw_data,
            dst_ip_counter,
            PortClass::from_port(raw.src_port),
            PortClass::from_port(raw.dst_port),
        )
    }

    /// IP header option: padding present.
    pub const fn ip_option_padding(&self) -> bool {
        self.packed >> PADDING_BIT & 1 != 0
    }

    /// IP header option: Router Alert present.
    pub const fn ip_option_router_alert(&self) -> bool {
        self.packed >> ROUTER_ALERT_BIT & 1 != 0
    }

    /// Uninterpreted payload data present.
    pub const fn raw_data(&self) -> bool {
        self.packed >> RAW_DATA_BIT & 1 != 0
    }

    /// Source port class.
    pub const fn src_port_class(&self) -> PortClass {
        PortClass::from_bits(self.packed >> SRC_PORT_SHIFT)
    }

    /// Destination port class.
    pub const fn dst_port_class(&self) -> PortClass {
        PortClass::from_bits(self.packed >> DST_PORT_SHIFT)
    }

    /// The vector in Table I order, for consumption by numeric classifiers.
    pub(crate) fn to_array(&self) -> [f64; FEATURE_COUNT] {
        let mut out = [0.0; FEATURE_COUNT];
        for (i, protocol) in Protocol::ALL.into_iter().enumerate() {
            out[i] = f64::from(u8::from(self.protocols.contains(protocol)));
        }
        let packed = self.packed;
        out[16] = f64::from(packed >> PADDING_BIT & 1);
        out[17] = f64::from(packed >> ROUTER_ALERT_BIT & 1);
        out[18] = f64::from(self.packet_size);
        out[19] = f64::from(packed >> RAW_DATA_BIT & 1);
        out[20] = f64::from(self.dst_ip_counter);
        out[21] = f64::from(packed >> SRC_PORT_SHIFT & 0b11);
        out[22] = f64::from(packed >> DST_PORT_SHIFT & 0b11);
        out
    }
}

/// All 23 features by their Table I names.
impl fmt::Debug for FeatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("FeatureVector");
        for (name, protocol) in FEATURE_NAMES.into_iter().zip(Protocol::ALL) {
            out.field(name, &self.protocols.contains(protocol));
        }
        out.field("ip_option_padding", &self.ip_option_padding())
            .field("ip_option_router_alert", &self.ip_option_router_alert())
            .field("packet_size", &self.packet_size)
            .field("raw_data", &self.raw_data())
            .field("dst_ip_counter", &self.dst_ip_counter)
            .field("src_port_class", &self.src_port_class())
            .field("dst_port_class", &self.dst_port_class())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        assert_eq!(features.src_port_class(), PortClass::NoPort);
    }

    #[test]
    fn router_alert_and_padding_flags() {
        let header = Ipv4Header {
            options: vec![Ipv4Option::RouterAlert(0), Ipv4Option::Nop],
            ..Ipv4Header::new(
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(224, 0, 0, 22),
                IpProtocol::Udp,
            )
        };
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
        assert!(features.ip_option_router_alert());
        assert!(features.ip_option_padding());
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

    #[test]
    fn size_is_pinned() {
        // A session reserves 16 of these; every byte here is 16 per session.
        assert_eq!(std::mem::size_of::<FeatureVector>(), 12);
    }

    /// Every combination of the five packed features, at the given sizes
    /// and counters and at three protocol sets, beside its Table I array
    /// written field by field.
    fn combinations(sizes: &[u32], counters: &[u32]) -> Vec<(FeatureVector, [f64; FEATURE_COUNT])> {
        const CLASSES: [PortClass; 4] = [
            PortClass::NoPort,
            PortClass::WellKnown,
            PortClass::Registered,
            PortClass::Dynamic,
        ];
        let mut out = Vec::new();
        for bits in [0, 0x8001, u16::MAX] {
            for &size in sizes {
                for &counter in counters {
                    for flags in 0u8..8 {
                        for (src, src_class) in CLASSES.into_iter().enumerate() {
                            for (dst, dst_class) in CLASSES.into_iter().enumerate() {
                                let vector = FeatureVector::new(
                                    ProtocolSet::from_bits(bits),
                                    flags & 1 != 0,
                                    flags & 2 != 0,
                                    size,
                                    flags & 4 != 0,
                                    counter,
                                    src_class,
                                    dst_class,
                                );
                                let mut array = [0.0; FEATURE_COUNT];
                                for (i, cell) in array[..16].iter_mut().enumerate() {
                                    *cell = f64::from(bits >> i & 1);
                                }
                                array[16] = f64::from(flags & 1);
                                array[17] = f64::from(flags >> 1 & 1);
                                array[18] = f64::from(size);
                                array[19] = f64::from(flags >> 2 & 1);
                                array[20] = f64::from(counter);
                                array[21] = src as f64;
                                array[22] = dst as f64;
                                out.push((vector, array));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn packing_is_a_bijection_on_the_features() {
        let bounds = [0, 1, u32::MAX];
        for (vector, array) in combinations(&bounds, &bounds) {
            assert_eq!(vector.to_array(), array, "{vector:?}");
            assert_eq!(vector.ip_option_padding(), array[16] == 1.0);
            assert_eq!(vector.ip_option_router_alert(), array[17] == 1.0);
            assert_eq!(f64::from(vector.packet_size), array[18]);
            assert_eq!(vector.raw_data(), array[19] == 1.0);
            assert_eq!(f64::from(vector.dst_ip_counter), array[20]);
            assert_eq!(f64::from(vector.src_port_class().to_u8()), array[21]);
            assert_eq!(f64::from(vector.dst_port_class().to_u8()), array[22]);
            let text = format!("{vector:?}");
            for (name, value) in FEATURE_NAMES.into_iter().zip(array) {
                let shown = match name {
                    "packet_size" => vector.packet_size.to_string(),
                    "dst_ip_counter" => vector.dst_ip_counter.to_string(),
                    "src_port_class" => format!("{:?}", vector.src_port_class()),
                    "dst_port_class" => format!("{:?}", vector.dst_port_class()),
                    _ => (value == 1.0).to_string(),
                };
                assert!(text.contains(&format!(" {name}: {shown}")), "{text}");
            }
        }
        // Two vectors are equal exactly when all their features are.
        let pairs = combinations(&[0, u32::MAX], &[1, u32::MAX]);
        for (a, array_a) in &pairs {
            for (b, array_b) in &pairs {
                assert_eq!(a == b, array_a == array_b);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn port_class_total_and_stable(port in proptest::option::of(any::<u16>())) {
            let class = PortClass::from_port(port);
            let encoded = class.to_u8();
            prop_assert!(encoded <= 3);
            prop_assert_eq!(encoded == 0, port.is_none());
            // Same port always classifies the same.
            prop_assert_eq!(PortClass::from_port(port), class);
        }

        #[test]
        fn feature_array_matches_count(counter in 0u32..100) {
            let vector = FeatureVector::from_packet(
                &Packet::dhcp_discover(MacAddr::ZERO, 1, 0),
                counter,
            );
            let array = vector.to_array();
            prop_assert_eq!(array.len(), FEATURE_COUNT);
            prop_assert_eq!(array[20], counter as f64);
            // Binary features really are binary.
            for &value in &array[0..18] {
                prop_assert!(value == 0.0 || value == 1.0);
            }
        }
    }
}
