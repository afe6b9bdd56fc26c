//! The layered packet model and its wire codec.
//!
//! Every layer knows its own encoded length (`wire_len()` /
//! `header_len()` / a `*_LEN` constant), so [`Packet::wire_len`] is a
//! sum and [`Packet::encode_into`] is one pass: the frame's length is
//! worked out first and every length field is written from it before the
//! layer it describes is encoded, straight into the caller's buffer.
//!
//! [`Packet::parse`] is the owning decoder. It shares every validity
//! check with the feature scan ([`crate::scan`]): each codec module's
//! `parse` is written over the module's own non-allocating `check` /
//! `walk_*` functions, which the scanner calls too, and the application
//! codec for a TCP/UDP payload is chosen in one place for both
//! (`AppCodec::select`: the port table, then a TLS sniff). Ingest never
//! calls `parse`; the data plane (once per enforced packet), corpus
//! collection and the CLI do. Every owned field is reserved once, sized
//! from the bytes that arrived (`tests/alloc_decode.rs`), and the nested
//! enums are assembled inside the `Packet` returned (`parse_transport`).

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::arp::ArpPacket;
use crate::dhcp::DhcpMessage;
use crate::dns::DnsMessage;
use crate::eapol::EapolPacket;
use crate::ethernet::{EtherType, EthernetHeader};
use crate::http::HttpMessage;
use crate::icmp::IcmpMessage;
use crate::icmpv6::Icmpv6Message;
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::ipv6::Ipv6Header;
use crate::llc::LlcHeader;
use crate::ntp::NtpPacket;
use crate::tcp::TcpHeader;
use crate::tls::TlsRecord;
use crate::udp::UdpHeader;
use crate::{classify, ports, MacAddr, ParseError, ProtocolSet, Timestamp};

/// An application-layer payload carried by TCP or UDP.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AppPayload {
    /// DHCP or plain BOOTP.
    Dhcp(DhcpMessage),
    /// DNS or mDNS (distinguished by port).
    Dns(DnsMessage),
    /// HTTP or SSDP (SSDP is HTTP framing over UDP 1900).
    Http(HttpMessage),
    /// A TLS record (HTTPS and other TLS-wrapped protocols).
    Tls(TlsRecord),
    /// NTP.
    Ntp(NtpPacket),
    /// Uninterpreted bytes (proprietary device protocols).
    Raw(Box<[u8]>),
    /// No payload (e.g. a bare TCP SYN).
    Empty,
}

impl AppPayload {
    /// Appends the payload bytes to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AppPayload::Dhcp(m) => m.encode(buf),
            AppPayload::Dns(m) => m.encode(buf),
            AppPayload::Http(m) => m.encode(buf),
            AppPayload::Tls(r) => r.encode(buf),
            AppPayload::Ntp(p) => p.encode(buf),
            AppPayload::Raw(bytes) => buf.extend_from_slice(bytes),
            AppPayload::Empty => {}
        }
    }

    /// Encoded length in bytes.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            AppPayload::Dhcp(m) => m.wire_len(),
            AppPayload::Dns(m) => m.wire_len(),
            AppPayload::Http(m) => m.wire_len(),
            AppPayload::Tls(r) => r.wire_len(),
            AppPayload::Ntp(_) => crate::ntp::PACKET_LEN,
            AppPayload::Raw(bytes) => bytes.len(),
            AppPayload::Empty => 0,
        }
    }

    /// Parses a payload based on the transport port pair, falling back to
    /// [`AppPayload::Raw`] when the protocol suggested by the ports does
    /// not parse.
    pub fn parse(bytes: &[u8], src_port: u16, dst_port: u16) -> Self {
        if bytes.is_empty() {
            return AppPayload::Empty;
        }
        // Each arm builds what it returns: no `Option` to move out of.
        let raw = |_| AppPayload::Raw(bytes.into());
        match AppCodec::select(bytes, src_port, dst_port) {
            Some(AppCodec::Dhcp) => DhcpMessage::parse(bytes).map_or_else(raw, AppPayload::Dhcp),
            Some(AppCodec::Dns) => DnsMessage::parse(bytes).map_or_else(raw, AppPayload::Dns),
            Some(AppCodec::Http) => HttpMessage::parse(bytes).map_or_else(raw, AppPayload::Http),
            Some(AppCodec::Tls) => TlsRecord::parse(bytes).map_or_else(raw, AppPayload::Tls),
            Some(AppCodec::Ntp) => NtpPacket::parse(bytes).map_or_else(raw, AppPayload::Ntp),
            None => AppPayload::Raw(bytes.into()),
        }
    }

    /// The codec that parsed this payload; `None` for `Raw` and `Empty`.
    pub(crate) fn codec(&self) -> Option<AppCodec> {
        match self {
            AppPayload::Dhcp(_) => Some(AppCodec::Dhcp),
            AppPayload::Dns(_) => Some(AppCodec::Dns),
            AppPayload::Http(_) => Some(AppCodec::Http),
            AppPayload::Tls(_) => Some(AppCodec::Tls),
            AppPayload::Ntp(_) => Some(AppCodec::Ntp),
            AppPayload::Raw(_) | AppPayload::Empty => None,
        }
    }
}

/// The application codecs a TCP/UDP payload can be handed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AppCodec {
    Dhcp,
    Dns,
    Http,
    Tls,
    Ntp,
}

impl AppCodec {
    /// The one dispatch both parsers use: the codec the port pair names,
    /// else TLS when the payload looks like a record. A payload its codec
    /// then rejects — or that selects none — stays raw bytes.
    pub(crate) fn select(bytes: &[u8], src_port: u16, dst_port: u16) -> Option<Self> {
        let port_is = |p: u16| src_port == p || dst_port == p;
        if port_is(ports::DHCP_SERVER) || port_is(ports::DHCP_CLIENT) {
            Some(AppCodec::Dhcp)
        } else if port_is(ports::DNS) || port_is(ports::MDNS) {
            Some(AppCodec::Dns)
        } else if port_is(ports::SSDP) || port_is(ports::HTTP) || port_is(ports::HTTP_ALT) {
            Some(AppCodec::Http)
        } else if port_is(ports::HTTPS) {
            Some(AppCodec::Tls)
        } else if port_is(ports::NTP) {
            Some(AppCodec::Ntp)
        } else {
            // Vendors run TLS on non-standard ports (the paper's traffic
            // contains e.g. port-4000 and port-8443 TLS); detect it
            // structurally so the HTTPS feature still fires.
            crate::tls::looks_like_tls(bytes).then_some(AppCodec::Tls)
        }
    }
}

/// A transport-layer segment inside an IP datagram.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Transport {
    /// TCP segment.
    Tcp {
        /// TCP header.
        header: TcpHeader,
        /// Application payload.
        payload: AppPayload,
    },
    /// UDP datagram.
    Udp {
        /// UDP header.
        header: UdpHeader,
        /// Application payload.
        payload: AppPayload,
    },
    /// ICMPv4 message.
    Icmp(IcmpMessage),
    /// ICMPv6 message.
    Icmpv6(Icmpv6Message),
    /// Any other transport protocol, kept as raw bytes.
    Other {
        /// IP protocol number.
        protocol: u8,
        /// Raw payload.
        payload: Box<[u8]>,
    },
}

impl Transport {
    /// The `(source, destination)` port pair, if this transport has ports.
    pub fn ports(&self) -> Option<(u16, u16)> {
        match self {
            Transport::Tcp { header, .. } => Some((header.src_port, header.dst_port)),
            Transport::Udp { header, .. } => Some((header.src_port, header.dst_port)),
            _ => None,
        }
    }

    /// The application payload, if this transport carries one.
    pub fn app_payload(&self) -> Option<&AppPayload> {
        match self {
            Transport::Tcp { payload, .. } | Transport::Udp { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// Encoded length in bytes: the IP payload length.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            Transport::Tcp { header, payload } => header.header_len() + payload.wire_len(),
            Transport::Udp { payload, .. } => crate::udp::HEADER_LEN + payload.wire_len(),
            Transport::Icmp(msg) => msg.wire_len(),
            Transport::Icmpv6(msg) => msg.wire_len(),
            Transport::Other { payload, .. } => payload.len(),
        }
    }

    /// Appends the segment bytes to `buf`. `len` is the segment's own
    /// [`wire_len`](Self::wire_len), which the caller has already worked
    /// out for the IP header; `v6` is the address pair of the enclosing
    /// IPv6 header, which the ICMPv6 checksum covers.
    fn encode(&self, buf: &mut Vec<u8>, len: usize, v6: Option<(Ipv6Addr, Ipv6Addr)>) {
        match self {
            Transport::Tcp { header, payload } => {
                header.encode(buf);
                payload.encode(buf);
            }
            Transport::Udp { header, payload } => {
                header.encode(buf, len - crate::udp::HEADER_LEN);
                payload.encode(buf);
            }
            Transport::Icmp(msg) => msg.encode(buf),
            Transport::Icmpv6(msg) => {
                let (src, dst) = v6.unwrap_or((Ipv6Addr::UNSPECIFIED, Ipv6Addr::UNSPECIFIED));
                msg.encode(buf, src, dst);
            }
            Transport::Other { payload, .. } => buf.extend_from_slice(payload),
        }
    }
}

/// The body of an Ethernet frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PacketBody {
    /// ARP.
    Arp(ArpPacket),
    /// EAPoL (802.1X).
    Eapol(EapolPacket),
    /// LLC (802.2) frame with opaque payload.
    Llc {
        /// LLC header.
        header: LlcHeader,
        /// Raw LLC payload.
        payload: Box<[u8]>,
    },
    /// IPv4 datagram.
    Ipv4 {
        /// IPv4 header.
        header: Ipv4Header,
        /// Transport segment.
        transport: Transport,
    },
    /// IPv6 datagram.
    Ipv6 {
        /// IPv6 header.
        header: Ipv6Header,
        /// Transport segment.
        transport: Transport,
    },
    /// Any other EtherType, kept as raw bytes.
    Other {
        /// Raw EtherType value.
        ethertype: u16,
        /// Raw frame payload.
        payload: Box<[u8]>,
    },
}

/// A captured (or synthesized) network packet with full layering.
///
/// This is the unit the Security Gateway's monitoring module records for
/// each new device, and the input to fingerprint feature extraction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Capture timestamp.
    pub timestamp: Timestamp,
    /// Source MAC address.
    pub src: MacAddr,
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Frame body.
    pub body: PacketBody,
}

impl Packet {
    /// Creates a packet from its parts.
    pub fn new(timestamp: Timestamp, src: MacAddr, dst: MacAddr, body: PacketBody) -> Self {
        Packet {
            timestamp,
            src,
            dst,
            body,
        }
    }

    /// The source MAC address.
    pub fn src_mac(&self) -> MacAddr {
        self.src
    }

    /// The destination MAC address.
    pub fn dst_mac(&self) -> MacAddr {
        self.dst
    }

    /// The destination IP address, if the packet has an IP layer.
    pub fn dst_ip(&self) -> Option<IpAddr> {
        match &self.body {
            PacketBody::Ipv4 { header, .. } => Some(IpAddr::V4(header.dst)),
            PacketBody::Ipv6 { header, .. } => Some(IpAddr::V6(header.dst)),
            _ => None,
        }
    }

    /// The source IP address, if the packet has an IP layer.
    pub fn src_ip(&self) -> Option<IpAddr> {
        match &self.body {
            PacketBody::Ipv4 { header, .. } => Some(IpAddr::V4(header.src)),
            PacketBody::Ipv6 { header, .. } => Some(IpAddr::V6(header.src)),
            _ => None,
        }
    }

    /// The transport layer, if the packet has one.
    pub fn transport(&self) -> Option<&Transport> {
        match &self.body {
            PacketBody::Ipv4 { transport, .. } | PacketBody::Ipv6 { transport, .. } => {
                Some(transport)
            }
            _ => None,
        }
    }

    /// The `(source, destination)` transport port pair, if any.
    pub fn ports(&self) -> Option<(u16, u16)> {
        self.transport().and_then(Transport::ports)
    }

    /// The source transport port, if any.
    pub fn src_port(&self) -> Option<u16> {
        self.ports().map(|(s, _)| s)
    }

    /// The destination transport port, if any.
    pub fn dst_port(&self) -> Option<u16> {
        self.ports().map(|(_, d)| d)
    }

    /// Returns `true` if the packet carries uninterpreted ("raw") payload
    /// data — the Table I `Raw data` feature.
    pub(crate) fn has_raw_data(&self) -> bool {
        match &self.body {
            PacketBody::Llc { payload, .. } | PacketBody::Other { payload, .. } => {
                !payload.is_empty()
            }
            PacketBody::Ipv4 { transport, .. } | PacketBody::Ipv6 { transport, .. } => {
                match transport {
                    Transport::Tcp { payload, .. } | Transport::Udp { payload, .. } => {
                        matches!(payload, AppPayload::Raw(b) if !b.is_empty())
                    }
                    Transport::Icmp(msg) => !msg.payload.is_empty(),
                    Transport::Icmpv6(_) => false,
                    Transport::Other { payload, .. } => !payload.is_empty(),
                }
            }
            _ => false,
        }
    }

    /// The set of protocols present in this packet (Table I features).
    pub fn protocols(&self) -> ProtocolSet {
        classify::classify(self)
    }

    /// Total frame length on the wire, in bytes — the Table I `Size`
    /// feature, and what a flow's byte counter adds per packet. Summed
    /// from the lengths every layer knows about itself: exactly the
    /// length of [`Packet::encode`]'s output, with no buffer, checksum
    /// or allocation behind it.
    pub fn wire_len(&self) -> usize {
        let body = match &self.body {
            PacketBody::Arp(_) => crate::arp::PACKET_LEN,
            PacketBody::Eapol(eapol) => eapol.wire_len(),
            PacketBody::Llc { payload, .. } => crate::llc::HEADER_LEN + payload.len(),
            PacketBody::Ipv4 { header, transport } => header.header_len() + transport.wire_len(),
            PacketBody::Ipv6 { header, transport } => header.header_len() + transport.wire_len(),
            PacketBody::Other { payload, .. } => payload.len(),
        };
        crate::ethernet::HEADER_LEN + body
    }

    /// Encodes the packet to wire bytes (Ethernet frame, no FCS).
    ///
    /// # Panics
    ///
    /// Panics on an IPv4 header the wire cannot carry, as
    /// [`Ipv4Header::encode`] does.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes into a caller-owned buffer (cleared first) in one pass.
    /// The frame's length is worked out once, reserved up front — at
    /// most one allocation, none once the buffer has seen a frame this
    /// long — and handed down: every length field on the way (LLC
    /// length, IP total length, UDP length) is what remains of it at
    /// that layer. Produces exactly the bytes of [`Packet::encode`],
    /// and panics where it does.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let body_len = self.wire_len() - crate::ethernet::HEADER_LEN;
        buf.clear();
        buf.reserve(crate::ethernet::HEADER_LEN + body_len);
        let ethertype = match &self.body {
            PacketBody::Arp(_) => EtherType::Arp,
            PacketBody::Eapol(_) => EtherType::Eapol,
            PacketBody::Llc { .. } => EtherType::Length(body_len as u16),
            PacketBody::Ipv4 { .. } => EtherType::Ipv4,
            PacketBody::Ipv6 { .. } => EtherType::Ipv6,
            PacketBody::Other { ethertype, .. } => EtherType::from_u16(*ethertype),
        };
        EthernetHeader::new(self.dst, self.src, ethertype).encode(buf);
        match &self.body {
            PacketBody::Arp(arp) => arp.encode(buf),
            PacketBody::Eapol(eapol) => eapol.encode(buf),
            PacketBody::Llc { header, payload } => {
                header.encode(buf);
                buf.extend_from_slice(payload);
            }
            PacketBody::Ipv4 { header, transport } => {
                let transport_len = body_len - header.header_len();
                header.encode(buf, transport_len);
                transport.encode(buf, transport_len, None);
            }
            PacketBody::Ipv6 { header, transport } => {
                let transport_len = body_len - header.header_len();
                header.encode(buf, transport_len);
                transport.encode(buf, transport_len, Some((header.src, header.dst)));
            }
            PacketBody::Other { payload, .. } => buf.extend_from_slice(payload),
        }
        debug_assert_eq!(buf.len(), crate::ethernet::HEADER_LEN + body_len);
    }

    /// Parses a packet from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformed layer.
    /// Unknown protocols at any layer degrade gracefully to `Other`/`Raw`
    /// variants instead of failing.
    pub fn parse(bytes: &[u8], timestamp: Timestamp) -> Result<Self, ParseError> {
        let (eth, rest) = EthernetHeader::parse(bytes)?;
        let body = match eth.ethertype {
            EtherType::Arp => PacketBody::Arp(ArpPacket::parse(rest)?),
            EtherType::Eapol => PacketBody::Eapol(EapolPacket::parse(rest)?),
            EtherType::Length(_) => {
                let (header, payload) = LlcHeader::parse(rest)?;
                PacketBody::Llc {
                    header,
                    payload: payload.into(),
                }
            }
            EtherType::Ipv4 => {
                let (header, payload) = Ipv4Header::parse(rest)?;
                let transport = parse_transport(header.protocol, payload)?;
                PacketBody::Ipv4 { header, transport }
            }
            EtherType::Ipv6 => {
                let (header, payload) = Ipv6Header::parse(rest)?;
                let transport = parse_transport(header.protocol, payload)?;
                PacketBody::Ipv6 { header, transport }
            }
            EtherType::Other(ethertype) => PacketBody::Other {
                ethertype,
                payload: rest.into(),
            },
        };
        Ok(Packet {
            timestamp,
            src: eth.src,
            dst: eth.dst,
            body,
        })
    }

    // ---- Convenience constructors used by the device simulator ----

    /// A UDP-over-IPv4 packet.
    #[allow(clippy::too_many_arguments)]
    pub fn udp_ipv4(
        timestamp: Timestamp,
        src: MacAddr,
        dst: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: AppPayload,
    ) -> Self {
        Packet::new(
            timestamp,
            src,
            dst,
            PacketBody::Ipv4 {
                header: Ipv4Header::new(src_ip, dst_ip, IpProtocol::Udp),
                transport: Transport::Udp {
                    header: UdpHeader::new(src_port, dst_port),
                    payload,
                },
            },
        )
    }

    /// A TCP-over-IPv4 packet.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_ipv4(
        timestamp: Timestamp,
        src: MacAddr,
        dst: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        header: TcpHeader,
        payload: AppPayload,
    ) -> Self {
        Packet::new(
            timestamp,
            src,
            dst,
            PacketBody::Ipv4 {
                header: Ipv4Header::new(src_ip, dst_ip, IpProtocol::Tcp),
                transport: Transport::Tcp { header, payload },
            },
        )
    }

    /// A broadcast DHCPDISCOVER from `mac` at `timestamp_micros`.
    pub fn dhcp_discover(mac: MacAddr, xid: u32, timestamp_micros: u64) -> Self {
        Packet::udp_ipv4(
            Timestamp::from_micros(timestamp_micros),
            mac,
            MacAddr::BROADCAST,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            ports::DHCP_CLIENT,
            ports::DHCP_SERVER,
            AppPayload::Dhcp(DhcpMessage::discover(mac, xid)),
        )
    }

    /// A broadcast ARP probe for `target_ip`.
    pub fn arp_probe(timestamp: Timestamp, mac: MacAddr, target_ip: Ipv4Addr) -> Self {
        Packet::new(
            timestamp,
            mac,
            MacAddr::BROADCAST,
            PacketBody::Arp(ArpPacket::probe(mac, target_ip)),
        )
    }

    /// An EAPoL key-handshake message `n` from `mac` to the gateway.
    pub fn eapol_key(timestamp: Timestamp, mac: MacAddr, gateway: MacAddr, n: u8) -> Self {
        Packet::new(
            timestamp,
            mac,
            gateway,
            PacketBody::Eapol(EapolPacket::key_handshake(n)),
        )
    }

    /// A TCP SYN to `dst_ip:dst_port`.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_syn(
        timestamp: Timestamp,
        src: MacAddr,
        dst: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
    ) -> Self {
        Packet::tcp_ipv4(
            timestamp,
            src,
            dst,
            src_ip,
            dst_ip,
            TcpHeader::syn(src_port, dst_port, 0),
            AppPayload::Empty,
        )
    }
}

/// Forced into [`Packet::parse`]'s two IP arms so the segment is built
/// inside the `Packet` returned: out of line, a 144-byte `Transport` moves
/// through a `Result` and a `PacketBody` into it, ≈ 30 ns a frame.
#[inline(always)]
fn parse_transport(protocol: IpProtocol, bytes: &[u8]) -> Result<Transport, ParseError> {
    Ok(match protocol {
        IpProtocol::Tcp => {
            let (header, payload) = TcpHeader::parse(bytes)?;
            let payload = AppPayload::parse(payload, header.src_port, header.dst_port);
            Transport::Tcp { header, payload }
        }
        IpProtocol::Udp => {
            let (header, payload) = UdpHeader::parse(bytes)?;
            let payload = AppPayload::parse(payload, header.src_port, header.dst_port);
            Transport::Udp { header, payload }
        }
        IpProtocol::Icmp => Transport::Icmp(IcmpMessage::parse(bytes)?),
        IpProtocol::Icmpv6 => Transport::Icmpv6(Icmpv6Message::parse(bytes)?),
        other => Transport::Other {
            protocol: other.to_u8(),
            payload: bytes.into(),
        },
    })
}

/// Re-exported for packet construction ergonomics.
pub use crate::tcp::TcpFlags as Flags;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::Question;
    use crate::tcp::TcpFlags;
    use crate::Protocol;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([0, 1, 2, 3, 4, last])
    }

    fn roundtrip(packet: &Packet) {
        let bytes = packet.encode();
        let parsed = Packet::parse(&bytes, packet.timestamp).expect("parse");
        assert_eq!(&parsed, packet);
    }

    #[test]
    fn dhcp_discover_roundtrip() {
        roundtrip(&Packet::dhcp_discover(mac(1), 42, 1000));
    }

    #[test]
    fn arp_probe_roundtrip() {
        roundtrip(&Packet::arp_probe(
            Timestamp::from_millis(5),
            mac(2),
            Ipv4Addr::new(192, 168, 0, 17),
        ));
    }

    #[test]
    fn eapol_roundtrip() {
        roundtrip(&Packet::eapol_key(Timestamp::ZERO, mac(3), mac(0), 2));
    }

    #[test]
    fn dns_query_roundtrip() {
        roundtrip(&Packet::udp_ipv4(
            Timestamp::from_millis(10),
            mac(4),
            mac(0),
            Ipv4Addr::new(192, 168, 0, 9),
            Ipv4Addr::new(192, 168, 0, 1),
            50321,
            ports::DNS,
            AppPayload::Dns(DnsMessage::query(9, [Question::a("cloud.example")])),
        ));
    }

    #[test]
    fn tls_over_tcp_roundtrip() {
        let packet = Packet::tcp_ipv4(
            Timestamp::from_millis(20),
            mac(5),
            mac(0),
            Ipv4Addr::new(192, 168, 0, 9),
            Ipv4Addr::new(52, 29, 100, 7),
            TcpHeader::new(49200, ports::HTTPS, TcpFlags::PSH | TcpFlags::ACK),
            AppPayload::Tls(TlsRecord::client_hello(160)),
        );
        roundtrip(&packet);
        assert!(packet.protocols().contains(Protocol::Https));
    }

    #[test]
    fn llc_roundtrip() {
        roundtrip(&Packet::new(
            Timestamp::ZERO,
            mac(6),
            MacAddr::new([0x01, 0x80, 0xc2, 0, 0, 0]),
            PacketBody::Llc {
                header: LlcHeader::unnumbered(crate::llc::sap::STP),
                payload: vec![0u8; 35].into(),
            },
        ));
    }

    #[test]
    fn accessors() {
        let packet = Packet::dhcp_discover(mac(7), 1, 0);
        assert_eq!(packet.src_mac(), mac(7));
        assert_eq!(packet.dst_mac(), MacAddr::BROADCAST);
        assert_eq!(packet.dst_ip(), Some(IpAddr::V4(Ipv4Addr::BROADCAST)));
        assert_eq!(packet.ports(), Some((68, 67)));
        assert!(!packet.has_raw_data());
    }

    #[test]
    fn raw_payload_detected() {
        let packet = Packet::udp_ipv4(
            Timestamp::ZERO,
            mac(8),
            mac(0),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 3),
            20002,
            20002,
            AppPayload::Raw(b"proprietary".as_slice().into()),
        );
        assert!(packet.has_raw_data());
        roundtrip(&packet);
    }

    #[test]
    fn wire_len_matches_encoding() {
        let payloads = [
            AppPayload::Dhcp(DhcpMessage::discover(mac(9), 3)),
            AppPayload::Dns(DnsMessage::query(9, [Question::a("cloud.example")])),
            AppPayload::Http(HttpMessage::get("fw.vendor.example", "/check")),
            AppPayload::Tls(TlsRecord::client_hello(160)),
            AppPayload::Ntp(NtpPacket::client_request(7)),
            AppPayload::Raw(b"proprietary".as_slice().into()),
            AppPayload::Empty,
        ];
        for payload in payloads {
            let mut buf = Vec::new();
            payload.encode(&mut buf);
            assert_eq!(payload.wire_len(), buf.len(), "{payload:?}");
            // Under UDP (length field from the payload) and under TCP
            // with options that need NOP padding.
            let mut tcp = TcpHeader::new(49200, 4000, TcpFlags::ACK);
            tcp.options = vec![0x03, 0x03, 0x07];
            let (src_ip, dst_ip) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
            for packet in [
                Packet::udp_ipv4(
                    Timestamp::ZERO,
                    mac(9),
                    mac(0),
                    src_ip,
                    dst_ip,
                    4000,
                    4001,
                    payload.clone(),
                ),
                Packet::tcp_ipv4(
                    Timestamp::ZERO,
                    mac(9),
                    mac(0),
                    src_ip,
                    dst_ip,
                    tcp,
                    payload.clone(),
                ),
            ] {
                assert_eq!(packet.wire_len(), packet.encode().len(), "{packet:?}");
            }
        }
        let v6 = |header: Ipv6Header| {
            Packet::new(
                Timestamp::ZERO,
                mac(9),
                mac(0),
                PacketBody::Ipv6 {
                    header,
                    transport: Transport::Icmpv6(Icmpv6Message::mld2_report(2)),
                },
            )
        };
        let (src, dst): (Ipv6Addr, Ipv6Addr) =
            ("fe80::1".parse().unwrap(), "ff02::16".parse().unwrap());
        for packet in [
            Packet::arp_probe(Timestamp::ZERO, mac(9), Ipv4Addr::new(10, 0, 0, 1)),
            Packet::eapol_key(Timestamp::ZERO, mac(9), mac(0), 1),
            v6(Ipv6Header::new(src, dst, IpProtocol::Icmpv6)),
            v6(Ipv6Header::new(src, dst, IpProtocol::Icmpv6)
                .with_hop_by_hop(crate::ipv6::HopByHopOption::RouterAlert(0))
                .with_atomic_fragment(7)),
        ] {
            assert_eq!(packet.wire_len(), packet.encode().len(), "{packet:?}");
        }
    }

    #[test]
    fn checksums_patched_in_place_are_the_sums_of_the_zeroed_fields() {
        use crate::icmpv6::Icmpv6Type;
        use crate::ipv4::{internet_checksum, Ipv4Option};

        // The checksum at `at` in `bytes` is the internet checksum of
        // `pseudo` followed by `bytes` with that field zeroed.
        let summed = |what: &str, bytes: &[u8], at: usize, pseudo: &[u8]| {
            let mut zeroed = [pseudo, bytes].concat();
            zeroed[pseudo.len() + at..pseudo.len() + at + 2].fill(0);
            let expected = internet_checksum(&zeroed).to_be_bytes();
            assert_eq!(bytes[at..at + 2], expected, "{what}: {bytes:02x?}");
        };
        let data = |n: usize| (0..n as u8).map(|i| i ^ 0xa5).collect::<Vec<u8>>();
        let frame = |body| Packet::new(Timestamp::ZERO, mac(12), mac(0), body);
        let eth = crate::ethernet::HEADER_LEN;

        // IPv4 headers with 0, 1, 3 and 40 bytes of options, each over an
        // ICMP echo of an even and an odd length.
        let options = [
            vec![],
            vec![Ipv4Option::Nop],
            vec![Ipv4Option::Other {
                kind: 7,
                data: data(1),
            }],
            vec![
                Ipv4Option::RouterAlert(0),
                Ipv4Option::Nop,
                Ipv4Option::Other {
                    kind: 130,
                    data: data(33),
                },
            ],
        ];
        for (options, len) in options.into_iter().zip([0usize, 1, 3, 40]) {
            let mut header = Ipv4Header::new(
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::BROADCAST,
                IpProtocol::Icmp,
            );
            header.options = options;
            let header_len = header.header_len();
            assert_eq!(
                header_len,
                crate::ipv4::MIN_HEADER_LEN + len.div_ceil(4) * 4
            );
            for payload in [data(0), data(3), data(8)] {
                let packet = frame(PacketBody::Ipv4 {
                    header: header.clone(),
                    transport: Transport::Icmp(IcmpMessage::echo_request(7, 1, payload)),
                });
                let bytes = packet.encode();
                summed("ipv4 header", &bytes[eth..eth + header_len], 10, &[]);
                summed("icmp echo", &bytes[eth + header_len..], 2, &[]);
                // Padding decodes as end-of-options, which re-encodes alike.
                let parsed = Packet::parse(&bytes, packet.timestamp).expect("accepted");
                assert_eq!(parsed.encode(), bytes);
            }
        }

        // ICMPv6: the sum covers the IPv6 pseudo-header, an even and an
        // odd message length.
        let (src, dst): (Ipv6Addr, Ipv6Addr) =
            ("fe80::1".parse().unwrap(), "ff02::16".parse().unwrap());
        for message in [
            Icmpv6Message::mld2_report(2),
            Icmpv6Message::new(Icmpv6Type::Other(200), 0, data(3)),
        ] {
            let packet = frame(PacketBody::Ipv6 {
                header: Ipv6Header::new(src, dst, IpProtocol::Icmpv6),
                transport: Transport::Icmpv6(message),
            });
            let bytes = packet.encode();
            let message = &bytes[eth + crate::ipv6::HEADER_LEN..];
            let length = (message.len() as u32).to_be_bytes();
            let pseudo = [&src.octets()[..], &dst.octets(), &length, &[0, 0, 0, 58]].concat();
            summed("icmpv6", message, 2, &pseudo);
            assert_eq!(Packet::parse(&bytes, packet.timestamp), Ok(packet));
        }
    }

    #[test]
    fn unknown_ethertype_preserved() {
        let packet = Packet::new(
            Timestamp::ZERO,
            mac(10),
            mac(0),
            PacketBody::Other {
                ethertype: 0x88cc, // LLDP
                payload: vec![1, 2, 3].into(),
            },
        );
        roundtrip(&packet);
    }

    #[test]
    fn ipv6_icmpv6_roundtrip() {
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let dst: Ipv6Addr = "ff02::2".parse().unwrap();
        let packet = Packet::new(
            Timestamp::from_millis(1),
            mac(11),
            MacAddr::new([0x33, 0x33, 0, 0, 0, 2]),
            PacketBody::Ipv6 {
                header: Ipv6Header::new(src, dst, IpProtocol::Icmpv6),
                transport: Transport::Icmpv6(Icmpv6Message::router_solicitation()),
            },
        );
        roundtrip(&packet);
    }
}
