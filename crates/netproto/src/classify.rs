//! Protocol classification: which of the 16 Table I protocols a packet
//! uses.
//!
//! The paper's first 16 fingerprint features are binary indicators, one
//! per protocol: 2 link-layer (ARP, LLC), 4 network-layer (IP, ICMP,
//! ICMPv6, EAPoL), 2 transport-layer (TCP, UDP) and 8 application-layer
//! (HTTP, HTTPS, DHCP, BOOTP, SSDP, DNS, MDNS, NTP). A packet can set
//! several bits at once (a DHCPDISCOVER sets IP, UDP, DHCP and BOOTP).
//!
//! [`classify`] reads the bits off a decoded [`Packet`]; the wire scan
//! ([`crate::scan`]) sets them while walking. The application-layer bit
//! has one definition for both, `app_protocol`: the codec that accepted
//! the payload and the port pair decide it, and a payload no codec
//! accepted (raw bytes, or none) falls back to the ports alone.

use std::fmt;

use crate::packet::{AppCodec, AppPayload, Packet, PacketBody, Transport};
use crate::ports;

/// One of the 16 protocols tracked by the Table I fingerprint features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Protocol {
    /// ARP (link layer).
    Arp = 0,
    /// LLC / 802.2 (link layer).
    Llc = 1,
    /// IP — v4 or v6 (network layer).
    Ip = 2,
    /// ICMPv4 (network layer).
    Icmp = 3,
    /// ICMPv6 (network layer).
    Icmpv6 = 4,
    /// EAPoL / 802.1X (network layer).
    Eapol = 5,
    /// TCP (transport layer).
    Tcp = 6,
    /// UDP (transport layer).
    Udp = 7,
    /// HTTP (application layer).
    Http = 8,
    /// HTTPS / TLS (application layer).
    Https = 9,
    /// DHCP (application layer).
    Dhcp = 10,
    /// BOOTP (application layer; every DHCP message is also BOOTP).
    Bootp = 11,
    /// SSDP (application layer).
    Ssdp = 12,
    /// DNS (application layer).
    Dns = 13,
    /// Multicast DNS (application layer).
    Mdns = 14,
    /// NTP (application layer).
    Ntp = 15,
}

impl Protocol {
    /// All 16 protocols in Table I order.
    pub const ALL: [Protocol; 16] = [
        Protocol::Arp,
        Protocol::Llc,
        Protocol::Ip,
        Protocol::Icmp,
        Protocol::Icmpv6,
        Protocol::Eapol,
        Protocol::Tcp,
        Protocol::Udp,
        Protocol::Http,
        Protocol::Https,
        Protocol::Dhcp,
        Protocol::Bootp,
        Protocol::Ssdp,
        Protocol::Dns,
        Protocol::Mdns,
        Protocol::Ntp,
    ];

    /// The protocol's bit index (0–15) within a [`ProtocolSet`].
    pub(crate) const fn bit(self) -> u8 {
        self as u8
    }

    /// Short lowercase name (e.g. `"mdns"`).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Arp => "arp",
            Protocol::Llc => "llc",
            Protocol::Ip => "ip",
            Protocol::Icmp => "icmp",
            Protocol::Icmpv6 => "icmpv6",
            Protocol::Eapol => "eapol",
            Protocol::Tcp => "tcp",
            Protocol::Udp => "udp",
            Protocol::Http => "http",
            Protocol::Https => "https",
            Protocol::Dhcp => "dhcp",
            Protocol::Bootp => "bootp",
            Protocol::Ssdp => "ssdp",
            Protocol::Dns => "dns",
            Protocol::Mdns => "mdns",
            Protocol::Ntp => "ntp",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`Protocol`]s packed into 16 bits.
///
/// ```
/// use sentinel_netproto::{Protocol, ProtocolSet};
///
/// let mut set = ProtocolSet::new();
/// set.insert(Protocol::Udp);
/// set.insert(Protocol::Dns);
/// assert!(set.contains(Protocol::Udp));
/// assert!(!set.contains(Protocol::Tcp));
/// assert_eq!(set.iter().count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProtocolSet(u16);

impl ProtocolSet {
    /// The empty set.
    pub const fn new() -> Self {
        ProtocolSet(0)
    }

    /// Creates a set from its raw bitmask.
    pub const fn from_bits(bits: u16) -> Self {
        ProtocolSet(bits)
    }

    /// The raw bitmask.
    pub const fn bits(&self) -> u16 {
        self.0
    }

    /// Adds a protocol to the set.
    pub fn insert(&mut self, protocol: Protocol) {
        self.0 |= 1 << protocol.bit();
    }

    /// Returns `true` if the set contains `protocol`.
    pub const fn contains(&self, protocol: Protocol) -> bool {
        self.0 & (1 << protocol.bit()) != 0
    }

    /// Returns `true` if no protocols are set.
    pub const fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the protocols in the set, in Table I order.
    pub fn iter(&self) -> impl Iterator<Item = Protocol> + '_ {
        Protocol::ALL.into_iter().filter(|p| self.contains(*p))
    }
}

impl FromIterator<Protocol> for ProtocolSet {
    fn from_iter<I: IntoIterator<Item = Protocol>>(iter: I) -> Self {
        let mut set = ProtocolSet::new();
        for protocol in iter {
            set.insert(protocol);
        }
        set
    }
}

impl Extend<Protocol> for ProtocolSet {
    fn extend<I: IntoIterator<Item = Protocol>>(&mut self, iter: I) {
        for protocol in iter {
            self.insert(protocol);
        }
    }
}

impl fmt::Display for ProtocolSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for protocol in self.iter() {
            if !first {
                f.write_str("+")?;
            }
            write!(f, "{protocol}")?;
            first = false;
        }
        if first {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// Classifies a packet into its [`ProtocolSet`].
pub fn classify(packet: &Packet) -> ProtocolSet {
    let mut set = ProtocolSet::new();
    match &packet.body {
        PacketBody::Arp(_) => set.insert(Protocol::Arp),
        PacketBody::Eapol(_) => set.insert(Protocol::Eapol),
        PacketBody::Llc { .. } => set.insert(Protocol::Llc),
        PacketBody::Ipv4 { transport, .. } | PacketBody::Ipv6 { transport, .. } => {
            set.insert(Protocol::Ip);
            classify_transport(transport, &mut set);
        }
        PacketBody::Other { .. } => {}
    }
    set
}

fn classify_transport(transport: &Transport, set: &mut ProtocolSet) {
    match transport {
        Transport::Icmp(_) => set.insert(Protocol::Icmp),
        Transport::Icmpv6(_) => set.insert(Protocol::Icmpv6),
        Transport::Tcp { header, payload } => {
            set.insert(Protocol::Tcp);
            classify_app(payload, (header.src_port, header.dst_port), false, set);
        }
        Transport::Udp { header, payload } => {
            set.insert(Protocol::Udp);
            classify_app(payload, (header.src_port, header.dst_port), true, set);
        }
        Transport::Other { .. } => {}
    }
}

fn classify_app(payload: &AppPayload, ports: (u16, u16), udp: bool, set: &mut ProtocolSet) {
    if matches!(payload, AppPayload::Dhcp(msg) if msg.dhcp) {
        set.insert(Protocol::Dhcp);
    }
    set.extend(app_protocol(payload.codec(), ports, udp));
}

/// The application-layer indicator of a TCP/UDP payload — for both
/// parsers: `parsed` is the codec that accepted the payload, `None` when
/// it stayed raw bytes or is empty. (A DHCP message with the magic
/// cookie sets [`Protocol::Dhcp`] besides; its callers add that.)
pub(crate) fn app_protocol(
    parsed: Option<AppCodec>,
    (src_port, dst_port): (u16, u16),
    udp: bool,
) -> Option<Protocol> {
    let port_is = |p: u16| src_port == p || dst_port == p;
    Some(match parsed {
        Some(AppCodec::Dhcp) => Protocol::Bootp,
        Some(AppCodec::Dns) if udp && port_is(ports::MDNS) => Protocol::Mdns,
        Some(AppCodec::Dns) => Protocol::Dns,
        Some(AppCodec::Http) if udp && port_is(ports::SSDP) => Protocol::Ssdp,
        Some(AppCodec::Http) => Protocol::Http,
        Some(AppCodec::Tls) => Protocol::Https,
        Some(AppCodec::Ntp) => Protocol::Ntp,
        // No parsed payload: fall back to port-based classification so
        // that e.g. a bare SYN to :443 still counts as HTTPS intent.
        None if port_is(ports::HTTP) || port_is(ports::HTTP_ALT) => Protocol::Http,
        None if port_is(ports::HTTPS) => Protocol::Https,
        None if port_is(ports::DNS) => Protocol::Dns,
        None if udp && port_is(ports::MDNS) => Protocol::Mdns,
        None if udp && port_is(ports::SSDP) => Protocol::Ssdp,
        None if udp && port_is(ports::NTP) => Protocol::Ntp,
        None if udp && (port_is(ports::DHCP_SERVER) || port_is(ports::DHCP_CLIENT)) => {
            Protocol::Bootp
        }
        None => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::{DnsMessage, Question};
    use crate::tcp::{TcpFlags, TcpHeader};
    use crate::tls::TlsRecord;
    use crate::{MacAddr, Timestamp};
    use std::net::Ipv4Addr;

    fn mac() -> MacAddr {
        MacAddr::new([9, 9, 9, 9, 9, 9])
    }

    #[test]
    fn dhcp_sets_bootp_and_dhcp() {
        let set = Packet::dhcp_discover(mac(), 1, 0).protocols();
        for p in [Protocol::Ip, Protocol::Udp, Protocol::Dhcp, Protocol::Bootp] {
            assert!(set.contains(p), "missing {p}");
        }
        assert!(!set.contains(Protocol::Tcp));
    }

    #[test]
    fn mdns_distinguished_from_dns_by_port() {
        let dns = Packet::udp_ipv4(
            Timestamp::ZERO,
            mac(),
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            50000,
            ports::DNS,
            AppPayload::Dns(DnsMessage::query(1, [Question::a("x.example")])),
        );
        let mdns = Packet::udp_ipv4(
            Timestamp::ZERO,
            mac(),
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(224, 0, 0, 251),
            ports::MDNS,
            ports::MDNS,
            AppPayload::Dns(DnsMessage::mdns_query([Question::ptr("_http._tcp.local")])),
        );
        assert!(dns.protocols().contains(Protocol::Dns));
        assert!(!dns.protocols().contains(Protocol::Mdns));
        assert!(mdns.protocols().contains(Protocol::Mdns));
        assert!(!mdns.protocols().contains(Protocol::Dns));
    }

    #[test]
    fn ssdp_is_http_over_udp_1900() {
        let ssdp = Packet::udp_ipv4(
            Timestamp::ZERO,
            mac(),
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 2),
            crate::ssdp::MULTICAST_ADDR,
            50001,
            ports::SSDP,
            AppPayload::Http(crate::ssdp::m_search("ssdp:all")),
        );
        let set = ssdp.protocols();
        assert!(set.contains(Protocol::Ssdp));
        assert!(!set.contains(Protocol::Http));
    }

    #[test]
    fn bare_syn_classified_by_port() {
        let syn = Packet::tcp_ipv4(
            Timestamp::ZERO,
            mac(),
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(52, 0, 0, 1),
            TcpHeader::new(49200, ports::HTTPS, TcpFlags::SYN),
            AppPayload::Empty,
        );
        assert!(syn.protocols().contains(Protocol::Https));
    }

    #[test]
    fn tls_payload_is_https() {
        let packet = Packet::tcp_ipv4(
            Timestamp::ZERO,
            mac(),
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(52, 0, 0, 1),
            TcpHeader::new(49200, 8883, TcpFlags::ACK),
            AppPayload::Tls(TlsRecord::client_hello(100)),
        );
        assert!(packet.protocols().contains(Protocol::Https));
    }

    #[test]
    fn set_operations() {
        let set: ProtocolSet = [Protocol::Arp, Protocol::Ntp].into_iter().collect();
        assert_eq!(set.iter().count(), 2);
        assert_eq!(set.to_string(), "arp+ntp");
        assert!(ProtocolSet::new().is_empty());
        assert_eq!(ProtocolSet::new().to_string(), "(none)");
    }

    #[test]
    fn all_protocols_have_distinct_bits() {
        let mut seen = std::collections::HashSet::new();
        for p in Protocol::ALL {
            assert!(seen.insert(p.bit()), "duplicate bit for {p}");
            assert!(p.bit() < 16);
        }
        assert_eq!(seen.len(), 16);
    }
}
