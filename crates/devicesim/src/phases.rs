//! Setup-phase building blocks.

use std::net::Ipv4Addr;

/// Destination selector for proprietary raw-protocol phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RawDest {
    /// The gateway / local broadcast domain.
    Gateway,
    /// Local subnet broadcast.
    Broadcast,
    /// A profile endpoint by index.
    Endpoint(usize),
    /// A fixed multicast group.
    Multicast(Ipv4Addr),
}

/// One step of a device's setup procedure.
///
/// Each phase expands to the packets *sent by the device* (the gateway's
/// fingerprint only records device-originated traffic). Phases reference
/// remote endpoints by index into [`crate::DeviceProfile::endpoints`].
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// WPA2 4-way handshake: the device (supplicant) sends messages 2
    /// and 4.
    Eapol,
    /// DHCP DISCOVER + REQUEST with device-specific options. The option
    /// strings change the packet size, a strong fingerprint signal.
    Dhcp {
        /// Host name option (12), if the firmware sends one.
        hostname: Option<String>,
        /// Vendor class identifier option (60), if sent.
        vendor_class: Option<String>,
        /// Parameter request list option (55).
        param_list: Vec<u8>,
    },
    /// RFC 5227 ARP probes for the assigned address, optionally followed
    /// by a gratuitous announcement.
    ArpProbe {
        /// Number of probe packets.
        count: u8,
        /// Whether a gratuitous announcement follows.
        announce: bool,
    },
    /// IPv6 stack bring-up: MLDv2 report (with Router Alert + padding
    /// hop-by-hop options), optional router solicitation — exercises the
    /// ICMPv6 and IP-option fingerprint features.
    Ipv6Bringup {
        /// Group records in the MLD report.
        mld_records: u16,
        /// Whether a router solicitation is sent.
        router_solicit: bool,
    },
    /// DNS lookup of an endpoint via the gateway resolver.
    Dns {
        /// Endpoint index to resolve.
        endpoint: usize,
        /// Also query AAAA.
        aaaa: bool,
    },
    /// SNTP time synchronization.
    Ntp {
        /// Endpoint index of the NTP server.
        endpoint: usize,
        /// Number of request packets.
        count: u8,
    },
    /// A TLS session to a cloud endpoint: SYN, ClientHello, then
    /// application records of the given sizes.
    Tls {
        /// Endpoint index.
        endpoint: usize,
        /// Server port (443 for HTTPS; some vendors use odd ports).
        port: u16,
        /// ClientHello payload size.
        hello_size: u32,
        /// Application-data record sizes, one packet each.
        records: Vec<u32>,
    },
    /// A plain-HTTP GET (SYN + request).
    HttpGet {
        /// Endpoint index.
        endpoint: usize,
        /// Request target.
        path: String,
    },
    /// A plain-HTTP POST with a body (SYN + request).
    HttpPost {
        /// Endpoint index.
        endpoint: usize,
        /// Request target.
        path: String,
        /// Body size in bytes.
        body_size: u32,
    },
    /// SSDP `M-SEARCH` discovery probes.
    SsdpSearch {
        /// Search target header value.
        target: String,
        /// Number of probes.
        count: u8,
    },
    /// SSDP `NOTIFY ssdp:alive` announcements.
    SsdpNotify {
        /// UPnP device type announced.
        device_type: String,
        /// Number of announcements.
        count: u8,
    },
    /// mDNS service announcements.
    MdnsAnnounce {
        /// Service instance names announced (PTR records).
        services: Vec<String>,
    },
    /// An mDNS PTR query.
    MdnsQuery {
        /// Service name queried.
        service: String,
    },
    /// Proprietary protocol over TCP: SYN plus raw segments.
    TcpRaw {
        /// Destination.
        dest: RawDest,
        /// Destination port.
        port: u16,
        /// Segment payload sizes.
        sizes: Vec<u32>,
    },
    /// Proprietary protocol over UDP: raw datagrams.
    UdpRaw {
        /// Destination.
        dest: RawDest,
        /// Destination port.
        port: u16,
        /// Datagram payload sizes.
        sizes: Vec<u32>,
    },
    /// ICMP echo requests to the gateway (connectivity check).
    Ping {
        /// Number of echo requests.
        count: u8,
    },
    /// Spanning-tree BPDUs over 802.2 LLC — bridge-capable wired devices
    /// emit these while their Ethernet port negotiates (the Table I LLC
    /// feature).
    Stp {
        /// Number of BPDUs.
        count: u8,
    },
    /// Idle time between phases (drives the setup-end detector).
    Pause {
        /// Pause length in milliseconds.
        millis: u64,
    },
    /// A phase the firmware executes only sometimes (retries, optional
    /// discovery) — the per-run stochastic component.
    Optional {
        /// Execution probability in `[0, 1]`.
        prob: f64,
        /// The phase to maybe execute.
        phase: Box<Phase>,
    },
}

impl Phase {
    /// Wraps a phase so it executes with probability `prob` per run.
    pub(crate) fn optional(prob: f64, phase: Phase) -> Phase {
        Phase::Optional {
            prob,
            phase: Box::new(phase),
        }
    }

    /// A standard DHCP phase with the given hostname.
    pub fn dhcp(hostname: &str) -> Phase {
        Phase::Dhcp {
            hostname: Some(hostname.to_owned()),
            vendor_class: None,
            param_list: vec![1, 3, 6, 15, 28],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_wraps() {
        let phase = Phase::optional(0.5, Phase::Ping { count: 1 });
        match phase {
            Phase::Optional { prob, phase } => {
                assert_eq!(prob, 0.5);
                assert_eq!(*phase, Phase::Ping { count: 1 });
            }
            other => panic!("expected optional, got {other:?}"),
        }
    }

    #[test]
    fn dhcp_helper_sets_hostname() {
        match Phase::dhcp("Aria") {
            Phase::Dhcp { hostname, .. } => assert_eq!(hostname.as_deref(), Some("Aria")),
            other => panic!("expected dhcp, got {other:?}"),
        }
    }
}
