//! Packet substrate for the IoT Sentinel reproduction.
//!
//! This crate models the network traffic that IoT Sentinel's Security
//! Gateway observes on its WiFi and Ethernet interfaces: a layered
//! [`Packet`] representation covering every protocol the paper's
//! fingerprint features reference (Table I), wire-format encoding and
//! parsing for all of them, a pcap reader/writer so fingerprints can be
//! extracted from real captures, and protocol classification
//! ([`ProtocolSet`]) used by the fingerprinting stage.
//!
//! # Layering
//!
//! A [`Packet`] is an Ethernet frame whose body is one of the link-adjacent
//! protocols (ARP, EAPoL, LLC) or an IP datagram ([`PacketBody`]). IP
//! datagrams carry a [`Transport`] (TCP, UDP, ICMP, ICMPv6), and TCP/UDP
//! segments carry an [`AppPayload`] (DHCP/BOOTP, DNS/mDNS, HTTP, SSDP, TLS,
//! NTP, or raw bytes).
//!
//! # Example
//!
//! ```
//! use sentinel_netproto::{Packet, MacAddr, Protocol};
//!
//! # fn main() -> Result<(), sentinel_netproto::ParseError> {
//! let device = MacAddr::new([0x13, 0x73, 0x74, 0x7e, 0xa9, 0xc2]);
//! let discover = Packet::dhcp_discover(device, 0x1234_5678, 0);
//! let bytes = discover.encode();
//! let parsed = Packet::parse(&bytes, discover.timestamp)?;
//! assert_eq!(parsed.src_mac(), device);
//! assert!(parsed.protocols().contains(Protocol::Dhcp));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod classify;
pub mod dhcp;
pub mod dns;
pub mod eapol;
mod error;
pub mod ethernet;
pub mod http;
pub mod icmp;
pub mod icmpv6;
pub mod ipv4;
pub mod ipv6;
pub mod llc;
mod mac;
pub mod ntp;
pub mod packet;
pub mod pcap;
pub mod ports;
pub mod scan;
pub mod ssdp;
pub mod stream;
pub mod tcp;
mod timestamp;
pub mod tls;
pub mod udp;

pub use classify::{Protocol, ProtocolSet};
pub use error::ParseError;
pub use ethernet::EtherType;
pub use mac::MacAddr;
pub use packet::{AppPayload, Packet, PacketBody, Transport};
pub use scan::{RawFeatures, ScanOutcome, WireScan};
pub use timestamp::Timestamp;

/// The big-endian writers the encoders append fields with. Every
/// encoder writes into the one `Vec<u8>` a frame is built in, so a
/// checksum is patched into the bytes already written.
pub(crate) trait PutBe {
    fn put_u16(&mut self, value: u16);
    fn put_u32(&mut self, value: u32);
    fn put_u64(&mut self, value: u64);
}

impl PutBe for Vec<u8> {
    fn put_u16(&mut self, value: u16) {
        self.extend_from_slice(&value.to_be_bytes());
    }

    fn put_u32(&mut self, value: u32) {
        self.extend_from_slice(&value.to_be_bytes());
    }

    fn put_u64(&mut self, value: u64) {
        self.extend_from_slice(&value.to_be_bytes());
    }
}
