//! DHCP (RFC 2131) and plain BOOTP (RFC 951) messages.
//!
//! The paper's Table I lists DHCP and BOOTP as *separate* application-layer
//! features: every DHCP message is carried in a BOOTP frame (so the BOOTP
//! bit accompanies the DHCP bit), while pre-DHCP devices emit BOOTP frames
//! with no DHCP magic cookie (BOOTP bit only). [`DhcpMessage::is_dhcp`]
//! makes the distinction.

use std::net::Ipv4Addr;

use bytes::BufMut;
use serde::{Deserialize, Serialize};

use crate::{MacAddr, ParseError};

/// Minimum (fixed-portion) length of a BOOTP message.
pub const FIXED_LEN: usize = 236;

/// The DHCP magic cookie distinguishing DHCP from plain BOOTP.
pub const MAGIC_COOKIE: [u8; 4] = [99, 130, 83, 99];

/// BOOTP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BootpOp {
    /// Client request (1).
    Request,
    /// Server reply (2).
    Reply,
}

impl BootpOp {
    fn to_u8(self) -> u8 {
        match self {
            BootpOp::Request => 1,
            BootpOp::Reply => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ParseError> {
        match v {
            1 => Ok(BootpOp::Request),
            2 => Ok(BootpOp::Reply),
            _ => Err(ParseError::invalid("bootp", "op is not request or reply")),
        }
    }
}

/// DHCP message type (option 53).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DhcpMessageType {
    /// DHCPDISCOVER (1).
    Discover,
    /// DHCPOFFER (2).
    Offer,
    /// DHCPREQUEST (3).
    Request,
    /// DHCPDECLINE (4).
    Decline,
    /// DHCPACK (5).
    Ack,
    /// DHCPNAK (6).
    Nak,
    /// DHCPRELEASE (7).
    Release,
    /// DHCPINFORM (8).
    Inform,
}

impl DhcpMessageType {
    fn to_u8(self) -> u8 {
        match self {
            DhcpMessageType::Discover => 1,
            DhcpMessageType::Offer => 2,
            DhcpMessageType::Request => 3,
            DhcpMessageType::Decline => 4,
            DhcpMessageType::Ack => 5,
            DhcpMessageType::Nak => 6,
            DhcpMessageType::Release => 7,
            DhcpMessageType::Inform => 8,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ParseError> {
        Ok(match v {
            1 => DhcpMessageType::Discover,
            2 => DhcpMessageType::Offer,
            3 => DhcpMessageType::Request,
            4 => DhcpMessageType::Decline,
            5 => DhcpMessageType::Ack,
            6 => DhcpMessageType::Nak,
            7 => DhcpMessageType::Release,
            8 => DhcpMessageType::Inform,
            _ => return Err(ParseError::invalid("dhcp", "unknown message type")),
        })
    }
}

/// A DHCP option.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DhcpOption {
    /// Message type (53).
    MessageType(DhcpMessageType),
    /// Requested IP address (50).
    RequestedIp(Ipv4Addr),
    /// Server identifier (54).
    ServerId(Ipv4Addr),
    /// Parameter request list (55).
    ParameterRequestList(Vec<u8>),
    /// Host name (12).
    HostName(String),
    /// Vendor class identifier (60).
    VendorClassId(String),
    /// Client identifier (61): hardware type + MAC.
    ClientId(MacAddr),
    /// Maximum DHCP message size (57).
    MaxMessageSize(u16),
    /// Any other option, kept verbatim.
    Other {
        /// Raw option code.
        code: u8,
        /// Raw option data.
        data: Vec<u8>,
    },
}

impl DhcpOption {
    /// Encoded length: code byte, length byte, data.
    fn encoded_len(&self) -> usize {
        2 + match self {
            DhcpOption::MessageType(_) => 1,
            DhcpOption::RequestedIp(_) | DhcpOption::ServerId(_) => 4,
            DhcpOption::ParameterRequestList(params) => params.len(),
            DhcpOption::HostName(text) | DhcpOption::VendorClassId(text) => text.len(),
            DhcpOption::ClientId(_) => 7,
            DhcpOption::MaxMessageSize(_) => 2,
            DhcpOption::Other { data, .. } => data.len(),
        }
    }

    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            DhcpOption::MessageType(t) => {
                buf.put_u8(53);
                buf.put_u8(1);
                buf.put_u8(t.to_u8());
            }
            DhcpOption::RequestedIp(ip) => {
                buf.put_u8(50);
                buf.put_u8(4);
                buf.put_slice(&ip.octets());
            }
            DhcpOption::ServerId(ip) => {
                buf.put_u8(54);
                buf.put_u8(4);
                buf.put_slice(&ip.octets());
            }
            DhcpOption::ParameterRequestList(params) => {
                buf.put_u8(55);
                buf.put_u8(params.len() as u8);
                buf.put_slice(params);
            }
            DhcpOption::HostName(name) => {
                buf.put_u8(12);
                buf.put_u8(name.len() as u8);
                buf.put_slice(name.as_bytes());
            }
            DhcpOption::VendorClassId(id) => {
                buf.put_u8(60);
                buf.put_u8(id.len() as u8);
                buf.put_slice(id.as_bytes());
            }
            DhcpOption::ClientId(mac) => {
                buf.put_u8(61);
                buf.put_u8(7);
                buf.put_u8(1); // hardware type: Ethernet
                buf.put_slice(&mac.octets());
            }
            DhcpOption::MaxMessageSize(size) => {
                buf.put_u8(57);
                buf.put_u8(2);
                buf.put_u16(*size);
            }
            DhcpOption::Other { code, data } => {
                buf.put_u8(*code);
                buf.put_u8(data.len() as u8);
                buf.put_slice(data);
            }
        }
    }

    /// The length and content rules of the modeled options — all an
    /// option needs to parse, and all the feature scan asks of it.
    /// Forced into the option walk: out of line, the call and its
    /// by-memory `Result` cost the scan ~2 ns per option.
    #[inline(always)]
    fn check(code: u8, data: &[u8]) -> Result<(), ParseError> {
        // Message type, the two addresses and the maximum message size
        // have one valid length each.
        let fixed_len = match code {
            53 => 1,
            50 | 54 => 4,
            57 => 2,
            _ => data.len(),
        };
        if data.len() != fixed_len {
            return Err(ParseError::invalid("dhcp option", "wrong length"));
        }
        match code {
            53 => DhcpMessageType::from_u8(data[0]).map(drop),
            12 | 60 if std::str::from_utf8(data).is_err() => {
                Err(ParseError::invalid("dhcp option", "text not utf-8"))
            }
            _ => Ok(()),
        }
    }

    fn parse(code: u8, data: &[u8]) -> Result<Self, ParseError> {
        Self::check(code, data)?;
        // `check` passed: the lengths indexed below and the UTF-8 hold.
        let ip = || Ipv4Addr::new(data[0], data[1], data[2], data[3]);
        let text = || String::from_utf8_lossy(data).into_owned();
        Ok(match code {
            53 => DhcpOption::MessageType(DhcpMessageType::from_u8(data[0])?),
            50 => DhcpOption::RequestedIp(ip()),
            54 => DhcpOption::ServerId(ip()),
            55 => DhcpOption::ParameterRequestList(data.to_vec()),
            12 => DhcpOption::HostName(text()),
            60 => DhcpOption::VendorClassId(text()),
            61 if data.len() == 7 && data[0] == 1 => {
                DhcpOption::ClientId(MacAddr::new(data[1..7].try_into().expect("slice of 6")))
            }
            57 => DhcpOption::MaxMessageSize(u16::from_be_bytes([data[0], data[1]])),
            code => DhcpOption::Other {
                code,
                data: data.to_vec(),
            },
        })
    }
}

/// A DHCP/BOOTP message.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DhcpMessage {
    /// Operation (request/reply).
    pub op: BootpOp,
    /// Transaction ID.
    pub xid: u32,
    /// Seconds elapsed since the client began acquisition.
    pub secs: u16,
    /// Broadcast flag.
    pub broadcast: bool,
    /// Client IP address (when renewing).
    pub ciaddr: Ipv4Addr,
    /// "Your" IP address (assigned by server).
    pub yiaddr: Ipv4Addr,
    /// Server IP address.
    pub siaddr: Ipv4Addr,
    /// Relay agent IP address.
    pub giaddr: Ipv4Addr,
    /// Client hardware address.
    pub chaddr: MacAddr,
    /// DHCP options. Empty for a plain BOOTP message.
    pub options: Vec<DhcpOption>,
    /// Whether the message carries the DHCP magic cookie.
    pub dhcp: bool,
}

impl DhcpMessage {
    /// A DHCPDISCOVER broadcast from `mac`.
    pub fn discover(mac: MacAddr, xid: u32) -> Self {
        DhcpMessage {
            op: BootpOp::Request,
            xid,
            secs: 0,
            broadcast: true,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            giaddr: Ipv4Addr::UNSPECIFIED,
            chaddr: mac,
            options: vec![
                DhcpOption::MessageType(DhcpMessageType::Discover),
                DhcpOption::ClientId(mac),
                DhcpOption::ParameterRequestList(vec![1, 3, 6, 15]),
            ],
            dhcp: true,
        }
    }

    /// A DHCPREQUEST for `requested` from `mac`.
    pub fn request(mac: MacAddr, xid: u32, requested: Ipv4Addr, server: Ipv4Addr) -> Self {
        let mut msg = DhcpMessage::discover(mac, xid);
        msg.options = vec![
            DhcpOption::MessageType(DhcpMessageType::Request),
            DhcpOption::ClientId(mac),
            DhcpOption::RequestedIp(requested),
            DhcpOption::ServerId(server),
        ];
        msg
    }

    /// A plain BOOTP request (no DHCP options/magic cookie).
    pub fn bootp_request(mac: MacAddr, xid: u32) -> Self {
        let mut msg = DhcpMessage::discover(mac, xid);
        msg.options.clear();
        msg.dhcp = false;
        msg
    }

    /// Returns `true` if this is a DHCP message (magic cookie present), as
    /// opposed to plain BOOTP.
    pub fn is_dhcp(&self) -> bool {
        self.dhcp
    }

    /// The DHCP message type, if the option is present.
    pub fn message_type(&self) -> Option<DhcpMessageType> {
        self.options.iter().find_map(|opt| match opt {
            DhcpOption::MessageType(t) => Some(*t),
            _ => None,
        })
    }

    /// Appends the message bytes to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.op.to_u8());
        buf.put_u8(1); // htype: Ethernet
        buf.put_u8(6); // hlen
        buf.put_u8(0); // hops
        buf.put_u32(self.xid);
        buf.put_u16(self.secs);
        buf.put_u16(if self.broadcast { 0x8000 } else { 0 });
        buf.put_slice(&self.ciaddr.octets());
        buf.put_slice(&self.yiaddr.octets());
        buf.put_slice(&self.siaddr.octets());
        buf.put_slice(&self.giaddr.octets());
        buf.put_slice(&self.chaddr.octets());
        buf.put_slice(&[0u8; 10]); // chaddr padding
        buf.put_slice(&[0u8; 64]); // sname
        buf.put_slice(&[0u8; 128]); // file
        if self.dhcp {
            buf.put_slice(&MAGIC_COOKIE);
            for option in &self.options {
                option.encode(buf);
            }
            buf.put_u8(255); // end option
        }
    }

    /// Wire length of the encoded message: the fixed BOOTP portion,
    /// plus — for DHCP — the cookie, every option and the end marker.
    pub fn wire_len(&self) -> usize {
        if !self.dhcp {
            return FIXED_LEN;
        }
        dhcp_len(self.options.iter().map(DhcpOption::encoded_len).sum())
    }

    /// Parses a DHCP/BOOTP message.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] or [`ParseError::Invalid`] on
    /// malformed input.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        let (op, options_area) = check(bytes)?;
        let xid = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let secs = u16::from_be_bytes([bytes[8], bytes[9]]);
        let broadcast = u16::from_be_bytes([bytes[10], bytes[11]]) & 0x8000 != 0;
        let addr = |o: usize| Ipv4Addr::new(bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]);
        let chaddr = MacAddr::new(bytes[28..34].try_into().expect("slice of 6"));
        let mut options = Vec::new();
        if let Some(area) = options_area {
            // One reservation: a first walk counts, the second reports.
            let mut count = 0;
            let _ = walk_options(area, |_, _| {
                count += 1;
                Ok(())
            });
            options.reserve_exact(count);
            walk_options(area, |code, data| {
                options.push(DhcpOption::parse(code, data)?);
                Ok(())
            })?;
        }
        Ok(DhcpMessage {
            op,
            xid,
            secs,
            broadcast,
            ciaddr: addr(12),
            yiaddr: addr(16),
            siaddr: addr(20),
            giaddr: addr(24),
            chaddr,
            options,
            dhcp: options_area.is_some(),
        })
    }
}

/// Length of a DHCP message whose options encode to `options` bytes:
/// the fixed BOOTP portion, the cookie, the options and the end marker.
fn dhcp_len(options: usize) -> usize {
    FIXED_LEN + MAGIC_COOKIE.len() + options + 1
}

/// Validates the fixed BOOTP portion, returning the operation and — for
/// DHCP — the options area after the magic cookie.
fn check(bytes: &[u8]) -> Result<(BootpOp, Option<&[u8]>), ParseError> {
    if bytes.len() < FIXED_LEN {
        return Err(ParseError::truncated("bootp", FIXED_LEN, bytes.len()));
    }
    let op = BootpOp::from_u8(bytes[0])?;
    if bytes[1] != 1 || bytes[2] != 6 {
        return Err(ParseError::invalid("bootp", "non-ethernet hardware"));
    }
    Ok((op, bytes[FIXED_LEN..].strip_prefix(&MAGIC_COOKIE)))
}

/// Walks a DHCP options area up to its end marker, handing each
/// `(code, data)` to `option`; pad bytes are skipped, and whatever
/// follows the end marker is not part of the message.
fn walk_options<'a>(
    mut rest: &'a [u8],
    mut option: impl FnMut(u8, &'a [u8]) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    while let Some(&code) = rest.first() {
        match code {
            255 => break,
            0 => rest = &rest[1..], // pad
            _ => {
                if rest.len() < 2 {
                    return Err(ParseError::truncated("dhcp option", 2, rest.len()));
                }
                let len = rest[1] as usize;
                if rest.len() < 2 + len {
                    return Err(ParseError::truncated("dhcp option", 2 + len, rest.len()));
                }
                option(code, &rest[2..2 + len])?;
                rest = &rest[2 + len..];
            }
        }
    }
    Ok(())
}

/// The feature scan of a BOOTP/DHCP message: `(re-encoded length, is
/// DHCP)`, failing exactly when [`DhcpMessage::parse`] fails. Pad bytes
/// and everything past the end marker are not re-encoded, the end marker
/// always is, and plain BOOTP re-encodes to its fixed portion.
pub(crate) fn scan(bytes: &[u8]) -> Result<(usize, bool), ParseError> {
    let Some(area) = check(bytes)?.1 else {
        return Ok((FIXED_LEN, false));
    };
    let mut options = 0;
    walk_options(area, |code, data| {
        options += 2 + data.len();
        DhcpOption::check(code, data)
    })?;
    Ok((dhcp_len(options), true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> MacAddr {
        MacAddr::new([0xb0, 0xc5, 0x54, 1, 2, 3])
    }

    #[test]
    fn discover_roundtrip() {
        let msg = DhcpMessage::discover(mac(), 0xdeadbeef);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let parsed = DhcpMessage::parse(&buf).unwrap();
        assert_eq!(parsed, msg);
        assert!(parsed.is_dhcp());
        assert_eq!(parsed.message_type(), Some(DhcpMessageType::Discover));
    }

    #[test]
    fn request_roundtrip() {
        let msg = DhcpMessage::request(
            mac(),
            7,
            Ipv4Addr::new(192, 168, 0, 33),
            Ipv4Addr::new(192, 168, 0, 1),
        );
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let parsed = DhcpMessage::parse(&buf).unwrap();
        assert_eq!(parsed.message_type(), Some(DhcpMessageType::Request));
        assert_eq!(parsed, msg);
    }

    #[test]
    fn wire_len_is_the_encoded_length() {
        let mut every_option = DhcpMessage::request(
            mac(),
            9,
            Ipv4Addr::new(192, 168, 0, 33),
            Ipv4Addr::new(192, 168, 0, 1),
        );
        every_option.options.extend([
            DhcpOption::ParameterRequestList(vec![1, 3, 6, 15, 28]),
            DhcpOption::HostName("EdimaxPlug".into()),
            DhcpOption::VendorClassId(String::new()),
            DhcpOption::MaxMessageSize(1500),
            DhcpOption::Other {
                code: 43,
                data: vec![7; 19],
            },
        ]);
        // BOOTP ignores its options on the wire: no cookie, no end marker.
        let mut bootp_with_options = every_option.clone();
        bootp_with_options.dhcp = false;
        for msg in [
            DhcpMessage::discover(mac(), 1),
            DhcpMessage::bootp_request(mac(), 2),
            every_option,
            bootp_with_options,
        ] {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            assert_eq!(msg.wire_len(), buf.len(), "{msg:?}");
        }
    }

    #[test]
    fn plain_bootp_has_no_dhcp_cookie() {
        let msg = DhcpMessage::bootp_request(mac(), 1);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(buf.len(), FIXED_LEN);
        let parsed = DhcpMessage::parse(&buf).unwrap();
        assert!(!parsed.is_dhcp());
        assert_eq!(parsed.message_type(), None);
    }

    #[test]
    fn options_with_padding_parse() {
        let msg = DhcpMessage::discover(mac(), 2);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        // Insert pad bytes before the end marker.
        let end = buf.len() - 1;
        buf.splice(end..end, [0u8, 0u8]);
        let parsed = DhcpMessage::parse(&buf).unwrap();
        assert_eq!(parsed.options, msg.options);
    }

    #[test]
    fn truncated_rejected() {
        assert!(DhcpMessage::parse(&[0u8; 100]).is_err());
    }

    #[test]
    fn vendor_class_roundtrip() {
        let mut msg = DhcpMessage::discover(mac(), 3);
        msg.options
            .push(DhcpOption::VendorClassId("udhcp 1.21.1".into()));
        msg.options.push(DhcpOption::HostName("EdimaxPlug".into()));
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(DhcpMessage::parse(&buf).unwrap(), msg);
    }
}
