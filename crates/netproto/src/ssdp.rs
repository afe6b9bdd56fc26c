//! Simple Service Discovery Protocol (UPnP discovery over UDP 1900).
//!
//! SSDP reuses HTTP framing; this module provides constructors for the two
//! message kinds IoT devices emit during setup: `M-SEARCH` discovery
//! probes and `NOTIFY ssdp:alive` presence announcements.

use crate::http::{Headers, HttpMessage, Method};

/// The SSDP multicast IPv4 address.
pub const MULTICAST_ADDR: std::net::Ipv4Addr = std::net::Ipv4Addr::new(239, 255, 255, 250);

/// Builds an `M-SEARCH` discovery probe for `search_target`
/// (e.g. `upnp:rootdevice` or `ssdp:all`).
pub fn m_search(search_target: &str) -> HttpMessage {
    HttpMessage::Request {
        method: Method::MSearch,
        target: "*".into(),
        headers: Headers::from_iter([
            ("HOST", format!("{MULTICAST_ADDR}:1900").as_str()),
            ("MAN", "\"ssdp:discover\""),
            ("MX", "3"),
            ("ST", search_target),
        ]),
        body: bytes::Bytes::new(),
    }
}

/// Builds a `NOTIFY ssdp:alive` announcement for a device of `device_type`
/// whose description document lives at `location`.
pub fn notify_alive(device_type: &str, location: &str) -> HttpMessage {
    HttpMessage::Request {
        method: Method::Notify,
        target: "*".into(),
        headers: Headers::from_iter([
            ("HOST", format!("{MULTICAST_ADDR}:1900").as_str()),
            ("CACHE-CONTROL", "max-age=1800"),
            ("LOCATION", location),
            ("NT", device_type),
            ("NTS", "ssdp:alive"),
            ("USN", format!("uuid::{device_type}").as_str()),
        ]),
        body: bytes::Bytes::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_search_has_discover_man_header() {
        let msg = m_search("upnp:rootdevice");
        assert_eq!(msg.header("MAN"), Some("\"ssdp:discover\""));
        assert_eq!(msg.header("ST"), Some("upnp:rootdevice"));
        let parsed = HttpMessage::parse(&msg.to_bytes()).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn notify_is_alive() {
        let msg = notify_alive(
            "urn:Belkin:device:insight:1",
            "http://10.0.0.5:49153/setup.xml",
        );
        assert_eq!(msg.header("NTS"), Some("ssdp:alive"));
        assert!(matches!(
            msg,
            HttpMessage::Request {
                method: Method::Notify,
                ..
            }
        ));
    }
}
