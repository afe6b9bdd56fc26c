//! Well-known transport port numbers used for application-protocol
//! classification (Table I of the paper).

/// HTTP.
pub const HTTP: u16 = 80;
/// Alternate HTTP port common on IoT device web UIs.
pub const HTTP_ALT: u16 = 8080;
/// HTTPS (TLS).
pub const HTTPS: u16 = 443;
/// DHCP/BOOTP server.
pub const DHCP_SERVER: u16 = 67;
/// DHCP/BOOTP client.
pub const DHCP_CLIENT: u16 = 68;
/// DNS.
pub const DNS: u16 = 53;
/// Multicast DNS.
pub const MDNS: u16 = 5353;
/// Simple Service Discovery Protocol (UPnP).
pub const SSDP: u16 = 1900;
/// Network Time Protocol.
pub const NTP: u16 = 123;

/// Returns `true` if `port` is in the IANA well-known range `0..=1023`.
pub fn is_well_known(port: u16) -> bool {
    port <= 1023
}

/// Returns `true` if `port` is in the IANA registered range `1024..=49151`.
pub fn is_registered(port: u16) -> bool {
    (1024..=49151).contains(&port)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns `true` if `port` is in the IANA dynamic/ephemeral range
    /// `49152..=65535`.
    fn is_dynamic(port: u16) -> bool {
        port >= 49152
    }

    #[test]
    fn ranges_partition_port_space() {
        for port in [0u16, 80, 1023, 1024, 5353, 49151, 49152, 65535] {
            let classes = [is_well_known(port), is_registered(port), is_dynamic(port)];
            assert_eq!(
                classes.iter().filter(|&&c| c).count(),
                1,
                "port {port} must fall in exactly one class"
            );
        }
    }

    #[test]
    fn boundary_values() {
        assert!(is_well_known(1023));
        assert!(is_registered(1024));
        assert!(is_registered(49151));
        assert!(is_dynamic(49152));
    }
}
