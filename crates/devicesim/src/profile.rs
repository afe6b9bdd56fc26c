//! Device behaviour profiles.

use std::net::Ipv4Addr;

use crate::Phase;

/// A remote endpoint a device talks to during setup (vendor cloud, CDN,
/// NTP pool…). The IP is derived deterministically from the domain so a
/// given device-type always contacts the same addresses, as real devices
/// resolving the same vendor domains do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// DNS name of the endpoint.
    pub domain: String,
    /// Resolved public address.
    pub ip: Ipv4Addr,
}

impl Endpoint {
    /// Creates an endpoint with an address derived from the domain name.
    pub fn new(domain: impl Into<String>) -> Self {
        let domain = domain.into();
        let ip = derive_public_ip(&domain);
        Endpoint { domain, ip }
    }
}

/// Derives a stable, globally-routable-looking IPv4 address from a domain
/// name (FNV-1a hash folded into 52.0.0.0/10-ish space).
fn derive_public_ip(domain: &str) -> Ipv4Addr {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in domain.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    let b = ((hash >> 16) & 0x3f) as u8; // 0..64
    let c = ((hash >> 8) & 0xff) as u8;
    let d = (hash & 0xff) as u8;
    Ipv4Addr::new(52, 64 + b, c, d.max(1))
}

/// The behaviour model of one device-type: identity plus the ordered
/// setup-phase script executed when the device is inducted into a
/// network.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Device-type identifier (the paper's Table II `Identifier` column).
    pub name: String,
    /// Vendor OUI used for generated MAC addresses.
    pub oui: [u8; 3],
    /// Remote endpoints contacted during setup, in first-contact order.
    pub endpoints: Vec<Endpoint>,
    /// The setup-phase script.
    pub phases: Vec<Phase>,
    /// One standby/operation cycle (heartbeats, keep-alives, periodic
    /// re-announcements) — the traffic the paper's Sect. VIII-A proposes
    /// to fingerprint for legacy installations where the setup phase was
    /// missed.
    pub standby_phases: Vec<Phase>,
    /// Uniform packet-size jitter in bytes (models TLS randomness,
    /// variable-length headers, firmware chattiness).
    pub size_jitter: u32,
    /// Firmware version tag; bumping it shifts observable sizes, modeling
    /// the paper's observation that firmware updates change fingerprints.
    pub firmware: u32,
}

impl DeviceProfile {
    /// Creates a profile.
    pub fn new(name: impl Into<String>, oui: [u8; 3]) -> Self {
        DeviceProfile {
            name: name.into(),
            oui,
            endpoints: Vec::new(),
            phases: Vec::new(),
            standby_phases: Vec::new(),
            size_jitter: 6,
            firmware: 1,
        }
    }

    /// Adds an endpoint, returning its index for use in phases (builder
    /// style).
    pub(crate) fn endpoint(&mut self, domain: impl Into<String>) -> usize {
        self.endpoints.push(Endpoint::new(domain));
        self.endpoints.len() - 1
    }

    /// Appends many phases.
    pub fn extend_phases(&mut self, phases: impl IntoIterator<Item = Phase>) {
        self.phases.extend(phases);
    }

    /// Returns a copy with a newer firmware version (distinguishable
    /// fingerprints, per Sect. VIII-B).
    #[must_use]
    pub fn with_firmware(mut self, firmware: u32) -> Self {
        self.firmware = firmware;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_ips_are_stable_and_public_like() {
        let a = Endpoint::new("api.fitbit.com");
        let b = Endpoint::new("api.fitbit.com");
        let c = Endpoint::new("scale.withings.com");
        assert_eq!(a.ip, b.ip);
        assert_ne!(a.ip, c.ip);
        assert_eq!(a.ip.octets()[0], 52);
        assert_ne!(a.ip.octets()[3], 0);
    }

    #[test]
    fn endpoint_indices_are_sequential() {
        let mut profile = DeviceProfile::new("Test", [1, 2, 3]);
        assert_eq!(profile.endpoint("a.example"), 0);
        assert_eq!(profile.endpoint("b.example"), 1);
        assert_eq!(profile.endpoints.len(), 2);
    }

    #[test]
    fn firmware_bump_preserves_identity() {
        let profile = DeviceProfile::new("Test", [1, 2, 3]);
        let updated = profile.clone().with_firmware(2);
        assert_eq!(updated.name, profile.name);
        assert_ne!(updated.firmware, profile.firmware);
    }
}
