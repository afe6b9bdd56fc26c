//! Enforcement rules (Fig. 2) and isolation levels (Fig. 3).

use std::fmt;
use std::net::IpAddr;

use serde::Serialize;

use sentinel_netproto::MacAddr;

/// The isolation level assigned to a device after vulnerability
/// assessment (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum IsolationLevel {
    /// Untrusted overlay only; no Internet access. Assigned to unknown
    /// device-types.
    Strict,
    /// Untrusted overlay plus a whitelist of remote endpoints (the
    /// vendor's cloud service). Assigned to types with known
    /// vulnerabilities.
    Restricted,
    /// Trusted overlay and unrestricted Internet access. Assigned to
    /// types with no known vulnerabilities.
    Trusted,
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IsolationLevel::Strict => "strict",
            IsolationLevel::Restricted => "restricted",
            IsolationLevel::Trusted => "trusted",
        })
    }
}

/// A per-device enforcement rule, keyed by the device's MAC address
/// (Fig. 2). For [`IsolationLevel::Restricted`] devices the rule carries
/// the permitted remote endpoints supplied by the IoT Security Service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnforcementRule {
    /// The device the rule applies to.
    pub mac: MacAddr,
    /// Assigned isolation level.
    pub level: IsolationLevel,
    /// Remote endpoints a restricted device may contact.
    pub permitted_endpoints: Vec<IpAddr>,
    /// Optional flow-level refinement (Sect. III-C.2 / V: filtering "can
    /// be targeted at particular protocols or endpoints", "up to the
    /// level of individual flows"): when set, a restricted device may
    /// only contact its permitted endpoints on these destination ports.
    pub permitted_remote_ports: Option<Vec<u16>>,
}

impl EnforcementRule {
    /// A rule placing `mac` under strict isolation.
    pub fn strict(mac: MacAddr) -> Self {
        EnforcementRule {
            mac,
            level: IsolationLevel::Strict,
            permitted_endpoints: Vec::new(),
            permitted_remote_ports: None,
        }
    }

    /// A rule placing `mac` under restricted isolation with the given
    /// endpoint whitelist.
    pub fn restricted(mac: MacAddr, endpoints: impl IntoIterator<Item = IpAddr>) -> Self {
        EnforcementRule {
            mac,
            level: IsolationLevel::Restricted,
            permitted_endpoints: endpoints.into_iter().collect(),
            permitted_remote_ports: None,
        }
    }

    /// Refines the rule to specific remote ports (builder style) — e.g.
    /// "this camera may only speak TLS (443) to its cloud".
    #[must_use]
    pub fn with_port_filter(mut self, ports: impl IntoIterator<Item = u16>) -> Self {
        self.permitted_remote_ports = Some(ports.into_iter().collect());
        self
    }

    /// Whether this rule permits a remote flow to the given destination
    /// port (always true when no port filter is set, or for levels where
    /// the endpoint decision alone governs).
    pub fn permits_remote_port(&self, port: Option<u16>) -> bool {
        match (&self.permitted_remote_ports, port) {
            (None, _) => true,
            (Some(ports), Some(p)) => ports.contains(&p),
            (Some(_), None) => false,
        }
    }

    /// A rule placing `mac` in the trusted overlay.
    pub fn trusted(mac: MacAddr) -> Self {
        EnforcementRule {
            mac,
            level: IsolationLevel::Trusted,
            permitted_endpoints: Vec::new(),
            permitted_remote_ports: None,
        }
    }

    /// Whether this rule permits contacting the remote address `ip`.
    pub fn permits_remote(&self, ip: IpAddr) -> bool {
        match self.level {
            IsolationLevel::Strict => false,
            IsolationLevel::Restricted => self.permitted_endpoints.contains(&ip),
            IsolationLevel::Trusted => true,
        }
    }

    /// The rule's storage hash, used as its identity in the enforcement
    /// rule cache (the `hash` field of Fig. 2). Stable across runs.
    ///
    /// Every variable-length field is framed with a domain-separator tag
    /// and an element count before its bytes, so two rules can only hash
    /// alike if they are field-for-field identical — endpoint octets can
    /// never masquerade as port bytes (or vice versa), and an empty port
    /// filter hashes differently from an absent one.
    pub fn hash_value(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        };
        let eat_u32 = |v: u32, eat: &mut dyn FnMut(u8)| {
            v.to_be_bytes().into_iter().for_each(eat);
        };
        eat(0x01); // field: mac
        for byte in self.mac.octets() {
            eat(byte);
        }
        eat(0x02); // field: level
        eat(match self.level {
            IsolationLevel::Strict => 0,
            IsolationLevel::Restricted => 1,
            IsolationLevel::Trusted => 2,
        });
        eat(0x03); // field: endpoints
        eat_u32(self.permitted_endpoints.len() as u32, &mut eat);
        for endpoint in &self.permitted_endpoints {
            match endpoint {
                IpAddr::V4(v4) => {
                    eat(0x04); // element: v4 address
                    v4.octets().into_iter().for_each(&mut eat);
                }
                IpAddr::V6(v6) => {
                    eat(0x06); // element: v6 address
                    v6.octets().into_iter().for_each(&mut eat);
                }
            }
        }
        eat(0x05); // field: port filter
        match &self.permitted_remote_ports {
            None => eat(0x00),
            Some(ports) => {
                eat(0x01);
                eat_u32(ports.len() as u32, &mut eat);
                for port in ports {
                    port.to_be_bytes().into_iter().for_each(&mut eat);
                }
            }
        }
        hash
    }

    /// Approximate in-memory footprint of the rule in bytes, used by the
    /// Fig. 6c memory accounting.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.permitted_endpoints.len() * std::mem::size_of::<IpAddr>()
            + self
                .permitted_remote_ports
                .as_ref()
                .map_or(0, |p| p.len() * std::mem::size_of::<u16>())
    }
}

impl fmt::Display for EnforcementRule {
    /// Renders in the style of the paper's Fig. 2 sample rule.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device {} isolation {}", self.mac, self.level)?;
        if !self.permitted_endpoints.is_empty() {
            write!(f, " permitted [")?;
            for (i, ip) in self.permitted_endpoints.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{ip}")?;
            }
            write!(f, "]")?;
        }
        write!(f, " hash {:#018x}", self.hash_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> MacAddr {
        "13-73-74-7E-A9-C2".parse().unwrap()
    }

    #[test]
    fn strict_permits_nothing_remote() {
        let rule = EnforcementRule::strict(mac());
        assert!(!rule.permits_remote("52.0.0.1".parse().unwrap()));
    }

    #[test]
    fn restricted_permits_only_whitelist() {
        let cloud: IpAddr = "52.29.100.7".parse().unwrap();
        let rule = EnforcementRule::restricted(mac(), [cloud]);
        assert!(rule.permits_remote(cloud));
        assert!(!rule.permits_remote("8.8.8.8".parse().unwrap()));
    }

    #[test]
    fn trusted_permits_everything_remote() {
        let rule = EnforcementRule::trusted(mac());
        assert!(rule.permits_remote("8.8.8.8".parse().unwrap()));
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let cloud: IpAddr = "52.29.100.7".parse().unwrap();
        let a = EnforcementRule::restricted(mac(), [cloud]);
        let b = EnforcementRule::restricted(mac(), [cloud]);
        assert_eq!(a.hash_value(), b.hash_value());
        let c = EnforcementRule::strict(mac());
        assert_ne!(a.hash_value(), c.hash_value());
    }

    #[test]
    fn hash_separates_endpoint_and_port_fields() {
        // Regression: with boundary-free FNV, the endpoint octets
        // [1, 2, 3, 4] of rule `a` feed the hash exactly like the port
        // big-endian bytes [0x01, 0x02] ++ [0x03, 0x04] of rule `b`,
        // so two rules with different identities (Fig. 2) collide.
        let a = EnforcementRule::restricted(mac(), ["1.2.3.4".parse::<IpAddr>().unwrap()]);
        let b = EnforcementRule::restricted(mac(), []).with_port_filter([0x0102, 0x0304]);
        assert_ne!(a, b);
        assert_ne!(
            a.hash_value(),
            b.hash_value(),
            "field boundaries must be hashed"
        );
    }

    #[test]
    fn hash_separates_empty_port_filter_from_none() {
        // `Some(vec![])` ("no remote flows permitted") and `None` ("no
        // port refinement") are different policies and need different
        // identities.
        let base = EnforcementRule::restricted(mac(), ["52.29.100.7".parse::<IpAddr>().unwrap()]);
        let filtered = base.clone().with_port_filter([]);
        assert_ne!(base, filtered);
        assert_ne!(base.hash_value(), filtered.hash_value());
    }

    #[test]
    fn display_mirrors_fig2() {
        let rule = EnforcementRule::restricted(mac(), ["52.29.100.7".parse().unwrap()]);
        let rendered = rule.to_string();
        assert!(rendered.contains("13-73-74-7E-A9-C2"));
        assert!(rendered.contains("restricted"));
        assert!(rendered.contains("52.29.100.7"));
        assert!(rendered.contains("hash 0x"));
    }

    #[test]
    fn port_filter_refines_restricted_rule() {
        let cloud: IpAddr = "52.29.100.7".parse().unwrap();
        let rule = EnforcementRule::restricted(mac(), [cloud]).with_port_filter([443, 8883]);
        assert!(rule.permits_remote_port(Some(443)));
        assert!(rule.permits_remote_port(Some(8883)));
        assert!(!rule.permits_remote_port(Some(23)));
        assert!(
            !rule.permits_remote_port(None),
            "portless flows blocked under a port filter"
        );
        let unfiltered = EnforcementRule::restricted(mac(), [cloud]);
        assert!(unfiltered.permits_remote_port(Some(23)));
        assert!(unfiltered.permits_remote_port(None));
        assert_ne!(rule.hash_value(), unfiltered.hash_value());
    }

    #[test]
    fn isolation_level_display() {
        assert_eq!(IsolationLevel::Strict.to_string(), "strict");
        assert_eq!(IsolationLevel::Trusted.to_string(), "trusted");
    }
}
