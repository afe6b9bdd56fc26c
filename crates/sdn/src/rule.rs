//! Enforcement rules (Fig. 2) and isolation levels (Fig. 3).

use std::fmt;
use std::net::IpAddr;
use std::ops::Deref;
use std::sync::Arc;

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
///
/// A rule is 16 bytes: the whitelist and port filter live behind one
/// optional shared pointer that exists only when one of them is set, so
/// the strict and trusted rules most devices get never allocate, and a
/// rule made from a [`Whitelist`] shares its policy instead of copying
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnforcementRule {
    /// The device the rule applies to.
    pub mac: MacAddr,
    /// Assigned isolation level.
    pub level: IsolationLevel,
    /// `None` exactly when the whitelist is empty and no port filter is
    /// set, so the derived `Eq` compares the same policies it did when
    /// both were stored inline.
    remote: Option<Arc<RemotePolicy>>,
}

/// The remote half of a rule: whitelist and optional port filter.
/// Immutable once shared: [`EnforcementRule::with_port_filter`] copies
/// it on write.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RemotePolicy {
    endpoints: Box<[IpAddr]>,
    ports: Option<Box<[u16]>>,
}

/// A restricted type's permitted remote endpoints, built once and
/// shared: every rule [`EnforcementRule::restricted`] makes from it
/// points at the same policy, so giving a device its type's whitelist
/// copies no endpoint and allocates nothing.
///
/// One pointer, and no allocation when empty. It reads as a slice of
/// addresses (`Deref`) and debug-prints as one. Any iterator of
/// addresses converts into one (`From`).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Whitelist(Option<Arc<RemotePolicy>>);

impl<I: IntoIterator<Item = IpAddr>> From<I> for Whitelist {
    fn from(endpoints: I) -> Self {
        let endpoints: Box<[IpAddr]> = endpoints.into_iter().collect();
        Whitelist((!endpoints.is_empty()).then(|| {
            Arc::new(RemotePolicy {
                endpoints,
                ports: None,
            })
        }))
    }
}

impl Deref for Whitelist {
    type Target = [IpAddr];

    fn deref(&self) -> &[IpAddr] {
        self.0.as_ref().map_or(&[], |r| &r.endpoints)
    }
}

impl fmt::Debug for Whitelist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl EnforcementRule {
    /// A rule placing `mac` under strict isolation.
    pub fn strict(mac: MacAddr) -> Self {
        EnforcementRule {
            mac,
            level: IsolationLevel::Strict,
            remote: None,
        }
    }

    /// A rule placing `mac` under restricted isolation with the given
    /// endpoint whitelist: any iterator of addresses, which the rule
    /// then owns, or a shared [`Whitelist`], whose policy the rule
    /// shares.
    pub fn restricted(mac: MacAddr, endpoints: impl Into<Whitelist>) -> Self {
        EnforcementRule {
            mac,
            level: IsolationLevel::Restricted,
            remote: endpoints.into().0,
        }
    }

    /// Refines the rule to specific remote ports (builder style) — e.g.
    /// "this camera may only speak TLS (443) to its cloud".
    ///
    /// A shared policy is copied on write, so the type's whitelist and
    /// every other rule made from it keep no port filter.
    #[must_use]
    pub fn with_port_filter(mut self, ports: impl IntoIterator<Item = u16>) -> Self {
        let remote = self.remote.get_or_insert_with(|| {
            Arc::new(RemotePolicy {
                endpoints: Box::default(),
                ports: None,
            })
        });
        Arc::make_mut(remote).ports = Some(ports.into_iter().collect());
        self
    }

    /// Remote endpoints a restricted device may contact.
    pub fn permitted_endpoints(&self) -> &[IpAddr] {
        self.remote.as_ref().map_or(&[], |r| &r.endpoints)
    }

    /// Optional flow-level refinement (Sect. III-C.2 / V: filtering "can
    /// be targeted at particular protocols or endpoints", "up to the
    /// level of individual flows"): when set, a restricted device may
    /// only contact its permitted endpoints on these destination ports.
    pub(crate) fn permitted_remote_ports(&self) -> Option<&[u16]> {
        self.remote.as_ref()?.ports.as_deref()
    }

    /// Whether this rule permits a remote flow to the given destination
    /// port (always true when no port filter is set, or for levels where
    /// the endpoint decision alone governs).
    pub(crate) fn permits_remote_port(&self, port: Option<u16>) -> bool {
        match (self.permitted_remote_ports(), port) {
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
            remote: None,
        }
    }

    /// Whether this rule permits contacting the remote address `ip`.
    pub(crate) fn permits_remote(&self, ip: IpAddr) -> bool {
        match self.level {
            IsolationLevel::Strict => false,
            IsolationLevel::Restricted => self.permitted_endpoints().contains(&ip),
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
    pub(crate) fn hash_value(&self) -> u64 {
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
        let endpoints = self.permitted_endpoints();
        eat_u32(endpoints.len() as u32, &mut eat);
        for endpoint in endpoints {
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
        match self.permitted_remote_ports() {
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
    /// Fig. 6c memory accounting: the rule itself plus, when present, its
    /// remote policy and the two slices that policy owns (16 + 32 + 17
    /// B per IPv4 or IPv6 endpoint, + 2 B per filtered port).
    ///
    /// This is the modelled per-rule cost, not the heap this process
    /// holds: rules made from one [`Whitelist`] share a single policy,
    /// so the heap keeps one per restricted type, while the counter
    /// still charges the policy to every rule, as a gateway that
    /// stored each rule on its own would pay.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.remote.as_deref().map_or(0, |remote| {
                std::mem::size_of_val(remote)
                    + std::mem::size_of_val(&*remote.endpoints)
                    + remote.ports.as_deref().map_or(0, std::mem::size_of_val)
            })
    }
}

impl fmt::Display for EnforcementRule {
    /// Renders in the style of the paper's Fig. 2 sample rule.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device {} isolation {}", self.mac, self.level)?;
        let endpoints = self.permitted_endpoints();
        if !endpoints.is_empty() {
            write!(f, " permitted [")?;
            for (i, ip) in endpoints.iter().enumerate() {
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
    fn size_is_pinned() {
        assert_eq!(std::mem::size_of::<EnforcementRule>(), 16);
        assert_eq!(std::mem::size_of::<Whitelist>(), 8);
        // Fig. 6c counts the policy only where one exists: 16 B + a
        // 32-byte policy + one 17-byte `IpAddr`, whether the rule owns
        // the policy or shares it.
        assert_eq!(EnforcementRule::strict(mac()).memory_bytes(), 16);
        let cloud: IpAddr = "52.29.100.7".parse().unwrap();
        assert_eq!(
            EnforcementRule::restricted(mac(), [cloud]).memory_bytes(),
            65
        );
        let whitelist = Whitelist::from([cloud]);
        assert_eq!(
            EnforcementRule::restricted(mac(), whitelist).memory_bytes(),
            65
        );
    }

    #[test]
    fn rules_made_from_one_whitelist_share_it_until_a_port_filter() {
        let v4: IpAddr = "52.29.100.7".parse().unwrap();
        let v6: IpAddr = "2001:db8::7".parse().unwrap();
        let whitelist = Whitelist::from([v4, v6]);
        let other: MacAddr = "13-73-74-7E-A9-C3".parse().unwrap();
        let a = EnforcementRule::restricted(mac(), whitelist.clone());
        let b = EnforcementRule::restricted(other, whitelist.clone());
        assert!(std::ptr::eq(a.permitted_endpoints(), &*whitelist));
        assert!(std::ptr::eq(b.permitted_endpoints(), &*whitelist));
        // A shared rule is the rule that owns a copy: same identity,
        // same rendering, same modelled footprint.
        let owned = EnforcementRule::restricted(mac(), [v4, v6]);
        assert_eq!(a, owned);
        assert_eq!(a.hash_value(), owned.hash_value());
        assert_eq!(a.to_string(), owned.to_string());
        assert_eq!(a.memory_bytes(), owned.memory_bytes());
        // Refining one rule copies the policy, leaving the whitelist and
        // the other rule unfiltered.
        let filtered = a.with_port_filter([443]);
        assert!(!std::ptr::eq(filtered.permitted_endpoints(), &*whitelist));
        assert_eq!(filtered.permitted_endpoints(), &[v4, v6]);
        assert_eq!(filtered.permitted_remote_ports(), Some(&[443][..]));
        assert_eq!(b.permitted_remote_ports(), None);
        assert_eq!(
            filtered,
            EnforcementRule::restricted(mac(), [v4, v6]).with_port_filter([443])
        );
        // The whitelist reads and prints as its addresses.
        assert_eq!(&*whitelist, &[v4, v6]);
        assert_eq!(format!("{whitelist:?}"), format!("{:?}", vec![v4, v6]));
        assert!(Whitelist::from([]).is_empty());
        assert_eq!(Whitelist::from([]), Whitelist::default());
    }

    #[test]
    fn hash_value_is_pinned() {
        // The Fig. 2 identity is part of the rule's contract: these
        // constants were computed when both remote fields were stored
        // inline, and a layout change must not move them.
        let v4: IpAddr = "52.29.100.7".parse().unwrap();
        let v6: IpAddr = "2001:db8::7".parse().unwrap();
        let empty_filter = EnforcementRule::restricted(mac(), []).with_port_filter([]);
        let pinned = [
            (EnforcementRule::strict(mac()), 0x18a1_88b6_3c86_d857),
            (EnforcementRule::trusted(mac()), 0xc546_dc7a_df41_df61),
            (
                EnforcementRule::restricted(mac(), [v4, v6]),
                0x0b91_9553_7cd0_ffff,
            ),
            (
                EnforcementRule::restricted(mac(), [v4]).with_port_filter([443, 8883]),
                0xa5b6_07c5_e8bb_ab55,
            ),
            (empty_filter.clone(), 0xe247_222f_578c_8e71),
        ];
        for (rule, hash) in &pinned {
            assert_eq!(rule.hash_value(), *hash, "{rule}");
        }
        let unfiltered = EnforcementRule::restricted(mac(), []);
        assert_ne!(unfiltered, empty_filter);
        assert_ne!(unfiltered.hash_value(), empty_filter.hash_value());
    }

    #[test]
    fn accessors_read_the_boxed_policy() {
        let cloud: IpAddr = "52.29.100.7".parse().unwrap();
        let strict = EnforcementRule::strict(mac());
        assert!(strict.permitted_endpoints().is_empty());
        assert_eq!(strict.permitted_remote_ports(), None);
        let rule = EnforcementRule::restricted(mac(), [cloud]).with_port_filter([443]);
        assert_eq!(rule.permitted_endpoints(), &[cloud]);
        assert_eq!(rule.permitted_remote_ports(), Some(&[443][..]));
        let empty = EnforcementRule::restricted(mac(), []).with_port_filter([]);
        assert!(empty.permitted_endpoints().is_empty());
        assert_eq!(empty.permitted_remote_ports(), Some(&[][..]));
    }

    #[test]
    fn isolation_level_display() {
        assert_eq!(IsolationLevel::Strict.to_string(), "strict");
        assert_eq!(IsolationLevel::Trusted.to_string(), "trusted");
    }
}
