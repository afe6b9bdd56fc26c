//! The Sentinel enforcement module of the SDN controller.
//!
//! This is the reproduction of the paper's "custom module for Floodlight
//! SDN controller" (Sect. V): it owns the enforcement-rule cache and
//! turns `(source device, destination)` pairs into per-flow verdicts
//! according to the device's isolation level and the overlay separation
//! rules of Fig. 3.

use std::net::{IpAddr, Ipv4Addr};

use sentinel_netproto::{MacAddr, Packet};

use crate::overlay::Overlay;
use crate::{EnforcementRule, IsolationLevel, RuleCache};

/// Where a flow is headed, from the gateway's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Another device in the local network.
    Device(MacAddr),
    /// A broadcast or multicast destination within the local network.
    LocalBroadcast,
    /// A remote (Internet) endpoint.
    Internet(IpAddr),
}

impl Destination {
    /// Classifies a packet's destination given the local IPv4 subnet
    /// (`subnet` and its netmask).
    pub(crate) fn within(packet: &Packet, subnet: Ipv4Addr, mask: u32) -> Destination {
        if packet.dst_mac().is_broadcast() || packet.dst_mac().is_multicast() {
            return Destination::LocalBroadcast;
        }
        match packet.dst_ip() {
            Some(IpAddr::V4(ip)) if !in_subnet(ip, subnet, mask) && !ip.is_broadcast() => {
                Destination::Internet(IpAddr::V4(ip))
            }
            Some(IpAddr::V6(ip)) if !ip.is_loopback() && (ip.segments()[0] & 0xffc0) != 0xfe80 => {
                Destination::Internet(IpAddr::V6(ip))
            }
            _ => Destination::Device(packet.dst_mac()),
        }
    }
}

/// The netmask of a `/mask_bits` IPv4 subnet. `/0` masks nothing (every
/// address is inside), and a length past 32 reads as `/32`.
pub(crate) fn subnet_mask(mask_bits: u8) -> u32 {
    u32::MAX
        .checked_shl(32 - u32::from(mask_bits.min(32)))
        .unwrap_or(0)
}

pub(crate) fn in_subnet(ip: Ipv4Addr, subnet: Ipv4Addr, mask: u32) -> bool {
    (u32::from(ip) & mask) == (u32::from(subnet) & mask)
}

/// Why a flow was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenyReason {
    /// Source and destination devices live in different overlays.
    CrossOverlay,
    /// The source device has no Internet access.
    InternetBlocked,
    /// The remote endpoint is not on the restricted device's whitelist.
    EndpointNotPermitted,
}

/// The controller's decision for a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Forward the flow.
    Allow,
    /// Drop the flow.
    Deny(DenyReason),
}

impl Verdict {
    /// Returns `true` for [`Verdict::Allow`].
    pub fn is_allow(&self) -> bool {
        matches!(self, Verdict::Allow)
    }
}

/// The level of a device without a rule: the paper's "unknown devices
/// will be assigned the level strict".
const DEFAULT_LEVEL: IsolationLevel = IsolationLevel::Strict;

/// The enforcement module: rule cache + decision logic.
///
/// Devices without a rule are treated as [`IsolationLevel::Strict`].
#[derive(Debug, Default)]
pub struct EnforcementModule {
    cache: RuleCache,
}

impl EnforcementModule {
    /// Creates a module with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a device's enforcement rule.
    pub fn install_rule(&mut self, rule: EnforcementRule) {
        self.cache.insert(rule);
    }

    /// Removes a device's rule (device left the network).
    pub fn remove_rule(&mut self, mac: MacAddr) -> Option<EnforcementRule> {
        self.cache.remove(mac)
    }

    /// Read access to the rule cache.
    pub fn cache(&self) -> &RuleCache {
        &self.cache
    }

    /// The isolation level currently effective for `mac`.
    pub fn level_of(&self, mac: MacAddr) -> IsolationLevel {
        self.cache.get(mac).map_or(DEFAULT_LEVEL, |r| r.level)
    }

    /// The overlay `mac` currently lives in.
    pub fn overlay_of(&self, mac: MacAddr) -> Overlay {
        Overlay::for_level(self.level_of(mac))
    }

    /// Decides whether a flow from `src` to `dst` is permitted.
    pub fn decide(&mut self, src: MacAddr, dst: Destination) -> Verdict {
        self.decide_flow(src, dst, None)
    }

    /// Decides a packet given the local subnet, classifying its
    /// destination first. This is the flow-granular path: on top of the
    /// endpoint decision it applies the rule's optional remote-port
    /// filter (Sect. III-C.2).
    pub fn decide_packet(&mut self, packet: &Packet, subnet: Ipv4Addr, mask_bits: u8) -> Verdict {
        self.decide_packet_within(packet, subnet, subnet_mask(mask_bits))
    }

    /// [`EnforcementModule::decide_packet`] with the netmask already
    /// computed — the switch's packet-in.
    pub(crate) fn decide_packet_within(
        &mut self,
        packet: &Packet,
        subnet: Ipv4Addr,
        mask: u32,
    ) -> Verdict {
        let dst = Destination::within(packet, subnet, mask);
        self.decide_flow(packet.src_mac(), dst, Some(packet))
    }

    /// The decision behind both entry points. The source device's rule
    /// is read once — the one counted [`RuleCache::lookup`] of a
    /// packet-in — and level, endpoint whitelist and port filter all come
    /// off that borrow. `packet` is absent when only endpoints are known,
    /// and then no port filter applies.
    fn decide_flow(&mut self, src: MacAddr, dst: Destination, packet: Option<&Packet>) -> Verdict {
        let rule = self.cache.lookup(src);
        let src_level = rule.map_or(DEFAULT_LEVEL, |r| r.level);
        match dst {
            Destination::Device(dst_mac) => {
                let dst_overlay = self.overlay_of(dst_mac);
                if Overlay::for_level(src_level).reachable(dst_overlay) {
                    Verdict::Allow
                } else {
                    Verdict::Deny(DenyReason::CrossOverlay)
                }
            }
            // Broadcast/multicast stays within the source's overlay by
            // construction (the switch only replicates to same-overlay
            // ports), so it is always permitted.
            Destination::LocalBroadcast => Verdict::Allow,
            Destination::Internet(ip) => {
                let endpoint_ok = match src_level {
                    IsolationLevel::Trusted => true,
                    IsolationLevel::Strict => {
                        return Verdict::Deny(DenyReason::InternetBlocked);
                    }
                    IsolationLevel::Restricted => rule.is_some_and(|r| r.permits_remote(ip)),
                };
                let port_ok = match (rule, packet) {
                    (Some(rule), Some(packet)) => rule.permits_remote_port(packet.dst_port()),
                    _ => true,
                };
                if endpoint_ok && port_ok {
                    Verdict::Allow
                } else {
                    Verdict::Deny(DenyReason::EndpointNotPermitted)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Destination {
        /// Classifies a packet's destination given the local IPv4 subnet
        /// (`prefix` address + mask length).
        fn of_packet(packet: &Packet, subnet: Ipv4Addr, mask_bits: u8) -> Destination {
            Destination::within(packet, subnet, subnet_mask(mask_bits))
        }
    }

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([0, 0, 0, 0, 1, last])
    }

    fn module() -> EnforcementModule {
        let mut m = EnforcementModule::new();
        m.install_rule(EnforcementRule::trusted(mac(1)));
        m.install_rule(EnforcementRule::strict(mac(2)));
        m.install_rule(EnforcementRule::restricted(
            mac(3),
            ["52.29.100.7".parse().unwrap()],
        ));
        m
    }

    #[test]
    fn trusted_reaches_internet_and_trusted_devices() {
        let mut m = module();
        assert!(m
            .decide(mac(1), Destination::Internet("8.8.8.8".parse().unwrap()))
            .is_allow());
        assert!(m.decide(mac(1), Destination::Device(mac(1))).is_allow());
    }

    #[test]
    fn strict_blocked_from_internet_and_trusted_overlay() {
        let mut m = module();
        assert_eq!(
            m.decide(mac(2), Destination::Internet("8.8.8.8".parse().unwrap())),
            Verdict::Deny(DenyReason::InternetBlocked)
        );
        assert_eq!(
            m.decide(mac(2), Destination::Device(mac(1))),
            Verdict::Deny(DenyReason::CrossOverlay)
        );
    }

    #[test]
    fn strict_and_restricted_share_untrusted_overlay() {
        let mut m = module();
        assert!(m.decide(mac(2), Destination::Device(mac(3))).is_allow());
        assert!(m.decide(mac(3), Destination::Device(mac(2))).is_allow());
    }

    #[test]
    fn restricted_reaches_only_whitelisted_endpoints() {
        let mut m = module();
        assert!(m
            .decide(
                mac(3),
                Destination::Internet("52.29.100.7".parse().unwrap())
            )
            .is_allow());
        assert_eq!(
            m.decide(mac(3), Destination::Internet("8.8.8.8".parse().unwrap())),
            Verdict::Deny(DenyReason::EndpointNotPermitted)
        );
    }

    #[test]
    fn unknown_devices_default_to_strict() {
        let mut m = module();
        assert_eq!(m.level_of(mac(9)), IsolationLevel::Strict);
        assert_eq!(
            m.decide(mac(9), Destination::Device(mac(1))),
            Verdict::Deny(DenyReason::CrossOverlay)
        );
        assert!(m.decide(mac(9), Destination::Device(mac(2))).is_allow());
    }

    #[test]
    fn trusted_cannot_reach_untrusted_overlay() {
        // Network isolation protects untrusted devices from probing too —
        // the overlays are "strictly separated" (Sect. VIII-A).
        let mut m = module();
        assert_eq!(
            m.decide(mac(1), Destination::Device(mac(2))),
            Verdict::Deny(DenyReason::CrossOverlay)
        );
    }

    #[test]
    fn destination_classification() {
        let subnet = Ipv4Addr::new(192, 168, 0, 0);
        let device = Packet::dhcp_discover(mac(5), 1, 0);
        assert_eq!(
            Destination::of_packet(&device, subnet, 24),
            Destination::LocalBroadcast
        );
        let remote = Packet::udp_ipv4(
            sentinel_netproto::Timestamp::ZERO,
            mac(5),
            mac(0),
            Ipv4Addr::new(192, 168, 0, 30),
            Ipv4Addr::new(52, 29, 100, 7),
            50000,
            443,
            sentinel_netproto::AppPayload::Empty,
        );
        assert_eq!(
            Destination::of_packet(&remote, subnet, 24),
            Destination::Internet("52.29.100.7".parse().unwrap())
        );
        let local = Packet::udp_ipv4(
            sentinel_netproto::Timestamp::ZERO,
            mac(5),
            mac(6),
            Ipv4Addr::new(192, 168, 0, 30),
            Ipv4Addr::new(192, 168, 0, 31),
            50000,
            80,
            sentinel_netproto::AppPayload::Empty,
        );
        assert_eq!(
            Destination::of_packet(&local, subnet, 24),
            Destination::Device(mac(6))
        );
    }

    #[test]
    fn subnet_width_classifies_destinations() {
        let subnet = Ipv4Addr::new(192, 168, 0, 7);
        let to = |dst: Ipv4Addr| {
            Packet::udp_ipv4(
                sentinel_netproto::Timestamp::ZERO,
                mac(5),
                mac(6),
                Ipv4Addr::new(192, 168, 0, 30),
                dst,
                50000,
                443,
                sentinel_netproto::AppPayload::Empty,
            )
        };
        let probes = [
            Ipv4Addr::new(192, 168, 0, 7),
            Ipv4Addr::new(192, 168, 0, 77),
            Ipv4Addr::new(52, 29, 100, 7),
        ];
        let local = |mask_bits| {
            probes.map(|ip| {
                Destination::of_packet(&to(ip), subnet, mask_bits) == Destination::Device(mac(6))
            })
        };
        assert_eq!(local(0), [true; 3], "/0 holds every address");
        assert_eq!(local(24), [true, true, false]);
        assert_eq!(local(32), [true, false, false]);
        assert_eq!(local(40), local(32), "a length past 32 reads as /32");
        assert_eq!(subnet_mask(0), 0);
        assert_eq!(subnet_mask(24), 0xffff_ff00);
        assert_eq!(subnet_mask(32), u32::MAX);
        assert_eq!(subnet_mask(u8::MAX), u32::MAX);
    }

    #[test]
    fn port_filter_enforced_at_flow_granularity() {
        let mut m = EnforcementModule::new();
        let cloud: Ipv4Addr = "52.29.100.7".parse().unwrap();
        m.install_rule(
            EnforcementRule::restricted(mac(4), [std::net::IpAddr::V4(cloud)])
                .with_port_filter([443]),
        );
        let subnet = Ipv4Addr::new(192, 168, 0, 0);
        let packet_to = |port: u16| {
            Packet::udp_ipv4(
                sentinel_netproto::Timestamp::ZERO,
                mac(4),
                mac(0),
                Ipv4Addr::new(192, 168, 0, 30),
                cloud,
                50000,
                port,
                sentinel_netproto::AppPayload::Empty,
            )
        };
        assert!(m.decide_packet(&packet_to(443), subnet, 24).is_allow());
        assert_eq!(
            m.decide_packet(&packet_to(23), subnet, 24),
            Verdict::Deny(DenyReason::EndpointNotPermitted),
            "telnet to the cloud endpoint is filtered out"
        );
    }

    #[test]
    fn rule_replacement_changes_verdict() {
        let mut m = module();
        assert!(!m
            .decide(mac(2), Destination::Internet("1.1.1.1".parse().unwrap()))
            .is_allow());
        m.install_rule(EnforcementRule::trusted(mac(2)));
        assert!(m
            .decide(mac(2), Destination::Internet("1.1.1.1".parse().unwrap()))
            .is_allow());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Broadcast/multicast destinations are classified as local and
        /// allowed (they cannot cross overlays by construction).
        #[test]
        fn broadcast_is_local(level in prop_oneof![
            Just(IsolationLevel::Strict),
            Just(IsolationLevel::Restricted),
            Just(IsolationLevel::Trusted),
        ]) {
            let mac = MacAddr::new([2, 0, 0, 0, 0, 6]);
            let mut module = EnforcementModule::new();
            module.install_rule(match level {
                IsolationLevel::Strict => EnforcementRule::strict(mac),
                IsolationLevel::Restricted => EnforcementRule::restricted(mac, []),
                IsolationLevel::Trusted => EnforcementRule::trusted(mac),
            });
            let packet = Packet::dhcp_discover(mac, 1, 0);
            let dst = Destination::of_packet(&packet, Ipv4Addr::new(192, 168, 0, 0), 24);
            prop_assert_eq!(dst, Destination::LocalBroadcast);
            prop_assert!(module.decide(mac, dst).is_allow());
        }
    }
}
