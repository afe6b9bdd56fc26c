//! Property tests for the enforcement substrate: the isolation
//! invariants of Fig. 3 hold for *arbitrary* rule sets and flows, and the
//! switch/rule-cache state machines stay coherent under random workloads.

use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};

use sentinel_netproto::{AppPayload, MacAddr, Packet, Timestamp};
use sentinel_sdn::overlay::Overlay;
use sentinel_sdn::{
    Destination, EnforcementModule, EnforcementRule, FlowAction, FlowKey, IsolationLevel,
    OvsSwitch, RuleCache, Verdict,
};

fn mac_strategy() -> impl Strategy<Value = MacAddr> {
    (0u8..8).prop_map(|last| MacAddr::new([2, 0, 0, 0, 0, last]))
}

fn level_strategy() -> impl Strategy<Value = IsolationLevel> {
    prop_oneof![
        Just(IsolationLevel::Strict),
        Just(IsolationLevel::Restricted),
        Just(IsolationLevel::Trusted),
    ]
}

fn public_ip_strategy() -> impl Strategy<Value = IpAddr> {
    (1u8..200, any::<u8>(), any::<u8>(), 1u8..255)
        .prop_map(|(a, b, c, d)| IpAddr::V4(Ipv4Addr::new(a.max(11), b, c, d)))
}

fn rule_for(mac: MacAddr, level: IsolationLevel, whitelist: &[IpAddr]) -> EnforcementRule {
    match level {
        IsolationLevel::Strict => EnforcementRule::strict(mac),
        IsolationLevel::Restricted => EnforcementRule::restricted(mac, whitelist.iter().copied()),
        IsolationLevel::Trusted => EnforcementRule::trusted(mac),
    }
}

/// One step of the switch-coherence walk: a packet through the switch,
/// or a change to the rule set between packets.
#[derive(Debug, Clone)]
enum Step {
    /// To another device (`Ok`) or to `52.1.1.x` on the Internet (`Err`).
    Packet {
        src: MacAddr,
        dst: Result<MacAddr, u8>,
        dst_port: u16,
    },
    Install {
        mac: MacAddr,
        level: IsolationLevel,
        tls_only: bool,
    },
    Remove(MacAddr),
    EvictTo(usize),
}

fn packet_step_strategy() -> impl Strategy<Value = Step> {
    let dst = prop_oneof![mac_strategy().prop_map(Ok), (1u8..4).prop_map(Err)];
    let dst_port = prop_oneof![Just(443u16), Just(23u16)];
    (mac_strategy(), dst, dst_port).prop_map(|(src, dst, dst_port)| Step::Packet {
        src,
        dst,
        dst_port,
    })
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let install =
        (mac_strategy(), level_strategy(), any::<bool>()).prop_map(|(mac, level, tls_only)| {
            Step::Install {
                mac,
                level,
                tls_only,
            }
        });
    // Packets outnumber rule changes, so flows live long enough to go stale.
    prop_oneof![
        packet_step_strategy(),
        packet_step_strategy(),
        packet_step_strategy(),
        install,
        mac_strategy().prop_map(Step::Remove),
        (0usize..8).prop_map(Step::EvictTo),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The central security invariant: traffic between two devices is
    /// allowed iff they share an overlay, for every combination of
    /// (installed or defaulted) isolation levels.
    #[test]
    fn device_to_device_respects_overlays(
        src_level in proptest::option::of(level_strategy()),
        dst_level in proptest::option::of(level_strategy()),
    ) {
        let src = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let dst = MacAddr::new([2, 0, 0, 0, 0, 2]);
        let mut module = EnforcementModule::new();
        if let Some(level) = src_level {
            module.install_rule(rule_for(src, level, &[]));
        }
        if let Some(level) = dst_level {
            module.install_rule(rule_for(dst, level, &[]));
        }
        let effective = |level: Option<IsolationLevel>| level.unwrap_or(IsolationLevel::Strict);
        let expected = Overlay::for_level(effective(src_level))
            .reachable(Overlay::for_level(effective(dst_level)));
        let verdict = module.decide(src, Destination::Device(dst));
        prop_assert_eq!(verdict.is_allow(), expected);
    }

    /// Internet access: strict never, trusted always, restricted iff
    /// whitelisted — for arbitrary whitelists and destinations.
    #[test]
    fn internet_access_follows_fig3(
        level in level_strategy(),
        whitelist in proptest::collection::vec(public_ip_strategy(), 0..4),
        target in public_ip_strategy(),
    ) {
        let mac = MacAddr::new([2, 0, 0, 0, 0, 3]);
        let mut module = EnforcementModule::new();
        module.install_rule(rule_for(mac, level, &whitelist));
        let verdict = module.decide(mac, Destination::Internet(target));
        let expected = match level {
            IsolationLevel::Strict => false,
            IsolationLevel::Trusted => true,
            IsolationLevel::Restricted => whitelist.contains(&target),
        };
        prop_assert_eq!(verdict.is_allow(), expected, "level {}", level);
    }

    /// A strict device can never obtain internet access, no matter what
    /// sequence of other rules is installed around it.
    #[test]
    fn strict_device_never_escapes(
        other_rules in proptest::collection::vec((mac_strategy(), level_strategy()), 0..8),
        target in public_ip_strategy(),
    ) {
        let victim = MacAddr::new([2, 0, 0, 0, 1, 99]);
        let mut module = EnforcementModule::new();
        module.install_rule(EnforcementRule::strict(victim));
        for (mac, level) in other_rules {
            if mac != victim {
                module.install_rule(rule_for(mac, level, &[target]));
            }
        }
        prop_assert_eq!(
            module.decide(victim, Destination::Internet(target)).is_allow(),
            false
        );
    }

    /// The switch's decision always equals the controller's verdict
    /// under the rules in force *now* — however rules were installed,
    /// replaced, removed or evicted since the flow was first cached —
    /// and a flow raises exactly one packet-in per rule-set generation.
    #[test]
    fn switch_cache_is_coherent(steps in proptest::collection::vec(step_strategy(), 1..64)) {
        let subnet = Ipv4Addr::new(192, 168, 0, 0);
        let whitelist = [IpAddr::V4(Ipv4Addr::new(52, 1, 1, 1))];
        let mut module = EnforcementModule::new();
        let mut switch = OvsSwitch::lab();
        // Flows decided since the rule set last changed.
        let mut decided = std::collections::HashSet::new();
        for (i, step) in steps.into_iter().enumerate() {
            let rules_changed = match step {
                Step::Packet { src, dst, dst_port } => {
                    let (dst_mac, dst_ip) = match dst {
                        Ok(mac) => (mac, Ipv4Addr::new(192, 168, 0, 60 + mac.octets()[5])),
                        Err(last) => (MacAddr::new([2, 9, 9, 9, 9, 9]), Ipv4Addr::new(52, 1, 1, last)),
                    };
                    let packet = Packet::udp_ipv4(
                        Timestamp::from_micros(i as u64),
                        src,
                        dst_mac,
                        Ipv4Addr::new(192, 168, 0, 50 + src.octets()[5]),
                        dst_ip,
                        50_000,
                        dst_port,
                        AppPayload::Empty,
                    );
                    let expected = match module.decide_packet(&packet, subnet, 24) {
                        Verdict::Allow => FlowAction::Forward,
                        Verdict::Deny(_) => FlowAction::Drop,
                    };
                    let first = switch.process(&packet, &mut module);
                    let second = switch.process(&packet, &mut module);
                    prop_assert_eq!(first.action, expected, "step {}", i);
                    prop_assert_eq!(first.packet_in, decided.insert(FlowKey::of(&packet)));
                    prop_assert!(!second.packet_in);
                    prop_assert_eq!(second.action, expected);
                    false
                }
                Step::Install { mac, level, tls_only } => {
                    let rule = rule_for(mac, level, &whitelist);
                    module.install_rule(if tls_only { rule.with_port_filter([443]) } else { rule });
                    true
                }
                Step::Remove(mac) => module.remove_rule(mac).is_some(),
                Step::EvictTo(max_rules) => !module.cache_mut().evict_to(max_rules).is_empty(),
            };
            if rules_changed {
                decided.clear();
            }
        }
    }

    /// Rule-cache bookkeeping: size and memory track inserts/removes for
    /// arbitrary operation sequences.
    #[test]
    fn rule_cache_bookkeeping(ops in proptest::collection::vec((0u8..16, any::<bool>()), 1..64)) {
        let mut cache = RuleCache::new();
        let mut reference = std::collections::HashMap::new();
        for (id, insert) in ops {
            let mac = MacAddr::new([3, 0, 0, 0, 0, id]);
            if insert {
                cache.insert(EnforcementRule::strict(mac));
                reference.insert(mac, ());
            } else {
                let removed = cache.remove(mac);
                prop_assert_eq!(removed.is_some(), reference.remove(&mac).is_some());
            }
            prop_assert_eq!(cache.len(), reference.len());
        }
        // Memory estimate scales exactly with population for uniform rules.
        let per_rule = if cache.is_empty() {
            0
        } else {
            cache.memory_bytes() / cache.len()
        };
        prop_assert_eq!(cache.memory_bytes(), per_rule * cache.len());
        // LRU eviction respects the cap for any cap.
        let evicted = cache.evict_to(4);
        prop_assert!(cache.len() <= 4);
        prop_assert_eq!(evicted.len() + cache.len(), reference.len());
    }

    /// Broadcast/multicast destinations are classified as local and
    /// allowed (they cannot cross overlays by construction).
    #[test]
    fn broadcast_is_local(level in level_strategy()) {
        let mac = MacAddr::new([2, 0, 0, 0, 0, 6]);
        let mut module = EnforcementModule::new();
        module.install_rule(rule_for(mac, level, &[]));
        let packet = Packet::dhcp_discover(mac, 1, 0);
        let dst = Destination::of_packet(&packet, Ipv4Addr::new(192, 168, 0, 0), 24);
        prop_assert_eq!(dst, Destination::LocalBroadcast);
        prop_assert!(module.decide(mac, dst).is_allow());
    }
}
