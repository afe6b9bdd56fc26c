//! An Open vSwitch-style software switch: exact-match flow cache with
//! packet-in escalation to the enforcement module.
//!
//! Per packet: one [`FlowKey`](crate::FlowKey), hashed in one write, one
//! probe of the flow table, and — on a miss only — one read of the source
//! device's rule and a subnet test against the netmask the switch worked
//! out when it was built. Cached flows are decisions derived from the
//! rule set, so the switch remembers the
//! [`RuleCache::generation`](crate::RuleCache::generation) they were
//! decided under and starts the table over when it has moved.

use std::net::Ipv4Addr;

use sentinel_netproto::Packet;

use crate::controller::subnet_mask;
use crate::{EnforcementModule, FlowAction, FlowTable, Verdict};

/// What the switch did with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchDecision {
    /// The action applied.
    pub action: FlowAction,
    /// Whether the packet caused a packet-in to the controller (flow
    /// table miss).
    pub packet_in: bool,
}

/// The gateway's software switch.
///
/// It always filters. The paper's "without filtering" baseline in
/// Tables V–VI and Fig. 6 is priced by
/// [`GatewayEmulator`](crate::netem::GatewayEmulator)'s `filtering`
/// argument.
#[derive(Debug)]
pub struct OvsSwitch {
    table: FlowTable,
    /// The rule-cache generation every flow in `table` was decided under.
    rules_generation: u64,
    subnet: Ipv4Addr,
    /// The netmask of `subnet`, computed once from its length.
    mask: u32,
    packet_ins: u64,
}

impl OvsSwitch {
    /// Creates a switch for the given local subnet. A `mask_bits` past 32
    /// reads as `/32`.
    pub fn new(subnet: Ipv4Addr, mask_bits: u8) -> Self {
        OvsSwitch {
            table: FlowTable::new(),
            rules_generation: 0,
            subnet,
            mask: subnet_mask(mask_bits),
            packet_ins: 0,
        }
    }

    /// A switch for the paper's lab subnet `192.168.0.0/24`.
    pub fn lab() -> Self {
        OvsSwitch::new(Ipv4Addr::new(192, 168, 0, 0), 24)
    }

    /// Processes one packet: flow-table hit applies the cached action;
    /// a miss raises a packet-in to `controller` and installs the
    /// resulting flow.
    ///
    /// A flow only stands for the rules it was decided under. When the
    /// controller's rule set has changed since (a device onboarded,
    /// re-assessed or removed) the whole table is dropped and
    /// every live flow is decided again on its next packet. That costs
    /// one `u64` compare per packet and, per rule change, one in-process
    /// re-decision per live flow (on the order of 0.1 µs over a hit) — a
    /// rule changes once or twice in a device's lifetime, so there is no
    /// per-MAC index to keep coherent instead.
    pub fn process(
        &mut self,
        packet: &Packet,
        controller: &mut EnforcementModule,
    ) -> SwitchDecision {
        let generation = controller.cache().generation();
        if generation != self.rules_generation {
            self.table.clear();
            self.rules_generation = generation;
        }
        let (subnet, mask) = (self.subnet, self.mask);
        let decision = self.table.switch(packet, || {
            match controller.decide_packet_within(packet, subnet, mask) {
                Verdict::Allow => FlowAction::Forward,
                Verdict::Deny(_) => FlowAction::Drop,
            }
        });
        self.packet_ins += u64::from(decision.packet_in);
        decision
    }

    /// The flow table (for inspection and expiry policies).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Mutable flow-table access.
    pub fn table_mut(&mut self) -> &mut FlowTable {
        &mut self.table
    }

    /// Total packet-in events raised.
    pub fn packet_ins(&self) -> u64 {
        self.packet_ins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnforcementRule;
    use sentinel_netproto::{AppPayload, MacAddr, Timestamp};

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([0, 0, 0, 0, 2, last])
    }

    fn remote_packet(src: MacAddr, t: u64) -> Packet {
        Packet::udp_ipv4(
            Timestamp::from_micros(t),
            src,
            mac(0),
            Ipv4Addr::new(192, 168, 0, 40),
            Ipv4Addr::new(52, 29, 100, 7),
            50000,
            443,
            AppPayload::Empty,
        )
    }

    #[test]
    fn first_packet_raises_packet_in_rest_use_cache() {
        let mut switch = OvsSwitch::lab();
        let mut controller = EnforcementModule::new();
        controller.install_rule(EnforcementRule::trusted(mac(1)));
        let p1 = remote_packet(mac(1), 0);
        let p2 = remote_packet(mac(1), 1000);
        let d1 = switch.process(&p1, &mut controller);
        let d2 = switch.process(&p2, &mut controller);
        assert!(d1.packet_in);
        assert_eq!(d1.action, FlowAction::Forward);
        assert!(!d2.packet_in, "second packet must hit the flow cache");
        assert_eq!(d2.action, FlowAction::Forward);
        assert_eq!(switch.packet_ins(), 1);
    }

    #[test]
    fn strict_device_flow_dropped() {
        let mut switch = OvsSwitch::lab();
        let mut controller = EnforcementModule::new();
        controller.install_rule(EnforcementRule::strict(mac(2)));
        let decision = switch.process(&remote_packet(mac(2), 0), &mut controller);
        assert_eq!(decision.action, FlowAction::Drop);
        // Drop is cached too: the adversary cannot force packet-in storms.
        let again = switch.process(&remote_packet(mac(2), 10), &mut controller);
        assert_eq!(again.action, FlowAction::Drop);
        assert!(!again.packet_in);
    }

    #[test]
    fn rule_change_reaches_flows_already_cached() {
        let mut switch = OvsSwitch::lab();
        let mut controller = EnforcementModule::new();
        let packet = |t| remote_packet(mac(4), t);
        // Talks before it is onboarded: dropped under the strict default.
        assert_eq!(
            switch.process(&packet(0), &mut controller).action,
            FlowAction::Drop
        );
        controller.install_rule(EnforcementRule::trusted(mac(4)));
        let onboarded = switch.process(&packet(1), &mut controller);
        assert_eq!(onboarded.action, FlowAction::Forward);
        assert!(onboarded.packet_in, "the stale flow was decided again");
        assert!(!switch.process(&packet(2), &mut controller).packet_in);
        // The device leaves; whoever wears its MAC next is a stranger.
        controller.remove_rule(mac(4));
        assert_eq!(
            switch.process(&packet(3), &mut controller).action,
            FlowAction::Drop
        );
        assert_eq!(switch.table().len(), 1);
    }

    #[test]
    fn subnet_width_is_applied_by_the_switch() {
        // Two strict devices share the untrusted overlay, so a flow
        // between them is forwarded — but only a subnet wide enough to
        // hold 52.29.100.7 sees the second one as a local device rather
        // than the Internet, which strict blocks.
        let mut controller = EnforcementModule::new();
        controller.install_rule(EnforcementRule::strict(mac(5)));
        controller.install_rule(EnforcementRule::strict(mac(0)));
        let mut action = |subnet, mask_bits| {
            OvsSwitch::new(subnet, mask_bits)
                .process(&remote_packet(mac(5), 0), &mut controller)
                .action
        };
        let lan = Ipv4Addr::new(192, 168, 0, 0);
        let remote = Ipv4Addr::new(52, 29, 100, 7);
        assert_eq!(
            action(lan, 0),
            FlowAction::Forward,
            "/0 holds every address"
        );
        assert_eq!(action(lan, 24), FlowAction::Drop);
        assert_eq!(action(lan, 32), FlowAction::Drop);
        assert_eq!(action(remote, 32), FlowAction::Forward);
        assert_eq!(action(remote, 40), FlowAction::Forward, "/40 reads as /32");
    }

    #[test]
    fn unknown_device_gets_strict_default() {
        let mut switch = OvsSwitch::lab();
        let mut controller = EnforcementModule::new();
        let decision = switch.process(&remote_packet(mac(9), 0), &mut controller);
        assert_eq!(decision.action, FlowAction::Drop);
    }
}
