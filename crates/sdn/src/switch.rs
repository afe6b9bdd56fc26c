//! An Open vSwitch-style software switch: exact-match flow cache with
//! packet-in escalation to the enforcement module.
//!
//! Per packet: one [`FlowKey`](crate::FlowKey), one probe of the flow
//! table, and — on a miss only — one read of the source device's rule.
//! Cached flows are decisions derived from the rule set, so the switch
//! remembers the [`RuleCache::generation`](crate::RuleCache::generation)
//! they were decided under and starts the table over when it has moved.

use std::net::Ipv4Addr;

use sentinel_netproto::Packet;

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
/// With filtering disabled the switch degenerates to a plain learning
/// switch that forwards everything — the paper's "without filtering"
/// baseline in Tables V–VI and Fig. 6.
#[derive(Debug)]
pub struct OvsSwitch {
    table: FlowTable,
    /// The rule-cache generation every flow in `table` was decided under.
    rules_generation: u64,
    filtering: bool,
    subnet: Ipv4Addr,
    mask_bits: u8,
    processed: u64,
    packet_ins: u64,
}

impl OvsSwitch {
    /// Creates a switch for the given local subnet with filtering
    /// enabled.
    pub fn new(subnet: Ipv4Addr, mask_bits: u8) -> Self {
        OvsSwitch {
            table: FlowTable::new(),
            rules_generation: 0,
            filtering: true,
            subnet,
            mask_bits,
            processed: 0,
            packet_ins: 0,
        }
    }

    /// A switch for the paper's lab subnet `192.168.0.0/24`.
    pub fn lab() -> Self {
        OvsSwitch::new(Ipv4Addr::new(192, 168, 0, 0), 24)
    }

    /// Enables or disables the filtering mechanism (the with/without
    /// comparison axis of the evaluation).
    pub fn set_filtering(&mut self, filtering: bool) {
        self.filtering = filtering;
    }

    /// Whether filtering is enabled.
    pub fn filtering(&self) -> bool {
        self.filtering
    }

    /// Processes one packet: flow-table hit applies the cached action;
    /// a miss raises a packet-in to `controller` and installs the
    /// resulting flow, this packet counted.
    ///
    /// A flow only stands for the rules it was decided under. When the
    /// controller's rule set has changed since (a device onboarded,
    /// re-assessed, removed or evicted) the whole table is dropped and
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
        self.processed += 1;
        if !self.filtering {
            return SwitchDecision {
                action: FlowAction::Forward,
                packet_in: false,
            };
        }
        let generation = controller.cache().generation();
        if generation != self.rules_generation {
            self.table.clear();
            self.rules_generation = generation;
        }
        let (subnet, mask_bits) = (self.subnet, self.mask_bits);
        let decision = self.table.switch(packet, || {
            match controller.decide_packet(packet, subnet, mask_bits) {
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

    /// Total packets processed.
    pub fn processed(&self) -> u64 {
        self.processed
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
        assert_eq!(switch.processed(), 2);
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
    fn without_filtering_everything_forwards() {
        let mut switch = OvsSwitch::lab();
        switch.set_filtering(false);
        let mut controller = EnforcementModule::new();
        let decision = switch.process(&remote_packet(mac(3), 0), &mut controller);
        assert_eq!(decision.action, FlowAction::Forward);
        assert!(!decision.packet_in);
        assert_eq!(switch.table().len(), 0, "no flows installed");
    }

    #[test]
    fn unknown_device_gets_strict_default() {
        let mut switch = OvsSwitch::lab();
        let mut controller = EnforcementModule::new();
        let decision = switch.process(&remote_packet(mac(9), 0), &mut controller);
        assert_eq!(decision.action, FlowAction::Drop);
    }
}
