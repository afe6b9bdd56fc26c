//! OpenFlow-style exact-match flow table.
//!
//! The switch caches a per-flow verdict after the controller decides it,
//! so only the first packet of each flow pays the packet-in round trip —
//! "for any given flow, there is only one matching enforcement rule"
//! (Sect. V). A packet costs one [`FlowKey`] and one probe of the table
//! whether it hits or misses ([`FlowTable::switch`]).

use std::collections::hash_map::{Entry, HashMap};
use std::net::IpAddr;

use serde::{Deserialize, Serialize};

use sentinel_netproto::{MacAddr, Packet, Timestamp};

use crate::SwitchDecision;

/// The exact-match key identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IP, if the packet has an IP layer.
    pub src_ip: Option<IpAddr>,
    /// Destination IP, if the packet has an IP layer.
    pub dst_ip: Option<IpAddr>,
    /// Transport ports, if any.
    pub ports: Option<(u16, u16)>,
}

impl FlowKey {
    /// Extracts the flow key of a packet.
    pub fn of(packet: &Packet) -> FlowKey {
        FlowKey {
            src_mac: packet.src_mac(),
            dst_mac: packet.dst_mac(),
            src_ip: packet.src_ip(),
            dst_ip: packet.dst_ip(),
            ports: packet.ports(),
        }
    }
}

/// The action a flow entry applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowAction {
    /// Forward matching packets.
    Forward,
    /// Silently drop matching packets.
    Drop,
}

#[derive(Debug, Clone)]
struct FlowEntry {
    action: FlowAction,
    packets: u64,
    bytes: u64,
    last_used: Timestamp,
}

/// An exact-match flow table with per-entry counters and idle expiry.
#[derive(Debug, Default)]
pub struct FlowTable {
    entries: HashMap<FlowKey, FlowEntry>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches one packet with a single probe of the table. A hit
    /// bumps the flow's counters and applies its cached action; a miss
    /// asks `decide` (the packet-in to the controller) and installs the
    /// flow with this packet already counted.
    ///
    /// `bytes` counts [`Packet::wire_len`], which is arithmetic: a
    /// switched packet is never re-encoded.
    pub fn switch(
        &mut self,
        packet: &Packet,
        decide: impl FnOnce() -> FlowAction,
    ) -> SwitchDecision {
        let bytes = packet.wire_len() as u64;
        match self.entries.entry(FlowKey::of(packet)) {
            Entry::Occupied(mut flow) => {
                let flow = flow.get_mut();
                flow.packets += 1;
                flow.bytes += bytes;
                flow.last_used = packet.timestamp;
                SwitchDecision {
                    action: flow.action,
                    packet_in: false,
                }
            }
            Entry::Vacant(slot) => {
                let action = decide();
                slot.insert(FlowEntry {
                    action,
                    packets: 1,
                    bytes,
                    last_used: packet.timestamp,
                });
                SwitchDecision {
                    action,
                    packet_in: true,
                }
            }
        }
    }

    /// The action installed for `key`, without counter updates.
    pub fn action(&self, key: &FlowKey) -> Option<FlowAction> {
        self.entries.get(key).map(|e| e.action)
    }

    /// The `(packets, bytes)` counters for `key`.
    pub fn counters(&self, key: &FlowKey) -> Option<(u64, u64)> {
        self.entries.get(key).map(|e| (e.packets, e.bytes))
    }

    /// Number of installed flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table has no flows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every flow, keeping the table's capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Removes entries idle since before `now - idle`, returning how many
    /// were expired.
    pub fn expire_idle(&mut self, now: Timestamp, idle: std::time::Duration) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|_, e| now.saturating_since(e.last_used) < idle);
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn packet(last: u8, t: u64) -> Packet {
        Packet::dhcp_discover(MacAddr::new([0, 0, 0, 0, 0, last]), 1, t)
    }

    fn never() -> FlowAction {
        panic!("a resident flow must not be decided again")
    }

    #[test]
    fn miss_then_hit() {
        let mut table = FlowTable::new();
        let p = packet(1, 0);
        let miss = table.switch(&p, || FlowAction::Forward);
        assert_eq!((miss.action, miss.packet_in), (FlowAction::Forward, true));
        let hit = table.switch(&p, never);
        assert_eq!((hit.action, hit.packet_in), (FlowAction::Forward, false));
        assert_eq!(table.action(&FlowKey::of(&p)), Some(FlowAction::Forward));
    }

    #[test]
    fn counters_include_the_packet_that_installed_the_flow() {
        let mut table = FlowTable::new();
        let p = packet(1, 0);
        let len = p.wire_len() as u64;
        table.switch(&p, || FlowAction::Forward);
        assert_eq!(table.counters(&FlowKey::of(&p)), Some((1, len)));
        table.switch(&p, never);
        assert_eq!(table.counters(&FlowKey::of(&p)), Some((2, 2 * len)));
    }

    #[test]
    fn different_flows_do_not_collide() {
        let mut table = FlowTable::new();
        let a = packet(1, 0);
        let b = packet(2, 0);
        table.switch(&a, || FlowAction::Drop);
        assert!(table.switch(&b, || FlowAction::Forward).packet_in);
        assert_eq!(table.switch(&a, never).action, FlowAction::Drop);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn idle_expiry() {
        let mut table = FlowTable::new();
        let early = packet(1, 0);
        let late = packet(2, 30_000_000);
        table.switch(&early, || FlowAction::Forward);
        table.switch(&late, || FlowAction::Forward);
        let expired = table.expire_idle(Timestamp::from_secs(40), Duration::from_secs(20));
        assert_eq!(expired, 1);
        assert_eq!(table.len(), 1);
        assert!(table.action(&FlowKey::of(&late)).is_some());
        // A hit refreshes the flow's idle clock.
        table.switch(&packet(2, 50_000_000), never);
        assert_eq!(
            table.expire_idle(Timestamp::from_secs(60), Duration::from_secs(20)),
            0
        );
    }

    #[test]
    fn flow_key_captures_five_tuple() {
        let p = packet(1, 0);
        let key = FlowKey::of(&p);
        assert_eq!(key.ports, Some((68, 67)));
        assert!(key.dst_ip.is_some());
    }
}
