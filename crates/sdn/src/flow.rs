//! OpenFlow-style exact-match flow table.
//!
//! The switch caches a per-flow verdict after the controller decides it,
//! so only the first packet of each flow pays the packet-in round trip —
//! "for any given flow, there is only one matching enforcement rule"
//! (Sect. V). A packet costs one [`FlowKey`] and one probe of the table
//! whether it hits or misses ([`FlowTable::switch`]), and the probe
//! hashes the key in one write of its bytes to std's keyed SipHash.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

use sentinel_netproto::{MacAddr, Packet, Timestamp};

use crate::SwitchDecision;

/// The exact-match key identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The longest key encoding: layout tag, two MACs, two IPv6 addresses,
/// two ports.
const MAX_KEY_BYTES: usize = 1 + 12 + 16 + 16 + 4;

/// 0 for no address, 1 for IPv4, 2 for IPv6.
fn address_layout(ip: Option<IpAddr>) -> u8 {
    match ip {
        None => 0,
        Some(IpAddr::V4(_)) => 1,
        Some(IpAddr::V6(_)) => 2,
    }
}

/// The key in one `write` of at most 49 bytes from the stack: a layout
/// tag (each address absent, V4 or V6; ports present or not), the 12 MAC
/// octets, each present address at its own width, then the ports. A
/// derived impl would feed SipHash ≈ 15 small writes — length prefixes,
/// discriminants, fields — at about twice the cost of one write of the
/// same bytes.
///
/// The tag fixes which fields follow and how wide each is, so two keys
/// encode to the same bytes exactly when they are equal (an IPv4 address
/// and its v4-mapped IPv6 form differ in the tag), and no encoding is a
/// prefix of another.
impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut bytes = [0u8; MAX_KEY_BYTES];
        bytes[0] = address_layout(self.src_ip)
            | address_layout(self.dst_ip) << 2
            | u8::from(self.ports.is_some()) << 4;
        bytes[1..7].copy_from_slice(&self.src_mac.octets());
        bytes[7..13].copy_from_slice(&self.dst_mac.octets());
        let mut len = 13;
        let mut put = |field: &[u8]| {
            bytes[len..len + field.len()].copy_from_slice(field);
            len += field.len();
        };
        for ip in [self.src_ip, self.dst_ip].into_iter().flatten() {
            match ip {
                IpAddr::V4(ip) => put(&ip.octets()),
                IpAddr::V6(ip) => put(&ip.octets()),
            }
        }
        if let Some((src, dst)) = self.ports {
            put(&src.to_be_bytes());
            put(&dst.to_be_bytes());
        }
        state.write(&bytes[..len]);
    }
}

/// The action a flow entry applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowAction {
    /// Forward matching packets.
    Forward,
    /// Silently drop matching packets.
    Drop,
}

/// A cached flow: its action, and when a packet last hit it (for idle
/// expiry).
#[derive(Debug, Clone)]
struct FlowEntry {
    action: FlowAction,
    last_used: Timestamp,
}

/// An exact-match flow table with idle expiry.
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
    /// refreshes the flow's idle clock and applies its cached action; a
    /// miss asks `decide` (the packet-in to the controller) and installs
    /// the flow.
    pub fn switch(
        &mut self,
        packet: &Packet,
        decide: impl FnOnce() -> FlowAction,
    ) -> SwitchDecision {
        match self.entries.entry(FlowKey::of(packet)) {
            Entry::Occupied(mut flow) => {
                let flow = flow.get_mut();
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
                    last_used: packet.timestamp,
                });
                SwitchDecision {
                    action,
                    packet_in: true,
                }
            }
        }
    }

    /// The action installed for `key`, leaving its idle clock alone.
    pub fn action(&self, key: &FlowKey) -> Option<FlowAction> {
        self.entries.get(key).map(|e| e.action)
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

    #[test]
    fn size_is_pinned() {
        assert_eq!(std::mem::size_of::<FlowEntry>(), 16);
    }
}
