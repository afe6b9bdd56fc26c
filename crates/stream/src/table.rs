//! Capacity-bounded session slab with deterministic LRU shedding.
//!
//! One `MAC → u32` index answers in a single hash probe everything the
//! ingest loop asks about a frame's source: unknown, mid-setup (the value
//! is its slot in the dense slab) or onboarded (the `ONBOARDED` sentinel).

use std::collections::HashMap;

use sentinel_netproto::{MacAddr, Timestamp};

use crate::session::Session;

/// Index value of an onboarded MAC; [`SessionTable::new`] keeps every
/// slot below it.
const ONBOARDED: u32 = u32::MAX;

/// What [`SessionTable::probe`] found for a MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No session and not onboarded: never seen, or shed since.
    Absent,
    /// Mid-setup, in this slot (until the next `open` or `complete`).
    Resident(usize),
    /// Its setup phase completed here: steady-state traffic is skipped.
    Onboarded,
}

/// A bounded table of in-flight sessions, plus the MACs already onboarded.
///
/// Admission policy: a new session is always admitted; when the table is
/// full, the least-recently-active session is shed first (oldest
/// `last_seq`, ties broken by MAC — a total order, so the choice cannot
/// depend on where sessions sit in the slab). Shedding is the explicit
/// overflow policy of the streaming runtime — the shed device simply
/// re-enters monitoring if it keeps talking.
#[derive(Debug, Default)]
pub struct SessionTable {
    capacity: usize,
    index: HashMap<MacAddr, u32>,
    slab: Vec<(MacAddr, Session)>,
}

impl SessionTable {
    /// Creates a table holding at most `capacity` concurrent sessions.
    pub fn new(capacity: usize) -> Self {
        SessionTable {
            capacity: capacity.clamp(1, ONBOARDED as usize),
            ..SessionTable::default()
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident session count.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether no sessions are resident.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The resident sessions, in slot order (which carries no meaning).
    pub fn sessions(&self) -> &[(MacAddr, Session)] {
        &self.slab
    }

    /// Mutable access to the session in `slot`.
    pub fn session_mut(&mut self, slot: usize) -> &mut Session {
        &mut self.slab[slot].1
    }

    /// The one hash probe a frame costs.
    pub fn probe(&self, mac: MacAddr) -> Probe {
        match self.index.get(&mac) {
            None => Probe::Absent,
            Some(&ONBOARDED) => Probe::Onboarded,
            Some(&slot) => Probe::Resident(slot as usize),
        }
    }

    /// Opens a session for `mac`, which [`probe`](Self::probe) just
    /// reported [`Probe::Absent`] (anything else is a caller bug and
    /// panics). Returns its slot and, if the table was full, the MAC shed
    /// to make room: the victim's slot is re-opened in place
    /// ([`Session::reopen`]), so a full table admits without allocating
    /// and the newcomer can never be its own victim.
    pub fn open(&mut self, mac: MacAddr, seq: u64, now: Timestamp) -> (usize, Option<MacAddr>) {
        let (slot, shed) = if self.slab.len() < self.capacity {
            self.slab.push((mac, Session::open(seq, now)));
            (self.slab.len() - 1, None)
        } else {
            let slot = (0..self.slab.len())
                .min_by_key(|&slot| (self.slab[slot].1.last_seq(), self.slab[slot].0))
                .expect("capacity is at least one");
            let (resident, session) = &mut self.slab[slot];
            self.index.remove(resident);
            session.reopen(seq, now);
            (slot, Some(std::mem::replace(resident, mac)))
        };
        let indexed = self.index.insert(mac, slot as u32);
        assert!(indexed.is_none(), "open() of {mac}, already {indexed:?}");
        (slot, shed)
    }

    /// Takes the session out of `slot` because its setup phase completed
    /// and marks its MAC onboarded; the last session moves into the slot.
    pub fn complete(&mut self, slot: usize) -> Session {
        let (mac, session) = self.take(slot);
        self.index.insert(mac, ONBOARDED);
        session
    }

    /// Forgets `mac` entirely — its resident session or its onboarded
    /// mark — so its next frame finds it [`Probe::Absent`]. Returns
    /// whether a resident session was dropped.
    pub fn forget(&mut self, mac: MacAddr) -> bool {
        match self.index.remove(&mac) {
            None | Some(ONBOARDED) => false,
            Some(slot) => {
                self.take(slot as usize);
                true
            }
        }
    }

    /// Removes `slot` from the slab, moving the last session into it.
    fn take(&mut self, slot: usize) -> (MacAddr, Session) {
        let taken = self.slab.swap_remove(slot);
        if let Some((moved, _)) = self.slab.get(slot) {
            self.index.insert(*moved, slot as u32);
        }
        taken
    }

    /// Forgets every session and onboarded MAC, keeping both allocations
    /// warm — the pooled-runtime reset path ([`crate::StreamRuntime::reset`]).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
    }

    /// Completes every resident session at once (end of stream): drains
    /// them ordered by when each was opened (then MAC), all onboarded.
    pub fn drain_ordered(&mut self) -> Vec<(MacAddr, Session)> {
        // Every indexed MAC is drained here or was onboarded before.
        self.index.values_mut().for_each(|slot| *slot = ONBOARDED);
        let mut drained: Vec<(MacAddr, Session)> = self.slab.drain(..).collect();
        drained.sort_by_key(|(mac, session)| (session.opened_seq(), *mac));
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([0, 0, 0, 0, 0, n])
    }

    fn open(table: &mut SessionTable, m: u8, seq: u64) -> (usize, Option<MacAddr>) {
        table.open(mac(m), seq, Timestamp::ZERO)
    }

    #[test]
    fn admits_until_capacity_then_reopens_the_lru_slot_in_place() {
        let mut table = SessionTable::new(2);
        assert_eq!(open(&mut table, 1, 10), (0, None));
        assert_eq!(open(&mut table, 2, 20), (1, None));
        // mac(1) has the oldest activity (last_seq 10): it is shed and
        // mac(3) takes over its slot.
        assert_eq!(open(&mut table, 3, 30), (0, Some(mac(1))));
        assert_eq!(table.len(), 2);
        assert_eq!(table.probe(mac(1)), Probe::Absent);
        assert_eq!(table.probe(mac(2)), Probe::Resident(1));
        assert_eq!(table.probe(mac(3)), Probe::Resident(0));
        let (resident, session) = &table.sessions()[0];
        assert_eq!(*resident, mac(3));
        assert_eq!((session.opened_seq(), session.packets()), (30, 0));
    }

    #[test]
    fn lru_ties_break_by_mac_wherever_the_sessions_sit() {
        for order in [[9, 4], [4, 9]] {
            let mut table = SessionTable::new(2);
            for m in order {
                open(&mut table, m, 5);
            }
            let (_, shed) = open(&mut table, 7, 6);
            assert_eq!(shed, Some(mac(4)), "equal last_seq → the smaller MAC");
        }
    }

    #[test]
    fn completion_fixes_up_the_moved_slot_and_marks_the_mac_onboarded() {
        let mut table = SessionTable::new(4);
        for (m, seq) in [(1, 10), (2, 20), (3, 30)] {
            open(&mut table, m, seq);
        }
        assert_eq!(table.complete(0).opened_seq(), 10);
        assert_eq!(table.probe(mac(1)), Probe::Onboarded);
        // The last session moved into the freed slot.
        assert_eq!(table.probe(mac(3)), Probe::Resident(0));
        assert_eq!(table.probe(mac(2)), Probe::Resident(1));
        // Completing the last slot moves nothing.
        assert_eq!(table.complete(1).opened_seq(), 20);
        assert_eq!(table.probe(mac(3)), Probe::Resident(0));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn forget_drops_a_session_or_an_onboarded_mark_and_nothing_else() {
        let mut table = SessionTable::new(4);
        for (m, seq) in [(1, 10), (2, 20), (3, 30)] {
            open(&mut table, m, seq);
        }
        table.complete(1);
        assert!(!table.forget(mac(2)), "onboarded: no session to drop");
        assert!(table.forget(mac(1)), "mid-setup: its session goes");
        assert!(!table.forget(mac(9)), "unknown MAC");
        assert_eq!(table.probe(mac(1)), Probe::Absent);
        assert_eq!(table.probe(mac(2)), Probe::Absent);
        // mac(3) moved into slot 1 at the completion, then into slot 0.
        assert_eq!(table.probe(mac(3)), Probe::Resident(0));
        assert_eq!(table.len(), 1);
        assert_eq!(open(&mut table, 2, 40), (1, None), "a newcomer again");
    }

    #[test]
    #[should_panic(expected = "open() of")]
    fn opening_a_resident_mac_is_a_caller_bug() {
        let mut table = SessionTable::new(2);
        open(&mut table, 1, 1);
        open(&mut table, 1, 2);
    }

    #[test]
    fn drain_ordered_is_open_order_and_onboards_everyone() {
        let mut table = SessionTable::new(8);
        for (seq, m) in [(30u64, 3u8), (10, 1), (20, 2)] {
            open(&mut table, m, seq);
        }
        let order: Vec<MacAddr> = table.drain_ordered().into_iter().map(|(m, _)| m).collect();
        assert_eq!(order, vec![mac(1), mac(2), mac(3)]);
        assert!(table.is_empty());
        assert!((1..=3).all(|m| table.probe(mac(m)) == Probe::Onboarded));
        table.clear();
        assert_eq!(table.probe(mac(1)), Probe::Absent);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut table = SessionTable::new(0);
        assert_eq!(table.capacity(), 1);
        assert_eq!(open(&mut table, 1, 1), (0, None));
        assert_eq!(open(&mut table, 2, 2), (0, Some(mac(1))));
    }
}
