//! Capacity-bounded session slab with deterministic LRU shedding.
//!
//! One `MAC → u32` index answers in a single hash probe everything the
//! ingest loop asks about a frame's source: unknown, mid-setup (the value
//! is its slot in the dense slab) or onboarded (the `ONBOARDED` sentinel).
//! The slots are threaded on one intrusive recency list, least recently
//! active at the head, so finding the victim of a full table is reading
//! the head — O(1) at any capacity.

use std::collections::HashMap;

use sentinel_fingerprint::setup::SetupDetector;
use sentinel_netproto::{MacAddr, RawFeatures, Timestamp};

use crate::session::{Session, SessionEvent};

/// Index value of an onboarded MAC; [`SessionTable::new`] keeps every
/// slot below it.
const ONBOARDED: u32 = u32::MAX;

/// The end of the recency list (never a slot, for the same reason).
const NIL: u32 = u32::MAX;

/// What [`SessionTable::probe`] found for a MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// No session and not onboarded: never seen, or shed since.
    Absent,
    /// Mid-setup, in this slot (until the next `open`, `complete` or
    /// `forget`).
    Resident(usize),
    /// Its setup phase completed here: steady-state traffic is skipped.
    Onboarded,
}

/// A slot's neighbours on the recency list: `prev` was active before it,
/// `next` after it.
#[derive(Debug, Clone, Copy)]
struct Links {
    prev: u32,
    next: u32,
}

/// A bounded table of in-flight sessions, plus the MACs already onboarded.
///
/// Admission policy: a new session is always admitted; when the table is
/// full, the least-recently-active session (oldest `last_seq`) is shed
/// first. Sequence numbers are unique and only grow, so the recency list
/// — a slot moves to its tail whenever its session absorbs a frame — is
/// exactly `last_seq` order and its head is the victim. Shedding is the
/// explicit overflow policy of the streaming runtime — the shed device
/// simply re-enters monitoring if it keeps talking.
#[derive(Debug)]
pub(crate) struct SessionTable {
    capacity: usize,
    index: HashMap<MacAddr, u32>,
    slab: Vec<(MacAddr, Session)>,
    /// Recency links of each slab slot, parallel to `slab`.
    links: Vec<Links>,
    /// Least recently active slot (`NIL` when empty).
    head: u32,
    /// Most recently active slot (`NIL` when empty).
    tail: u32,
}

impl SessionTable {
    /// Creates a table holding at most `capacity` concurrent sessions.
    pub(crate) fn new(capacity: usize) -> Self {
        SessionTable {
            capacity: capacity.clamp(1, ONBOARDED as usize),
            index: HashMap::new(),
            slab: Vec::new(),
            links: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Resident session count.
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    /// The one hash probe a frame costs.
    pub(crate) fn probe(&self, mac: MacAddr) -> Probe {
        match self.index.get(&mac) {
            None => Probe::Absent,
            Some(&ONBOARDED) => Probe::Onboarded,
            Some(&slot) => Probe::Resident(slot as usize),
        }
    }

    /// Opens a session for `mac`, which [`probe`](Self::probe) just
    /// reported [`Probe::Absent`] (anything else is a caller bug and
    /// panics). Returns its slot and, if the table was full, the MAC shed
    /// to make room: the head of the recency list, whose slot is
    /// re-opened in place ([`Session::reopen`]), so a full table admits
    /// without allocating and the newcomer can never be its own victim.
    pub(crate) fn open(
        &mut self,
        mac: MacAddr,
        seq: u64,
        now: Timestamp,
    ) -> (usize, Option<MacAddr>) {
        debug_assert!(self.is_newest(seq, NIL), "open() at stale seq {seq}");
        let (slot, shed) = if self.slab.len() < self.capacity {
            self.slab.push((mac, Session::open(seq, now)));
            self.links.push(Links {
                prev: NIL,
                next: NIL,
            });
            (self.slab.len() - 1, None)
        } else {
            let slot = self.head as usize;
            self.detach(slot);
            let (resident, session) = &mut self.slab[slot];
            self.index.remove(resident);
            session.reopen(seq, now);
            (slot, Some(std::mem::replace(resident, mac)))
        };
        self.push_back(slot);
        let indexed = self.index.insert(mac, slot as u32);
        assert!(indexed.is_none(), "open() of {mac}, already {indexed:?}");
        (slot, shed)
    }

    /// Offers one frame (stream sequence `seq`) to the session in `slot`
    /// ([`Session::offer`]); a session that absorbs it becomes the most
    /// recently active. A [`SessionEvent::GapComplete`] leaves the
    /// session untouched, for the caller to [`complete`](Self::complete).
    pub(crate) fn offer(
        &mut self,
        slot: usize,
        raw: &RawFeatures,
        timestamp: Timestamp,
        seq: u64,
        detector: &SetupDetector,
    ) -> SessionEvent {
        debug_assert!(
            self.is_newest(seq, slot as u32),
            "offer() at stale seq {seq}"
        );
        let event = self.slab[slot].1.offer(raw, timestamp, seq, detector);
        if event != SessionEvent::GapComplete && slot as u32 != self.tail {
            self.detach(slot);
            self.push_back(slot);
        }
        event
    }

    /// Whether `seq` is above every resident's `last_seq` — or equal to
    /// that of `slot`, the session its frame just opened.
    fn is_newest(&self, seq: u64, slot: u32) -> bool {
        match self.tail {
            NIL => true,
            tail => {
                let newest = self.slab[tail as usize].1.last_seq();
                seq > newest || (seq == newest && slot == tail)
            }
        }
    }

    /// Takes the session out of `slot` because its setup phase completed
    /// and marks its MAC onboarded; the last session moves into the slot.
    pub(crate) fn complete(&mut self, slot: usize) -> Session {
        let (mac, session) = self.take(slot);
        self.index.insert(mac, ONBOARDED);
        session
    }

    /// Forgets `mac` entirely — its resident session or its onboarded
    /// mark — so its next frame finds it [`Probe::Absent`]. Returns
    /// whether a resident session was dropped.
    pub(crate) fn forget(&mut self, mac: MacAddr) -> bool {
        match self.index.remove(&mac) {
            None | Some(ONBOARDED) => false,
            Some(slot) => {
                self.take(slot as usize);
                true
            }
        }
    }

    /// Removes `slot` from the slab and the list, moving the last session
    /// into it and re-linking that session's neighbours to its new slot.
    fn take(&mut self, slot: usize) -> (MacAddr, Session) {
        self.detach(slot);
        let taken = self.slab.swap_remove(slot);
        self.links.swap_remove(slot);
        if let Some((moved, _)) = self.slab.get(slot) {
            self.index.insert(*moved, slot as u32);
            self.attach(slot);
        }
        taken
    }

    /// Links `slot` in as the most recently active.
    fn push_back(&mut self, slot: usize) {
        self.links[slot] = Links {
            prev: self.tail,
            next: NIL,
        };
        self.attach(slot);
    }

    /// Points `slot`'s neighbours (or the list ends) at it.
    fn attach(&mut self, slot: usize) {
        let Links { prev, next } = self.links[slot];
        match prev {
            NIL => self.head = slot as u32,
            prev => self.links[prev as usize].next = slot as u32,
        }
        match next {
            NIL => self.tail = slot as u32,
            next => self.links[next as usize].prev = slot as u32,
        }
    }

    /// Unlinks `slot`: its neighbours (or the list ends) point past it.
    fn detach(&mut self, slot: usize) {
        let Links { prev, next } = self.links[slot];
        match prev {
            NIL => self.head = next,
            prev => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.links[next as usize].prev = prev,
        }
    }

    /// Forgets every session and onboarded MAC, keeping the allocations
    /// warm — the pooled-runtime reset path ([`crate::StreamRuntime::reset`]).
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.links.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Completes every resident session at once (end of stream): drains
    /// them down the recency list, least recently active first, all
    /// onboarded.
    pub(crate) fn drain_ordered(&mut self) -> Vec<(MacAddr, Session)> {
        let mut drained = Vec::with_capacity(self.slab.len());
        while self.head != NIL {
            let slot = self.head as usize;
            let mac = self.slab[slot].0;
            drained.push((mac, self.complete(slot)));
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sentinel_netproto::Packet;
    use std::collections::{BTreeMap, BTreeSet};
    use std::net::Ipv4Addr;
    use std::time::Duration;

    impl SessionTable {
        /// The configured capacity.
        fn capacity(&self) -> usize {
            self.capacity
        }

        /// Whether no sessions are resident.
        fn is_empty(&self) -> bool {
            self.slab.is_empty()
        }
    }

    impl SessionTable {
        /// The resident sessions, in slot order (which carries no meaning).
        fn sessions(&self) -> &[(MacAddr, Session)] {
            &self.slab
        }
    }

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([0, 0, 0, 0, 0, n])
    }

    fn open(table: &mut SessionTable, m: u8, seq: u64) -> (usize, Option<MacAddr>) {
        table.open(mac(m), seq, Timestamp::ZERO)
    }

    /// Offers a DHCP discover of `mac(m)`, which is resident, at `seq`.
    fn offer(table: &mut SessionTable, m: u8, seq: u64) -> SessionEvent {
        let Probe::Resident(slot) = table.probe(mac(m)) else {
            panic!("{} is not resident", mac(m));
        };
        let frame = Packet::dhcp_discover(mac(m), 7, 0).encode();
        let raw = RawFeatures::from_frame(&frame).expect("valid frame");
        let detector = SetupDetector::default();
        table.offer(slot, &raw, Timestamp::ZERO, seq, &detector)
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
        assert_eq!((session.last_seq(), session.packets()), (30, 0));
    }

    #[test]
    fn an_absorbed_frame_moves_its_session_off_the_head() {
        let mut table = SessionTable::new(2);
        open(&mut table, 1, 10);
        open(&mut table, 2, 20);
        assert_eq!(offer(&mut table, 1, 30), SessionEvent::Absorbed);
        // mac(2) is now the least recently active.
        assert_eq!(open(&mut table, 3, 40), (1, Some(mac(2))));
        assert_eq!(open(&mut table, 4, 50), (0, Some(mac(1))));
    }

    #[test]
    fn completion_fixes_up_the_moved_slot_and_marks_the_mac_onboarded() {
        let mut table = SessionTable::new(4);
        for (m, seq) in [(1, 10), (2, 20), (3, 30)] {
            open(&mut table, m, seq);
        }
        assert_eq!(table.complete(0).last_seq(), 10);
        assert_eq!(table.probe(mac(1)), Probe::Onboarded);
        // The last session moved into the freed slot.
        assert_eq!(table.probe(mac(3)), Probe::Resident(0));
        assert_eq!(table.probe(mac(2)), Probe::Resident(1));
        // Completing the last slot moves nothing.
        assert_eq!(table.complete(1).last_seq(), 20);
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
    fn drain_ordered_is_recency_order_and_onboards_everyone() {
        let mut table = SessionTable::new(8);
        for (m, seq) in [(3u8, 10u64), (1, 20), (2, 30)] {
            open(&mut table, m, seq);
        }
        offer(&mut table, 3, 40);
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

    /// A detector that never closes a session, so every frame is absorbed.
    fn open_detector() -> SetupDetector {
        SetupDetector::new(usize::MAX, Duration::from_secs(1 << 40), usize::MAX)
    }

    /// One thing that can happen to a session table; `u8`s index the MAC
    /// pool.
    #[derive(Debug, Clone)]
    enum TableOp {
        /// A frame from this MAC: skipped if onboarded, absorbed if
        /// resident, otherwise a session is opened (shedding if full) first.
        Frame(u8),
        /// This MAC's setup phase completes, if it is resident.
        Complete(u8),
        /// This MAC is forgotten (the device left): its session or its
        /// onboarded mark goes.
        Forget(u8),
        /// End of stream: every resident session completes.
        Flush,
    }

    fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
        // Six frames to two completions to one forget to one flush.
        let op = (0u8..10, 0u8..12).prop_map(|(kind, n)| match kind {
            0..=5 => TableOp::Frame(n),
            6..=7 => TableOp::Complete(n),
            8 => TableOp::Forget(n),
            _ => TableOp::Flush,
        });
        proptest::collection::vec(op, 0..96)
    }

    /// The reference model of [`SessionTable`]: resident MACs with their
    /// `(last_seq, packets)`, and the onboarded set, in ordered
    /// collections that make every rule a one-liner.
    #[derive(Default)]
    struct ModelTable {
        resident: BTreeMap<MacAddr, (u64, usize)>,
        onboarded: BTreeSet<MacAddr>,
    }

    impl ModelTable {
        /// The LRU rule, spelled out: oldest `last_seq` (unique, as every
        /// frame has its own sequence number).
        fn victim(&self) -> MacAddr {
            let (mac, _) = self
                .resident
                .iter()
                .min_by_key(|(_, (last_seq, _))| *last_seq)
                .expect("full table");
            *mac
        }
    }

    /// Index and slab must describe the same sessions, and both must agree
    /// with the model, for every MAC that could have been seen.
    fn check_table(table: &SessionTable, model: &ModelTable, pool: &[MacAddr]) {
        assert!(table.len() <= table.capacity());
        assert_eq!(table.len(), model.resident.len());
        assert_eq!(table.is_empty(), model.resident.is_empty());
        // Slab → index: every session is indexed at the slot it sits in.
        for (slot, (mac, session)) in table.sessions().iter().enumerate() {
            assert_eq!(table.probe(*mac), Probe::Resident(slot));
            let state = (session.last_seq(), session.packets());
            assert_eq!(model.resident.get(mac), Some(&state), "{mac}");
        }
        // Index → slab: a slot the index names holds that MAC's session
        // (with the loop above: a bijection), and no MAC is both onboarded
        // and resident.
        for &mac in pool {
            let modelled = (
                model.resident.contains_key(&mac),
                model.onboarded.contains(&mac),
            );
            let found = match table.probe(mac) {
                Probe::Absent => (false, false),
                Probe::Resident(slot) => {
                    assert_eq!(table.sessions()[slot].0, mac);
                    (true, false)
                }
                Probe::Onboarded => (false, true),
            };
            assert_eq!(found, modelled, "{mac}: (resident, onboarded)");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slab sheds the same victim, keeps the same resident set and
        /// flushes in the same (recency) order as the ordered-map model, and
        /// its index and slab stay consistent after every step — whichever
        /// slot a completion or a forget moves.
        #[test]
        fn slab_matches_the_ordered_map_model(capacity in 1usize..=8, ops in table_ops()) {
            let pool: Vec<MacAddr> = (0..12).map(|n| MacAddr::new([2, 0, 0, 0, 0, n])).collect();
            let frame = Packet::arp_probe(Timestamp::ZERO, pool[0], Ipv4Addr::new(10, 0, 0, 9));
            let raw = RawFeatures::from_frame(&frame.encode()).expect("valid frame");
            let detector = open_detector();
            let mut table = SessionTable::new(capacity);
            let mut model = ModelTable::default();
            for (seq, op) in (1u64..).zip(&ops) {
                match *op {
                    TableOp::Frame(n) => {
                        let mac = pool[n as usize];
                        let slot = match table.probe(mac) {
                            Probe::Onboarded => continue,
                            Probe::Resident(slot) => slot,
                            Probe::Absent => {
                                let expected = (model.resident.len() == capacity)
                                    .then(|| model.victim());
                                let (slot, shed) = table.open(mac, seq, Timestamp::ZERO);
                                prop_assert_eq!(shed, expected);
                                if let Some(victim) = shed {
                                    model.resident.remove(&victim);
                                }
                                model.resident.insert(mac, (seq, 0));
                                slot
                            }
                        };
                        let event = table.offer(slot, &raw, Timestamp::ZERO, seq, &detector);
                        prop_assert_eq!(event, SessionEvent::Absorbed);
                        let (last, packets) = model.resident.get_mut(&mac).expect("resident");
                        (*last, *packets) = (seq, *packets + 1);
                    }
                    TableOp::Complete(n) => {
                        let mac = pool[n as usize];
                        if let Probe::Resident(slot) = table.probe(mac) {
                            let session = table.complete(slot);
                            let state = model.resident.remove(&mac).expect("resident");
                            prop_assert_eq!((session.last_seq(), session.packets()), state);
                            model.onboarded.insert(mac);
                        }
                    }
                    TableOp::Forget(n) => {
                        let mac = pool[n as usize];
                        let dropped = table.forget(mac);
                        prop_assert_eq!(dropped, model.resident.remove(&mac).is_some());
                        model.onboarded.remove(&mac);
                    }
                    TableOp::Flush => {
                        let drained: Vec<(u64, MacAddr)> = table
                            .drain_ordered()
                            .iter()
                            .map(|(mac, session)| (session.last_seq(), *mac))
                            .collect();
                        let mut expected: Vec<(u64, MacAddr)> = model
                            .resident
                            .iter()
                            .map(|(mac, (last, _))| (*last, *mac))
                            .collect();
                        expected.sort_unstable();
                        prop_assert_eq!(drained, expected);
                        model.onboarded.extend(std::mem::take(&mut model.resident).into_keys());
                    }
                }
                check_table(&table, &model, &pool);
            }
        }
    }
}
