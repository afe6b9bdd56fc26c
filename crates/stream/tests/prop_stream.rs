//! Property tests: the streaming session path (wire-scanned frames) must
//! be indistinguishable from batch extraction of the decoded packets, for
//! arbitrary packet sequences; and the session slab must make the same
//! decisions as a naive ordered-map model, for arbitrary sequences of
//! frames, completions, forgets and flushes.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::time::Duration;

use proptest::prelude::*;

use sentinel_fingerprint::extract;
use sentinel_fingerprint::setup::SetupDetector;
use sentinel_netproto::{AppPayload, MacAddr, Packet, RawFeatures, Timestamp};
use sentinel_stream::{Probe, Session, SessionEvent, SessionTable};

/// One step of an arbitrary device conversation.
#[derive(Debug, Clone)]
enum Step {
    /// UDP to the `i`-th destination of a small pool (exercises the
    /// first-appearance dst-IP counter, including revisits).
    Udp { dst: u8, port: u16, gap_ms: u16 },
    /// A packet without an IP destination (must not consume a counter).
    Arp { gap_ms: u16 },
    /// The previous packet again, later: a consecutive duplicate, which
    /// the session counts but does not store.
    Again { gap_ms: u16 },
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..6, 1u16..1024, 0u16..500).prop_map(|(dst, port, gap_ms)| Step::Udp {
                dst,
                port,
                gap_ms
            }),
            (0u16..500).prop_map(|gap_ms| Step::Arp { gap_ms }),
            (0u16..500).prop_map(|gap_ms| Step::Again { gap_ms }),
        ],
        0..48,
    )
}

fn build_packets(steps: &[Step]) -> Vec<Packet> {
    let mac = MacAddr::new([0x0a, 1, 2, 3, 4, 5]);
    let src = Ipv4Addr::new(192, 168, 0, 50);
    let mut cursor = Timestamp::ZERO;
    let mut packets = Vec::with_capacity(steps.len());
    for step in steps {
        match *step {
            Step::Udp { dst, port, gap_ms } => {
                cursor += Duration::from_millis(u64::from(gap_ms));
                packets.push(Packet::udp_ipv4(
                    cursor,
                    mac,
                    MacAddr::ZERO,
                    src,
                    Ipv4Addr::new(10, 0, 0, dst),
                    50000,
                    port,
                    AppPayload::Empty,
                ));
            }
            Step::Arp { gap_ms } => {
                cursor += Duration::from_millis(u64::from(gap_ms));
                packets.push(Packet::arp_probe(cursor, mac, Ipv4Addr::new(10, 0, 0, 99)));
            }
            Step::Again { gap_ms } => {
                cursor += Duration::from_millis(u64::from(gap_ms));
                if let Some(previous) = packets.last().cloned() {
                    packets.push(Packet {
                        timestamp: cursor,
                        ..previous
                    });
                }
            }
        }
    }
    packets
}

/// A detector that never closes the session, so every packet flows in.
fn open_detector() -> SetupDetector {
    SetupDetector::new(usize::MAX, Duration::from_secs(1 << 40), usize::MAX)
}

/// Offers `packet` the way the runtime does: encoded, then scanned.
fn offer(
    session: &mut Session,
    packet: &Packet,
    seq: usize,
    detector: &SetupDetector,
) -> SessionEvent {
    let raw = RawFeatures::from_frame(&packet.encode()).expect("valid frame");
    session.offer(&raw, packet.timestamp, seq as u64, detector, u64::MAX)
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
/// `(opened_seq, last_seq)`, and the onboarded set, in ordered
/// collections that make every rule a one-liner.
#[derive(Default)]
struct ModelTable {
    resident: BTreeMap<MacAddr, (u64, u64)>,
    onboarded: BTreeSet<MacAddr>,
}

impl ModelTable {
    /// The LRU rule, spelled out: oldest `last_seq` (unique, as every
    /// frame has its own sequence number).
    fn victim(&self) -> MacAddr {
        let (mac, _) = self
            .resident
            .iter()
            .min_by_key(|(_, (_, last_seq))| *last_seq)
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
        let seqs = (session.opened_seq(), session.last_seq());
        assert_eq!(model.resident.get(mac), Some(&seqs), "{mac}");
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
                            model.resident.insert(mac, (seq, seq));
                            slot
                        }
                    };
                    let event = table.offer(
                        slot, &raw, Timestamp::ZERO, seq, &detector, u64::MAX,
                    );
                    prop_assert_eq!(event, SessionEvent::Absorbed);
                    model.resident.get_mut(&mac).expect("resident").1 = seq;
                }
                TableOp::Complete(n) => {
                    let mac = pool[n as usize];
                    if let Probe::Resident(slot) = table.probe(mac) {
                        let session = table.complete(slot);
                        let (opened, last) = model.resident.remove(&mac).expect("resident");
                        prop_assert_eq!((session.opened_seq(), session.last_seq()), (opened, last));
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
                        .map(|(mac, (_, last))| (*last, *mac))
                        .collect();
                    expected.sort_unstable();
                    prop_assert_eq!(drained, expected);
                    model.onboarded.extend(std::mem::take(&mut model.resident).into_keys());
                }
            }
            check_table(&table, &model, &pool);
        }
    }

    /// Streaming a sequence packet-by-packet through a `Session` yields
    /// exactly the fingerprint of batch `extract()` — same columns, same
    /// dst-IP counter ordering, same duplicate trimming.
    #[test]
    fn session_extraction_equals_batch_extract(steps in steps()) {
        let packets = build_packets(&steps);
        let detector = open_detector();
        let mut session = Session::open(0, Timestamp::ZERO);
        for (seq, packet) in packets.iter().enumerate() {
            prop_assert_eq!(
                offer(&mut session, packet, seq, &detector),
                SessionEvent::Absorbed
            );
        }
        prop_assert_eq!(session.packets(), packets.len());
        prop_assert_eq!(session.finish(), extract(&packets));
    }

    /// The session's per-packet byte accounting matches the wire.
    #[test]
    fn session_bytes_match_wire_lengths(steps in steps()) {
        let packets = build_packets(&steps);
        let detector = open_detector();
        let mut session = Session::open(0, Timestamp::ZERO);
        for (seq, packet) in packets.iter().enumerate() {
            offer(&mut session, packet, seq, &detector);
        }
        let wire: u64 = packets.iter().map(|p| p.wire_len() as u64).sum();
        prop_assert_eq!(session.bytes(), wire);
    }

    /// A packet cap at `k` makes the session fingerprint equal batch
    /// extraction of the first `k` packets — the identification window
    /// is a pure prefix property.
    #[test]
    fn packet_cap_is_a_prefix(steps in steps(), cap in 1usize..16) {
        let packets = build_packets(&steps);
        let detector = SetupDetector::new(usize::MAX, Duration::from_secs(1 << 40), cap);
        let mut session = Session::open(0, Timestamp::ZERO);
        let mut absorbed = 0;
        for (seq, packet) in packets.iter().enumerate() {
            absorbed += 1;
            match offer(&mut session, packet, seq, &detector) {
                SessionEvent::Absorbed => {}
                SessionEvent::CapComplete(_) => break,
                SessionEvent::GapComplete => unreachable!("gap disabled"),
            }
        }
        let window = packets.len().min(cap);
        prop_assert_eq!(absorbed, window);
        prop_assert_eq!(session.finish(), extract(&packets[..window]));
    }
}
