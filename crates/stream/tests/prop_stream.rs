//! Property tests: the streaming session path (wire-scanned frames) must
//! be indistinguishable from batch extraction of the decoded packets, for
//! arbitrary packet sequences. (The session table's own property, against
//! an ordered-map model, is a unit test in `src/table.rs`.)

use std::net::Ipv4Addr;
use std::time::Duration;

use proptest::prelude::*;

use sentinel_fingerprint::extract;
use sentinel_fingerprint::setup::SetupDetector;
use sentinel_netproto::{AppPayload, MacAddr, Packet, RawFeatures, Timestamp};
use sentinel_stream::{Session, SessionEvent};

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
    session.offer(&raw, packet.timestamp, seq as u64, detector)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
                SessionEvent::CapComplete => break,
                SessionEvent::GapComplete => unreachable!("gap disabled"),
            }
        }
        let window = packets.len().min(cap);
        prop_assert_eq!(absorbed, window);
        prop_assert_eq!(session.finish(), extract(&packets[..window]));
    }
}
