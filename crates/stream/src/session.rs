//! Per-device onboarding session state machines.
//!
//! A [`Session`] never buffers raw packets: it feeds every observed
//! frame's [`RawFeatures`] straight into an incremental
//! [`FeatureExtractor`] and keeps only the columns of `F` so far (12
//! bytes each, consecutive duplicates dropped on arrival) plus the time
//! and stream sequence of the last frame it absorbed. Memory per
//! monitored device follows what its setup sent: a small reservation
//! that grows by doubling, bounded by the identification window (the
//! detector's packet cap × 12 B) instead of the device's chattiness. [`Session::offer`] is the one place the
//! setup-window rule of [`SetupDetector`] is applied.

use sentinel_fingerprint::setup::SetupDetector;
use sentinel_fingerprint::{FeatureExtractor, Fingerprint};
use sentinel_netproto::{RawFeatures, Timestamp};

/// Why a session stopped collecting packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompletionReason {
    /// A transmission gap ended the setup phase (the paper's rate
    /// collapse, Sect. IV-A).
    IdleGap,
    /// The detector's hard packet cap was reached.
    PacketCap,
    /// The stream ended (or the runtime was flushed) with the session
    /// still open.
    Flush,
}

/// What [`Session::offer`] decided about one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// The packet was absorbed into the session.
    Absorbed,
    /// The packet revealed an idle gap: the session must be completed
    /// *without* the packet (it belongs to steady-state traffic).
    GapComplete,
    /// The packet was absorbed and the detector's packet cap was hit:
    /// complete now.
    CapComplete,
}

/// Bounded per-device monitoring state for one in-flight setup phase.
#[derive(Debug, Clone)]
pub struct Session {
    extractor: FeatureExtractor,
    /// Capture time of the last absorbed packet (the idle-gap clock).
    last_seen: Timestamp,
    last_seq: u64,
}

/// Columns of `F` a new session reserves (192 B). Sixteen covers `F'`'s
/// 12 unique packets and the simulator's mean setup (14.6 frames, 10.6
/// columns); `Vec` doubling takes the rare long setup to the
/// `max_packets` worst case, and what a slot has grown to it keeps.
const RESERVED_COLUMNS: usize = 16;

impl Session {
    /// Opens a session at stream sequence number `seq`.
    pub fn open(seq: u64, now: Timestamp) -> Self {
        Session::over(FeatureExtractor::with_capacity(RESERVED_COLUMNS), seq, now)
    }

    /// Starts this session over for another device at stream sequence
    /// `seq`, keeping the extractor's allocations at whatever size they
    /// have grown to: a full table re-opens its LRU victim's slot in
    /// place, so shedding never touches the allocator.
    pub(crate) fn reopen(&mut self, seq: u64, now: Timestamp) {
        let mut extractor = std::mem::take(&mut self.extractor);
        extractor.clear();
        *self = Session::over(extractor, seq, now);
    }

    /// A session that has absorbed nothing yet, over an empty `extractor`.
    fn over(extractor: FeatureExtractor, seq: u64, now: Timestamp) -> Self {
        Session {
            extractor,
            last_seen: now,
            last_seq: seq,
        }
    }

    /// Offers one frame's wire-scanned features (stream sequence `seq`)
    /// to the session.
    ///
    /// This is the setup-window rule (Sect. IV-A: "a decrease in the
    /// rate of packets sent"): the idle-gap check runs *before* the
    /// frame is absorbed (the frame that reveals the gap is steady-state
    /// traffic, not setup) and only once `min_packets` were absorbed, the
    /// packet cap *after*.
    pub fn offer(
        &mut self,
        raw: &RawFeatures,
        timestamp: Timestamp,
        seq: u64,
        detector: &SetupDetector,
    ) -> SessionEvent {
        if self.packets() >= detector.min_packets
            && timestamp.saturating_since(self.last_seen) >= detector.idle_gap
        {
            return SessionEvent::GapComplete;
        }
        self.extractor.push_raw(raw);
        self.last_seen = timestamp;
        self.last_seq = seq;
        if self.packets() >= detector.max_packets {
            SessionEvent::CapComplete
        } else {
            SessionEvent::Absorbed
        }
    }

    /// Finalizes the session into the fingerprint of everything absorbed.
    pub fn finish(self) -> Fingerprint {
        self.extractor.finish()
    }

    /// Packets absorbed so far (stored as columns of `F` or dropped as
    /// consecutive duplicates).
    pub fn packets(&self) -> usize {
        self.extractor.packet_count()
    }

    /// Stream sequence of the last absorbed packet (the LRU key).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_fingerprint::extract;
    use sentinel_netproto::{MacAddr, Packet};
    use std::time::Duration;

    fn packets(n: u32, gap_millis: u64) -> Vec<Packet> {
        let mac = MacAddr::new([1, 1, 1, 1, 1, 1]);
        (0..n)
            .map(|i| Packet::dhcp_discover(mac, i, u64::from(i) * gap_millis * 1000))
            .collect()
    }

    /// Offers `packet` the way the runtime does: encoded, then scanned.
    fn offer(
        session: &mut Session,
        packet: &Packet,
        seq: u64,
        detector: &SetupDetector,
    ) -> SessionEvent {
        let raw = RawFeatures::from_frame(&packet.encode()).expect("valid frame");
        session.offer(&raw, packet.timestamp, seq, detector)
    }

    #[test]
    fn incremental_fingerprint_matches_batch_extract() {
        let packets = packets(10, 50);
        let detector = SetupDetector::default();
        let mut session = Session::open(0, packets[0].timestamp);
        for (i, packet) in packets.iter().enumerate() {
            assert_eq!(
                offer(&mut session, packet, i as u64, &detector),
                SessionEvent::Absorbed
            );
        }
        assert_eq!(session.packets(), 10);
        assert_eq!(session.finish(), extract(&packets));
    }

    #[test]
    fn reopened_session_is_indistinguishable_from_a_fresh_one() {
        let first = packets(6, 50);
        let second = packets(3, 20);
        let detector = SetupDetector::default();
        let mut session = Session::open(0, first[0].timestamp);
        for (i, packet) in first.iter().enumerate() {
            offer(&mut session, packet, i as u64, &detector);
        }
        session.reopen(40, second[0].timestamp);
        assert_eq!(session.packets(), 0);
        assert_eq!(session.last_seq(), 40);
        assert_eq!(session.last_seen, second[0].timestamp);
        for (i, packet) in second.iter().enumerate() {
            offer(&mut session, packet, 40 + i as u64, &detector);
        }
        assert_eq!(session.last_seq(), 42);
        assert_eq!(session.finish(), extract(&second));
    }

    #[test]
    fn idle_gap_completes_without_the_trigger_packet() {
        let detector = SetupDetector::new(2, Duration::from_secs(5), 100);
        let burst = packets(4, 100);
        let mut session = Session::open(0, burst[0].timestamp);
        for (i, packet) in burst.iter().enumerate() {
            offer(&mut session, packet, i as u64, &detector);
        }
        let mut late = burst[0].clone();
        late.timestamp = burst.last().unwrap().timestamp + Duration::from_secs(30);
        assert_eq!(
            offer(&mut session, &late, 99, &detector),
            SessionEvent::GapComplete
        );
        // The gap packet must not be in the fingerprint.
        assert_eq!(session.packets(), 4);
    }

    #[test]
    fn a_gap_before_min_packets_does_not_end_the_setup() {
        let detector = SetupDetector::new(4, Duration::from_secs(5), 100);
        // A 20 s pause after 2 packets (the device reboots mid-setup),
        // three more packets, then the pause that does count.
        let at = |millis: u64| Packet::dhcp_discover(MacAddr::new([1; 6]), 0, millis * 1000);
        let mut session = Session::open(0, Timestamp::ZERO);
        for (seq, millis) in [0, 100, 20_100, 20_200, 20_300].into_iter().enumerate() {
            assert_eq!(
                offer(&mut session, &at(millis), seq as u64, &detector),
                SessionEvent::Absorbed,
                "packet at {millis} ms"
            );
        }
        assert_eq!(
            offer(&mut session, &at(60_000), 5, &detector),
            SessionEvent::GapComplete
        );
        assert_eq!(session.packets(), 5);
    }

    #[test]
    fn packet_cap_completes_inclusively() {
        let detector = SetupDetector::new(1, Duration::from_secs(600), 3);
        let burst = packets(5, 10);
        let mut session = Session::open(0, burst[0].timestamp);
        assert_eq!(
            offer(&mut session, &burst[0], 0, &detector),
            SessionEvent::Absorbed
        );
        assert_eq!(
            offer(&mut session, &burst[1], 1, &detector),
            SessionEvent::Absorbed
        );
        assert_eq!(
            offer(&mut session, &burst[2], 2, &detector),
            SessionEvent::CapComplete
        );
    }

    #[test]
    fn size_is_pinned() {
        assert_eq!(std::mem::size_of::<Session>(), 72);
    }
}
