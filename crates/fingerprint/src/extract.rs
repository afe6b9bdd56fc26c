//! Feature extraction from captured packets.

use std::net::IpAddr;

use sentinel_netproto::{Packet, ParseError, RawFeatures};

use crate::{FeatureVector, Fingerprint};

/// Stateful per-device feature extractor.
///
/// The extractor owns the destination-IP counter required by the Table I
/// `Destination IP counter` feature: the `k`-th *distinct* destination
/// address a device contacts is mapped to `k` (1-based), capturing "the
/// count and order in which a device communicates with different
/// entities during its setup procedure".
///
/// Feed packets in capture order with [`FeatureExtractor::push`], then
/// take the fingerprint with [`FeatureExtractor::finish`]. For the common
/// batch case, use the free function [`extract`].
///
/// The extractor holds exactly the columns of `F` so far: a vector equal
/// to the one before it is counted but not stored (Sect. IV-A discards
/// consecutive duplicates), so a device repeating one frame costs one
/// column however long it repeats it.
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    /// Distinct destination addresses in first-appearance order; the
    /// counter of an address is its index + 1. A setup phase contacts a
    /// handful of endpoints, so a linear scan beats hashing.
    dst_ip_order: Vec<IpAddr>,
    /// The columns of `F` so far (no two neighbours equal).
    vectors: Vec<FeatureVector>,
    /// Packets consumed, stored or not.
    packets: usize,
}

impl FeatureExtractor {
    /// Creates an extractor with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an extractor with room for `capacity` columns of `F`
    /// (16 bytes each) reserved; it grows past that by `Vec` doubling.
    ///
    /// A caller that knows its packet count (batch [`extract`]) passes it
    /// and never reallocates; a long-lived per-device extractor should
    /// reserve for the typical setup, not the worst case — what is
    /// reserved is resident for as long as the extractor is.
    pub fn with_capacity(capacity: usize) -> Self {
        FeatureExtractor {
            vectors: Vec::with_capacity(capacity),
            ..FeatureExtractor::default()
        }
    }

    /// Forgets every packet and destination seen so far while keeping
    /// both allocations, so one extractor can serve a second device
    /// without touching the heap.
    pub fn clear(&mut self) {
        self.dst_ip_order.clear();
        self.vectors.clear();
        self.packets = 0;
    }

    /// Extracts the features of `packet` and appends them.
    ///
    /// Returns the extracted vector for callers that want to observe it
    /// (the stored column it equals, if it was a consecutive duplicate).
    pub fn push(&mut self, packet: &Packet) -> &FeatureVector {
        self.push_raw(&RawFeatures::from_packet(packet))
    }

    /// Appends the features of one wire-scanned frame (the zero-copy
    /// fast path — see [`sentinel_netproto::WireScan`]).
    pub fn push_raw(&mut self, raw: &RawFeatures) -> &FeatureVector {
        let counter = match raw.dst_ip {
            Some(ip) => match self.dst_ip_order.iter().position(|&seen| seen == ip) {
                Some(index) => index as u32 + 1,
                None => {
                    self.dst_ip_order.push(ip);
                    self.dst_ip_order.len() as u32
                }
            },
            None => 0,
        };
        let vector = FeatureVector::from_raw(raw, counter);
        self.packets += 1;
        if self.vectors.last() != Some(&vector) {
            self.vectors.push(vector);
        }
        self.vectors
            .last()
            .expect("pushed now or equal to the last")
    }

    /// Extracts the features of one raw Ethernet frame without building
    /// a [`Packet`], falling back to the full decoder only when the wire
    /// scanner cannot certify the frame.
    ///
    /// Errors exactly when `Packet::parse` would.
    pub fn push_bytes(&mut self, frame: &[u8]) -> Result<&FeatureVector, ParseError> {
        let raw = RawFeatures::from_frame(frame)?;
        Ok(self.push_raw(&raw))
    }

    /// The number of packets consumed so far, duplicates included.
    pub fn packet_count(&self) -> usize {
        self.packets
    }

    /// Finalizes into a [`Fingerprint`]. Consecutive duplicates were
    /// dropped on arrival, so the constructor's `dedup` finds none.
    pub fn finish(self) -> Fingerprint {
        Fingerprint::from_vec(self.vectors)
    }
}

/// Extracts a [`Fingerprint`] from setup-phase packets in capture order.
///
/// ```
/// use sentinel_fingerprint::extract;
/// use sentinel_netproto::{MacAddr, Packet};
///
/// let mac = MacAddr::new([0, 0, 0, 0, 0, 7]);
/// let fingerprint = extract(&[Packet::dhcp_discover(mac, 9, 0)]);
/// assert_eq!(fingerprint.len(), 1);
/// ```
pub fn extract(packets: &[Packet]) -> Fingerprint {
    let mut extractor = FeatureExtractor::with_capacity(packets.len());
    for packet in packets {
        extractor.push(packet);
    }
    extractor.finish()
}

/// Extracts a [`Fingerprint`] straight from raw Ethernet frames via the
/// zero-copy wire scanner, never constructing a [`Packet`] on the fast
/// path. Produces exactly the same fingerprint as [`extract`] on the
/// decoded packets; errors exactly when decoding would.
pub fn extract_frames<B: AsRef<[u8]>>(frames: &[B]) -> Result<Fingerprint, ParseError> {
    let mut extractor = FeatureExtractor::with_capacity(frames.len());
    for frame in frames {
        extractor.push_bytes(frame.as_ref())?;
    }
    Ok(extractor.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_netproto::{AppPayload, MacAddr, Timestamp};
    use std::net::Ipv4Addr;

    fn mac() -> MacAddr {
        MacAddr::new([5, 5, 5, 5, 5, 5])
    }

    fn udp_to(dst: Ipv4Addr, dst_port: u16, t: u64) -> Packet {
        Packet::udp_ipv4(
            Timestamp::from_micros(t),
            mac(),
            MacAddr::ZERO,
            Ipv4Addr::new(192, 168, 0, 50),
            dst,
            50000,
            dst_port,
            AppPayload::Empty,
        )
    }

    #[test]
    fn dst_ip_counter_tracks_first_appearance_order() {
        let gw = Ipv4Addr::new(192, 168, 0, 1);
        let cloud = Ipv4Addr::new(52, 1, 2, 3);
        let packets = [
            udp_to(gw, 53, 0),
            udp_to(cloud, 443, 1),
            udp_to(gw, 53, 2),
            udp_to(cloud, 443, 3),
        ];
        let mut extractor = FeatureExtractor::new();
        let counters: Vec<u32> = packets
            .iter()
            .map(|p| extractor.push(p).dst_ip_counter)
            .collect();
        assert_eq!(counters, vec![1, 2, 1, 2]);
    }

    #[test]
    fn packets_without_ip_get_zero_counter() {
        let probe = Packet::arp_probe(Timestamp::ZERO, mac(), Ipv4Addr::new(10, 0, 0, 1));
        let mut extractor = FeatureExtractor::new();
        assert_eq!(extractor.push(&probe).dst_ip_counter, 0);
        // An ARP probe must not consume a counter slot.
        let first_ip = udp_to(Ipv4Addr::new(10, 0, 0, 9), 80, 1);
        assert_eq!(extractor.push(&first_ip).dst_ip_counter, 1);
    }

    #[test]
    fn cleared_extractor_behaves_like_a_new_one_and_keeps_its_arena() {
        let packets = [
            udp_to(Ipv4Addr::new(192, 168, 0, 1), 53, 0),
            udp_to(Ipv4Addr::new(52, 1, 2, 3), 443, 1),
        ];
        let mut extractor = FeatureExtractor::with_capacity(8);
        for packet in &packets {
            extractor.push(packet);
        }
        let arena = extractor.vectors.as_ptr();
        extractor.clear();
        assert_eq!(extractor.packet_count(), 0);
        // The destination counter starts over: the second address of the
        // first run is the first of this one.
        assert_eq!(extractor.push(&packets[1]).dst_ip_counter, 1);
        assert_eq!(extractor.vectors.as_ptr(), arena, "arena was reallocated");
        assert_eq!(extractor.finish(), extract(&packets[1..]));
    }

    #[test]
    fn a_consecutive_duplicate_is_counted_but_not_stored() {
        let gw = Ipv4Addr::new(192, 168, 0, 1);
        let cloud = Ipv4Addr::new(52, 1, 2, 3);
        // A A B A: only the second A repeats the column before it.
        let packets = [
            udp_to(gw, 53, 0),
            udp_to(gw, 53, 1),
            udp_to(cloud, 443, 2),
            udp_to(gw, 53, 3),
        ];
        let mut extractor = FeatureExtractor::new();
        let mut returned = Vec::new();
        for (i, packet) in packets.iter().enumerate() {
            let vector = extractor.push(packet).clone();
            // Stored or not, the caller sees the offered packet's vector.
            let counter = if i == 2 { 2 } else { 1 };
            assert_eq!(vector, FeatureVector::from_packet(packet, counter));
            returned.push(vector);
        }
        assert_eq!(extractor.packet_count(), 4);
        let (a, b) = (returned[0].clone(), returned[2].clone());
        assert_eq!(extractor.vectors, [a.clone(), b, a]);
        // The constructor's `dedup` over every offered vector is the
        // reference the on-arrival drop is held to.
        assert_eq!(extractor.finish(), Fingerprint::from_vec(returned));
    }

    #[test]
    fn a_repeated_frame_holds_one_column_however_long_it_repeats() {
        let packet = udp_to(Ipv4Addr::new(192, 168, 0, 1), 53, 0);
        let mut extractor = FeatureExtractor::new();
        for _ in 0..256 {
            extractor.push(&packet);
        }
        assert_eq!(extractor.packet_count(), 256);
        assert_eq!(extractor.vectors.len(), 1);
        assert!(extractor.vectors.capacity() < 256, "grew for duplicates");
        extractor.clear();
        assert_eq!(extractor.packet_count(), 0, "clear() resets the counter");
        assert_eq!(extractor.finish(), Fingerprint::default());
    }

    #[test]
    fn extract_dedups_consecutive_identical_packets() {
        let gw = Ipv4Addr::new(192, 168, 0, 1);
        // Identical from the feature perspective: same protocols, size,
        // counter and port classes.
        let packets = vec![udp_to(gw, 53, 0), udp_to(gw, 53, 100), udp_to(gw, 53, 200)];
        let fingerprint = extract(&packets);
        assert_eq!(fingerprint.len(), 1);
    }

    #[test]
    fn different_destinations_are_not_duplicates() {
        let packets = vec![
            udp_to(Ipv4Addr::new(192, 168, 0, 1), 53, 0),
            udp_to(Ipv4Addr::new(52, 0, 0, 1), 53, 1),
        ];
        assert_eq!(extract(&packets).len(), 2);
    }
}
