//! Frame-stream abstraction for continuous capture ingestion.
//!
//! The batch pipeline reads a whole capture into a `Vec<Packet>` before
//! doing anything with it. Streaming consumers (the `sentinel-stream`
//! onboarding runtime) instead pull timestamped raw frames through
//! [`FrameSource`], so a multi-gigabyte capture — or a live tap — never
//! has to be resident in memory, and no [`Packet`] is built for a frame
//! the wire scanner ([`crate::WireScan`]) can certify.
//! [`PcapReader`] implements the trait directly,
//! and [`MemoryFrameSource`] serves an in-memory frame list — or, through
//! [`MemoryFrameSource::from_packets`], encodes a packet list (e.g. a
//! simulated interleaved workload) for it.

use std::io::Read;

use crate::pcap::PcapReader;
use crate::{Packet, ParseError, Timestamp};

/// A pull-based source of timestamped **raw frames** in capture order.
///
/// Frames are *not* validated here — a malformed frame is the consumer's
/// decision (the runtime counts and skips it).
pub trait FrameSource {
    /// Produces the next raw frame into `frame` (cleared and overwritten,
    /// reusing its capacity where the source supports it), returning the
    /// frame's timestamp — or `None` at end of stream. File-backed
    /// sources read in place ([`PcapReader::read_raw_into`]), making
    /// replay allocation-free.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the underlying capture container
    /// (e.g. a pcap record header) is truncated — frame *contents* are
    /// never inspected.
    fn next_frame_into(&mut self, frame: &mut Vec<u8>) -> Result<Option<Timestamp>, ParseError>;

    /// Reads up to `max` frames, **overwriting** `buf` in place — each
    /// retained slot's `Vec<u8>` keeps its capacity and is refilled
    /// through [`Self::next_frame_into`], then `buf` is truncated to the
    /// number of frames read (returned; `0` means end of stream). Batch
    /// replay loops that call this with the same `buf` every round stop
    /// allocating once the buffers have grown to the capture's frame
    /// sizes.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ParseError`]; frames read before the error
    /// remain in `buf` (truncated to exactly those).
    fn refill_frames(
        &mut self,
        buf: &mut Vec<(Timestamp, Vec<u8>)>,
        max: usize,
    ) -> Result<usize, ParseError> {
        let mut read = 0;
        let result = loop {
            if read >= max {
                break Ok(read);
            }
            if read == buf.len() {
                buf.push((Timestamp::ZERO, Vec::new()));
            }
            let (slot_ts, slot) = &mut buf[read];
            match self.next_frame_into(slot) {
                Ok(Some(timestamp)) => {
                    *slot_ts = timestamp;
                    read += 1;
                }
                Ok(None) => break Ok(read),
                Err(err) => break Err(err),
            }
        };
        buf.truncate(read);
        result
    }
}

impl<R: Read> FrameSource for PcapReader<R> {
    fn next_frame_into(&mut self, frame: &mut Vec<u8>) -> Result<Option<Timestamp>, ParseError> {
        self.read_raw_into(frame)
    }
}

impl<S: FrameSource + ?Sized> FrameSource for &mut S {
    fn next_frame_into(&mut self, frame: &mut Vec<u8>) -> Result<Option<Timestamp>, ParseError> {
        (**self).next_frame_into(frame)
    }
}

/// A [`FrameSource`] over an in-memory frame list, in order.
///
/// ```
/// use sentinel_netproto::stream::{FrameSource, MemoryFrameSource};
/// use sentinel_netproto::{MacAddr, Packet};
///
/// let packet = Packet::dhcp_discover(MacAddr::ZERO, 1, 0);
/// let mut source = MemoryFrameSource::from_packets(std::slice::from_ref(&packet));
/// let mut frame = Vec::new();
/// assert_eq!(source.next_frame_into(&mut frame).unwrap(), Some(packet.timestamp));
/// assert_eq!(frame, packet.encode());
/// assert!(source.next_frame_into(&mut frame).unwrap().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct MemoryFrameSource {
    frames: std::vec::IntoIter<(Timestamp, Vec<u8>)>,
}

impl MemoryFrameSource {
    /// Creates a source that yields `frames` front to back.
    pub fn new(frames: Vec<(Timestamp, Vec<u8>)>) -> Self {
        MemoryFrameSource {
            frames: frames.into_iter(),
        }
    }

    /// Encodes `packets` to wire frames up front (outside any measured
    /// hot path) and serves them — the adapter for callers that hold
    /// decoded [`Packet`]s.
    pub fn from_packets(packets: &[Packet]) -> Self {
        MemoryFrameSource::new(packets.iter().map(|p| (p.timestamp, p.encode())).collect())
    }

    /// Frames not yet yielded.
    pub fn remaining(&self) -> usize {
        self.frames.len()
    }
}

impl FrameSource for MemoryFrameSource {
    fn next_frame_into(&mut self, frame: &mut Vec<u8>) -> Result<Option<Timestamp>, ParseError> {
        match self.frames.next() {
            Some((timestamp, bytes)) => {
                *frame = bytes;
                Ok(Some(timestamp))
            }
            None => {
                frame.clear();
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;
    use crate::MacAddr;

    fn sample() -> Vec<Packet> {
        let mac = MacAddr::new([9, 8, 7, 6, 5, 4]);
        (0..5)
            .map(|i| Packet::dhcp_discover(mac, i, u64::from(i) * 1000))
            .collect()
    }

    fn frames_of(packets: &[Packet]) -> Vec<(Timestamp, Vec<u8>)> {
        packets.iter().map(|p| (p.timestamp, p.encode())).collect()
    }

    fn pcap_of(packets: &[Packet]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = PcapWriter::new(&mut buf).unwrap();
        for packet in packets {
            writer.write_packet(packet).unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    #[test]
    fn memory_frame_source_yields_encoded_frames_in_order() {
        let packets = sample();
        let mut source = MemoryFrameSource::from_packets(&packets);
        let mut frame = Vec::new();
        for expected in &packets {
            let ts = source.next_frame_into(&mut frame).unwrap().unwrap();
            assert_eq!(ts, expected.timestamp);
            assert_eq!(frame, expected.encode());
        }
        assert!(source.next_frame_into(&mut frame).unwrap().is_none());
        assert!(frame.is_empty());
        assert_eq!(source.remaining(), 0);
    }

    #[test]
    fn refill_frames_respects_max_reuses_the_batch_and_ends_empty() {
        let packets = sample();
        let capture = pcap_of(&packets);
        for source in [
            &mut PcapReader::new(capture.as_slice()).unwrap() as &mut dyn FrameSource,
            &mut MemoryFrameSource::from_packets(&packets),
        ] {
            // Refill in rounds of 2 into one reused batch.
            let mut batch = Vec::new();
            let mut streamed = Vec::new();
            let mut rounds = Vec::new();
            loop {
                let read = source.refill_frames(&mut batch, 2).unwrap();
                assert_eq!(batch.len(), read);
                if read == 0 {
                    break;
                }
                rounds.push(read);
                streamed.extend(batch.iter().cloned());
            }
            assert_eq!(rounds, [2, 2, 1]);
            assert_eq!(streamed, frames_of(&packets));
        }
    }

    #[test]
    fn next_frame_into_reads_in_place_without_reallocating() {
        let packets = sample();
        let capture = pcap_of(&packets);
        let mut reader = PcapReader::new(capture.as_slice()).unwrap();
        let mut frame = Vec::new();
        let ts = reader.next_frame_into(&mut frame).unwrap().unwrap();
        assert_eq!(ts, packets[0].timestamp);
        assert_eq!(frame, packets[0].encode());
        // All sample frames are the same size: the buffer must be reused,
        // not regrown.
        let capacity = frame.capacity();
        for expected in &packets[1..] {
            let ts = reader.next_frame_into(&mut frame).unwrap().unwrap();
            assert_eq!(ts, expected.timestamp);
            assert_eq!(frame, expected.encode());
            assert_eq!(frame.capacity(), capacity, "in-place read reallocated");
        }
        assert!(reader.next_frame_into(&mut frame).unwrap().is_none());
        assert!(frame.is_empty());
    }
}
