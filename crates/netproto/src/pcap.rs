//! Classic pcap capture-file format (the format `tcpdump` writes).
//!
//! The paper's measurement setup recorded setup-phase traffic with
//! `tcpdump`; this module lets the reproduction both export simulated
//! setup captures and ingest real ones into the same pipeline.

use std::io::{Read, Write};

use crate::{Packet, ParseError, Timestamp};

const MAGIC_LE: u32 = 0xa1b2_c3d4;
const MAGIC_BE: u32 = 0xd4c3_b2a1;
const VERSION_MAJOR: u16 = 2;
const VERSION_MINOR: u16 = 4;
const LINKTYPE_ETHERNET: u32 = 1;
const SNAPLEN: u32 = 65535;
/// The most a capture's stated snaplen can raise the per-record length
/// limit to (libpcap's `MAXIMUM_SNAPLEN`): the header is input too.
const MAX_SNAPLEN: u32 = 262_144;

/// Writes packets to a pcap capture stream.
///
/// ```
/// use sentinel_netproto::pcap::{PcapReader, PcapWriter};
/// use sentinel_netproto::{stream::FrameSource, MacAddr, Packet, RawFeatures};
///
/// # fn main() -> Result<(), sentinel_netproto::ParseError> {
/// let mut buf = Vec::new();
/// let mut writer = PcapWriter::new(&mut buf)?;
/// writer.write_packet(&Packet::dhcp_discover(MacAddr::ZERO, 1, 0))?;
/// let (mut reader, mut frame) = (PcapReader::new(buf.as_slice())?, Vec::new());
/// assert!(reader.next_frame_into(&mut frame)?.is_some());
/// assert_eq!(RawFeatures::from_frame(&frame)?.dst_port, Some(67));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PcapWriter<W> {
    inner: W,
}

impl<W: Write> PcapWriter<W> {
    /// Creates a writer, emitting the pcap global header immediately.
    ///
    /// A `&mut W` also works wherever a `W: Write` is required.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] if writing the header fails.
    pub fn new(mut inner: W) -> Result<Self, ParseError> {
        let mut header = Vec::with_capacity(24);
        header.extend_from_slice(&MAGIC_LE.to_le_bytes());
        header.extend_from_slice(&VERSION_MAJOR.to_le_bytes());
        header.extend_from_slice(&VERSION_MINOR.to_le_bytes());
        header.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        header.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        header.extend_from_slice(&SNAPLEN.to_le_bytes());
        header.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        inner.write_all(&header)?;
        Ok(PcapWriter { inner })
    }

    /// Writes one packet record.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] if the underlying write fails.
    pub fn write_packet(&mut self, packet: &Packet) -> Result<(), ParseError> {
        self.write_raw(packet.timestamp, &packet.encode())
    }

    /// Writes a raw frame record.
    fn write_raw(&mut self, timestamp: Timestamp, frame: &[u8]) -> Result<(), ParseError> {
        let (secs, micros) = timestamp.to_pcap_parts();
        let mut record = Vec::with_capacity(16 + frame.len());
        record.extend_from_slice(&secs.to_le_bytes());
        record.extend_from_slice(&micros.to_le_bytes());
        record.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        record.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        record.extend_from_slice(frame);
        self.inner.write_all(&record)?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Io`] if the flush fails.
    pub fn finish(mut self) -> Result<W, ParseError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Reads packets from a pcap capture stream (either byte order).
#[derive(Debug)]
pub struct PcapReader<R> {
    inner: R,
    big_endian: bool,
    /// Longest record accepted: the capture's snaplen, but at least the
    /// classic 65 535 (some writers understate it) and at most
    /// [`MAX_SNAPLEN`].
    max_record: u32,
}

/// One 32-bit header word in the capture's byte order.
fn word(bytes: [u8; 4], big_endian: bool) -> u32 {
    if big_endian {
        u32::from_be_bytes(bytes)
    } else {
        u32::from_le_bytes(bytes)
    }
}

impl<R: Read> PcapReader<R> {
    /// Creates a reader, consuming and validating the global header.
    ///
    /// A `&mut R` also works wherever an `R: Read` is required.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::BadPcapMagic`] for an unknown magic number,
    /// [`ParseError::Invalid`] for a non-Ethernet link type and
    /// [`ParseError::Io`] on read failure.
    pub fn new(mut inner: R) -> Result<Self, ParseError> {
        // The global header is six 32-bit words.
        let mut header = [[0u8; 4]; 6];
        inner.read_exact(header.as_flattened_mut())?;
        let [magic, _version, _thiszone, _sigfigs, snaplen, linktype] = header;
        let big_endian = match u32::from_le_bytes(magic) {
            MAGIC_LE => false,
            MAGIC_BE => true,
            other => return Err(ParseError::BadPcapMagic(other)),
        };
        let linktype = word(linktype, big_endian);
        if linktype != LINKTYPE_ETHERNET {
            return Err(ParseError::invalid("pcap", format!("link type {linktype}")));
        }
        Ok(PcapReader {
            inner,
            big_endian,
            max_record: word(snaplen, big_endian).clamp(SNAPLEN, MAX_SNAPLEN),
        })
    }

    /// Reads the next raw frame into `frame` (cleared and overwritten in
    /// place, reusing its capacity), returning its timestamp — or `None`
    /// at end of stream, leaving `frame` empty. This is the
    /// allocation-free replay path: after warm-up, a whole capture streams
    /// through one buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] when the capture ends inside a
    /// record header (only a record boundary is a clean end of stream),
    /// [`ParseError::Invalid`] when a record claims more bytes than the
    /// capture's snaplen allows (checked before any buffer grows, so a
    /// hostile 16-byte header cannot demand gigabytes) and
    /// [`ParseError::Io`] on a short or failed read of the frame.
    pub(crate) fn read_raw_into(
        &mut self,
        frame: &mut Vec<u8>,
    ) -> Result<Option<Timestamp>, ParseError> {
        frame.clear();
        // A record header is four 32-bit words.
        let mut record = [[0u8; 4]; 4];
        let bytes = record.as_flattened_mut();
        let mut filled = 0;
        while filled < bytes.len() {
            match self.inner.read(&mut bytes[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(ParseError::truncated("pcap record header", 16, filled)),
                Ok(n) => filled += n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err.into()),
            }
        }
        let [secs, micros, incl_len, _orig_len] = record.map(|w| word(w, self.big_endian));
        if incl_len > self.max_record {
            let reason = format!("{incl_len} captured bytes, limit {}", self.max_record);
            return Err(ParseError::invalid("pcap record", reason));
        }
        frame.resize(incl_len as usize, 0);
        self.inner.read_exact(frame)?;
        Ok(Some(Timestamp::from_pcap_parts(secs, micros)))
    }

    /// Reads and decodes all remaining packets: a reference for tests.
    /// Callers read frames ([`FrameSource`](crate::stream::FrameSource)).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and packet [`ParseError`]s.
    pub fn read_all(&mut self) -> Result<Vec<Packet>, ParseError> {
        let (mut packets, mut frame) = (Vec::new(), Vec::new());
        while let Some(timestamp) = self.read_raw_into(&mut frame)? {
            packets.push(Packet::parse(&frame, timestamp)?);
        }
        Ok(packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MacAddr;

    fn sample_packets() -> Vec<Packet> {
        let mac = MacAddr::new([1, 2, 3, 4, 5, 6]);
        vec![
            Packet::eapol_key(Timestamp::from_millis(1), mac, MacAddr::ZERO, 2),
            Packet::dhcp_discover(mac, 7, 150_000),
            Packet::arp_probe(
                Timestamp::from_millis(200),
                mac,
                "10.0.0.5".parse().unwrap(),
            ),
        ]
    }

    #[test]
    fn roundtrip_multiple_packets() {
        let packets = sample_packets();
        let mut buf = Vec::new();
        let mut writer = PcapWriter::new(&mut buf).unwrap();
        for packet in &packets {
            writer.write_packet(packet).unwrap();
        }
        writer.finish().unwrap();

        let mut reader = PcapReader::new(buf.as_slice()).unwrap();
        let read = reader.read_all().unwrap();
        assert_eq!(read, packets);
        assert!(reader.read_all().unwrap().is_empty(), "stream exhausted");
    }

    #[test]
    fn rejects_bad_magic() {
        let bytes = [0u8; 24];
        assert!(matches!(
            PcapReader::new(bytes.as_slice()).unwrap_err(),
            ParseError::BadPcapMagic(0)
        ));
    }

    #[test]
    fn reads_big_endian_captures() {
        // Hand-build a BE header + one empty... minimal ARP record.
        let packet = sample_packets().pop().unwrap();
        let frame = packet.encode();
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_LE.to_be_bytes()); // BE writer stores magic natively
        buf.extend_from_slice(&VERSION_MAJOR.to_be_bytes());
        buf.extend_from_slice(&VERSION_MINOR.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&SNAPLEN.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        let (secs, micros) = packet.timestamp.to_pcap_parts();
        buf.extend_from_slice(&secs.to_be_bytes());
        buf.extend_from_slice(&micros.to_be_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        buf.extend_from_slice(&frame);

        let mut reader = PcapReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.read_all().unwrap(), [packet]);
    }

    #[test]
    fn truncated_record_is_io_error() {
        let mut buf = Vec::new();
        let mut writer = PcapWriter::new(&mut buf).unwrap();
        writer.write_packet(&sample_packets()[0]).unwrap();
        writer.finish().unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = PcapReader::new(buf.as_slice()).unwrap();
        assert!(matches!(reader.read_all().unwrap_err(), ParseError::Io(_)));
    }

    #[test]
    fn capture_ending_inside_a_record_header_is_an_error_not_eof() {
        let mut buf = Vec::new();
        let mut writer = PcapWriter::new(&mut buf).unwrap();
        writer.write_packet(&sample_packets()[0]).unwrap();
        writer.finish().unwrap();
        buf.extend_from_slice(&[0u8; 7]);
        let mut reader = PcapReader::new(buf.as_slice()).unwrap();
        let mut frame = Vec::new();
        assert!(reader.read_raw_into(&mut frame).unwrap().is_some());
        assert!(matches!(
            reader.read_raw_into(&mut frame).unwrap_err(),
            ParseError::Truncated { got: 7, .. }
        ));
    }

    #[test]
    fn oversized_record_length_is_rejected_before_any_buffer_grows() {
        // A hostile header is input too: stating a 4 GiB snaplen must not
        // lift the limit.
        for snaplen in [SNAPLEN, u32::MAX] {
            let mut buf = Vec::new();
            PcapWriter::new(&mut buf).unwrap().finish().unwrap();
            buf[16..20].copy_from_slice(&snaplen.to_le_bytes());
            buf.extend_from_slice(&[0u8; 8]); // timestamp
            buf.extend_from_slice(&u32::MAX.to_le_bytes()); // incl_len
            buf.extend_from_slice(&u32::MAX.to_le_bytes()); // orig_len
            let mut reader = PcapReader::new(buf.as_slice()).unwrap();
            let mut frame = Vec::with_capacity(64);
            let capacity = frame.capacity();
            assert!(matches!(
                reader.read_raw_into(&mut frame).unwrap_err(),
                ParseError::Invalid {
                    layer: "pcap record",
                    ..
                }
            ));
            assert_eq!(frame.capacity(), capacity, "buffer grew before the check");
        }
    }

    #[test]
    fn record_as_long_as_the_stated_snaplen_is_read() {
        // A capture may state a snaplen above the classic 65 535.
        let frame = vec![0xabu8; 70_000];
        let mut buf = Vec::new();
        let mut writer = PcapWriter::new(&mut buf).unwrap();
        writer.write_raw(Timestamp::ZERO, &frame).unwrap();
        writer.finish().unwrap();
        let mut read = Vec::new();
        let mut reader = PcapReader::new(buf.as_slice()).unwrap();
        assert!(reader.read_raw_into(&mut read).is_err());
        buf[16..20].copy_from_slice(&70_000u32.to_le_bytes());
        let mut reader = PcapReader::new(buf.as_slice()).unwrap();
        assert_eq!(
            reader.read_raw_into(&mut read).unwrap(),
            Some(Timestamp::ZERO)
        );
        assert_eq!(read, frame);
    }

    #[test]
    fn rejects_non_ethernet_linktype() {
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf).unwrap().finish().unwrap();
        buf[20] = 101; // LINKTYPE_RAW
        assert!(PcapReader::new(buf.as_slice()).is_err());
    }
}
