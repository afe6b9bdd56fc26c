//! Differential property tests: the zero-copy wire scanner must be
//! indistinguishable from the full decoder for feature extraction.
//!
//! The contract (see `sentinel_netproto::scan`) — the scanner is total,
//! so every frame makes a claim:
//!   * `Packet::parse` succeeds ⇔ `ScanOutcome::Features(raw)`, and `raw`
//!     is exactly `RawFeatures::from_packet` of the decoded packet — on
//!     *any* input, canonical or not (compressed DNS names, padded HTTP
//!     heads, trailing garbage).
//!   * `Packet::parse` fails ⇔ `ScanOutcome::Malformed`, and
//!     `RawFeatures::from_frame` returns the decoder's own error value.
//!   * Nothing ever panics, on garbage, truncations or bit flips.

use proptest::prelude::*;

use sentinel_netproto::ipv4::{IpProtocol, Ipv4Header};
use sentinel_netproto::tcp::{TcpFlags, TcpHeader};
use sentinel_netproto::{
    AppPayload, Packet, PacketBody, RawFeatures, ScanOutcome, Timestamp, Transport, WireScan,
};

mod common;
use common::*;

/// The differential invariant, checked on arbitrary bytes.
fn check_equivalence(frame: &[u8]) {
    let decoded = Packet::parse(frame, Timestamp::ZERO);
    if let Ok(packet) = &decoded {
        // `packet_size` is this length; it is computed, never measured.
        assert_eq!(packet.wire_len(), packet.encode().len(), "on {frame:02x?}");
    }
    let expected = decoded.map(|packet| RawFeatures::from_packet(&packet));
    let outcome = match &expected {
        Ok(raw) => ScanOutcome::Features(*raw),
        Err(_) => ScanOutcome::Malformed,
    };
    assert_eq!(WireScan::scan(frame), outcome, "on {frame:02x?}");
    // The other face of the same walk carries the decoder's error value.
    assert_eq!(RawFeatures::from_frame(frame), expected, "on {frame:02x?}");
}

/// What the decoder made of the TCP/UDP payload of a frame it accepts.
fn app_payload(frame: &[u8]) -> AppPayload {
    let packet = Packet::parse(frame, Timestamp::ZERO).expect("a well-formed frame");
    let payload = packet.transport().and_then(|t| t.app_payload());
    payload.expect("a tcp or udp frame").clone()
}

/// The invariant on a frame and on every prefix of it.
fn check_equivalence_with_truncations(frame: &[u8]) {
    for cut in 0..=frame.len() {
        check_equivalence(&frame[..cut]);
    }
}

#[test]
fn odd_dns_messages_certify_to_the_decoded_features() {
    let mut parsed = 0;
    let mut relengthed = 0;
    for (what, message) in odd_dns_messages() {
        for frame in [
            udp_frame(53, 49_000, &message),
            udp_frame(5353, 5353, &message),
        ] {
            check_equivalence_with_truncations(&frame);
            // Not vacuous: the decoder did take most of these as DNS,
            // and re-encodes many to a length the frame does not have.
            if let AppPayload::Dns(dns) = app_payload(&frame) {
                parsed += 1;
                relengthed += usize::from(dns.wire_len() != message.len());
            } else {
                assert!(
                    !matches!(what, "backward pointer" | "forward pointer" | "txt strings"),
                    "{what} must parse"
                );
            }
        }
    }
    assert_eq!((parsed, relengthed), (22, 16));
    // The resolver's answer, spelled out: certified, eleven bytes longer.
    let frame = udp_frame(53, 49_000, &compressed_dns_answer());
    let ScanOutcome::Features(raw) = WireScan::scan(&frame) else {
        panic!("a compressed answer is certified, not punted");
    };
    assert_eq!(raw.packet_size as usize, frame.len() + 11);
}

#[test]
fn odd_http_heads_certify_to_the_decoded_features() {
    let mut parsed = 0;
    let mut relengthed = 0;
    for head in odd_http_heads() {
        for frame in [
            tcp_frame(49_300, 80, head),
            tcp_frame(8080, 49_301, head),
            udp_frame(49_400, 1900, head),
        ] {
            check_equivalence_with_truncations(&frame);
            if let AppPayload::Http(http) = app_payload(&frame) {
                parsed += 1;
                relengthed += usize::from(http.wire_len() != head.len());
            }
        }
    }
    assert_eq!((parsed, relengthed), (33, 27));
}

/// Start lines for `http_heads_from_odd_pieces_never_disagree`: status
/// lines with and without a reason, with signed, zero-padded and
/// overflowing codes; request lines of two to five tokens.
const START_LINES: [&str; 13] = [
    "HTTP/1.1 200 OK",
    "HTTP/1.0 404 Not Found",
    "HTTP/1.1 204",
    "HTTP/1.1 007 Bond",
    "HTTP/1.1 +1 ",
    "HTTP/1.1 70000 Overflow",
    "HTTP/1.1 ",
    "GET / HTTP/1.1",
    "M-SEARCH * HTTP/1.1",
    "GET /",
    "POST /a b HTTP/1.1 x",
    "GET / HTTP/3",
    "",
];

/// Header lines for the same test: bare, padded, empty-valued,
/// colon-only, colon-less and many-coloned.
const HEADER_LINES: [&str; 8] = [
    "Host: x",
    "Host:x",
    " Host : x ",
    "X:",
    ":",
    "no colon",
    "A: b: c",
    "T:\tv\t",
];

/// A tiny xorshift generator: the soup below wants one stream of
/// choices per message, not a strategy per field.
struct Choices(u64);

impl Choices {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    /// A name in the making: labels over an alphabet with dots and a
    /// non-UTF-8 byte, pointers anywhere in or just past what is written
    /// so far (so: backward, forward, onto themselves), mostly terminated.
    fn push_name(&mut self, msg: &mut Vec<u8>) {
        for _ in 0..self.below(4) {
            if self.below(10) < 3 {
                let to = self.below(msg.len() + 6);
                return msg.extend_from_slice(&dns_pointer(to));
            }
            let len = 1 + self.below(5);
            msg.push(len as u8);
            for _ in 0..len {
                let rare = self.below(40) == 0;
                msg.push(if rare { 0xff } else { b"abc.-."[self.below(6)] });
            }
        }
        if self.below(20) != 0 {
            msg.push(0);
        }
    }

    /// A DNS message out of well-formed and slightly-off pieces.
    fn dns_soup(&mut self) -> Vec<u8> {
        let (questions, records) = (self.below(3), self.below(4));
        let lie = usize::from(self.below(8) == 0);
        let answers = self.below(records + 1);
        let mut msg = dns_header([
            (questions + lie) as u16,
            answers as u16,
            (records - answers) as u16,
            0,
        ]);
        for _ in 0..questions {
            self.push_name(&mut msg);
            msg.extend_from_slice(&[
                0,
                [1, 12, 28, 255][self.below(4)],
                0x80 * self.below(2) as u8,
                1,
            ]);
        }
        for _ in 0..records {
            self.push_name(&mut msg);
            let rtype = [1u8, 28, 12, 16, 33, 5][self.below(6)];
            msg.extend_from_slice(&[0, rtype, 0, 1, 0, 0, 0, 60, 0, 0]);
            let data_start = msg.len();
            match rtype {
                1 => msg.extend_from_slice(&[7; 5][..4 + self.below(8) / 7]),
                28 => msg.extend_from_slice(&[6; 16]),
                12 => self.push_name(&mut msg),
                16 => {
                    for _ in 0..self.below(3) {
                        let len = self.below(5);
                        msg.push(len as u8);
                        msg.extend_from_slice(&b"k=v\xff"[..len]);
                    }
                }
                _ => msg.extend_from_slice(&[5; 9][..self.below(10)]),
            }
            // The claimed length is mostly the truth, sometimes one off.
            let claimed =
                (msg.len() - data_start + self.below(12) / 10).saturating_sub(self.below(12) / 11);
            msg[data_start - 1] = claimed as u8;
        }
        msg.extend_from_slice(&[0xfb; 3][..self.below(8).saturating_sub(4)]);
        msg
    }
}

#[test]
fn dns_soup_agrees_with_the_decoder_message_for_message() {
    let mut choices = Choices(0x9e37_79b9_7f4a_7c15);
    let (mut parsed, mut relengthed) = (0, 0);
    for round in 0..20_000 {
        let message = choices.dns_soup();
        let port = [53, 5353][round % 2];
        let frame = udp_frame(port, port, &message);
        check_equivalence(&frame);
        if let AppPayload::Dns(dns) = app_payload(&frame) {
            parsed += 1;
            relengthed += usize::from(dns.wire_len() != message.len());
        }
    }
    // The soup is worth its name: most of it parses, and a good part of
    // that re-encodes to a length the frame does not have.
    assert!(
        parsed > 6_000 && relengthed > 3_000,
        "{parsed} {relengthed}"
    );
}

#[test]
fn corpus_frames_certify_and_match() {
    for packet in corpus() {
        let frame = packet.encode();
        match WireScan::scan(&frame) {
            ScanOutcome::Features(raw) => {
                assert_eq!(
                    raw,
                    RawFeatures::from_packet(&packet),
                    "feature mismatch for {packet:?}"
                );
            }
            other => panic!("canonical frame not certified ({other:?}) for {packet:?}"),
        }
    }
}

#[test]
fn corpus_truncations_at_every_boundary() {
    for packet in corpus() {
        let frame = packet.encode();
        for cut in 0..frame.len() {
            check_equivalence(&frame[..cut]);
        }
    }
}

#[test]
fn corpus_trailing_garbage() {
    for packet in corpus() {
        let mut frame = packet.encode();
        frame.extend_from_slice(&[0xfb; 7]);
        check_equivalence(&frame);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_generated_frames_certify(
        index in (0usize..corpus().len()),
        extra in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        // Canonical frame: must certify without falling back.
        let packet = corpus().swap_remove(index);
        let frame = packet.encode();
        prop_assert!(matches!(WireScan::scan(&frame), ScanOutcome::Features(_)));
        check_equivalence(&frame);
        // Trailing garbage changes what re-encodes, never the agreement.
        let mut extended = frame.clone();
        extended.extend_from_slice(&extra);
        check_equivalence(&extended);
    }

    #[test]
    fn http_heads_from_odd_pieces_never_disagree(
        start in 0usize..START_LINES.len(),
        headers in proptest::collection::vec(0usize..HEADER_LINES.len(), 0..4),
        body in proptest::collection::vec(any::<u8>(), 0..12),
        port in prop_oneof![Just(80u16), Just(8080u16), Just(1900u16)],
    ) {
        let mut message = START_LINES[start].as_bytes().to_vec();
        for header in headers {
            message.extend_from_slice(b"\r\n");
            message.extend_from_slice(HEADER_LINES[header].as_bytes());
        }
        message.extend_from_slice(b"\r\n\r\n");
        message.extend_from_slice(&body);
        let frame = if port == 1900 {
            udp_frame(49_400, port, &message)
        } else {
            tcp_frame(49_300, port, &message)
        };
        check_equivalence_with_truncations(&frame);
    }

    #[test]
    fn random_garbage_never_panics_or_disagrees(
        bytes in proptest::collection::vec(any::<u8>(), 0..300)
    ) {
        check_equivalence(&bytes);
    }

    #[test]
    fn bit_flips_never_disagree(
        index in (0usize..corpus().len()),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..6),
    ) {
        let packet = corpus().swap_remove(index);
        let mut frame = packet.encode();
        for (pos, bit) in flips {
            let at = pos % frame.len();
            frame[at] ^= 1 << bit;
        }
        check_equivalence(&frame);
    }

    #[test]
    fn tcp_option_layouts_certify(
        options in proptest::collection::vec(any::<u8>(), 0..=40),
        sport in 1024u16..65535,
        dport in prop_oneof![Just(80u16), Just(443u16), Just(123u16), 1024u16..65535],
        payload_len in 0usize..32,
    ) {
        // Arbitrary option bytes — MSS/SACK/timestamps, NOP runs, EOL,
        // unknown kinds, unaligned lengths — are length-preserving on the
        // wire, so every layout must certify and agree with the decoder.
        let mut header = TcpHeader::new(sport, dport, TcpFlags::PSH | TcpFlags::ACK);
        header.options = options;
        let packet = Packet::new(
            Timestamp::ZERO,
            mac(20),
            mac(0xfe),
            PacketBody::Ipv4 {
                header: Ipv4Header::new(v4(20), v4(1), IpProtocol::Tcp),
                transport: Transport::Tcp {
                    header,
                    payload: AppPayload::Raw(vec![0x55; payload_len].into()),
                },
            },
        );
        let frame = packet.encode();
        prop_assert!(
            matches!(WireScan::scan(&frame), ScanOutcome::Features(_)),
            "canonical TCP option layout not certified"
        );
        check_equivalence(&frame);
    }

    #[test]
    fn ipv6_fragment_headers_never_disagree(
        reserved in any::<u8>(),
        offset_flags in any::<u16>(),
        ident in any::<u32>(),
        inner in prop_oneof![Just(6u8), Just(17u8), Just(58u8), any::<u8>()],
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        // Hand-built fragment header with arbitrary reserved/offset/M
        // bits: atomic fragments must certify to the decoded features,
        // genuine (non-atomic) fragments must degrade identically on
        // both paths.
        let mut frame = Vec::new();
        frame.extend_from_slice(&mac(0xfe).octets());
        frame.extend_from_slice(&mac(21).octets());
        frame.extend_from_slice(&0x86ddu16.to_be_bytes());
        let payload_len = (8 + tail.len()) as u16;
        frame.extend_from_slice(&[0x60, 0, 0, 0]);
        frame.extend_from_slice(&payload_len.to_be_bytes());
        frame.push(44); // next header: fragment
        frame.push(64); // hop limit
        frame.extend_from_slice(&v6(21).octets());
        frame.extend_from_slice(&v6(1).octets());
        frame.push(inner);
        frame.push(reserved);
        frame.extend_from_slice(&offset_flags.to_be_bytes());
        frame.extend_from_slice(&ident.to_be_bytes());
        frame.extend_from_slice(&tail);
        check_equivalence(&frame);
        for cut in 0..frame.len() {
            check_equivalence(&frame[..cut]);
        }
    }

    #[test]
    fn truncations_of_mutated_frames_never_disagree(
        index in (0usize..corpus().len()),
        cut in any::<usize>(),
        flip in any::<usize>(),
    ) {
        let packet = corpus().swap_remove(index);
        let mut frame = packet.encode();
        let at = flip % frame.len();
        frame[at] = frame[at].wrapping_add(1);
        let cut = cut % (frame.len() + 1);
        check_equivalence(&frame[..cut]);
    }
}
