//! DNS (RFC 1035) and multicast DNS (RFC 6762) messages.
//!
//! mDNS shares the DNS wire format; the paper distinguishes the two by
//! port (53 vs 5353), which [`crate::classify`] implements.

use std::net::{Ipv4Addr, Ipv6Addr};

use bytes::BufMut;
use serde::{Deserialize, Serialize};

use crate::ParseError;

/// Length of the DNS message header.
pub const HEADER_LEN: usize = 12;

/// The shortest question on the wire: the root name, type and class.
const MIN_QUESTION_LEN: usize = 1 + QUESTION_FIELDS_LEN;
/// The shortest record on the wire: the root name, the fixed fields and
/// no data.
const MIN_RECORD_LEN: usize = 1 + RECORD_FIELDS_LEN;

/// DNS record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordType {
    /// IPv4 address (1).
    A,
    /// Name server (2).
    Ns,
    /// Canonical name (5).
    Cname,
    /// Domain name pointer (12).
    Ptr,
    /// Text record (16).
    Txt,
    /// IPv6 address (28).
    Aaaa,
    /// Service locator (33).
    Srv,
    /// Any record (255).
    Any,
    /// Any other type.
    Other(u16),
}

impl RecordType {
    /// The raw 16-bit type code.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Ptr => 12,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Srv => 33,
            RecordType::Any => 255,
            RecordType::Other(v) => v,
        }
    }

    /// Classifies a raw type code.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            12 => RecordType::Ptr,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            33 => RecordType::Srv,
            255 => RecordType::Any,
            v => RecordType::Other(v),
        }
    }
}

/// A DNS question.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Question {
    /// Queried name, as a dotted string (`time.nist.gov`).
    pub name: String,
    /// Queried record type.
    pub qtype: RecordType,
    /// Unicast-response / cache-flush bit (mDNS QU questions).
    pub unicast_response: bool,
}

impl Question {
    /// An A-record question for `name`.
    pub fn a(name: impl Into<String>) -> Self {
        Question {
            name: name.into(),
            qtype: RecordType::A,
            unicast_response: false,
        }
    }

    /// A PTR question (mDNS service discovery).
    pub fn ptr(name: impl Into<String>) -> Self {
        Question {
            name: name.into(),
            qtype: RecordType::Ptr,
            unicast_response: false,
        }
    }
}

/// The data of a DNS resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// An IPv6 address.
    Aaaa(Ipv6Addr),
    /// A domain-name pointer.
    Ptr(String),
    /// Free-form text strings.
    Txt(Vec<String>),
    /// The data of a record this crate does not model (SRV, CNAME, NS,
    /// …, or an address record of the wrong length), with its wire type
    /// so the record re-encodes as what it was.
    Raw {
        /// The record type on the wire.
        rtype: RecordType,
        /// The record data, verbatim.
        data: Vec<u8>,
    },
}

/// A DNS resource record.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceRecord {
    /// Record owner name.
    pub name: String,
    /// Time to live.
    pub ttl: u32,
    /// Cache-flush bit (mDNS).
    pub cache_flush: bool,
    /// Record data (the variant implies, or carries, the type).
    pub data: RecordData,
}

impl ResourceRecord {
    fn rtype(&self) -> RecordType {
        match &self.data {
            RecordData::A(_) => RecordType::A,
            RecordData::Aaaa(_) => RecordType::Aaaa,
            RecordData::Ptr(_) => RecordType::Ptr,
            RecordData::Txt(_) => RecordType::Txt,
            RecordData::Raw { rtype, .. } => *rtype,
        }
    }

    /// Encoded length of the record data (the `rdlength` field).
    fn rdata_len(&self) -> usize {
        match &self.data {
            RecordData::A(_) => 4,
            RecordData::Aaaa(_) => 16,
            RecordData::Ptr(name) => name_len(name),
            RecordData::Txt(strings) => strings.iter().map(|s| 1 + s.len()).sum(),
            RecordData::Raw { data, .. } => data.len(),
        }
    }
}

/// A DNS or mDNS message.
///
/// ```
/// use sentinel_netproto::dns::{DnsMessage, Question};
///
/// let query = DnsMessage::query(0x1db3, [Question::a("iot.vendor-cloud.example")]);
/// let bytes = query.to_bytes();
/// assert_eq!(DnsMessage::parse(&bytes).unwrap(), query);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DnsMessage {
    /// Transaction ID (0 for mDNS).
    pub id: u16,
    /// `true` for responses, `false` for queries.
    pub response: bool,
    /// Recursion desired flag.
    pub recursion_desired: bool,
    /// Authoritative-answer flag (set on mDNS announcements).
    pub authoritative: bool,
    /// Questions.
    pub questions: Vec<Question>,
    /// Answer records.
    pub answers: Vec<ResourceRecord>,
    /// Authority records.
    pub authorities: Vec<ResourceRecord>,
    /// Additional records.
    pub additionals: Vec<ResourceRecord>,
}

impl DnsMessage {
    /// A recursive query for the given questions.
    pub fn query(id: u16, questions: impl IntoIterator<Item = Question>) -> Self {
        DnsMessage {
            id,
            response: false,
            recursion_desired: true,
            authoritative: false,
            questions: questions.into_iter().collect(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// An mDNS announcement (authoritative response, id 0) of `records`.
    pub fn mdns_announcement(records: impl IntoIterator<Item = ResourceRecord>) -> Self {
        DnsMessage {
            id: 0,
            response: true,
            recursion_desired: false,
            authoritative: true,
            questions: Vec::new(),
            answers: records.into_iter().collect(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// An mDNS probe query (id 0, non-recursive).
    pub fn mdns_query(questions: impl IntoIterator<Item = Question>) -> Self {
        DnsMessage {
            id: 0,
            response: false,
            recursion_desired: false,
            authoritative: false,
            questions: questions.into_iter().collect(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Appends the message bytes to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u16(self.id);
        let mut flags = 0u16;
        if self.response {
            flags |= 0x8000;
        }
        if self.authoritative {
            flags |= 0x0400;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        buf.put_u16(flags);
        buf.put_u16(self.questions.len() as u16);
        buf.put_u16(self.answers.len() as u16);
        buf.put_u16(self.authorities.len() as u16);
        buf.put_u16(self.additionals.len() as u16);
        for q in &self.questions {
            encode_name(&q.name, buf);
            buf.put_u16(q.qtype.to_u16());
            buf.put_u16(if q.unicast_response { 0x8001 } else { 0x0001 });
        }
        for rr in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            encode_name(&rr.name, buf);
            buf.put_u16(rr.rtype().to_u16());
            buf.put_u16(if rr.cache_flush { 0x8001 } else { 0x0001 });
            buf.put_u32(rr.ttl);
            buf.put_u16(rr.rdata_len() as u16);
            match &rr.data {
                RecordData::A(ip) => buf.put_slice(&ip.octets()),
                RecordData::Aaaa(ip) => buf.put_slice(&ip.octets()),
                RecordData::Ptr(name) => encode_name(name, buf),
                RecordData::Txt(strings) => {
                    for s in strings {
                        buf.put_u8(s.len() as u8);
                        buf.put_slice(s.as_bytes());
                    }
                }
                RecordData::Raw { data, .. } => buf.put_slice(data),
            }
        }
    }

    /// Wire length of the encoded message: header, questions (name +
    /// type + class) and records (name + type, class, ttl and rdlength +
    /// data).
    pub fn wire_len(&self) -> usize {
        let questions: usize = self
            .questions
            .iter()
            .map(|q| name_len(&q.name) + QUESTION_FIELDS_LEN)
            .sum();
        let records: usize = self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
            .map(|rr| name_len(&rr.name) + RECORD_FIELDS_LEN + rr.rdata_len())
            .sum();
        HEADER_LEN + questions + records
    }

    /// Encodes into a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Parses a DNS message (supports RFC 1035 name compression).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] or [`ParseError::Invalid`] on
    /// malformed input.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        let counts = section_counts(bytes)?;
        let id = u16::from_be_bytes([bytes[0], bytes[1]]);
        let flags = u16::from_be_bytes([bytes[2], bytes[3]]);
        let mut offset = HEADER_LEN;
        // A count is the sender's claim; every section reserves only
        // what the bytes that actually arrived, and are left, can hold.
        let fit =
            |count: usize, offset: usize, min_len| count.min((bytes.len() - offset) / min_len);
        let mut questions = Vec::with_capacity(fit(counts[0], offset, MIN_QUESTION_LEN));
        for _ in 0..counts[0] {
            let (name, next) = parse_name(bytes, offset)?;
            let (qtype, qclass) = question_fields(bytes, next)?;
            questions.push(Question {
                name,
                qtype,
                unicast_response: qclass & 0x8000 != 0,
            });
            offset = next + QUESTION_FIELDS_LEN;
        }
        let mut sections: [Vec<ResourceRecord>; 3] = Default::default();
        for (section, &count) in sections.iter_mut().zip(&counts[1..]) {
            section.reserve_exact(fit(count, offset, MIN_RECORD_LEN));
            for _ in 0..count {
                let (rr, next) = parse_record(bytes, offset)?;
                section.push(rr);
                offset = next;
            }
        }
        let [answers, authorities, additionals] = sections;
        Ok(DnsMessage {
            id,
            response: flags & 0x8000 != 0,
            recursion_desired: flags & 0x0100 != 0,
            authoritative: flags & 0x0400 != 0,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

/// The labels [`encode_name`] writes: empty ones (a trailing or doubled
/// dot, the bare root) are skipped.
fn labels(name: &str) -> impl Iterator<Item = &str> {
    name.split('.').filter(|l| !l.is_empty())
}

fn encode_name(name: &str, buf: &mut impl BufMut) {
    for label in labels(name) {
        debug_assert!(label.len() < 64, "dns label too long: {label}");
        buf.put_u8(label.len() as u8);
        buf.put_slice(label.as_bytes());
    }
    buf.put_u8(0);
}

/// Encoded length of the labels of `name`: a length byte and the text.
fn labels_len(name: &str) -> usize {
    labels(name).map(|label| 1 + label.len()).sum()
}

/// Encoded length of `name`: names are written uncompressed, so the
/// labels plus the root terminator.
fn name_len(name: &str) -> usize {
    labels_len(name) + 1
}

/// The four section counts of a message at least a header long.
fn section_counts(bytes: &[u8]) -> Result<[usize; 4], ParseError> {
    if bytes.len() < HEADER_LEN {
        return Err(ParseError::truncated("dns", HEADER_LEN, bytes.len()));
    }
    Ok(std::array::from_fn(|i| {
        u16::from_be_bytes([bytes[4 + 2 * i], bytes[5 + 2 * i]]) as usize
    }))
}

/// Walks the name at `offset`, following RFC 1035 compression pointers
/// (at most 16 of them, which bounds any loop) and handing every label
/// to `label`. Returns the offset after the name at its *original*
/// position — after the first pointer, when there is one.
fn walk_name<'a>(
    bytes: &'a [u8],
    mut offset: usize,
    mut label: impl FnMut(&'a str),
) -> Result<usize, ParseError> {
    let mut end = None;
    let mut hops = 0;
    loop {
        let &len = bytes
            .get(offset)
            .ok_or_else(|| ParseError::truncated("dns name", offset + 1, bytes.len()))?;
        match len {
            0 => return Ok(end.unwrap_or(offset + 1)),
            l if l & 0xc0 == 0xc0 => {
                let &next = bytes
                    .get(offset + 1)
                    .ok_or_else(|| ParseError::truncated("dns name", offset + 2, bytes.len()))?;
                end.get_or_insert(offset + 2);
                hops += 1;
                if hops > 16 {
                    return Err(ParseError::invalid("dns name", "compression loop"));
                }
                offset = (((l & 0x3f) as usize) << 8) | next as usize;
            }
            l if l < 64 => {
                let start = offset + 1;
                let stop = start + l as usize;
                let text = bytes
                    .get(start..stop)
                    .ok_or_else(|| ParseError::truncated("dns name", stop, bytes.len()))?;
                label(
                    std::str::from_utf8(text)
                        .map_err(|_| ParseError::invalid("dns name", "label not utf-8"))?,
                );
                offset = stop;
            }
            _ => return Err(ParseError::invalid("dns name", "reserved label kind")),
        }
    }
}

/// The name at `offset` as a dotted string, and the offset after it.
/// Reserved once, for the length the name re-encodes to: a label and its
/// dot are as long as the label and its length byte.
fn parse_name(bytes: &[u8], offset: usize) -> Result<(String, usize), ParseError> {
    let mut name = String::with_capacity(scan_name(bytes, offset)?.0);
    let next = walk_name(bytes, offset, |label| {
        if !name.is_empty() {
            name.push('.');
        }
        name.push_str(label);
    })?;
    Ok((name, next))
}

/// The length the name at `offset` re-encodes to — [`name_len`] of what
/// [`parse_name`] returns, without building it: a wire label may itself
/// hold dots, which the dotted string cannot tell from separators — and
/// the offset after it.
fn scan_name(bytes: &[u8], offset: usize) -> Result<(usize, usize), ParseError> {
    let mut len = 1;
    let next = walk_name(bytes, offset, |label| {
        // Only a label with dots in it needs splitting to be measured.
        len += if label.contains('.') {
            labels_len(label)
        } else {
            1 + label.len()
        };
    })?;
    Ok((len, next))
}

/// Length of the fixed fields after a question's name: type and class.
const QUESTION_FIELDS_LEN: usize = 4;
/// Length of the fixed fields after a record's name: type, class, TTL
/// and data length.
const RECORD_FIELDS_LEN: usize = 10;

/// The `(type, class)` after a question's name, which ends at `at`.
fn question_fields(bytes: &[u8], at: usize) -> Result<(RecordType, u16), ParseError> {
    let end = at + QUESTION_FIELDS_LEN;
    if bytes.len() < end {
        return Err(ParseError::truncated("dns question", end, bytes.len()));
    }
    let qtype = RecordType::from_u16(u16::from_be_bytes([bytes[at], bytes[at + 1]]));
    Ok((qtype, u16::from_be_bytes([bytes[at + 2], bytes[at + 3]])))
}

/// The `(type, class, ttl, offset of the data, data)` after a record's
/// name, which ends at `at`.
fn record_fields(
    bytes: &[u8],
    at: usize,
) -> Result<(RecordType, u16, u32, usize, &[u8]), ParseError> {
    let data_start = at + RECORD_FIELDS_LEN;
    if bytes.len() < data_start {
        return Err(ParseError::truncated("dns record", data_start, bytes.len()));
    }
    let rtype = RecordType::from_u16(u16::from_be_bytes([bytes[at], bytes[at + 1]]));
    let rclass = u16::from_be_bytes([bytes[at + 2], bytes[at + 3]]);
    let ttl = u32::from_be_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
    let data_end = data_start + u16::from_be_bytes([bytes[at + 8], bytes[at + 9]]) as usize;
    let rdata = bytes
        .get(data_start..data_end)
        .ok_or_else(|| ParseError::truncated("dns record", data_end, bytes.len()))?;
    Ok((rtype, rclass, ttl, data_start, rdata))
}

/// Walks TXT record data, handing each length-prefixed string to `string`.
fn walk_txt<'a>(mut rest: &'a [u8], mut string: impl FnMut(&'a str)) -> Result<(), ParseError> {
    while let Some(&len) = rest.first() {
        let stop = 1 + len as usize;
        let chunk = rest
            .get(1..stop)
            .ok_or_else(|| ParseError::invalid("dns txt", "string overruns rdata"))?;
        string(
            std::str::from_utf8(chunk).map_err(|_| ParseError::invalid("dns txt", "not utf-8"))?,
        );
        rest = &rest[stop..];
    }
    Ok(())
}

fn parse_record(bytes: &[u8], offset: usize) -> Result<(ResourceRecord, usize), ParseError> {
    let (name, next) = parse_name(bytes, offset)?;
    let (rtype, rclass, ttl, data_start, rdata) = record_fields(bytes, next)?;
    let data = match (rtype, rdata) {
        (RecordType::A, &[a, b, c, d]) => RecordData::A(Ipv4Addr::new(a, b, c, d)),
        (RecordType::Aaaa, _) if rdata.len() == 16 => {
            let octets: [u8; 16] = rdata.try_into().expect("slice of 16");
            RecordData::Aaaa(Ipv6Addr::from(octets))
        }
        // The name may be (or end in) a pointer out of the record data.
        (RecordType::Ptr, _) => RecordData::Ptr(parse_name(bytes, data_start)?.0),
        (RecordType::Txt, _) => {
            let mut count = 0;
            walk_txt(rdata, |_| count += 1)?;
            let mut strings = Vec::with_capacity(count);
            walk_txt(rdata, |s| strings.push(s.to_owned()))?;
            RecordData::Txt(strings)
        }
        _ => RecordData::Raw {
            rtype,
            data: rdata.to_vec(),
        },
    };
    let record = ResourceRecord {
        name,
        ttl,
        cache_flush: rclass & 0x8000 != 0,
        data,
    };
    Ok((record, data_start + rdata.len()))
}

/// The length a message re-encodes to — [`DnsMessage::wire_len`] of what
/// [`DnsMessage::parse`] returns, failing exactly when it fails —
/// without building the message. Names are re-encoded uncompressed from
/// their labels and whatever follows the last record is dropped, so this
/// is not the input's length; every other field keeps its size.
pub(crate) fn encoded_len(bytes: &[u8]) -> Result<usize, ParseError> {
    let counts = section_counts(bytes)?;
    let (mut offset, mut len) = (HEADER_LEN, HEADER_LEN);
    for _ in 0..counts[0] {
        let (name, next) = scan_name(bytes, offset)?;
        question_fields(bytes, next)?;
        offset = next + QUESTION_FIELDS_LEN;
        len += name + QUESTION_FIELDS_LEN;
    }
    for _ in 0..counts[1] + counts[2] + counts[3] {
        let (name, next) = scan_name(bytes, offset)?;
        let (rtype, _, _, data_start, rdata) = record_fields(bytes, next)?;
        let data = match rtype {
            RecordType::Ptr => scan_name(bytes, data_start)?.0,
            RecordType::Txt => {
                walk_txt(rdata, |_| {})?;
                rdata.len()
            }
            _ => rdata.len(),
        };
        offset = data_start + rdata.len();
        len += name + RECORD_FIELDS_LEN + data;
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let msg = DnsMessage::query(
            7,
            [
                Question::a("api.vendor.example"),
                Question {
                    name: "api.vendor.example".into(),
                    qtype: RecordType::Aaaa,
                    unicast_response: false,
                },
            ],
        );
        assert_eq!(DnsMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn mdns_announcement_roundtrip() {
        let msg = DnsMessage::mdns_announcement([
            ResourceRecord {
                name: "_hap._tcp.local".into(),
                ttl: 4500,
                cache_flush: true,
                data: RecordData::Ptr("bridge._hap._tcp.local".into()),
            },
            ResourceRecord {
                name: "bridge.local".into(),
                ttl: 120,
                cache_flush: true,
                data: RecordData::A(Ipv4Addr::new(192, 168, 0, 31)),
            },
            ResourceRecord {
                name: "bridge._hap._tcp.local".into(),
                ttl: 4500,
                cache_flush: false,
                data: RecordData::Txt(vec!["md=Bridge".into(), "pv=1.0".into()]),
            },
        ]);
        let parsed = DnsMessage::parse(&msg.to_bytes()).unwrap();
        assert_eq!(parsed, msg);
        assert!(parsed.authoritative);
        assert_eq!(parsed.id, 0);
    }

    #[test]
    fn wire_len_is_the_encoded_length() {
        let record = |name: &str, data| ResourceRecord {
            name: name.into(),
            ttl: 120,
            cache_flush: false,
            data,
        };
        let every_record = DnsMessage {
            questions: vec![Question::ptr("_hap._tcp.local")],
            authorities: vec![record(
                "",
                RecordData::Raw {
                    rtype: RecordType::Srv,
                    data: vec![1, 2, 3],
                },
            )],
            additionals: vec![record(
                "bridge.local",
                RecordData::Aaaa("fe80::1".parse().unwrap()),
            )],
            ..DnsMessage::mdns_announcement([
                record("bridge.local", RecordData::A(Ipv4Addr::new(10, 0, 0, 1))),
                record("_hap._tcp.local", RecordData::Ptr("bridge.local.".into())),
                record(
                    "txt.local",
                    RecordData::Txt(vec!["md=Bridge".into(), "".into()]),
                ),
                record("empty.local", RecordData::Txt(Vec::new())),
            ])
        };
        // Names `encode_name` writes with fewer labels than they have dots.
        let odd_names = ["", ".", "..", "a.b.", ".a..b", "cloud.example"];
        let messages = odd_names
            .into_iter()
            .map(|name| DnsMessage::query(1, [Question::a(name)]))
            .chain([every_record, DnsMessage::query(2, [])]);
        for msg in messages {
            assert_eq!(msg.wire_len(), msg.to_bytes().len(), "{msg:?}");
        }
    }

    #[test]
    fn parses_compressed_names() {
        // Hand-built response: question "a.b" + answer with pointer to it.
        let mut bytes = vec![
            0x00, 0x01, 0x80, 0x00, // id, flags: response
            0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, // counts
        ];
        bytes.extend_from_slice(&[1, b'a', 1, b'b', 0]); // name at offset 12
        bytes.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // qtype/qclass
        bytes.extend_from_slice(&[0xc0, 12]); // compressed name -> offset 12
        bytes.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]); // A, IN
        bytes.extend_from_slice(&[0, 0, 0, 60]); // ttl
        bytes.extend_from_slice(&[0x00, 0x04, 10, 0, 0, 1]); // rdata
        let msg = DnsMessage::parse(&bytes).unwrap();
        assert_eq!(msg.questions[0].name, "a.b");
        assert_eq!(msg.answers[0].name, "a.b");
        assert_eq!(
            msg.answers[0].data,
            RecordData::A(Ipv4Addr::new(10, 0, 0, 1))
        );
    }

    #[test]
    fn unmodelled_records_keep_their_type_through_a_roundtrip() {
        // An SRV (33) and an `A` whose data is five bytes long: both are
        // kept as raw data, and used to re-encode as type 0.
        let mut bytes = vec![0, 1, 0x80, 0, 0, 0, 0, 2, 0, 0, 0, 0];
        bytes.extend_from_slice(&[4, b'_', b's', b'v', b'c', 0]);
        bytes.extend_from_slice(&[0, 33, 0, 1, 0, 0, 0, 60, 0, 8]);
        bytes.extend_from_slice(&[0, 0, 0, 0, 0x1f, 0x90, 1, 0]);
        bytes.extend_from_slice(&[4, b'h', b'o', b's', b't', 0]);
        bytes.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 5, 1, 2, 3, 4, 5]);
        let msg = DnsMessage::parse(&bytes).unwrap();
        assert_eq!(
            msg.answers[0].data,
            RecordData::Raw {
                rtype: RecordType::Srv,
                data: vec![0, 0, 0, 0, 0x1f, 0x90, 1, 0],
            }
        );
        assert!(matches!(
            &msg.answers[1].data,
            RecordData::Raw { rtype: RecordType::A, data } if data.len() == 5
        ));
        assert_eq!(msg.to_bytes(), bytes);
        assert_eq!(DnsMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn compression_loop_detected() {
        let mut bytes = vec![
            0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        bytes.extend_from_slice(&[0xc0, 12]); // points at itself
        bytes.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]);
        assert!(DnsMessage::parse(&bytes).is_err());
    }

    #[test]
    fn truncated_rejected() {
        assert!(DnsMessage::parse(&[0u8; 11]).is_err());
    }

    #[test]
    fn record_type_roundtrip() {
        for raw in [1u16, 2, 5, 12, 16, 28, 33, 255, 64] {
            assert_eq!(RecordType::from_u16(raw).to_u16(), raw);
        }
    }
}
