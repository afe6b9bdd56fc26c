//! A minimal HTTP/1.1 message model.
//!
//! IoT devices use plain HTTP during setup for cloud registration,
//! firmware-version checks and UPnP descriptions. Only start-line and
//! headers are modeled structurally; bodies are opaque bytes.
//!
//! A head is walked once, by `split_head`, at byte speed; the feature scan
//! (`encoded_len`) and the decoder ([`HttpMessage::parse`]) are that
//! walk's two consumers. The decoder keeps the header section in one
//! buffer ([`Headers`]), reserved once, so a message is at most three
//! allocations (target or reason, headers, body — four with an unmodeled
//! method token) however many fields it carries.

use bytes::{BufMut, Bytes};
use serde::{Deserialize, Serialize};

use crate::ParseError;

/// An HTTP request method (including the SSDP extension methods, which use
/// HTTP framing over UDP).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
    /// PUT.
    Put,
    /// SSDP M-SEARCH.
    MSearch,
    /// SSDP/GENA NOTIFY.
    Notify,
    /// Any other method token.
    Other(String),
}

impl Method {
    /// The method token as it appears on the wire.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::MSearch => "M-SEARCH",
            Method::Notify => "NOTIFY",
            Method::Other(s) => s,
        }
    }

    /// Classifies a method token.
    pub fn from_token(token: &str) -> Self {
        match token {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "M-SEARCH" => Method::MSearch,
            "NOTIFY" => Method::Notify,
            other => Method::Other(other.to_owned()),
        }
    }
}

/// The header section of a message: the fields in order, held the way
/// they are encoded — `name: value\r\n`, back to back in one buffer — so
/// a message owns one allocation for all of them and encoding is one
/// copy. A name holds no `:` and neither half a `\r\n`, as on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Headers {
    lines: String,
}

impl Headers {
    /// Appends a field.
    pub fn push(&mut self, name: &str, value: &str) {
        debug_assert!(!name.contains(':') && !name.contains("\r\n") && !value.contains("\r\n"));
        self.lines.reserve(header_len(name, value));
        self.lines.push_str(name);
        self.lines.push_str(HEADER_SEPARATOR);
        self.lines.push_str(value);
        self.lines.push_str(CRLF);
    }

    /// The `(name, value)` pairs, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let lines = self.lines.split_terminator(CRLF);
        lines.filter_map(|line| line.split_once(HEADER_SEPARATOR))
    }
}

impl<'a> FromIterator<(&'a str, &'a str)> for Headers {
    fn from_iter<I: IntoIterator<Item = (&'a str, &'a str)>>(fields: I) -> Self {
        let mut headers = Headers::default();
        for (name, value) in fields {
            headers.push(name, value);
        }
        headers
    }
}

/// An HTTP/1.1 message (request or response).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HttpMessage {
    /// A request.
    Request {
        /// Request method.
        method: Method,
        /// Request target (path or `*`).
        target: String,
        /// Header fields in order.
        headers: Headers,
        /// Message body.
        body: Bytes,
    },
    /// A response.
    Response {
        /// Status code.
        status: u16,
        /// Reason phrase.
        reason: String,
        /// Header fields in order.
        headers: Headers,
        /// Message body.
        body: Bytes,
    },
}

impl HttpMessage {
    /// A GET request for `target` on `host`.
    pub fn get(host: impl AsRef<str>, target: impl Into<String>) -> Self {
        HttpMessage::Request {
            method: Method::Get,
            target: target.into(),
            headers: Headers::from_iter([("Host", host.as_ref())]),
            body: Bytes::new(),
        }
    }

    /// A POST request with a body.
    pub fn post(host: impl AsRef<str>, target: impl Into<String>, body: impl Into<Bytes>) -> Self {
        let body = body.into();
        let length = body.len().to_string();
        HttpMessage::Request {
            method: Method::Post,
            target: target.into(),
            headers: Headers::from_iter([
                ("Host", host.as_ref()),
                ("Content-Length", length.as_str()),
            ]),
            body,
        }
    }

    /// The header fields of the message.
    pub fn headers(&self) -> &Headers {
        match self {
            HttpMessage::Request { headers, .. } | HttpMessage::Response { headers, .. } => headers,
        }
    }

    /// The value of a header (case-insensitive name match).
    pub fn header(&self, name: &str) -> Option<&str> {
        let mut fields = self.headers().iter();
        fields.find_map(|(n, value)| n.eq_ignore_ascii_case(name).then_some(value))
    }

    /// The message body.
    pub fn body(&self) -> &Bytes {
        match self {
            HttpMessage::Request { body, .. } | HttpMessage::Response { body, .. } => body,
        }
    }

    /// Appends the serialized message to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            HttpMessage::Request { method, target, .. } => {
                buf.put_slice(method.as_str().as_bytes());
                buf.put_slice(b" ");
                buf.put_slice(target.as_bytes());
                buf.put_slice(REQUEST_LINE_TAIL);
            }
            HttpMessage::Response { status, reason, .. } => {
                buf.put_slice(STATUS_LINE_HEAD);
                let (digits, start) = status_digits(*status);
                buf.put_slice(&digits[start..]);
                buf.put_slice(b" ");
                buf.put_slice(reason.as_bytes());
                buf.put_slice(CRLF.as_bytes());
            }
        }
        buf.put_slice(self.headers().lines.as_bytes());
        buf.put_slice(CRLF.as_bytes());
        buf.put_slice(self.body());
    }

    /// Wire length of the serialized message: start line, header lines,
    /// the blank line and the body.
    pub fn wire_len(&self) -> usize {
        let start_line = match self {
            HttpMessage::Request { method, target, .. } => StartLine::Request {
                method: method.as_str(),
                target,
            },
            HttpMessage::Response { status, reason, .. } => StartLine::Response {
                status: *status,
                reason,
            },
        };
        start_line.wire_len() + self.headers().lines.len() + CRLF.len() + self.body().len()
    }

    /// Encodes into a fresh byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Parses an HTTP message.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Invalid`] if no CRLFCRLF head terminator is
    /// found or the start line is malformed.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        let mut headers = Headers::default();
        let (start, body) = split_head(bytes, |name, value| {
            // One reservation, made when the first field turns up: a line
            // re-encodes at most a third longer than it came (`:` to `: `).
            if headers.lines.capacity() == 0 {
                headers.lines.reserve(bytes.len() + bytes.len() / 3);
            }
            headers.push(name, value);
        })?;
        let body = Bytes::copy_from_slice(body);
        Ok(match StartLine::parse(start)? {
            StartLine::Request { method, target } => HttpMessage::Request {
                method: Method::from_token(method),
                target: target.to_owned(),
                headers,
                body,
            },
            StartLine::Response { status, reason } => HttpMessage::Response {
                status,
                reason: reason.to_owned(),
                headers,
                body,
            },
        })
    }
}

/// The modeled pieces of a start line, as parsed and as re-encoded.
#[cfg_attr(test, derive(Debug, PartialEq))]
enum StartLine<'a> {
    Request { method: &'a str, target: &'a str },
    Response { status: u16, reason: &'a str },
}

impl<'a> StartLine<'a> {
    /// A status line is `HTTP/1.x`, a code `u16` parses and an optional
    /// reason; a request line is at least three tokens, the third an
    /// `HTTP/` version (further tokens are dropped).
    fn parse(start: &'a str) -> Result<Self, ParseError> {
        let cut = |text: &'a str| cut_at(text, b' ');
        if start.starts_with("HTTP/1.1 ") || start.starts_with("HTTP/1.0 ") {
            let rest = &start[STATUS_LINE_HEAD.len()..];
            let (code, reason) = cut(rest).unwrap_or((rest, ""));
            let status = code
                .parse()
                .map_err(|_| ParseError::invalid("http", "bad status code"))?;
            return Ok(StartLine::Response { status, reason });
        }
        // The third token is whatever follows the second space, up to
        // the next one: it starts with `HTTP/` iff the rest does.
        match cut(start).and_then(|(method, rest)| Some((method, cut(rest)?))) {
            Some((method, (target, version))) if version.starts_with("HTTP/") => {
                Ok(StartLine::Request { method, target })
            }
            _ => Err(ParseError::invalid("http", "bad start line")),
        }
    }

    /// Length of the line [`HttpMessage::encode`] writes, CRLF included:
    /// always version 1.1, the status in plain decimal digits.
    fn wire_len(&self) -> usize {
        match self {
            StartLine::Request { method, target } => {
                method.len() + 1 + target.len() + REQUEST_LINE_TAIL.len()
            }
            StartLine::Response { status, reason } => {
                let (digits, start) = status_digits(*status);
                STATUS_LINE_HEAD.len() + (digits.len() - start) + 1 + reason.len() + CRLF.len()
            }
        }
    }
}

/// Length of the header line [`HttpMessage::encode`] writes for a field.
fn header_len(name: &str, value: &str) -> usize {
    name.len() + HEADER_SEPARATOR.len() + value.len() + CRLF.len()
}

/// Splits a message at its blank line into `(start line, body)`, handing
/// every header field — name and value trimmed, as they are kept and
/// re-encoded — to `header`. One forward pass: a line ends at the next
/// `\r\n`, the head at the first `\r\n` that another follows, a field's
/// name at its first `:`. Rejects in the order the checks have always
/// run — a head that never ends, then one that is not text, then a
/// colon-less line — so `header` may see fields of a head it rejects.
fn split_head<'a>(
    bytes: &'a [u8],
    mut header: impl FnMut(&'a str, &'a str),
) -> Result<(&'a str, &'a [u8]), ParseError> {
    let unterminated = || ParseError::invalid("http", "missing header terminator");
    let mut end = find_crlf(bytes, 0).ok_or_else(unterminated)?;
    let start = std::str::from_utf8(&bytes[..end]);
    let (mut text, mut colons) = (start.is_ok(), true);
    while !bytes[end + 2..].starts_with(CRLF.as_bytes()) {
        let at = end + 2;
        end = find_crlf(bytes, at).ok_or_else(unterminated)?;
        match std::str::from_utf8(&bytes[at..end]).map(|line| cut_at(line, b':')) {
            Ok(Some((name, value))) => header(trim(name), trim(value)),
            Ok(None) => colons = false,
            Err(_) => text = false,
        }
    }
    match start {
        Ok(start) if text && colons => Ok((start, &bytes[end + 4..])),
        Ok(_) if text => Err(ParseError::invalid("http", "header line without a colon")),
        _ => Err(ParseError::invalid("http", "head not utf-8")),
    }
}

/// Offset of the first `\r\n` at or after `from`, which is within `bytes`.
fn find_crlf(bytes: &[u8], mut from: usize) -> Option<usize> {
    loop {
        let cr = from + find_cr(&bytes[from..])?;
        if bytes.get(cr + 1) == Some(&b'\n') {
            return Some(cr);
        }
        from = cr + 1;
    }
}

/// Offset of the first `\r`, eight bytes at a time: XOR with eight `\r`s
/// zeroes the ones a word holds, and `(x - 0x01…01) & !x & 0x80…80` flags
/// zero bytes — exactly, up to the lowest flag, which is all that is read
/// (a borrow only disturbs flags above a true one).
fn find_cr(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("chunk of 8")) ^ (ONES * b'\r' as u64);
        let zeros = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let cr = tail.iter().position(|&b| b == b'\r')?;
    Some(bytes.len() - tail.len() + cr)
}

/// `text` around its first `at` (an ASCII byte): `split_once` by a byte
/// loop — the pieces are too short to repay a searcher's set-up.
fn cut_at(text: &str, at: u8) -> Option<(&str, &str)> {
    let cut = text.bytes().position(|b| b == at)?;
    Some((&text[..cut], &text[cut + 1..]))
}

/// [`str::trim`], read off the bytes where it can be: of the `White_Space`
/// characters only tab to carriage return and the space are ASCII, so a
/// piece that begins and ends on other ASCII bytes once those are dropped
/// is trimmed; one that begins or ends inside a multi-byte character
/// (U+0085, U+00A0, U+2003 … are white space too) goes to `str::trim`.
fn trim(text: &str) -> &str {
    let blank = |b: &u8| matches!(b, b'\t'..=b'\r' | b' ');
    let bytes = text.as_bytes();
    let Some(first) = bytes.iter().position(|b| !blank(b)) else {
        return "";
    };
    let last = bytes.iter().rposition(|b| !blank(b)).unwrap_or(first);
    if bytes[first] | bytes[last] >= 0x80 {
        return text.trim();
    }
    &text[first..=last]
}

/// The length a message re-encodes to — [`HttpMessage::wire_len`] of
/// what [`HttpMessage::parse`] returns, failing exactly when it fails —
/// without building the message. Not the input's length: padding around
/// header names and values, a non-1.1 version, a missing reason phrase's
/// space and a status written with a sign or leading zeros all re-encode
/// differently.
pub(crate) fn encoded_len(bytes: &[u8]) -> Result<usize, ParseError> {
    let mut headers = 0;
    let (start, body) = split_head(bytes, |name, value| headers += header_len(name, value))?;
    Ok(StartLine::parse(start)?.wire_len() + headers + CRLF.len() + body.len())
}

const CRLF: &str = "\r\n";
const HEADER_SEPARATOR: &str = ": ";
const REQUEST_LINE_TAIL: &[u8] = b" HTTP/1.1\r\n";
const STATUS_LINE_HEAD: &[u8] = b"HTTP/1.1 ";

/// The decimal digits of `status`, right-aligned in the array: they are
/// `digits[start..]`, with no sign and no padding.
fn status_digits(status: u16) -> ([u8; 5], usize) {
    let mut digits = [b'0'; 5];
    let mut start = digits.len();
    let mut rest = status;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            return (digits, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The head walk as it was before it went to bytes — `find`, then
    /// `str::split`, `split_once` and `str::trim` — kept as the oracle
    /// [`split_head`] is held to: the scan and the decoder share the
    /// walk, so their agreement cannot see a trim or a cut gone wrong.
    fn split_head_reference<'a>(
        bytes: &'a [u8],
        mut header: impl FnMut(&'a str, &'a str),
    ) -> Result<(&'a str, &'a [u8]), ParseError> {
        let head_end = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| ParseError::invalid("http", "missing header terminator"))?;
        let head = std::str::from_utf8(&bytes[..head_end])
            .map_err(|_| ParseError::invalid("http", "head not utf-8"))?;
        let mut lines = head.split("\r\n");
        let start = lines.next().unwrap_or_default();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| ParseError::invalid("http", "header line without a colon"))?;
            header(name.trim(), value.trim());
        }
        Ok((start, &bytes[head_end + 4..]))
    }

    /// The start-line rules as they were before they went to bytes.
    fn start_line_reference(start: &str) -> Result<StartLine<'_>, ParseError> {
        if let Some(rest) = start
            .strip_prefix("HTTP/1.1 ")
            .or_else(|| start.strip_prefix("HTTP/1.0 "))
        {
            let (code, reason) = rest.split_once(' ').unwrap_or((rest, ""));
            let status = code
                .parse()
                .map_err(|_| ParseError::invalid("http", "bad status code"))?;
            return Ok(StartLine::Response { status, reason });
        }
        let mut parts = start.split(' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(method), Some(target), Some(version)) if version.starts_with("HTTP/") => {
                Ok(StartLine::Request { method, target })
            }
            _ => Err(ParseError::invalid("http", "bad start line")),
        }
    }

    /// What a walk made of a message: start line, fields in order, body.
    type Walked<'a> = Result<(&'a str, Vec<(&'a str, &'a str)>, &'a [u8]), ParseError>;

    fn walked(bytes: &[u8]) -> Walked<'_> {
        let mut fields = Vec::new();
        let (start, body) = split_head(bytes, |name, value| fields.push((name, value)))?;
        Ok((start, fields, body))
    }

    fn walked_reference(bytes: &[u8]) -> Walked<'_> {
        let mut fields = Vec::new();
        let (start, body) = split_head_reference(bytes, |name, value| fields.push((name, value)))?;
        Ok((start, fields, body))
    }

    const START_LINES: [&[u8]; 8] = [
        b"HTTP/1.1 200 OK",
        b"HTTP/1.0 404 Not Found",
        b"NOTIFY * HTTP/1.1",
        b"GET /",
        b"",
        b" \x0b padded \xc2\xa0",
        b"GET /\rlone\nbreaks HTTP/1.1",
        b"HTTP/1.1 200 \xff",
    ];

    /// Header lines that parse, and try every way a cut or a trim can go
    /// wrong: no padding, ASCII padding of each kind (`\x0b` is white
    /// space to `str::trim`, not to `u8::is_ascii_whitespace`), padding
    /// that is white space only as a character (U+0085, U+00A0, U+2003),
    /// multi-byte text that is not, several colons, lone `\r`s and `\n`s,
    /// and a value ending in `\r` (so the line ends `\r\r\n`).
    const FIELD_LINES: [&[u8]; 17] = [
        b"Host: x",
        b"Host:x",
        b" Host : x ",
        b"X:",
        b":",
        b"A: b: c",
        b"T:\tv\t",
        b"\x0bV\x0b:\x0bv\x0b",
        b"\x0cF \x0c: \x0c f\x0c",
        b" \r\t:\n ",
        b"\xc2\x85N\xc2\x85:\xc2\x85n\xc2\x85",
        b"\xc2\xa0 S \xc2\xa0: \xc2\xa0 s \xc2\xa0",
        b"\xe2\x80\x83E\xe2\x80\x83:\xe2\x80\x83e e\xe2\x80\x83",
        b"\xc3\xa9t\xc3\xa9: \xc3\xa9",
        b"R:\rr\r r",
        b"L\n:\nl",
        b"D: d\r",
    ];

    /// Lines that get a head rejected, or cut short: colon-less, not
    /// UTF-8 in the name and in the value, both at once, and empty (a
    /// blank line before the intended one).
    const SPOILERS: [&[u8]; 5] = [b"no colon", b"\xff: bad", b"B: \xfe", b"\xffno colon", b""];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn split_head_agrees_with_the_reference_walk(
            start in 0..START_LINES.len(),
            fields in proptest::collection::vec(0..FIELD_LINES.len(), 0..=40),
            spoilers in proptest::collection::vec((0..SPOILERS.len(), any::<usize>()), 0..3),
            body in prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..12),
                Just(b"\r\n\r\nA: second head\r\n\r\n".to_vec()),
                Just(b"\n\r\n".to_vec()),
            ],
        ) {
            let mut lines: Vec<&[u8]> = fields.iter().map(|&line| FIELD_LINES[line]).collect();
            for (spoiler, at) in spoilers {
                lines.insert(at % (lines.len() + 1), SPOILERS[spoiler]);
            }
            let mut message = START_LINES[start].to_vec();
            for line in lines {
                message.extend_from_slice(b"\r\n");
                message.extend_from_slice(line);
            }
            message.extend_from_slice(b"\r\n\r\n");
            message.extend_from_slice(&body);
            // The message and every truncation of it: same start line,
            // same fields in the same order, same body — or the same error.
            for cut in 0..=message.len() {
                prop_assert_eq!(
                    walked(&message[..cut]),
                    walked_reference(&message[..cut]),
                    "on {:?}",
                    String::from_utf8_lossy(&message[..cut])
                );
            }
        }

        #[test]
        fn start_lines_parse_as_they_always_did(
            tokens in proptest::collection::vec(0usize..18, 0..6),
        ) {
            const TOKENS: [&str; 18] = [
                "HTTP/1.1", "HTTP/1.0", "HTTP/1.", "HTTP/2", "HTTP/", "http/1.1", "GET", "/", "*",
                "", "200", "+200", "0200", "65535", "65536", "-1", "+", "\u{e9}",
            ];
            let line = tokens.iter().map(|&t| TOKENS[t]).collect::<Vec<_>>().join(" ");
            prop_assert_eq!(StartLine::parse(&line), start_line_reference(&line), "on {:?}", line);
        }
    }

    #[test]
    fn the_reference_walk_is_not_vacuous() {
        // The soup above is worth its name only if whole heads do parse:
        // every field line on its own, and all of them together.
        let mut all = b"GET / HTTP/1.1".to_vec();
        for line in FIELD_LINES {
            all.extend_from_slice(b"\r\n");
            all.extend_from_slice(line);
        }
        all.extend_from_slice(b"\r\n\r\nbody");
        let (start, fields, body) = walked(&all).expect("every field line parses");
        assert_eq!(
            (start, fields.len(), body),
            ("GET / HTTP/1.1", 17, &b"body"[..])
        );
        assert_eq!(fields[7], ("V", "v"), "vertical tab is white space");
        assert_eq!(fields[10], ("N", "n"), "so is U+0085");
        assert_eq!(fields[13], ("\u{e9}t\u{e9}", "\u{e9}"), "and \u{e9} is not");
        assert_eq!(fields[5], ("A", "b: c"), "cut at the first colon");
        assert_eq!(walked(&all), walked_reference(&all));
        for spoiler in SPOILERS {
            let message = [b"GET / HTTP/1.1\r\nA: b\r\n", spoiler, b"\r\n\r\n"].concat();
            assert_eq!(walked(&message), walked_reference(&message));
            assert_eq!(walked(&message).is_ok(), spoiler.is_empty());
        }
    }

    #[test]
    fn headers_hold_pairs_in_one_buffer() {
        let mut headers = Headers::from_iter([("Host", "x"), ("Empty", ""), ("A", "b: c")]);
        headers.push("Last", " kept as pushed ");
        let pairs: Vec<_> = headers.iter().collect();
        assert_eq!(
            pairs,
            [
                ("Host", "x"),
                ("Empty", ""),
                ("A", "b: c"),
                ("Last", " kept as pushed ")
            ]
        );
        assert_eq!(Headers::default().iter().count(), 0);
        // What a decoded message holds is what a built one does.
        let bytes =
            b"GET / HTTP/1.1\r\nHost:x\r\n Empty :\r\nA: b: c\r\nLast:kept as pushed\r\n\r\n";
        let parsed = HttpMessage::parse(bytes).unwrap();
        let expected: Vec<_> = pairs[..3]
            .iter()
            .copied()
            .chain([("Last", "kept as pushed")])
            .collect();
        assert_eq!(parsed.headers().iter().collect::<Vec<_>>(), expected);
        assert_eq!(parsed.header("EMPTY"), Some(""));
        assert_eq!(parsed.header("missing"), None);
    }

    #[test]
    fn get_roundtrip() {
        let msg = HttpMessage::get("fw.vendor.example", "/check?v=1.2");
        let parsed = HttpMessage::parse(&msg.to_bytes()).unwrap();
        assert_eq!(parsed, msg);
        assert_eq!(parsed.header("host"), Some("fw.vendor.example"));
    }

    #[test]
    fn post_carries_body_and_length() {
        let msg = HttpMessage::post("api.example", "/register", b"id=42".as_slice());
        assert_eq!(msg.header("Content-Length"), Some("5"));
        let parsed = HttpMessage::parse(&msg.to_bytes()).unwrap();
        assert_eq!(parsed.body().as_ref(), b"id=42");
    }

    #[test]
    fn response_roundtrip() {
        let msg = HttpMessage::Response {
            status: 200,
            reason: "OK".into(),
            headers: Headers::from_iter([("Server", "lighttpd")]),
            body: Bytes::from_static(b"<xml/>"),
        };
        assert_eq!(HttpMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn wire_len_is_the_encoded_length() {
        // One to five status digits, with and without reason and body.
        let responses = [7u16, 99, 100, 65_535].map(|status| HttpMessage::Response {
            status,
            reason: if status < 100 { "" } else { "Odd Status" }.into(),
            headers: Headers::from_iter([("Server", "lighttpd"), ("X", "")]),
            body: Bytes::from(vec![b'x'; status as usize % 9]),
        });
        let requests = [
            HttpMessage::get("fw.vendor.example", "/check?v=1.2"),
            HttpMessage::post("api.example", "/register", b"id=42".as_slice()),
            HttpMessage::Request {
                method: Method::Other("PATCH".into()),
                target: "*".into(),
                headers: Headers::default(),
                body: Bytes::new(),
            },
        ];
        for msg in responses.into_iter().chain(requests) {
            assert_eq!(msg.wire_len(), msg.to_bytes().len(), "{msg:?}");
        }
    }

    #[test]
    fn status_line_carries_plain_decimal_digits() {
        // What `format!("HTTP/1.1 {status} {reason}\r\n")` used to write.
        for (status, line) in [
            (0u16, "HTTP/1.1 0 OK\r\n\r\n"),
            (7, "HTTP/1.1 7 OK\r\n\r\n"),
            (404, "HTTP/1.1 404 OK\r\n\r\n"),
            (65_535, "HTTP/1.1 65535 OK\r\n\r\n"),
        ] {
            let msg = HttpMessage::Response {
                status,
                reason: "OK".into(),
                headers: Headers::default(),
                body: Bytes::new(),
            };
            assert_eq!(msg.to_bytes(), line.as_bytes());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(HttpMessage::parse(b"not http at all").is_err());
        assert!(HttpMessage::parse(b"GET\r\n\r\n").is_err());
    }

    #[test]
    fn method_token_roundtrip() {
        for token in ["GET", "POST", "PUT", "M-SEARCH", "NOTIFY", "PATCH"] {
            assert_eq!(Method::from_token(token).as_str(), token);
        }
    }
}
