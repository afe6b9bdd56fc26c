//! A minimal HTTP/1.1 message model.
//!
//! IoT devices use plain HTTP during setup for cloud registration,
//! firmware-version checks and UPnP descriptions. Only start-line and
//! headers are modeled structurally; bodies are opaque bytes.

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
        headers: Vec<(String, String)>,
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
        headers: Vec<(String, String)>,
        /// Message body.
        body: Bytes,
    },
}

impl HttpMessage {
    /// A GET request for `target` on `host`.
    pub fn get(host: impl Into<String>, target: impl Into<String>) -> Self {
        HttpMessage::Request {
            method: Method::Get,
            target: target.into(),
            headers: vec![("Host".into(), host.into())],
            body: Bytes::new(),
        }
    }

    /// A POST request with a body.
    pub fn post(
        host: impl Into<String>,
        target: impl Into<String>,
        body: impl Into<Bytes>,
    ) -> Self {
        let body = body.into();
        HttpMessage::Request {
            method: Method::Post,
            target: target.into(),
            headers: vec![
                ("Host".into(), host.into()),
                ("Content-Length".into(), body.len().to_string()),
            ],
            body,
        }
    }

    /// The header fields of the message.
    pub fn headers(&self) -> &[(String, String)] {
        match self {
            HttpMessage::Request { headers, .. } | HttpMessage::Response { headers, .. } => headers,
        }
    }

    /// The value of a header (case-insensitive name match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
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
                buf.put_slice(CRLF);
            }
        }
        for (name, value) in self.headers() {
            buf.put_slice(name.as_bytes());
            buf.put_slice(HEADER_SEPARATOR);
            buf.put_slice(value.as_bytes());
            buf.put_slice(CRLF);
        }
        buf.put_slice(CRLF);
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
        let headers: usize = self
            .headers()
            .iter()
            .map(|(name, value)| header_len(name, value))
            .sum();
        start_line.wire_len() + headers + CRLF.len() + self.body().len()
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
        let mut headers = Vec::new();
        let (start, body) = split_head(bytes, |name, value| {
            headers.push((name.to_owned(), value.to_owned()));
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
enum StartLine<'a> {
    Request { method: &'a str, target: &'a str },
    Response { status: u16, reason: &'a str },
}

impl<'a> StartLine<'a> {
    /// A status line is `HTTP/1.x`, a code `u16` parses and an optional
    /// reason; a request line is at least three tokens, the third an
    /// `HTTP/` version (further tokens are dropped).
    fn parse(start: &'a str) -> Result<Self, ParseError> {
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
/// re-encoded — to `header`.
fn split_head<'a>(
    bytes: &'a [u8],
    mut header: impl FnMut(&'a str, &'a str),
) -> Result<(&'a str, &'a [u8]), ParseError> {
    let head_end = find_head_end(bytes)
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

const CRLF: &[u8] = b"\r\n";
const HEADER_SEPARATOR: &[u8] = b": ";
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

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

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
            headers: vec![("Server".into(), "lighttpd".into())],
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
            headers: vec![
                ("Server".into(), "lighttpd".into()),
                ("X".into(), "".into()),
            ],
            body: Bytes::from(vec![b'x'; status as usize % 9]),
        });
        let requests = [
            HttpMessage::get("fw.vendor.example", "/check?v=1.2"),
            HttpMessage::post("api.example", "/register", b"id=42".as_slice()),
            HttpMessage::Request {
                method: Method::Other("PATCH".into()),
                target: "*".into(),
                headers: Vec::new(),
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
                headers: Vec::new(),
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
