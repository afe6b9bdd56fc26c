use std::borrow::Cow;
use std::fmt;

/// Error returned when decoding a packet (or one of its layers) from wire
/// bytes fails.
///
/// `ParseError` is the single error type of this crate: every `parse`
/// function returns `Result<T, ParseError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// The input ended before the layer was complete.
    Truncated {
        /// Which protocol layer was being decoded.
        layer: &'static str,
        /// How many bytes the layer needed.
        needed: usize,
        /// How many bytes were available.
        got: usize,
    },
    /// A field held a value that is not valid for the protocol.
    Invalid {
        /// Which protocol layer was being decoded.
        layer: &'static str,
        /// Human-readable reason the bytes were rejected. Every
        /// frame-level check passes a `&'static str`, so rejecting a
        /// frame allocates nothing; only per-file errors (pcap headers,
        /// MAC strings) format an owned reason.
        reason: Cow<'static, str>,
    },
    /// The pcap file magic number was not recognized.
    BadPcapMagic(u32),
    /// An I/O error surfaced while reading or writing a capture file.
    Io(String),
}

impl ParseError {
    /// Convenience constructor for [`ParseError::Truncated`]. Cold: the
    /// checks that call it sit on the wire scan's hot path, and rejecting
    /// is the rare outcome — this keeps error construction out of it.
    #[cold]
    pub(crate) fn truncated(layer: &'static str, needed: usize, got: usize) -> Self {
        ParseError::Truncated { layer, needed, got }
    }

    /// Convenience constructor for [`ParseError::Invalid`]; cold like
    /// [`ParseError::truncated`].
    #[cold]
    pub(crate) fn invalid(layer: &'static str, reason: impl Into<Cow<'static, str>>) -> Self {
        ParseError::Invalid {
            layer,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { layer, needed, got } => {
                write!(f, "truncated {layer}: needed {needed} bytes, got {got}")
            }
            ParseError::Invalid { layer, reason } => write!(f, "invalid {layer}: {reason}"),
            ParseError::BadPcapMagic(magic) => {
                write!(f, "unrecognized pcap magic number {magic:#010x}")
            }
            ParseError::Io(err) => write!(f, "capture i/o error: {err}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(err: std::io::Error) -> Self {
        ParseError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = ParseError::truncated("ipv4", 20, 7);
        assert_eq!(err.to_string(), "truncated ipv4: needed 20 bytes, got 7");
        let err = ParseError::invalid("dns", "label too long");
        assert_eq!(err.to_string(), "invalid dns: label too long");
        let err = ParseError::BadPcapMagic(0xdead_beef);
        assert!(err.to_string().contains("0xdeadbeef"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<ParseError>();
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let err: ParseError = io.into();
        assert!(matches!(err, ParseError::Io(_)));
    }
}
