//! Error types for HTTP parsing and message handling.

use std::fmt;

/// Result alias used throughout the HTTP substrate.
pub(crate) type Result<T> = std::result::Result<T, HttpError>;

/// Errors produced while parsing or constructing HTTP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line or status line is malformed.
    MalformedStartLine(String),
    /// A header line could not be parsed.
    MalformedHeader(String),
    /// The HTTP method is not recognised.
    UnknownMethod(String),
    /// The HTTP version is not supported (only 1.0 and 1.1 are).
    UnsupportedVersion(String),
    /// The URI could not be parsed.
    InvalidUri(String),
    /// The status code is outside 100..=599.
    InvalidStatus(u16),
    /// A chunked body was malformed.
    MalformedChunk(String),
    /// The Content-Length header was present but not a valid integer.
    InvalidContentLength(String),
    /// The message body exceeded the configured limit.
    BodyTooLarge {
        /// Limit in bytes that was exceeded.
        limit: usize,
    },
    /// The header block exceeded the configured byte or count limit.
    /// Distinct from [`HttpError::BodyTooLarge`] so servers can answer
    /// 431 (header flood) rather than 413 (oversized payload).
    HeadersTooLarge {
        /// Limit (bytes or header count, per context) that was exceeded.
        limit: usize,
    },
    /// The input ended before a complete message was available.
    Incomplete,
    /// A CIDR block or address pattern was malformed.
    InvalidPattern(String),
    /// Wrapper for I/O errors when reading or writing sockets.
    Io(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::MalformedStartLine(s) => write!(f, "malformed start line: {s}"),
            HttpError::MalformedHeader(s) => write!(f, "malformed header: {s}"),
            HttpError::UnknownMethod(s) => write!(f, "unknown method: {s}"),
            HttpError::UnsupportedVersion(s) => write!(f, "unsupported HTTP version: {s}"),
            HttpError::InvalidUri(s) => write!(f, "invalid URI: {s}"),
            HttpError::InvalidStatus(c) => write!(f, "invalid status code: {c}"),
            HttpError::MalformedChunk(s) => write!(f, "malformed chunk: {s}"),
            HttpError::InvalidContentLength(s) => write!(f, "invalid content length: {s}"),
            HttpError::BodyTooLarge { limit } => write!(f, "body exceeds limit of {limit} bytes"),
            HttpError::HeadersTooLarge { limit } => {
                write!(f, "headers exceed limit of {limit}")
            }
            HttpError::Incomplete => write!(f, "incomplete message"),
            HttpError::InvalidPattern(s) => write!(f, "invalid pattern: {s}"),
            HttpError::Io(s) => write!(f, "i/o error: {s}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HttpError::MalformedStartLine("GET".to_string());
        assert!(e.to_string().contains("GET"));
        let e = HttpError::BodyTooLarge { limit: 10 };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: HttpError = io.into();
        assert!(matches!(e, HttpError::Io(_)));
    }
}
