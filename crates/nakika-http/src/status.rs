//! HTTP status codes.

use crate::error::{HttpError, Result};
use std::fmt;

/// An HTTP response status code (100..=599).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct StatusCode(u16);

impl StatusCode {
    /// 200 OK
    pub const OK: StatusCode = StatusCode(200);
    /// 204 No Content
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// 206 Partial Content
    pub const PARTIAL_CONTENT: StatusCode = StatusCode(206);
    /// 301 Moved Permanently
    pub const MOVED_PERMANENTLY: StatusCode = StatusCode(301);
    /// 302 Found
    pub const FOUND: StatusCode = StatusCode(302);
    /// 304 Not Modified
    pub const NOT_MODIFIED: StatusCode = StatusCode(304);
    /// 307 Temporary Redirect — same method, same body, try over there.
    pub const TEMPORARY_REDIRECT: StatusCode = StatusCode(307);
    /// 400 Bad Request
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 401 Unauthorized — used by the paper's digital-library policy (Fig. 5).
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// 403 Forbidden
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 408 Request Timeout — the connection idled past its deadline.
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// 413 Payload Too Large
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// 429 Too Many Requests
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 431 Request Header Fields Too Large — header count/size cap tripped.
    pub const REQUEST_HEADER_FIELDS_TOO_LARGE: StatusCode = StatusCode(431);
    /// 500 Internal Server Error
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// 502 Bad Gateway
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);
    /// 503 Service Unavailable — used by Na Kika's throttling ("server busy").
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);
    /// 504 Gateway Timeout
    pub const GATEWAY_TIMEOUT: StatusCode = StatusCode(504);

    /// Constructs a status code, validating the 100..=599 range.
    pub fn new(code: u16) -> Result<StatusCode> {
        if (100..=599).contains(&code) {
            Ok(StatusCode(code))
        } else {
            Err(HttpError::InvalidStatus(code))
        }
    }

    /// The numeric code.
    pub fn as_u16(&self) -> u16 {
        self.0
    }

    /// True for 1xx codes.
    pub fn is_informational(&self) -> bool {
        (100..200).contains(&self.0)
    }

    /// True for 2xx codes.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }

    /// True for 3xx codes.
    pub fn is_redirect(&self) -> bool {
        (300..400).contains(&self.0)
    }

    /// True for 4xx codes.
    pub fn is_client_error(&self) -> bool {
        (400..500).contains(&self.0)
    }

    /// True for 5xx codes.
    pub fn is_server_error(&self) -> bool {
        (500..600).contains(&self.0)
    }

    /// True if responses with this status are cacheable by default
    /// (RFC 7231 §6.1 heuristic set).
    pub fn is_cacheable_by_default(&self) -> bool {
        matches!(
            self.0,
            200 | 203 | 204 | 206 | 300 | 301 | 404 | 405 | 410 | 414 | 501
        )
    }

    /// The canonical reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            100 => "Continue",
            101 => "Switching Protocols",
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            206 => "Partial Content",
            300 => "Multiple Choices",
            301 => "Moved Permanently",
            302 => "Found",
            303 => "See Other",
            304 => "Not Modified",
            307 => "Temporary Redirect",
            308 => "Permanent Redirect",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            406 => "Not Acceptable",
            408 => "Request Timeout",
            410 => "Gone",
            411 => "Length Required",
            413 => "Payload Too Large",
            414 => "URI Too Long",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

impl TryFrom<u16> for StatusCode {
    type Error = HttpError;
    fn try_from(v: u16) -> Result<Self> {
        StatusCode::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(StatusCode::UNAUTHORIZED.is_client_error());
        assert!(StatusCode::SERVICE_UNAVAILABLE.is_server_error());
        assert!(StatusCode::new(100).unwrap().is_informational());
    }

    #[test]
    fn range_validation() {
        assert!(StatusCode::new(99).is_err());
        assert!(StatusCode::new(600).is_err());
        assert!(StatusCode::new(100).is_ok());
        assert!(StatusCode::new(599).is_ok());
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(StatusCode::OK.reason(), "OK");
        assert_eq!(StatusCode::UNAUTHORIZED.reason(), "Unauthorized");
        assert_eq!(StatusCode::new(599).unwrap().reason(), "Unknown");
    }

    #[test]
    fn default_cacheability() {
        assert!(StatusCode::OK.is_cacheable_by_default());
        assert!(StatusCode::NOT_FOUND.is_cacheable_by_default());
        assert!(!StatusCode::SERVICE_UNAVAILABLE.is_cacheable_by_default());
    }

    #[test]
    fn display_includes_reason() {
        assert_eq!(StatusCode::OK.to_string(), "200 OK");
    }
}
