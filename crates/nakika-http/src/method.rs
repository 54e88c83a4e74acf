//! HTTP request methods.

use crate::error::{HttpError, Result};
use std::fmt;

/// An HTTP request method.
///
/// Na Kika's policy objects can predicate on the request method (the paper
/// gives methods third precedence after resource URLs and client addresses),
/// so the type implements cheap equality and ordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Method {
    /// `GET` — safe, cacheable retrieval.
    Get,
    /// `HEAD` — like GET without a body.
    Head,
    /// `POST` — submit data; not cacheable by default.
    Post,
    /// `PUT` — replace a resource.
    Put,
    /// `DELETE` — remove a resource.
    Delete,
    /// `OPTIONS` — capability discovery.
    Options,
    /// `TRACE` — diagnostic loop-back.
    Trace,
    /// `CONNECT` — tunnel establishment.
    Connect,
    /// `PATCH` — partial modification.
    Patch,
    /// Any other token (extension methods).
    Extension(String),
}

impl Method {
    /// Parses a method token.
    ///
    /// Unknown but syntactically valid tokens become [`Method::Extension`];
    /// empty or non-token input is an error.
    pub fn parse(s: &str) -> Result<Method> {
        if s.is_empty() || !s.bytes().all(is_token_byte) {
            return Err(HttpError::UnknownMethod(s.to_string()));
        }
        Ok(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            "TRACE" => Method::Trace,
            "CONNECT" => Method::Connect,
            "PATCH" => Method::Patch,
            other => Method::Extension(other.to_string()),
        })
    }

    /// Returns the canonical textual form of the method.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
            Method::Trace => "TRACE",
            Method::Connect => "CONNECT",
            Method::Patch => "PATCH",
            Method::Extension(s) => s,
        }
    }

    /// True for methods whose responses may be cached (GET and HEAD).
    pub fn is_cacheable(&self) -> bool {
        matches!(self, Method::Get | Method::Head)
    }

    /// True for methods considered safe (no server-side state change).
    pub(crate) fn is_safe(&self) -> bool {
        matches!(
            self,
            Method::Get | Method::Head | Method::Options | Method::Trace
        )
    }

    /// True for idempotent methods.
    pub fn is_idempotent(&self) -> bool {
        self.is_safe() || matches!(self, Method::Put | Method::Delete)
    }
}

fn is_token_byte(b: u8) -> bool {
    matches!(b,
        b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.' |
        b'^' | b'_' | b'`' | b'|' | b'~' | b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z')
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Method {
    type Err = HttpError;
    fn from_str(s: &str) -> Result<Self> {
        Method::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_standard_methods() {
        assert_eq!(Method::parse("GET").unwrap(), Method::Get);
        assert_eq!(Method::parse("POST").unwrap(), Method::Post);
        assert_eq!(Method::parse("DELETE").unwrap(), Method::Delete);
    }

    #[test]
    fn extension_methods_round_trip() {
        let m = Method::parse("PURGE").unwrap();
        assert_eq!(m, Method::Extension("PURGE".to_string()));
        assert_eq!(m.as_str(), "PURGE");
    }

    #[test]
    fn rejects_invalid_tokens() {
        assert!(Method::parse("").is_err());
        assert!(Method::parse("GE T").is_err());
        assert!(Method::parse("GET\r").is_err());
    }

    #[test]
    fn cacheability_and_safety() {
        assert!(Method::Get.is_cacheable());
        assert!(Method::Head.is_cacheable());
        assert!(!Method::Post.is_cacheable());
        assert!(Method::Get.is_safe());
        assert!(!Method::Put.is_safe());
        assert!(Method::Put.is_idempotent());
        assert!(!Method::Post.is_idempotent());
    }

    #[test]
    fn display_matches_as_str() {
        assert_eq!(Method::Options.to_string(), "OPTIONS");
    }
}
