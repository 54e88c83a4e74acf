//! URI parsing and the `.nakika.net` hostname rewriting scheme.

use crate::error::{HttpError, Result};
use std::fmt;

/// A parsed HTTP URI.
///
/// Na Kika scripts predicate on URL components (server name, port, path) and
/// the architecture rewrites hostnames by appending `.nakika.net` so that the
/// network's name servers can redirect clients to nearby edge nodes
/// (paper §3).  This type supports both uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Uri {
    /// URI scheme, lower-cased (`http` or `https`).
    pub(crate) scheme: String,
    /// Host name, lower-cased.
    pub host: String,
    /// Port; defaults to 80 for http and 443 for https.
    pub port: u16,
    /// Path starting with `/`.
    pub path: String,
    /// Query string without the leading `?`, if any.
    pub query: Option<String>,
}

/// The domain suffix appended to hostnames to route requests through Na Kika.
pub(crate) const NAKIKA_SUFFIX: &str = ".nakika.net";

impl Uri {
    /// Parses an absolute URI (`http://host[:port]/path?query`) or an
    /// origin-form path (`/path?query`, in which case `host` is empty).
    ///
    /// An ASCII control character or space inside the trimmed input is
    /// refused: RFC 3986 URIs contain none, and a CR/LF kept in the path or
    /// host would let whoever supplied the URI split the request line or the
    /// `Host` field when the request is serialized.
    pub fn parse(input: &str) -> Result<Uri> {
        let input = input.trim();
        if input.is_empty() {
            return Err(HttpError::InvalidUri("empty".to_string()));
        }
        if input.bytes().any(|b| b.is_ascii_control() || b == b' ') {
            return Err(HttpError::InvalidUri(format!(
                "control character or space in: {}",
                input.escape_debug()
            )));
        }
        if let Some(rest) = input.strip_prefix('/') {
            let (path, query) = split_query(&format!("/{rest}"));
            return Ok(Uri {
                scheme: "http".to_string(),
                host: String::new(),
                port: 80,
                path,
                query,
            });
        }
        let (scheme, rest) = match input.find("://") {
            Some(idx) => (input[..idx].to_ascii_lowercase(), &input[idx + 3..]),
            None => ("http".to_string(), input),
        };
        if scheme != "http" && scheme != "https" {
            return Err(HttpError::InvalidUri(format!(
                "unsupported scheme: {scheme}"
            )));
        }
        let default_port = if scheme == "https" { 443 } else { 80 };
        let (authority, path_and_query) = match rest.find('/') {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(HttpError::InvalidUri(format!("missing host in: {input}")));
        }
        let (host, port) = match authority.rfind(':') {
            Some(idx) => {
                let port: u16 = authority[idx + 1..]
                    .parse()
                    .map_err(|_| HttpError::InvalidUri(format!("bad port in: {authority}")))?;
                (authority[..idx].to_ascii_lowercase(), port)
            }
            None => (authority.to_ascii_lowercase(), default_port),
        };
        if host.is_empty() {
            return Err(HttpError::InvalidUri(format!("empty host in: {input}")));
        }
        let (path, query) = split_query(path_and_query);
        Ok(Uri {
            scheme,
            host,
            port,
            path,
            query,
        })
    }

    /// Builds a URI from parts with scheme `http`.
    pub(crate) fn http(host: &str, port: u16, path: &str) -> Uri {
        let (path, query) = split_query(path);
        Uri {
            scheme: "http".to_string(),
            host: host.to_ascii_lowercase(),
            port,
            path,
            query,
        }
    }

    /// `host:port` authority form, omitting the default port.
    pub(crate) fn authority(&self) -> String {
        let default = if self.scheme == "https" { 443 } else { 80 };
        if self.port == default {
            self.host.clone()
        } else {
            format!("{}:{}", self.host, self.port)
        }
    }

    /// Path plus query string, as used on the request line.
    pub(crate) fn path_and_query(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{}", self.path, q),
            None => self.path.clone(),
        }
    }

    /// The "site" a URI belongs to, which Na Kika uses to locate the
    /// site-specific `nakika.js` script and to account resource usage per
    /// site.  This is simply the authority.
    pub fn site(&self) -> String {
        self.authority()
    }

    /// True if the host carries the `.nakika.net` redirection suffix.
    pub fn is_nakika(&self) -> bool {
        self.host.ends_with(NAKIKA_SUFFIX) || self.host == "nakika.net"
    }

    /// Appends `.nakika.net` to the host (the paper's URL-rewriting step for
    /// directing clients through the edge network).  No-op if already present.
    pub fn to_nakika(&self) -> Uri {
        if self.is_nakika() {
            return self.clone();
        }
        let mut u = self.clone();
        u.host = format!("{}{}", self.host, NAKIKA_SUFFIX);
        u
    }

    /// Strips the `.nakika.net` suffix, recovering the origin-server URI.
    pub fn to_origin(&self) -> Uri {
        match self.host.strip_suffix(NAKIKA_SUFFIX) {
            Some(stripped) if !stripped.is_empty() => {
                let mut u = self.clone();
                u.host = stripped.to_string();
                u
            }
            _ => self.clone(),
        }
    }

    /// Parses the query string into key/value pairs (used for the SIMM port's
    /// URL-based session identifiers).
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        if let Some(q) = &self.query {
            for pair in q.split('&') {
                if pair.is_empty() {
                    continue;
                }
                match pair.find('=') {
                    Some(idx) => out.push((pair[..idx].to_string(), pair[idx + 1..].to_string())),
                    None => out.push((pair.to_string(), String::new())),
                }
            }
        }
        out
    }

    /// The file extension of the path, if any (used to detect `.nkp` pages).
    pub fn extension(&self) -> Option<&str> {
        let last = self.path.rsplit('/').next()?;
        let dot = last.rfind('.')?;
        if dot + 1 < last.len() {
            Some(&last[dot + 1..])
        } else {
            None
        }
    }

    /// True if `self` falls under `prefix`, where a prefix is
    /// `host[/path-prefix]` as used by policy-object URL lists
    /// (e.g. `"med.nyu.edu"` or `"bmj.bmjjournals.com/cgi/reprint"`).
    pub fn matches_prefix(&self, prefix: &str) -> bool {
        let prefix = prefix.trim();
        if prefix.is_empty() {
            return false;
        }
        let (host_part, path_part) = match prefix.find('/') {
            Some(idx) => (&prefix[..idx], &prefix[idx..]),
            None => (prefix, ""),
        };
        let host_part = host_part.to_ascii_lowercase();
        // Host matches exactly or as a domain suffix ("nyu.edu" matches
        // "med.nyu.edu"); the comparison ignores any .nakika.net rewriting.
        let host = self.to_origin().host;
        let host_ok =
            host == host_part || host.ends_with(&format!(".{host_part}")) || host_part.is_empty();
        if !host_ok {
            return false;
        }
        path_part.is_empty() || self.path.starts_with(path_part)
    }
}

fn split_query(path_and_query: &str) -> (String, Option<String>) {
    match path_and_query.find('?') {
        Some(idx) => (
            path_and_query[..idx].to_string(),
            Some(path_and_query[idx + 1..].to_string()),
        ),
        None => (path_and_query.to_string(), None),
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.host.is_empty() {
            write!(f, "{}", self.path_and_query())
        } else {
            write!(
                f,
                "{}://{}{}",
                self.scheme,
                self.authority(),
                self.path_and_query()
            )
        }
    }
}

impl std::str::FromStr for Uri {
    type Err = HttpError;
    fn from_str(s: &str) -> Result<Self> {
        Uri::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_absolute_uri() {
        let u = Uri::parse("http://med.nyu.edu:8080/simm/module1?student=42").unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "med.nyu.edu");
        assert_eq!(u.port, 8080);
        assert_eq!(u.path, "/simm/module1");
        assert_eq!(u.query.as_deref(), Some("student=42"));
        assert_eq!(u.authority(), "med.nyu.edu:8080");
    }

    #[test]
    fn parses_origin_form() {
        let u = Uri::parse("/index.html?a=1").unwrap();
        assert_eq!(u.host, "");
        assert_eq!(u.path, "/index.html");
        assert_eq!(u.query.as_deref(), Some("a=1"));
    }

    #[test]
    fn default_ports() {
        assert_eq!(Uri::parse("http://a.com/").unwrap().port, 80);
        assert_eq!(Uri::parse("https://a.com/").unwrap().port, 443);
        assert_eq!(Uri::parse("http://a.com/").unwrap().authority(), "a.com");
    }

    #[test]
    fn missing_path_becomes_root() {
        let u = Uri::parse("http://example.org").unwrap();
        assert_eq!(u.path, "/");
    }

    #[test]
    fn rejects_bad_uris() {
        assert!(Uri::parse("").is_err());
        assert!(Uri::parse("ftp://a.com/").is_err());
        assert!(Uri::parse("http:///path").is_err());
        assert!(Uri::parse("http://a.com:notaport/").is_err());
    }

    #[test]
    fn rejects_control_characters_and_spaces_inside() {
        for bad in [
            "http://a.com/x HTTP/1.1\r\nX-Injected: 1\r\n\r\nGET /evil",
            "http://a.com/x\ny",
            "http://a.com\r\nX: 1/x",
            "http://a .com/",
            "/x\ty",
            "/x\0y",
            "/x\x7fy",
        ] {
            assert!(Uri::parse(bad).is_err(), "{bad:?} was accepted");
        }
        // The ends are still trimmed.
        assert_eq!(Uri::parse(" /x\r\n").unwrap().path, "/x");
    }

    #[test]
    fn nakika_rewriting_round_trips() {
        let u = Uri::parse("http://med.nyu.edu/simm/").unwrap();
        let n = u.to_nakika();
        assert_eq!(n.host, "med.nyu.edu.nakika.net");
        assert!(n.is_nakika());
        assert_eq!(n.to_origin().host, "med.nyu.edu");
        // idempotent
        assert_eq!(n.to_nakika().host, n.host);
        assert!(!u.is_nakika());
    }

    #[test]
    fn prefix_matching_host_and_path() {
        let u = Uri::parse("http://bmj.bmjjournals.com/cgi/reprint/123").unwrap();
        assert!(u.matches_prefix("bmj.bmjjournals.com/cgi/reprint"));
        assert!(u.matches_prefix("bmj.bmjjournals.com"));
        assert!(u.matches_prefix("bmjjournals.com"));
        assert!(!u.matches_prefix("bmj.bmjjournals.com/other"));
        assert!(!u.matches_prefix("nejm.org"));
    }

    #[test]
    fn prefix_matching_ignores_nakika_suffix() {
        let u = Uri::parse("http://med.nyu.edu.nakika.net/simm/").unwrap();
        assert!(u.matches_prefix("med.nyu.edu"));
        assert!(u.matches_prefix("nyu.edu"));
    }

    #[test]
    fn query_pairs_and_extension() {
        let u = Uri::parse("http://a.com/page.nkp?x=1&y=&flag").unwrap();
        assert_eq!(u.extension(), Some("nkp"));
        let q = u.query_pairs();
        assert_eq!(q[0], ("x".to_string(), "1".to_string()));
        assert_eq!(q[1], ("y".to_string(), "".to_string()));
        assert_eq!(q[2], ("flag".to_string(), "".to_string()));
        assert_eq!(Uri::parse("http://a.com/dir/").unwrap().extension(), None);
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "http://a.com/",
            "http://a.com:8080/x?y=1",
            "https://b.org/path",
        ] {
            let u = Uri::parse(s).unwrap();
            assert_eq!(Uri::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn site_is_authority() {
        let u = Uri::parse("http://med.nyu.edu/simm/x").unwrap();
        assert_eq!(u.site(), "med.nyu.edu");
    }
}
