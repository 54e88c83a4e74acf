//! The web's expiration-based consistency model.
//!
//! Na Kika deliberately builds on HTTP's expiration-based caching for both
//! original and processed content, and its administrative control scripts are
//! themselves distributed by letting cached copies expire (paper §3.2).
//!
//! What [`freshness`] reads, in order:
//! - `Cache-Control`: `no-store` and `private` make a response uncacheable,
//!   `no-cache` means revalidate, and `s-maxage`, else `max-age`, is the
//!   lifetime;
//! - two non-standard integral-seconds headers, `Expires-Seconds` and
//!   `Date-Seconds`, honoured from any upstream, whose difference is the
//!   lifetime.  No code in this workspace produces them;
//! - `Expires`, but only for its presence: there is no HTTP-date parser, so
//!   an `Expires` without the `Expires-Seconds` pair means `Revalidate`.
//!
//! `Date` and `Age` are never read, so an entry is stored with its whole
//! lifetime however old it already is.  ROADMAP item 28a makes `Age` count;
//! item 28b parses HTTP dates and deletes the integral-seconds pair.

use crate::headers::Headers;
use crate::message::Response;
use crate::method::Method;
use std::time::Duration;

/// Parsed `Cache-Control` directives relevant to a shared cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheControl {
    /// `no-store` — must not be cached at all.
    pub no_store: bool,
    /// `no-cache` — must be revalidated before use.
    pub no_cache: bool,
    /// `private` — not cacheable by shared caches (like Na Kika proxies).
    pub private: bool,
    /// `public` — explicitly cacheable.
    pub public: bool,
    /// `max-age` in seconds.
    pub max_age: Option<u64>,
    /// `s-maxage` in seconds (overrides `max-age` for shared caches).
    pub s_maxage: Option<u64>,
    /// `must-revalidate`.
    pub must_revalidate: bool,
}

impl CacheControl {
    /// Parses all `Cache-Control` headers in `headers`.
    pub fn parse(headers: &Headers) -> CacheControl {
        let mut cc = CacheControl::default();
        for value in headers.get_all("cache-control") {
            for directive in value.split(',') {
                let directive = directive.trim().to_ascii_lowercase();
                let (name, arg) = match directive.find('=') {
                    Some(idx) => (
                        &directive[..idx],
                        Some(directive[idx + 1..].trim_matches('"').to_string()),
                    ),
                    None => (directive.as_str(), None),
                };
                match name {
                    "no-store" => cc.no_store = true,
                    "no-cache" => cc.no_cache = true,
                    "private" => cc.private = true,
                    "public" => cc.public = true,
                    "must-revalidate" => cc.must_revalidate = true,
                    "max-age" => cc.max_age = arg.as_deref().and_then(delta_seconds),
                    "s-maxage" => cc.s_maxage = arg.as_deref().and_then(delta_seconds),
                    _ => {}
                }
            }
        }
        cc
    }

    /// The effective freshness lifetime for a shared cache, if any directive
    /// specifies one.
    pub fn shared_max_age(&self) -> Option<Duration> {
        self.s_maxage.or(self.max_age).map(Duration::from_secs)
    }
}

/// The largest lifetime a cache needs to represent: RFC 9111 §1.2.2 lets it
/// read a larger delta-seconds value, or one that overflows, as 2^31
/// seconds (about 68 years).
const MAX_DELTA_SECONDS: u64 = 1 << 31;

/// Parses a delta-seconds argument (`1*DIGIT`), capped at
/// [`MAX_DELTA_SECONDS`]; `None` when it is not a number.
fn delta_seconds(arg: &str) -> Option<u64> {
    if arg.is_empty() || !arg.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(arg.parse().unwrap_or(u64::MAX).min(MAX_DELTA_SECONDS))
}

/// The freshness decision for a response held in (or considered for) a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// The response may be stored and served for the given lifetime.
    Fresh(Duration),
    /// The response may be stored but must be revalidated on each use.
    Revalidate,
    /// The response must not be stored by a shared cache.
    Uncacheable,
}

/// Computes whether a response to `method` may be stored by a Na Kika proxy
/// and, if so, for how long.
///
/// `heuristic` is the lifetime applied when the origin supplies no explicit
/// expiration information but the status is heuristically cacheable; the
/// paper's deployment uses ordinary HTTP defaults, and its experiments rely
/// on explicit expirations for scripts and content.
pub fn freshness(method: &Method, resp: &Response, heuristic: Duration) -> Freshness {
    if !method.is_cacheable() {
        return Freshness::Uncacheable;
    }
    let cc = CacheControl::parse(&resp.headers);
    if cc.no_store || cc.private {
        return Freshness::Uncacheable;
    }
    if cc.no_cache {
        return Freshness::Revalidate;
    }
    if let Some(age) = cc.shared_max_age() {
        return if age.is_zero() {
            Freshness::Revalidate
        } else {
            Freshness::Fresh(age)
        };
    }
    // Expires relative to Date, as the non-standard integral-seconds headers
    // `Expires-Seconds` / `Date-Seconds`.  They are honoured from any upstream
    // although nothing here emits them (ROADMAP item 28b deletes them); an
    // HTTP-date `Expires` is handled below.
    if let (Some(expires), Some(date)) = (
        seconds_header(&resp.headers, "expires-seconds"),
        seconds_header(&resp.headers, "date-seconds"),
    ) {
        return if expires > date {
            Freshness::Fresh(Duration::from_secs((expires - date).min(MAX_DELTA_SECONDS)))
        } else {
            Freshness::Revalidate
        };
    }
    if resp.headers.contains("expires") {
        // An unparseable or past Expires value means "already expired".
        return Freshness::Revalidate;
    }
    if resp.status.is_cacheable_by_default() && !heuristic.is_zero() {
        Freshness::Fresh(heuristic)
    } else {
        Freshness::Uncacheable
    }
}

fn seconds_header(headers: &Headers, name: &str) -> Option<u64> {
    headers.get(name).and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Response;
    use crate::status::StatusCode;

    fn resp_with_cc(value: &str) -> Response {
        Response::ok("text/html", "x").with_header("Cache-Control", value)
    }

    #[test]
    fn parses_directives() {
        let r = resp_with_cc("public, max-age=300, s-maxage=\"600\", must-revalidate");
        let cc = CacheControl::parse(&r.headers);
        assert!(cc.public);
        assert!(cc.must_revalidate);
        assert_eq!(cc.max_age, Some(300));
        assert_eq!(cc.s_maxage, Some(600));
        assert_eq!(cc.shared_max_age(), Some(Duration::from_secs(600)));
    }

    #[test]
    fn delta_seconds_are_capped_at_two_to_the_31() {
        let cap = Some(Duration::from_secs(1 << 31));
        for v in [
            "max-age=18446744073709551615",
            "max-age=99999999999999999999999",
            "s-maxage=4294967296",
        ] {
            assert_eq!(
                CacheControl::parse(&resp_with_cc(v).headers).shared_max_age(),
                cap,
                "{v}"
            );
        }
        assert_eq!(
            CacheControl::parse(&resp_with_cc("max-age=-1").headers).max_age,
            None
        );
        let huge = Response::ok("text/html", "x")
            .with_header("Date-Seconds", "0")
            .with_header("Expires-Seconds", &u64::MAX.to_string());
        assert_eq!(
            freshness(&Method::Get, &huge, Duration::ZERO),
            Freshness::Fresh(Duration::from_secs(1 << 31))
        );
    }

    #[test]
    fn no_store_and_private_are_uncacheable() {
        for v in ["no-store", "private", "private, max-age=100"] {
            let r = resp_with_cc(v);
            assert_eq!(
                freshness(&Method::Get, &r, Duration::from_secs(60)),
                Freshness::Uncacheable,
                "directive {v}"
            );
        }
    }

    #[test]
    fn no_cache_requires_revalidation() {
        let r = resp_with_cc("no-cache");
        assert_eq!(
            freshness(&Method::Get, &r, Duration::from_secs(60)),
            Freshness::Revalidate
        );
    }

    #[test]
    fn max_age_wins_over_heuristic() {
        let r = resp_with_cc("max-age=120");
        assert_eq!(
            freshness(&Method::Get, &r, Duration::from_secs(60)),
            Freshness::Fresh(Duration::from_secs(120))
        );
        let r = resp_with_cc("max-age=0");
        assert_eq!(
            freshness(&Method::Get, &r, Duration::from_secs(60)),
            Freshness::Revalidate
        );
    }

    #[test]
    fn non_get_is_uncacheable() {
        let r = resp_with_cc("max-age=120");
        assert_eq!(
            freshness(&Method::Post, &r, Duration::from_secs(60)),
            Freshness::Uncacheable
        );
    }

    #[test]
    fn heuristic_applies_only_to_default_cacheable_statuses() {
        let ok = Response::ok("text/html", "x");
        assert_eq!(
            freshness(&Method::Get, &ok, Duration::from_secs(60)),
            Freshness::Fresh(Duration::from_secs(60))
        );
        let busy = Response::error(StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(
            freshness(&Method::Get, &busy, Duration::from_secs(60)),
            Freshness::Uncacheable
        );
        assert_eq!(
            freshness(&Method::Get, &ok, Duration::ZERO),
            Freshness::Uncacheable
        );
    }

    #[test]
    fn absolute_expiry_round_trips() {
        let mut r = Response::ok("text/html", "x")
            .with_header("Date-Seconds", "1000")
            .with_header("Expires-Seconds", "1300");
        assert_eq!(
            freshness(&Method::Get, &r, Duration::ZERO),
            Freshness::Fresh(Duration::from_secs(300))
        );
        // Expired absolute time → revalidate.
        r.headers.set("Expires-Seconds", "1000");
        assert_eq!(
            freshness(&Method::Get, &r, Duration::ZERO),
            Freshness::Revalidate
        );
    }

    #[test]
    fn legacy_expires_header_means_revalidate() {
        let r =
            Response::ok("text/html", "x").with_header("Expires", "Thu, 01 Dec 1994 16:00:00 GMT");
        assert_eq!(
            freshness(&Method::Get, &r, Duration::from_secs(60)),
            Freshness::Revalidate
        );
    }
}
