//! Incremental HTTP/1.x parser for requests and responses.
//!
//! The parser works on a byte slice and reports either a complete message and
//! how many bytes it consumed, or that more data is needed.  This matches the
//! way Apache hands data to its filter chain: piecemeal, as it arrives on the
//! socket.

use crate::error::{HttpError, Result};
use crate::headers::Headers;
use crate::message::{Body, Request, Response};
use crate::method::Method;
use crate::status::StatusCode;
use crate::uri::Uri;
use bytes::Bytes;
use std::net::{IpAddr, Ipv4Addr};

/// Maximum accepted header block size (64 KiB), a defence against
/// client-initiated resource exhaustion at the admission-control stage.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Default maximum body size accepted by the parser (64 MiB).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Maximum number of header fields accepted per message.  Header floods
/// (endless short `X-Flood-N: x` lines) stay under [`MAX_HEADER_BYTES`]
/// for a long time; the count cap rejects them after one parse attempt.
pub const MAX_HEADER_COUNT: usize = 128;

/// Outcome of a parse attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome<T> {
    /// A complete message was parsed; `consumed` bytes were used.
    Complete {
        /// The parsed message.
        message: T,
        /// Number of input bytes consumed.
        consumed: usize,
    },
    /// More input is required before a message can be produced.
    Partial,
}

/// Parses an HTTP request from `input`.
pub fn parse_request(input: &[u8]) -> Result<ParseOutcome<Request>> {
    let head = match find_head(input)? {
        Some(h) => h,
        None => return Ok(ParseOutcome::Partial),
    };
    let text = std::str::from_utf8(&input[..head])
        .map_err(|_| HttpError::MalformedHeader("non-utf8 header block".to_string()))?;
    let (start, fields) = text.split_once("\r\n").unwrap_or((text, ""));
    let mut parts = start.split_whitespace();
    let method = Method::parse(parts.next().unwrap_or(""))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::MalformedStartLine(start.to_string()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::MalformedStartLine(start.to_string()))?;
    let version_11 = parse_version(version)?;
    let headers = parse_headers(fields)?;
    let uri = resolve_request_uri(target, &headers)?;

    let body_start = head + 4;
    let (body, consumed) = parse_body(&input[body_start..], &headers, &method)?;
    let (body, body_len) = match body {
        Some(b) => b,
        None => return Ok(ParseOutcome::Partial),
    };
    let _ = consumed;
    Ok(ParseOutcome::Complete {
        message: Request {
            method,
            uri,
            version_11,
            headers,
            body,
            client_ip: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
        },
        consumed: body_start + body_len,
    })
}

/// How a response body is delimited on the wire, as determined by its
/// headers.  The streaming transport reads the head with
/// [`parse_response_head`] and then pulls body bytes according to this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyFraming {
    /// `Content-Length: n` — exactly `n` body bytes follow.
    Length(u64),
    /// `Transfer-Encoding: chunked` — body framed by a [`ChunkedDecoder`].
    Chunked,
    /// Neither header: no body for the buffered [`parse_response`]; an
    /// incremental reader that can observe the connection closing may treat
    /// it as close-delimited instead (`ResponseRelay` in `nakika-server`).
    None,
}

/// A parsed response head: the message with an *empty* body, how many input
/// bytes the head consumed, and how the body that follows is framed.
#[derive(Debug)]
pub struct ResponseHead {
    /// Status line and headers, body left empty.
    pub response: Response,
    /// How the body that follows is delimited.
    pub framing: BodyFraming,
}

/// Parses just the head of an HTTP response — the entry point of the
/// streaming read path, which then pulls the body incrementally instead of
/// waiting for it to be complete in one buffer.
pub fn parse_response_head(input: &[u8]) -> Result<ParseOutcome<ResponseHead>> {
    let head = match find_head(input)? {
        Some(h) => h,
        None => return Ok(ParseOutcome::Partial),
    };
    let text = std::str::from_utf8(&input[..head])
        .map_err(|_| HttpError::MalformedHeader("non-utf8 header block".to_string()))?;
    let (start, fields) = text.split_once("\r\n").unwrap_or((text, ""));
    let mut parts = start.splitn(3, ' ');
    let version = parts
        .next()
        .ok_or_else(|| HttpError::MalformedStartLine(start.to_string()))?;
    let version_11 = parse_version(version)?;
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| HttpError::MalformedStartLine(start.to_string()))?;
    let status = StatusCode::new(code)?;
    let headers = parse_headers(fields)?;
    let framing = if headers.is_chunked() {
        BodyFraming::Chunked
    } else {
        match headers.content_length() {
            Some(n) => BodyFraming::Length(n as u64),
            None => {
                if headers.contains("content-length") {
                    return Err(HttpError::InvalidContentLength(
                        headers.get("content-length").unwrap_or("").to_string(),
                    ));
                }
                BodyFraming::None
            }
        }
    };
    Ok(ParseOutcome::Complete {
        message: ResponseHead {
            response: Response {
                status,
                version_11,
                headers,
                body: Body::empty(),
            },
            framing,
        },
        consumed: head + 4,
    })
}

/// Parses an HTTP response from `input` — the head via
/// [`parse_response_head`], then the complete body (so the two entry
/// points cannot diverge on head parsing).
pub fn parse_response(input: &[u8]) -> Result<ParseOutcome<Response>> {
    let (head, body_start) = match parse_response_head(input)? {
        ParseOutcome::Complete { message, consumed } => (message, consumed),
        ParseOutcome::Partial => return Ok(ParseOutcome::Partial),
    };
    let mut response = head.response;
    let (body, _) = parse_body(&input[body_start..], &response.headers, &Method::Get)?;
    let (body, body_len) = match body {
        Some(b) => b,
        None => return Ok(ParseOutcome::Partial),
    };
    response.body = body;
    Ok(ParseOutcome::Complete {
        message: response,
        consumed: body_start + body_len,
    })
}

/// Locates the end of the header block (`\r\n\r\n`), enforcing
/// [`MAX_HEADER_BYTES`].
fn find_head(input: &[u8]) -> Result<Option<usize>> {
    let limit = input.len().min(MAX_HEADER_BYTES + 4);
    if let Some(pos) = window_find(&input[..limit], b"\r\n\r\n") {
        Ok(Some(pos))
    } else if input.len() > MAX_HEADER_BYTES {
        Err(HttpError::HeadersTooLarge {
            limit: MAX_HEADER_BYTES,
        })
    } else {
        Ok(None)
    }
}

fn window_find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn parse_version(v: &str) -> Result<bool> {
    match v {
        "HTTP/1.1" => Ok(true),
        "HTTP/1.0" => Ok(false),
        other => Err(HttpError::UnsupportedVersion(other.to_string())),
    }
}

/// Parses the field lines of a head (`block` ends before the blank line).
/// A field the map refuses (see [`Headers`]) makes the head malformed.
fn parse_headers(block: &str) -> Result<Headers> {
    // Each field is one line, and its name and value fit in the block, so
    // the map is sized once.
    let lines = 1 + block.bytes().filter(|&b| b == b'\n').count();
    let mut headers = Headers::with_capacity(lines.min(MAX_HEADER_COUNT), block.len());
    let mut count = 0usize;
    for line in block.split("\r\n") {
        if line.is_empty() {
            continue;
        }
        count += 1;
        if count > MAX_HEADER_COUNT {
            return Err(HttpError::HeadersTooLarge {
                limit: MAX_HEADER_COUNT,
            });
        }
        let stored = line
            .split_once(':')
            .is_some_and(|(name, value)| headers.append(name.trim(), value.trim()));
        if !stored {
            return Err(HttpError::MalformedHeader(line.to_string()));
        }
    }
    Ok(headers)
}

fn resolve_request_uri(target: &str, headers: &Headers) -> Result<Uri> {
    if target.starts_with('/') {
        let host = headers.get("host").unwrap_or("");
        if host.is_empty() {
            Uri::parse(target)
        } else {
            Uri::parse(&format!("http://{host}{target}"))
        }
    } else {
        Uri::parse(target)
    }
}

/// Parses the message body.  Returns `Ok((None, 0))` when more data is needed,
/// otherwise the body and the number of body bytes consumed.
#[allow(clippy::type_complexity)]
fn parse_body(
    input: &[u8],
    headers: &Headers,
    method: &Method,
) -> Result<(Option<(Body, usize)>, usize)> {
    if headers.is_chunked() {
        return match parse_chunked(input)? {
            Some((body, used)) => Ok((Some((body, used)), used)),
            None => Ok((None, 0)),
        };
    }
    let len = match headers.content_length() {
        Some(n) => n,
        None => {
            if headers.contains("content-length") {
                return Err(HttpError::InvalidContentLength(
                    headers.get("content-length").unwrap_or("").to_string(),
                ));
            }
            // No body expected for requests / responses without
            // Content-Length; bodies terminated by connection close are
            // handled at the transport layer, not here.
            let _ = method;
            0
        }
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge {
            limit: MAX_BODY_BYTES,
        });
    }
    if input.len() < len {
        return Ok((None, 0));
    }
    let body = Body::from_bytes(Bytes::copy_from_slice(&input[..len]));
    Ok((Some((body, len)), len))
}

/// Parses a chunked body; returns `None` when incomplete.  One-shot wrapper
/// over the incremental [`ChunkedDecoder`] so both paths share one state
/// machine.
fn parse_chunked(input: &[u8]) -> Result<Option<(Body, usize)>> {
    // This path materializes the whole body, so the buffering cap applies.
    let mut decoder = ChunkedDecoder::with_limit(MAX_BODY_BYTES);
    let mut chunks = Vec::new();
    let consumed = decoder.feed(input, &mut chunks)?;
    if decoder.is_done() {
        Ok(Some((Body::from_chunks(chunks), consumed)))
    } else {
        Ok(None)
    }
}

/// Incremental decoder for `Transfer-Encoding: chunked` bodies.
///
/// Feed it wire bytes as they arrive; it emits decoded data chunks and
/// reports when the terminating `0`-size chunk (plus trailers) has been
/// seen.  Unlike the one-shot [`parse_response`] path it never needs the
/// whole body in one buffer, which is what lets the transport relay a
/// chunked upstream response one bounded chunk at a time.
///
/// ```
/// use nakika_http::parse::ChunkedDecoder;
///
/// let mut decoder = ChunkedDecoder::new();
/// let mut out = Vec::new();
/// // Bytes may arrive split at any boundary:
/// decoder.feed(b"4\r\nWi", &mut out).unwrap();
/// decoder.feed(b"ki\r\n0\r\n\r\n", &mut out).unwrap();
/// assert!(decoder.is_done());
/// let data: Vec<u8> = out.iter().flat_map(|c| c.to_vec()).collect();
/// assert_eq!(data, b"Wiki");
/// ```
#[derive(Debug)]
pub struct ChunkedDecoder {
    state: ChunkedState,
    /// Carry-over for a size line or trailer split across feeds.
    pending: Vec<u8>,
    /// Total decoded bytes so far.
    total: usize,
    /// Cap on `total`, set by consumers that *materialize* the body
    /// ([`ChunkedDecoder::with_limit`]).  The default pass-through decoder
    /// is unlimited: a relay's memory is bounded by its chunk window, not
    /// by body size, and capping it would break exactly the large-instance
    /// streaming it exists for.
    max_total: Option<usize>,
}

#[derive(Debug, PartialEq, Eq)]
enum ChunkedState {
    /// Waiting for a complete `size[;ext]\r\n` line in `pending`.
    SizeLine,
    /// `n` data bytes (plus the trailing CRLF) still to come.
    Data { remaining: usize },
    /// The CRLF after a data chunk (0, 1 or 2 bytes still missing).
    DataCrlf { missing: usize },
    /// After the 0-size chunk: consuming trailers until a bare CRLF.
    Trailer,
    /// Terminator seen; any further input belongs to the next message.
    Done,
}

impl Default for ChunkedDecoder {
    fn default() -> ChunkedDecoder {
        ChunkedDecoder::new()
    }
}

impl ChunkedDecoder {
    /// A decoder positioned at the start of a chunked body, with no cap on
    /// the decoded size (pass-through relays are bounded by their chunk
    /// window, not the body).
    pub fn new() -> ChunkedDecoder {
        ChunkedDecoder {
            state: ChunkedState::SizeLine,
            pending: Vec::new(),
            total: 0,
            max_total: None,
        }
    }

    /// A decoder that refuses bodies larger than `max_total` decoded bytes
    /// — for consumers that materialize the body in memory (the one-shot
    /// parser, buffered clients).
    pub fn with_limit(max_total: usize) -> ChunkedDecoder {
        ChunkedDecoder {
            max_total: Some(max_total),
            ..ChunkedDecoder::new()
        }
    }

    /// True once the terminating chunk and trailer section were consumed.
    pub fn is_done(&self) -> bool {
        self.state == ChunkedState::Done
    }

    /// Consumes as much of `input` as the body extends over, appending
    /// decoded data chunks to `out`.  Returns how many input bytes were
    /// consumed; once [`is_done`](ChunkedDecoder::is_done) turns true the
    /// unconsumed remainder belongs to the next message on the connection.
    pub fn feed(&mut self, input: &[u8], out: &mut Vec<Bytes>) -> Result<usize> {
        let mut pos = 0usize;
        while pos < input.len() {
            match &mut self.state {
                ChunkedState::SizeLine => {
                    // Accumulate into `pending` until the line's CRLF shows.
                    let Some(nl) = input[pos..].iter().position(|&b| b == b'\n') else {
                        self.pending.extend_from_slice(&input[pos..]);
                        if self.pending.len() > 1024 {
                            return Err(HttpError::MalformedChunk(
                                "unterminated chunk size line".to_string(),
                            ));
                        }
                        return Ok(input.len());
                    };
                    self.pending.extend_from_slice(&input[pos..pos + nl]);
                    pos += nl + 1;
                    let line = std::mem::take(&mut self.pending);
                    let line = std::str::from_utf8(&line)
                        .map_err(|_| HttpError::MalformedChunk("non-utf8 size".to_string()))?;
                    let size_str = line
                        .trim_end_matches('\r')
                        .split(';')
                        .next()
                        .unwrap_or("")
                        .trim();
                    let size = usize::from_str_radix(size_str, 16)
                        .map_err(|_| HttpError::MalformedChunk(size_str.to_string()))?;
                    // checked_add: a hostile peer can send a size line like
                    // `ffffffffffffffff` that parses but would overflow the
                    // running total (debug panic / release guard bypass).
                    self.total = self
                        .total
                        .checked_add(size)
                        .ok_or(HttpError::BodyTooLarge {
                            limit: self.max_total.unwrap_or(usize::MAX),
                        })?;
                    if let Some(limit) = self.max_total {
                        if self.total > limit {
                            return Err(HttpError::BodyTooLarge { limit });
                        }
                    }
                    self.state = if size == 0 {
                        ChunkedState::Trailer
                    } else {
                        ChunkedState::Data { remaining: size }
                    };
                }
                ChunkedState::Data { remaining } => {
                    let take = (*remaining).min(input.len() - pos);
                    out.push(Bytes::copy_from_slice(&input[pos..pos + take]));
                    pos += take;
                    *remaining -= take;
                    if *remaining == 0 {
                        self.state = ChunkedState::DataCrlf { missing: 2 };
                    }
                }
                ChunkedState::DataCrlf { missing } => {
                    let expect = if *missing == 2 { b'\r' } else { b'\n' };
                    if input[pos] != expect {
                        return Err(HttpError::MalformedChunk("missing chunk CRLF".to_string()));
                    }
                    pos += 1;
                    *missing -= 1;
                    if *missing == 0 {
                        self.state = ChunkedState::SizeLine;
                    }
                }
                ChunkedState::Trailer => {
                    // Trailer lines end at a bare CRLF; we accept the common
                    // immediate terminator and skip any trailer fields.
                    let Some(nl) = input[pos..].iter().position(|&b| b == b'\n') else {
                        self.pending.extend_from_slice(&input[pos..]);
                        if self.pending.len() > MAX_HEADER_BYTES {
                            return Err(HttpError::HeadersTooLarge {
                                limit: MAX_HEADER_BYTES,
                            });
                        }
                        return Ok(input.len());
                    };
                    self.pending.extend_from_slice(&input[pos..pos + nl]);
                    pos += nl + 1;
                    let line = std::mem::take(&mut self.pending);
                    if line.is_empty() || line == b"\r" {
                        self.state = ChunkedState::Done;
                        return Ok(pos);
                    }
                }
                ChunkedState::Done => return Ok(pos),
            }
        }
        Ok(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete<T>(o: ParseOutcome<T>) -> (T, usize) {
        match o {
            ParseOutcome::Complete { message, consumed } => (message, consumed),
            ParseOutcome::Partial => panic!("expected complete message"),
        }
    }

    #[test]
    fn parses_simple_get() {
        let raw = b"GET /index.html HTTP/1.1\r\nHost: www.google.com\r\nUser-Agent: nakika\r\n\r\n";
        let (req, consumed) = complete(parse_request(raw).unwrap());
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.uri.host, "www.google.com");
        assert_eq!(req.uri.path, "/index.html");
        assert!(req.version_11);
        assert_eq!(req.headers.get("user-agent"), Some("nakika"));
    }

    #[test]
    fn refuses_heads_whose_fields_could_split_a_message() {
        for field in [
            "X-A: a\nSet-Cookie: b",
            "X-A: a\rb",
            "X-A: a\0b",
            "X A: b",
            ": b",
        ] {
            let raw = format!("GET / HTTP/1.1\r\nHost: a\r\n{field}\r\n\r\n");
            assert!(
                matches!(
                    parse_request(raw.as_bytes()),
                    Err(HttpError::MalformedHeader(_))
                ),
                "{field:?}"
            );
            let raw = format!("HTTP/1.1 200 OK\r\n{field}\r\nContent-Length: 0\r\n\r\n");
            assert!(
                matches!(
                    parse_response_head(raw.as_bytes()),
                    Err(HttpError::MalformedHeader(_))
                ),
                "{field:?}"
            );
        }
    }

    #[test]
    fn refuses_a_host_field_with_a_space() {
        let raw = b"GET /x HTTP/1.1\r\nHost: a.com evil\r\n\r\n";
        assert!(matches!(parse_request(raw), Err(HttpError::InvalidUri(_))));
    }

    #[test]
    fn parses_absolute_form_request() {
        let raw = b"GET http://med.nyu.edu/simm/1 HTTP/1.0\r\n\r\n";
        let (req, _) = complete(parse_request(raw).unwrap());
        assert_eq!(req.uri.host, "med.nyu.edu");
        assert!(!req.version_11);
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /submit HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhello";
        let (req, consumed) = complete(parse_request(raw).unwrap());
        assert_eq!(req.body.to_text(), "hello");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn partial_until_body_arrives() {
        let raw = b"POST /s HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nhel";
        assert_eq!(parse_request(raw).unwrap(), ParseOutcome::Partial);
        let raw = b"GET / HTTP/1.1\r\nHost: a\r\n";
        assert_eq!(parse_request(raw).unwrap(), ParseOutcome::Partial);
    }

    #[test]
    fn consumed_excludes_pipelined_data() {
        let raw = b"GET / HTTP/1.1\r\nHost: a\r\n\r\nGET /next HTTP/1.1\r\n";
        let (_, consumed) = complete(parse_request(raw).unwrap());
        assert_eq!(&raw[consumed..], b"GET /next HTTP/1.1\r\n");
    }

    #[test]
    fn parses_response_with_body() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 4\r\n\r\nbody";
        let (resp, consumed) = complete(parse_response(raw).unwrap());
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body.to_text(), "body");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn parses_chunked_response() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
        let (resp, consumed) = complete(parse_response(raw).unwrap());
        assert_eq!(resp.body.to_text(), "Wikipedia");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn chunked_partial_and_malformed() {
        let partial = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWik";
        assert_eq!(parse_response(partial).unwrap(), ParseOutcome::Partial);
        let bad = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n\r\n";
        assert!(parse_response(bad).is_err());
    }

    #[test]
    fn rejects_malformed_messages() {
        assert!(parse_request(b"NOT A REQUEST\r\n\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/2.0\r\n\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 999 Weird\r\n\r\n").is_err());
        assert!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n").is_err(),
            "non-numeric content length"
        );
    }

    #[test]
    fn header_block_size_limit() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 10));
        assert!(matches!(
            parse_request(&raw),
            Err(HttpError::HeadersTooLarge { .. })
        ));
    }

    #[test]
    fn header_count_limit() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADER_COUNT + 1 {
            raw.extend(format!("X-Flood-{i}: x\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        assert!(matches!(
            parse_request(&raw),
            Err(HttpError::HeadersTooLarge { .. })
        ));
        // One under the cap still parses.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADER_COUNT - 1 {
            raw.extend(format!("X-Ok-{i}: x\r\n").into_bytes());
        }
        raw.extend(b"\r\n");
        assert!(parse_request(&raw).is_ok());
    }

    #[test]
    fn response_head_reports_framing() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789";
        let (head, consumed) = complete(parse_response_head(raw).unwrap());
        assert_eq!(head.framing, BodyFraming::Length(10));
        assert_eq!(&raw[consumed..], b"0123456789");
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        let (head, _) = complete(parse_response_head(raw).unwrap());
        assert_eq!(head.framing, BodyFraming::Chunked);
        let raw = b"HTTP/1.1 204 No Content\r\n\r\n";
        let (head, _) = complete(parse_response_head(raw).unwrap());
        assert_eq!(head.framing, BodyFraming::None);
        assert!(matches!(
            parse_response_head(b"HTTP/1.1 200 OK\r\nContent-Len"),
            Ok(ParseOutcome::Partial)
        ));
    }

    #[test]
    fn chunked_decoder_matches_one_shot_at_every_split() {
        let wire = b"4\r\nWiki\r\n5\r\npedia\r\n10\r\n 0123456789abcde\r\n0\r\nX-T: v\r\n\r\nNEXT";
        let body_len = wire.len() - 4;
        for split in 0..=body_len {
            let mut decoder = ChunkedDecoder::new();
            let mut out = Vec::new();
            let a = decoder.feed(&wire[..split], &mut out).unwrap();
            assert_eq!(a, split, "everything before Done is consumed");
            let b = decoder.feed(&wire[split..], &mut out).unwrap();
            assert!(decoder.is_done(), "split at {split}");
            assert_eq!(&wire[split + b..], b"NEXT", "remainder is the next message");
            let data: Vec<u8> = out.iter().flat_map(|c| c.to_vec()).collect();
            assert_eq!(data, b"Wikipedia 0123456789abcde");
        }
    }

    #[test]
    fn chunked_decoder_guards_its_total_against_overflow_and_limit() {
        // A size line of ffffffffffffffff parses as usize::MAX; adding it to
        // a non-zero running total must not overflow (debug panic / release
        // guard bypass) — it is an oversize error.
        let mut decoder = ChunkedDecoder::with_limit(MAX_BODY_BYTES);
        let mut out = Vec::new();
        assert!(matches!(
            decoder.feed(b"1\r\nX\r\nffffffffffffffff\r\n", &mut out),
            Err(HttpError::BodyTooLarge { .. })
        ));
        // A limited decoder refuses totals past its cap...
        let mut decoder = ChunkedDecoder::with_limit(16);
        let mut out = Vec::new();
        assert!(matches!(
            decoder.feed(b"20\r\n", &mut out),
            Err(HttpError::BodyTooLarge { .. })
        ));
        // ...while the default pass-through decoder has no body-size cap
        // (a relay's memory is bounded by its chunk window, not the body).
        let mut decoder = ChunkedDecoder::new();
        let mut out = Vec::new();
        let huge = format!("{:x}\r\n", 10usize * MAX_BODY_BYTES);
        decoder.feed(huge.as_bytes(), &mut out).unwrap();
        decoder.feed(&[b'z'; 64], &mut out).unwrap();
        assert_eq!(out.iter().map(|c| c.len()).sum::<usize>(), 64);
    }

    #[test]
    fn chunked_decoder_rejects_malformed_input() {
        let mut decoder = ChunkedDecoder::new();
        let mut out = Vec::new();
        assert!(decoder.feed(b"zz\r\n", &mut out).is_err());
        let mut decoder = ChunkedDecoder::new();
        assert!(decoder.feed(b"2\r\nab__", &mut out).is_err());
    }

    #[test]
    fn response_without_length_has_empty_body() {
        let raw = b"HTTP/1.1 204 No Content\r\n\r\n";
        let (resp, _) = complete(parse_response(raw).unwrap());
        assert!(resp.body.is_empty());
    }
}
