//! Serialization of HTTP messages back to their wire format.
//!
//! Two paths exist.  The one-shot functions ([`serialize_request`],
//! [`serialize_response`]) materialize a whole message — the right tool for
//! requests (small) and for tests.  The incremental [`ResponseWriter`]
//! emits a response as a head followed by bounded body chunks — with
//! `Content-Length` framing when the body size is known and `chunked`
//! transfer encoding when it is not — so a transport never holds more than
//! one chunk of a large streamed body in its output buffer.

use crate::message::{Body, Readiness, Request, Response};
use bytes::Bytes;
use std::io::{self, Write};

/// Serializes a request in origin-form (path on the request line, `Host`
/// header carrying the authority), which is what a proxy forwards upstream.
pub fn serialize_request(req: &Request) -> Vec<u8> {
    serialize_request_with_form(req, false)
}

/// Serializes a request in absolute-form (full URI on the request line),
/// which is what a client sends to an explicitly configured proxy.
pub fn serialize_request_absolute(req: &Request) -> Vec<u8> {
    serialize_request_with_form(req, true)
}

fn serialize_request_with_form(req: &Request, absolute: bool) -> Vec<u8> {
    let version = if req.version_11 {
        "HTTP/1.1"
    } else {
        "HTTP/1.0"
    };
    // Request bodies stay buffered in this stack (they are uploads the
    // scripting pipeline inspects whole), so draining here is cheap.
    let body = req.body.to_bytes();
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    if absolute {
        write_display(&mut out, &req.uri);
    } else {
        out.extend_from_slice(req.uri.path.as_bytes());
        if let Some(query) = &req.uri.query {
            out.push(b'?');
            out.extend_from_slice(query.as_bytes());
        }
    }
    out.push(b' ');
    out.extend_from_slice(version.as_bytes());
    out.extend_from_slice(b"\r\n");
    if !req.headers.contains("host") && !req.uri.host.is_empty() {
        write_field(&mut out, "Host", &req.uri.authority());
    }
    let body_len = body.len();
    let mut wrote_length = false;
    for (name, value) in &req.headers {
        if name.eq_ignore_ascii_case("content-length") {
            // Always emit a Content-Length consistent with the actual body, a
            // script may have rewritten the body without fixing the header.
            write_content_length(&mut out, body_len as u64);
            wrote_length = true;
        } else {
            write_field(&mut out, name, value);
        }
    }
    if !wrote_length && body_len > 0 {
        write_content_length(&mut out, body_len as u64);
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&body);
    out
}

/// Appends `name: value` and its line end.
fn write_field(out: &mut Vec<u8>, name: &str, value: &str) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(value.as_bytes());
    out.extend_from_slice(b"\r\n");
}

fn write_content_length(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(b"Content-Length: ");
    write_display(out, &n);
    out.extend_from_slice(b"\r\n");
}

/// Formats `value` straight into `out`, with no intermediate `String`.
fn write_display(out: &mut Vec<u8>, value: &dyn std::fmt::Display) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{value}");
}

/// Serializes a response to its wire format in one buffer, draining a
/// streaming body first.  `Content-Length` framing is always used; large
/// responses should go through [`ResponseWriter`] instead, which never
/// materializes the body.
pub fn serialize_response(resp: &Response) -> Vec<u8> {
    let body = resp.body.to_bytes();
    let mut out = response_head(resp, Framing::Length(body.len() as u64));
    out.extend_from_slice(&body);
    out
}

/// Wire framing chosen for a response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// `Content-Length: n`.
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Builds the status line + headers for `resp` under `framing`, overriding
/// any stale `Content-Length`/`Transfer-Encoding` the message carried.
fn response_head(resp: &Response, framing: Framing) -> Vec<u8> {
    let version = if resp.version_11 {
        "HTTP/1.1"
    } else {
        "HTTP/1.0"
    };
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(version.as_bytes());
    out.push(b' ');
    write_display(&mut out, &resp.status.as_u16());
    out.push(b' ');
    out.extend_from_slice(resp.status.reason().as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in &resp.headers {
        if name.eq_ignore_ascii_case("transfer-encoding")
            || name.eq_ignore_ascii_case("content-length")
        {
            continue;
        }
        write_field(&mut out, name, value);
    }
    match framing {
        Framing::Length(n) => write_content_length(&mut out, n),
        Framing::Chunked => out.extend_from_slice(b"Transfer-Encoding: chunked\r\n"),
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// Incremental response serializer: yields the head, then the body one
/// bounded chunk at a time, framed by `Content-Length` when the size is
/// known and by `chunked` transfer encoding otherwise.
///
/// HTTP/1.0 peers do not understand chunked encoding, so an unknown-length
/// body destined for a 1.0 client is buffered once to learn its size — the
/// only case where this writer materializes a body.
///
/// ```
/// use nakika_http::serialize::ResponseWriter;
/// use nakika_http::{Body, Response};
/// use bytes::Bytes;
///
/// let mut resp = Response::new(nakika_http::StatusCode::OK);
/// resp.body = Body::stream_from_iter(vec![Bytes::from_static(b"hi")], None);
/// let mut writer = ResponseWriter::new(resp);
/// let mut wire = Vec::new();
/// while let Some(part) = writer.next_part().unwrap() {
///     wire.extend_from_slice(&part);
/// }
/// let text = String::from_utf8_lossy(&wire);
/// assert!(text.contains("Transfer-Encoding: chunked"));
/// assert!(text.ends_with("2\r\nhi\r\n0\r\n\r\n"));
/// ```
pub struct ResponseWriter {
    body: Body,
    chunked: bool,
    /// Bytes the declared `Content-Length` still allows; `None` in chunked
    /// mode.  Guards HTTP framing against a source that delivers more or
    /// fewer bytes than the response declared.
    remaining: Option<u64>,
    head: Option<Vec<u8>>,
    /// Set when the body failed before the head was emitted (the 1.0
    /// buffering path): surfaced from the first `next_part` call so no
    /// misleading head ever reaches the wire.
    failed_early: Option<String>,
    done: bool,
}

impl ResponseWriter {
    /// Prepares `resp` for incremental writing.
    pub fn new(mut resp: Response) -> ResponseWriter {
        let mut failed_early = None;
        let framing = match resp.body.size_hint() {
            Some(n) => Framing::Length(n),
            None if resp.needs_whole_body() => {
                // 1.0 client: learn the length by buffering.  A failure here
                // happens before anything reached the wire, so it is stashed
                // and surfaced from the first next_part call instead of
                // emitting a valid-looking empty 200.
                if let Err(e) = resp.body.buffer() {
                    failed_early = Some(e.to_string());
                }
                Framing::Length(resp.body.len() as u64)
            }
            None => Framing::Chunked,
        };
        ResponseWriter {
            head: Some(response_head(&resp, framing)),
            chunked: framing == Framing::Chunked,
            remaining: match framing {
                Framing::Length(n) => Some(n),
                Framing::Chunked => None,
            },
            body: resp.body,
            failed_early,
            done: false,
        }
    }

    /// The next piece of wire output: the head on the first call, then one
    /// framed body chunk per call, then (for chunked framing) the
    /// terminator; `Ok(None)` when the response is fully emitted.
    ///
    /// An `Err` means the body stream failed mid-response.  The head may
    /// already be on the wire at that point, so the only safe recovery for
    /// a transport is to abort the connection — the framing (short
    /// `Content-Length` read or missing chunked terminator) tells the
    /// client the message was truncated.  The same applies to a source
    /// that ends short of the response's declared `Content-Length`.
    pub fn next_part(&mut self) -> io::Result<Option<Bytes>> {
        if let Some(reason) = self.failed_early.take() {
            return Err(io::Error::other(reason));
        }
        if let Some(head) = self.head.take() {
            return Ok(Some(Bytes::from(head)));
        }
        loop {
            if self.done {
                return Ok(None);
            }
            let read = self.body.read_chunk();
            if let Some(part) = self.accept_chunk(read)? {
                return Ok(Some(part));
            }
        }
    }

    /// What [`next_part`] would do if called now.  The head, an early
    /// failure and the end are always [`Readiness::Ready`]; past the head
    /// it is the body's [`Body::readiness`].  Readiness transports ask
    /// before calling [`next_part`] on an event-loop thread: on
    /// `Blocking` they run the pull elsewhere — on a clone from
    /// [`body_handle`] — and feed the result back through
    /// [`accept_chunk`]; on `Pending` they wait until whatever feeds the
    /// body drives them again.
    ///
    /// [`next_part`]: ResponseWriter::next_part
    /// [`body_handle`]: ResponseWriter::body_handle
    /// [`accept_chunk`]: ResponseWriter::accept_chunk
    pub fn readiness(&self) -> Readiness {
        if self.failed_early.is_some() || self.head.is_some() || self.done {
            return Readiness::Ready;
        }
        self.body.readiness()
    }

    /// A shared handle on the response body, for pulling the next chunk off
    /// the calling thread.  Stream clones share one underlying source, so a
    /// chunk pulled through the handle (`Body::read_chunk`) is the same
    /// chunk [`next_part`](ResponseWriter::next_part) would have pulled;
    /// hand it back via [`accept_chunk`](ResponseWriter::accept_chunk).
    pub fn body_handle(&self) -> Body {
        self.body.clone()
    }

    /// Feeds one raw body-read result (a `Body::read_chunk` outcome, pulled
    /// by the caller — possibly on another thread) into the writer,
    /// returning the wire part it produces, if any.
    ///
    /// `Ok(None)` while [`is_done`](ResponseWriter::is_done) is false means
    /// the read produced nothing emittable (an empty chunk, which must not
    /// be framed — in chunked encoding a zero-size chunk *is* the
    /// terminator) and the caller should pull again; once `is_done` is
    /// true the response is fully emitted.  Errors follow the
    /// [`next_part`](ResponseWriter::next_part) contract: the connection
    /// must be aborted.
    pub fn accept_chunk(&mut self, read: io::Result<Option<Bytes>>) -> io::Result<Option<Bytes>> {
        if self.done {
            return Ok(None);
        }
        match read? {
            Some(chunk) if chunk.is_empty() => Ok(None),
            Some(mut chunk) => {
                if let Some(remaining) = &mut self.remaining {
                    if *remaining == 0 {
                        // Over-delivery past the declared length would
                        // bleed into the next message on a keep-alive
                        // connection.  Drop the misbehaving source.
                        self.done = true;
                        return Ok(None);
                    }
                    if (chunk.len() as u64) > *remaining {
                        chunk = chunk.slice(..*remaining as usize);
                    }
                    *remaining -= chunk.len() as u64;
                }
                Ok(Some(self.frame(chunk)))
            }
            None => {
                self.done = true;
                if self.chunked {
                    Ok(Some(Bytes::from_static(b"0\r\n\r\n")))
                } else if let Some(short) = self.remaining.filter(|r| *r > 0) {
                    // Under-delivery: the head promised more bytes than
                    // the source produced.  Abort so the client sees a
                    // short read, never a silently padded-out frame.
                    Err(io::Error::other(format!(
                        "body ended {short} bytes short of its declared Content-Length"
                    )))
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// True once the response is fully emitted (every part of
    /// [`next_part`](ResponseWriter::next_part) /
    /// [`accept_chunk`](ResponseWriter::accept_chunk) has been handed out).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Wire-frames one body chunk.  `Content-Length` framing passes the
    /// chunk through untouched: zero-copy on the relay path, and on the
    /// cache-hit path, where the chunk is a view of the cached body
    /// ([`Body::read_chunk`]).  Chunked framing copies it behind its size
    /// line and ahead of its CRLF.
    fn frame(&self, chunk: Bytes) -> Bytes {
        if self.chunked {
            let mut out = Vec::with_capacity(chunk.len() + 16);
            let _ = write!(out, "{:x}\r\n", chunk.len());
            out.extend_from_slice(&chunk);
            out.extend_from_slice(b"\r\n");
            Bytes::from(out)
        } else {
            chunk
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Request;
    use crate::parse::{parse_request, parse_response, ParseOutcome};
    use crate::status::StatusCode;
    use crate::Response;

    #[test]
    fn request_round_trip() {
        let req = Request::get("http://med.nyu.edu/simm/1?s=9")
            .with_header("User-Agent", "nakika-test")
            .with_body("payload");
        let raw = serialize_request(&req);
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("GET /simm/1?s=9 HTTP/1.1\r\n"));
        assert!(text.contains("Host: med.nyu.edu\r\n"));
        match parse_request(&raw).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.body.to_text(), "payload");
                assert_eq!(message.uri.path, "/simm/1");
            }
            ParseOutcome::Partial => panic!("round trip incomplete"),
        }
    }

    #[test]
    fn absolute_form_for_proxies() {
        let req = Request::get("http://a.com/x");
        let raw = serialize_request_absolute(&req);
        assert!(String::from_utf8_lossy(&raw).starts_with("GET http://a.com/x HTTP/1.1"));
    }

    #[test]
    fn response_round_trip_and_length_fixup() {
        let mut resp = Response::ok("text/html", "abc");
        // Simulate a script that changed the body without fixing the header.
        resp.body = "abcdef".into();
        let raw = serialize_response(&resp);
        let text = String::from_utf8_lossy(&raw);
        assert!(text.contains("Content-Length: 6\r\n"));
        match parse_response(&raw).unwrap() {
            ParseOutcome::Complete { message, .. } => {
                assert_eq!(message.status, StatusCode::OK);
                assert_eq!(message.body.to_text(), "abcdef");
            }
            ParseOutcome::Partial => panic!("round trip incomplete"),
        }
    }

    #[test]
    fn stale_chunked_header_is_dropped_on_buffered_output() {
        let mut resp = Response::ok("text/plain", "data");
        resp.headers.set("Transfer-Encoding", "chunked");
        let raw = serialize_response(&resp);
        let text = String::from_utf8_lossy(&raw);
        assert!(!text.to_ascii_lowercase().contains("transfer-encoding"));
        assert!(text.contains("Content-Length: 4"));
    }

    #[test]
    fn empty_body_still_emits_length() {
        let resp = Response::new(StatusCode::new(204).unwrap());
        let raw = serialize_response(&resp);
        assert!(String::from_utf8_lossy(&raw).contains("Content-Length: 0"));
    }

    fn drain(mut writer: ResponseWriter) -> Vec<u8> {
        let mut wire = Vec::new();
        while let Some(part) = writer.next_part().unwrap() {
            wire.extend_from_slice(&part);
        }
        wire
    }

    #[test]
    fn writer_uses_content_length_for_sized_bodies() {
        use bytes::Bytes;
        let resp = Response::ok("text/plain", "sized body");
        let wire = drain(ResponseWriter::new(resp));
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("Content-Length: 10\r\n"));
        assert!(text.ends_with("sized body"));

        // A stream with a declared length keeps Content-Length framing.
        let mut resp = Response::new(StatusCode::OK);
        resp.body = Body::stream_from_iter(
            vec![Bytes::from_static(b"01234"), Bytes::from_static(b"56789")],
            Some(10),
        );
        let wire = drain(ResponseWriter::new(resp));
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("Content-Length: 10\r\n"));
        assert!(text.ends_with("0123456789"));
    }

    #[test]
    fn writer_chunk_encodes_unknown_lengths_and_round_trips() {
        use bytes::Bytes;
        let mut resp = Response::new(StatusCode::OK);
        resp.headers.set("Content-Type", "video/mpeg");
        // A stale Content-Length from upstream must not leak next to the
        // chunked framing.
        resp.headers.set("Content-Length", "999");
        resp.body = Body::stream_from_iter(
            vec![
                Bytes::from_static(b"part one, "),
                Bytes::from_static(b"part two"),
            ],
            None,
        );
        let wire = drain(ResponseWriter::new(resp));
        match parse_response(&wire).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert!(message.headers.is_chunked());
                assert!(!message.headers.contains("content-length"));
                assert_eq!(message.body.to_text(), "part one, part two");
            }
            ParseOutcome::Partial => panic!("chunked round trip incomplete"),
        }
    }

    #[test]
    fn writer_skips_empty_chunks_instead_of_emitting_a_premature_terminator() {
        use bytes::Bytes;
        let mut resp = Response::new(StatusCode::OK);
        resp.body = Body::stream_from_iter(
            vec![
                Bytes::new(),
                Bytes::from_static(b"data"),
                Bytes::new(),
                Bytes::from_static(b"!"),
            ],
            None,
        );
        let wire = drain(ResponseWriter::new(resp));
        match parse_response(&wire).unwrap() {
            ParseOutcome::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len(), "no bytes bleed past the body");
                assert_eq!(message.body.to_text(), "data!");
            }
            ParseOutcome::Partial => panic!("terminator missing"),
        }
    }

    #[test]
    fn writer_enforces_the_declared_length_against_the_source() {
        use bytes::Bytes;
        // Under-delivery: the declared length cannot be met — the writer
        // must error (the transport aborts) rather than end cleanly.
        let mut resp = Response::new(StatusCode::OK);
        resp.body = Body::stream_from_iter(vec![Bytes::from_static(b"abc")], Some(10));
        let mut writer = ResponseWriter::new(resp);
        let mut saw_error = false;
        loop {
            match writer.next_part() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    saw_error = true;
                    assert!(e.to_string().contains("7 bytes short"), "{e}");
                    break;
                }
            }
        }
        assert!(saw_error, "short delivery must not end cleanly");

        // Over-delivery: bytes past the declared length are cut off so they
        // cannot bleed into the next keep-alive response.
        let mut resp = Response::new(StatusCode::OK);
        resp.body = Body::stream_from_iter(
            vec![
                Bytes::from_static(b"0123456789"),
                Bytes::from_static(b"EXTRA"),
            ],
            Some(10),
        );
        let wire = drain(ResponseWriter::new(resp));
        let text = String::from_utf8_lossy(&wire);
        assert!(text.ends_with("0123456789"), "wire: {text}");
        assert!(!text.contains("EXTRA"));
    }

    #[test]
    fn writer_emits_views_of_a_full_body() {
        use crate::message::STREAM_CHUNK_BYTES;
        use bytes::Bytes;
        let data: Bytes = (0..1usize << 20).map(|i| (i % 251) as u8).collect();
        let mut resp = Response::new(StatusCode::OK);
        resp.body = Body::from_bytes(data.clone());
        let mut writer = ResponseWriter::new(resp);
        let head = writer.next_part().unwrap().expect("head");
        let mut wire = head.to_vec();
        let mut offset = 0;
        while let Some(part) = writer.next_part().unwrap() {
            assert_eq!(
                part.as_ptr(),
                data.as_ptr().wrapping_add(offset),
                "body part at {offset} is a copy, not a view"
            );
            offset += part.len();
            wire.extend_from_slice(&part);
        }
        assert_eq!(offset, data.len());
        assert_eq!(offset / STREAM_CHUNK_BYTES, 16);
        let mut expected = head.to_vec();
        expected.extend_from_slice(&data);
        assert_eq!(wire, expected);
    }

    #[test]
    fn writer_truncates_an_over_delivering_chunk_in_place() {
        use bytes::Bytes;
        let chunk = Bytes::from(b"0123456789EXTRA".to_vec());
        let mut resp = Response::new(StatusCode::OK);
        resp.body = Body::stream_from_iter(vec![chunk.clone()], Some(10));
        let mut writer = ResponseWriter::new(resp);
        writer.next_part().unwrap().expect("head");
        let part = writer.next_part().unwrap().expect("body");
        assert_eq!(&part[..], b"0123456789");
        assert_eq!(part.as_ptr(), chunk.as_ptr(), "the cut is a view");
        assert!(writer.next_part().unwrap().is_none());
    }

    #[test]
    fn writer_aborts_before_the_head_when_http10_buffering_fails() {
        struct Failing;
        impl crate::message::ChunkSource for Failing {
            fn next_chunk(&mut self) -> io::Result<Option<bytes::Bytes>> {
                Err(io::Error::other("upstream died"))
            }
        }
        let mut resp = Response::new(StatusCode::OK);
        resp.version_11 = false;
        resp.body = Body::stream(Failing, None);
        let mut writer = ResponseWriter::new(resp);
        // The failure must surface before any head bytes are produced — a
        // 1.0 client must never see a valid-looking empty 200.
        let err = writer.next_part().unwrap_err();
        assert!(err.to_string().contains("upstream died"), "{err}");
    }

    #[test]
    fn writer_buffers_unknown_lengths_for_http10_clients() {
        use bytes::Bytes;
        let mut resp = Response::new(StatusCode::OK);
        resp.version_11 = false;
        resp.body = Body::stream_from_iter(vec![Bytes::from_static(b"legacy")], None);
        let wire = drain(ResponseWriter::new(resp));
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(text.contains("Content-Length: 6\r\n"));
        assert!(text.ends_with("legacy"));
    }
}
