//! HTTP request and response messages with streaming ("bucket brigade")
//! bodies.
//!
//! Apache delivers message data to filters as *bucket brigades*: buffers that
//! arrive piecemeal.  Na Kika's scripts read the body in chunks
//! (`Response.read()` in the paper's Figure 2) so that cut-through routing is
//! possible.  [`Body`] models both endpoints of that spectrum: a fully
//! materialized [`Body::Full`] buffer for messages that live in memory
//! (requests, cached entries, script-generated responses), and a
//! [`Body::Stream`] whose chunks are pulled incrementally from a
//! [`ChunkSource`] — typically an upstream socket — so a large multimedia
//! response flows through the proxy one bounded chunk at a time instead of
//! being materialized twice.

use crate::headers::Headers;
use crate::method::Method;
use crate::status::StatusCode;
use crate::uri::Uri;
use bytes::Bytes;
use std::fmt;
use std::io;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};

/// Preferred size of one streamed body chunk (64 KiB).  Sources may return
/// smaller chunks; well-behaved ones never return substantially larger ones,
/// which is what keeps per-connection buffering bounded.
pub const STREAM_CHUNK_BYTES: usize = 64 * 1024;

/// Segment size used by the script-facing `Response.read()` iteration over a
/// buffered body (the Figure-2 idiom reads a body piece by piece).
pub const SCRIPT_READ_CHUNK_BYTES: usize = 8 * 1024;

/// Largest body [`Body::buffer`]/[`Body::to_bytes`] will materialize
/// (64 MiB — the same bound the one-shot parser enforces).  Streaming
/// consumption via [`Body::read_chunk`] is not subject to it: a relay's
/// memory is bounded by its chunk window, not by body size.
pub const MAX_BUFFERED_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Drains `source` to a clean end, enforcing [`MAX_BUFFERED_BODY_BYTES`].
/// The initial allocation is clamped — `declared` comes from a peer's
/// `Content-Length` header and must not size an allocation by itself.
fn drain_source(source: &mut Box<dyn ChunkSource>, declared: Option<u64>) -> io::Result<Bytes> {
    let reserve = declared.unwrap_or(0).min(1024 * 1024) as usize;
    let mut buf = Vec::with_capacity(reserve);
    loop {
        match source.next_chunk() {
            Ok(Some(chunk)) => {
                if buf.len() + chunk.len() > MAX_BUFFERED_BODY_BYTES {
                    return Err(io::Error::other(format!(
                        "body exceeds the {MAX_BUFFERED_BODY_BYTES}-byte buffering limit"
                    )));
                }
                buf.extend_from_slice(&chunk);
            }
            Ok(None) => return Ok(Bytes::from(buf)),
            Err(e) => return Err(e),
        }
    }
}

/// A pull source of body chunks: the streaming half of [`Body`].
///
/// `next_chunk` returns `Ok(Some(bytes))` while data keeps arriving,
/// `Ok(None)` exactly once at a *clean* end of body, and `Err` when the
/// source failed mid-body (for example the upstream peer closed before
/// `Content-Length` bytes arrived).  After `None` or an error the source is
/// never polled again.
pub trait ChunkSource: Send {
    /// Pulls the next chunk, blocking if the source needs to wait for data.
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>>;

    /// Whether [`next_chunk`](ChunkSource::next_chunk) may *block* waiting
    /// on external I/O (an upstream socket, a pipe).  Sources whose chunks
    /// are already in memory — iterators, buffered bodies — leave the
    /// default `false`; a source that reads a socket returns `true` so that
    /// readiness-driven transports know to pull its chunks off the event
    /// loop (see the reactor's origin offload in `nakika-server`).
    fn may_block(&self) -> bool {
        false
    }
}

impl<I> ChunkSource for I
where
    I: Iterator<Item = Bytes> + Send,
{
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        Ok(self.next())
    }
}

/// What a [`BodyStream`]'s shared state currently holds.
enum StreamState {
    /// Chunks still to be pulled from the source.
    Active(Box<dyn ChunkSource>),
    /// The stream was fully drained into memory (by [`Body::to_bytes`] /
    /// [`Body::buffer`]); clones observing the state late still see the data.
    Buffered(Bytes),
    /// The source reported an error; the message records it.
    Failed(String),
}

/// The streaming variant of [`Body`]: a shared handle on a [`ChunkSource`]
/// plus the length declared by the message framing, when one is known.
///
/// The handle is shared (`Arc`) so that `Response: Clone` keeps holding —
/// clones of a streaming body observe the *same* underlying stream, and
/// whichever clone consumes it first wins.  That mirrors the physical
/// reality: there is only one upstream socket behind it.
pub struct BodyStream {
    declared_len: Option<u64>,
    state: Arc<Mutex<StreamState>>,
}

impl BodyStream {
    /// The body length declared by the message framing (`Content-Length`),
    /// or `None` for chunked/unknown-length streams.
    pub fn declared_len(&self) -> Option<u64> {
        self.declared_len
    }
}

impl Clone for BodyStream {
    fn clone(&self) -> BodyStream {
        BodyStream {
            declared_len: self.declared_len,
            state: self.state.clone(),
        }
    }
}

/// An HTTP message body: fully materialized, or streamed from a source.
#[derive(Clone)]
pub enum Body {
    /// The whole body, in memory.
    Full(Bytes),
    /// A body whose chunks are pulled incrementally from a [`ChunkSource`].
    Stream(BodyStream),
}

impl Body {
    /// An empty body.
    pub fn empty() -> Body {
        Body::Full(Bytes::new())
    }

    /// A fully materialized body.
    pub fn from_bytes(data: impl Into<Bytes>) -> Body {
        Body::Full(data.into())
    }

    /// A body built by concatenating a list of chunks.
    pub fn from_chunks(chunks: Vec<Bytes>) -> Body {
        match chunks.len() {
            0 => Body::empty(),
            1 => Body::Full(chunks.into_iter().next().unwrap()),
            _ => {
                let mut buf = Vec::with_capacity(chunks.iter().map(Bytes::len).sum());
                for c in &chunks {
                    buf.extend_from_slice(c);
                }
                Body::Full(Bytes::from(buf))
            }
        }
    }

    /// A streaming body over `source`.  `declared_len` is the length the
    /// message framing promises (`Content-Length`), or `None` when the
    /// length is unknown (the serializer then uses chunked encoding).
    pub fn stream(source: impl ChunkSource + 'static, declared_len: Option<u64>) -> Body {
        Body::Stream(BodyStream {
            declared_len,
            state: Arc::new(Mutex::new(StreamState::Active(Box::new(source)))),
        })
    }

    /// A streaming body over an iterator of chunks (tests and examples).
    pub fn stream_from_iter<I>(chunks: I, declared_len: Option<u64>) -> Body
    where
        I: IntoIterator<Item = Bytes>,
        I::IntoIter: Send + 'static,
    {
        Body::stream(chunks.into_iter(), declared_len)
    }

    /// True when the body is still a stream (not yet buffered).
    pub fn is_stream(&self) -> bool {
        matches!(self, Body::Stream(_))
    }

    /// True when consuming the next chunk of this body may block on
    /// external I/O (the [`ChunkSource::may_block`] of a still-active
    /// stream).  Full and already-buffered bodies never block; neither do
    /// failed streams (they report their stored error immediately).
    pub fn may_block(&self) -> bool {
        match self {
            Body::Full(_) => false,
            Body::Stream(stream) => match &*stream.state.lock().unwrap() {
                StreamState::Active(source) => source.may_block(),
                StreamState::Buffered(_) | StreamState::Failed(_) => false,
            },
        }
    }

    /// Number of body bytes *known* to this message: the buffer length for a
    /// full body, the declared length for a stream (0 when undeclared).
    /// Accounting code (logs, resource charging) uses this; exact byte
    /// counts for undeclared streams require draining the body.
    pub fn len(&self) -> usize {
        match self {
            Body::Full(b) => b.len(),
            Body::Stream(s) => s.declared_len.unwrap_or(0) as usize,
        }
    }

    /// The exact size when it is known without consuming the body.
    pub fn size_hint(&self) -> Option<u64> {
        match self {
            Body::Full(b) => Some(b.len() as u64),
            Body::Stream(s) => s.declared_len,
        }
    }

    /// True if the body is known to hold no data.  A stream with an unknown
    /// length is *not* empty — it may still produce bytes.
    pub fn is_empty(&self) -> bool {
        match self {
            Body::Full(b) => b.is_empty(),
            Body::Stream(s) => s.declared_len == Some(0),
        }
    }

    /// Pulls the next chunk of the body, consuming it.
    ///
    /// Full bodies are handed out in bounded [`STREAM_CHUNK_BYTES`] slices so
    /// transports never queue more than one chunk of wire output at a time,
    /// whatever the body's representation.  Each chunk, and the remainder
    /// kept in `self`, is an O(1) view of the body's buffer
    /// ([`Bytes::slice`]): serving a cached body copies none of it.  A view
    /// keeps the whole buffer alive until it is dropped.  Returns `Ok(None)`
    /// at the end.
    pub fn read_chunk(&mut self) -> io::Result<Option<Bytes>> {
        match self {
            Body::Full(bytes) => {
                if bytes.is_empty() {
                    return Ok(None);
                }
                if bytes.len() <= STREAM_CHUNK_BYTES {
                    return Ok(Some(std::mem::take(bytes)));
                }
                let chunk = bytes.slice(..STREAM_CHUNK_BYTES);
                *bytes = bytes.slice(STREAM_CHUNK_BYTES..);
                Ok(Some(chunk))
            }
            Body::Stream(stream) => {
                let mut state = stream.state.lock().unwrap();
                match &mut *state {
                    StreamState::Active(source) => match source.next_chunk() {
                        Ok(Some(chunk)) => Ok(Some(chunk)),
                        Ok(None) => {
                            *state = StreamState::Buffered(Bytes::new());
                            Ok(None)
                        }
                        Err(e) => {
                            *state = StreamState::Failed(e.to_string());
                            Err(e)
                        }
                    },
                    StreamState::Buffered(bytes) => {
                        if bytes.is_empty() {
                            return Ok(None);
                        }
                        let taken = std::mem::take(bytes);
                        drop(state);
                        // Reuse the Full slicing discipline for the rest.
                        *self = Body::Full(taken);
                        self.read_chunk()
                    }
                    StreamState::Failed(reason) => Err(io::Error::other(reason.clone())),
                }
            }
        }
    }

    /// Drains a streaming body fully into memory, converting `self` into
    /// [`Body::Full`]; full bodies are untouched.  This is the explicit
    /// buffering point for callers that need the whole body (scripts,
    /// replication pushes, gossip digests) — an `Err` means the stream failed
    /// mid-body (for example a `Content-Length` mismatch from a peer that
    /// closed early) and carries the source's reason.
    ///
    /// Buffering is capped at [`MAX_BUFFERED_BODY_BYTES`]: an instance that
    /// must live in memory whole cannot be unbounded, whatever the peer
    /// declares or streams.  Relays that only forward chunks
    /// ([`Body::read_chunk`]) have no such cap.
    pub fn buffer(&mut self) -> io::Result<()> {
        if let Body::Stream(stream) = self {
            let declared = stream.declared_len;
            let mut state = stream.state.lock().unwrap();
            let buffered = match &mut *state {
                StreamState::Active(source) => match drain_source(source, declared) {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        *state = StreamState::Failed(e.to_string());
                        return Err(e);
                    }
                },
                StreamState::Buffered(bytes) => std::mem::take(bytes),
                StreamState::Failed(reason) => {
                    return Err(io::Error::other(reason.clone()));
                }
            };
            *state = StreamState::Buffered(buffered.clone());
            drop(state);
            *self = Body::Full(buffered);
        }
        Ok(())
    }

    /// Collapses the body into a single contiguous buffer.
    ///
    /// For a streaming body this *drains the stream* (same
    /// [`MAX_BUFFERED_BODY_BYTES`] cap as [`Body::buffer`]), yielding an
    /// empty buffer when the stream fails; use [`Body::buffer`] when
    /// stream errors must surface (transports and layers do).  Tests and
    /// scripts — which operate on complete instances — use this
    /// convenience.
    pub fn to_bytes(&self) -> Bytes {
        match self {
            Body::Full(b) => b.clone(),
            Body::Stream(stream) => {
                let declared = stream.declared_len;
                let mut state = stream.state.lock().unwrap();
                match &mut *state {
                    StreamState::Active(source) => match drain_source(source, declared) {
                        Ok(bytes) => {
                            *state = StreamState::Buffered(bytes.clone());
                            bytes
                        }
                        Err(e) => {
                            *state = StreamState::Failed(e.to_string());
                            Bytes::new()
                        }
                    },
                    StreamState::Buffered(bytes) => bytes.clone(),
                    StreamState::Failed(_) => Bytes::new(),
                }
            }
        }
    }

    /// Interprets the body as UTF-8 text, replacing invalid sequences.
    /// Streaming bodies are drained first (see [`Body::to_bytes`]).
    pub fn to_text(&self) -> String {
        String::from_utf8_lossy(&self.to_bytes()).into_owned()
    }

    /// The `index`-th [`SCRIPT_READ_CHUNK_BYTES`] segment of a buffered
    /// body, or `None` past the end — the backend of the script-facing
    /// `Response.read()` iteration.  Streaming bodies are buffered first
    /// (scripts operate on complete instances, paper §3.1).
    pub fn segment(&self, index: usize) -> Option<Bytes> {
        let bytes = self.to_bytes();
        let start = index.checked_mul(SCRIPT_READ_CHUNK_BYTES)?;
        if start >= bytes.len() {
            return None;
        }
        let end = (start + SCRIPT_READ_CHUNK_BYTES).min(bytes.len());
        Some(bytes.slice(start..end))
    }

    /// Appends data to the body, buffering a stream first.
    pub fn push(&mut self, chunk: impl Into<Bytes>) {
        let chunk = chunk.into();
        if chunk.is_empty() {
            return;
        }
        let existing = self.to_bytes();
        if existing.is_empty() {
            *self = Body::Full(chunk);
            return;
        }
        let mut buf = Vec::with_capacity(existing.len() + chunk.len());
        buf.extend_from_slice(&existing);
        buf.extend_from_slice(&chunk);
        *self = Body::Full(Bytes::from(buf));
    }

    /// Replaces the body content.
    pub fn replace(&mut self, data: impl Into<Bytes>) {
        *self = Body::Full(data.into());
    }

    /// Removes all content.
    pub fn clear(&mut self) {
        *self = Body::empty();
    }

    /// Wraps the body in a tee: chunks flow through unchanged, and a copy
    /// accumulates on the side.  When the stream finishes *cleanly* and the
    /// accumulated copy stayed within `cap` bytes, `on_complete` fires with
    /// the full body — this is how the proxy cache captures a streamed
    /// response while forwarding it.  Oversized or failed streams simply
    /// never fire the callback (they stream through uncached).
    ///
    /// Full bodies fire the callback immediately (when within `cap`) and are
    /// returned unchanged.
    pub fn tee(self, cap: usize, on_complete: impl FnOnce(Bytes) + Send + 'static) -> Body {
        match self {
            Body::Full(bytes) => {
                if bytes.len() <= cap {
                    on_complete(bytes.clone());
                }
                Body::Full(bytes)
            }
            Body::Stream(stream) => {
                let declared = stream.declared_len;
                Body::stream(
                    TeeSource {
                        inner: Body::Stream(stream),
                        copy: Some(Vec::new()),
                        cap,
                        declared,
                        on_complete: Some(Box::new(on_complete)),
                    },
                    declared,
                )
            }
        }
    }
}

/// The [`ChunkSource`] behind [`Body::tee`].
struct TeeSource {
    inner: Body,
    /// The accumulating side copy; dropped the moment it would exceed `cap`.
    copy: Option<Vec<u8>>,
    cap: usize,
    /// The length the message framing promised, if any: a clean end that
    /// does not match it must not fire the callback (a short instance is
    /// not a complete instance, however cleanly its source stopped).
    declared: Option<u64>,
    on_complete: Option<Box<dyn FnOnce(Bytes) + Send>>,
}

impl ChunkSource for TeeSource {
    fn may_block(&self) -> bool {
        // The tee adds no waiting of its own: it blocks exactly when the
        // wrapped body does.
        self.inner.may_block()
    }

    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        match self.inner.read_chunk() {
            Ok(Some(chunk)) => {
                if let Some(copy) = &mut self.copy {
                    if copy.len() + chunk.len() > self.cap {
                        self.copy = None; // over budget: stream through uncached
                    } else {
                        copy.extend_from_slice(&chunk);
                    }
                }
                Ok(Some(chunk))
            }
            Ok(None) => {
                if let (Some(copy), Some(callback)) = (self.copy.take(), self.on_complete.take()) {
                    if self.declared.is_none_or(|n| copy.len() as u64 == n) {
                        callback(Bytes::from(copy));
                    }
                }
                Ok(None)
            }
            Err(e) => {
                self.copy = None;
                self.on_complete = None;
                Err(e)
            }
        }
    }
}

impl Default for Body {
    fn default() -> Body {
        Body::empty()
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Body::Full(b) => f.debug_tuple("Body::Full").field(&b.len()).finish(),
            Body::Stream(s) => f
                .debug_struct("Body::Stream")
                .field("declared_len", &s.declared_len)
                .finish(),
        }
    }
}

/// Full bodies compare by content; streaming bodies compare by identity
/// (two handles are equal only when they share the same underlying stream).
impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        match (self, other) {
            (Body::Full(a), Body::Full(b)) => a == b,
            (Body::Stream(a), Body::Stream(b)) => Arc::ptr_eq(&a.state, &b.state),
            _ => false,
        }
    }
}

impl Eq for Body {}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::from_bytes(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::from_bytes(Bytes::from(s.into_bytes()))
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::from_bytes(Bytes::from(v))
    }
}

impl From<Bytes> for Body {
    fn from(b: Bytes) -> Body {
        Body::from_bytes(b)
    }
}

/// An HTTP request as seen by Na Kika's scripting pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Target URI.  For proxied requests this is the absolute URI.
    pub uri: Uri,
    /// True for HTTP/1.1, false for HTTP/1.0.
    pub version_11: bool,
    /// Header fields.
    pub headers: Headers,
    /// Message body.
    pub body: Body,
    /// IP address of the client that sent the request (known to the proxy
    /// even though it is not part of the wire format); used by policy
    /// predicates such as the digital-library protection in Figure 5.
    pub client_ip: IpAddr,
}

impl Request {
    /// Creates a GET request for `uri` from an unspecified client.
    pub fn get(uri: &str) -> Request {
        Request {
            method: Method::Get,
            uri: Uri::parse(uri).unwrap_or_else(|_| Uri::http("invalid.local", 80, "/")),
            version_11: true,
            headers: Headers::new(),
            body: Body::empty(),
            client_ip: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
        }
    }

    /// Creates a request with the given method and URI.
    pub fn new(method: Method, uri: Uri) -> Request {
        Request {
            method,
            uri,
            version_11: true,
            headers: Headers::new(),
            body: Body::empty(),
            client_ip: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
        }
    }

    /// Builder-style helper setting the client IP.
    pub fn with_client_ip(mut self, ip: IpAddr) -> Request {
        self.client_ip = ip;
        self
    }

    /// Builder-style helper setting a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers.set(name, value);
        self
    }

    /// Builder-style helper setting the body and Content-Length.
    pub fn with_body(mut self, body: impl Into<Body>) -> Request {
        self.body = body.into();
        self.headers
            .set("Content-Length", self.body.len().to_string());
        self
    }

    /// The site this request targets (authority of the origin URI).
    pub fn site(&self) -> String {
        self.uri.to_origin().site()
    }

    /// The `Host` header value to send, synthesised from the URI if missing.
    pub fn host_header(&self) -> String {
        self.headers
            .get("host")
            .map(str::to_string)
            .unwrap_or_else(|| self.uri.authority())
    }
}

/// An HTTP response as seen by Na Kika's scripting pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// True for HTTP/1.1.
    pub version_11: bool,
    /// Header fields.
    pub headers: Headers,
    /// Message body.
    pub body: Body,
}

impl Response {
    /// Creates a response with the given status and an empty body.
    pub fn new(status: StatusCode) -> Response {
        Response {
            status,
            version_11: true,
            headers: Headers::new(),
            body: Body::empty(),
        }
    }

    /// A `200 OK` response carrying `body` with the given content type.
    pub fn ok(content_type: &str, body: impl Into<Body>) -> Response {
        let body = body.into();
        let mut r = Response::new(StatusCode::OK);
        r.headers.set("Content-Type", content_type);
        r.headers.set("Content-Length", body.len().to_string());
        r.body = body;
        r
    }

    /// A `200 OK` response whose body streams from `source`.  When
    /// `declared_len` is known the response carries `Content-Length`;
    /// otherwise the serializer emits it with chunked transfer encoding.
    pub fn ok_stream(
        content_type: &str,
        source: impl ChunkSource + 'static,
        declared_len: Option<u64>,
    ) -> Response {
        let mut r = Response::new(StatusCode::OK);
        r.headers.set("Content-Type", content_type);
        if let Some(len) = declared_len {
            r.headers.set("Content-Length", len.to_string());
        }
        r.body = Body::stream(source, declared_len);
        r
    }

    /// An error response with a short plain-text body, as produced by
    /// `Request.terminate(code)` in scripts.
    pub fn error(status: StatusCode) -> Response {
        let body = Body::from(format!("{}\n", status));
        let mut r = Response::new(status);
        r.headers.set("Content-Type", "text/plain");
        r.headers.set("Content-Length", body.len().to_string());
        r.body = body;
        r
    }

    /// A temporary redirect (307) to `location`: the client must retry
    /// with the same method, unlike a method-rewriting 302.
    pub fn redirect_temporary(location: &str) -> Response {
        let mut r = Response::new(StatusCode::TEMPORARY_REDIRECT);
        r.headers.set("Location", location);
        r.headers.set("Content-Length", "0");
        r
    }

    /// Builder-style helper setting a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.set(name, value);
        self
    }

    /// Replaces the body and fixes up Content-Length.
    pub fn set_body(&mut self, body: impl Into<Body>) {
        self.body = body.into();
        self.headers
            .set("Content-Length", self.body.len().to_string());
    }

    /// Content type without parameters, defaulting to
    /// `application/octet-stream`.
    pub fn content_type(&self) -> String {
        self.headers
            .content_type()
            .unwrap_or("application/octet-stream")
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn body_accounting_and_edits() {
        let mut b = Body::empty();
        assert!(b.is_empty());
        b.push(Bytes::from_static(b"hello "));
        b.push(Bytes::from_static(b""));
        b.push(Bytes::from_static(b"world"));
        assert_eq!(b.len(), 11);
        assert_eq!(b.to_text(), "hello world");
        b.replace("x");
        assert_eq!(b.to_text(), "x");
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn body_single_buffer_is_zero_copy() {
        let data = Bytes::from_static(b"payload");
        let b = Body::from_bytes(data.clone());
        // Full bodies return the same underlying buffer.
        assert_eq!(b.to_bytes().as_ptr(), data.as_ptr());
    }

    #[test]
    fn full_bodies_read_out_in_bounded_chunks() {
        let mut b = Body::from_bytes(vec![7u8; STREAM_CHUNK_BYTES * 2 + 10]);
        let mut sizes = Vec::new();
        while let Some(chunk) = b.read_chunk().unwrap() {
            sizes.push(chunk.len());
        }
        assert_eq!(sizes, vec![STREAM_CHUNK_BYTES, STREAM_CHUNK_BYTES, 10]);
    }

    #[test]
    fn full_body_chunks_are_views_of_the_cached_buffer() {
        let data: Bytes = (0..1usize << 20).map(|i| (i % 251) as u8).collect();
        let mut b = Body::from_bytes(data.clone());
        let mut k = 0;
        while let Some(chunk) = b.read_chunk().unwrap() {
            let offset = k * STREAM_CHUNK_BYTES;
            assert_eq!(chunk.len(), STREAM_CHUNK_BYTES);
            assert_eq!(
                chunk.as_ptr(),
                data.as_ptr().wrapping_add(offset),
                "chunk {k} is a copy, not a view"
            );
            assert_eq!(&chunk[..], &data[offset..offset + STREAM_CHUNK_BYTES]);
            k += 1;
        }
        assert_eq!(k, 16);
    }

    #[test]
    fn streaming_body_drains_and_buffers() {
        let chunks = vec![Bytes::from_static(b"ab"), Bytes::from_static(b"cd")];
        let mut b = Body::stream_from_iter(chunks, Some(4));
        assert!(b.is_stream());
        assert_eq!(b.len(), 4);
        assert_eq!(b.size_hint(), Some(4));
        b.buffer().unwrap();
        assert!(!b.is_stream());
        assert_eq!(b.to_text(), "abcd");
    }

    #[test]
    fn stream_clones_share_the_underlying_source() {
        let b = Body::stream_from_iter(vec![Bytes::from_static(b"once")], None);
        let clone = b.clone();
        assert_eq!(b, clone, "clones compare equal by identity");
        assert_eq!(&b.to_bytes()[..], b"once");
        // The clone sees the buffered result, not a second pull.
        assert_eq!(&clone.to_bytes()[..], b"once");
    }

    #[test]
    fn stream_errors_surface_through_buffer() {
        struct Failing(u32);
        impl ChunkSource for Failing {
            fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
                self.0 += 1;
                if self.0 == 1 {
                    Ok(Some(Bytes::from_static(b"partial")))
                } else {
                    Err(io::Error::other("peer closed mid-body"))
                }
            }
        }
        let mut b = Body::stream(Failing(0), Some(100));
        let err = b.buffer().unwrap_err();
        assert!(err.to_string().contains("peer closed"));
        // Subsequent consumption keeps reporting failure, never retries.
        assert!(b.buffer().is_err());
        assert!(b.to_bytes().is_empty());
    }

    #[test]
    fn tee_fires_on_clean_completion_within_cap() {
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let body = Body::stream_from_iter(
            vec![Bytes::from_static(b"hello "), Bytes::from_static(b"world")],
            None,
        );
        let teed = body.tee(1024, move |bytes| {
            assert_eq!(&bytes[..], b"hello world");
            flag.store(true, Ordering::SeqCst);
        });
        assert_eq!(teed.to_text(), "hello world");
        assert!(fired.load(Ordering::SeqCst));
        // An oversized stream passes through but never fires.
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let body = Body::stream_from_iter(vec![Bytes::from(vec![1u8; 64])], None);
        let teed = body.tee(16, move |_| flag.store(true, Ordering::SeqCst));
        assert_eq!(teed.to_bytes().len(), 64);
        assert!(!fired.load(Ordering::SeqCst));
        // A short-but-clean stream (fewer bytes than declared) must not
        // fire either: a truncated instance is not a complete instance.
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let body = Body::stream_from_iter(vec![Bytes::from_static(b"short")], Some(100));
        let teed = body.tee(1024, move |_| flag.store(true, Ordering::SeqCst));
        assert_eq!(teed.to_bytes().len(), 5);
        assert!(!fired.load(Ordering::SeqCst));
    }

    #[test]
    fn buffering_is_capped_but_streaming_is_not() {
        // A stream longer than the buffering limit errors out of buffer()...
        struct Endless;
        impl ChunkSource for Endless {
            fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
                Ok(Some(Bytes::from(vec![0u8; STREAM_CHUNK_BYTES])))
            }
        }
        let mut b = Body::stream(Endless, None);
        let err = b.buffer().unwrap_err();
        assert!(err.to_string().contains("buffering limit"), "{err}");
        // ...and a hostile declared length must not size an allocation: the
        // clamp means this returns quickly without reserving 64 GiB.
        let mut b = Body::stream(
            std::iter::once(Bytes::from_static(b"tiny")),
            Some(64 * 1024 * 1024 * 1024),
        );
        b.buffer().unwrap();
        assert_eq!(b.to_text(), "tiny");
    }

    #[test]
    fn segment_iteration_matches_script_reads() {
        let body = Body::from_bytes(vec![9u8; SCRIPT_READ_CHUNK_BYTES + 5]);
        assert_eq!(body.segment(0).unwrap().len(), SCRIPT_READ_CHUNK_BYTES);
        assert_eq!(body.segment(1).unwrap().len(), 5);
        assert!(body.segment(2).is_none());
    }

    #[test]
    fn segments_are_views_of_the_buffered_body() {
        let body = Body::from_bytes(vec![9u8; SCRIPT_READ_CHUNK_BYTES + 5]);
        let whole = body.to_bytes();
        assert_eq!(
            body.segment(1).unwrap().as_ptr(),
            whole.as_ptr().wrapping_add(SCRIPT_READ_CHUNK_BYTES)
        );
    }

    #[test]
    fn request_builders() {
        let r = Request::get("http://med.nyu.edu/simm/1")
            .with_header("User-Agent", "test")
            .with_body("data");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.site(), "med.nyu.edu");
        assert_eq!(r.headers.get("user-agent"), Some("test"));
        assert_eq!(r.headers.content_length(), Some(4));
        assert_eq!(r.host_header(), "med.nyu.edu");
    }

    #[test]
    fn request_site_strips_nakika_suffix() {
        let r = Request::get("http://med.nyu.edu.nakika.net/simm/1");
        assert_eq!(r.site(), "med.nyu.edu");
    }

    #[test]
    fn response_constructors() {
        let r = Response::ok("text/html", "<p>hi</p>");
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.headers.content_length(), Some(9));
        let e = Response::error(StatusCode::UNAUTHORIZED);
        assert!(e.body.to_text().contains("401"));
        let d = Response::redirect_temporary("http://elsewhere/");
        assert_eq!(d.status, StatusCode::TEMPORARY_REDIRECT);
        assert_eq!(d.headers.get("location"), Some("http://elsewhere/"));
    }

    #[test]
    fn response_set_body_updates_length() {
        let mut r = Response::ok("text/plain", "aaa");
        r.set_body("bbbbb");
        assert_eq!(r.headers.content_length(), Some(5));
        assert_eq!(r.content_type(), "text/plain");
    }
}
