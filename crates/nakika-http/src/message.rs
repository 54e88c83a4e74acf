//! HTTP request and response messages with streaming ("bucket brigade")
//! bodies.
//!
//! Apache delivers message data to filters as *bucket brigades*: buffers that
//! arrive piecemeal.  Na Kika's scripts read the body in chunks
//! (`Response.read()` in the paper's Figure 2) so that cut-through routing is
//! possible.  [`Body`] models both endpoints of that spectrum: a fully
//! materialized [`Body::Full`] buffer for messages that live in memory
//! (requests, cached entries, script-generated responses), the
//! [`Body::Parts`] a cache capture keeps (the chunks it relayed, held as
//! they arrived), and a [`Body::Stream`] whose chunks are pulled
//! incrementally from a
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
pub(crate) const SCRIPT_READ_CHUNK_BYTES: usize = 8 * 1024;

/// Largest body [`Body::buffer`]/[`Body::to_bytes`] will materialize
/// (64 MiB — the same bound the one-shot parser enforces).  Streaming
/// consumption via [`Body::read_chunk`] is not subject to it: a relay's
/// memory is bounded by its chunk window, not by body size.
pub(crate) const MAX_BUFFERED_BODY_BYTES: usize = 64 * 1024 * 1024;

/// What [`Body::tee`] charges for each chunk it keeps beyond the chunk's
/// bytes: the `Bytes` handle in the parts list and the allocation header of
/// the chunk's buffer.  A stream of tiny chunks thus reaches the tee's
/// budget and passes through uncached instead of pinning many times its
/// own size.
const KEPT_PART_OVERHEAD_BYTES: usize = 64;

/// Average part size below which a captured body is stored as one joined
/// copy rather than as its parts, so a trickled or finely chunked origin
/// is stored compactly and read out in few chunks.
const MIN_KEPT_PART_BYTES: usize = 4 * 1024;

/// Copies `slices`, `len` bytes in all, into one buffer.
fn join<'a>(slices: impl Iterator<Item = &'a [u8]>, len: usize) -> Bytes {
    let mut buf = Vec::with_capacity(len);
    for slice in slices {
        buf.extend_from_slice(slice);
    }
    Bytes::from(buf)
}

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

/// What pulling the next chunk of a source would do now: the one question
/// a readiness-driven transport asks before it pulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// The chunk (or the end, or the error) is in memory: pull now.
    Ready,
    /// The transport feeds this source and will drive the consumer again
    /// once something arrives: do not pull yet.
    Pending,
    /// The pull may block on I/O (an upstream socket), so it runs off the
    /// event loop.
    Blocking,
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

    /// What [`next_chunk`](ChunkSource::next_chunk) would do if called
    /// now.  In-memory sources — iterators, buffered bodies — keep the
    /// default [`Readiness::Ready`]; a source that reads a socket answers
    /// [`Readiness::Blocking`]; the `nakika-server` reactor's splice, which
    /// its event loop feeds, answers [`Readiness::Pending`] while empty.
    fn readiness(&self) -> Readiness {
        Readiness::Ready
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

impl Clone for BodyStream {
    fn clone(&self) -> BodyStream {
        BodyStream {
            declared_len: self.declared_len,
            state: self.state.clone(),
        }
    }
}

/// The parts variant of [`Body`]: a whole body held as the list of chunks
/// it arrived in, plus a read cursor.  Clones share the list.
#[derive(Clone)]
pub struct BodyParts {
    /// The chunks, in order; none is empty or longer than
    /// [`STREAM_CHUNK_BYTES`], so each read hands out one whole part and
    /// the cursor needs no offset into a part (one would make every
    /// `Body`, cached or in flight, 8 bytes larger).
    parts: Arc<[Bytes]>,
    /// Index of the next part to read.
    next: usize,
    /// Bytes not yet read.
    remaining: usize,
}

impl BodyParts {
    /// The unread parts.
    fn unread(&self) -> &[Bytes] {
        &self.parts[self.next..]
    }

    /// The next unread part, as a view.
    fn read(&mut self) -> Option<Bytes> {
        let part = self.parts.get(self.next)?.clone();
        self.next += 1;
        self.remaining -= part.len();
        Some(part)
    }

    /// The unread bytes `start..end` (`end <= remaining`): a view when
    /// they lie in one part, else a copy of just that range.
    fn range(&self, start: usize, end: usize) -> Bytes {
        let mut skip = start;
        let mut copy = Vec::new();
        for part in self.unread() {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            let take = (part.len() - skip).min(end - start - copy.len());
            if copy.is_empty() && take == end - start {
                return part.slice(skip..skip + take);
            }
            copy.extend_from_slice(&part[skip..skip + take]);
            if copy.len() == end - start {
                break;
            }
            skip = 0;
        }
        Bytes::from(copy)
    }
}

/// An HTTP message body: fully materialized, kept as parts, or streamed
/// from a source.
#[derive(Clone)]
pub enum Body {
    /// The whole body, in memory.
    Full(Bytes),
    /// The whole body, in memory as the chunks a [`Body::tee`] kept while
    /// relaying it.  Reads hand the parts out in turn without copying.
    Parts(BodyParts),
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
    pub(crate) fn from_chunks(chunks: Vec<Bytes>) -> Body {
        match chunks.len() {
            0 => Body::empty(),
            1 => Body::Full(chunks.into_iter().next().unwrap()),
            _ => {
                let len = chunks.iter().map(Bytes::len).sum();
                Body::Full(join(chunks.iter().map(|c| &c[..]), len))
            }
        }
    }

    /// The body a tee stores for the non-empty `parts` it kept (`len`
    /// bytes in all): one part is stored as itself, parts averaging under
    /// [`MIN_KEPT_PART_BYTES`] as one joined copy, others as they are (a
    /// part longer than [`STREAM_CHUNK_BYTES`] as views of that size).
    fn from_kept(mut parts: Vec<Bytes>, len: usize) -> Body {
        match parts.len() {
            0 => Body::empty(),
            1 => Body::Full(parts.pop().unwrap()),
            n if len / n < MIN_KEPT_PART_BYTES => {
                Body::Full(join(parts.iter().map(|p| &p[..]), len))
            }
            _ => {
                let parts: Arc<[Bytes]> = if parts.iter().all(|p| p.len() <= STREAM_CHUNK_BYTES) {
                    parts.into()
                } else {
                    let views = |p: &Bytes| {
                        let p = p.clone();
                        (0..p.len())
                            .step_by(STREAM_CHUNK_BYTES)
                            .map(move |at| p.slice(at..p.len().min(at + STREAM_CHUNK_BYTES)))
                    };
                    parts.iter().flat_map(views).collect()
                };
                Body::Parts(BodyParts {
                    parts,
                    next: 0,
                    remaining: len,
                })
            }
        }
    }

    /// The in-memory contents, in order; nothing for a stream.
    fn slices(&self) -> impl Iterator<Item = &[u8]> {
        let (whole, parts) = match self {
            Body::Full(bytes) => (Some(&bytes[..]), None),
            Body::Parts(parts) => (None, Some(parts.unread())),
            Body::Stream(_) => (None, None),
        };
        whole
            .into_iter()
            .chain(parts.into_iter().flatten().map(|p| &p[..]))
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

    /// What reading the next chunk of this body would do now: the
    /// [`ChunkSource::readiness`] of a still-active stream.  In-memory and
    /// already-buffered bodies are always ready; so are failed streams
    /// (they report their stored error immediately).
    pub fn readiness(&self) -> Readiness {
        match self {
            Body::Full(_) | Body::Parts(_) => Readiness::Ready,
            Body::Stream(stream) => match &*stream.state.lock().unwrap() {
                StreamState::Active(source) => source.readiness(),
                StreamState::Buffered(_) | StreamState::Failed(_) => Readiness::Ready,
            },
        }
    }

    /// Number of body bytes *known* to this message: the unread length of
    /// an in-memory body, the declared length for a stream (0 when
    /// undeclared).
    /// Accounting code (logs, resource charging) uses this; exact byte
    /// counts for undeclared streams require draining the body.
    pub fn len(&self) -> usize {
        match self {
            Body::Full(b) => b.len(),
            Body::Parts(p) => p.remaining,
            Body::Stream(s) => s.declared_len.unwrap_or(0) as usize,
        }
    }

    /// The exact size when it is known without consuming the body.
    pub fn size_hint(&self) -> Option<u64> {
        match self {
            Body::Full(b) => Some(b.len() as u64),
            Body::Parts(p) => Some(p.remaining as u64),
            Body::Stream(s) => s.declared_len,
        }
    }

    /// True if the body is known to hold no data.  A stream with an unknown
    /// length is *not* empty — it may still produce bytes.
    pub fn is_empty(&self) -> bool {
        match self {
            Body::Full(b) => b.is_empty(),
            Body::Parts(p) => p.remaining == 0,
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
    /// keeps the whole buffer alive until it is dropped.  A parts body hands
    /// out its parts in turn, as views.  Returns `Ok(None)` at the end.
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
            Body::Parts(parts) => Ok(parts.read()),
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
    /// [`Body::Full`]; in-memory bodies, full or parts, are untouched.  This
    /// is the explicit buffering point for callers that need the whole body
    /// (scripts, replication pushes, gossip digests) — an `Err` means the
    /// stream failed mid-body (for example a `Content-Length` mismatch from
    /// a peer that closed early) and carries the source's reason.
    ///
    /// Buffering is capped at `MAX_BUFFERED_BODY_BYTES`: an instance that
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
    /// `MAX_BUFFERED_BODY_BYTES` cap as [`Body::buffer`]), yielding an
    /// empty buffer when the stream fails; use [`Body::buffer`] when
    /// stream errors must surface (transports and layers do).  Tests and
    /// scripts — which operate on complete instances — use this
    /// convenience.  A parts body is joined into a fresh buffer on every
    /// call.
    pub fn to_bytes(&self) -> Bytes {
        match self {
            Body::Full(b) => b.clone(),
            Body::Parts(_) => join(self.slices(), self.len()),
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

    /// The `index`-th `SCRIPT_READ_CHUNK_BYTES` segment of a buffered
    /// body, or `None` past the end — the backend of the script-facing
    /// `Response.read()` iteration.  Streaming bodies are buffered first
    /// (scripts operate on complete instances, paper §3.1); a parts body
    /// is walked, and only a segment that spans two parts is copied.
    pub fn segment(&self, index: usize) -> Option<Bytes> {
        let start = index.checked_mul(SCRIPT_READ_CHUNK_BYTES)?;
        if let Body::Parts(parts) = self {
            return (start < parts.remaining).then(|| {
                parts.range(
                    start,
                    (start + SCRIPT_READ_CHUNK_BYTES).min(parts.remaining),
                )
            });
        }
        let bytes = self.to_bytes();
        if start >= bytes.len() {
            return None;
        }
        let end = (start + SCRIPT_READ_CHUNK_BYTES).min(bytes.len());
        Some(bytes.slice(start..end))
    }

    /// Wraps the body in a tee: chunks flow through unchanged, and the tee
    /// keeps the chunks it forwards, charged against the same budget: each
    /// kept chunk costs its length plus a fixed per-part overhead.  When the
    /// stream finishes *cleanly* and the charge stayed within `cap` bytes,
    /// `on_complete` fires with the whole body built from the kept chunks,
    /// without copying them (one chunk is stored as itself, many as a
    /// [`Body::Parts`], many tiny ones as one joined copy) — this is how
    /// the proxy cache captures a streamed response while forwarding it.
    /// Oversized or failed streams simply never fire the callback (they
    /// stream through uncached).
    ///
    /// In-memory bodies fire the callback immediately (when within `cap`)
    /// and are returned unchanged.
    pub fn tee(self, cap: usize, on_complete: impl FnOnce(Body) + Send + 'static) -> Body {
        let Body::Stream(stream) = self else {
            if self.len() <= cap {
                on_complete(self.clone());
            }
            return self;
        };
        let declared = stream.declared_len;
        Body::stream(
            TeeSource {
                inner: Body::Stream(stream),
                kept: Some(Vec::new()),
                kept_bytes: 0,
                cap,
                declared,
                on_complete: Some(Box::new(on_complete)),
            },
            declared,
        )
    }
}

/// The [`ChunkSource`] behind [`Body::tee`].
struct TeeSource {
    inner: Body,
    /// The non-empty chunks forwarded so far, kept as views of the chunks
    /// themselves; dropped the moment their charge would exceed `cap`.  A
    /// chunk is charged its own length, so a source whose chunks are views
    /// of larger buffers pins more than it is charged; the relays' chunks
    /// are exact-size copies of what they read.
    kept: Option<Vec<Bytes>>,
    /// Bytes in `kept`.
    kept_bytes: usize,
    cap: usize,
    /// The length the message framing promised, if any: a clean end that
    /// does not match it must not fire the callback (a short instance is
    /// not a complete instance, however cleanly its source stopped).
    declared: Option<u64>,
    on_complete: Option<Box<dyn FnOnce(Body) + Send>>,
}

impl ChunkSource for TeeSource {
    fn readiness(&self) -> Readiness {
        // The tee adds no waiting of its own: it is ready exactly when the
        // wrapped body is.
        self.inner.readiness()
    }

    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        match self.inner.read_chunk() {
            Ok(Some(chunk)) => {
                if let Some(kept) = self.kept.as_mut().filter(|_| !chunk.is_empty()) {
                    let charge =
                        self.kept_bytes + chunk.len() + (kept.len() + 1) * KEPT_PART_OVERHEAD_BYTES;
                    if charge > self.cap {
                        self.kept = None; // over budget: stream through uncached
                    } else {
                        self.kept_bytes += chunk.len();
                        kept.push(chunk.clone());
                    }
                }
                Ok(Some(chunk))
            }
            Ok(None) => {
                if let (Some(kept), Some(callback)) = (self.kept.take(), self.on_complete.take()) {
                    if self.declared.is_none_or(|n| self.kept_bytes as u64 == n) {
                        callback(Body::from_kept(kept, self.kept_bytes));
                    }
                }
                Ok(None)
            }
            Err(e) => {
                self.kept = None;
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
            Body::Parts(p) => f
                .debug_struct("Body::Parts")
                .field("parts", &p.unread().len())
                .field("len", &p.remaining)
                .finish(),
            Body::Stream(s) => f
                .debug_struct("Body::Stream")
                .field("declared_len", &s.declared_len)
                .finish(),
        }
    }
}

/// In-memory bodies compare by content, whether full or parts; streaming
/// bodies compare by identity (two handles are equal only when they share
/// the same underlying stream).
impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        match (self, other) {
            (Body::Full(a), Body::Full(b)) => a == b,
            (Body::Stream(a), Body::Stream(b)) => Arc::ptr_eq(&a.state, &b.state),
            (Body::Stream(_), _) | (_, Body::Stream(_)) => false,
            _ => self.len() == other.len() && self.slices().flatten().eq(other.slices().flatten()),
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

    /// True for an HTTP/1.0 response of unknown length: having no chunked
    /// encoding, it is framed by buffering its whole body first to learn
    /// its `Content-Length` ([`ResponseWriter::new`]).
    ///
    /// [`ResponseWriter::new`]: crate::serialize::ResponseWriter::new
    pub fn needs_whole_body(&self) -> bool {
        !self.version_11 && self.body.size_hint().is_none()
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
        let teed = body.tee(1024, move |body| {
            assert_eq!(body.to_text(), "hello world");
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

    /// A body with `n` bytes that differ from their neighbours.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    /// Cuts `data` into chunks of the given sizes.
    fn cut(data: &[u8], sizes: impl IntoIterator<Item = usize>) -> Vec<Bytes> {
        let mut rest = data;
        let chunks: Vec<Bytes> = sizes
            .into_iter()
            .map(|n| {
                let (chunk, tail) = rest.split_at(n);
                rest = tail;
                Bytes::copy_from_slice(chunk)
            })
            .collect();
        assert!(rest.is_empty());
        chunks
    }

    /// Streams `source` through a tee with budget `cap`, returning what
    /// came out of the tee (or the error that ended it) and what the tee
    /// stored, if anything.
    fn tee_through(
        source: impl ChunkSource + 'static,
        declared: Option<u64>,
        cap: usize,
    ) -> (io::Result<Vec<u8>>, Option<Body>) {
        let stored = Arc::new(Mutex::new(None));
        let slot = stored.clone();
        let mut teed =
            Body::stream(source, declared).tee(cap, move |body| *slot.lock().unwrap() = Some(body));
        let mut out = Vec::new();
        let streamed = loop {
            match teed.read_chunk() {
                Ok(Some(chunk)) => out.extend_from_slice(&chunk),
                Ok(None) => break Ok(out),
                Err(e) => break Err(e),
            }
        };
        let stored = stored.lock().unwrap().take();
        (streamed, stored)
    }

    /// Reads `body` to its end with `read_chunk`.
    fn drain(mut body: Body) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(chunk) = body.read_chunk().unwrap() {
            assert!(!chunk.is_empty());
            out.extend_from_slice(&chunk);
        }
        out
    }

    /// Asserts the tee streamed `data` and stored exactly it.
    fn assert_stores(chunks: Vec<Bytes>, data: &[u8]) -> Body {
        let (streamed, stored) = tee_through(chunks.into_iter(), Some(data.len() as u64), 1 << 30);
        assert_eq!(streamed.unwrap(), data);
        let stored = stored.expect("a clean, complete stream is stored");
        assert_eq!(stored.len(), data.len());
        assert_eq!(stored.size_hint(), Some(data.len() as u64));
        assert_eq!(stored.to_bytes(), data);
        assert_eq!(stored, Body::from_bytes(data.to_vec()));
        assert_eq!(drain(stored.clone()), data);
        stored
    }

    #[test]
    fn tee_stores_what_it_streamed_however_it_was_chunked() {
        let mib = pattern(1 << 20);
        let one = assert_stores(cut(&mib, [1 << 20]), &mib);
        assert!(matches!(one, Body::Full(_)));
        let parts = assert_stores(cut(&mib, [16 * 1024; 64]), &mib);
        assert!(matches!(parts, Body::Parts(_)), "{parts:?}");

        let short = pattern(3000);
        let bytewise = assert_stores(cut(&short, [1; 3000]), &short);
        assert!(matches!(bytewise, Body::Full(_)), "tiny parts are joined");

        let data = pattern(40);
        for i in 0..=data.len() {
            for j in i..=data.len() {
                assert_stores(cut(&data, [i, j - i, data.len() - j]), &data);
            }
        }
    }

    #[test]
    fn tee_stores_only_clean_complete_streams_within_budget() {
        let data = pattern(64 * 1024);
        let chunks = || cut(&data, [16 * 1024; 4]).into_iter();
        // Short of the declared length.
        let (streamed, stored) = tee_through(chunks(), Some(data.len() as u64 + 1), 1 << 20);
        assert_eq!(streamed.unwrap(), data);
        assert!(stored.is_none());
        // Over budget: the bytes alone fit, the per-part charge does not.
        let (streamed, stored) = tee_through(chunks(), None, data.len() + 3 * 64);
        assert_eq!(streamed.unwrap(), data);
        assert!(stored.is_none());
        let (_, stored) = tee_through(chunks(), None, data.len() + 4 * 64);
        assert_eq!(stored.unwrap(), Body::from_bytes(data.clone()));
        // Failed mid-body.
        struct FailsAfter(Vec<Bytes>);
        impl ChunkSource for FailsAfter {
            fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
                match self.0.pop() {
                    Some(chunk) => Ok(Some(chunk)),
                    None => Err(io::Error::other("peer closed mid-body")),
                }
            }
        }
        let (streamed, stored) = tee_through(FailsAfter(chunks().collect()), None, 1 << 20);
        assert!(streamed.is_err());
        assert!(stored.is_none());
    }

    #[test]
    fn a_one_chunk_capture_is_the_chunk_itself() {
        let chunk = Bytes::from(pattern(2096));
        let (_, stored) = tee_through(std::iter::once(chunk.clone()), Some(2096), 1 << 20);
        assert_eq!(stored.unwrap().to_bytes().as_ptr(), chunk.as_ptr());
    }

    #[test]
    fn parts_and_contiguous_bodies_agree() {
        let data = pattern(5000 + 9000 + 3000 + 70_000 + 1);
        let sizes = [5000, 9000, 3000, 70_000, 1];
        let chunks = cut(&data, sizes);
        let parts = Body::from_kept(chunks.clone(), data.len());
        let full = Body::from_bytes(data.clone());
        assert!(matches!(parts, Body::Parts(_)));
        assert!(!parts.is_stream() && parts.readiness() == Readiness::Ready && !parts.is_empty());
        assert_eq!(parts, full);
        assert_eq!(full, parts);
        assert_ne!(parts, Body::from_bytes(pattern(data.len() - 1)));
        assert_ne!(parts, Body::from_bytes(vec![0; data.len()]));
        assert_eq!(parts.to_bytes(), full.to_bytes());
        for i in 0..=data.len().div_ceil(SCRIPT_READ_CHUNK_BYTES) {
            assert_eq!(parts.segment(i), full.segment(i), "segment {i}");
        }
        // A segment inside one part (bytes 17,000..87,000) is a view of it.
        assert_eq!(
            parts.segment(3).unwrap().as_ptr(),
            chunks[3]
                .as_ptr()
                .wrapping_add(3 * SCRIPT_READ_CHUNK_BYTES - 17_000)
        );

        // Reads hand out the parts in turn, a part over the chunk size in
        // bounded views; a half-read body compares by what is left.
        let mut reading = parts.clone();
        let mut sizes_read = Vec::new();
        while let Some(chunk) = reading.read_chunk().unwrap() {
            sizes_read.push(chunk.len());
            let read: usize = sizes_read.iter().sum();
            assert_eq!(reading.len(), data.len() - read);
            let rest = Body::from_bytes(data[read..].to_vec());
            assert_eq!(reading, rest);
            assert_eq!(reading.to_bytes(), data[read..]);
            assert_eq!(reading.segment(0), rest.segment(0));
            assert_eq!(reading.segment(1), rest.segment(1));
        }
        assert_eq!(
            sizes_read,
            [
                5000,
                9000,
                3000,
                STREAM_CHUNK_BYTES,
                70_000 - STREAM_CHUNK_BYTES,
                1
            ]
        );
        assert!(reading.is_empty() && reading.segment(0).is_none());
        assert_eq!(reading, Body::empty());
        assert_eq!(drain(parts.clone()), data);

        // A tee of an in-memory parts body fires at once with it.
        let stored = Arc::new(Mutex::new(None));
        let slot = stored.clone();
        let teed = parts.tee(1 << 20, move |body| *slot.lock().unwrap() = Some(body));
        assert_eq!(teed, full);
        assert_eq!(stored.lock().unwrap().take().unwrap(), full);
    }

    #[test]
    fn a_stream_of_tiny_chunks_stops_capturing_at_the_per_part_charge() {
        let parts_within_cap = 1000;
        let cap = parts_within_cap * (1 + KEPT_PART_OVERHEAD_BYTES);
        let fired = Arc::new(AtomicBool::new(false));
        let flag = fired.clone();
        let mut tee = TeeSource {
            inner: Body::stream_from_iter((0..100_000).map(|_| Bytes::from_static(b"x")), None),
            kept: Some(Vec::new()),
            kept_bytes: 0,
            cap,
            declared: None,
            on_complete: Some(Box::new(move |_| flag.store(true, Ordering::SeqCst))),
        };
        for _ in 0..parts_within_cap {
            tee.next_chunk().unwrap().unwrap();
        }
        assert_eq!(tee.kept.as_ref().map(Vec::len), Some(parts_within_cap));
        tee.next_chunk().unwrap().unwrap();
        assert!(
            tee.kept.is_none(),
            "the part past the charge stops the capture"
        );
        let mut streamed = parts_within_cap + 1;
        while tee.next_chunk().unwrap().is_some() {
            streamed += 1;
        }
        assert_eq!(streamed, 100_000);
        assert!(!fired.load(Ordering::SeqCst));
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
