//! The socket-free half of an HTTP/1.1 server connection.
//!
//! Accumulate bytes, parse complete requests (including pipelined ones),
//! dispatch each through the [`HttpService`] stack with a freshly minted
//! [`RequestCtx`](nakika_core::service::RequestCtx), serialize the
//! responses, and honor keep-alive.  This module holds that logic as a
//! sans-IO state machine: [`HttpConn`] never touches a socket, it just
//! consumes input bytes and produces output bytes; the
//! [reactor](crate::HttpServer) moves them with readiness-driven
//! non-blocking reads and writes, and a test can move them by hand.
//!
//! # Streaming output
//!
//! Since the v2 streaming redesign, a service may answer with a
//! [`Body::Stream`](nakika_http::Body) whose chunks are pulled from an
//! upstream source as they are relayed.  The engine therefore no longer
//! serializes whole responses: dispatched responses enter a FIFO, and the
//! engine *pumps* the response at the head of the queue — via the
//! incremental [`ResponseWriter`] — into its output buffer only while the
//! buffered backlog stays under a bounded window
//! ([`OUTPUT_WINDOW_BYTES`]).  Each flush of the socket makes room and
//! pulls the next chunk, so an 8 MiB relay holds at most one window of
//! bytes per connection, and the pull rate is governed by the client's
//! write-readiness (natural backpressure).  A body stream
//! that fails mid-response cannot be turned into an error status (the head
//! is already on the wire); the engine aborts the connection so the
//! framing tells the client the message was truncated.
//!
//! # Offloading blocking work
//!
//! The engine is driven from an event loop, so it never performs a
//! potentially-blocking operation itself.  [`HttpConn::advance`] runs as
//! far as it can without blocking — parsing input, executing service calls
//! the stack classified
//! [`DispatchHint::Inline`](nakika_core::service::DispatchHint), pumping
//! already-available output — and hands back a unit of [`Work`] whenever
//! the next step might block:
//!
//! - [`Work::Call`] — the service call for a parsed request whose
//!   [`dispatch_hint`](HttpService::dispatch_hint) said `MayBlock` (a cold
//!   cache miss heading for the origin).  Until the matching
//!   [`Done::Call`] is fed back through [`HttpConn::complete`], the engine
//!   *parks its input side*: no further requests are parsed
//!   ([`HttpConn::wants_read`] turns false), which both preserves response
//!   order and backpressures a flooding client.
//! - [`Work::Pull`] — the next chunk of the active streamed response must
//!   be pulled from a source that may block (an origin socket,
//!   [`Body::may_block`](nakika_http::Body::may_block)).  The pull runs on
//!   a shared handle of the body; the result comes back as
//!   [`Done::Pull`].
//! - [`Work::Buffer`] — the rare HTTP/1.0 activation path: a response with
//!   an unknown-length streamed body headed for a 1.0 client must be
//!   buffered to learn its `Content-Length`, and that drain would block.
//!   The response waits un-activated until [`Done::Buffer`] arrives.
//!
//! The transport decides where the work runs: the reactor ships it to a
//! worker pool and re-arms the connection when the completion comes back
//! through its wakeup pipe; a test can run it on the spot.  At most one
//! `Call` and one `Pull`/`Buffer` are outstanding per connection — enough
//! to keep an earlier response streaming while a later request's origin
//! fetch is in flight, without reordering anything.

use crate::{CtxFactory, HttpService};
use nakika_core::service::DispatchHint;
use nakika_http::{
    parse_request, Body, HttpError, ParseOutcome, Response, ResponseWriter, StatusCode,
    STREAM_CHUNK_BYTES,
};
use std::collections::VecDeque;
use std::io;
use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Upper bound on serialized-but-unsent bytes held per connection.  One
/// window must fit at least one head plus one body chunk; the default (256
/// KiB) amortizes syscalls on small pipelined responses while keeping the
/// per-connection memory for large relays bounded.
pub const OUTPUT_WINDOW_BYTES: usize = 256 * 1024;

/// Headroom reserved inside the window for one more part (a body chunk
/// plus its framing, or a response head), so pumping never overshoots
/// [`OUTPUT_WINDOW_BYTES`].
const PART_HEADROOM_BYTES: usize = STREAM_CHUNK_BYTES + 4 * 1024;

/// Parts at or above this size are queued as shared [`bytes::Bytes`] tails
/// — written to the socket with `writev` by the reactor — instead of being
/// copied into the contiguous front buffer.  Small parts (response heads,
/// chunk framing lines) coalesce in the front buffer, where one copy is
/// cheaper than one extra iovec per part.
const TAIL_THRESHOLD_BYTES: usize = 1024;

/// Per-server high-water mark of serialized-but-unsent bytes across that
/// server's connections — the instrumentation behind the large-body
/// bounded-memory tests and `examples/streaming_brigade.rs`.  One gauge is
/// created per server and shared with every connection engine it spawns,
/// so concurrently running servers (parallel tests!) do not contaminate
/// each other's measurements; read it with
/// `HttpServer::peak_buffered_output`.
#[derive(Debug, Default)]
pub(crate) struct OutputGauge {
    peak: AtomicUsize,
}

impl OutputGauge {
    fn note(&self, bytes: usize) {
        self.peak.fetch_max(bytes, Ordering::Relaxed);
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A potentially-blocking unit of work the engine asks its transport to
/// run (see the module docs).  Produced by [`HttpConn::advance`]; the
/// matching [`Done`] goes back through [`HttpConn::complete`].
pub(crate) enum Work {
    /// Run the service call for a request classified `MayBlock`.  The
    /// request is boxed so the enum stays small next to the handle-sized
    /// variants (it crosses a thread hand-off anyway).
    Call {
        request: Box<nakika_http::Request>,
        ctx: nakika_core::service::RequestCtx,
    },
    /// Pull the next chunk of the active streamed response from `body` (a
    /// shared handle; the pull advances the one underlying source).
    Pull { body: Body },
    /// Fully buffer `body` (the HTTP/1.0 unknown-length activation path).
    Buffer { body: Body },
}

/// Runs one service call with panic containment: a panicking service
/// becomes an internal error (mapped to a 500) instead of unwinding the
/// calling thread — which for an inline call is a whole event loop (and
/// every connection on it).
fn contained_call(
    service: &dyn HttpService,
    request: nakika_http::Request,
    ctx: &nakika_core::service::RequestCtx,
) -> Result<Response, nakika_core::service::NakikaError> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    catch_unwind(AssertUnwindSafe(|| service.call(request, ctx))).unwrap_or_else(|_| {
        Err(nakika_core::service::NakikaError::Internal(
            "service call panicked".to_string(),
        ))
    })
}

impl Work {
    /// Executes the work against `service`, producing the completion to
    /// feed back into [`HttpConn::complete`].  Panics in service/source
    /// code are contained: a panicking `Call` completes as an internal
    /// error (mapped to a 500), a panicking `Pull`/`Buffer` as a failure
    /// that aborts its connection, instead of killing the executing
    /// thread's loop.
    pub(crate) fn run(self, service: &dyn HttpService) -> Done {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        match self {
            Work::Call { request, ctx } => Done::Call(contained_call(service, *request, &ctx)),
            Work::Pull { mut body } => match catch_unwind(AssertUnwindSafe(|| body.read_chunk())) {
                Ok(read) => Done::Pull(read),
                Err(_) => Done::Pull(Err(io::Error::other("body source panicked"))),
            },
            Work::Buffer { mut body } => {
                // On a clean run the outcome lives in the stream's shared
                // state (`Buffered`, or `Failed` which the writer surfaces
                // as an abort).  A *panicking* source leaves that state
                // poisoned and unusable, so the panic is reported out of
                // band: the engine must abort without touching the body
                // again.
                let panicked = catch_unwind(AssertUnwindSafe(|| body.buffer())).is_err();
                Done::Buffer { panicked }
            }
        }
    }
}

/// The completion of one unit of [`Work`].
pub(crate) enum Done {
    /// Outcome of a [`Work::Call`].
    Call(Result<Response, nakika_core::service::NakikaError>),
    /// Outcome of a [`Work::Pull`].
    Pull(io::Result<Option<bytes::Bytes>>),
    /// A [`Work::Buffer`] finished.  When `panicked`, the body's shared
    /// state is poisoned and must never be touched again — the connection
    /// aborts instead of building a writer over it.
    Buffer { panicked: bool },
}

/// Sans-IO state machine for one server-side HTTP/1.1 connection.
pub(crate) struct HttpConn {
    peer: IpAddr,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    written: usize,
    /// Large body parts queued after `outbuf`, kept as the `Bytes` the
    /// writer produced (zero-copy for `Content-Length` framing).  Wire
    /// order is always `outbuf[written..]` first, then the tail in order.
    tail: VecDeque<bytes::Bytes>,
    /// Total bytes across `tail` (kept in step for O(1) window checks).
    tail_len: usize,
    /// The response currently being emitted incrementally.
    active: Option<ResponseWriter>,
    /// Responses dispatched but not yet started (pipelining).
    queued: VecDeque<Response>,
    /// Protocol liveness: false once a request (`Connection: close`), a
    /// parse error, a stream abort, or exhausted-after-EOF input decided
    /// the connection must close.
    open: bool,
    /// The transport saw EOF: whatever is buffered is the last input.
    eof: bool,
    /// Keep-alive decision of the offloaded in-flight service call, if one
    /// is outstanding (input parsing pauses while it is).
    pending_call: Option<bool>,
    /// A chunk pull for the active writer is running off-engine.
    pending_pull: bool,
    /// Response whose body is being buffered off-engine before activation
    /// (the HTTP/1.0 unknown-length path).
    pending_activation: Option<Response>,
    /// Complete requests parsed over the connection's lifetime.  Transports
    /// re-arm their per-connection deadline when this advances: buffered
    /// bytes that never become a request (slow-loris drip) do not count as
    /// progress, so the connection is evicted at the deadline.
    requests_parsed: u64,
    gauge: Arc<OutputGauge>,
}

impl HttpConn {
    /// A fresh connection from `peer`.
    pub fn new(peer: IpAddr, gauge: Arc<OutputGauge>) -> HttpConn {
        HttpConn {
            peer,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            written: 0,
            tail: VecDeque::new(),
            tail_len: 0,
            active: None,
            queued: VecDeque::new(),
            open: true,
            eof: false,
            pending_call: None,
            pending_pull: false,
            pending_activation: None,
            requests_parsed: 0,
            gauge,
        }
    }

    /// Appends bytes read off the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.inbuf.extend_from_slice(bytes);
    }

    /// Advances the engine as far as it can without risking a blocking
    /// operation: parses buffered input, runs inline-classified service
    /// calls, and pumps response bytes into the output window.  Returns the
    /// next unit of [`Work`] that must run elsewhere (marking it in-flight
    /// — call `advance` again to keep going; it returns `None` once nothing
    /// can proceed without a completion, more input, or a flush).
    pub fn advance(&mut self, service: &dyn HttpService, ctx_factory: &CtxFactory) -> Option<Work> {
        if self.pending_call.is_none() {
            while self.open {
                let (mut request, consumed) = match parse_request(&self.inbuf) {
                    Ok(ParseOutcome::Complete { message, consumed }) => (message, consumed),
                    Ok(ParseOutcome::Partial) => {
                        if self.eof {
                            // No more bytes are coming; whatever is left
                            // can never become a request.
                            self.open = false;
                        }
                        break;
                    }
                    Err(error) => {
                        // The stream is unrecoverable past a parse error:
                        // answer with the most specific status (431 for
                        // header floods, 413 for oversized payloads, 400
                        // otherwise) and close without looking at later
                        // bytes.
                        let status = match error {
                            HttpError::HeadersTooLarge { .. } => {
                                StatusCode::REQUEST_HEADER_FIELDS_TOO_LARGE
                            }
                            HttpError::BodyTooLarge { .. } => StatusCode::PAYLOAD_TOO_LARGE,
                            _ => StatusCode::BAD_REQUEST,
                        };
                        self.queued.push_back(Response::error(status));
                        self.open = false;
                        break;
                    }
                };
                self.inbuf.drain(..consumed);
                self.requests_parsed += 1;
                request.client_ip = self.peer;
                let keep_alive = request.headers.keep_alive(request.version_11);
                let ctx = ctx_factory.make(self.peer);
                if matches!(
                    service.dispatch_hint(&request, &ctx),
                    DispatchHint::MayBlock
                ) {
                    // Park the input side until the call completes; the
                    // output side keeps pumping earlier responses.
                    self.pending_call = Some(keep_alive);
                    return Some(Work::Call {
                        request: Box::new(request),
                        ctx,
                    });
                }
                // The wire is where platform errors become status codes —
                // and panics become 500s rather than unwinding the thread
                // driving this engine (an event loop serving every other
                // connection too).
                let response = match contained_call(service, request, &ctx) {
                    Ok(response) => response,
                    Err(error) => error.to_response(),
                };
                self.queued.push_back(response);
                if !keep_alive {
                    self.open = false;
                }
            }
        }
        self.pump()
    }

    /// Feeds the completion of an offloaded unit of [`Work`] back into the
    /// engine.  The caller should [`advance`](HttpConn::advance) (and
    /// flush) afterwards — a completed call unparks input parsing, a
    /// completed pull usually makes the next pull possible.
    pub fn complete(&mut self, done: Done) {
        match done {
            Done::Call(result) => {
                let keep_alive = self
                    .pending_call
                    .take()
                    .expect("call completion without a call in flight");
                let response = match result {
                    Ok(response) => response,
                    Err(error) => error.to_response(),
                };
                self.queued.push_back(response);
                if !keep_alive {
                    self.open = false;
                }
            }
            Done::Pull(read) => {
                debug_assert!(
                    self.pending_pull,
                    "pull completion without a pull in flight"
                );
                self.pending_pull = false;
                let Some(writer) = self.active.as_mut() else {
                    return;
                };
                match writer.accept_chunk(read) {
                    Ok(part) => {
                        let finished = writer.is_done();
                        if let Some(part) = part {
                            self.emit(part);
                        }
                        if finished {
                            self.active = None;
                        }
                    }
                    Err(_) => self.abort(),
                }
            }
            Done::Buffer { panicked } => {
                let response = self
                    .pending_activation
                    .take()
                    .expect("buffer completion without an activation in flight");
                if panicked {
                    // The body's mutex is poisoned; building a writer over
                    // it would re-panic on this thread.  Drop the response
                    // and abort the connection instead.
                    drop(response);
                    self.abort();
                    return;
                }
                // The body's shared state is now Buffered (or Failed, which
                // the writer surfaces as an abort on its first part).
                self.active = Some(ResponseWriter::new(response));
            }
        }
    }

    /// Moves response bytes into the output buffer until the window is
    /// full, there is nothing left to emit, or the next step might block —
    /// then that step is returned as [`Work`].  Called from
    /// [`advance`](HttpConn::advance), which the transport calls again
    /// after every flush, so a draining socket keeps pulling the next chunk
    /// of a streamed body — and nothing pulls chunks faster than the socket
    /// drains them.
    fn pump(&mut self) -> Option<Work> {
        if self.pending_pull || self.pending_activation.is_some() {
            // The active (or activating) response is waiting on a worker;
            // later responses must not jump the FIFO.
            return None;
        }
        loop {
            if self.pending_len() + PART_HEADROOM_BYTES > OUTPUT_WINDOW_BYTES {
                return None;
            }
            if self.active.is_none() {
                let response = self.queued.pop_front()?;
                // An unknown-length stream bound for a 1.0 client must be
                // buffered to learn its Content-Length — a blocking drain
                // the reactor hands to a worker.
                if !response.version_11
                    && response.body.size_hint().is_none()
                    && response.body.may_block()
                {
                    let body = response.body.clone();
                    self.pending_activation = Some(response);
                    return Some(Work::Buffer { body });
                }
                self.active = Some(ResponseWriter::new(response));
            }
            let writer = self.active.as_mut().expect("writer installed above");
            if writer.next_pull_may_block() {
                self.pending_pull = true;
                let body = writer.body_handle();
                return Some(Work::Pull { body });
            }
            match writer.next_part() {
                Ok(Some(part)) => self.emit(part),
                Ok(None) => self.active = None,
                Err(_) => {
                    self.abort();
                    return None;
                }
            }
        }
    }

    /// Appends one wire part to the pending output.  Small parts coalesce
    /// into the contiguous front buffer (compacting its flushed prefix
    /// first, so a long-lived keep-alive connection does not accrete every
    /// response it ever sent); large parts keep their `Bytes` identity in
    /// the tail queue, where the reactor's `writev` sends them without
    /// another copy.  A part can only join the front buffer while the tail
    /// is empty — wire order is front-then-tail, always.
    fn emit(&mut self, part: bytes::Bytes) {
        if part.is_empty() {
            return;
        }
        if !self.tail.is_empty() || part.len() >= TAIL_THRESHOLD_BYTES {
            self.tail_len += part.len();
            self.tail.push_back(part);
        } else {
            if self.written > 0 {
                self.outbuf.drain(..self.written);
                self.written = 0;
            }
            self.outbuf.extend_from_slice(&part);
        }
        self.gauge.note(self.pending_len());
    }

    /// Mid-body failure after the head went out: the only honest signal
    /// left is truncation.  Abort the connection (later pipelined
    /// responses die with it).
    fn abort(&mut self) {
        self.active = None;
        self.queued.clear();
        self.open = false;
    }

    /// The first contiguous run of serialized bytes not yet written to the
    /// socket: the front buffer while it has unsent bytes, then each tail
    /// part in turn.  Looping `pending_output`/
    /// [`advance_output`](HttpConn::advance_output) sees every pending byte
    /// exactly once.  The reactor flushes with
    /// [`output_slices`](HttpConn::output_slices) (one gathering write per
    /// pass — separate syscalls per run would emit separate TCP segments);
    /// this byte-wise view remains for the engine tests, which assert on
    /// output without a socket.
    #[cfg(test)]
    pub fn pending_output(&self) -> &[u8] {
        let front = &self.outbuf[self.written..];
        if !front.is_empty() {
            return front;
        }
        self.tail.front().map(|part| &part[..]).unwrap_or(&[])
    }

    /// Every pending output run, in wire order, as `writev` iovecs.
    pub fn output_slices(&self) -> Vec<io::IoSlice<'_>> {
        let mut slices = Vec::with_capacity(1 + self.tail.len());
        let front = &self.outbuf[self.written..];
        if !front.is_empty() {
            slices.push(io::IoSlice::new(front));
        }
        slices.extend(self.tail.iter().map(|part| io::IoSlice::new(part)));
        slices
    }

    fn pending_len(&self) -> usize {
        self.outbuf.len() - self.written + self.tail_len
    }

    /// True while serialized-but-unsent bytes are waiting for the socket —
    /// the condition under which a readiness transport registers write
    /// interest (unlike [`wants_write`](HttpConn::wants_write), this is
    /// false while the next bytes are still being produced by a worker).
    pub fn has_unsent_output(&self) -> bool {
        self.pending_len() > 0
    }

    /// Records that `n` bytes of pending output reached the socket.  The
    /// transport refills the freed window through
    /// [`advance`](HttpConn::advance), so pulls can be offloaded.
    pub fn advance_output(&mut self, n: usize) {
        let mut n = n;
        let take = n.min(self.outbuf.len() - self.written);
        self.written += take;
        n -= take;
        while n > 0 {
            let front = self
                .tail
                .front_mut()
                .expect("advanced past the pending output");
            if n >= front.len() {
                n -= front.len();
                self.tail_len -= front.len();
                self.tail.pop_front();
            } else {
                self.tail_len -= n;
                *front = front.slice(n..);
                n = 0;
            }
        }
    }

    /// True while this connection still owes the client response bytes:
    /// buffered output, an in-flight response, or queued ones.  Can be true
    /// while [`has_unsent_output`](HttpConn::has_unsent_output) is false
    /// (the next bytes are on a worker).
    fn wants_write(&self) -> bool {
        self.pending_len() > 0 || self.active.is_some() || !self.queued.is_empty()
    }

    /// True while the engine can make use of more input bytes: the
    /// connection is protocol-open, the transport has not seen EOF, and
    /// input parsing is not parked behind an offloaded service call.
    pub fn wants_read(&self) -> bool {
        self.open && !self.eof && self.pending_call.is_none()
    }

    /// Marks end of input from the transport (EOF or socket error).
    /// Requests already buffered are still parsed and answered — a client
    /// may write a complete request and half-close in the same packet —
    /// but once the buffered input no longer holds a complete request the
    /// connection closes after its pending output flushes.
    pub fn close(&mut self) {
        self.eof = true;
    }

    /// Number of complete requests parsed so far.  Deadline-driven
    /// transports treat an advance of this counter as proof of protocol
    /// progress; see the field doc on `requests_parsed`.
    pub fn requests_parsed(&self) -> u64 {
        self.requests_parsed
    }

    /// True when no response bytes are in flight on the wire: nothing
    /// mid-emission, nothing queued, nothing buffered unsent.  At such a
    /// boundary a transport evicting the connection can still write a
    /// framing-safe courtesy response (408).
    pub fn at_response_boundary(&self) -> bool {
        self.active.is_none() && self.queued.is_empty() && !self.has_unsent_output()
    }

    /// True while an offloaded unit of [`Work`] is outstanding.
    pub fn has_pending_work(&self) -> bool {
        self.pending_call.is_some() || self.pending_pull || self.pending_activation.is_some()
    }

    /// True when the connection is finished: close decided, output fully
    /// flushed, and no offloaded work still in flight.
    pub fn done(&self) -> bool {
        !self.open && !self.wants_write() && !self.has_pending_work()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WallClock;
    use bytes::Bytes;
    use nakika_core::service::{service_fn, NakikaError, RequestCtx};
    use nakika_http::{Body, Request};
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Arc;

    fn echo_path_service() -> Arc<dyn HttpService> {
        service_fn(|req: Request, _ctx| Ok(Response::ok("text/plain", req.uri.path.clone())))
    }

    fn factory() -> CtxFactory {
        CtxFactory::new(Arc::new(WallClock))
    }

    fn peer() -> IpAddr {
        IpAddr::V4(Ipv4Addr::LOCALHOST)
    }

    fn gauge() -> Arc<OutputGauge> {
        Arc::new(OutputGauge::default())
    }

    /// Drives the engine the way a transport with nowhere else to run work
    /// would: every unit of [`Work`] that `advance` hands back runs on the
    /// spot and its completion is fed straight in.
    fn drive(conn: &mut HttpConn, service: &dyn HttpService, factory: &CtxFactory) {
        while let Some(work) = conn.advance(service, factory) {
            conn.complete(work.run(service));
        }
    }

    #[test]
    fn pipelined_requests_produce_in_order_responses() {
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n");
        drive(&mut conn, &*echo_path_service(), &factory());
        let out = String::from_utf8_lossy(conn.pending_output()).to_string();
        let a = out.find("/a").expect("first response present");
        let b = out.find("/b").expect("second response present");
        assert!(a < b, "responses keep request order");
        assert!(conn.open);
    }

    #[test]
    fn partial_requests_wait_for_more_bytes() {
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /a HTTP/1.1\r\nHo");
        drive(&mut conn, &*echo_path_service(), &factory());
        assert!(conn.open);
        assert!(!conn.wants_write());
        conn.feed(b"st: x\r\n\r\n");
        drive(&mut conn, &*echo_path_service(), &factory());
        assert!(conn.open);
        assert!(String::from_utf8_lossy(conn.pending_output()).contains("/a"));
    }

    #[test]
    fn connection_close_ends_the_session_after_flush() {
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /a HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        drive(&mut conn, &*echo_path_service(), &factory());
        assert!(!conn.open);
        assert!(!conn.done(), "output still pending");
        let n = conn.pending_output().len();
        conn.advance_output(n);
        assert!(conn.done());
    }

    #[test]
    fn malformed_input_queues_400_and_closes() {
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"NOT A VALID REQUEST\r\n\r\n");
        drive(&mut conn, &*echo_path_service(), &factory());
        assert!(!conn.open);
        assert!(String::from_utf8_lossy(conn.pending_output()).starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn eof_still_answers_buffered_requests_then_closes() {
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /last HTTP/1.1\r\nHost: x\r\n\r\n");
        conn.close();
        drive(&mut conn, &*echo_path_service(), &factory());
        assert!(!conn.open);
        assert!(String::from_utf8_lossy(conn.pending_output()).contains("/last"));
        let n = conn.pending_output().len();
        conn.advance_output(n);
        assert!(conn.done());
    }

    #[test]
    fn flushed_output_is_compacted() {
        let mut conn = HttpConn::new(peer(), gauge());
        let service = echo_path_service();
        let factory = factory();
        for i in 0..3 {
            conn.feed(format!("GET /r{i} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes());
            drive(&mut conn, &*service, &factory);
            let n = conn.pending_output().len();
            conn.advance_output(n);
        }
        assert!(!conn.wants_write());
        conn.feed(b"GET /last HTTP/1.1\r\nHost: x\r\n\r\n");
        drive(&mut conn, &*service, &factory);
        let out = String::from_utf8_lossy(conn.pending_output()).to_string();
        assert!(out.contains("/last"));
        assert!(
            !out.contains("/r0"),
            "earlier responses were compacted away"
        );
    }

    #[test]
    fn vectored_tail_preserves_wire_order_and_byte_accounting() {
        // A response whose body mixes parts below and above the tail
        // threshold: heads and small chunks coalesce in the front buffer,
        // large chunks ride the tail — and the wire sees one ordered
        // stream either way, whether drained byte-wise (pending_output)
        // or gathered (output_slices).
        let big_a = Bytes::from(vec![b'A'; 8 * 1024]);
        let big_b = Bytes::from(vec![b'B'; 8 * 1024]);
        let chunks = vec![
            Bytes::from_static(b"tiny-"),
            big_a,
            Bytes::from_static(b"-mid-"),
            big_b,
        ];
        let total: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let service = service_fn(move |_req: Request, _ctx| {
            let mut resp = Response::new(StatusCode::OK);
            resp.body = Body::stream_from_iter(chunks.clone(), Some(total));
            Ok(resp)
        });
        let expected_body: usize = total as usize;

        // Gather path: every pending byte appears exactly once, in order.
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /v HTTP/1.1\r\nHost: x\r\n\r\n");
        drive(&mut conn, &*service, &factory());
        let mut gathered = Vec::new();
        while conn.wants_write() {
            let slices = conn.output_slices();
            assert!(!slices.is_empty());
            let n: usize = slices.iter().map(|s| s.len()).sum();
            for s in &slices {
                gathered.extend_from_slice(s);
            }
            conn.advance_output(n);
        }
        let head_end = gathered
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator")
            + 4;
        let body = &gathered[head_end..];
        assert_eq!(body.len(), expected_body);
        assert!(body.starts_with(b"tiny-"));
        assert!(body[5..].starts_with(&[b'A'; 8 * 1024][..]));

        // Byte-wise path with awkward advances (splitting tail parts).
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /v HTTP/1.1\r\nHost: x\r\n\r\n");
        drive(&mut conn, &*service, &factory());
        let mut dribbled = Vec::new();
        while conn.wants_write() {
            let pending = conn.pending_output();
            assert!(!pending.is_empty());
            let take = (pending.len() / 2).clamp(1, 3000);
            dribbled.extend_from_slice(&pending[..take]);
            conn.advance_output(take);
        }
        assert_eq!(dribbled, gathered, "both drain styles see identical bytes");
    }

    #[test]
    fn streamed_responses_emit_in_bounded_windows() {
        const TOTAL: usize = 4 * 1024 * 1024;
        let service = service_fn(|_req: Request, _ctx| {
            let chunks = (0..TOTAL / STREAM_CHUNK_BYTES)
                .map(|i| Bytes::from(vec![(i % 251) as u8; STREAM_CHUNK_BYTES]));
            let mut resp = Response::new(StatusCode::OK);
            resp.body = Body::stream_from_iter(chunks, Some(TOTAL as u64));
            Ok(resp)
        });
        let factory = factory();
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /big HTTP/1.1\r\nHost: x\r\n\r\n");
        drive(&mut conn, &*service, &factory);
        let mut received = Vec::new();
        let mut iterations = 0usize;
        while conn.wants_write() {
            let pending = conn.pending_output();
            assert!(
                pending.len() <= OUTPUT_WINDOW_BYTES,
                "window exceeded: {}",
                pending.len()
            );
            assert!(!pending.is_empty(), "wants_write implies pending bytes");
            // Drain like a slow socket: half the pending bytes at a time.
            let take = (pending.len() / 2).max(1);
            received.extend_from_slice(&pending[..take]);
            conn.advance_output(take);
            // The transport refills the freed window after every flush.
            drive(&mut conn, &*service, &factory);
            iterations += 1;
            assert!(iterations < 1_000_000, "pump makes progress");
        }
        let text_head_end = received
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator")
            + 4;
        assert_eq!(received.len() - text_head_end, TOTAL, "full body relayed");
    }

    #[test]
    fn failed_body_stream_aborts_the_connection() {
        struct Failing(u32);
        impl nakika_http::ChunkSource for Failing {
            fn next_chunk(&mut self) -> std::io::Result<Option<Bytes>> {
                self.0 += 1;
                if self.0 == 1 {
                    Ok(Some(Bytes::from_static(b"partial")))
                } else {
                    Err(std::io::Error::other("upstream died"))
                }
            }
        }
        let service = service_fn(|_req: Request, _ctx| {
            let mut resp = Response::new(StatusCode::OK);
            resp.body = Body::stream(Failing(0), Some(1_000_000));
            Ok(resp)
        });
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /dies HTTP/1.1\r\nHost: x\r\n\r\n");
        drive(&mut conn, &*service, &factory());
        // The head (and the partial chunk) may be pending; the connection
        // must be marked for close so the client sees the truncation.
        assert!(!conn.open);
        let n = conn.pending_output().len();
        conn.advance_output(n);
        assert!(conn.done());
    }

    /// A service whose hint is `Inline` for `/warm/…` paths and `MayBlock`
    /// otherwise, for stepping through the work hand-off by hand.
    struct HintedEcho;

    impl HttpService for HintedEcho {
        fn call(&self, req: Request, _ctx: &RequestCtx) -> Result<Response, NakikaError> {
            Ok(Response::ok("text/plain", req.uri.path.clone()))
        }

        fn dispatch_hint(&self, req: &Request, _ctx: &RequestCtx) -> DispatchHint {
            if req.uri.path.starts_with("/warm/") {
                DispatchHint::Inline
            } else {
                DispatchHint::MayBlock
            }
        }
    }

    #[test]
    fn may_block_calls_park_the_input_side_until_completed() {
        let service = HintedEcho;
        let factory = factory();
        let mut conn = HttpConn::new(peer(), gauge());
        // A warm request runs inline, no work produced.
        conn.feed(b"GET /warm/a HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(conn.advance(&service, &factory).is_none());
        assert!(String::from_utf8_lossy(conn.pending_output()).contains("/warm/a"));
        let n = conn.pending_output().len();
        conn.advance_output(n);

        // A cold request is handed back as Work::Call; input parsing parks.
        conn.feed(
            b"GET /cold/b HTTP/1.1\r\nHost: x\r\n\r\nGET /warm/c HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let work = conn
            .advance(&service, &factory)
            .expect("cold call offloads");
        assert!(matches!(work, Work::Call { .. }));
        assert!(conn.has_pending_work());
        assert!(!conn.wants_read(), "input parses only after completion");
        assert!(
            conn.advance(&service, &factory).is_none(),
            "nothing proceeds while the call is in flight"
        );
        assert!(!conn.has_unsent_output());

        // Completing the call queues its response and unparks the input
        // side: the pipelined warm request now runs inline, in order.
        conn.complete(work.run(&service));
        assert!(!conn.has_pending_work());
        assert!(conn.advance(&service, &factory).is_none());
        let out = String::from_utf8_lossy(conn.pending_output()).to_string();
        let cold = out.find("/cold/b").expect("offloaded response present");
        let warm = out.find("/warm/c").expect("pipelined response present");
        assert!(cold < warm, "responses keep request order across offloads");
    }

    #[test]
    fn panicking_inline_service_becomes_a_500_not_a_dead_thread() {
        struct Panicking;
        impl HttpService for Panicking {
            fn call(&self, _req: Request, _ctx: &RequestCtx) -> Result<Response, NakikaError> {
                panic!("service bug");
            }
            fn dispatch_hint(&self, _req: &Request, _ctx: &RequestCtx) -> DispatchHint {
                // The dangerous case: an Inline-classified call runs on the
                // thread driving the engine — on the reactor, an event loop.
                DispatchHint::Inline
            }
        }
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /boom HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(conn.advance(&Panicking, &factory()).is_none());
        let out = String::from_utf8_lossy(conn.pending_output()).to_string();
        assert!(out.starts_with("HTTP/1.1 500"), "out: {out}");
        assert!(out.contains("panicked"), "out: {out}");
        assert!(conn.open, "the connection survives the panic");
    }

    #[test]
    fn blocking_streams_are_pulled_through_work() {
        /// An in-memory source that *claims* to block, standing in for an
        /// origin socket.
        struct BlockingIter {
            chunks: VecDeque<Bytes>,
        }
        impl nakika_http::ChunkSource for BlockingIter {
            fn next_chunk(&mut self) -> std::io::Result<Option<Bytes>> {
                Ok(self.chunks.pop_front())
            }
            fn may_block(&self) -> bool {
                true
            }
        }
        struct StreamService;
        impl HttpService for StreamService {
            fn call(&self, _req: Request, _ctx: &RequestCtx) -> Result<Response, NakikaError> {
                let mut resp = Response::new(StatusCode::OK);
                resp.body = Body::stream(
                    BlockingIter {
                        chunks: VecDeque::from(vec![
                            Bytes::from_static(b"hello "),
                            Bytes::from_static(b"world"),
                        ]),
                    },
                    Some(11),
                );
                Ok(resp)
            }
            fn dispatch_hint(&self, _req: &Request, _ctx: &RequestCtx) -> DispatchHint {
                DispatchHint::Inline
            }
        }

        let service = StreamService;
        let factory = factory();
        let mut conn = HttpConn::new(peer(), gauge());
        conn.feed(b"GET /movie HTTP/1.1\r\nHost: x\r\n\r\n");
        // The head emits inline; each chunk comes back as Work::Pull.
        let mut pulls = 0;
        while let Some(work) = conn.advance(&service, &factory) {
            assert!(matches!(work, Work::Pull { .. }));
            pulls += 1;
            assert!(pulls < 10, "stream terminates");
            conn.complete(work.run(&service));
        }
        assert!(!conn.has_pending_work());
        let out = String::from_utf8_lossy(conn.pending_output()).to_string();
        assert!(out.contains("Content-Length: 11"), "out: {out}");
        assert!(out.ends_with("hello world"));
        assert!(conn.open, "keep-alive survives an offloaded stream");
    }

    mod partial_writes {
        use super::*;
        use proptest::prelude::*;

        /// Answers `requests` pipelined GETs with `body` and drains the
        /// connection like a socket that takes `writes[i]` bytes on its
        /// i-th write (cycled).  Returns the wire bytes.
        ///
        /// Checks on the way: every tail run is a response head or a view
        /// of `body`'s allocation, and after each write the new front run
        /// starts exactly where the write stopped — a partially written
        /// part is re-pointed, never copied.
        fn drain(body: &Bytes, requests: usize, writes: &[usize]) -> Vec<u8> {
            let served = body.clone();
            let service = service_fn(move |_req: Request, _ctx| {
                let mut resp = Response::new(StatusCode::OK);
                resp.body = Body::from_bytes(served.clone());
                Ok(resp)
            });
            let factory = factory();
            let mut conn = HttpConn::new(peer(), gauge());
            for _ in 0..requests {
                conn.feed(b"GET /obj HTTP/1.1\r\nHost: x\r\n\r\n");
            }
            drive(&mut conn, &*service, &factory);
            let body_range = body.as_ptr_range();
            let mut wire = Vec::new();
            let mut i = 0;
            while conn.wants_write() {
                let runs: Vec<(*const u8, usize)> = conn
                    .output_slices()
                    .iter()
                    .map(|run| (run.as_ptr(), run.len()))
                    .collect();
                for (k, run) in conn.output_slices().iter().enumerate().skip(1) {
                    let in_body = body_range.contains(&run.as_ptr())
                        && run.as_ptr().wrapping_add(run.len()) <= body_range.end;
                    assert!(
                        in_body || run.starts_with(b"HTTP/1.1 "),
                        "tail run {k} is neither a head nor a view of the body"
                    );
                }
                let pending: usize = runs.iter().map(|&(_, len)| len).sum();
                let n = writes[i % writes.len()].min(pending);
                i += 1;
                let mut left = n;
                for run in conn.output_slices() {
                    let take = left.min(run.len());
                    wire.extend_from_slice(&run[..take]);
                    left -= take;
                }
                conn.advance_output(n);
                // Where the write stopped: `rest` bytes into some run.
                let mut rest = n;
                let cut = runs.iter().find_map(|&(ptr, len)| {
                    if rest < len {
                        Some(ptr.wrapping_add(rest))
                    } else {
                        rest -= len;
                        None
                    }
                });
                if let Some(expected) = cut {
                    assert_eq!(
                        conn.output_slices()[0].as_ptr(),
                        expected,
                        "the unwritten rest of a part moved"
                    );
                }
                drive(&mut conn, &*service, &factory);
                assert!(i < 1_000_000, "output drains");
            }
            wire
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// However the socket splits its writes, the wire carries the
            /// same bytes as one unbroken drain, and no body byte is copied
            /// on the way out.
            #[test]
            fn partial_writes_keep_the_wire_and_the_views(
                len in 0usize..4 * STREAM_CHUNK_BYTES + 100,
                pad in 0usize..100,
                requests in 1usize..3,
                raw_writes in prop::collection::vec(1usize..100_000, 1..8),
            ) {
                // The body is itself a view: `pad` bytes into a larger buffer.
                let parent: Bytes = (0..pad + len).map(|i| (i % 251) as u8).collect();
                let body = parent.slice(pad..);
                let writes: Vec<usize> = raw_writes
                    .iter()
                    .map(|&w| if w % 4 == 0 { w % 700 + 1 } else { w })
                    .collect();
                let reference = drain(&body, requests, &[usize::MAX]);
                let head_len = reference.len() / requests - len;
                prop_assert!(reference.starts_with(b"HTTP/1.1 200"));
                let mut expected = Vec::new();
                for _ in 0..requests {
                    expected.extend_from_slice(&reference[..head_len]);
                    expected.extend_from_slice(&body);
                }
                prop_assert_eq!(&reference, &expected);
                prop_assert_eq!(drain(&body, requests, &writes), reference);
            }
        }
    }
}
