//! The blocking HTTP clients: [`TcpOrigin`] (a node's outbound fetch path,
//! with its keep-alive pool), the one-shot `http_fetch*` helpers and the
//! keep-alive [`ProxyClient`].
//!
//! None of them interprets response framing.  They all drive the sans-IO
//! [`ResponseRelay`] through [`BlockingRelay`] — read, feed, pop events; EOF
//! is `close()` — exactly as the reactor drives the same relay from its
//! readiness loop.

use crate::relay::{RelayEvent, ResponseRelay};
use bytes::Bytes;
use nakika_core::peering;
use nakika_core::service::NakikaError;
use nakika_core::OriginFetch;
use nakika_http::serialize::{serialize_request, serialize_request_absolute};
use nakika_http::{Body, ChunkSource, Request, Response};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long a blocking client waits for upstream bytes before giving up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A pool key: the host and port a connection goes to.
type HostPort = (String, u16);

/// The shared connection pool behind [`TcpOrigin`].  Separated out so a
/// streamed body — which owns the socket while its chunks are relayed — can
/// return the connection here when it reaches a clean end of body.
struct PoolInner {
    idle: Mutex<HashMap<HostPort, Vec<TcpStream>>>,
    max_idle_per_host: usize,
}

impl PoolInner {
    fn park(&self, key: &HostPort, stream: TcpStream) {
        let mut pool = self.idle.lock();
        let idle = pool.entry(key.clone()).or_default();
        if idle.len() < self.max_idle_per_host {
            idle.push(stream);
        }
    }
}

/// The [`NakikaError::Upstream`] for a fetch of `url` that failed for `reason`.
fn upstream(url: &str, reason: String) -> NakikaError {
    NakikaError::Upstream {
        url: url.to_string(),
        reason,
    }
}

/// An [`OriginFetch`] that performs real outbound HTTP/1.1 requests over
/// TCP, reusing keep-alive connections through a small per-host pool.
///
/// Since the v2 streaming redesign, [`TcpOrigin::fetch`] returns as soon as
/// the response *head* has arrived: the body is a
/// [`Body::Stream`](nakika_http::Body) that pulls bytes off the origin
/// socket as downstream consumers (the connection engine relaying to a
/// client, or the proxy cache's tee) ask for them.  The socket returns to
/// the keep-alive pool only when the body is drained to a clean end; a
/// body dropped half-read closes its connection.
pub struct TcpOrigin {
    pool: Arc<PoolInner>,
}

impl TcpOrigin {
    /// An origin fetcher keeping up to 4 idle connections per host.
    pub fn new() -> TcpOrigin {
        TcpOrigin {
            pool: Arc::new(PoolInner {
                idle: Mutex::new(HashMap::new()),
                max_idle_per_host: 4,
            }),
        }
    }

    /// Number of idle pooled connections to `host:port` (for tests).
    pub fn idle_connections(&self, host: &str, port: u16) -> usize {
        self.pool
            .idle
            .lock()
            .get(&(host.to_string(), port))
            .map(Vec::len)
            .unwrap_or(0)
    }

    /// Fetches `request` from its origin, reusing a pooled connection when
    /// one is available.  The returned response's body streams from the
    /// origin socket; the connection is parked back into the pool when the
    /// (keep-alive) body is drained cleanly.
    pub fn fetch(&self, request: &Request) -> Result<Response, NakikaError> {
        let uri = request.uri.to_origin();
        let url = uri.to_string();
        let key = (uri.host.clone(), uri.port);
        let mut outbound = request.clone();
        outbound.uri = uri;
        // Connection management is this hop's business: forwarding a
        // client's hop-by-hop `Connection: close` would defeat the pool.
        outbound.headers.remove("Connection");
        self.exchange(&key, &serialize_request(&outbound), request)
            .map_err(|reason| upstream(&url, reason))
    }

    /// Sends `wire` to `key`'s host and reads the response head, over a
    /// pooled connection when one is idle.
    ///
    /// A pooled connection may have been closed by the upstream since it
    /// was parked; a failure before the head arrives falls back to a fresh
    /// connection.  Only idempotent requests take that path — a replayed
    /// POST could execute its side effect twice if the upstream processed
    /// the first attempt before closing.  (A *body* failure later is not
    /// retried: by then chunks may already be relayed.)
    fn exchange(&self, key: &HostPort, wire: &[u8], request: &Request) -> Result<Response, String> {
        let park = || Some((self.pool.clone(), key.clone()));
        if request.method.is_idempotent() {
            let pooled = self.pool.idle.lock().get_mut(key).and_then(Vec::pop);
            if let Some(stream) = pooled {
                if let Ok(response) = exchange_streaming(stream, wire, park()) {
                    return Ok(response);
                }
            }
        }
        let stream = TcpStream::connect((key.0.as_str(), key.1))
            .map_err(|e| format!("connect failed: {e}"))?;
        exchange_streaming(stream, wire, park())
    }
}

impl Default for TcpOrigin {
    fn default() -> TcpOrigin {
        TcpOrigin::new()
    }
}

impl OriginFetch for TcpOrigin {
    /// Misses through this origin are plain outbound HTTP over TCP — the
    /// server may serve them as an event-loop splice instead of
    /// calling [`fetch_origin`](OriginFetch::fetch_origin) on a worker.
    fn relay_eligible(&self) -> bool {
        true
    }

    fn fetch_origin(&self, request: &Request) -> Response {
        match self.fetch(request) {
            Ok(response) => response,
            Err(error) => error.to_response(),
        }
    }

    /// Fetches `request` from a peer Na Kika node over TCP.  `peer` is the
    /// base URL the peer announced to the overlay (`http://host:port`); the
    /// request goes through the peer's proxy front-end in absolute form, on
    /// the same keep-alive pool that serves origin fetches — node-to-node
    /// traffic (peer fetches, replication pushes, gossip probes) is the
    /// steadiest traffic a node generates, so paying a TCP handshake per
    /// exchange was pure overhead.  The body streams hop by hop, and the
    /// socket is parked back into the pool once it drains cleanly.
    /// Connection and read failures come back as [`NakikaError::Upstream`]
    /// naming the peer, letting the node count the failure and fall back to
    /// the origin without hiding the dead peer.
    fn fetch_peer(&self, peer: &str, request: &Request) -> Result<Response, NakikaError> {
        let url = request.uri.to_string();
        let peer_error = |reason: String| upstream(&url, format!("peer {peer}: {reason}"));
        let key = peering::peer_host_port(peer)
            .ok_or_else(|| peer_error("not a base URL".to_string()))?;
        let mut outbound = request.clone();
        // Connection management is this hop's business (see `fetch`).
        outbound.headers.remove("Connection");
        self.exchange(&key, &serialize_request_absolute(&outbound), request)
            .map_err(peer_error)
    }
}

/// The blocking executor of a [`ResponseRelay`]: pulls bytes from `reader`
/// whenever the relay has no event left to hand out.  As a [`ChunkSource`]
/// it is the streamed body of the response it read the head of; a clean end
/// of body on a reusable connection hands the reader back through `park`,
/// an early close surfaces as an error naming the byte counts — never a
/// silent truncation.
pub(crate) struct BlockingRelay<R> {
    /// `None` once the response ended: parked, or dropped after a failure
    /// (the connection is no longer in a reusable state).
    reader: Option<R>,
    relay: ResponseRelay,
    events: std::vec::IntoIter<RelayEvent>,
    buf: Box<[u8]>,
    park: Option<Box<dyn FnOnce(R) + Send>>,
}

impl<R: Read> BlockingRelay<R> {
    pub(crate) fn new(
        reader: R,
        decode_limit: Option<usize>,
        park: Option<Box<dyn FnOnce(R) + Send>>,
    ) -> BlockingRelay<R> {
        BlockingRelay {
            reader: Some(reader),
            relay: ResponseRelay::new(decode_limit),
            events: Vec::new().into_iter(),
            buf: vec![0u8; 16 * 1024].into_boxed_slice(),
            park,
        }
    }

    /// The relay's next event, reading as often as it takes to produce one.
    fn next_event(&mut self) -> Result<RelayEvent, String> {
        loop {
            if let Some(event) = self.events.next() {
                return Ok(event);
            }
            let Some(reader) = self.reader.as_mut() else {
                return Err("response already ended".to_string());
            };
            let mut events = Vec::new();
            let fed = match reader.read(&mut self.buf) {
                Ok(0) => self.relay.close(&mut events),
                Ok(n) => self.relay.feed(&self.buf[..n], &mut events),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => Err(format!("read failed: {e}")),
            };
            if let Err(reason) = fed {
                self.reader = None;
                return Err(reason);
            }
            self.events = events.into_iter();
        }
    }

    /// Reads up to the response head: the response (body still empty) and
    /// its declared length, if any.
    pub(crate) fn head(&mut self) -> Result<(Response, Option<u64>), String> {
        loop {
            if let RelayEvent::Head {
                response, declared, ..
            } = self.next_event()?
            {
                return Ok((*response, declared));
            }
        }
    }

    /// The next slice of body data; `None` once, at the clean end of body.
    pub(crate) fn next_data(&mut self) -> Result<Option<Bytes>, String> {
        loop {
            match self.next_event()? {
                RelayEvent::Data(data) => return Ok(Some(data)),
                RelayEvent::BodyDone => {
                    if let (Some(reader), Some(park)) = (self.reader.take(), self.park.take()) {
                        if self.relay.reusable() {
                            park(reader);
                        }
                    }
                    return Ok(None);
                }
                RelayEvent::Head { .. } => {}
            }
        }
    }

    /// Reads the rest of the response into `response`'s body.
    fn buffer_into(mut self, mut response: Response) -> Result<Response, String> {
        let mut body = Vec::new();
        while let Some(data) = self.next_data()? {
            body.extend_from_slice(&data);
        }
        response.body = Body::from_bytes(body);
        Ok(response)
    }

    /// Reads one complete response, body buffered.
    pub(crate) fn buffered(mut self) -> Result<Response, String> {
        let (response, _) = self.head()?;
        self.buffer_into(response)
    }
}

impl<R: Read + Send + 'static> BlockingRelay<R> {
    /// Reads the response head and attaches the rest as a streamed body —
    /// unless a length-framed body already arrived whole with the head, in
    /// which case no stream is needed.
    pub(crate) fn streaming(mut self) -> Result<Response, String> {
        let (mut response, declared) = self.head()?;
        if declared.is_some() && self.relay.is_done() {
            return self.buffer_into(response);
        }
        response.body = Body::stream(self, declared);
        Ok(response)
    }
}

impl<R: Read + Send> ChunkSource for BlockingRelay<R> {
    fn may_block(&self) -> bool {
        // Pulls read the upstream socket; the reactor must not do that on
        // an event-loop thread.
        true
    }

    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        self.next_data().map_err(io::Error::other)
    }
}

/// Writes `wire` to `stream` and hands the socket to a [`BlockingRelay`]
/// for the response.  When `park` names a pool and the response leaves the
/// connection reusable, the socket returns there once the body reaches a
/// clean end.
fn exchange_streaming(
    mut stream: TcpStream,
    wire: &[u8],
    park: Option<(Arc<PoolInner>, HostPort)>,
) -> Result<Response, String> {
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("socket setup failed: {e}"))?;
    stream
        .write_all(wire)
        .map_err(|e| format!("write failed: {e}"))?;
    let park = park.map(|(pool, key)| {
        Box::new(move |stream| pool.park(&key, stream)) as Box<dyn FnOnce(TcpStream) + Send>
    });
    BlockingRelay::new(stream, None, park).streaming()
}

/// Performs a one-shot blocking HTTP request (`Connection: close`) to the
/// host named in `request`'s URI, returning a response whose body streams
/// from the socket as it is consumed.
pub fn http_fetch_streaming(request: &Request) -> Result<Response, NakikaError> {
    let mut outbound = request.clone();
    outbound.uri = request.uri.to_origin();
    outbound.headers.set("Connection", "close");
    let url = outbound.uri.to_string();
    let stream = TcpStream::connect((outbound.uri.host.as_str(), outbound.uri.port))
        .map_err(|e| upstream(&url, format!("connect failed: {e}")))?;
    exchange_streaming(stream, &serialize_request(&outbound), None)
        .map_err(|reason| upstream(&url, reason))
}

/// Performs a one-shot blocking HTTP request (`Connection: close`) and
/// buffers the whole body before returning — the convenience client used by
/// tests and examples.  A peer that closes mid-body (a `Content-Length`
/// mismatch) surfaces as [`NakikaError::Upstream`], never as a silently
/// truncated body.
pub fn http_fetch(request: &Request) -> Result<Response, NakikaError> {
    let url = request.uri.to_origin().to_string();
    let mut response = http_fetch_streaming(request)?;
    response
        .body
        .buffer()
        .map_err(|e| upstream(&url, format!("body stream failed: {e}")))?;
    Ok(response)
}

/// Issues a plain GET to `url` (used by examples and tests as a tiny client).
pub fn http_get(url: &str) -> Result<Response, NakikaError> {
    http_fetch(&Request::get(url))
}

/// A minimal keep-alive HTTP/1.1 client for talking to a proxy: one TCP
/// connection, absolute-form request lines, as many sequential exchanges as
/// the caller wants.  This is what the benchmark suite and the concurrency
/// soak test use to hold many simultaneous keep-alive sessions open.
pub struct ProxyClient {
    stream: TcpStream,
}

impl ProxyClient {
    /// Connects to the proxy at `proxy`.
    pub fn connect(proxy: SocketAddr) -> Result<ProxyClient, NakikaError> {
        let url = format!("http://{proxy}");
        let stream = TcpStream::connect(proxy)
            .map_err(|e| upstream(&url, format!("connect failed: {e}")))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| upstream(&url, format!("socket setup failed: {e}")))?;
        Ok(ProxyClient { stream })
    }

    /// Issues one GET for `url` on the kept-alive connection and reads the
    /// complete response.
    pub fn get(&mut self, url: &str) -> Result<Response, NakikaError> {
        self.send(&Request::get(url))
    }

    /// Writes one absolute-form request and reads its response, fully
    /// buffered (the connection is reused for the next exchange, so the
    /// body must be drained before returning anyway).  Truncated bodies
    /// surface as [`NakikaError::Upstream`].
    fn send(&mut self, request: &Request) -> Result<Response, NakikaError> {
        let url = request.uri.to_string();
        self.stream
            .write_all(&serialize_request_absolute(request))
            .map_err(|e| upstream(&url, format!("write failed: {e}")))?;
        BlockingRelay::new(
            &mut self.stream,
            Some(nakika_http::parse::MAX_BODY_BYTES),
            None,
        )
        .buffered()
        .map_err(|reason| upstream(&url, reason))
    }
}

/// Issues a GET for `url` through the proxy at `proxy` (absolute-form request
/// line, as a browser configured with an explicit proxy would send), closing
/// the connection after the exchange.  One-shot wrapper over [`ProxyClient`].
pub fn http_get_via_proxy(proxy: SocketAddr, url: &str) -> Result<Response, NakikaError> {
    let mut client = ProxyClient::connect(proxy)?;
    let mut request = Request::get(url);
    request.headers.set("Connection", "close");
    client.send(&request)
}

/// Issues `request` through the proxy at `proxy` and returns as soon as the
/// response head arrives: the body streams from the proxy connection as it
/// is consumed.  This is the client half of a *bucket brigade* — a proxy
/// whose own upstream is another proxy uses this to relay a large response
/// hop by hop without any hop materializing it (see
/// `examples/streaming_brigade.rs`).
pub fn http_fetch_streaming_via_proxy(
    proxy: SocketAddr,
    request: &Request,
) -> Result<Response, NakikaError> {
    let url = request.uri.to_string();
    let mut outbound = request.clone();
    outbound.headers.set("Connection", "close");
    let stream =
        TcpStream::connect(proxy).map_err(|e| upstream(&url, format!("connect failed: {e}")))?;
    exchange_streaming(stream, &serialize_request_absolute(&outbound), None)
        .map_err(|reason| upstream(&url, reason))
}
