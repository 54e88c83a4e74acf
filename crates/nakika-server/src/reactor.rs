//! The server: readiness-driven HTTP/1.1 service over a handful of
//! event-loop threads, with blocking origin I/O offloaded to a worker pool.
//!
//! # Architecture
//!
//! An [`HttpServer`] runs one blocking *acceptor* thread, `N` *reactor*
//! threads, and one shared pool of `W` *offload workers* (both counts set
//! by [`ReactorConfig`]).  Each reactor owns a [`Poller`] (epoll on Linux,
//! poll elsewhere — see [`crate::sys`]) and the set of connections assigned
//! to it; accepted sockets are handed out round-robin, made non-blocking,
//! and from then on all their *client-side* I/O happens on that reactor's
//! thread, driven by readiness events.
//!
//! Per connection the reactor keeps a sans-IO [`HttpConn`] state machine:
//! readable events feed bytes in, and the engine's `advance` parses
//! complete requests, dispatches the ones the service stack classifies
//! [`DispatchHint::Inline`](nakika_core::service::DispatchHint) — warm
//! cache hits — right there on the reactor thread, and pumps serialized
//! output, which drains through non-blocking writes with `EPOLLOUT`
//! interest registered only while output is actually pending.  Keep-alive
//! connections therefore cost one slab slot and one epoll registration
//! while idle — not a parked thread — which is what lets one node hold
//! hundreds of simultaneous keep-alive clients.
//!
//! # The event-loop discipline, and parking
//!
//! The one rule of this module: **nothing on a reactor thread may block.**
//! Two operations in the request path can — a service call that misses the
//! cache and fetches from the origin, and pulling the next chunk of a
//! streamed response whose source is an origin socket.  For those, the
//! engine hands back a unit of [`Work`](crate::conn) instead of executing
//! it, and the reactor *parks* the connection: the in-flight side of the
//! engine stops (input parsing for a call, output pumping for a pull), the
//! fd is deregistered from readiness tracking once neither direction has
//! anything to do, and the slab slot is retained.  The work runs on the
//! worker pool; its completion lands in the reactor's completion queue and
//! the loopback self-pipe wakes the poller — the same wakeup path used for
//! newly accepted sockets — after which the completion is fed back into
//! the engine and the connection is re-armed with whatever interest it now
//! has.  A cold origin fetch thus costs its own connection a round trip
//! through the pool while every other connection on the reactor keeps
//! being served; see `docs/ARCHITECTURE.md`, "Life of a cache miss".
//!
//! A slot being parked is also why completions carry a generation counter:
//! a connection can die (write error, shutdown) while its work is still
//! running, and the slot may be reused by a new connection before the
//! stale completion arrives.  The generation check drops such orphans.
//!
//! Reactors are woken for new work through a loopback socket pair (the
//! self-pipe trick): the acceptor (or a worker) pushes onto the reactor's
//! injection/completion queue and writes one byte to the wake socket,
//! which the poller reports like any other readable fd.  Shutdown reuses
//! the same path, so dropping an [`HttpServer`] joins every thread
//! deterministically — reactors first, then the worker pool.

use crate::conn::{Done, HttpConn, OutputGauge, Work, OUTPUT_WINDOW_BYTES};
use crate::relay::{RelayEvent, ResponseRelay};
use crate::sys::{connect_nonblocking_v4, Interest, PollEvent, Poller};
use crate::timer::{TimerVerdict, TimerWheel};
use crate::{
    CtxFactory, HttpService, ServerOptions, ServerStats, WallClock, WorkerPool, OVER_CAP_RESPONSE,
    TIMEOUT_RESPONSE,
};
use bytes::Bytes;
use nakika_core::service::RelayPlan;
use nakika_http::{Body, ChunkSource, Response};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Token reserved for the wake socket; connections use their slab index.
const WAKE_TOKEN: u64 = u64::MAX;

/// Token-space offset for upstream (origin-side) connections: poll tokens
/// and timer-wheel indices at or above this address the `upstreams` slab,
/// below it the client slab.  Client indices stay far under 2^32 — each
/// one holds an open fd.
const UPSTREAM_BASE: u64 = 1 << 32;
const UPSTREAM_BASE_IDX: usize = 1 << 32;

/// Splice backpressure, origin→client direction: once this many relayed
/// body bytes are queued and the client has not pulled them, the upstream
/// socket is deregistered — TCP receive-window pressure then reaches the
/// origin.  Sized to the client output window: together they bound a
/// stalled relay to ~half a megabyte, never the full body.
const SPLICE_HIGH_WATER_BYTES: usize = OUTPUT_WINDOW_BYTES;

/// Reads resume once the client drains the splice queue below this.
const SPLICE_LOW_WATER_BYTES: usize = 64 * 1024;

/// Timer-wheel granularity.  Deadlines fire within one tick of their due
/// time; 10 ms is far below any sane idle timeout.
const WHEEL_TICK_MS: u64 = 10;

/// Timer-wheel slot count: one rotation covers ~5 s, and longer deadlines
/// are lazily re-filed as the sweep reaches them.
const WHEEL_SLOTS: usize = 512;

/// Sizing knobs for [`HttpServer::start_reactor`].
///
/// ```
/// use nakika_server::ReactorConfig;
///
/// // Derive both counts from the machine (the default):
/// let auto = ReactorConfig::default();
/// // Pin them — e.g. one event loop and a deep pool for an
/// // origin-latency-bound deployment:
/// let pinned = ReactorConfig { reactors: 1, workers: 16, ..ReactorConfig::default() };
/// # let _ = (auto, pinned);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Number of event-loop threads.  `0` (the default) derives
    /// `min(available cores, 4)`: event loops are CPU-bound and a handful
    /// multiplexes hundreds of connections.
    pub reactors: usize,
    /// Number of offload-worker threads executing may-block service calls
    /// (cold origin fetches) and origin-socket chunk pulls for *all*
    /// reactors of the server.  `0` (the default) derives
    /// `min(max(available cores, 4), 16)`.  This bounds how many origin
    /// fetches proceed concurrently: size it toward the expected number of
    /// simultaneous cache misses times the origin latency you are willing
    /// to overlap, not toward client concurrency — warm hits never enter
    /// the pool.
    pub workers: usize,
    /// Survival knobs: the per-connection progress deadline (enforced by
    /// the reactor's timer wheel) and the server-wide connection cap
    /// (enforced at the acceptor).
    pub options: ServerOptions,
}

impl ReactorConfig {
    fn resolved_reactors(&self) -> usize {
        if self.reactors > 0 {
            return self.reactors;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(4, 16)
    }
}

/// A finished unit of offloaded work, addressed back to its connection.
struct Completion {
    idx: usize,
    /// Generation of the slab slot when the work was submitted; a mismatch
    /// means the connection died (and the slot was possibly reused) while
    /// the work was in flight, and the completion is dropped.
    gen: u64,
    done: Done,
}

/// Work handed to a reactor from outside its thread: new connections,
/// completions of offloaded work, and the shutdown signal, with a loopback
/// wake socket to interrupt the poller.
struct Injector {
    queue: Mutex<Vec<(TcpStream, IpAddr)>>,
    completions: Mutex<Vec<Completion>>,
    shutdown: AtomicBool,
    wake_tx: TcpStream,
}

impl Injector {
    fn wake(&self) {
        // One byte is enough; the reactor drains the socket on wake.  A full
        // buffer means a wake is already pending, so failure is harmless.
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn push(&self, stream: TcpStream, peer: IpAddr) {
        self.queue.lock().push((stream, peer));
        self.wake();
    }

    fn complete(&self, completion: Completion) {
        self.completions.lock().push(completion);
        self.wake();
    }

    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake();
    }
}

/// A connected loopback pair: the write end stays with injectors, the read
/// end is registered in the reactor's poller.  Std-only stand-in for
/// `pipe(2)` so the FFI surface stays minimal.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    // The write side must be non-blocking too: if a reactor stalls and its
    // buffers fill, a blocking wake() would park the *acceptor* thread (and
    // Drop).  With O_NONBLOCK a full buffer just means a wake is already
    // pending, which is exactly what the callers assume.
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((tx, rx))
}

/// Body bytes relayed from an upstream socket to one client, queued
/// between the reactor's upstream read loop and the client engine's body
/// pulls.  Both ends run on the same reactor thread; the mutex exists
/// because the handle is embedded in a [`Body`] (which must stay `Send`
/// for the non-splice paths) and is never contended.
#[derive(Default)]
struct SpliceShared {
    inner: Mutex<SpliceState>,
}

#[derive(Default)]
struct SpliceState {
    chunks: VecDeque<Bytes>,
    /// Total bytes across `chunks`, for O(1) backpressure checks.
    queued: usize,
    eof: bool,
    /// Poisons the stream: the upstream died after the head was delivered,
    /// so the client's framing cannot be repaired and its next pull must
    /// abort the connection.
    error: Option<String>,
}

impl SpliceShared {
    fn push(&self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        let mut state = self.inner.lock();
        state.queued += data.len();
        state.chunks.push_back(data);
    }

    fn set_eof(&self) {
        self.inner.lock().eof = true;
    }

    fn set_error(&self, reason: String) {
        let mut state = self.inner.lock();
        if state.error.is_none() {
            state.error = Some(reason);
        }
    }

    fn queued(&self) -> usize {
        self.inner.lock().queued
    }

    /// Whether a parked body pull could complete right now.
    fn pull_ready(&self) -> bool {
        let state = self.inner.lock();
        !state.chunks.is_empty() || state.eof || state.error.is_some()
    }

    /// Whether the upstream is finished producing (everything it will ever
    /// deliver is already queued).
    fn input_finished(&self) -> bool {
        let state = self.inner.lock();
        state.eof || state.error.is_some()
    }
}

/// The body source of a spliced response: pops what `drive_upstream`
/// queued.  `may_block` is true so the engine always routes pulls through
/// the transport — the reactor parks them until the queue has data, which
/// is the non-blocking analogue of a blocking socket read.
struct SpliceSource {
    shared: Arc<SpliceShared>,
}

impl ChunkSource for SpliceSource {
    fn next_chunk(&mut self) -> io::Result<Option<Bytes>> {
        let mut state = self.shared.inner.lock();
        if let Some(chunk) = state.chunks.pop_front() {
            state.queued -= chunk.len();
            return Ok(Some(chunk));
        }
        if let Some(reason) = state.error.clone() {
            return Err(io::Error::other(reason));
        }
        if state.eof {
            return Ok(None);
        }
        // Unreachable by construction: the reactor fulfills a parked pull
        // only after `pull_ready()`, and a buffer only after
        // `input_finished()`.
        Err(io::Error::other(
            "splice body polled before its data arrived",
        ))
    }

    fn may_block(&self) -> bool {
        true
    }
}

/// Client-side record of an in-flight splice: which upstream slot serves
/// it, the queue its body drains from, and the parked body work waiting on
/// that queue.
struct ClientSplice {
    shared: Arc<SpliceShared>,
    upstream: usize,
    upstream_gen: u64,
    /// The delivered response's body handle (after cache-capture teeing).
    /// A `Work::Pull`/`Work::Buffer` belongs to this splice only if its
    /// body is this one — pulls for *earlier* pipelined responses still go
    /// to the worker pool.
    body: Option<Body>,
    /// A `Work::Pull` or `Work::Buffer` waiting for the queue.
    parked: Option<Work>,
}

/// Where an upstream connection is in its single exchange.
enum UpstreamState {
    /// `connect(2)` returned `EINPROGRESS`; waiting for writability.
    Connecting,
    /// Writing the serialized upstream request.
    Sending,
    /// Relaying the response through a [`ResponseRelay`].
    Reading,
}

/// One origin-side connection being spliced to a client: same slab, poller
/// and timer-wheel treatment as a client [`Conn`], addressed by
/// [`UPSTREAM_BASE`]-offset tokens.
struct UpstreamConn {
    stream: TcpStream,
    gen: u64,
    client: usize,
    client_gen: u64,
    state: UpstreamState,
    plan: RelayPlan,
    /// Index into `plan.attempts` currently being tried.
    attempt: usize,
    wire_written: usize,
    relay: ResponseRelay,
    shared: Arc<SpliceShared>,
    interest: Interest,
    registered: bool,
    /// True while reading is suspended because the client is not draining
    /// the queue (high-water mark).  A paused upstream is deregistered and
    /// its deadline is excused — the client is the slow side.
    paused: bool,
    /// The head reached the client: failures from here on are stream
    /// aborts (poisoned queue), not attempt fallbacks.
    head_delivered: bool,
    deadline_ms: u64,
}

/// One registered connection: its socket, protocol state machine, the
/// interest currently installed in the poller (meaningful only while
/// `registered`), and the generation guarding stale completions.
struct Conn {
    stream: TcpStream,
    engine: HttpConn,
    interest: Interest,
    /// False while the connection is parked: origin I/O is in flight and
    /// neither direction of the socket has anything to do, so the fd is
    /// removed from the poller entirely (level-triggered readiness on an
    /// ignored direction would spin the loop).
    registered: bool,
    gen: u64,
    /// Authoritative progress deadline, in reactor-epoch milliseconds.
    /// Re-armed on protocol progress only (request parsed, output
    /// drained) — never on raw bytes, so slow-loris drips do not extend
    /// it.  The wheel holds one lazy entry per connection and re-files it
    /// against this field.
    deadline_ms: u64,
    /// `engine.requests_parsed()` as of the last progress check.
    parsed: u64,
    /// The event-loop relay currently answering this connection's cache
    /// miss, if any.  At most one per connection: misses are dispatched
    /// one at a time by the engine.
    splice: Option<ClientSplice>,
}

/// The per-thread reactor: poller, connection slab, service stack, and a
/// handle on the server-wide offload pool.
struct Reactor {
    poller: Poller,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Origin-side connections for in-flight splices, addressed by
    /// [`UPSTREAM_BASE`]-offset tokens.
    upstreams: Vec<Option<UpstreamConn>>,
    upstream_free: Vec<usize>,
    service: Arc<dyn HttpService>,
    ctx_factory: Arc<CtxFactory>,
    injector: Arc<Injector>,
    wake_rx: TcpStream,
    pool: Arc<WorkerPool>,
    gauge: Arc<OutputGauge>,
    stats: Arc<ServerStats>,
    next_gen: u64,
    /// Per-connection progress deadlines; also the source of the poll
    /// timeout, so deadlines fire even when no event and no wakeup ever
    /// arrives (the whole point — see `timer.rs`).
    wheel: TimerWheel,
    idle_ms: u64,
    /// Zero point for this reactor's millisecond clock.
    epoch: Instant,
}

impl Reactor {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn run(mut self) {
        use std::os::unix::io::AsRawFd;
        if self
            .poller
            .add(self.wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            // Sleep until I/O, a wakeup, or the earliest possible deadline
            // — never forever while a deadline is armed.
            let timeout_ms = self
                .wheel
                .next_deadline_ms(self.now_ms())
                .map(|ms| ms.min(i32::MAX as u64) as i32)
                .unwrap_or(-1);
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                return;
            }
            for &event in &events {
                if event.token == WAKE_TOKEN {
                    self.drain_wake();
                    if self.injector.shutdown.load(Ordering::Acquire) {
                        return; // dropping the reactor closes every socket
                    }
                    self.register_injected();
                    self.run_completions();
                } else if event.token >= UPSTREAM_BASE {
                    self.drive_upstream(
                        (event.token - UPSTREAM_BASE) as usize,
                        event.readable,
                        event.writable,
                    );
                } else {
                    self.drive(event.token as usize, event.readable, event.writable);
                }
            }
            self.sweep_deadlines();
        }
    }

    /// Sweeps the timer wheel, evicting every connection whose
    /// authoritative deadline has passed.  Entries for connections that
    /// made progress since they were filed (or that are waiting on
    /// offloaded origin work — the server's own slowness must not evict
    /// the client) are re-filed instead.
    fn sweep_deadlines(&mut self) {
        let now = self.now_ms();
        let idle = self.idle_ms;
        let slab = &self.slab;
        let upstreams = &self.upstreams;
        let fired = self.wheel.expire(now, |entry| {
            if entry.idx >= UPSTREAM_BASE_IDX {
                let i = entry.idx - UPSTREAM_BASE_IDX;
                let Some(up) = upstreams.get(i).and_then(Option::as_ref) else {
                    return TimerVerdict::Drop;
                };
                if up.gen != entry.gen {
                    return TimerVerdict::Drop;
                }
                if up.paused {
                    // The client is the slow side; the origin owes nothing
                    // while reads are suspended.
                    return TimerVerdict::Refile(now + idle);
                }
                return if up.deadline_ms <= now {
                    TimerVerdict::Fire
                } else {
                    TimerVerdict::Refile(up.deadline_ms)
                };
            }
            let Some(conn) = slab.get(entry.idx).and_then(Option::as_ref) else {
                return TimerVerdict::Drop;
            };
            if conn.gen != entry.gen {
                return TimerVerdict::Drop;
            }
            if conn.engine.has_pending_work() {
                return TimerVerdict::Refile(now + idle);
            }
            if conn.deadline_ms <= now {
                TimerVerdict::Fire
            } else {
                TimerVerdict::Refile(conn.deadline_ms)
            }
        });
        for entry in fired {
            if entry.idx >= UPSTREAM_BASE_IDX {
                let i = entry.idx - UPSTREAM_BASE_IDX;
                let live = self
                    .upstreams
                    .get(i)
                    .and_then(Option::as_ref)
                    .is_some_and(|up| up.gen == entry.gen);
                if live {
                    self.stats.note_timeout();
                    self.fail_attempt(i, "stalled past the progress deadline".to_string());
                }
                continue;
            }
            let boundary = self
                .slab
                .get_mut(entry.idx)
                .and_then(Option::as_mut)
                .filter(|conn| conn.gen == entry.gen)
                .map(|conn| {
                    let at_boundary = conn.engine.at_response_boundary();
                    if at_boundary {
                        // Best-effort courtesy 408; framing-safe because
                        // nothing of a response is in flight.
                        let _ = conn.stream.write(TIMEOUT_RESPONSE);
                    }
                    at_boundary
                });
            if boundary.is_some() {
                self.stats.note_timeout();
                self.close(entry.idx);
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
    }

    fn register_injected(&mut self) {
        use std::os::unix::io::AsRawFd;
        let injected: Vec<_> = std::mem::take(&mut *self.injector.queue.lock());
        for (stream, peer) in injected {
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.slab.push(None);
                    self.slab.len() - 1
                }
            };
            if self
                .poller
                .add(stream.as_raw_fd(), idx as u64, Interest::READ)
                .is_err()
            {
                self.free.push(idx);
                self.stats.close_connection();
                continue; // dropping the stream closes it
            }
            self.next_gen += 1;
            let deadline_ms = self.now_ms() + self.idle_ms;
            self.slab[idx] = Some(Conn {
                stream,
                engine: HttpConn::new(peer, self.gauge.clone()),
                interest: Interest::READ,
                registered: true,
                gen: self.next_gen,
                deadline_ms,
                parsed: 0,
                splice: None,
            });
            // One wheel entry per connection for its whole lifetime; the
            // sweep re-files it against `deadline_ms` as progress happens.
            self.wheel.insert(idx, self.next_gen, deadline_ms);
        }
    }

    /// Feeds finished offloaded work back into its connection's engine and
    /// re-arms the connection.  Stale completions — the slot died or was
    /// reused while the work ran — are identified by generation and
    /// dropped.
    fn run_completions(&mut self) {
        let completions: Vec<Completion> = std::mem::take(&mut *self.injector.completions.lock());
        for completion in completions {
            let Some(conn) = self.slab.get_mut(completion.idx).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != completion.gen {
                continue;
            }
            conn.engine.complete(completion.done);
            self.progress(completion.idx);
        }
    }

    /// Ships one unit of may-block work to the pool; the completion comes
    /// back through the injector and the wake pipe.
    fn submit(&self, idx: usize, gen: u64, work: Work) {
        self.stats.note_worker_submission();
        let service = self.service.clone();
        let injector = self.injector.clone();
        self.pool.execute(Box::new(move || {
            let done = work.run(&*service);
            injector.complete(Completion { idx, gen, done });
        }));
    }

    /// Handles one readiness event: pull bytes and feed the engine while
    /// readable, then make whatever progress the engine allows.
    fn drive(&mut self, idx: usize, readable: bool, writable: bool) {
        // Progress flushes opportunistically whenever output exists, so the
        // write-readiness direction needs no handling of its own.
        let _ = writable;
        // A stale event can name a slot freed — or parked — earlier in
        // this batch.
        let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if !conn.registered {
            return;
        }
        if readable && conn.engine.wants_read() {
            let mut chunk = [0u8; 8192];
            let mut eof = false;
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => conn.engine.feed(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(idx);
                        return;
                    }
                }
            }
            if eof {
                // The engine still answers requests already buffered — a
                // client may write a complete request and half-close in
                // the same packet — then closes once input is exhausted.
                conn.engine.close();
            }
        }
        self.progress(idx);
    }

    /// Advances one connection as far as non-blocking operations allow:
    /// lets the engine parse/dispatch/pump (shipping offloaded work to the
    /// pool), flushes pending output, and reconciles the poller interest —
    /// including parking (full deregistration) when origin I/O is the only
    /// thing the connection is waiting on.
    fn progress(&mut self, idx: usize) {
        use std::os::unix::io::AsRawFd;
        let had_output = self
            .slab
            .get(idx)
            .and_then(Option::as_ref)
            .is_some_and(|conn| conn.engine.has_unsent_output());
        loop {
            // Generate: parse, inline-dispatch, pump; ship may-block work.
            loop {
                let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
                    return;
                };
                let gen = conn.gen;
                let Some(work) = conn
                    .engine
                    .advance(&*self.service, self.ctx_factory.as_ref())
                else {
                    break;
                };
                self.route_work(idx, gen, work);
            }
            // Flush opportunistically; a drained window lets the next
            // generate pass pull more of a streamed response.
            let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            let mut wrote = false;
            let mut would_block = false;
            while conn.engine.has_unsent_output() {
                // Gather-write the whole pending window (compacted head
                // buffer plus queued body parts) in one syscall.
                let result = {
                    let slices = conn.engine.output_slices();
                    conn.stream.write_vectored(&slices)
                };
                match result {
                    Ok(0) => {
                        self.close(idx);
                        return;
                    }
                    Ok(n) => {
                        conn.engine.advance_output(n);
                        wrote = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        would_block = true;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(idx);
                        return;
                    }
                }
            }
            if would_block || !wrote {
                break;
            }
        }
        let now = self.now_ms();
        let idle = self.idle_ms;
        let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.engine.done() {
            self.close(idx);
            return;
        }
        // Progress check: a newly parsed request or a fully drained output
        // re-arms the deadline.  Raw bytes deliberately do not.
        let parsed_now = conn.engine.requests_parsed();
        let drained = had_output && !conn.engine.has_unsent_output();
        if parsed_now != conn.parsed || drained {
            conn.parsed = parsed_now;
            conn.deadline_ms = now + idle;
        }
        let wanted = Interest {
            readable: conn.engine.wants_read(),
            writable: conn.engine.has_unsent_output(),
        };
        let fd = conn.stream.as_raw_fd();
        if !wanted.readable && !wanted.writable {
            // Parked: the connection is waiting only on offloaded origin
            // I/O (or, transiently, on nothing — impossible while open).
            // Deregister entirely; the completion re-arms it.
            if conn.registered {
                let _ = self.poller.remove(fd);
                conn.registered = false;
            }
        } else if !conn.registered {
            if self.poller.add(fd, idx as u64, wanted).is_err() {
                self.close(idx);
                return;
            }
            conn.registered = true;
            conn.interest = wanted;
        } else if wanted != conn.interest {
            if self.poller.modify(fd, idx as u64, wanted).is_err() {
                self.close(idx);
                return;
            }
            conn.interest = wanted;
        }
    }

    fn close(&mut self, idx: usize) {
        use std::os::unix::io::AsRawFd;
        if let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) {
            if conn.registered {
                let _ = self.poller.remove(conn.stream.as_raw_fd());
            }
            if let Some(splice) = conn.splice {
                // A dying client takes its origin-side half with it; the
                // generation check skips upstreams already replaced.
                let paired = self
                    .upstreams
                    .get(splice.upstream)
                    .and_then(Option::as_ref)
                    .is_some_and(|up| up.gen == splice.upstream_gen);
                if paired {
                    self.teardown_upstream(splice.upstream);
                }
            }
            self.stats.close_connection();
            self.free.push(idx);
            // conn drops here, closing the socket.  Any work still in
            // flight for it completes harmlessly: the generation check in
            // run_completions drops the orphaned completion.
        }
    }

    /// Routes one unit of may-block work: spliceable service calls become
    /// event-loop relays, body pulls for an active splice park on its
    /// queue, and everything else ships to the worker pool.
    fn route_work(&mut self, idx: usize, gen: u64, work: Work) {
        match work {
            Work::Call { request, ctx } => {
                let spliceable = self
                    .slab
                    .get(idx)
                    .and_then(Option::as_ref)
                    .is_some_and(|conn| conn.splice.is_none());
                if spliceable {
                    if let Some(plan) = self.service.relay_plan(&request, &ctx) {
                        if self.start_splice(idx, gen, plan) {
                            return;
                        }
                    }
                }
                self.submit(idx, gen, Work::Call { request, ctx });
            }
            Work::Pull { body } => {
                if self.splice_owns(idx, &body) {
                    self.park_splice_work(idx, Work::Pull { body });
                } else {
                    self.submit(idx, gen, Work::Pull { body });
                }
            }
            Work::Buffer { body } => {
                if self.splice_owns(idx, &body) {
                    self.park_splice_work(idx, Work::Buffer { body });
                } else {
                    self.submit(idx, gen, Work::Buffer { body });
                }
            }
        }
    }

    /// Whether `body` is the delivered response body of `idx`'s splice.
    /// Pulls for earlier pipelined responses (identity mismatch) keep
    /// their worker-pool path.
    fn splice_owns(&self, idx: usize, body: &Body) -> bool {
        self.slab
            .get(idx)
            .and_then(Option::as_ref)
            .and_then(|conn| conn.splice.as_ref())
            .is_some_and(|splice| splice.body.as_ref() == Some(body))
    }

    /// Parks a body pull/buffer on the splice queue and fulfills it right
    /// away if the queue already has what it needs.  A parked `Buffer`
    /// needs the whole body, so the upstream must never pause for it.
    fn park_splice_work(&mut self, idx: usize, work: Work) {
        let unbounded = matches!(work, Work::Buffer { .. });
        let Some(splice) = self
            .slab
            .get_mut(idx)
            .and_then(Option::as_mut)
            .and_then(|conn| conn.splice.as_mut())
        else {
            return;
        };
        splice.parked = Some(work);
        let upstream = splice.upstream;
        let upstream_gen = splice.upstream_gen;
        if unbounded {
            self.resume_upstream(upstream, upstream_gen);
        }
        self.try_fulfill(idx);
    }

    /// Completes the parked body work of `idx`'s splice if its queue is
    /// ready.  Returns true when the engine consumed a completion — the
    /// caller outside `progress` should then drive `progress` itself.
    fn try_fulfill(&mut self, idx: usize) -> bool {
        let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            return false;
        };
        let Some(splice) = conn.splice.as_mut() else {
            return false;
        };
        let Some(work) = splice.parked.take() else {
            return false;
        };
        let shared = splice.shared.clone();
        let upstream = splice.upstream;
        let upstream_gen = splice.upstream_gen;
        match work {
            Work::Pull { mut body } => {
                if !shared.pull_ready() {
                    splice.parked = Some(Work::Pull { body });
                    return false;
                }
                // Pulling through the body handle (not the queue directly)
                // keeps the cache-capture tee on the path.
                let read = body.read_chunk();
                let finished = matches!(read, Ok(None) | Err(_));
                if finished {
                    conn.splice = None;
                }
                conn.engine.complete(Done::Pull(read));
                if !finished {
                    self.maybe_resume_upstream(upstream, upstream_gen);
                }
                true
            }
            Work::Buffer { body } => {
                if !shared.input_finished() {
                    splice.parked = Some(Work::Buffer { body });
                    return false;
                }
                conn.splice = None;
                // The whole body is queued, so buffering cannot block.
                let service = self.service.clone();
                let done = Work::Buffer { body }.run(&*service);
                conn.engine.complete(done);
                true
            }
            Work::Call { .. } => {
                // Calls are never parked (see park_splice_work).
                debug_assert!(false, "a service call cannot park on a splice");
                false
            }
        }
    }

    /// Adopts a relay plan for the client at `idx`: opens the first viable
    /// upstream non-blocking and registers it with the poller.  Returns
    /// false — before any side effect — when the plan cannot be spliced
    /// (non-literal host), sending the call to the worker pool instead.
    fn start_splice(&mut self, idx: usize, gen: u64, plan: RelayPlan) -> bool {
        // The event loop cannot afford blocking DNS: every attempt must
        // name a literal IPv4 host or the whole plan falls back.
        let literal_hosts = plan
            .attempts
            .iter()
            .all(|attempt| attempt.host.parse::<Ipv4Addr>().is_ok());
        if plan.attempts.is_empty() || !literal_hosts {
            return false;
        }
        (plan.on_start)();
        let i = match self.upstream_free.pop() {
            Some(i) => i,
            None => {
                self.upstreams.push(None);
                self.upstreams.len() - 1
            }
        };
        self.open_attempt(i, 0, plan, (idx, gen), String::new());
        true
    }

    /// Opens the first viable attempt of `plan` at or after index `from` as
    /// upstream slot `i`, which the caller left empty: connect
    /// non-blocking, register with the poller, arm the state and the
    /// deadline, and point the client's splice record at the new upstream.
    /// An attempt that cannot be opened — refused connect or failed
    /// registration alike — runs its `on_fail` and yields to the next.
    /// When none remains the slot is freed, the client (`(index,
    /// generation)`) gets the plan's failure response (a 502, not a dropped
    /// connection) and the result is false: the caller drives `progress`
    /// (or is inside it already).
    fn open_attempt(
        &mut self,
        i: usize,
        from: usize,
        plan: RelayPlan,
        client: (usize, u64),
        mut last_error: String,
    ) -> bool {
        use std::os::unix::io::AsRawFd;
        let (client, client_gen) = client;
        let interest = Interest {
            readable: false,
            writable: true,
        };
        let mut attempt = from;
        let opened = loop {
            let Some(candidate) = plan.attempts.get(attempt) else {
                break None;
            };
            let result = candidate
                .host
                .parse::<Ipv4Addr>()
                .map_err(|_| "non-literal host".to_string())
                .and_then(|ip| {
                    connect_nonblocking_v4(SocketAddrV4::new(ip, candidate.port))
                        .map_err(|e| format!("connect failed: {e}"))
                })
                .and_then(|(stream, ready)| {
                    self.poller
                        .add(stream.as_raw_fd(), UPSTREAM_BASE + i as u64, interest)
                        .map_err(|_| "poller failure".to_string())?;
                    Ok((stream, ready))
                });
            match result {
                Ok(opened) => break Some(opened),
                Err(cause) => {
                    last_error = format!("{}: {cause}", candidate.label);
                    if let Some(on_fail) = &candidate.on_fail {
                        on_fail();
                    }
                    attempt += 1;
                }
            }
        };
        let Some((stream, ready)) = opened else {
            self.upstream_free.push(i);
            self.deliver_response(client, client_gen, (plan.fail)(&last_error));
            return false;
        };
        let _ = stream.set_nodelay(true);
        // Fresh generation: an earlier attempt's wheel entry (possibly
        // already fired) must not evict this one.
        self.next_gen += 1;
        let gen = self.next_gen;
        let deadline_ms = self.now_ms() + self.idle_ms;
        let shared = Arc::new(SpliceShared::default());
        self.upstreams[i] = Some(UpstreamConn {
            stream,
            gen,
            client,
            client_gen,
            state: if ready {
                UpstreamState::Sending
            } else {
                UpstreamState::Connecting
            },
            plan,
            attempt,
            wire_written: 0,
            relay: ResponseRelay::new(None),
            shared: shared.clone(),
            interest,
            registered: true,
            paused: false,
            head_delivered: false,
            deadline_ms,
        });
        self.wheel.insert(UPSTREAM_BASE_IDX + i, gen, deadline_ms);
        if let Some(conn) = self.slab.get_mut(client).and_then(Option::as_mut) {
            if conn.gen == client_gen {
                conn.splice = Some(ClientSplice {
                    shared,
                    upstream: i,
                    upstream_gen: gen,
                    body: None,
                    parked: None,
                });
            }
        }
        true
    }

    /// Ends the splice of the client at `idx` with a ready response,
    /// generation-guarded.  The caller drives `progress` (or is inside it
    /// already).
    fn deliver_response(&mut self, idx: usize, gen: u64, response: Response) {
        if let Some(conn) = self.slab.get_mut(idx).and_then(Option::as_mut) {
            if conn.gen == gen {
                conn.splice = None;
                conn.engine.complete(Done::Call(Ok(response)));
            }
        }
    }

    /// Handles one readiness event for an upstream connection: finish the
    /// non-blocking connect, write the request, read and relay the
    /// response.
    fn drive_upstream(&mut self, i: usize, readable: bool, writable: bool) {
        use std::os::unix::io::AsRawFd;
        let now = self.now_ms();
        let idle = self.idle_ms;
        let Some(up) = self.upstreams.get_mut(i).and_then(Option::as_mut) else {
            return;
        };
        if !up.registered {
            return;
        }
        if matches!(up.state, UpstreamState::Connecting) {
            if !writable {
                return;
            }
            match up.stream.take_error() {
                Ok(None) => {
                    if up.stream.peer_addr().is_err() {
                        return; // spurious wakeup; not connected yet
                    }
                    up.state = UpstreamState::Sending;
                    up.deadline_ms = now + idle;
                }
                Ok(Some(e)) | Err(e) => {
                    let label = up.plan.attempts[up.attempt].label.clone();
                    return self.fail_attempt(i, format!("{label}: connect failed: {e}"));
                }
            }
        }
        if matches!(up.state, UpstreamState::Sending) {
            loop {
                let wire = &up.plan.attempts[up.attempt].wire;
                if up.wire_written >= wire.len() {
                    break;
                }
                match up.stream.write(&wire[up.wire_written..]) {
                    Ok(0) => {
                        let label = up.plan.attempts[up.attempt].label.clone();
                        return self.fail_attempt(i, format!("{label}: closed during request"));
                    }
                    Ok(n) => {
                        up.wire_written += n;
                        up.deadline_ms = now + idle;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        let label = up.plan.attempts[up.attempt].label.clone();
                        return self.fail_attempt(i, format!("{label}: write failed: {e}"));
                    }
                }
            }
            up.state = UpstreamState::Reading;
            up.interest = Interest::READ;
            let fd = up.stream.as_raw_fd();
            if self
                .poller
                .modify(fd, UPSTREAM_BASE + i as u64, Interest::READ)
                .is_err()
            {
                let label = up.plan.attempts[up.attempt].label.clone();
                return self.fail_attempt(i, format!("{label}: poller failure"));
            }
        }
        if !matches!(up.state, UpstreamState::Reading) || !readable {
            return;
        }
        // Backpressure check before reading: a client that stopped pulling
        // (its own socket is stalled) must not let the queue grow without
        // bound — unless the client decided to buffer the whole body.
        let client_buffering = self
            .slab
            .get(up.client)
            .and_then(Option::as_ref)
            .and_then(|conn| conn.splice.as_ref())
            .is_some_and(|splice| matches!(splice.parked, Some(Work::Buffer { .. })));
        if up.shared.queued() >= SPLICE_HIGH_WATER_BYTES && !client_buffering {
            self.pause_upstream(i);
            return;
        }
        let mut events = Vec::new();
        // Ok(false) = keep reading later; Ok(true) = response complete.
        let mut outcome: Result<bool, String> = Ok(false);
        let mut read_bytes = 0usize;
        loop {
            let mut chunk = [0u8; 16384];
            match up.stream.read(&mut chunk) {
                Ok(0) => {
                    outcome = up.relay.close(&mut events).map(|()| true);
                    break;
                }
                Ok(n) => {
                    read_bytes += n;
                    if let Err(e) = up.relay.feed(&chunk[..n], &mut events) {
                        outcome = Err(e);
                        break;
                    }
                    if up.relay.is_done() {
                        outcome = Ok(true);
                        break;
                    }
                    if read_bytes >= SPLICE_HIGH_WATER_BYTES {
                        break; // level-triggered: the rest re-fires
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    outcome = Err(format!("read failed: {e}"));
                    break;
                }
            }
        }
        if read_bytes > 0 {
            up.deadline_ms = now + idle;
        }
        self.handle_upstream_events(i, events, outcome);
    }

    /// Applies what an upstream read produced: delivers the head to the
    /// client, queues body data, finishes the exchange or fails the
    /// attempt/stream.
    fn handle_upstream_events(
        &mut self,
        i: usize,
        events: Vec<RelayEvent>,
        outcome: Result<bool, String>,
    ) {
        let mut touched_client = None;
        for event in events {
            let Some(up) = self.upstreams.get_mut(i).and_then(Option::as_mut) else {
                return; // torn down mid-batch
            };
            match event {
                RelayEvent::Head {
                    response,
                    declared,
                    has_body,
                } => {
                    let attempt = &up.plan.attempts[up.attempt];
                    if attempt.fallback_on_error_status && !response.status.is_success() {
                        let reason = format!("{}: answered {}", attempt.label, response.status);
                        // Remaining events belong to the rejected attempt.
                        return self.fail_attempt(i, reason);
                    }
                    let client = up.client;
                    let client_gen = up.client_gen;
                    let winning = up.attempt;
                    let shared = up.shared.clone();
                    let mut response = *response;
                    response.body = if has_body {
                        Body::stream(SpliceSource { shared }, declared)
                    } else {
                        Body::empty()
                    };
                    up.head_delivered = true;
                    let response = (up.plan.finish)(response, winning);
                    // Record the final (cache-capture-teed) body so later
                    // pulls can be matched back to this splice.
                    let body_handle = response.body.clone();
                    let delivered = self
                        .slab
                        .get_mut(client)
                        .and_then(Option::as_mut)
                        .filter(|conn| conn.gen == client_gen)
                        .map(|conn| {
                            if let Some(splice) = conn.splice.as_mut() {
                                splice.body = Some(body_handle);
                            }
                            conn.engine.complete(Done::Call(Ok(response)));
                        })
                        .is_some();
                    if !delivered {
                        // The client died while we connected; nobody is
                        // left to relay to.
                        return self.teardown_upstream(i);
                    }
                    self.stats.note_spliced_relay();
                    touched_client = Some(client);
                }
                RelayEvent::Data(data) => {
                    up.shared.push(data);
                    touched_client = Some(up.client);
                }
                RelayEvent::BodyDone => {
                    up.shared.set_eof();
                    touched_client = Some(up.client);
                    self.teardown_upstream(i);
                }
            }
        }
        match outcome {
            Ok(false) => {}
            Ok(true) => {
                // Clean end of the exchange; a no-op when BodyDone already
                // tore the slot down.
                if let Some(up) = self.upstreams.get(i).and_then(Option::as_ref) {
                    touched_client = Some(up.client);
                    self.teardown_upstream(i);
                }
            }
            Err(reason) => {
                if let Some(up) = self.upstreams.get(i).and_then(Option::as_ref) {
                    let label = up.plan.attempts[up.attempt].label.clone();
                    touched_client = Some(up.client);
                    self.fail_attempt(i, format!("{label}: {reason}"));
                }
            }
        }
        if let Some(client) = touched_client {
            // Unconditional: a delivered head (no parked work yet) must
            // still pump the response toward the client socket.
            self.try_fulfill(client);
            self.progress(client);
        }
    }

    /// The current attempt is unusable before its head was accepted: run
    /// its failure side effects and move to the next attempt, or deliver
    /// the plan's failure response when none remain.  After a head was
    /// delivered the failure belongs to `fail_stream` instead.
    fn fail_attempt(&mut self, i: usize, reason: String) {
        use std::os::unix::io::AsRawFd;
        let Some(up) = self
            .upstreams
            .get_mut(i)
            .and_then(|slot| slot.take_if(|up| !up.head_delivered))
        else {
            return self.fail_stream(i, reason);
        };
        if let Some(on_fail) = &up.plan.attempts[up.attempt].on_fail {
            on_fail();
        }
        if up.registered {
            let _ = self.poller.remove(up.stream.as_raw_fd());
        }
        let client = (up.client, up.client_gen);
        if !self.open_attempt(i, up.attempt + 1, up.plan, client, reason) {
            self.progress(client.0);
        }
    }

    /// The response head was already relayed when the upstream died: the
    /// client's framing cannot be repaired, so poison the queue — the next
    /// body pull aborts the connection, a truncation the client detects.
    fn fail_stream(&mut self, i: usize, reason: String) {
        let Some(up) = self.upstreams.get(i).and_then(Option::as_ref) else {
            return;
        };
        let client = up.client;
        up.shared.set_error(reason);
        self.stats.note_relay_abort();
        self.teardown_upstream(i);
        self.try_fulfill(client);
        self.progress(client);
    }

    fn teardown_upstream(&mut self, i: usize) {
        use std::os::unix::io::AsRawFd;
        if let Some(up) = self.upstreams.get_mut(i).and_then(Option::take) {
            if up.registered {
                let _ = self.poller.remove(up.stream.as_raw_fd());
            }
            self.upstream_free.push(i);
            // The slot's wheel entry drops at its next sweep: the slot is
            // now empty or regenerated, both judged `Drop`.
        }
    }

    /// Suspends upstream reads while the client's splice queue is over the
    /// high-water mark.
    fn pause_upstream(&mut self, i: usize) {
        use std::os::unix::io::AsRawFd;
        if let Some(up) = self.upstreams.get_mut(i).and_then(Option::as_mut) {
            if up.registered {
                let _ = self.poller.remove(up.stream.as_raw_fd());
                up.registered = false;
            }
            up.paused = true;
        }
    }

    /// Resumes a paused upstream once the client drained the queue below
    /// the low-water mark.
    fn maybe_resume_upstream(&mut self, i: usize, gen: u64) {
        let drained = self
            .upstreams
            .get(i)
            .and_then(Option::as_ref)
            .is_some_and(|up| {
                up.gen == gen && up.paused && up.shared.queued() < SPLICE_LOW_WATER_BYTES
            });
        if drained {
            self.resume_upstream(i, gen);
        }
    }

    /// Unconditionally resumes a paused upstream (the client committed to
    /// buffering the whole body).
    fn resume_upstream(&mut self, i: usize, gen: u64) {
        use std::os::unix::io::AsRawFd;
        let Some(up) = self.upstreams.get_mut(i).and_then(Option::as_mut) else {
            return;
        };
        if up.gen != gen || !up.paused {
            return;
        }
        up.paused = false;
        if !up.registered
            && self
                .poller
                .add(up.stream.as_raw_fd(), UPSTREAM_BASE + i as u64, up.interest)
                .is_ok()
        {
            up.registered = true;
        }
        // On a registration failure the deadline sweep evicts the stream.
    }
}

/// A non-blocking HTTP/1.1 server fronting any [`HttpService`] with a small
/// set of reactor threads plus an offload worker pool for blocking origin
/// I/O (the design notes live at the top of `nakika-server/src/reactor.rs`;
/// the narrative version is `docs/ARCHITECTURE.md`, "The server").
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<(Arc<Injector>, Option<JoinHandle<()>>)>,
    gauge: Arc<OutputGauge>,
    stats: Arc<ServerStats>,
    // Held only for its Drop: declared after the reactor handles, so the
    // offload workers are joined only once every reactor thread — which
    // shares the pool — has been joined by Drop above.
    _pool: Arc<WorkerPool>,
}

impl HttpServer {
    /// Starts a server on `127.0.0.1:port` (port 0 picks a free port)
    /// serving `service` until the value is dropped, with
    /// [`ReactorConfig::default`].
    pub fn start(port: u16, service: Arc<dyn HttpService>) -> io::Result<HttpServer> {
        HttpServer::start_reactor(port, service, ReactorConfig::default())
    }

    /// Starts a server with an explicit [`ReactorConfig`] — thread counts
    /// and survival knobs.  There is one server; the name says "reactor"
    /// only because the frozen benchmark harness (`bench/src/sut.rs`)
    /// calls it by that name.
    pub fn start_reactor(
        port: u16,
        service: Arc<dyn HttpService>,
        config: ReactorConfig,
    ) -> io::Result<HttpServer> {
        let reactor_count = config.resolved_reactors();
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let ctx_factory = Arc::new(CtxFactory::new(Arc::new(WallClock)));
        let gauge = Arc::new(OutputGauge::default());
        let stats = Arc::new(ServerStats::default());
        let pool = Arc::new(WorkerPool::new(config.resolved_workers()));
        let idle_ms = config.options.resolved_idle_timeout_ms();
        let max_connections = config.options.max_connections;

        // Create every fallible resource (wake pairs, epoll fds) before
        // spawning any thread: a mid-loop failure (fd exhaustion) must not
        // leave earlier reactors running un-joinable forever.
        let mut reactors = Vec::with_capacity(reactor_count);
        for _ in 0..reactor_count {
            let (wake_tx, wake_rx) = wake_pair()?;
            let injector = Arc::new(Injector {
                queue: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                wake_tx,
            });
            let epoch = Instant::now();
            reactors.push(Reactor {
                poller: Poller::new()?,
                slab: Vec::new(),
                free: Vec::new(),
                upstreams: Vec::new(),
                upstream_free: Vec::new(),
                service: service.clone(),
                ctx_factory: ctx_factory.clone(),
                injector,
                wake_rx,
                pool: pool.clone(),
                gauge: gauge.clone(),
                stats: stats.clone(),
                next_gen: 0,
                wheel: TimerWheel::new(WHEEL_TICK_MS, WHEEL_SLOTS, 0),
                idle_ms,
                epoch,
            });
        }
        let mut workers = Vec::with_capacity(reactor_count);
        let mut injectors = Vec::with_capacity(reactor_count);
        for reactor in reactors {
            let injector = reactor.injector.clone();
            let handle = std::thread::spawn(move || reactor.run());
            injectors.push(injector.clone());
            workers.push((injector, Some(handle)));
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown_flag = shutdown.clone();
        // The accept loop blocks — no polling.  Drop wakes it with a bare
        // connect so the flag check below runs one last time.
        let accept_stats = stats.clone();
        let acceptor = std::thread::spawn(move || {
            let mut next = 0usize;
            while let Ok((mut stream, peer)) = listener.accept() {
                if shutdown_flag.load(Ordering::Relaxed) {
                    break;
                }
                if !accept_stats.try_open(max_connections) {
                    // Over the cap: canned 503, immediate close, no slab
                    // slot spent on the peer.
                    let _ = stream.write_all(OVER_CAP_RESPONSE);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    accept_stats.close_connection();
                    continue;
                }
                let _ = stream.set_nodelay(true);
                injectors[next % injectors.len()].push(stream, peer.ip());
                next += 1;
            }
        });

        Ok(HttpServer {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            gauge,
            stats,
            _pool: pool,
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's base URL (`http://127.0.0.1:port`).
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Highest number of serialized-but-unsent bytes any of *this
    /// server's* connections has held — the bounded-output-window
    /// instrument (see [`OUTPUT_WINDOW_BYTES`]).  Scoped per server, so
    /// concurrently running servers (e.g. parallel tests) do not
    /// contaminate each other's measurements.
    pub fn peak_buffered_output(&self) -> usize {
        self.gauge.peak()
    }

    /// This server's survival counters (deadline evictions, over-cap
    /// rejections, open connections).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the blocking accept so the loop observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for (injector, handle) in &mut self.workers {
            injector.shutdown();
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
        }
        // self.pool drops after this, joining the offload workers; any job
        // still queued is discarded (its completion has no audience).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http_get;
    use nakika_core::service::RelayAttempt;
    use nakika_core::service::{service_fn, DispatchHint, NakikaError, RequestCtx};
    use nakika_http::{serialize_request, ParseOutcome, Request, Response, StatusCode};
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    fn origin_service() -> Arc<dyn HttpService> {
        service_fn(|request: Request, _ctx| {
            Ok(
                Response::ok("text/html", format!("reactor origin: {}", request.uri.path))
                    .with_header("Cache-Control", "max-age=60"),
            )
        })
    }

    #[test]
    fn reactor_round_trip() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let response = http_get(&format!("{}/index.html", server.base_url())).unwrap();
        assert_eq!(response.status, StatusCode::OK);
        assert!(response.body.to_text().contains("/index.html"));
    }

    #[test]
    fn reactor_keep_alive_serves_many_requests_on_one_connection() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for i in 0..5 {
            let req = Request::get(&format!("http://{}/r{i}", server.addr()));
            stream.write_all(&serialize_request(&req)).unwrap();
            let mut buffer = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed a keep-alive connection");
                buffer.extend_from_slice(&chunk[..n]);
                if let Ok(ParseOutcome::Complete { message, .. }) =
                    nakika_http::parse_response(&buffer)
                {
                    assert!(message.body.to_text().contains(&format!("/r{i}")));
                    break;
                }
            }
        }
    }

    #[test]
    fn reactor_answers_pipelined_requests_in_order() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut batch = Vec::new();
        for i in 0..3 {
            batch.extend_from_slice(&serialize_request(&Request::get(&format!(
                "http://{}/p{i}",
                server.addr()
            ))));
        }
        stream.write_all(&batch).unwrap();
        let mut buffer = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut bodies = Vec::new();
        while bodies.len() < 3 {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0);
            buffer.extend_from_slice(&chunk[..n]);
            while let Ok(ParseOutcome::Complete { message, consumed }) =
                nakika_http::parse_response(&buffer)
            {
                buffer.drain(..consumed);
                bodies.push(message.body.to_text());
            }
        }
        for (i, body) in bodies.iter().enumerate() {
            assert!(body.contains(&format!("/p{i}")), "order preserved: {body}");
        }
    }

    #[test]
    fn request_with_immediate_half_close_still_gets_a_response() {
        // One-shot clients often write the request and shutdown(SHUT_WR) in
        // one go, so the reactor can see the bytes and the FIN in a single
        // readiness event.  The buffered request must still be answered —
        // including when its service call is offloaded to a worker.
        let server = HttpServer::start(0, origin_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let req = Request::get(&format!("http://{}/half-close", server.addr()));
        stream.write_all(&serialize_request(&req)).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buffer = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buffer.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read failed: {e}"),
            }
        }
        match nakika_http::parse_response(&buffer) {
            Ok(ParseOutcome::Complete { message, .. }) => {
                assert!(message.body.to_text().contains("/half-close"))
            }
            other => panic!("expected a complete response, got {other:?}"),
        }
    }

    #[test]
    fn reactor_rejects_malformed_requests_with_400() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NOT A VALID REQUEST\r\n\r\n").unwrap();
        let mut buffer = Vec::new();
        let mut chunk = [0u8; 1024];
        while let Ok(n) = stream.read(&mut chunk) {
            if n == 0 {
                break;
            }
            buffer.extend_from_slice(&chunk[..n]);
        }
        assert!(String::from_utf8_lossy(&buffer).starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn dropped_reactor_stops_accepting_deterministically() {
        let server = HttpServer::start(0, origin_service()).unwrap();
        let addr = server.addr();
        // Drop joins the acceptor, every reactor thread, and the offload
        // pool, so by the time it returns nothing serves the port — no
        // sleep needed.
        drop(server);
        let refused = TcpStream::connect(addr)
            .map(|mut s| {
                let _ = s.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
                let mut buf = [0u8; 16];
                s.set_read_timeout(Some(std::time::Duration::from_millis(200)))
                    .unwrap();
                matches!(s.read(&mut buf), Ok(0) | Err(_))
            })
            .unwrap_or(true);
        assert!(refused, "no handler should serve after drop");
    }

    /// A service whose `/slow/…` calls block for `delay` (always classified
    /// `MayBlock`) while everything else answers instantly inline.
    struct SlowColdService {
        delay: Duration,
    }

    impl HttpService for SlowColdService {
        fn call(&self, req: Request, _ctx: &RequestCtx) -> Result<Response, NakikaError> {
            if req.uri.path.starts_with("/slow/") {
                std::thread::sleep(self.delay);
            }
            Ok(Response::ok("text/plain", req.uri.path.clone()))
        }

        fn dispatch_hint(&self, req: &Request, _ctx: &RequestCtx) -> DispatchHint {
            if req.uri.path.starts_with("/slow/") {
                DispatchHint::MayBlock
            } else {
                DispatchHint::Inline
            }
        }
    }

    #[test]
    fn offloaded_slow_call_does_not_stall_other_connections() {
        // One reactor thread, so without offloading the slow call would
        // freeze every connection on the server.
        let server = HttpServer::start_reactor(
            0,
            Arc::new(SlowColdService {
                delay: Duration::from_millis(150),
            }),
            ReactorConfig {
                reactors: 1,
                workers: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let base = server.base_url();
        let slow_url = format!("{base}/slow/origin.html");
        let slow = std::thread::spawn(move || {
            let start = Instant::now();
            let response = http_get(&slow_url).unwrap();
            assert_eq!(response.body.to_text(), "/slow/origin.html");
            start.elapsed()
        });
        // Give the slow request a head start so it is parked when the fast
        // ones arrive.
        std::thread::sleep(Duration::from_millis(30));
        let fast_start = Instant::now();
        for i in 0..5 {
            let response = http_get(&format!("{base}/fast/{i}")).unwrap();
            assert_eq!(response.body.to_text(), format!("/fast/{i}"));
        }
        let fast_elapsed = fast_start.elapsed();
        let slow_elapsed = slow.join().unwrap();
        assert!(
            slow_elapsed >= Duration::from_millis(140),
            "the slow call really blocked its worker: {slow_elapsed:?}"
        );
        assert!(
            fast_elapsed < slow_elapsed,
            "fast requests finished while the slow call was parked \
             (fast {fast_elapsed:?} vs slow {slow_elapsed:?})"
        );
    }

    #[test]
    fn slow_calls_queue_on_the_pool_while_inline_calls_stay_fast() {
        // What a thread per connection gave by construction, pinned for the
        // default pool — including the case it did not have, more blocked
        // calls than threads: four rounds of 100 ms calls all complete, and
        // a request the stack answers inline is never behind them.
        let workers = ReactorConfig::default().resolved_workers();
        let server = HttpServer::start(
            0,
            Arc::new(SlowColdService {
                delay: Duration::from_millis(100),
            }),
        )
        .unwrap();
        let base = server.base_url();
        let slow_clients: Vec<_> = (0..4 * workers)
            .map(|i| {
                let url = format!("{base}/slow/{i}");
                std::thread::spawn(move || http_get(&url).unwrap().body.to_text())
            })
            .collect();
        // Probe only once every slow call is on the pool: all workers
        // busy, three more rounds queued behind them.
        while server.stats().worker_submissions() < 4 * workers as u64 {
            std::thread::yield_now();
        }
        // Several probes, the quickest judged: a scheduler hiccup may delay
        // one, a probe queued behind the pool would delay every one.
        let mut quickest = Duration::MAX;
        let mut slow_in_flight = false;
        for probe in 0..3 {
            let start = Instant::now();
            let response = http_get(&format!("{base}/fast/{probe}")).unwrap();
            quickest = quickest.min(start.elapsed());
            assert_eq!(response.body.to_text(), format!("/fast/{probe}"));
            slow_in_flight |= slow_clients.iter().any(|client| !client.is_finished());
        }
        assert!(
            slow_in_flight,
            "the probes ran while slow calls held the pool"
        );
        assert!(
            quickest < Duration::from_millis(50),
            "an inline call waited on the pool: {quickest:?}"
        );
        for (i, client) in slow_clients.into_iter().enumerate() {
            assert_eq!(client.join().unwrap(), format!("/slow/{i}"));
        }
    }

    /// A service whose relay plan the test scripts directly: each attempt
    /// names a host, a port and the wire to write there.  `call` is the
    /// worker-pool fallback the splice exists to avoid — its marker body
    /// must never reach a client while the reactor adopts the plan.
    struct ScriptedPlan {
        attempts: Vec<(&'static str, u16, Vec<u8>)>,
        attempt_failures: Arc<AtomicU64>,
        /// Winning attempt index + 1 as seen by `finish`; 0 = never ran.
        winning_attempt: Arc<AtomicU64>,
    }

    impl HttpService for ScriptedPlan {
        fn call(&self, _req: Request, _ctx: &RequestCtx) -> Result<Response, NakikaError> {
            Ok(Response::ok("text/plain", "pooled fallback"))
        }

        fn dispatch_hint(&self, _req: &Request, _ctx: &RequestCtx) -> DispatchHint {
            DispatchHint::MayBlock
        }

        fn relay_plan(&self, _req: &Request, _ctx: &RequestCtx) -> Option<RelayPlan> {
            let winning = self.winning_attempt.clone();
            Some(RelayPlan {
                attempts: self
                    .attempts
                    .iter()
                    .map(|(host, port, wire)| {
                        let failures = self.attempt_failures.clone();
                        RelayAttempt {
                            host: host.to_string(),
                            port: *port,
                            wire: wire.clone(),
                            label: format!("upstream :{port}"),
                            fallback_on_error_status: false,
                            on_fail: Some(Arc::new(move || {
                                failures.fetch_add(1, Ordering::Relaxed);
                            })),
                        }
                    })
                    .collect(),
                on_start: Arc::new(|| {}),
                finish: Arc::new(move |response, index| {
                    winning.store(index as u64 + 1, Ordering::Relaxed);
                    response
                }),
                fail: Arc::new(|reason| {
                    let mut response =
                        Response::ok("text/plain", format!("relay failed: {reason}"));
                    response.status = StatusCode::BAD_GATEWAY;
                    response
                }),
            })
        }
    }

    /// A raw single-exchange origin: accepts one connection, reads exactly
    /// `expect` request bytes, writes `reply`, and closes.  Never parses —
    /// tests that hand it a giant wire only care about the byte count.
    fn raw_origin(expect: usize, reply: Vec<u8>) -> u16 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let mut seen = 0usize;
                let mut chunk = [0u8; 65536];
                while seen < expect {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => seen += n,
                    }
                }
                let _ = stream.write_all(&reply);
            }
        });
        port
    }

    const LOOPBACK: &str = "127.0.0.1";

    /// A port with nothing listening behind it: bound, then released.
    fn refused_port() -> u16 {
        TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port()
    }

    fn one_loop_splice_server(service: Arc<dyn HttpService>) -> HttpServer {
        HttpServer::start_reactor(
            0,
            service,
            ReactorConfig {
                reactors: 1,
                workers: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn first_connect_failing_either_way_falls_back_to_the_next_attempt() {
        // Both ways a first attempt can fail to open go through
        // `open_attempt` and must end the same: the attempt's `on_fail`
        // run once, the second attempt's 200 relayed, zero worker
        // hand-offs.  A multicast host fails inside `connect(2)` itself
        // (ENETUNREACH — TCP has no multicast); a closed loopback port
        // answers EINPROGRESS and is refused later, via the Connecting
        // state's SO_ERROR check.
        for (first_host, first_port) in [("224.0.0.1", 9), (LOOPBACK, refused_port())] {
            let wire = serialize_request(
                &Request::get("http://origin.test/f").with_header("Connection", "close"),
            );
            let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nfallback".to_vec();
            let live = raw_origin(wire.len(), reply);
            let failures = Arc::new(AtomicU64::new(0));
            let winning = Arc::new(AtomicU64::new(0));
            let service: Arc<dyn HttpService> = Arc::new(ScriptedPlan {
                attempts: vec![
                    (first_host, first_port, wire.clone()),
                    (LOOPBACK, live, wire),
                ],
                attempt_failures: failures.clone(),
                winning_attempt: winning.clone(),
            });
            let server = one_loop_splice_server(service);
            let response = http_get(&format!("{}/f", server.base_url())).unwrap();
            assert_eq!(
                response.status,
                StatusCode::OK,
                "first attempt {first_host}"
            );
            assert_eq!(response.body.to_text(), "fallback");
            assert_eq!(
                failures.load(Ordering::Relaxed),
                1,
                "on_fail ran exactly once for {first_host}"
            );
            assert_eq!(
                winning.load(Ordering::Relaxed),
                2,
                "finish saw attempt 1 win"
            );
            assert_eq!(server.stats().worker_submissions(), 0);
            assert_eq!(server.stats().spliced_relays(), 1);
        }
    }

    #[test]
    fn connect_refused_on_every_attempt_renders_the_plan_failure() {
        let a = refused_port();
        let b = refused_port();
        let wire = serialize_request(
            &Request::get(&format!("http://127.0.0.1:{a}/dead")).with_header("Connection", "close"),
        );
        let failures = Arc::new(AtomicU64::new(0));
        let winning = Arc::new(AtomicU64::new(0));
        let service: Arc<dyn HttpService> = Arc::new(ScriptedPlan {
            attempts: vec![(LOOPBACK, a, wire.clone()), (LOOPBACK, b, wire)],
            attempt_failures: failures.clone(),
            winning_attempt: winning.clone(),
        });
        let server = one_loop_splice_server(service);
        let response = http_get(&format!("{}/dead", server.base_url())).unwrap();
        assert_eq!(response.status, StatusCode::BAD_GATEWAY);
        assert!(
            response.body.to_text().contains("connect failed"),
            "failure response names the cause: {}",
            response.body.to_text()
        );
        assert_eq!(
            failures.load(Ordering::Relaxed),
            2,
            "every attempt ran its on_fail"
        );
        assert_eq!(winning.load(Ordering::Relaxed), 0, "finish never ran");
        assert_eq!(server.stats().worker_submissions(), 0);
        assert_eq!(server.stats().spliced_relays(), 0);
        assert_eq!(
            server.stats().relay_aborts(),
            0,
            "pre-head failures are not aborts"
        );
    }

    #[test]
    fn a_failed_plan_leaves_its_connection_spliceable() {
        // A plan that failed on every attempt must not leave its splice
        // record on the client connection: the next miss on the same
        // keep-alive connection is spliced again, not sent to the pool
        // (whose marker body would be a 200).
        let wire = serialize_request(&Request::get("http://origin.test/dead"));
        let failures = Arc::new(AtomicU64::new(0));
        let service: Arc<dyn HttpService> = Arc::new(ScriptedPlan {
            attempts: vec![(LOOPBACK, refused_port(), wire)],
            attempt_failures: failures.clone(),
            winning_attempt: Arc::new(AtomicU64::new(0)),
        });
        let server = one_loop_splice_server(service);
        let mut client = crate::ProxyClient::connect(server.addr()).unwrap();
        for _ in 0..2 {
            let response = client.get("http://origin.test/dead").unwrap();
            assert_eq!(response.status, StatusCode::BAD_GATEWAY);
        }
        assert_eq!(failures.load(Ordering::Relaxed), 2);
        assert_eq!(server.stats().worker_submissions(), 0);
    }

    #[test]
    fn giant_upstream_request_survives_partial_writes() {
        // An 8 MiB upstream wire cannot fit any loopback send buffer, so
        // the Sending state must hit WouldBlock and resume across many
        // writability events before the exchange can complete.
        let mut wire = b"GET /big HTTP/1.1\r\nHost: pad\r\nConnection: close\r\nX-Pad: ".to_vec();
        wire.extend_from_slice(&vec![b'a'; 8 * 1024 * 1024]);
        wire.extend_from_slice(b"\r\n\r\n");
        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 13\r\n\r\npartial write".to_vec();
        let origin = raw_origin(wire.len(), reply);
        let failures = Arc::new(AtomicU64::new(0));
        let winning = Arc::new(AtomicU64::new(0));
        let service: Arc<dyn HttpService> = Arc::new(ScriptedPlan {
            attempts: vec![(LOOPBACK, origin, wire)],
            attempt_failures: failures.clone(),
            winning_attempt: winning.clone(),
        });
        let server = one_loop_splice_server(service);
        let response = http_get(&format!("{}/big", server.base_url())).unwrap();
        assert_eq!(response.status, StatusCode::OK);
        assert_eq!(response.body.to_text(), "partial write");
        assert_eq!(failures.load(Ordering::Relaxed), 0);
        assert_eq!(server.stats().worker_submissions(), 0);
        assert_eq!(server.stats().spliced_relays(), 1);
    }
}
