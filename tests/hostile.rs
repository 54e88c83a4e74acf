//! Hostile-workload survival: the proxy under attack must evict the
//! attackers, answer the protocol-violation traffic with the right
//! status codes, and keep serving polite clients byte-identically.
//!
//! This file is the one hostile harness: the attack clients below are
//! its own, and every claim is an assertion, so `cargo test` is the
//! whole check.  The defenses under test are the per-connection progress
//! deadlines and connection cap in `nakika-server` (`ServerOptions`) and
//! the header/body caps in `nakika-http`'s parser.
//!
//! * [`slow_loris`] drips one header byte per tick, forever;
//!   [`header_flood`] sends an unbounded header list; [`oversized_body`]
//!   declares a body past the parser cap; [`SlowReader`] requests a large
//!   body and reads one byte per tick; [`connection_churn`] connects,
//!   dawdles and vanishes.
//! * [`keepalive_soak`] holds many polite keep-alive sessions open at once
//!   (scaled to the fd budget by [`fd_budget_connections`]) and counts
//!   every dropped connection.  `NAKIKA_SOAK_CONNS` sets its size: CI runs
//!   1,000, and 10,000 is the large soak (docs/BENCHMARKING.md).

use nakika_core::service::service_fn;
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{
    http_get_via_proxy, HttpServer, ProxyClient, ReactorConfig, ServerOptions, TcpOrigin,
    OUTPUT_WINDOW_BYTES,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn expected_body(i: usize) -> String {
    format!("polite body {i}: {}", "y".repeat(256 + i))
}

fn start_origin() -> HttpServer {
    HttpServer::start(
        0,
        service_fn(|req: Request, _ctx| {
            let path = req.uri.path.as_str();
            if path.starts_with("/big") {
                // Large enough that the kernel's loopback socket buffers
                // cannot absorb it all: a non-draining reader really does
                // stall the server's writes.
                return Ok(
                    Response::ok("application/octet-stream", "z".repeat(8 << 20))
                        .with_header("Cache-Control", "max-age=600"),
                );
            }
            let i: usize = path
                .trim_start_matches("/polite/")
                .trim_end_matches(".html")
                .parse()
                .unwrap_or(0);
            Ok(Response::ok("text/html", expected_body(i))
                .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .expect("origin starts")
}

fn start_proxy(options: ServerOptions) -> (HttpServer, HttpServer) {
    let origin = start_origin();
    let edge = NodeBuilder::plain_proxy("hostile-edge")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let config = ReactorConfig {
        options,
        ..ReactorConfig::default()
    };
    let proxy = HttpServer::start_reactor(0, edge.service(), config).expect("proxy");
    (origin, proxy)
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// Reads whatever response head the server manages to send before
/// closing and returns its status code (408 from a deadline, 431/413
/// from a parser cap, 503 from the connection cap).  `None` means the
/// connection died with no parseable status line.
fn read_status(stream: &mut TcpStream) -> Option<u16> {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while let Ok(n @ 1..) = stream.read(&mut chunk) {
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let line = buf.split(|&b| b == b'\r').next()?;
    std::str::from_utf8(line)
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// A slow-loris client: sends a valid request line, then drips one header
/// byte every `drip` for at most `give_up`, never completing the head.
/// Returns `true` as soon as the server cuts the connection (the defense
/// worked), `false` when `give_up` expires with the server still
/// humouring us.
fn slow_loris(addr: SocketAddr, drip: Duration, give_up: Duration) -> bool {
    let Ok(mut stream) = connect(addr) else {
        return true;
    };
    if stream
        .write_all(b"GET http://origin.invalid/ HTTP/1.1\r\nHost: origin.invalid\r\nX-Drip: ")
        .is_err()
    {
        return true;
    }
    stream.set_read_timeout(Some(Duration::from_millis(1))).ok();
    let start = Instant::now();
    let mut chunk = [0u8; 1024];
    while start.elapsed() < give_up {
        std::thread::sleep(drip);
        // Probe for a server verdict (408 / close) between drips.
        match stream.read(&mut chunk) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return true,
        }
        if stream.write_all(b"a").is_err() {
            return true;
        }
    }
    false
}

/// A header flood: one complete request carrying `headers` header lines
/// (far past the parser's count cap).  A healthy server answers 431 and
/// closes instead of buffering the lot.
fn header_flood(addr: SocketAddr, headers: usize) -> Option<u16> {
    let mut stream = connect(addr).ok()?;
    let mut request =
        String::from("GET http://origin.invalid/ HTTP/1.1\r\nHost: origin.invalid\r\n");
    for i in 0..headers {
        request.push_str(&format!("X-Flood-{i}: aaaaaaaaaaaaaaaa\r\n"));
    }
    request.push_str("\r\n");
    // The server may slam the door mid-write; that is success too.
    let _ = stream.write_all(request.as_bytes());
    read_status(&mut stream)
}

/// Announces a body far past the parser's size cap and sends none of it.
/// A healthy server answers 413 from the `Content-Length` alone.
fn oversized_body(addr: SocketAddr, declared_bytes: u64) -> Option<u16> {
    let mut stream = connect(addr).ok()?;
    let head = format!(
        "POST http://origin.invalid/upload HTTP/1.1\r\nHost: origin.invalid\r\n\
         Content-Length: {declared_bytes}\r\n\r\n"
    );
    let _ = stream.write_all(head.as_bytes());
    read_status(&mut stream)
}

/// A slow-read client: requests `url` (typically a large cached body),
/// then drains one byte every `drip`.  The server's output buffer for
/// this connection never empties, so its progress deadline must fire.
struct SlowReader {
    stream: TcpStream,
}

impl SlowReader {
    /// Sends the request and returns the draining handle.
    fn start(addr: SocketAddr, url: &str) -> std::io::Result<SlowReader> {
        let mut stream = connect(addr)?;
        let request = format!("GET {url} HTTP/1.1\r\nHost: origin.invalid\r\n\r\n");
        stream.write_all(request.as_bytes())?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(SlowReader { stream })
    }

    /// Reads one byte per `drip` until the server gives up on us or
    /// `give_up` expires.
    fn drain(mut self, drip: Duration, give_up: Duration) {
        let start = Instant::now();
        let mut byte = [0u8; 1];
        while start.elapsed() < give_up {
            match self.stream.read(&mut byte) {
                Ok(0) => return,
                Ok(_) => std::thread::sleep(drip),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return,
            }
        }
    }
}

/// Connection churn: `count` times, connect, linger briefly, and vanish
/// without sending a byte.  Exercises accept-path bookkeeping (slot
/// claim/release, deadline arm/disarm) at a hostile rate.
fn connection_churn(addr: SocketAddr, count: usize, linger: Duration) {
    for _ in 0..count {
        if let Ok(stream) = connect(addr) {
            std::thread::sleep(linger);
            drop(stream);
        }
    }
}

/// Result of a [`keepalive_soak`] run.
struct SoakReport {
    /// Keep-alive connections opened.
    connections: usize,
    /// Requests completed across all rounds.
    completed: u64,
    /// Connections that died mid-soak (must be zero for a healthy server).
    dropped: usize,
}

/// The soft fd limit of this process, read from `/proc/self/limits`
/// (falls back to 1024, the classic default, when unreadable).
fn fd_soft_limit() -> usize {
    let Ok(limits) = std::fs::read_to_string("/proc/self/limits") else {
        return 1024;
    };
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

/// Scales a requested soak size to what the fd budget can hold: each
/// soak connection costs two descriptors (client end and server end
/// share this process), plus headroom for the harness itself.
fn fd_budget_connections(requested: usize) -> usize {
    let headroom = 256;
    let usable = fd_soft_limit().saturating_sub(headroom) / 2;
    requested.min(usable).max(1)
}

/// Holds `connections` polite keep-alive sessions open simultaneously and
/// drives `rounds` request/response cycles over every one of them,
/// round-robin.  A healthy server with a progress-based idle policy
/// drops none of them: every connection completes a request each round,
/// which re-arms its deadline.
fn keepalive_soak(addr: SocketAddr, url: &str, connections: usize, rounds: usize) -> SoakReport {
    let mut clients: Vec<_> = (0..connections)
        .map(|_| Some(ProxyClient::connect(addr).expect("soak connect")))
        .collect();
    let mut completed = 0u64;
    let mut dropped = 0usize;
    for _ in 0..rounds {
        for slot in clients.iter_mut() {
            let Some(client) = slot.as_mut() else {
                continue;
            };
            match client.get(url) {
                Ok(_) => completed += 1,
                Err(_) => {
                    dropped += 1;
                    *slot = None;
                }
            }
        }
    }
    SoakReport {
        connections,
        completed,
        dropped,
    }
}

/// The barrage: while 64 polite keep-alive clients hammer cached pages,
/// four slow-loris clients drip header bytes, a flooder sends 512-header
/// requests back to back and a churner opens and abandons connections.
/// Every loris must be evicted by the progress deadline (raw bytes are
/// not progress), every flood must get 431, and every polite request
/// must succeed byte-identically, because each completed request re-arms
/// that client's deadline.
#[test]
fn barrage_is_refused_while_polite_clients_stay_healthy() {
    let (origin, proxy) = start_proxy(ServerOptions {
        idle_timeout_ms: 600,
        ..ServerOptions::default()
    });
    let addr = proxy.addr();
    let base = origin.base_url();

    let lorises: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                // 50 ms per byte: constant byte-level activity, zero
                // protocol progress.  A byte-activity timer would never
                // fire here.
                slow_loris(addr, Duration::from_millis(50), Duration::from_secs(20))
            })
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let flooder = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut statuses = Vec::new();
            loop {
                statuses.push(header_flood(addr, 512));
                if stop.load(Ordering::Relaxed) {
                    return statuses;
                }
            }
        })
    };
    let churner = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                connection_churn(addr, 8, Duration::from_millis(1));
            }
        })
    };

    let polite: Vec<_> = (0..64)
        .map(|c| {
            let base = base.clone();
            std::thread::spawn(move || {
                let mut client = ProxyClient::connect(addr).expect("polite connect");
                for r in 0..8 {
                    let i = (c + r) % 16;
                    let url = format!("{base}/polite/{i}.html");
                    let response = client.get(&url).expect("polite request survives attack");
                    assert_eq!(response.status, StatusCode::OK);
                    assert_eq!(
                        response.body.to_text(),
                        expected_body(i),
                        "byte-identical under attack"
                    );
                }
            })
        })
        .collect();
    for p in polite {
        p.join().expect("polite client panicked");
    }
    stop.store(true, Ordering::Relaxed);

    let statuses = flooder.join().expect("flooder panicked");
    assert!(
        statuses.iter().all(|&s| s == Some(431)),
        "every header flood must get 431: {statuses:?}"
    );
    churner.join().expect("churner panicked");
    for loris in lorises {
        let evicted = loris.join().expect("loris panicked");
        assert!(evicted, "slow-loris survived its 20 s give-up");
    }
    assert!(proxy.stats().timeouts() >= 4, "evictions not counted");
}

/// A client that connects and never sends a byte is answered with the
/// courtesy `408 Request Timeout` once its progress deadline passes, then
/// closed, and the eviction is counted exactly once.
#[test]
fn silent_connection_gets_408_then_eof() {
    let (_origin, proxy) = start_proxy(ServerOptions {
        idle_timeout_ms: 300,
        ..ServerOptions::default()
    });
    let mut silent = TcpStream::connect(proxy.addr()).expect("silent client connects");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = Vec::new();
    silent
        .read_to_end(&mut reply)
        .expect("the server closes the silent connection");
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "silent client read {reply:?}"
    );
    assert_eq!(proxy.stats().timeouts(), 1);
}

/// Protocol-violation traffic is refused with the right status before it
/// costs memory: unbounded header lists get 431, a declared body past
/// the parser cap gets 413 — from the `Content-Length` alone.
#[test]
fn floods_are_refused_with_431_and_413() {
    let (_origin, proxy) = start_proxy(ServerOptions::default());

    let flood = header_flood(proxy.addr(), 512);
    assert_eq!(flood, Some(431), "512-header request must get 431");

    let body = oversized_body(proxy.addr(), 128 * 1024 * 1024);
    assert_eq!(body, Some(413), "128 MiB declared body must get 413");
}

/// A slow-read client asks for an 8 MiB cached body and drains one byte
/// at a time: its output never empties, so the progress deadline evicts
/// it — and the per-connection output window keeps the server's own
/// buffered bytes bounded the whole while.  Eviction is judged by the
/// server's `timeouts` counter, not by client-side EOF: the kernel's
/// loopback buffers hand the client stale bytes long after the server
/// has hung up, so the client is the one witness that cannot be trusted.
#[test]
fn slow_reader_is_evicted_and_output_stays_bounded() {
    let (origin, proxy) = start_proxy(ServerOptions {
        idle_timeout_ms: 500,
        ..ServerOptions::default()
    });
    let url = format!("{}/big.bin", origin.base_url());
    // Warm the cache politely first.
    let response = http_get_via_proxy(proxy.addr(), &url).expect("warm fetch");
    assert_eq!(response.body.len(), 8 << 20);

    let reader = SlowReader::start(proxy.addr(), &url).expect("slow reader connects");
    let drain = std::thread::spawn(move || {
        reader.drain(Duration::from_millis(5), Duration::from_secs(8));
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while proxy.stats().timeouts() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "slow reader never evicted"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        proxy.peak_buffered_output() <= OUTPUT_WINDOW_BYTES,
        "stalled reader ballooned the output buffer to {}",
        proxy.peak_buffered_output()
    );
    drain.join().expect("drain thread panicked");
}

/// Past the connection cap, new arrivals get a canned 503 and a close —
/// and the refusal is counted.  Existing connections are untouched.
#[test]
fn over_cap_connections_get_503() {
    let (origin, proxy) = start_proxy(ServerOptions {
        max_connections: 4,
        ..ServerOptions::default()
    });
    let url = format!("{}/polite/2.html", origin.base_url());

    // Fill the cap with live keep-alive sessions (a request each, so
    // the slots are provably claimed before the fifth arrives).
    let mut held: Vec<ProxyClient> = (0..4)
        .map(|_| {
            let mut c = ProxyClient::connect(proxy.addr()).expect("connect");
            assert_eq!(c.get(&url).expect("in-cap request").status, StatusCode::OK);
            c
        })
        .collect();

    let refused = http_get_via_proxy(proxy.addr(), &url).expect("over-cap exchange");
    assert_eq!(
        refused.status.as_u16(),
        503,
        "fifth connection must be refused"
    );
    assert!(proxy.stats().rejected_over_cap() >= 1);

    // The held connections still work after the refusal.
    for c in held.iter_mut() {
        assert_eq!(c.get(&url).expect("still served").status, StatusCode::OK);
    }
}

/// A scaled-down always-on soak: hundreds of polite keep-alive sessions
/// held open simultaneously, several rounds each, zero drops.  CI runs
/// the large version (`NAKIKA_SOAK_CONNS=1000`; 10,000 is the large
/// soak); the default here stays modest so `cargo test` is quick on
/// small fd budgets.
#[test]
fn keepalive_soak_drops_no_polite_connections() {
    let requested = std::env::var("NAKIKA_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let conns = fd_budget_connections(requested);
    let (origin, proxy) = start_proxy(ServerOptions::default());
    let url = format!("{}/polite/3.html", origin.base_url());
    http_get_via_proxy(proxy.addr(), &url).expect("warm");

    let report = keepalive_soak(proxy.addr(), &url, conns, 3);
    assert_eq!(
        report.dropped, 0,
        "dropped {} of {} polite connections",
        report.dropped, report.connections
    );
    assert_eq!(report.completed, (conns * 3) as u64);
}

#[test]
fn fd_budget_is_sane() {
    let n = fd_budget_connections(10_000);
    assert!(n >= 1);
    assert!(n <= 10_000);
    assert!(fd_soft_limit() >= 64);
}
