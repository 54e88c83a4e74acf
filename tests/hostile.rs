//! Hostile-workload survival: the proxy under attack must evict the
//! attackers, answer the protocol-violation traffic with the right
//! status codes, and keep serving polite clients byte-identically.
//!
//! The attack clients live in `nakika_bench::hostile`; the defenses
//! under test are the per-connection progress deadlines and connection
//! cap in `nakika-server` (`ServerOptions`) and the header/body caps in
//! `nakika-http`'s parser.

use nakika_bench::hostile::{header_flood, keepalive_soak, oversized_body, slow_loris, SlowReader};
use nakika_core::service::service_fn;
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{
    http_get_via_proxy, HttpServer, ProxyClient, ProxyServer, ReactorConfig, ServerOptions,
    TcpOrigin, OUTPUT_WINDOW_BYTES,
};
use std::sync::Arc;
use std::time::Duration;

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

fn start_proxy(options: ServerOptions) -> (HttpServer, ProxyServer) {
    let origin = start_origin();
    let edge = NodeBuilder::plain_proxy("hostile-edge")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let config = ReactorConfig {
        options,
        ..ReactorConfig::default()
    };
    let proxy = ProxyServer::start_reactor(0, edge.service(), config).expect("proxy");
    (origin, proxy)
}

/// A slow-loris drips header bytes while 64 polite keep-alive clients
/// hammer cached pages.  The loris must be evicted by the progress
/// deadline (raw bytes are not progress); every polite request must
/// succeed byte-identically, because each completed request re-arms
/// that client's deadline.
#[test]
fn slow_loris_is_evicted_while_polite_clients_stay_healthy() {
    let (origin, proxy) = start_proxy(ServerOptions {
        idle_timeout_ms: 600,
        ..ServerOptions::default()
    });
    let addr = proxy.addr();
    let base = origin.base_url();

    let loris = std::thread::spawn(move || {
        // 50 ms per byte: constant byte-level activity, zero protocol
        // progress.  A byte-activity timer would never fire here.
        slow_loris(addr, Duration::from_millis(50), Duration::from_secs(20))
    });

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

    let outcome = loris.join().expect("loris panicked");
    assert!(outcome.evicted, "slow-loris survived its 20 s give-up");
    assert!(proxy.stats().timeouts() >= 1, "eviction not counted");
}

/// Protocol-violation traffic is refused with the right status before it
/// costs memory: unbounded header lists get 431, a declared body past
/// the parser cap gets 413 — from the `Content-Length` alone.
#[test]
fn floods_are_refused_with_431_and_413() {
    let (_origin, proxy) = start_proxy(ServerOptions::default());

    let flood = header_flood(proxy.addr(), 512);
    assert_eq!(flood.status, Some(431), "512-header request must get 431");

    let body = oversized_body(proxy.addr(), 128 * 1024 * 1024);
    assert_eq!(body.status, Some(413), "128 MiB declared body must get 413");
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
/// the large version (`NAKIKA_SOAK_CONNS=1000`, and the experiments
/// harness's full mode goes to 10k); the default here stays modest so
/// `cargo test` is quick on small fd budgets.
#[test]
fn keepalive_soak_drops_no_polite_connections() {
    let requested = std::env::var("NAKIKA_SOAK_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let conns = nakika_bench::hostile::fd_budget_connections(requested);
    let (origin, proxy) = start_proxy(ServerOptions::default());
    let url = format!("{}/polite/3.html", origin.base_url());
    http_get_via_proxy(proxy.addr(), &url).expect("warm");

    let report = keepalive_soak(proxy.addr(), &url, conns, 3).expect("soak runs");
    assert_eq!(
        report.dropped, 0,
        "dropped {} of {} polite connections",
        report.dropped, report.connections
    );
    assert_eq!(report.completed, (conns * 3) as u64);
    assert!(report.hist.count() == report.completed);
}
