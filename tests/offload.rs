//! Event-loop stall regression: origin I/O for cache misses must not
//! freeze a reactor's other connections.
//!
//! Before the reactor origin offload, a cold fetch ran *on the event-loop
//! thread*: with one reactor, a single slow origin froze every warm
//! keep-alive client for the duration of the fetch, collapsing warm-hit
//! throughput to origin latency.  This test pins the server to one reactor
//! thread (the worst case, and deterministic), measures a pure warm
//! workload as the baseline, then repeats it while deliberately slow
//! (>=50 ms) cold fetches run continuously — and asserts the warm workload
//! stays within 2x of the baseline.  On the pre-offload reactor the mixed
//! run collapses to a multiple of the origin delay and fails by a wide
//! margin.

use nakika_core::service::{service_fn, NakikaError};
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{http_get_via_proxy, HttpServer, ProxyClient, ReactorConfig, TcpOrigin};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the origin stalls each cold (`/slow/...`) fetch.
const ORIGIN_DELAY: Duration = Duration::from_millis(50);

/// Warm keep-alive clients hammering the hot URL.
const WARM_CLIENTS: usize = 64;

/// Requests per warm client per measured run.
const WARM_REQUESTS_PER_CLIENT: usize = 50;

/// Runs the warm workload — `WARM_CLIENTS` simultaneous keep-alive
/// connections, each issuing `WARM_REQUESTS_PER_CLIENT` gets of the hot
/// URL — and returns its wall-clock duration.
fn warm_run(proxy: std::net::SocketAddr, url: &str) -> Duration {
    let start = Instant::now();
    let clients: Vec<_> = (0..WARM_CLIENTS)
        .map(|_| {
            let url = url.to_string();
            std::thread::spawn(move || -> Result<(), NakikaError> {
                let mut client = ProxyClient::connect(proxy)?;
                for _ in 0..WARM_REQUESTS_PER_CLIENT {
                    let response = client.get(&url)?;
                    assert_eq!(response.status, StatusCode::OK);
                    assert_eq!(response.body.to_text(), "hot content");
                }
                Ok(())
            })
        })
        .collect();
    for client in clients {
        client.join().expect("warm client panicked").unwrap();
    }
    start.elapsed()
}

#[test]
fn slow_cold_origin_does_not_stall_warm_reactor_clients() {
    // The origin sleeps ORIGIN_DELAY for every /slow/ path and answers the
    // hot path instantly; everything is cacheable, but each cold URL is
    // requested exactly once so it always misses.
    let origin = HttpServer::start(
        0,
        service_fn(|req: Request, _ctx| {
            if req.uri.path.starts_with("/slow/") {
                std::thread::sleep(ORIGIN_DELAY);
            }
            let body = if req.uri.path == "/hot.html" {
                "hot content"
            } else {
                "cold content"
            };
            Ok(Response::ok("text/html", body).with_header("Cache-Control", "max-age=600"))
        }),
    )
    .unwrap();

    let edge = NodeBuilder::plain_proxy("offload-edge")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    // One reactor thread: pre-offload, a single in-flight cold fetch
    // freezes *every* connection, so the regression cannot hide behind
    // multi-reactor luck.
    let server = HttpServer::start_reactor(
        0,
        edge.service(),
        ReactorConfig {
            reactors: 1,
            workers: 4,
            ..ReactorConfig::default()
        },
    )
    .unwrap();

    let hot_url = format!("{}/hot.html", origin.base_url());
    // Warm the cache so the measured runs are pure warm hits.
    let first = http_get_via_proxy(server.addr(), &hot_url).unwrap();
    assert_eq!(first.status, StatusCode::OK);

    // Baseline: the warm workload with no cold traffic.
    let baseline = warm_run(server.addr(), &hot_url);

    // Mixed: the same workload while two clients keep slow cold misses in
    // flight for the whole measurement window.
    let stop = Arc::new(AtomicBool::new(false));
    let cold_fetches = Arc::new(AtomicUsize::new(0));
    let cold_clients: Vec<_> = (0..2)
        .map(|c| {
            let stop = stop.clone();
            let fetched = cold_fetches.clone();
            let base = origin.base_url();
            let proxy = server.addr();
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let url = format!("{base}/slow/{c}-{i}.html");
                    let response = http_get_via_proxy(proxy, &url).expect("cold fetch failed");
                    assert_eq!(response.body.to_text(), "cold content");
                    fetched.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();
    let mixed = warm_run(server.addr(), &hot_url);
    stop.store(true, Ordering::Relaxed);
    for client in cold_clients {
        client.join().expect("cold client panicked");
    }

    assert!(
        cold_fetches.load(Ordering::Relaxed) > 0,
        "cold misses really overlapped the warm workload"
    );
    assert_eq!(
        edge.node().stats().origin_fetches as usize,
        cold_fetches.load(Ordering::Relaxed) + 1,
        "every cold URL missed the cache (plus the one hot warm-up fetch)"
    );
    // The acceptance bound: warm throughput within 2x of the no-miss
    // baseline.  A small absolute grace absorbs scheduler noise on tiny
    // baselines without masking the failure mode (pre-offload, the mixed
    // run serializes behind ~50 ms origin stalls and lands far beyond it).
    let bound = (baseline * 2).max(baseline + Duration::from_millis(120));
    assert!(
        mixed <= bound,
        "warm clients stalled behind cold origin I/O: baseline {baseline:?}, \
         with concurrent cold misses {mixed:?} (bound {bound:?})"
    );
}
