//! End-to-end tests of the v2 streaming `Body` path: truncated upstreams
//! surface as typed errors, and large responses relay byte-identically
//! while per-connection buffering stays under the bounded window.

use bytes::Bytes;
use nakika_core::service::{buffered_body, service_fn, NakikaError};
use nakika_core::NodeBuilder;
use nakika_http::{Body, ChunkSource, Request, Response, StatusCode, STREAM_CHUNK_BYTES};
use nakika_server::{
    http_fetch, http_fetch_streaming_via_proxy, http_get_via_proxy, HttpServer, ProxyServer,
    TcpOrigin, OUTPUT_WINDOW_BYTES,
};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

/// A raw TCP "origin" that promises `claimed` body bytes but sends only
/// `sent` before closing — the misbehaving upstream of the truncation
/// tests.
fn lying_origin(claimed: usize, sent: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            let mut buf = [0u8; 4096];
            // Read until the request head is complete (tests send no body).
            let mut seen = Vec::new();
            while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => seen.extend_from_slice(&buf[..n]),
                }
            }
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: video/mpeg\r\nContent-Length: {claimed}\r\n\r\n"
            );
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(&vec![0x2a; sent]);
            // Dropping the stream closes the connection mid-body.
        }
    });
    addr
}

#[test]
fn content_length_mismatch_surfaces_as_upstream_error() {
    let origin = lying_origin(100_000, 500);
    let url = format!("http://{origin}/movie.mpg");

    // The buffered convenience client refuses to hand back a short body.
    match http_fetch(&Request::get(&url)) {
        Err(NakikaError::Upstream { reason, .. }) => {
            assert!(
                reason.contains("got 500 of 100000"),
                "reason names the byte counts: {reason}"
            );
        }
        other => panic!("expected an upstream error, got {other:?}"),
    }

    // And the platform's default status mapping turns it into a 502.
    let err = http_fetch(&Request::get(&url)).unwrap_err();
    assert_eq!(err.status(), StatusCode::BAD_GATEWAY);
    let rendered = err.to_response();
    assert_eq!(rendered.status, StatusCode::BAD_GATEWAY);
    assert_eq!(rendered.headers.get("X-Nakika-Error"), Some("upstream"));
}

#[test]
fn node_buffering_point_converts_truncation_into_502() {
    let origin = lying_origin(64 * 1024, 1024);
    // A node relaying the lying origin, with an explicit buffering point
    // stacked on top (the same adapter `Layer::requires_full_body` layers
    // get): the stream failure becomes a typed error, not a short body.
    let edge = NodeBuilder::plain_proxy("truncation-edge")
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let stack = buffered_body(edge.service());
    let request = Request::get(&format!("http://{origin}/big.bin"));
    match stack.call(request, &nakika_core::service::RequestCtx::at(5)) {
        Err(NakikaError::Upstream { reason, .. }) => {
            assert!(reason.contains("got 1024 of 65536"), "reason: {reason}");
        }
        other => panic!("expected an upstream error, got {other:?}"),
    }
    // Nothing that failed mid-stream may have been cached.
    assert_eq!(edge.node().cache_stats().inserts, 0);
}

/// A deterministic pattern source: `total` bytes of a repeating sequence,
/// generated on the fly so no side of the test holds the body in memory.
struct PatternSource {
    produced: usize,
    total: usize,
}

fn pattern_byte(i: usize) -> u8 {
    ((i * 31 + i / 251) % 251) as u8
}

impl ChunkSource for PatternSource {
    fn next_chunk(&mut self) -> std::io::Result<Option<Bytes>> {
        if self.produced >= self.total {
            return Ok(None);
        }
        let n = (self.total - self.produced).min(STREAM_CHUNK_BYTES);
        let chunk: Vec<u8> = (self.produced..self.produced + n)
            .map(pattern_byte)
            .collect();
        self.produced += n;
        Ok(Some(Bytes::from(chunk)))
    }
}

const LARGE_BODY_BYTES: usize = 8 * 1024 * 1024;

fn pattern_origin(declare_length: bool) -> Arc<dyn nakika_core::service::HttpService> {
    service_fn(move |_req: Request, _ctx| {
        let source = PatternSource {
            produced: 0,
            total: LARGE_BODY_BYTES,
        };
        let declared = declare_length.then_some(LARGE_BODY_BYTES as u64);
        let mut response = Response::ok_stream("application/octet-stream", source, declared);
        response.headers.set("Cache-Control", "no-store");
        Ok(response)
    })
}

#[test]
fn large_bodies_relay_byte_identical_with_bounded_buffering() {
    // Both wire framings: a declared Content-Length and an undeclared
    // (chunked) stream.
    for declare_length in [true, false] {
        let origin = HttpServer::start(0, pattern_origin(declare_length)).unwrap();
        // A small cache keeps the 8 MiB relay out of the tee budget, so
        // this test isolates pure transport buffering.
        let edge = Arc::new(
            NodeBuilder::plain_proxy("large-body-edge")
                .cache_capacity_bytes(64 * 1024)
                .origin(Arc::new(TcpOrigin::new()))
                .build(),
        );
        let proxy = ProxyServer::start(0, edge.service()).unwrap();
        let url = format!("{}/large.bin", origin.base_url());

        // Each server carries its own high-water gauge (freshly zero for
        // these just-started servers), so concurrently running tests
        // cannot contaminate the measurement.
        let mut response =
            http_fetch_streaming_via_proxy(proxy.addr(), &Request::get(&url)).unwrap();
        assert_eq!(response.status, StatusCode::OK);

        // Drain the stream chunk by chunk, verifying the pattern so the
        // test never holds the 8 MiB body either.
        let mut offset = 0usize;
        let mut body = std::mem::take(&mut response.body);
        while let Some(chunk) = body.read_chunk().unwrap() {
            for (i, byte) in chunk.iter().enumerate() {
                assert_eq!(
                    *byte,
                    pattern_byte(offset + i),
                    "byte {} differs (declared={declare_length})",
                    offset + i
                );
            }
            offset += chunk.len();
        }
        assert_eq!(
            offset, LARGE_BODY_BYTES,
            "full body arrived (declared={declare_length})"
        );

        // The instrumented chunk accounting across *every* connection in
        // the chain (origin server + proxy) must
        // stay under the bounded output window.
        let peak = origin
            .peak_buffered_output()
            .max(proxy.peak_buffered_output());
        assert!(
            peak <= OUTPUT_WINDOW_BYTES,
            "peak buffered output {peak} exceeds the {OUTPUT_WINDOW_BYTES} window \
             (declared={declare_length})"
        );
        assert!(peak > 0, "the workload exercised the instrumented path");
        // An 8 MiB body never fit the 64 KiB cache: it streamed through
        // uncached rather than being buffered for admission.
        assert_eq!(edge.node().cache_stats().inserts, 0);
    }
}

#[test]
fn streamed_responses_within_budget_still_warm_the_cache() {
    // A moderate body (1 MiB) under the default entry budget: the tee must
    // capture it while relaying, so the second request is a cache hit and
    // byte-identical.
    let body: Vec<u8> = (0..1024 * 1024).map(pattern_byte).collect();
    let origin_body = body.clone();
    let origin = HttpServer::start(
        0,
        service_fn(move |_req: Request, _ctx| {
            let chunks: Vec<Bytes> = origin_body
                .chunks(STREAM_CHUNK_BYTES)
                .map(Bytes::copy_from_slice)
                .collect();
            let mut response = Response::new(StatusCode::OK);
            response.headers.set("Cache-Control", "max-age=600");
            response.body = Body::stream_from_iter(chunks, Some(1024 * 1024));
            Ok(response)
        }),
    )
    .unwrap();
    let edge = Arc::new(
        NodeBuilder::plain_proxy("tee-edge")
            .origin(Arc::new(TcpOrigin::new()))
            .build(),
    );
    let proxy = ProxyServer::start(0, edge.service()).unwrap();
    let url = format!("{}/warm.bin", origin.base_url());

    let first = http_get_via_proxy(proxy.addr(), &url).unwrap();
    assert_eq!(first.body.to_bytes().to_vec(), body);
    let second = http_get_via_proxy(proxy.addr(), &url).unwrap();
    assert_eq!(second.body.to_bytes().to_vec(), body);
    let stats = edge.node().cache_stats();
    assert_eq!(
        stats.inserts, 1,
        "the streamed body was teed into the cache"
    );
    assert!(stats.hits >= 1, "the second request hit the cache");
}

#[test]
fn only_a_cleanly_drained_keep_alive_body_parks_its_socket() {
    // Both framings of a body too large to arrive with its head: the
    // socket belongs to the streamed body until that ends cleanly.
    for declare_length in [true, false] {
        let origin = HttpServer::start(0, pattern_origin(declare_length)).unwrap();
        let (host, port) = (origin.addr().ip().to_string(), origin.addr().port());
        let fetcher = TcpOrigin::new();
        let request = Request::get(&format!("{}/large.bin", origin.base_url()));
        let mut response = fetcher.fetch(&request).unwrap();
        assert!(response.body.is_stream());
        assert_eq!(fetcher.idle_connections(&host, port), 0, "still in use");
        response.body.buffer().unwrap();
        assert_eq!(response.body.len(), LARGE_BODY_BYTES);
        assert_eq!(
            fetcher.idle_connections(&host, port),
            1,
            "a clean end of body re-parks the connection (declared={declare_length})"
        );
        // ...and the parked connection serves the next exchange.
        let mut again = fetcher.fetch(&request).unwrap();
        again.body.buffer().unwrap();
        assert_eq!(fetcher.idle_connections(&host, port), 1);
    }

    let origin = lying_origin(100_000, 500);
    let fetcher = TcpOrigin::new();
    let mut response = fetcher
        .fetch(&Request::get(&format!("http://{origin}/movie.mpg")))
        .unwrap();
    assert!(response.body.buffer().is_err(), "the truncation surfaces");
    assert_eq!(
        fetcher.idle_connections(&origin.ip().to_string(), origin.port()),
        0,
        "a connection that failed mid-body is never parked"
    );
}
