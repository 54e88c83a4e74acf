//! A bucket-brigade proxy chain relaying a large response with bounded
//! memory.
//!
//! The paper's motivating workload is large multimedia instances flowing
//! through composed edge proxies.  This example stands up a three-hop chain
//!
//! ```text
//! client  <-  edge B  <-  edge A  <-  origin (64 MiB, generated on the fly)
//! ```
//!
//! where every hop runs the v2 streaming `Body` path: the origin emits the
//! instance chunk by chunk, each edge relays chunks as they arrive (teeing
//! nothing into its deliberately tiny cache — the instance exceeds the entry
//! budget), and the client drains the stream while verifying the byte
//! pattern.  At no point does any process hold more than one bounded output
//! window (256 KiB) of the body per connection; the instrumented high-water
//! mark printed at the end proves it.
//!
//! Run with `cargo run --release --example streaming_brigade`.

use bytes::Bytes;
use nakika_core::service::{service_fn, NakikaError, RequestCtx};
use nakika_core::{NodeBuilder, OriginFetch};
use nakika_http::{ChunkSource, Request, Response, STREAM_CHUNK_BYTES};
use nakika_server::{http_fetch_streaming_via_proxy, HttpServer, TcpOrigin, OUTPUT_WINDOW_BYTES};
use std::net::SocketAddr;
use std::sync::Arc;

/// Size of the relayed instance: 64 MiB, far beyond every buffer budget in
/// the chain.
const INSTANCE_BYTES: usize = 64 * 1024 * 1024;

fn pattern_byte(i: usize) -> u8 {
    ((i * 31 + i / 251) % 251) as u8
}

/// Generates the instance chunk by chunk — the origin never holds it whole.
struct PatternSource {
    produced: usize,
}

impl ChunkSource for PatternSource {
    fn next_chunk(&mut self) -> std::io::Result<Option<Bytes>> {
        if self.produced >= INSTANCE_BYTES {
            return Ok(None);
        }
        let n = (INSTANCE_BYTES - self.produced).min(STREAM_CHUNK_BYTES);
        let chunk: Vec<u8> = (self.produced..self.produced + n)
            .map(pattern_byte)
            .collect();
        self.produced += n;
        Ok(Some(Bytes::from(chunk)))
    }
}

/// An [`OriginFetch`] whose upstream is *another proxy*: the middle link of
/// the brigade.  It opens a streaming exchange through the next hop, so
/// chunks flow through this node exactly as they arrive.
struct NextHop {
    proxy: SocketAddr,
}

impl OriginFetch for NextHop {
    fn fetch_origin(&self, request: &Request) -> Response {
        match http_fetch_streaming_via_proxy(self.proxy, request) {
            Ok(response) => response,
            Err(error) => error.to_response(),
        }
    }
}

fn main() -> Result<(), NakikaError> {
    fn fail(context: &'static str) -> impl Fn(std::io::Error) -> NakikaError {
        move |e| NakikaError::Internal(format!("{context}: {e}"))
    }

    // Origin: streams the instance with a declared length.
    let origin = HttpServer::start(
        0,
        service_fn(|_req: Request, _ctx: &RequestCtx| {
            Ok(Response::ok_stream(
                "video/mpeg",
                PatternSource { produced: 0 },
                Some(INSTANCE_BYTES as u64),
            )
            .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .map_err(fail("origin failed to start"))?;

    // Edge A fronts the origin over TCP; edge B's "origin" is edge A.  Both
    // caches are 1 MiB, so the 64 MiB instance streams through uncached
    // (over the entry budget) instead of being buffered for admission.
    let edge_a = NodeBuilder::plain_proxy("edge-a")
        .cache_capacity_bytes(1024 * 1024)
        .origin(Arc::new(TcpOrigin::new()))
        .build();
    let proxy_a = HttpServer::start(0, edge_a.service()).map_err(fail("edge A failed to start"))?;

    let edge_b = NodeBuilder::plain_proxy("edge-b")
        .cache_capacity_bytes(1024 * 1024)
        .origin(Arc::new(NextHop {
            proxy: proxy_a.addr(),
        }))
        .build();
    let proxy_b = HttpServer::start(0, edge_b.service()).map_err(fail("edge B failed to start"))?;

    println!(
        "brigade: client <- edge B ({}) <- edge A ({}) <- origin ({})",
        proxy_b.addr(),
        proxy_a.addr(),
        origin.addr()
    );
    println!(
        "relaying a {} MiB instance with a {} KiB output window per connection...",
        INSTANCE_BYTES / (1024 * 1024),
        OUTPUT_WINDOW_BYTES / 1024
    );

    let url = format!("{}/feature.mpg", origin.base_url());
    let mut response = http_fetch_streaming_via_proxy(proxy_b.addr(), &Request::get(&url))?;
    assert!(response.status.is_success(), "status {}", response.status);

    // Drain and verify the stream without ever materializing it.
    let mut offset = 0usize;
    let mut body = std::mem::take(&mut response.body);
    while let Some(chunk) = body.read_chunk().map_err(|e| NakikaError::Upstream {
        url: url.clone(),
        reason: format!("body stream failed: {e}"),
    })? {
        for (i, byte) in chunk.iter().enumerate() {
            assert_eq!(
                *byte,
                pattern_byte(offset + i),
                "corrupt byte at {}",
                offset + i
            );
        }
        offset += chunk.len();
    }
    assert_eq!(offset, INSTANCE_BYTES, "short instance: {offset}");

    // Every server carries its own high-water gauge; the brigade's peak is
    // the worst connection across the three of them.
    let peak = origin
        .peak_buffered_output()
        .max(proxy_a.peak_buffered_output())
        .max(proxy_b.peak_buffered_output());
    println!(
        "relayed {offset} bytes intact through two edges; peak buffered output \
         across every connection in the brigade: {peak} bytes"
    );
    assert!(
        peak <= OUTPUT_WINDOW_BYTES,
        "peak {peak} exceeded the bounded window"
    );
    // Neither edge admitted the oversized instance into its cache.
    assert_eq!(edge_a.node().cache_stats().inserts, 0);
    assert_eq!(edge_b.node().cache_stats().inserts, 0);
    println!("bounded-memory bucket brigade: OK");
    Ok(())
}
