//! Reactor edge: the event-loop server and the sharded proxy cache under
//! concurrent load, over real localhost TCP.
//!
//! The deployment shape is the same as `medical_cdn`'s — an origin server
//! behind a Na Kika edge proxy.  A few epoll-driven event-loop threads
//! multiplex every connection, so the 32 simultaneous keep-alive clients
//! below cost slab slots instead of parked threads, and the node's cache is
//! split into 8 independently locked shards so those clients do not
//! serialize on one mutex.
//!
//! ```text
//! cargo run --example reactor_edge
//! ```

use nakika_core::service::service_fn;
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{HttpServer, ProxyClient, ProxyServer, TcpOrigin};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 32;
const REQUESTS_PER_CLIENT: usize = 24;
const PAGES: usize = 12;

fn main() {
    // 1. An origin server: a dozen cacheable pages.
    let origin = HttpServer::start(
        0,
        service_fn(|request: Request, _ctx| {
            Ok(Response::ok(
                "text/html",
                format!("<html>page {} </html>", request.uri.path),
            )
            .with_header("Cache-Control", "max-age=300"))
        }),
    )
    .expect("origin starts");

    // 2. The edge: a plain proxy node with an 8-way sharded cache.
    let edge = Arc::new(
        NodeBuilder::plain_proxy("reactor-edge")
            .cache_shards(8)
            .origin(Arc::new(TcpOrigin::new()))
            .build(),
    );
    let proxy = ProxyServer::start(0, edge.service()).expect("proxy starts");
    println!("origin at {}, proxy at {}\n", origin.addr(), proxy.addr());

    // 3. 32 keep-alive clients hammer the proxy concurrently.
    let start = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = proxy.addr();
            let base = origin.base_url();
            std::thread::spawn(move || {
                let mut client = ProxyClient::connect(addr).expect("client connects");
                for r in 0..REQUESTS_PER_CLIENT {
                    let url = format!("{base}/page-{}.html", (c + r) % PAGES);
                    let response = client.get(&url).expect("exchange succeeds");
                    assert_eq!(response.status, StatusCode::OK);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let total = CLIENTS * REQUESTS_PER_CLIENT;

    // 4. The cache absorbed almost everything; the shards split the load.
    let stats = edge.node().cache_stats();
    println!(
        "{total} requests over {CLIENTS} keep-alive connections in {elapsed:.3} s \
         ({:.0} requests/sec)",
        total as f64 / elapsed
    );
    println!(
        "cache: {} hits, {} misses, hit ratio {:.1}%",
        stats.hits,
        stats.misses,
        stats.hit_ratio() * 100.0
    );
    for (i, shard) in edge.node().cache().shard_stats().iter().enumerate() {
        println!(
            "  shard {i}: {:>4} hits {:>3} misses {:>3} inserts",
            shard.hits, shard.misses, shard.inserts
        );
    }
    assert_eq!(stats.hits + stats.misses, total as u64);
    assert!(stats.hit_ratio() > 0.9, "warm workload is nearly all hits");
}
