//! Concurrency soak: 64 simultaneous keep-alive clients against one proxy,
//! asserting byte-identical responses and coherent aggregated cache
//! statistics across the sharded proxy cache.

use nakika_core::service::service_fn;
use nakika_core::NodeBuilder;
use nakika_http::{Request, Response, StatusCode};
use nakika_server::{HttpServer, ProxyClient, ProxyServer, TcpOrigin};
use std::collections::BTreeSet;
use std::sync::Arc;

const CLIENTS: usize = 64;
const REQUESTS_PER_CLIENT: usize = 8;
const DISTINCT_URLS: usize = 16;
const SHARDS: usize = 8;

/// The exact body the origin serves for `/soak/<i>.html` — clients verify
/// responses byte-for-byte against this.
fn expected_body(i: usize) -> String {
    format!("soak body {i}: {}", "x".repeat(512 + i))
}

fn start_origin() -> HttpServer {
    HttpServer::start(
        0,
        service_fn(|req: Request, _ctx| {
            let name = req
                .uri
                .path
                .trim_start_matches("/soak/")
                .trim_end_matches(".html");
            let i: usize = name.parse().unwrap_or(0);
            Ok(Response::ok("text/html", expected_body(i))
                .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .expect("origin starts")
}

#[test]
fn sixty_four_keepalive_clients_get_identical_bytes() {
    let origin = start_origin();
    let edge = Arc::new(
        NodeBuilder::plain_proxy("soak-edge")
            .cache_shards(SHARDS)
            .origin(Arc::new(TcpOrigin::new()))
            .build(),
    );
    let proxy = ProxyServer::start(0, edge.service()).expect("proxy starts");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = proxy.addr();
            let base = origin.base_url();
            std::thread::spawn(move || {
                let mut client = ProxyClient::connect(addr).expect("client connects");
                let mut seen = BTreeSet::new();
                for r in 0..REQUESTS_PER_CLIENT {
                    let i = (c + r) % DISTINCT_URLS;
                    let url = format!("{base}/soak/{i}.html");
                    let response = client.get(&url).expect("exchange succeeds");
                    assert_eq!(response.status, StatusCode::OK);
                    assert_eq!(
                        response.body.to_text(),
                        expected_body(i),
                        "byte-identical response for {url}"
                    );
                    seen.insert(i);
                }
                seen
            })
        })
        .collect();

    let mut all = BTreeSet::new();
    for worker in workers {
        all.extend(worker.join().expect("soak client panicked"));
    }

    // Every request performed exactly one cache lookup; the aggregate over
    // shards must account for all of them.
    let stats = edge.node().cache_stats();
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        total,
        "every request is one lookup"
    );
    assert!(
        stats.misses >= DISTINCT_URLS as u64,
        "each distinct URL missed at least once"
    );
    assert!(stats.hits >= total - stats.misses, "the rest were hits");
    assert_eq!(stats.inserts, stats.misses, "every miss fetched and stored");
    assert_eq!(stats.evictions, 0, "nothing evicted");

    // The per-shard breakdown sums exactly to the aggregate, and the keys
    // actually spread across shards.
    let per_shard = edge.node().cache().shard_stats();
    assert_eq!(per_shard.len(), SHARDS);
    let summed = per_shard
        .iter()
        .fold(nakika_core::cache::CacheStats::default(), |a, s| a.merge(s));
    assert_eq!(summed, stats, "shard stats aggregate");
    assert!(
        per_shard.iter().filter(|s| s.hits + s.misses > 0).count() > 1,
        "lookups spread across shards"
    );

    assert_eq!(all.len(), DISTINCT_URLS);
}
