//! A three-node cooperative edge cluster over real TCP.
//!
//! Run with:
//!
//! ```text
//! cargo run --example edge_cluster
//! ```
//!
//! The parent process starts an origin server, then re-invokes itself
//! three times with `--node NAME` — one OS process per edge node, exactly
//! as a real deployment would run them (see `docs/CLUSTER.md`).  The
//! nodes find each other through gossip: only the first node's address is
//! ever configured (each later node gets a single `--join` seed), and the
//! roster converges on its own through the membership exchange.  Once the
//! parent sees every node report three alive members, it demonstrates the
//! cooperative data path:
//!
//! 1. a page is fetched through one node (cold miss → origin);
//! 2. the same page is fetched through the other two, each answering its
//!    local miss from the first node's cache over TCP — the origin sees
//!    exactly one fetch however many nodes serve the page;
//! 3. every node's counters are printed from its `/__nakika/stats`
//!    endpoint.

use nakika::{node_main, spawn_gossip_cluster, wait_for_members};
use nakika_core::service::service_fn;
use nakika_http::{Request, Response};
use nakika_server::{http_get_via_proxy, HttpServer};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--node") {
        // Child mode: run one edge node until the parent closes our stdin.
        if let Err(message) = node_main(args.into_iter().skip(2)) {
            eprintln!("edge_cluster node: {message}");
            std::process::exit(2);
        }
        return;
    }

    let origin_hits = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&origin_hits);
    let origin = HttpServer::start(
        0,
        service_fn(move |req: Request, _ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(Response::ok(
                "text/html",
                format!(
                    "<html><body>the one true copy of {}</body></html>",
                    req.uri.path
                ),
            )
            .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .expect("origin failed to start");
    println!("origin server   -> {}", origin.base_url());

    let program = std::env::current_exe().expect("current executable path");
    let nodes = spawn_gossip_cluster(
        &program,
        &["--node"],
        &["tokyo", "reykjavik", "lima"],
        &["--replicate", "1", "--threshold", "2"],
    )
    .expect("cluster failed to start");
    for node in &nodes {
        println!("edge {:<10} -> {}", node.name, node.base_url);
    }

    // Only tokyo's address was ever configured; wait for gossip to teach
    // every node the full three-member roster.
    let urls: Vec<String> = nodes.iter().map(|n| n.base_url.clone()).collect();
    let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
    wait_for_members(&url_refs, 3, Duration::from_secs(30)).expect("gossip roster never converged");
    println!("gossip roster converged: every node sees 3 alive members");

    let url = format!("{}/articles/today.html", origin.base_url());
    println!("\nGET {url} via tokyo (cluster-wide cold miss; the key's owner fetches the origin):");
    let first = http_get_via_proxy(proxy_addr(&nodes[0].base_url), &url)
        .expect("fetch via tokyo")
        .body
        .to_bytes();
    println!("  {}", String::from_utf8_lossy(&first));

    println!("\nthe same page via every node (misses answered by a peer, not the origin):");
    for node in &nodes {
        let body = http_get_via_proxy(proxy_addr(&node.base_url), &url)
            .expect("fetch via node")
            .body
            .to_bytes();
        assert_eq!(body, first, "every node must serve identical bytes");
        println!("  {:<10} served {} identical bytes", node.name, body.len());
    }
    println!(
        "\norigin fetches for the page: {} (for {} client requests)",
        origin_hits.load(Ordering::SeqCst),
        1 + nodes.len()
    );

    println!("\nper-node counters (from each node's /__nakika/stats):");
    println!(
        "  {:<10} {:>8} {:>10} {:>9} {:>11} {:>13} {:>6}",
        "node", "requests", "cache_hits", "peer_hits", "peer_misses", "origin_fetch", "alive"
    );
    for node in &nodes {
        let stats = node.stats().expect("node stats");
        println!(
            "  {:<10} {:>8} {:>10} {:>9} {:>11} {:>13} {:>6}",
            node.name,
            stats["requests"],
            stats["cache_hits"],
            stats["peer_hits"],
            stats["peer_misses"],
            stats["origin_fetches"],
            stats["gossip_alive"],
        );
    }
    println!("\ncluster shutting down (stdin EOF to every node)");
}

fn proxy_addr(base_url: &str) -> SocketAddr {
    base_url
        .strip_prefix("http://")
        .expect("http base url")
        .parse()
        .expect("socket address")
}
