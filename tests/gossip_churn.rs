//! Membership churn over real processes: a cluster that bootstraps itself
//! from a single `--join` seed, converges to the full roster over gossip,
//! and survives a member being SIGKILLed mid-traffic — the survivors
//! detect the death through the failure detector alone (no exit
//! notification of any kind), drop the dead node from their overlays, and
//! stop routing keys to it.

use nakika::{fetch_stats, spawn_gossip_cluster, wait_for_members};
use nakika_core::service::service_fn;
use nakika_http::{Request, Response};
use nakika_server::{http_get_via_proxy, HttpServer};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn proxy_addr(base_url: &str) -> SocketAddr {
    base_url
        .strip_prefix("http://")
        .expect("http base url")
        .parse()
        .expect("socket address")
}

#[test]
fn owner_redirects_send_clients_to_the_live_owner() {
    let origin_hits = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&origin_hits);
    let origin = HttpServer::start(
        0,
        service_fn(move |req: Request, _ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(Response::ok(
                "text/html",
                format!("<html>copy of {}</html>", req.uri.path),
            )
            .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .expect("origin failed to start");

    let nodes = spawn_gossip_cluster(
        Path::new(env!("CARGO_BIN_EXE_edge-node")),
        &[],
        &["redir-a", "redir-b"],
        &[
            "--probe-interval-ms",
            "50",
            "--suspect-timeout-ms",
            "400",
            "--redirect-to-owner",
        ],
    )
    .expect("cluster failed to start");
    let urls: Vec<String> = nodes.iter().map(|n| n.base_url.clone()).collect();
    let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();
    wait_for_members(&url_refs, 2, Duration::from_secs(15)).expect("roster never converged");

    // Ask A for fresh keys until one hashes to B: that request must come
    // back as a 307 naming B, not be relayed.  Keys A owns itself are
    // served locally (one origin fetch each); a redirected key must not
    // touch the origin at all.
    let mut served_locally = 0u64;
    let (key, redirect) = (0..32)
        .find_map(|i| {
            let key = format!("{}/owner/{i}.html", origin.base_url());
            let response =
                http_get_via_proxy(proxy_addr(&nodes[0].base_url), &key).expect("probe fetch");
            if response.status.as_u16() == 307 {
                return Some((key, response));
            }
            served_locally += 1;
            None
        })
        .expect("32 keys and none owned by the other node");
    let location = redirect
        .headers
        .get("Location")
        .expect("a 307 without Location")
        .to_string();
    assert!(
        location.starts_with(&nodes[1].base_url),
        "Location {location} does not point at the owner {}",
        nodes[1].base_url
    );
    assert_eq!(
        origin_hits.load(Ordering::SeqCst),
        served_locally,
        "a redirected request must not touch the origin"
    );

    // The client follows by re-issuing the request through the owner, which
    // serves (and caches) it as usual; the redirect shows up in A's stats.
    let followed = http_get_via_proxy(proxy_addr(&nodes[1].base_url), &key).expect("follow");
    assert!(followed.status.is_success());
    assert_eq!(origin_hits.load(Ordering::SeqCst), served_locally + 1);
    let stats = fetch_stats(&nodes[0].base_url).expect("stats via a");
    assert!(
        stats["owner_redirects"] >= 1,
        "owner_redirects counter never moved: {stats:?}"
    );
}

#[test]
fn single_seed_bootstrap_converges_and_survives_a_killed_member() {
    let origin_hits = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&origin_hits);
    let origin = HttpServer::start(
        0,
        service_fn(move |req: Request, _ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(Response::ok(
                "text/html",
                format!("<html>copy of {}</html>", req.uri.path),
            )
            .with_header("Cache-Control", "max-age=600"))
        }),
    )
    .expect("origin failed to start");

    // Aggressive gossip timing keeps the test fast; the defaults only
    // stretch the same transitions out.
    let mut nodes = spawn_gossip_cluster(
        Path::new(env!("CARGO_BIN_EXE_edge-node")),
        &[],
        &["alpha", "beta", "gamma"],
        &["--probe-interval-ms", "50", "--suspect-timeout-ms", "400"],
    )
    .expect("cluster failed to start");
    let urls: Vec<String> = nodes.iter().map(|n| n.base_url.clone()).collect();
    let url_refs: Vec<&str> = urls.iter().map(String::as_str).collect();

    // Only the seed's address was ever configured, yet every roster
    // converges to all three members.
    wait_for_members(&url_refs, 3, Duration::from_secs(15))
        .expect("single-seed bootstrap did not converge");

    // The gossip-learned addresses carry real traffic: a key cached on one
    // node is peer-served from the other two without another origin fetch.
    let shared = format!("{}/shared/page.html", origin.base_url());
    let first = http_get_via_proxy(proxy_addr(&nodes[0].base_url), &shared)
        .expect("first fetch")
        .body
        .to_bytes();
    assert_eq!(origin_hits.load(Ordering::SeqCst), 1);
    for node in &nodes {
        let body = http_get_via_proxy(proxy_addr(&node.base_url), &shared)
            .expect("fetch via node")
            .body
            .to_bytes();
        assert_eq!(body, first, "node {} served different bytes", node.name);
    }
    assert_eq!(
        origin_hits.load(Ordering::SeqCst),
        1,
        "the shared key must be fetched from the origin exactly once"
    );

    // Kill gamma outright — SIGKILL, no shutdown handshake.  The survivors
    // only learn of it through failed probes.
    let victim = nodes.pop().expect("three nodes");
    let mut victim = victim;
    victim.kill().expect("kill gamma");
    drop(victim);

    // Drive traffic through the survivors while they converge; requests
    // must keep succeeding throughout (dead-owner fetches fall back to the
    // origin until the roster re-homes them).
    let survivors: Vec<&str> = url_refs[..2].to_vec();
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut round = 0u64;
    loop {
        for (i, url) in survivors.iter().enumerate() {
            let key = format!("{}/churn/{round}-{i}.html", origin.base_url());
            let response = http_get_via_proxy(proxy_addr(url), &key).expect("churn fetch");
            assert!(
                response.status.is_success(),
                "request failed during churn via {url}"
            );
        }
        round += 1;
        let converged = survivors.iter().all(|url| {
            fetch_stats(url).is_ok_and(|stats| {
                stats.get("gossip_faulty").copied() == Some(1)
                    && stats.get("gossip_alive").copied() == Some(2)
            })
        });
        if converged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "survivors never declared the killed node faulty"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Re-homed: with gamma failed out of every survivor's overlay, fresh
    // keys route only to live owners, so peer fetches stop failing.
    let baseline: u64 = survivors
        .iter()
        .map(|url| fetch_stats(url).expect("stats")["peer_misses"])
        .sum();
    for i in 0..12 {
        let key = format!("{}/rehomed/{i}.html", origin.base_url());
        let url = survivors[i % survivors.len()];
        let response = http_get_via_proxy(proxy_addr(url), &key).expect("re-homed fetch");
        assert!(response.status.is_success());
    }
    let after: u64 = survivors
        .iter()
        .map(|url| fetch_stats(url).expect("stats")["peer_misses"])
        .sum();
    assert_eq!(
        after, baseline,
        "peer_misses kept growing after the roster re-homed the dead node's keys"
    );
}
