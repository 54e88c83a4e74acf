//! Cooperative caching as separate node processes see it: every node holds
//! its *own* roster replica, with every member joined, as gossip would
//! leave it.  Owner routing alone must then fetch each distinct key from
//! the origin exactly once, however many nodes share the load.

use nakika::{start_local_node, LocalNode};
use nakika_core::service::service_fn;
use nakika_http::{Request, Response};
use nakika_overlay::{key_for, Overlay};
use nakika_server::{HttpServer, ProxyClient};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const KEYS: usize = 2_000;
const REQUESTS: usize = 8_000;
const ZIPF_EXPONENT: f64 = 0.9;

/// A seeded Zipf sampler over ranks `0..n`: an inverse-CDF lookup driven by
/// a splitmix64 stream, so every run requests the same key sequence.
struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(n: usize, exponent: f64, seed: u64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                cumulative += w / total;
                cumulative
            })
            .collect();
        Zipf { cdf, state: seed }
    }

    fn next_rank(&mut self) -> usize {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let uniform = (z >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c < uniform)
            .min(self.cdf.len() - 1)
    }
}

/// An origin whose responses are cacheable, counting every request that
/// reaches it.
fn counting_origin() -> (HttpServer, Arc<AtomicU64>) {
    let hits = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&hits);
    let origin = HttpServer::start(
        0,
        service_fn(move |req: Request, _ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(
                Response::ok("text/html", format!("origin copy of {}", req.uri.path))
                    .with_header("Cache-Control", "max-age=600"),
            )
        }),
    )
    .expect("origin failed to start");
    (origin, hits)
}

#[test]
fn owner_routing_fetches_each_distinct_key_once_on_per_node_rosters() {
    for nodes in [1usize, 2, 4, 8] {
        let (origin, origin_hits) = counting_origin();
        let cluster: Vec<(LocalNode, Arc<Overlay>)> = (0..nodes)
            .map(|i| {
                let overlay = Arc::new(Overlay::new());
                let node = start_local_node(&format!("coop-{nodes}-{i}"), &overlay, None)
                    .expect("node failed to start");
                (node, overlay)
            })
            .collect();
        // Every node has bound: enter every member into every replica.
        for (i, (node, _)) in cluster.iter().enumerate() {
            for (_, replica) in &cluster {
                replica.join_with_addr(key_for(&format!("coop-{nodes}-{i}")), &node.base_url);
            }
        }

        // One keep-alive client per node, taking the requests in turn.
        let mut clients: Vec<ProxyClient> = cluster
            .iter()
            .map(|(node, _)| ProxyClient::connect(node.server.addr()).expect("connect"))
            .collect();
        let mut zipf = Zipf::new(KEYS, ZIPF_EXPONENT, 0x5eed);
        let mut distinct = HashSet::new();
        for request in 0..REQUESTS {
            let rank = zipf.next_rank();
            distinct.insert(rank);
            let url = format!("{}/zipf/{rank}.html", origin.base_url());
            let response = clients[request % nodes].get(&url).expect("fetch");
            assert!(response.status.is_success(), "N={nodes}: {url}");
        }

        let stats: Vec<_> = cluster
            .iter()
            .map(|(node, _)| node.handle.node().stats())
            .collect();
        let origin_fetches: u64 = stats.iter().map(|s| s.origin_fetches).sum();
        let peer_hits: u64 = stats.iter().map(|s| s.peer_hits).sum();
        let distinct_keys = distinct.len() as u64;
        println!(
            "N={nodes}: origin_fetches {origin_fetches}, peer_hits {peer_hits}, \
             distinct_keys {distinct_keys}"
        );
        assert_eq!(
            origin_fetches,
            origin_hits.load(Ordering::SeqCst),
            "N={nodes}: the nodes' count and the origin's disagree"
        );
        assert_eq!(
            origin_fetches, distinct_keys,
            "N={nodes}: each distinct key must reach the origin exactly once"
        );
        if nodes >= 2 {
            assert!(peer_hits > 0, "N={nodes}: no miss was answered by a peer");
        }
    }
}
