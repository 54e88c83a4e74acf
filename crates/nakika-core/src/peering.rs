//! The peer-fetch protocol: how one Na Kika node asks another for a cached
//! copy over real TCP, without ever looping a request around the overlay.
//!
//! When a cache miss routes to the key's consistent-hash owner (see
//! `docs/CLUSTER.md`), the forwarding node marks the outgoing request with
//! two internal headers:
//!
//! * [`PEER_HOP_HEADER`] (`X-Nakika-Hops`) — how many node-to-node forwards
//!   the request has already taken.  A node never peer-routes a request that
//!   has used up its `MAX_PEER_HOPS` budget; it goes to the origin instead.
//! * [`PEER_VIA_HEADER`] (`X-Nakika-Via`) — the comma-separated names of the
//!   nodes the request has passed through.  A node that finds itself on the
//!   list answers from its own cache or the origin, never a peer.
//!
//! Either guard alone terminates a routing loop (two nodes with divergent
//! membership views each believing the other owns a key); both are cheap, so
//! both are enforced.  The headers are stripped before a request leaves the
//! cooperative network for an origin server.
//!
//! Replication pushes (the owner warming a hot key's successors) carry
//! `REPLICATE_HEADER` so the receiving node can tell a push from organic
//! client traffic and skip hot-entry accounting on it.

use nakika_http::Request;

/// Header counting node-to-node forwards a request has taken.
pub const PEER_HOP_HEADER: &str = "X-Nakika-Hops";

/// Header listing the nodes a request has passed through, comma-separated.
pub const PEER_VIA_HEADER: &str = "X-Nakika-Via";

/// Marks a request issued by the replication worker to pre-warm a successor.
pub(crate) const REPLICATE_HEADER: &str = "X-Nakika-Replicate";

/// Prefix of every internal (non-client) path a node serves; owner-aware
/// redirection and other client-facing machinery must leave these alone.
pub(crate) const INTERNAL_PREFIX: &str = "/__nakika/";

/// Path of the gossip membership exchange endpoint.  A gossip probe is a
/// plain GET to this path carrying the prober's roster digest in
/// [`GOSSIP_HEADER`]; the response body is the responder's digest.  Riding
/// the existing HTTP plane means no extra listener, and GET (idempotent)
/// keeps the exchange on the pooled keep-alive connections.
pub(crate) const GOSSIP_PATH: &str = "/__nakika/gossip";

/// Path every node answers with its counters (plain text, one `key value`
/// pair per line) instead of proxying, on the same port that serves
/// traffic.
pub const STATS_PATH: &str = "/__nakika/stats";

/// Request header carrying the prober's roster digest on a gossip exchange.
pub(crate) const GOSSIP_HEADER: &str = "X-Nakika-Gossip";

/// Header asking a relay to probe a third node on the requester's behalf
/// (SWIM's ping-req).  The value is the target's base URL; the relay
/// answers 200 with its own digest if the target responded, 502 otherwise.
/// Relayed exchanges never carry this header themselves, so indirection is
/// a single level deep by construction.
pub(crate) const GOSSIP_PROBE_HEADER: &str = "X-Nakika-Gossip-Probe";

/// Hop budget: how many times a request may be forwarded between peers.
/// One hop reaches the key's owner; the second tolerates a briefly divergent
/// membership view during joins and leaves.
pub(crate) const MAX_PEER_HOPS: u64 = 2;

/// Number of node-to-node forwards `request` has already taken.
pub(crate) fn hops(request: &Request) -> u64 {
    request
        .headers
        .get(PEER_HOP_HEADER)
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// True if `node` already forwarded this request (it appears in the Via
/// list), in which case routing it back would loop.
pub(crate) fn via_contains(request: &Request, node: &str) -> bool {
    request
        .headers
        .get(PEER_VIA_HEADER)
        .map(|via| via.split(',').any(|entry| entry.trim() == node))
        .unwrap_or(false)
}

/// True if the request may still be forwarded to a peer by `node`.
pub(crate) fn may_forward(request: &Request, node: &str) -> bool {
    hops(request) < MAX_PEER_HOPS && !via_contains(request, node)
}

/// Stamps the loop-prevention headers onto a request about to be forwarded
/// by `node`: increments the hop count and appends `node` to the Via list.
pub(crate) fn mark_forwarded(request: &mut Request, node: &str) {
    let next = hops(request) + 1;
    request.headers.set(PEER_HOP_HEADER, next.to_string());
    let via = match request.headers.get(PEER_VIA_HEADER) {
        Some(existing) if !existing.is_empty() => format!("{existing}, {node}"),
        _ => node.to_string(),
    };
    request.headers.set(PEER_VIA_HEADER, via);
}

/// True if `request` is a replication push rather than organic traffic.
pub(crate) fn is_replication_push(request: &Request) -> bool {
    request.headers.contains(REPLICATE_HEADER)
}

/// True if the request carries any of the cooperative network's internal
/// headers (cheap pre-check before cloning a request to strip them).
pub(crate) fn has_internal_headers(request: &Request) -> bool {
    request.headers.contains(PEER_HOP_HEADER)
        || request.headers.contains(PEER_VIA_HEADER)
        || request.headers.contains(REPLICATE_HEADER)
        || request.headers.contains(GOSSIP_HEADER)
        || request.headers.contains(GOSSIP_PROBE_HEADER)
}

/// Removes the cooperative network's internal headers; called before a
/// request leaves for an origin server.
pub(crate) fn strip_internal_headers(request: &mut Request) {
    request.headers.remove(PEER_HOP_HEADER);
    request.headers.remove(PEER_VIA_HEADER);
    request.headers.remove(REPLICATE_HEADER);
    request.headers.remove(GOSSIP_HEADER);
    request.headers.remove(GOSSIP_PROBE_HEADER);
}

/// Splits a peer's overlay payload — its base URL, `http://host:port` (the
/// scheme and a trailing slash are optional, the port defaults to 80) —
/// into a connectable host/port pair.  `None` when the payload is not a
/// base URL (`http://h:notaport`, `http://h:1/x`): every executor of a miss
/// counts such a peer as a failed attempt instead of connecting anywhere.
pub fn peer_host_port(peer: &str) -> Option<(String, u16)> {
    let authority = peer
        .strip_prefix("http://")
        .unwrap_or(peer)
        .trim_end_matches('/');
    if authority.is_empty() || authority.contains('/') {
        return None;
    }
    match authority.rsplit_once(':') {
        Some((host, port)) => port.parse().ok().map(|port| (host.to_string(), port)),
        None => Some((authority.to_string(), 80)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_budget_counts_forwards() {
        let mut req = Request::get("http://site.example/x");
        assert_eq!(hops(&req), 0);
        assert!(may_forward(&req, "edge-a"));
        mark_forwarded(&mut req, "edge-a");
        assert_eq!(hops(&req), 1);
        assert!(may_forward(&req, "edge-b"));
        mark_forwarded(&mut req, "edge-b");
        assert_eq!(hops(&req), 2);
        assert!(!may_forward(&req, "edge-c"), "hop budget exhausted");
    }

    #[test]
    fn via_list_blocks_revisits() {
        let mut req = Request::get("http://site.example/x");
        mark_forwarded(&mut req, "edge-a");
        assert!(via_contains(&req, "edge-a"));
        assert!(!via_contains(&req, "edge-b"));
        assert!(!may_forward(&req, "edge-a"), "revisit blocked by Via");
        // Garbage hop counts are treated as zero, not as a panic.
        req.headers.set(PEER_HOP_HEADER, "not-a-number");
        assert_eq!(hops(&req), 0);
    }

    #[test]
    fn peer_payloads_parse_as_base_urls_or_not_at_all() {
        let peer = Some(("10.0.0.3".to_string(), 8080));
        assert_eq!(peer_host_port("http://10.0.0.3:8080"), peer);
        assert_eq!(peer_host_port("http://10.0.0.3:8080/"), peer);
        assert_eq!(peer_host_port("10.0.0.3:8080"), peer);
        assert_eq!(peer_host_port("edge-a"), Some(("edge-a".into(), 80)));
        for malformed in ["http://h:notaport", "http://h:1/x", "http://", ""] {
            assert_eq!(peer_host_port(malformed), None, "{malformed}");
        }
    }

    #[test]
    fn internal_headers_never_reach_the_origin() {
        let mut req = Request::get("http://site.example/x");
        mark_forwarded(&mut req, "edge-a");
        req.headers.set(REPLICATE_HEADER, "1");
        assert!(is_replication_push(&req));
        strip_internal_headers(&mut req);
        assert!(req.headers.get(PEER_HOP_HEADER).is_none());
        assert!(req.headers.get(PEER_VIA_HEADER).is_none());
        assert!(!is_replication_push(&req));
    }
}
