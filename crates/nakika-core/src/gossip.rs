//! The gossip membership's wire surface and driver: how the SWIM-style
//! state machine in [`nakika_overlay::gossip`] talks to real peers.
//!
//! There is no dedicated gossip listener.  A probe is a plain HTTP exchange
//! on the node's existing front-end, sent through the node's own
//! [`OriginFetch::fetch_peer`] path — the same pooled keep-alive connections
//! that carry peer fetches carry the gossip:
//!
//! * **Exchange (direct ping)** — `GET /__nakika/gossip` carrying the
//!   prober's roster digest in the [`peering::GOSSIP_HEADER`] request
//!   header; the responder merges it and answers `200` with its own digest
//!   as the body.  Both sides converge a little on every exchange, so the
//!   failure-detector probes double as anti-entropy.
//! * **Indirect probe (ping-req)** — the same `GET` with
//!   [`peering::GOSSIP_PROBE_HEADER`] naming a third node's base URL.  The
//!   relay performs a direct exchange with the target on the requester's
//!   behalf and answers `200` (target alive) or `502` (target unreachable).
//!   Relayed exchanges never carry the probe header themselves, so the
//!   indirection is one level deep by construction.
//!
//! The node's own service ([`NodeService`](crate::NodeService)) answers the
//! endpoint before owner-aware redirection is consulted, so redirection
//! never touches gossip traffic, and the builder's background worker drives
//! [`Membership::poll`] against it.  Roster events feed
//! [`apply_events`], which re-homes key ownership in the overlay.

use crate::node::OriginFetch;
use crate::peering;
use crate::service::NakikaError;
use nakika_http::{Request, Response, StatusCode};
use nakika_overlay::{key_for, Location, Membership, MembershipEvent, Overlay};
use std::sync::Arc;

/// Applies roster events to the overlay: joins and recoveries enter the
/// consistent-hash ring under `key_for(name)` carrying the member's base
/// URL; a faulty verdict fails the node out, so ownership and successor
/// sets re-home to the survivors on the next lookup.
pub(crate) fn apply_events(overlay: &Overlay, events: &[MembershipEvent]) {
    for event in events {
        match event {
            MembershipEvent::Joined { name, addr } | MembershipEvent::Recovered { name, addr } => {
                overlay.join_with_addr(key_for(name), Location::new(0.0, 0.0), addr);
            }
            MembershipEvent::Failed { name } => {
                overlay.fail(key_for(name));
            }
        }
    }
}

fn gossip_url(addr: &str) -> String {
    format!("{}{}", addr.trim_end_matches('/'), peering::GOSSIP_PATH)
}

/// One direct gossip exchange with the node at `addr`: sends the local
/// digest, merges the peer's digest from the response body, and applies the
/// resulting roster events to `overlay`.  An error or non-success response
/// means the peer did not answer the probe.
pub(crate) fn gossip_exchange(
    membership: &Membership,
    overlay: &Overlay,
    origin: &Arc<dyn OriginFetch>,
    addr: &str,
) -> Result<(), NakikaError> {
    let request =
        Request::get(&gossip_url(addr)).with_header(peering::GOSSIP_HEADER, &membership.digest());
    let mut response = origin.fetch_peer(addr, &request)?;
    if !response.status.is_success() {
        return Err(NakikaError::Upstream {
            url: gossip_url(addr),
            reason: format!("gossip exchange answered {}", response.status),
        });
    }
    if response.body.buffer().is_err() {
        return Err(NakikaError::Upstream {
            url: gossip_url(addr),
            reason: "gossip digest stream failed".to_string(),
        });
    }
    let events = membership.merge_digest(&response.body.to_text());
    apply_events(overlay, &events);
    Ok(())
}

/// One indirect probe (SWIM's ping-req): asks the relay at `relay_addr` to
/// perform a direct exchange with `target_addr` on our behalf.  `Ok` means
/// the relay reached the target; the relay's digest (which now reflects the
/// target's) is merged either way the body arrives.
pub(crate) fn gossip_probe_via(
    membership: &Membership,
    overlay: &Overlay,
    origin: &Arc<dyn OriginFetch>,
    relay_addr: &str,
    target_addr: &str,
) -> Result<(), NakikaError> {
    let request = Request::get(&gossip_url(relay_addr))
        .with_header(peering::GOSSIP_HEADER, &membership.digest())
        .with_header(peering::GOSSIP_PROBE_HEADER, target_addr);
    let mut response = origin.fetch_peer(relay_addr, &request)?;
    if !response.status.is_success() {
        return Err(NakikaError::Upstream {
            url: gossip_url(relay_addr),
            reason: format!("indirect probe answered {}", response.status),
        });
    }
    if response.body.buffer().is_ok() {
        let events = membership.merge_digest(&response.body.to_text());
        apply_events(overlay, &events);
    }
    Ok(())
}

/// Answers one request to [`peering::GOSSIP_PATH`]: merges the prober's
/// digest, relays a ping-req to its target through `origin`, and answers
/// with the local digest (`502` when a relayed target did not answer).
/// Gossip exchanges are plumbing, not traffic: the node's `requests`
/// counter never sees them.
pub(crate) fn handle_gossip(
    membership: &Membership,
    overlay: &Overlay,
    origin: &Arc<dyn OriginFetch>,
    req: &Request,
) -> Response {
    // Merge the prober's digest first: even a probe that is really a
    // ping-req teaches us the requester's view of the roster.
    if let Some(digest) = req.headers.get(peering::GOSSIP_HEADER) {
        let events = membership.merge_digest(digest);
        apply_events(overlay, &events);
    }
    if let Some(target) = req.headers.get(peering::GOSSIP_PROBE_HEADER) {
        // Ping-req relay: probe the target on the requester's behalf.
        if gossip_exchange(membership, overlay, origin, target.trim()).is_err() {
            return Response::error(StatusCode::BAD_GATEWAY);
        }
    }
    Response::ok("text/plain", membership.digest())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NodeBuilder, NodeHandle};
    use crate::node::origin_from_fn;
    use crate::service::{DispatchHint, HttpService, RequestCtx};
    use nakika_overlay::MembershipConfig;
    use parking_lot::Mutex;

    /// A gossiping DHT node named `name` on a fresh overlay, fetching
    /// through `origin`.  No self address: probing stays dormant, so only
    /// the test moves the roster.
    fn node(
        name: &str,
        origin: Arc<dyn OriginFetch>,
    ) -> (NodeHandle, Arc<Membership>, Arc<Overlay>) {
        let membership = Arc::new(Membership::with_manual_clock(
            name,
            MembershipConfig::default(),
        ));
        let overlay = Arc::new(Overlay::with_defaults());
        let node = NodeBuilder::proxy_with_dht(name)
            .overlay(overlay.clone(), key_for(name))
            .gossip(membership.clone())
            .origin(origin)
            .build();
        (node, membership, overlay)
    }

    /// Serves `/page`; every other fetch, peer fetches included, fails.
    fn page_origin() -> Arc<dyn OriginFetch> {
        origin_from_fn(|req| match req.uri.path.as_str() {
            "/page" => Response::ok("text/plain", "origin"),
            _ => Response::error(StatusCode::BAD_GATEWAY),
        })
    }

    #[test]
    fn exchange_merges_the_probers_digest_and_answers_with_ours() {
        let (svc, membership, overlay) = node("alpha", page_origin());
        let req = Request::get(&format!("http://alpha.example{}", peering::GOSSIP_PATH))
            .with_header(peering::GOSSIP_HEADER, "self beta http://beta.example 0");
        let resp = svc.call(req, &RequestCtx::at(1)).unwrap();
        assert!(resp.status.is_success());
        let digest = resp.body.to_text();
        assert!(digest.starts_with("self alpha "), "digest: {digest}");
        assert!(digest.contains("alive beta "), "digest: {digest}");
        // The merge reached the overlay: beta owns keys now.
        assert_eq!(membership.stats().alive, 2);
        assert_eq!(overlay.len(), 1);
        assert_eq!(
            overlay.addr_of(key_for("beta")).as_deref(),
            Some("http://beta.example")
        );
        // Gossip is plumbing, not traffic.
        assert_eq!(svc.node().stats().requests, 0);
    }

    #[test]
    fn non_gossip_paths_pass_through_untouched() {
        let (svc, _, _) = node("alpha", page_origin());
        let resp = svc
            .call(Request::get("http://site.example/page"), &RequestCtx::at(1))
            .unwrap();
        assert_eq!(resp.body.to_text(), "origin");
        assert_eq!(svc.node().stats().origin_fetches, 1);
    }

    #[test]
    fn failed_relay_probe_answers_bad_gateway() {
        let (svc, _, _) = node("alpha", page_origin());
        let req = Request::get(&format!("http://alpha.example{}", peering::GOSSIP_PATH))
            .with_header(peering::GOSSIP_PROBE_HEADER, "http://dead.example");
        let resp = svc.call(req, &RequestCtx::at(1)).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
    }

    #[test]
    fn relay_probe_reaches_the_target_through_fetch_peer() {
        // An origin whose peer path mimics the target's gossip endpoint.
        struct TargetOrigin {
            calls: Mutex<Vec<String>>,
        }
        impl OriginFetch for TargetOrigin {
            fn fetch_origin(&self, _request: &Request) -> Response {
                Response::error(StatusCode::BAD_GATEWAY)
            }
            fn fetch_peer(&self, peer: &str, _req: &Request) -> Result<Response, NakikaError> {
                self.calls.lock().push(peer.to_string());
                Ok(Response::ok(
                    "text/plain",
                    "self target http://target.example 0",
                ))
            }
        }
        let origin = Arc::new(TargetOrigin {
            calls: Mutex::new(Vec::new()),
        });
        let (svc, membership, _) = node("relay", origin.clone());
        let req = Request::get(&format!("http://relay.example{}", peering::GOSSIP_PATH))
            .with_header(peering::GOSSIP_PROBE_HEADER, "http://target.example");
        let resp = svc.call(req, &RequestCtx::at(1)).unwrap();
        assert!(resp.status.is_success());
        assert_eq!(origin.calls.lock().as_slice(), ["http://target.example"]);
        // The relay learned the target from the relayed exchange.
        assert_eq!(membership.stats().alive, 2);
    }

    #[test]
    fn gossip_dispatches_inline_unless_it_relays() {
        let (svc, _, _) = node("alpha", page_origin());
        let plain = Request::get(&format!("http://a{}", peering::GOSSIP_PATH));
        assert_eq!(
            svc.dispatch_hint(&plain, &RequestCtx::at(1)),
            DispatchHint::Inline
        );
        let relaying = plain
            .clone()
            .with_header(peering::GOSSIP_PROBE_HEADER, "http://b");
        assert_eq!(
            svc.dispatch_hint(&relaying, &RequestCtx::at(1)),
            DispatchHint::MayBlock
        );
    }
}
