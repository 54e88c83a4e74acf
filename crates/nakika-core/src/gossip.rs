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
//! [`GossipService`] serves the endpoint (wrapped immediately around the
//! node service, so owner-aware redirection never touches gossip
//! traffic), and the builder's background worker drives
//! [`Membership::poll`] against it.  Roster events feed
//! [`apply_events`], which re-homes key ownership in the overlay.

use crate::node::OriginFetch;
use crate::peering;
use crate::service::{DispatchHint, HttpService, NakikaError, RelayPlan, RequestCtx};
use nakika_http::{Request, Response, StatusCode};
use nakika_overlay::{key_for, Location, Membership, MembershipEvent, Overlay};
use std::sync::Arc;

/// Applies roster events to the overlay: joins and recoveries enter the
/// consistent-hash ring under `key_for(name)` carrying the member's base
/// URL; a faulty verdict fails the node out, so ownership and successor
/// sets re-home to the survivors on the next lookup.
pub fn apply_events(overlay: &Overlay, events: &[MembershipEvent]) {
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
pub fn gossip_exchange(
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
pub fn gossip_probe_via(
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

/// The service wrapper answering [`peering::GOSSIP_PATH`].  Sits directly
/// around the node service, so gossip exchanges bypass redirection — they
/// are plumbing, not traffic — and the node's `requests` counter never
/// sees them.
pub struct GossipService {
    inner: Arc<dyn HttpService>,
    membership: Arc<Membership>,
    overlay: Arc<Overlay>,
    origin: Arc<dyn OriginFetch>,
}

impl GossipService {
    /// Wraps `inner`, answering gossip exchanges with `membership` and
    /// relaying indirect probes through `origin`.
    pub fn new(
        inner: Arc<dyn HttpService>,
        membership: Arc<Membership>,
        overlay: Arc<Overlay>,
        origin: Arc<dyn OriginFetch>,
    ) -> GossipService {
        GossipService {
            inner,
            membership,
            overlay,
            origin,
        }
    }

    fn handle_gossip(&self, req: &Request) -> Response {
        // Merge the prober's digest first: even a probe that is really a
        // ping-req teaches us the requester's view of the roster.
        if let Some(digest) = req.headers.get(peering::GOSSIP_HEADER) {
            let events = self.membership.merge_digest(digest);
            apply_events(&self.overlay, &events);
        }
        if let Some(target) = req.headers.get(peering::GOSSIP_PROBE_HEADER) {
            // Ping-req relay: probe the target on the requester's behalf.
            let target = target.trim().to_string();
            if gossip_exchange(&self.membership, &self.overlay, &self.origin, &target).is_err() {
                return Response::error(StatusCode::BAD_GATEWAY);
            }
        }
        Response::ok("text/plain", self.membership.digest())
    }
}

impl HttpService for GossipService {
    fn call(&self, req: Request, _ctx: &RequestCtx) -> Result<Response, NakikaError> {
        if req.uri.path == peering::GOSSIP_PATH {
            return Ok(self.handle_gossip(&req));
        }
        self.inner.call(req, _ctx)
    }

    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        if req.uri.path == peering::GOSSIP_PATH {
            // A plain exchange is pure in-memory state; a ping-req relay
            // opens a socket to the target and must stay off the event loop.
            return if req.headers.contains(peering::GOSSIP_PROBE_HEADER) {
                DispatchHint::MayBlock
            } else {
                DispatchHint::Inline
            };
        }
        self.inner.dispatch_hint(req, ctx)
    }

    fn relay_plan(&self, req: &Request, ctx: &RequestCtx) -> Option<RelayPlan> {
        // Gossip exchanges are answered from membership state, never
        // relayed from an upstream socket.
        if req.uri.path == peering::GOSSIP_PATH {
            return None;
        }
        self.inner.relay_plan(req, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::origin_from_fn;
    use crate::service::service_fn;
    use nakika_overlay::MembershipConfig;
    use parking_lot::Mutex;

    fn service(name: &str) -> (GossipService, Arc<Membership>, Arc<Overlay>) {
        let membership = Arc::new(Membership::with_manual_clock(
            name,
            MembershipConfig::default(),
        ));
        membership.set_self_addr(&format!("http://{name}.example"));
        let overlay = Arc::new(Overlay::with_defaults());
        let inner = service_fn(|_req, _ctx| Ok(Response::ok("text/plain", "inner")));
        let origin = origin_from_fn(|_req| Response::error(StatusCode::BAD_GATEWAY));
        let svc = GossipService::new(inner, membership.clone(), overlay.clone(), origin);
        (svc, membership, overlay)
    }

    #[test]
    fn exchange_merges_the_probers_digest_and_answers_with_ours() {
        let (svc, membership, overlay) = service("alpha");
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
    }

    #[test]
    fn non_gossip_paths_pass_through_untouched() {
        let (svc, _, _) = service("alpha");
        let resp = svc
            .call(Request::get("http://site.example/page"), &RequestCtx::at(1))
            .unwrap();
        assert_eq!(resp.body.to_text(), "inner");
    }

    #[test]
    fn failed_relay_probe_answers_bad_gateway() {
        let (svc, _, _) = service("alpha");
        let req = Request::get(&format!("http://alpha.example{}", peering::GOSSIP_PATH))
            .with_header(peering::GOSSIP_PROBE_HEADER, "http://dead.example");
        let resp = svc.call(req, &RequestCtx::at(1)).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
    }

    #[test]
    fn relay_probe_reaches_the_target_through_fetch_peer() {
        let membership = Arc::new(Membership::with_manual_clock(
            "relay",
            MembershipConfig::default(),
        ));
        membership.set_self_addr("http://relay.example");
        let overlay = Arc::new(Overlay::with_defaults());
        let inner = service_fn(|_req, _ctx| Ok(Response::ok("text/plain", "inner")));
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
        let svc = GossipService::new(inner, membership.clone(), overlay, origin.clone());
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
        let (svc, _, _) = service("alpha");
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
