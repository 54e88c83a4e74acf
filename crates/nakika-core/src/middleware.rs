//! Middleware layers over [`HttpService`]:
//! access logging, congestion-based admission, content-integrity
//! verification and latency-aware client redirection, each a wrappable
//! service so transports and the [`NodeBuilder`](crate::builder::NodeBuilder)
//! compose them freely.

use crate::node::NaKikaNode;
use crate::peering;
use crate::resource::{Admission, ResourceKind, ResourceManager};
use crate::service::{HttpService, Layer, NakikaError, RequestCtx};
use nakika_http::{Request, Response};
use nakika_integrity::{verify_response, SigningKey};
use nakika_overlay::{key_for, Location, Membership, NodeId, Overlay, PeerState};
use nakika_state::{AccessLog, LogEntry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Access logging
// ---------------------------------------------------------------------------

/// Records one [`LogEntry`] per exchange into a per-site [`AccessLog`],
/// including exchanges the inner stack rejected (the entry then carries the
/// error's default status mapping).
pub struct AccessLogLayer {
    log: Arc<AccessLog>,
}

impl AccessLogLayer {
    /// A logging layer writing to `log`.
    pub fn new(log: Arc<AccessLog>) -> AccessLogLayer {
        AccessLogLayer { log }
    }
}

impl Layer for AccessLogLayer {
    fn wrap(&self, inner: Arc<dyn HttpService>) -> Arc<dyn HttpService> {
        Arc::new(AccessLogged {
            inner,
            log: self.log.clone(),
        })
    }
}

struct AccessLogged {
    inner: Arc<dyn HttpService>,
    log: Arc<AccessLog>,
}

impl HttpService for AccessLogged {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        let site = req.site();
        let method = req.method.as_str().to_string();
        let url = req.uri.to_string();
        let client = if req.client_ip.is_unspecified() {
            ctx.client_ip
        } else {
            req.client_ip
        };
        let result = self.inner.call(req, ctx);
        let (status, bytes) = match &result {
            Ok(response) => (response.status.as_u16(), response.body.len()),
            Err(error) => (error.status().as_u16(), 0),
        };
        self.log.record(&site, || LogEntry {
            timestamp: ctx.arrival_secs,
            client: client.to_string(),
            method,
            url,
            status,
            bytes,
        });
        result
    }
}

// ---------------------------------------------------------------------------
// Resource admission
// ---------------------------------------------------------------------------

/// Applies congestion-based admission control (paper Figure 6) before the
/// inner service runs, and charges the bytes it moved afterwards.
///
/// The controller's `CONTROL` procedure runs lazily off request arrival
/// times, once per configured period.
///
/// A scripted [`NaKikaNode`] runs its own
/// congestion controller internally; when stacking this layer in front of
/// one, either share the node's manager
/// ([`NaKikaNode::resource_manager`](crate::node::NaKikaNode::resource_manager))
/// or build the node
/// [`without_resource_controls`](crate::builder::NodeBuilder::without_resource_controls)
/// — two independent managers would each run their own control loop.
pub struct AdmissionLayer {
    resource: Arc<ResourceManager>,
    control_period_secs: u64,
}

impl AdmissionLayer {
    /// An admission layer over `resource` running control every 5 seconds.
    pub fn new(resource: Arc<ResourceManager>) -> AdmissionLayer {
        AdmissionLayer {
            resource,
            control_period_secs: 5,
        }
    }

    /// Sets the control period in seconds.
    pub fn with_control_period(mut self, secs: u64) -> AdmissionLayer {
        self.control_period_secs = secs.max(1);
        self
    }
}

impl Layer for AdmissionLayer {
    fn wrap(&self, inner: Arc<dyn HttpService>) -> Arc<dyn HttpService> {
        Arc::new(Admitted {
            inner,
            resource: self.resource.clone(),
            control_period_secs: self.control_period_secs,
            last_control: Mutex::new(0),
        })
    }

    /// Admission charges bytes from the *declared* body sizes, so streamed
    /// responses pass through unbuffered (an undeclared stream charges 0 —
    /// the trade this layer makes to stay off the body path).
    fn requires_full_body(&self) -> bool {
        false
    }
}

struct Admitted {
    inner: Arc<dyn HttpService>,
    resource: Arc<ResourceManager>,
    control_period_secs: u64,
    last_control: Mutex<u64>,
}

impl HttpService for Admitted {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        if self.resource.is_enabled() {
            let mut last = self.last_control.lock();
            if ctx.arrival_secs >= *last + self.control_period_secs {
                *last = ctx.arrival_secs;
                drop(last);
                self.resource.control();
            }
        }
        let site = req.site();
        match self.resource.admit(&site) {
            Admission::Accept => {}
            Admission::Throttle => return Err(NakikaError::Throttled { site }),
            Admission::Terminate => return Err(NakikaError::Terminated { site }),
        }
        let request_bytes = req.body.len();
        let response = self.inner.call(req, ctx)?;
        self.resource.record(
            &site,
            ResourceKind::BytesTransferred,
            (request_bytes + response.body.len()) as f64,
        );
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Per-client rate limiting
// ---------------------------------------------------------------------------

/// A token-bucket rate limiter keyed by client IP: each client refills
/// `rate_per_sec` tokens per second up to a `burst` ceiling, and every
/// request spends one.  An empty bucket rejects with
/// [`NakikaError::RateLimited`], which the transport seam maps to `429 Too
/// Many Requests` — distinct from the congestion controller's per-*site*
/// 503s ([`AdmissionLayer`]); this layer defends against a single hostile
/// *client* flooding the node.
///
/// Time comes from [`RequestCtx::arrival_secs`], so the layer is driven by
/// whatever [`Clock`](crate::service::Clock) the transport installed
/// (deterministic under a
/// [`ManualClock`](crate::service::ManualClock)).  The layer is cheap to
/// clone and clones share one bucket table, so callers can keep a handle
/// for the [`rejections`](RateLimitLayer::rejections) counter after
/// handing the layer to a
/// [`NodeBuilder`](crate::builder::NodeBuilder::layer).
#[derive(Clone)]
pub struct RateLimitLayer {
    rate_per_sec: u64,
    burst: u64,
    state: Arc<RateLimitState>,
}

#[derive(Default)]
struct RateLimitState {
    buckets: Mutex<HashMap<IpAddr, TokenBucket>>,
    rejected: AtomicU64,
}

struct TokenBucket {
    tokens: u64,
    last_secs: u64,
}

impl RateLimitLayer {
    /// A limiter admitting `rate_per_sec` sustained requests per second
    /// per client, with bursts up to `burst` (both clamped to ≥ 1).
    pub fn new(rate_per_sec: u64, burst: u64) -> RateLimitLayer {
        RateLimitLayer {
            rate_per_sec: rate_per_sec.max(1),
            burst: burst.max(1),
            state: Arc::new(RateLimitState::default()),
        }
    }

    /// Requests rejected over the limiter's lifetime — the
    /// `rejected_rate_limited` counter of the survival instrumentation.
    pub fn rejections(&self) -> u64 {
        self.state.rejected.load(Ordering::Relaxed)
    }

    fn admit(&self, client: IpAddr, now_secs: u64) -> bool {
        let mut buckets = self.state.buckets.lock();
        let bucket = buckets.entry(client).or_insert(TokenBucket {
            tokens: self.burst,
            last_secs: now_secs,
        });
        // A coarse clock can step backwards across ctx snapshots; treat
        // that as zero elapsed time rather than underflowing.
        let elapsed = now_secs.saturating_sub(bucket.last_secs);
        bucket.tokens = bucket
            .tokens
            .saturating_add(elapsed.saturating_mul(self.rate_per_sec))
            .min(self.burst);
        bucket.last_secs = bucket.last_secs.max(now_secs);
        if bucket.tokens == 0 {
            self.state.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        bucket.tokens -= 1;
        true
    }
}

impl Layer for RateLimitLayer {
    fn wrap(&self, inner: Arc<dyn HttpService>) -> Arc<dyn HttpService> {
        Arc::new(RateLimited {
            inner,
            limiter: self.clone(),
        })
    }

    /// The token check reads no bodies.
    fn requires_full_body(&self) -> bool {
        false
    }
}

struct RateLimited {
    inner: Arc<dyn HttpService>,
    limiter: RateLimitLayer,
}

impl HttpService for RateLimited {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        let client = if req.client_ip.is_unspecified() {
            ctx.client_ip
        } else {
            req.client_ip
        };
        if !self.limiter.admit(client, ctx.arrival_secs) {
            return Err(NakikaError::RateLimited { client });
        }
        self.inner.call(req, ctx)
    }
}

// ---------------------------------------------------------------------------
// Content integrity
// ---------------------------------------------------------------------------

/// Verifies signed responses (paper §6) on their way out: the body must
/// match the signed hash and the absolute expiration must still be in the
/// future at the exchange's arrival time.
pub struct IntegrityLayer {
    key: SigningKey,
    require_signature: bool,
}

impl IntegrityLayer {
    /// A verifying layer for content signed under `key`; unsigned responses
    /// pass through untouched.
    pub fn new(key: SigningKey) -> IntegrityLayer {
        IntegrityLayer {
            key,
            require_signature: false,
        }
    }

    /// Also rejects responses carrying no signature at all (for deployments
    /// where every origin signs).
    pub fn require_signature(mut self) -> IntegrityLayer {
        self.require_signature = true;
        self
    }
}

impl Layer for IntegrityLayer {
    fn wrap(&self, inner: Arc<dyn HttpService>) -> Arc<dyn HttpService> {
        Arc::new(Verified {
            inner,
            key: self.key.clone(),
            require_signature: self.require_signature,
        })
    }

    /// Verification hashes the whole body, so the pipeline buffers streamed
    /// responses beneath this layer before they are checked.
    fn requires_full_body(&self) -> bool {
        true
    }
}

struct Verified {
    inner: Arc<dyn HttpService>,
    key: SigningKey,
    require_signature: bool,
}

impl HttpService for Verified {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        let url = req.uri.to_string();
        let response = self.inner.call(req, ctx)?;
        let signed = response.headers.get("X-Signature").is_some();
        if signed {
            verify_response(&response, &self.key, ctx.arrival_secs).map_err(|e| {
                NakikaError::Integrity {
                    url: url.clone(),
                    reason: e.to_string(),
                }
            })?;
        } else if self.require_signature && response.status.is_success() {
            return Err(NakikaError::Integrity {
                url,
                reason: "response is unsigned".to_string(),
            });
        }
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Latency-aware redirection
// ---------------------------------------------------------------------------

/// Redirects clients to a closer edge node (the paper's DNS-style
/// redirection, expressed at the HTTP layer): when the overlay knows a node
/// nearer to the client than this one, answer `302 Found` pointing there
/// instead of serving locally.
///
/// Client geolocation and peer naming are deployment concerns, so both are
/// injected: `locate` maps a client address into the overlay's latency
/// space (return `None` to serve locally), and `peer_url` maps a node id to
/// the base URL clients should be sent to.
///
/// With [`route_to_owner`](Self::route_to_owner) the layer additionally
/// consults the live gossip membership and answers `307 Temporary
/// Redirect` pointing cacheable requests at the key's consistent-hash
/// owner when that owner is a live member — the client's next request hits
/// the node that holds (or will hold) the cached copy, skipping the relay
/// hop.  A suspect or faulty owner is never redirected to; the request is
/// served locally instead, with the peer relay as the fallback, so clients
/// keep working through churn.
pub struct RedirectLayer {
    overlay: Arc<Overlay>,
    self_id: NodeId,
    #[allow(clippy::type_complexity)]
    locate: Arc<dyn Fn(IpAddr) -> Option<Location> + Send + Sync>,
    #[allow(clippy::type_complexity)]
    peer_url: Arc<dyn Fn(NodeId) -> Option<String> + Send + Sync>,
    owner: Option<Arc<OwnerRouting>>,
}

/// The owner-aware half of [`RedirectLayer`]: the live roster deciding
/// whether the owner is worth sending the client to, and the node whose
/// `owner_redirects` counter records each one issued.
struct OwnerRouting {
    membership: Arc<Membership>,
    node: Arc<NaKikaNode>,
}

impl RedirectLayer {
    /// A redirection layer for the node `self_id` in `overlay`.
    pub fn new<L, P>(
        overlay: Arc<Overlay>,
        self_id: NodeId,
        locate: L,
        peer_url: P,
    ) -> RedirectLayer
    where
        L: Fn(IpAddr) -> Option<Location> + Send + Sync + 'static,
        P: Fn(NodeId) -> Option<String> + Send + Sync + 'static,
    {
        RedirectLayer {
            overlay,
            self_id,
            locate: Arc::new(locate),
            peer_url: Arc::new(peer_url),
            owner: None,
        }
    }

    /// A redirection layer that routes purely by key ownership — no client
    /// geolocation; see [`route_to_owner`](Self::route_to_owner).
    pub fn owner_aware(
        overlay: Arc<Overlay>,
        self_id: NodeId,
        membership: Arc<Membership>,
        node: Arc<NaKikaNode>,
    ) -> RedirectLayer {
        RedirectLayer::new(overlay, self_id, |_| None, |_| None).route_to_owner(membership, node)
    }

    /// Enables owner-aware redirection: cacheable client requests whose
    /// consistent-hash owner is another *live* member (per `membership`)
    /// are answered with a `307` to the owner's address instead of being
    /// relayed.  Internal traffic — peer fetches, replication pushes,
    /// gossip, anything under the node's internal path prefix — is never
    /// redirected; each issued redirect is counted in `node`'s cache stats.
    pub fn route_to_owner(
        mut self,
        membership: Arc<Membership>,
        node: Arc<NaKikaNode>,
    ) -> RedirectLayer {
        self.owner = Some(Arc::new(OwnerRouting { membership, node }));
        self
    }
}

impl Layer for RedirectLayer {
    fn wrap(&self, inner: Arc<dyn HttpService>) -> Arc<dyn HttpService> {
        Arc::new(Redirected {
            inner,
            overlay: self.overlay.clone(),
            self_id: self.self_id,
            locate: self.locate.clone(),
            peer_url: self.peer_url.clone(),
            owner: self.owner.clone(),
        })
    }
}

struct Redirected {
    inner: Arc<dyn HttpService>,
    overlay: Arc<Overlay>,
    self_id: NodeId,
    locate: Arc<dyn Fn(IpAddr) -> Option<Location> + Send + Sync>,
    peer_url: Arc<dyn Fn(NodeId) -> Option<String> + Send + Sync>,
    owner: Option<Arc<OwnerRouting>>,
}

impl Redirected {
    /// The owner-aware verdict for `req`: `Some(307)` when a different live
    /// member owns the key, `None` to serve locally (relay fallback).
    fn owner_redirect(&self, req: &Request) -> Option<Response> {
        let routing = self.owner.as_ref()?;
        // Only client-facing cacheable traffic is redirected: internal
        // exchanges (peer fetches, replication, gossip) must terminate
        // here, and non-cacheable methods gain nothing from the owner.
        if !req.method.is_cacheable()
            || req.uri.path.starts_with(peering::INTERNAL_PREFIX)
            || peering::has_internal_headers(req)
        {
            return None;
        }
        let owner = self.overlay.owner_of(&crate::node::cache_key(req))?;
        if owner.id == self.self_id {
            return None;
        }
        // "Alive" is the gossip membership's word, not the overlay's: a
        // planted or suspect owner is served locally via the relay path.
        let alive = routing
            .membership
            .members()
            .iter()
            .any(|m| m.state == PeerState::Alive && key_for(&m.name) == owner.id);
        if !alive {
            return None;
        }
        let base = owner.addr?;
        let base = base.trim_end_matches('/');
        let target = match &req.uri.query {
            Some(query) => format!("{base}{}?{query}", req.uri.path),
            None => format!("{base}{}", req.uri.path),
        };
        routing.node.record_owner_redirect();
        Some(Response::redirect_temporary(&target))
    }
}

impl HttpService for Redirected {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        let client = if req.client_ip.is_unspecified() {
            ctx.client_ip
        } else {
            req.client_ip
        };
        if let Some(location) = (self.locate)(client) {
            if let Some(&(nearest, _)) = self.overlay.nearest_nodes(&location, 1).first() {
                if nearest != self.self_id {
                    if let Some(base) = (self.peer_url)(nearest) {
                        let base = base.trim_end_matches('/');
                        let target = match &req.uri.query {
                            Some(query) => format!("{base}{}?{query}", req.uri.path),
                            None => format!("{base}{}", req.uri.path),
                        };
                        return Ok(Response::redirect(&target));
                    }
                }
            }
        }
        if let Some(redirect) = self.owner_redirect(&req) {
            return Ok(redirect);
        }
        self.inner.call(req, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceManagerConfig;
    use crate::service::service_fn;
    use nakika_http::StatusCode;
    use nakika_integrity::sign_response;
    use nakika_overlay::cluster::sites;
    use nakika_overlay::key_for;

    fn ok_service() -> Arc<dyn HttpService> {
        service_fn(|_req, _ctx| Ok(Response::ok("text/plain", "payload")))
    }

    #[test]
    fn access_log_records_successes_and_rejections() {
        let log = Arc::new(AccessLog::new());
        log.configure_site("site.example", Some("http://site.example/logs"));
        let base = service_fn(|req: Request, _ctx: &RequestCtx| {
            if req.uri.path.contains("fail") {
                Err(NakikaError::Upstream {
                    url: req.uri.to_string(),
                    reason: "unreachable".into(),
                })
            } else {
                Ok(Response::ok("text/plain", "ok"))
            }
        });
        let stack = AccessLogLayer::new(log.clone()).wrap(base);
        let ctx = RequestCtx::at(42).with_client_ip("10.1.2.3".parse().unwrap());
        stack
            .call(Request::get("http://site.example/good"), &ctx)
            .unwrap();
        stack
            .call(Request::get("http://site.example/fail"), &ctx)
            .unwrap_err();
        assert_eq!(log.pending("site.example"), 2);
        let batches = log.flush();
        assert!(batches[0].1.contains(" 200 "));
        assert!(batches[0].1.contains(" 502 "));
    }

    #[test]
    fn admission_layer_rejects_terminated_sites_with_typed_errors() {
        let mut config = ResourceManagerConfig::default();
        config.capacity.insert(ResourceKind::Cpu, 1.0);
        let resource = Arc::new(ResourceManager::new(config));
        // Congest the site across two control rounds so the controller
        // terminates its pipelines deterministically.
        resource.record("hog.example", ResourceKind::Cpu, 1_000.0);
        resource.control();
        resource.record("hog.example", ResourceKind::Cpu, 1_000.0);
        resource.control();
        let stack = AdmissionLayer::new(resource).wrap(ok_service());
        let result = stack.call(Request::get("http://hog.example/x"), &RequestCtx::at(0));
        match result {
            Err(NakikaError::Throttled { site } | NakikaError::Terminated { site }) => {
                assert_eq!(site, "hog.example");
            }
            other => panic!("expected a typed admission rejection, got {other:?}"),
        }
    }

    #[test]
    fn rate_limit_layer_spends_refills_and_isolates_clients() {
        let limiter = RateLimitLayer::new(2, 3);
        let stack = limiter.clone().wrap(ok_service());
        let hog: IpAddr = "10.0.0.1".parse().unwrap();
        let polite: IpAddr = "10.0.0.2".parse().unwrap();

        // The burst allows 3 immediate requests; the 4th in the same
        // second is rejected with the typed 429 mapping.
        let ctx = RequestCtx::at(100).with_client_ip(hog);
        for _ in 0..3 {
            assert!(stack.call(Request::get("http://s.example/a"), &ctx).is_ok());
        }
        match stack.call(Request::get("http://s.example/a"), &ctx) {
            Err(error @ NakikaError::RateLimited { client }) => {
                assert_eq!(client, hog);
                assert_eq!(error.status(), StatusCode::TOO_MANY_REQUESTS);
                assert_eq!(error.to_response().status.as_u16(), 429);
            }
            other => panic!("expected a rate-limit rejection, got {other:?}"),
        }
        assert_eq!(limiter.rejections(), 1);

        // A different client is untouched by the hog's empty bucket.
        let ctx = RequestCtx::at(100).with_client_ip(polite);
        assert!(stack.call(Request::get("http://s.example/b"), &ctx).is_ok());

        // Two seconds later the hog has earned 2 * rate tokens back.
        let ctx = RequestCtx::at(102).with_client_ip(hog);
        for _ in 0..4 {
            let _ = stack.call(Request::get("http://s.example/a"), &ctx);
        }
        assert_eq!(
            limiter.rejections(),
            2,
            "4 tokens earned back? only 2/sec * 2s should refill"
        );
    }

    #[test]
    fn integrity_layer_accepts_signed_and_rejects_tampered_content() {
        let key = SigningKey::new(b"origin-key");
        let signing_key = key.clone();
        let good = service_fn(move |_req, _ctx| {
            let mut response = Response::ok("text/html", "<p>results</p>");
            sign_response(&mut response, &signing_key, 1_000, 3_600);
            Ok(response)
        });
        let stack = IntegrityLayer::new(key.clone()).wrap(good);
        let ctx = RequestCtx::at(2_000);
        assert!(stack
            .call(Request::get("http://med.example/study"), &ctx)
            .is_ok());

        let tampering_key = key.clone();
        let tampering = service_fn(move |_req, _ctx| {
            let mut response = Response::ok("text/html", "<p>results</p>");
            sign_response(&mut response, &tampering_key, 1_000, 3_600);
            response.set_body("<p>falsified</p>");
            Ok(response)
        });
        let stack = IntegrityLayer::new(key).wrap(tampering);
        match stack.call(Request::get("http://med.example/study"), &ctx) {
            Err(NakikaError::Integrity { reason, .. }) => {
                assert!(reason.contains("hash"), "reason: {reason}")
            }
            other => panic!("expected an integrity error, got {other:?}"),
        }
    }

    #[test]
    fn redirect_layer_sends_distant_clients_to_the_nearer_node() {
        let overlay = Arc::new(Overlay::with_defaults());
        let us = key_for("edge-us");
        let asia = key_for("edge-asia");
        overlay.join(us, sites::US_EAST);
        overlay.join(asia, sites::ASIA);
        let layer = RedirectLayer::new(
            overlay,
            us,
            |ip: IpAddr| {
                // Toy geolocation: 203.* clients are in Asia, the rest local.
                if ip.to_string().starts_with("203.") {
                    Some(sites::ASIA)
                } else {
                    Some(sites::US_EAST)
                }
            },
            move |id| (id == asia).then(|| "http://edge-asia.nakika.net".to_string()),
        );
        let stack = layer.wrap(ok_service());

        let far = RequestCtx::at(0).with_client_ip("203.0.113.5".parse().unwrap());
        let resp = stack
            .call(Request::get("http://site.example/page?lang=jp&hq=1"), &far)
            .unwrap();
        assert_eq!(resp.status, StatusCode::FOUND);
        assert_eq!(
            resp.headers.get("Location"),
            Some("http://edge-asia.nakika.net/page?lang=jp&hq=1"),
            "the query string survives the redirect"
        );

        let near = RequestCtx::at(0).with_client_ip("10.0.0.1".parse().unwrap());
        let resp = stack
            .call(Request::get("http://site.example/page"), &near)
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }

    #[test]
    fn owner_aware_layer_redirects_to_live_owners_only() {
        let overlay = Arc::new(Overlay::with_defaults());
        let me = key_for("edge-a");
        let peer = key_for("edge-b");
        overlay.join(me, sites::US_EAST);
        overlay.join_with_addr(peer, sites::ASIA, "http://edge-b.example");
        let handle = crate::builder::NodeBuilder::proxy_with_dht("edge-a").build();
        let node = Arc::clone(handle.node());
        let membership = Arc::new(Membership::with_manual_clock(
            "edge-a",
            nakika_overlay::MembershipConfig::default(),
        ));
        membership.set_self_addr("http://edge-a.example");
        membership.merge_digest("self edge-b http://edge-b.example 0");
        let stack = RedirectLayer::owner_aware(
            Arc::clone(&overlay),
            me,
            Arc::clone(&membership),
            Arc::clone(&node),
        )
        .wrap(ok_service());
        let ctx = RequestCtx::at(0);

        // Consistent hashing spreads keys across both members; pick one
        // owned by each side.
        let owned_by = |id: NodeId| {
            (0..)
                .map(|i| format!("http://site.example/page-{i}.html"))
                .find(|url| {
                    let key = crate::node::cache_key(&Request::get(url));
                    overlay.owner_of(&key).is_some_and(|m| m.id == id)
                })
                .expect("some key hashes to the node")
        };
        let peers_url = owned_by(peer);
        let own_url = owned_by(me);

        // The peer's key is answered with a 307 to the owner, and counted.
        let resp = stack.call(Request::get(&peers_url), &ctx).unwrap();
        assert_eq!(resp.status, StatusCode::TEMPORARY_REDIRECT);
        let expected = peers_url.replace("http://site.example", "http://edge-b.example");
        assert_eq!(resp.headers.get("Location"), Some(expected.as_str()));
        assert_eq!(node.stats().owner_redirects, 1);

        // Keys this node owns, internal peer exchanges, and internal paths
        // are all served locally, never redirected.
        for req in [
            Request::get(&own_url),
            Request::get(&peers_url).with_header(peering::PEER_HOP_HEADER, "3"),
            Request::get("http://site.example/__nakika/stats"),
        ] {
            let resp = stack.call(req, &ctx).unwrap();
            assert_eq!(resp.body.to_text(), "payload");
        }
        assert_eq!(node.stats().owner_redirects, 1);

        // A suspect owner is no longer redirected to — the local relay
        // fallback takes over until gossip refutes or confirms the failure.
        membership.on_probe_failed("edge-b");
        let resp = stack.call(Request::get(&peers_url), &ctx).unwrap();
        assert_eq!(resp.body.to_text(), "payload");
        assert_eq!(node.stats().owner_redirects, 1);
    }
}
