//! Fluent construction of Na Kika nodes as [`HttpService`] stacks.
//!
//! [`NodeBuilder`] is the only way to configure a node: it owns the
//! [`NodeConfig`] literal, binds the node to its origin fetch path, attaches
//! the overlay, and wraps the resulting service in any middleware
//! [`Layer`]s.  What comes out is a [`NodeHandle`]: the layered service plus
//! a handle on the node for statistics and stores.
//!
//! ```
//! use nakika_core::builder::NodeBuilder;
//! use nakika_core::service::{HttpService, RequestCtx};
//! use nakika_http::{Request, Response};
//!
//! let edge = NodeBuilder::plain_proxy("edge-1")
//!     .origin_fn(|_req| Response::ok("text/html", "hello").with_header("Cache-Control", "max-age=60"))
//!     .build();
//! let first = edge.call(Request::get("http://site.example/"), &RequestCtx::at(10)).unwrap();
//! let again = edge.call(Request::get("http://site.example/"), &RequestCtx::at(20)).unwrap();
//! assert_eq!(first.body.to_text(), again.body.to_text());
//! assert_eq!(edge.node().stats().cache_hits, 1);
//! ```

use crate::gossip::{apply_events, gossip_exchange, gossip_probe_via, GossipService};
use crate::middleware::RedirectLayer;
use crate::node::{origin_from_fn, NaKikaNode, NodeConfig, NodeMode, OriginFetch};
use crate::peering;
use crate::pipeline::{CLIENT_WALL_URL, SERVER_WALL_URL};
use crate::resource::{ResourceKind, ResourceManagerConfig};
use crate::service::{
    layered, DispatchHint, HttpService, Layer, NakikaError, RelayPlan, RequestCtx,
};
use nakika_http::pattern::Cidr;
use nakika_http::{Request, Response};
use nakika_overlay::{Membership, NodeId, Overlay, ProbeAction};
use nakika_state::Update;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The service adapter over a [`NaKikaNode`]: binds the node to its origin
/// fetch path so transports only ever see [`HttpService`].
pub struct NodeService {
    node: Arc<NaKikaNode>,
    origin: Arc<dyn OriginFetch>,
}

impl NodeService {
    /// The wrapped node.
    pub fn node(&self) -> &Arc<NaKikaNode> {
        &self.node
    }
}

impl HttpService for NodeService {
    fn call(&self, mut req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        if req.client_ip.is_unspecified() && !ctx.client_ip.is_unspecified() {
            req.client_ip = ctx.client_ip;
        }
        self.node.process(req, ctx.arrival_secs, &self.origin)
    }

    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        self.node.dispatch_hint(req, ctx.arrival_secs)
    }

    fn relay_plan(&self, req: &Request, ctx: &RequestCtx) -> Option<RelayPlan> {
        self.node.relay_plan(req, ctx.arrival_secs, &self.origin)
    }
}

/// An origin for nodes built without one: every fetch fails upstream.
struct NoOrigin;

impl OriginFetch for NoOrigin {
    fn fetch_origin(&self, request: &Request) -> Response {
        NakikaError::Upstream {
            url: request.uri.to_string(),
            reason: "no origin configured".to_string(),
        }
        .to_response()
    }
}

/// The background thread pushing hot cache entries to successor peers.
///
/// It drains the node's replication bus (fed by the fetch path when a key
/// this node owns crosses the hot threshold) and issues one peer fetch per
/// successor, fully draining each response so the successor's cache tee
/// completes.  Stops and joins when the owning [`NodeHandle`] drops.
struct ReplicationWorker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ReplicationWorker {
    fn spawn(
        node: Arc<NaKikaNode>,
        overlay: Arc<Overlay>,
        id: NodeId,
        origin: Arc<dyn OriginFetch>,
    ) -> Option<ReplicationWorker> {
        let shared = node.replication()?.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let subscription = shared
            .bus
            .subscribe(&shared.topic, &format!("{}#worker", node.name()));
        let handle = std::thread::Builder::new()
            .name(format!("nakika-repl-{}", node.name()))
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    let mut idle = true;
                    while let Some(message) = shared.bus.receive(&subscription) {
                        idle = false;
                        if let Some(update) = Update::decode(&message.payload) {
                            push_to_successors(&update, &overlay, id, &origin, &node, &shared);
                        }
                        shared.bus.ack(&subscription, message.sequence);
                        if stop_flag.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                    if idle {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            })
            .expect("failed to spawn the replication worker thread");
        Some(ReplicationWorker {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for ReplicationWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The background thread driving the SWIM membership: it ticks
/// [`Membership::poll`], performs the probe actions over the node's
/// [`OriginFetch::fetch_peer`] transport (direct exchange, then indirect
/// probes through relays before calling a peer unreachable), and applies
/// the resulting roster events to the overlay.  Stops and joins when the
/// owning [`NodeHandle`] drops.
struct GossipWorker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl GossipWorker {
    fn spawn(
        name: &str,
        membership: Arc<Membership>,
        overlay: Arc<Overlay>,
        origin: Arc<dyn OriginFetch>,
    ) -> GossipWorker {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        // Tick well below the probe interval so suspect timeouts and queued
        // failure hints are noticed promptly; `poll` itself rate-limits the
        // actual probes.
        let tick = Duration::from_millis((membership.config().probe_interval_ms / 4).clamp(5, 50));
        let handle = std::thread::Builder::new()
            .name(format!("nakika-gossip-{name}"))
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    let (actions, events) = membership.poll();
                    apply_events(&overlay, &events);
                    for ProbeAction::Ping { name, addr } in actions {
                        if stop_flag.load(Ordering::Relaxed) {
                            return;
                        }
                        run_probe(&membership, &overlay, &origin, name.as_deref(), &addr);
                    }
                    std::thread::sleep(tick);
                }
            })
            .expect("failed to spawn the gossip worker thread");
        GossipWorker {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for GossipWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One probe: a direct digest exchange with `addr`; on failure, indirect
/// probes through up to `indirect_probes` alive relays (SWIM's ping-req)
/// before the target is reported unreachable.  Seed probes (`name` absent)
/// carry no verdict — the seed either answers and names itself through its
/// digest, or stays unknown.
fn run_probe(
    membership: &Arc<Membership>,
    overlay: &Arc<Overlay>,
    origin: &Arc<dyn OriginFetch>,
    name: Option<&str>,
    addr: &str,
) {
    if gossip_exchange(membership, overlay, origin, addr).is_ok() {
        if let Some(name) = name {
            membership.on_ack(name);
        }
        return;
    }
    let Some(name) = name else {
        return;
    };
    for relay in membership.relay_candidates(name) {
        if gossip_probe_via(membership, overlay, origin, &relay.addr, addr).is_ok() {
            membership.on_ack(name);
            return;
        }
    }
    membership.on_probe_failed(name);
}

/// Pushes one hot entry to the key's successor peers by fetching the URL
/// *through* each successor's proxy front-end: the successor misses locally,
/// pulls the entry from the owner over the regular peer path, and tees it
/// into its own cache.  The [`peering::REPLICATE_HEADER`] mark keeps the
/// push from re-triggering hot-entry accounting downstream.
fn push_to_successors(
    update: &Update,
    overlay: &Arc<Overlay>,
    self_id: NodeId,
    origin: &Arc<dyn OriginFetch>,
    node: &Arc<NaKikaNode>,
    shared: &crate::node::ReplicationShared,
) {
    let own_addr = node.public_addr();
    for member in overlay.successors_of(&update.key, shared.successors) {
        if member.id == self_id {
            continue;
        }
        let Some(addr) = member.addr else {
            continue;
        };
        if own_addr.as_deref() == Some(addr.as_str()) {
            continue;
        }
        let request = Request::get(&update.value).with_header(peering::REPLICATE_HEADER, "1");
        if let Ok(mut response) = origin.fetch_peer(&addr, &request) {
            // Drain the streamed body so the successor's cache tee completes;
            // only then has the entry actually been replicated.
            if response.status.is_success() && response.body.buffer().is_ok() {
                node.record_replication_push();
            }
        }
    }
}

/// A built node: the layered [`HttpService`] stack plus the node it wraps.
///
/// The handle itself implements [`HttpService`], so call sites can treat it
/// as the service; [`NodeHandle::service`] clones out the stack for
/// transports that take `Arc<dyn HttpService>`.  Dropping the handle stops
/// the node's replication worker, if one was configured.
pub struct NodeHandle {
    node: Arc<NaKikaNode>,
    service: Arc<dyn HttpService>,
    _replication_worker: Option<ReplicationWorker>,
    _gossip_worker: Option<GossipWorker>,
}

impl NodeHandle {
    /// The node, for statistics, stores and cache inspection.
    pub fn node(&self) -> &Arc<NaKikaNode> {
        &self.node
    }

    /// The layered service stack.
    pub fn service(&self) -> Arc<dyn HttpService> {
        self.service.clone()
    }

    /// The gossip membership, if [`NodeBuilder::gossip`] configured one.
    pub fn membership(&self) -> Option<Arc<Membership>> {
        self.node.gossip().cloned()
    }
}

impl HttpService for NodeHandle {
    fn call(&self, req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        self.service.call(req, ctx)
    }

    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        self.service.dispatch_hint(req, ctx)
    }

    fn relay_plan(&self, req: &Request, ctx: &RequestCtx) -> Option<RelayPlan> {
        self.service.relay_plan(req, ctx)
    }
}

/// Fluent builder for Na Kika nodes; see the [module docs](self) for an
/// example.
pub struct NodeBuilder {
    config: NodeConfig,
    overlay: Option<(Arc<Overlay>, NodeId)>,
    origin: Option<Arc<dyn OriginFetch>>,
    layers: Vec<Box<dyn Layer>>,
    public_addr: Option<String>,
    replicate: Option<(usize, u32)>,
    gossip: Option<Arc<Membership>>,
    redirect_to_owner: bool,
}

impl NodeBuilder {
    fn with_mode(name: &str, mode: NodeMode) -> NodeBuilder {
        let resource = ResourceManagerConfig {
            enabled: mode == NodeMode::Scripted,
            ..ResourceManagerConfig::default()
        };
        NodeBuilder {
            config: NodeConfig {
                name: name.to_string(),
                mode,
                client_wall_url: CLIENT_WALL_URL.to_string(),
                server_wall_url: SERVER_WALL_URL.to_string(),
                cache_capacity_bytes: 256 * 1024 * 1024,
                cache_shards: 0,
                heuristic_ttl: Duration::from_secs(60),
                script_ttl: Duration::from_secs(300),
                local_networks: Vec::new(),
                resource,
                control_period_secs: 5,
                hard_state_quota: 16 * 1024 * 1024,
            },
            overlay: None,
            origin: None,
            layers: Vec::new(),
            public_addr: None,
            replicate: None,
            gossip: None,
            redirect_to_owner: false,
        }
    }

    /// A full scripted node named `name` with default knobs.
    pub fn scripted(name: &str) -> NodeBuilder {
        NodeBuilder::with_mode(name, NodeMode::Scripted)
    }

    /// A plain Apache-style caching proxy (the `Proxy` baseline).
    pub fn plain_proxy(name: &str) -> NodeBuilder {
        NodeBuilder::with_mode(name, NodeMode::PlainProxy)
    }

    /// A proxy with DHT integration but no scripting (the `DHT` baseline).
    pub fn proxy_with_dht(name: &str) -> NodeBuilder {
        NodeBuilder::with_mode(name, NodeMode::ProxyWithDht)
    }

    /// Proxy-cache capacity in bytes.
    pub fn cache_capacity_bytes(mut self, bytes: usize) -> NodeBuilder {
        self.config.cache_capacity_bytes = bytes;
        self
    }

    /// Number of proxy-cache shards.  The default (`0`) derives the count
    /// from the capacity; pin it when a deployment knows its concurrency —
    /// more shards cut lock contention at the cost of per-shard (rather
    /// than global) byte budgets.
    pub fn cache_shards(mut self, shards: usize) -> NodeBuilder {
        self.config.cache_shards = shards;
        self
    }

    /// URLs of the client- and server-side administrative control scripts.
    pub fn wall_urls(mut self, client: &str, server: &str) -> NodeBuilder {
        self.config.client_wall_url = client.to_string();
        self.config.server_wall_url = server.to_string();
        self
    }

    /// Adds one address block considered local to the hosting organisation.
    pub fn local_network(mut self, cidr: Cidr) -> NodeBuilder {
        self.config.local_networks.push(cidr);
        self
    }

    /// Seconds between executions of the congestion-control procedure.
    pub fn control_period_secs(mut self, secs: u64) -> NodeBuilder {
        self.config.control_period_secs = secs;
        self
    }

    /// Sets the node's capacity per control period for one resource.
    pub fn resource_capacity(mut self, kind: ResourceKind, capacity: f64) -> NodeBuilder {
        self.config.resource.capacity.insert(kind, capacity);
        self
    }

    /// Disables congestion-based resource controls (the "without resource
    /// controls" experimental arm).
    pub fn without_resource_controls(mut self) -> NodeBuilder {
        self.config.resource.enabled = false;
        self
    }

    /// Attaches the node to a structured overlay under `id` (already joined
    /// by the caller).
    pub fn overlay(mut self, overlay: Arc<Overlay>, id: NodeId) -> NodeBuilder {
        self.overlay = Some((overlay, id));
        self
    }

    /// The base URL where the node's proxy front-end will be reachable, when
    /// known at build time.  Deployments binding to an ephemeral port call
    /// `NaKikaNode::set_public_addr` after the server starts instead.
    pub fn public_addr(mut self, addr: &str) -> NodeBuilder {
        self.public_addr = Some(addr.to_string());
        self
    }

    /// Enables hot-entry replication: after `threshold` local cache hits for
    /// a key this node owns under consistent hashing, a background worker
    /// pushes the entry to the key's `successors` next-closest peers, so the
    /// overlay keeps serving the key when its owner departs.  Requires an
    /// [`overlay`](Self::overlay) and an origin whose `fetch_peer` reaches
    /// real peers; without an overlay the setting is inert.
    pub fn replicate_hot(mut self, successors: usize, threshold: u32) -> NodeBuilder {
        self.replicate = Some((successors, threshold));
        self
    }

    /// Enables dynamic membership: the node serves the gossip exchange
    /// endpoint (`/__nakika/gossip`) and a background worker drives the
    /// SWIM-style probe loop, applying roster events to the overlay so key
    /// ownership re-homes as members join, fail and recover.  Requires an
    /// [`overlay`](Self::overlay) and an origin whose `fetch_peer` reaches
    /// real peers; without an overlay the setting is inert.  Probing stays
    /// dormant until `Membership::set_self_addr` is called (typically after
    /// the server binds its port).
    pub fn gossip(mut self, membership: Arc<Membership>) -> NodeBuilder {
        self.gossip = Some(membership);
        self
    }

    /// Answers cacheable client requests whose consistent-hash owner is
    /// another live member with a `307` to that owner (see
    /// [`RedirectLayer::route_to_owner`]) instead of relaying.  Requires
    /// [`overlay`](Self::overlay) and [`gossip`](Self::gossip) — without a
    /// live roster there is no "alive" to consult, so the setting is inert.
    pub fn redirect_to_owner(mut self) -> NodeBuilder {
        self.redirect_to_owner = true;
        self
    }

    /// How the node obtains resources it does not have cached.
    pub fn origin(mut self, origin: Arc<dyn OriginFetch>) -> NodeBuilder {
        self.origin = Some(origin);
        self
    }

    /// Convenience: an origin built from a closure.
    pub fn origin_fn<F>(self, f: F) -> NodeBuilder
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        self.origin(origin_from_fn(f))
    }

    /// Wraps the node in a middleware layer.  The first layer added becomes
    /// the outermost wrapper.
    pub fn layer(mut self, layer: impl Layer + 'static) -> NodeBuilder {
        self.layers.push(Box::new(layer));
        self
    }

    /// Builds the node and its layered service stack, spawning the
    /// replication worker when [`replicate_hot`](Self::replicate_hot) and an
    /// overlay are both configured.
    pub fn build(self) -> NodeHandle {
        let name = self.config.name.clone();
        let mut node = NaKikaNode::new(self.config);
        if let Some((overlay, id)) = &self.overlay {
            node.attach_overlay(overlay.clone(), *id);
        }
        if let Some((successors, threshold)) = self.replicate {
            node.attach_replication(Arc::new(crate::node::ReplicationShared::new(
                &name, successors, threshold,
            )));
        }
        if let Some(addr) = &self.public_addr {
            node.set_public_addr(addr);
        }
        // Gossip needs an overlay to apply roster events to; inert without.
        let gossip = match (&self.gossip, &self.overlay) {
            (Some(membership), Some((overlay, _))) => Some((membership.clone(), overlay.clone())),
            _ => None,
        };
        if let Some((membership, _)) = &gossip {
            node.attach_gossip(membership.clone());
        }
        let node = Arc::new(node);
        let origin = self.origin.unwrap_or_else(|| Arc::new(NoOrigin));
        // Owner-aware redirection rides the layer stack, but it needs the
        // built node (for its counter) and the live roster, so the builder
        // assembles it here rather than asking the caller to.  Innermost of
        // the caller's layers: access logging and admission still see the
        // requests it answers.
        let mut layers = self.layers;
        if self.redirect_to_owner {
            if let (Some((overlay, id)), Some(membership)) = (&self.overlay, &self.gossip) {
                layers.push(Box::new(RedirectLayer::owner_aware(
                    overlay.clone(),
                    *id,
                    membership.clone(),
                    node.clone(),
                )));
            }
        }
        let replication_worker = self.overlay.and_then(|(overlay, id)| {
            ReplicationWorker::spawn(node.clone(), overlay, id, origin.clone())
        });
        let mut base: Arc<dyn HttpService> = Arc::new(NodeService {
            node: node.clone(),
            origin: origin.clone(),
        });
        let mut gossip_worker = None;
        if let Some((membership, overlay)) = gossip {
            // The gossip endpoint wraps the node directly — inside every
            // middleware layer — so exchanges bypass redirection, admission
            // and logging, and the node's request counters never see them.
            base = Arc::new(GossipService::new(
                base,
                membership.clone(),
                overlay.clone(),
                origin.clone(),
            ));
            gossip_worker = Some(GossipWorker::spawn(&name, membership, overlay, origin));
        }
        let service = layered(base, layers);
        NodeHandle {
            node,
            service,
            _replication_worker: replication_worker,
            _gossip_worker: gossip_worker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_http::StatusCode;

    #[test]
    fn builder_defaults_mirror_the_paper_configurations() {
        let scripted = NodeBuilder::scripted("s").build();
        assert_eq!(scripted.node().config().mode, NodeMode::Scripted);
        assert!(scripted.node().config().resource.enabled);

        let proxy = NodeBuilder::plain_proxy("p").build();
        assert_eq!(proxy.node().config().mode, NodeMode::PlainProxy);
        assert!(!proxy.node().config().resource.enabled);

        let dht = NodeBuilder::proxy_with_dht("d").build();
        assert_eq!(dht.node().config().mode, NodeMode::ProxyWithDht);
        assert!(!dht.node().config().resource.enabled);
    }

    #[test]
    fn unconfigured_origin_surfaces_as_bad_gateway() {
        let edge = NodeBuilder::plain_proxy("p").build();
        let resp = edge
            .call(Request::get("http://site.example/x"), &RequestCtx::at(1))
            .unwrap();
        assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
        assert_eq!(resp.headers.get("X-Nakika-Error"), Some("upstream"));
    }

    #[test]
    fn ctx_client_ip_fills_unspecified_requests_only() {
        let edge = NodeBuilder::plain_proxy("p")
            .origin_fn(|req: &Request| Response::ok("text/plain", req.client_ip.to_string()))
            .build();
        let ctx = RequestCtx::at(1).with_client_ip("10.9.8.7".parse().unwrap());
        let resp = edge.call(Request::get("http://a.example/"), &ctx).unwrap();
        assert_eq!(resp.body.to_text(), "10.9.8.7");
        let explicit =
            Request::get("http://b.example/").with_client_ip("192.0.2.1".parse().unwrap());
        let resp = edge.call(explicit, &ctx).unwrap();
        assert_eq!(resp.body.to_text(), "192.0.2.1");
    }
}
