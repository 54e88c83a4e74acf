//! Fluent construction of Na Kika nodes as [`HttpService`]s.
//!
//! [`NodeBuilder`] is the only way to configure a node: it owns the
//! [`NodeConfig`] literal, binds the node to its origin fetch path, attaches
//! the overlay and, when asked, the gossip membership and owner-aware
//! redirection.  What comes out is a [`NodeHandle`]: the node's one
//! service plus a handle on the node for statistics and stores.
//!
//! ```
//! use nakika_core::service::{HttpService, RequestCtx};
//! use nakika_core::NodeBuilder;
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

use crate::gossip::{apply_events, gossip_exchange, gossip_probe_via, handle_gossip};
use crate::node::{origin_from_fn, HotEntry, NaKikaNode, NodeConfig, NodeMode, OriginFetch};
use crate::peering;
use crate::pipeline::{CLIENT_WALL_URL, SERVER_WALL_URL};
use crate::resource::{ResourceKind, ResourceManagerConfig};
use crate::service::{DispatchHint, HttpService, NakikaError, RelayPlan, RequestCtx};
use nakika_http::pattern::Cidr;
use nakika_http::{Request, Response};
use nakika_overlay::{key_for, Membership, NodeId, Overlay, PeerState, ProbeAction};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The service adapter over a [`NaKikaNode`]: binds the node to its origin
/// fetch path so transports only ever see [`HttpService`], answers the
/// node's own internal paths (gossip exchanges, stats), and answers
/// owner-aware redirects when [`NodeBuilder::redirect_to_owner`] is on.
pub(crate) struct NodeService {
    node: Arc<NaKikaNode>,
    origin: Arc<dyn OriginFetch>,
    roster: Option<Roster>,
}

/// An internal path the node answers itself instead of proxying.
enum Internal<'a> {
    /// [`peering::GOSSIP_PATH`] on a node with gossip membership.
    Gossip(&'a Roster),
    /// [`peering::STATS_PATH`], on every node.
    Stats,
}

impl NodeService {
    /// The wrapped node.
    pub(crate) fn node(&self) -> &Arc<NaKikaNode> {
        &self.node
    }

    /// Which internal path `req` names, if the node answers it itself.
    /// Every other request, including other `/__nakika/` paths and gossip
    /// on a node without membership, is served as traffic.
    fn internal(&self, req: &Request) -> Option<Internal<'_>> {
        let path = req.uri.path.as_str();
        if !path.starts_with(peering::INTERNAL_PREFIX) {
            return None;
        }
        match path {
            peering::STATS_PATH => Some(Internal::Stats),
            peering::GOSSIP_PATH => self.roster.as_ref().map(Internal::Gossip),
            _ => None,
        }
    }

    /// The `Location` of the `307` this node answers `req` with, if any.
    fn owner_redirect(&self, req: &Request) -> Option<String> {
        self.roster.as_ref()?.redirect_target(req)
    }
}

impl HttpService for NodeService {
    fn call(&self, mut req: Request, ctx: &RequestCtx) -> Result<Response, NakikaError> {
        match self.internal(&req) {
            Some(Internal::Gossip(roster)) => {
                return Ok(handle_gossip(
                    &roster.membership,
                    &roster.overlay,
                    &self.origin,
                    &req,
                ));
            }
            Some(Internal::Stats) => {
                return Ok(Response::ok("text/plain", stats_text(&self.node)));
            }
            None => {}
        }
        if let Some(target) = self.owner_redirect(&req) {
            self.node.record_owner_redirect();
            return Ok(Response::redirect_temporary(&target));
        }
        if req.client_ip.is_unspecified() && !ctx.client_ip.is_unspecified() {
            req.client_ip = ctx.client_ip;
        }
        self.node.process(req, ctx.arrival_secs, &self.origin)
    }

    fn dispatch_hint(&self, req: &Request, ctx: &RequestCtx) -> DispatchHint {
        match self.internal(req) {
            // A ping-req relay opens a socket to its target and must stay
            // off the event loop.
            Some(Internal::Gossip(_)) if req.headers.contains(peering::GOSSIP_PROBE_HEADER) => {
                return DispatchHint::MayBlock;
            }
            // A plain exchange and the stats are in-memory state.
            Some(_) => return DispatchHint::Inline,
            None => {}
        }
        // A redirect is a roster lookup: nothing to fetch, nothing to block on.
        if self.owner_redirect(req).is_some() {
            return DispatchHint::Inline;
        }
        self.node.dispatch_hint(req, ctx.arrival_secs)
    }

    fn relay_plan(&self, req: &Request, ctx: &RequestCtx) -> Option<RelayPlan> {
        // Internal paths and redirects are answered here, never relayed
        // from an upstream socket.
        if self.internal(req).is_some() || self.owner_redirect(req).is_some() {
            return None;
        }
        self.node.relay_plan(req, ctx.arrival_secs, &self.origin)
    }
}

/// Renders the counters served at [`peering::STATS_PATH`]: the node's
/// request counters plus the cache shard totals, one `key value` pair per
/// line (the `node` line carries the node's name instead of a number).
/// Nodes running gossip membership append their `gossip_*` counters.
fn stats_text(node: &NaKikaNode) -> String {
    let stats = node.stats();
    let cache = node.cache_stats();
    let mut counters = vec![
        ("requests", stats.requests),
        ("cache_hits", cache.hits),
        ("cache_misses", cache.misses),
        ("cache_inserts", cache.inserts),
        ("peer_hits", stats.peer_hits),
        ("peer_misses", stats.peer_misses),
        ("origin_fetches", stats.origin_fetches),
        ("replication_pushes", stats.replication_pushes),
        ("owner_redirects", stats.owner_redirects),
        ("script_compiles", cache.script_compiles),
        ("script_cache_hits", cache.script_cache_hits),
    ];
    if let Some(membership) = node.gossip() {
        let gossip = membership.stats();
        counters.extend([
            ("gossip_alive", gossip.alive),
            ("gossip_suspect", gossip.suspect),
            ("gossip_faulty", gossip.faulty),
            ("gossip_probes", gossip.probes_sent),
            ("gossip_roster_version", gossip.roster_version),
        ]);
    }
    let mut text = format!("node {}\n", node.name());
    for (key, value) in counters {
        text.push_str(&format!("{key} {value}\n"));
    }
    text
}

/// A gossiping node's view of the cluster: the overlay its roster events
/// re-home keys in, its own identity there, and the live roster.  With
/// `redirect_to_owner` on it also drives owner-aware client redirection:
/// a `307` sends the client straight to the live member that holds (or
/// will hold) the cached copy, skipping the relay hop.  A suspect or
/// faulty owner is never redirected to; the peer relay serves the request
/// instead, so clients keep working through churn.
struct Roster {
    overlay: Arc<Overlay>,
    self_id: NodeId,
    membership: Arc<Membership>,
    redirect_to_owner: bool,
}

impl Roster {
    /// The verdict for `req`: `Some(location)` when redirection is on and
    /// a different live member owns the key, `None` to serve locally
    /// (relay fallback).
    fn redirect_target(&self, req: &Request) -> Option<String> {
        // Only client-facing cacheable traffic is redirected: internal
        // exchanges (peer fetches, replication, gossip) must terminate
        // here, and non-cacheable methods gain nothing from the owner.
        if !self.redirect_to_owner
            || !req.method.is_cacheable()
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
        let alive = self
            .membership
            .members()
            .iter()
            .any(|m| m.state == PeerState::Alive && key_for(&m.name) == owner.id);
        if !alive {
            return None;
        }
        let base = owner.addr?;
        let base = base.trim_end_matches('/');
        Some(match &req.uri.query {
            Some(query) => format!("{base}{}?{query}", req.uri.path),
            None => format!("{base}{}", req.uri.path),
        })
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
/// It receives the hot entries the fetch path sends and issues one peer
/// fetch per successor, fully draining each response so the successor's
/// cache tee completes.  Stops and joins when the owning [`NodeHandle`]
/// drops, abandoning any entries still queued.
struct ReplicationWorker {
    stop: Arc<AtomicBool>,
    wake: crate::node::HotEntrySender,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ReplicationWorker {
    fn spawn(
        node: Arc<NaKikaNode>,
        overlay: Arc<Overlay>,
        id: NodeId,
        origin: Arc<dyn OriginFetch>,
        hot_entries: mpsc::Receiver<Option<HotEntry>>,
    ) -> Option<ReplicationWorker> {
        let shared = node.replication()?.clone();
        let wake = shared.hot_entries.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(format!("nakika-repl-{}", node.name()))
            .spawn(move || {
                while let Ok(Some(entry)) = hot_entries.recv() {
                    if stop_flag.load(Ordering::Relaxed) {
                        return;
                    }
                    push_to_successors(&entry, &overlay, id, &origin, &node, &shared);
                }
            })
            .expect("failed to spawn the replication worker thread");
        Some(ReplicationWorker {
            stop,
            wake,
            handle: Some(handle),
        })
    }
}

impl Drop for ReplicationWorker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.wake.send(None);
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
    fn spawn(name: &str, roster: &Roster, origin: Arc<dyn OriginFetch>) -> GossipWorker {
        let (membership, overlay) = (roster.membership.clone(), roster.overlay.clone());
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
    entry: &HotEntry,
    overlay: &Arc<Overlay>,
    self_id: NodeId,
    origin: &Arc<dyn OriginFetch>,
    node: &Arc<NaKikaNode>,
    shared: &crate::node::ReplicationShared,
) {
    let own_addr = node.public_addr();
    for member in overlay.successors_of(&entry.key, shared.successors) {
        if member.id == self_id {
            continue;
        }
        let Some(addr) = member.addr else {
            continue;
        };
        if own_addr.as_deref() == Some(addr.as_str()) {
            continue;
        }
        let request = Request::get(&entry.url).with_header(peering::REPLICATE_HEADER, "1");
        if let Ok(mut response) = origin.fetch_peer(&addr, &request) {
            // Drain the streamed body so the successor's cache tee completes;
            // only then has the entry actually been replicated.
            if response.status.is_success() && response.body.buffer().is_ok() {
                node.record_replication_push();
            }
        }
    }
}

/// A built node: its `NodeService` plus the node's background workers.
///
/// The handle itself implements [`HttpService`], so call sites can treat it
/// as the service; [`NodeHandle::service`] clones it out for
/// transports that take `Arc<dyn HttpService>`.  Dropping the handle stops
/// the node's replication and gossip workers, if any were configured.
pub struct NodeHandle {
    service: Arc<NodeService>,
    _replication_worker: Option<ReplicationWorker>,
    _gossip_worker: Option<GossipWorker>,
}

impl NodeHandle {
    /// The node, for statistics, stores and cache inspection.
    pub fn node(&self) -> &Arc<NaKikaNode> {
        self.service.node()
    }

    /// The node's service.
    pub fn service(&self) -> Arc<dyn HttpService> {
        self.service.clone()
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

/// Fluent builder for Na Kika nodes.
pub struct NodeBuilder {
    config: NodeConfig,
    overlay: Option<(Arc<Overlay>, NodeId)>,
    origin: Option<Arc<dyn OriginFetch>>,
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
    /// another live member with a `307` to that owner instead of relaying;
    /// internal traffic (peer fetches, replication pushes, gossip) and
    /// keys whose owner is suspect or faulty are served locally, and each
    /// redirect is counted in the node's `owner_redirects`.  Requires
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

    /// Builds the node and its service, spawning the
    /// replication worker when [`replicate_hot`](Self::replicate_hot) and an
    /// overlay are both configured.
    pub fn build(self) -> NodeHandle {
        let name = self.config.name.clone();
        let mut node = NaKikaNode::new(self.config);
        if let Some((overlay, id)) = &self.overlay {
            node.attach_overlay(overlay.clone(), *id);
        }
        let hot_entries = self.replicate.map(|(successors, threshold)| {
            let (sender, receiver) = mpsc::channel();
            let shared = crate::node::ReplicationShared::new(sender, successors, threshold);
            node.attach_replication(Arc::new(shared));
            receiver
        });
        let origin = self.origin.unwrap_or_else(|| Arc::new(NoOrigin));
        // Gossip needs an overlay to apply roster events to, and owner-aware
        // redirection consults the live roster: both inert without.
        let roster = match (self.gossip, &self.overlay) {
            (Some(membership), Some((overlay, id))) => {
                node.attach_gossip(membership.clone());
                Some(Roster {
                    overlay: overlay.clone(),
                    self_id: *id,
                    membership,
                    redirect_to_owner: self.redirect_to_owner,
                })
            }
            _ => None,
        };
        let node = Arc::new(node);
        let replication_worker = self
            .overlay
            .zip(hot_entries)
            .and_then(|((overlay, id), rx)| {
                ReplicationWorker::spawn(node.clone(), overlay, id, origin.clone(), rx)
            });
        let gossip_worker = roster
            .as_ref()
            .map(|roster| GossipWorker::spawn(&name, roster, origin.clone()));
        NodeHandle {
            service: Arc::new(NodeService {
                node,
                origin,
                roster,
            }),
            _replication_worker: replication_worker,
            _gossip_worker: gossip_worker,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_http::StatusCode;
    use nakika_overlay::MembershipConfig;

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

    #[test]
    fn owner_aware_node_redirects_to_live_owners_only() {
        let overlay = Arc::new(Overlay::new());
        let me = key_for("edge-a");
        let peer = key_for("edge-b");
        overlay.join(me);
        overlay.join_with_addr(peer, "http://edge-b.example");
        // No self address: probing stays dormant, so only this test moves
        // the roster.
        let membership = Arc::new(Membership::with_manual_clock(
            "edge-a",
            MembershipConfig::default(),
        ));
        membership.merge_digest("self edge-b http://edge-b.example 0");
        let edge = NodeBuilder::proxy_with_dht("edge-a")
            .overlay(Arc::clone(&overlay), me)
            .gossip(Arc::clone(&membership))
            .redirect_to_owner()
            .origin_fn(|_req| Response::ok("text/plain", "payload"))
            .build();
        let ctx = RequestCtx::at(0);

        // Consistent hashing spreads keys across both members; pick one
        // owned by each side.
        let owned_by = |id: NodeId, path: &str| {
            (0..)
                .map(|i| format!("http://site.example{path}?v={i}"))
                .find(|url| {
                    let key = crate::node::cache_key(&Request::get(url));
                    overlay.owner_of(&key).is_some_and(|m| m.id == id)
                })
                .expect("some key hashes to the node")
        };
        let peers_url = owned_by(peer, "/page.html");
        let own_url = owned_by(me, "/page.html");

        // The peer's key is answered inline with a 307 to the owner, and
        // counted.
        let redirected = Request::get(&peers_url);
        assert_eq!(edge.dispatch_hint(&redirected, &ctx), DispatchHint::Inline);
        assert!(edge.relay_plan(&redirected, &ctx).is_none());
        let resp = edge.call(redirected, &ctx).unwrap();
        assert_eq!(resp.status, StatusCode::TEMPORARY_REDIRECT);
        let expected = peers_url.replace("http://site.example", "http://edge-b.example");
        assert_eq!(resp.headers.get("Location"), Some(expected.as_str()));
        assert_eq!(edge.node().stats().owner_redirects, 1);

        // Keys this node owns, internal peer exchanges, and internal paths
        // are all served locally, never redirected.
        for req in [
            Request::get(&own_url),
            Request::get(&peers_url).with_header(peering::PEER_HOP_HEADER, "3"),
            Request::get("http://site.example/__nakika/other"),
        ] {
            let resp = edge.call(req, &ctx).unwrap();
            assert_eq!(resp.body.to_text(), "payload");
        }
        assert_eq!(edge.node().stats().owner_redirects, 1);

        // The node's own internal paths are answered here, even where the
        // key they hash to belongs to the live peer.
        for (path, answer) in [
            (peering::STATS_PATH, "node edge-a\n"),
            (peering::GOSSIP_PATH, "self edge-a "),
        ] {
            let req = Request::get(&owned_by(peer, path));
            assert_eq!(edge.dispatch_hint(&req, &ctx), DispatchHint::Inline);
            let resp = edge.call(req, &ctx).unwrap();
            assert!(resp.body.to_text().starts_with(answer));
        }
        assert_eq!(edge.node().stats().owner_redirects, 1);

        // A suspect owner is no longer redirected to — the local relay
        // fallback takes over until gossip refutes or confirms the failure.
        membership.on_probe_failed("edge-b");
        let resp = edge.call(Request::get(&peers_url), &ctx).unwrap();
        assert_eq!(resp.body.to_text(), "payload");
        assert_eq!(edge.node().stats().owner_redirects, 1);
    }

    /// An origin the event loop may splice, counting the fetches that
    /// reach it through the call path.
    struct SpliceableOrigin(std::sync::atomic::AtomicU64);

    impl OriginFetch for SpliceableOrigin {
        fn fetch_origin(&self, _request: &Request) -> Response {
            self.0.fetch_add(1, Ordering::SeqCst);
            Response::ok("text/plain", "payload")
        }
        fn relay_eligible(&self) -> bool {
            true
        }
    }

    #[test]
    fn nodes_answer_their_stats_locally_in_a_fixed_key_order() {
        let zeros = |keys: &str| -> String {
            keys.split_whitespace()
                .map(|k| format!("{k} 0\n"))
                .collect()
        };
        let counters = zeros("requests cache_hits cache_misses cache_inserts peer_hits peer_misses origin_fetches replication_pushes owner_redirects script_compiles script_cache_hits");
        let gossip = zeros("gossip_suspect gossip_faulty gossip_probes gossip_roster_version");
        let origin = Arc::new(SpliceableOrigin(Default::default()));
        let plain = NodeBuilder::plain_proxy("p").origin(origin.clone()).build();
        let membership = Membership::with_manual_clock("g", MembershipConfig::default());
        let gossiping = NodeBuilder::proxy_with_dht("g")
            .overlay(Arc::new(Overlay::new()), key_for("g"))
            .gossip(Arc::new(membership))
            .origin(origin.clone())
            .build();
        let ctx = RequestCtx::at(1);
        let url = |path: &str| format!("http://site.example{path}");

        for (edge, text) in [
            (&plain, format!("node p\n{counters}")),
            (
                &gossiping,
                format!("node g\n{counters}gossip_alive 1\n{gossip}"),
            ),
        ] {
            let stats = Request::get(&url(peering::STATS_PATH));
            assert_eq!(edge.dispatch_hint(&stats, &ctx), DispatchHint::Inline);
            assert!(edge.relay_plan(&stats, &ctx).is_none());
            assert_eq!(edge.call(stats, &ctx).unwrap().body.to_text(), text);
            assert_eq!(edge.node().stats().requests, 0);
        }
        assert_eq!(origin.0.load(Ordering::SeqCst), 0);

        // Without membership the gossip path is a page like any other:
        // planned for the splice and fetched from the origin.
        let gossip = Request::get(&url(peering::GOSSIP_PATH));
        assert!(plain.relay_plan(&gossip, &ctx).is_some());
        assert_eq!(plain.call(gossip, &ctx).unwrap().body.to_text(), "payload");
        assert_eq!(origin.0.load(Ordering::SeqCst), 1);
    }
}
