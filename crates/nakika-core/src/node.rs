//! The Na Kika node: one edge-side proxy wiring together the cache, the
//! scripting pipeline, congestion-based resource control, hard state, access
//! logging and the cooperative-caching overlay.
//!
//! A node mediates one HTTP exchange at a time.  Transports never talk to it
//! directly: they drive the [`HttpService`](crate::service::HttpService)
//! stack a [`NodeBuilder`](crate::builder::NodeBuilder) produces, which binds
//! the node to its [`OriginFetch`] path and reads the current time off each
//! exchange's [`RequestCtx`](crate::service::RequestCtx) — so the same node
//! code runs unchanged under the discrete-event simulator, the real TCP
//! server, unit tests and the benchmarks.

use crate::cache::{CacheStats, ProxyCache};
use crate::pages;
use crate::peering;
use crate::pipeline::{
    CompiledStage, PipelineOutcome, PipelineRunner, StageCache, StageLoader, StageLookup,
};
use crate::programs::ProgramCache;
use crate::resource::{Admission, ResourceKind, ResourceManager, ResourceManagerConfig};
use crate::service::{DispatchHint, NakikaError, RelayAttempt, RelayPlan};
use crate::vocab::{FetchFn, VocabHooks};
use nakika_http::cache_control::{freshness, Freshness};
use nakika_http::pattern::Cidr;
use nakika_http::serialize::{serialize_request, serialize_request_absolute};
use nakika_http::{Body, Method, Request, Response};
use nakika_overlay::{Membership, NodeId, Overlay};
use nakika_script::ResourceMeter;
use nakika_state::{AccessLog, LogEntry, MessageBus, SiteStore, Update};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How a node obtains resources it does not have cached.
pub trait OriginFetch: Send + Sync {
    /// Fetches a resource from its origin server.
    fn fetch_origin(&self, request: &Request) -> Response;

    /// Fetches a resource from a peer Na Kika node.  `peer` is the payload
    /// the peer put in the overlay: its base URL (`http://host:port`) in a
    /// real deployment, or its node name under the simulator.  Connection
    /// and read failures surface as [`NakikaError::Upstream`] naming the
    /// peer, and the node counts them (`peer_misses`) before falling back
    /// to the origin — a dead peer is never silent.  The default falls back
    /// to the origin directly (the simulator's model of a peer fetch).
    fn fetch_peer(&self, peer: &str, request: &Request) -> Result<Response, NakikaError> {
        let _ = peer;
        Ok(self.fetch_origin(request))
    }

    /// True when this fetch path is a plain TCP exchange a readiness-driven
    /// transport may perform itself by splicing sockets (see
    /// [`RelayPlan`]).  The default is `false`: simulated, scripted and
    /// test origins answer from process memory, and a transport must not
    /// bypass them with real connections.  `TcpOrigin` in `nakika-server`
    /// overrides this.
    fn relay_eligible(&self) -> bool {
        false
    }
}

/// Node operating modes, matching the evaluation's configurations (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMode {
    /// A regular caching proxy: no overlay, no scripting (`Proxy`).
    PlainProxy,
    /// The proxy with an integrated DHT for cooperative caching (`DHT`).
    ProxyWithDht,
    /// The full Na Kika node: scripting pipeline, resource controls, and
    /// (when an overlay is attached) cooperative caching.
    Scripted,
}

/// Node configuration.  Constructed by
/// [`NodeBuilder`](crate::builder::NodeBuilder), which owns the defaults for
/// each of the paper's operating modes.
#[derive(Clone)]
pub struct NodeConfig {
    /// Node name (also the payload announced to the overlay).
    pub name: String,
    /// Operating mode.
    pub mode: NodeMode,
    /// URL of the client-side administrative control script.
    pub client_wall_url: String,
    /// URL of the server-side administrative control script.
    pub server_wall_url: String,
    /// Proxy-cache capacity in bytes.
    pub cache_capacity_bytes: usize,
    /// Number of proxy-cache shards; `0` derives the count from the
    /// capacity (see [`ProxyCache::new`]).
    pub cache_shards: usize,
    /// Heuristic freshness for responses without explicit expiration.
    pub heuristic_ttl: Duration,
    /// Freshness applied to compiled stages whose script response carries no
    /// explicit expiration, and to negative `nakika.js` entries.
    pub script_ttl: Duration,
    /// Address blocks considered local to the hosting organisation.
    pub local_networks: Vec<Cidr>,
    /// Resource-manager configuration.
    pub resource: ResourceManagerConfig,
    /// Seconds between executions of the congestion-control procedure.
    pub control_period_secs: u64,
    /// Per-site hard-state quota in bytes.
    pub hard_state_quota: usize,
}

/// Statistics a node accumulates, consumed by the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests handled (including rejected ones).
    pub requests: u64,
    /// Responses served from the local cache.
    pub cache_hits: u64,
    /// Responses fetched from a peer node found through the overlay.
    pub peer_hits: u64,
    /// Peer fetches that failed (peer down, error response), each falling
    /// back to the origin.
    pub peer_misses: u64,
    /// Responses fetched from the origin server.
    pub origin_fetches: u64,
    /// Hot cache entries this node pushed to successor peers.
    pub replication_pushes: u64,
    /// Client requests 307-redirected to the key's live consistent-hash
    /// owner instead of being relayed (owner-aware redirection).
    pub owner_redirects: u64,
    /// Responses generated entirely by scripts (no fetch at all).
    pub script_generated: u64,
    /// Requests rejected by throttling (server busy).
    pub throttled: u64,
    /// Requests rejected because the site's pipelines were terminated.
    pub terminated: u64,
    /// Script errors observed while processing requests.
    pub script_errors: u64,
    /// Na Kika Pages rendered.
    pub pages_rendered: u64,
}

/// Hot-entry replication state shared between the fetch path (which detects
/// hot keys at their consistent-hash owner and publishes them) and the
/// per-node worker thread (which drains the bus and pushes the entries to
/// the key's successor peers).
pub(crate) struct ReplicationShared {
    /// The per-node bus carrying hot-key announcements to the worker.
    pub(crate) bus: MessageBus,
    /// Topic the announcements travel on.
    pub(crate) topic: String,
    /// Publisher identity (distinct from the worker's subscription, so the
    /// bus does not suppress the messages as self-sends).
    pub(crate) publisher: String,
    /// Local cache hits at the owner before an entry counts as hot.
    pub(crate) threshold: u32,
    /// How many successor peers receive each hot entry.
    pub(crate) successors: usize,
    /// Per-key hit counts; `u32::MAX` marks an already-published key.
    hot: Mutex<HashMap<String, u32>>,
}

impl ReplicationShared {
    pub(crate) fn new(name: &str, successors: usize, threshold: u32) -> ReplicationShared {
        ReplicationShared {
            bus: MessageBus::new(),
            topic: "nakika/replicate".to_string(),
            publisher: format!("{name}#fetch"),
            threshold: threshold.max(1),
            successors: successors.max(1),
            hot: Mutex::new(HashMap::new()),
        }
    }
}

/// Shared fetch path: local cache, then overlay peers, then the origin.
#[derive(Clone)]
struct ResourceFetcher {
    node_name: String,
    public_addr: Option<String>,
    cache: Arc<ProxyCache>,
    overlay: Option<(Arc<Overlay>, NodeId)>,
    origin: Arc<dyn OriginFetch>,
    heuristic_ttl: Duration,
    stats: Arc<Mutex<NodeStats>>,
    replication: Option<Arc<ReplicationShared>>,
    gossip: Option<Arc<Membership>>,
}

/// The cache key the node's fetch path files `request` under — also the
/// consistent-hash key that peer routing and owner-aware redirection
/// locate the request's owner with.
pub(crate) fn cache_key(request: &Request) -> String {
    format!("{} {}", request.method, request.uri.to_origin())
}

/// Which kind of upstream one [`Attempt`] of a miss goes to.
enum Upstream {
    /// A peer node, named by the payload it put in the overlay.
    Peer(String),
    /// The origin server named by the request URI.
    Origin,
}

/// One step of a cache miss as transport-neutral data: where to ask and the
/// request to send there, loop-guard headers already stamped (peers) or
/// stripped (origin).  The blocking executor hands it to [`OriginFetch`];
/// [`NaKikaNode::relay_plan`] lowers it to wire bytes for the splice.
struct Attempt<'a> {
    upstream: Upstream,
    request: Cow<'a, Request>,
}

impl ResourceFetcher {
    /// Local cache, else the miss's [`attempts`](Self::attempts) in order
    /// through the blocking [`OriginFetch`] path.
    fn fetch(&self, request: &Request, now: u64) -> Response {
        let key = cache_key(request);
        if request.method.is_cacheable() {
            if let Some(cached) = self.cache.get(&key, now) {
                self.stats.lock().cache_hits += 1;
                self.note_cache_hit(&key, request, now);
                return cached;
            }
        }
        for attempt in self.attempts(&key, request, now) {
            match &attempt.upstream {
                Upstream::Peer(peer) => match self.origin.fetch_peer(peer, &attempt.request) {
                    Ok(response) if response.status.is_success() => {
                        return self.settle(&key, &request.method, response, true, now);
                    }
                    // Typed errors already name the peer; the counter makes
                    // the fallback observable either way.
                    Ok(_) | Err(_) => self.attempt_failed(peer),
                },
                Upstream::Origin => {
                    let response = self.origin.fetch_origin(&attempt.request);
                    return self.settle(&key, &request.method, response, false, now);
                }
            }
        }
        unreachable!("every attempt list ends with the origin, which always answers")
    }

    /// True if `peer` (an overlay payload: node name or base URL) is this
    /// node itself — fetching from oneself over TCP would deadlock a
    /// single-threaded transport and is always pointless.
    fn is_self(&self, peer: &str) -> bool {
        peer == self.node_name || self.public_addr.as_deref() == Some(peer)
    }

    /// The one description of a cache miss: who to ask, in order.
    /// Cooperative caching first — one cached copy anywhere in the overlay
    /// is enough to avoid an origin access — by two routes: a copy
    /// *announced* in the sloppy DHT (freshest information, may point at any
    /// node), then the key's consistent-hash *owner* (no announcement
    /// needed: the owner is where the network concentrates that key, so a
    /// miss routed there either hits or warms the right node).  Loop guards
    /// (`X-Nakika-Hops` budget and the `X-Nakika-Via` trail) bound the
    /// forwarding even when membership views diverge.  The origin always
    /// comes last, and the cooperative network's internal headers are not
    /// its business.  Building the list has no side effects.
    fn attempts<'a>(&self, key: &str, request: &'a Request, now: u64) -> Vec<Attempt<'a>> {
        let mut attempts = Vec::with_capacity(1);
        if let Some((overlay, node_id)) = &self.overlay {
            if request.method.is_cacheable() && peering::may_forward(request, &self.node_name) {
                let announced = overlay
                    .get(*node_id, key, now)
                    .into_iter()
                    .map(|p| p.payload)
                    .find(|payload| !self.is_self(payload));
                let owner = overlay
                    .owner_of(key)
                    .filter(|m| m.id != *node_id)
                    .and_then(|m| m.addr)
                    .filter(|addr| !self.is_self(addr) && announced.as_ref() != Some(addr));
                let mut forwarded = request.clone();
                peering::mark_forwarded(&mut forwarded, &self.node_name);
                for peer in [announced, owner].into_iter().flatten() {
                    attempts.push(Attempt {
                        upstream: Upstream::Peer(peer),
                        request: Cow::Owned(forwarded.clone()),
                    });
                }
            }
        }
        let mut origin_request = Cow::Borrowed(request);
        if peering::has_internal_headers(request) {
            peering::strip_internal_headers(origin_request.to_mut());
        }
        attempts.push(Attempt {
            upstream: Upstream::Origin,
            request: origin_request,
        });
        attempts
    }

    /// Accounts one failed peer attempt — unreachable, error status, or a
    /// payload naming nothing connectable.  The failed fetch is also free
    /// negative evidence for the failure detector: suspicion, refutable
    /// through gossip.
    fn attempt_failed(&self, peer: &str) {
        self.stats.lock().peer_misses += 1;
        if let Some(gossip) = &self.gossip {
            gossip.note_failure(peer);
        }
    }

    /// Accounts the response that ends a miss — a peer's copy or the
    /// origin's answer — and puts it on the path to the cache.
    fn settle(
        &self,
        key: &str,
        method: &Method,
        response: Response,
        from_peer: bool,
        now: u64,
    ) -> Response {
        {
            let mut stats = self.stats.lock();
            if from_peer {
                stats.peer_hits += 1;
            } else {
                stats.origin_fetches += 1;
            }
        }
        self.capture(key, method, response, now)
    }

    /// Hot-entry detection at the consistent-hash owner: after `threshold`
    /// local cache hits for a key this node owns, publish the entry on the
    /// replication bus for the worker to push to the key's successors.
    /// Replication pushes themselves are exempt, so a push warming a
    /// successor never re-triggers replication there.
    fn note_cache_hit(&self, key: &str, request: &Request, now: u64) {
        let Some(replication) = &self.replication else {
            return;
        };
        if peering::is_replication_push(request) {
            return;
        }
        let Some((overlay, node_id)) = &self.overlay else {
            return;
        };
        if overlay.owner_of(key).map(|m| m.id) != Some(*node_id) {
            return;
        }
        let mut hot = replication.hot.lock();
        if hot.len() > 4096 {
            // Bound the tracker; losing counts only delays replication.
            hot.clear();
        }
        let count = hot.entry(key.to_string()).or_insert(0);
        if *count == u32::MAX {
            return;
        }
        *count += 1;
        if *count < replication.threshold {
            return;
        }
        *count = u32::MAX;
        drop(hot);
        let update = Update {
            site: request.site(),
            key: key.to_string(),
            value: request.uri.to_origin().to_string(),
            timestamp: now,
        };
        replication.bus.publish(
            &replication.topic,
            &update.site,
            &replication.publisher,
            &update.encode(),
        );
    }

    /// Puts a fetched response on the path to the cache without ever forcing
    /// it into memory.  A buffered body is stored right away (the historical
    /// path — simulator, tests, script-generated content).  A *streamed*
    /// body is instead teed: chunks flow onward to whoever is relaying them,
    /// a bounded side copy accumulates, and only when the stream completes
    /// cleanly within the cache's entry budget does the copy get stored and
    /// announced.  Oversized or failed streams pass through uncached.
    fn capture(&self, key: &str, method: &Method, mut response: Response, now: u64) -> Response {
        if !response.body.is_stream() {
            self.store_and_announce(key, method, &response, now);
            return response;
        }
        // Don't bother teeing what the cache would refuse anyway — including
        // a body whose declared length already exceeds the entry budget,
        // which would otherwise accumulate a side copy only to discard it.
        let budget = self.cache.capacity_bytes();
        if !method.is_cacheable()
            || !matches!(
                freshness(method, &response, self.heuristic_ttl),
                Freshness::Fresh(_)
            )
            || response
                .body
                .size_hint()
                .is_some_and(|declared| declared > budget as u64)
        {
            return response;
        }
        let head = Response {
            status: response.status,
            version_11: response.version_11,
            headers: response.headers.clone(),
            body: Body::empty(),
        };
        let fetcher = self.clone();
        let key = key.to_string();
        let method = method.clone();
        let body = std::mem::take(&mut response.body);
        response.body = body.tee(budget, move |bytes| {
            let mut full = head;
            // The stored copy is a complete instance: fix the framing
            // metadata the streamed original carried.
            full.headers.remove("Transfer-Encoding");
            full.headers.set("Content-Length", bytes.len().to_string());
            full.body = Body::from_bytes(bytes);
            fetcher.store_and_announce(&key, &method, &full, now);
        });
        response
    }

    fn store_and_announce(&self, key: &str, method: &Method, response: &Response, now: u64) {
        if !self.cache.put(key, method, response, now) {
            return;
        }
        if let Some((overlay, node_id)) = &self.overlay {
            let lifetime = match freshness(method, response, self.heuristic_ttl) {
                Freshness::Fresh(lifetime) => lifetime.as_secs().max(1),
                _ => return,
            };
            // Announce the base URL when the node serves real traffic so
            // peers can fetch the copy over TCP; simulated nodes announce
            // their name and the simulator resolves it.
            let payload = self.public_addr.as_deref().unwrap_or(&self.node_name);
            overlay.put(*node_id, key, payload, now + lifetime);
        }
    }
}

/// Stage loader backed by the node's fetch path and compiled-stage cache,
/// borrowed for one pipeline run.
struct NodeStageLoader<'a> {
    fetcher: &'a ResourceFetcher,
    stage_cache: &'a StageCache,
    programs: &'a ProgramCache,
    hooks: &'a VocabHooks,
    script_ttl: Duration,
}

impl StageLoader for NodeStageLoader<'_> {
    fn load(&self, url: &str, now: u64) -> Option<Arc<CompiledStage>> {
        match self.stage_cache.get(url, now) {
            StageLookup::Hit(stage) => return Some(stage),
            StageLookup::KnownAbsent => return None,
            StageLookup::Miss => {}
        }
        let request = Request::get(url);
        let mut response = self.fetcher.fetch(&request, now);
        // Scripts compile from complete sources; a stream that fails to
        // drain is treated like an absent script until its entry expires.
        let stream_failed = response.body.buffer().is_err();
        let fresh_until = now
            + match freshness(&Method::Get, &response, self.script_ttl) {
                Freshness::Fresh(lifetime) => lifetime.as_secs().max(1),
                _ => self.script_ttl.as_secs().max(1),
            };
        if stream_failed || !response.status.is_success() || response.body.is_empty() {
            self.stage_cache.put_absent(url, fresh_until);
            return None;
        }
        match CompiledStage::compile_with(url, &response.body.to_text(), self.hooks, self.programs)
        {
            Ok(stage) => {
                let stage = Arc::new(stage);
                self.stage_cache.put(url, stage.clone(), fresh_until);
                Some(stage)
            }
            Err(_) => {
                // A broken script is treated like an absent one until its
                // cached copy expires and a (hopefully fixed) copy is fetched.
                self.stage_cache.put_absent(url, fresh_until);
                None
            }
        }
    }
}

/// One Na Kika edge node.
pub struct NaKikaNode {
    config: NodeConfig,
    cache: Arc<ProxyCache>,
    stage_cache: StageCache,
    programs: Arc<ProgramCache>,
    resource: Arc<ResourceManager>,
    runner: PipelineRunner,
    store: Arc<SiteStore>,
    access_log: Arc<AccessLog>,
    overlay: Option<(Arc<Overlay>, NodeId)>,
    stats: Arc<Mutex<NodeStats>>,
    last_control: Mutex<u64>,
    /// Base URL of this node's proxy front-end, announced to the overlay
    /// instead of the bare node name once known.  Set after the server
    /// binds, hence the interior mutability.
    public_addr: Mutex<Option<String>>,
    replication: Option<Arc<ReplicationShared>>,
    gossip: Option<Arc<Membership>>,
    /// `config.local_networks`, shared with every pipeline's `VocabHooks`.
    local_networks: Arc<Vec<Cidr>>,
}

impl NaKikaNode {
    /// Creates a node from its configuration (the builder's job).
    pub(crate) fn new(config: NodeConfig) -> NaKikaNode {
        let cache = Arc::new(if config.cache_shards == 0 {
            ProxyCache::new(config.cache_capacity_bytes, config.heuristic_ttl)
        } else {
            ProxyCache::with_shards(
                config.cache_capacity_bytes,
                config.heuristic_ttl,
                config.cache_shards,
            )
        });
        let resource = Arc::new(ResourceManager::new(config.resource.clone()));
        let store = Arc::new(SiteStore::new(config.hard_state_quota));
        NaKikaNode {
            cache,
            stage_cache: StageCache::new(),
            programs: Arc::new(ProgramCache::new()),
            resource,
            runner: PipelineRunner::default(),
            store,
            access_log: Arc::new(AccessLog::new()),
            overlay: None,
            stats: Arc::new(Mutex::new(NodeStats::default())),
            last_control: Mutex::new(0),
            public_addr: Mutex::new(None),
            replication: None,
            gossip: None,
            local_networks: Arc::new(config.local_networks.clone()),
            config,
        }
    }

    /// Attaches the node to a structured overlay under the given identifier
    /// (already joined by the caller).
    pub(crate) fn attach_overlay(&mut self, overlay: Arc<Overlay>, id: NodeId) {
        self.overlay = Some((overlay, id));
    }

    /// Attaches hot-entry replication state (the builder's job).
    pub(crate) fn attach_replication(&mut self, shared: Arc<ReplicationShared>) {
        self.replication = Some(shared);
    }

    /// The replication state, if hot-entry replication is configured.
    pub(crate) fn replication(&self) -> Option<&Arc<ReplicationShared>> {
        self.replication.as_ref()
    }

    /// Counts one successful hot-entry push (the replication worker's hook).
    pub(crate) fn record_replication_push(&self) {
        self.stats.lock().replication_pushes += 1;
    }

    /// Attaches the gossip membership (the builder's job).  From then on
    /// failed peer fetches feed the failure detector as negative evidence.
    pub(crate) fn attach_gossip(&mut self, membership: Arc<Membership>) {
        self.gossip = Some(membership);
    }

    /// The gossip membership, if dynamic membership is configured.
    pub fn gossip(&self) -> Option<&Arc<Membership>> {
        self.gossip.as_ref()
    }

    /// Counts one owner-aware client redirect (the redirect layer's hook).
    pub(crate) fn record_owner_redirect(&self) {
        self.stats.lock().owner_redirects += 1;
    }

    /// Records the base URL where this node's proxy front-end is reachable
    /// (e.g. `http://10.0.0.3:8080`).  From then on cache announcements to
    /// the overlay carry the URL instead of the bare node name, so peers can
    /// fetch over TCP.  Called after the server binds — ports are usually
    /// assigned then, not at build time.  The caller should also record the
    /// address in the overlay roster (`Overlay::set_addr`).
    pub fn set_public_addr(&self, addr: &str) {
        *self.public_addr.lock() = Some(addr.to_string());
    }

    /// The announced base URL, if [`set_public_addr`](Self::set_public_addr)
    /// was called.
    pub fn public_addr(&self) -> Option<String> {
        self.public_addr.lock().clone()
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The node's configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The node's proxy cache (exposed for statistics and tests).
    pub fn cache(&self) -> &Arc<ProxyCache> {
        &self.cache
    }

    /// The node's resource manager.
    pub fn resource_manager(&self) -> &Arc<ResourceManager> {
        &self.resource
    }

    /// The node's hard-state store.
    pub fn store(&self) -> &Arc<SiteStore> {
        &self.store
    }

    /// The node's access log.
    pub fn access_log(&self) -> &Arc<AccessLog> {
        &self.access_log
    }

    /// Cache statistics snapshot, with the node-level cooperative-caching
    /// counters (`peer_hits`, `peer_misses`) and the compiled-program cache
    /// counters (`script_compiles`, `script_cache_hits`) overlaid so one
    /// call answers "where did my bytes come from" and "did scripts compile
    /// once" — the shards themselves see a peer-answered request as a plain
    /// miss and know nothing about scripts.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.cache.stats();
        let node = self.stats.lock();
        stats.peer_hits = node.peer_hits;
        stats.peer_misses = node.peer_misses;
        stats.owner_redirects = node.owner_redirects;
        drop(node);
        let (compiles, hits) = self.programs.counters();
        stats.script_compiles = compiles;
        stats.script_cache_hits = hits;
        stats
    }

    /// The node's compiled-program cache (exposed for statistics and tests).
    pub fn programs(&self) -> &Arc<ProgramCache> {
        &self.programs
    }

    /// Node statistics snapshot.
    pub fn stats(&self) -> NodeStats {
        *self.stats.lock()
    }

    /// Classifies one upcoming exchange for readiness-driven transports
    /// (see [`DispatchHint`]): [`DispatchHint::Inline`] when the node can
    /// answer `request` at `now_secs` without any origin, peer, or script
    /// I/O — the probes ([`contains_fresh`](ProxyCache::contains_fresh),
    /// [`StageCache::probe`]) mutate nothing — and
    /// [`DispatchHint::MayBlock`] otherwise.
    ///
    /// Scripted nodes used to answer `MayBlock` unconditionally.  With the
    /// bytecode VM a warm scripted pipeline is cheap enough for the event
    /// loop, so the node classifies it precisely instead: `Inline` when
    /// every stage the request would run is already compiled and cached
    /// (or known absent), no matched handler can call the blocking `Fetch`
    /// vocabulary or schedule further stages, and the response itself needs
    /// no fetch (fresh in cache, or an `onRequest` handler unconditionally
    /// generates it).
    ///
    /// The probe is a heuristic, not a lock: an entry can expire or be
    /// evicted between the probe and the call, in which case an `Inline`
    /// call degenerates into a blocking origin fetch on the event loop —
    /// exactly the pre-offload behavior, for that one request.  Transports
    /// pass the same context to both, so probe and lookup at least agree
    /// on the time.
    pub fn dispatch_hint(&self, request: &Request, now_secs: u64) -> DispatchHint {
        if !request.method.is_cacheable() {
            return DispatchHint::MayBlock;
        }
        let mut always_generates = false;
        if self.config.mode == NodeMode::Scripted {
            // Rendering a page runs a fresh script compile per body; keep
            // it off the event loop.
            if pages::is_nkp(request.uri.extension(), None) {
                return DispatchHint::MayBlock;
            }
            let site_stage_url = format!("http://{}/nakika.js", request.site());
            for stage_url in [
                self.config.client_wall_url.as_str(),
                site_stage_url.as_str(),
                self.config.server_wall_url.as_str(),
            ] {
                match self.stage_cache.probe(stage_url, now_secs) {
                    StageLookup::KnownAbsent => {}
                    StageLookup::Miss => return DispatchHint::MayBlock,
                    StageLookup::Hit(stage) => {
                        if let Some(policy) = stage.find_closest_match(request) {
                            if policy.blocking_fetch || !policy.next_stages.is_empty() {
                                return DispatchHint::MayBlock;
                            }
                            if policy.always_generates {
                                // A generated response reverses the pipeline
                                // immediately: later stages never load or
                                // run, so their state is irrelevant (the
                                // server wall typically stays a cache miss
                                // forever on such pipelines).
                                always_generates = true;
                                break;
                            }
                        }
                    }
                }
            }
        }
        let key = cache_key(request);
        if always_generates || self.cache.contains_fresh(&key, now_secs) {
            DispatchHint::Inline
        } else {
            DispatchHint::MayBlock
        }
    }

    /// The fetch path bound to `origin`: what [`process`](Self::process)
    /// executes with blocking I/O and [`relay_plan`](Self::relay_plan)
    /// lowers to wire bytes.  A plain proxy takes no part in the overlay.
    fn fetcher(&self, origin: &Arc<dyn OriginFetch>) -> ResourceFetcher {
        let cooperative = self.config.mode != NodeMode::PlainProxy;
        ResourceFetcher {
            node_name: self.config.name.clone(),
            public_addr: self.public_addr.lock().clone(),
            cache: self.cache.clone(),
            overlay: self.overlay.clone().filter(|_| cooperative),
            origin: origin.clone(),
            heuristic_ttl: self.config.heuristic_ttl,
            stats: self.stats.clone(),
            replication: self.replication.clone().filter(|_| cooperative),
            gossip: self.gossip.clone(),
        }
    }

    /// Records one finished exchange in the site's access log and charges
    /// the bytes it moved to the site.
    fn log_exchange(&self, site: &str, request: &Request, response: &Response, now_secs: u64) {
        self.access_log.record(site, || LogEntry {
            timestamp: now_secs,
            client: request.client_ip.to_string(),
            method: request.method.as_str().to_string(),
            url: request.uri.to_string(),
            status: response.status.as_u16(),
            bytes: response.body.len(),
        });
        self.resource.record(
            site,
            ResourceKind::BytesTransferred,
            (request.body.len() + response.body.len()) as f64,
        );
    }

    /// Plans one cache miss as a socket-to-socket relay (see [`RelayPlan`]):
    /// the same [`attempts`](ResourceFetcher::attempts) the blocking
    /// [`fetch`](ResourceFetcher::fetch) runs, lowered to connect targets
    /// plus serialized request bytes, with the same accounting packaged as
    /// callbacks the transport runs at the matching moments.  Planning
    /// itself mutates nothing, so a transport that declines the plan and
    /// calls [`process`](NaKikaNode::process) instead double-counts nothing.
    ///
    /// `None` whenever the exchange cannot be a plain relay: the origin
    /// path is not raw TCP (`OriginFetch::relay_eligible`), the node runs
    /// scripts, resource control is enabled (admission must see every
    /// exchange), the method is not cacheable, the request carries a body,
    /// or the cache turned warm since the dispatch hint.
    pub(crate) fn relay_plan(
        self: &Arc<Self>,
        request: &Request,
        now_secs: u64,
        origin: &Arc<dyn OriginFetch>,
    ) -> Option<RelayPlan> {
        if !origin.relay_eligible()
            || self.config.mode == NodeMode::Scripted
            || self.resource.is_enabled()
            || !request.method.is_cacheable()
            || !request.body.is_empty()
        {
            return None;
        }
        let key = cache_key(request);
        if self.cache.contains_fresh(&key, now_secs) {
            // Raced warm between the dispatch hint and now; the ordinary
            // call path answers from memory.
            return None;
        }

        let fetcher = Arc::new(self.fetcher(origin));
        let mut attempts = Vec::new();
        // Peers whose payload names nothing to connect to: the blocking
        // executor fails them inside `fetch_peer`, this one when the
        // transport adopts the plan.
        let mut unconnectable = Vec::new();
        for attempt in fetcher.attempts(&key, request, now_secs) {
            let mut outbound = attempt.request.into_owned();
            // Spliced upstream sockets are single-exchange by construction.
            outbound.headers.set("Connection", "close");
            match attempt.upstream {
                Upstream::Peer(peer) => match peering::peer_host_port(&peer) {
                    Some((host, port)) => attempts.push(RelayAttempt {
                        host,
                        port,
                        wire: serialize_request_absolute(&outbound),
                        label: format!("peer {peer}"),
                        fallback_on_error_status: true,
                        on_fail: Some({
                            let fetcher = fetcher.clone();
                            Arc::new(move || fetcher.attempt_failed(&peer))
                        }),
                    }),
                    None => unconnectable.push(peer),
                },
                Upstream::Origin => {
                    outbound.uri = outbound.uri.to_origin();
                    attempts.push(RelayAttempt {
                        host: outbound.uri.host.clone(),
                        port: outbound.uri.port,
                        label: outbound.uri.to_string(),
                        wire: serialize_request(&outbound),
                        fallback_on_error_status: false,
                        on_fail: None,
                    });
                }
            }
        }
        let origin_attempt = attempts.len() - 1;

        let on_start = {
            let (node, fetcher, key) = (self.clone(), fetcher.clone(), key.clone());
            Arc::new(move || {
                node.stats.lock().requests += 1;
                // The splice replaces the ordinary fetch, whose lookup
                // would have recorded this miss.
                node.cache.record_miss(&key);
                for peer in &unconnectable {
                    fetcher.attempt_failed(peer);
                }
            })
        };
        let finish: Arc<dyn Fn(Response, usize) -> Response + Send + Sync> = {
            let (node, request) = (self.clone(), request.clone());
            Arc::new(move |response, attempt| {
                let from_peer = attempt < origin_attempt;
                let response = fetcher.settle(&key, &request.method, response, from_peer, now_secs);
                node.log_exchange(&request.site(), &request, &response, now_secs);
                response
            })
        };
        // Every upstream refused: the client gets what the blocking executor
        // gets from an unreachable origin — its 502, settled and logged.
        let fail = {
            let (finish, url) = (finish.clone(), request.uri.to_string());
            Arc::new(move |reason: &str| {
                let error = NakikaError::Upstream {
                    url: url.clone(),
                    reason: reason.to_string(),
                };
                finish(error.to_response(), origin_attempt)
            })
        };

        Some(RelayPlan {
            attempts,
            on_start,
            finish,
            fail,
        })
    }

    /// Mediates one HTTP exchange at time `now_secs`, fetching whatever it
    /// needs through `origin`.  Admission rejections surface as typed
    /// [`NakikaError`]s; the transport at the outer edge decides their
    /// status mapping.
    pub(crate) fn process(
        &self,
        request: Request,
        now_secs: u64,
        origin: &Arc<dyn OriginFetch>,
    ) -> Result<Response, NakikaError> {
        self.stats.lock().requests += 1;
        self.maybe_run_control(now_secs);
        let site = request.site();

        // Admission control happens before any resources are expended.
        match self.resource.admit(&site) {
            Admission::Accept => {}
            Admission::Throttle => {
                self.stats.lock().throttled += 1;
                return Err(NakikaError::Throttled { site });
            }
            Admission::Terminate => {
                self.stats.lock().terminated += 1;
                return Err(NakikaError::Terminated { site });
            }
        }

        let fetcher = self.fetcher(origin);
        let response = match self.config.mode {
            NodeMode::PlainProxy | NodeMode::ProxyWithDht => fetcher.fetch(&request, now_secs),
            NodeMode::Scripted => self.run_pipeline(request.clone(), now_secs, fetcher, &site),
        };
        self.log_exchange(&site, &request, &response, now_secs);
        Ok(response)
    }

    fn run_pipeline(
        &self,
        request: Request,
        now_secs: u64,
        fetcher: ResourceFetcher,
        site: &str,
    ) -> Response {
        let resource = self.resource.clone();
        let fetcher = Arc::new(fetcher);
        // Scripts operate on complete instances (paper §3.1), so the
        // pipeline's view of every fetch is buffered; a stream that fails
        // mid-body becomes an upstream error response instead of a
        // silently truncated instance.  The tee in `capture` still fires
        // while draining, so buffered fetches populate the cache as usual.
        let buffered_fetch: FetchFn = {
            let fetcher = fetcher.clone();
            Arc::new(move |req: &Request| {
                let mut response = fetcher.fetch(req, now_secs);
                if let Err(e) = response.body.buffer() {
                    return NakikaError::Upstream {
                        url: req.uri.to_string(),
                        reason: format!("body stream failed: {e}"),
                    }
                    .to_response();
                }
                response
            })
        };
        let hooks = VocabHooks {
            fetch: Some(buffered_fetch.clone()),
            store: Some(self.store.clone()),
            access_log: Some(self.access_log.clone()),
            cache: Some(self.cache.clone()),
            local_networks: self.local_networks.clone(),
            congestion: Some(Arc::new(move |name: &str| {
                ResourceKind::parse(name)
                    .map(|kind| resource.congestion_level(kind))
                    .unwrap_or(0.0)
            })),
        };

        let loader = NodeStageLoader {
            fetcher: &fetcher,
            stage_cache: &self.stage_cache,
            programs: &self.programs,
            hooks: &hooks,
            script_ttl: self.config.script_ttl,
        };

        // Registered while the pipeline runs, and not a moment longer: the
        // guard takes the meter off the site's list on every way out.
        let meter = ResourceMeter::new();
        let _registered = self.resource.register_meter(site, meter.clone());

        let site_stage_url = format!("http://{site}/nakika.js");
        let outcome: PipelineOutcome = self.runner.execute(
            request,
            now_secs,
            &loader,
            &site_stage_url,
            &self.config.client_wall_url,
            &self.config.server_wall_url,
            &*buffered_fetch,
            &hooks,
            meter.clone(),
        );

        // Charge the pipeline's consumption to the site.
        self.resource
            .record(site, ResourceKind::Cpu, meter.steps() as f64);
        self.resource
            .record(site, ResourceKind::Memory, meter.allocated() as f64);
        self.resource.record(
            site,
            ResourceKind::Bandwidth,
            outcome.response.body.len() as f64,
        );
        self.resource.record(
            site,
            ResourceKind::RunningTime,
            1.0 + meter.steps() as f64 / 100_000.0,
        );

        {
            let mut stats = self.stats.lock();
            if outcome.generated_by_script {
                stats.script_generated += 1;
            }
            stats.script_errors += outcome.script_errors.len() as u64;
        }

        let mut response = outcome.response;
        // Na Kika Pages: render `.nkp` / `text/nkp` responses on the edge.
        let is_page = pages::is_nkp(
            outcome.final_request.uri.extension(),
            response.headers.content_type(),
        );
        if is_page && response.status.is_success() {
            let compiled = pages::compile_page(&response.body.to_text());
            match run_page(
                &compiled,
                &self.programs,
                &hooks,
                &outcome.final_request,
                now_secs,
            ) {
                Ok(html) => {
                    response.headers.set("Content-Type", "text/html");
                    response.set_body(html);
                    self.stats.lock().pages_rendered += 1;
                }
                Err(_) => {
                    self.stats.lock().script_errors += 1;
                }
            }
        }
        response
    }

    fn maybe_run_control(&self, now_secs: u64) {
        if !self.resource.is_enabled() {
            return;
        }
        let mut last = self.last_control.lock();
        if now_secs >= *last + self.config.control_period_secs {
            *last = now_secs;
            drop(last);
            self.resource.control();
        }
    }
}

/// Runs a compiled Na Kika Page in a fresh sandboxed context with the node's
/// vocabularies bound to the current exchange.  The page's generated script
/// goes through the node's program cache, so a hot page parses and lowers to
/// bytecode once and every later render is a cache hit.
fn run_page(
    compiled: &str,
    programs: &ProgramCache,
    hooks: &VocabHooks,
    request: &Request,
    now_secs: u64,
) -> Result<String, nakika_script::ScriptError> {
    let ctx = nakika_script::Context::new();
    nakika_script::stdlib::install(&ctx);
    let exchange = crate::vocab::new_exchange(request.clone(), now_secs);
    crate::vocab::install(&ctx, &exchange, hooks);
    let script = programs.get_or_compile(compiled)?;
    Ok(nakika_script::Vm::new(&ctx)
        .run(&script.compiled)?
        .to_display_string())
}

/// A convenience [`OriginFetch`] built from a closure — used by tests,
/// examples and the benchmark harness.
pub struct FnOrigin<F>(pub F);

impl<F> OriginFetch for FnOrigin<F>
where
    F: Fn(&Request) -> Response + Send + Sync,
{
    fn fetch_origin(&self, request: &Request) -> Response {
        (self.0)(request)
    }
}

/// Wraps a closure into an `Arc<dyn OriginFetch>`.
pub fn origin_from_fn<F>(f: F) -> Arc<dyn OriginFetch>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    Arc::new(FnOrigin(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NodeBuilder;
    use crate::scripts;
    use crate::service::{HttpService, RequestCtx};
    use nakika_http::StatusCode;
    use nakika_overlay::{key_for, Location};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// An origin that serves a small static site plus Na Kika scripts, and
    /// counts how many times it was contacted.
    struct TestOrigin {
        hits: AtomicU64,
        site_script: Option<String>,
    }

    impl TestOrigin {
        fn new(site_script: Option<&str>) -> Arc<TestOrigin> {
            Arc::new(TestOrigin {
                hits: AtomicU64::new(0),
                site_script: site_script.map(str::to_string),
            })
        }
        fn hits(&self) -> u64 {
            self.hits.load(Ordering::SeqCst)
        }
    }

    impl OriginFetch for TestOrigin {
        fn fetch_origin(&self, request: &Request) -> Response {
            self.hits.fetch_add(1, Ordering::SeqCst);
            let path = request.uri.path.as_str();
            if path.ends_with("nakika.js") {
                return match &self.site_script {
                    Some(src) => Response::ok("application/javascript", src.as_str())
                        .with_header("Cache-Control", "max-age=300"),
                    None => Response::error(StatusCode::NOT_FOUND),
                };
            }
            if path.ends_with("clientwall.js") || path.ends_with("serverwall.js") {
                return Response::ok("application/javascript", scripts::EMPTY_WALL)
                    .with_header("Cache-Control", "max-age=300");
            }
            if path.ends_with(".nkp") {
                return Response::ok("text/nkp", "<p><?nkp= 6 * 7 ?></p>")
                    .with_header("Cache-Control", "no-store");
            }
            Response::ok("text/html", format!("<html>origin body for {path}</html>"))
                .with_header("Cache-Control", "max-age=120")
        }
    }

    #[test]
    fn plain_proxy_caches_and_serves() {
        let origin = TestOrigin::new(None);
        let edge = NodeBuilder::plain_proxy("edge-1")
            .origin(origin.clone())
            .build();
        let r1 = edge
            .call(Request::get("http://www.google.com/"), &RequestCtx::at(10))
            .unwrap();
        assert_eq!(r1.status, StatusCode::OK);
        let r2 = edge
            .call(Request::get("http://www.google.com/"), &RequestCtx::at(20))
            .unwrap();
        assert_eq!(r2.body.to_text(), r1.body.to_text());
        assert_eq!(origin.hits(), 1, "second access served from cache");
        let stats = edge.node().stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.origin_fetches, 1);
    }

    #[test]
    fn only_sites_that_registered_a_post_url_are_logged() {
        let edge = NodeBuilder::plain_proxy("edge-1")
            .origin(TestOrigin::new(None))
            .build();
        let log = edge.node().access_log();
        log.configure_site("logged.example", Some("http://logged.example/sink"));
        for i in 0..100 {
            for site in ["logged.example", "silent.example"] {
                let request = Request::get(&format!("http://{site}/{i}"));
                edge.call(request, &RequestCtx::at(10)).unwrap();
            }
        }
        assert_eq!(log.pending("logged.example"), 100);
        assert_eq!(
            log.pending("silent.example"),
            0,
            "entries no flush would post are never buffered"
        );
    }

    #[test]
    fn scripted_node_runs_walls_and_site_stage() {
        let site_script = r#"
            p = new Policy();
            p.url = ["site.example"];
            p.onResponse = function() { Response.setHeader('X-Edge', 'nakika'); };
            p.register();
        "#;
        let origin = TestOrigin::new(Some(site_script));
        let edge = NodeBuilder::scripted("edge-1")
            .origin(origin.clone())
            .build();
        let resp = edge
            .call(
                Request::get("http://site.example/page"),
                &RequestCtx::at(10),
            )
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("x-edge"), Some("nakika"));
        // Scripts (two walls + nakika.js) plus the page itself were fetched.
        assert_eq!(origin.hits(), 4);
        // A second request reuses the cached compiled stages and cached page.
        edge.call(
            Request::get("http://site.example/page"),
            &RequestCtx::at(20),
        )
        .unwrap();
        assert_eq!(origin.hits(), 4);
    }

    #[test]
    fn missing_site_script_is_negatively_cached() {
        let origin = TestOrigin::new(None);
        let edge = NodeBuilder::scripted("edge-1")
            .origin(origin.clone())
            .build();
        edge.call(Request::get("http://plain.example/a"), &RequestCtx::at(10))
            .unwrap();
        let hits_after_first = origin.hits();
        edge.call(Request::get("http://plain.example/b"), &RequestCtx::at(20))
            .unwrap();
        // Only the new page is fetched — not nakika.js again.
        assert_eq!(origin.hits(), hits_after_first + 1);
    }

    #[test]
    fn digital_library_wall_blocks_outside_clients() {
        // Serve Figure 5 as the client wall.
        struct WallOrigin;
        impl OriginFetch for WallOrigin {
            fn fetch_origin(&self, request: &Request) -> Response {
                if request.uri.path.ends_with("clientwall.js") {
                    Response::ok("application/javascript", scripts::DIGITAL_LIBRARY_POLICY)
                        .with_header("Cache-Control", "max-age=300")
                } else if request.uri.path.ends_with(".js") {
                    Response::ok("application/javascript", scripts::EMPTY_WALL)
                        .with_header("Cache-Control", "max-age=300")
                } else {
                    Response::ok("text/html", "the full article")
                }
            }
        }
        let edge = NodeBuilder::scripted("edge-1")
            .local_network(Cidr::parse("128.122.0.0/16").unwrap())
            .origin(Arc::new(WallOrigin))
            .build();
        let outside = Request::get("http://bmj.bmjjournals.com/cgi/reprint/1")
            .with_client_ip("203.0.113.5".parse().unwrap());
        let resp = edge.call(outside, &RequestCtx::at(10)).unwrap();
        assert_eq!(resp.status, StatusCode::UNAUTHORIZED);
        let inside = Request::get("http://bmj.bmjjournals.com/cgi/reprint/1")
            .with_client_ip("128.122.1.1".parse().unwrap());
        let resp = edge.call(inside, &RequestCtx::at(20)).unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body.to_text(), "the full article");
    }

    #[test]
    fn warm_no_fetch_scripted_pipeline_dispatches_inline() {
        // A site stage whose onRequest always generates the response and
        // whose handlers never mention Fetch: once the stages are compiled
        // and cached, the whole pipeline is event-loop safe.
        let site_script = r#"
            p = new Policy();
            p.url = ["site.example"];
            p.onRequest = function() { Request.respond('text/html', 'generated on the edge'); };
            p.register();
        "#;
        let origin = TestOrigin::new(Some(site_script));
        let edge = NodeBuilder::scripted("edge-1")
            .origin(origin.clone())
            .build();
        let request = Request::get("http://site.example/page");
        // Cold: the stage scripts are not compiled yet.
        assert_eq!(
            edge.node().dispatch_hint(&request, 10),
            DispatchHint::MayBlock
        );
        let resp = edge.call(request.clone(), &RequestCtx::at(10)).unwrap();
        assert_eq!(resp.body.to_text(), "generated on the edge");
        // Warm: every stage is cached, no handler can fetch, and the
        // matched onRequest unconditionally responds — Inline, even though
        // the generated page itself is not in the proxy cache.
        assert_eq!(
            edge.node().dispatch_hint(&request, 20),
            DispatchHint::Inline
        );
        // POST is not cacheable and stays off the event loop.
        let post = Request::new(Method::Post, "http://site.example/page".parse().unwrap());
        assert_eq!(edge.node().dispatch_hint(&post, 20), DispatchHint::MayBlock);
    }

    #[test]
    fn fetch_capable_handlers_keep_the_pipeline_off_the_event_loop() {
        let site_script = r#"
            p = new Policy();
            p.url = ["site.example"];
            p.onResponse = function() {
                var extra = Fetch.get('http://other.example/banner');
                Response.setHeader('X-Banner-Status', '' + extra.status);
            };
            p.register();
        "#;
        let origin = TestOrigin::new(Some(site_script));
        let edge = NodeBuilder::scripted("edge-1")
            .origin(origin.clone())
            .build();
        let request = Request::get("http://site.example/page");
        edge.call(request.clone(), &RequestCtx::at(10)).unwrap();
        // The page is fresh in cache, but the matched handler mentions
        // Fetch, so the pipeline may block on an embedded fetch.
        assert!(edge.node().cache().contains_fresh(&cache_key(&request), 20));
        assert_eq!(
            edge.node().dispatch_hint(&request, 20),
            DispatchHint::MayBlock
        );
    }

    #[test]
    fn scripts_compile_once_and_cache_stats_expose_the_counters() {
        let site_script = r#"
            p = new Policy();
            p.url = ["site.example"];
            p.onResponse = function() { Response.setHeader('X-Edge', 'nakika'); };
            p.register();
        "#;
        let origin = TestOrigin::new(Some(site_script));
        let edge = NodeBuilder::scripted("edge-1")
            .origin(origin.clone())
            .build();
        edge.call(
            Request::get("http://site.example/page"),
            &RequestCtx::at(10),
        )
        .unwrap();
        // Three stage loads, but the two walls share one source: two
        // compiles, one program-cache hit.
        let stats = edge.node().cache_stats();
        assert_eq!(stats.script_compiles, 2);
        assert_eq!(stats.script_cache_hits, 1);
        // A page renders through the same cache: one compile on the first
        // render, a hit on the second (its `no-store` body is refetched,
        // but the generated script text is identical).
        for t in [20, 30] {
            edge.call(
                Request::get("http://site.example/hello.nkp"),
                &RequestCtx::at(t),
            )
            .unwrap();
        }
        let stats = edge.node().cache_stats();
        assert_eq!(stats.script_compiles, 3);
        assert_eq!(stats.script_cache_hits, 2);
    }

    #[test]
    fn nkp_pages_are_rendered_on_the_edge() {
        let origin = TestOrigin::new(None);
        let edge = NodeBuilder::scripted("edge-1").origin(origin).build();
        let resp = edge
            .call(
                Request::get("http://site.example/hello.nkp"),
                &RequestCtx::at(10),
            )
            .unwrap();
        assert_eq!(resp.body.to_text(), "<p>42</p>");
        assert_eq!(resp.headers.content_type(), Some("text/html"));
        assert_eq!(edge.node().stats().pages_rendered, 1);
    }

    #[test]
    fn cooperative_caching_avoids_origin_when_a_peer_has_a_copy() {
        let overlay = Arc::new(Overlay::with_defaults());
        let id_a = key_for("edge-a");
        let id_b = key_for("edge-b");
        overlay.join(id_a, Location::new(0.0, 0.0));
        overlay.join(id_b, Location::new(1.0, 0.0));

        let origin = TestOrigin::new(None);
        let node_a = NodeBuilder::proxy_with_dht("edge-a")
            .overlay(overlay.clone(), id_a)
            .origin(origin.clone())
            .build();
        // Node A pulls the page from the origin and announces it.
        node_a
            .call(
                Request::get("http://shared.example/big"),
                &RequestCtx::at(10),
            )
            .unwrap();
        assert_eq!(origin.hits(), 1);

        // Node B finds A's announcement and fetches from its peer instead.
        struct PeerAwareOrigin {
            inner: Arc<TestOrigin>,
            peer_fetches: AtomicU64,
        }
        impl OriginFetch for PeerAwareOrigin {
            fn fetch_origin(&self, request: &Request) -> Response {
                self.inner.fetch_origin(request)
            }
            fn fetch_peer(&self, _peer: &str, request: &Request) -> Result<Response, NakikaError> {
                self.peer_fetches.fetch_add(1, Ordering::SeqCst);
                Ok(
                    Response::ok("text/html", format!("peer copy of {}", request.uri.path))
                        .with_header("Cache-Control", "max-age=120"),
                )
            }
        }
        let peer_origin = Arc::new(PeerAwareOrigin {
            inner: origin.clone(),
            peer_fetches: AtomicU64::new(0),
        });
        let node_b = NodeBuilder::proxy_with_dht("edge-b")
            .overlay(overlay.clone(), id_b)
            .origin(peer_origin.clone())
            .build();
        let resp = node_b
            .call(
                Request::get("http://shared.example/big"),
                &RequestCtx::at(20),
            )
            .unwrap();
        assert!(resp.body.to_text().contains("peer copy"));
        assert_eq!(peer_origin.peer_fetches.load(Ordering::SeqCst), 1);
        assert_eq!(origin.hits(), 1, "origin contacted only once in total");
        assert_eq!(node_b.node().stats().peer_hits, 1);
    }

    /// A test origin whose peer path is scripted: records every peer fetch
    /// and answers with a canned result.
    struct ScriptedPeerOrigin {
        origin_hits: AtomicU64,
        peer_calls: Mutex<Vec<(String, Request)>>,
        peer_result: Box<dyn Fn() -> Result<Response, NakikaError> + Send + Sync>,
    }

    impl ScriptedPeerOrigin {
        fn new(
            peer_result: impl Fn() -> Result<Response, NakikaError> + Send + Sync + 'static,
        ) -> Arc<ScriptedPeerOrigin> {
            Arc::new(ScriptedPeerOrigin {
                origin_hits: AtomicU64::new(0),
                peer_calls: Mutex::new(Vec::new()),
                peer_result: Box::new(peer_result),
            })
        }
    }

    impl OriginFetch for ScriptedPeerOrigin {
        fn fetch_origin(&self, _request: &Request) -> Response {
            self.origin_hits.fetch_add(1, Ordering::SeqCst);
            Response::ok("text/html", "origin copy").with_header("Cache-Control", "max-age=60")
        }
        fn fetch_peer(&self, peer: &str, request: &Request) -> Result<Response, NakikaError> {
            self.peer_calls
                .lock()
                .push((peer.to_string(), request.clone()));
            (self.peer_result)()
        }
    }

    /// An overlay where `owner_id` (XOR distance 0 to the request's cache
    /// key) owns the key at `owner_addr` and the local node sits at the far
    /// end of the id space.
    fn owner_overlay(request: &Request, owner_addr: &str) -> (Arc<Overlay>, NodeId) {
        let overlay = Arc::new(Overlay::with_defaults());
        let key = cache_key(request);
        let owner_id = key_for(&key);
        let self_id = NodeId(owner_id.0 ^ u64::MAX);
        overlay.join_with_addr(owner_id, Location::new(0.0, 0.0), owner_addr);
        overlay.join(self_id, Location::new(0.0, 0.0));
        (overlay, self_id)
    }

    #[test]
    fn cache_miss_routes_to_the_consistent_hash_owner_peer() {
        let request = Request::get("http://owned.example/object");
        let (overlay, self_id) = owner_overlay(&request, "http://127.0.0.1:9999");
        let origin = ScriptedPeerOrigin::new(|| {
            Ok(Response::ok("text/html", "owner copy").with_header("Cache-Control", "max-age=60"))
        });
        let node = NodeBuilder::proxy_with_dht("edge-self")
            .overlay(overlay, self_id)
            .origin(origin.clone())
            .build();
        let resp = node.call(request.clone(), &RequestCtx::at(10)).unwrap();
        assert_eq!(resp.body.to_text(), "owner copy");
        assert_eq!(origin.origin_hits.load(Ordering::SeqCst), 0);
        let calls = origin.peer_calls.lock();
        assert_eq!(calls.len(), 1);
        let (peer, forwarded) = &calls[0];
        assert_eq!(peer, "http://127.0.0.1:9999");
        // The forwarded request carries the loop-prevention headers.
        assert_eq!(forwarded.headers.get(peering::PEER_HOP_HEADER), Some("1"));
        assert!(peering::via_contains(forwarded, "edge-self"));
        drop(calls);
        let stats = node.node().stats();
        assert_eq!(stats.peer_hits, 1);
        assert_eq!(stats.peer_misses, 0);
        // The peer copy is now cached locally; the next request stays local.
        node.call(request, &RequestCtx::at(20)).unwrap();
        assert_eq!(origin.peer_calls.lock().len(), 1);
        let cache = node.node().cache_stats();
        assert_eq!(cache.peer_hits, 1, "exported through cache_stats too");
    }

    #[test]
    fn dead_peer_falls_back_to_origin_and_is_counted() {
        let request = Request::get("http://owned.example/object");
        let (overlay, self_id) = owner_overlay(&request, "http://127.0.0.1:1");
        let origin = ScriptedPeerOrigin::new(|| {
            Err(NakikaError::Upstream {
                url: "http://owned.example/object".to_string(),
                reason: "peer http://127.0.0.1:1: connection refused".to_string(),
            })
        });
        let node = NodeBuilder::proxy_with_dht("edge-self")
            .overlay(overlay, self_id)
            .origin(origin.clone())
            .build();
        let resp = node.call(request, &RequestCtx::at(10)).unwrap();
        assert_eq!(resp.body.to_text(), "origin copy", "origin answered");
        assert_eq!(origin.origin_hits.load(Ordering::SeqCst), 1);
        let stats = node.node().stats();
        assert_eq!(stats.peer_misses, 1, "the failed peer fetch is visible");
        assert_eq!(stats.origin_fetches, 1);
        assert_eq!(node.node().cache_stats().peer_misses, 1);
    }

    #[test]
    fn hop_budget_and_via_trail_stop_routing_loops() {
        let request = Request::get("http://owned.example/object");
        let (overlay, self_id) = owner_overlay(&request, "http://127.0.0.1:9999");
        let origin = ScriptedPeerOrigin::new(|| panic!("peer must not be consulted"));
        let node = NodeBuilder::proxy_with_dht("edge-self")
            .overlay(overlay, self_id)
            .origin(origin.clone())
            .build();
        // A request that has exhausted its hop budget goes straight to the
        // origin...
        let mut exhausted = request.clone();
        for hop in ["edge-x", "edge-y"] {
            peering::mark_forwarded(&mut exhausted, hop);
        }
        let resp = node.call(exhausted, &RequestCtx::at(10)).unwrap();
        assert_eq!(resp.body.to_text(), "origin copy");
        // ...and so does one that already passed through this node, even
        // with hops to spare.
        let node2 = {
            let request = Request::get("http://owned.example/other");
            let (overlay, self_id) = owner_overlay(&request, "http://127.0.0.1:9999");
            NodeBuilder::proxy_with_dht("edge-self")
                .overlay(overlay, self_id)
                .origin(origin.clone())
                .build()
        };
        let mut revisit = Request::get("http://owned.example/other");
        peering::mark_forwarded(&mut revisit, "edge-self");
        let resp = node2.call(revisit, &RequestCtx::at(10)).unwrap();
        assert_eq!(resp.body.to_text(), "origin copy");
        assert_eq!(origin.origin_hits.load(Ordering::SeqCst), 2);
    }

    /// The upstreams of the executor-parity test as a wire-level fiction:
    /// which `host:port` endpoints answer, and with what status.  Both
    /// executors ask it — the blocking one through [`OriginFetch`] (it
    /// reports itself relay-eligible and rejects malformed peer payloads
    /// before connecting, as `TcpOrigin` does), the splice one attempt by
    /// attempt — and it records what each upstream got to see.
    struct WireWorld {
        alive: &'static [(&'static str, u16)],
        seen: Mutex<Vec<Seen>>,
    }

    /// One upstream-visible request: the `host:port` it went to and its
    /// headers, lower-cased and sorted.
    type Seen = (String, Vec<(String, String)>);

    impl WireWorld {
        /// One exchange with `host:port`: `None` when nothing listens there.
        fn exchange(&self, host: &str, port: u16, request: &Request) -> Option<Response> {
            let target = format!("{host}:{port}");
            let mut headers: Vec<(String, String)> = request
                .headers
                .iter()
                .filter(|(name, _)| {
                    // Connection management is each executor's own business.
                    !name.eq_ignore_ascii_case("connection") && !name.eq_ignore_ascii_case("host")
                })
                .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
                .collect();
            headers.sort();
            self.seen.lock().push((target.clone(), headers));
            let (_, status) = self.alive.iter().find(|(addr, _)| *addr == target)?;
            let mut response = Response::ok("text/plain", format!("copy from {target}"))
                .with_header("Cache-Control", "max-age=60");
            response.status = StatusCode::new(*status).unwrap();
            Some(response)
        }

        fn unreachable(request: &Request) -> NakikaError {
            NakikaError::Upstream {
                url: request.uri.to_string(),
                reason: "connect failed".to_string(),
            }
        }
    }

    impl OriginFetch for WireWorld {
        fn relay_eligible(&self) -> bool {
            true
        }
        fn fetch_origin(&self, request: &Request) -> Response {
            self.exchange(&request.uri.host, request.uri.port, request)
                .unwrap_or_else(|| WireWorld::unreachable(request).to_response())
        }
        fn fetch_peer(&self, peer: &str, request: &Request) -> Result<Response, NakikaError> {
            peering::peer_host_port(peer)
                .and_then(|(host, port)| self.exchange(&host, port, request))
                .ok_or_else(|| WireWorld::unreachable(request))
        }
    }

    /// The splice executor in miniature: what the reactor does with a plan,
    /// minus the sockets.
    fn run_plan(world: &WireWorld, plan: RelayPlan) -> Response {
        (plan.on_start)();
        for (index, attempt) in plan.attempts.iter().enumerate() {
            let request = match nakika_http::parse_request(&attempt.wire) {
                Ok(nakika_http::ParseOutcome::Complete { message, .. }) => message,
                other => panic!("attempt {index} is not a request: {other:?}"),
            };
            match world.exchange(&attempt.host, attempt.port, &request) {
                Some(response)
                    if response.status.is_success() || !attempt.fallback_on_error_status =>
                {
                    return (plan.finish)(response, index);
                }
                _ => {
                    if let Some(on_fail) = &attempt.on_fail {
                        on_fail();
                    }
                }
            }
        }
        (plan.fail)("connect failed")
    }

    /// Everything one miss leaves behind that an operator could observe.
    #[derive(Debug, PartialEq)]
    struct Observed {
        response: (u16, String),
        stats: NodeStats,
        cache_stats: CacheStats,
        cached: Option<(u16, String)>,
        access_log: Vec<(String, String)>,
        upstreams_saw: Vec<Seen>,
    }

    #[test]
    fn both_executors_run_one_miss_identically() {
        const ORIGIN: &str = "10.9.9.9:80";
        const PEER: &str = "10.0.0.7:4001";
        const OWNER: &str = "10.0.0.8:4001";
        struct Row {
            name: &'static str,
            /// Payload a third node announced for the key in the DHT.
            announced: Option<&'static str>,
            /// Address of the key's consistent-hash owner.
            owner: Option<&'static str>,
            /// Internal headers the request arrives with.
            arrives_with: fn(&mut Request),
            /// Which endpoints answer, and with what status.
            alive: &'static [(&'static str, u16)],
            /// Expected (peer_hits, peer_misses, origin_fetches).
            counts: (u64, u64, u64),
        }
        let plain: fn(&mut Request) = |_| {};
        let rows = [
            Row {
                name: "announced-peer hit",
                announced: Some("http://10.0.0.7:4001"),
                owner: None,
                arrives_with: plain,
                alive: &[(PEER, 200), (ORIGIN, 200)],
                counts: (1, 0, 0),
            },
            Row {
                name: "owner hit",
                announced: None,
                owner: Some("http://10.0.0.8:4001"),
                arrives_with: plain,
                alive: &[(OWNER, 200), (ORIGIN, 200)],
                counts: (1, 0, 0),
            },
            Row {
                name: "dead peer, then the owner",
                announced: Some("http://10.0.0.7:4001"),
                owner: Some("http://10.0.0.8:4001"),
                arrives_with: plain,
                alive: &[(OWNER, 200), (ORIGIN, 200)],
                counts: (1, 1, 0),
            },
            Row {
                name: "dead peer, then the origin",
                announced: None,
                owner: Some("http://10.0.0.8:4001"),
                arrives_with: plain,
                alive: &[(ORIGIN, 200)],
                counts: (0, 1, 1),
            },
            Row {
                name: "error-status peer, then the origin",
                announced: None,
                owner: Some("http://10.0.0.8:4001"),
                arrives_with: plain,
                alive: &[(OWNER, 503), (ORIGIN, 200)],
                counts: (0, 1, 1),
            },
            Row {
                name: "malformed peer payloads",
                announced: Some("http://h:1/x"),
                owner: Some("http://h:notaport"),
                arrives_with: plain,
                alive: &[(ORIGIN, 200)],
                counts: (0, 2, 1),
            },
            Row {
                name: "hop budget spent",
                announced: None,
                owner: Some("http://10.0.0.8:4001"),
                arrives_with: |request| {
                    peering::mark_forwarded(request, "edge-x");
                    peering::mark_forwarded(request, "edge-y");
                },
                alive: &[(OWNER, 200), (ORIGIN, 200)],
                counts: (0, 0, 1),
            },
            Row {
                name: "own name in the Via trail",
                announced: None,
                owner: Some("http://10.0.0.8:4001"),
                arrives_with: |request| peering::mark_forwarded(request, "edge-self"),
                alive: &[(OWNER, 200), (ORIGIN, 200)],
                counts: (0, 0, 1),
            },
            Row {
                name: "internal headers present",
                announced: None,
                owner: Some("http://10.0.0.8:4001"),
                arrives_with: |request| {
                    peering::mark_forwarded(request, "edge-x");
                    request.headers.set(peering::REPLICATE_HEADER, "1");
                },
                alive: &[(ORIGIN, 404)],
                counts: (0, 1, 1),
            },
            Row {
                name: "every attempt refused",
                announced: None,
                owner: Some("http://10.0.0.8:4001"),
                arrives_with: plain,
                alive: &[],
                counts: (0, 1, 1),
            },
        ];

        let observe = |row: &Row, spliced: bool| -> Observed {
            let mut request =
                Request::get("http://10.9.9.9/object").with_header("Accept", "text/plain");
            (row.arrives_with)(&mut request);
            let key = cache_key(&request);
            // The owner sits at XOR distance 0 to the key, this node at the
            // far end of the id space, the announcing node in between.
            let owner_id = key_for(&key);
            let self_id = NodeId(owner_id.0 ^ u64::MAX);
            let announcer_id = NodeId(owner_id.0 ^ (u64::MAX >> 1));
            let overlay = Arc::new(Overlay::with_defaults());
            overlay.join(self_id, Location::new(0.0, 0.0));
            if let Some(addr) = row.owner {
                overlay.join_with_addr(owner_id, Location::new(0.0, 0.0), addr);
            }
            if let Some(payload) = row.announced {
                overlay.join(announcer_id, Location::new(0.0, 0.0));
                overlay.put(announcer_id, &key, payload, 1_000);
            }
            let world = Arc::new(WireWorld {
                alive: row.alive,
                seen: Mutex::new(Vec::new()),
            });
            let edge = NodeBuilder::proxy_with_dht("edge-self")
                .overlay(overlay, self_id)
                .origin(world.clone())
                .build();
            edge.node()
                .access_log()
                .configure_site(&request.site(), Some("http://logs.example/post"));

            let ctx = RequestCtx::at(10);
            let mut response = if spliced {
                let plan = edge.relay_plan(&request, &ctx).expect("a relayable miss");
                run_plan(&world, plan)
            } else {
                edge.call(request.clone(), &ctx).unwrap()
            };
            response.body.buffer().unwrap();
            let snapshot = |r: Response| (r.status.as_u16(), r.body.to_text());
            let stats = edge.node().stats();
            let cache_stats = edge.node().cache_stats();
            let upstreams_saw = world.seen.lock().clone();
            Observed {
                response: snapshot(response),
                stats,
                cache_stats,
                cached: edge.node().cache().get(&key, 11).map(snapshot),
                access_log: edge.node().access_log().flush(),
                upstreams_saw,
            }
        };

        for row in &rows {
            let blocking = observe(row, false);
            let spliced = observe(row, true);
            assert_eq!(blocking, spliced, "{}", row.name);
            let stats = blocking.stats;
            assert_eq!(
                (stats.peer_hits, stats.peer_misses, stats.origin_fetches),
                row.counts,
                "{}",
                row.name
            );
            assert_eq!(stats.requests, 1, "{}", row.name);
            assert_eq!(blocking.access_log.len(), 1, "{}", row.name);
            for (target, headers) in &blocking.upstreams_saw {
                let internal = headers
                    .iter()
                    .any(|(name, _)| name.starts_with("x-nakika-"));
                assert_eq!(internal, target != ORIGIN, "{}: {target}", row.name);
            }
        }
    }

    #[test]
    fn throttling_rejects_requests_with_typed_errors() {
        let origin = TestOrigin::new(None);
        let edge = NodeBuilder::scripted("edge-1")
            .resource_capacity(ResourceKind::Cpu, 1.0)
            .control_period_secs(1)
            .origin(origin)
            .build();
        // Generate load well past the 1-step CPU "capacity", then let the
        // control loop run.
        for t in 0..20 {
            let _ = edge.call(Request::get("http://hog.example/page"), &RequestCtx::at(t));
        }
        let mut busy = 0;
        for t in 20..60 {
            let result = edge.call(Request::get("http://hog.example/page"), &RequestCtx::at(t));
            if matches!(
                result,
                Err(NakikaError::Throttled { .. } | NakikaError::Terminated { .. })
            ) {
                busy += 1;
            }
        }
        assert!(busy > 0, "expected some server-busy rejections");
        let stats = edge.node().stats();
        assert!(stats.throttled + stats.terminated > 0);
    }

    #[test]
    fn misbehaving_script_is_contained() {
        // The paper's misbehaving script: consume all memory by doubling a
        // string.  The sandbox cap stops each execution and congestion
        // control penalises the site, while other sites keep working.
        let hog_script = r#"
            p = new Policy();
            p.url = ["hog.example"];
            p.onResponse = function() {
                var s = 'xxxxxxxxxxxxxxxx';
                while (true) { s = s + s; }
            };
            p.register();
        "#;
        struct TwoSiteOrigin {
            hog_script: String,
        }
        impl OriginFetch for TwoSiteOrigin {
            fn fetch_origin(&self, request: &Request) -> Response {
                let path = request.uri.path.as_str();
                if path.ends_with("nakika.js") {
                    if request.uri.host.contains("hog") {
                        return Response::ok("application/javascript", self.hog_script.as_str())
                            .with_header("Cache-Control", "max-age=300");
                    }
                    return Response::error(StatusCode::NOT_FOUND);
                }
                if path.ends_with(".js") {
                    return Response::ok("application/javascript", scripts::EMPTY_WALL)
                        .with_header("Cache-Control", "max-age=300");
                }
                Response::ok("text/html", "content").with_header("Cache-Control", "no-store")
            }
        }
        let edge = NodeBuilder::scripted("edge-1")
            .control_period_secs(1)
            .origin(Arc::new(TwoSiteOrigin {
                hog_script: hog_script.to_string(),
            }))
            .build();
        let mut good_ok = 0;
        for t in 0..30 {
            let hog = edge.call(Request::get("http://hog.example/x"), &RequestCtx::at(t));
            // Either the sandbox stopped the script (request still served) or
            // admission control rejected it outright.
            assert!(
                matches!(
                    hog,
                    Ok(ref r) if r.status == StatusCode::OK
                ) || matches!(
                    hog,
                    Err(NakikaError::Throttled { .. } | NakikaError::Terminated { .. })
                )
            );
            let good = edge.call(Request::get("http://good.example/x"), &RequestCtx::at(t));
            if matches!(good, Ok(ref r) if r.status == StatusCode::OK) {
                good_ok += 1;
            }
        }
        assert!(
            good_ok >= 28,
            "the well-behaved site stays available, got {good_ok}/30"
        );
        assert!(
            edge.node().stats().script_errors > 0,
            "the memory hog was stopped"
        );
    }

    /// Serves `echo.example`: a site script that copies what each request
    /// carried into its response, empty walls, and a page per path.
    struct EchoOrigin;

    const ECHO_SCRIPT: &str = r#"
        p = new Policy();
        p.url = ["echo.example"];
        p.onRequest = function() { urlAtRequest = Request.url; };
        p.onResponse = function() {
            Response.setHeader('X-Url', Request.url);
            Response.setHeader('X-Url-At-Request', urlAtRequest);
            Response.setHeader('X-Tag', Request.getHeader('X-Tag'));
            Response.setHeader('X-Time', '' + System.time());
        };
        p.register();
    "#;

    impl OriginFetch for EchoOrigin {
        fn fetch_origin(&self, request: &Request) -> Response {
            let path = request.uri.path.as_str();
            let (content_type, body) = if path.ends_with("nakika.js") {
                ("application/javascript", ECHO_SCRIPT.to_string())
            } else if path.ends_with(".js") {
                ("application/javascript", scripts::EMPTY_WALL.to_string())
            } else {
                ("text/html", format!("page {path}"))
            };
            Response::ok(content_type, body).with_header("Cache-Control", "max-age=300")
        }
    }

    #[test]
    fn concurrent_requests_never_see_each_others_exchange() {
        const THREADS: u64 = 8;
        const REQUESTS: u64 = 2_000;
        let edge = NodeBuilder::scripted("edge-1")
            .without_resource_controls()
            .origin(Arc::new(EchoOrigin))
            .build();
        // One request first, so the three stages load (and their two
        // distinct sources compile) before the threads race.
        edge.call(
            Request::get("http://echo.example/warm"),
            &RequestCtx::at(1000),
        )
        .unwrap();
        let (requests_before, cache_before) =
            (edge.node().stats().requests, edge.node().cache_stats());

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let edge = &edge;
                s.spawn(move || {
                    for i in 0..REQUESTS {
                        let url = format!("http://echo.example/t{t}/i{i}");
                        let tag = format!("{t}-{i}");
                        let now = 1000 + (t * REQUESTS + i) % 100;
                        let response = edge
                            .call(
                                Request::get(&url).with_header("X-Tag", &tag),
                                &RequestCtx::at(now),
                            )
                            .unwrap();
                        let header = |name| response.headers.get(name).map(str::to_string);
                        assert_eq!(header("x-url"), Some(url.clone()));
                        assert_eq!(header("x-url-at-request"), Some(url));
                        assert_eq!(header("x-tag"), Some(tag));
                        assert_eq!(header("x-time"), Some(now.to_string()));
                    }
                });
            }
        });

        let (stats, cache) = (edge.node().stats(), edge.node().cache_stats());
        assert_eq!(stats.requests - requests_before, THREADS * REQUESTS);
        assert_eq!(
            (cache.hits + cache.misses) - (cache_before.hits + cache_before.misses),
            THREADS * REQUESTS,
            "one cache lookup per request: no stage was reloaded"
        );
        assert_eq!(stats.script_errors, 0);
        assert_eq!(cache.script_compiles, 2, "the walls share one source");
        let config = edge.node().config();
        for stage_url in [
            config.client_wall_url.as_str(),
            "http://echo.example/nakika.js",
            config.server_wall_url.as_str(),
        ] {
            let StageLookup::Hit(stage) = edge.node().stage_cache.probe(stage_url, 1000) else {
                panic!("{stage_url} is not cached");
            };
            assert!(
                stage.instantiations() <= THREADS,
                "{stage_url}: {} instances for {THREADS} threads",
                stage.instantiations()
            );
        }
    }

    #[test]
    fn finished_pipelines_leave_no_meter_behind() {
        // Controls on (the default), and a control period that never comes
        // round, so nothing is throttled and every request runs a pipeline.
        let edge = NodeBuilder::scripted("edge-1")
            .control_period_secs(u64::MAX / 2)
            .origin(Arc::new(EchoOrigin))
            .build();
        for i in 0..1_000 {
            edge.call(
                Request::get(&format!("http://echo.example/{i}")),
                &RequestCtx::at(10),
            )
            .unwrap();
        }
        assert_eq!(edge.node().stats().script_errors, 0);
        assert_eq!(
            edge.node().resource_manager().live_meters("echo.example"),
            0
        );
    }
}
