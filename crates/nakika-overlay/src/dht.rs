//! The sloppy, TTL'd distributed hash table.
//!
//! Keys (hashed URLs) map onto nodes by XOR proximity.  A `put` stores a
//! value (typically "node X holds a cached copy of URL Y") on up to
//! `replication` nodes near the key *within the most local cluster first*,
//! spilling outward only when local nodes are saturated for that key — this
//! is Coral's "sloppy" storage, which prevents hot keys from overloading
//! their home node.  A `get` walks the cluster levels from local to global
//! and returns the freshest values it finds, counting the (simulated)
//! network hops so experiments can account for lookup latency.

use crate::cluster::{ClusterLevel, Location};
use crate::id::{key_for, NodeId};
use parking_lot::RwLock;
use std::collections::HashMap;

/// A value stored under a key: an opaque payload plus soft-state metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredValue {
    /// The payload — for Na Kika's cooperative cache this is the identifier
    /// of the proxy holding a cached copy.
    pub payload: String,
    /// Absolute expiration time (seconds on the caller's clock).
    pub expires_at: u64,
    /// The node that inserted the value.
    pub origin: NodeId,
}

/// Configuration knobs for the overlay.
#[derive(Debug, Clone)]
pub struct OverlayConfig {
    /// How many nodes near the key hold each value.
    pub replication: usize,
    /// Per-node cap on values stored under a single key (Coral's sloppiness
    /// bound); additional puts spill to the next-closest node.
    pub values_per_key: usize,
    /// Maximum nodes contacted during one lookup at one cluster level.
    pub lookup_fanout: usize,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            replication: 2,
            values_per_key: 4,
            lookup_fanout: 8,
        }
    }
}

/// Statistics accumulated by the overlay, used by the experiment harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlayStats {
    /// Total put operations.
    pub puts: u64,
    /// Total get operations.
    pub gets: u64,
    /// Gets that found at least one unexpired value.
    pub hits: u64,
    /// Total (simulated) node-to-node hops across all operations.
    pub hops: u64,
}

struct NodeState {
    id: NodeId,
    location: Location,
    /// key -> stored values.
    store: HashMap<u64, Vec<StoredValue>>,
    alive: bool,
    /// Base URL (e.g. `http://10.0.0.3:8080`) where the node's proxy listens,
    /// when the deployment runs over real sockets.  Simulated nodes have none.
    addr: Option<String>,
}

/// A live overlay member as seen by routing: its identifier, position in the
/// latency space, and — for deployments running over real sockets — the base
/// URL where its proxy front-end listens.
///
/// Members with `addr: None` are simulator-only nodes; peer fetches over TCP
/// skip them and fall back to the origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// The member's overlay identifier.
    pub id: NodeId,
    /// The member's position in the latency space.
    pub location: Location,
    /// Base URL of the member's proxy front-end, if it serves real traffic.
    pub addr: Option<String>,
}

/// The in-process overlay: a registry of participating nodes plus the
/// routing and storage logic.  All state is behind a single lock; operations
/// are short and the simulator drives the overlay from one thread at a time,
/// while the real proxy front-end issues only a handful of calls per request.
pub struct Overlay {
    nodes: RwLock<Vec<NodeState>>,
    config: OverlayConfig,
    stats: RwLock<OverlayStats>,
}

impl Overlay {
    /// Creates an empty overlay.
    pub fn new(config: OverlayConfig) -> Overlay {
        Overlay {
            nodes: RwLock::new(Vec::new()),
            config,
            stats: RwLock::new(OverlayStats::default()),
        }
    }

    /// Creates an overlay with default configuration.
    pub fn with_defaults() -> Overlay {
        Overlay::new(OverlayConfig::default())
    }

    /// Adds a node; joining requires only knowing the overlay, which is the
    /// "low administrative overhead" property the paper relies on for
    /// incremental deployment.
    pub fn join(&self, id: NodeId, location: Location) {
        self.join_inner(id, location, None);
    }

    /// Adds a node that serves real traffic: `addr` is the base URL of its
    /// proxy front-end (e.g. `http://127.0.0.1:8080`).  Peers use it to route
    /// cache misses to the key's consistent-hash owner over TCP.
    ///
    /// Re-joining updates the location and address of an existing member.
    pub fn join_with_addr(&self, id: NodeId, location: Location, addr: &str) {
        self.join_inner(id, location, Some(addr.to_string()));
    }

    fn join_inner(&self, id: NodeId, location: Location, addr: Option<String>) {
        let mut nodes = self.nodes.write();
        if let Some(existing) = nodes.iter_mut().find(|n| n.id == id) {
            existing.alive = true;
            existing.location = location;
            if addr.is_some() {
                existing.addr = addr;
            }
            return;
        }
        nodes.push(NodeState {
            id,
            location,
            store: HashMap::new(),
            alive: true,
            addr,
        });
    }

    /// Records (or updates) the base URL of an already-joined member — real
    /// deployments bind their listening socket *after* joining, so the port
    /// is only known once the server is up.  Returns false if `id` is not a
    /// member.
    pub fn set_addr(&self, id: NodeId, addr: &str) -> bool {
        let mut nodes = self.nodes.write();
        match nodes.iter_mut().find(|n| n.id == id) {
            Some(n) => {
                n.addr = Some(addr.to_string());
                true
            }
            None => false,
        }
    }

    /// The base URL of a live member, if it has announced one.
    pub fn addr_of(&self, id: NodeId) -> Option<String> {
        self.nodes
            .read()
            .iter()
            .find(|n| n.id == id && n.alive)
            .and_then(|n| n.addr.clone())
    }

    /// Snapshot of the live membership.
    pub fn members(&self) -> Vec<Member> {
        self.nodes
            .read()
            .iter()
            .filter(|n| n.alive)
            .map(|n| Member {
                id: n.id,
                location: n.location,
                addr: n.addr.clone(),
            })
            .collect()
    }

    /// The `count` live members responsible for `key_str`, closest first in
    /// the XOR metric.  The first entry is the key's *owner* (the node a
    /// cache miss is routed to); the rest are its successors, which hot
    /// entries replicate onto.
    pub fn nodes_for_key(&self, key_str: &str, count: usize) -> Vec<Member> {
        let key = key_for(key_str);
        let nodes = self.nodes.read();
        let mut live: Vec<&NodeState> = nodes.iter().filter(|n| n.alive).collect();
        live.sort_by_key(|n| n.id.distance(&key));
        live.into_iter()
            .take(count)
            .map(|n| Member {
                id: n.id,
                location: n.location,
                addr: n.addr.clone(),
            })
            .collect()
    }

    /// The live member that owns `key_str` under consistent hashing (minimal
    /// XOR distance), or `None` on an empty overlay.
    pub fn owner_of(&self, key_str: &str) -> Option<Member> {
        self.nodes_for_key(key_str, 1).into_iter().next()
    }

    /// The `count` live members that follow the owner in XOR order for
    /// `key_str` — the replication targets for a hot key.
    pub fn successors_of(&self, key_str: &str, count: usize) -> Vec<Member> {
        self.nodes_for_key(key_str, count.saturating_add(1))
            .into_iter()
            .skip(1)
            .collect()
    }

    /// Marks a node as departed; its stored values become unreachable (soft
    /// state: they simply expire elsewhere).
    pub fn leave(&self, id: NodeId) {
        if let Some(n) = self.nodes.write().iter_mut().find(|n| n.id == id) {
            n.alive = false;
        }
    }

    /// Marks a node as failed.  This is the failure detector's entry point
    /// (gossip membership declaring a peer faulty): mechanically identical
    /// to [`leave`](Self::leave), but named for the involuntary case —
    /// ownership and successor sets re-home to the surviving nodes on the
    /// next lookup.
    pub fn fail(&self, id: NodeId) {
        self.leave(id);
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.read().iter().filter(|n| n.alive).count()
    }

    /// True if no live nodes participate.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `payload` under `key_str` on behalf of `from`, valid until
    /// `expires_at`.  Returns the number of replicas written.
    pub fn put(&self, from: NodeId, key_str: &str, payload: &str, expires_at: u64) -> usize {
        let key = key_for(key_str);
        let mut nodes = self.nodes.write();
        let from_location = match nodes.iter().find(|n| n.id == from && n.alive) {
            Some(n) => n.location,
            None => return 0,
        };
        // Candidate targets: live nodes ordered by (cluster locality to the
        // writer, XOR distance to the key) — local cluster first, then by key
        // proximity, which is Coral's insertion order.
        let mut order: Vec<(usize, ClusterLevel, u64)> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| {
                (
                    i,
                    from_location.shared_level(&n.location),
                    n.id.distance(&key),
                )
            })
            .collect();
        order.sort_by(|a, b| {
            cluster_rank(a.1)
                .cmp(&cluster_rank(b.1))
                .then(a.2.cmp(&b.2))
        });

        let mut written = 0usize;
        let mut hops = 0u64;
        for (idx, _, _) in order {
            if written >= self.config.replication {
                break;
            }
            hops += 1;
            let node = &mut nodes[idx];
            let values = node.store.entry(key.0).or_default();
            // Sloppiness: a node already holding `values_per_key` entries for
            // this key refuses the put and the writer spills to the next node.
            if values.len() >= self.config.values_per_key
                && !values.iter().any(|v| v.origin == from)
            {
                continue;
            }
            values.retain(|v| v.origin != from);
            values.push(StoredValue {
                payload: payload.to_string(),
                expires_at,
                origin: from,
            });
            written += 1;
        }
        let mut stats = self.stats.write();
        stats.puts += 1;
        stats.hops += hops;
        written
    }

    /// Looks up `key_str` on behalf of `from` at time `now`.  Returns the
    /// unexpired values found, ordered from the most local cluster outward,
    /// and records the hop count.
    pub fn get(&self, from: NodeId, key_str: &str, now: u64) -> Vec<StoredValue> {
        let key = key_for(key_str);
        let nodes = self.nodes.read();
        let from_location = match nodes.iter().find(|n| n.id == from && n.alive) {
            Some(n) => n.location,
            None => return Vec::new(),
        };
        let mut results = Vec::new();
        let mut hops = 0u64;
        for level in ClusterLevel::LOOKUP_ORDER {
            // Nodes in this cluster level, nearest the key first.
            let mut candidates: Vec<&NodeState> = nodes
                .iter()
                .filter(|n| n.alive && from_location.shared_level(&n.location) >= level)
                .collect();
            candidates.sort_by_key(|n| n.id.distance(&key));
            for node in candidates.into_iter().take(self.config.lookup_fanout) {
                hops += 1;
                if let Some(values) = node.store.get(&key.0) {
                    for v in values {
                        if v.expires_at > now && !results.contains(v) {
                            results.push(v.clone());
                        }
                    }
                }
            }
            if !results.is_empty() {
                break;
            }
        }
        drop(nodes);
        let mut stats = self.stats.write();
        stats.gets += 1;
        stats.hops += hops;
        if !results.is_empty() {
            stats.hits += 1;
        }
        results
    }

    /// Removes expired values everywhere (housekeeping the simulator calls
    /// periodically; a real deployment relies on lazy expiry plus this sweep).
    pub fn expire(&self, now: u64) {
        let mut nodes = self.nodes.write();
        for node in nodes.iter_mut() {
            for values in node.store.values_mut() {
                values.retain(|v| v.expires_at > now);
            }
            node.store.retain(|_, v| !v.is_empty());
        }
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> OverlayStats {
        self.stats.read().clone()
    }
}

fn cluster_rank(level: ClusterLevel) -> u8 {
    match level {
        ClusterLevel::Local => 0,
        ClusterLevel::Regional => 1,
        ClusterLevel::Global => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::sites;

    fn overlay_with_nodes() -> (Overlay, Vec<NodeId>) {
        let overlay = Overlay::with_defaults();
        let ids: Vec<NodeId> = (1..=6u64).map(NodeId).collect();
        overlay.join(ids[0], sites::US_EAST);
        overlay.join(ids[1], sites::US_EAST_LAN);
        overlay.join(ids[2], sites::US_WEST);
        overlay.join(ids[3], Location::new(36.0, 1.0)); // west LAN neighbour
        overlay.join(ids[4], sites::ASIA);
        overlay.join(ids[5], Location::new(91.0, 30.0)); // asia neighbour
        (overlay, ids)
    }

    #[test]
    fn join_leave_and_counting() {
        let (overlay, ids) = overlay_with_nodes();
        assert_eq!(overlay.len(), 6);
        overlay.leave(ids[0]);
        assert_eq!(overlay.len(), 5);
        overlay.join(ids[0], sites::US_EAST);
        assert_eq!(overlay.len(), 6);
        assert!(!overlay.is_empty());
    }

    #[test]
    fn put_then_get_round_trips() {
        let (overlay, ids) = overlay_with_nodes();
        let written = overlay.put(ids[0], "http://med.nyu.edu/simm/1", "proxy-east", 100);
        assert!(written >= 1);
        let values = overlay.get(ids[1], "http://med.nyu.edu/simm/1", 50);
        assert!(!values.is_empty());
        assert_eq!(values[0].payload, "proxy-east");
        let stats = overlay.stats();
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.gets, 1);
        assert_eq!(stats.hits, 1);
        assert!(stats.hops > 0);
    }

    #[test]
    fn values_expire() {
        let (overlay, ids) = overlay_with_nodes();
        overlay.put(ids[0], "http://a.com/x", "proxy-1", 100);
        assert!(overlay.get(ids[0], "http://a.com/x", 150).is_empty());
        overlay.expire(150);
        // After the sweep the value is physically gone too.
        assert!(overlay.get(ids[0], "http://a.com/x", 50).is_empty());
    }

    #[test]
    fn missing_key_returns_empty_and_counts_miss() {
        let (overlay, ids) = overlay_with_nodes();
        assert!(overlay.get(ids[2], "http://nowhere/", 10).is_empty());
        let stats = overlay.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.gets, 1);
    }

    #[test]
    fn lookups_prefer_the_local_cluster() {
        let (overlay, ids) = overlay_with_nodes();
        // A west-coast node announces a copy; an east-coast node announces
        // another copy of the same URL.
        overlay.put(ids[2], "http://shared/resource", "proxy-west", 1_000);
        overlay.put(ids[0], "http://shared/resource", "proxy-east", 1_000);
        // A west-coast reader should find the west replica without needing the
        // global cluster (the east replica may also surface, but the local one
        // must be present).
        let values = overlay.get(ids[3], "http://shared/resource", 10);
        assert!(values.iter().any(|v| v.payload == "proxy-west"));
    }

    #[test]
    fn sloppy_storage_spills_but_keeps_single_copy_reachable() {
        let config = OverlayConfig {
            replication: 1,
            values_per_key: 2,
            lookup_fanout: 8,
        };
        let overlay = Overlay::new(config);
        let ids: Vec<NodeId> = (1..=5u64).map(NodeId).collect();
        for id in &ids {
            overlay.join(*id, sites::US_EAST);
        }
        // Many distinct proxies announce copies of one hot URL.
        for (i, id) in ids.iter().enumerate() {
            let written = overlay.put(*id, "http://hot/page", &format!("proxy-{i}"), 1_000);
            assert_eq!(written, 1);
        }
        // The hot key's values are spread across nodes rather than piling onto
        // the single closest node; a lookup still finds copies.
        let values = overlay.get(ids[0], "http://hot/page", 10);
        assert!(!values.is_empty());
        let nodes = overlay.nodes.read();
        let max_per_node = nodes
            .iter()
            .map(|n| n.store.values().map(|v| v.len()).max().unwrap_or(0))
            .max()
            .unwrap();
        assert!(
            max_per_node <= 2,
            "sloppiness bound respected, saw {max_per_node}"
        );
    }

    #[test]
    fn re_announcing_replaces_rather_than_duplicates() {
        let (overlay, ids) = overlay_with_nodes();
        overlay.put(ids[0], "http://a.com/x", "proxy-east", 100);
        overlay.put(ids[0], "http://a.com/x", "proxy-east", 500);
        let values = overlay.get(ids[0], "http://a.com/x", 200);
        assert_eq!(values.len(), 1);
        assert_eq!(values[0].expires_at, 500);
    }

    #[test]
    fn membership_carries_peer_addresses() {
        let overlay = Overlay::with_defaults();
        overlay.join_with_addr(NodeId(1), sites::US_EAST, "http://127.0.0.1:4001");
        overlay.join(NodeId(2), sites::US_WEST);
        assert_eq!(
            overlay.addr_of(NodeId(1)).as_deref(),
            Some("http://127.0.0.1:4001")
        );
        assert_eq!(overlay.addr_of(NodeId(2)), None);
        // Ports are often assigned after joining; set_addr patches them in.
        assert!(overlay.set_addr(NodeId(2), "http://127.0.0.1:4002"));
        assert!(!overlay.set_addr(NodeId(99), "http://nowhere"));
        assert_eq!(
            overlay.addr_of(NodeId(2)).as_deref(),
            Some("http://127.0.0.1:4002")
        );
        // Departed members stop resolving but keep their address for re-join.
        overlay.leave(NodeId(2));
        assert_eq!(overlay.addr_of(NodeId(2)), None);
        overlay.join(NodeId(2), sites::US_WEST);
        assert_eq!(
            overlay.addr_of(NodeId(2)).as_deref(),
            Some("http://127.0.0.1:4002")
        );
        let members = overlay.members();
        assert_eq!(members.len(), 2);
        assert!(members.iter().all(|m| m.addr.is_some()));
    }

    #[test]
    fn nodes_for_key_orders_by_xor_distance_and_skips_dead_nodes() {
        let overlay = Overlay::with_defaults();
        for id in 1..=4u64 {
            overlay.join(NodeId(id << 60), sites::US_EAST);
        }
        let key = "http://example.org/object";
        let ranked = overlay.nodes_for_key(key, 4);
        assert_eq!(ranked.len(), 4);
        let k = key_for(key);
        for pair in ranked.windows(2) {
            assert!(pair[0].id.distance(&k) <= pair[1].id.distance(&k));
        }
        let owner = overlay.owner_of(key).unwrap();
        assert_eq!(owner.id, ranked[0].id);
        let successors = overlay.successors_of(key, 2);
        assert_eq!(successors.len(), 2);
        assert_eq!(successors[0].id, ranked[1].id);
        assert_eq!(successors[1].id, ranked[2].id);
        // The owner departing promotes the first successor.
        overlay.leave(owner.id);
        assert_eq!(overlay.owner_of(key).unwrap().id, ranked[1].id);
    }

    #[test]
    fn owner_of_is_deterministic_across_views() {
        // Two independently-built registries with the same membership agree on
        // the owner — the property multi-process routing relies on.
        let a = Overlay::with_defaults();
        let b = Overlay::with_defaults();
        for name in ["edge-a", "edge-b", "edge-c"] {
            a.join(key_for(name), sites::US_EAST);
            b.join(key_for(name), sites::US_EAST);
        }
        for key in ["http://x/1", "http://x/2", "http://y/3"] {
            assert_eq!(a.owner_of(key).unwrap().id, b.owner_of(key).unwrap().id);
        }
        assert!(Overlay::with_defaults().owner_of("http://x/1").is_none());
    }

    #[test]
    fn departed_nodes_are_not_consulted() {
        let (overlay, ids) = overlay_with_nodes();
        overlay.put(ids[4], "http://asia-only/x", "proxy-asia", 1_000);
        overlay.leave(ids[4]);
        overlay.leave(ids[5]);
        // The only replica may have lived on the departed nodes; lookups must
        // still terminate and not error.
        let _ = overlay.get(ids[0], "http://asia-only/x", 10);
        assert_eq!(overlay.members().len(), 4);
    }
}
