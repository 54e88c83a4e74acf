//! The roster and its consistent-hash ring.
//!
//! Keys (hashed URLs) map onto members by XOR proximity.  The closest live
//! member is the key's *owner*, where a cache miss is routed; the next ones
//! are its successors, which hot entries replicate onto.  Two registries
//! with the same membership agree on every owner, which is all that routing
//! across processes needs.

use crate::id::{key_for, NodeId};
use parking_lot::RwLock;

struct NodeState {
    id: NodeId,
    alive: bool,
    /// Base URL (e.g. `http://10.0.0.3:8080`) where the node's proxy listens,
    /// when the deployment runs over real sockets.  Simulated nodes carry
    /// their name instead.
    addr: Option<String>,
}

/// A live overlay member as seen by routing: its identifier and the address
/// peers fetch from — for deployments running over real sockets, the base
/// URL where its proxy front-end listens.
///
/// Members with `addr: None` cannot be fetched from; a miss they own goes
/// to the origin.
#[derive(Debug)]
pub struct Member {
    /// The member's overlay identifier.
    pub id: NodeId,
    /// Base URL of the member's proxy front-end, if it serves real traffic.
    pub addr: Option<String>,
}

/// The in-process overlay: a registry of participating nodes plus the
/// routing logic.  All state is behind a single lock; operations are short,
/// and the proxy front-end issues only a handful of calls per request.
pub struct Overlay {
    nodes: RwLock<Vec<NodeState>>,
}

impl Default for Overlay {
    fn default() -> Self {
        Overlay::new()
    }
}

impl Overlay {
    /// Creates an empty overlay.
    pub fn new() -> Overlay {
        Overlay {
            nodes: RwLock::new(Vec::new()),
        }
    }

    /// Adds a node; joining requires only knowing the overlay, which is the
    /// "low administrative overhead" property the paper relies on for
    /// incremental deployment.
    pub fn join(&self, id: NodeId) {
        self.join_inner(id, None);
    }

    /// Adds a node that serves real traffic: `addr` is the base URL of its
    /// proxy front-end (e.g. `http://127.0.0.1:8080`).  Peers use it to route
    /// cache misses to the key's consistent-hash owner over TCP.
    ///
    /// Re-joining updates the address of an existing member.
    pub fn join_with_addr(&self, id: NodeId, addr: &str) {
        self.join_inner(id, Some(addr.to_string()));
    }

    fn join_inner(&self, id: NodeId, addr: Option<String>) {
        let mut nodes = self.nodes.write();
        if let Some(existing) = nodes.iter_mut().find(|n| n.id == id) {
            existing.alive = true;
            if addr.is_some() {
                existing.addr = addr;
            }
            return;
        }
        nodes.push(NodeState {
            id,
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

    /// The base URL of a live member, if it has one.
    pub fn addr_of(&self, id: NodeId) -> Option<String> {
        self.nodes
            .read()
            .iter()
            .find(|n| n.id == id && n.alive)
            .and_then(|n| n.addr.clone())
    }

    /// Snapshot of the live membership.
    #[cfg(test)]
    pub(crate) fn members(&self) -> Vec<Member> {
        self.nodes
            .read()
            .iter()
            .filter(|n| n.alive)
            .map(|n| Member {
                id: n.id,
                addr: n.addr.clone(),
            })
            .collect()
    }

    /// The `count` live members responsible for `key_str`, closest first in
    /// the XOR metric.  The first entry is the key's *owner* (the node a
    /// cache miss is routed to); the rest are its successors, which hot
    /// entries replicate onto.
    pub(crate) fn nodes_for_key(&self, key_str: &str, count: usize) -> Vec<Member> {
        let key = key_for(key_str);
        let nodes = self.nodes.read();
        let mut live: Vec<&NodeState> = nodes.iter().filter(|n| n.alive).collect();
        live.sort_by_key(|n| n.id.distance(&key));
        live.into_iter()
            .take(count)
            .map(|n| Member {
                id: n.id,
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

    /// Marks a node as departed; the keys it owned re-home to the surviving
    /// members on the next lookup.
    pub(crate) fn leave(&self, id: NodeId) {
        if let Some(n) = self.nodes.write().iter_mut().find(|n| n.id == id) {
            n.alive = false;
        }
    }

    /// Marks a node as failed.  This is the failure detector's entry point
    /// (gossip membership declaring a peer faulty): mechanically identical
    /// to `leave`, but named for the involuntary case —
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_leave_and_counting() {
        let overlay = Overlay::new();
        let ids: Vec<NodeId> = (1..=6u64).map(NodeId).collect();
        for id in &ids {
            overlay.join(*id);
        }
        assert_eq!(overlay.len(), 6);
        overlay.leave(ids[0]);
        assert_eq!(overlay.len(), 5);
        overlay.join(ids[0]);
        assert_eq!(overlay.len(), 6);
        assert!(!overlay.is_empty());
    }

    #[test]
    fn membership_carries_peer_addresses() {
        let overlay = Overlay::new();
        overlay.join_with_addr(NodeId(1), "http://127.0.0.1:4001");
        overlay.join(NodeId(2));
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
        overlay.join(NodeId(2));
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
        let overlay = Overlay::new();
        for id in 1..=4u64 {
            overlay.join(NodeId(id << 60));
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
        let a = Overlay::new();
        let b = Overlay::new();
        for name in ["edge-a", "edge-b", "edge-c"] {
            a.join(key_for(name));
            b.join(key_for(name));
        }
        for key in ["http://x/1", "http://x/2", "http://y/3"] {
            assert_eq!(a.owner_of(key).unwrap().id, b.owner_of(key).unwrap().id);
        }
        assert!(Overlay::new().owner_of("http://x/1").is_none());
    }
}
