//! The proxy cache: expiration-based caching of original and processed
//! content (paper §3.1, §4), partitioned into independently locked shards.
//!
//! Na Kika deliberately builds on the web's expiration-based consistency
//! model for everything it caches — static resources, dynamically created
//! content, and the scripts themselves (which is also how security-policy
//! updates propagate: publish the new script and let cached copies expire).
//! The cache is shared by all sites on a node and bounded in bytes.
//!
//! # Eviction
//!
//! Each shard keeps its entries in a SIEVE ring (Zhang et al., "SIEVE is
//! Simpler than LRU", NSDI '24): insertion order, newest at the head, plus
//! one visited bit per entry that a hit sets.  To make room, a hand walks
//! from the tail toward the head, clearing the visited bits it passes, and
//! evicts the first entry that is unvisited or already expired; the hand
//! stays where it stopped for the next eviction.  So an eviction costs
//! O(1) amortized steps under the shard lock, however many entries the
//! shard holds, and a hit is one `bool` store.  Expiry does not order the
//! victims: an expired entry goes when the hand reaches it.
//!
//! # Sharding
//!
//! A single-lock cache serializes every transport thread (or reactor) that
//! touches it, so under real concurrency the cache becomes the node's
//! bottleneck even when every lookup is a hit.  [`ProxyCache`] therefore
//! partitions its entries into `N` shards by a hash of the key; each shard
//! has its own lock, its own byte budget (`capacity / N`) and its own
//! statistics, so two requests for different resources almost never contend.
//! Eviction is shard-local on the hot path, which keeps lock hold times
//! short.  Admission still accepts any object up to the *total* capacity —
//! sharding must not shrink the largest cacheable object to `capacity / N` —
//! and an entry bigger than its shard's budget evicts the rest of the shard
//! and lives there alone.  The global budget stays a hard invariant: a
//! relaxed total-bytes counter notices when oversize entries push the
//! aggregate past `capacity`, and a slow-path sweep then advances the
//! shards' hands in turn, taking one shard lock at a time (never two, so it
//! cannot deadlock with concurrent inserts).
//!
//! The shard count is chosen from the byte capacity so that small caches
//! (tests, constrained deployments) keep exact single-shard semantics, and
//! can be pinned explicitly with [`ProxyCache::with_shards`] or
//! [`NodeBuilder::cache_shards`](crate::builder::NodeBuilder::cache_shards).
//!
//! ```
//! use nakika_core::cache::ProxyCache;
//! use nakika_http::{Method, Response};
//! use std::time::Duration;
//!
//! let cache = ProxyCache::with_shards(1 << 20, Duration::from_secs(60), 8);
//! assert_eq!(cache.shard_stats().len(), 8);
//! let page = Response::ok("text/html", "hi").with_header("Cache-Control", "max-age=60");
//! cache.put("http://a.example/", &Method::Get, &page, 100);
//! assert!(cache.get("http://a.example/", 110).is_some());
//! // Aggregated over every shard:
//! assert_eq!(cache.stats().hits, 1);
//! ```

use nakika_http::cache_control::{freshness, Freshness};
use nakika_http::{Method, Response};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cache statistics used throughout the evaluation harness.
///
/// On a sharded cache these are aggregated across every shard by
/// [`ProxyCache::stats`]; [`ProxyCache::shard_stats`] exposes the per-shard
/// breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a fresh entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Local misses answered by a cooperative peer instead of the origin.
    ///
    /// Counted by the node, not the cache shards themselves: the shards see
    /// a peer-answered request as a plain miss.  [`ProxyCache::stats`] always
    /// reports `0`; `NaKikaNode::cache_stats` overlays the node's counter so
    /// operators read one coherent snapshot.
    pub(crate) peer_hits: u64,
    /// Peer fetches attempted but not answered (peer down, non-success, or
    /// loop-guarded), each falling back to the origin.  Like
    /// [`peer_hits`](CacheStats::peer_hits), maintained by the node.
    pub(crate) peer_misses: u64,
    /// Client requests 307-redirected to the key's live consistent-hash
    /// owner instead of being relayed.  Like
    /// [`peer_hits`](CacheStats::peer_hits), maintained by the node.
    pub(crate) owner_redirects: u64,
    /// Scripts parsed and lowered to bytecode — one per distinct source the
    /// node has ever run (walls, site stages, pages).  Maintained by the
    /// node's compiled-program cache, not the shards; [`ProxyCache::stats`]
    /// always reports `0` and `NaKikaNode::cache_stats` overlays the real
    /// counter.
    pub script_compiles: u64,
    /// Script executions whose compiled program came from the program cache
    /// instead of being recompiled.  Maintained by the node, like
    /// [`script_compiles`](CacheStats::script_compiles).
    pub script_cache_hits: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum — how shard statistics aggregate.
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            inserts: self.inserts + other.inserts,
            evictions: self.evictions + other.evictions,
            peer_hits: self.peer_hits + other.peer_hits,
            peer_misses: self.peer_misses + other.peer_misses,
            owner_redirects: self.owner_redirects + other.owner_redirects,
            script_compiles: self.script_compiles + other.script_compiles,
            script_cache_hits: self.script_cache_hits + other.script_cache_hits,
        }
    }
}

/// Slot index that names no entry: the end of a ring, or a hand that starts
/// over from the tail.
const NIL: usize = usize::MAX;

/// One cached response and its place in its shard's SIEVE ring.
struct Node {
    key: Arc<str>,
    response: Response,
    fresh_until: u64,
    size: usize,
    /// Set by a hit; cleared when the hand passes over the entry.
    visited: bool,
    /// The entry inserted just after this one (toward the head), or [`NIL`].
    newer: usize,
    /// The entry inserted just before this one (toward the tail), or [`NIL`].
    older: usize,
}

/// One shard: entries, byte accounting and statistics behind a single lock,
/// so a shard operation takes exactly one lock acquisition.
///
/// The SIEVE ring (see the module docs) is a doubly linked list of slab
/// indices, so it needs no `unsafe` and grows with the entries.
struct ShardState {
    index: HashMap<Arc<str>, usize>,
    /// The slab: `None` marks a free slot, listed in `free`.
    slots: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Newest entry.
    head: usize,
    /// Oldest entry.
    tail: usize,
    /// Where the next victim search starts; [`NIL`] means the tail.
    hand: usize,
    used_bytes: usize,
    stats: CacheStats,
    /// Entries the hand has examined, for the complexity test.
    #[cfg(test)]
    hand_steps: u64,
}

impl Default for ShardState {
    fn default() -> ShardState {
        ShardState {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            used_bytes: 0,
            stats: CacheStats::default(),
            #[cfg(test)]
            hand_steps: 0,
        }
    }
}

impl ShardState {
    fn node(&self, slot: usize) -> &Node {
        self.slots[slot]
            .as_ref()
            .expect("a linked slot holds an entry")
    }

    fn node_mut(&mut self, slot: usize) -> &mut Node {
        self.slots[slot]
            .as_mut()
            .expect("a linked slot holds an entry")
    }

    /// Links a new entry in at the head, unvisited, and returns its slot.
    fn push_head(
        &mut self,
        key: Arc<str>,
        response: Response,
        fresh_until: u64,
        size: usize,
    ) -> usize {
        let node = Node {
            key: Arc::clone(&key),
            response,
            fresh_until,
            size,
            visited: false,
            newer: NIL,
            older: self.head,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(node);
                slot
            }
            None => {
                self.slots.push(Some(node));
                self.slots.len() - 1
            }
        };
        match self.head {
            NIL => self.tail = slot,
            head => self.node_mut(head).newer = slot,
        }
        self.head = slot;
        self.index.insert(key, slot);
        self.used_bytes += size;
        slot
    }

    /// Unlinks the entry in `slot`, moving the hand on if it pointed there,
    /// and returns it.
    fn remove(&mut self, slot: usize) -> Node {
        let node = self.slots[slot]
            .take()
            .expect("a linked slot holds an entry");
        match node.newer {
            NIL => self.head = node.older,
            newer => self.node_mut(newer).older = node.older,
        }
        match node.older {
            NIL => self.tail = node.newer,
            older => self.node_mut(older).newer = node.newer,
        }
        if self.hand == slot {
            self.hand = node.newer;
        }
        self.free.push(slot);
        self.index.remove(&node.key);
        self.used_bytes -= node.size;
        node
    }

    /// Advances the hand to the first entry that is unvisited or expired at
    /// `now`, clearing the visited bits it passes, and evicts it.  The entry
    /// in `protect` is never chosen.  Returns the evicted size, or `None`
    /// when nothing but `protect` is left.
    fn evict(&mut self, protect: Option<usize>, now: u64) -> Option<usize> {
        if self.index.len() <= usize::from(protect.is_some()) {
            return None;
        }
        let mut slot = if self.hand == NIL {
            self.tail
        } else {
            self.hand
        };
        // Two passes at most: the first clears every visited bit it meets.
        loop {
            #[cfg(test)]
            {
                self.hand_steps += 1;
            }
            let tail = self.tail;
            let node = self.node_mut(slot);
            let next = if node.newer == NIL { tail } else { node.newer };
            if Some(slot) != protect {
                if !node.visited || node.fresh_until <= now {
                    // `remove` moves the hand on to the victim's newer
                    // neighbour, or back to the tail after the head.
                    self.hand = slot;
                    let size = self.remove(slot).size;
                    self.stats.evictions += 1;
                    return Some(size);
                }
                node.visited = false;
            }
            slot = next;
        }
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hand = NIL;
        self.used_bytes = 0;
    }

    /// Panics unless the ring, the index, the slab and the byte count agree.
    #[cfg(test)]
    fn check(&self) {
        let mut linked = 0;
        let mut bytes = 0;
        let mut hand_linked = self.hand == NIL;
        let (mut slot, mut prev) = (self.tail, NIL);
        while slot != NIL {
            let node = self.node(slot);
            assert_eq!(node.older, prev, "ring links disagree at slot {slot}");
            assert_eq!(
                self.index.get(&node.key),
                Some(&slot),
                "index misses {}",
                node.key
            );
            hand_linked |= self.hand == slot;
            linked += 1;
            bytes += node.size;
            (prev, slot) = (slot, node.newer);
        }
        assert_eq!(prev, self.head, "the walk from the tail ends at the head");
        assert_eq!(linked, self.index.len(), "ring length = map length");
        assert_eq!(bytes, self.used_bytes, "sum of entry sizes = used_bytes");
        assert!(hand_linked, "the hand points at a linked entry");
        assert_eq!(linked + self.free.len(), self.slots.len());
        assert!(self.free.iter().all(|&slot| self.slots[slot].is_none()));
    }
}

/// A bounded, expiration-based response cache, sharded by key hash.
pub struct ProxyCache {
    shards: Vec<Mutex<ShardState>>,
    /// Total byte capacity — also the admission limit for a single object,
    /// exactly as in the unsharded design.
    capacity_bytes: usize,
    /// Byte budget of each shard (total capacity divided by shard count).
    shard_capacity: usize,
    /// Running total of bytes across all shards, maintained alongside the
    /// per-shard accounting; lets `put` notice a global overshoot without
    /// touching the other shards' locks.
    used_total: AtomicUsize,
    /// The shard whose hand the global sweep advances next.
    sweep_cursor: AtomicUsize,
    /// Heuristic freshness applied when the origin gives no expiration
    /// information (the deployment knob; the evaluation's cold/warm contrast
    /// only needs *some* positive lifetime).
    heuristic: Duration,
}

/// Smallest byte budget worth giving a shard of its own: below this,
/// splitting hurts (entries stop fitting) more than lock contention does.
const MIN_SHARD_BYTES: usize = 1 << 20;

/// Default upper bound on the automatically chosen shard count.
const DEFAULT_MAX_SHARDS: usize = 16;

impl ProxyCache {
    /// Creates a cache bounded to `capacity_bytes`, with the given heuristic
    /// freshness lifetime for responses lacking explicit expiration metadata.
    ///
    /// The shard count is derived from the capacity: one shard per
    /// [`MIN_SHARD_BYTES`](self) of budget, capped at 16 — so tests with
    /// kilobyte-sized caches get exact single-shard eviction behavior while
    /// production-sized caches spread contention.
    pub fn new(capacity_bytes: usize, heuristic: Duration) -> ProxyCache {
        let shards = (capacity_bytes / MIN_SHARD_BYTES).clamp(1, DEFAULT_MAX_SHARDS);
        ProxyCache::with_shards(capacity_bytes, heuristic, shards)
    }

    /// Creates a cache with an explicit shard count (clamped to at least 1).
    pub fn with_shards(
        capacity_bytes: usize,
        heuristic: Duration,
        shard_count: usize,
    ) -> ProxyCache {
        let shard_count = shard_count.max(1);
        ProxyCache {
            shards: (0..shard_count).map(|_| Mutex::default()).collect(),
            capacity_bytes,
            shard_capacity: (capacity_bytes / shard_count).max(1),
            used_total: AtomicUsize::new(0),
            sweep_cursor: AtomicUsize::new(0),
            heuristic,
        }
    }

    /// A cache with defaults suitable for tests: 256 MiB and a 60-second
    /// heuristic lifetime.
    #[cfg(test)]
    pub(crate) fn with_defaults() -> ProxyCache {
        ProxyCache::new(256 * 1024 * 1024, Duration::from_secs(60))
    }

    /// Number of shards the key space is partitioned into.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total byte capacity — also the largest entry the cache will admit,
    /// and therefore the budget a streaming tee may buffer on the side
    /// before giving up on caching a response (see
    /// [`NaKikaNode`](crate::node::NaKikaNode)'s fetch path).
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Index of the shard responsible for `key` (FNV-1a over the key bytes
    /// — cheap, deterministic, and good enough dispersion for URL-shaped
    /// keys).
    fn shard_index(&self, key: &str) -> usize {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &str) -> &Mutex<ShardState> {
        &self.shards[self.shard_index(key)]
    }

    /// Non-mutating freshness probe: true when a fresh entry for `key`
    /// exists at `now_secs`.  Unlike [`ProxyCache::get`] it counts no
    /// hit/miss and touches no recency, so probing is free of statistical
    /// side effects — readiness transports use it (through
    /// [`NaKikaNode::dispatch_hint`](crate::node::NaKikaNode::dispatch_hint))
    /// to classify a request as a warm hit before deciding where to run
    /// the service call.
    pub fn contains_fresh(&self, key: &str, now_secs: u64) -> bool {
        let shard = self.shard(key).lock();
        shard
            .index
            .get(key)
            .is_some_and(|&slot| shard.node(slot).fresh_until > now_secs)
    }

    /// Records a miss for `key` without touching the entry map.  A
    /// readiness transport that answers a miss by splicing bytes on its
    /// event loop never runs the ordinary [`get`](ProxyCache::get), but
    /// the exchange must still account one cache lookup (see
    /// `NaKikaNode::relay_plan`); counting it at adoption time keeps
    /// `hits + misses` equal to requests served on every transport.
    pub(crate) fn record_miss(&self, key: &str) {
        self.shard(key).lock().stats.misses += 1;
    }

    /// Looks up a fresh response for `key` at time `now_secs`.  A hit marks
    /// the entry visited, so the next eviction pass spares it once.
    pub fn get(&self, key: &str, now_secs: u64) -> Option<Response> {
        let mut shard = self.shard(key).lock();
        let result = match shard.index.get(key).copied() {
            Some(slot) => {
                let node = shard.node_mut(slot);
                if node.fresh_until > now_secs {
                    node.visited = true;
                    Some(node.response.clone())
                } else {
                    None
                }
            }
            None => None,
        };
        if result.is_some() {
            shard.stats.hits += 1;
        } else {
            shard.stats.misses += 1;
        }
        result
    }

    /// Stores a response under `key` if HTTP's caching rules allow a shared
    /// cache to do so.  Returns true when the entry was stored.
    ///
    /// Only fully buffered bodies are stored: a streaming body
    /// (`nakika_http::Body::Stream`) is refused, because the cache must not be the
    /// thing that forces a large response into memory.  Streamed responses
    /// are captured instead by the tee in the node's fetch path, which
    /// calls back here with the buffered copy once the stream completes
    /// within budget.
    pub fn put(&self, key: &str, method: &Method, response: &Response, now_secs: u64) -> bool {
        if response.body.is_stream() {
            return false;
        }
        let lifetime = match freshness(method, response, self.heuristic) {
            Freshness::Fresh(lifetime) => lifetime,
            Freshness::Revalidate | Freshness::Uncacheable => return false,
        };
        // Admission is judged against the *total* capacity, as in the
        // unsharded design — sharding must not silently shrink the largest
        // cacheable object to capacity/N.  An entry bigger than its shard's
        // budget ends up alone in its shard (the local eviction loop clears
        // everything else and stops), and the global sweep afterwards keeps
        // the aggregate within the total capacity.
        let size = response.body.len() + 512;
        if size > self.capacity_bytes {
            return false;
        }
        let response = response.clone();
        let fresh_until = now_secs.saturating_add(lifetime.as_secs().max(1));
        let mut shard = self.shard(key).lock();
        // A resident key is updated in place and keeps its ring position;
        // storing it again is a request for it, so it counts as visited.  A
        // new key enters at the head, unvisited.
        let slot = match shard.index.get(key).copied() {
            Some(slot) => {
                let node = shard.node_mut(slot);
                let old_size = std::mem::replace(&mut node.size, size);
                node.response = response;
                node.fresh_until = fresh_until;
                node.visited = true;
                shard.used_bytes = shard.used_bytes - old_size + size;
                self.used_total.fetch_sub(old_size, Ordering::Relaxed);
                slot
            }
            None => shard.push_head(Arc::from(key), response, fresh_until, size),
        };
        self.used_total.fetch_add(size, Ordering::Relaxed);
        // Evict while over the shard's budget, wherever the hand finds an
        // unvisited or expired entry.  Shard-local by design — no other
        // shard's lock is touched on this hot path — and the new entry is
        // protected, so it survives its own eviction.
        while shard.used_bytes > self.shard_capacity {
            match shard.evict(Some(slot), now_secs) {
                Some(size) => {
                    self.used_total.fetch_sub(size, Ordering::Relaxed);
                }
                None => break,
            }
        }
        shard.stats.inserts += 1;
        drop(shard);
        // Oversize entries (bigger than one shard's budget) can push the
        // aggregate past the total capacity even though every shard honored
        // its own budget as far as it could; the slow-path sweep restores
        // the global invariant.
        if self.used_total.load(Ordering::Relaxed) > self.capacity_bytes {
            self.enforce_global_budget(key, now_secs);
        }
        true
    }

    /// Evicts globally until total usage fits the capacity again: advances
    /// one shard's hand at a time, round-robin from a shared cursor, taking
    /// one shard lock at a time.  `protect` (the key just inserted) is never
    /// chosen, mirroring the shard-local loop; the sweep gives up after a
    /// full round of shards that had nothing to evict.
    fn enforce_global_budget(&self, protect: &str, now_secs: u64) {
        let mut idle = 0;
        while idle < self.shards.len()
            && self.used_total.load(Ordering::Relaxed) > self.capacity_bytes
        {
            let i = self.sweep_cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
            let mut shard = self.shards[i].lock();
            let protect = shard.index.get(protect).copied();
            match shard.evict(protect, now_secs) {
                Some(size) => {
                    self.used_total.fetch_sub(size, Ordering::Relaxed);
                    idle = 0;
                }
                None => idle += 1,
            }
        }
    }

    /// Removes the entry stored under `key` and releases its bytes; returns
    /// whether there was one.
    pub fn invalidate(&self, key: &str) -> bool {
        let mut shard = self.shard(key).lock();
        match shard.index.get(key).copied() {
            Some(slot) => {
                let size = shard.remove(slot).size;
                self.used_total.fetch_sub(size, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Drops every entry in every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            self.used_total
                .fetch_sub(shard.used_bytes, Ordering::Relaxed);
            shard.clear();
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().index.len()).sum()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently accounted to cached entries, across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used_bytes).sum()
    }

    /// Statistics aggregated across every shard.
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merge(s))
    }

    /// Per-shard statistics snapshot, in shard order.  The component-wise
    /// sum of these is exactly [`ProxyCache::stats`].
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(|s| s.lock().stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_http::{Response, StatusCode};

    fn cacheable(body: &str, max_age: u64) -> Response {
        Response::ok("text/html", body).with_header("Cache-Control", &format!("max-age={max_age}"))
    }

    #[test]
    fn hit_after_put_miss_after_expiry() {
        let cache = ProxyCache::with_defaults();
        let resp = cacheable("home page", 300);
        assert!(cache.put("http://g.com/", &Method::Get, &resp, 100));
        assert!(cache.get("http://g.com/", 150).is_some());
        assert!(cache.get("http://g.com/", 500).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn uncacheable_responses_are_not_stored() {
        let cache = ProxyCache::with_defaults();
        let private = Response::ok("text/html", "x").with_header("Cache-Control", "private");
        assert!(!cache.put("http://a.com/", &Method::Get, &private, 0));
        let post_target = cacheable("y", 100);
        assert!(!cache.put("http://a.com/post", &Method::Post, &post_target, 0));
        let error = Response::error(StatusCode::SERVICE_UNAVAILABLE);
        assert!(!cache.put("http://a.com/busy", &Method::Get, &error, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn heuristic_lifetime_applies_without_explicit_expiry() {
        let cache = ProxyCache::new(1 << 20, Duration::from_secs(60));
        let resp = Response::ok("text/html", "implicit");
        assert!(cache.put("http://a.com/", &Method::Get, &resp, 0));
        assert!(cache.get("http://a.com/", 30).is_some());
        assert!(cache.get("http://a.com/", 61).is_none());
        // With a zero heuristic nothing is stored.
        let strict = ProxyCache::new(1 << 20, Duration::ZERO);
        assert!(!strict.put("http://a.com/", &Method::Get, &resp, 0));
    }

    #[test]
    fn eviction_keeps_usage_within_capacity() {
        let cache = ProxyCache::new(4096, Duration::from_secs(60));
        assert_eq!(cache.shard_count(), 1, "small caches stay single-shard");
        for i in 0..10 {
            let resp = cacheable(&"x".repeat(700), 1000);
            cache.put(&format!("http://a.com/{i}"), &Method::Get, &resp, i);
        }
        assert!(cache.used_bytes() <= 4096);
        assert!(cache.len() < 10);
        assert!(cache.stats().evictions > 0);
        // The most recently inserted entry survives.
        assert!(cache.get("http://a.com/9", 10).is_some());
    }

    #[test]
    fn oversized_objects_are_refused() {
        let cache = ProxyCache::new(1024, Duration::from_secs(60));
        let big = cacheable(&"x".repeat(10_000), 1000);
        assert!(!cache.put("http://a.com/big", &Method::Get, &big, 0));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn replacing_an_entry_updates_accounting() {
        let cache = ProxyCache::new(1 << 20, Duration::from_secs(60));
        let small = cacheable("small", 100);
        let large = cacheable(&"L".repeat(1000), 100);
        cache.put("http://a.com/", &Method::Get, &large, 0);
        let used_large = cache.used_bytes();
        cache.put("http://a.com/", &Method::Get, &small, 1);
        assert!(cache.used_bytes() < used_large);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = ProxyCache::with_defaults();
        cache.put("http://a.com/", &Method::Get, &cacheable("x", 100), 0);
        assert!(cache.invalidate("http://a.com/"));
        assert!(!cache.invalidate("http://a.com/"));
        cache.put("http://a.com/", &Method::Get, &cacheable("x", 100), 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn auto_shard_count_scales_with_capacity() {
        assert_eq!(ProxyCache::new(4096, Duration::ZERO).shard_count(), 1);
        assert_eq!(ProxyCache::new(1 << 22, Duration::ZERO).shard_count(), 4);
        assert_eq!(ProxyCache::with_defaults().shard_count(), 16);
        assert_eq!(
            ProxyCache::with_shards(1, Duration::ZERO, 0).shard_count(),
            1,
            "explicit shard counts are clamped to at least one"
        );
    }

    #[test]
    fn keys_spread_across_shards_and_stats_aggregate() {
        let cache = ProxyCache::with_shards(64 << 20, Duration::from_secs(60), 8);
        for i in 0..64 {
            let key = format!("http://site{i}.example/page");
            assert!(cache.put(&key, &Method::Get, &cacheable("body", 600), 0));
            assert!(cache.get(&key, 1).is_some());
            assert!(cache.get(&format!("{key}?absent"), 1).is_none());
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 8);
        assert!(
            per_shard.iter().filter(|s| s.inserts > 0).count() > 1,
            "64 distinct keys must not all land in one shard"
        );
        let total = cache.stats();
        assert_eq!(total.hits, 64);
        assert_eq!(total.misses, 64);
        assert_eq!(total.inserts, 64);
        assert_eq!(
            per_shard
                .iter()
                .fold(CacheStats::default(), |a, s| a.merge(s)),
            total
        );
    }

    #[test]
    fn objects_larger_than_a_shard_budget_are_still_cacheable() {
        // 8 shards x 8 KiB: a 20 KiB object exceeds any shard's budget but
        // not the total capacity, so it must still be admitted (sharding
        // must not shrink the largest cacheable object).
        let cache = ProxyCache::with_shards(64 * 1024, Duration::from_secs(60), 8);
        let big = cacheable(&"B".repeat(20 * 1024), 600);
        assert!(cache.put("http://a.example/big", &Method::Get, &big, 0));
        assert!(cache.get("http://a.example/big", 1).is_some());
        // It evicted whatever shared its shard and lives there alone; other
        // shards are untouched and anything beyond total capacity is still
        // refused.
        let too_big = cacheable(&"B".repeat(70 * 1024), 600);
        assert!(!cache.put("http://a.example/huge", &Method::Get, &too_big, 0));
    }

    #[test]
    fn global_budget_holds_even_with_oversize_entries_in_many_shards() {
        // 8 shards x 8 KiB.  Six distinct ~20 KiB objects each exceed any
        // shard's budget; without global enforcement they would accumulate
        // to ~120 KiB against the 64 KiB capacity.
        let capacity = 64 * 1024;
        let cache = ProxyCache::with_shards(capacity, Duration::from_secs(60), 8);
        for i in 0..6 {
            let big = cacheable(&"G".repeat(20 * 1024), 600);
            assert!(cache.put(
                &format!("http://site{i}.example/big"),
                &Method::Get,
                &big,
                i
            ));
            assert!(
                cache.used_bytes() <= capacity,
                "global budget violated after insert {i}: {} > {capacity}",
                cache.used_bytes()
            );
        }
        assert!(cache.stats().evictions > 0);
        // The most recent insert always survives its own sweep.
        assert!(cache.get("http://site5.example/big", 10).is_some());
    }

    #[test]
    fn shard_byte_budgets_are_enforced_independently() {
        // 8 shards x 8 KiB each: flooding one site's URL space must evict
        // within shards without ever exceeding any shard's budget.
        let cache = ProxyCache::with_shards(64 * 1024, Duration::from_secs(60), 8);
        for i in 0..200 {
            let resp = cacheable(&"y".repeat(1500), 600);
            cache.put(&format!("http://a.example/{i}"), &Method::Get, &resp, i);
        }
        assert!(cache.used_bytes() <= 64 * 1024);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn a_lifetime_beyond_u64_is_stored_and_served() {
        let cache = ProxyCache::with_defaults();
        let resp = cacheable("forever", u64::MAX);
        assert!(cache.put("http://a.com/", &Method::Get, &resp, 100));
        assert!(cache.get("http://a.com/", 101).is_some());
        // Read as 2^31 seconds, the most a delta-seconds value may say.
        assert!(cache.contains_fresh("http://a.com/", 1 << 31));
    }

    /// A single-shard cache with room for exactly `entries` entries of
    /// `page`'s size.
    fn cache_for(entries: usize, page: &Response) -> ProxyCache {
        let size = page.body.len() + 512;
        ProxyCache::with_shards(entries * size, Duration::from_secs(60), 1)
    }

    fn key(i: usize) -> String {
        format!("http://ring.example/{i}")
    }

    #[test]
    fn a_hit_spares_an_entry_from_the_next_eviction() {
        let page = cacheable("p", 1000);
        let cache = cache_for(3, &page);
        for i in 0..3 {
            cache.put(&key(i), &Method::Get, &page, 0);
        }
        assert!(cache.get(&key(0), 1).is_some());
        cache.put(&key(3), &Method::Get, &page, 2);
        // The oldest entry was visited, so the hand cleared its bit and took
        // the next one instead.
        assert!(cache.contains_fresh(&key(0), 2));
        assert!(!cache.contains_fresh(&key(1), 2));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn expired_entries_go_when_the_hand_reaches_them_even_if_visited() {
        let short = cacheable("s", 10);
        let cache = cache_for(3, &short);
        cache.put(&key(0), &Method::Get, &short, 0);
        cache.put(&key(1), &Method::Get, &cacheable("l", 1000), 0);
        cache.put(&key(2), &Method::Get, &cacheable("l", 1000), 0);
        assert!(cache.get(&key(0), 5).is_some());
        cache.put(&key(3), &Method::Get, &cacheable("l", 1000), 20);
        // The hand starts at the oldest entry, which is visited but expired.
        assert!(!cache.shards[0].lock().index.contains_key(key(0).as_str()));
        assert!(cache.contains_fresh(&key(1), 20));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn a_re_put_keeps_its_ring_position_and_counts_as_a_visit() {
        let page = cacheable("p", 1000);
        let cache = cache_for(3, &page);
        for i in 0..3 {
            cache.put(&key(i), &Method::Get, &page, 0);
        }
        // Storing key 1 again does not move it to the head, but marks it.
        assert!(cache.put(&key(1), &Method::Get, &page, 1));
        cache.put(&key(3), &Method::Get, &page, 2);
        cache.put(&key(4), &Method::Get, &page, 3);
        assert!(!cache.contains_fresh(&key(0), 3));
        assert!(cache.contains_fresh(&key(1), 3));
        assert!(!cache.contains_fresh(&key(2), 3));
        cache.shards[0].lock().check();
    }

    #[test]
    fn evicting_puts_take_amortized_constant_hand_steps() {
        let page = cacheable(&"c".repeat(2_096), 1_000_000);
        let entries = 6_400;
        let cache = cache_for(entries, &page);
        for i in 0..entries {
            cache.put(&key(i), &Method::Get, &page, 0);
        }
        for i in (0..entries).step_by(2) {
            assert!(cache.get(&key(i), 1).is_some());
        }
        assert_eq!(cache.stats().evictions, 0, "the shard is exactly full");
        for i in entries..entries + 10_000 {
            cache.put(&key(i), &Method::Get, &page, 2);
        }
        let shard = cache.shards[0].lock();
        let evictions = shard.stats.evictions;
        assert_eq!(evictions, 10_000, "one victim per insert");
        assert!(
            shard.hand_steps <= 2 * evictions + entries as u64,
            "{} hand steps for {evictions} evictions",
            shard.hand_steps
        );
        shard.check();
    }

    /// The same trace's hit ratio under the eviction this ring replaced,
    /// which scanned the shard for the entry to expire soonest and then the
    /// least recently used one (recency in whole seconds).
    const SCAN_ZIPF_HIT_RATIO: f64 = 0.6296;

    /// Hit ratio of a single-shard cache holding about 1,000 entries under a
    /// Zipf (s = 1.0) trace over 10,000 keys, with `now` = request index.
    fn zipf_hit_ratio() -> f64 {
        const KEYS: usize = 10_000;
        const REQUESTS: u64 = 100_000;
        let mut cdf = Vec::with_capacity(KEYS);
        let mut total = 0.0;
        for rank in 1..=KEYS {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let cache = ProxyCache::with_shards(1_000 * 1_024, Duration::from_secs(60), 1);
        let page = cacheable(&"z".repeat(512), 1_000_000);
        for now in 0..REQUESTS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = cdf.partition_point(|&c| c < u);
            let key = format!("http://zipf.example/{rank}");
            if cache.get(&key, now).is_none() {
                cache.put(&key, &Method::Get, &page, now);
            }
        }
        cache.stats().hit_ratio()
    }

    #[test]
    fn zipf_hit_ratio_is_no_worse_than_the_scan() {
        let ratio = zipf_hit_ratio();
        assert!(
            ratio >= SCAN_ZIPF_HIT_RATIO - 0.01,
            "hit ratio {ratio:.4} < {SCAN_ZIPF_HIT_RATIO} - 0.01"
        );
    }

    /// Random puts (some larger than a shard's budget, some re-puts), hits,
    /// invalidations and clears.  After every operation each shard's ring
    /// must agree with its index and byte count and usage must fit the
    /// capacity.  And an entry last hit (or stored again) at time `t` must
    /// outlive every entry of its shard that was inserted before `t` and
    /// never hit since: the hand has to pass such an entry before it can
    /// come back to a visited one.  FIFO breaks this; SIEVE does not.
    #[test]
    fn ring_invariants_hold_under_random_operations() {
        for shards in [1, 8] {
            for case in 0..32u64 {
                let mut state = 0x2545_f491_4f6c_dd1d ^ (case << 8 | shards);
                let mut next = move |bound: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % bound
                };
                let capacity = 16 * 1024;
                let cache =
                    ProxyCache::with_shards(capacity, Duration::from_secs(60), shards as usize);
                // Resident keys: (inserted at, last hit or re-put at).
                let mut model: HashMap<String, (u64, Option<u64>)> = HashMap::new();
                for now in 0..200 {
                    let name = format!("http://a.com/{}", next(24));
                    match next(20) {
                        0..=9 => {
                            // One in five bodies exceeds an 8-shard budget.
                            let len = if next(5) == 0 {
                                2_048 + next(8_192)
                            } else {
                                next(1_500)
                            };
                            let body = "x".repeat(len as usize);
                            if cache.put(&name, &Method::Get, &cacheable(&body, 600), now) {
                                model
                                    .entry(name)
                                    .and_modify(|e| e.1 = Some(now))
                                    .or_insert((now, None));
                            }
                        }
                        10..=16 => {
                            let hit = cache.get(&name, now).is_some();
                            assert_eq!(hit, model.contains_key(&name));
                            if let Some(entry) = model.get_mut(&name) {
                                entry.1 = Some(now);
                            }
                        }
                        17..=18 => {
                            assert_eq!(cache.invalidate(&name), model.remove(&name).is_some());
                        }
                        _ => {
                            cache.clear();
                            model.clear();
                        }
                    }
                    for shard in &cache.shards {
                        shard.lock().check();
                    }
                    assert!(cache.used_bytes() <= capacity);
                    let evicted: Vec<(String, (u64, Option<u64>))> = model
                        .iter()
                        .filter(|(k, _)| !cache.contains_fresh(k, now))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    for (gone, _) in &evicted {
                        model.remove(gone);
                    }
                    assert_eq!(cache.len(), model.len());
                    for (gone, (_, hit)) in &evicted {
                        let Some(hit) = *hit else { continue };
                        for (kept, (inserted, kept_hit)) in &model {
                            assert!(
                                kept_hit.is_some()
                                    || *inserted >= hit
                                    || cache.shard_index(kept) != cache.shard_index(gone),
                                "{gone}, hit at {hit}, was evicted before {kept}, \
                                 inserted at {inserted} and never hit"
                            );
                        }
                    }
                }
            }
        }
    }
}
